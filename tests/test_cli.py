"""End-to-end tests of the command-line surface."""

import argparse
import json

import pytest

from circulant_ci.cli import _finish_reports, main
from circulant_ci.engine import ClassificationReport
from record_cli_golden import GOLDEN, argv_lists, check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_key_command(capsys):
    code, out, _ = run(capsys, "key", "8", "1,2,5")
    assert code == 0 and out == "[[0,0,1]]\n"
    _, out, _ = run(capsys, "key", "9", "1,4,7")
    assert out == "[[0,1]]\n"
    _, out, _ = run(capsys, "key", "9", "1,2")
    assert out == "[[0,0]]\n"


def test_key_partition_flag(capsys):
    _, out, _ = run(capsys, "key", "9", "1,4,7", "--partition")
    assert out.splitlines() == ["[[0,1]]", "[[0],[1,4,7],[2,5,8],[3],[6]]"]


def test_key_json_format(capsys):
    _, out, _ = run(capsys, "--format", "json", "key", "8", "1,2,5")
    assert json.loads(out) == {"n": 8, "set": [1, 2, 5], "key": [[0, 0, 1]]}


def test_iso_command(capsys):
    code, out, _ = run(capsys, "iso", "8", "1,2,5", "2,3,7")
    assert code == 0 and out == "isomorphic, multiplier [[1,1,3]]\n"
    _, out, _ = run(capsys, "iso", "8", "1,2,5", "1,2,3")
    assert out == "not isomorphic (key-mismatch)\n"
    _, out, _ = run(capsys, "iso", "8", "1,2,5", "1,2,5")
    assert out == "isomorphic, multiplier [[1,1,1]]\n"


def test_iso_oracle_agreement(capsys):
    code, out, _ = run(capsys, "iso", "8", "1,2,5", "1,5,6", "--oracle")
    assert code == 0 and "agree: true" in out
    code, out, _ = run(capsys, "iso", "8", "1,2,5", "1,2,3", "--oracle")
    assert code == 0 and "agree: true" in out


def test_iso_oracle_cutoff_refusal(capsys):
    code, _, err = run(capsys, "iso", "16", "2,4,10", "4,6,14", "--oracle")
    assert code == 4 and "cutoff" in err


def test_ci_command(capsys):
    code, out, _ = run(capsys, "ci", "8", "1,2,5")
    assert code == 0 and out == "non-CI, witness 2,3,7\n"
    _, out, _ = run(capsys, "ci", "9", "1,4,7")
    assert out == "CI (fast path coset-case-i)\n"
    _, out, _ = run(capsys, "ci", "12", "1,5", "--mode", "digraph")
    assert out == "CI (fast path zero-key)\n"


def test_ci_json(capsys):
    _, out, _ = run(capsys, "--format", "json", "ci", "8", "1,2,5")
    obj = json.loads(out)
    assert obj["is_ci"] is False and obj["witness"] == [2, 3, 7]


def test_ci_graph_mode_requires_closure(capsys):
    code, _, err = run(capsys, "ci", "8", "1,2,5", "--mode", "graph")
    assert code == 2 and "inverse-closed" in err
    code, _, _ = run(capsys, "ci", "8", "1,2,5", "--mode", "graph", "--close-inverses")
    assert code == 0


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "key", "8", "1,x,5")
    assert code == 2 and "cannot parse" in err
    code, _, err = run(capsys, "key", "8", "8")  # reduces to 0 mod 8
    assert code == 2 and "0 is not allowed" in err


def test_residues_taken_mod_n(capsys):
    _, out, _ = run(capsys, "key", "8", "9,-6,5")  # 1, 2, 5 mod 8
    assert out == "[[0,0,1]]\n"


def test_empty_set_handling(capsys):
    code, out, _ = run(capsys, "ci", "8", "")
    assert code == 0 and out == "CI\n"  # CI by convention
    code, _, err = run(capsys, "key", "8", "")
    assert code == 2 and "empty" in err  # the key is undefined


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "9", "4", "--mode", "digraph")
    assert code == 0
    assert out.startswith("n=9 m=4 digraph: property false, predicate false, agree")
    code, out, _ = run(capsys, "classify", "8", "3", "--mode", "graph")
    assert code == 0 and "property true" in out and "predicate n/a" in out


def test_verify_command_formats(capsys):
    code, _, _ = run(capsys, "verify", "--n-max", "10", "--m-max", "4")
    assert code == 0
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--n-max", "10", "--m-max", "4"
    )
    rows = json.loads(out)["rows"]
    assert code == 0 and rows and all(row["agree"] for row in rows)
    code, out, _ = run(
        capsys, "--format", "csv", "verify", "--n-max", "10", "--m-max", "4"
    )
    lines = out.splitlines()
    assert lines[0] == "n,m,mode,property,predicate,agree,counterexamples"
    assert len(lines) == len(rows) + 1


def test_verify_worker_output_identical(capsys):
    _, one, _ = run(capsys, "--workers", "1", "verify", "--n-max", "9", "--m-max", "4")
    _, two, _ = run(capsys, "--workers", "2", "verify", "--n-max", "9", "--m-max", "4")
    assert one == two


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "16", "--mode", "graph")
    assert code == 0 and out == "{1,2,7,9,14,15}: non-CI confirmed (mod8-graph)\n"
    _, out, _ = run(capsys, "witness", "9", "--mode", "digraph")
    assert "{1,3,4,7}: non-CI confirmed" in out
    _, out, _ = run(capsys, "witness", "30", "--mode", "digraph")
    assert out == "no applicable witness families\n"
    _, out, _ = run(capsys, "--format", "json", "witness", "16", "--mode", "graph")
    obj = json.loads(out)
    assert obj["families"][0]["set"] == [1, 2, 7, 9, 14, 15]


def test_oracle_cutoff_flag_lowers_cutoff(capsys):
    code, _, err = run(capsys, "--oracle-cutoff", "9", "iso", "10", "1,3", "3,9", "--oracle")
    assert code == 4 and "n=10 > 9" in err


def test_oracle_cutoff_below_two_exits_2(capsys):
    code, out, err = run(capsys, "--oracle-cutoff", "1", "key", "8", "1")
    assert code == 2 and out == "" and err == "error: oracle_cutoff must be at least 2\n"


def test_workers_set_by_flag_only(capsys, monkeypatch):
    # the environment holds no run value: a malformed CIRC_WORKERS is not read
    monkeypatch.setenv("CIRC_WORKERS", "not-a-number")
    code, _, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    code, _, err = run(capsys, "--workers", "0", "verify", "--n-max", "4")
    assert code == 2 and "workers must be at least 1" in err


def test_config_file_flag_removed(tmp_path):
    # a config file is not a way to set a run value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "key", "8", "1"])
    assert exc.value.code == 2


def test_usage_error_exits_2():
    for argv in (
        ["iso", "8", "1,2,5"],  # missing the second set
        ["--seed", "1", "key", "8", "1"],  # the removed --seed flag
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_disagreement_dump(tmp_path, capsys):
    # exercised directly: the engine never produces a disagreeing report
    report = ClassificationReport(9, 4, "digraph", True, (), False, False, None)
    path = tmp_path / "dump.json"
    code = _finish_reports((report,), argparse.Namespace(format="text"), path)
    captured = capsys.readouterr()
    assert code == 3
    assert "DISAGREE" in captured.out
    assert str(path) in captured.err
    assert json.loads(path.read_text())["rows"][0]["agree"] is False


def test_unwritable_dump_keeps_exit_3(tmp_path, capsys):
    # a dump that cannot be written is reported, and the disagreement still exits 3
    report = ClassificationReport(9, 4, "digraph", True, (), False, False, None)
    path = tmp_path / "missing" / "dump.json"
    code = _finish_reports((report,), argparse.Namespace(format="text"), str(path))
    captured = capsys.readouterr()
    assert code == 3
    assert "DISAGREE" in captured.out
    assert captured.err.startswith(f"error: cannot write disagreement dump to {path}: ")
    assert not path.exists()


def test_output_matches_golden_bytes():
    # every command under every --format, then the sweeps past that range by
    # SHA-256, all recorded by tests/record_cli_golden.py: no case added
    # without re-recording and no stale entry
    assert [case["argv"] for case in json.loads(GOLDEN.read_text())] == argv_lists()
    assert check([]) == []


def test_check_names_each_mismatch(tmp_path, monkeypatch):
    # one stdout byte and one digest hex digit changed in a copy: --check
    # fails on exactly those two cases (the untouched file passes above)
    cases = json.loads(GOLDEN.read_text())
    byte_case, sweep_case = cases[0], cases[-1]
    byte_case["stdout"] = "x" + byte_case["stdout"][1:]
    digest = sweep_case["sha256"]
    sweep_case["sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]
    copy = tmp_path / "cli_golden.json"
    copy.write_text(json.dumps(cases))
    monkeypatch.setattr("record_cli_golden.GOLDEN", copy)
    assert check([]) == [byte_case["argv"], sweep_case["argv"]]
