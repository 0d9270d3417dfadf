"""Tests of the benchmark itself: seeded inputs, failure counting, metric
names and percentiles.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec_metrics(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def printed_metrics(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def fake_tally() -> run.Tally:
    t = run.Tally()
    t.setup_s, t.wall_s, t.parallel_wall_s, t.rss_mb = [0.2, 0.3], [4.0, 5.0], [3.0], [40.0]
    return t


def fake_trace() -> dict:
    return {
        "spans": {f"{m}.{f}": [2, 0.5, 0.25] for m, f in spans.LAYERS},
        "counters": dict.fromkeys(spans.COUNTERS, 3),
        "key_partition_cache_size": 7,
    }


def valid_session_records(queries: list[dict]) -> list[dict]:
    return [
        {"isomorphic": True, "reason": "multiplier-found", "multiplier": [[1]]}
        if q["kind"] == "iso" else {"is_ci": True, "fast_path": "zero-key", "witness": None}
        for q in queries
    ]


# --- seeded inputs ----------------------------------------------------------


def test_same_seed_same_inputs_different_seed_different_inputs():
    assert workloads.session_queries(3) == workloads.session_queries(3)
    assert workloads.session_queries(3) != workloads.session_queries(4)
    assert workloads.session_warmup(3) == workloads.session_warmup(3)
    assert workloads.oracle_sample(31467, 3) == workloads.oracle_sample(31467, 3)
    assert workloads.oracle_sample(31467, 3) != workloads.oracle_sample(31467, 4)


def test_session_queries_are_valid_connection_sets():
    for q in workloads.session_queries(5):
        n, s = q["n"], q["s"]
        assert list(s) == sorted(set(s)) and all(0 < x < n for x in s)
        if q["kind"] == "iso":
            assert tuple(q["t"]) == workloads.scale(s, q["u"], n)


def test_session_halves_hold_the_same_classes_for_every_seed():
    a, b = run.SessionWorkload(1), run.SessionWorkload(2)
    halves = ([0, 2], [1, 2])
    assert sorted(j for part in halves for j in a.indices(part)) == list(range(len(a.queries)))
    for part in halves:
        assert (sorted(a.queries[j]["slot"] for j in a.indices(part))
                == sorted(b.queries[j]["slot"] for j in b.indices(part)))


TRACED_COUNTS = """
import sys
sys.path.insert(0, sys.argv[1])
import circulant_ci as ci
import circulant_ci.cli
from spans import Tracer
tracer = Tracer()
tracer.install()
ci.orbit_representatives(8, 3)
ci.orbit_representatives(8, 3, "graph")
ci.key_of_set(ci.ConnectionSet(72, (1, 2, 5)))
print(tracer.counters["orbit_subsets_visited"], tracer.counters["lattice_keys_scanned"])
"""


def test_counters_count_what_the_library_does():
    proc = subprocess.run([sys.executable, "-c", TRACED_COUNTS, str(BENCH)],
                          env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    visited, scanned = map(int, proc.stdout.split())
    # C(7, 3) digraph 3-sets of Z_8, plus the inverse-closed ones: {4} and
    # one pair out of {1,7}, {2,6}, {3,5}
    assert visited == 35 + 3
    # today's join looks up the partition of every key of Z_72
    # (Catalan(2) * Catalan(3) = 10), then of the join once more
    assert scanned == 10 + 1


def test_deadline_fails_the_run():
    procs = run.Processes(deadline_s=0.5)
    try:
        p = procs.spawn([sys.executable, "-c", "import time; time.sleep(60)"])
        with pytest.raises(run.BenchError):
            procs.reap(p)
        with pytest.raises(run.BenchError):
            procs.spawn([sys.executable, "-c", "pass"])
    finally:
        procs.close()
    assert not procs.live


# --- failures are counted ---------------------------------------------------


def test_planted_wrong_session_verdict_is_counted():
    queries = workloads.session_queries(1)
    records = valid_session_records(queries)
    assert all(run.check_session(queries, records))

    iso = next(i for i, q in enumerate(queries) if q["kind"] == "iso")
    records[iso] = dict(records[iso], isomorphic=False)
    ci = next(i for i, q in enumerate(queries) if q["kind"] == "ci")
    q = queries[ci]
    # a "witness" inside the unit orbit of S is wrong
    records[ci] = {"is_ci": False, "fast_path": "none",
                   "witness": list(workloads.scale(q["s"], 1, q["n"]))}
    ok = run.check_session(queries, records)
    assert ok.count(False) == 2 and not ok[iso] and not ok[ci]


def test_session_witness_of_wrong_size_is_counted():
    q = {"kind": "ci", "n": 8, "s": (1, 2, 5)}
    right = {"is_ci": False, "fast_path": "none", "witness": [2, 3, 7]}
    assert run.check_session([q], [right]) == [True]
    assert run.check_session([q], [dict(right, witness=[2, 3])]) == [False]
    assert run.check_session([q], [{"error": "boom"}]) == [False]


def test_planted_oracle_disagreement_is_counted():
    t = run.Tally()
    result = {"records": [{"criterion": True, "oracle": True},
                          {"criterion": True, "oracle": False},
                          {"error": "OracleCutoffError: n=13"}],
              "exhaustive_pairs": run.ORACLE_EXHAUSTIVE_PAIRS}
    run.OracleWorkload(0).check(t, [result])
    assert (t.attempted, t.failed) == (4, 2)


def test_changed_golden_byte_is_counted(monkeypatch):
    name = "sweep-graph"
    good = run.golden(name)
    bad = good[:100] + ("1" if good[100] != "1" else "2") + good[101:]
    outputs = iter([good, bad])
    monkeypatch.setattr(run, "run_cli", lambda argv: (next(outputs), 0, 1.0, 30.0))
    t = run.Tally()
    work = run.CliWorkload((name, name), [])
    work.serial(t, trace=False)
    assert (t.attempted, t.failed) == (2, 1)


def test_nonzero_exit_is_counted(monkeypatch):
    monkeypatch.setattr(run, "run_cli", lambda argv: (run.golden("probe"), 3, 0.1, 20.0))
    t = run.Tally()
    run.CliWorkload((), []).setup(t)
    assert t.failed == t.attempted == run.SETUP_PROBES


# --- metric names -----------------------------------------------------------


def test_end_to_end_names_match_benchmark_json():
    assert printed_metrics(run.end_to_end_metrics(fake_tally())) == spec_metrics("end_to_end")


def test_per_layer_names_match_benchmark_json():
    metrics = run.per_layer_metrics([fake_trace(), fake_trace()], 1.0, 1.2)
    assert printed_metrics(metrics) == spec_metrics("per_layer")


def test_names_use_allowed_characters():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


# --- percentiles ------------------------------------------------------------


@pytest.mark.parametrize("count, q, reported", [
    (1000, 99, True), (1009, 99, True), (999, 99, False), (100, 99, False),
    (20, 50, True), (19, 50, False), (100, 90, True), (99, 90, False),
])
def test_percentile_needs_ten_samples_beyond(count, q, reported):
    value = run.percentile([float(i) for i in range(count)], q)
    assert (value is not None) == reported
    if reported:
        assert sum(1 for i in range(count) if i > value) >= 10


# --- whole runs -------------------------------------------------------------


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_result_matches_benchmark_json(trace, kind):
    proc = run_bench(BENCH.parent, "--workload", "oracle", "--seed", "2",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 3554
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_metrics(kind)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
