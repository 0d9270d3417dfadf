"""Record the CLI golden file replayed by tests/test_cli.py and by CI.

Runs every command of CASES under --format text, json and csv, then every
sweep of SWEEPS under --format json, all in process, and writes each exit
code to tests/cli_golden.json with the command's stdout, or for a sweep
the SHA-256 of its stdout.  The JSON form of a sweep carries every
counterexample and witness, where the text form prints only their count,
so the digests pin the sweeps' answers past the range of CASES.
Re-record only on purpose, when an output change is intended, and list
every re-recorded case in CHANGES.md:

    PYTHONPATH=src python tests/record_cli_golden.py

With --check it writes nothing: it runs every recorded case again, the
arguments after --check (such as --workers 2) placed before the
subcommand, prints one line per case and exits 1 if an exit code, stdout
or digest differs:

    PYTHONPATH=src python tests/record_cli_golden.py --check --workers 2
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from circulant_ci.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "csv")
CASES = (
    ["key", "8", "1,2,5"],
    ["key", "9", "1,4,7", "--partition"],
    ["key", "72", "4,8,12,36"],
    ["key", "72", "4,8,12,36", "--partition"],
    ["iso", "8", "1,2,5", "2,3,7"],
    ["iso", "8", "1,2,5", "1,2,3"],
    ["iso", "8", "1,2,5", "1,5,6", "--oracle"],
    ["iso", "8", "1,2,5", "1,2,3", "--oracle"],
    ["iso", "12", "1,5", "1,7", "--mode", "graph", "--close-inverses"],
    ["iso", "8", "", ""],
    ["iso", "8", "", "1", "--oracle"],
    ["iso", "8", "", "", "--oracle"],
    ["iso", "12", "1,3,9,11", "3,5,7,9", "--mode", "graph", "--oracle"],
    ["iso", "5", "1,2", "1,4", "--oracle"],
    ["iso", "7", "1", "1,2", "--oracle"],
    ["ci", "8", "1,2,5"],
    ["ci", "9", "1,4,7"],
    ["ci", "12", "1,5"],
    ["ci", "8", ""],
    ["ci", "16", "2,4,10"],
    ["ci", "8", "1,2", "--mode", "graph", "--close-inverses"],
    ["ci", "384", "2,25,73"],
    # two double-coset shapes, decided by the full scan and the reduction
    ["ci", "27", "1,8,10,17,19,26"],
    ["ci", "54", "1,17,19,27,35,37,53", "--mode", "graph"],
    ["classify", "9", "4"],
    ["classify", "8", "3", "--mode", "graph"],
    ["classify", "16", "6", "--mode", "graph"],
    ["verify", "--n-max", "10", "--m-max", "4"],
    ["verify", "--n-max", "12", "--m-max", "7", "--mode", "graph"],
    ["verify", "--n-max", "3"],
    ["witness", "16", "--mode", "graph"],
    ["witness", "9"],
    ["witness", "30"],
    ["witness", "600", "--mode", "graph"],
    # refusals: a modulus and a residue outside the domain (exit 2), and a
    # modulus past the oracle cutoff (exit 4), each with empty stdout
    ["witness", "1"],
    ["ci", "8", "0"],
    ["iso", "13", "1", "1", "--oracle"],
)

SWEEPS = (
    ["--format", "json", "verify", "--n-max", "20", "--m-max", "6"],
    # n = 72 = 8 * 9 is the least modulus where a set is a candidate at two primes
    ["--format", "json", "verify", "--n-max", "72", "--m-max", "6", "--mode", "digraph"],
    ["--format", "json", "verify", "--n-max", "72", "--m-max", "10", "--mode", "graph"],
)


def argv_lists() -> list[list[str]]:
    """Every recorded command, in the golden file's order."""
    return [["--format", fmt] + command for command in CASES for fmt in FORMATS] + list(SWEEPS)


def run_case(argv: list[str], dump_dir: Path, digest: bool) -> dict:
    """Exit code and stdout, or its SHA-256, of one command run in process;
    classify/verify dump into dump_dir."""
    if {"classify", "verify"} & set(argv):
        argv = argv + ["--dump", str(dump_dir / "dump.json")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if digest:
        return {"code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    return {"code": code, "stdout": out.getvalue()}


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [
            {"argv": argv, **run_case(argv, Path(tmp), argv in SWEEPS)}
            for argv in argv_lists()
        ]


def check(flags: list[str]) -> list[list[str]]:
    """Replay every case of the golden file, flags before its argv; the
    argv of each case whose exit code, stdout or digest differs."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in json.loads(GOLDEN.read_text()):
            argv = case.pop("argv")
            got = run_case(flags + argv, Path(tmp), "sha256" in case)
            if got != case:
                failed.append(argv)
            print("ok" if got == case else "MISMATCH", got["code"], *flags, *argv, flush=True)
    return failed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        sys.exit(bool(check(sys.argv[2:])))
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
