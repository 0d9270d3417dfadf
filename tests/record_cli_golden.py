"""Record the CLI golden file replayed by tests/test_cli.py.

Runs every command of CASES under --format text, json and csv, in
process, and writes its stdout and exit code to tests/cli_golden.json.
Re-record only on purpose, when an output change is intended:

    PYTHONPATH=src python tests/record_cli_golden.py
"""

from __future__ import annotations

import contextlib
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
)


def run_case(argv: list[str], dump_dir: Path) -> tuple[int, str]:
    """Exit code and stdout of one command; classify/verify dump into dump_dir."""
    if {"classify", "verify"} & set(argv):
        argv = argv + ["--dump", str(dump_dir / "dump.json")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def record() -> list[dict]:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for command in CASES:
            for fmt in FORMATS:
                argv = ["--format", fmt] + command
                code, stdout = run_case(argv, Path(tmp))
                cases.append({"argv": argv, "code": code, "stdout": stdout})
    return cases


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
