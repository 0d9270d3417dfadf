"""Record the sweep digests replayed by tests/test_cli.py and by CI.

Runs every sweep of COMMANDS under --format json, in process, and writes
the SHA-256 of its stdout and its exit code to tests/sweep_digests.json.
The JSON form carries every counterexample and witness, where the text
form prints only their count, so the digests pin the sweeps' answers past
the range of tests/cli_golden.json.  Re-record only on purpose, when an
output change is intended, and list every re-recorded digest in CHANGES.md:

    PYTHONPATH=src python tests/record_sweep_digests.py

With --check it writes nothing: it runs the sweeps again, the arguments
after --check (such as --workers 2) placed before the subcommand, prints
one line per sweep and exits 1 if a digest or exit code differs:

    PYTHONPATH=src python tests/record_sweep_digests.py --check --workers 2
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from record_cli_golden import run_case

DIGESTS = Path(__file__).with_name("sweep_digests.json")
COMMANDS = (
    ["--format", "json", "verify", "--n-max", "20", "--m-max", "6"],
    # n = 72 = 8 * 9 is the least modulus where a set is a candidate at two primes
    ["--format", "json", "verify", "--n-max", "72", "--m-max", "6", "--mode", "digraph"],
    ["--format", "json", "verify", "--n-max", "72", "--m-max", "10", "--mode", "graph"],
)


def sweep_digest(argv: list[str]) -> tuple[int, str]:
    """Exit code and SHA-256 of the stdout of one command, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout = run_case(argv, Path(tmp))
    return code, hashlib.sha256(stdout.encode()).hexdigest()


def record() -> list[dict]:
    cases = []
    for argv in COMMANDS:
        code, digest = sweep_digest(argv)
        cases.append({"argv": argv, "code": code, "sha256": digest})
    return cases


def check(flags: list[str]) -> bool:
    ok = True
    for case in json.loads(DIGESTS.read_text()):
        argv = flags + case["argv"]
        got = sweep_digest(argv)
        same = got == (case["code"], case["sha256"])
        ok = ok and same
        print("ok" if same else "MISMATCH", *got, " ".join(argv), flush=True)
    return ok


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        sys.exit(not check(sys.argv[2:]))
    DIGESTS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
