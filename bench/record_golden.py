"""Record the golden outputs the benchmark checks against.

    python3 bench/record_golden.py

Writes golden/<name>.out, the stdout of every CLI command in run.CLI, and
golden/session_digests.json, the digest of the session verdict stream for
seeds 0..SESSION_DIGEST_SEEDS-1.  Run it only at a commit whose outputs are
trusted: every later run of the benchmark counts a difference from these
files as a failed operation.
"""

from __future__ import annotations

import json
import sys

import run

SESSION_DIGEST_SEEDS = 64


def main() -> int:
    run.PROCS = run.Processes(deadline_s=3600)
    try:
        run.GOLDEN.mkdir(exist_ok=True)
        for name, argv in run.CLI.items():
            out, code, wall, _ = run.run_cli(argv)
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            (run.GOLDEN / f"{name}.out").write_text(out)
            print(f"{name}: {len(out)} bytes, {wall:.2f} s")
        digests = {}
        for seed in range(SESSION_DIGEST_SEEDS):
            w = run.SessionWorkload(seed)
            child = run.Child(w.job([0, 1], False))
            run.time_together([child])
            records = child.result()[0]["records"]
            if not all(run.check_session(w.queries, records)):
                print(f"session seed {seed}: a verdict failed its check", file=sys.stderr)
                return 1
            digests[str(seed)] = run.session_digest(records)
        (run.GOLDEN / "session_digests.json").write_text(json.dumps(digests, indent=1) + "\n")
        print(f"session digests: {len(digests)} seeds")
    finally:
        run.PROCS.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
