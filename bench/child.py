"""One benchmark process: answers a job read from stdin, in a fresh interpreter.

Protocol, one line each way:
  parent -> child  the job as JSON
  child -> parent  "ready" once imports and warm-up are done
  parent -> child  "go"
  child -> parent  "done" when the timed phase ends, then the result as JSON

Jobs:
  {"task": "session", "queries": [...], "warmup": [...], "trace": bool}
      answers the queries it is given; the parallel form gives each of two
      children half of the stream
  {"task": "oracle", "seed": int, "part": [i, k], "trace": bool}
      answers the pairs whose index is i mod k; the parallel form splits
      them between two children
  {"task": "cli", "argv": [...], "trace": bool}
      cli.main in-process with stdout captured; no ready/go handshake

Every operation is timed on its own; a failing operation is recorded with
its error and the stream goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import workloads
from spans import Tracer


def _signal(word: str) -> None:
    sys.stdout.write(word + "\n")
    sys.stdout.flush()


def _timed_phase(ops, run_one) -> dict:
    """Handshake, then run every op under its own clock and signal done."""
    _signal("ready")
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("expected go")
    clock = time.perf_counter
    records, latencies = [], []
    for op in ops:
        start = clock()
        try:
            record = run_one(op)
        except Exception as exc:  # counted as a failed operation by the parent
            record = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - start)
        records.append(record)
    _signal("done")
    return {"records": records, "latencies_s": latencies}


def run_session(job, ci):
    def answer(q):
        s = ci.ConnectionSet(q["n"], tuple(q["s"]))
        if q["kind"] == "ci":
            v = ci.decide_ci(s)
            return {"is_ci": v.is_ci, "fast_path": v.fast_path,
                    "witness": list(v.witness.members) if v.witness else None}
        v = ci.muzychuk_isomorphic(s, ci.ConnectionSet(q["n"], tuple(q["t"])))
        return {"isomorphic": v.isomorphic, "reason": v.reason,
                "multiplier": (v.witness_multiplier.as_lists()
                               if v.witness_multiplier is not None else None)}

    for q in job["warmup"]:
        answer(q)
    return _timed_phase(job["queries"], answer)


def oracle_pairs(ci, seed: int):
    """Same-size pairs of orbit representatives: all of them for
    n <= ORACLE_EXHAUSTIVE_N in both modes, then the seeded sample of
    digraph pairs at n = ORACLE_SAMPLE_N."""
    def pairs_at(n, mode):
        out = []
        for m in range(1, n):
            reps = ci.orbit_representatives(n, m, mode)
            out.extend((n, mode, a, b) for i, a in enumerate(reps) for b in reps[i:])
        return out

    pairs = [p for n in range(2, workloads.ORACLE_EXHAUSTIVE_N + 1)
             for mode in ("digraph", "graph") for p in pairs_at(n, mode)]
    exhaustive = len(pairs)
    sampled = pairs_at(workloads.ORACLE_SAMPLE_N, "digraph")
    pairs += [sampled[i] for i in workloads.oracle_sample(len(sampled), seed)]
    return pairs, exhaustive


def run_oracle(job, ci):
    pairs, exhaustive = oracle_pairs(ci, job["seed"])
    i, k = job["part"]

    def decide(pair):
        n, mode, a, b = pair
        s, t = ci.ConnectionSet(n, a, mode), ci.ConnectionSet(n, b, mode)
        criterion = ci.muzychuk_isomorphic(s, t).isomorphic
        oracle = ci.brute_force_isomorphic(ci.build_cayley(s), ci.build_cayley(t))
        return {"criterion": criterion, "oracle": oracle}

    return dict(_timed_phase(pairs[i::k], decide), exhaustive_pairs=exhaustive)


def run_cli(job, ci):
    cli = sys.modules["circulant_ci.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(job["argv"])
    return {"rc": code, "stdout": out.getvalue()}


def main() -> int:
    job = json.loads(sys.stdin.readline())
    import circulant_ci as ci
    import circulant_ci.cli  # noqa: F401  (traced like the other layers)

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    task = {"session": run_session, "oracle": run_oracle, "cli": run_cli}[job["task"]]
    result = task(job, ci)
    if tracer is not None:
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
