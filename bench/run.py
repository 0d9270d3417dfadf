"""circulant-ci benchmark: four workloads, timed end to end and per layer.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in BENCHMARK.json):
  sweep    the researcher's classification run: `verify` over a digraph and
           a graph (n, m) range, serial, and the digraph range again with
           --workers 2
  session  one library process answering a seeded stream of decide_ci and
           muzychuk_isomorphic queries on coset-union sets
  oneshot  three cold CLI processes (witness 384, witness 600 --mode graph,
           ci 384 ...), as a one-off user pays for them
  oracle   criterion against the brute-force oracle on every same-size pair
           of orbit representatives for n <= 11, plus a seeded n = 12 sample

Every timed repetition runs in a fresh interpreter, because the library's
module-level caches would otherwise turn a second repetition into cache hits.
The CLI runs as `python -m circulant_ci.cli` with src/ on PYTHONPATH; the
library is driven through its public functions by bench/child.py.

--trace 0 repeats the workload until --seconds have passed and prints the
end-to-end metrics: the medians of setup_s (trivial CLI calls, or every
library child from launch until ready), wall_s and parallel_wall_s (the same
work on two worker processes), and peak_rss_mb (the largest of the serial
processes).  --trace 1 runs the serial phase once
untraced and once with every layer wrapped (see spans.py) and prints the
per-layer metrics, including the tracing overhead.

Every answer is checked: CLI stdout byte for byte against golden/, session
verdicts by independent arithmetic and, for recorded seeds, by the digest of
the whole verdict stream, and oracle pairs by agreement of criterion and
oracle.  The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it holds the stamp (nproc, Python, load average, sample
counts), every sample, failed_frac and, for session and oracle, the median
per-operation latency with the highest percentile that has ten samples
beyond it.

The run exits non-zero without a result when src/ is missing, a process
crashes or the run outlives DEADLINE_S.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
WORKLOADS = ("sweep", "session", "oneshot", "oracle")
# this long after the run starts, every process it started is killed and the
# run ends without a result, so a slow program never reads as a wrong answer
DEADLINE_S = 170
ORACLE_EXHAUSTIVE_PAIRS = 3554  # same-size representative pairs, n <= 11, both modes

# CLI commands and the golden file holding their stdout at the seed commit
CLI = {
    "probe": ["key", "8", "1,2,5"],
    "sweep-digraph": ["verify", "--mode", "digraph", "--n-max", "20", "--m-max", "6"],
    "sweep-graph": ["verify", "--mode", "graph", "--n-max", "32", "--m-max", "10"],
    "witness-384": ["witness", "384"],
    "witness-600-graph": ["witness", "600", "--mode", "graph"],
    "ci-384": ["ci", "384", "1,2,49,97,130,145,193,241,258,289,337"],
}
PARALLEL_SWEEP = ["--workers", "2"] + CLI["sweep-digraph"]  # stdout = sweep-digraph
SWEEP_SERIAL = ("sweep-digraph", "sweep-graph")
ONESHOT = ("witness-384", "witness-600-graph", "ci-384")
SETUP_PROBES = 2  # CLI workloads: trivial calls timed for setup_s, per repetition
# two busy worker processes vary more than one, since either can share a CPU
# with other load, so each repetition times the parallel form twice
PARALLEL_PER_REPETITION = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Processes:
    """Starts children; at the deadline kills them all and fails the run."""

    def __init__(self, deadline_s: float):
        self.live: set[subprocess.Popen] = set()
        self.lock = threading.Lock()
        self.expired = False
        self.timer = threading.Timer(deadline_s, self.expire)
        self.timer.daemon = True
        self.timer.start()

    def spawn(self, argv: list[str]) -> subprocess.Popen:
        with self.lock:
            if self.expired:
                raise BenchError("deadline passed")
            p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 env=child_env(), cwd=ROOT, text=True)
            self.live.add(p)
        return p

    def _wait(self, p: subprocess.Popen) -> float:
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        with self.lock:
            self.live.discard(p)
        return usage.ru_maxrss / 1024

    def reap(self, p: subprocess.Popen) -> float:
        """Wait for p; returns its peak RSS in MB."""
        rss = self._wait(p)
        if self.expired:
            raise BenchError("deadline passed")
        return rss

    def expire(self) -> None:
        with self.lock:
            self.expired = True
            procs = list(self.live)
        for p in procs:
            p.kill()

    def close(self) -> None:
        self.timer.cancel()
        self.expire()
        for p in list(self.live):
            self._wait(p)


PROCS: Processes  # set in main()


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.out").read_text()


def run_cli(argv: list[str]) -> tuple[str, int, float, float]:
    """One fresh CLI process: (stdout, exit code, wall s, peak RSS MB)."""
    start = time.perf_counter()
    p = PROCS.spawn([sys.executable, "-m", "circulant_ci.cli", *argv])
    p.stdin.close()
    out = p.stdout.read()
    rss = PROCS.reap(p)
    return out, p.returncode, time.perf_counter() - start, rss


class Child:
    """A bench/child.py process speaking the ready/go/done protocol."""

    def __init__(self, job: dict):
        self.started = time.perf_counter()
        self.p = PROCS.spawn([sys.executable, str(BENCH / "child.py")])
        self.p.stdin.write(json.dumps(job) + "\n")
        self.p.stdin.flush()

    def _expect(self, word: str) -> float:
        line = self.p.stdout.readline().strip()
        if line != word:
            self.p.kill()
            raise BenchError(f"child sent {line!r}, expected {word!r}")
        return time.perf_counter()

    def ready(self) -> float:
        """Seconds from launch until the child is ready to be timed."""
        return self._expect("ready") - self.started

    def go(self) -> float:
        self.p.stdin.write("go\n")
        self.p.stdin.flush()
        return time.perf_counter()

    def done(self) -> float:
        return self._expect("done")

    def result(self) -> tuple[dict, float]:
        line = self.p.stdout.readline()
        self.p.stdin.close()
        rss = PROCS.reap(self.p)
        if self.p.returncode != 0 or not line:
            raise BenchError(f"child exited with {self.p.returncode}")
        return json.loads(line), rss


def traced_cli(argv: list[str]) -> tuple[dict, float]:
    """cli.main in-process with every layer wrapped: (result, wall s)."""
    child = Child({"task": "cli", "argv": argv, "trace": True})
    result, _ = child.result()
    return result, time.perf_counter() - child.started


def time_together(children: list[Child]) -> tuple[list[float], float]:
    """Waits until every child is ready, then starts them at once.

    Returns each child's set-up time and the wall time until the last one
    is done.
    """
    setups = [c.ready() for c in children]
    start = time.perf_counter()
    for c in children:
        c.go()
    return setups, max(c.done() for c in children) - start


class Tally:
    """Everything one run measures."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.parallel_wall_s: list[float] = []
        self.rss_mb: list[float] = []
        self.latency_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}
        self.traces: list[dict] = []

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# --- workloads --------------------------------------------------------------
# Each workload has setup(tally), serial(tally, trace) -> wall s and
# parallel(tally) -> wall s; the three in turn are one repetition.


class CliWorkload:
    def __init__(self, serial_names, parallel_jobs):
        self.serial_names = serial_names
        self.parallel_jobs = parallel_jobs  # [(argv, golden name)]

    def setup(self, t: Tally) -> None:
        for _ in range(SETUP_PROBES):
            out, code, wall, _ = run_cli(CLI["probe"])
            t.check(code == 0 and out == golden("probe"))
            t.setup_s.append(wall)

    def serial(self, t: Tally, trace: bool) -> float:
        total = 0.0
        for name in self.serial_names:
            if trace:
                result, wall = traced_cli(CLI[name])
                t.traces.append(result["trace"])
                shares = self_time_shares(per_layer_metrics([result["trace"]], wall, wall))
                t.notes.setdefault("shares_by_command", {})[name] = shares
                t.notes.setdefault("traced_wall_s", {})[name] = wall
                out, code = result["stdout"], result["rc"]
            else:
                out, code, wall, rss = run_cli(CLI[name])
                t.rss_mb.append(rss)
                t.notes.setdefault("wall_s", {}).setdefault(name, []).append(wall)
            t.check(code == 0 and out == golden(name))
            total += wall
        return total

    def parallel(self, t: Tally) -> float:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(lambda job: run_cli(job[0]), self.parallel_jobs))
        wall = time.perf_counter() - start
        for (_, name), (out, code, _, _) in zip(self.parallel_jobs, runs):
            t.check(code == 0 and out == golden(name))
        return wall


def session_digest(records: list[dict]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_session(queries: list[dict], records: list[dict]) -> list[bool]:
    """Per query: is the answer right by arithmetic the library does not do?"""
    ok = []
    for q, r in zip(queries, records):
        if r is None or "error" in r:
            ok.append(False)
        elif q["kind"] == "iso":
            ok.append(r["isomorphic"] is True and r["multiplier"] is not None)
        elif r["is_ci"]:
            ok.append(r["witness"] is None)
        else:
            w = r["witness"]
            ok.append(w is not None and len(w) == len(q["s"]) and 0 not in w
                      and tuple(w) not in workloads.unit_orbit(q["s"], q["n"]))
    ok.extend([False] * (len(queries) - len(records)))
    return ok


def recorded_session_digest(seed: int) -> str | None:
    return json.loads((GOLDEN / "session_digests.json").read_text()).get(str(seed))


class LibraryWorkload:
    """A workload bench/child.py answers through the library's functions.

    The parallel form gives each of two children half of the operations.
    """

    def setup(self, t: Tally) -> None:
        pass  # each child's launch-to-ready time is a set-up sample

    def serial(self, t: Tally, trace: bool) -> float:
        child = Child(self.job([0, 1], trace))
        (setup,), wall = time_together([child])
        t.setup_s.append(setup)
        result, rss = child.result()
        self.check(t, [result])
        if trace:
            t.traces.append(result["trace"])
        else:
            t.rss_mb.append(rss)
            t.latency_s.extend(result["latencies_s"])
        return wall

    def parallel(self, t: Tally) -> float:
        children = [Child(self.job([i, 2], False)) for i in range(2)]
        setups, wall = time_together(children)
        t.setup_s.extend(setups)
        self.check(t, [c.result()[0] for c in children])
        return wall


class SessionWorkload(LibraryWorkload):
    def __init__(self, seed: int):
        self.queries = workloads.session_queries(seed)
        self.warmup = workloads.session_warmup(seed)
        self.expected = recorded_session_digest(seed)

    def indices(self, part: list[int]) -> list[int]:
        """The queries child i of k answers, for part = [i, k].  They are
        split by slot, the place in the unshuffled stream, so both halves of
        the parallel form ask about the same classes whatever the seed."""
        i, k = part
        return [j for j, q in enumerate(self.queries) if q["slot"] % k == i]

    def job(self, part: list[int], trace: bool) -> dict:
        queries = [self.queries[j] for j in self.indices(part)]
        return {"task": "session", "queries": queries, "warmup": self.warmup,
                "trace": trace}

    def check(self, t: Tally, results: list[dict]) -> None:
        records = [None] * len(self.queries)
        for i, result in enumerate(results):
            for j, record in zip(self.indices([i, len(results)]), result["records"]):
                records[j] = record
        for ok in check_session(self.queries, records):
            t.check(ok)
        digest = session_digest(records)
        t.notes.setdefault("digests", set()).add(digest)
        t.notes["digest_recorded"] = self.expected is not None
        if self.expected is not None:
            t.check(digest == self.expected)


class OracleWorkload(LibraryWorkload):
    def __init__(self, seed: int):
        self.seed = seed

    def job(self, part: list[int], trace: bool) -> dict:
        return {"task": "oracle", "seed": self.seed, "part": part, "trace": trace}

    def check(self, t: Tally, results: list[dict]) -> None:
        for result in results:
            for r in result["records"]:
                t.check("error" not in r and r["criterion"] == r["oracle"])
            t.check(result["exhaustive_pairs"] == ORACLE_EXHAUSTIVE_PAIRS)


def make_workload(name: str, seed: int):
    if name == "sweep":
        return CliWorkload(SWEEP_SERIAL, [(PARALLEL_SWEEP, "sweep-digraph")])
    if name == "oneshot":
        return CliWorkload(ONESHOT, [(CLI[n], n) for n in ONESHOT])
    if name == "session":
        return SessionWorkload(seed)
    return OracleWorkload(seed)


# --- metrics ----------------------------------------------------------------


TAIL_PERCENTILES = (99.9, 99, 95, 90)  # the highest one with enough samples is reported


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None unless at least ten samples lie
    beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def end_to_end_metrics(t: Tally) -> dict:
    return {
        "setup_s": (statistics.median(t.setup_s), "s"),
        "wall_s": (statistics.median(t.wall_s), "s"),
        "parallel_wall_s": (statistics.median(t.parallel_wall_s), "s"),
        "peak_rss_mb": (max(t.rss_mb), "MB"),
    }


def per_layer_metrics(traces: list[dict], untraced_wall: float, traced_wall: float) -> dict:
    """Sums the traced processes of one run into the per-layer metrics."""
    span = {name: [0, 0.0, 0.0] for name in (f"{m}.{f}" for m, f in spans.LAYERS)}
    counters = dict.fromkeys(spans.COUNTERS, 0)
    cache_size = 0
    for tr in traces:
        for name, values in tr["spans"].items():
            span[name] = [a + b for a, b in zip(span[name], values)]
        for name, value in tr["counters"].items():
            counters[name] += value
        cache_size = max(cache_size, tr["key_partition_cache_size"])
    out = {}
    for name, values in span.items():
        for field, value in zip(spans.SPAN_FIELDS, values):
            out[f"{name}.{field}"] = (value, "count" if field == "calls" else "s")
    for kind in spans.FAST_PATHS:
        out[f"engine.fast_path.{kind}"] = (counters[f"fast_path.{kind}"], "count")
    visited = counters["orbit_subsets_visited"]
    kept = counters["orbit_representatives_kept"]
    out["engine.orbit_representatives.subsets_visited"] = (visited, "count")
    out["engine.orbit_representatives.kept_ratio"] = (kept / visited if visited else 0.0, "ratio")
    out["keys.lattice_keys_scanned"] = (counters["lattice_keys_scanned"], "count")
    decisions = span["engine.decide_ci"][0] + span["engine.muzychuk_isomorphic"][0]
    keys_per = span["keys.key_of_set"][0] / decisions if decisions else 0.0
    out["keys.key_of_set.per_decision"] = (keys_per, "ratio")
    out["keys.key_partition.cache_size"] = (cache_size, "count")
    out["multipliers.solving_set.size_sum"] = (counters["solving_set_size_sum"], "count")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def self_time_shares(metrics: dict) -> dict:
    """Share of traced self time per layer function, largest first."""
    selfs = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
    return {name: round(v / total, 3) for name, v in ranked if v / total >= 0.005}


# --- running ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    loadavg = os.getloadavg()
    w = make_workload(workload, seed)
    t = Tally()
    started = time.perf_counter()
    if trace:
        w.setup(t)
        untraced = w.serial(t, False)
        traced = w.serial(t, True)
        metrics = per_layer_metrics(t.traces, untraced, traced)
        reps = 1
    else:
        reps = 0
        timed_from = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            w.setup(t)
            t.wall_s.append(w.serial(t, False))
            for _ in range(PARALLEL_PER_REPETITION):
                t.parallel_wall_s.append(w.parallel(t))
            reps += 1
            took = time.perf_counter() - rep_start
            if time.perf_counter() - timed_from + took / 2 >= seconds:
                break
        metrics = end_to_end_metrics(t)
    if "digests" in t.notes:
        t.check(len(t.notes["digests"]) == 1)  # every repetition gave the same stream
    report = {
        "stamp": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_start": loadavg,
            "samples": {"repetitions": reps, "setup_s": len(t.setup_s),
                        "wall_s": len(t.wall_s), "parallel_wall_s": len(t.parallel_wall_s),
                        "peak_rss_mb": len(t.rss_mb), "latency": len(t.latency_s)},
            "run_s": round(time.perf_counter() - started, 3),
        },
        "failed_frac": t.failed / t.attempted,
    }
    if not trace:
        report["samples"] = {"setup_s": t.setup_s, "wall_s": t.wall_s,
                             "parallel_wall_s": t.parallel_wall_s}
    if t.latency_s:
        ms = [x * 1000 for x in t.latency_s]
        report["latency_ms"] = {"p50": percentile(ms, 50)}
        tail = next((q for q in TAIL_PERCENTILES if percentile(ms, q) is not None), None)
        if tail is not None:
            report["latency_ms"][f"p{tail:g}"] = percentile(ms, tail)
    if "wall_s" in t.notes:
        report["wall_s_by_command"] = {k: statistics.median(v) for k, v in t.notes["wall_s"].items()}
    if "digests" in t.notes:
        report["session_digest_recorded"] = t.notes["digest_recorded"]
    if trace:
        report["self_time_shares"] = self_time_shares(metrics)
        if "shares_by_command" in t.notes:
            report["self_time_shares_by_command"] = t.notes["shares_by_command"]
            report["traced_wall_s_by_command"] = t.notes["traced_wall_s"]
    result = {
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    global PROCS
    args = parse_args(argv)
    if not (ROOT / "src" / "circulant_ci" / "__init__.py").is_file():
        print(f"error: no circulant_ci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    PROCS = Processes(DEADLINE_S)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        PROCS.close()
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
