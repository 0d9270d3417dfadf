"""Per-layer tracing from outside the library.

Each traced function is wrapped, and the wrapper is put in place of the
original under every name a circulant_ci module holds for it (the defining
module and every module that imported the name), so calls between layers go
through the wrappers too.  A wrapper records one span per call; spans nest
on a stack, and a span's self time is its duration minus the time covered by
the spans it caused.  Spans are folded into per-function totals as they
close, which keeps memory flat over long runs.

The wrappers sit outside any lru_cache, so tracing changes neither what is
cached nor the cache keys.  The counters are counted from calls the program
makes, so they move when the work does: the subsets orbit_representatives
walks are the tuples engine.connection_set_tuples yields, and the lattice
keys key_of_set scans are the key_partition calls made while it runs.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs traced; metric names are <module>.<function>.*
LAYERS = (
    ("engine", "verify_theorems"),
    ("engine", "witnesses"),
    ("engine", "orbit_representatives"),
    ("engine", "decide_ci"),
    ("engine", "is_ci"),
    ("engine", "is_ci_reduced"),
    ("engine", "muzychuk_isomorphic"),
    ("keys", "key_of_set"),
    ("keys", "key_partition"),
    ("multipliers", "solving_set"),
    ("multipliers", "as_permutation"),
    ("cayley", "brute_force_isomorphism"),
    ("cayley", "orbit_members"),
    ("cayley", "build_cayley"),
    ("zn", "factorize"),
    ("zn", "units"),
    ("cli", "main"),
)
SPAN_FIELDS = ("calls", "total_s", "self_s")
FAST_PATHS = ("none", "zero-key", "coset-case-i", "coset-case-ii", "coset-case-iii",
              "reduction")
# counters kept beside the spans; summed across processes except cache sizes
COUNTERS = (
    "orbit_subsets_visited",
    "orbit_representatives_kept",
    "lattice_keys_scanned",
    "solving_set_size_sum",
) + tuple(f"fast_path.{kind}" for kind in FAST_PATHS)


class Tracer:
    def __init__(self) -> None:
        self.spans = {f"{mod}.{fn}": [0, 0.0, 0.0] for mod, fn in LAYERS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[float] = []  # child time covered, per open span
        self._open = dict.fromkeys(self.spans, 0)  # open spans per function
        self._originals: dict[str, object] = {}

    def _wrap(self, name: str, fn, on_result):
        totals = self.spans[name]
        stack = self._stack
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            open_spans[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                open_spans[name] -= 1
                covered = stack.pop()
                totals[0] += 1
                totals[1] += took
                totals[2] += took - covered
                if stack:
                    stack[-1] += took
            if on_result is not None:
                # the hook's own time is hidden from the enclosing span too
                hook_start = clock()
                on_result(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - hook_start
            return result

        return traced

    def _count_yields(self, fn):
        """connection_set_tuples, counting the tuples it yields; not a span,
        so the enumeration stays in orbit_representatives' self time."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters["orbit_subsets_visited"] += 1
                yield item

        return counted

    def install(self) -> None:
        """Wrap every LAYERS function under all of its names in the package."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "circulant_ci" or name.startswith("circulant_ci.")]
        hooks = {
            "engine.decide_ci": self._on_decide_ci,
            "engine.orbit_representatives": self._on_orbit_representatives,
            "keys.key_partition": self._on_key_partition,
            "multipliers.solving_set": self._on_solving_set,
        }
        for mod, fn in LAYERS:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules[f"circulant_ci.{mod}"], fn)
            self._originals[name] = original
            self._replace(package, original, self._wrap(name, original, hooks.get(name)))
        enumerate_sets = sys.modules["circulant_ci.engine"].connection_set_tuples
        self._replace(package, enumerate_sets, self._count_yields(enumerate_sets))

    @staticmethod
    def _replace(package, original, wrapper) -> None:
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _on_decide_ci(self, args, kwargs, verdict) -> None:
        self.counters[f"fast_path.{verdict.fast_path}"] += 1

    def _on_orbit_representatives(self, args, kwargs, reps) -> None:
        self.counters["orbit_representatives_kept"] += len(reps)

    def _on_key_partition(self, args, kwargs, partition) -> None:
        if self._open["keys.key_of_set"]:
            self.counters["lattice_keys_scanned"] += 1

    def _on_solving_set(self, args, kwargs, solving) -> None:
        self.counters["solving_set_size_sum"] += len(solving)

    def report(self) -> dict:
        cache = self._originals["keys.key_partition"].cache_info()
        return {
            "spans": self.spans,
            "counters": self.counters,
            "key_partition_cache_size": cache.currsize,
        }
