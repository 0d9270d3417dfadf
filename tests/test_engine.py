"""Unit tests for the isomorphism criterion, CI decisions, sweeps,
predicates, and witness families."""

import os
import random
import signal
import time

import pytest

from checks import connection_set_reference
from circulant_ci import engine
from circulant_ci.cayley import ConnectionSet, orbit_members
from circulant_ci.multipliers import as_permutation, solving_set
from circulant_ci.engine import (
    decide_ci,
    is_ci,
    is_ci_reduced,
    is_m_group,
    isomorphism_class,
    m_property,
    muzychuk_isomorphic,
    orbit_representatives,
    predicate_ci_group,
    predicate_dci_group,
    predicate_mci,
    predicate_mdci,
    recognize_coset_case,
    verify_theorems,
    witnesses,
)
from circulant_ci.keys import key_of_set, zero_key
from circulant_ci.zn import DomainError, InternalConsistencyError, factorize, units


def _cs(n, members, mode="digraph"):
    return ConnectionSet(n, tuple(sorted(members)), mode)


def test_muzychuk_examples():
    v = muzychuk_isomorphic(_cs(8, (1, 2, 5)), _cs(8, (2, 3, 7)))
    assert v.isomorphic and v.reason == "multiplier-found"
    assert v.witness_multiplier.rows == ((1, 1, 3),)
    perm = as_permutation(v.witness_multiplier)
    assert {perm[x] for x in (1, 2, 5)} == {2, 3, 7}
    same = muzychuk_isomorphic(_cs(8, (1, 2, 5)), _cs(8, (1, 2, 5)))
    assert same.isomorphic and same.witness_multiplier.rows == ((1, 1, 1),)
    v2 = muzychuk_isomorphic(_cs(8, (1, 2, 5)), _cs(8, (1, 2, 3)))
    assert not v2.isomorphic and v2.reason == "key-mismatch"
    assert v2.witness_multiplier is None
    # the empty set has no key: it is isomorphic to itself by the first
    # multiplier of the zero key (the identity), and to no other set
    v3 = muzychuk_isomorphic(_cs(8, ()), _cs(8, ()))
    assert v3.isomorphic and v3.reason == "multiplier-found"
    assert v3.witness_multiplier == next(iter(solving_set(zero_key(factorize(8)))))
    assert v3.witness_multiplier.rows == ((1, 1, 1),)
    for s, t in (((), (1,)), ((1,), ())):
        v4 = muzychuk_isomorphic(_cs(8, s), _cs(8, t))
        assert (v4.isomorphic, v4.reason, v4.witness_multiplier) == (False, "key-mismatch", None)


def test_muzychuk_domain_errors():
    with pytest.raises(DomainError):
        muzychuk_isomorphic(_cs(8, (1,)), _cs(9, (1,)))
    with pytest.raises(DomainError, match="mode"):
        muzychuk_isomorphic(_cs(8, (1, 7), "graph"), _cs(8, (1, 7), "digraph"))


def test_muzychuk_exhausted_for_equal_keys():
    # both keys are zero, but no permutation can match different valencies
    v = muzychuk_isomorphic(_cs(12, (1,)), _cs(12, (1, 5)))
    assert not v.isomorphic and v.reason == "exhausted"


def test_isomorphism_class_of_z8_witness():
    cls = isomorphism_class(_cs(8, (1, 2, 5)))
    assert tuple(c.members for c in cls) == (
        (1, 2, 5),
        (1, 5, 6),
        (2, 3, 7),
        (3, 6, 7),
    )


def test_isomorphism_class_zero_key_is_orbit():
    # the empty set has no key, and is alone in its class, its orbit
    for s in (_cs(12, (1, 5)), _cs(9, (4,)), _cs(12, (), "graph")):
        orbit = orbit_members(s.members, s.n)
        assert tuple(t.members for t in isomorphism_class(s)) == orbit


def test_is_ci_examples():
    v = is_ci(_cs(8, (1, 2, 5)))
    assert not v.is_ci and v.witness.members == (2, 3, 7)
    assert v.witness.members in orbit_members((1, 5, 6), 8)
    assert is_ci(_cs(9, (1, 4, 7))).is_ci
    v9 = is_ci(_cs(9, (1, 3, 4, 7)))
    assert not v9.is_ci and v9.witness.members == (2, 3, 5, 8)
    assert is_ci(_cs(9, ())).is_ci  # the empty set is CI by convention


def test_is_ci_reduced_examples():
    v = is_ci_reduced(_cs(16, (2, 4, 10)))
    assert not v.is_ci
    assert v.fast_path == "reduction"
    assert v.witness.members == (4, 6, 14)
    # a generating set gives the identical verdict
    assert is_ci_reduced(_cs(8, (1, 2, 5))) == is_ci(_cs(8, (1, 2, 5)))
    v12 = is_ci_reduced(_cs(12, (4, 8)))
    assert v12.is_ci and v12.fast_path == "reduction"


def test_recognize_coset_case_examples():
    case = recognize_coset_case(_cs(27, (1, 10, 19)))
    assert case.case == "i" and case.subgroup == (0, 9, 18) and case.shift == 1
    case = recognize_coset_case(_cs(27, (1, 8, 10, 17, 19, 26)))
    assert case.case == "ii" and case.subgroup == (0, 9, 18)
    p_sub = (0, 18, 36)
    members = sorted(
        {(x + 1) % 54 for x in p_sub} | {(x - 1) % 54 for x in p_sub} | {27}
    )
    case = recognize_coset_case(_cs(54, members, "graph"))
    assert case.case == "iii" and case.subgroup == (0, 18, 36)
    assert recognize_coset_case(_cs(8, (1, 2, 5))) is None


def test_coset_case_hypotheses_checked():
    # the half-element shape without p^2 | n must fall through
    assert recognize_coset_case(_cs(12, (1, 3, 5, 6, 7, 9, 11), "graph")) is None
    # double cosets of the subgroup of order 2 are not case ii (p must be odd)
    assert recognize_coset_case(_cs(12, (1, 5, 7, 11), "graph")) is None


def test_zero_key_fast_path_examples():
    v = decide_ci(_cs(12, (1, 5)))
    assert v.is_ci and v.fast_path == "zero-key"
    assert decide_ci(_cs(8, (1, 2, 5))).fast_path != "zero-key"
    # the full set over Z_4 has the maximal = almost zero key
    v4 = decide_ci(_cs(4, (1, 2, 3)))
    assert v4.is_ci and v4.fast_path == "zero-key"


def test_decide_ci_tags():
    assert decide_ci(_cs(9, (1, 4, 7))).fast_path == "coset-case-i"
    assert decide_ci(_cs(12, (1, 5))).fast_path == "zero-key"
    v = decide_ci(_cs(8, (1, 2, 5)))
    assert not v.is_ci and v.witness.members == (2, 3, 7)


@pytest.mark.parametrize("n, members, fast_path", [
    (8, (1, 2, 5), "none"),  # full scan of S itself
    (16, (2, 4, 10), "reduction"),  # decided in <S>, witness lifted back
])
def test_decide_ci_computes_the_key_of_s_once(monkeypatch, n, members, fast_path):
    s = _cs(n, members)
    calls = []

    def counting_key_of_set(t):
        calls.append(t)
        return key_of_set(t)

    monkeypatch.setattr(engine, "key_of_set", counting_key_of_set)
    v = decide_ci(s)
    assert not v.is_ci and v.fast_path == fast_path
    assert calls.count(s) == 1


def test_m_property_examples():
    r = m_property(8, 3, "digraph")
    assert not r.property_holds
    assert r.counterexamples[0][0].members == (1, 2, 5)
    assert m_property(8, 3, "graph").property_holds
    r9 = m_property(9, 4, "digraph")
    assert not r9.property_holds
    assert (1, 3, 4, 7) in {s.members for s, _ in r9.counterexamples}


def test_m_property_bounds():
    with pytest.raises(DomainError):
        m_property(9, 0)
    with pytest.raises(DomainError):
        m_property(9, 9)
    with pytest.raises(DomainError):
        m_property(9, 2, "multigraph")


def test_m_property_raises_on_a_zero_key_verdict(monkeypatch):
    # every set m_property visits has a key that is not (almost) zero
    monkeypatch.setattr(engine, "decide_ci", lambda s: engine.CiVerdict(True, None, "zero-key"))
    assert m_property(30, 4).property_holds  # square-free n: nothing visited
    with pytest.raises(InternalConsistencyError, match="zero key"):
        m_property(9, 1)  # visits {3}


# (n, p) with p the odd prime whose square divides n
SHARP_MODULI = ((25, 5), (49, 7), (121, 11), (169, 13), (50, 5), (98, 7))
# non-CI orbit representatives at the first failing valency, per mode
SHARP_COUNTS = {
    "digraph": {25: 4, 49: 6, 121: 10, 169: 12, 50: 16, 98: 24},
    "graph": {25: 2, 49: 3, 121: 5, 169: 6, 50: 8, 98: 12},
}


@pytest.mark.parametrize("n,p", SHARP_MODULI)
def test_sharp_boundary_at_prime_squares(n, p):
    # the bounds are sharp at p^2 | n: m = p holds and m = p + 1 fails for
    # digraphs, m = 2p + 1 holds and m = 2p + 2 fails for graphs, and the
    # failure contains the lifted Z_{p^2} witness family
    families = {"digraph": "coset-plus-p", "graph": "double-coset"}
    for mode, m in (("digraph", p), ("graph", 2 * p + 1)):
        holds = is_m_group(n, m, mode)
        assert holds.property_holds and holds.agreement, (n, mode, m)
        assert holds.failed_at is None and holds.counterexamples == ()
        fails = is_m_group(n, m + 1, mode)
        assert not fails.property_holds and fails.agreement, (n, mode, m + 1)
        assert fails.failed_at == m + 1
        assert len(fails.counterexamples) == SHARP_COUNTS[mode][n]
        (family,) = [
            w for w in witnesses(n, mode) if w.family == f"z{p * p}-{families[mode]}"
        ]
        least = orbit_members(family.connection_set.members, n)[0]
        assert least in {s.members for s, _ in fails.counterexamples}


def test_orbit_representatives_cover_all_sets():
    for n, m, mode in ((9, 3, "digraph"), (12, 4, "graph")):
        reps = orbit_representatives(n, m, mode)
        seen = set()
        for rep in reps:
            for u in units(n):
                seen.add(tuple(sorted(u * x % n for x in rep)))
        assert seen == set(connection_set_reference(n, m, mode))


def test_unions_pick_the_largest_blocks_first():
    # the order the sweep visits its candidates in: the larger blocks are
    # chosen first, in their given order, and the smallest complete each choice
    blocks = [(4,), (1, 2, 3), (5,), (6,)]
    assert list(engine._unions(blocks, 3)) == [(4, 5, 6), (1, 2, 3)]
    assert list(engine._unions(blocks, 4)) == [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)]


def test_is_m_group_examples():
    assert is_m_group(9, 3, "digraph").property_holds
    r = is_m_group(9, 4, "digraph")
    assert not r.property_holds and r.failed_at == 4 and r.agreement
    for m in (6, 7):
        rg = is_m_group(18, m, "graph")
        assert rg.property_holds and rg.predicate_value and rg.agreement
    # no closed form below the stated ranges
    assert is_m_group(8, 2, "digraph").predicate_value is None
    assert is_m_group(8, 5, "graph").agreement is None


def test_predicate_examples():
    assert predicate_mdci(50, 5)
    assert not predicate_mdci(50, 6)
    assert not predicate_mdci(16, 3)
    assert predicate_mci(9, 100)
    assert predicate_mci(50, 11)
    assert not predicate_mci(50, 12)
    assert predicate_dci_group(12)
    assert not predicate_dci_group(16) and not predicate_ci_group(16)
    assert not predicate_dci_group(18) and predicate_ci_group(18)

    # the two theorems transcribed: no 8 | n, and no p^2 | n for an odd
    # prime p below the bound (m for m-DCI, (m-1)/2 for m-CI, none for the
    # group forms); the CI forms also hold for n in {8, 9, 18}
    odd_primes = [p for p in range(3, 200, 2) if all(p % d for d in range(3, p, 2))]

    def condition(n, below):
        return n % 8 != 0 and not any(below(p) and n % (p * p) == 0 for p in odd_primes)

    for n in range(2, 201):
        exceptional = n in (8, 9, 18)
        assert predicate_dci_group(n) == condition(n, lambda p: True), n
        assert predicate_ci_group(n) == (exceptional or condition(n, lambda p: True)), n
        for m in range(3, 25):
            assert predicate_mdci(n, m) == condition(n, lambda p: p < m), (n, m)
        for m in range(6, 25):
            expected = exceptional or condition(n, lambda p: 2 * p < m - 1)
            assert predicate_mci(n, m) == expected, (n, m)


def test_predicate_ranges_rejected():
    with pytest.raises(DomainError, match="m"):
        predicate_mdci(12, 2)
    with pytest.raises(DomainError, match="m"):
        predicate_mci(12, 5)


def test_witness_families():
    assert [(w.family, w.connection_set.members) for w in witnesses(16, "digraph")] == [
        ("z8-lift", (2, 4, 10))
    ]
    assert [(w.family, w.connection_set.members) for w in witnesses(16, "graph")] == [
        ("mod8-graph", (1, 2, 7, 9, 14, 15))
    ]
    assert [w.connection_set.members for w in witnesses(25, "graph")] == [
        (1, 4, 5, 6, 9, 11, 14, 16, 19, 20, 21, 24)
    ]
    assert witnesses(30, "digraph") == ()
    assert witnesses(9, "graph") == ()  # exceptional orders carry no graph family
    assert [w.connection_set.members for w in witnesses(9, "digraph")] == [(1, 3, 4, 7)]
    with pytest.raises(DomainError, match="at least 2"):
        witnesses(1)
    with pytest.raises(DomainError, match="at least 2"):
        witnesses(0, "graph")


def test_witnesses_applicable_ranges():
    for n in range(2, 101):
        applicable = n % 8 == 0 or any(
            p != 2 and t >= 2 for p, t in factorize(n).parts
        )
        assert bool(witnesses(n, "digraph")) == applicable
    for n in range(2, 51):
        applicable = n not in (8, 9, 18) and (
            n % 8 == 0
            or n % 9 == 0
            or any(p >= 5 and t >= 2 for p, t in factorize(n).parts)
        )
        assert bool(witnesses(n, "graph")) == applicable


def test_verify_theorems_small():
    reports = verify_theorems(12, 6, "digraph")
    assert all(r.agreement for r in reports)
    assert len({(r.n, r.m) for r in reports}) == len(reports)
    reports_g = verify_theorems(12, 7, "graph")
    assert all(r.agreement for r in reports_g)


def test_sweep_walks_each_valency_once(monkeypatch):
    # each n of the sweep tests valencies 1..f(n) once, f(n) the first that
    # fails or else the largest m of n, on every run (no report is kept)
    calls = []

    def counting_m_property(n, m, mode="digraph"):
        calls.append((n, m))
        return m_property(n, m, mode)

    monkeypatch.setattr(engine, "m_property", counting_m_property)
    for _ in range(2):
        calls.clear()
        reports = verify_theorems(12, 6, "digraph")
        # the reports of n ascend in m, and the last one fails where the
        # first failing one does
        last = {r.n: r.failed_at or r.m for r in reports}
        expected = [(n, i) for n, f in last.items() for i in range(1, f + 1)]
        assert sorted(calls) == expected


def test_verify_theorems_parallel_matches_serial():
    # the workers take the largest modulus first, and the reports still come
    # back in task order
    for n_max, m_max, mode in ((24, 6, "digraph"), (32, 10, "graph")):
        serial = verify_theorems(n_max, m_max, mode, workers=1)
        assert verify_theorems(n_max, m_max, mode, workers=2) == serial


def test_verify_theorems_caps_workers_at_tasks(monkeypatch):
    # the real worker map forks every requested worker; the fake starts none
    started = []

    def fake_worker_map(tasks, workers):
        started.append(workers)
        return [engine._group_reports(task) for task in tasks]

    monkeypatch.setattr(engine, "_worker_map", fake_worker_map)
    # the host's CPU count, fixed here so the caps below do not depend on it
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    # cells (4, 3) and (5, 3): one task per n, so two tasks
    assert verify_theorems(5, 3, workers=64) == verify_theorems(5, 3)
    assert started == [2]
    # a single task runs in-process
    assert verify_theorems(4, 3, workers=64) == verify_theorems(4, 3)
    assert started == [2]
    # four tasks (n = 4..7) on three CPUs: three workers
    assert verify_theorems(7, 3, workers=4096) == verify_theorems(7, 3)
    assert started == [2, 3]
    # a platform without fork runs the sweep in-process
    with monkeypatch.context() as patch:
        patch.delattr("os.fork")
        assert verify_theorems(7, 3, workers=4096) == verify_theorems(7, 3)
    assert started == [2, 3]
    # an unknown CPU count caps the workers at one, so none is forked
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert verify_theorems(7, 3, workers=4096) == verify_theorems(7, 3)
    assert started == [2, 3]


def _failing_group_reports(fail):
    # _group_reports, except at the moduli in fail, where fail[n]() is called
    group_reports = engine._group_reports

    def patched(task):
        if task[0] in fail:
            fail[task[0]]()
        return group_reports(task)

    return patched


def _raise_at(n):
    def fail():
        raise InternalConsistencyError(f"planted failure at n = {n}")

    return fail


def test_worker_map_raises_the_lowest_failing_task(monkeypatch):
    # every task runs; the error of the lowest modulus is raised, as in the
    # serial loop, and only after every worker is reaped
    fail = {n: _raise_at(n) for n in (6, 9)}
    monkeypatch.setattr(engine, "_group_reports", _failing_group_reports(fail))
    for workers in (1, 2):
        with pytest.raises(InternalConsistencyError, match="at n = 6$"):
            verify_theorems(10, 4, "digraph", workers=workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_map_takes_the_largest_modulus_first(monkeypatch, tmp_path):
    # each task logs its worker and modulus as it starts; the workers read
    # one queue, largest modulus first, so every worker's moduli descend,
    # and the nine tasks n = 4..12 run once each
    started = tmp_path / "started"
    group_reports = engine._group_reports

    def logging_group_reports(task):
        with open(started, "a") as log:
            log.write(f"{os.getpid()} {task[0]}\n")
        return group_reports(task)

    monkeypatch.setattr(engine, "_group_reports", logging_group_reports)
    assert verify_theorems(12, 4, "digraph", workers=2) == verify_theorems(12, 4)
    by_worker = {}
    for line in started.read_text().splitlines():
        pid, n = map(int, line.split())
        by_worker.setdefault(pid, []).append(n)
    # the serial run, in this process, ascends
    assert by_worker.pop(os.getpid()) == list(range(4, 13))
    assert sorted(n for ns in by_worker.values() for n in ns) == list(range(4, 13))
    assert all(ns == sorted(ns, reverse=True) for ns in by_worker.values())


def test_worker_map_reports_a_worker_that_dies(monkeypatch):
    # a worker that exits without sending its reports fails the sweep with its
    # wait status, and no worker is left running or unreaped
    fail = {7: lambda: os._exit(7)}
    monkeypatch.setattr(engine, "_group_reports", _failing_group_reports(fail))
    with pytest.raises(RuntimeError, match=rf"wait status {7 << 8}\)"):
        verify_theorems(10, 4, "digraph", workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_map_sends_an_unpicklable_error_as_its_repr(monkeypatch):
    class Unpicklable(Exception):
        def __reduce__(self):
            raise TypeError("cannot pickle")

    def fail():
        raise Unpicklable("at n = 8")

    monkeypatch.setattr(engine, "_group_reports", _failing_group_reports({8: fail}))
    with pytest.raises(RuntimeError, match=r"^Unpicklable\('at n = 8'\)$"):
        verify_theorems(10, 4, "digraph", workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_map_reaps_its_workers_on_an_interrupt(monkeypatch):
    # a KeyboardInterrupt in the parent while the workers are busy (the
    # timer's signal reaches the parent only) kills and reaps every worker at
    # once, rather than waiting for the queue to drain, before it propagates
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "_group_reports", lambda task: time.sleep(10))
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            verify_theorems(10, 4, "digraph", workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_orbit_closure_of_verdicts():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((8, 9, 12, 16))
        size = rng.randint(1, n - 1)
        members = tuple(sorted(rng.sample(range(1, n), size)))
        base = decide_ci(ConnectionSet(n, members)).is_ci
        for u in rng.sample(units(n), min(3, len(units(n)))):
            t = ConnectionSet(n, tuple(sorted(u * x % n for x in members)))
            assert decide_ci(t).is_ci == base


def test_fast_path_soundness_small():
    # whenever a shortcut fires, the full scan agrees (orbit reps, n <= 16)
    for n in range(2, 17):
        for mode in ("digraph", "graph"):
            for size in range(1, n):
                for members in orbit_representatives(n, size, mode):
                    s = ConnectionSet(n, members, mode)
                    fired = (
                        decide_ci(s).fast_path == "zero-key"
                        or recognize_coset_case(s) is not None
                    )
                    if fired:
                        assert is_ci(s).is_ci, (n, mode, members)
