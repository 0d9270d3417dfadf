"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact integer and set equalities (tolerance 0).  Run
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
with timings.
"""

import time
from contextlib import contextmanager

import checks
from circulant_ci.cayley import (
    ConnectionSet,
    brute_force_isomorphic,
    build_cayley,
    orbit_members,
)
from circulant_ci.engine import (
    decide_ci,
    is_ci,
    m_property,
    predicate_ci_group,
    predicate_dci_group,
    verify_theorems,
    witnesses,
)
from circulant_ci.keys import Key, zero_key
from circulant_ci.multipliers import as_permutation, solving_set
from circulant_ci.zn import factorize, units


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_zero_key_solving_sets():
    with criterion("criterion 1: zero-key solving set = unit multiplications, q in {4,8,16,9,27,25}"):
        for q in (4, 8, 16, 9, 27, 25):
            f = factorize(q)
            perms = {as_permutation(m) for m in solving_set(zero_key(f))}
            expected = {tuple(u * x % q for x in range(q)) for u in units(q)}
            assert perms == expected, q


def test_criterion_2_prime_square_solving_sets():
    with criterion("criterion 2: prime-square solving sets, p in {2,3,5,7}"):
        for p in (2, 3, 5, 7):
            q = p * p
            f = factorize(q)
            zero = {as_permutation(m) for m in solving_set(zero_key(f))}
            assert zero == {tuple(u * x % q for x in range(q)) for u in units(q)}
            ss = solving_set(Key(f, ((0, 1),)))
            assert len(ss) == (p - 1) ** 2
            for m in ss:
                m1, m2 = m.rows[0]
                action = tuple((m2 * (x % p) + m1 * (x // p) * p) % q for x in range(q))
                assert as_permutation(m) == action


def test_criterion_3_criterion_equals_oracle():
    with criterion("criterion 3: criterion verdict = brute-force oracle, n in 2..11, both modes"):
        pairs = checks.check_criterion_against_oracle()
        assert pairs > 2000  # sanity: the sweep actually covered the space


def test_criterion_4_known_witnesses():
    with criterion("criterion 4: known non-CI witnesses over Z8, Z9, Z16, Z25, Z27"):
        v8 = is_ci(ConnectionSet(8, (1, 2, 5)))
        assert not v8.is_ci
        assert v8.witness.members in orbit_members(ConnectionSet(8, (1, 5, 6)))
        assert v8.witness.members not in orbit_members(ConnectionSet(8, (1, 2, 5)))
        g8 = build_cayley(ConnectionSet(8, (1, 2, 5)))
        assert brute_force_isomorphic(g8, build_cayley(v8.witness))

        v9 = is_ci(ConnectionSet(9, (1, 3, 4, 7)))
        assert not v9.is_ci
        assert v9.witness.members not in orbit_members(ConnectionSet(9, (1, 3, 4, 7)))
        g9 = build_cayley(ConnectionSet(9, (1, 3, 4, 7)))
        assert brute_force_isomorphic(g9, build_cayley(v9.witness))

        assert not decide_ci(ConnectionSet(16, (1, 2, 7, 9, 14, 15), "graph")).is_ci
        w25 = witnesses(25, "graph")[0].connection_set
        assert w25.members == (1, 4, 5, 6, 9, 11, 14, 16, 19, 20, 21, 24)
        assert not decide_ci(w25).is_ci
        w27 = witnesses(27, "graph")[0].connection_set
        assert w27.members == (1, 3, 8, 10, 17, 19, 24, 26)
        assert not decide_ci(w27).is_ci


def test_criterion_5_digraph_group_sweep():
    with criterion("criterion 5: digraph sweep n <= 18, m in 3..6 agrees with the closed form"):
        reports = verify_theorems(18, 6, "digraph")
        assert all(r.agreement for r in reports)
        cells = {(r.n, r.m): r.property_holds for r in reports}
        assert all(cells[(8, m)] is False for m in range(3, 7))
        assert cells[(9, 3)] is True
        assert all(cells[(9, m)] is False for m in range(4, 7))
        assert all(cells[(16, m)] is False for m in range(3, 7))
        assert all(cells[(12, m)] is True for m in range(3, 7))


def test_criterion_6_graph_group_sweep():
    with criterion("criterion 6: graph sweep n <= 18, m in 6..7 agrees with the closed form"):
        reports = verify_theorems(18, 7, "graph")
        assert all(r.agreement for r in reports)
        cells = {(r.n, r.m): r.property_holds for r in reports}
        for n in (8, 9, 18):
            for m in (6, 7):
                assert cells[(n, m)] is True, (n, m)


def test_criterion_7_group_predicates_cross_check():
    with criterion("criterion 7: all-valency DCI/CI status = group predicates, n <= 12"):
        for n in range(2, 13):
            dci = all(m_property(n, m, "digraph").property_holds for m in range(1, n))
            assert dci == predicate_dci_group(n), n
            ci = all(m_property(n, m, "graph").property_holds for m in range(1, n))
            assert ci == predicate_ci_group(n), n
        assert not predicate_dci_group(8) and predicate_ci_group(8)
        assert not predicate_dci_group(9) and predicate_ci_group(9)
        assert predicate_dci_group(12)


def test_criterion_8_small_valency_universality():
    with criterion("criterion 8: every n <= 16 has the m-property for m <= 2 (digraph) and m <= 5 (graph)"):
        for n in range(2, 17):
            for m in range(1, min(2, n - 1) + 1):
                assert m_property(n, m, "digraph").property_holds, (n, m)
            for m in range(1, min(5, n - 1) + 1):
                assert m_property(n, m, "graph").property_holds, (n, m)


def test_criterion_9_property_suites():
    with criterion("criterion 9: property suites (monotonicity, round trip, multiplier action, reduction)"):
        monotone = checks.check_monotonicity()
        round_trips = checks.check_key_round_trip()
        multipliers = checks.check_multiplier_action()
        reductions = checks.check_reduction_consistency()
        assert monotone > 0 and round_trips > 0
        assert multipliers > 0 and reductions > 0
