"""Unit tests for Cayley digraphs, unit orbits, and the brute-force oracle."""

import random

import pytest

from checks import out_neighbours
from circulant_ci import cayley
from circulant_ci.cayley import (
    ConnectionSet,
    OracleCutoffError,
    _shifts,
    _signatures,
    _start_colours,
    brute_force_isomorphic,
    brute_force_isomorphism,
    build_cayley,
    orbit_members,
)
from circulant_ci.engine import orbit_representatives
from circulant_ci.zn import DomainError, InternalConsistencyError, units


def test_connection_set_validation():
    with pytest.raises(DomainError, match="0 is excluded"):
        ConnectionSet(8, (0, 1))
    with pytest.raises(DomainError, match="inverse-closed"):
        ConnectionSet(8, (1, 2), "graph")
    with pytest.raises(DomainError, match="strictly increasing"):
        ConnectionSet(8, (2, 1))
    with pytest.raises(DomainError, match="mode"):
        ConnectionSet(8, (1,), "multigraph")
    with pytest.raises(DomainError, match="at least 2"):
        ConnectionSet(1, ())
    with pytest.raises(DomainError, match="strictly increasing"):
        ConnectionSet(8, (1, 2, 2))
    assert ConnectionSet(8, (1, 2, 5)).valency == 3


@pytest.mark.parametrize("members", [(1.5,), (True, 2)], ids=["float", "bool"])
def test_connection_set_members_must_be_ints(members):
    # a float has multiples outside Z_n, and True would stay a member
    with pytest.raises(DomainError, match="^connection set members must be ints$"):
        ConnectionSet(8, members)


@pytest.mark.parametrize("members", [5, None], ids=["int", "none"])
def test_connection_set_members_must_be_a_tuple(members):
    # the tuple test runs first, so no type test maps over a non-iterable
    with pytest.raises(DomainError, match="^members must be a strictly increasing tuple$"):
        ConnectionSet(8, members)


def _out_sets(g):
    # the out-neighbours that the oracle derives, one set per vertex: under
    # the colouring v -> v, each out-neighbour w of v adds -n^(n - 1 - w) to
    # the out-code of v, so minus that code has n base-n digits, 1 at each
    # out-neighbour w (most significant digit first) and 0 elsewhere
    n = g.n
    out = []
    for sig in _signatures(list(range(n)), _shifts(g)):
        code = -sig[1]
        digits = [code // n ** (n - 1 - w) % n for w in range(n)]
        assert set(digits) <= {0, 1} and code < n**n, (code, digits)
        out.append({w for w in range(n) if digits[w]})
    return out


def test_build_cayley_examples():
    four_cycle = build_cayley(ConnectionSet(4, (1, 3), "graph"))
    assert _out_sets(four_cycle) == [{1, 3}, {0, 2}, {1, 3}, {0, 2}]
    directed = build_cayley(ConnectionSet(5, (1,)))
    assert _out_sets(directed) == [{(g + 1) % 5} for g in range(5)]
    g8 = build_cayley(ConnectionSet(8, (1, 2, 5)))
    assert _out_sets(g8) == [{(g + 1) % 8, (g + 2) % 8, (g + 5) % 8} for g in range(8)]


def test_build_cayley_returns_its_connection_set():
    # a circulant is its connection set: the oracle reads S, and
    # build_cayley, which the benchmark still calls, hands S back
    pairs = (
        (ConnectionSet(8, (1, 2, 5)), ConnectionSet(8, (1, 5, 6))),
        (ConnectionSet(8, (1, 2, 5)), ConnectionSet(8, (1, 2, 3))),
        (ConnectionSet(8, (1, 4, 7), "graph"), ConnectionSet(8, (3, 4, 5), "graph")),
        (ConnectionSet(8, (1, 4, 7), "graph"), ConnectionSet(8, (2, 4, 6), "graph")),
    )
    for s, t in pairs:
        assert build_cayley(s) is s and build_cayley(t) is t
        assert brute_force_isomorphic(s, t) == brute_force_isomorphic(
            build_cayley(s), build_cayley(t)
        )
    assert [brute_force_isomorphic(s, t) for s, t in pairs] == [True, False, True, False]


def test_degree_invariants():
    for members, mode in (((1, 2, 5), "digraph"), ((1, 3, 4, 5, 7), "graph")):
        s = ConnectionSet(8, members, mode)
        out = _out_sets(build_cayley(s))
        indeg = [0] * 8
        for v in range(8):
            assert len(out[v]) == s.valency
            for w in out[v]:
                indeg[w] += 1
        assert indeg == [s.valency] * 8
        if mode == "graph":
            for v in range(8):
                assert all(v in out[w] for w in out[v])


def test_aut_orbit_examples():
    # the unit orbit of S, sorted, so its least member comes first
    assert orbit_members(ConnectionSet(8, (1, 2, 5))) == ((1, 2, 5), (3, 6, 7))
    # a singleton's orbit is all elements of the same order
    assert orbit_members(ConnectionSet(12, (2,))) == ((2,), (10,))
    # the full set is fixed by every unit
    assert orbit_members(ConnectionSet(9, tuple(range(1, 9)))) == (tuple(range(1, 9)),)


def test_representative_idempotent():
    rng = random.Random(5)
    for n in (8, 9, 12, 15):
        for _ in range(20):
            size = rng.randint(1, n - 1)
            members = tuple(sorted(rng.sample(range(1, n), size)))
            rep = orbit_members(ConnectionSet(n, members))[0]
            assert members in orbit_members(ConnectionSet(n, members))
            assert orbit_members(ConnectionSet(n, rep))[0] == rep


def test_oracle_examples():
    a = build_cayley(ConnectionSet(8, (1, 2, 5)))
    b = build_cayley(ConnectionSet(8, (1, 5, 6)))
    c = build_cayley(ConnectionSet(8, (1, 2, 3)))
    assert brute_force_isomorphic(a, b)
    assert not brute_force_isomorphic(a, c)
    assert brute_force_isomorphic(
        build_cayley(ConnectionSet(5, (1,))), build_cayley(ConnectionSet(5, (2,)))
    )
    # unequal valencies: the adjacency to 0 tells them apart before any round
    for s, t in (((1,), (1, 2)), ((), (1,))):
        assert not brute_force_isomorphic(
            build_cayley(ConnectionSet(8, s)), build_cayley(ConnectionSet(8, t))
        )


def _start(n, s, t, mode="digraph"):
    return _start_colours(
        build_cayley(ConnectionSet(n, s, mode)), build_cayley(ConnectionSet(n, t, mode))
    )


def test_oracle_starts_from_the_adjacency_to_zero():
    # the first round codes 4 at 0, 2 on -S, 1 on S, 3 on both: [4, 1, 1, 2,
    # 0, 1, 2, 2] for S = {1, 2, 5} over Z_8, where S & -S is empty.  The
    # second counts each vertex's out- and in-neighbours per code: 2 has the
    # out-neighbours 3, 4, 7, coded 2, 0, 2, and 1 and 5 have 2, 3, 6 and
    # 6, 7, 2, coded 1, 2, 2, so code 1 splits into {2} and {1, 5}; code 2
    # into {6} and {3, 7} alike.  Numbered by code, then the counts: 4, 2,
    # {1, 5}, 6, {3, 7}, 0
    assert _start(8, (1, 2, 5), (1, 5, 6)) == (
        [5, 2, 1, 4, 0, 2, 3, 4],
        [5, 2, 3, 4, 0, 2, 1, 4],
    )
    # graph mode: S = -S codes 3; the second round counts |(v + S) & S|,
    # 0 on S = {1, 4, 7}, and splits the rest into {2, 6}, which count 1,
    # and {3, 5}, which count 2
    assert _start(8, (1, 4, 7), (3, 4, 5), "graph") == (
        [3, 2, 0, 1, 2, 1, 0, 2],
        [3, 1, 0, 2, 2, 2, 0, 1],
    )
    # no vertex told apart from another but 0: the root colouring
    for n in range(2, 13):
        root = [1] + [0] * (n - 1)
        for mode in ("digraph", "graph"):
            for members in ((), tuple(range(1, n))):
                assert _start(n, members, members, mode) == (root, root)


def test_oracle_refutes_before_any_round(monkeypatch):
    # the first round: |S & -S| = 2 against |T & -T| = 0, the codes 3, 3
    # against 1, 1, 2, 2.  The second: the 6-cycle {1} against two
    # triangles {2} over Z_6, with one adjacency to 0, but the in-neighbour
    # of 0's in-neighbour codes 0 in the cycle and 1 in the triangles
    assert _start(7, (1, 6), (1, 2)) is None
    assert _start(6, (1,), (2,)) is None

    def no_round(*args):
        raise AssertionError("a refinement round ran")

    def no_shifts(*args):
        raise AssertionError("the shifts were built")

    monkeypatch.setattr("circulant_ci.cayley._joint_refinement", no_round)
    monkeypatch.setattr("circulant_ci.cayley._shifts", no_shifts)
    pairs = [
        (build_cayley(ConnectionSet(n, s)), build_cayley(ConnectionSet(n, t)))
        for n, s, t in ((7, (1, 6), (1, 2)), (6, (1,), (2,)))
    ]
    for a, b in pairs:
        assert brute_force_isomorphism(a, b) is None
    # a pair the start does not refute builds the shifts, and then reaches
    # a round
    for a, _ in pairs:
        with pytest.raises(AssertionError, match="shifts were built"):
            brute_force_isomorphism(a, a)
    monkeypatch.undo()
    monkeypatch.setattr("circulant_ci.cayley._joint_refinement", no_round)
    for a, _ in pairs:
        with pytest.raises(AssertionError, match="round ran"):
            brute_force_isomorphism(a, a)


def test_oracle_tries_the_next_candidate(monkeypatch):
    # on the cycle C8 the first candidate always extends, so the loop over
    # candidates is reached only by failing that branch: the second round,
    # the first branch's, is made to refute once, and the search must go on
    # to the second candidate, which maps the cycle onto its reflection
    refine, calls = cayley._joint_refinement, []

    def refute_first_branch(*args):
        calls.append(None)
        return None if len(calls) == 2 else refine(*args)

    monkeypatch.setattr(cayley, "_joint_refinement", refute_first_branch)
    c8 = build_cayley(ConnectionSet(8, (1, 7), "graph"))
    assert brute_force_isomorphism(c8, c8) == (0, 7, 6, 5, 4, 3, 2, 1)
    assert len(calls) > 2


def test_oracle_maps_empty_set_by_identity():
    # an empty S has no rotations to read; the search still runs to the end
    for n in range(2, 13):
        for mode in ("digraph", "graph"):
            empty = build_cayley(ConnectionSet(n, (), mode))
            assert brute_force_isomorphism(empty, empty) == tuple(range(n))


def test_oracle_witness_mapping_is_arc_preserving():
    a = build_cayley(ConnectionSet(8, (1, 2, 5)))
    b = build_cayley(ConnectionSet(8, (1, 5, 6)))
    mapping = brute_force_isomorphism(a, b)
    assert sorted(mapping) == list(range(8))
    a_out, b_out = out_neighbours(a), out_neighbours(b)
    for g in range(8):
        assert {mapping[x] for x in a_out[g]} == b_out[mapping[g]]


def test_oracle_checks_the_arcs_of_its_mapping(monkeypatch):
    # a refinement made to return a discrete colouring that swaps 1 and 2 of
    # the 5-cycle: the mapping it gives takes the arc (0, 1) to (0, 2)
    monkeypatch.setattr(
        cayley, "_joint_refinement", lambda a, b, ca, cb: ([0, 1, 2, 3, 4], [0, 2, 1, 3, 4])
    )
    c5 = build_cayley(ConnectionSet(5, (1,)))
    with pytest.raises(InternalConsistencyError, match="does not preserve the arcs"):
        brute_force_isomorphism(c5, c5)


def test_oracle_cutoff_refusal():
    a = build_cayley(ConnectionSet(13, (1,)))
    b = build_cayley(ConnectionSet(13, (2,)))
    with pytest.raises(OracleCutoffError, match="cutoff"):
        brute_force_isomorphic(a, b)
    assert brute_force_isomorphic(a, b, oracle_cutoff=13)


def test_oracle_domain_errors():
    with pytest.raises(DomainError):
        brute_force_isomorphic(
            build_cayley(ConnectionSet(8, (1,))), build_cayley(ConnectionSet(9, (1,)))
        )
    with pytest.raises(DomainError):
        brute_force_isomorphic(
            build_cayley(ConnectionSet(8, (1, 7))),
            build_cayley(ConnectionSet(8, (1, 7), "graph")),
        )


def test_unit_multiplication_is_isomorphism():
    for n in range(2, 11):
        for size in range(1, n):
            for members in orbit_representatives(n, size, "digraph"):
                g = build_cayley(ConnectionSet(n, members))
                for u in units(n):
                    t = ConnectionSet(n, tuple(sorted(u * x % n for x in members)))
                    assert brute_force_isomorphic(g, build_cayley(t))


def test_oracle_symmetry_sample():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 8)
        size = rng.randint(1, n - 1)
        a = ConnectionSet(n, tuple(sorted(rng.sample(range(1, n), size))))
        b = ConnectionSet(n, tuple(sorted(rng.sample(range(1, n), size))))
        ga, gb = build_cayley(a), build_cayley(b)
        assert brute_force_isomorphic(ga, gb) == brute_force_isomorphic(gb, ga)
