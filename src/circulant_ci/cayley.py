"""Connection sets, each of which stands for its Cayley (di)graph
Cay(Z_n, S), unit orbits, and a self-contained isomorphism oracle.

The oracle is deliberately independent of the key and multiplier machinery:
it decides isomorphism on the adjacency structure alone, by
individualization-refinement search, so it can serve as ground truth for the
criterion-based engine.  Circulants are vertex-transitive, so colour
refinement alone never splits their single colour class; the search first
fixes vertex 0 (sound: translations are automorphisms), starts from the
adjacency to 0 read off S, refines after every individualized choice, tries
every candidate image, and arc-checks the mapping it returns.  It refuses
(never approximates) above its cutoff.  The arcs of Cay(Z_n, S) are the
translates (v, v + s), so the refinement reads the colours at v + s for all
v at once, as a rotation of a list of colour weights, and builds no
neighbour list: the weights sum to one integer per vertex and shift tuple,
ordered as the sorted tuple of the neighbours' colours would be.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from operator import lt

from .zn import DomainError, InternalConsistencyError, _check_modulus, _checked_make, units

MODES = ("digraph", "graph")
ORACLE_CUTOFF = 12  # the largest n the oracle searches unless its caller says otherwise
_INT = frozenset((int,))  # the one member type; bool and float are refused


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}")


def _check_set(s: ConnectionSet) -> None:
    if not isinstance(s, ConnectionSet):
        raise DomainError(f"this call takes a ConnectionSet, not {type(s).__name__}")


def _check_pair(s: ConnectionSet, t: ConnectionSet) -> None:
    _check_set(s)
    _check_set(t)
    if s.n != t.n:
        raise DomainError("connection sets live over different Z_n")
    if s.mode != t.mode:
        raise DomainError("connection sets have different modes")


class OracleCutoffError(RuntimeError):
    """The brute-force oracle refuses inputs above its configured cutoff."""


class ConnectionSet(namedtuple("ConnectionSet", "n members mode")):
    """A subset of Z_n minus {0}; graph mode additionally needs S = -S."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, n: int, members: tuple[int, ...], mode: str = "digraph"):
        _check_modulus(n)
        _check_mode(mode)
        if not _INT.issuperset(map(type, members)):
            raise DomainError("connection set members must be ints")
        if not isinstance(members, tuple) or not all(map(lt, members, members[1:])):
            raise DomainError("members must be a strictly increasing tuple")
        # increasing, so the least and the greatest bound the rest
        if members and not 1 <= members[0] <= members[-1] < n:
            raise DomainError(
                "connection set members must lie in 1..n-1 (0 is excluded)"
            )
        if mode == "graph" and {(-s) % n for s in members} != set(members):
            raise DomainError("graph connection set must be inverse-closed")
        return super().__new__(cls, n, members, mode)

    @property
    def valency(self) -> int:
        return len(self.members)


def build_cayley(s: ConnectionSet) -> ConnectionSet:
    """Cay(Z_n, S), which is S itself: the arcs (g, g + s) are read off
    the members, so the connection set is returned unchanged."""
    _check_set(s)
    return s


def _unit_multiples(members: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """The multiples uS of a strictly increasing member tuple S, each
    sorted, in ascending order of the unit u; repeats are kept.  The one
    statement of the unit action on sets.

    The units ascend from 1, and 1S is S itself, so the member tuple comes
    first as it is and only the multiples by u > 1 are computed.
    """
    yield members
    for u in units(n)[1:]:
        yield tuple(sorted([u * x % n for x in members]))


def orbit_members(s: ConnectionSet) -> tuple[tuple[int, ...], ...]:
    """The member tuples of the distinct unit multiples uS of a connection
    set, each sorted, overall sorted.

    Lists the whole orbit at once, for callers, tests and the check that a
    lifted witness avoids the orbit; the CI scan lists it lazily instead.
    """
    _check_set(s)
    return tuple(sorted(set(_unit_multiples(s.members, s.n))))


def _shifts(s: ConnectionSet) -> tuple[tuple[int, ...], ...]:
    """S, whose shifts v + s give the out-neighbours, and n - S, giving the
    in-neighbours; S alone in graph mode, where S = -S."""
    if s.mode == "graph":
        return (s.members,)
    return s.members, tuple(s.n - x for x in s.members)


def _signatures(colours, shifts):
    """Each vertex's colour, then per shift tuple one integer code of the
    colours at v + s, summed over the rotations by s, each one slice
    twice[s:s + n] of the doubled list of colour weights.

    Colour c weighs -n^(top - c), top the largest colour: a vertex has at
    most n - 1 neighbours per shift tuple, so each colour's count is one
    base-n digit, the smallest colour the most significant.  So no two
    multisets of colours share a code, and the codes of equally many
    neighbours order as their sorted colour tuples do.  The base depends
    on n alone and two colourings with one histogram have one top, so the
    codes of two digraphs over Z_n compare.  An empty S has no rotations
    and adds nothing.
    """
    n = len(colours)
    top = max(colours)
    weight = [-n ** k for k in range(top, -1, -1)]
    twice = list(map(weight.__getitem__, colours)) * 2
    halves = [
        map(sum, zip(*[twice[s:s + n] for s in half]))
        for half in shifts
        if half
    ]
    return list(zip(colours, *halves))


def _joint_refinement(a_shifts, b_shifts, ca, cb):
    """Iterated in/out neighbour colour refinement with a shared palette,
    starting from the vertex colours `ca` of `a` and `cb` of `b`, each
    numbered 0..k-1 with every number used.

    Each round recolours a vertex by its own colour and the codes of the
    colours of its out- and in-neighbours (see _signatures: they order as
    the sorted neighbour colours do), numbered through one canonical
    palette (the sorted signatures of both digraphs), so the colours only
    ever split and depend on nothing but the coloured digraphs up to
    isomorphism.  A signature leads with the vertex's colour, so a round
    that adds no colour renumbers none: the colouring is stable.  Returns
    the stable colours of both digraphs, numbered 0..k-1, or None as soon
    as the colour histograms diverge (then no isomorphism carries `ca`
    onto `cb`).
    """
    count = len(set(ca))
    while True:
        sig_a = _signatures(ca, a_shifts)
        sig_b = _signatures(cb, b_shifts)
        ordered = sorted(sig_a)
        if ordered != sorted(sig_b):
            return None
        distinct = dict.fromkeys(ordered)
        if len(distinct) == count:
            return ca, cb
        count = len(distinct)
        palette = dict(zip(distinct, range(count)))
        ca = list(map(palette.__getitem__, sig_a))
        cb = list(map(palette.__getitem__, sig_b))


def _adjacency_colours(a: ConnectionSet, b: ConnectionSet):
    """One refinement round from vertex 0 alone, read off S: v != 0 codes
    2[v in -S] + [v in S], 0 codes 4, and the round's signatures order so
    (see _signatures); None exactly where that round refutes the pair."""
    ca, cb = [0] * a.n, [0] * a.n
    for code, g in ((ca, a), (cb, b)):
        for s in g.members:
            code[-s] += 2
            code[s] += 1
        code[0] = 4
    if sorted(ca) != sorted(cb):
        return None
    palette = {c: i for i, c in enumerate(sorted(set(ca)))}
    return [palette[c] for c in ca], [palette[c] for c in cb]


def brute_force_isomorphism(
    a: ConnectionSet, b: ConnectionSet, *, oracle_cutoff: int = ORACLE_CUTOFF
) -> tuple[int, ...] | None:
    """An arc-preserving vertex bijection from Cay(Z_n, a) onto
    Cay(Z_n, b), or None.

    Individualization-refinement (McKay & Piperno 2014), on the adjacency
    alone:

    1. Vertex 0 is fixed: every translation x -> x + g is an automorphism
       of a Cayley digraph, so if any isomorphism exists, composing it
       with a translation of `b` gives one with 0 -> 0.  The search starts
       from one refinement round from 0 alone, read off S (_adjacency_colours).
    2. The joint refinement splits the colours and prunes the branch as
       soon as the colour histograms of `a` and `b` diverge.  It reads the
       arcs as rotations: the colours at v + s, for every v, are the colour
       list rotated by s, for s in S (out-neighbours) and in n - S
       (in-neighbours; graph mode reads S alone, as S = -S).
    3. While the colouring is not discrete, the first vertex v of the
       smallest non-singleton class of `a` is paired in turn with every w
       of `b` in the same class; v and w get a fresh colour, and the
       search refines and recurses.
    4. A discrete colouring pairs each vertex of `a` with the vertex of
       `b` of the same colour.  That mapping is checked to preserve every
       arc before it is returned.

    Exact: refinement is isomorphism-invariant, so an isomorphism that
    fixes 0 keeps its colours equal along the branch that follows it, and
    every candidate w is tried; no branch is cut for any other reason.
    """
    _check_pair(a, b)
    n = a.n
    if n > oracle_cutoff:
        raise OracleCutoffError(f"oracle cutoff exceeded (n={n} > {oracle_cutoff})")
    a_shifts, b_shifts = _shifts(a), _shifts(b)

    def search(ca, cb):
        refined = _joint_refinement(a_shifts, b_shifts, ca, cb)
        if refined is None:
            return None
        ca, cb = refined
        sizes = Counter(ca)
        if len(sizes) == n:
            vertex_of = {c: w for w, c in enumerate(cb)}
            return tuple(vertex_of[c] for c in ca)
        v = min(
            (x for x in range(n) if sizes[ca[x]] > 1), key=lambda x: sizes[ca[x]]
        )
        fresh = len(sizes)
        for w in range(n):
            if cb[w] == ca[v]:
                found = search(
                    [fresh if x == v else c for x, c in enumerate(ca)],
                    [fresh if x == w else c for x, c in enumerate(cb)],
                )
                if found is not None:
                    return found
        return None

    start = _adjacency_colours(a, b)
    mapping = None if start is None else search(*start)
    # f preserves the arcs iff it is a bijection, |S| = |T| and every
    # f(v + s) - f(v) lies in T: the |S| distinct images of v's
    # out-neighbours then fill f(v) + T
    s, t = a.members, frozenset(b.members)
    if mapping is not None and (
        len(set(mapping)) != n
        or len(s) != len(t)
        or any(
            (mapping[(v + x) % n] - mapping[v]) % n not in t for v in range(n) for x in s
        )
    ):
        raise InternalConsistencyError("oracle mapping does not preserve the arcs")
    return mapping


def brute_force_isomorphic(
    a: ConnectionSet, b: ConnectionSet, *, oracle_cutoff: int = ORACLE_CUTOFF
) -> bool:
    """Boolean form of the oracle."""
    return brute_force_isomorphism(a, b, oracle_cutoff=oracle_cutoff) is not None
