"""Reusable property-suite implementations.

Shared between the per-module tests and the acceptance run.  Each check
raises AssertionError on the first violation and returns the number of
cases it verified.  Sampling, where a space is too large to exhaust, is
seeded and deterministic.  Tier-1 runs every check once at its default
widths; CI_CHECKS at the end holds the wider CI runs, and
``PYTHONPATH=src:tests python tests/checks.py`` runs them.

The slow references the checks compare against live here too: the whole
key lattice with its order and join, refinement of partitions given as
class tuples, the lattice join as the key of such a partition, the key of
a set by the stabilizer test read one member at a time, with the order
exponent of each member's p-part found by division, the
entry-by-entry rule for genuine multiplier rows, the digit loop of the
multiplier action with its own CRT recombination, the element action's
images of a set under a whole solving set, with CRT idempotents found by
search, which the CI and isomorphism scan references read in place of the
library's layer units, the oracle's search
over neighbour lists read one index at a time, with its signatures of
sorted neighbour colour tuples, the counts of the oracle's start per
adjacency class over those lists, the backtracking
isomorphism search, the orbit filter with one table of x -> ux per unit,
the Burnside count of the unit orbits, the enumeration of connection sets
by combinations of residues or of pairs {x, -x}, the sweep's old
enumeration (every orbit representative, filtered by its key), the CI
scan that lists the whole unit orbit before it looks at an image, the
isomorphism scan that compares the full sorted image of S under every
multiplier with T, the subgroup <S> as the multiples of a gcd, the
subgroup of a given order as the multiples of n/d, the almost zero
key that _ci_keys states apart from the engine's own test, and the
part-by-part rules of a factorization with trial-division primality.
The library's decision path uses none of them.
"""

from __future__ import annotations

import math
import random
import signal
import time
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, islice, product
from operator import mul

from circulant_ci import cayley, engine
from circulant_ci.cayley import (
    MODES,
    ConnectionSet,
    OracleCutoffError,
    brute_force_isomorphic,
    brute_force_isomorphism,
    orbit_members,
)
from circulant_ci.engine import (
    _LEAST_M,
    CiVerdict,
    IsoVerdict,
    _key_candidates,
    _orbit_least,
    connection_set_tuples,
    decide_ci,
    is_ci,
    is_ci_reduced,
    is_m_group,
    isomorphism_class,
    muzychuk_isomorphic,
    orbit_representatives,
    predicate_mci,
    predicate_mdci,
    witnesses,
)
from circulant_ci.keys import Key, key_of_set, key_partition, zero_key
from circulant_ci.multipliers import (
    GenuineMultiplier,
    _genuine_rows,
    as_permutation,
    solving_set,
)
from circulant_ci.zn import (
    DomainError,
    Factorization,
    _check_modulus,
    factorize,
    units,
)

SEED = 20250810
PAIR_SAMPLE_LIMIT = 1500
# moduli of the seeded coset-union comparison: many divisors and prime-power
# parts, so the keys are far from zero
COSET_UNION_MODULI = (32, 48, 64, 72, 96, 108, 128, 144, 192, 216, 243, 256)
COSET_UNIONS_PER_MODULUS = 12
# moduli of the seeded coset unions whose solving-set images are compared
# with the reference action: up to eight p-adic digits and up to three primes
ACTION_MODULI = (128, 216, 243, 256, 384, 600)
ACTION_SETS_PER_MODULUS = 4
# multipliers compared per set, spread evenly over the solving set
ACTION_MULTIPLIERS_PER_SET = 6
# solving-set images a seeded coset union is paired with, spread evenly
# over the solving set
ISO_IMAGES_PER_SET = 6
# prime powers p^t whose every key row and every row of small entries is
# checked against the entry-by-entry rule for genuine rows
GENUINE_PRIME_POWERS = (
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)
)


# moduli of the seeded coset unions compared with key_of_set_reference, past
# COSET_UNION_MODULI up to n = 1024
REFERENCE_MODULI = COSET_UNION_MODULI + (384, 432, 512, 576, 648, 729, 864, 1000, 1024)
# moduli of 2^20, 10^6 and 3^12 residues, where key_of_set's masks are
# largest, with seeded unions of cosets of subgroups of order at most
# LARGE_MAX_ORDER there
LARGE_MODULI = (2**20, 10**6, 3**12)
LARGE_SETS_PER_MODULUS = 4
LARGE_MAX_ORDER = 64


# moduli with two prime-power parts that can force a scan (2^t with t >= 3,
# p^t with t >= 2 for odd p), where a set can have a non-trivial key row at
# both primes; each with the largest digraph and graph valency at which
# check_key_enumeration compares the enumeration
TWO_PRIME_CELLS = ((72, 3, 6), (144, 2, 4), (200, 2, 4), (216, 2, 4), (225, 2, 4))


# Key lattices (and per-prime row lists) kept at once by the references below.
LATTICE_CACHE_SIZE = 128


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _prime_power_key_rows(t: int) -> tuple[tuple[int, ...], ...]:
    """All key rows for Z_{p^t} in lexicographic order (Catalan(t) of them)."""
    rows: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        j = len(prefix) + 1
        if j > t:
            rows.append(tuple(prefix))
            return
        for k in range(prefix[-1] if prefix else 0, j):
            prefix.append(k)
            extend(prefix)
            prefix.pop()

    extend([])
    return tuple(rows)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def enumerate_keys(f: Factorization) -> tuple[Key, ...]:
    """The whole key lattice, lexicographic in ascending-prime row order."""
    per_prime = [_prime_power_key_rows(t) for _, t in f.parts]
    return tuple(Key(f, rows) for rows in product(*per_prime))


def _check_same_space(a: Key, b: Key) -> None:
    if a.factorization != b.factorization:
        raise DomainError("keys live in different key spaces")


def key_leq(a: Key, b: Key) -> bool:
    """Componentwise partial order."""
    _check_same_space(a, b)
    return all(x <= y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))


def key_join(a: Key, b: Key) -> Key:
    """Componentwise max; always a valid key."""
    _check_same_space(a, b)
    return Key(
        a.factorization,
        tuple(tuple(map(max, ra, rb)) for ra, rb in zip(a.rows, b.rows)),
    )


def _class_ids(n: int, classes) -> list[int]:
    # the index of the class of each residue; the classes must partition Z_n
    cid = [-1] * n
    for i, cls in enumerate(classes):
        for x in cls:
            if not 0 <= x < n or cid[x] >= 0:
                raise DomainError(f"classes do not partition Z_{n}")
            cid[x] = i
    if -1 in cid:
        raise DomainError(f"classes do not partition Z_{n}")
    return cid


def refines(n: int, fine, coarse) -> bool:
    """True iff every class of `coarse` is a union of classes of `fine`,
    both partitions of Z_n given by their classes."""
    cid = _class_ids(n, coarse)
    return all(cid[x] == cid[cls[0]] for cls in fine for x in cls)


@lru_cache(maxsize=2)
def _lattice(n: int) -> tuple[tuple[Key, tuple[tuple[int, ...], ...]], ...]:
    # every key of Z_n with the classes of its partition, held here so that
    # the oracle does not depend on the size of the library's partition cache
    return tuple((k, key_partition(k)) for k in enumerate_keys(factorize(n)))


def lattice_key_of_partition(n: int, classes) -> Key:
    """The coarsest key whose partition refines the partition of Z_n with
    the given classes: the join of every refining key, by walking the whole
    key lattice.  The reference for key_of_set."""
    cid = _class_ids(n, classes)
    joined = None
    for k, key_classes in _lattice(n):
        if all(cid[x] == cid[cls[0]] for cls in key_classes for x in cls):
            joined = k if joined is None else key_join(joined, k)
    assert joined is not None, classes  # the zero key refines everything
    assert refines(n, key_partition(joined), classes), classes
    return joined


def _out_in(s: ConnectionSet):
    """The arcs of Cay(Z_n, S): out- and in-neighbours of every vertex, as
    translates of S and -S."""
    n, members = s.n, s.members
    out = [[(v + x) % n for x in members] for v in range(n)]
    return out, [[(v - x) % n for x in members] for v in range(n)]


def _signatures(out, inn, colours):
    return [
        (colours[v], tuple(sorted([colours[w] for w in out[v]])),
         tuple(sorted([colours[w] for w in inn[v]])))
        for v in range(len(colours))
    ]


def _joint_refinement(a_out, a_in, b_out, b_in, ca, cb):
    """Iterated in/out neighbour colour refinement with a shared palette,
    starting from the vertex colours `ca` of `a` and `cb` of `b`, over
    neighbours read one index at a time.

    Returns the stable colours of both digraphs, numbered 0..k-1, or None
    as soon as the colour histograms diverge (then no isomorphism carries
    `ca` onto `cb`).
    """
    while True:
        sig_a = _signatures(a_out, a_in, ca)
        sig_b = _signatures(b_out, b_in, cb)
        if Counter(sig_a) != Counter(sig_b):
            return None
        palette = {s: i for i, s in enumerate(sorted(set(sig_a)))}
        new_a = [palette[s] for s in sig_a]
        new_b = [palette[s] for s in sig_b]
        if new_a == ca and new_b == cb:
            return ca, cb
        ca, cb = new_a, new_b


def index_list_isomorphism(a: ConnectionSet, b: ConnectionSet) -> tuple[int, ...] | None:
    """Reference for brute_force_isomorphism, which must return the same
    mapping: the same individualization-refinement search, with vertex 0
    fixed and the same branching order, over per-vertex neighbour lists
    read one index at a time instead of rotations of the colour list."""
    n = a.n
    a_out, a_in = _out_in(a)
    b_out, b_in = _out_in(b)

    def search(ca, cb):
        refined = _joint_refinement(a_out, a_in, b_out, b_in, ca, cb)
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

    root = [1] + [0] * (n - 1)
    return search(root, root)


def out_neighbours(s: ConnectionSet) -> list[set[int]]:
    """The out-neighbours S + v of every vertex v of Cay(Z_n, S), built from
    the members of S: the arcs the references check against, sharing no
    code with the oracle's."""
    n, members = s.n, s.members
    return [{(v + x) % n for x in members} for v in range(n)]


def backtracking_isomorphism(
    a: ConnectionSet, b: ConnectionSet, *, oracle_cutoff: int = cayley.ORACLE_CUTOFF
) -> tuple[int, ...] | None:
    """Reference for brute_force_isomorphism: an arc-preserving vertex
    bijection from Cay(Z_n, a) onto Cay(Z_n, b), or None.

    Plain backtracking over partial vertex maps, candidates pruned by the
    refinement colours and checked for adjacency consistency against every
    vertex already mapped.  Exact; no heuristics affect correctness.
    """
    if a.n != b.n:
        raise DomainError("digraphs live over different Z_n")
    if a.mode != b.mode:
        raise DomainError("digraphs have different modes")
    n = a.n
    if n > oracle_cutoff:
        raise OracleCutoffError(f"oracle cutoff exceeded (n={n} > {oracle_cutoff})")
    if a.valency != b.valency:
        return None

    a_out = out_neighbours(a)
    b_out = out_neighbours(b)
    a_in = [set() for _ in range(n)]
    b_in = [set() for _ in range(n)]
    for v in range(n):
        for w in a_out[v]:
            a_in[w].add(v)
        for w in b_out[v]:
            b_in[w].add(v)

    colours = _joint_refinement(a_out, a_in, b_out, b_in, [0] * n, [0] * n)
    if colours is None:
        return None
    ca, cb = colours

    mapping = [-1] * n
    used = [False] * n
    placed: list[int] = []

    def pick() -> int:
        # most-constrained-first: maximize already-mapped neighbours
        best, best_score = -1, (-1, 0)
        for v in range(n):
            if mapping[v] >= 0:
                continue
            score = sum(1 for u in placed if u in a_out[v] or u in a_in[v])
            if (score, -v) > best_score:
                best, best_score = v, (score, -v)
        return best

    def consistent(v: int, w: int) -> bool:
        for u in placed:
            mu = mapping[u]
            if (u in a_out[v]) != (mu in b_out[w]):
                return False
            if (u in a_in[v]) != (mu in b_in[w]):
                return False
        return True

    def search() -> bool:
        if len(placed) == n:
            return True
        v = pick()
        for w in range(n):
            if used[w] or cb[w] != ca[v]:
                continue
            if consistent(v, w):
                mapping[v] = w
                used[w] = True
                placed.append(v)
                if search():
                    return True
                placed.pop()
                used[w] = False
                mapping[v] = -1
        return False

    if search():
        return tuple(mapping)
    return None


def _two_classes(n: int, members) -> tuple[tuple[int, ...], tuple[int, ...]]:
    inside = set(members)
    return tuple(sorted(inside)), tuple(x for x in range(n) if x not in inside)


def _coset_union(rng: random.Random, n: int, max_order: int | None = None) -> ConnectionSet:
    """Cosets of up to three subgroups of Z_n, of order at most max_order
    if given, plus a stray residue three times in ten: sets whose keys are
    far from zero."""
    orders = [d for d in range(1, min(n, (max_order or n) + 1)) if n % d == 0]
    members = set()
    for _ in range(rng.randint(1, 3)):
        step = n // rng.choice(orders)
        for shift in rng.sample(range(1, step), min(step - 1, rng.randint(1, 3))):
            members.update(range(shift, n + shift, step))
    members = {x % n for x in members} - {0}
    if rng.random() < 0.3:
        members.add(rng.randrange(1, n))
    return ConnectionSet(n, tuple(sorted(members)))


def check_monotonicity(n_max: int = 100) -> int:
    """key a <= key b forces the partition of a to refine the partition of b."""
    rng = random.Random(SEED)
    checked = 0
    for n in range(2, n_max + 1):
        keys = enumerate_keys(factorize(n))
        pairs = [(a, b) for a in keys for b in keys if a != b and key_leq(a, b)]
        if len(pairs) > PAIR_SAMPLE_LIMIT:
            pairs = rng.sample(pairs, PAIR_SAMPLE_LIMIT)
        for a, b in pairs:
            assert refines(n, key_partition(a), key_partition(b)), (n, a, b)
            checked += 1
    return checked


def check_key_round_trip(n_max: int = 72) -> int:
    """The lattice key of the partition of every key is that key."""
    checked = 0
    for n in range(2, n_max + 1):
        for k in enumerate_keys(factorize(n)):
            assert lattice_key_of_partition(n, key_partition(k)) == k, (n, k)
            checked += 1
    return checked


def multiplier_action_reference(rows, n: int) -> tuple[int, ...]:
    """The image table of Z_n under the multiplier with these rows, one per
    prime power p^t of n, by the digit loop: the digit x_i of x mod p^t
    picks up the factor m_{t-i}, mod p^t.  Any rows of length t act, genuine
    or not.  The images mod the p^t are joined by Garner's recombination,
    which reads no CRT idempotent, so a fault in the library's terms or
    layer units cannot hide on both sides of check_multiplier_action."""
    parts = factorize(n).parts
    assert len(rows) == len(parts) and all(
        len(row) == t for row, (_, t) in zip(rows, parts)
    ), (rows, n)
    # per prime power: q, the product of the earlier ones, its inverse mod q
    steps = []
    earlier = 1
    for p, t in parts:
        steps.append((p**t, earlier, pow(earlier, -1, p**t)))
        earlier *= p**t
    table = []
    for x in range(n):
        y = 0
        for row, (p, t), (q, below, inverse) in zip(rows, parts, steps):
            image = 0
            digits = x % q
            for i in range(t):
                image += row[t - 1 - i] * (digits % p) * p**i
                digits //= p
            # the residue mod below * q that is y mod below and image mod q
            y += below * ((image - y) * inverse % q)
        table.append(y)
    return tuple(table)


def solving_set_images_reference(members: tuple[int, ...], k: Key):
    """(rows, sorted image of members) per multiplier of the solving set of
    k, in iteration order, by the element action: the image of x is the sum
    of the multiplier's row entries times the terms x_i p^i e of x, mod n,
    entry a of the row of p^t scaling the digit i = t - 1 - a and e the CRT
    idempotent of p^t, found here by search.  The terms of each member are
    computed once; the library's scan takes one unit per layer instead."""
    f = k.factorization
    n = f.n
    columns = []
    for p, t in f.parts:
        q = p**t
        e = next(e for e in range(0, n, n // q) if e % q == 1)
        columns += [
            [x // p**i % p * p**i * e for x in members] for i in reversed(range(t))
        ]
    terms = list(zip(*columns))
    for m in solving_set(k):
        entries = sum(m.rows, ())
        yield m.rows, tuple(sorted(sum(map(mul, entries, xt)) % n for xt in terms))


def check_multiplier_action(n_max: int = 72) -> int:
    """For every key with n <= n_max, every solving-set permutation is a
    bijection carrying key-partition classes onto key-partition classes,
    and both as_permutation and SolvingSet.images agree with
    multiplier_action_reference: the permutation entry by entry, 0 -> 0
    too, the images as the multiplier rows and the images of the classes
    other than {0}, which is no connection set, in iteration order.  On
    seeded coset unions at the ACTION_MODULI, images of the set agree with
    the reference on an evenly spread sample of the solving set."""
    checked = 0
    for n in range(2, n_max + 1):
        for k in enumerate_keys(factorize(n)):
            pi = key_partition(k)
            class_of = {}
            for cls in pi:
                for x in cls:
                    class_of[x] = cls
            ss = solving_set(k)
            # {0}, the class of 0, is no connection set; perm still maps 0 to 0
            classes = [cls for cls in pi if cls != (0,)]
            per_class = [ss.images(ConnectionSet(n, cls)) for cls in classes]
            for m, *mapped in zip(ss, *per_class, strict=True):
                perm = multiplier_action_reference(m.rows, n)
                assert as_permutation(m) == perm, (n, k, m)
                assert len(set(perm)) == n, (n, k, m)
                for cls, (rows, fast) in zip(classes, mapped):
                    image = tuple(sorted(perm[x] for x in cls))
                    assert rows == m.rows, (n, k, m, rows)
                    assert fast == image, (n, k, m, cls)
                    assert image == class_of[perm[cls[0]]], (n, k, m, cls)
                checked += 1
    rng = random.Random(SEED)
    for n in ACTION_MODULI:
        for _ in range(ACTION_SETS_PER_MODULUS):
            s = _coset_union(rng, n)
            ss = solving_set(key_of_set(s))
            step = -(-len(ss) // ACTION_MULTIPLIERS_PER_SET)
            sample = zip(
                islice(ss, 0, None, step),
                islice(ss.images(s), 0, None, step),
                strict=True,
            )
            for m, (rows, fast) in sample:
                perm = multiplier_action_reference(m.rows, n)
                assert rows == m.rows, (n, s.members, m, rows)
                assert fast == tuple(sorted(perm[x] for x in s.members)), (n, s.members, m)
                checked += 1
    return checked


def genuine_row_reference(row, krow, p: int, t: int) -> bool:
    """The genuine normal form stated entry by entry: entry m_j (j from 1)
    lies in [1, p^(j - k_j) - 1], and m_{j+1} = m_j (mod p^(j - k_{j+1}))."""
    if len(row) != t:
        return False
    if any(not 1 <= row[a] < p ** (a + 1 - krow[a]) for a in range(t)):
        return False
    return all(
        (row[a + 1] - row[a]) % p ** (a + 1 - krow[a + 1]) == 0 for a in range(t - 1)
    )


def check_genuine_rows_against_reference() -> int:
    """GenuineMultiplier accepts exactly the rows genuine_row_reference
    accepts, for every key row of each GENUINE_PRIME_POWERS p^t and every
    row whose entry m_j lies in 0..p^j, one past the widest range bound;
    and the accepted rows, in lexicographic order, are the genuine rows
    in the order _genuine_rows lists them, which is the order the
    solving-set scan visits them in."""
    checked = 0
    for p, t in GENUINE_PRIME_POWERS:
        f = factorize(p**t)
        grid = [range(p**j + 1) for j in range(1, t + 1)]
        for krow in _prime_power_key_rows(t):
            key = Key(f, (krow,))
            kept = []
            for row in product(*grid):
                try:
                    GenuineMultiplier((row,), key)
                    kept.append(row)
                    accepted = True
                except DomainError:
                    accepted = False
                assert accepted == genuine_row_reference(row, krow, p, t), (p, t, krow, row)
                checked += 1
            assert tuple(kept) == _genuine_rows(krow, p, t), (p, t, krow)
    return checked


def is_prime(p: int) -> bool:
    """Trial division by 2 and the odd d with d^2 <= p."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def factorization_reference(n: int, parts) -> bool:
    """The rules Factorization once checked part by part: every p prime,
    the primes strictly ascending, every exponent at least 1, and the
    prime powers multiplying to n.  They compare by value, so they take a
    list, a float prime or a bool exponent that equals the true parts."""
    prod, prev = 1, 1
    for p, t in parts:
        if not is_prime(p) or p <= prev or t < 1:
            return False
        prev = p
        prod *= p**t
    return prod == n


def check_factorization_against_reference(n_max: int = 12000) -> int:
    """Factorization(n, parts) accepts exactly what factorization_reference
    accepts, for every n <= n_max, on factorize(n).parts and on its
    perturbations: n itself as the one prime (composite unless n is prime),
    1 as an extra prime below the rest, the parts in reverse order, each
    exponent off by one either way, each part dropped, the next prime
    appended, and that prime with exponent 0 appended.  The reference also
    accepts the true parts as a list, with a list first part, with a float
    first prime or with a bool exponent 1; the constructor refuses those."""
    checked = 0
    for n in range(2, n_max + 1):
        parts = factorize(n).parts
        top = parts[-1][0] + 1
        while not is_prime(top):
            top += 1
        moved = [
            parts[:i] + ((p, t + d),) + parts[i + 1:]
            for i, (p, t) in enumerate(parts)
            for d in (-1, 1)
        ]
        dropped = [parts[:i] + parts[i + 1:] for i in range(len(parts))]
        for candidate in [
            parts, ((n, 1),), ((1, 1),) + parts, parts[::-1], *moved, *dropped,
            parts + ((top, 1),), parts + ((top, 0),),
        ]:
            try:
                Factorization(n, candidate)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == factorization_reference(n, candidate), (n, candidate)
            checked += 1
        (p, t), rest = parts[0], parts[1:]
        retyped = [list(parts), ([p, t],) + rest, ((float(p), t),) + rest]
        if any(e == 1 for _, e in parts):
            retyped.append(tuple((q, True if e == 1 else e) for q, e in parts))
        for candidate in retyped:
            assert factorization_reference(n, candidate), (n, candidate)
            try:
                Factorization(n, candidate)
            except DomainError:
                checked += 1
            else:
                raise AssertionError(("accepted", n, candidate))
    return checked


def _check_residue(x: int, n: int) -> None:
    if not 0 <= x < n:
        raise DomainError(f"{x} is not a canonical residue mod {n}")


def generated_subgroup(members, n: int) -> tuple[int, ...]:
    """<S>: the multiples of gcd(S plus n); the empty set generates {0}."""
    g = n
    for s in members:
        _check_residue(s, n)
        g = math.gcd(g, s)
    return tuple(range(0, n, g))


def subgroup_of_order(n: int, d: int) -> tuple[int, ...]:
    """The unique subgroup of Z_n of order d: the multiples of n/d."""
    _check_modulus(n)
    if d < 1 or n % d != 0:
        raise DomainError(f"{d} does not divide {n}")
    return tuple(range(0, n, n // d))


def check_reduction_consistency(n_max: int = 12) -> int:
    """The direct CI decision and the reduction through <S> agree on all sets."""
    checked = 0
    for n in range(2, n_max + 1):
        for size in range(1, n):
            for members in combinations(range(1, n), size):
                s = ConnectionSet(n, members)
                assert is_ci(s).is_ci == is_ci_reduced(s).is_ci, (n, members)
                checked += 1
    return checked


def _same_size_pairs(n_max: int):
    """Each same-size pair of orbit representatives with n <= n_max, both
    modes: by n, then mode, then size, then combinations_with_replacement."""
    for n in range(2, n_max + 1):
        for mode in MODES:
            for m in range(1, n):
                reps = [ConnectionSet(n, mem, mode) for mem in orbit_representatives(n, m, mode)]
                yield from combinations_with_replacement(reps, 2)


def check_criterion_against_oracle(n_max: int = 11) -> int:
    """Criterion verdict equals brute force on every same-size pair of orbit
    representatives (both modes), and keys agree whenever the oracle says
    isomorphic."""
    checked = 0
    for s, t in _same_size_pairs(n_max):
        case = (s.n, s.mode, s.members, t.members)
        oracle = brute_force_isomorphic(s, t)
        assert muzychuk_isomorphic(s, t).isomorphic == oracle, case
        if oracle:
            assert key_of_set(s) == key_of_set(t), case
        checked += 1
    return checked


def order_exponent(x: int, p: int, t: int) -> int:
    """The a with p^a the additive order of x in Z_{p^t} (0 for x = 0)."""
    _check_residue(x, p**t)
    if x == 0:
        return 0
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return t - v


def key_of_set_reference(s: ConnectionSet) -> Key:
    """The key of S by the stabilizer test read one member at a time: per
    prime power p^t, the order exponent of each member's p-part, and entry
    (p, j) the largest v < j such that x + n / p^v lies in S for every
    member x with exponent >= j, over a byte table of S.  The reference for
    key_of_set, which runs the same tests as integer masks."""
    members, n = s.members, s.n
    assert members, "key of the empty set is undefined"
    inside = bytearray(n)
    for x in members:
        inside[x] = 1
    f = factorize(n)
    rows = []
    for p, t in f.parts:
        q = p**t
        exponents = [order_exponent(x % q, p, t) for x in members]
        row = [0] * t
        v = 0
        for j in range(2, t + 1):
            moved = [x for x, a in zip(members, exponents) if a >= j]
            while v + 1 < j:
                step = n // p ** (v + 1)
                if not all(inside[(x + step) % n] for x in moved):
                    break
                v += 1
            row[j - 1] = v
        for x, a in zip(members, exponents):
            if a and row[a - 1]:
                assert inside[(x + n // p ** row[a - 1]) % n], (n, members, p)
        rows.append(tuple(row))
    return Key(f, tuple(rows))


def check_key_against_lattice(n_max: int = 16) -> int:
    """key_of_set equals the lattice join on every digraph subset for
    n <= n_max and on seeded coset unions up to n = 256."""
    checked = 0
    for n in range(2, n_max + 1):
        for size in range(1, n):
            for members in combinations(range(1, n), size):
                expected = lattice_key_of_partition(n, _two_classes(n, members))
                assert key_of_set(ConnectionSet(n, members)) == expected, (n, members)
                checked += 1
    rng = random.Random(SEED)
    for n in COSET_UNION_MODULI:
        for _ in range(COSET_UNIONS_PER_MODULUS):
            s = _coset_union(rng, n)
            expected = lattice_key_of_partition(n, _two_classes(n, s.members))
            assert key_of_set(s) == expected, (n, s.members)
            checked += 1
    return checked


def check_key_against_reference(n_max: int = 16) -> int:
    """key_of_set equals key_of_set_reference on every digraph subset for
    n <= n_max, on seeded coset unions at the REFERENCE_MODULI up to
    n = 1024, and on seeded unions of small cosets at the LARGE_MODULI."""
    rng = random.Random(SEED)
    cases = chain(
        (
            ConnectionSet(n, members)
            for n in range(2, n_max + 1)
            for size in range(1, n)
            for members in combinations(range(1, n), size)
        ),
        (_coset_union(rng, n) for n in REFERENCE_MODULI for _ in range(COSET_UNIONS_PER_MODULUS)),
        (
            _coset_union(rng, n, LARGE_MAX_ORDER)
            for n in LARGE_MODULI
            for _ in range(LARGE_SETS_PER_MODULUS)
        ),
    )
    checked = 0
    for s in cases:
        k = key_of_set(s)
        assert k == key_of_set_reference(s), (s.n, s.members)
        # key_of_set builds its key past the checks of Key's constructor
        assert Key(k.factorization, k.rows) == k, (s.n, s.members)
        checked += 1
    return checked


def check_reduced_key(n_max: int = 48, m_max: int = 4) -> int:
    """The key of S/g in Z_{n/g}, for g = gcd(n, S) > 1, as engine's
    reduction reads it off the key of S, equals key_of_set(S/g), on every
    subset S of size at most m_max of a proper subgroup of Z_n, n <= n_max:
    the subsets of the multiples of each prime p of n whose least common
    prime with n is p."""
    checked = 0
    for n in range(2, n_max + 1):
        primes = [p for p, _ in factorize(n).parts]
        for p in primes:
            for size in range(1, m_max + 1):
                for members in combinations(range(p, n, p), size):
                    g = math.gcd(n, *members)
                    if next(q for q in primes if g % q == 0) != p:
                        continue
                    s = ConnectionSet(n, members)
                    reduced = ConnectionSet(n // g, tuple(x // g for x in members))
                    k = key_of_set(s)
                    truncated = engine._reduced_key(k, n // g)
                    assert truncated == key_of_set(reduced), (n, members)
                    # both keys are built past the checks of Key's constructor
                    assert Key(k.factorization, k.rows) == k, (n, members)
                    assert Key(truncated.factorization, truncated.rows) == truncated, (n, members)
                    checked += 1
    return checked


def check_oracle_against_backtracking(n_max: int = 10) -> int:
    """brute_force_isomorphism returns the mapping of index_list_isomorphism
    and the verdict of the backtracking reference on every same-size pair
    of orbit representatives with n <= n_max (both modes), its refinement
    the same stable colours from vertex 0 individualized, its starting
    colours (cayley._start_colours) the partition of two reference rounds
    from there, or None exactly where the histograms of either round
    differ, and it
    finds the non-unit isomorphisms of the witness families up to the
    oracle cutoff (each family against its is_ci witness, both ways round)
    plus Z_8 {1,2,5} ~ {1,5,6}; every mapping brute_force_isomorphism or the
    backtracking reference returns is an arc-preserving bijection."""
    cases = [(s, t, False) for s, t in _same_size_pairs(n_max)]
    isomorphic = [(ConnectionSet(8, (1, 2, 5)), ConnectionSet(8, (1, 5, 6)))]
    for n in range(2, 13):
        for mode in ("digraph", "graph"):
            for family in witnesses(n, mode):
                s = family.connection_set
                isomorphic.append((s, is_ci(s).witness))
    assert {s.n for s, _ in isomorphic} == {8, 9}, isomorphic
    cases += [(s, t, True) for s, t in isomorphic] + [(t, s, True) for s, t in isomorphic]
    for s, t, known_isomorphic in cases:
        fast = brute_force_isomorphism(s, t)
        slow = backtracking_isomorphism(s, t)
        case = (s.n, s.mode, s.members, t.members)
        assert fast == index_list_isomorphism(s, t), case
        root = [1] + [0] * (s.n - 1)
        assert cayley._joint_refinement(
            cayley._shifts(s), cayley._shifts(t), root, root
        ) == _joint_refinement(*_out_in(s), *_out_in(t), root, root), case
        # the search's start: two rounds from the root, read off S, whose
        # colours are numbered otherwise, so only the partitions compare
        start = cayley._start_colours(s, t)
        colours = root + root
        for _ in range(2):
            sig_a = _signatures(*_out_in(s), colours[:s.n])
            sig_b = _signatures(*_out_in(t), colours[s.n:])
            if Counter(sig_a) != Counter(sig_b):
                assert start is None, case
                break
            colours = _ranks(sig_a + sig_b)
        else:
            assert start is not None and _same_partition(start[0] + start[1], colours), case
        assert (fast is None) == (slow is None), case
        assert fast is not None or not known_isomorphic, case
        a_out, b_out = out_neighbours(s), out_neighbours(t)
        for mapping in (fast, slow):
            if mapping is not None:
                assert sorted(mapping) == list(range(s.n)), case
                for v in range(s.n):
                    assert {mapping[x] for x in a_out[v]} == b_out[mapping[v]], case
    return len(cases)


def _ranks(signatures) -> list[int]:
    # each vertex's place among the distinct signatures, ascending
    place = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return [place[s] for s in signatures]


def _same_partition(x, y) -> bool:
    # two colourings of one vertex list make the same partition: the pairs
    # of colours (x_v, y_v) match the colours of x and of y one to one
    return len(set(zip(x, y))) == len(set(x)) == len(set(y))


def class_counts_reference(s: ConnectionSet) -> list[int]:
    """cayley._class_counts of the adjacency codes of S, from neighbour
    lists: per vertex v, the codes 2[v in -S] + [v in S] (4 at 0) counted
    over v's out-neighbours and then its in-neighbours, per code 1, 2 and 3
    (code 3 alone in graph mode, over the out-neighbours alone), each count
    in c bytes, c the least number that holds n - 1, and v's own code in
    the byte above them."""
    n = s.n
    members = set(s.members)
    code = [2 * ((-v) % n in members) + (v in members) for v in range(n)]
    code[0] = 4
    out, inn = _out_in(s)
    lists, classes = ((out,), (3,)) if s.mode == "graph" else ((out, inn), (1, 2, 3))
    c = ((n - 1).bit_length() + 7) // 8
    signatures = []
    for v in range(n):
        fields = [sum(code[w] == k for w in nbrs[v]) for nbrs in lists for k in classes]
        assert max(fields) < 256**c, (s, v, fields)
        signatures.append(
            sum(count << (8 * c * i) for i, count in enumerate(fields))
            + (code[v] << (8 * c * len(fields)))
        )
    return signatures


def check_class_counts(n_max: int = 16, large: tuple[int, ...] = (300,)) -> int:
    """cayley._class_counts, which reads every count by one integer product,
    against class_counts_reference on, for every n <= n_max and both modes,
    the empty set, Z_n minus {0} and seeded random sets; and for each n in
    `large`, two sets of at least n - 41 members, where from n = 298 on a
    count no longer fits in one byte.  Returns the number of sets compared."""
    rng = random.Random(SEED)
    cases = []
    for n in range(2, n_max + 1):
        for mode in MODES:
            cases += [ConnectionSet(n, (), mode), ConnectionSet(n, tuple(range(1, n)), mode)]
            for _ in range(8):
                cases += _random_pair(rng, n, mode)
    for n in large:
        for mode in MODES:
            # Z_n minus {0}, and minus 20 seeded members more (with their
            # negatives in graph mode): at least n - 41 members
            whole = tuple(range(1, n))
            dropped = set(rng.sample(whole, 20))
            if mode == "graph":
                dropped |= {n - x for x in dropped}
            cases += [
                ConnectionSet(n, whole, mode),
                ConnectionSet(n, tuple(x for x in whole if x not in dropped), mode),
            ]
    for s in cases:
        fast = cayley._class_counts(cayley._adjacency_codes(s), s.mode)
        assert fast == class_counts_reference(s), (s.n, s.mode, s.members)
    return len(cases)


def _random_pair(rng: random.Random, n: int, mode: str) -> tuple[ConnectionSet, ...]:
    """Two random connection sets over Z_n of one mode and one valency: in
    graph mode each is a union of pairs {x, -x}, with n/2 in both or in
    neither."""
    if mode == "digraph":
        size = rng.randrange(n)
        picks = [rng.sample(range(1, n), size) for _ in range(2)]
    else:
        pairs = range(1, (n + 1) // 2)
        size = rng.randint(0, len(pairs))
        half = [n // 2] if n % 2 == 0 and rng.random() < 0.5 else []
        picks = [
            half + [y for x in rng.sample(pairs, size) for y in (x, n - x)]
            for _ in range(2)
        ]
    return tuple(ConnectionSet(n, tuple(sorted(pick)), mode) for pick in picks)


def check_signature_order(n_max: int = 16) -> int:
    """cayley._signatures, which codes the colours at the neighbours of a
    vertex as one integer per shift tuple, ranks the vertices of two
    digraphs of one mode and valency exactly as the sorted neighbour colour
    tuples of _signatures over _out_in rank them, so the joint refinement
    numbers its colours as the reference does.

    For every n <= n_max, both modes and every number k of colours from 1
    to n: a seeded colouring using all k colours, one in which a colour
    then fills the out- or in-neighbourhood of a vertex, and one in which
    a colour fills a neighbourhood of Cay(Z_n, Z_n minus {0}), the largest
    count of one colour there is.  Ranks over the vertices of both digraphs
    are compared, not the codes themselves."""
    rng = random.Random(SEED)
    checked = 0
    for n in range(2, n_max + 1):
        for mode in MODES:
            whole = ConnectionSet(n, tuple(range(1, n)), mode)
            for k in range(1, n + 1):
                # a plain colouring, one with a filled neighbourhood, and
                # one filling a neighbourhood of Cay(Z_n, Z_n minus {0})
                for trial in range(3):
                    a, b = _random_pair(rng, n, mode) if trial < 2 else (whole, whole)
                    colours = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
                    rng.shuffle(colours)
                    if trial:
                        out, inn = _out_in(a)
                        v = rng.randrange(n)
                        colour = rng.randrange(k)
                        for w in rng.choice((out, inn))[v]:
                            colours[w] = colour
                    fast = [
                        sig
                        for g in (a, b)
                        for sig in cayley._signatures(colours, cayley._shifts(g))
                    ]
                    slow = [
                        sig
                        for g in (a, b)
                        for sig in _signatures(*_out_in(g), colours)
                    ]
                    assert _ranks(fast) == _ranks(slow), (n, mode, colours, a, b)
                    checked += 1
    return checked


def almost_zero_key(f: Factorization) -> Key:
    """Zero everywhere except entry 1 at (p = 2, j = 2); needs n = 4 mod 8."""
    if f.n % 8 != 4:
        raise DomainError("almost zero key requires n ≡ 4 (mod 8)")
    rows = []
    for p, t in f.parts:
        row = [0] * t
        if p == 2:  # the 2-part is exactly 4 here, so this row is (0, 1)
            row[1] = 1
        rows.append(tuple(row))
    return Key(f, tuple(rows))


def _ci_keys(n: int) -> set[Key]:
    """zero_key, and almost_zero_key when n = 4 (mod 8): the keys that
    decide CI with no scan."""
    f = factorize(n)
    return {zero_key(f), almost_zero_key(f)} if n % 8 == 4 else {zero_key(f)}


def connection_set_reference(n: int, m: int, mode: str):
    """All member tuples of size m (graph mode: inverse-closed only), from
    combinations of the residues, or in graph mode of the pairs
    (x, n - x) with n/2 alone: the reference for connection_set_tuples."""
    if mode == "digraph":
        yield from combinations(range(1, n), m)
        return
    pairs = [(x, n - x) for x in range(1, (n + 1) // 2)]
    if m % 2 == 0:
        for combo in combinations(pairs, m // 2):
            yield tuple(sorted(x for pair in combo for x in pair))
    elif n % 2 == 0:
        half = n // 2
        for combo in combinations(pairs, (m - 1) // 2):
            yield tuple(sorted((half, *(x for pair in combo for x in pair))))
    # odd m with odd n: no inverse-closed sets exist


def orbit_least_reference(tuples, n: int) -> tuple[tuple[int, ...], ...]:
    """The tuples that are lexicographically least in their unit orbit,
    ascending, tested against one table of x -> ux per unit u != 1 (u = 1
    maps every tuple to itself, so its test always passes)."""
    tables = [tuple(u * x % n for x in range(n)) for u in units(n) if u != 1]
    return tuple(
        sorted(
            mem
            for mem in tuples
            if all(tuple(sorted(tab[x] for x in mem)) >= mem for tab in tables)
        )
    )


def orbit_count(n: int, m: int, mode: str) -> int:
    """The number of unit orbits of size-m connection sets (graph mode:
    inverse-closed), by Burnside: the mean over the units u of the sets u
    fixes.  A fixed set is a union of cycles of u on the blocks (residues in
    digraph mode, pairs {x, -x} in graph mode), so u fixes as many as the
    coefficient of x^m in the product of 1 + x^c over its cycles, where c is
    the number of residues a cycle covers.  No set is built and no key is
    computed."""
    # the residues each block covers, by the block's least member
    if mode == "digraph":
        size = dict.fromkeys(range(1, n), 1)
    else:
        size = {x: 1 if 2 * x == n else 2 for x in range(1, n // 2 + 1)}
    unit_list = [u for u in range(1, n) if math.gcd(u, n) == 1]
    total = 0
    for u in unit_list:
        coefficients = [1] + [0] * m
        seen = set()
        for start in size:
            if start in seen:
                continue
            c, x = 0, start
            while x not in seen:
                seen.add(x)
                c += size[x]
                x = u * x % n
                x = x if x in size else n - x
            for k in range(m, c - 1, -1):
                coefficients[k] += coefficients[k - c]
        total += coefficients[m]
    assert total % len(unit_list) == 0, (n, m, mode, total)
    return total // len(unit_list)


def check_orbit_filter(n_max: int = 16, wide_n_max: int = 24, wide_m_max: int = 5) -> int:
    """connection_set_tuples against connection_set_reference as sets of
    tuples, orbit_representatives against orbit_least_reference over the
    reference's tuples, and its length against orbit_count, on the cells of
    check_key_enumeration: every m for n <= n_max in both modes, and for
    n_max < n <= wide_n_max every m in graph mode and m <= wide_m_max in
    digraph mode."""
    checked = 0
    for n in range(2, max(n_max, wide_n_max) + 1):
        for mode in MODES:
            m_top = n - 1 if n <= n_max or mode == "graph" else min(wide_m_max, n - 1)
            for m in range(1, m_top + 1):
                cell = (n, m, mode)
                tuples = sorted(connection_set_reference(n, m, mode))
                assert sorted(connection_set_tuples(n, m, mode)) == tuples, cell
                representatives = orbit_representatives(n, m, mode)
                reference = orbit_least_reference(tuples, n)
                assert representatives == reference, cell
                assert len(representatives) == orbit_count(n, m, mode), cell
                checked += 1
    return checked


def key_representatives_reference(n: int, m: int, mode: str) -> tuple[tuple[int, ...], ...]:
    """The orbit representatives that m_property must visit: those whose key
    is not one of _ci_keys(n), from orbit_least_reference."""
    trivial = _ci_keys(n)
    return tuple(
        mem
        for mem in orbit_least_reference(connection_set_reference(n, m, mode), n)
        if key_of_set(ConnectionSet(n, mem, mode)) not in trivial
    )


def _nontrivial_rows(n: int, mem: tuple[int, ...], mode: str) -> int:
    """The number of primes of n at which the key of mem has a row that no
    key of _ci_keys(n) has: the sweep's enumerator yields mem once per such
    prime."""
    k = key_of_set(ConnectionSet(n, mem, mode))
    trivial = _ci_keys(n)
    return sum(1 for i, row in enumerate(k.rows) if row not in {z.rows[i] for z in trivial})


def check_key_enumeration(
    n_max: int = 16,
    wide_n_max: int = 24,
    wide_m_max: int = 5,
    two_prime_cells: tuple[tuple[int, int, int], ...] = TWO_PRIME_CELLS,
) -> int:
    """The sweep's enumerator against key_representatives_reference: every m
    for n <= n_max in both modes, for n_max < n <= wide_n_max every m in
    graph mode and m <= wide_m_max in digraph mode, and for each
    (n, digraph_m_max, graph_m_max) of two_prime_cells every m up to those
    bounds.  Per cell, none of the candidates has the zero or almost zero
    key, the distinct ones number the sum of the reference's orbit sizes (so
    they are exactly those sets), every set comes once per prime where its
    key row is not trivial, and the candidates' orbit-least members are the
    reference's representatives, each once."""
    cells = [
        (n, m, mode)
        for n in range(2, max(n_max, wide_n_max) + 1)
        for mode in MODES
        for m in range(
            1, (n - 1 if n <= n_max or mode == "graph" else min(wide_m_max, n - 1)) + 1
        )
    ]
    for n, digraph_m_max, graph_m_max in two_prime_cells:
        cells += [(n, m, "digraph") for m in range(1, digraph_m_max + 1)]
        cells += [(n, m, "graph") for m in range(1, graph_m_max + 1)]
    for cell in cells:
        n, m, mode = cell
        trivial = _ci_keys(n)
        candidates = list(_key_candidates(n, m, mode))
        for mem in set(candidates):
            assert key_of_set(ConnectionSet(n, mem, mode)) not in trivial, (cell, mem)
        reference = key_representatives_reference(n, m, mode)
        sizes = [len(orbit_members(ConnectionSet(n, mem, mode))) for mem in reference]
        assert len(set(candidates)) == sum(sizes), cell
        visits = sum(
            size * _nontrivial_rows(n, mem, mode) for mem, size in zip(reference, sizes)
        )
        assert len(candidates) == visits, cell
        assert _orbit_least(candidates, n) == reference, cell
    return len(cells)


def ci_scan_reference(s: ConnectionSet) -> CiVerdict:
    """The CI scan with the whole unit orbit listed first: S is CI iff every
    solving-set image lies in {uS : u a unit}, and the witness is the first
    image outside it, in enumeration order.  The orbit is built here rather
    than by orbit_members, which shares the library's unit action, and the
    images come from solving_set_images_reference rather than from the
    library's scan."""
    if not s.members:
        return CiVerdict(True)
    orbit = {tuple(sorted(u * x % s.n for x in s.members)) for u in units(s.n)}
    for _, image in solving_set_images_reference(s.members, key_of_set(s)):
        if image not in orbit:
            return CiVerdict(False, ConnectionSet(s.n, image, s.mode))
    return CiVerdict(True)


def check_ci_scan_against_reference(n_max: int = 16) -> int:
    """is_ci against ci_scan_reference, on verdict and witness members: every
    orbit representative for n <= n_max in both modes, and the seeded coset
    unions up to n = 256.  Both sides must meet non-CI sets."""
    cases = [
        ConnectionSet(n, mem, mode)
        for n in range(2, n_max + 1)
        for mode in MODES
        for m in range(1, n)
        for mem in orbit_representatives(n, m, mode)
    ]
    rng = random.Random(SEED)
    cases += [
        _coset_union(rng, n) for n in COSET_UNION_MODULI for _ in range(COSET_UNIONS_PER_MODULUS)
    ]
    non_ci = 0
    for s in cases:
        verdict, expected = is_ci(s), ci_scan_reference(s)
        case = (s.n, s.mode, s.members)
        assert verdict.is_ci == expected.is_ci, case
        if not expected.is_ci:
            assert verdict.witness.members == expected.witness.members, case
            non_ci += 1
    assert non_ci > 0, "no non-CI set was compared"
    return len(cases)


def check_unit_like_multipliers(n_max: int = 16) -> int:
    """The CI scan's skip against the element action: for every orbit
    representative with n <= n_max in both modes, and the seeded coset
    unions up to n = 256, the (rows, image) pairs of the scan,
    SolvingSet._non_unit_images, are those of solving_set_images_reference
    in iteration order with some left out, and the image of each multiplier
    left out lies in the unit orbit of S, listed here from units(n).  The
    walk must meet multipliers skipped and multipliers mapped."""
    cases = [
        ConnectionSet(n, mem, mode)
        for n in range(2, n_max + 1)
        for mode in MODES
        for m in range(1, n)
        for mem in orbit_representatives(n, m, mode)
    ]
    rng = random.Random(SEED)
    cases += [
        _coset_union(rng, n) for n in COSET_UNION_MODULI for _ in range(COSET_UNIONS_PER_MODULUS)
    ]
    skipped = mapped = 0
    for s in cases:
        case = (s.n, s.mode, s.members)
        k = key_of_set(s)
        orbit = {tuple(sorted(u * x % s.n for x in s.members)) for u in units(s.n)}
        scan = solving_set(k)._non_unit_images(s)
        ahead = next(scan, None)
        for rows, image in solving_set_images_reference(s.members, k):
            if ahead is not None and ahead[0] == rows:
                assert ahead[1] == image, (case, rows)
                ahead = next(scan, None)
                mapped += 1
            else:
                assert image in orbit, (case, rows)
                skipped += 1
        assert ahead is None, case
    assert skipped > 0 and mapped > 0, (skipped, mapped)
    return len(cases)


def iso_scan_reference(s: ConnectionSet, t: ConnectionSet) -> IsoVerdict:
    """Muzychuk's criterion with the full-image scan: after the key check,
    the sorted image of S under every multiplier of the solving set, in
    enumeration order, is compared with T, and the first equal one is the
    witness.  Sets of different sizes are told apart only by exhausting
    the solving set.  The images come from solving_set_images_reference, so
    the early drop of SolvingSet.first_into is checked against images it
    does not compute."""
    if not (s.members and t.members):
        if s.members or t.members:
            return IsoVerdict(False, "key-mismatch")
        identity = next(iter(solving_set(zero_key(factorize(s.n)))))
        return IsoVerdict(True, "multiplier-found", identity)
    ks = key_of_set(s)
    if ks != key_of_set(t):
        return IsoVerdict(False, "key-mismatch")
    for rows, image in solving_set_images_reference(s.members, ks):
        if image == t.members:
            return IsoVerdict(True, "multiplier-found", GenuineMultiplier(rows, ks))
    return IsoVerdict(False, "exhausted")


def _acts_as_unit(m: GenuineMultiplier) -> bool:
    # the permutation of m is x -> ux for the unit u it sends 1 to
    perm = as_permutation(m)
    n = len(perm)
    return perm == tuple(perm[1] * x % n for x in range(n))


def check_iso_scan_against_reference(n_max: int = 10) -> int:
    """muzychuk_isomorphic against iso_scan_reference, on verdict, reason
    and witness rows: every same-mode pair of orbit representatives with
    n <= n_max, sizes different or equal, and every (S, T) with S such a
    representative and T in isomorphism_class(S); then every pair of the
    seeded coset unions of one modulus up to n = 256, and each of them
    against its images under an evenly spread sample of its solving set.
    Both sides must meet witnesses that act as no unit, and exhausted
    verdicts of both kinds: pairs whose gcd layers differ in size, which
    muzychuk_isomorphic refutes before any scan, and pairs with equal layer
    sizes that exhaust its scan."""
    cases = []
    for n in range(2, n_max + 1):
        for mode in MODES:
            reps = [
                ConnectionSet(n, mem, mode)
                for m in range(1, n)
                for mem in orbit_representatives(n, m, mode)
            ]
            cases += combinations_with_replacement(reps, 2)
            cases += [(s, t) for s in reps for t in isomorphism_class(s)]
    rng = random.Random(SEED)
    for n in COSET_UNION_MODULI:
        unions = [_coset_union(rng, n) for _ in range(COSET_UNIONS_PER_MODULUS)]
        cases += combinations_with_replacement(unions, 2)
        for s in unions:
            ss = solving_set(key_of_set(s))
            step = -(-len(ss) // ISO_IMAGES_PER_SET)
            images = islice(ss.images(s), 0, None, step)
            cases += [(s, ConnectionSet(n, image)) for _, image in images]
    by_layers, by_scan, non_unit = 0, 0, False
    for s, t in cases:
        case = (s.n, s.mode, s.members, t.members)
        verdict = muzychuk_isomorphic(s, t)
        assert verdict == iso_scan_reference(s, t), case
        if verdict.reason == "exhausted":
            if Counter(math.gcd(x, s.n) for x in s.members) != Counter(
                math.gcd(x, t.n) for x in t.members
            ):
                by_layers += 1
            else:
                by_scan += 1
        if verdict.isomorphic:
            witness = verdict.witness_multiplier
            # one witness that acts as no unit is enough, and as_permutation
            # costs O(n) per witness
            if not non_unit:
                non_unit = not _acts_as_unit(witness)
    assert by_layers > 0, "no pair refuted by its layer sizes was compared"
    assert by_scan > 0, "no pair with equal layer sizes exhausted the scan"
    assert non_unit, "no witness that acts as no unit was compared"
    return len(cases)


def check_witness_boundary(n_max: int = 1000) -> int:
    """The theorem's "only if" half by the witness families: for every
    n <= n_max in both modes, engine.witnesses lists a family iff the
    closed-form predicate fails at some valency m < n, the least family has
    the first such m as its size, and for every family's set S,
    is_ci_reduced returns a mate that is no unit multiple of S, the orbit of
    S listed here from units(n)."""
    checked = 0
    for n in range(2, n_max + 1):
        for mode in MODES:
            predicate = predicate_mdci if mode == "digraph" else predicate_mci
            first_failing = next(
                (m for m in range(_LEAST_M[mode], n) if not predicate(n, m)), None
            )
            families = witnesses(n, mode)
            sizes = [len(family.connection_set.members) for family in families]
            assert min(sizes, default=None) == first_failing, (n, mode, sizes)
            for family in families:
                s = family.connection_set
                orbit = {tuple(sorted(u * x % n for x in s.members)) for u in units(n)}
                verdict = is_ci_reduced(s)
                assert not verdict.is_ci, (n, mode, family.family)
                assert verdict.witness.members not in orbit, (n, mode, family.family)
                checked += 1
    return checked


def _complement(s: ConnectionSet) -> ConnectionSet:
    # C = Z_n \ ({0} u S), of the same mode: -C is the complement of -S
    inside = set(s.members)
    return ConnectionSet(s.n, tuple(x for x in range(1, s.n) if x not in inside), s.mode)


def check_complement(n_max: int = 36, m_max: int = 6, graph_m_max: int = 12) -> int:
    """S against its complement C = Z_n \\ ({0} u S): a bijection of Z_n
    carries Cay(Z_n, S) onto Cay(Z_n, T) iff it carries their complements
    onto each other, and uC is the complement of uS, so S is CI iff C is
    and the complement of a witness for one is a witness for the other.
    For every orbit representative from _key_candidates with n <= n_max
    and m <= n - 2, up to m_max in digraph mode and up to graph_m_max in
    graph mode (a union of about m/2 pairs {x, -x}): S and C have one key
    and one decide_ci verdict, and the complement of each witness of
    either has the key of the other and lies outside its unit orbit,
    listed here from units(n).  The two verdicts often come from different
    stages (S inside a proper subgroup takes the reduction, C generating
    Z_n the full scan); the walk must meet such pairs and non-CI sets."""
    checked = other_stage = non_ci = 0
    for n in range(2, n_max + 1):
        for mode, m_top in zip(MODES, (m_max, graph_m_max)):
            for m in range(1, min(m_top, n - 2) + 1):
                for mem in _orbit_least(_key_candidates(n, m, mode), n):
                    s = ConnectionSet(n, mem, mode)
                    c = _complement(s)
                    case = (n, mode, mem)
                    assert key_of_set(s) == key_of_set(c), case
                    verdicts = decide_ci(s), decide_ci(c)
                    assert verdicts[0].is_ci == verdicts[1].is_ci, case
                    for verdict, mate in zip(verdicts, (c, s)):
                        if verdict.witness is not None:
                            w = _complement(verdict.witness)
                            assert key_of_set(w) == key_of_set(mate), case
                            orbit = {
                                tuple(sorted(u * x % n for x in mate.members))
                                for u in units(n)
                            }
                            assert w.members not in orbit, case
                    other_stage += verdicts[0].fast_path != verdicts[1].fast_path
                    non_ci += not verdicts[0].is_ci
                    checked += 1
    assert other_stage > 0, "no pair was decided by two different stages"
    assert non_ci > 0, "no non-CI pair was compared"
    return checked


def first_failing_valency(n: int, mode: str) -> int | None:
    """f(n), the least valency at which Z_n fails, as the theorem states it,
    or None when Z_n fails at none.  Digraph mode: 3 when 8 | n, otherwise
    p + 1 for the least odd prime p with p^2 | n.  Graph mode, for n other
    than 8, 9 and 18: 6 when 8 | n, otherwise 2p + 2."""
    if mode == "graph" and n in (8, 9, 18):
        return None
    if n % 8 == 0:
        return 3 if mode == "digraph" else 6
    p = next((p for p, t in factorize(n).parts if p != 2 and t >= 2), None)
    if p is None:
        return None
    return p + 1 if mode == "digraph" else 2 * p + 2


def check_first_failure(n_max: int = 80) -> int:
    """The first failing valency at every modulus: for every n <= n_max in
    both modes with an f(n), is_m_group(n, f(n), mode) fails with
    failed_at == f(n), a walk that decides every valency below f(n)
    exhaustively, and agrees with the predicate.  Graph mode at n = 8, 9
    and 18 holds up to n - 1.  Every other n has no scanned prime, so all
    its sets have the zero key and _key_candidates yields nothing."""
    checked = 0
    for n in range(2, n_max + 1):
        for mode in MODES:
            f = first_failing_valency(n, mode)
            if f is not None:
                report = is_m_group(n, f, mode)
                assert not report.property_holds and report.failed_at == f, (n, mode, f)
                assert report.agreement, (n, mode, f)
            elif mode == "graph" and n in (8, 9, 18):
                report = is_m_group(n, n - 1, mode)
                assert report.property_holds and report.failed_at is None, (n, mode)
            else:
                for m in range(1, n):
                    assert next(_key_candidates(n, m, mode), None) is None, (n, m, mode)
            checked += 1
    return checked


# The CI runs: (check, its keyword arguments, time limit in seconds), run in
# order by the entry point below; each comment gives the row's measured cost.
CI_CHECKS = (
    # every n <= 200 000: 3 634 093 candidate parts in 19-20 s (two runs)
    ("check_factorization_against_reference", {"n_max": 200000}, 120),
    # moduli with two scanned primes past tier-1's valencies: digraph m <= 4
    # and graph m <= 8 at 72, m <= 3 and m <= 6 at 144, 200, 216 and 225,
    # m <= 2 and m <= 4 at 288, 360, 400 and 441, in about a minute
    ("check_key_enumeration", {"two_prime_cells": (
        (72, 4, 8), (144, 3, 6), (200, 3, 6), (216, 3, 6), (225, 3, 6),
        (288, 2, 4), (360, 2, 4), (400, 2, 4), (441, 2, 4),
    )}, 300),
    # every orbit representative with n <= 20 in both modes and the seeded
    # coset unions: 119 300 sets, the reference's images by digit terms, in
    # about 45 s
    ("check_ci_scan_against_reference", {"n_max": 20}, 300),
    # every orbit representative with n <= 20 in both modes and the seeded
    # coset unions: 119 300 sets, every multiplier's image by digit terms,
    # in 25-28 s (three runs)
    ("check_unit_like_multipliers", {"n_max": 20}, 120),
    # 220 008 pairs, the reference's images by digit terms, in 13–20 s
    # (six runs on a drifting host; 11–19 s at the parent alongside)
    ("check_iso_scan_against_reference", {"n_max": 12}, 120),
    # every m for n <= 20 in both modes, then graph every m and digraph
    # m <= 5 up to n = 30: 675 cells in about 30 s
    ("check_orbit_filter", {"n_max": 20, "wide_n_max": 30, "wide_m_max": 5}, 300),
    # every key with n <= 128: 26 045 multipliers in about 16 s
    ("check_multiplier_action", {"n_max": 128}, 300),
    # every key with n <= 200: 1 274 partitions in about 3 s
    ("check_key_round_trip", {"n_max": 200}, 60),
    # every n <= 400, at most 1 500 ordered pairs of keys per n: 16 135
    # pairs in about 8 s
    ("check_monotonicity", {"n_max": 400}, 120),
    # up to the oracle cutoff: 35 182 pairs in 46–68 s (four runs; 47–72 s
    # at the parent alongside), most of it the references' searches
    ("check_oracle_against_backtracking", {"n_max": 12}, 300),
    # every n <= 40 in both modes: 4 914 colourings in a few seconds
    ("check_signature_order", {"n_max": 40}, 120),
    # every n <= 40 in both modes, then n = 257, 300 and 1 000, where the
    # counts take two bytes: 1 416 sets in about 3 s
    ("check_class_counts", {"n_max": 40, "large": (257, 300, 1000)}, 60),
    # up to the oracle cutoff: 35 176 pairs in 1.2–1.4 s
    ("check_criterion_against_oracle", {"n_max": 12}, 15),
    # 1 048 699 subsets in 32.9 s
    ("check_key_against_lattice", {"n_max": 20}, 120),
    # every subset with n <= 20 and the seeded unions: 1 048 819 sets in
    # about 32 s.  n = 21, 22 and 23 are squarefree or prime, where no mask
    # is built, and the 2^23 subsets of Z_24 alone would take about 4 min
    ("check_key_against_reference", {"n_max": 20}, 120),
    # every set of size <= 4 inside a proper subgroup, n <= 72: 501 552
    # sets in about 16 s
    ("check_reduced_key", {"n_max": 72, "m_max": 4}, 120),
    # is_ci against is_ci_reduced on every subset with n <= 18: 262 125
    # sets in about 35 s
    ("check_reduction_consistency", {"n_max": 18}, 120),
    # every n <= 3 000 in both modes: 1 927 families in about 18 s
    ("check_witness_boundary", {"n_max": 3000}, 120),
    # every n <= 120 in both modes: 238 cells in about 8 s, the slowest the
    # digraph cells of n = 117, 100 and 108 at about 1 s each; widening
    # waits on the sweep by generated subgroup
    ("check_first_failure", {"n_max": 120}, 60),
    # every n <= 72, digraph m <= 5 and graph m <= 12, each set against its
    # complement of size n - 1 - m: 132 148 pairs in 60-80 s, 88 095 of
    # them decided by two different stages; digraph m <= 6 at n <= 60 alone
    # takes about 55 s
    ("check_complement", {"n_max": 72, "m_max": 5, "graph_m_max": 12}, 300),
)


def _over_time_limit(signum, frame):
    raise TimeoutError("the check ran past its time limit")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _over_time_limit)
    for name, kwargs, seconds in CI_CHECKS:
        print(name, end=": ", flush=True)
        start = time.perf_counter()
        signal.alarm(seconds)
        count = globals()[name](**kwargs)
        signal.alarm(0)
        print(f"{count} in {time.perf_counter() - start:.1f} s", flush=True)
