"""Genuine multipliers, their permutations, and solving sets.

A multiplier row (m_1, ..., m_t) of Z_{p^t} needs every entry coprime to p
and acts through the p-adic digits: x = sum x_i p^i maps to
sum m_{t-i} x_i p^i (mod p^t).  Rows congruent entrywise mod p^i induce the
same permutation, so each key has a normal form, the *genuine* rows: entry
m_i ranges over [1, p^(i - k_i) - 1] and consecutive entries satisfy
m_{i+1} = m_i (mod p^(i - k_{i+1})).

The solving set of a key combines the per-prime genuine rows across the
ascending primes of n; its induced permutations are exactly what the
isomorphism criterion scans.  It holds nothing but those rows: the images
the criterion scans are computed lazily, one multiplier at a time as the
scan reaches it, and no table over Z_{p^t} or Z_n is built.

The scan maps classes, one unit per gcd layer.  The members x of the
layer D_d = {x : gcd(x, n) = d} share the order exponent a_p of their
p-part, so they share the subgroup H_d with x + H_d the class of x under
a key k (see keys).  Lemma: a genuine multiplier f with rows m maps
x + H_d onto u x + H_d, for any unit u with u = m_{a_p} (mod p^t) at every
p with a_p > 0.  Proof sketch: the digit x_i p^i of x's p-part,
i >= t - a_p, picks up m_j with j = t - i <= a_p, and the congruence chain
with the nondecreasing key row gives m_j = m_{a_p} (mod p^(j - k_{a_p})),
so f(x) - u x is a multiple of p^(t - k_{a_p}) at every p, in H_d; as
u H_d = H_d and f is a bijection, f(x + H_d) = u x + H_d.  So f(S) is the
union of the u_d (S & D_d) for a union S of classes.  ``_layers`` groups
the members by layer once per scan, and ``_mapped_into`` maps each by one
multiplication and drops a multiplier at its first image outside a given
set of residues, which is exact as u x lies in f(S): ``first_into`` gives
the target set, so a miss costs no full image, and ``images`` gives all of
Z_n and sorts each image.  ``as_permutation`` needs the element action,
``_digit_terms``, as f(x) and u x differ by a member of H_d.

Corollary: with q_d = n / (d |H_d|), a unit w maps x + H_d onto u_d x + H_d
iff w = u_d (mod q_d), so f(S) = wS if w = u_d (mod q_d) on every layer of
S.  By the CRT such a w, prime to n, exists iff u_a = u_b (mod gcd(q_a, q_b))
for each pair of layers, which holds when that gcd is 1 or 2 (units of an
even modulus are odd).  So the CI scan, ``SolvingSet._non_unit_images``,
maps S only under the multipliers that break a pair, and none for S in one
gcd layer.

Corollary: a multiplier keeps every gcd layer.  It maps x + H_d onto
u_d x + H_d, whose members share x's order, so f(S & D_d) = f(S) & D_d.
So f(S) = T needs S and T to have equally many members in each layer, the
same sorted gcd(x, n), and ``muzychuk_isomorphic`` refutes a pair whose
lists differ before any scan.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import combinations, product
from operator import mul

from .cayley import ConnectionSet, _check_pair
from .keys import Key, _check_rows, _class_picks
from .zn import DomainError, Factorization, _check_record, _checked_make


class GenuineMultiplier(namedtuple("GenuineMultiplier", "rows key")):
    """A generalized multiplier in the normal form of its key.

    One row per prime power of n, each one of the genuine rows that
    ``_genuine_rows`` generates for the key's row: that generator is the
    only statement of the normal form.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, rows: tuple[tuple[int, ...], ...], key: Key):
        # imported here, so the CLI's cold start does not load it
        from bisect import bisect_left

        _check_record(key, Key)
        parts = key.factorization.parts
        _check_rows(rows, parts, "multiplier")
        for (p, t), row, krow in zip(parts, rows, key.rows):
            # the genuine rows come in lexicographic order, so a binary
            # search tests membership
            genuine = _genuine_rows(krow, p, t)
            i = bisect_left(genuine, row)
            if i == len(genuine) or genuine[i] != row:
                raise DomainError(
                    f"multiplier row {row} for {p}^{t} lies outside its genuine "
                    "range or breaks the congruence chain"
                )
        return super().__new__(cls, rows, key)

    def as_lists(self) -> list[list[int]]:
        """Serialization form mirroring the key serialization."""
        return [list(row) for row in self.rows]


def _digit_terms(members: Sequence[int], f: Factorization) -> list[tuple[int, ...]]:
    """The one statement of the element action, as terms per member x.

    Row m of p^t acts on x through the digits x_i of x mod p^t, as
    sum m_{t-i} x_i p^i times the CRT idempotent e of p^t; the image of x
    is the sum of these over the prime powers of n, mod n.  So a
    multiplier's image of x is its flattened row entries times the terms
    x_i p^i e of x, summed mod n.
    """
    # (p, p^i, e) of the term x_i p^i e each row entry scales, in entry
    # order: entry a of the row of p^t scales i = t - 1 - a
    places = [
        (p, p**i, e)
        for (p, t), e in zip(f.parts, f.idempotents)
        for i in reversed(range(t))
    ]
    # one column of terms per place, zipped into one tuple per member
    return list(zip(*[[x // q % p * q * e for x in members] for p, q, e in places]))


def _layers(
    s: ConnectionSet, k: Key, own: bool = False
) -> list[tuple[list[int], list[tuple[int, int, int]], int]]:
    """The one statement of the class action: the members grouped by their
    gcd d with n, each layer with one pick (i, a - 1, e) per prime p^t at
    which its order exponent a is non-zero: the ``_class_picks`` of its
    order, p's row index and the row entry the layer's unit reads, with the
    CRT idempotent e of p^t; and with its class modulus n / (d |H|).  The
    unit of rows m is the sum of m[i][a - 1] * e over the picks, as the
    members' parts at the other primes are 0.

    Refuses a non-ConnectionSet, a set over another Z_n than k's, or no
    union of classes of k: a layer's class subgroup H is cyclic, so
    x + n / |H| must be a member for each member x of a layer with |H| > 1.
    With no such layer, as under the zero key, no member set is built.
    With `own` set, k is key_of_set(S), of which S is a union of classes by
    definition, and the caller has checked S: nothing is refused.
    """
    f = k.factorization
    n = f.n
    if not own:
        _check_record(s, ConnectionSet)
        if s.n != n:
            raise DomainError("connection set is not over the key's Z_n")
    gcd = math.gcd
    by_gcd: dict[int, list[int]] = {}
    for x in s.members:
        d = gcd(x, n)
        if d in by_gcd:
            by_gcd[d].append(x)
        else:
            by_gcd[d] = [x]
    idempotents = f.idempotents
    layers, steps = [], []
    for d, xs in by_gcd.items():
        # the members of the layer have order n / d
        size, picks = _class_picks(n // d, k)
        layers.append((xs, [(i, j, idempotents[i]) for i, j in picks], n // (d * size)))
        if size > 1 and not own:
            steps.append((xs, n // size))
    if steps:
        inside = set(s.members)
        if any((x + step) % n not in inside for xs, step in steps for x in xs):
            raise DomainError("members must be a union of the key's classes")
    return layers


def _mapped_into(
    multipliers: Iterable[tuple[tuple[int, ...], ...]],
    layers: list[tuple[list[int], list[tuple[int, int, int]], int]],
    n: int,
    inside: bytes | bytearray,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int]]]:
    """The one per-multiplier loop: each multiplier's rows, with its image
    of the members of the ``_layers`` given, one unit per layer and one
    multiplication per member, for every multiplier that maps each member
    inside, where ``inside`` is a 0/1 mask over Z_n.  A multiplier is
    dropped at its first image y with inside[y] = 0, and its images are
    computed only when the reader reaches it.
    """
    for rows in multipliers:
        kept = []
        for xs, picks, _ in layers:
            u = 0
            for i, j, e in picks:
                u += rows[i][j] * e
            for x in xs:
                y = u * x % n
                if not inside[y]:
                    break
                kept.append(y)
            else:
                continue
            break
        else:
            yield rows, kept


def as_permutation(m: GenuineMultiplier) -> tuple[int, ...]:
    """The full image table of the induced permutation of Z_n, element by
    element from the ``_digit_terms`` of every residue."""
    _check_record(m, GenuineMultiplier)
    f = m.key.factorization
    entries = sum(m.rows, ())
    terms = _digit_terms(range(f.n), f)
    return tuple(sum(map(mul, entries, xt)) % f.n for xt in terms)


# Genuine-row lists kept at once, one per (key row, p, t).
ROW_CACHE_SIZE = 512


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _genuine_rows(row: tuple[int, ...], p: int, t: int) -> tuple[tuple[int, ...], ...]:
    """All genuine rows for a key row of p^t, in lexicographic order.

    For t = 1 the congruence chain is vacuous and the rows are exactly the
    nonzero residues mod p.
    """
    rows: list[tuple[int, ...]] = [()]
    for a in range(t):
        # entry a + 1 keeps the chain: it strides its range by p^(a - k_{a+1})
        # from entry a's residue mod that step, so it is coprime to p, being
        # congruent mod p to entry a or ranging over [1, p - 1] (step 1)
        step = p ** (a - row[a])
        bound = p ** (a + 1 - row[a])
        rows = [
            r + (m,)
            for r in rows
            for m in range(r[-1] % step if step > 1 else 1, bound, step)
        ]
    return tuple(rows)


class SolvingSet:
    """The genuine multipliers of a key, deterministically ordered.

    Holds only the per-prime genuine rows.  Iteration walks their cartesian
    product in ascending-prime, lexicographic order and is repeatable.
    ``images`` and ``first_into`` map a union of classes of the key through
    the same product in the same order, lazily, by one unit per gcd layer
    of the members (the lemma in the module docstring): no permutation of
    Z_n and no table over Z_{p^t} is built, and a scan that stops early
    computes no image past the multiplier it stops at.
    """

    def __init__(self, key: Key):
        _check_record(key, Key)
        self.key = key
        f = key.factorization
        self._rows = tuple(
            _genuine_rows(row, p, t)
            for (p, t), row in zip(f.parts, key.rows)
        )

    def __len__(self) -> int:
        return math.prod(map(len, self._rows))

    def __iter__(self) -> Iterator[GenuineMultiplier]:
        for rows in product(*self._rows):
            yield GenuineMultiplier(rows, self.key)

    def images(
        self, s: ConnectionSet
    ) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
        """(rows, sorted image of S) per multiplier, in iteration order.

        S must lie over the key's Z_n and be a union of classes of the
        key; ``_layers`` checks and groups its members once per call, at
        the call, and a multiplier's images are computed only when the scan
        reaches it.  Every image lies in Z_n, so no multiplier is dropped.
        """
        n = self.key.factorization.n
        return (
            (rows, tuple(sorted(image)))
            for rows, image in _mapped_into(
                product(*self._rows), _layers(s, self.key), n, b"\1" * n
            )
        )

    def _non_unit_images(
        self, s: ConnectionSet
    ) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
        # (rows, sorted image of S), in iteration order, of the multipliers
        # whose layer units, each computed once, break a pair of the corollary
        layers = _layers(s, self.key)
        n = self.key.factorization.n
        pairs = [
            (a, b, g)
            for (a, (*_, qa)), (b, (*_, qb)) in combinations(enumerate(layers), 2)
            if (g := math.gcd(qa, qb)) > 2
        ]
        for rows in product(*self._rows) if pairs else ():
            units = [sum([rows[i][j] * e for i, j, e in picks]) for _, picks, _ in layers]
            if any((units[a] - units[b]) % g for a, b, g in pairs):
                image = [u * x % n for (xs, _, _), u in zip(layers, units) for x in xs]
                yield rows, tuple(sorted(image))

    def first_into(
        self, s: ConnectionSet, t: ConnectionSet
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
        """(rows, sorted image of S) of the first multiplier, in iteration
        order, that maps every member of S into T, or None.

        S must lie over the key's Z_n and be a union of classes of the key,
        and T over the same Z_n in the same mode.  A multiplier is dropped
        at the first member whose image falls outside T, so a miss costs no
        full image and no sort; that is exact, since each image u * x lies
        in the multiplier's image of S.  The images read are kept, so the
        hit's image is complete when the scan stops.  Each multiplier is a
        bijection of Z_n, so when T is as large as S the hit maps S onto T;
        the caller compares the returned image with T to confirm it.
        """
        _check_pair(s, t)
        return self._first_into(s, t)

    def _first_into(
        self, s: ConnectionSet, t: ConnectionSet, own: bool = False
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
        # first_into past _check_pair; with `own` set, as muzychuk_isomorphic
        # calls it, the key is key_of_set(S) and _layers refuses nothing
        layers = _layers(s, self.key, own)
        n = self.key.factorization.n
        inside = bytearray(n)
        for y in t.members:
            inside[y] = 1
        for rows, image in _mapped_into(product(*self._rows), layers, n, inside):
            return rows, tuple(sorted(image))
        return None


def solving_set(k: Key) -> SolvingSet:
    """P(k): every permutation the criterion needs for sets with key k."""
    return SolvingSet(k)
