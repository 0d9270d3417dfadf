"""Keys of Z_n, the partitions they induce, and the key of a connection set.

A key assigns to every prime power p^t dividing n exactly a nondecreasing
tuple (k_1, ..., k_t) with 0 <= k_j < j.  Each key k induces a partition of
Z_{p^t} whose nonzero classes are cosets P_{k_a} + x, where p^a is the order
of x and P_j is the subgroup of order p^j.  For general n the class of x is
x + H, where H sums the subgroups P_k that the per-prime rows give x; that
is the CRT product of the per-prime classes.  Larger keys give coarser
partitions.

The key of a subset S of Z_n is the join of all keys whose partition
refines {S, complement}: the coarsest key partition of which S is a union
of classes.  It is the invariant driving the circulant isomorphism
criterion.

It is not computed by walking the lattice.  The refining keys form a
down-set (a smaller key refines more finely) closed under join (the class
of x under the join of k and k' is x + P_{k_a} + P_{k'_a}, reached by steps
of either), so the join of all of them is itself refining, and its entry
(p, j) is at least v exactly when the smallest key with v at positions
j..t of row p refines {S, complement}.  That key moves only the x whose
p-part has order exponent a >= j, and moves them within x + P_v, where
P_v, the subgroup of order p^v, is generated by n / p^v.  So the entry is
the largest v < j passing a stabilizer test: x + n / p^v lies in S for
every such x in S.  Only the members of S are tested: the translation
permutes the residues with a >= j, so keeping their part of S inside S
keeps their part of the complement inside the complement too.  The test
weakens as v falls and as j rises, so each row is found by stepping v up
while it holds, and no key partition is built.

Each test is one integer operation on the mask M of S (bit x per member x),
built only when some t >= 2, so a squarefree n builds none.  Exponent a >= j
means p^(t-j+1) does not divide x, so the members moved at level j are M
minus the multiples of p^(t-j+1), a mask of doubling shifts, and the test
reads moved & ~_less(M, step) == 0, _less being the one rotation: O(t n / 64)
word operations, whatever |S|.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .cayley import ConnectionSet
from .zn import (
    _INT, DomainError, Factorization, InternalConsistencyError, _check_record, _checked_make,
    factorize,
)


def _check_rows(rows, parts: tuple[tuple[int, int], ...], noun: str) -> None:
    # the shape shared by keys and multipliers: one tuple row of ints per prime power
    if not isinstance(rows, tuple) or not all(isinstance(row, tuple) for row in rows):
        raise DomainError(f"{noun} rows must be a tuple of tuples")
    if not _INT.issuperset(map(type, sum(rows, ()))):
        raise DomainError(f"{noun} entries must be ints")
    if len(rows) != len(parts):
        raise DomainError(f"one {noun} row per prime power required")


def _check_key_row(row: tuple[int, ...], t: int) -> None:
    if len(row) != t:
        raise DomainError(f"key row must have length {t}")
    for j, k in enumerate(row, start=1):
        if not 0 <= k < j:
            raise DomainError("key entries must satisfy 0 <= k_j < j")
    if any(a > b for a, b in zip(row, row[1:])):
        raise DomainError("key rows must be nondecreasing")


class Key(namedtuple("Key", "factorization rows")):
    """A point of the key lattice, one row per prime power of n."""

    __slots__ = ()
    _make = _checked_make
    _unchecked = classmethod(tuple.__new__)  # for (f, rows) valid by construction

    def __new__(cls, factorization: Factorization, rows: tuple[tuple[int, ...], ...]):
        _check_record(factorization, Factorization)
        parts = factorization.parts
        _check_rows(rows, parts, "key")
        for (_, t), row in zip(parts, rows):
            _check_key_row(row, t)
        return super().__new__(cls, factorization, rows)

    def as_lists(self) -> list[list[int]]:
        """Serialization form: nested integer arrays in ascending-prime order."""
        return [list(row) for row in self.rows]


def zero_key(f: Factorization) -> Key:
    """The all-zero key, bottom of the lattice."""
    _check_record(f, Factorization)
    return Key(f, tuple((0,) * t for _, t in f.parts))


# Key partitions kept at once, for `key --partition`; key_of_set uses none.
KEY_CACHE_SIZE = 512


def _class_picks(order: int, k: Key) -> tuple[int, list[tuple[int, int]]]:
    """The one statement of a class: the elements of additive order `order`
    share the order exponent a of their p-part at every prime p^t, so
    under k they share the subgroup H with x + H the class of x.  Returns
    |H|, the product of p^k over the primes, k the row-p entry at a
    (k = 0 where a = 0, so {0} is a class of its own), and one pick
    (i, a - 1) per prime where a > 0: p's row index and the entry read.
    """
    size, picks = 1, []
    for i, ((p, _), row) in enumerate(zip(k.factorization.parts, k.rows)):
        a = 0  # the p-adic valuation of order
        while order % p == 0:
            order //= p
            a += 1
        if a:
            size *= p ** row[a - 1]
            picks.append((i, a - 1))
    return size, picks


# typed, so a bare tuple equal to a cached Key misses the cache and is refused
@lru_cache(maxsize=KEY_CACHE_SIZE, typed=True)
def key_partition(k: Key) -> tuple[tuple[int, ...], ...]:
    """The partition of Z_n induced by a key, as sorted classes ordered by
    least element.

    The class of x is the coset x + H of ``_class_picks``, generated by
    n / |H|; its members share x's order, so x is its least member exactly
    when x < n / |H|.  This is the CRT product of the per-prime classes.
    """
    _check_record(k, Key)
    n = k.factorization.n
    classes = []
    for x in range(n):
        step = n // _class_picks(n // math.gcd(x, n), k)[0]
        if x < step:
            classes.append(tuple(range(x, n, step)))
    return tuple(classes)


def _multiples(d: int, n: int, full: int) -> int:
    # the mask of the multiples of d in Z_n (d | n), by doubling shifts
    mask, span = 1, d
    while span < n:
        mask |= mask << span
        span *= 2
    return mask & full


def _less(mask: int, step: int, n: int, full: int) -> int:
    # the mask of S - step = {x : x + step in S}, for S the mask of Z_n
    return (mask >> step) | ((mask << (n - step)) & full)


def key_of_set(s: ConnectionSet) -> Key:
    """The coarsest key whose partition refines {S, Z_n minus S}, found row
    by row by the stabilizer test on the members of S (see the module
    docstring), so its rows are valid and Key._unchecked builds it.

    Takes a ConnectionSet, whose constructor has checked n and the members;
    S must be non-empty (it excludes 0), so the complement is never empty.
    The result is checked against its definition: for every exponent class
    a (the members moved at level a, not at a + 1) whose entry k is
    non-zero, x + n / p^k lies in S for each x of the class, which is
    exactly "the key partition refines {S, complement}".
    """
    _check_record(s, ConnectionSet)
    members, n = s.members, s.n
    if not members:
        raise DomainError("key of the empty set is undefined")
    f = factorize(n)
    mask = None
    rows = []
    for p, t in f.parts:
        if t == 1:
            # 0 <= k_1 < 1: the row of p is (0,), and no member moves
            rows.append((0,))
            continue
        if mask is None:
            full, digits = (1 << n) - 1, bytearray(b"0") * n
            for x in members:
                digits[n - 1 - x] = 49  # the digit 1, at bit x
            mask = int(digits, 2)
        moved = [mask & ~_multiples(p ** (t + 1 - j), n, full) for j in range(2, t + 1)]
        row, v = [0], 0  # moved[j - 2] is moved at level j
        for j, here in enumerate(moved, start=2):
            while v + 1 < j and not here & ~_less(mask, n // p ** (v + 1), n, full):
                v += 1
            row.append(v)
        for k, here, above in zip(row[1:], moved, moved[1:] + [0]):
            if k and here & ~above & ~_less(mask, n // p**k, n, full):
                raise InternalConsistencyError("key partition does not refine {S, complement}")
        rows.append(tuple(row))
    return Key._unchecked((f, tuple(rows)))
