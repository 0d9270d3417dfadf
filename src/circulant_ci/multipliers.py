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
scan reaches it, from the digits of the members of S alone, and no table
over Z_{p^t} or Z_n is built.  One per-multiplier loop, _mapped_into,
computes each multiplier's images member by member and drops the
multiplier at its first image outside a given set of residues:
``first_into`` gives the target set, so a miss costs no full image, and
``images`` gives all of Z_n and sorts each image.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import product
from operator import mul

from .keys import Key, _check_rows
from .zn import DomainError, Factorization, _checked_make


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
    """The one statement of the multiplier action, as terms per member x.

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


def _mapped_into(
    multipliers: Iterable[tuple[tuple[int, ...], ...]],
    terms: list[tuple[int, ...]],
    n: int,
    inside: bytes | bytearray,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int]]]:
    """The one per-multiplier loop: each multiplier's rows, with its image
    of every member in member order, from the members' ``_digit_terms``,
    for every multiplier that maps each member inside, where ``inside`` is
    a 0/1 mask over Z_n.

    A multiplier is dropped at its first image y with inside[y] = 0, and
    the images of a multiplier are computed only when the reader reaches
    it.
    """
    for rows in multipliers:
        entries = sum(rows, ())
        kept = []
        for xt in terms:
            y = sum(map(mul, entries, xt)) % n
            if not inside[y]:
                break
            kept.append(y)
        else:
            yield rows, kept


def as_permutation(m: GenuineMultiplier) -> tuple[int, ...]:
    """The full image table of the induced permutation of Z_n."""
    f = m.key.factorization
    ((_, image),) = _mapped_into(
        (m.rows,), _digit_terms(range(f.n), f), f.n, b"\1" * f.n
    )
    return tuple(image)


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
    ``images`` maps a member tuple through the same product in the same
    order, lazily, acting on the members' p-adic digits alone: no
    permutation of Z_n and no table over Z_{p^t} is built, and a scan that
    stops early computes no image past the multiplier it stops at.
    """

    def __init__(self, key: Key):
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
        self, members: tuple[int, ...]
    ) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
        """(rows, sorted image of members) per multiplier, in iteration order.

        The terms ``_digit_terms`` states are computed once per call, and a
        multiplier's images only when the scan reaches it.  Every image
        lies in Z_n, so no multiplier is dropped.
        """
        f = self.key.factorization
        for rows, image in _mapped_into(
            product(*self._rows), _digit_terms(members, f), f.n, b"\1" * f.n
        ):
            yield rows, tuple(sorted(image))

    def first_into(
        self, members: tuple[int, ...], target: tuple[int, ...]
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
        """(rows, sorted image of members) of the first multiplier, in
        iteration order, that maps every member into target, or None.

        A multiplier is dropped at the first member whose image falls
        outside target, so a miss costs no full image and no sort.  The
        images read are kept, so the hit's image is complete when the scan
        stops.  Each multiplier is a bijection of Z_n, so when target is as
        large as members the hit maps members onto target; the caller
        compares the returned image with target to confirm it.
        """
        f = self.key.factorization
        inside = bytearray(f.n)
        for y in target:
            inside[y] = 1
        for rows, image in _mapped_into(
            product(*self._rows), _digit_terms(members, f), f.n, inside
        ):
            return rows, tuple(sorted(image))
        return None


def solving_set(k: Key) -> SolvingSet:
    """P(k): every permutation the criterion needs for sets with key k."""
    return SolvingSet(k)
