"""The key lattice of Z_n, key partitions, and keys of partitions and sets.

A key assigns to every prime power p^t dividing n exactly a nondecreasing
tuple (k_1, ..., k_t) with 0 <= k_j < j.  Each key k induces a partition of
Z_{p^t} whose nonzero classes are cosets P_{k_a} + x, where p^a is the order
of x and P_j is the subgroup of order p^j; for general n the classes are CRT
products across the prime powers.  Larger keys give coarser partitions.

The key of an arbitrary partition is the join of all keys whose partition
refines it (the coarsest refining key partition).  The key of a subset S is
the key of the two-class partition {S, complement}; this is the invariant
driving the circulant isomorphism criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable

from .zn import (
    DomainError,
    Factorization,
    InternalConsistencyError,
    factorize,
    is_prime,
    order_exponent,
)


def _check_key_row(row: tuple[int, ...], t: int) -> None:
    if len(row) != t:
        raise DomainError(f"key row must have length {t}")
    for j, k in enumerate(row, start=1):
        if not 0 <= k < j:
            raise DomainError("key entries must satisfy 0 <= k_j < j")
    if any(a > b for a, b in zip(row, row[1:])):
        raise DomainError("key rows must be nondecreasing")


@dataclass(frozen=True)
class Key:
    """A point of the key lattice, one row per prime power of n."""

    factorization: Factorization
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        parts = self.factorization.parts
        if len(self.rows) != len(parts):
            raise DomainError("one key row per prime power required")
        for (_, t), row in zip(parts, self.rows):
            _check_key_row(row, t)

    def as_lists(self) -> list[list[int]]:
        """Serialization form: nested integer arrays in ascending-prime order."""
        return [list(row) for row in self.rows]

    def __str__(self) -> str:
        return str(self.as_lists())


def zero_key(f: Factorization) -> Key:
    """The all-zero key, bottom of the lattice."""
    return Key(f, tuple((0,) * t for _, t in f.parts))


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


def maximal_key(f: Factorization) -> Key:
    """Componentwise largest key: row (0, 1, ..., t-1) per prime power."""
    return Key(f, tuple(tuple(range(t)) for _, t in f.parts))


@lru_cache(maxsize=None)
def _prime_power_key_rows(t: int) -> tuple[tuple[int, ...], ...]:
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


def enumerate_keys_prime_power(p: int, t: int) -> tuple[tuple[int, ...], ...]:
    """All key rows for Z_{p^t} in lexicographic order (Catalan(t) of them)."""
    if not is_prime(p) or t < 1:
        raise DomainError("prime power required")
    return _prime_power_key_rows(t)


@lru_cache(maxsize=None)
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


def key_meet(a: Key, b: Key) -> Key:
    """Componentwise min; always a valid key."""
    _check_same_space(a, b)
    return Key(
        a.factorization,
        tuple(tuple(map(min, ra, rb)) for ra, rb in zip(a.rows, b.rows)),
    )


def key_join(a: Key, b: Key) -> Key:
    """Componentwise max; always a valid key."""
    _check_same_space(a, b)
    return Key(
        a.factorization,
        tuple(tuple(map(max, ra, rb)) for ra, rb in zip(a.rows, b.rows)),
    )


@dataclass(frozen=True)
class ZnPartition:
    """A partition of Z_n in canonical form.

    Classes are sorted tuples, ordered by least element, so structural
    equality is partition equality.
    """

    n: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError("modulus must be at least 2")
        seen = [False] * self.n
        for cls in self.classes:
            if not cls:
                raise DomainError("partition classes must be non-empty")
            if list(cls) != sorted(cls):
                raise DomainError("partition classes must be sorted")
            for x in cls:
                if not 0 <= x < self.n:
                    raise DomainError(f"{x} is not a canonical residue mod {self.n}")
                if seen[x]:
                    raise DomainError("partition classes must be disjoint")
                seen[x] = True
        if not all(seen):
            raise DomainError("partition classes must cover Z_n")
        firsts = [cls[0] for cls in self.classes]
        if firsts != sorted(firsts):
            raise DomainError("classes must be ordered by least element")

    @classmethod
    def from_classes(cls, n: int, groups: Iterable[Iterable[int]]) -> "ZnPartition":
        canon = sorted(
            (tuple(sorted(set(g))) for g in groups if g), key=lambda c: c[0]
        )
        return cls(n, tuple(canon))


def _class_ids(pi: ZnPartition) -> tuple[int, ...]:
    ids = [0] * pi.n
    for i, cls in enumerate(pi.classes):
        for x in cls:
            ids[x] = i
    return tuple(ids)


def key_partition_prime(row: tuple[int, ...], p: int, t: int) -> ZnPartition:
    """The partition of Z_{p^t} induced by a key row.

    {0} is a class of its own; every nonzero x lies in the coset P_k + x
    where k is the row entry at the order exponent of x.
    """
    _check_key_row(tuple(row), t)
    q = p**t
    assigned = [False] * q
    assigned[0] = True
    classes: list[tuple[int, ...]] = [(0,)]
    for x in range(1, q):
        if assigned[x]:
            continue
        k = row[order_exponent(x, p, t) - 1]
        step = q // p**k  # P_k = multiples of p^(t-k), p^k of them
        coset = sorted((x + y) % q for y in range(0, q, step))
        for y in coset:
            assigned[y] = True
        classes.append(tuple(coset))
    return ZnPartition.from_classes(q, classes)


@lru_cache(maxsize=None)
def key_partition(k: Key) -> ZnPartition:
    """The partition of Z_n induced by a key: CRT products of prime classes."""
    f = k.factorization
    per_prime = [
        key_partition_prime(row, p, t) for (p, t), row in zip(f.parts, k.rows)
    ]
    if len(per_prime) == 1:
        return per_prime[0]
    n = f.n
    basis = []
    for q in f.prime_powers:
        m = n // q
        basis.append(m * pow(m, -1, q) % n)
    classes = []
    for combo in product(*(pi.classes for pi in per_prime)):
        classes.append(
            sorted(
                sum(c * e for c, e in zip(tup, basis)) % n
                for tup in product(*combo)
            )
        )
    return ZnPartition.from_classes(n, classes)


def refines(fine: ZnPartition, coarse: ZnPartition) -> bool:
    """True iff every class of `coarse` is a union of classes of `fine`."""
    if fine.n != coarse.n:
        raise DomainError("partitions live over different Z_n")
    cid = _class_ids(coarse)
    for cls in fine.classes:
        first = cid[cls[0]]
        if any(cid[x] != first for x in cls):
            return False
    return True


def key_of_partition(pi: ZnPartition) -> Key:
    """The coarsest key whose partition refines pi.

    Computed as the join of every refining key (the zero key always
    refines, so the join exists); the result is itself checked to refine
    pi, turning the coarsest-refinement theory into a runtime assertion.
    """
    f = factorize(pi.n)
    cid = _class_ids(pi)
    joined: Key | None = None
    for k in enumerate_keys(f):
        sigma = key_partition(k)
        ok = True
        for cls in sigma.classes:
            first = cid[cls[0]]
            if any(cid[x] != first for x in cls):
                ok = False
                break
        if ok:
            joined = k if joined is None else key_join(joined, k)
    if joined is None:  # the zero key refines everything
        raise InternalConsistencyError("no key refines the partition")
    if not refines(key_partition(joined), pi):
        raise InternalConsistencyError(
            "join of refining keys does not refine the partition"
        )
    return joined


def key_of_set(s) -> Key:
    """Key of the two-class partition {S, Z_n minus S}.

    Accepts anything with ``n`` and ``members`` attributes (a connection
    set); S must be non-empty and exclude 0, so the complement is never
    empty and the partition always has exactly two classes.
    """
    members = tuple(s.members)
    n = s.n
    if not members:
        raise DomainError("key of the empty set is undefined")
    inside = set(members)
    complement = tuple(x for x in range(n) if x not in inside)
    return key_of_partition(ZnPartition.from_classes(n, [members, complement]))
