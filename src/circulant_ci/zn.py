"""Exact arithmetic over Z_n.

Residues are canonical ints in ``range(n)`` and are stored in no other
form.  All functions are pure and all values immutable, so everything here
is safe to share across threads or worker processes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache


class DomainError(ValueError):
    """An argument lies outside the operation's mathematical domain."""


class InternalConsistencyError(RuntimeError):
    """A theory-backed runtime check failed: a bug, not bad input."""


_INT = frozenset((int,))  # the one integer type; bool and float are refused


def _check_modulus(n: int) -> None:
    # Z_n with n >= 2 is the domain of every object in the package
    if type(n) not in _INT:
        raise DomainError("modulus must be an int")
    if n < 2:
        raise DomainError("modulus must be at least 2")


# _make for the records that check in __new__: namedtuple's own _make, which
# _replace calls, builds the tuple directly and would skip the checks
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class Factorization(namedtuple("Factorization", "n parts")):
    """Ordered prime-power decomposition n = p1^t1 * ... * pl^tl.

    Primes ascend strictly; every tuple structure downstream (keys,
    multipliers, CRT idempotents) inherits this order.  ``factorize`` is
    its one statement: the constructor accepts exactly the parts that
    ``factorize(n)`` builds, a tuple of tuples of ints.
    """

    __slots__ = ()
    _make = _checked_make
    _unchecked = classmethod(tuple.__new__)  # for factorize alone

    def __new__(cls, n: int, parts: tuple[tuple[int, int], ...]):
        if parts != factorize(n).parts or not _INT.issuperset(map(type, sum(parts, ()))):
            raise DomainError(f"{parts!r} is not the factorization of {n}")
        return super().__new__(cls, n, parts)

    @property
    def idempotents(self) -> tuple[int, ...]:
        """CRT idempotent per prime power q: 1 mod q and 0 mod n / q."""
        out = []
        for p, t in self.parts:
            q = p**t
            m = self.n // q
            out.append(m * pow(m, -1, q) % self.n)
        return tuple(out)


def _check_record(x: object, cls: type) -> None:
    # the one refusal of a public argument that is not the record it names
    if not isinstance(x, cls):
        raise DomainError(f"this call takes a {cls.__name__}, not {type(x).__name__}")


# Moduli whose factorization and units are kept at once.
MODULUS_CACHE_SIZE = 256


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def factorize(n: int) -> Factorization:
    """Unique ordered factorization by trial division, the one statement
    of it: refuses a modulus that is not an int of at least 2."""
    _check_modulus(n)
    parts = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            t = 0
            while rest % p == 0:
                rest //= p
                t += 1
            parts.append((p, t))
        p += 1 if p == 2 else 2
    if rest > 1:
        parts.append((rest, 1))
    return Factorization._unchecked((n, tuple(parts)))


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def units(n: int) -> tuple[int, ...]:
    """Ascending units of Z_n; multiplication by these realizes Aut(Z_n)."""
    _check_modulus(n)
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)

