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


def is_prime(p: int) -> bool:
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


def _check_modulus(n: int) -> None:
    # Z_n with n >= 2 is the domain of every object in the package
    if type(n) is not int:
        raise DomainError("modulus must be an int")
    if n < 2:
        raise DomainError("modulus must be at least 2")


# _make for the records that check in __new__: namedtuple's own _make, which
# _replace calls, builds the tuple directly and would skip the checks
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class Factorization(namedtuple("Factorization", "n parts")):
    """Ordered prime-power decomposition n = p1^t1 * ... * pl^tl.

    Primes ascend strictly; every tuple structure downstream (keys,
    multipliers, CRT idempotents) inherits this order.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, n: int, parts: tuple[tuple[int, int], ...]):
        _check_modulus(n)
        prod = 1
        prev = 1
        for p, t in parts:
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            if p <= prev:
                raise DomainError("primes must be strictly ascending")
            if t < 1:
                raise DomainError("exponents must be at least 1")
            prev = p
            prod *= p**t
        if prod != n:
            raise DomainError(f"prime powers multiply to {prod}, not {n}")
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


# Moduli whose factorization and units are kept at once.
MODULUS_CACHE_SIZE = 256


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def factorize(n: int) -> Factorization:
    """Unique ordered factorization by trial division; Factorization
    refuses n < 2."""
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
    return Factorization(n, tuple(parts))


@lru_cache(maxsize=MODULUS_CACHE_SIZE)
def units(n: int) -> tuple[int, ...]:
    """Ascending units of Z_n; multiplication by these realizes Aut(Z_n)."""
    _check_modulus(n)
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)

