"""Unit tests for exact Z_n arithmetic, and for the subgroup and order
exponent references in checks."""

from math import gcd

import pytest

from checks import generated_subgroup, order_exponent, subgroup_of_order
from circulant_ci.cayley import ConnectionSet
from circulant_ci.zn import DomainError, Factorization, factorize, units


def test_factorize_examples():
    assert factorize(72).parts == ((2, 3), (3, 2))
    assert factorize(8).parts == ((2, 3),)
    assert factorize(45).parts == ((3, 2), (5, 1))


def test_factorize_rejects_tiny_moduli():
    for n in (1, 0, -7):
        with pytest.raises(DomainError, match="at least 2"):
            factorize(n)


@pytest.mark.parametrize("n", [8.0, True, "8"], ids=["float", "bool", "str"])
def test_modulus_must_be_an_int(n):
    # the type is refused before the size, so True is no modulus at all
    with pytest.raises(DomainError, match="^modulus must be an int$"):
        Factorization(n, ((2, 3),))
    with pytest.raises(DomainError, match="^modulus must be an int$"):
        ConnectionSet(n, ())


def test_factorization_validates_parts():
    with pytest.raises(DomainError):
        Factorization(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(DomainError):
        Factorization(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(DomainError):
        Factorization(8, ((8, 1),))  # not prime


def test_idempotents_examples():
    assert factorize(36).idempotents == (9, 28)
    assert factorize(8).idempotents == (1,)
    assert factorize(60).idempotents == (45, 40, 36)


def test_idempotents_are_the_crt_basis():
    # e_i = 1 mod q_i and 0 mod every other prime power, so they sum to 1
    for n in range(2, 201):
        f = factorize(n)
        qs = [p**t for p, t in f.parts]
        for e, q in zip(f.idempotents, qs):
            assert 0 <= e < n
            assert [e % r for r in qs] == [int(r == q) for r in qs]
        assert sum(f.idempotents) % n == 1


def test_order_exponent_matches_element_order():
    for p, t in ((2, 4), (3, 3), (5, 2), (7, 1)):
        q = p**t
        for x in range(q):
            assert p ** order_exponent(x, p, t) == q // gcd(x, q)


def test_units_examples():
    assert units(8) == (1, 3, 5, 7)
    assert units(9) == (1, 2, 4, 5, 7, 8)
    assert units(2) == (1,)


def test_units_count_is_totient():
    # independent formula: phi(n) = prod over parts of p^(t-1) (p-1)
    for n in range(2, 101):
        phi = 1
        for p, t in factorize(n).parts:
            phi *= p ** (t - 1) * (p - 1)
        assert len(units(n)) == phi


def test_subgroup_of_order_examples():
    assert subgroup_of_order(9, 3) == (0, 3, 6)
    assert subgroup_of_order(17, 1) == (0,)
    assert subgroup_of_order(36, 6) == (0, 6, 12, 18, 24, 30)
    with pytest.raises(DomainError):
        subgroup_of_order(8, 3)
    for n, d in ((-4, 2), (1, 1), (0, 1)):
        with pytest.raises(DomainError, match="modulus must be at least 2"):
            subgroup_of_order(n, d)


def test_subgroup_closure():
    for n in range(2, 41):
        for d in range(1, n + 1):
            if n % d:
                continue
            sub = subgroup_of_order(n, d)
            assert len(sub) == d
            members = set(sub)
            assert all((a + b) % n in members for a in sub for b in sub)


def test_generated_subgroup_examples():
    assert generated_subgroup((2, 3), 12) == tuple(range(12))
    assert generated_subgroup((4, 6), 12) == (0, 2, 4, 6, 8, 10)
    assert generated_subgroup((), 9) == (0,)
