"""Unit tests for keys, key partitions, and keys of sets, and for the key
lattice and almost zero key references in checks."""

import math
from types import SimpleNamespace

import pytest

from checks import (
    _prime_power_key_rows,
    almost_zero_key,
    enumerate_keys,
    key_join,
    key_leq,
    refines,
)
from circulant_ci.cayley import ConnectionSet
from circulant_ci.keys import Key, key_of_set, key_partition, zero_key
from circulant_ci.zn import DomainError, Factorization, factorize, units


def _key(n, *rows):
    return Key(factorize(n), tuple(tuple(r) for r in rows))


def test_zero_key():
    assert zero_key(factorize(8)).rows == ((0, 0, 0),)
    assert zero_key(factorize(36)).rows == ((0, 0), (0, 0))
    assert zero_key(factorize(5)).rows == ((0,),)


def test_almost_zero_key():
    assert almost_zero_key(factorize(36)).rows == ((0, 1), (0, 0))
    assert almost_zero_key(factorize(4)).rows == ((0, 1),)
    with pytest.raises(DomainError, match="4 \\(mod 8\\)"):
        almost_zero_key(factorize(8))


def test_key_invariants_enforced():
    with pytest.raises(DomainError):
        _key(8, (0, 0, 3))  # k_j < j violated
    with pytest.raises(DomainError):
        _key(8, (0, 1, 0))  # must be nondecreasing
    with pytest.raises(DomainError):
        _key(8, (0, 1))  # wrong row length
    with pytest.raises(DomainError, match="tuple"):
        Key(factorize(8), ([0, 0, 1],))  # a list row would be unhashable
    with pytest.raises(DomainError, match="per prime power"):
        Key(factorize(72), ((0, 0, 1),))  # zip would drop the row of 9


def test_enumerate_prime_power_rows():
    assert _prime_power_key_rows(3) == (
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 1),
        (0, 1, 2),
    )
    assert _prime_power_key_rows(1) == ((0,),)
    assert _prime_power_key_rows(2) == ((0, 0), (0, 1))


def test_prime_power_count_is_catalan():
    for t in range(1, 7):
        catalan = math.comb(2 * t, t) // (t + 1)
        assert len(_prime_power_key_rows(t)) == catalan


def test_enumerate_keys_sizes():
    assert len(enumerate_keys(factorize(36))) == 4
    assert len(enumerate_keys(factorize(30))) == 1
    assert len(enumerate_keys(factorize(8))) == 5


def test_lattice_ops():
    a = _key(8, (0, 0, 1))
    b = _key(8, (0, 1, 1))
    assert key_join(a, b).rows == ((0, 1, 1),)
    z = zero_key(factorize(8))
    assert key_join(a, z) == a
    assert key_leq(z, a)
    assert key_leq(a, _key(8, (0, 1, 2)))
    assert not key_leq(b, a)


def test_lattice_mismatch_error():
    with pytest.raises(DomainError):
        key_join(_key(8, (0, 0, 1)), _key(9, (0, 1)))


def test_lattice_closure():
    for n in (8, 16, 36, 72):
        keys = enumerate_keys(factorize(n))
        for a in keys:
            for b in keys:
                key_join(a, b)  # the constructor validates the invariants


def test_key_partition_prime_power_examples():
    assert key_partition(_key(9, (0, 1))) == (
        (0,),
        (1, 4, 7),
        (2, 5, 8),
        (3,),
        (6,),
    )
    assert key_partition(_key(25, (0, 0))) == tuple((x,) for x in range(25))
    assert key_partition(_key(8, (0, 0, 1))) == (
        (0,),
        (1, 5),
        (2,),
        (3, 7),
        (4,),
        (6,),
    )
    with pytest.raises(DomainError, match="not prime"):
        Factorization(16, ((4, 2),))


def test_key_partition_product():
    f = factorize(36)
    assert key_partition(zero_key(f)) == tuple((x,) for x in range(36))
    pi = key_partition(Key(f, ((0, 1), (0, 0))))
    assert len(pi) == 27
    assert sorted(len(c) for c in pi) == [1] * 18 + [2] * 9
    # the classes are the CRT products of the classes of the one-row keys
    four = {x: c for c in key_partition(_key(4, (0, 1))) for x in c}
    nine = {x: c for c in key_partition(_key(9, (0, 0))) for x in c}
    groups = {}
    for x in range(36):
        groups.setdefault((four[x % 4], nine[x % 9]), []).append(x)
    assert pi == tuple(sorted(map(tuple, groups.values())))


def test_refines():
    singles = tuple((x,) for x in range(8))
    whole = (tuple(range(8)),)
    two = ((0, 3, 4, 6, 7), (1, 2, 5))
    assert refines(8, singles, two)
    assert refines(8, two, whole)
    assert not refines(8, key_partition(_key(8, (0, 1, 1))), two)  # {2,6} straddles
    with pytest.raises(DomainError):
        refines(8, singles, (tuple(range(9)),))


def test_key_of_set_examples():
    assert key_of_set(ConnectionSet(8, (1, 2, 5))).rows == ((0, 0, 1),)
    assert key_of_set(ConnectionSet(9, (1, 4, 7))).rows == ((0, 1),)
    with pytest.raises(DomainError, match="empty"):
        key_of_set(ConnectionSet(9, ()))
    # n and members are checked by the ConnectionSet constructor only
    with pytest.raises(DomainError, match="ConnectionSet"):
        key_of_set(SimpleNamespace(n=8, members=(1, 2, 5)))
    # {0} apart from everything is refined by every key partition, so the
    # key of Z_n minus {0} is the largest one, row (0, 1, ..., t-1) per prime
    for n in (8, 36, 72):
        f = factorize(n)
        largest = Key(f, tuple(tuple(range(t)) for _, t in f.parts))
        assert key_of_set(ConnectionSet(n, tuple(range(1, n)))) == largest


def test_unit_singletons_have_zero_key():
    # the class of a unit u is P_k + u with p^k elements, so only the zero
    # key keeps {u} a class of its own
    for n in range(2, 31):
        f = factorize(n)
        for u in units(n):
            assert key_of_set(ConnectionSet(n, (u,))) == zero_key(f)


def test_partition_class_stats_are_unit_invariant():
    for n in (8, 9, 16, 36):
        for k in enumerate_keys(factorize(n)):
            pi = key_partition(k)
            stats = sorted(len(c) for c in pi)
            for u in units(n):
                mult = [tuple(sorted(u * x % n for x in cls)) for cls in pi]
                assert sorted(len(c) for c in mult) == stats
                # in fact units permute the classes themselves
                assert set(mult) == set(pi)

