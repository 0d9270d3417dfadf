"""Unit tests for genuine multipliers, genuine rows, and solving sets."""

from itertools import combinations
from math import gcd

import pytest

from checks import _prime_power_key_rows, enumerate_keys, multiplier_action_reference
from circulant_ci.cayley import ConnectionSet
from circulant_ci.keys import Key, key_of_set, zero_key
from circulant_ci.multipliers import (
    GenuineMultiplier,
    _genuine_rows,
    as_permutation,
    solving_set,
)
from circulant_ci.zn import DomainError, factorize


def test_apply_prime_example():
    assert multiplier_action_reference(((1, 1, 3),), 8)[5] == 7


def test_all_ones_is_identity():
    for p, t in ((2, 3), (3, 2), (5, 1)):
        q = p**t
        row = (1,) * t
        assert multiplier_action_reference((row,), q) == tuple(range(q))


def test_prime_square_action_formula():
    # x0 + x1 p maps to m2 x0 + m1 x1 p, for every multiplier of Z_{p^2}
    for p in (2, 3, 5):
        q = p * p
        coprime = [m for m in range(1, q) if m % p]
        for m1 in coprime:
            for m2 in coprime:
                expected = tuple(
                    (m2 * (x % p) + m1 * (x // p) * p) % q for x in range(q)
                )
                assert multiplier_action_reference(((m1, m2),), q) == expected


def _z8_multiplier():
    f8 = factorize(8)
    return GenuineMultiplier(((1, 1, 3),), Key(f8, ((0, 0, 1),)))


def test_apply_multiplier_composite():
    f = factorize(36)
    ones = GenuineMultiplier(((1, 1), (1, 1)), zero_key(f))
    assert as_permutation(ones) == tuple(range(36))
    perm = as_permutation(_z8_multiplier())
    assert {perm[x] for x in (1, 2, 5)} == {2, 3, 7}


def test_zero_key_multipliers_act_as_units():
    z = zero_key(factorize(9))
    for m in solving_set(z):
        u = m.rows[0][-1] % 9  # the last entry determines the unit
        assert as_permutation(m) == tuple(u * x % 9 for x in range(9))


def test_generalized_multiplier_validation():
    f9 = factorize(9)
    z9 = zero_key(f9)
    with pytest.raises(DomainError, match="genuine range"):
        GenuineMultiplier(((3, 1),), z9)  # 3 is not coprime to 3
    with pytest.raises(DomainError):
        GenuineMultiplier(((1,),), z9)  # wrong row length
    with pytest.raises(DomainError, match="tuple"):
        GenuineMultiplier(([1, 1],), z9)  # a list row would be unhashable
    with pytest.raises(DomainError, match="per prime power"):
        GenuineMultiplier(((1, 1), (1,)), z9)  # one row too many


def test_genuine_rows_examples():
    assert _genuine_rows((0, 1), 3, 2) == (
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    )
    assert _genuine_rows((0, 0, 1), 2, 3) == (
        (1, 1, 1),
        (1, 1, 3),
        (1, 3, 1),
        (1, 3, 3),
    )
    assert _genuine_rows((0,), 5, 1) == ((1,), (2,), (3,), (4,))


def test_genuine_rows_are_sorted():
    # GenuineMultiplier finds a row by binary search, so the genuine rows of
    # every key row must come in strictly increasing lexicographic order;
    # 705 key rows, up to 2^7, 3^5, 5^3 and 7^3
    checked = 0
    for p, t_max in ((2, 7), (3, 5), (5, 3), (7, 3)):
        for t in range(1, t_max + 1):
            for krow in _prime_power_key_rows(t):
                rows = _genuine_rows(krow, p, t)
                assert all(a < b for a, b in zip(rows, rows[1:])), (p, t, krow)
                checked += 1
    assert checked == 705


def test_genuine_validation():
    f8 = factorize(8)
    k8 = Key(f8, ((0, 0, 1),))
    with pytest.raises(DomainError, match="genuine range"):
        GenuineMultiplier(((1, 1, 5),), k8)  # 5 > 2^(3-1) - 1
    f9 = factorize(9)
    k9 = Key(f9, ((0, 0),))
    with pytest.raises(DomainError, match="congruence"):
        GenuineMultiplier(((1, 2),), k9)  # 2 != 1 (mod 3)
    GenuineMultiplier(((1, 4),), k9)  # 4 = 1 (mod 3) is fine


def test_solving_set_sizes_and_order():
    f9 = factorize(9)
    assert len(solving_set(zero_key(f9))) == 6
    assert len(solving_set(Key(f9, ((0, 1),)))) == 4
    ss = solving_set(Key(factorize(8), ((0, 0, 1),)))
    assert [m.rows for m in ss] == [
        ((1, 1, 1),),
        ((1, 1, 3),),
        ((1, 3, 1),),
        ((1, 3, 3),),
    ]
    # iteration is repeatable
    assert [m.rows for m in ss] == [m.rows for m in ss]


def test_solving_set_is_per_prime_product():
    f72 = factorize(72)
    k = Key(f72, ((0, 0, 1), (0, 1)))
    expected = len(_genuine_rows((0, 0, 1), 2, 3)) * len(_genuine_rows((0, 1), 3, 2))
    assert len(solving_set(k)) == expected


def test_key01_solving_set_action():
    k = Key(factorize(9), ((0, 1),))
    perms = {as_permutation(m) for m in solving_set(k)}
    expected = {
        tuple((m2 * (x % 3) + m1 * (x // 3) * 3) % 9 for x in range(9))
        for m1 in (1, 2)
        for m2 in (1, 2)
    }
    assert perms == expected


def test_order_preservation():
    for q in (4, 8, 16, 9, 27, 25, 49):
        f = factorize(q)
        for k in enumerate_keys(f):
            for m in solving_set(k):
                perm = as_permutation(m)
                for x in range(q):
                    assert q // gcd(perm[x], q) == q // gcd(x, q)


def test_key_preservation_exhaustive_small_n():
    # images under the solving set of k(S) never change the key, n <= 16
    for n in range(2, 17):
        key_cache = {}
        perm_cache = {}

        def key_of(members, n=n, cache=key_cache):
            if members not in cache:
                cache[members] = key_of_set(ConnectionSet(n, members))
            return cache[members]

        def perms_for(k, cache=perm_cache):
            if k not in cache:
                cache[k] = tuple(as_permutation(m) for m in solving_set(k))
            return cache[k]

        for size in range(1, n):
            for members in combinations(range(1, n), size):
                k = key_of(members)
                for perm in perms_for(k):
                    image = tuple(sorted(perm[x] for x in members))
                    assert key_of(image) == k, (n, members, image)


def test_scan_takes_unions_of_classes_only():
    # key (0, 1) of Z_9: the classes are {0}, {3}, {6}, {1, 4, 7}, {2, 5, 8};
    # the scan maps a class by one unit per gcd layer, which is its image
    # only for whole classes
    k = Key(factorize(9), ((0, 1),))
    ss = solving_set(k)
    part = ConnectionSet(9, (1, 4))
    with pytest.raises(DomainError, match="union of the key's classes"):
        ss.images(part)
    with pytest.raises(DomainError, match="union of the key's classes"):
        ss.first_into(part, ConnectionSet(9, (2, 5)))
    accepted = ConnectionSet(9, (1, 4, 7))
    expected = [
        tuple(sorted(multiplier_action_reference(m.rows, 9)[x] for x in accepted.members))
        for m in ss
    ]
    assert [image for _, image in ss.images(accepted)] == expected
    assert expected == [(1, 4, 7), (2, 5, 8)] * 2
    assert ss.first_into(accepted, ConnectionSet(9, (2, 5, 8))) == (((1, 2),), (2, 5, 8))


def test_scan_checks_a_class_by_one_step_at_two_primes():
    # key ((0, 1), (0, 1)) of Z_36: a unit x has order 4 * 9, and its class
    # is x + H with H of order 2 * 3, generated by 6; (1, 13, 25) is closed
    # under +12, which generates the part of order 3, but not under +18,
    # the part of order 2, so it is no union of classes
    k = Key(factorize(36), ((0, 1), (0, 1)))
    ss = solving_set(k)
    part = ConnectionSet(36, (1, 13, 25))
    with pytest.raises(DomainError, match="union of the key's classes"):
        ss.images(part)
    with pytest.raises(DomainError, match="union of the key's classes"):
        ss.first_into(part, ConnectionSet(36, (5, 17, 29)))
    whole = ConnectionSet(36, (1, 7, 13, 19, 25, 31))
    expected = [
        tuple(sorted(multiplier_action_reference(m.rows, 36)[x] for x in whole.members))
        for m in ss
    ]
    assert [image for _, image in ss.images(whole)] == expected


# (members, target) of a scan of Z_8 under the key of (1, 2, 5), with one
# residue outside 1..7: a negative target, a target past the end of the
# table, and a member past n.  The scan takes connection sets, so each is
# refused when its set is built, before any scan
OUTSIDE_Z8 = {
    "negative-target": ((1, 2, 5), (-6, -1, 3)),
    "target-past-n": ((1, 2, 5), (1, 2, 9)),
    "member-past-n": ((1, 2, 5, 13), (1, 2, 5)),
}


@pytest.mark.parametrize("case", OUTSIDE_Z8)
def test_scan_refuses_residues_outside_z_n(case):
    members, target = OUTSIDE_Z8[case]
    ss = solving_set(key_of_set(ConnectionSet(8, (1, 2, 5))))
    with pytest.raises(DomainError, match=r"^connection set members must lie in 1\.\.n-1"):
        ss.first_into(ConnectionSet(8, members), ConnectionSet(8, target))


@pytest.mark.parametrize("members", [(5, 1, 1, 2), (5, 1, 2)], ids=["repeated", "unsorted"])
def test_scan_takes_no_member_tuple(members):
    # repeated or unsorted members would give images that no set has: the
    # scan takes connection sets only, and a connection set refuses these
    # members before any scan
    ss = solving_set(key_of_set(ConnectionSet(8, (1, 2, 5))))
    with pytest.raises(DomainError, match="takes a ConnectionSet, not tuple"):
        ss.images(members)
    with pytest.raises(DomainError, match="takes a ConnectionSet, not tuple"):
        ss.first_into(members, ConnectionSet(8, (1, 2, 5)))
    with pytest.raises(DomainError, match="strictly increasing"):
        ConnectionSet(8, members)


def test_scan_refuses_a_set_over_another_z_n():
    # (1, 3) of Z_4 read under a key of Z_8 would be the set {1, 3} of Z_8
    ss = solving_set(key_of_set(ConnectionSet(8, (1, 2, 5))))
    z4 = ConnectionSet(4, (1, 3))
    with pytest.raises(DomainError, match="^connection set is not over the key's Z_n$"):
        ss.images(z4)
    with pytest.raises(DomainError, match="^connection set is not over the key's Z_n$"):
        ss.first_into(z4, z4)


def test_first_into_refuses_a_target_over_another_z_n():
    ss = solving_set(key_of_set(ConnectionSet(8, (1, 2, 5))))
    with pytest.raises(DomainError, match="live over different Z_n"):
        ss.first_into(ConnectionSet(8, (1, 2, 5)), ConnectionSet(16, (1, 2, 5)))
