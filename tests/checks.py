"""Reusable property-suite implementations.

Shared between the per-module tests and the acceptance run.  Each check
raises AssertionError on the first violation and returns the number of
cases it verified.  Sampling, where a space is too large to exhaust, is
seeded and deterministic.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from circulant_ci.cayley import ConnectionSet, brute_force_isomorphic, build_cayley
from circulant_ci.engine import (
    is_ci,
    is_ci_reduced,
    muzychuk_isomorphic,
    orbit_representatives,
)
from circulant_ci.keys import (
    Key,
    ZnPartition,
    enumerate_keys,
    key_join,
    key_leq,
    key_of_partition,
    key_of_set,
    key_partition,
    refines,
)
from circulant_ci.multipliers import as_permutation, solving_set
from circulant_ci.zn import factorize

SEED = 20250810
PAIR_SAMPLE_LIMIT = 1500
# moduli of the seeded coset-union comparison: many divisors and prime-power
# parts, so the keys are far from zero
COSET_UNION_MODULI = (32, 48, 64, 72, 96, 108, 128, 144, 192, 216, 243, 256)
COSET_UNIONS_PER_MODULUS = 12
PARTITIONS_PER_MODULUS = 6


@lru_cache(maxsize=2)
def _lattice(n: int) -> tuple[tuple[Key, tuple[tuple[int, ...], ...]], ...]:
    # every key of Z_n with the classes of its partition, held here so that
    # the oracle does not depend on the size of the library's partition cache
    return tuple((k, key_partition(k).classes) for k in enumerate_keys(factorize(n)))


def lattice_key_of_partition(pi: ZnPartition) -> Key:
    """Reference for key_of_partition: the join of every key of Z_n whose
    partition refines pi, by walking the whole key lattice."""
    cid = [0] * pi.n
    for i, cls in enumerate(pi.classes):
        for x in cls:
            cid[x] = i
    joined = None
    for k, classes in _lattice(pi.n):
        if all(cid[x] == cid[cls[0]] for cls in classes for x in cls):
            joined = k if joined is None else key_join(joined, k)
    assert joined is not None, pi  # the zero key refines everything
    assert refines(key_partition(joined), pi), pi
    return joined


def _two_classes(n: int, members) -> ZnPartition:
    inside = set(members)
    return ZnPartition.from_classes(n, [inside, [x for x in range(n) if x not in inside]])


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
            assert refines(key_partition(a), key_partition(b)), (n, a, b)
            checked += 1
    return checked


def check_key_round_trip(n_max: int = 72) -> int:
    """key_of_partition inverts key_partition on every key."""
    checked = 0
    for n in range(2, n_max + 1):
        for k in enumerate_keys(factorize(n)):
            assert key_of_partition(key_partition(k)) == k, (n, k)
            checked += 1
    return checked


def check_multiplier_action(n_max: int = 72) -> int:
    """Every solving-set permutation is a bijection carrying key-partition
    classes onto key-partition classes, and SolvingSet.images yields the
    multiplier rows and the class images of the reference permutation
    (as_permutation) in iteration order."""
    checked = 0
    for n in range(2, n_max + 1):
        for k in enumerate_keys(factorize(n)):
            pi = key_partition(k)
            class_of = {}
            for cls in pi.classes:
                for x in cls:
                    class_of[x] = cls
            ss = solving_set(k)
            per_class = [ss.images(cls) for cls in pi.classes]
            for m, *mapped in zip(ss, *per_class, strict=True):
                perm = as_permutation(m)
                assert len(set(perm)) == n, (n, k, m)
                for cls, (rows, fast) in zip(pi.classes, mapped):
                    image = tuple(sorted(perm[x] for x in cls))
                    assert rows == m.rows, (n, k, m, rows)
                    assert fast == image, (n, k, m, cls)
                    assert image == class_of[perm[cls[0]]], (n, k, m, cls)
                checked += 1
    return checked


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


def check_criterion_against_oracle(n_max: int = 10) -> int:
    """Criterion verdict equals brute force on every same-size pair of orbit
    representatives (both modes), and keys agree whenever the oracle says
    isomorphic."""
    checked = 0
    for n in range(2, n_max + 1):
        for mode in ("digraph", "graph"):
            for m in range(1, n):
                reps = orbit_representatives(n, m, mode)
                for amem, bmem in combinations_with_replacement(reps, 2):
                    s = ConnectionSet(n, amem, mode)
                    t = ConnectionSet(n, bmem, mode)
                    verdict = muzychuk_isomorphic(s, t).isomorphic
                    oracle = brute_force_isomorphic(build_cayley(s), build_cayley(t))
                    assert verdict == oracle, (n, mode, amem, bmem)
                    if oracle:
                        assert key_of_set(s) == key_of_set(t), (n, mode, amem, bmem)
                    checked += 1
    return checked


def check_key_against_lattice(n_max: int = 16, partition_n_max: int = 72) -> int:
    """key_of_set equals the lattice join on every digraph subset for
    n <= n_max and on seeded coset unions up to n = 256, and
    key_of_partition equals it on seeded multi-class partitions for
    n <= partition_n_max: coarsenings of the partitions of random non-zero
    keys (where Z_n has one) and uniformly random colourings."""
    checked = 0
    for n in range(2, n_max + 1):
        for size in range(1, n):
            for members in combinations(range(1, n), size):
                expected = lattice_key_of_partition(_two_classes(n, members))
                assert key_of_set(ConnectionSet(n, members)) == expected, (n, members)
                checked += 1
    rng = random.Random(SEED)
    for n in COSET_UNION_MODULI:
        orders = [d for d in range(1, n) if n % d == 0]
        for _ in range(COSET_UNIONS_PER_MODULUS):
            members = set()
            for _ in range(rng.randint(1, 3)):  # cosets of up to three subgroups
                step = n // rng.choice(orders)
                for shift in rng.sample(range(1, step), min(step - 1, rng.randint(1, 3))):
                    members.update(range(shift, n + shift, step))
            members = {x % n for x in members} - {0}
            if rng.random() < 0.3:
                members.add(rng.randrange(1, n))
            s = ConnectionSet(n, tuple(sorted(members)))
            expected = lattice_key_of_partition(_two_classes(n, s.members))
            assert key_of_set(s) == expected, (n, s.members)
            checked += 1
    for n in range(2, partition_n_max + 1):
        keys = enumerate_keys(factorize(n))
        for i in range(PARTITIONS_PER_MODULUS):
            colours = rng.randint(2, 4)
            if i % 2:
                groups = [[] for _ in range(colours)]
                for x in range(n):
                    groups[rng.randrange(colours)].append(x)
            else:
                classes = key_partition(rng.choice(keys[1:] or keys)).classes
                groups = [[] for _ in range(colours)]
                for cls in classes:
                    groups[rng.randrange(colours)].extend(cls)
            pi = ZnPartition.from_classes(n, groups)
            assert key_of_partition(pi) == lattice_key_of_partition(pi), (n, pi)
            checked += 1
    return checked
