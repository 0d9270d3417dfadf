"""Seeded inputs and independent arithmetic for the benchmark workloads.

Nothing here imports circulant_ci: the generators build connection sets
with plain integer arithmetic, and the checks recompute unit orbits
themselves, so a bug in the library cannot hide in them.
"""

from __future__ import annotations

import math
import random

# session: moduli with many divisors and prime-power parts, where keys and
# solving sets are non-trivial
SESSION_MODULI = (32, 48, 64, 72, 96, 128, 144, 192, 216, 243, 256)
SESSION_PER_MODULUS = 9
# oracle: every same-size pair of orbit representatives up to this n ...
ORACLE_EXHAUSTIVE_N = 11
# ... plus a seeded sample of digraph pairs at this n
ORACLE_SAMPLE_N = 12
ORACLE_SAMPLE_SIZE = 200


def divisors(n: int) -> list[int]:
    """Proper divisors of n, ascending (1 included, n excluded)."""
    return [d for d in range(1, n) if n % d == 0]


def unit_list(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def scale(members, u: int, n: int) -> tuple[int, ...]:
    return tuple(sorted(u * x % n for x in members))


def unit_orbit(members, n: int) -> set[tuple[int, ...]]:
    """{u*S : u a unit of Z_n}, each image as a sorted tuple."""
    return {scale(members, u, n) for u in unit_list(n)}


def coset_union(rng: random.Random, n: int, d: int, k: int, extra: bool) -> list[int]:
    """k distinct non-trivial cosets of the subgroup of order d, plus one
    more element when `extra` is set."""
    step = n // d
    shifts = rng.sample(range(1, step), min(k, step - 1))
    members = {(x + h) % n for x in shifts for h in range(0, n, step)}
    if extra:
        members.add(rng.choice([x for x in range(1, n) if x not in members]))
    return sorted(members)


def session_queries(seed: int) -> list[dict]:
    """The session stream: 3 decide_ci queries to 1 isomorphism query.

    Each modulus gets SESSION_PER_MODULUS sets, built as unions of 1-3
    cosets of a subgroup (cycling through every subgroup order), with an
    extra element in 3 of every 10.  Uniformly random sets are almost all
    zero-key and skip every layer worth measuring.

    The coset unions come from a fixed per-modulus stream; the seed picks
    a unit w and uses w*S, picks the unit u of each isomorphism query and
    shuffles the order.  So every seed asks about the same unit-orbit
    classes, which keeps the cost of a stream independent of the seed
    (drawing the classes per seed moved wall_s by about 15%), while the
    sets themselves, the witnesses and the cache-filling order change.
    Each query keeps its place in the unshuffled stream as "slot".
    """
    rng = random.Random(seed)
    queries = []
    for n in SESSION_MODULI:
        base = random.Random(f"session-{n}")
        subgroup_orders = divisors(n)
        units = unit_list(n)
        for j in range(SESSION_PER_MODULUS):
            d = subgroup_orders[j % len(subgroup_orders)]
            s0 = coset_union(base, n, d, 1 + j % 3, j % 10 < 3)
            s = scale(s0, rng.choice(units), n)
            if j % 4 == 3:
                u = rng.choice(units)
                queries.append({"kind": "iso", "n": n, "s": s, "u": u,
                                "t": scale(s, u, n)})
            else:
                queries.append({"kind": "ci", "n": n, "s": s})
    for slot, q in enumerate(queries):
        q["slot"] = slot
    rng.shuffle(queries)
    return queries


def session_warmup(seed: int) -> list[dict]:
    """One untimed decide_ci query per modulus, run before the timed phase."""
    rng = random.Random(f"warmup-{seed}")
    return [
        {"kind": "ci", "n": n, "s": tuple(coset_union(rng, n, divisors(n)[1], 1, False))}
        for n in SESSION_MODULI
    ]


def oracle_sample(pair_count: int, seed: int) -> list[int]:
    """Indices of the sampled n = ORACLE_SAMPLE_N pairs, ascending."""
    k = min(ORACLE_SAMPLE_SIZE, pair_count)
    return sorted(random.Random(seed).sample(range(pair_count), k))
