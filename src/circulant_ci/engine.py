"""Isomorphism and CI decisions for circulant (di)graphs.

Two circulants Cay(Z_n, S) and Cay(Z_n, T) are isomorphic exactly when their
keys agree and some solving-set permutation of that key carries S onto T
(Muzychuk's criterion).  A multiplier maps S, a union of classes of its
key, by one unit per gcd layer of S (multipliers states the lemma).  The
isomorphism scan drops a multiplier at the first member of S it maps
outside T; each multiplier is a bijection, so
for |S| = |T| the first one kept is the witness, and sets of different
sizes are settled before any scan.  S is CI iff every image is a unit
multiple of S; the CI scan maps S only under the multipliers whose layer
units no single unit matches (the corollary in multipliers), and lists the
orbit of S as far as it needs, by the multiples uS in ascending u.  The sweeps
keep one set per orbit, the one no multiple uS undercuts, and both take
the multiples from cayley._unit_multiples, the one statement of the unit
action.

decide_ci answers in three stages: the zero key, the single coset, and the
reduction to the generated subgroup <S>.  On top of it sit the exhaustive
valency sweeps, the closed-form classification predicates they are checked
against, and the explicit non-CI witness families.  A sweep makes
one pass per modulus n over the valencies 1, 2, ..., stopping at the first
that fails, and reads the report of every m of n off that pass.  Each
valency visits only the sets whose key is neither zero nor almost zero,
enumerated directly rather than filtered: a set with such a key is CI with
no scan, the key is unit-invariant, and it is non-zero at a prime p exactly
when p^2 | n and the part of S prime to p is a union of cosets of <n/p>
(m_property gives the argument).  The four predicates share one
condition: n is divisible by neither 8 nor p^2 for any odd prime p below a
bound (m for m-DCI, (m-1)/2 for m-CI, none for the group forms), with 8, 9
and 18 as the CI exceptions.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import combinations, groupby, product, repeat

from .cayley import (
    ConnectionSet, _check_mode, _check_pair, _check_set, _unit_multiples, orbit_members
)
from .keys import Key, key_of_set, zero_key
from .multipliers import GenuineMultiplier, solving_set
from .zn import (
    DomainError,
    InternalConsistencyError,
    _check_modulus,
    factorize,
)


class IsoVerdict(
    namedtuple("IsoVerdict", "isomorphic reason witness_multiplier", defaults=(None,))
):
    """Outcome of an isomorphism decision between two connection sets;
    ``reason`` is "key-mismatch", "multiplier-found" or "exhausted"."""

    __slots__ = ()


class CiVerdict(namedtuple("CiVerdict", "is_ci witness fast_path", defaults=(None, "none"))):
    """Outcome of a CI decision; non-CI verdicts carry an isomorphic mate
    outside the unit orbit."""

    __slots__ = ()


class ClassificationReport(
    namedtuple(
        "ClassificationReport",
        "n m mode property_holds counterexamples predicate_value agreement failed_at",
        defaults=(None,),
    )
):
    """One cell of a sweep: exhaustive result next to the closed form.

    ``counterexamples`` holds (S, T) pairs of ConnectionSets.
    ``predicate_value`` and ``agreement`` are None when no closed-form
    predicate applies to this (mode, m) cell.
    """

    __slots__ = ()


class WitnessFamily(namedtuple("WitnessFamily", "family connection_set")):
    """A named explicit non-CI construction."""

    __slots__ = ()


class DisagreementError(RuntimeError):
    """Exhaustive computation contradicted a closed-form predicate."""

    def __init__(self, reports: Iterable[ClassificationReport]):
        self.reports = tuple(reports)
        bad = sum(1 for r in self.reports if r.agreement is False)
        super().__init__(f"{bad} cell(s) disagree with the classification predicates")


def muzychuk_isomorphic(s: ConnectionSet, t: ConnectionSet) -> IsoVerdict:
    """Decide Cay(Z_n, S) isomorphic to Cay(Z_n, T) without any graph search.

    Different keys settle it negatively at once; equal keys reduce the
    question to scanning the solving set for a permutation with S^f = T.
    Sets of different sizes are "exhausted" with no scan.  Otherwise the
    scan drops a multiplier at the first member of S whose image falls
    outside T, and the first multiplier that keeps every member inside T
    maps S onto T, since it is a bijection and |S| = |T|: that is the
    witness, the first hit in enumeration order.  Its full sorted image is
    compared with T once, and a difference raises InternalConsistencyError.
    The empty set has no key, and is isomorphic to itself only, by the
    identity.
    """
    _check_pair(s, t)
    if not (s.members and t.members):
        if s.members or t.members:
            return IsoVerdict(False, "key-mismatch")
        identity = next(iter(solving_set(zero_key(factorize(s.n)))))
        return IsoVerdict(True, "multiplier-found", identity)
    ks = key_of_set(s)
    if ks != key_of_set(t):
        return IsoVerdict(False, "key-mismatch")
    # the scan tests S^f inside T, which is S^f = T only when |S| = |T|
    if len(s.members) != len(t.members):
        return IsoVerdict(False, "exhausted")
    found = solving_set(ks).first_into(s, t)
    if found is None:
        return IsoVerdict(False, "exhausted")
    rows, image = found
    if image != t.members:
        raise InternalConsistencyError("solving-set multiplier maps S into T, not onto T")
    return IsoVerdict(True, "multiplier-found", GenuineMultiplier(rows, ks))


def isomorphism_class(s: ConnectionSet) -> tuple[ConnectionSet, ...]:
    """All images of S under its key's solving set, deduplicated and sorted.

    By the criterion this is the full isomorphism class of Cay(Z_n, S)
    among connection sets.  Every image is checked to carry the same key.
    The empty set is alone in its class.
    """
    _check_set(s)
    if not s.members:
        return (s,)
    k = key_of_set(s)
    images = {image for _, image in solving_set(k).images(s)}
    return tuple(_mate(s, mem, k) for mem in sorted(images))


def _mate(s: ConnectionSet, members: tuple[int, ...], k: Key) -> ConnectionSet:
    # a solving-set image or lifted witness of S, checked to keep S's key k
    t = ConnectionSet(s.n, members, s.mode)
    if key_of_set(t) != k:
        raise InternalConsistencyError(
            "solving-set image or lifted witness changed the key"
        )
    return t


def is_ci(s: ConnectionSet) -> CiVerdict:
    """CI by the scan alone: CI iff every solving-set image stays in the orbit.

    The witness, when one exists, is the first image outside the orbit in
    enumeration order, which makes reports reproducible.
    """
    _check_set(s)
    if not s.members:
        return CiVerdict(True)
    return _is_ci(s, key_of_set(s))


def _is_ci(s: ConnectionSet, k: Key) -> CiVerdict:
    # is_ci for a non-empty S whose key k is already known.  The orbit is
    # listed only as far as the scan needs it; an image still missing when
    # the multiples uS run out is the first image outside the orbit.
    multiples, orbit = _unit_multiples(s.members, s.n), set()
    for _, image in solving_set(k)._non_unit_images(s):
        while image not in orbit:
            multiple = next(multiples, None)
            if multiple is None:
                return CiVerdict(False, _mate(s, image, k))
            orbit.add(multiple)
    return CiVerdict(True)


def is_ci_reduced(s: ConnectionSet) -> CiVerdict:
    """Decide CI inside the generated subgroup and transfer the verdict.

    CI-ness of Cay(Z_n, S) and Cay(<S>, S) coincide, so S is relabeled
    inside <S> (divide by n/n') and decided there; witnesses lift back by
    multiplying, and the lift is checked to keep the key and avoid the
    orbit.
    """
    _check_set(s)
    if not s.members:
        return CiVerdict(True)
    return _is_ci_reduced(s, key_of_set(s))


def _is_ci_reduced(s: ConnectionSet, k: Key) -> CiVerdict:
    # is_ci_reduced for a non-empty S whose key k is already known; <S> is
    # the subgroup of index g.  S/g has the key k with each row cut to its
    # first t' entries, p^t' || n/g: x = gy has the order exponent at p of y,
    # and for v < j <= t' the step n/p^v is g (n/g)/p^v, so x -> x/g maps the
    # tests of S for j <= t' one to one onto those of S/g that is_ci(S/g) runs
    g = math.gcd(s.n, *s.members)
    if g == 1:
        return _is_ci(s, k)
    n_sub = s.n // g
    reduced = ConnectionSet(n_sub, tuple(sorted(x // g for x in s.members)), s.mode)
    verdict = _is_ci(reduced, _reduced_key(k, n_sub))
    if verdict.is_ci:
        return CiVerdict(True, None, "reduction")
    lifted = _mate(s, _lift(verdict.witness.members, s.n, n_sub), k)
    if lifted.members in orbit_members(s):
        raise InternalConsistencyError("lifted witness fell inside the unit orbit")
    return CiVerdict(False, lifted, "reduction")


def _reduced_key(k: Key, n_sub: int) -> Key:
    rows = {p: row for (p, _), row in zip(k.factorization.parts, k.rows)}
    f = factorize(n_sub)
    return Key._unchecked((f, tuple(rows[p][:t] for p, t in f.parts)))


def decide_ci(s: ConnectionSet) -> CiVerdict:
    """CI decision in three stages: the zero key, the single coset, then
    the reduction to the generated subgroup with a full scan.  The key of S
    is computed once and shared by every stage.

    The zero key, and the almost zero key when n = 4 (mod 8), decide CI
    without a scan: their solving sets act as Aut(Z_n), so every isomorphic
    mate is already a unit multiple.  When |S| divides n and every member
    of S has one residue mod n/|S|, S fills a coset of the subgroup of
    order |S|, and 0 not in S keeps it off the subgroup: a single coset
    avoiding 0, which is CI.
    """
    _check_set(s)
    if not s.members:
        return CiVerdict(True)
    k = key_of_set(s)
    # rows are nondecreasing, so a row is zero iff its last entry is; the
    # rows of the prime powers _scans rejects are all (almost) zero
    parts = k.factorization.parts
    if not any(row[-1] for (p, t), row in zip(parts, k.rows) if _scans(p, t)):
        return CiVerdict(True, None, "zero-key")
    size = len(s.members)
    if s.n % size == 0 and len({x % (s.n // size) for x in s.members}) == 1:
        return CiVerdict(True, None, "coset-case-i")
    return _is_ci_reduced(s, k)


def _check_nm(n: int, m: int) -> None:
    _check_modulus(n)
    if not 1 <= m <= n - 1:
        raise DomainError("valency must lie in 1..n-1")


def connection_set_tuples(n: int, m: int, mode: str) -> Iterator[tuple[int, ...]]:
    """All member tuples of size m (graph mode: inverse-closed only)."""
    if mode == "digraph":
        # the blocks are single residues, whose unions combinations lists
        return combinations(range(1, n), m)
    return _unions(_blocks([(x,) for x in range(1, n)], n, mode), m)


def _orbit_least(tuples: Iterable[tuple[int, ...]], n: int) -> tuple[tuple[int, ...], ...]:
    # the tuples that are lexicographically least in their unit orbit,
    # each once, ascending: no multiple uS is smaller (u = 1 yields S
    # itself, at no cost, and all stops at the first smaller multiple).  A
    # unit keeps gcd(x, n), which is at most x, and some unit takes x to it,
    # so the least multiple starts with the least gcd(x, n) over S; a tuple
    # that does not is dropped before any multiple is listed
    return tuple(sorted({
        mem for mem in tuples
        if mem[0] == min(map(math.gcd, mem, repeat(n)))
        and all(multiple >= mem for multiple in _unit_multiples(mem, n))
    }))


def orbit_representatives(n: int, m: int, mode: str = "digraph") -> tuple[tuple[int, ...], ...]:
    """Lexicographically least member per unit orbit, ascending."""
    _check_mode(mode)
    _check_nm(n, m)
    return _orbit_least(connection_set_tuples(n, m, mode), n)


def _unions(blocks: Iterable[tuple[int, ...]], m: int) -> Iterator[tuple[int, ...]]:
    # every union of m members from pairwise disjoint blocks, as a sorted tuple:
    # per vector c of block counts by size, largest first, summing to m, each
    # choice of c[i] blocks of group i, chained lazily (product stores them all)
    by_size = groupby(sorted(blocks, key=len, reverse=True), len)
    sized = [(size, list(group)) for size, group in by_size]
    for counts in product(*(range(min(m // size, len(group)) + 1) for size, group in sized)):
        if sum(c * size for c, (size, _) in zip(counts, sized)) == m:
            chosen = [()]
            for (_, group), c in zip(sized, counts):
                chosen = (head + tail for head, (g, k) in zip(chosen, repeat((group, c)))
                          for tail in combinations(g, k))  # zip binds group, c now
            yield from (tuple(sorted(sum(choice, ()))) for choice in chosen)


def _blocks(blocks: Iterable[tuple[int, ...]], n: int, mode: str) -> list[tuple[int, ...]]:
    # the blocks a connection set of this mode is a union of: in graph mode
    # each block joined with its negatives, the first of equal ones kept
    if mode == "digraph":
        return list(blocks)
    closed = (tuple(sorted(set(block) | {-x % n for x in block})) for block in blocks)
    return list(dict.fromkeys(closed))


def _scans(p: int, t: int) -> bool:
    # a key row of p^t can be neither zero nor the almost zero row (0, 1):
    # a row of p is (0,), and a row of 4 is (0, 0) or (0, 1)
    return t >= 2 and (p, t) != (2, 2)


def _key_candidates(n: int, m: int, mode: str) -> Iterator[tuple[int, ...]]:
    # every size-m member tuple (graph mode: inverse-closed) whose key is
    # neither zero nor almost zero, once per prime where its key row is
    # non-zero; _orbit_least keeps each once.  See m_property
    for p, t in factorize(n).parts:
        if not _scans(p, t):
            continue
        step = n // p
        cosets = [tuple(range(x, n, step)) for x in range(1, step) if x % p]
        multiples = [(x,) for x in range(p, n, p)]
        yield from _unions(_blocks(cosets + multiples, n, mode), m)


def m_property(n: int, m: int, mode: str = "digraph") -> ClassificationReport:
    """Exhaustively test every valency-m connection set, one per orbit.

    Only the sets whose key is neither zero nor almost zero are visited:
    the others are CI with no scan, since their solving sets act as the
    units (Muzychuk).  Those sets are enumerated directly.  The key of S
    is non-zero at a prime p exactly when p^t || n with t >= 2 and
    x + n/p lies in S for every x in S with p not dividing x, because the
    last entry of a row bounds the rest and the stabilizer test for it
    (j = t, step n/p) moves only the members prime to p.  So the part of
    S prime to p is a union of cosets x + <n/p>, and the rest is any set
    of non-zero multiples of p; _blocks closes these blocks under
    negation in graph mode.  Only the prime powers _scans accepts count:
    at the others every row is zero or almost zero.  A set that meets the
    condition at two primes (n = 72 = 8 * 9 is the least such modulus) is
    visited once per prime, and the orbit filter keeps it once.  The key
    is unit-invariant, so the least member of every unit orbit is among
    the visited sets, and the kept representatives are exactly those of
    orbit_representatives whose key is not (almost) zero.  A visited set
    that decide_ci answers by the zero key raises InternalConsistencyError.

    Single valencies carry no closed-form predicate (those quantify over
    all valencies up to m), so the predicate fields stay None here.
    """
    _check_mode(mode)
    _check_nm(n, m)
    counterexamples = []
    for mem in _orbit_least(_key_candidates(n, m, mode), n):
        s = ConnectionSet(n, mem, mode)
        verdict = decide_ci(s)
        if verdict.fast_path == "zero-key":
            raise InternalConsistencyError(
                f"enumerated set {mem} of Z_{n} has the (almost) zero key"
            )
        if not verdict.is_ci:
            counterexamples.append((s, verdict.witness))
    return ClassificationReport(
        n, m, mode, not counterexamples, tuple(counterexamples), None, None
    )


def is_m_group(n: int, m: int, mode: str = "digraph") -> ClassificationReport:
    """Conjunction of the valency property over 1..m, short-circuiting.

    The report compares against the closed-form predicate where one is
    stated (digraph mode from m = 3, graph mode from m = 6) and records
    the first failing valency otherwise reached.
    """
    _check_mode(mode)
    _check_nm(n, m)
    return _group_reports((n, (m,), mode))[0]


def _group_reports(task: tuple[int, tuple[int, ...], str]) -> list[ClassificationReport]:
    # the is_m_group report of every m in ms, ascending, from one walk over
    # the valencies 1, 2, ... that stops at the first failing one
    n, ms, mode = task
    failed = None
    for i in range(1, max(ms) + 1):
        report = m_property(n, i, mode)
        if not report.property_holds:
            failed = report
            break
    reports = []
    for m in ms:
        holds = failed is None or failed.m > m
        counterexamples = () if holds else failed.counterexamples
        failed_at = None if holds else failed.m
        if m < _LEAST_M[mode]:
            predicate = None
        elif mode == "digraph":
            predicate = predicate_mdci(n, m)
        else:
            predicate = predicate_mci(n, m)
        agreement = None if predicate is None else predicate == holds
        reports.append(
            ClassificationReport(
                n, m, mode, holds, counterexamples, predicate, agreement, failed_at
            )
        )
    return reports


# the least valency with a closed-form predicate, per mode
_LEAST_M = {"digraph": 3, "graph": 6}
# the orders that are CI-groups without meeting the DCI condition
_CI_EXCEPTIONS = (8, 9, 18)


def _no_square_below(n: int, bound: float) -> bool:
    # n divisible by neither 8 nor p^2 for any odd prime p < bound
    _check_modulus(n)
    if n % 8 == 0:
        return False
    return not any(p != 2 and t >= 2 and p < bound for p, t in factorize(n).parts)


def predicate_mdci(n: int, m: int) -> bool:
    """Closed form for the cumulative digraph property at valency m:
    n divisible by neither 8 nor p^2 for any odd prime p < m."""
    if m < _LEAST_M["digraph"]:
        raise DomainError(f"predicate stated only for m ≥ {_LEAST_M['digraph']}")
    return _no_square_below(n, m)


def predicate_mci(n: int, m: int) -> bool:
    """Closed form for the cumulative graph property at valency m: the three
    exceptional orders, or n divisible by neither 8 nor p^2 for any odd
    prime p < (m-1)/2."""
    if m < _LEAST_M["graph"]:
        raise DomainError(f"predicate stated only for m ≥ {_LEAST_M['graph']}")
    return n in _CI_EXCEPTIONS or _no_square_below(n, (m - 1) / 2)


def predicate_dci_group(n: int) -> bool:
    """n = k or 2k with k square-free: no factor 8, no odd square factor."""
    return _no_square_below(n, math.inf)


def predicate_ci_group(n: int) -> bool:
    """The DCI condition relaxed by the three exceptional orders."""
    return n in _CI_EXCEPTIONS or _no_square_below(n, math.inf)


def _lift(members: Iterable[int], n: int, q: int) -> tuple[int, ...]:
    # embed Z_q onto the order-q subgroup of Z_n along x -> (n/q) x
    g = n // q
    return tuple(sorted(x * g for x in members))


def witnesses(n: int, mode: str = "digraph") -> tuple[WitnessFamily, ...]:
    """The explicit non-CI families applicable to n, each re-checked non-CI.

    Digraph families: the lifted valency-3 set over Z_8 when 8 | n, and the
    lifted coset-plus-generator set over Z_{p^2} for every odd prime square
    dividing n.  Graph families (skipped entirely for the three exceptional
    orders): the valency-6 set for 8 | n, the valency-8 set for 9 | n, and
    the lifted double-coset set over Z_{p^2} for primes p >= 5.
    """
    _check_mode(mode)
    families: list[tuple[str, tuple[int, ...]]] = []
    if mode == "digraph":
        if n % 8 == 0:
            families.append(("z8-lift", _lift((1, 2, 5), n, 8)))
        for p, t in factorize(n).parts:
            if p != 2 and t >= 2:
                q = p * p
                base = sorted(set(range(1, q, p)) | {p})
                families.append((f"z{q}-coset-plus-p", _lift(base, n, q)))
    else:
        if n not in _CI_EXCEPTIONS:
            if n % 8 == 0:
                members = sorted((1, n - 1, 2, n - 2, n // 2 - 1, n // 2 + 1))
                families.append(("mod8-graph", tuple(members)))
            if n % 9 == 0:
                members = sorted(
                    (1, n - 1, 3, n - 3, n // 3 + 1, n // 3 - 1,
                     2 * n // 3 + 1, 2 * n // 3 - 1)
                )
                families.append(("mod9-graph", tuple(members)))
            for p, t in factorize(n).parts:
                if p >= 5 and t >= 2:
                    q = p * p
                    base = sorted(
                        set(range(1, q, p)) | set(range(p - 1, q, p)) | {p, q - p}
                    )
                    families.append((f"z{q}-double-coset", _lift(base, n, q)))
    out = []
    for name, members in families:
        s = ConnectionSet(n, tuple(members), mode)
        if is_ci_reduced(s).is_ci:
            raise InternalConsistencyError(
                f"witness family {name} unexpectedly CI for n={n}"
            )
        out.append(WitnessFamily(name, s))
    return tuple(out)


def verify_theorems(
    n_max: int, m_max: int, mode: str = "digraph", workers: int = 1
) -> tuple[ClassificationReport, ...]:
    """Exhaustive group property against the predicate on every cell.

    Any disagreeing cell raises DisagreementError carrying all reports
    (a disagreement is either an implementation bug or a refutation and
    must not pass silently).  Worker count never changes the result: each
    modulus is one task, the forked workers take the largest first, and
    the reports come back in task order.  Forking a process that runs
    threads is unsafe, so such a caller keeps workers at 1.
    """
    _check_mode(mode)
    lo = _LEAST_M[mode]
    tasks = []
    for n in range(2, n_max + 1):
        ms = tuple(range(lo, min(m_max, n - 1) + 1))
        if ms:
            tasks.append((n, ms, mode))
    # a worker per task or CPU at most; a platform without fork runs in-process
    workers = min(workers, len(tasks), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if workers > 1:
        chunks = _worker_map(tasks, workers)
    else:
        chunks = [_group_reports(task) for task in tasks]
    reports = [r for chunk in chunks for r in chunk]
    if any(r.agreement is False for r in reports):
        raise DisagreementError(reports)
    return tuple(reports)


def _worker_map(
    tasks: list[tuple[int, tuple[int, ...], str]], workers: int
) -> list[list[ClassificationReport]]:
    # _group_reports of every task, in task order, from `workers` forked
    # children, with no pool machinery and no thread.  The tasks reach the
    # children by fork.  One pipe carries their indices as 4-byte records,
    # the last task (the largest modulus) first, in pieces of at most
    # PIPE_BUF bytes, so no record is split between two readers; a child
    # reads the next whenever it is free.  When the pipe runs dry a child
    # sends (index, reports or exception) for each of its tasks in one
    # pickle on a pipe of its own.  Every child is reaped on every path;
    # then a child that sent nothing raises RuntimeError, and otherwise the
    # exception of the lowest failing task is raised, as the serial loop
    # would raise it.
    import pickle
    from select import PIPE_BUF

    task_r, task_w = os.pipe()
    fds, children = {task_r, task_w}, {}  # open ends; pid -> its result end
    sent, dead = [], []
    try:
        for _ in range(workers):
            result_r, result_w = os.pipe()
            fds |= {result_r, result_w}
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in fds - {task_r, result_w}:
                        os.close(fd)
                    done = []
                    while record := os.read(task_r, 4):
                        i = int.from_bytes(record, "little")
                        try:
                            done.append((i, _group_reports(tasks[i])))
                        except Exception as exc:
                            try:
                                pickle.loads(pickle.dumps(exc))
                            except Exception:
                                exc = RuntimeError(repr(exc))
                            done.append((i, exc))
                    with open(result_w, "wb") as out:
                        pickle.dump(done, out)
                    status = 0
                finally:
                    os._exit(status)
            fds.discard(result_w)
            os.close(result_w)
            children[pid] = result_r
        fds.discard(task_r)
        os.close(task_r)
        order = b"".join(i.to_bytes(4, "little") for i in reversed(range(len(tasks))))
        piece = PIPE_BUF - PIPE_BUF % 4
        try:
            for start in range(0, len(order), piece):
                os.write(task_w, order[start:start + piece])
        except BrokenPipeError:
            pass  # no child is left to read; reaping them reports why
        fds.discard(task_w)
        os.close(task_w)
        for pid, result_r in list(children.items()):
            fds.discard(result_r)
            with open(result_r, "rb") as results:
                data = results.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                dead.append(f"{pid} (wait status {status})")
            else:
                sent += pickle.loads(data)
    finally:
        for fd in fds:
            os.close(fd)
        if children:
            from signal import SIGKILL

            for pid in children:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    if dead:
        raise RuntimeError(f"sweep workers ended before sending their reports: {', '.join(dead)}")
    sent.sort(key=lambda pair: pair[0])
    if [i for i, _ in sent] != list(range(len(tasks))):
        raise InternalConsistencyError("the workers did not run every task once")
    for _, value in sent:
        if isinstance(value, Exception):
            raise value
    return [value for _, value in sent]
