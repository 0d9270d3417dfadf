"""Checks on the package source, and on the files outside it that name its
parts: the README examples and the benchmark's lookups by name."""

import ast
import doctest
import importlib
import inspect
import reprlib
import subprocess
import sys
from collections import namedtuple
from itertools import product
from pathlib import Path

import pytest

import circulant_ci
from circulant_ci import ConnectionSet, DomainError

SOURCES = sorted(Path(circulant_ci.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in SOURCES}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _trees():
    for path in SOURCES:
        yield path, _parse(path)


def test_exports_are_all():
    # the package exports exactly __all__, each name once and resolvable
    names = circulant_ci.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(circulant_ci, n)] == []
    public = {n for n in vars(circulant_ci) if not n.startswith("_")}
    assert public - MODULES - set(names) == set()


def test_public_surface_pinned():
    # the exported names are pinned, so a new export is a decision
    assert sorted(circulant_ci.__all__) == [
        "CiVerdict",
        "ClassificationReport",
        "ConnectionSet",
        "DisagreementError",
        "DomainError",
        "Factorization",
        "GenuineMultiplier",
        "InternalConsistencyError",
        "IsoVerdict",
        "Key",
        "OracleCutoffError",
        "SolvingSet",
        "WitnessFamily",
        "as_permutation",
        "brute_force_isomorphic",
        "brute_force_isomorphism",
        "build_cayley",
        "decide_ci",
        "factorize",
        "is_ci",
        "is_ci_reduced",
        "is_m_group",
        "isomorphism_class",
        "key_of_set",
        "key_partition",
        "m_property",
        "muzychuk_isomorphic",
        "orbit_members",
        "orbit_representatives",
        "predicate_ci_group",
        "predicate_dci_group",
        "predicate_mci",
        "predicate_mdci",
        "solving_set",
        "units",
        "verify_theorems",
        "witnesses",
        "zero_key",
    ]


def test_no_unused_imports():
    # every name a module imports is read in it; __init__ only re-exports
    found = []
    for path, tree in _trees():
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in read
        ]
    assert not found, found


def test_no_assert_statements():
    # invariants raise InternalConsistencyError; assert vanishes under -O
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _decorator_name(node: ast.expr) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _maxsizes(node: ast.expr) -> list[ast.expr]:
    # the maxsize of lru_cache(maxsize=...) or lru_cache(...); none for a
    # bare @lru_cache or @cache
    if not isinstance(node, ast.Call):
        return []
    return [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]


def _finite_maxsize(node: ast.expr) -> bool:
    # a bare @lru_cache or @cache, or maxsize=None, states no bound
    sizes = _maxsizes(node)
    return bool(sizes) and not (
        isinstance(sizes[0], ast.Constant) and sizes[0].value is None
    )


def test_every_cache_is_bounded():
    # memory stays flat over long sweeps only if no cache grows without bound;
    # the list of cached functions is pinned, so a new cache is a decision,
    # and every *_CACHE_SIZE constant bounds some cache, so none is orphaned;
    # no cached_property either, so a record holds its fields and nothing else
    found = []
    cached = []
    constants = []
    bounds = set()
    for path, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                constants += [
                    f"{path.stem}.{t.id}"
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.endswith("_CACHE_SIZE")
                ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    name = _decorator_name(dec)
                    if name in ("cache", "lru_cache"):
                        cached.append(f"{path.stem}.{node.name}")
                        bounds.update(
                            f"{path.stem}.{size.id}"
                            for size in _maxsizes(dec)
                            if isinstance(size, ast.Name)
                        )
                    if name in ("cache", "cached_property") or (
                        name == "lru_cache" and not _finite_maxsize(dec)
                    ):
                        found.append(f"{path.name}:{dec.lineno} {node.name}")
    assert not found, found
    assert sorted(cached) == [
        "keys.key_partition",
        "multipliers._genuine_rows",
        "zn.factorize",
        "zn.units",
    ]
    assert constants and sorted(set(constants) - bounds) == []


def _scoped(node: ast.AST, match, scope: str = ""):
    """(qualified enclosing function or class, line) of every node that
    `match` accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, match, f"{scope}.{child.name}".lstrip("."))
            continue
        if match(child):
            yield scope, child.lineno
        yield from _scoped(child, match, scope)


def _attribute_reads(node: ast.AST, attr: str):
    """(qualified enclosing function or class, line) of every load of .attr."""
    return _scoped(
        node,
        lambda child: isinstance(child, ast.Attribute)
        and child.attr == attr
        and isinstance(child.ctx, ast.Load),
    )


# loaded only by the branch that runs them: the pickle of the forked
# workers, the csv output and the binary search of a multiplier's row; no
# pool module and no pathlib is used, typing names come from collections.abc,
# and the records are named tuples, so neither dataclasses nor the inspect
# it imports is loaded
LAZY_MODULES = (
    "concurrent.futures.process", "multiprocessing", "pathlib", "csv", "typing",
    "dataclasses", "inspect", "bisect", "pickle",
)


def test_import_loads_only_what_commands_run():
    # a fresh interpreter without site, which would load some of these itself
    src = str(Path(circulant_ci.__file__).parent.parent)
    for module in ("circulant_ci.cli", "circulant_ci"):
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print(sorted(set({LAZY_MODULES!r}) & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "[]\n", (module, out)


def test_workers_start_no_pool_and_no_thread():
    # the forked workers need neither pool module; with no thread running, a
    # fork is safe (and Python 3.12+ warns about none)
    src = str(Path(circulant_ci.__file__).parent.parent)
    probe = (
        f"import os, sys; sys.path.insert(0, {src!r}); "
        # two CPUs, so the sweep forks two workers on any host
        "os.cpu_count = lambda: 2; "
        "from circulant_ci.engine import verify_theorems; "
        "verify_theorems(20, 6, 'digraph', workers=2); "
        "print(sorted({'multiprocessing', 'concurrent.futures', 'threading'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n", out


def test_output_format_read_only_by_emit():
    # one output path: each command builds its three forms and _emit picks one
    # (and reads it at all, so a renamed flag does not pass unchecked)
    reads = [
        f"cli.py:{line} {scope}"
        for path, tree in _trees()
        if path.name == "cli.py"
        for scope, line in _attribute_reads(tree, "format")
    ]
    assert reads and all(read.endswith(" _emit") for read in reads), reads


def test_unit_action_stated_once():
    # cayley._unit_multiples is the one code that applies a unit to a set
    found = [
        f"{path.name}:{line} {scope}"
        for path, tree in _trees()
        for scope, line in _scoped(
            tree, lambda node: isinstance(node, ast.Call) and _decorator_name(node) == "units"
        )
        if (path.stem, scope) != ("cayley", "_unit_multiples")
    ]
    assert not found, found


def test_multiplier_action_stated_once():
    # outside zn, the CRT idempotents are read by two codes only: the element
    # action, multipliers._digit_terms, which as_permutation uses, and the
    # class action, multipliers._layers, which the solving-set scans use
    reads = {
        (path.stem, scope)
        for path, tree in _trees()
        if path.stem != "zn"
        for scope, _ in _attribute_reads(tree, "idempotents")
    }
    assert reads == {("multipliers", "_digit_terms"), ("multipliers", "_layers")}, reads
    users = {
        name: {
            (path.stem, scope)
            for path, tree in _trees()
            for scope, _ in _scoped(
                tree, lambda node: isinstance(node, ast.Call) and _decorator_name(node) == name
            )
        }
        for name in ("_digit_terms", "_layers")
    }
    assert users == {
        "_digit_terms": {("multipliers", "as_permutation")},
        "_layers": {
            ("multipliers", "SolvingSet.images"),
            ("multipliers", "SolvingSet._non_unit_images"),
            ("multipliers", "SolvingSet._first_into"),
        },
    }, users


def _reads_entry_at_exponent(node: ast.AST) -> bool:
    # a subscript row[a - 1]: the key entry at an order exponent a
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.BinOp)
        and isinstance(node.slice.op, ast.Sub)
        and ast.unparse(node.slice.right) == "1"
    )


def test_class_stated_once():
    # keys._class_picks is the one code that reads a key entry at an order
    # exponent, so the one that computes a class subgroup; key_partition
    # and the scan's layers take their classes from it, and no module keeps
    # an order exponent of its own
    reads = {
        (path.stem, scope)
        for path, tree in _trees()
        for scope, _ in _scoped(tree, _reads_entry_at_exponent)
    }
    assert reads == {("keys", "_class_picks")}, reads
    callers = {
        (path.stem, scope)
        for path, tree in _trees()
        for scope, _ in _scoped(
            tree,
            lambda node: isinstance(node, ast.Call) and _decorator_name(node) == "_class_picks",
        )
    }
    assert callers == {("keys", "key_partition"), ("multipliers", "_layers")}, callers
    defined = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "order_exponent"
    ]
    assert not defined, defined


# the message of each input check, and the one function that raises it
INPUT_CHECKS = {
    "modulus must be at least 2": ("zn", "_check_modulus"),
    "mode must be one of": ("cayley", "_check_mode"),
    "rows must be a tuple of tuples": ("keys", "_check_rows"),
    "live over different Z_n": ("cayley", "_check_pair"),
    "union of the key's classes": ("multipliers", "_layers"),
    "not over the key's Z_n": ("multipliers", "_layers"),
    "modulus must be an int": ("zn", "_check_modulus"),
    "this call takes a": ("zn", "_check_record"),
    "is not the factorization of": ("zn", "Factorization.__new__"),
    "connection set members must be ints": ("cayley", "ConnectionSet.__new__"),
    "entries must be ints": ("keys", "_check_rows"),
    "valency must be an int": ("engine", "_check_valency"),
    "predicate stated only for m ≥": ("engine", "_check_valency"),
    "valency must lie in 1..n-1": ("engine", "_check_nm"),
    "n_max, m_max and workers must be ints": ("engine", "verify_theorems"),
    "workers must be at least 1": ("engine", "_check_workers"),
    "oracle_cutoff must be an int": ("cayley", "_check_cutoff"),
    "oracle_cutoff must be at least 2": ("cayley", "_check_cutoff"),
}


def test_input_checks_stated_once():
    # each check is written once, in the module that owns the concept, and
    # every other module calls it
    for phrase, owner in INPUT_CHECKS.items():
        found = [
            (path.stem, scope)
            for path, tree in _trees()
            for scope, _ in _scoped(
                tree,
                lambda node: isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and phrase in node.value,
            )
        ]
        assert found == [owner], (phrase, found)


def _calls(tree: ast.AST, dotted: str):
    """(qualified enclosing function or class, line) of every call of the
    name or attribute chain `dotted`, such as "Factorization._unchecked"."""
    return _scoped(
        tree, lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == dotted
    )


def test_factorization_stated_once():
    # zn.factorize is the one statement of n's factorization: it alone builds
    # a Factorization, past the checks, and nothing in the package calls the
    # checked constructor, which accepts exactly the parts factorize builds;
    # no module keeps a primality test of its own
    builders = {
        (name, path.stem, scope)
        for path, tree in _trees()
        for name in ("Factorization", "Factorization._unchecked")
        for scope, _ in _calls(tree, name)
    }
    assert builders == {("Factorization._unchecked", "zn", "factorize")}, builders
    defined = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "is_prime"
    ]
    assert not defined, defined


def test_int_byte_conversions_name_their_byte_order():
    # Python 3.10, the requires-python floor, gives int.to_bytes and
    # int.from_bytes no default byte order, and 3.11 does, so a call that
    # omits it would fail on 3.10 alone
    calls = [
        (f"{path.name}:{node.lineno}", len(node.args) >= 2 or any(
            keyword.arg == "byteorder" for keyword in node.keywords
        ))
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("to_bytes", "from_bytes")
    ]
    assert calls
    assert all(named for _, named in calls), [at for at, named in calls if not named]


def _type_tests(tree: ast.AST):
    """(source, whether it reads _INT) of each type test in `tree`: a
    comparison with type(...) on a side, a call given map(type, ...), and an
    isinstance(...) that names int, bool or float."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [ast.unparse(side) for side in (node.left, *node.comparators)]
            if any(side.startswith("type(") for side in sides):
                yield ast.unparse(node), "_INT" in sides
        elif isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if any(ast.unparse(arg).startswith("map(type, ") for arg in node.args):
                yield ast.unparse(node), func == "_INT.issuperset"
            if func == "isinstance" and {"int", "bool", "float"} & {
                name.id for name in ast.walk(node.args[1]) if isinstance(name, ast.Name)
            }:
                yield ast.unparse(node), False


def test_int_type_stated_once():
    # zn._INT is the one statement of the integer type: zn alone defines it,
    # and every type test in the package reads it
    tests = [
        (path.stem, test) for path, tree in _trees() for test, reads in _type_tests(tree)
        if not reads
    ]
    assert not tests, tests
    testing = {path.stem for path, tree in _trees() if any(_type_tests(tree))}
    assert testing == {"zn", "cayley", "keys", "engine"}, testing
    defined = [
        path.stem
        for path, tree in _trees()
        for node in tree.body
        if isinstance(node, ast.Assign) and "_INT" in map(ast.unparse, node.targets)
    ]
    assert defined == ["zn"], defined


def _public_callables():
    """(qualified name, function) of every exported function and public
    method of an exported class."""
    for name in circulant_ci.__all__:
        obj = getattr(circulant_ci, name)
        if isinstance(obj, type):
            yield from (
                (f"{name}.{attr}", fn)
                for klass in obj.__mro__
                if klass.__module__.startswith("circulant_ci.")
                for attr, fn in vars(klass).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
            )
        else:
            yield name, obj


def test_public_callables_take_connection_sets():
    # a subset of Z_n crosses the public API only as a ConnectionSet, whose
    # constructor checks it: no exported function and no public method of
    # an exported class takes raw members or a raw target.  The records'
    # constructors build sets from their fields, and are exempt
    seen, found = [], []
    for qualified, fn in _public_callables():
        seen.append(qualified)
        taken = {"members", "target"} & set(inspect.signature(fn).parameters)
        if taken:
            found.append((qualified, sorted(taken)))
    assert {"orbit_members", "SolvingSet.images", "SolvingSet.first_into"} <= set(seen)
    assert not found, found


IntDomain = namedtuple("IntDomain", "valid not_int least_invalid below")
StrDomain = namedtuple("StrDomain", "valid refused near_miss not_str")
# a value outside a parameter's range that its callable takes on purpose,
# with the reason and the answer it gives
Accepted = namedtuple("Accepted", "reason answer")

# the domain of every int and str parameter of a public callable, stated
# once per parameter name; a name whose domain narrows in one callable is
# listed again as "callable.name".  An IntDomain gives the valid values,
# the refusal of a value that is not an int, the least invalid int and its
# refusal or acceptance; a StrDomain gives the valid values, the refusal,
# a near-miss string and a non-string.  Each refusal is a phrase of
# INPUT_CHECKS, so it names the one check that owns the parameter.
ARGUMENT_DOMAINS = {
    "n": IntDomain((8, 9, 18), "modulus must be an int", 1, "modulus must be at least 2"),
    "m": IntDomain((3,), "valency must be an int", 0, "valency must lie in 1..n-1"),
    "predicate_mdci.m": IntDomain(
        (3,), "valency must be an int", 2, "predicate stated only for m ≥"
    ),
    "predicate_mci.m": IntDomain(
        (6, 7), "valency must be an int", 5, "predicate stated only for m ≥"
    ),
    "n_max": IntDomain(
        (10,), "n_max, m_max and workers must be ints", 1,
        Accepted("empty range: no modulus n with 2 <= n <= n_max", ()),
    ),
    "m_max": IntDomain(
        (4,), "n_max, m_max and workers must be ints", 2,
        Accepted("empty range: below the least m of either mode", ()),
    ),
    "workers": IntDomain(
        (1,), "n_max, m_max and workers must be ints", 0, "workers must be at least 1"
    ),
    "oracle_cutoff": IntDomain(
        (12,), "oracle_cutoff must be an int", 1, "oracle_cutoff must be at least 2"
    ),
    "mode": StrDomain(("digraph", "graph"), "mode must be one of", "Graph", b"graph"),
}


def _probes(domain):
    """(value, refusal phrase or Accepted) of each probe of a domain: each
    valid value as a float, the first plus a half, a bool, the first as a
    string and the least invalid int; or a near-miss string and a
    non-string."""
    if isinstance(domain, StrDomain):
        return [(domain.near_miss, domain.refused), (domain.not_str, domain.refused)]
    return [
        *[(float(v), domain.not_int) for v in domain.valid],
        (domain.valid[0] + 0.5, domain.not_int),
        (True, domain.not_int),
        (str(domain.valid[0]), domain.not_int),
        (domain.least_invalid, domain.below),
    ]


# every record type a public parameter may be annotated with, each refused
# by zn._check_record in the words "this call takes a <record>, not"; a
# record of the package that a public parameter takes and this table does
# not name fails test_bare_tuples_refused_by_one_check
RECORD_TYPES = ("ConnectionSet", "Factorization", "Key", "GenuineMultiplier")


def test_bare_tuples_refused_by_one_check():
    # every public callable annotated to take a record refuses a bare tuple
    # of the record's fields in its place with the DomainError of
    # zn._check_record, not with the AttributeError of a field read; a scan
    # refuses at its call, before the first image is read
    s = ConnectionSet(8, (1, 2, 5))
    k = circulant_ci.key_of_set(s)
    ss = circulant_ci.solving_set(k)
    valid = {
        "ConnectionSet": s,
        "Factorization": k.factorization,
        "Key": k,
        "GenuineMultiplier": next(iter(ss)),
    }
    records = {
        name for name in circulant_ci.__all__
        if isinstance(getattr(circulant_ci, name), type)
        and issubclass(getattr(circulant_ci, name), tuple)
    }
    assert set(RECORD_TYPES) <= records
    called, unnamed = [], []
    for qualified, fn in _public_callables():
        params = inspect.signature(fn).parameters
        taken = {p: v.annotation for p, v in params.items() if v.annotation in records}
        unnamed += [f"{qualified}({p})" for p, a in taken.items() if a not in RECORD_TYPES]
        for bare, record in taken.items():
            if record not in RECORD_TYPES:
                continue
            args = {p: tuple(valid[a]) if p == bare else valid[a] for p, a in taken.items()}
            if "self" in params:
                args["self"] = ss
            with pytest.raises(DomainError, match=f"^this call takes a {record}, not tuple$"):
                fn(**args)
            called.append(f"{qualified}({bare})")
    assert not unnamed, unnamed
    assert sorted(called) == [
        "SolvingSet.first_into(s)", "SolvingSet.first_into(t)", "SolvingSet.images(s)",
        "as_permutation(m)",
        "brute_force_isomorphic(a)", "brute_force_isomorphic(b)",
        "brute_force_isomorphism(a)", "brute_force_isomorphism(b)", "build_cayley(s)",
        "decide_ci(s)", "is_ci(s)", "is_ci_reduced(s)", "isomorphism_class(s)",
        "key_of_set(s)", "key_partition(k)", "muzychuk_isomorphic(s)",
        "muzychuk_isomorphic(t)", "orbit_members(s)", "solving_set(k)", "zero_key(f)",
    ], called


def test_public_arguments_refused_by_their_owners():
    # every int and str parameter of every public callable is named in
    # ARGUMENT_DOMAINS, and each probe of it, the other arguments valid in
    # every combination, raises the DomainError of the check that owns it
    # or, where the table says so, gives the accepted answer
    s = ConnectionSet(8, (1, 2, 5))
    unnamed, wrong, used = [], [], set()
    for qualified, fn in _public_callables():
        valid, domains = {}, {}
        for p, v in inspect.signature(fn).parameters.items():
            if v.annotation == "ConnectionSet":
                valid[p] = (s,)
            elif v.annotation in ("int", "str"):
                name = next((k for k in (f"{qualified}.{p}", p) if k in ARGUMENT_DOMAINS), None)
                if name is None:
                    unnamed.append(f"{qualified}({p})")
                    continue
                used.add(name)
                domains[p] = ARGUMENT_DOMAINS[name]
                valid[p] = domains[p].valid
        for p, domain in domains.items():
            others = [q for q in valid if q != p]
            for value, outcome in _probes(domain):
                for rest in product(*map(valid.get, others)):
                    args = {**dict(zip(others, rest)), p: value}
                    call = f"{qualified}({', '.join(f'{q}={v!r}' for q, v in args.items())})"
                    try:
                        got = fn(**args)
                    except DomainError as exc:
                        if isinstance(outcome, Accepted) or outcome not in str(exc):
                            wrong.append(f"{call}: DomainError {exc}")
                        continue
                    except Exception as exc:
                        wrong.append(f"{call}: {type(exc).__name__} {exc}")
                        continue
                    if not isinstance(outcome, Accepted) or got != outcome.answer:
                        wrong.append(f"{call}: returned {reprlib.repr(got)}")
    assert not unnamed, unnamed
    assert not wrong, wrong
    assert used == set(ARGUMENT_DOMAINS), sorted(set(ARGUMENT_DOMAINS) - used)
    phrases = {
        outcome
        for domain in ARGUMENT_DOMAINS.values()
        for _, outcome in _probes(domain)
        if not isinstance(outcome, Accepted)
    }
    assert phrases <= set(INPUT_CHECKS), sorted(phrases - set(INPUT_CHECKS))


def _states_scan_condition(node: ast.AST) -> bool:
    # the tuple (2, 2), or a comparison x % 8 == 4
    if isinstance(node, ast.Tuple):
        return ast.unparse(node) == "(2, 2)"
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mod)
        and ast.unparse(node.left.right) == "8"
        and [type(op) for op in node.ops] == [ast.Eq]
        and ast.unparse(node.comparators[0]) == "4"
    )


def test_scan_condition_stated_once():
    # engine._scans is the one statement of the prime powers whose key row
    # can force a scan, which the zero-key shortcut and the sweep's
    # enumerator both read
    (path,) = [path for path in SOURCES if path.stem == "engine"]
    scopes = list(_scoped(_parse(path), _states_scan_condition))
    assert scopes and all(scope == "_scans" for scope, _ in scopes), scopes


def _resolve(dotted: str):
    """The object a name such as "keys.key_partition" denotes in the package."""
    mod, _, rest = dotted.partition(".")
    obj = importlib.import_module(f"circulant_ci.{mod}")
    for attr in filter(None, rest.split(".")):
        obj = getattr(obj, attr)
    return obj


def _package_lookups(tree: ast.Module):
    """Each attribute read off a package object that `tree` finds by its
    name as a string, as in sys.modules["circulant_ci.engine"].x or
    originals["keys.key_partition"].x, given as "engine.x" or
    "keys.key_partition.x"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript):
            key = node.value.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                name = key.value.removeprefix("circulant_ci.")
                if name.split(".")[0] in MODULES:
                    yield f"{name}.{node.attr}"


def test_bench_names_resolve():
    # the benchmark finds these by name at run time, so a deletion or rename
    # here breaks its traced runs without failing any import
    spans = _parse(ROOT / "bench" / "spans.py")
    child = _parse(ROOT / "bench" / "child.py")
    (layers,) = [
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    names = [f"{mod}.{fn}" for mod, fn in layers] + list(_package_lookups(spans))
    assert "engine.connection_set_tuples" in names
    assert "keys.key_partition.cache_info" in names
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert not missing, missing
    used = {
        node.attr
        for node in ast.walk(child)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ci"
    }
    assert "decide_ci" in used
    unexported = used - set(circulant_ci.__all__)
    assert not unexported, sorted(unexported)


def test_readme_examples_run():
    failures, tried = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert tried > 0 and failures == 0
