"""Checks on the package source, and on the files outside it that name its
parts: the README examples and the benchmark's lookups by name."""

import ast
import doctest
import importlib
import subprocess
import sys
from pathlib import Path

import circulant_ci

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
        "CayleyDigraph",
        "CiVerdict",
        "ClassificationReport",
        "ConnectionSet",
        "CosetCase",
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
        "recognize_coset_case",
        "solving_set",
        "subgroup_of_order",
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


# loaded only by the branch that runs them: the worker pool, the csv
# output and the binary search of a multiplier's row; pathlib is not used,
# typing names come from collections.abc, and the records are named tuples,
# so neither dataclasses nor the inspect it imports is loaded
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
    # multipliers._digit_terms is the one code outside zn that reads the CRT
    # idempotents, so the solving-set scan and as_permutation share its terms
    reads = [
        (path.stem, scope, line)
        for path, tree in _trees()
        if path.stem != "zn"
        for scope, line in _attribute_reads(tree, "idempotents")
    ]
    assert reads and all(r[:2] == ("multipliers", "_digit_terms") for r in reads), reads


# the message of each input check, and the one function that raises it
INPUT_CHECKS = {
    "modulus must be at least 2": ("zn", "_check_modulus"),
    "mode must be one of": ("cayley", "_check_mode"),
    "rows must be a tuple of tuples": ("keys", "_check_rows"),
    "live over different Z_n": ("cayley", "_check_pair"),
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
