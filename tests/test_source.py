"""Checks on the package source itself."""

import ast
from pathlib import Path

import circulant_ci

SOURCES = sorted(Path(circulant_ci.__file__).parent.glob("*.py"))


def _trees():
    for path in SOURCES:
        yield path, ast.parse(path.read_text(), str(path))


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


def _finite_maxsize(node: ast.expr) -> bool:
    # lru_cache(maxsize=<not None>) or lru_cache(<not None>); a bare
    # @lru_cache or @cache states no bound
    if not isinstance(node, ast.Call):
        return False
    sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
    return bool(sizes) and not (
        isinstance(sizes[0], ast.Constant) and sizes[0].value is None
    )


def test_every_cache_is_bounded():
    # memory stays flat over long sweeps only if no cache grows without bound
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    name = _decorator_name(dec)
                    if name == "cache" or (name == "lru_cache" and not _finite_maxsize(dec)):
                        found.append(f"{path.name}:{dec.lineno} {node.name}")
    assert not found, found


def _attribute_reads(node: ast.AST, attr: str, scope: str = ""):
    """(qualified enclosing function or class, line) of every load of .attr."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _attribute_reads(child, attr, f"{scope}.{child.name}".lstrip("."))
            continue
        if (
            isinstance(child, ast.Attribute)
            and child.attr == attr
            and isinstance(child.ctx, ast.Load)
        ):
            yield scope, child.lineno
        yield from _attribute_reads(child, attr, scope)


def test_output_format_read_only_by_emit():
    # one output path: each command builds its three forms and _emit picks one
    allowed = {"_emit", "RunConfig.__post_init__"}
    found = [
        f"cli.py:{line} {scope}"
        for path, tree in _trees()
        if path.name == "cli.py"
        for scope, line in _attribute_reads(tree, "output_format")
        if scope not in allowed
    ]
    assert not found, found
