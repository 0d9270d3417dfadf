"""Checks on the package source itself."""

import ast
from pathlib import Path

import circulant_ci


def test_no_assert_statements():
    # invariants raise InternalConsistencyError; assert vanishes under -O
    found = []
    for path in sorted(Path(circulant_ci.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
