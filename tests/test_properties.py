"""The property checks of checks.py that no acceptance criterion runs, each
at its default widths, and the completeness of that split and of
checks.CI_CHECKS."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import checks

TIER1_CHECKS = (
    "check_key_against_lattice",
    "check_key_against_reference",
    "check_reduced_key",
    "check_genuine_rows_against_reference",
    "check_oracle_against_backtracking",
    "check_signature_order",
    "check_key_enumeration",
    "check_orbit_filter",
    "check_ci_scan_against_reference",
    "check_unit_like_multipliers",
    "check_iso_scan_against_reference",
    "check_witness_boundary",
    "check_first_failure",
    "check_complement",
)


@pytest.mark.parametrize("name", TIER1_CHECKS)
def test_check(name):
    assert getattr(checks, name)() > 0


def test_every_check_runs_once_and_every_ci_row_binds():
    defined = {
        name
        for name, fn in inspect.getmembers(checks, inspect.isfunction)
        if name.startswith("check_") and fn.__module__ == checks.__name__
    }
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    calls = [
        node
        for node in ast.walk(acceptance)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "checks"
        and node.func.attr.startswith("check_")
    ]
    # the acceptance criteria run their checks at the defaults too
    assert all(not (call.args or call.keywords) for call in calls)
    runs = Counter(TIER1_CHECKS) + Counter(call.func.attr for call in calls)
    assert runs == Counter(defined)
    for name, kwargs, seconds in checks.CI_CHECKS:
        assert name in defined, name
        inspect.signature(getattr(checks, name)).bind(**kwargs)
        assert seconds > 0, name
