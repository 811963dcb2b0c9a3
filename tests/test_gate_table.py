"""Every gate threshold of the package lives in the table in ``spinlift._linalg``.

A float literal with 0 < |x| < 1e-2 anywhere else in ``src/spinlift`` is a
threshold written inline.  The one exception is the ``tol`` column of
``cli._SELFTEST_CHECKS``: the pass bound of each selftest property.
"""

import ast
import importlib
import pathlib

import pytest

from spinlift import _linalg

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinlift"


def _exempt_nodes(path: pathlib.Path, tree: ast.Module) -> set:
    exempt = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if path.name == "_linalg.py":
            exempt.update(ast.walk(node.value))
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if path.name == "cli.py" and names == ["_SELFTEST_CHECKS"]:
            exempt.update(row.elts[2] for row in node.value.elts)
    return exempt


def inline_thresholds(path: pathlib.Path) -> list:
    """(file, line, value) of each small float literal outside the table."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = _exempt_nodes(path, tree)
    return [
        (path.name, node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-2
        and node not in exempt
    ]


def test_no_inline_thresholds():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += inline_thresholds(path)
    assert found == []


#: The named constants each module defined before the table existed, and the
#: gates added to the table since, under the module that compares them.
MODULE_CONSTANTS = {
    "bivector": ["SKEW_TOL", "TRACE_TOL", "SIMPLE_DET_TOL", "PLANE_TOL",
                 "FACTOR_PIVOT_TOL", "_NULL_TOL", "_PART_GATE"],
    "spin": ["SPIN_GAP_TOL"],
    "expmap": ["SBAR_TAYLOR_CUTOFF", "SERIES_GAP_TOL"],
    "group_lift": ["ORTHO_TOL", "SIMPLE_CRITERION_TOL", "TRACE_GATE",
                   "DENOMINATOR_GATE", "BLOCK_DET_TOL", "DET_SIGN_DEFECT",
                   "DET_SIGN_ROUNDING"],
    "oracle": ["_COND_LIMIT"],
}


@pytest.mark.parametrize("module", sorted(MODULE_CONSTANTS))
def test_constants_resolve_in_their_modules(module):
    # documented names such as spinlift.group_lift.TRACE_GATE are the table's
    mod = importlib.import_module(f"spinlift.{module}")
    for name in MODULE_CONSTANTS[module]:
        assert getattr(mod, name) is getattr(_linalg, name)
