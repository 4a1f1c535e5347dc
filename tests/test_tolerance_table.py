"""Lint: every tolerance the numeric code uses comes from probcore's table.

A float literal with 1e-20 < |x| < 1e-3 anywhere in ``src/bcorder`` is a
tolerance written inline, unless it is one of the four table entries at
the top of ``probcore``.  ``verifysuite`` is exempt: its literals are the
frozen golden-check specification and the independent brute-force oracle.
The two 1e-300 division guards in ``regions`` lie below the band.
"""

import ast
import pathlib

from bcorder import probcore

SRC = pathlib.Path(probcore.__file__).parent
TABLE = {"CELL_FLOOR": 1e-15, "SIMPLEX_TOL": 1e-12, "VERDICT_TOL": 1e-9, "REFINE_FLOOR": 1e-7}
EXEMPT = {"verifysuite.py"}
RETIRED = {"SYMMETRY_TOL", "BOUNDARY_TOL", "PARETO_TOL", "CONVEXITY_TOL", "_HULL_EPS"}


def _table_nodes(tree: ast.Module) -> set[int]:
    """ids of the literal nodes that are probcore's table entries."""
    return {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in TABLE
    }


def inline_tolerances(path: pathlib.Path) -> list[str]:
    """``file:line value`` for every tolerance-sized float literal outside the table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    table = _table_nodes(tree) if path.name == "probcore.py" else set()
    return [
        f"{path.name}:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 1e-20 < abs(node.value) < 1e-3
        and id(node) not in table
    ]


def test_no_tolerance_literal_outside_the_table():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name not in EXEMPT for hit in inline_tolerances(path)]
    assert found == [], "inline tolerances; use an entry of probcore's table: " + ", ".join(found)


def test_the_table_has_exactly_four_entries():
    tree = ast.parse((SRC / "probcore.py").read_text())
    names = {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id.endswith(("_TOL", "_FLOOR", "_EPS"))
    }
    assert names == set(TABLE)
    assert {name: getattr(probcore, name) for name in TABLE} == TABLE


def test_no_module_defines_a_retired_tolerance_name():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
        assert not defined & RETIRED, path.name
