"""No floating point enters an answer path.

Scans the modules that compute answers for float or complex literals, the
names ``float`` and ``complex``, imports of floating-point modules, and true
division, which is allowed only where ``char_poly_interpolated`` divides
``Fraction``s.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgn"
MODULES = ("graph", "linalg", "figures", "reduction", "formulas", "families")
FLOAT_MODULES = {"math", "cmath", "statistics", "decimal"}
DIVISION_ALLOWED = {("linalg", "char_poly_interpolated")}


def _float_uses(module: str) -> list[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        where = f"{module}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"{where} name {node.id}")
        elif isinstance(node, ast.Import):
            found.extend(f"{where} import {a.name}" for a in node.names if a.name.split(".")[0] in FLOAT_MODULES)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in FLOAT_MODULES:
            found.append(f"{where} import from {node.module}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if (module, function) not in DIVISION_ALLOWED:
                found.append(f"{where} true division")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_floating_point_in_answer_paths(module):
    assert _float_uses(module) == []
