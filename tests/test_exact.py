"""No floating point enters an answer path.

Scans the modules that compute answers for float or complex literals, the
names ``float`` and ``complex``, imports of floating-point modules, and true
division.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgn"
MODULES = ("graph", "linalg", "figures", "reduction", "formulas", "families")
FLOAT_MODULES = {"math", "cmath", "statistics", "decimal"}


def _float_uses(module: str) -> list[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
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
            found.append(f"{where} true division")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_floating_point_in_answer_paths(module):
    assert _float_uses(module) == []
