"""No floating point enters an answer path.

Scans the modules that compute answers for float or complex literals, the
names ``float`` and ``complex``, imports of floating-point modules, and true
division.  From ``math`` only its integer functions ``gcd``, ``isqrt`` and
``lcm`` may be imported, by name; ``import math`` would expose the rest.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgn"
MODULES = ("graph", "linalg", "figures", "reduction", "formulas", "families")
FLOAT_MODULES = {"math", "cmath", "statistics", "decimal"}
INTEGER_MATH = {"gcd", "isqrt", "lcm"}


def _float_uses(source: str, module: str = "snippet") -> list[str]:
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"{where} name {node.id}")
        elif isinstance(node, ast.Import):
            found.extend(f"{where} import {a.name}" for a in node.names if a.name.split(".")[0] in FLOAT_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where} import from math {a.name}" for a in node.names if a.name not in INTEGER_MATH)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in FLOAT_MODULES:
            found.append(f"{where} import from {node.module}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where} true division")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_floating_point_in_answer_paths(module):
    assert _float_uses((SRC / f"{module}.py").read_text(encoding="utf-8"), module) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from math import gcd, isqrt, lcm", []),
        ("from math import sqrt", ["snippet:1 import from math sqrt"]),
        ("from math import isqrt, log", ["snippet:1 import from math log"]),
        ("from math import *", ["snippet:1 import from math *"]),
        ("import math", ["snippet:1 import math"]),
        ("import math.foo", ["snippet:1 import math.foo"]),
        ("from cmath import phase", ["snippet:1 import from cmath"]),
        ("from fractions import Fraction", []),
        ("x = 1.5", ["snippet:1 literal 1.5"]),
        ("x = float(3)", ["snippet:1 name float"]),
        ("x = 3 / 2", ["snippet:1 true division"]),
        ("x = 3 // 2", []),
    ],
)
def test_float_scan_flags_every_float_entry(source, found):
    assert _float_uses(source) == found
