"""Every name a module imports is used in it, the package imports only the
standard library, the closed forms import no route module, the package reads
no environment variable, and every basic figure comes through one guarded
entry to the figure stream."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgn"

# names imported only so that a caller outside the package can rebind them:
# perfbench/tracing.py patches each of them in its module
ALLOWED = {
    ("verify", "iter_signed_corpus"),
    ("verify", "is_max_nullity_extremal"),
    ("reduction", "components"),
    ("reduction", "cut_points"),
    ("reduction", "delete_vertices"),
    ("reduction", "pendant_pairs"),
    ("reduction", "try_cutpoint_case1"),
    ("reduction", "try_cutpoint_case2"),
}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used and (path.stem, name) not in ALLOWED)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _top_level_imports(path: Path) -> set[str]:
    """The first component of every absolute import in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_imports_only_the_standard_library(path):
    # networkx in particular: the n <= 7 corpus comes from sgn.atlas
    assert _top_level_imports(path) - sys.stdlib_module_names == set()


def test_corpus_sweeps_run_without_networkx():
    # a None entry in sys.modules makes every import of networkx fail
    code = (
        "import sys; sys.modules['networkx'] = None\n"
        "from sgn import verify_theorem\n"
        "for tid in ('thm3.1', 'thm3.2', 'pendant'):\n"
        "    assert verify_theorem(tid, n_max=5).passed, tid\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# the closed forms are a route of their own: no rank, figure, reduction or
# family code may back them
ROUTE_MODULES = {"linalg", "families", "figures", "reduction"}


def _imported_modules(path: Path) -> set[str]:
    """Every sgn module ``path`` imports, at module level or in a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module in ("", "sgn"):  # from . import linalg, from sgn import linalg
                found.update(alias.name for alias in node.names)
            else:
                found.add(module)
    return found


def test_formulas_imports_no_route_module():
    assert _imported_modules(SRC / "formulas.py") & ROUTE_MODULES == set()


def test_no_environment_knobs():
    """No ``os.environ`` or ``os.getenv``, as attributes or imported from ``os``."""
    knobs = {"environ", "getenv"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & knobs:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _callers(target: str) -> list[str]:
    """``module.function`` for every call of ``target`` in the package, named
    by the innermost function around it."""
    found = []

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == target:
                found.append(f"{self.scope[0]}.{self.scope[-1]}")
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_one_figure_stream():
    """``_component_stream`` has one caller besides its own recursion: the
    entry that renumbers the vertices, maps each edge to its bit and applies
    the vertex ceiling and the figure guard."""
    callers = [c for c in _callers("_component_stream") if c != "figures._component_stream"]
    assert callers == ["figures._figure_stream"]


def test_reduction_ranks_only_in_its_base_case_and_cuts_no_vertex():
    """The engine's one call into ``linalg`` is ``nullity_rank`` in
    ``_base_case``; the cut-point decomposition and helpers live in verify."""
    tree = ast.parse((SRC / "reduction.py").read_text(encoding="utf-8"))
    from_linalg = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.asname or alias.name for alias in node.names}
            assert "linalg" not in names  # no module object to call through
            if node.module == "linalg":
                from_linalg |= names
    calls = [c for name in sorted(from_linalg) for c in _callers(name) if c.startswith("reduction.")]
    assert calls == ["reduction._base_case"]
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {name for name in defined if "cut" in name.lower()} == set()


def test_one_cycle_enumerator():
    """``figures`` finds cycles through ``_cycles_from`` alone, a walk that
    builds its list without a generator; the figure stream and the profile
    are its only callers, and ``verify`` builds no ``functools`` wrapper."""
    tree = ast.parse((SRC / "figures.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert sorted(name for name in functions if name.startswith("_cycles")) == ["_cycles_from"]
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(functions["_cycles_from"]))
    assert _callers("_cycles_from") == ["figures._component_stream", "figures._profile_from"]
    assert "functools" not in _top_level_imports(SRC / "verify.py")


def test_verify_refuses_an_oversized_grid_in_one_place():
    """Only ``verify_theorem`` writes the ``exhaustive up to`` and ``draws
    up to`` refusals: no sweep body holds a limit."""
    phrases = ("exhaustive up to", "draws up to")
    found = []

    class Strings(ast.NodeVisitor):
        def __init__(self):
            self.scope = ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Constant(self, node):
            if isinstance(node.value, str) and any(phrase in node.value for phrase in phrases):
                found.append(self.scope[-1])

    Strings().visit(ast.parse((SRC / "verify.py").read_text(encoding="utf-8")))
    assert sorted(set(found)) == ["verify_theorem"]
