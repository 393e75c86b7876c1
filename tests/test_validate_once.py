"""Each graph is validated once, at the boundary.

The public constructor, ``from_json`` and the family builders check every
edge.  Graphs the package derives from a valid graph, and parsed edge lists
after the parser's line-numbered checks, go through the unchecked
``SignedGraph._trusted``.  These tests pin both halves: every derived graph
is in the normal form the constructor would produce, the hot paths run the
constructor no more than once, the matrix routes build a graph's rows once,
and ``_trusted`` stays inside the two modules whose inputs are already valid.
"""

import ast
import random
from pathlib import Path

import pytest

from sgn.enumeration import (
    connected_graphs_upto_iso,
    force_unbalanced,
    random_signed_graph,
    random_tree_attached_bicyclic,
    signed_graphs_mod_switching,
)
from sgn import formulas, graph, linalg
from sgn.families import gen_theta, parse_family_spec
from sgn.graph import (
    GraphError,
    SignedGraph,
    _induced,
    _induced_plan,
    _signed_part,
    canonical_signature,
    components,
    cut_points,
    delete_vertices,
    is_balanced,
    parse_edge_list,
    switch,
)
from sgn.reduction import nullity_structural
from sgn.verify import _cutpoint_parts, verify_theorem
from samplers import random_low_cyclomatic_graph

SRC = Path(__file__).resolve().parent.parent / "src" / "sgn"
TRUSTED_MODULES = {"graph", "enumeration"}


def assert_normal(h):
    """``h`` is exactly what the validating constructor makes of its edges."""
    assert h == SignedGraph(h.n, h.edges)
    assert type(h.edges) is tuple
    assert all(0 <= u < v < h.n and s in (1, -1) for u, v, s in h.edges)
    assert all(a[:2] < b[:2] for a, b in zip(h.edges, h.edges[1:]))


def _edge_list_text(g, rng):
    lines = [f"{v} {u} {s}" if rng.random() < 0.5 else f"{u} {v} {s}" for u, v, s in g.edges]
    rng.shuffle(lines)
    return [f"{g.n} {g.m}\n" + "\n".join(order) for order in (lines, lines[::-1])]


def test_derived_graphs_are_in_normal_form():
    rng = random.Random(20261018)
    checked = 0
    for trial in range(400):
        n = rng.randint(1, 14)
        g = random_signed_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.8)))
        derived = [g, switch(g, [rng.choice((1, -1)) for _ in range(n)]), canonical_signature(g)]
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        derived.append(_induced(g, keep))
        derived.append(delete_vertices(g, rng.sample(range(n), rng.randint(0, n)))[0])
        for comp, _ in components(g):
            derived.append(comp)
            signs = [s for _, _, s in comp.edges]
            for v in sorted(cut_points(comp)) if comp.n else ():
                for _, gi, gi_plus_v in _cutpoint_parts(comp, v):
                    derived += [gi.graph(signs), gi_plus_v.graph(signs)]
        if g.m <= 10:
            derived.extend(signed_graphs_mod_switching(n, g.underlying_edges))
        derived.extend(parse_edge_list(text) for text in _edge_list_text(g, rng))
        if n >= 3:
            low = random_low_cyclomatic_graph(rng, n, trial % 3)
            derived.append(low)
            if trial % 3:
                derived.append(force_unbalanced(rng, low))
                assert not is_balanced(derived[-1])[0]
        if n >= 7:
            derived.append(random_tree_attached_bicyclic(rng, n, ("BPlus", "BPlusPlus", "Theta")[trial % 3]))
        for h in derived:
            assert_normal(h)
        assert parse_edge_list(_edge_list_text(g, rng)[0]) == g
        checked += len(derived)
    assert checked > 6000


def test_whole_vertex_sets_return_the_graph_itself():
    rng = random.Random(20261019)
    for n, edges in connected_graphs_upto_iso(6)[::7]:
        g = SignedGraph(n, [(u, v, rng.choice((1, -1))) for u, v in edges])
        assert components(g)[0][0] is g
        assert delete_vertices(g, ())[0] is g
        assert _induced(g, range(n)) is g
        derived = [comp for comp, _ in components(g)]
        derived += [delete_vertices(g, ())[0], delete_vertices(g, (0,))[0], _induced(g, list(range(n)))]
        for h in derived:
            assert_normal(h)


def test_isolated_vertices_are_split_off_without_an_edge_scan(monkeypatch):
    theta = gen_theta(5, 6, 7)
    g = SignedGraph(theta.n + 2000, theta.edges)
    calls = []

    def spy(host, keep):
        calls.append(len(keep))
        return _induced(host, keep)

    monkeypatch.setattr(graph, "_induced", spy)
    split = components(g)
    assert calls == [theta.n]
    assert split[0] == (theta, tuple(range(theta.n)))
    assert [labels for _, labels in split[1:]] == [(v,) for v in range(theta.n, g.n)]
    for h, _ in split[1:]:
        assert h == SignedGraph(1, [])
        assert_normal(h)


def test_planned_parts_equal_the_induced_subgraphs():
    # a plan is made once per underlying graph and signed per switching class
    rng = random.Random(20261020)
    for n, edges in connected_graphs_upto_iso(6)[::5]:
        positive = SignedGraph(n, [(u, v, 1) for u, v in edges])
        keeps = [sorted(rng.sample(range(n), k)) for k in range(n + 1)]
        plans = [_induced_plan(positive, keep) for keep in keeps]
        for g in signed_graphs_mod_switching(n, edges):
            signs = [s for _, _, s in g.edges]
            for keep, plan in zip(keeps, plans):
                part = _signed_part(plan, [signs[i] for i, _, _ in plan[1]])
                assert part == _induced(g, keep)
                assert_normal(part)


class _CountingInit:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = SignedGraph.__init__

        def counting(graph, *args, **kwargs):
            self.calls += 1
            original(graph, *args, **kwargs)

        monkeypatch.setattr(SignedGraph, "__init__", counting)


@pytest.mark.parametrize("spec", ["tree", "infinity:p=4,q=3,l=2"])
def test_structural_route_runs_no_constructor_checks(monkeypatch, spec):
    if spec == "tree":
        g = random_low_cyclomatic_graph(random.Random(300), 300, 0)
    else:
        g = parse_family_spec(spec)
    counter = _CountingInit(monkeypatch)
    value, trace = nullity_structural(g)
    assert counter.calls == 0
    assert trace.steps and value == trace.replay()


def test_switching_classes_validate_once_per_call(monkeypatch):
    counter = _CountingInit(monkeypatch)
    for n, edges, classes in [(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)), 4), (3, ((0, 1),), 1), (2, (), 1)]:
        before = counter.calls
        assert len(list(signed_graphs_mod_switching(n, edges))) == classes
        assert counter.calls == before + 1


def test_tree_attached_sampler_validates_only_its_base(monkeypatch):
    # one gen_infinity base per sample; the sample itself is trusted
    counter = _CountingInit(monkeypatch)
    assert verify_theorem("bounds.bplus", samples=50).cases_checked == 50
    assert counter.calls == 50


@pytest.mark.parametrize("theorem_id", ["thm3.1", "thm3.2", "pendant"])
def test_corpus_sweeps_validate_each_atlas_graph_once(monkeypatch, theorem_id):
    counter = _CountingInit(monkeypatch)
    assert verify_theorem(theorem_id, n_max=5).cases_checked > 0
    assert counter.calls == len(connected_graphs_upto_iso(5))


def test_bicyclic_sweep_skips_the_extremal_tests_hypothesis_checks(monkeypatch):
    # lem5.2's graphs are connected and bicyclic by construction and
    # unbalanced by the skipped first class, so the sweep tests them for the
    # diamond without the public function's three checks, which still raise
    def refuse(*args):
        raise AssertionError("a hypothesis check ran")

    with monkeypatch.context() as m:
        for name in ("components", "is_balanced"):
            m.setattr(formulas, name, refuse)
        report = verify_theorem("lem5.2", n_max=5)
    assert report.passed and report.cases_checked == 633
    for g, message in ((SignedGraph(5, [(0, 1, 1), (2, 3, 1)]), "connected"),
                       (SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]), "bicyclic"),
                       (SignedGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 0, 1)]), "unbalanced")):
        with pytest.raises(GraphError, match=f"extremal test needs an? {message} graph"):
            formulas.is_max_nullity_extremal(g)


def test_matrix_routes_build_the_rows_once_and_check_nothing(monkeypatch):
    # a validated graph needs no matrix checks: the graph routes never reach
    # the public matrix functions or the entry check, and build rows once
    rng = random.Random(48)
    graphs = [random_signed_graph(rng, n, 0.3) for n in (1, 6, 47, 48, 60)]
    want = [(linalg.nullity_rank(g), linalg.nullity_charpoly(g)) for g in graphs]

    def refuse(*args):
        raise AssertionError("a matrix check ran")

    for name in ("_as_rows", "adjacency_matrix", "rank", "char_poly"):
        monkeypatch.setattr(linalg, name, refuse)
    built = []
    rows = linalg._adjacency_rows
    monkeypatch.setattr(linalg, "_adjacency_rows", lambda g: built.append(g) or rows(g))
    for g, (eta_rank, eta_charpoly) in zip(graphs, want):
        built.clear()
        assert linalg.nullity_rank(g) == eta_rank
        assert linalg.nullity_charpoly(g) == eta_charpoly
        assert built == [g, g]


def _names(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.alias)):
            yield node.name


def test_trusted_constructor_stays_inside_graph_and_enumeration():
    users = {p.stem for p in SRC.glob("*.py") if "_trusted" in set(_names(p.stem))}
    assert users == TRUSTED_MODULES
