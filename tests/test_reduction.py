"""Structural reduction engine and its certificates."""

import hashlib
import inspect
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgn import (
    GraphError,
    SignedGraph,
    apply_pendant,
    components,
    nullity_rank,
    nullity_structural,
    parse_family_spec,
    try_cutpoint_case1,
    try_cutpoint_case2,
)
from sgn import reduction
from sgn.families import gen_cycle, gen_figure, gen_infinity, gen_path, gen_star
from sgn.reduction import (
    KIND_BASE_CASE,
    KIND_COMPONENT_SPLIT,
    KIND_CUTPOINT_DECREMENT,
    KIND_CUTPOINT_SPLIT,
    KIND_PENDANT_DELETE,
    METHOD_CLOSED_FORM,
)


def test_pendant_on_p4():
    reduced, step = apply_pendant(gen_path(4))
    assert reduced == gen_path(2)
    assert step.pendant == 0 and step.neighbor == 1
    assert nullity_rank(reduced) == nullity_rank(gen_path(4))


def test_pendant_on_star():
    reduced, step = apply_pendant(gen_star(5))
    assert reduced.n == 3 and reduced.m == 0
    assert step.neighbor == 0  # the center goes with the first leaf


def test_pendant_noop_on_cycle():
    assert apply_pendant(gen_cycle(5, 1)) is None


def test_pendant_chain_on_g1_reaches_stated_form():
    # one leaf-plus-junction deletion on the n=10 star-decorated graph leaves
    # one edge, one balanced quadrangle, and n - 8 isolated vertices
    g = gen_figure("G1", n=10)
    eta = nullity_rank(g)
    g, _ = apply_pendant(g)
    sizes = sorted((c.n, c.m) for c, _ in components(g))
    assert sizes == [(1, 0), (1, 0), (2, 1), (4, 4)]
    assert nullity_rank(g) == eta == 4
    # further deletions consume the edge but keep the nullity
    while (hit := apply_pendant(g)) is not None:
        g = hit[0]
    assert nullity_rank(g) == eta


def test_cutpoint_case1_p3_center():
    parts, step = try_cutpoint_case1(gen_path(3), 1)
    assert len(parts) == 2 and all(p.n == 1 for p in parts)
    assert step.cut_point == 1
    # eta = 1 + 1 - 1 matches the path closed form
    assert sum(nullity_rank(p) for p in parts) - 1 == 1 == nullity_rank(gen_path(3))


def test_cutpoint_case1_even_cycle_with_nullity_zero():
    # infinity graph with an unbalanced quadrangle: eta(C4) = 0, so deleting
    # the junction raises the component nullity and the decrement rule fires
    g = gen_infinity(4, 3, 2, 1, 0)
    got = try_cutpoint_case1(g, 0)
    assert got is not None
    parts, step = got
    assert nullity_rank(g) == sum(nullity_rank(p) for p in parts) - 1


def test_cutpoint_case1_not_applicable_at_balanced_c4():
    # balanced C4 has eta 2 while C4 - v is P3 with eta 1, so the decrement
    # hypothesis fails at the junction of the quadrangle
    g = gen_infinity(4, 3, 2, 0, 0)
    assert try_cutpoint_case1(g, 0) is None


def test_cutpoint_case2_balanced_c4():
    g = gen_infinity(4, 3, 2, 0, 0)
    got = try_cutpoint_case2(g, 0)
    assert got is not None
    (part, rest), step = got
    assert nullity_rank(g) == nullity_rank(part) + nullity_rank(rest)
    assert step.kind == KIND_CUTPOINT_SPLIT


def test_cutpoint_requires_cut_point():
    with pytest.raises(GraphError):
        try_cutpoint_case1(gen_cycle(4, 0), 0)
    with pytest.raises(GraphError):
        try_cutpoint_case2(gen_cycle(4, 0), 0)


def test_tree_reduces_by_pendant_deletion_only():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
        tree = SignedGraph(n, edges)
        value, trace = nullity_structural(tree)
        assert value == nullity_rank(tree)
        kinds = {s.kind for s in trace.steps}
        assert KIND_CUTPOINT_DECREMENT not in kinds
        assert KIND_CUTPOINT_SPLIT not in kinds
        # every base case is isolated vertices (or the empty remainder)
        for s in trace.steps:
            if s.kind == KIND_BASE_CASE:
                assert s.method == METHOD_CLOSED_FORM
                assert s.before.m == 0


def test_pendant_preserves_nullity_on_random_attachments():
    # random trees with up to two extra edges, n <= 12: deleting any pendant
    # pair leaves the nullity unchanged (oracle-checked)
    rng = random.Random(9)
    from sgn import delete_vertices, pendant_pairs
    from sgn.enumeration import random_low_cyclomatic_graph

    checked = 0
    for _ in range(150):
        g = random_low_cyclomatic_graph(rng, rng.randint(3, 12), rng.randint(0, 2))
        eta = nullity_rank(g)
        for v, u in pendant_pairs(g):
            reduced, _ = delete_vertices(g, (v, u))
            assert nullity_rank(reduced) == eta
            checked += 1
    assert checked > 200


def test_cycle_base_case_closed_form():
    value, trace = nullity_structural(gen_cycle(8, 0))
    assert value == 2
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.kind == KIND_BASE_CASE and step.method == METHOD_CLOSED_FORM


def test_g2_reduction_reaches_stated_nullity():
    # two unbalanced triangles with a connecting path and extra leaves:
    # nullity k, via pendant deletions and a component split
    g = gen_figure("G2", n=11, k=3)
    value, trace = nullity_structural(g)
    assert value == 3 == nullity_rank(g)
    kinds = [s.kind for s in trace.steps]
    assert KIND_PENDANT_DELETE in kinds and KIND_COMPONENT_SPLIT in kinds


def test_trace_replay_and_json():
    g = gen_figure("G4", n=10, k=2)
    value, trace = nullity_structural(g)
    assert trace.replay() == value == 2
    blob = json.loads(trace.to_json())
    assert blob["result"] == 2
    assert blob["root"]["n"] == 10
    assert all("relation" in s for s in blob["steps"])


def _oracle_check_step(step):
    before = nullity_rank(step.before)
    parts = [nullity_rank(h) for h in step.after]
    if step.kind == KIND_PENDANT_DELETE:
        assert before == parts[0]
    elif step.kind == KIND_COMPONENT_SPLIT:
        assert before == sum(parts)
    elif step.kind == KIND_CUTPOINT_DECREMENT:
        assert before == sum(parts) - 1
    elif step.kind == KIND_CUTPOINT_SPLIT:
        assert before == sum(parts)
    elif step.kind == KIND_BASE_CASE:
        assert before == step.value
    else:
        raise AssertionError(f"unknown step kind {step.kind}")


@st.composite
def signed_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


@given(signed_graphs())
@settings(max_examples=60, deadline=None)
def test_structural_matches_rank_and_every_step_holds(g):
    value, trace = nullity_structural(g)
    assert value == nullity_rank(g)
    assert trace.replay() == value
    for step in trace.steps:
        _oracle_check_step(step)


def _caterpillar(rng, n):
    """Random signed caterpillar: a spine path, every other vertex a leaf of it."""
    spine = rng.randint(n // 3, n // 2)
    edges = [(v - 1, v, rng.choice((1, -1))) for v in range(1, spine)]
    edges += [(rng.randrange(spine), v, rng.choice((1, -1))) for v in range(spine, n)]
    return SignedGraph(n, edges)


def test_long_reductions_need_no_recursion():
    # a reduction step once cost a stack frame, and a 2 000-vertex path hit
    # RecursionError; a limit just above the current depth catches any regress
    graphs = [gen_path(400), _caterpillar(random.Random(4), 401)]
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        for g in graphs:
            value, trace = nullity_structural(g)
            assert value == trace.replay() == nullity_rank(g)
    finally:
        sys.setrecursionlimit(limit)


# sha256 of the certificate JSON as the recursive engine wrote it; the
# iterative engine must reproduce these bytes exactly
CERTIFICATE_SHA256 = {
    # decrement rule
    "infinity:p=3,q=4,l=2,sp=1,sq=0": "3e5a16fc3b03f1598b034550cf4ca5b33e4760ba36be4fb0f44b88c289460e9a",
    # split rule
    "infinity:p=3,q=4,l=1,sp=0,sq=0": "8c5cc83b773dfe905ecd80e9e4f4e3c36c0ba285d0b10d5feb4493503e5df735",
    # component split, isolated-vertex and empty-graph base cases
    "figure:id=G4,n=10,k=2": "5b6b7ccfd60df89f65ea9bffab4f35bff214feee836009b887f3ddbdfe9df061",
    # rank-oracle base case
    "theta:p=2,q=3,l=4,s1=1": "9f005b72ca658b5e6ae3b0fbae2a749892eaf1867705d4e69cb3b22f814620de",
    "cycle:n=6,s=1": "2fa200a610924fce8dafea9c8f449146ab10f228f8c525f6d5d9b3b104b1d6d7",
    "path:n=8": "e998d55dfc0b61de5359d99d79602fe1a9bad7f6933fd49a78b97543c032bd58",
    # the split rule applies at cut point 0, but the decrement rule at cut
    # point 4 comes first in rule order
    "infinity:p=4,q=3,l=2,sp=0,sq=0": "579b5e5ca6725a007a7d22d651660a1638e301b7a67c9090dfac58e41d86f3ed",
}


@pytest.mark.parametrize("spec", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_pinned(spec):
    trace = nullity_structural(parse_family_spec(spec))[1]
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == CERTIFICATE_SHA256[spec]


def test_each_cut_point_is_decided_once(monkeypatch):
    cases = [
        # the decrement rule misses at the one cut point and the split rule
        # applies there; its decomposition and ranks must be reused
        (parse_family_spec("infinity:p=3,q=4,l=1,sp=0,sq=0"), KIND_CUTPOINT_SPLIT),
        # two unbalanced triangles joined by the edge (0,3): neither rule
        # applies at either cut point, and the triangle, a part or G_i + v at
        # both, is ranked once
        (
            SignedGraph(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, -1), (3, 4, 1), (3, 5, 1), (4, 5, -1)]),
            KIND_BASE_CASE,
        ),
    ]
    log = []
    real_cut_points, real_rank = reduction.cut_points, reduction.nullity_rank
    monkeypatch.setattr(reduction, "cut_points", lambda g: log.append(("cut", g)) or real_cut_points(g))
    monkeypatch.setattr(reduction, "nullity_rank", lambda g: log.append(("rank", g)) or real_rank(g))
    for g, kind in cases:
        log.clear()
        trace = nullity_structural(g)[1]
        assert kind in [step.kind for step in trace.steps]
        decided = [
            step.before
            for step in trace.steps
            if step.kind not in (KIND_COMPONENT_SPLIT, KIND_PENDANT_DELETE) and step.before.n > 0
        ]
        assert [h for what, h in log if what == "cut"] == decided
        # the ranks made after a cut_points call, up to the next one, serve one decision
        ranked = []
        for what, h in log:
            if what == "cut":
                ranked = []
            else:
                assert h not in ranked
                ranked.append(h)
