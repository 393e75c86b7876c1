"""Structural reduction engine and its certificates."""

import dataclasses
import hashlib
import inspect
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgn import (
    GraphError,
    SignedGraph,
    components,
    cut_points,
    delete_vertices,
    nullity_rank,
    nullity_structural,
    parse_family_spec,
    pendant_pairs,
    peel_pendants,
    try_cutpoint_case1,
    try_cutpoint_case2,
)
from sgn import reduction
from sgn.enumeration import random_low_cyclomatic_graph, random_signed_graph
from sgn.families import gen_cycle, gen_figure, gen_infinity, gen_path, gen_star
from sgn.graph import _induced
from sgn.reduction import (
    KIND_BASE_CASE,
    KIND_COMPONENT_SPLIT,
    KIND_CUTPOINT_DECREMENT,
    KIND_CUTPOINT_SPLIT,
    KIND_PENDANT_DELETE,
    METHOD_CLOSED_FORM,
)


def test_pendant_on_p4():
    reduced, step = peel_pendants(gen_path(4))
    assert step.pairs == ((0, 1), (2, 3))
    assert reduced == SignedGraph(0, [])
    # the first pair alone leaves P2
    assert delete_vertices(gen_path(4), step.pairs[0])[0] == gen_path(2)
    assert nullity_rank(reduced) == nullity_rank(gen_path(4))


def test_pendant_on_star():
    reduced, step = peel_pendants(gen_star(5))
    assert reduced.n == 3 and reduced.m == 0
    assert step.pairs == ((1, 0),)  # the center goes with the first leaf


def test_pendant_noop_on_cycle():
    assert peel_pendants(gen_cycle(5, 1)) is None


def test_pendant_chain_on_g1_reaches_stated_form():
    # one leaf-plus-junction deletion on the n=10 star-decorated graph leaves
    # one edge, one balanced quadrangle, and n - 8 isolated vertices
    g = gen_figure("G1", n=10)
    eta = nullity_rank(g)
    first = pendant_pairs(g)[0]
    one, _ = delete_vertices(g, first)
    sizes = sorted((c.n, c.m) for c, _ in components(one))
    assert sizes == [(1, 0), (1, 0), (2, 1), (4, 4)]
    assert nullity_rank(one) == eta == 4
    # the peel starts with that deletion, consumes the edge and keeps the nullity
    reduced, step = peel_pendants(g)
    assert step.pairs[0] == first
    assert sorted((c.n, c.m) for c, _ in components(reduced)) == [(1, 0), (1, 0), (4, 4)]
    assert nullity_rank(reduced) == eta


def _one_pair_at_a_time(g):
    """The peel as the engine once ran it: the lowest-labeled pendant pair,
    deleted through ``delete_vertices``, until none is left.  Returns the
    final graph and the pairs in ``g``'s labels."""
    labels = tuple(range(g.n))
    pairs = []
    while hit := pendant_pairs(g):
        v, u = hit[0]
        pairs.append((labels[v], labels[u]))
        g, keep = delete_vertices(g, (v, u))
        labels = tuple(labels[i] for i in keep)
    return g, tuple(pairs)


def _assert_peel_matches_one_pair_loop(g):
    reduced, pairs = _one_pair_at_a_time(g)
    hit = peel_pendants(g)
    if not pairs:
        assert hit is None
        return
    assert hit is not None
    got, step = hit
    assert (got, step.pairs) == (reduced, pairs)
    assert step.after == (got,) and step.before is g


def test_peel_matches_one_pair_loop_on_low_cyclomatic_graphs():
    rng = random.Random(17)
    peeled = 0
    for _ in range(300):
        g = random_low_cyclomatic_graph(rng, rng.randint(1, 40), rng.randint(0, 2))
        _assert_peel_matches_one_pair_loop(g)
        peeled += bool(pendant_pairs(g))
    assert peeled > 200


def test_edgeless_graph_is_one_base_case():
    # a forest peeled to k isolated vertices ends in one closed-form step
    value, trace = nullity_structural(gen_star(6))
    assert value == 4
    assert [s.kind for s in trace.steps] == [KIND_PENDANT_DELETE, KIND_BASE_CASE]
    base = trace.steps[-1]
    assert (base.before.n, base.method, base.value) == (4, METHOD_CLOSED_FORM, 4)
    value, trace = nullity_structural(SignedGraph(3, []))
    assert value == trace.replay() == 3 and len(trace.steps) == 1


def _tree_nullity(n, parent):
    """n - 2 * (maximum matching) of the tree with ``parent[v] < v``: a
    leaf-first greedy match is maximum on a tree."""
    matched = [False] * n
    size = 0
    for v in range(n - 1, 0, -1):
        if not matched[v] and not matched[parent[v]]:
            matched[v] = matched[parent[v]] = True
            size += 1
    return n - 2 * size


def test_long_path_and_tree_peel_in_one_step():
    # the certificate holds the root, one remainder and its base case, so
    # its snapshots hold at most 2n + 2 vertices
    n = 100_000
    rng = random.Random(100)
    parent = [0] + [rng.randrange(v) for v in range(1, n)]
    tree = SignedGraph(n, [(parent[v], v, rng.choice((1, -1))) for v in range(1, n)])
    for g, eta in ((gen_path(n), 0), (gen_path(n - 1), 1), (tree, _tree_nullity(n, parent))):
        value, trace = nullity_structural(g)
        assert value == trace.replay() == eta
        assert len(trace.steps) <= 3
        snapshot = sum(s.before.n + sum(h.n for h in s.after) for s in trace.steps)
        assert snapshot <= 2 * g.n + 2


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
    # nullity k, via one peel to k isolated vertices
    g = gen_figure("G2", n=11, k=3)
    value, trace = nullity_structural(g)
    assert value == 3 == nullity_rank(g)
    assert [s.kind for s in trace.steps] == [KIND_PENDANT_DELETE, KIND_BASE_CASE]
    assert trace.steps[-1].before == SignedGraph(3, [])


def test_trace_replay_and_json():
    g = gen_figure("G4", n=10, k=2)
    value, trace = nullity_structural(g)
    assert trace.replay() == value == 2
    blob = json.loads(trace.to_json())
    assert blob["result"] == 2
    assert blob["root"]["n"] == 10
    assert all("relation" in s for s in blob["steps"])


def test_trace_replay_rejects_a_tampered_trace():
    # G8's last step is the only one that resolves its graph
    _, trace = nullity_structural(gen_figure("G8", n=12, k=3))
    steps = trace.steps
    tampered = {
        "step references an unresolved graph": dataclasses.replace(trace, steps=steps[:-1]),
        "unknown step kind 'Bogus'": dataclasses.replace(
            trace, steps=(dataclasses.replace(steps[0], kind="Bogus"),) + steps[1:]
        ),
        "root graph never resolved": dataclasses.replace(trace, root=gen_path(2)),
    }
    for message, bad in tampered.items():
        with pytest.raises(GraphError, match=f"^trace replay: {message}$"):
            bad.replay()


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


@given(signed_graphs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_peel_matches_one_pair_loop_on_hypothesis_graphs(g):
    _assert_peel_matches_one_pair_loop(g)


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


# sha256 of the certificate JSON, one PendantDelete step holding every pair
# of a peel and an edgeless graph one base case; any change to the bytes of
# a certificate shows here
CERTIFICATE_SHA256 = {
    # decrement rule, then a peel to the empty graph
    "infinity:p=3,q=4,l=2,sp=1,sq=0": "6f564aa1b4d4ce2cbca655e7bc091a0bf2e778ba8b1eaac4f94fc6cb465715fb",
    # split rule
    "infinity:p=3,q=4,l=1,sp=0,sq=0": "d4d209692fd6d8346cfcd373944dee97c642145547318e27b68ceae4ca851051",
    # a peel to two isolated vertices, one isolated-vertex base case
    "figure:id=G4,n=10,k=2": "9414afe406df91c5ad3d02787db9f8398b6379743d7cd60ab72252554f69f321",
    # a peel to a quadrangle and two isolated vertices: component split,
    # cycle and single-vertex base cases
    "figure:id=G1,n=10": "1fd633b4a712365a5956eeee14e105a98d4eea54e6a1513090a41bb2bbb4bb55",
    # rank-oracle base case
    "theta:p=2,q=3,l=4,s1=1": "9f005b72ca658b5e6ae3b0fbae2a749892eaf1867705d4e69cb3b22f814620de",
    # cycle closed form
    "cycle:n=6,s=1": "2fa200a610924fce8dafea9c8f449146ab10f228f8c525f6d5d9b3b104b1d6d7",
    # four pairs in one step, then the empty-graph base case
    "path:n=8": "e80a30942a28b2c63bcc5649fc6684ad8ab6e36d5c8bd4472fcdc00ce17b0d9f",
    # the split rule applies at cut point 0, but the decrement rule at cut
    # point 4 comes first in rule order
    "infinity:p=4,q=3,l=2,sp=0,sq=0": "360ba7f1aa50672ee077730f6afcb223f212e9d7fbd5ad752a412fac3dbcca1b",
}


def test_pinned_certificates_cover_every_step_kind_and_method():
    seen = set()
    for spec in CERTIFICATE_SHA256:
        for step in nullity_structural(parse_family_spec(spec))[1].steps:
            seen.add((step.kind, step.method))
    assert seen == {
        (KIND_COMPONENT_SPLIT, None),
        (KIND_PENDANT_DELETE, None),
        (KIND_CUTPOINT_DECREMENT, None),
        (KIND_CUTPOINT_SPLIT, None),
        (KIND_BASE_CASE, METHOD_CLOSED_FORM),
        (KIND_BASE_CASE, reduction.METHOD_RANK_ORACLE),
    }


@pytest.mark.parametrize("spec", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_pinned(spec):
    trace = nullity_structural(parse_family_spec(spec))[1]
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == CERTIFICATE_SHA256[spec]


def test_cutpoint_parts_equal_the_build_through_g_minus_v():
    # the parts were once built from the whole graph G - v, split into
    # components whose label maps were composed back to G's labels
    rng = random.Random(20261018)
    checked = 0
    for _ in range(300):
        g = random_signed_graph(rng, rng.randint(2, 12), edge_prob=rng.choice((0.15, 0.25, 0.4)))
        for h, _ in components(g):
            for v in sorted(cut_points(h)):
                without, keep = delete_vertices(h, (v,))
                old = []
                for comp, comp_map in components(without):
                    original = tuple(keep[i] for i in comp_map)
                    old.append((comp, original, _induced(h, sorted((*original, v)))))
                assert reduction._cutpoint_parts(h, v) == old
                checked += 1
    assert checked == 381


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
            if step.kind not in (KIND_COMPONENT_SPLIT, KIND_PENDANT_DELETE) and step.before.m > 0
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


def test_certificates_keep_no_adjacency_lists():
    # a certificate keeps every graph it decides; their cached adjacency
    # lists once made up 221 MB of a 2 000-vertex path's 310 MB trace.  The
    # root is the caller's graph and keeps its lists for the caller's use.
    for spec in sorted(CERTIFICATE_SHA256):
        g = parse_family_spec(spec)
        trace = nullity_structural(g)[1]
        derived = [h for step in trace.steps for h in (step.before, *step.after) if h is not g]
        assert trace.root is g
        assert not any("_adj" in vars(h) for h in derived)
    g = gen_path(2000)
    tracemalloc.start()
    try:
        value, trace = nullity_structural(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == trace.replay() == 0
    assert peak < 150 << 20
