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
from sgn import reduction, verify
from sgn.enumeration import iter_signed_corpus, random_signed_graph, random_switching
from sgn.families import bicyclic_class, gen_cycle, gen_figure, gen_infinity, gen_path, gen_star, gen_theta
from sgn.formulas import nullity_infinity, nullity_theta
from sgn.graph import MAX_VERTICES, _induced, _neighbor_lists, switch
from sgn.reduction import (
    KIND_BASE_CASE,
    KIND_COMPONENT_SPLIT,
    KIND_PENDANT_DELETE,
    METHOD_CLOSED_FORM,
)
from samplers import random_low_cyclomatic_graph


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


def _relabel(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SignedGraph(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges])


def _refuse_rank(monkeypatch):
    def refuse(g):
        raise AssertionError(f"rank oracle called on a graph with n = {g.n}, m = {g.m}")

    monkeypatch.setattr(reduction, "nullity_rank", refuse)


def _random_core(rng, kind, high):
    """A bare signed core of the kind, its cycles and paths at most ``high``
    edges long, with uniform signs."""
    if kind == "Theta":
        while True:
            lengths = [rng.randint(1, high) for _ in range(3)]
            if lengths.count(1) <= 1:
                break
        core = gen_theta(*lengths)
    else:
        l = 1 if kind == "BPlusPlus" else rng.randint(2, high)
        core = gen_infinity(rng.randint(3, high), rng.randint(3, high), l)
    return SignedGraph(core.n, [(u, v, rng.choice((1, -1))) for u, v, _ in core.edges])


def test_theta_and_infinity_branches_are_read_in_any_labeling():
    rng = random.Random(41)
    for _ in range(200):
        if rng.random() < 0.5:
            while True:
                lengths = tuple(rng.randint(1, 9) for _ in range(3))
                if lengths.count(1) <= 1:
                    break
            parities = tuple(rng.randint(0, 1) for _ in range(3))
            g = _relabel(rng, gen_theta(*lengths, *parities))
            want = sorted(zip(lengths, parities))
            eta = nullity_theta(*lengths, *parities)
        else:
            p, q, l, sp, sq = rng.randint(3, 9), rng.randint(3, 9), rng.randint(1, 6), rng.randint(0, 1), rng.randint(0, 1)
            g = _relabel(rng, gen_infinity(p, q, l, sp, sq))
            # the loops first, then the connecting path, which is all positive
            want = sorted([(p, sp), (q, sq)]) + ([(l - 1, 0)] if l > 1 else [])
            eta = nullity_infinity(p, q, l, sp, sq)
        branches = reduction._branches(g, _neighbor_lists(g))
        loops = sorted((length, parity) for a, b, length, parity in branches if a == b)
        paths = sorted((length, parity) for a, b, length, parity in branches if a != b)
        assert loops + paths == want
        value, trace = nullity_structural(g)
        assert value == eta == nullity_rank(g) == trace.replay()
        assert len(trace.steps) == 1 and trace.steps[0].method == METHOD_CLOSED_FORM
        # switching moves the negative edges but keeps the value
        h = switch(g, random_switching(rng, g.n))
        assert nullity_structural(h)[0] == eta


def test_low_cyclomatic_graphs_make_no_rank_call(monkeypatch):
    rng = random.Random(42)
    graphs = [random_low_cyclomatic_graph(rng, rng.randint(1, 30), rng.randint(0, 2)) for _ in range(400)]
    # two components with c <= 2 each, so that a component split comes first
    for _ in range(50):
        a, b = (random_low_cyclomatic_graph(rng, rng.randint(3, 12), 2) for _ in range(2))
        graphs.append(SignedGraph(a.n + b.n, [*a.edges, *((u + a.n, v + a.n, s) for u, v, s in b.edges)]))
    want = [nullity_rank(g) for g in graphs]
    _refuse_rank(monkeypatch)
    for g, eta in zip(graphs, want):
        value, trace = nullity_structural(g)
        assert value == eta == trace.replay()


def _attach_pairs(rng, core, n):
    """``core`` plus (n - core.n) / 2 new pairs x-y, each x joined to a
    uniform earlier vertex: the peel deletes exactly the pairs, because a
    vertex's partner is deleted with it and no core vertex loses a core
    neighbor, so eta(G) = eta(core) by the pendant lemma."""
    edges = list(core.edges)
    for x in range(core.n, n, 2):
        edges += [(rng.randrange(x), x, rng.choice((1, -1))), (x, x + 1, rng.choice((1, -1)))]
    return SignedGraph(n, edges)


def test_large_bicyclic_graphs_reduce_without_the_rank_oracle(monkeypatch):
    n = 100_000
    rng = random.Random(43)
    cases = []
    for kind in ("BPlus", "BPlusPlus", "Theta"):
        core = _random_core(rng, kind, 40)
        while (n - core.n) % 2:
            core = _random_core(rng, kind, 40)
        g = _relabel(rng, _attach_pairs(rng, core, n))
        assert bicyclic_class(g) == kind
        cases.append((g, nullity_rank(core)))
    # the sparse benchmark's bare theta core: three paths, 300 vertices
    while True:
        p, q = rng.randint(2, 300), rng.randint(2, 300)
        if 301 - p - q >= 2:
            break
    theta = gen_theta(p, q, 301 - p - q)
    core = _relabel(rng, SignedGraph(theta.n, [(u, v, rng.choice((1, -1))) for u, v, _ in theta.edges]))
    cases.append((core, nullity_rank(core)))
    _refuse_rank(monkeypatch)
    for g, eta in cases:
        value, trace = nullity_structural(g)
        assert value == trace.replay() == eta
        assert len(trace.steps) <= 3


def test_cutpoint_case1_p3_center():
    parts, idx = try_cutpoint_case1(gen_path(3), 1)
    assert len(parts) == 2 and all(p.n == 1 for p in parts)
    assert idx == 0
    # eta = 1 + 1 - 1 matches the path closed form
    assert sum(nullity_rank(p) for p in parts) - 1 == 1 == nullity_rank(gen_path(3))


def test_cutpoint_case1_even_cycle_with_nullity_zero():
    # infinity graph with an unbalanced quadrangle: eta(C4) = 0, so deleting
    # the junction raises the component nullity and the decrement rule fires
    g = gen_infinity(4, 3, 2, 1, 0)
    got = try_cutpoint_case1(g, 0)
    assert got is not None
    parts, _ = got
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
    (part, rest), idx = got
    assert nullity_rank(g) == nullity_rank(part) + nullity_rank(rest)
    # G - 0 is the path 1-2-3, left of the quadrangle, and the triangle
    # 4-5-6; the path has eta 1 against the balanced C4's 2, so it is G_1
    assert idx == 0 and part.n == 3


def test_cutpoint_requires_cut_point():
    with pytest.raises(GraphError):
        try_cutpoint_case1(gen_cycle(4, 0), 0)
    with pytest.raises(GraphError):
        try_cutpoint_case2(gen_cycle(4, 0), 0)


def test_cutpoint_helpers_on_the_corpus_to_order_6():
    # every (G, v) at a cut point: a helper returns None exactly when no
    # component has the rule's rank difference, else the first one that has
    # it, and the rule's formula holds on the parts it returns
    hits = {1: 0, -1: 0}
    pairs = 0
    for g in iter_signed_corpus(6):
        for v in sorted(cut_points(g)):
            pairs += 1
            signs = [s for _, _, s in g.edges]
            deltas = [
                nullity_rank(comp.graph(signs)) - nullity_rank(plus_v.graph(signs))
                for _, comp, plus_v in verify._cutpoint_parts(g, v)
            ]
            eta = nullity_rank(g)
            for delta, helper, offset in ((1, try_cutpoint_case1, -1), (-1, try_cutpoint_case2, 0)):
                got = helper(g, v)
                if delta not in deltas:
                    assert got is None
                    continue
                parts, idx = got
                assert idx == deltas.index(delta)
                assert eta == sum(nullity_rank(h) for h in parts) + offset
                hits[delta] += 1
    assert (pairs, hits) == (543, {1: 478, -1: 132})


def test_tree_reduces_by_pendant_deletion_only():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
        tree = SignedGraph(n, edges)
        value, trace = nullity_structural(tree)
        assert value == nullity_rank(tree)
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
        # every isolated vertex is in one edgeless part
        assert sum(h.m == 0 for h in step.after) <= 1
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
# a certificate shows here.  A key is a family spec or an edge list written
# "n: (u,v,s) (u,v,s) ...".  Connected pendant-free graphs with c <= 2 are
# closed forms, so the rank oracle is pinned through c >= 3 edge lists.
CERTIFICATE_SHA256 = {
    # infinity closed form, l = 2
    "infinity:p=3,q=4,l=2,sp=1,sq=0": "e659e9c813e549fae6b3a189d9d614f198ab59a3a6d49e228748f9907a020a12",
    # infinity closed form, l = 1
    "infinity:p=3,q=4,l=1,sp=0,sq=0": "744b5b77812c4ea9848a9514088d19cd6b0e568c3c37ea242991a1802f2a731b",
    # a peel to two isolated vertices, one isolated-vertex base case
    "figure:id=G4,n=10,k=2": "9414afe406df91c5ad3d02787db9f8398b6379743d7cd60ab72252554f69f321",
    # a peel to a quadrangle and two isolated vertices: a component split
    # into the quadrangle and one edgeless part, cycle and isolated-vertex
    # base cases
    "figure:id=G1,n=10": "7f596ef5b523905e44fee48cd695a639873b23a6b3ec189ac9dba2178bf35d7c",
    # theta closed form
    "theta:p=2,q=3,l=4,s1=1": "8e4ffc70d699213558e2a4ae2f07d05393daf5425f9b20888d29fdc7618dab0c",
    # cycle closed form
    "cycle:n=6,s=1": "2fa200a610924fce8dafea9c8f449146ab10f228f8c525f6d5d9b3b104b1d6d7",
    # four pairs in one step, then the empty-graph base case
    "path:n=8": "e80a30942a28b2c63bcc5649fc6684ad8ab6e36d5c8bd4472fcdc00ce17b0d9f",
    # infinity closed form, the longer cycle first
    "infinity:p=4,q=3,l=2,sp=0,sq=0": "bbfbb7ba34a620c024ab4970a4eba9711d610aafcd219433f5359f7ce038c335",
    # rank-oracle base case: a triangle and a diamond meeting at the cut
    # point 4, where the decrement rule holds but the engine does not try it
    "6: (0,4,1) (0,5,1) (1,3,1) (1,4,1) (2,3,1) (2,4,-1) (3,4,1) (4,5,1)":
        "3aa58d2bd9fe932233ad98184c8b83271112c604fdf69a114e69e4840ca80159",
    # rank-oracle base case: two triangles meeting at the cut point 4, where
    # the split rule holds but the engine does not try it
    "6: (0,4,1) (0,5,1) (1,2,1) (1,3,1) (1,4,1) (2,3,1) (2,4,1) (4,5,1)":
        "7d3bf227d791b71156bc7f874cde3fada8415074c2d61b67fa1af477a6890bb4",
    # rank-oracle base case: the all-positive K4
    "4: (0,1,1) (0,2,1) (0,3,1) (1,2,1) (1,3,1) (2,3,1)":
        "d5970c850a33a16a62b1c41ade5393a081252c6b2c8cf6cb23fbe236c4074f5a",
    # rank-oracle base case: an unbalanced triangle joined by the edge
    # (0,3) to a diamond, where the split rule holds at cut point 0 and the
    # decrement rule at cut point 3
    "7: (0,1,1) (0,2,1) (1,2,-1) (0,3,1) (3,4,1) (3,5,1) (4,5,1) (3,6,1) (4,6,-1)":
        "cad3755f2af49b6e8377a74cbb586bdfecdaaf5c17821c42236d4f33a877c9d7",
}


def _pinned_graph(key):
    head, _, edges = key.partition(": ")
    if not head.isdigit():
        return parse_family_spec(key)
    return SignedGraph(int(head), [tuple(map(int, e.strip("()").split(","))) for e in edges.split()])


def test_pinned_certificates_cover_every_step_kind_and_method():
    seen = set()
    for key in CERTIFICATE_SHA256:
        for step in nullity_structural(_pinned_graph(key))[1].steps:
            seen.add((step.kind, step.method))
    assert seen == {
        (KIND_COMPONENT_SPLIT, None),
        (KIND_PENDANT_DELETE, None),
        (KIND_BASE_CASE, METHOD_CLOSED_FORM),
        (KIND_BASE_CASE, reduction.METHOD_RANK_ORACLE),
    }
    # the step vocabulary is closed: no kind is defined that no certificate holds
    defined = {value for name, value in vars(reduction).items() if name.startswith("KIND_")}
    assert {kind for kind, _ in seen} == defined


@pytest.mark.parametrize("spec", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_pinned(spec):
    trace = nullity_structural(_pinned_graph(spec))[1]
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
                    old.append((original, comp, _induced(h, sorted((*original, v)))))
                signs = [s for _, _, s in h.edges]
                parts = verify._cutpoint_parts(h, v)
                assert [(labels, comp.graph(signs), plus_v.graph(signs)) for labels, comp, plus_v in parts] == old
                checked += 1
    assert checked == 381


def test_every_rank_call_is_a_recorded_base_case(monkeypatch):
    # the engine ranks a graph only to decide it in a rank-oracle base case,
    # and searches no cut point, not even on the pinned graphs where a
    # cut-point rule holds
    rng = random.Random(20261019)
    graphs = [g for g in map(_pinned_graph, CERTIFICATE_SHA256) if g.cyclomatic_number() >= 3]
    graphs += [random_signed_graph(rng, rng.randint(1, 12), edge_prob=rng.choice((0.3, 0.5, 0.7))) for _ in range(300)]
    calls = []
    real_rank = reduction.nullity_rank
    monkeypatch.setattr(reduction, "nullity_rank", lambda g: calls.append(g) or real_rank(g))
    monkeypatch.setattr(reduction, "cut_points", lambda g: pytest.fail(f"cut_points called on {g}"))
    ranked = 0
    for g in graphs:
        calls.clear()
        value, trace = nullity_structural(g)
        assert calls == [step.before for step in trace.steps if step.method == reduction.METHOD_RANK_ORACLE]
        assert value == trace.replay() == real_rank(g)
        ranked += len(calls)
    assert ranked > 100


def test_isolated_vertices_share_one_part_and_one_step():
    # a theta(5, 6, 7) core with a star of 2 000 leaves hung at core vertex
    # 0: the peel takes one leaf with the star's center and leaves 1 999
    # isolated vertices, which once took a part and a base case each
    core = gen_theta(5, 6, 7)
    center = core.n
    edges = [*core.edges, (0, center, 1), *((center, leaf, 1) for leaf in range(center + 1, center + 2001))]
    g = SignedGraph(center + 2001, edges)
    value, trace = nullity_structural(g)
    assert value == trace.replay() == 2000 == nullity_theta(5, 6, 7) + 1999
    assert [s.kind for s in trace.steps] == [KIND_PENDANT_DELETE, KIND_COMPONENT_SPLIT, KIND_BASE_CASE, KIND_BASE_CASE]
    split = trace.steps[1]
    assert [(h.n, h.m) for h in split.after] == [(core.n, core.m), (1999, 0)]


def test_certificates_keep_no_adjacency_lists():
    # a certificate keeps every graph it decides; their cached adjacency
    # lists once made up 221 MB of a 2 000-vertex path's 310 MB trace.  A
    # graph is a slotted value of n and edges, so no graph of the trace,
    # the caller's root included, has anywhere to hold an adjacency.
    for key in sorted(CERTIFICATE_SHA256):
        g = _pinned_graph(key)
        trace = nullity_structural(g)[1]
        assert trace.root is g
        assert not any(hasattr(h, "__dict__") for step in trace.steps for h in (step.before, *step.after))
    g = gen_path(2000)
    tracemalloc.start()
    try:
        value, trace = nullity_structural(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == trace.replay() == 0
    assert peak < 150 << 20


@pytest.mark.parametrize("kind", ["path", "tree"])
def test_structural_at_the_vertex_ceiling(kind):
    # a 200 000-vertex path or random tree peels in one step on one
    # transient adjacency: about 45 MB at the peak, and the root, a slotted
    # value, keeps none (a cached adjacency took some 20 MB more on each)
    n = MAX_VERTICES
    if kind == "path":
        g, eta = gen_path(n), 0
    else:
        rng = random.Random(200_000)
        parent = [0] + [rng.randrange(v) for v in range(1, n)]
        g = SignedGraph(n, [(parent[v], v, rng.choice((1, -1))) for v in range(1, n)])
        eta = _tree_nullity(n, parent)
    tracemalloc.start()
    try:
        value, trace = nullity_structural(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == trace.replay() == eta
    assert not hasattr(g, "__dict__")
    assert peak < 60 << 20
