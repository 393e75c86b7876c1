"""Signed-graph model: parsing, structure queries, switching, balance."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgn import (
    GraphError,
    ParseError,
    SignedGraph,
    canonical_signature,
    components,
    cut_points,
    delete_vertices,
    find_cycles,
    from_json,
    is_balanced,
    parse_edge_list,
    pendant_pairs,
    serialize_edge_list,
    switch,
    switching_equivalent,
    to_json,
)
from sgn.families import gen_cycle, gen_infinity, gen_path, gen_star


# -- hypothesis strategy ----------------------------------------------------


@st.composite
def signed_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


@st.composite
def switchings(draw, n):
    return {v: draw(st.sampled_from((1, -1))) for v in range(n)}


# -- construction and parsing ------------------------------------------------


def test_parse_triangle_with_negative_edge():
    g = parse_edge_list("3 3\n0 1 1\n1 2 1\n0 2 -1")
    assert g.n == 3
    assert g.edges == ((0, 1, 1), (0, 2, -1), (1, 2, 1))


def test_parse_single_vertex():
    g = parse_edge_list("1 0")
    assert g.n == 1 and g.m == 0


def test_parse_all_positive_c4():
    g = parse_edge_list("4 4\n0 1 1\n1 2 1\n2 3 1\n0 3 1")
    assert g == gen_cycle(4, 0)


def test_parse_normalizes_reversed_edges():
    g = parse_edge_list("3 2\n2 0 1\n2 1 -1")
    assert g.edges == ((0, 2, 1), (1, 2, -1))


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\n\n3 3\n0 1 1\n# middle\n1 2 1\n0 2 1\n")
    assert g.m == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("3 1\n0 1", "line 2"),                  # malformed edge line
        ("3 1\n0 5 1", "out of range"),          # vertex out of range
        ("3 1\n0 1 2", "sign"),                  # bad sign
        ("3 2\n0 1 1\n1 0 -1", "duplicate"),     # duplicate edge
        ("3 1\n1 1 1", "loop"),                  # loop
        ("x y", "header"),                       # bad header
        ("", "empty"),                           # empty input
        ("3 2\n0 1 1", "2 edges but 1"),         # count mismatch
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_constructor_rejects_bad_edges():
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 0, 1)])
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 3, 1)])
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 1, 2)])
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 1, 1), (1, 0, -1)])


@given(signed_graphs())
@settings(max_examples=60)
def test_parse_serialize_roundtrip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g
    assert from_json(to_json(g)) == g


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3.0, "edges": [[0, 1, 1]]}',
        '{"n": "3", "edges": [[0, 1, 1]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[0, 1, true]]}',
        '{"n": 3.0, "edges": [[0, 1, true]]}',
        '{"n": 3, "edges": [[0.0, 1, 1]]}',
        '{"n": 3, "edges": [[0, "1", 1]]}',
    ],
)
def test_from_json_rejects_non_integer_fields(text):
    with pytest.raises(ParseError):
        from_json(text)


# -- components ---------------------------------------------------------------


def test_components_triangle_plus_isolated():
    g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
    comps = components(g)
    assert [c.n for c, _ in comps] == [3, 1]
    assert comps[0][1] == (0, 1, 2) and comps[1][1] == (3,)


def test_components_connected_is_identity():
    g = gen_cycle(5, 1)
    comps = components(g)
    assert len(comps) == 1
    assert comps[0][0] == g and comps[0][1] == (0, 1, 2, 3, 4)


def test_components_two_disjoint_edges():
    g = SignedGraph(4, [(0, 2, 1), (1, 3, -1)])
    comps = components(g)
    assert [c.m for c, _ in comps] == [1, 1]
    # sign carried over with relabeling
    assert comps[1][0].edges == ((0, 1, -1),)
    assert comps[1][1] == (1, 3)


# -- cut points ---------------------------------------------------------------


def test_cut_points_path():
    assert cut_points(gen_path(5)) == {1, 2, 3}


def test_cut_points_cycle_empty():
    assert cut_points(gen_cycle(4, 0)) == frozenset()


def test_cut_points_infinity_shared_vertex():
    g = gen_infinity(3, 3, 1)
    assert cut_points(g) == {0}


def test_cut_points_requires_connected():
    # the DFS from vertex 0 must notice every vertex it never reaches,
    # whether vertex 0 is isolated or sits in the first of two components
    for n, edges in ((3, [(0, 1, 1)]), (3, [(1, 2, 1)]), (5, [(0, 1, 1), (0, 2, 1), (3, 4, 1)])):
        with pytest.raises(GraphError):
            cut_points(SignedGraph(n, edges))


@given(signed_graphs(max_n=8))
@settings(max_examples=100)
def test_cut_points_match_brute_force(g):
    comps = components(g)
    if len(comps) != 1 or g.n < 2:
        return
    # oracle: v is a cut-point iff deleting it disconnects the graph
    brute = {
        v
        for v in range(g.n)
        if len(components(delete_vertices(g, {v})[0])) > 1
    }
    assert cut_points(g) == brute


# -- vertex deletion ------------------------------------------------------------


def test_delete_vertex_from_cycle_gives_path():
    g, back = delete_vertices(gen_cycle(4, 0), {0})
    assert g.n == 3 and g.m == 2
    assert back == (1, 2, 3)
    assert pendant_pairs(g) == ((0, 1), (2, 1))


def test_delete_nothing_is_identity():
    g = gen_cycle(4, 1)
    h, back = delete_vertices(g, set())
    assert h == g and back == (0, 1, 2, 3)


def test_delete_shared_vertex_splits_bowtie():
    g = gen_infinity(3, 3, 1)
    h, _ = delete_vertices(g, {0})
    assert [c.m for c, _ in components(h)] == [1, 1]


def test_delete_out_of_range():
    with pytest.raises(GraphError):
        delete_vertices(gen_path(3), {7})


@given(st.data())
@settings(max_examples=60)
def test_delete_then_components_maps_compose(data):
    g = data.draw(signed_graphs())
    drop = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n))
    sub, keep = delete_vertices(g, drop)
    for comp, comp_map in components(sub):
        for new, mid in enumerate(comp_map):
            original = keep[mid]
            assert original not in drop
            # edges of the component correspond to edges of g with equal signs
            for other in comp.neighbors(new):
                assert comp.sign(new, other) == g.sign(original, keep[comp_map[other]])


# -- pendants -------------------------------------------------------------------


def test_pendants_path():
    assert pendant_pairs(gen_path(3)) == ((0, 1), (2, 1))


def test_pendants_cycle_none():
    assert pendant_pairs(gen_cycle(5, 0)) == ()


def test_pendants_star():
    assert pendant_pairs(gen_star(4)) == ((1, 0), (2, 0), (3, 0))


# -- switching ------------------------------------------------------------------


def test_switch_identity():
    g = gen_infinity(3, 4, 2, 1, 1)
    assert switch(g, {v: 1 for v in range(g.n)}) == g


def test_switch_flips_single_edge():
    g = SignedGraph(2, [(0, 1, -1)])
    assert switch(g, {0: -1, 1: 1}).edges == ((0, 1, 1),)


def test_switch_missing_vertex():
    with pytest.raises(GraphError):
        switch(gen_path(3), {0: 1, 1: 1})


@given(st.data())
@settings(max_examples=80)
def test_switch_preserves_cycle_signs(data):
    # prune a random graph to cyclomatic number <= 2 so every cycle is listable
    g = data.draw(signed_graphs(max_n=8))
    edges = list(g.edges)
    while SignedGraph(g.n, edges).cyclomatic_number() > 2:
        edges.pop()
    h = SignedGraph(g.n, edges)
    theta = data.draw(switchings(h.n))
    before = {w.vertices: w.sign for w in find_cycles(h)}
    after = {w.vertices: w.sign for w in find_cycles(switch(h, theta))}
    assert before == after


# -- balance ----------------------------------------------------------------------


def test_balanced_all_positive_cycle():
    ok, theta = is_balanced(gen_cycle(4, 0))
    assert ok and all(theta[v] == 1 for v in range(4))


def test_unbalanced_triangle_witness():
    ok, witness = is_balanced(gen_cycle(3, 1))
    assert not ok
    assert witness.sign == -1 and len(witness.vertices) == 3


def test_c4_two_negative_edges_balanced():
    ok, theta = is_balanced(gen_cycle(4, 2))
    assert ok
    assert switch(gen_cycle(4, 2), theta).all_positive()


def test_balance_iff_all_cycles_positive_on_low_cyclomatic_corpus():
    # over every connected graph up to isomorphism with n <= 6 and at most
    # two independent cycles, balance is equivalent to all cycle signs +1
    from sgn.enumeration import iter_signed_corpus

    checked = 0
    for g in iter_signed_corpus(6):
        if g.cyclomatic_number() > 2:
            continue
        ok, _ = is_balanced(g)
        assert ok == all(w.sign == 1 for w in find_cycles(g))
        checked += 1
    # 14 tree classes, 21 unicyclic x2 signatures, 25 bicyclic x4
    assert checked == 156


@given(signed_graphs())
@settings(max_examples=80)
def test_balance_witness_contract(g):
    ok, witness = is_balanced(g)
    if ok:
        assert switch(g, witness).all_positive()
    else:
        # the witness must be an actual negative cycle of g
        vs = witness.vertices
        for a, b in zip(vs, vs[1:] + vs[:1]):
            assert g.has_edge(a, b)
        prod = 1
        for a, b in zip(vs, vs[1:] + vs[:1]):
            prod *= g.sign(a, b)
        assert prod == -1 == witness.sign


# -- canonical form -----------------------------------------------------------------


def test_canonical_balanced_graph_is_all_positive():
    g = gen_cycle(4, 2)  # balanced
    assert canonical_signature(g).all_positive()


def test_canonical_all_positive_fixed_point():
    g = gen_infinity(3, 4, 2)
    assert canonical_signature(g) == g


def test_canonical_identifies_equivalent_triangles():
    # both carry one negative edge, so they lie in the same switching class;
    # brute force over all 2^3 switchings confirms the equivalence first
    a = SignedGraph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    b = SignedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
    hits = [
        theta
        for theta in itertools.product((1, -1), repeat=3)
        if switch(a, dict(enumerate(theta))) == b
    ]
    assert hits, "brute force: a and b must be switching equivalent"
    assert canonical_signature(a) == canonical_signature(b)
    assert switching_equivalent(a, b)


@given(st.data())
@settings(max_examples=60)
def test_switching_equivalence_matches_brute_force(data):
    g = data.draw(signed_graphs(max_n=5))
    flips = data.draw(
        st.lists(st.sampled_from((1, -1)), min_size=g.m, max_size=g.m)
    ) if g.m else []
    h = SignedGraph(g.n, [(u, v, s * f) for (u, v, s), f in zip(g.edges, flips)])
    brute = any(
        switch(g, dict(enumerate(theta))) == h
        for theta in itertools.product((1, -1), repeat=g.n)
    )
    assert switching_equivalent(g, h) == brute


@given(st.data())
@settings(max_examples=80)
def test_canonical_idempotent_and_switching_invariant(data):
    g = data.draw(signed_graphs())
    theta = data.draw(switchings(g.n))
    canon = canonical_signature(g)
    assert canonical_signature(canon) == canon
    assert canonical_signature(switch(g, theta)) == canon


# -- cycle inventory ------------------------------------------------------------------


def test_find_cycles_infinity_graph():
    ws = find_cycles(gen_infinity(3, 4, 2))
    assert [len(w.vertices) for w in ws] == [3, 4]


def test_find_cycles_theta_graph():
    from sgn.families import gen_theta

    ws = find_cycles(gen_theta(2, 2, 1))
    assert [len(w.vertices) for w in ws] == [3, 3, 4]


def test_find_cycles_tree_empty():
    assert find_cycles(gen_path(6)) == ()


def test_find_cycles_rejects_dense():
    g = SignedGraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(GraphError):
        find_cycles(g)


def test_find_cycles_two_disjoint_triangles():
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, -1), (3, 5, 1)]
    ws = find_cycles(SignedGraph(6, edges))
    assert len(ws) == 2
    assert {w.sign for w in ws} == {1, -1}


def test_cycle_witness_orientation_canonical():
    for w in find_cycles(gen_infinity(3, 5, 2, 1, 1)):
        assert w.vertices[0] == min(w.vertices)
        assert w.vertices[1] < w.vertices[-1]
