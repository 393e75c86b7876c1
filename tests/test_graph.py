"""Signed-graph model: parsing, structure queries, switching, balance."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgn import (
    GraphError,
    ParseError,
    SignedGraph,
    canonical_signature,
    components,
    cut_points,
    cycle_witness,
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
from sgn.graph import _parse_columns, _parse_lines
from samplers import signed_graphs


# -- hypothesis strategy ----------------------------------------------------


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


# -- the column parser against the line scan --------------------------------

#: Line breaks that str.splitlines honours, and runs of whitespace that
#: str.split honours, ASCII and not.
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028")
FIELD_GAPS = (" ", "\t", " \t ", "\xa0", "\u3000", "\x1f")
#: Lines both parsers skip: blank ones and comments, some indented.
SKIPPED_LINES = ("", "   ", "\t", "# a comment", "  # 0 1 1", "#", "\u3000#x y")
NON_INTEGERS = ("x", "1.0", "1__0", "0x1", "\u00bd", "--1")
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
MUTATIONS = ("drop field", "extra field", "non-integer", "out of range", "loop",
             "bad sign", "duplicate", "count mismatch", "negative header")


def _spell(draw, x):
    """An integer as int() reads it: plain, with '+', leading zeros, an
    underscore between two digits, or Arabic-Indic digits."""
    digits = str(abs(x))
    style = draw(st.sampled_from(("plain", "plus", "zeros", "underscore", "arabic-indic")))
    if style == "zeros":
        digits = "00" + digits
    elif style == "underscore" and len(digits) > 1:
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    elif style == "arabic-indic":
        digits = digits.translate(ARABIC_INDIC)
    if x < 0:
        return "-" + digits
    return "+" + digits if style == "plus" else digits


def _mutate(draw, rows, kind):
    """Apply one mutation to the header-then-edges rows of fields, in place."""
    n = rows[0][0]
    edges = range(1, len(rows))
    if kind in ("drop field", "extra field", "non-integer"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row) - 1))
        if kind == "drop field":
            del row[at]
        elif kind == "extra field":
            row.insert(at, draw(st.integers(-2, n + 2)))
        else:
            row[at] = draw(st.sampled_from(NON_INTEGERS))
    elif kind == "count mismatch":
        rows[0][1] += draw(st.sampled_from((-2, -1, 1, 2)))
    elif kind == "negative header":
        rows[0][draw(st.integers(0, 1))] = draw(st.sampled_from((-1, -7)))
    else:
        assume(edges)
        row = rows[draw(st.sampled_from(edges))]
        if kind == "out of range":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from((-1, n, n + 5)))
        elif kind == "loop":
            row[1] = row[0]
        elif kind == "bad sign":
            row[2] = draw(st.sampled_from((0, 2, -2)))
        else:
            u, v, s = row
            twin = [u, v, -s] if draw(st.booleans()) else [v, u, s]
            rows.insert(draw(st.integers(1, len(rows))), twin)
            if draw(st.booleans()):
                rows[0][1] += 1


@st.composite
def edge_list_texts(draw):
    """An edge list with shuffled lines, edges in either orientation, every
    kind of line break, gap and integer spelling, blank and comment lines,
    and at most one mutation."""
    g = draw(signed_graphs(max_n=14))
    edges = [[v, u, s] if draw(st.booleans()) else [u, v, s] for u, v, s in g.edges]
    rows = [[g.n, g.m]] + draw(st.permutations(edges))
    kind = draw(st.sampled_from((None,) + MUTATIONS))
    if kind is not None:
        _mutate(draw, rows, kind)
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=2))
        gap = draw(st.sampled_from(FIELD_GAPS))
        fields = gap.join(_spell(draw, x) if isinstance(x, int) else x for x in row)
        lines.append(draw(st.sampled_from(("", " ", "\u2003"))) + fields + draw(st.sampled_from(("", "\t"))))
    lines += draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=2))
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    return text[: draw(st.sampled_from((len(text), len(text.rstrip()))))]


@given(edge_list_texts())
@settings(max_examples=400)
def test_column_parser_matches_the_line_scan(text):
    # the column parser accepts exactly the texts the line scan accepts, and
    # the line scan names the error of every other one
    try:
        want = _parse_lines(text)
    except ParseError as exc:
        assert _parse_columns(text) is None
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == str(exc)
    else:
        assert _parse_columns(text) == want == parse_edge_list(text)


def test_column_parser_keeps_the_first_error_of_the_line_scan():
    # two faults: the first line's error wins in both parsers, and a count
    # mismatch is reported before a duplicate
    for text, message in (
        ("3 2\n0 3 1\n1 1 1\n", "line 2: vertex out of range 0..2 in '0 3 1'"),
        ("3 2\n0 1 1\n1 0 1\n2 0 1\n", "header announced 2 edges but 3 were given"),
        ("3 2\r\n# c\r\n2 1 1\r\n1 2 -1\r\n", "line 4: duplicate edge (1,2), first at line 3"),
    ):
        assert _parse_columns(text) is None
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)


def test_a_long_comment_is_never_tokenized():
    # 10^7 bytes of short words on one comment line: split into words they
    # would take some 20 times the text's size
    text = "# " + "ab " * 3_333_333 + "\n2 1\n1 0 -1\n"
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges == ((0, 1, -1),)
    assert peak < 3 * len(text)


def test_constructor_rejects_bad_edges():
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 0, 1)])
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 3, 1)])
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 1, 2)])
    with pytest.raises(GraphError):
        SignedGraph(3, [(0, 1, 1), (1, 0, -1)])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (2.0, [(0, 1, 1)], "n must be an integer, got 2.0"),
        (True, [], "n must be an integer, got True"),
        (np.int64(3), [], "n must be an integer"),
        (3, [(0, 1, True)], r"edge fields must be integers, got \[0, 1, True\]"),
        (3, [(0.0, 1, 1)], r"edge fields must be integers, got \[0.0, 1, 1\]"),
        (3, [(0, np.int64(1), 1)], "edge fields must be integers"),
    ],
)
def test_constructor_rejects_non_integers(n, edges, message):
    with pytest.raises(GraphError, match=message):
        SignedGraph(n, edges)


@given(signed_graphs(max_n=8))
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


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [[0, 0, 1]]}',
        '{"n": 3, "edges": [[0, 5, 1]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 0, -1]]}',
        '{"n": 3, "edges": [[0, 1]]}',
        '{"n": -1, "edges": []}',
    ],
)
def test_from_json_reports_bad_graphs_as_parse_errors(text):
    with pytest.raises(ParseError, match="^bad JSON graph: "):
        from_json(text)


def test_from_json_rejects_deep_nesting():
    with pytest.raises(ParseError, match="bad JSON graph"):
        from_json("[" * 100_000)


@given(signed_graphs(max_n=8), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_neighbors_ascend_whatever_the_edge_order(g, rng):
    edges = [(v, u, s) for u, v, s in g.edges]
    rng.shuffle(edges)
    for h in (SignedGraph(g.n, edges), SignedGraph(g.n, edges[::-1])):
        assert h == g
        for v in range(h.n):
            assert h.neighbors(v) == tuple(u for u in range(h.n) if h.has_edge(v, u))


@pytest.mark.parametrize(
    "method, args",
    [("sign", (-1, 1)), ("neighbors", (-1,)), ("has_edge", (-1, 1)), ("neighbors", (3,)),
     ("degree", (3,)), ("has_edge", (1, 3)), ("sign", (0, 3))],
)
def test_accessors_refuse_a_vertex_outside_the_graph(method, args):
    # a negative vertex once counted from the end: sign(-1, 1) read the
    # edge 1-2, neighbors(-1) vertex 2's neighbors, has_edge(-1, 1) was
    # True, and neighbors(3) raised a bare IndexError
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    bad = next(v for v in args if not 0 <= v < 3)
    with pytest.raises(GraphError, match=f"^vertex {bad} outside 0..2$"):
        getattr(g, method)(*args)


def test_sign_of_a_non_edge():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    assert (g.sign(2, 1), g.has_edge(2, 0)) == (-1, False)
    with pytest.raises(GraphError, match=r"^no edge \(2,0\)$"):
        g.sign(2, 0)


def test_a_graph_holds_only_n_and_edges():
    g = gen_cycle(5, 1)
    assert SignedGraph.__slots__ == ("n", "edges") and not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(g, "_adj", ())


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
    if len(components(g)) != 1:
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
    g = data.draw(signed_graphs(max_n=8))
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


@given(signed_graphs(max_n=8))
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
    g = data.draw(signed_graphs(max_n=8))
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


def _brute_force_cycles(pairs):
    """Edge masks over ``pairs`` that are one cycle: a nonempty connected
    edge set in which every vertex has degree 0 or 2."""
    out = []
    for mask in range(1, 1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        degree = {}
        for u, v in chosen:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        reach = {chosen[0][0]}
        grown = True
        while grown:
            grown = False
            for u, v in chosen:
                if (u in reach) != (v in reach):
                    reach |= {u, v}
                    grown = True
        if len(reach) == len(degree):
            out.append(mask)
    return out


def _component_count(n, chosen):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in chosen:
        root[find(u)] = find(v)
    return sum(1 for x in range(n) if find(x) == x)


def test_find_cycles_matches_brute_force_on_every_small_labeled_graph():
    # every labeled graph with n <= 6, disconnected ones included: its cycles
    # are the cycles of K_n whose edges it contains
    checked = rejected = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        index = {e: i for i, e in enumerate(pairs)}
        kn_cycles = _brute_force_cycles(pairs)
        for mask in range(1 << len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            signs = {e: -1 if (index[e] * 7 + mask) % 3 == 0 else 1 for e in chosen}
            g = SignedGraph(n, [(u, v, signs[u, v]) for u, v in chosen])
            c = len(chosen) - n + _component_count(n, chosen)
            if c > 2:
                with pytest.raises(GraphError, match=f"cyclomatic number {c} exceeds 2$"):
                    find_cycles(g)
                rejected += 1
                continue
            ws = find_cycles(g)
            got = []
            for w in ws:
                ring = [tuple(sorted(e)) for e in zip(w.vertices, w.vertices[1:] + w.vertices[:1])]
                got.append(sum(1 << index[e] for e in ring))
                negative = sum(1 for e in ring if signs[e] == -1)
                assert (w.sign, w.neg_edge_count) == (-1 if negative % 2 else 1, negative)
                assert w.vertices[0] == min(w.vertices) and w.vertices[1] < w.vertices[-1]
            assert sorted(got) == [cm for cm in kn_cycles if cm & mask == cm], g
            assert [(len(w), w.vertices) for w in ws] == sorted((len(w), w.vertices) for w in ws)
            checked += 1
    assert (checked, rejected) == (16_552, 17_316)


def test_cycle_witness_orientation_canonical():
    for w in find_cycles(gen_infinity(3, 5, 2, 1, 1)):
        assert w.vertices[0] == min(w.vertices)
        assert w.vertices[1] < w.vertices[-1]


def test_cycle_witness_reads_the_cycle_edges():
    g = SignedGraph(5, [(0, 1, -1), (1, 2, 1), (2, 3, -1), (0, 3, -1), (3, 4, 1)])
    w = cycle_witness(g, (2, 1, 0, 3))
    assert (w.vertices, w.sign, w.neg_edge_count) == ((0, 1, 2, 3), -1, 3)
    for cycle in ((0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 7)):
        with pytest.raises(GraphError, match="^cycle has consecutive vertices that no edge joins$"):
            cycle_witness(g, cycle)
