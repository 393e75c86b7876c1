"""Basic-figure enumeration and the combinatorial coefficient route."""

import hashlib
import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgn import (
    BasicFigure,
    GraphError,
    SignedGraph,
    SizeGuardError,
    adjacency_matrix,
    char_poly,
    char_poly_figures,
    coefficient,
    enumerate_basic_figures,
)
from sgn import figures
from sgn.enumeration import connected_graphs_labeled, random_signed_graph
from sgn.graph import MAX_VERTICES, cycle_witness
from sgn.families import gen_cycle, gen_infinity, gen_path
from samplers import figure_boundary_graph, signed_graphs


def test_empty_figure_at_i_zero():
    figs = enumerate_basic_figures(gen_path(3), 0)
    assert len(figs) == 1 and figs[0].p == 0 and figs[0].vertex_count == 0


def test_c4_full_cover_figures():
    # the 4-cycle itself plus the two perfect matchings
    figs = enumerate_basic_figures(gen_cycle(4, 0), 4)
    assert len(figs) == 3
    assert sorted(f.c for f in figs) == [0, 0, 1]


def test_triangle_edge_figures():
    figs = enumerate_basic_figures(gen_cycle(3, 0), 2)
    assert len(figs) == 3
    assert all(f.p == 1 and f.c == 0 for f in figs)


def test_each_figure_has_disjoint_components():
    g = gen_infinity(3, 4, 1)
    for i in range(g.n + 1):
        for f in enumerate_basic_figures(g, i):
            used = list(itertools.chain.from_iterable(f.edge_components))
            for w in f.cycle_components:
                used.extend(w.vertices)
            assert len(used) == len(set(used)) == f.vertex_count == i


def test_figure_enumeration_is_pinned():
    # every figure of every graph, in enumeration order; the digest pins the
    # figures, their components and the order in which they come
    graphs = [
        SignedGraph(n, [(u, v, 1) for u, v in edges])
        for n in range(1, 6)
        for edges in connected_graphs_labeled(n)
    ]
    rng = random.Random(7)
    graphs += [random_signed_graph(rng, 8, edge_prob=0.4) for _ in range(20)]
    digest = hashlib.sha256()
    count = 0
    for g in graphs:
        for i in range(g.n + 1):
            for f in enumerate_basic_figures(g, i):
                cycles = [(w.vertices, w.sign) for w in f.cycle_components]
                digest.update(repr((i, f.edge_components, cycles)).encode())
                count += 1
    assert (len(graphs), count) == (792, 14615)
    assert digest.hexdigest() == "86ea5b8c751d175eeb9c512613f1c5270a72d45e89f25e9ad17727a0331e2f28"


def _seeded_graphs():
    # 40 seeded graphs on 1..8 vertices, isolated vertices included, plus K8
    rng = random.Random(23)
    graphs = [random_signed_graph(rng, rng.randint(1, 8), edge_prob=rng.choice((0.3, 0.6, 0.9))) for _ in range(40)]
    graphs.append(SignedGraph(8, [(u, v, 1) for u, v in itertools.combinations(range(8), 2)]))
    return graphs


def test_capped_enumeration_equals_the_filtered_full_stream():
    # enumerate_basic_figures(g, i) stops extending figures past i vertices;
    # it must still return exactly the full stream's size-i figures, in order
    for g in _seeded_graphs():
        labels, stream = figures._figure_stream(g.n, g.underlying_edges, g.n)
        stream = list(stream)
        for i in range(g.n + 1):
            assert all(used <= i for used, _, _, _ in figures._figure_stream(g.n, g.underlying_edges, i)[1])
            want = tuple(
                BasicFigure(
                    tuple((labels[u], labels[v]) for u, v in edges),
                    tuple(cycle_witness(g, tuple(labels[x] for x in c)) for c in cycles),
                )
                for used, edges, cycles, _ in stream
                if used == i
            )
            assert enumerate_basic_figures(g, i) == want


def test_stream_carries_each_figures_cycle_edge_mask():
    # the mask the stream ORs together while it grows each cycle equals the
    # one rebuilt from the cycles' vertex lists, bit k standing for edges[k]
    for g in _seeded_graphs():
        edges = g.underlying_edges
        bit = {}
        for k, (u, v) in enumerate(edges):
            bit[u, v] = bit[v, u] = 1 << k
        labels, stream = figures._figure_stream(g.n, edges, g.n)
        for _, _, cycles, mask in stream:
            want = 0
            for cyc in cycles:
                cyc = [labels[x] for x in cyc]
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    want |= bit[a, b]
            assert mask == want


def _grouped_stream(n, edges):
    # the profile as the figure stream gives it: each figure's weight
    # (-1)^(p+s) 2^c, summed per (vertices covered, cycle-edge mask)
    _, stream = figures._figure_stream(n, edges, n)
    constant = [0] * (n + 1)
    grouped = {}
    for used, k2, cycles, mask in stream:
        w = (-1 if (len(k2) + len(cycles)) % 2 else 1) << len(cycles)
        if cycles:
            grouped[used, mask] = grouped.get((used, mask), 0) + w
        else:
            constant[used] += w
    return figures.FigureProfile(tuple(constant), tuple((i, w, mask) for (i, mask), w in sorted(grouped.items())))


def test_profile_equals_the_grouped_figure_stream():
    # the cycle-set x matching-number sum has exactly the stream's groups
    cases = [(n, edges) for n in range(1, 6) for edges in connected_graphs_labeled(n)]
    cases += [(g.n, g.underlying_edges) for g in _seeded_graphs()]
    assert len(cases) == 772 + 41
    for n, edges in cases:
        assert figures._profile_from(n, edges) == _grouped_stream(n, edges)


def _all_cycles(g):
    # (labels, neighbors, adj, cycles): every cycle of g as _cycles_from
    # gives it, v by v, with nothing but v blocked and room for every vertex
    labels, neighbors, adj = figures._guarded_neighbors(g.n, g.underlying_edges)
    size = len(neighbors)
    cycles = [figures._cycles_from(neighbors, adj, v, 1 << v, size) for v in range(size)]
    return labels, neighbors, adj, cycles


def test_cycle_enumerator_finds_each_cycle_once():
    # an independent reference: networkx's simple cycles of the undirected
    # graph, each cycle taken as its set of edges
    nx = pytest.importorskip("networkx")
    for g in _seeded_graphs():
        labels, neighbors, _, cycles = _all_cycles(g)
        ours = []
        for v, found in enumerate(cycles):
            for cyc, blocked, bits in found:
                assert cyc[0] == v == min(cyc) and cyc[1] < cyc[-1]
                assert blocked == sum(1 << x for x in cyc)
                assert bits == sum(neighbors[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
                ours.append(frozenset(frozenset((labels[a], labels[b])) for a, b in zip(cyc, cyc[1:] + cyc[:1])))
        reference = nx.simple_cycles(nx.Graph(g.underlying_edges))
        want = [frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1])) for c in reference]
        assert len(ours) == len(set(ours)) == len(want)
        assert set(ours) == set(want)


def test_cycle_enumerator_counts_the_cycles_of_complete_graphs():
    # K_n has C(n, k) (k - 1)! / 2 cycles of length k
    for n in range(4, 9):
        want = sum(math.comb(n, k) * math.factorial(k - 1) // 2 for k in range(3, n + 1))
        assert sum(len(found) for found in _all_cycles(_complete(n))[3]) == want
    assert want == 8018 and sum(len(found) for found in _all_cycles(_complete(7))[3]) == 1172


def test_cycle_enumerator_with_blocked_vertices_and_room_filters_the_full_list():
    # as _component_stream calls it: covered vertices blocked and fewer free
    # vertices than the graph has; the answer is the full list, order kept,
    # less the cycles that meet a blocked vertex or are longer than the room
    rng = random.Random(31)
    for g in _seeded_graphs():
        _, neighbors, adj, cycles = _all_cycles(g)
        size = len(neighbors)
        for v, full in enumerate(cycles):
            for _ in range(8):
                covered = rng.getrandbits(size) & ~(1 << v)
                room = rng.randint(2, size)
                want = [
                    (cyc, on | covered, bits)
                    for cyc, on, bits in full
                    if len(cyc) <= room and not on & covered
                ]
                assert figures._cycles_from(neighbors, adj, v, covered | 1 << v, room) == want


def test_figure_stream_is_pinned():
    # the full stream over the seeded graphs: every figure with its
    # cycle-edge mask, in order, so no pruning of the cycle walk may add,
    # drop or reorder one
    digest = hashlib.sha256()
    count = 0
    for g in _seeded_graphs():
        labels, stream = figures._figure_stream(g.n, g.underlying_edges, g.n)
        digest.update(repr(labels).encode())
        for fig in stream:
            digest.update(repr(fig).encode())
            count += 1
    assert count == 32816
    assert digest.hexdigest() == "45e86bfe82dd3dfcd60603708f0b85bf0299d8115abf5525fd2bc13652805640"


def test_figures_out_of_range():
    with pytest.raises(GraphError):
        enumerate_basic_figures(gen_path(3), 4)


def test_coefficient_balanced_c4_top():
    # cycle contributes -2, the two matchings contribute +2
    assert coefficient(gen_cycle(4, 0), 4) == 0


def test_coefficient_unbalanced_c4_top():
    assert coefficient(gen_cycle(4, 1), 4) == 4


def test_coefficient_counts_edges():
    for g in (gen_path(5), gen_cycle(6, 2), gen_infinity(3, 3, 1, 1, 0)):
        assert coefficient(g, 2) == -g.m


def test_coefficient_out_of_range():
    with pytest.raises(GraphError):
        coefficient(gen_path(3), 0)


# derived: both routes must produce identical polynomials


def test_char_poly_figures_unbalanced_triangle():
    g = gen_cycle(3, 1)
    assert char_poly_figures(g).coeffs == (1, 0, -3, 2)
    assert char_poly_figures(g) == char_poly(adjacency_matrix(g))


def test_char_poly_figures_path():
    g = gen_path(3)
    assert char_poly_figures(g).coeffs == (1, 0, -2, 0)
    assert char_poly_figures(g) == char_poly(adjacency_matrix(g))


def test_char_poly_figures_unbalanced_bowtie():
    g = gen_infinity(3, 3, 1, 1, 1)
    assert char_poly_figures(g) == char_poly(adjacency_matrix(g))


def _degree_bound(g):
    return math.prod(g.degree(v) + 1 for v in range(g.n))


def _complete(n):
    return SignedGraph(n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])


def test_figure_count_within_degree_bound():
    graphs = [
        SignedGraph(n, [(u, v, 1) for u, v in edges])
        for n in range(1, 6)
        for edges in connected_graphs_labeled(n)
    ]
    rng = random.Random(20261018)
    graphs += [random_signed_graph(rng, rng.randint(1, 10)) for _ in range(100)]
    for g in graphs:
        count = sum(1 for _ in figures._figure_stream(g.n, g.underlying_edges, g.n)[1])
        assert count <= _degree_bound(g)


def test_size_guard():
    # K10 meets the bound exactly (10^10) but takes seconds to profile
    boundary = figure_boundary_graph()
    assert _degree_bound(boundary) == _degree_bound(_complete(10)) == figures.FIGURE_BOUND
    for g in (boundary, gen_path(21), gen_cycle(20, 1)):
        assert char_poly_figures(g) == char_poly(adjacency_matrix(g))
    for g in (gen_path(22), gen_cycle(21, 0), _complete(11), _complete(200)):
        with pytest.raises(SizeGuardError, match=f"^figure enumeration guard: n = {g.n}, "):
            char_poly_figures(g)


def test_figure_api_refuses_what_char_poly_figures_refuses():
    k11 = _complete(11)
    message = f"figure enumeration guard: n = 11, prod(deg(v) + 1) exceeds {figures.FIGURE_BOUND}"
    for call in (char_poly_figures, lambda g: coefficient(g, 2), lambda g: enumerate_basic_figures(g, 2)):
        with pytest.raises(SizeGuardError, match=f"^{re.escape(message)}$"):
            call(k11)


def test_figure_guard_counts_before_it_allocates():
    # the edge bits 1 << k of m edges take about m^2 / 16 bytes in all, so
    # refusing a 40 000-vertex cycle must not build them (it peaked at about
    # 120 MB when the guard ran after them)
    g = gen_cycle(40_000, 1)
    message = f"figure enumeration guard: n = 40000, prod(deg(v) + 1) exceeds {figures.FIGURE_BOUND}"
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=f"^{re.escape(message)}$"):
            char_poly_figures(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_figure_api_vertex_ceiling():
    g = SignedGraph(MAX_VERTICES + 1)
    message = f"n = {MAX_VERTICES + 1} exceeds the {MAX_VERTICES}-vertex ceiling of the adjacency lists"
    for call in (char_poly_figures, lambda g: coefficient(g, 1), lambda g: enumerate_basic_figures(g, 0)):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            call(g)


def test_isolated_vertices_add_no_work_to_the_figure_api():
    # one edge at the top of MAX_VERTICES vertices: a_2 = -1 and one K_2
    # figure, in the graph's own labels
    n = MAX_VERTICES
    padded = SignedGraph(n, [(n - 2, n - 1, -1)])
    assert coefficient(padded, 2) == -1
    assert enumerate_basic_figures(padded, 2) == (BasicFigure(((n - 2, n - 1),), ()),)


def test_isolated_vertices_add_no_work():
    # Isolated vertices add a factor 1 to the bound, so they must add no work:
    # a 16-edge matching (65 536 figures) spread over MAX_VERTICES vertices,
    # and P21 (17 711 figures) at the top of them.
    n = MAX_VERTICES
    matching = [(2 * k, 2 * k + 1, -1 if k % 3 else 1) for k in range(16)]
    spread = [(12_000 * k, 12_000 * k + 7, s) for k, (_, _, s) in enumerate(matching)]
    shift = n - 21
    cases = [
        (SignedGraph(32, matching), SignedGraph(n, spread)),
        (gen_path(21), SignedGraph(n, [(u + shift, v + shift, s) for u, v, s in gen_path(21).edges])),
    ]
    for core, padded in cases:
        want = char_poly(adjacency_matrix(core)).coeffs + (0,) * (n - core.n)
        assert char_poly_figures(padded).coeffs == want


# -- properties ---------------------------------------------------------------


@given(signed_graphs(max_n=7))
@settings(max_examples=60)
def test_oracle_equivalence(g):
    assert char_poly_figures(g) == char_poly(adjacency_matrix(g))


@given(st.data())
@settings(max_examples=40)
def test_figure_counts_are_signature_independent(data):
    g = data.draw(signed_graphs(max_n=6))
    flipped = SignedGraph(g.n, [(u, v, -s) for u, v, s in g.edges])
    for i in range(g.n + 1):
        assert len(enumerate_basic_figures(g, i)) == len(
            enumerate_basic_figures(flipped, i)
        )


def _matchings(n, edges, k):
    """Brute-force count of k-matchings, independent of the figure engine."""
    count = 0
    for combo in itertools.combinations(edges, k):
        used = [v for e in combo for v in e[:2]]
        if len(set(used)) == 2 * k:
            count += 1
    return count


@given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_tree_coefficients_are_matching_counts(n, rng):
    edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
    tree = SignedGraph(n, edges)
    p = char_poly_figures(tree)
    for i in range(1, n + 1):
        if i % 2 == 1:
            assert p.coeffs[i] == 0
        else:
            k = i // 2
            assert abs(p.coeffs[i]) == _matchings(n, tree.edges, k)
            assert p.coeffs[i] == (-1) ** k * _matchings(n, tree.edges, k)


@st.composite
def graphs_with_cycles(draw):
    # a drawn graph on at least 3 vertices with the triangle 0 1 2 added
    g = draw(signed_graphs(max_n=7))
    edges = {(u, v): s for u, v, s in g.edges}
    for pair in ((0, 1), (0, 2), (1, 2)):
        edges.setdefault(pair, draw(st.sampled_from((1, -1))))
    return SignedGraph(max(g.n, 3), [(u, v, s) for (u, v), s in edges.items()])


@given(graphs_with_cycles())
@settings(max_examples=40)
def test_acyclic_profile_part_counts_matchings(g):
    constant = figures._profile_from(g.n, g.underlying_edges).constant
    assert len(constant) == g.n + 1
    for i, a in enumerate(constant):
        assert a == (0 if i % 2 else (-1) ** (i // 2) * _matchings(g.n, g.edges, i // 2))
