"""Basic-figure enumeration and the combinatorial coefficient route."""

import hashlib
import itertools
import random

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
from sgn.graph import cycle_witness
from sgn.families import gen_cycle, gen_infinity, gen_path


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


def test_capped_enumeration_equals_the_filtered_full_stream():
    # enumerate_basic_figures(g, i) stops extending figures past i vertices;
    # it must still return exactly the full stream's size-i figures, in order
    rng = random.Random(23)
    graphs = [random_signed_graph(rng, rng.randint(1, 8), edge_prob=rng.choice((0.3, 0.6, 0.9))) for _ in range(40)]
    graphs.append(SignedGraph(8, [(u, v, 1) for u, v in itertools.combinations(range(8), 2)]))
    for g in graphs:
        neighbors = [g.neighbors(v) for v in range(g.n)]
        stream = list(figures._component_stream(neighbors))
        for i in range(g.n + 1):
            assert all(used <= i for used, _, _ in figures._component_stream(neighbors, i))
            want = tuple(
                BasicFigure(edges, tuple(cycle_witness(g, c) for c in cycles))
                for used, edges, cycles in stream
                if used == i
            )
            assert enumerate_basic_figures(g, i) == want


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


def test_size_guard():
    g = gen_path(15)
    with pytest.raises(SizeGuardError):
        char_poly_figures(g)
    assert char_poly_figures(g, size_guard=15) == char_poly(adjacency_matrix(g))


# -- properties ---------------------------------------------------------------


@st.composite
def signed_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


@given(signed_graphs())
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
