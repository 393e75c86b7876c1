"""Corpus generators and random samplers used by the verification sweeps."""

import hashlib
import random

import pytest

from sgn import SignedGraph, is_balanced, is_connected
from sgn.atlas import EDGE_MASKS
from sgn.enumeration import (
    bicyclic_graphs_labeled,
    connected_graphs_labeled,
    connected_graphs_upto_iso,
    edge_universe,
    force_unbalanced,
    iter_signed_corpus,
    random_signed_graph,
    random_tree_attached_bicyclic,
    signed_graphs_mod_switching,
    spanning_tree_indices,
    switching_class_signs,
)
from sgn.families import bicyclic_class, gen_cycle
from samplers import random_low_cyclomatic_graph


def test_labeled_connected_counts():
    # known counts of labeled connected graphs
    for n, want in [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)]:
        assert sum(1 for _ in connected_graphs_labeled(n)) == want


def test_bicyclic_labeled_counts():
    assert sum(1 for _ in bicyclic_graphs_labeled(4)) == 6
    assert sum(1 for _ in bicyclic_graphs_labeled(5)) == 205


def test_switching_class_count():
    edges = tuple((u, v) for u in range(4) for v in range(u + 1, 4))  # K4
    signs = list(switching_class_signs(4, edges))
    assert len(signs) == 2 ** (6 - 4 + 1)
    assert len(set(signs)) == len(signs)


def test_switching_classes_are_inequivalent():
    from sgn import canonical_signature

    edges = tuple(gen_cycle(5, 0).underlying_edges)
    reps = list(signed_graphs_mod_switching(5, edges))
    canons = {canonical_signature(g) for g in reps}
    assert len(canons) == len(reps) == 2


def test_iso_corpus_counts():
    by_n = {}
    for n, edges in connected_graphs_upto_iso(7):
        by_n[n] = by_n.get(n, 0) + 1
    # connected graphs up to isomorphism on 1..7 vertices
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_iso_corpus_bound():
    with pytest.raises(ValueError):
        connected_graphs_upto_iso(8)


def _atlas_from_networkx():
    """The connected graphs of the networkx graph atlas, sorted by n, edge
    count and edge tuple: the list ``sgn.atlas`` was generated from."""
    atlas = pytest.importorskip("networkx.generators.atlas")
    out = []
    for g in atlas.graph_atlas_g():
        n = g.number_of_nodes()
        if n == 0:
            continue
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
        if len(spanning_tree_indices(n, edges)) == n - 1:
            out.append((n, edges))
    out.sort(key=lambda t: (t[0], len(t[1]), t[1]))
    return out


def test_atlas_table_matches_networkx():
    # the recipe for regenerating sgn.atlas.EDGE_MASKS: each graph's edge
    # mask over edge_universe(n) in hex, space-separated, one string per n
    graphs = _atlas_from_networkx()
    masks = [[] for _ in range(7)]
    for n, edges in graphs:
        univ = edge_universe(n)
        masks[n - 1].append(format(sum(1 << univ.index(e) for e in edges), "x"))
    assert EDGE_MASKS == tuple(" ".join(row) for row in masks)
    for max_n in range(-1, 8):
        assert connected_graphs_upto_iso(max_n) == [t for t in graphs if t[0] <= max_n]


def test_atlas_table_digest_is_pinned():
    # pins the decoded corpus, order included, where networkx is absent
    digest = hashlib.sha256(repr(connected_graphs_upto_iso(7)).encode()).hexdigest()
    assert digest == "6b0ba6082d7a087fd8dae079fac57b2beb2f445c78715ea2ea7f4e763abce79b"


def test_atlas_graphs_are_connected_with_197349_switching_classes():
    graphs = connected_graphs_upto_iso(7)
    assert len(set(graphs)) == len(graphs) == 996
    for n, edges in graphs:
        assert is_connected(SignedGraph(n, [(u, v, 1) for u, v in edges]))
    assert sum(sum(1 for _ in switching_class_signs(n, edges)) for n, edges in graphs) == 197349


def _switching_class_signs_by_bitmask(n, edges):
    """The bitmask loop switching_class_signs replaced: sub's bit j makes
    cotree edge j negative, so cotree edge 0 flips first."""
    tree = spanning_tree_indices(n, edges)
    cotree = [i for i in range(len(edges)) if i not in tree]
    for sub in range(1 << len(cotree)):
        signs = [1] * len(edges)
        for j, i in enumerate(cotree):
            if sub >> j & 1:
                signs[i] = -1
        yield tuple(signs)


def test_switching_class_signs_match_the_bitmask_loop():
    graphs = connected_graphs_upto_iso(7)
    graphs += [(n, edges) for n in range(7) for edges in connected_graphs_labeled(n)]
    # no edge, a disconnected graph, a repeated edge, a lone loop (its one
    # edge is a cotree edge)
    graphs += [(3, ()), (4, ((0, 1), (2, 3))), (3, ((0, 1), (0, 1), (1, 2))), (1, ((0, 0),))]
    for n, edges in graphs:
        assert list(switching_class_signs(n, edges)) == list(_switching_class_signs_by_bitmask(n, edges)), (n, edges)


def test_signed_corpus_sample():
    seen = 0
    for g in iter_signed_corpus(4):
        assert is_connected(g)
        seen += 1
    assert seen == 1 + 1 + 3 + 18  # sign classes by n for n <= 4


def test_random_samplers_are_wellformed():
    rng = random.Random(0)
    for _ in range(50):
        g = random_signed_graph(rng, rng.randint(1, 9))
        assert isinstance(g, SignedGraph)
    for _ in range(50):
        g = random_low_cyclomatic_graph(rng, rng.randint(3, 9), rng.randint(0, 2))
        assert is_connected(g)
        assert g.cyclomatic_number() <= 2


@pytest.mark.parametrize("kind", ["BPlus", "BPlusPlus", "Theta"])
def test_random_tree_attached_bicyclic(kind):
    rng = random.Random(1)
    n_lo = {"BPlus": 7, "BPlusPlus": 8, "Theta": 5}[kind]
    for _ in range(40):
        n = rng.randint(n_lo, 10)
        g = random_tree_attached_bicyclic(rng, n, kind)
        assert g.n == n and g.m == n + 1
        assert is_connected(g)
        assert bicyclic_class(g) == kind


def test_force_unbalanced():
    rng = random.Random(2)
    for _ in range(30):
        g = random_tree_attached_bicyclic(rng, 8, "Theta")
        h = force_unbalanced(rng, g)
        assert not is_balanced(h)[0]
        assert h.underlying_edges == g.underlying_edges
    with pytest.raises(ValueError):
        force_unbalanced(rng, SignedGraph(3, [(0, 1, 1)]))


def test_only_the_first_switching_class_is_balanced():
    # lem5.2 skips the first class unchecked: its tree edges are positive, so
    # each cotree edge closes a fundamental cycle of its own sign, and only
    # the all-positive class has no negative cycle
    graphs = [(n, edges) for n in range(4, 7) for edges in bicyclic_graphs_labeled(n)]
    graphs += connected_graphs_upto_iso(7)
    assert len(graphs) == 6907
    for n, edges in graphs:
        flags = [is_balanced(g)[0] for g in signed_graphs_mod_switching(n, edges)]
        assert flags == [True] + [False] * (len(flags) - 1), (n, edges)


@pytest.mark.parametrize("kind, n_min", [("BPlus", 6), ("BPlusPlus", 5), ("Theta", 4)])
def test_tree_attached_sampler_refuses_orders_below_its_smallest_base(kind, n_min):
    # no random generator is passed: a draw would raise AttributeError, so
    # the refusal comes before the first draw (the draws never end there)
    for n in range(n_min):
        with pytest.raises(ValueError, match=f"{kind} needs n >= {n_min}, got n = {n}"):
            random_tree_attached_bicyclic(None, n, kind)
    g = random_tree_attached_bicyclic(random.Random(n_min), n_min, kind)
    assert g.n == n_min and g.m == n_min + 1 and bicyclic_class(g) == kind


def test_tree_attached_sampler_stream_is_pinned():
    # the bounds.* sweeps and the benchmark's sparse jobs are drawn from this
    # stream, so refusing small orders must leave it as it was
    digest = hashlib.sha256()
    rng = random.Random(20261019)
    for kind, n_min in (("BPlus", 6), ("BPlusPlus", 5), ("Theta", 4)):
        for n in range(n_min, n_min + 6):
            for _ in range(20):
                g = random_tree_attached_bicyclic(rng, n, kind)
                digest.update(repr((g.n, g.edges)).encode())
    assert digest.hexdigest() == "098b6f35c841b3535f3fb18929ac3e7bf437bdcaf5e6bbcbc580f8c6792ed20c"


def _tree_attached_reference(rng, n, kind):
    # the sampler's body written with randint, randrange and choice, as it
    # was before it drew straight from getrandbits
    from sgn.families import gen_infinity, gen_theta

    while True:
        if kind == "BPlus":
            p, q, l = rng.randint(3, n), rng.randint(3, n), rng.randint(2, n)
            if p + q + l - 2 > n:
                continue
            base = gen_infinity(p, q, l)
        elif kind == "BPlusPlus":
            p, q = rng.randint(3, n), rng.randint(3, n)
            if p + q - 1 > n:
                continue
            base = gen_infinity(p, q, 1)
        else:
            p, q, l = (rng.randint(1, n) for _ in range(3))
            if sum(1 for x in (p, q, l) if x == 1) > 1 or p + q + l - 1 > n:
                continue
            base = gen_theta(p, q, l)
        break
    edges = [(u, v) for u, v, _ in base.edges]
    for w in range(base.n, n):
        edges.append((rng.randrange(w), w))
    return SignedGraph(n, sorted((u, v, rng.choice((1, -1))) for u, v in edges))


@pytest.mark.parametrize("seed", [101, 20260811])
@pytest.mark.parametrize("kind, n_lo, n_hi", [("BPlus", 6, 40), ("BPlusPlus", 5, 33), ("Theta", 4, 70)])
def test_tree_attached_sampler_draws_as_randint_does(kind, n_lo, n_hi, seed):
    # the same graphs from the same generator words, the generator left in
    # the same state, over orders whose widths cross several powers of two
    ours, reference = random.Random(seed), random.Random(seed)
    for draw in range(3000):
        n = n_lo + draw % (n_hi - n_lo + 1)
        assert random_tree_attached_bicyclic(ours, n, kind) == _tree_attached_reference(reference, n, kind)
    assert ours.getstate() == reference.getstate()
