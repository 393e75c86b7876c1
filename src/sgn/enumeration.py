"""Exhaustive small-graph corpora and random samplers for verification.

Two exhaustive corpora are used by the verification sweeps:

* every *labeled* connected graph on up to 6 vertices (edge-subset
  enumeration), used where a theorem is quantified over all signed graphs
  and labeled enumeration is still cheap;
* one representative per *isomorphism class* of connected graphs on up to 7
  vertices, used for the cut-point/pendant/agreement sweeps.  Nullity,
  balance, and the cut-point relations are all invariant under relabeling,
  so iso-class representatives are exhaustive for those checks.  The 996
  representatives are decoded from the checked-in table in ``sgn.atlas``,
  generated once from the networkx graph atlas; networkx is not needed at
  run time, and ``tests/test_enumeration.py`` checks the table against it.

Signatures are always enumerated modulo switching: fixing a spanning tree,
the 2^(m-n+1) sign patterns on the cotree edges hit every switching class
exactly once, and nullity is a switching invariant.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from operator import itemgetter
from typing import Iterator

from .atlas import EDGE_MASKS
from .graph import SignedGraph, is_balanced

Edge = tuple[int, int]


def edge_universe(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def connected_graphs_labeled(n: int) -> Iterator[tuple[Edge, ...]]:
    """All labeled connected graphs on n vertices, as sorted edge tuples.

    Enumerates every subset of the C(n, 2) possible edges, so this is only
    meant for n <= 6 or so (n = 6 already yields 26704 graphs).
    """
    univ = edge_universe(n)
    e = len(univ)
    if n <= 1:  # the single vertex, and the null graph
        yield ()
        return
    for mask in range(1 << e):
        if mask.bit_count() < n - 1:
            continue
        edges = tuple(univ[i] for i in range(e) if (mask >> i) & 1)
        # connected iff the spanning forest is a single tree
        if len(spanning_tree_indices(n, edges)) == n - 1:
            yield edges


def bicyclic_graphs_labeled(n: int) -> Iterator[tuple[Edge, ...]]:
    """All labeled connected bicyclic graphs (m = n + 1) on n vertices."""
    univ = edge_universe(n)
    if n + 1 > len(univ):
        return
    for chosen in combinations(univ, n + 1):
        if len(spanning_tree_indices(n, chosen)) == n - 1:
            yield chosen


def spanning_tree_indices(n: int, edges: tuple[Edge, ...]) -> set[int]:
    """Indices of a first-come spanning forest within ``edges`` (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for i, (u, v) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(i)
    return tree


def switching_class_signs(n: int, edges: tuple[Edge, ...]) -> Iterator[tuple[int, ...]]:
    """One sign vector per switching class of the underlying graph.

    Tree edges stay positive; every subset of cotree edges is made negative
    in turn.  Yields 2^(m - n + c) sign tuples aligned with ``edges``.
    """
    m = len(edges)
    tree = spanning_tree_indices(n, edges)
    if m <= 1:  # itemgetter of one index returns a bare item, not a tuple
        yield from product(*[(1,) if i in tree else (1, -1) for i in range(m)])
        return
    cotree = [i for i in range(m) if i not in tree]
    k = len(cotree)
    # the product varies its last factor fastest, so it runs over the cotree
    # reversed and cotree edge 0 flips first; slot k is the constant 1 that
    # every tree edge reads
    slot = {i: pos for pos, i in enumerate(reversed(cotree))}
    signs = itemgetter(*(slot.get(i, k) for i in range(m)))
    yield from map(signs, product(*[(1, -1)] * k, (1,)))


def signed_graphs_mod_switching(n: int, edges: tuple[Edge, ...]) -> Iterator[SignedGraph]:
    # validate the all-positive graph once; its sorted edges sign every class
    edges = SignedGraph(n, [(u, v, 1) for u, v in edges]).underlying_edges
    for signs in switching_class_signs(n, edges):
        yield SignedGraph._trusted(n, [(u, v, s) for (u, v), s in zip(edges, signs)])


def connected_graphs_upto_iso(max_n: int = 7) -> list[tuple[int, tuple[Edge, ...]]]:
    """One representative per isomorphism class of connected graphs, n <= 7.

    Decoded on every call from the edge masks in ``sgn.atlas``, which were
    taken from the networkx graph atlas (all graphs on up to seven vertices);
    ``tests/test_enumeration.py::test_atlas_table_matches_networkx`` checks
    the table against it.  Returns (n, edges) pairs sorted by n, edge count
    and edge tuple.
    """
    if max_n > 7:
        raise ValueError("the graph atlas only covers up to 7 vertices")
    out = []
    for n, masks in enumerate(EDGE_MASKS[:max(max_n, 0)], 1):
        univ = edge_universe(n)
        for mask in masks.split():
            bits = int(mask, 16)
            out.append((n, tuple(e for i, e in enumerate(univ) if bits >> i & 1)))
    return out


def iter_signed_corpus(max_n: int = 7) -> Iterator[SignedGraph]:
    """The exhaustive signed corpus: iso-class connected graphs up to
    ``max_n`` vertices, one signature per switching class."""
    for n, edges in connected_graphs_upto_iso(max_n):
        yield from signed_graphs_mod_switching(n, edges)


# -- random samplers -------------------------------------------------------


def random_signed_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> SignedGraph:
    """Uniform-ish random signed graph, possibly disconnected."""
    edges = [
        (u, v, rng.choice((1, -1)))
        for (u, v) in edge_universe(n)
        if rng.random() < edge_prob
    ]
    return SignedGraph._trusted(n, edges)


def random_switching(rng: random.Random, n: int) -> dict[int, int]:
    return {v: rng.choice((1, -1)) for v in range(n)}


#: Order of each kind's smallest base: two triangles joined by an edge
#: (BPlus), two triangles sharing a vertex (BPlusPlus), the diamond (Theta).
_SAMPLER_MIN_ORDER = {"BPlus": 6, "BPlusPlus": 5, "Theta": 4}


def random_tree_attached_bicyclic(
    rng: random.Random, n: int, kind: str
) -> SignedGraph:
    """Random bicyclic signed graph on n vertices with trees attached.

    ``kind`` selects the base: "BPlus" (two disjoint cycles joined by a path
    with at least 2 vertices), "BPlusPlus" (two cycles sharing a vertex), or
    "Theta".  Signs are uniform at random.  An ``n`` below the kind's
    smallest base is refused, since no draw would ever fit.
    """
    from .families import gen_infinity, gen_theta

    if kind not in _SAMPLER_MIN_ORDER:
        raise ValueError(f"unknown kind {kind!r}")
    if n < _SAMPLER_MIN_ORDER[kind]:
        raise ValueError(f"{kind} needs n >= {_SAMPLER_MIN_ORDER[kind]}, got n = {n}")
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
    # the base's edges and every (parent, w) have u < v, so sorting the
    # signed edges gives the normal form the base builder already validated
    return SignedGraph._trusted(n, sorted((u, v, rng.choice((1, -1))) for u, v in edges))


def force_unbalanced(rng: random.Random, g: SignedGraph) -> SignedGraph:
    """Flip one cycle edge if needed so the result is unbalanced.

    Flipping an edge that lies on a cycle flips that cycle's sign, so the
    result cannot be balanced.  Requires the graph to contain a cycle.
    """
    balanced, _ = is_balanced(g)
    if not balanced:
        return g
    tree = spanning_tree_indices(g.n, g.underlying_edges)
    cotree = [i for i in range(g.m) if i not in tree]
    if not cotree:
        raise ValueError("acyclic graph cannot be made unbalanced")
    flip = rng.choice(cotree)
    edges = [
        (u, v, -s if i == flip else s) for i, (u, v, s) in enumerate(g.edges)
    ]
    return SignedGraph._trusted(g.n, edges)
