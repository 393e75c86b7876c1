"""Exhaustive small-graph corpora and random samplers for verification.

Two exhaustive corpora are used by the verification sweeps:

* every *labeled* connected graph on up to 6 vertices (edge-subset
  enumeration), used where a theorem is quantified over all signed graphs
  and labeled enumeration is still cheap;
* one representative per *isomorphism class* of connected graphs on up to 7
  vertices (the networkx graph atlas), used for the cut-point/pendant/
  agreement sweeps.  Nullity, balance, and the cut-point relations are all
  invariant under relabeling, so iso-class representatives are exhaustive
  for those checks.

Signatures are always enumerated modulo switching: fixing a spanning tree,
the 2^(m-n+1) sign patterns on the cotree edges hit every switching class
exactly once, and nullity is a switching invariant.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

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
    cotree = [i for i in range(m) if i not in tree]
    base = [1] * m
    for sub in range(1 << len(cotree)):
        signs = base[:]
        s = sub
        while s:
            b = s & -s
            signs[cotree[b.bit_length() - 1]] = -1
            s ^= b
        yield tuple(signs)


def signed_graphs_mod_switching(n: int, edges: tuple[Edge, ...]) -> Iterator[SignedGraph]:
    # validate the all-positive graph once; its sorted edges sign every class
    edges = SignedGraph(n, [(u, v, 1) for u, v in edges]).underlying_edges
    for signs in switching_class_signs(n, edges):
        yield SignedGraph._trusted(n, [(u, v, s) for (u, v), s in zip(edges, signs)])


def connected_graphs_upto_iso(max_n: int = 7) -> list[tuple[int, tuple[Edge, ...]]]:
    """One representative per isomorphism class of connected graphs, n <= 7.

    Backed by the networkx graph atlas (all graphs on up to seven vertices).
    Returns (n, edges) pairs in a deterministic order.
    """
    if max_n > 7:
        raise ValueError("the graph atlas only covers up to 7 vertices")
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if n == 0 or n > max_n:
            continue
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
        if len(spanning_tree_indices(n, edges)) == n - 1:
            out.append((n, edges))
    out.sort(key=lambda t: (t[0], len(t[1]), t[1]))
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


def random_low_cyclomatic_graph(rng: random.Random, n: int, extra: int) -> SignedGraph:
    """Random connected graph with cyclomatic number exactly ``extra`` <= 2:
    a random tree plus ``extra`` random non-tree edges, random signs."""
    if extra > 2:
        raise ValueError("cyclomatic number above 2 is not supported here")
    edges: set[Edge] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    candidates = [e for e in edge_universe(n) if e not in edges]
    rng.shuffle(candidates)
    for e in candidates[:extra]:
        edges.add(e)
    return SignedGraph._trusted(n, [(u, v, rng.choice((1, -1))) for u, v in sorted(edges)])


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
