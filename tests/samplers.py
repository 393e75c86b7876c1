"""Graphs that only the tests draw or build."""

import random

from sgn import SignedGraph
from sgn.enumeration import edge_universe


def random_low_cyclomatic_graph(rng: random.Random, n: int, extra: int) -> SignedGraph:
    """Random connected graph with cyclomatic number exactly ``extra`` <= 2:
    a random tree plus ``extra`` random non-tree edges, random signs."""
    if extra > 2:
        raise ValueError("cyclomatic number above 2 is not supported here")
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    candidates = [e for e in edge_universe(n) if e not in edges]
    rng.shuffle(candidates)
    for e in candidates[:extra]:
        edges.add(e)
    return SignedGraph(n, [(u, v, rng.choice((1, -1))) for u, v in sorted(edges)])


def figure_boundary_graph() -> SignedGraph:
    """The Petersen graph with a pendant at each vertex: prod(deg(v) + 1) =
    5^10 * 2^10 meets ``figures.FIGURE_BOUND`` exactly, as K10 does, but it
    profiles in well under a second."""
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pendants = [(v, v + 10, -1 if v % 3 else 1) for v in range(10)]
    return SignedGraph(20, [(u, v, 1) for u, v in petersen] + pendants)
