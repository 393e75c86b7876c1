"""Random graphs that only the tests draw."""

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
