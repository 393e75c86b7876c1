"""Graphs that only the tests draw or build."""

import random

from hypothesis import strategies as st

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


@st.composite
def signed_graphs(draw, max_n):
    """A signed graph on 1..max_n vertices: a drawn set of edges, each with a
    drawn sign."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])
