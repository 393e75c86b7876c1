"""Characteristic-polynomial coefficients by basic-figure enumeration.

A basic figure is a vertex-disjoint union of single edges and cycles.  With
p components, c cycles, and s negative edges lying on the cycles, a figure
covering i vertices contributes (-1)^(p+s) * 2^c to the coefficient a_i.
Edges used as K_2 components contribute their sign squared, i.e. nothing,
which is why only cycle edges enter s.

This module is an independent combinatorial oracle for the exact linear
algebra route.  Every figure comes from one stream, opened by
``_figure_stream``, which carries each figure's cycle-edge mask.
Enumeration is exponential, so the stream refuses, before it starts, a
graph whose figure count may exceed ``FIGURE_BOUND``: a figure maps each
vertex one-to-one to nothing, to its K_2 partner or to its successor on its
cycle, so there are at most prod(deg(v) + 1) of them.  ``char_poly_figures``,
``enumerate_basic_figures`` and ``coefficient`` therefore refuse the same
graphs.  Loops never occur because the data model is simple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CycleWitness, GraphError, SignedGraph, check_vertex_ceiling, cycle_witness
from .linalg import CharPoly

#: Largest figure-count bound prod(deg(v) + 1) that the figure stream
#: accepts; no factor exceeds n, so every graph on at most 10 vertices passes.
FIGURE_BOUND = 10**10


class SizeGuardError(GraphError):
    """Graph too large for exhaustive figure enumeration."""


@dataclass(frozen=True)
class BasicFigure:
    """A vertex-disjoint union of K_2 edges and cycles inside a host graph."""

    edge_components: tuple[tuple[int, int], ...]
    cycle_components: tuple[CycleWitness, ...]

    @property
    def vertex_count(self) -> int:
        return 2 * len(self.edge_components) + sum(
            len(c.vertices) for c in self.cycle_components
        )

    @property
    def p(self) -> int:
        """Number of components."""
        return len(self.edge_components) + len(self.cycle_components)

    @property
    def c(self) -> int:
        """Number of cycle components."""
        return len(self.cycle_components)

    @property
    def s(self) -> int:
        """Number of negative edges lying on cycle components."""
        return sum(w.neg_edge_count for w in self.cycle_components)

    def weight(self) -> int:
        """Contribution (-1)^(p+s) * 2^c to the coefficient a_{vertex_count}."""
        return (-1 if (self.p + self.s) % 2 else 1) * (1 << self.c)


def _figure_stream(n: int, edges, limit: int):
    """(labels, stream): the one entry to the figure stream, for the graph
    on vertices 0..n-1 whose ascending (u, v) pairs, u < v, are ``edges``.

    Isolated vertices lie on no figure, so the stream walks only the others,
    renumbered in order, which keeps the figures and their order; vertex k
    of the stream is ``labels[k]``.  ``neighbors[v]`` maps each neighbor,
    ascending by the edge order, to its edge's bit, bit k for ``edges[k]``.
    The vertex ceiling (GraphError) and the figure guard (SizeGuardError)
    are checked before anything is enumerated.
    """
    check_vertex_ceiling(n)
    labels = sorted({x for e in edges for x in e})
    index = {v: k for k, v in enumerate(labels)}
    neighbors = [{} for _ in labels]
    for k, (u, v) in enumerate(edges):
        u, v = index[u], index[v]
        neighbors[u][v] = neighbors[v][u] = 1 << k
    bound = 1
    for nb in neighbors:
        bound *= len(nb) + 1
        if bound > FIGURE_BOUND:
            raise SizeGuardError(
                f"figure enumeration guard: n = {n}, prod(deg(v) + 1) exceeds {FIGURE_BOUND}"
            )
    return labels, _component_stream(neighbors, limit)


def _component_stream(neighbors, limit, covered=0, used=0, edges=(), cycles=(), mask=0):
    """Yield every basic figure covering at most ``limit`` vertices as
    (vertices covered, K_2 edges, cycles, cycle-edge mask).

    ``neighbors`` is built by ``_figure_stream``; the other arguments
    describe the figure being extended, which is yielded first (the empty
    figure at the top level).  Components are added in increasing order of
    their smallest vertex: the smallest free vertex v is matched to a
    larger neighbor, made the smallest vertex of a cycle, or left
    uncovered, and the recursion extends each new figure before the next
    choice is tried.  The traversal order is deterministic, and a limit
    only prunes figures (with all their extensions) that exceed it.
    """
    yield used, edges, cycles, mask
    room = limit - used
    if room < 2:
        return
    free = ~covered & ((1 << len(neighbors)) - 1)
    while free:
        v = (free & -free).bit_length() - 1
        for u in neighbors[v]:
            if u > v and not (covered >> u) & 1:
                yield from _component_stream(
                    neighbors, limit, covered | 1 << v | 1 << u, used + 2, edges + ((v, u),), cycles, mask
                )
        for cycle, blocked, bits in _cycles_through(neighbors, (v,), covered | 1 << v, room, 0):
            yield from _component_stream(
                neighbors, limit, blocked, used + len(cycle), edges, cycles + (cycle,), mask | bits
            )
        # v left uncovered: later components avoid it
        covered |= 1 << v
        free ^= 1 << v


def _cycles_through(neighbors, path, blocked, room, mask):
    """Yield every cycle of at most ``room`` vertices that extends ``path``
    through unblocked vertices above ``path[0]``, with ``blocked`` plus the
    cycle's vertices and ``mask`` plus the cycle's edge bits.

    ``blocked`` holds the covered vertices and those of ``path``, ``mask``
    the bits of ``path``'s edges.  Each cycle comes in one orientation
    only, its second vertex smaller than its last; the paths grow depth
    first in neighbor order.
    """
    v = path[0]
    for w, bit in neighbors[path[-1]].items():
        if w > v and not (blocked >> w) & 1:
            if len(path) >= 2 and path[1] < w and v in neighbors[w]:
                yield path + (w,), blocked | 1 << w, mask | bit | neighbors[w][v]
            if len(path) + 2 <= room:
                yield from _cycles_through(neighbors, path + (w,), blocked | 1 << w, room, mask | bit)


def enumerate_basic_figures(g: SignedGraph, i: int) -> tuple[BasicFigure, ...]:
    """All basic figures of ``g`` covering exactly ``i`` vertices.

    ``i = 0`` gives the single empty figure.  Like ``char_poly_figures``,
    it raises SizeGuardError past the figure guard.
    """
    if not (0 <= i <= g.n):
        raise GraphError(f"figure size {i} out of range 0..{g.n}")
    labels, stream = _figure_stream(g.n, g.underlying_edges, i)
    return tuple(
        BasicFigure(
            tuple((labels[u], labels[v]) for u, v in edges),
            tuple(cycle_witness(g, tuple(labels[x] for x in c)) for c in cycles),
        )
        for used, edges, cycles, _ in stream
        if used == i
    )


def coefficient(g: SignedGraph, i: int) -> int:
    """Coefficient a_i of the characteristic polynomial, by figure counting;
    SizeGuardError on the graphs ``char_poly_figures`` refuses."""
    if not (1 <= i <= g.n):
        raise GraphError(f"coefficient index {i} out of range 1..{g.n}")
    return sum(f.weight() for f in enumerate_basic_figures(g, i))


# -- signature-independent profile (fast path) ----------------------------
#
# Which figures exist depends only on the underlying graph; the signature
# enters solely through the parity of negative edges on each figure's cycle
# edges.  The profile therefore precomputes, per vertex count i, a constant
# part (figures without cycles) and weighted groups keyed by the bitmask of
# cycle edges; evaluating a signature is then a popcount per group.


@dataclass(frozen=True)
class FigureProfile:
    """Bit k of a mask stands for ``edges[k]`` of the edge list profiled."""

    constant: tuple[int, ...]                      # per-i weight of acyclic figures
    groups: tuple[tuple[int, int, int], ...]        # (i, weight, cycle_edge_mask)


def _profile_from(n: int, edges) -> FigureProfile:
    _, stream = _figure_stream(n, edges, n)
    constant = [0] * (n + 1)
    grouped: dict[tuple[int, int], int] = {}
    for used, k2, cycles, mask in stream:
        w = (-1 if (len(k2) + len(cycles)) % 2 else 1) << len(cycles)
        if not cycles:
            constant[used] += w
            continue
        key = (used, mask)
        grouped[key] = grouped.get(key, 0) + w
    groups = tuple((i, w, mask) for (i, mask), w in sorted(grouped.items()))
    return FigureProfile(tuple(constant), groups)


def _eval_profile(profile: FigureProfile, neg_mask: int) -> list[int]:
    """Coefficients a_0..a_n for the signature whose negative edges are neg_mask."""
    coeffs = list(profile.constant)
    for i, w, mask in profile.groups:
        if (mask & neg_mask).bit_count() & 1:
            coeffs[i] -= w
        else:
            coeffs[i] += w
    return coeffs


def char_poly_figures(g: SignedGraph) -> CharPoly:
    """Characteristic polynomial assembled from basic-figure contributions.

    Raises SizeGuardError when prod(deg(v) + 1) exceeds ``FIGURE_BOUND``;
    this route exists as an independent oracle, not a production engine.
    """
    neg_mask = sum(1 << k for k, (_, _, s) in enumerate(g.edges) if s == -1)
    return CharPoly(tuple(_eval_profile(_profile_from(g.n, g.underlying_edges), neg_mask)))
