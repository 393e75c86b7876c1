"""Characteristic-polynomial coefficients by basic-figure enumeration.

A basic figure is a vertex-disjoint union of single edges and cycles.  With
p components, c cycles, and s negative edges lying on the cycles, a figure
covering i vertices contributes (-1)^(p+s) * 2^c to the coefficient a_i.
Edges used as K_2 components contribute their sign squared, i.e. nothing,
which is why only cycle edges enter s.

This module is an independent combinatorial oracle for the exact linear
algebra route.  Every consumer enters through ``_guarded_neighbors``, which
renumbers the vertices that have neighbors and refuses (``figure_refusal``),
before anything is enumerated, a graph whose figure count may exceed
``FIGURE_BOUND``: a figure maps each vertex one-to-one to nothing, to its
K_2 partner or to its successor on its cycle, so there are at most
prod(deg(v) + 1) of them.
``enumerate_basic_figures`` and ``coefficient`` read the figures one by one
from ``_figure_stream``, which carries each figure's cycle-edge mask.
``char_poly_figures`` sums over cycle sets instead: a figure is a set S of
disjoint cycles plus a matching of the vertices S leaves, so its
coefficients are phi(G) = sum_S (-2)^|S| sigma(S) mu(G - V(S)), with mu
the matching polynomial (Sachs 1964; Godsil & Gutman 1981), and its
profile equals the figure stream grouped by cycle-edge mask.  All three
refuse the same graphs.  The stream and the profile find their cycles
through one enumerator, ``_cycles_from``, a depth-first path walk that
drops a path as soon as no cycle can close from it.  Loops never occur
because the data model is simple graphs.
"""

from __future__ import annotations

from collections import Counter
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


def figure_refusal(n: int, degrees: Counter) -> str | None:
    """Why the figure route refuses a graph on ``n`` vertices whose
    vertices with neighbors have the degrees ``degrees`` (vertex to degree):
    prod(deg(v) + 1) above ``FIGURE_BOUND``; None otherwise.  The vertex
    ceiling is the adjacency lists' own check, not this one."""
    bound = 1
    for d in degrees.values():
        bound *= d + 1
        if bound > FIGURE_BOUND:
            return f"figure enumeration guard: n = {n}, prod(deg(v) + 1) exceeds {FIGURE_BOUND}"


def _guarded_neighbors(n: int, edges):
    """(labels, neighbors, adj): the one guarded entry of every figure
    consumer, for the graph on vertices 0..n-1 whose ascending (u, v) pairs,
    u < v, are ``edges``.

    Isolated vertices lie on no figure, so only the others are kept,
    renumbered in order, which keeps the figures and their order; vertex k
    is ``labels[k]``.  ``neighbors[v]`` maps each neighbor, ascending by the
    edge order, to its edge's bit, bit k for ``edges[k]``, and ``adj[v]``
    has bit u set for each neighbor u.  The vertex ceiling (GraphError) and
    ``figure_refusal`` (SizeGuardError) are checked from degree counts,
    before any edge bit is built: the bits of m edges take O(m^2) bits in all.
    """
    check_vertex_ceiling(n)
    degree = Counter(x for e in edges for x in e)
    if refusal := figure_refusal(n, degree):
        raise SizeGuardError(refusal)
    labels = sorted(degree)
    index = {v: k for k, v in enumerate(labels)}
    neighbors = [{} for _ in labels]
    for k, (u, v) in enumerate(edges):
        u, v = index[u], index[v]
        neighbors[u][v] = neighbors[v][u] = 1 << k
    return labels, neighbors, [sum(1 << u for u in nb) for nb in neighbors]


def _figure_stream(n: int, edges, limit: int):
    """(labels, stream): every figure covering at most ``limit`` vertices of
    the graph ``_guarded_neighbors(n, edges)`` builds, in its numbering;
    vertex k of the stream is ``labels[k]``."""
    labels, neighbors, adj = _guarded_neighbors(n, edges)
    return labels, _component_stream(neighbors, adj, limit)


def _component_stream(neighbors, adj, limit, covered=0, used=0, edges=(), cycles=(), mask=0):
    """Yield every basic figure covering at most ``limit`` vertices as
    (vertices covered, K_2 edges, cycles, cycle-edge mask).

    ``neighbors`` and ``adj`` are built by ``_guarded_neighbors``; the
    other arguments describe the figure being extended, which is yielded
    first (the empty figure at the top level).  Components are added in
    increasing order of their smallest vertex: the smallest free vertex v
    is matched to a larger neighbor, made the smallest vertex of a cycle,
    or left uncovered, and the recursion extends each new figure before
    the next choice is tried.  The traversal order is deterministic, and a
    limit only prunes figures (with all their extensions) that exceed it.
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
                    neighbors, adj, limit, covered | 1 << v | 1 << u, used + 2, edges + ((v, u),), cycles, mask
                )
        for cycle, blocked, bits in _cycles_from(neighbors, adj, v, covered | 1 << v, room):
            yield from _component_stream(
                neighbors, adj, limit, blocked, used + len(cycle), edges, cycles + (cycle,), mask | bits
            )
        # v left uncovered: later components avoid it
        covered |= 1 << v
        free ^= 1 << v


def _cycles_from(neighbors, adj, v, blocked, room):
    """Every cycle of at most ``room`` vertices whose smallest vertex is v
    and whose other vertices are not in ``blocked``, as (cycle, ``blocked``
    plus the cycle's vertices, the cycle's edge bits); ``blocked`` holds v.

    Each cycle comes in one orientation only, its second vertex smaller
    than its last, and the list is in the order of a depth-first walk of
    the paths from v, each path extended by its free neighbors above v in
    ascending order, a cycle closing at w coming before the paths through
    w.  A path is dropped as soon as no neighbor of v above its second
    vertex is free, since no cycle can close from it (the circuit pruning
    of Johnson, SIAM J. Comput. 4, 1975).
    """
    found = []
    above = -2 << v  # the bits of the vertices above v
    close = neighbors[v]

    def extend(path, x, blocked, mask, ends):
        # ``ends``: the free neighbors of v above path[1], where a cycle may
        # close; none while the path is v alone
        step = neighbors[x]
        longer = len(path) + 2 <= room
        free = adj[x] & above & ~blocked
        while free:
            low = free & -free
            free ^= low
            w = low.bit_length() - 1
            if ends & low:
                found.append((path + (w,), blocked | low, mask | step[w] | close[w]))
            if longer:
                rest = ends & ~low if ends else adj[v] & ~blocked & -(low << 1)
                if rest:
                    extend(path + (w,), w, blocked | low, mask | step[w], rest)

    extend((v,), v, blocked, 0, 0)
    return found


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
    """The profile of the graph on vertices 0..n-1 with ``edges``, summed
    over cycle sets instead of figures.

    A basic figure is a set S of c vertex-disjoint cycles plus a k-matching
    of G - V(S), and its weight (-1)^(p+s) 2^c has p = c + k.  So the
    figures with cycle set S and k K_2 edges add (-1)^(k+c) 2^c m_k(G - V(S))
    at i = |V(S)| + 2k, where m_k counts k-matchings, and the sign (-1)^s is
    fixed by S's edges: phi(G) = sum_S (-2)^|S| sigma(S) mu(G - V(S))
    (Sachs 1964; Godsil & Gutman 1981).  S is fixed by its edge mask, and
    m_k > 0 up to the largest matching of G - V(S), so these terms are
    exactly the stream's figures grouped by (i, cycle-edge mask), S empty
    giving the constant part.

    The cycle sets are walked as ``_component_stream`` walks figures, each
    once: the smallest free vertex v starts a cycle or is left off.  The
    cycles whose smallest vertex is v come from the stream's enumerator
    ``_cycles_from`` once per graph, shortest first, so a walk reads those
    that avoid the covered vertices and stops at the first longer than the
    free vertex count; every cycle is a figure, so these lists are no
    longer than the figure count.  m(U) = m(U - v) + x sum_{u in N(v) & U}
    m(U - v - u), v the lowest vertex of U, is memoized per vertex bitmask U
    after the lowest vertices without a neighbor in U are dropped.  The memo holds at
    most one tuple per vertex subset reached, and so at most min(2^N, the
    figure count) for the N vertices with neighbors: a nonempty U reached
    through cycle set S and matching M maps to the figure S + M + {v u},
    u the lowest neighbor of v in U, whose K_2 edge with the largest smaller
    end is {v u}, so the figure gives back v, S + M and U, the vertices at
    or above v off S + M; the empty U maps to the empty figure.
    """
    _, neighbors, adj = _guarded_neighbors(n, edges)
    size = len(neighbors)
    full = (1 << size) - 1
    memo = {0: (1,)}
    # the cycles whose smallest vertex is v, shortest first, as (length,
    # vertex bits, edge bits)
    lowest = [
        sorted((len(cyc), on, bits) for cyc, on, bits in _cycles_from(neighbors, adj, v, 1 << v, size))
        for v in range(size)
    ]
    constant = [0] * (n + 1)
    grouped = []
    for on_cycles, c, mask in _cycle_sets(lowest, full, 0, 0, 0):
        used = on_cycles.bit_count()
        for k, count in enumerate(_matching_numbers(adj, memo, full ^ on_cycles)):
            w = -count << c if (k + c) & 1 else count << c
            if c:
                grouped.append((used + 2 * k, mask, w))
            else:
                constant[2 * k] = w
    grouped.sort()
    return FigureProfile(tuple(constant), tuple((i, w, mask) for i, mask, w in grouped))


def _cycle_sets(lowest, free, on_cycles, c, mask):
    """Yield (vertex bits, cycle count, edge bits) of the cycle set on
    ``on_cycles`` and then of every one that extends it by cycles on the
    vertices ``free``, each once; ``lowest[v]`` lists the cycles whose
    smallest vertex is v, shortest first."""
    yield on_cycles, c, mask
    while free:
        low = free & -free
        room = free.bit_count()
        for length, vertices, bits in lowest[low.bit_length() - 1]:
            if length > room:
                break
            if vertices & free == vertices:
                yield from _cycle_sets(lowest, free ^ vertices, on_cycles | vertices, c + 1, mask | bits)
        # low left off: later cycles avoid it
        free ^= low


def _matching_numbers(adj, memo, u) -> tuple[int, ...]:
    """(m_0, m_1, ...): the k-matching counts of the subgraph on the vertex
    bits ``u``, where ``adj[v]`` holds the neighbor bits of v; ``memo`` maps
    each vertex bitmask computed, after the lowest vertices without a
    neighbor in it are dropped, to its counts."""
    while u and not adj[(u & -u).bit_length() - 1] & u:
        u &= u - 1
    got = memo.get(u)
    if got is None:
        low = u & -u
        rest = u ^ low
        total = list(_matching_numbers(adj, memo, rest))
        nb = adj[low.bit_length() - 1] & rest
        while nb:
            w = nb & -nb
            nb ^= w
            for k, count in enumerate(_matching_numbers(adj, memo, rest ^ w), 1):
                if k < len(total):
                    total[k] += count
                else:
                    total.append(count)
        got = memo[u] = tuple(total)
    return got


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
    profile = _profile_from(g.n, g.underlying_edges)  # refused before any edge bit is built
    neg_mask = sum(1 << k for k, (_, _, s) in enumerate(g.edges) if s == -1)
    return CharPoly(tuple(_eval_profile(profile, neg_mask)))
