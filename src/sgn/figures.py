"""Characteristic-polynomial coefficients by basic-figure enumeration.

A basic figure is a vertex-disjoint union of single edges and cycles.  With
p components, c cycles, and s negative edges lying on the cycles, a figure
covering i vertices contributes (-1)^(p+s) * 2^c to the coefficient a_i.
Edges used as K_2 components contribute their sign squared, i.e. nothing,
which is why only cycle edges enter s.

This module is an independent combinatorial oracle for the exact linear
algebra route; enumeration is exponential, so a configurable vertex-count
guard keeps it at desk scale.  Loops never occur because the data model is
simple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CycleWitness, GraphError, SignedGraph, cycle_witness
from .linalg import CharPoly

#: Hard default guard for whole-polynomial figure enumeration.
DEFAULT_SIZE_GUARD = 14


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


def _component_stream(n, neighbors):
    """Yield every basic figure as (vertices_used, components).

    Components are built in increasing order of their smallest vertex: the
    smallest uncovered vertex is skipped, matched to a larger neighbor, or
    made the anchor of a cycle (second vertex smaller than the last, so each
    cycle appears in one orientation only).  The traversal order is
    deterministic.
    """
    out = []

    def emit_and_recurse(covered, used, comps):
        out.append((used, comps))
        extend(covered, used, comps)

    def extend(covered, used, comps):
        full = (1 << n) - 1
        free = ~covered & full
        while free:
            v = (free & -free).bit_length() - 1
            # K_2 components anchored at v
            for u in neighbors[v]:
                if u > v and not (covered >> u) & 1:
                    emit_and_recurse(
                        covered | (1 << v) | (1 << u),
                        used + 2,
                        comps + (("edge", v, u),),
                    )
            # cycles anchored at v; grow simple paths through vertices > v
            path = [v]

            def grow(cur, pathmask):
                for w in neighbors[cur]:
                    if w <= v or (covered >> w) & 1 or (pathmask >> w) & 1:
                        continue
                    if len(path) >= 2 and v in neighbors_set[w] and path[1] < w:
                        cyc = tuple(path) + (w,)
                        emit_and_recurse(
                            covered | pathmask | (1 << w),
                            used + len(cyc),
                            comps + (("cycle",) + cyc,),
                        )
                    path.append(w)
                    grow(w, pathmask | (1 << w))
                    path.pop()

            grow(v, 1 << v)
            # v left uncovered: move on to the next anchor
            covered |= 1 << v
            free = ~covered & full

    neighbors_set = [set(ns) for ns in neighbors]
    extend(0, 0, ())
    return out


def enumerate_basic_figures(g: SignedGraph, i: int) -> tuple[BasicFigure, ...]:
    """All basic figures of ``g`` covering exactly ``i`` vertices.

    ``i = 0`` yields the single empty figure (its coefficient contribution,
    a_0 = 1, is set structurally by char_poly_figures).
    """
    if not (0 <= i <= g.n):
        raise GraphError(f"figure size {i} out of range 0..{g.n}")
    if i == 0:
        return (BasicFigure((), ()),)
    figures = []
    for used, comps in _component_stream(g.n, [g.neighbors(v) for v in range(g.n)]):
        if used != i:
            continue
        edges = tuple((c[1], c[2]) for c in comps if c[0] == "edge")
        cycles = tuple(cycle_witness(g, c[1:]) for c in comps if c[0] == "cycle")
        figures.append(BasicFigure(edges, cycles))
    return tuple(figures)


def coefficient(g: SignedGraph, i: int) -> int:
    """Coefficient a_i of the characteristic polynomial, by figure counting."""
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
    n: int
    edge_index: dict[tuple[int, int], int]
    constant: tuple[int, ...]                      # per-i weight of acyclic figures
    groups: tuple[tuple[int, int, int], ...]        # (i, weight, cycle_edge_mask)


def _profile_from(n: int, edges) -> FigureProfile:
    eidx = {}
    neighbors = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        eidx[(u, v)] = k
        eidx[(v, u)] = k
        neighbors[u].append(v)
        neighbors[v].append(u)
    for lst in neighbors:
        lst.sort()
    constant = [0] * (n + 1)
    grouped: dict[tuple[int, int], int] = {}
    for used, comps in _component_stream(n, [tuple(ns) for ns in neighbors]):
        p = len(comps)
        c = 0
        mask = 0
        for comp in comps:
            if comp[0] == "cycle":
                c += 1
                cyc = comp[1:]
                for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                    mask |= 1 << eidx[(a, b)]
        w = (-1 if p % 2 else 1) * (1 << c)
        if mask == 0:
            constant[used] += w
        else:
            key = (used, mask)
            grouped[key] = grouped.get(key, 0) + w
    groups = tuple((i, w, mask) for (i, mask), w in sorted(grouped.items()))
    return FigureProfile(n, eidx, tuple(constant), groups)


def _eval_profile(profile: FigureProfile, neg_mask: int) -> list[int]:
    """Coefficients a_0..a_n for the signature whose negative edges are neg_mask."""
    coeffs = list(profile.constant)
    coeffs[0] = 1
    for i, w, mask in profile.groups:
        if (mask & neg_mask).bit_count() & 1:
            coeffs[i] -= w
        else:
            coeffs[i] += w
    return coeffs


def _neg_mask(g: SignedGraph, edge_index: dict[tuple[int, int], int]) -> int:
    mask = 0
    for u, v, s in g.edges:
        if s == -1:
            mask |= 1 << edge_index[(u, v)]
    return mask


def char_poly_figures(
    g: SignedGraph, size_guard: int = DEFAULT_SIZE_GUARD
) -> CharPoly:
    """Characteristic polynomial assembled from basic-figure contributions.

    Refuses graphs larger than ``size_guard`` vertices; this route exists as
    an independent oracle, not a production engine.
    """
    if g.n > size_guard:
        raise SizeGuardError(
            f"figure enumeration guard: n = {g.n} exceeds {size_guard}"
        )
    profile = _profile_from(g.n, g.underlying_edges)
    return CharPoly(tuple(_eval_profile(profile, _neg_mask(g, profile.edge_index))))
