"""Closed-form nullities and bounds for signed paths, cycles, and bicyclics.

Sign data enters only through parities: the number of negative edges on a
cycle matters modulo 2 because switching can move negative edges around a
cycle while preserving their parity.  The infinity-graph formula follows the
full case analysis on the parities of the two cycle lengths and the
connecting path, and every case has an exact value; so does the theta-graph
formula.

The case with both cycle lengths odd rests on one rule, an instance of
Haynsworth's Schur-complement additivity.  Take an induced path u-x-y-w
whose inner vertices x and y have degree 2, where u != w and u is not
adjacent to w.  The block of x and y, [[0, s], [s, 0]] with s = sigma(xy), is
nonsingular.  Its Schur complement is the adjacency matrix of G - x - y plus
one new edge uw of sign -sigma(ux) sigma(xy) sigma(yw), so the nullity is
unchanged.  On an odd cycle of length at least 5 the rule shortens the cycle
by 2 and flips its sign parity, which leaves the invariant
sp - sq + (q - p)/2 unchanged mod 2; on a connecting path of at least 5
vertices it shortens the path by 2.  So every infinity graph with p, q odd,
l >= 3 odd and an odd invariant reduces to infinity(3,3,3) with sp != sq,
whose nullity is 1, and the rule of ``nullity_infinity`` follows.  When u
and w are adjacent the same pivot still keeps the nullity; the Schur
complement then adds -sigma(ux) sigma(xy) sigma(yw) to the entry sigma(uw),
which becomes 0 or +-2.
"""

from __future__ import annotations

from typing import Literal

from .graph import GraphError, SignedGraph, components, find_cycles, is_balanced

UpperBoundClass = Literal["BPlus", "BPlusPlus", "ThetaUnbalanced", "BicyclicUnbalanced"]

#: (formula offset, minimum n) per graph class.
_BOUNDS: dict[str, tuple[int, int]] = {
    "BPlus": (6, 7),
    "BPlusPlus": (6, 8),
    "ThetaUnbalanced": (4, 5),
    "BicyclicUnbalanced": (3, 4),
}


def nullity_path(n: int) -> int:
    """Nullity of a signed path on n vertices: 1 if n is odd, else 0.

    Signs are irrelevant: every path is balanced, hence switching-equivalent
    to the all-positive path.
    """
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return n % 2


def nullity_cycle(n: int, s: int) -> int:
    """Nullity of a signed cycle on n vertices with s negative edges (parity).

    The full table::

        2  if n = 0 (mod 4) and s even
        2  if n = 2 (mod 4) and s odd
        0  if n odd
        0  if n = 0 (mod 4) and s odd
        0  if n = 2 (mod 4) and s even
    """
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    if s not in (0, 1):
        raise GraphError(f"negative-edge parity must be 0 or 1, got {s}")
    if n % 2 == 1:
        return 0
    if n % 4 == 0:
        return 2 if s == 0 else 0
    return 2 if s == 1 else 0


def nullity_infinity(p: int, q: int, l: int, sp: int = 0, sq: int = 0) -> int:
    """Nullity of the infinity graph ``gen_infinity(p, q, l, sp, sq)``:
    cycles C_p and C_q joined by a path with l vertices (l = 1 means the
    cycles share a vertex), with negative-edge parities sp and sq.

    Case p, q both odd:
        1 if l odd and sp - sq + (q - p)/2 odd
        0 otherwise

    Case p, q of different parity (e is the even length, se its parity):
        0 if the even cycle has nullity 0, else 1

    Case p, q both even:
        3 if l odd  and both cycle nullities are 2
        1 if l odd  and some cycle nullity is 0
        2 if l even and some cycle nullity is 2
        0 if l even and both cycle nullities are 0

    The odd-odd rule is proved in the module docstring: removing two
    degree-2 vertices shortens an odd cycle or the connecting path by 2 and
    changes neither the nullity nor the invariant.
    """
    if p < 3 or q < 3:
        raise GraphError(f"cycle lengths must be >= 3, got p={p}, q={q}")
    if l < 1:
        raise GraphError(f"connecting path needs l >= 1 vertices, got {l}")
    if sp not in (0, 1) or sq not in (0, 1):
        raise GraphError("cycle sign parities must be 0 or 1")
    if p % 2 == 1 and q % 2 == 1:
        invariant = (sp - sq + (q - p) // 2) % 2
        return 1 if l % 2 == 1 and invariant == 1 else 0
    if p % 2 != q % 2:
        e, se = (p, sp) if p % 2 == 0 else (q, sq)
        return 0 if nullity_cycle(e, se) == 0 else 1
    ep, eq = nullity_cycle(p, sp), nullity_cycle(q, sq)
    if l % 2 == 1:
        return 3 if ep == 2 and eq == 2 else 1
    return 2 if ep == 2 or eq == 2 else 0


def nullity_theta(p: int, q: int, l: int, s1: int = 0, s2: int = 0, s3: int = 0) -> int:
    """Nullity of the theta graph ``gen_theta(p, q, l, s1, s2, s3)``: two
    hubs joined by three internally disjoint paths of L_1, L_2, L_3 = p, q,
    l edges (each >= 1, at most one equal to 1) with negative-edge parities
    s_1, s_2, s_3.

    Let C_ij be the cycle of paths i and j, of length L_i + L_j and parity
    s_i + s_j mod 2.  Then::

        0  if every L_i is odd
        3  if every L_i is even and every C_ij has nullity 2
        1  if every L_i is even otherwise
        1  if the L_i have mixed parities and the one even C_ij (the cycle
           of the two paths of equal parity) has nullity 2
        0  if the L_i have mixed parities otherwise

    Proof.  The pivot of the module docstring on two adjacent inner vertices
    of a path of L >= 4 edges, or of L = 3 edges when no path is a single
    edge, leaves the theta graph with that path L - 2 edges long and its
    parity flipped, and keeps the nullity.  It keeps the value above too:
    every L_i keeps its parity, and an even cycle C_n with parity s has
    nullity 2 exactly when s = n/2 mod 2, where n/2 and s both change by
    one.  Pivoting while it applies leaves, up to the order of the paths,
    one of four graphs, each settled here with no rank computation:

    * theta(2,2,2) = K_{2,3}.  A = [[0, B], [B^T, 0]] with B the 2 x 3 sign
      matrix between the hubs and the middle vertices, so eta = 5 - 2 rank B.
      The 2 x 2 minor of columns i, j vanishes exactly when the quadrangle
      C_ij is positive, that is, has nullity 2; so eta is 3 when all three
      do and 1 otherwise.
    * theta(1,2,2), the diamond on hubs a, b with middle vertices x, y.
      The rows of x and y are zero outside columns a, b, where they form a
      2 x 2 matrix B whose determinant vanishes exactly when C_23 is
      positive.  If det B != 0, det A = (det B)^2 != 0 and eta = 0.
      Otherwise rows x and y are dependent, the triangle on a, b, x has
      determinant 2 sigma(ab) sigma(ax) sigma(bx) != 0, and eta = 1.
    * theta(1,2,3): pivot the 3-edge path anyway.  Its two inner vertices
      go and the hub entry becomes 0 when C_13, the quadrangle of the hub
      edge and that path, is positive, else +-2.  What is left is the path
      a-z-b with that hub entry: P_3, of nullity 1, or a matrix of
      determinant +-4 sigma(az) sigma(zb) != 0.
    * theta(1,3,3): pivot both 3-edge paths.  Each adds +-1 to the hub
      entry, which ends odd, so the last 2 x 2 block is nonsingular and
      eta = 0.
    """
    lengths, parities = (p, q, l), (s1, s2, s3)
    if any(x < 1 for x in lengths):
        raise GraphError(f"path lengths must be >= 1, got {lengths}")
    if lengths.count(1) > 1:
        raise GraphError("at most one of the three path lengths may be 1")
    if any(s not in (0, 1) for s in parities):
        raise GraphError(f"negative-edge parities s1, s2, s3 must be 0 or 1, got {parities}")
    odd = sum(x % 2 for x in lengths)
    if odd == 3:
        return 0
    even_cycles = [
        nullity_cycle(lengths[i] + lengths[j], parities[i] ^ parities[j])
        for i, j in ((0, 1), (0, 2), (1, 2))
        if (lengths[i] + lengths[j]) % 2 == 0
    ]
    if odd == 0:
        return 3 if all(eta == 2 for eta in even_cycles) else 1
    (eta,) = even_cycles
    return eta // 2


def upper_bound(class_name: UpperBoundClass, n: int) -> int:
    """Nullity upper bound for a signed-graph class at vertex count n.

    BPlus (infinity base, cycles vertex-disjoint, trees attached): n - 6 for
    n >= 7.  BPlusPlus (infinity base with shared vertex): n - 6 for n >= 8.
    ThetaUnbalanced: n - 4 for n >= 5.  BicyclicUnbalanced: n - 3 for n >= 4,
    attained only by the two-triangle diamond with both triangles unbalanced.
    """
    try:
        offset, n_min = _BOUNDS[class_name]
    except KeyError:
        raise GraphError(f"unknown class {class_name!r}; expected one of {sorted(_BOUNDS)}")
    if n < n_min:
        raise GraphError(f"{class_name} bound needs n >= {n_min}, got {n}")
    return n - offset


def is_max_nullity_extremal(g: SignedGraph) -> bool:
    """True iff g attains the unbalanced-bicyclic maximum nullity n - 3.

    That happens exactly for the diamond (two triangles sharing an edge,
    4 vertices) with both triangles unbalanced.  Raises unless g is
    connected, bicyclic, and unbalanced.
    """
    if len(components(g)) != 1:
        raise GraphError("extremal test needs a connected graph")
    if g.m != g.n + 1:
        raise GraphError("extremal test needs a bicyclic graph (m = n + 1)")
    balanced, _ = is_balanced(g)
    if balanced:
        raise GraphError("extremal test needs an unbalanced graph")
    return _is_extremal_diamond(g)


def _is_extremal_diamond(g: SignedGraph) -> bool:
    """``is_max_nullity_extremal`` for a g already known to be connected,
    bicyclic and unbalanced: the diamond with both triangles unbalanced."""
    if g.n != 4:
        return False
    # a connected bicyclic graph on 4 vertices is K4 - e: two triangles and
    # a quadrangle
    return all(w.sign == -1 for w in find_cycles(g) if len(w.vertices) == 3)
