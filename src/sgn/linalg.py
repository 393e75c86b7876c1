"""Exact integer linear algebra: rank, characteristic polynomial, nullity.

Everything here runs over arbitrary-precision Python integers; no floating
point is used anywhere.  The rank comes from fraction-free (Bareiss)
elimination, the characteristic polynomial from the Faddeev-LeVerrier
recurrence (whose divisions are exact on integer matrices), and an
independent evaluation/interpolation route is provided as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import SignedGraph

#: Dense integer matrix as nested tuples (rows of entries).
Matrix = tuple[tuple[int, ...], ...]


class LinalgError(ValueError):
    """Bad matrix input (non-square where squareness is required, ...)."""


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coefficients a_0..a_n.

    ``coeffs[i]`` is the coefficient of lambda^(n-i); ``coeffs[0] == 1``.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise LinalgError("characteristic polynomial must be monic (a_0 = 1)")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for a in self.coeffs:
            acc = acc * x + a
        return acc

    def __str__(self) -> str:
        n = self.degree
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            power = n - i
            if power == 0:
                terms.append(f"{a:+d}")
            else:
                mag = "" if abs(a) == 1 else str(abs(a))
                var = "x" if power == 1 else f"x^{power}"
                terms.append(("+" if a > 0 else "-") + mag + var)
        if not terms:
            return "0"
        head = terms[0].lstrip("+")
        return " ".join([head] + [f"{t[0]} {t[1:]}" for t in terms[1:]])


def _as_rows(m: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(row) for row in m]


def _require_square(m: Sequence[Sequence[int]]) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise LinalgError("matrix must be square")
    return n


def adjacency_matrix(g: SignedGraph) -> Matrix:
    """Signed adjacency matrix: entry (i, j) is the sign of edge {i, j} or 0."""
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v, s in g.edges:
        rows[u][v] = s
        rows[v][u] = s
    return tuple(tuple(row) for row in rows)


# -- rank ----------------------------------------------------------------


def _rank_rows(m: list[list[int]]) -> tuple[int, int]:
    """Bareiss fraction-free elimination; mutates ``m``; returns the rank
    and the number of row swaps.

    Pivoting picks the first nonzero entry in column order, so runs are
    deterministic.  Over the integers the computed rank equals the rank
    over the rationals (and the reals).  On a square matrix of full rank the
    last pivot ``m[-1][-1]`` is the determinant up to the swaps' sign.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
    swaps = 0
    for c in range(nc):
        if r == nr:
            break
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        mrc = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nr):
            row_i = m[i]
            mic = row_i[c]
            if mic:
                for j in range(c + 1, nc):
                    row_i[j] = (row_i[j] * mrc - mic * row_r[j]) // prev
                row_i[c] = 0
            elif prev != mrc:
                for j in range(c + 1, nc):
                    row_i[j] = row_i[j] * mrc // prev
        prev = mrc
        r += 1
    return r, swaps


def rank(m: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix."""
    if not m:
        return 0
    return _rank_rows(_as_rows(m))[0]


def nullity_rank(g: SignedGraph) -> int:
    """Nullity via the rank route: n minus the exact adjacency rank."""
    return g.n - rank(adjacency_matrix(g))


# -- determinant (used by the interpolation cross-check) ------------------


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss elimination."""
    n = _require_square(m)
    if n == 0:
        return 1
    a = _as_rows(m)
    r, swaps = _rank_rows(a)
    if r < n:
        return 0
    return -a[-1][-1] if swaps % 2 else a[-1][-1]


# -- characteristic polynomial -------------------------------------------


def _charpoly_rows(a: list[list[int]]) -> list[int]:
    """Faddeev-LeVerrier on an integer matrix given as lists; returns a_0..a_n.

    M_1 = A, c_k = -tr(M_k)/k, M_{k+1} = A (M_k + c_k I).  All divisions are
    exact because the coefficients of an integer matrix are integers.
    """
    n = len(a)
    coeffs = [1]
    if n == 0:
        return coeffs
    if n == 1:
        return [1, -a[0][0]]
    symmetric = all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))
    m = [row[:] for row in a]
    rng = range(n)
    for k in range(1, n):
        tr = 0
        for i in rng:
            tr += m[i][i]
        q, rem = divmod(-tr, k)
        if rem:
            raise LinalgError("Faddeev-LeVerrier division was inexact on integer input")
        coeffs.append(q)
        for i in rng:
            m[i][i] += q
        if k == n - 1:
            break
        if symmetric:
            # A and M commute (M is a polynomial in A), so A@M is symmetric:
            # compute the upper triangle only, using rows as columns.
            new = [[0] * n for _ in rng]
            for i in rng:
                ai = a[i]
                row = new[i]
                for j in range(i, n):
                    mj = m[j]
                    acc = 0
                    for t in rng:
                        acc += ai[t] * mj[t]
                    row[j] = acc
                    new[j][i] = acc
            m = new
        else:
            cols = list(zip(*m))
            m = [[sum(x * y for x, y in zip(ai, col)) for col in cols] for ai in a]
    # the last coefficient needs only the trace of M_n = A @ (M_{n-1} + c I)
    tr = 0
    if symmetric:
        for i in rng:
            ai = a[i]
            mi = m[i]
            for t in rng:
                tr += ai[t] * mi[t]
    else:
        for i in rng:
            ai = a[i]
            for t in rng:
                tr += ai[t] * m[t][i]
    q, rem = divmod(-tr, n)
    if rem:
        raise LinalgError("Faddeev-LeVerrier division was inexact on integer input")
    coeffs.append(q)
    return coeffs


def char_poly(m: Sequence[Sequence[int]]) -> CharPoly:
    """Exact coefficients of det(lambda*I - M) via Faddeev-LeVerrier."""
    _require_square(m)
    return CharPoly(tuple(_charpoly_rows(_as_rows(m))))


def char_poly_interpolated(m: Sequence[Sequence[int]]) -> CharPoly:
    """Independent characteristic polynomial via evaluation + interpolation.

    Evaluates det(x*I - M) by Bareiss at x = 0, 1, -1, 2, -2, ... (smallest
    magnitudes first, to bound entry growth) and interpolates the degree-n
    polynomial with Newton divided differences over exact rationals.
    """
    n = _require_square(m)
    points: list[int] = [0]
    k = 1
    while len(points) < n + 1:
        points.append(k)
        if len(points) < n + 1:
            points.append(-k)
        k += 1
    values = []
    for x in points:
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        values.append(determinant(shifted))
    # Newton divided differences
    coef = [Fraction(v) for v in values]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (points[i] - points[i - j])
    # expand Newton form to monomial coefficients, highest power first
    poly = [coef[n]]
    for i in range(n - 1, -1, -1):
        # poly <- poly * (x - points[i]) + coef[i]
        new = poly + [Fraction(0)]
        for d in range(len(poly)):
            new[d + 1] -= poly[d] * points[i]
        new[-1] += coef[i]
        poly = new
    out = []
    for c in poly:
        if c.denominator != 1:
            raise LinalgError("interpolated characteristic polynomial is not integral")
        out.append(int(c))
    return CharPoly(tuple(out))


def zero_multiplicity(p: CharPoly) -> int:
    """Multiplicity of the root 0: number of trailing zero coefficients."""
    k = 0
    for a in reversed(p.coeffs):
        if a != 0:
            break
        k += 1
    return k


def nullity_charpoly(g: SignedGraph) -> int:
    """Nullity via the spectrum route: multiplicity of eigenvalue zero.

    For the symmetric adjacency matrix the algebraic multiplicity equals the
    geometric one, so this agrees with ``nullity_rank``.
    """
    return zero_multiplicity(char_poly(adjacency_matrix(g)))
