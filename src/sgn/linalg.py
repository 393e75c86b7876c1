"""Exact integer linear algebra: rank, characteristic polynomial, nullity.

Everything here runs over arbitrary-precision Python integers; no floating
point is used anywhere.  The rank comes from fraction-free (Bareiss)
elimination.  The characteristic polynomial comes from the Faddeev-LeVerrier
recurrence (whose divisions are exact on integer matrices) below order
``HESSENBERG_MIN_ORDER`` (12), and from there on from an O(n^3) Hessenberg
reduction modulo a product of primes below 2^62 that exceeds twice a
Hadamard bound on every coefficient, so the symmetric residues are the
exact coefficients.  An independent evaluation/interpolation route is
provided as a cross-check.  The matrix routes refuse graphs above
``MAX_MATRIX_VERTICES`` vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


#: Largest vertex count the matrix routes (rank, characteristic polynomial,
#: interpolation) accept.  A dense n x n matrix of Python ints holds 8 n^2
#: bytes of references per copy, 32 MB at this ceiling.
MAX_MATRIX_VERTICES = 2000


def adjacency_matrix(g: SignedGraph) -> Matrix:
    """Signed adjacency matrix: entry (i, j) is the sign of edge {i, j} or 0.

    Raises LinalgError, before allocating, above ``MAX_MATRIX_VERTICES``.
    """
    if g.n > MAX_MATRIX_VERTICES:
        raise LinalgError(
            f"n = {g.n} exceeds the {MAX_MATRIX_VERTICES}-vertex ceiling of the matrix routes"
        )
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


#: Matrix order from which ``_charpoly_rows`` runs the modular Hessenberg
#: kernel; below it Faddeev-LeVerrier is faster (measured crossover).
HESSENBERG_MIN_ORDER = 12


def _charpoly_rows(a: list[list[int]]) -> list[int]:
    """Coefficients a_0..a_n of det(x*I - A) for an integer matrix given as
    lists: Faddeev-LeVerrier below ``HESSENBERG_MIN_ORDER``, the exact
    modular Hessenberg kernel from there on."""
    if len(a) < HESSENBERG_MIN_ORDER:
        return _faddeev_leverrier(a)
    return _charpoly_modular(a)


def _faddeev_leverrier(a: list[list[int]]) -> list[int]:
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


#: Bases of the Miller-Rabin test: the first 12 primes, which make it
#: exact for every n below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime(k: int) -> int:
    """The k-th prime below 2^62, counting down from 2^62 (k = 0 first);
    each is found on first use and cached."""
    c = _prime(k - 1) - 2 if k else (1 << 62) - 1
    while not _is_prime(c):
        c -= 2
    return c


def _hadamard_primes(a: list[list[int]]) -> list[int]:
    """Primes whose product M exceeds 2B, with B = prod(1 + |r_i|) over the
    Euclidean norms of the rows.

    B bounds every |a_k|: a_k is +-(sum of the principal k-minors), each
    minor is at most the product of its rows' norms (Hadamard), so
    |a_k| <= e_k(|r_1|, ..., |r_n|) <= B.  The test stays in integers:
    (1 + |r|)^2 <= 2(1 + |r|^2), so M^2 > 4 prod 2(1 + |r_i|^2) gives M > 2B,
    and every a_k is its residue mod M lifted to (-M/2, M/2].
    """
    bound = 4
    for row in a:
        bound *= 2 * (1 + sum(x * x for x in row))
    primes: list[int] = []
    square = 1
    while square <= bound:
        p = _prime(len(primes))
        primes.append(p)
        square *= p * p
    return primes


def _hessenberg_mod(a: list[list[int]], modulus: int) -> list[int] | None:
    """Residues of a_0..a_n modulo ``modulus``, or None if some column offers
    only non-unit nonzero pivots (never when ``modulus`` is prime).

    Reduces A to upper Hessenberg form H by similarity steps over Z/MZ: at
    column c a unit pivot is moved to row c + 1, each lower row i loses
    u_i times it, and column c + 1 gains u_i times column i (Cohen, Alg.
    2.2.9).  Then p_0 = 1 and p_{k+1} = (x - h_kk) p_k
    - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_i gives det(x*I - H) in
    O(n^3) ring operations.
    """
    n = len(a)
    h = [[x % modulus for x in row] for row in a]
    for m in range(1, n - 1):
        c = m - 1
        piv = None
        non_unit = False
        for i in range(m, n):
            if h[i][c]:
                try:
                    inv = pow(h[i][c], -1, modulus)
                except ValueError:
                    non_unit = True
                    continue
                piv = i
                break
        if piv is None:
            if non_unit:
                return None
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        tail = h[m][m:]
        us = []
        for i in range(m + 1, n):
            row = h[i]
            u = row[c] * inv % modulus
            us.append(u)
            if u:
                row[c] = 0
                row[m:] = [(x - u * y) % modulus for x, y in zip(row[m:], tail)]
        if any(us):
            for row in h:
                row[m] = (row[m] + sum([u * x for u, x in zip(us, row[m + 1:])])) % modulus
    # characteristic polynomials of the leading k x k blocks, lowest degree first
    polys = [[1]]
    for k in range(n):
        prev = polys[-1]
        hkk = h[k][k]
        new = [0] + prev
        new[:k + 1] = [x - hkk * y for x, y in zip(new, prev)]
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % modulus
            if not t:
                break
            s = h[i][k] * t % modulus
            if s:
                new[:i + 1] = [x - s * y for x, y in zip(new, polys[i])]
        polys.append([x % modulus for x in new])
    return polys[-1][::-1]


def _charpoly_modular(a: list[list[int]]) -> list[int]:
    """Exact a_0..a_n from the Hessenberg kernel modulo a product of primes
    below 2^62 that exceeds twice the Hadamard bound.

    A composite modulus can meet a column whose nonzero entries are all
    non-units; the kernel then runs modulo each prime, where every nonzero
    pivot is a unit, and the residues are joined by the Chinese remainder
    theorem.
    """
    primes = _hadamard_primes(a)
    modulus = 1
    for p in primes:
        modulus *= p
    res = _hessenberg_mod(a, modulus)
    if res is None:
        res = [0] * (len(a) + 1)
        for p in primes:
            q = modulus // p
            w = q * pow(q, -1, p)
            res = [(x + r * w) % modulus for x, r in zip(res, _hessenberg_mod(a, p))]
    return _symmetric_residues(res, modulus)


def _symmetric_residues(res: list[int], modulus: int) -> list[int]:
    """Each residue lifted to the integer in (-modulus/2, modulus/2]."""
    return [x - modulus if 2 * x > modulus else x for x in res]


def char_poly(m: Sequence[Sequence[int]]) -> CharPoly:
    """Exact coefficients of det(lambda*I - M): Faddeev-LeVerrier below
    ``HESSENBERG_MIN_ORDER``, the modular Hessenberg kernel from there on."""
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
