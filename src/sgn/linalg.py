"""Exact integer linear algebra: rank, characteristic polynomial, nullity.

Everything here runs over arbitrary-precision Python integers; no floating
point is used anywhere.  The rank comes from fraction-free (Bareiss)
elimination below order ``MODULAR_RANK_MIN_ORDER`` (48).  From there on it
comes from one elimination modulo the prime 32 749, proved exact by an
integer kernel basis checked over Z; a matrix whose check fails goes to
Bareiss.  The characteristic polynomial has three kernels; two rest on a
Hadamard bound B on every coefficient.  A symmetric matrix below
order ``KRONECKER_MAX_ORDER`` (15) gets it from one integer, det(X*I - A)
at a power of two X > 2B, whose signed base-X digits are the coefficients
(Kronecker substitution); a pivot-free fraction-free elimination computes
it.  Any other matrix below order ``HESSENBERG_MIN_ORDER`` (57) gets it
from the power traces tr(A^k) and Newton's identities, each row of A^k
packed into one integer with slots wide enough for every entry, as long as
those slots are at most ``_power_trace_max_width(n)`` bits wide (173 at
or below order 14, down to 113 at order 20, up to 254 at order 56).
Otherwise it comes from an O(n^3) Hessenberg reduction modulo the least
power of two M with M^2 above the bound's integer test, so M > 2B and the
symmetric residues are the exact coefficients; every reduction is a mask
and every pivot's factors of 2 are its trailing zero bits.  The public
matrix functions accept integer entries only, and the matrix routes refuse
graphs above ``MAX_MATRIX_VERTICES`` vertices.
A ``SignedGraph`` is validated when it is built, so the graph routes
(``nullity_rank``, ``nullity_charpoly``) check nothing again.  The rank
route builds the adjacency rows as lists once.  Below order 15 the spectrum
route builds the Kronecker triangle of X*I - A straight from the edges and
takes the squared row norms from the degrees (``_graph_triangle``); from
15 on it builds the rows once too.  Bareiss skips the division while the
last pivot is +-1, where dividing by it is multiplying by it.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from math import gcd, isqrt, lcm
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
    """Copy of ``m`` as lists of ints.  Raises LinalgError on any other
    entry (a float, a Fraction), on which the exact kernels go wrong."""
    try:
        return [list(map(operator.index, row)) for row in m]
    except TypeError:
        raise LinalgError("matrix entries must be integers") from None


#: Largest vertex count the matrix routes (rank, characteristic polynomial)
#: accept.  A dense n x n matrix of Python ints holds 8 n^2 bytes of
#: references per copy, 32 MB at this ceiling.
MAX_MATRIX_VERTICES = 2000


def _adjacency_rows(g: SignedGraph) -> list[list[int]]:
    """Signed adjacency matrix of a validated graph as lists, the rows every
    graph route computes on; LinalgError, before allocating, above
    ``MAX_MATRIX_VERTICES``."""
    if g.n > MAX_MATRIX_VERTICES:
        raise LinalgError(
            f"n = {g.n} exceeds the {MAX_MATRIX_VERTICES}-vertex ceiling of the matrix routes"
        )
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v, s in g.edges:
        rows[u][v] = s
        rows[v][u] = s
    return rows


def adjacency_matrix(g: SignedGraph) -> Matrix:
    """Signed adjacency matrix: entry (i, j) is the sign of edge {i, j} or 0.

    Raises LinalgError, before allocating, above ``MAX_MATRIX_VERTICES``.
    """
    return tuple(tuple(row) for row in _adjacency_rows(g))


# -- rank ----------------------------------------------------------------


def _rank_rows(m: list[list[int]]) -> int:
    """Bareiss fraction-free elimination; mutates ``m``; returns the rank.

    It is the rank below ``MODULAR_RANK_MIN_ORDER`` and the fallback of the
    certified modular rank above it.  Pivoting picks the first nonzero entry
    in column order, so runs are deterministic.  Over the integers the
    computed rank equals the rank over the rationals (and the reals).
    While the last pivot ``prev`` is +-1, dividing by it is multiplying by
    it: a row is updated as x * f - g * y with f = mrc * prev and
    g = mic * prev, with no division, and a row with 0 in the pivot column
    is scaled by f, or left alone when f is 1.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
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
        row_r = m[r]
        mrc = row_r[c]
        unit = prev == 1 or prev == -1
        f = mrc * prev
        cols = range(c + 1, nc)
        for i in range(r + 1, nr):
            row_i = m[i]
            mic = row_i[c]
            if mic:
                row_i[c] = 0
                if unit:
                    g = mic * prev
                    for j in cols:
                        row_i[j] = row_i[j] * f - g * row_r[j]
                else:
                    for j in cols:
                        row_i[j] = (row_i[j] * mrc - mic * row_r[j]) // prev
            elif unit:
                if f != 1:
                    for j in cols:
                        row_i[j] *= f
            elif prev != mrc:
                for j in cols:
                    row_i[j] = row_i[j] * mrc // prev
        prev = mrc
        r += 1
    return r


#: Matrix order (the smaller dimension) from which ``rank`` runs the certified
#: modular kernel (measured crossover).  Its time over Bareiss's on signed
#: adjacency matrices, summed over 12 graphs per cell (each the median of 7
#: runs), on a 2-core x86-64 host under Python 3.11:
#:
#:     order                      32    40    48    56    64    72
#:     p = 0.3 with 4 twin rows   0.72  0.49  0.38  0.28  0.23  0.19
#:     p = 0.3                    0.59  0.37  0.27  0.22  0.17  0.15
#:     mean degree 3              1.00  0.77  0.74  0.79  0.62  0.53
#:     random tree                1.34  1.05  0.96  0.80  0.78  0.66
#:
#: From 48 on the certified kernel is the faster on every kind; at 200 it
#: takes 0.04 of Bareiss's time on the twin graphs.
MODULAR_RANK_MIN_ORDER = 48

#: Prime of the modular rank: the largest below 2^15.  A slot of a packed row
#: in ``_rank_certified`` then gains less than 2^30 per elimination step, so
#: 64-bit slots never need reducing.
RANK_PRIME = 32749

#: Rational reconstruction bound modulo ``RANK_PRIME``: the largest N with
#: 2 N^2 < p, so that a fraction with |numerator|, denominator <= N is the
#: only one of its residue.
RECONSTRUCTION_BOUND = 127

#: All-ones 64-bit slot of the packed rows of ``_rank_certified``.
_SLOT = (1 << 64) - 1


def _reconstruct(x: int) -> tuple[int, int] | None:
    """(a, b) with a = b x (mod ``RANK_PRIME``), |a| <= N, 0 < b <= N and
    gcd(a, b) = 1, for N = ``RECONSTRUCTION_BOUND``; None if there is none.

    Runs the extended Euclidean algorithm on (p, x) until the remainder is
    at most N (Wang's rational reconstruction).
    """
    r0, r1, t0, t1 = RANK_PRIME, x, 0, 1
    while r1 > RECONSTRUCTION_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > RECONSTRUCTION_BOUND or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _pack(residues: Sequence[int]) -> int:
    """One integer whose 64-bit slot i holds ``residues[i]`` (each below 2^64)."""
    return int.from_bytes(array("Q", residues).tobytes(), sys.byteorder)


def _rank_certified(rows: Sequence[Sequence[int]]) -> int | None:
    """Rank of an integer matrix with at least as many rows as columns, from
    one elimination modulo ``p = RANK_PRIME`` and an exact kernel check;
    None when the check fails.

    The elimination gives r_p, the rank over GF(p), and its pivot columns.
    For each of the k = n_cols - r_p free columns j, back-substitution gives
    the kernel vector mod p with x_j = 1 and 0 on the other free columns.
    Each entry is reconstructed as a fraction with numerator and denominator
    at most ``RECONSTRUCTION_BOUND``, the vector is scaled to integers y, and
    M y = 0 is checked over Z.

    Proof that a returned r_p is the rank over Q:
    - r_p <= rank_Q: some r_p x r_p minor is nonzero mod p, so it is a
      nonzero integer;
    - rank_Q <= r_p: the k checked vectors lie in the rational kernel and
      are independent, because on the free columns they are positive
      multiples of the identity, so the kernel has dimension at least k.
    The first half rests on the elimination mod p, the second on the check
    alone: an unlucky prime (one that divides a pivot minor) or a kernel
    vector too large to reconstruct only makes a check fail, and then the
    function returns None.

    Each row being eliminated is one integer with a 64-bit slot per column
    (column c in slot 0 at step c; a row drops that slot with one shift), so
    a row operation is one big-integer multiply-add.  Slots are reduced
    mod p only in pivot rows: a slot starts below p and gains at most
    (p - 1)^2 per step, so it stays below p + n_cols (p - 1)^2.  That is
    below 2^64 for fewer than 2^34 columns, far more than fit in memory, so
    a slot never carries into the next.
    """
    p = RANK_PRIME
    nc = len(rows[0])
    active = [_pack([x % p for x in row]) for row in rows]
    echelon = []  # (pivot column, inverse of the pivot, residues of the later columns)
    for c in range(nc):
        if not active:
            break
        piv = next((i for i, row in enumerate(active) if (row & _SLOT) % p), None)
        if piv is None:
            active = [row >> 64 for row in active]
            continue
        prow = active.pop(piv)
        inv = pow((prow & _SLOT) % p, -1, p)
        rest = array("Q", (prow >> 64).to_bytes(8 * (nc - 1 - c), sys.byteorder))
        rest = array("Q", [x % p for x in rest])
        echelon.append((c, inv, rest))
        prow = _pack(rest)
        for i, row in enumerate(active):
            f = (row & _SLOT) % p
            active[i] = (row >> 64) + (p - f * inv % p) * prow if f else row >> 64
    if len(echelon) == nc:
        return nc
    pivots = {c for c, _, _ in echelon}
    columns = list(zip(*rows))
    for j in range(nc):
        if j in pivots:
            continue
        x = {j: 1}
        for c, inv, rest in reversed(echelon):
            if c < j:
                s = sum(rest[t - c - 1] * xt for t, xt in x.items()) % p
                if s:
                    x[c] = (p - s) * inv % p
        den = 1
        fracs = []
        for t, xt in x.items():
            frac = _reconstruct(xt)
            if frac is None:
                return None
            fracs.append((t, frac))
            den = lcm(den, frac[1])
        product = [0] * len(rows)
        for t, (a, b) in fracs:
            yt = a * (den // b)
            product = [s + yt * v for s, v in zip(product, columns[t])]
        if any(product):
            return None
    return len(echelon)


def _rank_kernel(rows: list[list[int]]) -> int:
    """Rank of a rectangular integer matrix given as lists; may mutate them.

    From order ``MODULAR_RANK_MIN_ORDER`` (the smaller dimension) on, the
    certified modular rank; below it, and when its certificate fails,
    Bareiss elimination.
    """
    if rows and min(len(rows), len(rows[0])) >= MODULAR_RANK_MIN_ORDER:
        r = _rank_certified(rows if len(rows) >= len(rows[0]) else list(zip(*rows)))
        if r is not None:
            return r
    return _rank_rows(rows)


def rank(m: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix; rows of unequal length are refused.

    Below order ``MODULAR_RANK_MIN_ORDER`` (the smaller dimension) Bareiss
    elimination; from there on the certified modular rank, with Bareiss as
    the fallback when its certificate fails.
    """
    rows = _as_rows(m)
    if any(len(row) != len(rows[0]) for row in rows):
        raise LinalgError("matrix rows must all have the same length")
    return _rank_kernel(rows)


def nullity_rank(g: SignedGraph) -> int:
    """Nullity via the rank route: n minus the exact adjacency rank."""
    return g.n - _rank_kernel(_adjacency_rows(g))


# -- characteristic polynomial -------------------------------------------


#: Matrix order below which ``_charpoly_rows`` runs the Kronecker kernel on a
#: symmetric matrix (measured crossover).  Its time, with the symmetry check
#: and the width, over the power-trace kernel's, with the slot width, summed
#: over 12 symmetric matrices per cell (each the median of 7 runs of 20
#: calls; the mean of two such sums), on a 2-core x86-64 host under Python
#: 3.11:
#:
#:     order                  4     7     8    10    12    13    14    15    16
#:     p = 0.3              0.68  0.68  0.71  0.73  0.92  0.98  0.96  1.37  1.40
#:     complete signed K_n  0.59  0.54  0.59  0.55  0.63  0.77  0.75  0.78  1.17
#:     random tree          0.65  0.68  0.76  0.66  0.93  1.03  1.03  1.25  1.34
#:     entries in [-5, 5]   0.50  0.48  0.50  0.46  0.56  0.60  0.63  0.71  0.85
#:
#: Below 15 the Kronecker kernel is the faster in sum, and on every kind but
#: the sparsest, whose power traces add few rows, where the two are even.
KRONECKER_MAX_ORDER = 15

#: Matrix order from which ``_charpoly_rows`` runs the Hessenberg kernel
#: (measured crossover).  The power-trace kernel's time over the Hessenberg
#: kernel's on signed adjacency matrices, summed over 12 graphs per cell
#: (each kernel's least of 5 runs, the two kernels alternating), on a 2-core
#: x86-64 host under Python 3.11 (orders 24 to 34 and 35 to 56 timed apart):
#:
#:     order                     24    30    32    34    35    36    38    40
#:     p = 0.3 with 4 twin rows  0.39  0.47  0.48  0.52  0.55  0.57  0.65  0.71
#:     p = 0.6                   0.58  0.78  0.82  0.92  0.98  0.86  0.96  1.24
#:     complete signed K_n       0.77  1.20  1.29  1.36  1.43  1.49  1.70  2.10
#:     mean degree 3             0.23  0.24  0.25  0.25  0.28  0.26  0.28  0.26
#:
#:     order                     42    44    46    48    50    52    54    56
#:     p = 0.3 with 4 twin rows  0.67  0.81  0.83  0.95  0.99  0.97  1.10  1.22
#:     p = 0.6                   1.34  1.45  1.37  1.62  1.71  1.87  2.01  1.97
#:     complete signed K_n       1.97  2.23  2.44  2.72  2.25  2.96  3.07  3.49
#:     mean degree 3             0.26  0.29  0.27  0.29  0.29  0.30  0.30  0.31
#:
#: No order parts the kinds: the densest, whose slots are the widest of any
#: +-1 matrix, is the slower on power traces from order 30 on, and the
#: sparsest is the faster at every order measured, about 3.5 times up to 56.
#: The slot width parts them.  The same ratio over only the matrices with w
#: at most ``_power_trace_max_width(n)``, the ones it sends to power traces,
#: summed over up to 8 per cell (fitted of drawn), and over up to 6 per cell
#: for sparse matrices whose nonzero entries are +-1 to +-k:
#:
#:     order                 35        38        42        44        46
#:     p = 0.3 + 4 twins     0.52 8/8  0.64 8/8  0.65 8/8  0.85 8/8  0.86 8/8
#:     p = 0.45              0.67 8/8  0.77 8/8  0.97 8/16 1.08 8/17 1.18 1/60
#:     p = 0.6               0.89 8/9  1.02 8/38 - 0/60    - 0/60    - 0/60
#:     mean degree 3         0.26 8/8  0.29 8/8  0.24 8/8  0.26 8/8  0.26 8/8
#:
#:     order                 48        49        50        52        54        56
#:     p = 0.3 + 4 twins     0.91 8/10 1.01 8/9  1.01 8/12 0.96 8/15 1.03 8/15 0.99 3/60
#:     mean degree 3         0.28 8/8  0.25 8/8  0.30 8/8  0.30 8/8  0.32 8/8  0.32 8/8
#:
#:     order                 36        44        48        52        56
#:     mean degree 3, k = 5  0.38 6/9  0.49 6/9  0.46 6/8  0.51 6/11 0.54 6/23
#:     mean degree 6, k = 3  0.53 6/6  0.67 6/8  0.58 6/8  0.65 6/17 0.68 6/25
#:     p = 0.2, k = 2        0.48 6/6  0.79 6/6  0.81 6/9  0.83 6/54 0.89 1/60
#:     mean degree 10, k = 1 0.47 6/6  0.58 6/6  0.65 6/6  0.66 6/6  0.67 6/6
#:
#: p = 0.45 and 0.6 stop fitting by order 48.  Every kind that fits gains
#: or is even up to 56, the last order measured, but for the p = 0.45
#: matrices that still fit at 44 and 46 (1.08 and 1.18: width alone does
#: not part them), and the sparse kinds gain the most.  So below 57 the
#: slot width decides (``_power_trace_max_width`` sends the signed K_32 and
#: every K_n above it to the Hessenberg kernel; K_30 and K_31 still fit),
#: and from 57 on every kind goes to the Hessenberg kernel.  The order
#: bounds the power-trace kernel's memory, n^2 w bits of packed rows: at
#: most 100 KB at order 56 (w <= 254).
HESSENBERG_MIN_ORDER = 57

#: Widest slot, in bits, with which ``_charpoly_rows`` runs the power-trace
#: kernel at and below order 14.  There it is the faster at every width
#: measured, up to w = 239 at order 4, 485 at 8 and 731 at 12 (entries up to
#: +-2^58, 5 non-symmetric matrices per cell), and even with the Hessenberg
#: kernel at w = 268 to 857 at order 14.
POWER_TRACE_MAX_WIDTH = 173

#: Order at which ``_power_trace_max_width`` is narrowest (measured).  The
#: power-trace kernel's cost grows with n and w, and with entries beyond +-1,
#: which cost a multiplication where +-1 costs an add.  Its time over the
#: Hessenberg kernel's on matrices with entries uniform in [-k, k] (k = 1:
#: the signed K_n), summed over 6 per cell (each kernel's least of 5 runs,
#: the two alternating), on the same host, with the median w of each cell:
#:
#:     order   k = 1       k = 2       k = 3       k = 5       k = 9
#:     14       53  0.46    62  0.58    70  0.65    81  0.75    92  0.73
#:     16       64  0.53    75  0.65    82  0.77    94  0.74   106  0.87
#:     18       75  0.59    87  0.74    96  0.83   107  0.93   123  1.03
#:     20       86  0.65   100  0.83   109  0.94   123  1.11   139  1.03
#:     22       98  0.77   113  0.92   122  1.03   138  1.23   155  1.32
#:     24      110  0.77   125  1.03   137  1.22   153  1.39   172  1.59
#:     26      122  0.93   137  1.17   152  1.22   170  1.64   190  1.58
#:     28      135  1.03   152  1.38   164  1.50   184  1.78   205  1.93
#:     30      147  1.13   165  1.31   180  1.76   199  1.91   225  2.19
#:     32      160  1.48   179  1.52   194  1.99   215  2.16   241  2.48
#:     34      173  1.32   193  1.90   211  2.09   233  2.64   259  2.88
#:
#: The widest slot that still pays falls fast above order 14 (at 16, w = 119
#: pays and 183 does not) to about 110 bits at order 20, and widens slowly
#: above it, where +-1 matrices sparser than K_n keep paying at wider slots
#: (w = 146 at 30 and 161 at 34, p = 0.8 and 0.6) than wider entries.
POWER_TRACE_DIP_ORDER = 20


def _power_trace_max_width(n: int) -> int:
    """Widest slot with which ``_charpoly_rows`` runs the power-trace kernel
    at order n: the larger of 173 - 10 (n - 14), capped at
    ``POWER_TRACE_MAX_WIDTH`` = 173 at and below order 14, and
    110 + 4 (n - 20), ``POWER_TRACE_DIP_ORDER`` = 20.  So 153 bits at order
    16, 113 at 20, 126 at 24, 142 at 28, 150 at 30, 166 at 34 and 254 at
    56: every +-1 matrix keeps the power-trace kernel up to order 31, and
    the sparser ones up to 56."""
    return max(POWER_TRACE_MAX_WIDTH - 10 * max(0, n - 14), 110 + 4 * (n - POWER_TRACE_DIP_ORDER))


def _charpoly_rows(a: list[list[int]]) -> list[int]:
    """Coefficients a_0..a_n of det(x*I - A) for an integer matrix given as
    lists: one Kronecker-substituted determinant for a symmetric matrix
    below ``KRONECKER_MAX_ORDER``, else power traces below
    ``HESSENBERG_MIN_ORDER`` while the slot width is at most
    ``_power_trace_max_width(n)``, else the exact Hessenberg kernel modulo
    2^k.  The Kronecker width w and the Hessenberg exponent k are one
    number, ``_half_width(a)``."""
    n = len(a)
    if n < KRONECKER_MAX_ORDER and list(map(list, zip(*a))) == a:
        return _charpoly_kronecker(a, _half_width(a))
    if n < HESSENBERG_MIN_ORDER:
        w = _slot_width(a)
        if w <= _power_trace_max_width(n):
            return _charpoly_power_traces(a, w)
    return _charpoly_modular(a)


def _pivot_factor_getters(m: int) -> tuple[operator.itemgetter, operator.itemgetter]:
    """Two getters for the Kronecker kernel's trailing upper triangle of
    order m, stored row by row: applied to it, they give m_0i and m_0j, the
    factors from the pivot row (its first m entries), of every entry (i, j)
    with 1 <= i <= j < m, in the order those entries are stored."""
    pairs = [(i, j) for i in range(1, m) for j in range(i, m)]
    return operator.itemgetter(*[i for i, _ in pairs]), operator.itemgetter(*[j for _, j in pairs])


#: ``_pivot_factor_getters(m)`` for every order m that an elimination step
#: of ``_charpoly_kronecker`` starts from (3 <= m < ``KRONECKER_MAX_ORDER``).
_PIVOT_FACTORS = {m: _pivot_factor_getters(m) for m in range(3, KRONECKER_MAX_ORDER)}

#: Per order n below ``KRONECKER_MAX_ORDER``: the index of each diagonal
#: entry (i, i) in the upper triangle packed row by row; entry (i, j),
#: i <= j, sits j - i places further on.
_DIAGONALS = {n: [i * n - i * (i - 1) // 2 for i in range(n)] for n in range(KRONECKER_MAX_ORDER)}


def _charpoly_kronecker(a: list[list[int]], w: int) -> list[int]:
    """a_0..a_n of a symmetric integer matrix A of order n below
    ``KRONECKER_MAX_ORDER`` from the one integer phi(X) = det(X*I - A) at
    X = 2^w, for a w with X^2 > Q = ``_coefficient_bound(a)``.  It packs
    the upper triangle of X*I - A row by row for ``_charpoly_triangle``,
    the elimination that ``_graph_triangle`` feeds too.

    phi(X) is the last pivot of a fraction-free elimination of M = X*I - A
    in pivot order (Bareiss): step k turns each later entry into
    (p_k m_ij - m_ik m_kj) / p_(k-1), with p_k = m_kk and p_(-1) = 1.
    Exactness, with B = prod(1 + |r_i|) over the Euclidean norms of the rows
    of A, so that X > 2B (``_coefficient_bound``):
    - No pivot is 0, so no pivot search is needed.  Pivot p_(k-1) is the
      leading principal minor det(X*I - A_k) = phi_(A_k)(X), with A_k the
      leading k x k block of A, and p_(n-1) = phi(X).  A_k is symmetric, so
      its eigenvalues are real and each
      |lambda| <= rho(A_k) <= ||A_k||_F <= ||A||_F <= sum |r_i| < B < X.
      Every factor X - lambda of the minor is positive, and so is the minor.
    - The divisions are exact.  After step k, entry (i, j) is the minor of M
      on rows 0..k, i and columns 0..k, j (Sylvester's identity), an
      integer.  The same identity makes it equal entry (j, i), the minor of
      M^T = M on the same index sets, so only the upper triangle is kept
      and updated, and the pivot row doubles as the pivot column.
    - The digits are unique.  phi(X) = sum_k a_k X^(n-k) with every
      |a_k| <= B < X/2.  Adding bias = sum_k (X/2) X^k turns it into the
      base-X digits a_k + X/2, all in (0, X), and an integer has one base-X
      expansion, so slot k read with a shift and a mask gives a_k back.
    No floating point enters.
    """
    n = len(a)
    x = 1 << w
    t = [-v for i, row in enumerate(a) for v in row[i:]]
    for d in _DIAGONALS[n]:
        t[d] += x
    return _charpoly_triangle(t, n, w)


def _graph_triangle(g: SignedGraph) -> tuple[list[int], int]:
    """(t, w): the packed upper triangle t of X*I - A, row by row, for the
    adjacency matrix A of a graph below ``KRONECKER_MAX_ORDER``, and the
    least w with X = 2^w, X^2 > Q = ``_coefficient_bound(A)``.

    Built from the edges, not from rows: X on the diagonal, -s at (u, v).
    Row v of A has deg(v) entries +-1, so its squared norm is deg(v), and
    w is ``_half_width`` of the rows, with the same proof.
    """
    n = g.n
    diagonals = _DIAGONALS[n]
    t = [0] * (n * (n + 1) // 2)
    degrees = [0] * n
    for u, v, s in g.edges:
        t[diagonals[u] + v - u] = -s
        degrees[u] += 1
        degrees[v] += 1
    w = (_squares_bound(degrees).bit_length() + 1) // 2
    x = 1 << w
    for d in diagonals:
        t[d] = x
    return t, w


def _charpoly_triangle(t: list[int], n: int, w: int) -> list[int]:
    """a_0..a_n from the packed upper triangle t of X*I - A, X = 2^w, by the
    elimination and the base-X digits that ``_charpoly_kronecker`` proves
    exact."""
    if n < 2:
        return [1] + [v - (1 << w) for v in t]
    prev = 1
    for m in range(n, 2, -1):
        p = t[0]
        gi, gj = _PIVOT_FACTORS[m]
        t = [(v * p - s * u) // prev for v, s, u in zip(t[m:], gi(t), gj(t))]
        prev = p
    det = (t[0] * t[2] - t[1] * t[1]) // prev
    x = 1 << w
    half = x >> 1
    mask = x - 1
    det += ((1 << (w * (n + 1))) - 1) // mask * half
    return [((det >> s) & mask) - half for s in range(w * n, -1, -w)]


def _slot_width(a: list[list[int]]) -> int:
    """w = bit_length(R^n) + 1 with R = max(1, ||A||_inf), the largest
    absolute row sum: every entry of A^k, k <= n, fits a signed w-bit slot."""
    r = max([1] + [sum(map(abs, row)) for row in a])
    return (r ** len(a)).bit_length() + 1


def _charpoly_power_traces(a: list[list[int]], w: int) -> list[int]:
    """a_0..a_n from the traces p_k = tr(A^k), k = 1..n, by Newton's
    identities k a_k = -(p_k + sum_{0<i<k} a_i p_{k-i}) (Csanky), with
    ``w`` at least ``_slot_width(a)``.

    Row i of A^k is one integer, sum_j (A^k)_ij 2^(w j), so row i of
    A^(k+1), the sum of a_it times row t of A^k, is one big-integer add or
    subtract per entry a_it = +-1 (Kronecker substitution).  Exactness: with
    R = max(1, ||A||_inf), the largest absolute row sum, every entry obeys
    |(A^k)_ij| <= R^k <= R^n < 2^(w-1) for k <= n, as w >= bit_length(R^n) + 1.
    The packed integer is exactly sum_j x_j 2^(w j) whatever the slots
    carried on the way, and an integer has at most one such expansion with
    every |x_j| < 2^(w-1).  Adding bias = sum_j 2^(w-1) 2^(w j) turns it
    into the base-2^w digits x_j + 2^(w-1), all in [0, 2^w), so slot i of
    row i, read with a shift and a mask, gives (A^k)_ii.  The divisions by
    k are exact because the a_k of an integer matrix are integers; a
    remainder is an error.
    """
    n = len(a)
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    bias = ((1 << (w * n)) - 1) // mask * half
    terms = [[(t, x) for t, x in enumerate(row) if x] for row in a]
    power = [sum([x << (w * t) for t, x in row]) for row in terms]
    shifts = range(0, w * n, w)
    coeffs, traces = [1], [0]
    for k in range(1, n + 1):
        p = sum([((row + bias) >> s) & mask for row, s in zip(power, shifts)]) - n * half
        traces.append(p)
        for i in range(1, k):
            p += coeffs[i] * traces[k - i]
        c, rem = divmod(-p, k)
        if rem:
            raise LinalgError("Newton's identities gave an inexact division on integer input")
        coeffs.append(c)
        if k == n:
            break
        new = []
        for row in terms:
            acc = 0
            for t, x in row:
                if x == 1:
                    acc += power[t]
                elif x == -1:
                    acc -= power[t]
                else:
                    acc += x * power[t]
            new.append(acc)
        power = new
    return coeffs


def _row_factor(s: int) -> int:
    """f(s) = 1 + s + ceil(sqrt(4s)) for an integer s >= 0, where
    ceil(sqrt(x)) = isqrt(x - 1) + 1 for x >= 1."""
    return 2 + s + isqrt(4 * s - 1) if s else 1


#: f(s), the row factor of ``_coefficient_bound``, for every squared row
#: norm s below 256 (a +-1 row of up to 255 nonzeros).
_ROW_FACTORS = tuple(map(_row_factor, range(256)))


def _coefficient_bound(a: list[list[int]]) -> int:
    """Q = 4 prod f(s_i), an integer such that every M with M^2 > Q exceeds
    2B, with B = prod(1 + |r_i|) over the Euclidean norms |r_i| of the rows,
    s_i = |r_i|^2 and f(s) = 1 + s + ceil(sqrt(4s)).

    B bounds every |a_k|: a_k is +-(sum of the principal k-minors), each
    minor is at most the product of its rows' norms (Hadamard), so
    |a_k| <= e_k(|r_1|, ..., |r_n|) <= B.  The test stays in integers:
    f(s) >= 1 + s + 2 sqrt(s) = (1 + |r|)^2, so M^2 > Q = 4 prod f(s_i)
    gives M > 2B.  And 2 sqrt(s) <= 1 + s (AM-GM) with 1 + s an integer
    gives ceil(sqrt(4s)) <= 1 + s, so f(s) <= 2(1 + s): no matrix needs a
    larger M than under the per-row factor 2(1 + s).
    """
    return _squares_bound([sum([x * x for x in row]) for row in a])


def _squares_bound(squares: list[int]) -> int:
    """Q = 4 prod f(s_i) of ``_coefficient_bound`` from the squared row
    norms s_i."""
    bound = 4
    for s in squares:
        bound *= _ROW_FACTORS[s] if s < 256 else _row_factor(s)
    return bound


def _half_width(a: list[list[int]]) -> int:
    """The least k with 2^(2k) > Q = ``_coefficient_bound(a)``, that is
    2k >= bit_length(Q): M = 2^k exceeds 2|a_k| for every coefficient."""
    return (_coefficient_bound(a).bit_length() + 1) // 2


def _hessenberg_mod(a: list[list[int]], k: int) -> list[int]:
    """Residues of a_0..a_n modulo M = 2^k, each in [0, M).

    Reduces A to upper Hessenberg form H by similarity steps over Z/MZ: at
    column c the pivot, the entry 2^e w (w odd, so a unit) with the fewest
    factors of 2, read off its lowest set bit, is moved to row c + 1; each
    lower entry is 2^f z with f >= e, so row i loses u_i = (h_ic >> e) w^-1
    times the pivot row, and column c + 1 gains u_i times column i (Cohen,
    Alg. 2.2.9, over Z/p^kZ with p = 2).  Every reduction mod M is ``& mask``.
    Then p_0 = 1 and p_{j+1} = (x - h_jj) p_j - sum_{i<j} h_ij (h_{i+1,i}
    ... h_{j,j-1}) p_i gives det(x*I - H) in O(n^3) ring operations.

    Exactness, for 2k >= bit_length(``_coefficient_bound(a)``)
    (``_half_width``):
    - M^2 > Q gives M > 2B >= 2|a_j| for every coefficient, so each a_j is
      the one integer in (-M/2, M/2] of its residue class, which
      ``_symmetric_residues`` returns.
    - The reduction cannot fail: every entry below the pivot, and the pivot
      itself, is divisible by 2^e, so h_ic >> e is exact and u_i 2^e w
      = h_ic mod M; column c is cleared below row c + 1.
    - Each step is H -> L H L^-1 with L a permutation or unit-triangular
      (ones on the diagonal), invertible over any Z/MZ, so det(x*I - H)
      = det(x*I - A) = phi(x) mod M.
    No floating point enters.
    """
    n = len(a)
    modulus = 1 << k
    mask = modulus - 1
    h = [[x & mask for x in row] for row in a]
    for m in range(1, n - 1):
        c = m - 1
        piv = None
        for i in range(m, n):
            x = h[i][c]
            if x:
                e = (x & -x).bit_length() - 1
                if piv is None or e < fewest:
                    piv, fewest = i, e
                    if not e:
                        break
        if piv is None:
            continue
        inv = pow(h[piv][c] >> fewest, -1, modulus)
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        tail = h[m][m:]
        us = []
        for i in range(m + 1, n):
            row = h[i]
            u = (row[c] >> fewest) * inv & mask
            us.append(u)
            if u:
                row[c] = 0
                row[m:] = [(x - u * y) & mask for x, y in zip(row[m:], tail)]
        if any(us):
            for row in h:
                row[m] = (row[m] + sum([u * x for u, x in zip(us, row[m + 1:])])) & mask
    # characteristic polynomials of the leading j x j blocks, lowest degree first
    polys = [[1]]
    for j in range(n):
        prev = polys[-1]
        hjj = h[j][j]
        new = [0] + prev
        new[:j + 1] = [x - hjj * y for x, y in zip(new, prev)]
        t = 1
        for i in range(j - 1, -1, -1):
            t = t * h[i + 1][i] & mask
            if not t:
                break
            s = h[i][j] * t & mask
            if s:
                new[:i + 1] = [x - s * y for x, y in zip(new, polys[i])]
        polys.append([x & mask for x in new])
    return polys[-1][::-1]


def _charpoly_modular(a: list[list[int]]) -> list[int]:
    """Exact a_0..a_n from the Hessenberg kernel modulo 2^``_half_width(a)``."""
    k = _half_width(a)
    return _symmetric_residues(_hessenberg_mod(a, k), 1 << k)


def _symmetric_residues(res: list[int], modulus: int) -> list[int]:
    """Each residue lifted to the integer in (-modulus/2, modulus/2]."""
    return [x - modulus if 2 * x > modulus else x for x in res]


def char_poly(m: Sequence[Sequence[int]]) -> CharPoly:
    """Exact coefficients of det(lambda*I - M): for a symmetric M below
    ``KRONECKER_MAX_ORDER`` the digits of one determinant at a power of two,
    else power traces on packed rows below ``HESSENBERG_MIN_ORDER`` with
    slots of at most ``_power_trace_max_width(n)`` bits, otherwise the
    Hessenberg kernel modulo a Hadamard-bounded power of two."""
    if any(len(row) != len(m) for row in m):
        raise LinalgError("matrix must be square")
    return CharPoly(tuple(_charpoly_rows(_as_rows(m))))


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
    if g.n < KRONECKER_MAX_ORDER:
        t, w = _graph_triangle(g)
        coeffs = _charpoly_triangle(t, g.n, w)
    else:
        coeffs = _charpoly_rows(_adjacency_rows(g))
    return zero_multiplicity(CharPoly(tuple(coeffs)))
