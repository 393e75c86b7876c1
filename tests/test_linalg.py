"""Exact linear algebra: adjacency, rank, characteristic polynomial."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from sgn import (
    CharPoly,
    LinalgError,
    SignedGraph,
    adjacency_matrix,
    char_poly,
    components,
    nullity_charpoly,
    nullity_rank,
    rank,
    switch,
    zero_multiplicity,
)
from sgn import linalg
from sgn.enumeration import iter_signed_corpus
from sgn.families import gen_cycle, gen_infinity, gen_path, gen_theta


def test_adjacency_positive_edge():
    g = SignedGraph(2, [(0, 1, 1)])
    assert adjacency_matrix(g) == ((0, 1), (1, 0))


def test_adjacency_negative_edge():
    g = SignedGraph(2, [(0, 1, -1)])
    assert adjacency_matrix(g) == ((0, -1), (-1, 0))


def test_adjacency_unbalanced_triangle():
    g = SignedGraph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    assert adjacency_matrix(g) == ((0, -1, 1), (-1, 0, 1), (1, 1, 0))


def test_rank_zero_matrix():
    assert rank(((0, 0, 0), (0, 0, 0), (0, 0, 0))) == 0


def test_rank_balanced_c4():
    # nullity of the balanced 4-cycle is 2, so the rank is 4 - 2
    assert rank(adjacency_matrix(gen_cycle(4, 0))) == 2


def test_rank_even_path_full():
    # even paths have nullity 0, so P4 has full rank
    assert rank(adjacency_matrix(gen_path(4))) == 4


def test_rank_rectangular():
    assert rank(((1, 2, 3), (2, 4, 6))) == 1
    assert rank([[]]) == 0


@pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]]])
def test_rank_rejects_ragged_rows(m):
    with pytest.raises(LinalgError, match="same length"):
        rank(m)


@pytest.mark.parametrize("half", [0.5, Fraction(1, 2)], ids=["float", "Fraction"])
@pytest.mark.parametrize("route", [rank, char_poly])
def test_matrix_routes_reject_non_integer_entries(route, half):
    # det [[1, 1/2], [1/2, 1]] = 3/4: integer elimination would report rank 1
    with pytest.raises(LinalgError, match="entries must be integers"):
        route([[1, half], [half, 1]])


def test_matrix_routes_take_bools_and_numpy_integers_as_exact_ints():
    assert rank([[True, False], [False, True]]) == 2
    # a_2 = 3^78 - 1 overflows 64-bit arithmetic
    big = [[3**39, 1], [1, 3**39]]
    wide = [[np.int64(x) for x in row] for row in big]
    assert char_poly(wide) == char_poly(big) == CharPoly((1, -2 * 3**39, 3**78 - 1))
    assert rank(wide) == 2


def test_rank_takes_numpy_arrays():
    # an array has no truth value, so emptiness is tested on the copied rows
    assert rank(np.array([[1, 2], [3, 4]])) == 2
    for shape in ((0,), (0, 0), (0, 3), (3, 0)):
        assert rank(np.zeros(shape, dtype=np.int64)) == 0


def _rank_fraction_oracle(m):
    # independent rank via rational Gaussian elimination
    rows = [[Fraction(x) for x in row] for row in m]
    nr, nc = len(rows), len(m[0]) if m else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nr):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                for j in range(c, nc):
                    rows[i][j] -= f * rows[r][j]
        r += 1
    return r


def test_rank_against_fraction_oracle():
    rng = random.Random(17)
    for _ in range(300):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        # mix dense, sparse, and rank-deficient (duplicated row) matrices
        m = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(nc)]
             for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.4:
            m[rng.randrange(nr)] = list(m[rng.randrange(nr)])
        assert rank(m) == _rank_fraction_oracle(m)


def _bareiss_pivots(m):
    """The pivots Bareiss meets on ``m``, from a rational elimination with
    the same pivot rule: pivot k is the product of the first k + 1 rational
    pivots, a leading minor of the row-permuted matrix."""
    rows = [[Fraction(x) for x in row] for row in m]
    pivots, product, r = [], Fraction(1), 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        product *= rows[r][c]
        assert product.denominator == 1
        pivots.append(int(product))
        r += 1
    return pivots


def test_bareiss_skips_only_the_trivial_division():
    # while the last pivot is +-1 the step divides by nothing; the seeded
    # matrices, square and rectangular with entries in [-3, 3], make that
    # step meet pivots 1, -1 and others, after a last pivot of 1 and of -1,
    # and every pivot left in the rows is still the leading minor that the
    # rational elimination gives, so every row kept its sign and scale
    rng = random.Random(29)
    after = {1: set(), -1: set()}
    for _ in range(600):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.randint(-3, 3) if rng.random() < 0.8 else 0 for _ in range(nc)] for _ in range(nr)]
        pivots = _bareiss_pivots(m)
        rows = [row[:] for row in m]
        r = linalg._rank_rows(rows)
        assert r == len(pivots) == _rank_fraction_oracle(m)
        assert [next(x for x in row if x) for row in rows[:r]] == pivots
        for prev, p in zip([1] + pivots, pivots):
            if prev in after:
                after[prev].add(p if p in (1, -1) else "other")
    assert after == {1: {1, -1, "other"}, -1: {1, -1, "other"}}


def test_nullity_single_vertex():
    assert nullity_rank(SignedGraph(1)) == 1


def test_nullity_unbalanced_c6():
    assert nullity_rank(gen_cycle(6, 1)) == 2


def test_nullity_extremal_diamond():
    # the two-triangle diamond with both triangles unbalanced attains the
    # unbalanced-bicyclic maximum n - 3 = 1
    g = gen_theta(2, 2, 1, 1, 1, 0)
    assert nullity_rank(g) == g.n - 3 == 1


# -- characteristic polynomial ----------------------------------------------
# derived values below are frozen; sympy's DomainMatrix over ZZ, an outside
# oracle that shares no code with sgn, is asserted alongside


def _sympy_matrix(m):
    return DomainMatrix.from_list([list(row) for row in m], ZZ)


def _power_traces(a):
    return linalg._charpoly_power_traces(a, linalg._slot_width(a))


def _sympy_charpoly(m):
    return tuple(_sympy_matrix(m).charpoly())


def test_charpoly_positive_triangle():
    a = adjacency_matrix(gen_cycle(3, 0))
    expected = (1, 0, -3, -2)
    assert _sympy_charpoly(a) == expected
    assert char_poly(a).coeffs == expected


def test_charpoly_unbalanced_triangle():
    a = adjacency_matrix(gen_cycle(3, 1))
    expected = (1, 0, -3, 2)
    assert _sympy_charpoly(a) == expected
    assert char_poly(a).coeffs == expected


def test_charpoly_one_by_one_zero():
    assert char_poly(((0,),)).coeffs == (1, 0)
    assert char_poly(((-7,),)).coeffs == (1, 7)
    assert char_poly(()).coeffs == (1,)  # n = 0: the empty product
    for n in range(1, 5):
        assert char_poly([[0] * n for _ in range(n)]).coeffs == (1,) + (0,) * n


def test_charpoly_balanced_c4():
    assert char_poly(adjacency_matrix(gen_cycle(4, 0))).coeffs == (1, 0, -4, 0, 0)


def test_charpoly_requires_square():
    with pytest.raises(LinalgError):
        char_poly(((1, 2),))


def test_charpoly_str():
    assert str(char_poly(adjacency_matrix(gen_cycle(3, 1)))) == "x^3 - 3x + 2"


def test_charpoly_monic_enforced():
    with pytest.raises(LinalgError):
        CharPoly((2, 0))


def test_zero_multiplicity_cases():
    assert zero_multiplicity(CharPoly((1, 0, -3, -2))) == 0
    assert zero_multiplicity(CharPoly((1, 0, -4, 0, 0))) == 2
    assert zero_multiplicity(CharPoly((1, 0, 0, 0))) == 3  # zero matrix, lambda^n


def test_determinant_matches_charpoly_constant():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        # det(0*I - M) = (-1)^n det(M) is the constant coefficient
        assert char_poly(m).coeffs[-1] == (-1) ** n * _sympy_matrix(m).det()


def _power_trace_edge_cases():
    # diag(R, -R, ...): the n-th power reaches +-R^n, the widest entry a
    # slot of w = bit_length(R^n) + 1 bits must hold; 15, 255 and 3^5 = 243
    # lie just below a power of two, so they leave the least spare room
    for n in (1, 2, 5, 8):
        for r in (1, 2, 3, 15, 255, 1000):
            yield [[(r if i % 2 == 0 else -r) if i == j else 0 for j in range(n)] for i in range(n)]
    # every entry negative, so every slot of every packed row borrows
    rng = random.Random(13)
    for n in (2, 4, 7):
        yield [[-rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    # non-symmetric with a nonzero diagonal (tr A and every p_k nonzero)
    yield [[3, -1, 0, 2], [0, -2, 5, 0], [1, 1, 4, -3], [-6, 0, 0, 1]]
    yield [[rng.randint(-4, 4) or 1 for _ in range(9)] for _ in range(9)]


def test_charpoly_routes_agree_on_non_symmetric_matrices():
    # random non-symmetric matrices and the power-trace kernel's edge cases,
    # every coefficient
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        assert char_poly(m).coeffs == _sympy_charpoly(m)
    for m in _power_trace_edge_cases():
        want = _sympy_charpoly(m)
        assert char_poly(m).coeffs == want
        assert tuple(_power_traces(m)) == want


# -- properties ----------------------------------------------------------------


@st.composite
def signed_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


@given(signed_graphs())
@settings(max_examples=60)
def test_rank_and_charpoly_nullity_agree(g):
    assert nullity_rank(g) == nullity_charpoly(g)


@given(signed_graphs())
@settings(max_examples=60)
def test_power_trace_kernel_matches_sympy(g):
    a = adjacency_matrix(g)
    assert char_poly(a).coeffs == _sympy_charpoly(a)


def test_charpoly_routes_agree_on_corpus():
    # both routes on every signed graph of the n <= 6 iso-class corpus
    checked = 0
    for g in iter_signed_corpus(6):
        a = adjacency_matrix(g)
        assert char_poly(a).coeffs == _sympy_charpoly(a), g
        checked += 1
    assert checked == 4532  # sum of switching classes over iso classes, n <= 6


@given(signed_graphs())
@settings(max_examples=60)
def test_first_coefficients(g):
    p = char_poly(adjacency_matrix(g))
    if g.n >= 1:
        assert p.coeffs[1] == 0  # zero diagonal: trace is 0
    if g.n >= 2:
        assert p.coeffs[2] == -g.m  # each edge is one K2 figure


@given(st.data())
@settings(max_examples=50)
def test_rank_switching_invariant(data):
    g = data.draw(signed_graphs())
    theta = {v: data.draw(st.sampled_from((1, -1))) for v in range(g.n)}
    assert rank(adjacency_matrix(g)) == rank(adjacency_matrix(switch(g, theta)))


@given(signed_graphs(max_n=9))
@settings(max_examples=50)
def test_component_additivity(g):
    assert nullity_rank(g) == sum(nullity_rank(c) for c, _ in components(g))


def test_nullity_infinity_graph_example():
    # eta of the triangle/quadrangle infinity graph on 7 vertices is 1
    g = gen_infinity(3, 4, 2, 1, 0)
    assert g.n == 7 and nullity_rank(g) == 1


def test_adjacency_matrix_refuses_graphs_above_the_ceiling():
    assert len(adjacency_matrix(SignedGraph(linalg.MAX_MATRIX_VERTICES))) == linalg.MAX_MATRIX_VERTICES
    with pytest.raises(LinalgError, match=f"{linalg.MAX_MATRIX_VERTICES}-vertex ceiling"):
        adjacency_matrix(SignedGraph(linalg.MAX_MATRIX_VERTICES + 1))


# -- modular Hessenberg kernel ------------------------------------------------

N0 = linalg.HESSENBERG_MIN_ORDER
K0 = linalg.KRONECKER_MAX_ORDER


def _signed_rows(rng, n, p=0.3):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                a[i][j] = a[j][i] = rng.choice((1, -1))
    return a


def _integer_rows(rng, n, size=5):
    return [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]


def _tree_rows(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(1, n):
        j = rng.randrange(i)
        a[i][j] = a[j][i] = rng.choice((1, -1))
    return a


def _symmetric_integer_rows(rng, n, size=5):
    a = _integer_rows(rng, n, size)
    for i in range(n):
        for j in range(i):
            a[i][j] = a[j][i]
    return a


def _seeded_matrices(seed, sizes):
    rng = random.Random(seed)
    for n in sizes:
        yield _signed_rows(rng, n)
        yield _integer_rows(rng, n)


def _ceil_sqrt(x):
    c = math.isqrt(x)
    return c + (c * c < x)


def _row_factor(s):
    # f(s) = 1 + s + ceil(sqrt(4s)), at least (1 + sqrt(s))^2
    return 1 + s + _ceil_sqrt(4 * s)


def _hadamard_square(a):
    # the integer test of the kernel: M^2 must exceed 4 prod f(|r_i|^2)
    return 4 * math.prod(_row_factor(sum(x * x for x in row)) for row in a)


def test_row_factor_bounds_the_squared_row_term():
    # f(s) >= (1 + |r|)^2 iff (f(s) - 1 - s)^2 >= 4s, and f(s) <= 2(1 + s)
    # keeps every modulus at or below the one of the factor 2(1 + s)
    for s in [*range(10**5 + 1), 2**120 - 1, 2**120, 2**120 + 1, 10**40]:
        f = linalg._row_factor(s)
        c = f - 1 - s
        assert c * c >= 4 * s and f <= 2 * (1 + s)
        assert c == 0 or (c - 1) ** 2 < 4 * s  # the least such c


def test_row_factor_table_leaves_the_bound_unchanged():
    # the table holds f(s) for every s it covers, and the bound it gives
    # equals 4 prod f(s_i) on corpus, dense and integer rows, with s_i on
    # both sides of the table's end
    assert len(linalg._ROW_FACTORS) == 256
    assert list(linalg._ROW_FACTORS) == [_row_factor(s) for s in range(256)]
    rng = random.Random(71)
    matrices = [adjacency_matrix(g) for g in list(iter_signed_corpus(6))[::50]]
    matrices += [_signed_rows(rng, n) for n in (30, 60, 90, 200)]
    matrices += [_signed_rows(rng, n, 1.0) for n in (255, 256, 257, 300)]
    matrices += [_integer_rows(rng, n, size) for n in (5, 12, 40) for size in (5, 9, 1000)]
    matrices += [[[15, 5, 1], [16, 0, 0], [1, 0, 0]], [[0] * 3 for _ in range(3)]]  # s = 251, 256, 1, 0
    for a in matrices:
        assert linalg._coefficient_bound(a) == _hadamard_square(a)


def test_modulus_is_never_above_the_former_bound():
    # the former test M^2 > 4 prod 2(1 + |r_i|^2), M a power of two
    for a in _seeded_matrices(11, [1, 2, 12, 30, 60]):
        former = 4 * math.prod(2 * (1 + sum(x * x for x in row)) for row in a)
        k = 0
        while 4**k <= former:
            k += 1
        assert linalg._half_width(a) <= k


def test_modulus_is_the_least_power_of_the_prime_above_the_bound():
    # M = 2^k with 2^(2k) > Q >= 2^(2k - 2), also for even entries and the
    # zero matrix (Q = 4, so k = 2)
    rng = random.Random(5)
    matrices = list(_seeded_matrices(7, [1, 2, 12, 30, 60]))
    matrices += [[[2**j * x for x in row] for row in _integer_rows(rng, n)] for n, j in ((12, 1), (20, 3))]
    matrices += [[[0] * 12 for _ in range(12)]]
    for a in matrices:
        k = linalg._half_width(a)
        bound = _hadamard_square(a)
        assert 2 ** (2 * k) > bound >= 2 ** (2 * k - 2)
    assert linalg._half_width(matrices[-1]) == 2


def test_hadamard_bound_covers_every_coefficient():
    # prod(1 + isqrt(|r_i|^2)) is at most B = prod(1 + |r_i|), so this is
    # the stronger claim; the chosen modulus must exceed twice every |a_k|
    for a in _seeded_matrices(3, [1, 2, 3, 5, 8, 13, 21, 30]):
        biggest = max(abs(c) for c in _sympy_charpoly(a))
        assert biggest <= math.prod(1 + math.isqrt(sum(x * x for x in row)) for row in a)
        assert 1 << linalg._half_width(a) > 2 * biggest


def test_modulus_below_twice_the_coefficients_gives_a_wrong_answer():
    # 10^3 I plus a path: |a_12| = det A lies above 2^119, so it needs
    # M = 2^121 and wraps at M = 2^120, one bit short
    n = 12
    a = [[1000 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    exact = list(_sympy_charpoly(a))
    k = linalg._half_width(a)
    assert k == 121 and linalg._charpoly_modular(a) == exact
    assert linalg._symmetric_residues(linalg._hessenberg_mod(a, k), 1 << k) == exact
    short = linalg._symmetric_residues(linalg._hessenberg_mod(a, k - 1), 1 << (k - 1))
    assert [j for j, (x, y) in enumerate(zip(short, exact)) if x != y] == [12]


def _positive_valuation_matrices(rng, n):
    """Matrices with even entries, so that pivots are not units mod 2^k."""
    # 2 B: every pivot carries at least one factor
    yield [[2 * x for x in row] for row in _integer_rows(rng, n)]
    # 2 B + I: units on the diagonal only, every subdiagonal pivot even
    yield [[2 * x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(_integer_rows(rng, n))]
    # multiples of 2, 4 and 8 mixed, a multiple of 4 first in every column
    # and of 2 last: the pivot must be the entry with the fewest factors,
    # not the first nonzero one
    a = [[rng.choice((0, 2, -2, 4, -4, 8, -8)) for _ in range(n)] for _ in range(n)]
    for c in range(n - 2):
        a[c + 1][c] = rng.choice((4, -4, 12))
        a[n - 1][c] = rng.choice((2, -2, 6))
    yield a
    yield [[2 ** rng.randint(1, 3) * rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]


def _lone_entry_fixture(n, p):
    # column 0 holds one nonzero entry below the diagonal, p itself
    a = [[1 if abs(i - j) == 1 and min(i, j) > 0 else 0 for j in range(n)] for i in range(n)]
    a[1][0] = p
    a[0][1] = 1
    a[0][0] = 2
    return a


@pytest.mark.parametrize("n", [12, 16, 20])
def test_kernel_is_exact_when_pivots_carry_factors_of_the_prime(n):
    # the prime of the modulus is 2: even pivots take the non-unit path
    rng = random.Random(n)
    matrices = list(_positive_valuation_matrices(rng, n))
    # a lone pivot that is a unit (the odd prime 2^62 - 57) and one that is 2
    matrices += [_lone_entry_fixture(n, (1 << 62) - 57), _lone_entry_fixture(n, 2)]
    for a in matrices:
        kernel = linalg._charpoly_modular(a)
        assert kernel == _power_traces(a)
        assert tuple(kernel) == _sympy_charpoly(a)
        assert linalg._charpoly_rows(a) == kernel


@pytest.mark.parametrize("n", [34, 35, 36, 40, N0 - 1, N0, N0 + 1])
def test_modular_kernel_matches_power_traces_and_sympy(n):
    for a in _seeded_matrices(n, [n]):
        kernel = linalg._charpoly_modular(a)
        assert kernel == _power_traces(a)
        assert tuple(kernel) == _sympy_charpoly(a)
        assert char_poly(a).coeffs == tuple(kernel)


def _refuse(kernel):
    def refuse(a, *_):
        raise AssertionError(f"{kernel} was called at order {len(a)}")

    return refuse


def _around_width(n, w):
    """Two non-symmetric matrices of order n >= 2, one with slot width at
    most w and one with a wider slot: the only nonzero entry, row 0's last,
    is the largest r with bit_length(r^n) + 1 <= w, then r + 1."""
    r = 1 << -(-(w - 1) // n)
    while r**n >= 1 << (w - 1):
        r -= 1
    pair = []
    for x in (r, r + 1):
        a = [[0] * n for _ in range(n)]
        a[0][n - 1] = x
        pair.append(a)
    assert linalg._slot_width(pair[0]) <= w < linalg._slot_width(pair[1])
    return pair


def test_charpoly_kernel_is_chosen_by_order_and_slot_width(monkeypatch):
    # three tiers, each refused outside its range: the Kronecker kernel only
    # on symmetric matrices below KRONECKER_MAX_ORDER; the power-trace
    # kernel, which holds n^2 w bits, w growing with n log R, never from
    # HESSENBERG_MIN_ORDER on, nor with slots wider than
    # _power_trace_max_width(n); the Hessenberg kernel never below both;
    # dense and sparse matrices on both sides of each order, and integer
    # entries on both sides of the width (a 1 x 1 matrix [[x]] has w =
    # bit_length(|x|) + 1)
    rng = random.Random(53)
    wmax = linalg.POWER_TRACE_MAX_WIDTH
    below = [_signed_rows(rng, N0 - 1, p) for p in (0.1, 1.0)]
    at = [_signed_rows(rng, N0, p) for p in (0.1, 1.0)]
    narrow = [[[(1 << (wmax - 1)) - 1]], [[1 - (1 << (wmax - 1))]]]
    wide = [[[1 << (wmax - 1)]], _integer_rows(rng, 28), [[1 << 50] * 4 for _ in range(4)]]
    assert all(linalg._slot_width(a) > wmax for a in wide)
    small = [_signed_rows(rng, K0 - 1, p) for p in (0.1, 1.0)] + [_symmetric_integer_rows(rng, K0 - 1)]
    from_cut = [_signed_rows(rng, K0, p) for p in (0.1, 1.0)]
    unsymmetric = [_integer_rows(rng, n) for n in (2, 7, K0 - 1)]
    assert all(a != [list(col) for col in zip(*a)] for a in unsymmetric)
    # the signed K_31 fills its order's cap; the signed K_32 and K_56 do not fit
    densest = [_signed_rows(rng, 32, 1.0), below.pop()]
    below.append(_signed_rows(rng, 31, 1.0))
    assert linalg._slot_width(below[1]) == linalg._power_trace_max_width(31)
    assert all(linalg._slot_width(a) > linalg._power_trace_max_width(len(a)) for a in densest)
    # the power-trace width cut at orders 2, 24, 26, 33 and 56
    around = [_around_width(n, linalg._power_trace_max_width(n)) for n in (2, 24, 26, 33, N0 - 1)]
    fits, too_wide = [pair[0] for pair in around], [pair[1] for pair in around]
    kernels = {
        "_charpoly_kronecker": "the Kronecker kernel",
        "_charpoly_power_traces": "the power-trace kernel",
        "_charpoly_modular": "the Hessenberg kernel",
    }
    for chosen, matrices in (
        ("_charpoly_kronecker", small + narrow + wide[::2]),
        ("_charpoly_power_traces", below + from_cut + unsymmetric + fits),
        ("_charpoly_modular", at + wide[1:2] + too_wide + densest),
    ):
        with monkeypatch.context() as m:
            for name, kernel in kernels.items():
                if name != chosen:
                    m.setattr(linalg, name, _refuse(kernel))
            for a in matrices:
                assert char_poly(a).coeffs == _sympy_charpoly(a)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_charpoly_modular", _refuse("the Hessenberg kernel"))
        for a in below + narrow:
            assert char_poly(a).coeffs == _sympy_charpoly(a)
    monkeypatch.setattr(linalg, "_charpoly_power_traces", _refuse("the power-trace kernel"))
    for a in at + wide + densest:
        assert char_poly(a).coeffs == _sympy_charpoly(a)
    with pytest.raises(AssertionError, match="power-trace kernel was called"):
        char_poly(below[0])


def test_power_trace_width_cut_weighs_the_order(monkeypatch):
    # entries uniform in [-5, 5] at orders 25 and 26 have w from 160 to 173
    # and at orders 20 and 22 from 120 to 140, within POWER_TRACE_MAX_WIDTH,
    # yet the power-trace kernel is the slower there, so they go to the
    # Hessenberg kernel; every +-1 matrix below order 32 keeps the
    # power-trace kernel, the signed K_n (the widest, R = n - 1) at every
    # order from KRONECKER_MAX_ORDER to 31 among them, and the signed K_32
    # to K_56, slower there, take the Hessenberg kernel
    rng = random.Random(59)
    wmax = linalg.POWER_TRACE_MAX_WIDTH
    with monkeypatch.context() as m:
        m.setattr(linalg, "_charpoly_power_traces", _refuse("the power-trace kernel"))
        for n in (25, 26, 20, 22):
            for _ in range(3):
                a = _integer_rows(rng, n)
                assert linalg._power_trace_max_width(n) < linalg._slot_width(a) <= wmax
                assert char_poly(a).coeffs == _sympy_charpoly(a)
        for n in range(32, N0):
            a = _signed_rows(rng, n, 1.0)
            assert linalg._slot_width(a) > linalg._power_trace_max_width(n)
            assert char_poly(a).coeffs == _sympy_charpoly(a)
    for n in range(32):
        assert (n - 1 if n > 1 else 1) ** n < 1 << (linalg._power_trace_max_width(n) - 1)
    monkeypatch.setattr(linalg, "_charpoly_modular", _refuse("the Hessenberg kernel"))
    for n in range(K0, 32):
        a = _signed_rows(rng, n, 1.0)
        assert linalg._slot_width(a) <= linalg._power_trace_max_width(n)
        assert char_poly(a).coeffs == tuple(_power_traces(a))
    assert linalg._slot_width(a) == linalg._power_trace_max_width(31)


def test_slot_width_alone_routes_from_order_35_to_the_hessenberg_order(monkeypatch):
    # from order 35 to HESSENBERG_MIN_ORDER - 1 the width line goes on:
    # sparse matrices, +-1 and with entries up to +-3, and p = 0.3 graphs
    # with twin rows fit it and take the power-trace kernel; p = 0.6 and
    # the signed K_n do not and take the Hessenberg kernel
    rng = random.Random(89)
    fit, wide = [], []
    for n in (35, 40, 48, N0 - 1):
        sparse = _signed_rows(rng, n, 3 / (n - 1))
        fit += [sparse, [[x * rng.randint(1, 3) for x in row] for row in sparse]]
        wide.append(_signed_rows(rng, n, 0.6 if n > 35 else 1.0))
    fit += [_add_twins(rng, _signed_rows(rng, n - 4), 4) for n in (35, 42, 48)]
    assert all(linalg._slot_width(a) <= linalg._power_trace_max_width(len(a)) for a in fit)
    assert all(linalg._slot_width(a) > linalg._power_trace_max_width(len(a)) for a in wide)
    for refused, matrices in (("_charpoly_modular", fit), ("_charpoly_power_traces", wide)):
        with monkeypatch.context() as m:
            m.setattr(linalg, refused, _refuse(refused))
            for a in matrices:
                assert char_poly(a).coeffs == _sympy_charpoly(a)


def test_dense_benchmark_shapes_keep_their_kernels(monkeypatch):
    # p = 0.3 +-1 graphs with twin vertices, the shapes of the dense
    # benchmark's charpoly jobs: order 30 stays on power traces, orders 60
    # and 90 take the Hessenberg kernel, so a crossover move cannot shift
    # them to another kernel unnoticed
    rng = random.Random(73)
    kernels = {
        "_charpoly_kronecker": "the Kronecker kernel",
        "_charpoly_power_traces": "the power-trace kernel",
        "_charpoly_modular": "the Hessenberg kernel",
    }
    for chosen, orders in (("_charpoly_power_traces", (30, 30, 30)), ("_charpoly_modular", (60, 90))):
        with monkeypatch.context() as m:
            for name, kernel in kernels.items():
                if name != chosen:
                    m.setattr(linalg, name, _refuse(kernel))
            for n in orders:
                k = rng.randint(1, 4)
                g = _graph_of(_add_twins(rng, _signed_rows(rng, n - k), k))
                assert nullity_charpoly(g) == nullity_rank(g) >= k


# -- Kronecker kernel ---------------------------------------------------------


def _kronecker_width(a):
    """The least w with 2^(2w) above the coefficient bound Q."""
    q, w = linalg._coefficient_bound(a), 0
    while 4**w <= q:
        w += 1
    return w


def _kronecker_cases(rng, n):
    """+-1 kinds (sparse, p = 0.3, complete, tree) and integer entries."""
    yield _signed_rows(rng, n, 0.1)
    yield _signed_rows(rng, n)
    yield _signed_rows(rng, n, 1.0)
    yield _tree_rows(rng, n)
    yield _symmetric_integer_rows(rng, n)
    yield _symmetric_integer_rows(rng, n, 1000)


@pytest.mark.parametrize("n", range(K0))
def test_kronecker_kernel_is_exact_at_every_order_below_its_cut(n):
    rng = random.Random(100 + n)
    cases = list(_kronecker_cases(rng, n))
    if n == 1:
        cases += [[[x]] for x in (1, -7, 1 << 100, -(1 << 100))]
    for a in cases:
        kernel = linalg._charpoly_kronecker(a, _kronecker_width(a))
        assert kernel == _power_traces(a) == linalg._charpoly_modular(a)
        assert tuple(kernel) == (_sympy_charpoly(a) if n else (1,))
        assert linalg._charpoly_rows(a) == kernel


def test_kronecker_proof_holds_on_every_case():
    # the three steps of the docstring's proof, each checked in integers:
    # X = 2^w exceeds sum |r_i| >= rho(A_k), every leading principal minor
    # of X*I - A (the pivots) is positive, and X > 2|a_k|
    rng = random.Random(61)
    for n in range(1, K0):
        for a in _kronecker_cases(rng, n):
            x = 1 << _kronecker_width(a)
            assert x > sum(_ceil_sqrt(sum(v * v for v in row)) for row in a)
            m = [[x * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(a)]
            for k in range(1, n + 1):
                assert _sympy_matrix([row[:k] for row in m[:k]]).det() > 0
            assert x > 2 * max(abs(c) for c in _sympy_charpoly(a))


def test_kronecker_width_one_bit_short_gives_a_wrong_answer():
    # 10^3 I plus a path: |a_11| and |a_12| = det A lie above 2^119, so they
    # need X = 2^121 and wrap at X = 2^120
    n = 12
    a = [[1000 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    exact = list(_sympy_charpoly(a))
    w = _kronecker_width(a)
    assert w == 121 and linalg._charpoly_rows(a) == linalg._charpoly_kronecker(a, w) == exact
    short = linalg._charpoly_kronecker(a, w - 1)
    assert [k for k, (x, y) in enumerate(zip(short, exact)) if x != y] == [11, 12]


def test_non_symmetric_matrices_never_reach_the_kronecker_kernel(monkeypatch):
    rng = random.Random(67)
    matrices = []
    for n in range(2, K0):
        a = _signed_rows(rng, n, 1.0)
        a[0][n - 1] = -a[n - 1][0]  # one entry off the mirror
        b = _integer_rows(rng, n)
        b[0][1] = b[1][0] + 1
        matrices += [a, b]
    monkeypatch.setattr(linalg, "_charpoly_kronecker", _refuse("the Kronecker kernel"))
    for a in matrices:
        assert char_poly(a).coeffs == _sympy_charpoly(a)
    with pytest.raises(AssertionError, match="Kronecker kernel was called"):
        char_poly(_signed_rows(rng, 5))


def _graph_front_end_cases(step):
    """Every ``step``-th graph of the n <= 6 corpus (criterion 5 runs the
    route on all of n <= 7); seeded graphs at every order below the cut;
    n = 0, 1, 2; graphs with isolated vertices; the signed K_14."""
    yield from itertools.islice(iter_signed_corpus(6), 0, None, step)
    rng = random.Random(71)
    for n in range(K0):
        for p in (0.2, 0.5, 0.9):
            yield _graph_of(_signed_rows(rng, n, p))
    yield from (SignedGraph(0), SignedGraph(1), SignedGraph(2), SignedGraph(2, [(0, 1, -1)]))
    yield SignedGraph(9, [(2, 3, 1), (3, 5, -1), (2, 5, 1), (6, 8, -1)])
    yield SignedGraph(K0 - 1, [(0, K0 - 2, -1)])
    yield _graph_of(_signed_rows(rng, K0 - 1, 1.0))


def test_graph_front_end_answers_as_the_matrix_route():
    # the spectrum route below KRONECKER_MAX_ORDER takes w from the degrees:
    # the w of the rows front-end, and the answer of the public matrix route
    checked = 0
    for g in _graph_front_end_cases(3):
        _, w = linalg._graph_triangle(g)
        assert w == linalg._half_width(linalg._adjacency_rows(g))
        assert nullity_charpoly(g) == zero_multiplicity(char_poly(adjacency_matrix(g)))
        checked += 1
    assert checked == 1511 + 3 * K0 + 7


def test_graph_front_end_packs_the_rows_front_end_triangle():
    # X*I - A packed from the edges is the triangle the rows front-end packs,
    # and its digits are the coefficients, checked by a kernel that shares
    # no code with the Kronecker kernel
    for g in _graph_front_end_cases(15):
        t, w = linalg._graph_triangle(g)
        a = linalg._adjacency_rows(g)
        x = 1 << w
        assert t == [x * (i == j) - a[i][j] for i in range(g.n) for j in range(i, g.n)]
        assert linalg._charpoly_triangle(t, g.n, w) == (_power_traces(a) if g.n else [1])


# -- certified modular rank ---------------------------------------------------

R0 = linalg.MODULAR_RANK_MIN_ORDER


def _bareiss(m):
    return linalg._rank_rows([list(row) for row in m])


def _tall(m):
    return m if len(m) >= len(m[0]) else [list(col) for col in zip(*m)]


def _add_twins(rng, a, k):
    """Adds k twin vertices to the adjacency rows ``a``: each copies the
    signed neighbourhood of an earlier vertex, so its row repeats that
    vertex's row and the rank stays the same."""
    for _ in range(k):
        twin = a[rng.randrange(len(a))] + [0]
        for row, x in zip(a, twin):
            row.append(x)
        a.append(twin)
    return a


def test_rank_prime_and_reconstruction_bound():
    p, n = linalg.RANK_PRIME, linalg.RECONSTRUCTION_BOUND
    def is_prime(c):
        return c >= 2 and all(c % d for d in range(2, math.isqrt(c) + 1))

    assert p < 1 << 15 and is_prime(p)
    assert not any(is_prime(c) for c in range(p + 1, 1 << 15))
    # 2 N^2 < p: two fractions with |a|, b <= N differ mod p
    assert 2 * n * n < p <= 2 * (n + 1) ** 2
    # a packed slot, below p + n_cols (p - 1)^2, never carries at the ceiling
    assert p + linalg.MAX_MATRIX_VERTICES * (p - 1) ** 2 < 1 << 64


def test_reconstruction_finds_every_small_fraction_and_nothing_else():
    p, n = linalg.RANK_PRIME, linalg.RECONSTRUCTION_BOUND
    fractions = {(a, b) for b in range(1, n + 1) for a in range(-n, n + 1) if math.gcd(a, b) == 1}
    residues = {a * pow(b, -1, p) % p: (a, b) for a, b in fractions}
    assert len(residues) == len(fractions)
    for x in range(p):
        assert linalg._reconstruct(x) == residues.get(x)


def _certified_cases(rng, n):
    """(matrix, whether the certificate must hold) near order n."""
    yield _integer_rows(rng, n), True
    yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n + 5)], True
    yield [[rng.randint(-9, 9) for _ in range(n + 5)] for _ in range(n)], True
    dup = _signed_rows(rng, n)
    dup[3] = list(dup[n - 1])
    yield dup, False
    combined = _integer_rows(rng, n, 2)
    combined[0] = [2 * x - y for x, y in zip(combined[1], combined[2])]
    yield combined, False
    yield [[0] * n for _ in range(n)], True
    yield _add_twins(rng, _signed_rows(rng, n - 3), 3), True


def test_certified_rank_equals_bareiss_above_the_crossover():
    rng = random.Random(29)
    for n in range(R0, R0 + 17, 4):
        for m, certified in _certified_cases(rng, n):
            r = rank(m)
            assert r == _bareiss(m)
            if certified:
                assert linalg._rank_certified(_tall(m)) == r


def test_unlucky_prime_is_caught_by_the_kernel_check():
    # mod p the first column vanishes and e_0 looks like a kernel vector;
    # A e_0 = p e_0 over Z, so the check rejects it and Bareiss answers
    p = linalg.RANK_PRIME
    a = [[(p if i == 0 else 1) if i == j else 0 for j in range(R0)] for i in range(R0)]
    assert linalg._rank_certified(a) is None
    assert rank(a) == R0


def test_large_kernel_vector_falls_back_to_bareiss(monkeypatch):
    # the last column is B v for entries of v near 10^6, so the kernel is
    # spanned by (v, -1), which no fraction with small terms reconstructs
    rng = random.Random(31)
    b = _integer_rows(rng, R0)
    v = [rng.randint(10**6, 2 * 10**6) for _ in range(R0 - 1)]
    a = [row[:-1] + [sum(x * y for x, y in zip(row, v))] for row in b]
    assert linalg._rank_certified(a) is None
    calls = []
    real = linalg._rank_rows
    monkeypatch.setattr(linalg, "_rank_rows", lambda m: calls.append(len(m)) or real(m))
    assert rank(a) == R0 - 1
    assert calls == [R0]


def test_twin_graph_is_certified_without_bareiss(monkeypatch):
    rng = random.Random(37)
    n, k = 120, 4
    while True:
        core = _signed_rows(rng, n - k)
        if _bareiss(core) == n - k:
            break
    a = _add_twins(rng, core, k)
    edges = [(i, j, a[i][j]) for i in range(n) for j in range(i + 1, n) if a[i][j]]

    def refuse(m):
        raise AssertionError("Bareiss was called")

    monkeypatch.setattr(linalg, "_rank_rows", refuse)
    assert nullity_rank(SignedGraph(n, edges)) == k


def test_kernels_match_sympy_where_they_switch():
    # rank on both sides of the Bareiss/certified crossover, with and without
    # twin rows (a non-empty kernel the certificate must prove), the charpoly
    # on both sides of the Kronecker/power-trace and the power-trace/
    # Hessenberg ones, and both at n = 100
    rng = random.Random(43)
    for n in (R0 - 1, R0, R0 + 1):
        for twins in (0, 3):
            a = _add_twins(rng, _signed_rows(rng, n - twins), twins)
            r = rank(a)
            assert r == _sympy_matrix(a).rank() <= n - twins
            if n >= R0:
                assert linalg._rank_certified(a) == r
    for n in (K0 - 1, K0, N0 - 1, N0, N0 + 1):
        a = _signed_rows(rng, n)
        assert char_poly(a).coeffs == _sympy_charpoly(a)
    a = _signed_rows(rng, 100)
    assert rank(a) == _sympy_matrix(a).rank()
    assert char_poly(a).coeffs == _sympy_charpoly(a)


# -- graph routes -------------------------------------------------------------


def _graph_of(a):
    n = len(a)
    return SignedGraph(n, [(i, j, a[i][j]) for i in range(n) for j in range(i + 1, n) if a[i][j]])


def test_graph_routes_equal_the_matrix_routes():
    # the graph routes skip the matrix checks; they must still answer what
    # the public matrix functions answer on the adjacency matrix, on a
    # corpus sample, around the rank crossover (with and without twins,
    # whose kernel the certificate must prove) and at n = 100
    rng = random.Random(47)
    graphs = list(iter_signed_corpus(6))[::7] + [SignedGraph(0), SignedGraph(R0, [(0, R0 - 1, -1)])]
    for n in (R0 - 1, R0, R0 + 1):
        graphs += [_graph_of(_add_twins(rng, _signed_rows(rng, n - k), k)) for k in (0, 3)]
    graphs.append(_graph_of(_add_twins(rng, _signed_rows(rng, 96), 4)))
    assert {0, R0 - 1, R0, R0 + 1, 100} <= {g.n for g in graphs}
    for g in graphs:
        a = adjacency_matrix(g)
        assert nullity_rank(g) == g.n - rank(a)
        assert nullity_charpoly(g) == zero_multiplicity(char_poly(a))


def test_graph_routes_refuse_graphs_above_the_ceiling():
    n = linalg.MAX_MATRIX_VERTICES + 1
    message = f"n = {n} exceeds the {linalg.MAX_MATRIX_VERTICES}-vertex ceiling of the matrix routes"
    for route in (adjacency_matrix, nullity_rank, nullity_charpoly):
        with pytest.raises(LinalgError, match=f"^{message}$"):
            route(SignedGraph(n, [(0, n - 1, 1)]))
