"""Exact linear algebra: adjacency, rank, characteristic polynomial."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgn import (
    CharPoly,
    LinalgError,
    SignedGraph,
    adjacency_matrix,
    char_poly,
    char_poly_interpolated,
    components,
    determinant,
    nullity_charpoly,
    nullity_rank,
    rank,
    switch,
    zero_multiplicity,
)
from sgn import linalg
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


def _rank_fraction_oracle(m):
    # independent rank via rational Gaussian elimination
    from fractions import Fraction

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


def test_nullity_single_vertex():
    assert nullity_rank(SignedGraph(1)) == 1


def test_nullity_unbalanced_c6():
    assert nullity_rank(gen_cycle(6, 1)) == 2


def test_nullity_extremal_diamond():
    # the two-triangle diamond with both triangles unbalanced attains the
    # unbalanced-bicyclic maximum n - 3 = 1
    g = gen_theta(2, 2, 1, (1, 1, 0))
    assert nullity_rank(g) == g.n - 3 == 1


# -- characteristic polynomial ----------------------------------------------
# derived values below were computed by the evaluation/interpolation oracle
# and frozen; the oracle itself is asserted alongside


def test_charpoly_positive_triangle():
    a = adjacency_matrix(gen_cycle(3, 0))
    expected = (1, 0, -3, -2)
    assert char_poly_interpolated(a).coeffs == expected
    assert char_poly(a).coeffs == expected


def test_charpoly_unbalanced_triangle():
    a = adjacency_matrix(gen_cycle(3, 1))
    expected = (1, 0, -3, 2)
    assert char_poly_interpolated(a).coeffs == expected
    assert char_poly(a).coeffs == expected


def test_charpoly_one_by_one_zero():
    assert char_poly(((0,),)).coeffs == (1, 0)


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
        assert char_poly(m).coeffs[-1] == (-1) ** n * determinant(m)


def test_charpoly_routes_agree_on_non_symmetric_matrices():
    # the general (non-symmetric) branch of Faddeev-LeVerrier, every coefficient
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        assert char_poly(m) == char_poly_interpolated(m)


def test_determinant_odd_row_permutation():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    # two swaps: an even permutation of diag(2, 3, 5)
    assert determinant([[0, 3, 0], [0, 0, 5], [2, 0, 0]]) == 30


def test_determinant_singular_with_zero_column():
    assert determinant([[1, 0, 2], [3, 0, 4], [5, 0, 7]]) == 0
    assert determinant([[0, 1], [0, 2]]) == 0


def test_determinant_empty_matrix():
    assert determinant([]) == 1


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
def test_faddeev_leverrier_matches_interpolation(g):
    a = adjacency_matrix(g)
    assert char_poly(a) == char_poly_interpolated(a)


def test_charpoly_routes_agree_on_corpus():
    # both routes on every signed graph of the n <= 6 iso-class corpus
    from sgn.enumeration import iter_signed_corpus

    checked = 0
    for g in iter_signed_corpus(6):
        a = adjacency_matrix(g)
        assert char_poly(a) == char_poly_interpolated(a), g
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


def _signed_rows(rng, n, p=0.3):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                a[i][j] = a[j][i] = rng.choice((1, -1))
    return a


def _integer_rows(rng, n, size=5):
    return [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]


def _seeded_matrices(seed, sizes):
    rng = random.Random(seed)
    for n in sizes:
        yield _signed_rows(rng, n)
        yield _integer_rows(rng, n)


def _modulus(primes):
    m = 1
    for p in primes:
        m *= p
    return m


def test_hadamard_bound_covers_every_coefficient():
    # prod(1 + isqrt(|r_i|^2)) is at most B = prod(1 + |r_i|), so this is
    # the stronger claim; the chosen modulus must exceed twice every |a_k|
    for a in _seeded_matrices(3, [1, 2, 3, 5, 8, 13, 21, 30]):
        biggest = max(abs(c) for c in linalg._faddeev_leverrier(a))
        assert biggest <= math.prod(1 + math.isqrt(sum(x * x for x in row)) for row in a)
        assert _modulus(linalg._hadamard_primes(a)) > 2 * biggest


def _strong_probable_prime(n, rng, rounds=32):
    # independent of the module's fixed bases: random bases, error < 4^-32
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_listed_primes_are_prime_and_distinct():
    primes = [linalg._prime(k) for k in range(16)]
    assert primes == sorted(set(primes), reverse=True)
    assert primes[0] < 1 << 62 and primes[-1] > 1 << 61
    rng = random.Random(19)
    for p in primes:
        assert all(p % q for q in range(3, 2000, 2)) and _strong_probable_prime(p, rng)
    # and no prime is skipped between consecutive listed primes
    for hi, lo in zip(primes, primes[1:]):
        assert not any(_strong_probable_prime(c, rng, 4) for c in range(lo + 2, hi, 2))


def test_miller_rabin_against_trial_division_and_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if linalg._is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not linalg._is_prime(3_215_031_751)
    assert not linalg._is_prime(3_825_123_056_546_413_051)


def test_modulus_below_twice_the_coefficients_gives_a_wrong_answer():
    # a_12 of 10^3 * I is 10^36, far beyond half of one 62-bit prime
    n = N0
    a = [[1000 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    exact = linalg._faddeev_leverrier(a)
    p = linalg._prime(0)
    assert 2 * max(abs(c) for c in exact) > p
    assert linalg._symmetric_residues(linalg._hessenberg_mod(a, p), p) != exact
    m = _modulus(linalg._hadamard_primes(a))
    assert linalg._symmetric_residues(linalg._hessenberg_mod(a, m), m) == exact


def test_non_unit_pivot_falls_back_to_one_prime_at_a_time(monkeypatch):
    # the only nonzero entry below the diagonal in column 0 is the first
    # listed prime, a zero divisor modulo the product of the primes
    n = N0
    p = linalg._prime(0)
    a = [[1 if abs(i - j) == 1 and min(i, j) > 0 else 0 for j in range(n)] for i in range(n)]
    a[1][0] = p
    a[0][1] = 1
    a[0][0] = 2
    primes = linalg._hadamard_primes(a)
    assert p in primes and linalg._hessenberg_mod(a, _modulus(primes)) is None
    moduli = []
    real = linalg._hessenberg_mod
    monkeypatch.setattr(linalg, "_hessenberg_mod", lambda rows, m: moduli.append(m) or real(rows, m))
    assert linalg._charpoly_rows(a) == linalg._faddeev_leverrier(a) == list(char_poly_interpolated(a).coeffs)
    assert moduli == [_modulus(primes), *primes]


@pytest.mark.parametrize("n", [N0 - 1, N0, N0 + 1, 40])
def test_modular_kernel_matches_faddeev_leverrier_and_interpolation(n):
    for a in _seeded_matrices(n, [n]):
        kernel = linalg._charpoly_modular(a)
        assert kernel == linalg._faddeev_leverrier(a)
        assert tuple(kernel) == char_poly_interpolated(a).coeffs
        assert char_poly(a).coeffs == tuple(kernel)
