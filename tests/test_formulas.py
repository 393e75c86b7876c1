"""Closed forms: paths, cycles, infinity and theta graphs, bounds, extremal test."""

import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgn import (
    SignedGraph,
    GraphError,
    is_max_nullity_extremal,
    nullity_cycle,
    nullity_infinity,
    nullity_path,
    nullity_rank,
    nullity_theta,
    switch,
    upper_bound,
)
from sgn.enumeration import random_switching
from sgn.families import gen_cycle, gen_infinity, gen_path, gen_theta


def test_path_nullity_values():
    assert nullity_path(5) == 1
    assert nullity_path(4) == 0
    assert nullity_path(1) == 1
    with pytest.raises(GraphError):
        nullity_path(0)


def test_path_nullity_matches_oracle():
    for n in range(1, 21):
        assert nullity_path(n) == nullity_rank(gen_path(n))


def test_cycle_nullity_table():
    assert nullity_cycle(4, 0) == 2
    assert nullity_cycle(6, 1) == 2
    assert nullity_cycle(5, 0) == 0 and nullity_cycle(5, 1) == 0
    assert nullity_cycle(4, 1) == 0
    assert nullity_cycle(6, 0) == 0
    with pytest.raises(GraphError):
        nullity_cycle(2, 0)
    with pytest.raises(GraphError):
        nullity_cycle(5, 2)


def test_cycle_nullity_matches_oracle():
    for n in range(3, 21):
        for s in (0, 1):
            assert nullity_cycle(n, s) == nullity_rank(gen_cycle(n, s))


def test_infinity_spec_validation():
    with pytest.raises(GraphError):
        nullity_infinity(2, 3, 1, 0, 0)
    with pytest.raises(GraphError):
        nullity_infinity(3, 3, 0, 0, 0)
    with pytest.raises(GraphError, match="cycle sign parities must be 0 or 1"):
        nullity_infinity(3, 3, 1, 2, 0)


def test_closed_forms_take_their_builders_parameters():
    # one vocabulary: each closed form names its parameters as its builder
    # does, in the same order
    for build, formula in [
        (gen_path, nullity_path),
        (gen_cycle, nullity_cycle),
        (gen_infinity, nullity_infinity),
        (gen_theta, nullity_theta),
    ]:
        assert list(inspect.signature(formula).parameters) == list(inspect.signature(build).parameters)


@pytest.mark.parametrize(
    "build, formula, args",
    [
        (gen_infinity, nullity_infinity, (2, 3, 1)),
        (gen_infinity, nullity_infinity, (3, 3, 0)),
        (gen_theta, nullity_theta, (1, 1, 3)),
        (gen_theta, nullity_theta, (2, 3, 4, 0, 2, 1)),
    ],
)
def test_closed_forms_refuse_with_their_builders_messages(build, formula, args):
    with pytest.raises(GraphError) as built:
        build(*args)
    with pytest.raises(GraphError) as computed:
        formula(*args)
    assert str(computed.value) == str(built.value)


def test_infinity_odd_odd_cases():
    # shared-vertex bowtie with equal balanceness: invariant even, nullity 0
    assert nullity_infinity(3, 3, 1, 1, 1) == 0
    # different balanceness at l = 1: nullity 1
    assert nullity_infinity(3, 3, 1, 1, 0) == 1
    # even connecting path: always 0
    assert nullity_infinity(3, 5, 2, 0, 0) == 0


def test_infinity_mixed_parity_cases():
    # balanced quadrangle (nullity 2) forces 1
    assert nullity_infinity(4, 3, 2, 0, 0) == 1
    # unbalanced quadrangle (nullity 0) forces 0
    assert nullity_infinity(4, 3, 2, 1, 0) == 0


def test_infinity_even_even_cases():
    assert nullity_infinity(4, 4, 3, 0, 0) == 3
    assert nullity_infinity(4, 4, 3, 1, 0) == 1
    assert nullity_infinity(4, 4, 2, 0, 0) == 2
    assert nullity_infinity(4, 4, 2, 1, 1) == 0


def test_infinity_lower_bound_branch():
    # both cycles odd, l >= 3 odd, odd invariant: exactly 1, by the
    # Schur-complement reduction to infinity(3,3,3)
    assert nullity_infinity(3, 3, 3, 1, 0) == 1
    assert nullity_rank(gen_infinity(3, 3, 3, 1, 0)) == 1
    assert nullity_infinity(3, 3, 3, 1, 1) == 0


def test_infinity_formula_against_oracle_grid():
    for p in range(3, 7):
        for q in range(3, 7):
            for l in range(1, 5):
                for sp in (0, 1):
                    for sq in (0, 1):
                        oracle = nullity_rank(gen_infinity(p, q, l, sp, sq))
                        assert nullity_infinity(p, q, l, sp, sq) == oracle, (p, q, l, sp, sq)


def test_infinity_odd_odd_grid_is_exact():
    # odd p, q and odd l >= 3: the cases the Schur-complement reduction
    # closes (odd invariant) give 1, the rest 0
    ones = 0
    for p in range(3, 12, 2):
        for q in range(3, 12, 2):
            for l in range(3, 10, 2):
                for sp in (0, 1):
                    for sq in (0, 1):
                        want = (sp - sq + (q - p) // 2) % 2
                        assert nullity_infinity(p, q, l, sp, sq) == want
                        assert nullity_rank(gen_infinity(p, q, l, sp, sq)) == want, (p, q, l, sp, sq)
                        ones += want
    assert ones == 5 * 5 * 4 * 2


@st.composite
def subdivided_graphs(draw):
    """A signed graph with at least one edge, and the graph that replaces one
    of its edges uw by a path u-x-y-w whose sign product is -sigma(uw)."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    edges = [(u, v, s) for (u, v), s in zip(chosen, signs)]
    i = draw(st.integers(min_value=0, max_value=len(edges) - 1))
    u, w, s = edges[i]
    a, b = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    x, y = n, n + 1
    path = [(u, x, a), (x, y, b), (y, w, -s * a * b)]
    return SignedGraph(n, edges), SignedGraph(n + 2, edges[:i] + edges[i + 1:] + path)


@given(subdivided_graphs())
@settings(max_examples=150)
def test_two_vertex_subdivision_keeps_nullity(pair):
    # the Schur complement of the nonsingular block of x and y is the
    # original adjacency matrix, so the nullity is the same
    g, h = pair
    assert nullity_rank(h) == nullity_rank(g)


def test_infinity_depends_only_on_parities():
    # switching moves negative edges around at fixed cycle parity
    rng = random.Random(11)
    g = gen_infinity(5, 4, 3, 1, 1)
    want = nullity_rank(g)
    for _ in range(15):
        assert nullity_rank(switch(g, random_switching(rng, g.n))) == want


PARITIES = list(itertools.product((0, 1), repeat=3))


def test_theta_validation():
    for lengths, parities in [
        ((0, 2, 3), (0, 0, 0)),
        ((1, 1, 3), (0, 0, 0)),
        ((2, 2, 2), (0, 2, 0)),
    ]:
        with pytest.raises(GraphError):
            nullity_theta(*lengths, *parities)
    with pytest.raises(TypeError):
        nullity_theta(2, 2)  # a theta graph needs three path lengths


def test_theta_base_graphs():
    # the four graphs every theta reduces to, with the values the docstring
    # derives: K_{2,3} gives 3 when its three quadrangles are positive, the
    # diamond 1 when C_23 is, theta(1,2,3) 1 when C_13 is, theta(1,3,3) 0
    rule = {
        (2, 2, 2): lambda s: 3 if s[0] == s[1] == s[2] else 1,
        (1, 2, 2): lambda s: 1 if s[1] == s[2] else 0,
        (1, 2, 3): lambda s: 1 if s[0] == s[2] else 0,
        (1, 3, 3): lambda s: 0,
    }
    for lengths, value in rule.items():
        for s in PARITIES:
            assert nullity_theta(*lengths, *s) == value(s) == nullity_rank(gen_theta(*lengths, *s)), (lengths, s)


def test_theta_pivot_keeps_the_value():
    # shortening a path by 2 and flipping its parity, where the pivot
    # applies, leaves the formula's value unchanged
    checked = 0
    for lengths in itertools.product(range(1, 10), repeat=3):
        if lengths.count(1) > 1:
            continue
        for s in PARITIES:
            for i, length in enumerate(lengths):
                if length >= 4 or (length == 3 and 1 not in lengths):
                    shorter = list(lengths)
                    shorter[i] -= 2
                    flipped = list(s)
                    flipped[i] ^= 1
                    assert nullity_theta(*shorter, *flipped) == nullity_theta(*lengths, *s)
                    checked += 1
    assert checked == 13_056


def test_upper_bound_values():
    assert upper_bound("BPlus", 10) == 4
    assert upper_bound("BPlusPlus", 8) == 2
    assert upper_bound("ThetaUnbalanced", 6) == 2
    assert upper_bound("BicyclicUnbalanced", 5) == 2


def test_upper_bound_thresholds():
    with pytest.raises(GraphError):
        upper_bound("BPlus", 6)
    with pytest.raises(GraphError):
        upper_bound("BPlusPlus", 7)
    with pytest.raises(GraphError):
        upper_bound("ThetaUnbalanced", 4)
    with pytest.raises(GraphError):
        upper_bound("BicyclicUnbalanced", 3)
    with pytest.raises(GraphError):
        upper_bound("NoSuchClass", 9)


def test_extremal_diamond_detection():
    both = gen_theta(2, 2, 1, 1, 1, 0)
    assert is_max_nullity_extremal(both)
    assert nullity_rank(both) == both.n - 3
    one = gen_theta(2, 2, 1, 1, 0, 0)
    assert not is_max_nullity_extremal(one)
    bowtie = gen_infinity(3, 3, 1, 1, 0)
    assert not is_max_nullity_extremal(bowtie)


def test_extremal_preconditions():
    with pytest.raises(GraphError):
        is_max_nullity_extremal(gen_path(4))  # not bicyclic
    with pytest.raises(GraphError):
        is_max_nullity_extremal(gen_theta(2, 2, 1))  # balanced
