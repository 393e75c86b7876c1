"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every equality below is exact (integers, zero tolerance).  Each test prints
one PASS line with its case count and elapsed time; runtime budgets are the
stated expectations and are asserted because they hold with ample headroom
on commodity hardware.

The "exhaustive n <= 7 corpus" is one representative per isomorphism class
of connected graphs on up to 7 vertices crossed with one signature per
switching class (197349 signed graphs); nullity, balance, and the cut-point
relations are invariant under relabeling and switching, so this is
exhaustive for the properties checked.  The coefficient-theorem sweep uses
the larger fully-labeled n <= 6 corpus (440482 signed graphs).
"""

import random
import time

from sgn import (
    adjacency_matrix,
    canonical_signature,
    find_cycles,
    gen_figure,
    gen_infinity,
    nullity_charpoly,
    nullity_infinity,
    nullity_rank,
    nullity_structural,
    rank,
    switch,
)
from sgn import reduction
from sgn.enumeration import (
    iter_signed_corpus,
    random_signed_graph,
    random_switching,
)
from sgn.formulas import InfinitySpec
from sgn.reduction import METHOD_RANK_ORACLE
from sgn.verify import (
    verify_cor21,
    verify_bounds_bplus,
    verify_bounds_bplusplus,
    verify_lem52,
    verify_pendant,
    verify_prop21,
    verify_set_bplus,
    verify_set_bplusplus,
    verify_set_theta,
    verify_thm22,
    verify_thm31,
    verify_thm32,
    verify_thm41,
)
from samplers import random_low_cyclomatic_graph

CORPUS_SIGNED_GRAPHS = 197349      # iso classes n <= 7 x switching classes
LABELED_SIGNED_GRAPHS = 440482     # labeled connected n <= 6 x switching classes
# most rank calls the structural route may make on that corpus, each of them
# a rank-oracle base case; lower it as the route stops leaning on the oracle
CORPUS_RANK_CALLS = 193936
# fewest corpus graphs the structural route must decide rank-free, with no
# rank-oracle base case; raise it likewise
CORPUS_RANK_FREE = 3413


def _passed(criterion, detail, elapsed, budget):
    print(f"criterion {criterion}: PASS ({detail}, {elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def _fmt_failures(report):
    return f"{report.theorem_id}: {report.failures[:3]}"


def test_criterion_1_coefficient_theorem():
    """Figure-enumeration charpoly equals the exact charpoly on every labeled
    connected graph with n <= 6 (one signature per switching class) and on
    500 random signed graphs with 7 <= n <= 10."""
    t0 = time.perf_counter()
    report = verify_cor21(n_max=6, samples=500)
    assert report.passed, _fmt_failures(report)
    assert report.cases_checked == LABELED_SIGNED_GRAPHS + 500
    _passed(1, f"{report.cases_checked} polynomial comparisons", time.perf_counter() - t0, 120)


def test_criterion_2_cycle_and_path_closed_forms():
    """Cycle nullity table for n in [3,20] x s in {0,1} and path nullity for
    n in [1,20], both against the exact rank."""
    t0 = time.perf_counter()
    cycles = verify_thm22(n_max=20)
    paths = verify_prop21(n_max=20)
    assert cycles.passed, _fmt_failures(cycles)
    assert cycles.cases_checked == 36
    assert paths.passed, _fmt_failures(paths)
    assert paths.cases_checked == 20
    _passed(2, "36 cycle + 20 path cases", time.perf_counter() - t0, 1)


def test_criterion_3_infinity_formula():
    """Infinity-graph formula over p,q in [3,8], l in [1,5], parities in
    {0,1}: every case, the odd-odd-odd one included, matches the rank oracle
    exactly, and the concrete anchor values hold."""
    t0 = time.perf_counter()
    report = verify_thm41(p_max=8, l_max=5)
    assert report.passed, _fmt_failures(report)
    assert report.cases_checked == 6 * 6 * 5 * 4
    # anchor: the 7-vertex infinity graph with balanced quadrangle has nullity 1
    g = gen_infinity(3, 4, 2, 1, 0)
    assert g.n == 7 and nullity_rank(g) == 1
    assert nullity_infinity(InfinitySpec(3, 4, 2, 1, 0)) == 1
    # anchor: the even/even case attains exactly {3, 1, 2, 0}
    seen = set()
    for l in (2, 3):
        for sp in (0, 1):
            for sq in (0, 1):
                seen.add(nullity_infinity(InfinitySpec(4, 4, l, sp, sq)))
    assert seen == {3, 1, 2, 0}
    _passed(3, f"{report.cases_checked} grid cases + anchors", time.perf_counter() - t0, 10)


def test_criterion_4_cutpoint_theorems_and_pendant_lemma():
    """Over the exhaustive n <= 7 corpus: every qualifying cut-point triple
    satisfies its rule and every pendant deletion preserves nullity.  The
    structural engine's agreement with the rank oracle on the same corpus is
    criterion 5's."""
    t0 = time.perf_counter()
    case1 = verify_thm31(n_max=7)
    case2 = verify_thm32(n_max=7)
    pend = verify_pendant(n_max=7)
    for report in (case1, case2, pend):
        assert report.passed, _fmt_failures(report)
        assert report.cases_checked > 0
    detail = (
        f"{case1.cases_checked}+{case2.cases_checked} cut-point triples, "
        f"{pend.cases_checked} pendant pairs"
    )
    _passed(4, detail, time.perf_counter() - t0, 300)


def test_criterion_5_three_way_agreement(monkeypatch):
    """rank = zero-root multiplicity = structural nullity on the full corpus
    plus 1000 random signed graphs with n <= 12; on the corpus the structural
    route calls rank only in its rank-oracle base cases, for no graph with
    c <= 2 and for at most the pinned number of others."""
    t0 = time.perf_counter()
    calls = [0]

    def counted_rank(g):
        calls[0] += 1
        return nullity_rank(g)

    monkeypatch.setattr(reduction, "nullity_rank", counted_rank)
    checked = rank_calls = rank_free = 0
    for g in iter_signed_corpus(7):
        r = nullity_rank(g)
        assert r == nullity_charpoly(g), f"charpoly mismatch on {g}"
        calls[0] = 0
        value, trace = nullity_structural(g)
        assert r == value == trace.replay(), f"structural mismatch on {g}"
        fallbacks = sum(1 for step in trace.steps if step.method == METHOD_RANK_ORACLE)
        assert calls[0] == fallbacks, f"{calls[0]} rank calls, {fallbacks} rank-oracle base cases on {g}"
        # pendant peeling and the cycle, theta and infinity closed forms
        # decide every graph with cyclomatic number c <= 2
        assert not fallbacks or g.m - g.n + 1 >= 3, f"rank call on {g}, c <= 2"
        rank_calls += calls[0]
        rank_free += not fallbacks
        checked += 1
    assert checked == CORPUS_SIGNED_GRAPHS
    assert rank_calls <= CORPUS_RANK_CALLS, f"{rank_calls} rank calls on the corpus"
    assert rank_free >= CORPUS_RANK_FREE, f"{rank_free} rank-free corpus graphs"
    rng = random.Random(20260811)
    for _ in range(1000):
        g = random_signed_graph(rng, rng.randint(1, 12), edge_prob=0.35)
        r = nullity_rank(g)
        assert r == nullity_charpoly(g) == nullity_structural(g)[0]
        checked += 1
    _passed(5, f"{checked} three-way agreements, {rank_calls} rank calls and {rank_free} "
            "rank-free graphs on the corpus",
            time.perf_counter() - t0, 180)


def test_criterion_6_figure_goldens():
    """The figure graphs reproduce every stated nullity exactly."""
    t0 = time.perf_counter()
    golden = {
        "H1": 0, "H2": 0,
        "H4": 0, "H5": 0, "H8": 0,
        "H6": 1, "H7": 1, "H9": 1,
        "H11": 2, "H12": 2,
    }
    for fig, eta in golden.items():
        assert nullity_rank(gen_figure(fig)) == eta, fig
    assert nullity_rank(gen_figure("H10", s=0)) == 2   # balanced free quadrangle
    assert nullity_rank(gen_figure("H10", s=1)) == 0   # unbalanced free quadrangle
    assert nullity_rank(gen_figure("H13", sp=1, sq=1)) == 0  # equal balanceness
    assert nullity_rank(gen_figure("H13", sp=0, sq=0)) == 0
    cases = len(golden) + 4
    for n in (7, 9, 11):
        assert nullity_rank(gen_figure("G1", n=n)) == n - 6
        cases += 1
    for n in (6, 9, 11):
        assert nullity_rank(gen_figure("G3", n=n)) == n - 6
        cases += 1
    for n in (5, 8, 12):
        assert nullity_rank(gen_figure("G6", n=n)) == n - 4
        cases += 1
    _passed(6, f"{cases} figure goldens", time.perf_counter() - t0, 1)


def test_criterion_7_nullity_sets():
    """For n in [8,12] the realizers cover [0, n-6] for both infinity classes
    and [0, n-4] for theta, each witness unbalanced, in class, and with
    oracle-verified nullity."""
    t0 = time.perf_counter()
    bplus = verify_set_bplus(n_lo=8, n_hi=12)
    bpp = verify_set_bplusplus(n_lo=8, n_hi=12)
    theta = verify_set_theta(n_lo=8, n_hi=12)
    for report in (bplus, bpp, theta):
        assert report.passed, _fmt_failures(report)
    assert bplus.cases_checked == bpp.cases_checked == sum(n - 5 for n in range(8, 13))
    assert theta.cases_checked == sum(n - 3 for n in range(8, 13))
    total = bplus.cases_checked + bpp.cases_checked + theta.cases_checked
    _passed(7, f"{total} realizations", time.perf_counter() - t0, 30)


def test_criterion_8_upper_bounds_and_extremal_case():
    """Exhaustively for n <= 6: unbalanced bicyclic nullity stays <= n - 3
    with equality exactly for the both-triangles-unbalanced diamond; sampled
    tree-attached infinity-type graphs on 7..9 vertices stay <= n - 6."""
    t0 = time.perf_counter()
    exhaustive = verify_lem52(n_max=6)
    assert exhaustive.passed, _fmt_failures(exhaustive)
    sampled_plus = verify_bounds_bplus(samples=6000)
    sampled_pp = verify_bounds_bplusplus(samples=5000)
    assert sampled_plus.passed, _fmt_failures(sampled_plus)
    assert sampled_pp.passed, _fmt_failures(sampled_pp)
    assert sampled_plus.cases_checked + sampled_pp.cases_checked >= 10_000
    detail = (
        f"{exhaustive.cases_checked} exhaustive unbalanced bicyclics, "
        f"{sampled_plus.cases_checked + sampled_pp.cases_checked} sampled bound checks"
    )
    _passed(8, detail, time.perf_counter() - t0, 600)


def test_criterion_9_switching_invariance():
    """1000 random (graph, switching) pairs: rank, nullity, and every cycle
    sign unchanged; the canonical form is idempotent and invariant."""
    t0 = time.perf_counter()
    rng = random.Random(424242)
    for trial in range(1000):
        if trial % 2 == 0:
            g = random_signed_graph(rng, rng.randint(2, 10), edge_prob=0.4)
        else:
            g = random_low_cyclomatic_graph(rng, rng.randint(3, 10), rng.randint(0, 2))
        theta = random_switching(rng, g.n)
        h = switch(g, theta)
        assert rank(adjacency_matrix(g)) == rank(adjacency_matrix(h))
        assert nullity_rank(g) == nullity_rank(h)
        if g.cyclomatic_number() <= 2:
            before = {w.vertices: w.sign for w in find_cycles(g)}
            after = {w.vertices: w.sign for w in find_cycles(h)}
            assert before == after
        canon = canonical_signature(g)
        assert canonical_signature(canon) == canon
        assert canonical_signature(h) == canon
    _passed(9, "1000 switching pairs", time.perf_counter() - t0, 30)
