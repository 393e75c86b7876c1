"""Theorem sweeps at small grids: pinned summaries and exact failure records."""

import functools
import hashlib
import inspect
import json
import re
import tracemalloc

import pytest

import sgn.verify as verify
from sgn.cli import main
from sgn.enumeration import connected_graphs_upto_iso, iter_signed_corpus, signed_graphs_mod_switching
from sgn.families import InternalError, gen_cycle, gen_path
from sgn.graph import SignedGraph, _induced, cut_points, pendant_pairs
from sgn.verify import THEOREM_IDS, verify_theorem

CORPUS_GRID = "iso-class connected corpus n<={} x switching classes, all qualifying (g, v, component) triples"

# (options, grid, cases) per theorem id; every sweep passes at these grids
SMALL = {
    "cor2.1": (
        dict(n_max=4, samples=20),
        "all labeled connected graphs n<=4 x switching classes; "
        "20 random signed graphs 7<=n<=10 (seed 20260811)",
        105,
    ),
    "thm2.2": (dict(n_max=10), "cycles n in [3,10], s in {0,1}", 16),
    "prop2.1": (dict(n_max=10), "paths n in [1,10]", 10),
    "lem3.1": (dict(samples=50), "50 random signed graphs n<=10, possibly disconnected (seed 20260811)", 50),
    "thm3.1": (dict(n_max=5), CORPUS_GRID.format(5), 55),
    "thm3.2": (dict(n_max=5), CORPUS_GRID.format(5), 11),
    "pendant": (dict(n_max=5), "iso-class connected corpus n<=5 x switching classes, every pendant pair", 48),
    "thm4.1": (dict(), "p,q in [3,8], l in [1,5], sp,sq in {0,1}", 720),
    "thm.theta": (dict(l_max=4), "p,q,l in [1,4] with at most one 1, s1,s2,s3 in {0,1}", 432),
    "lem5.1": (dict(samples=5), "triangle parities {0,1}^2, each with 5 random switchings (seed 20260811)", 24),
    "lem5.2": (
        dict(n_max=5),
        "all labeled connected bicyclic graphs n in [4,5] x unbalanced switching classes",
        633,
    ),
    "bounds.bplus": (dict(samples=50), "50 random BPlus tree-attached graphs, n in [7,9] (seed 20260811)", 50),
    "bounds.bplusplus": (
        dict(samples=50),
        "50 random BPlusPlus tree-attached graphs, n in [8,9] (seed 20260811)",
        50,
    ),
    "bounds.theta": (dict(samples=50), "50 random Theta tree-attached graphs, n in [5,9] (seed 20260811)", 50),
    "set.bplus": (dict(n_lo=8, n_hi=9), "BPlus: n in [8,9], k in [0, n-6]", 7),
    "set.bplusplus": (dict(n_lo=8, n_hi=9), "BPlusPlus: n in [8,9], k in [0, n-6]", 7),
    "set.theta": (dict(n_lo=6, n_hi=8), "Theta: n in [6,8], k in [0, n-4]", 12),
    "set.bicyclic": (dict(n_lo=8, n_hi=9), "n in [8,9], k in [0, n-4] via theta realizers", 11),
}


def test_every_theorem_is_pinned():
    assert sorted(SMALL) == list(THEOREM_IDS)


@pytest.mark.parametrize("theorem_id", sorted(SMALL))
def test_small_grid_summary(theorem_id):
    options, grid, cases = SMALL[theorem_id]
    report = verify_theorem(theorem_id, **options)
    assert report.summary() == {
        "theorem": theorem_id,
        "grid": grid,
        "cases": cases,
        "failures": 0,
        "status": "pass",
    }
    assert report.elapsed > 0


# sha256 of every sweep's json_lines() at its SMALL grid, in THEOREM_IDS
# order: clean, and under a fault that makes every sweep record failures
REPORT_DIGESTS = {
    "clean": "7beaf3e76fd70682f97b1ffeb11447b8cfacb8ad979950ca6fa9016ece41f6fa",
    "faulty": "b4af449df3443dcb7902ddc7b950121a295b764d9e2a45ece421b313e38ce263",
}


def _report_digest():
    digest = hashlib.sha256()
    failing = set()
    for theorem_id in THEOREM_IDS:
        report = verify_theorem(theorem_id, **SMALL[theorem_id][0])
        digest.update(report.json_lines().encode())
        if report.failures:
            failing.add(theorem_id)
    return digest.hexdigest(), failing


def test_report_bytes_are_pinned(monkeypatch):
    assert _report_digest() == (REPORT_DIGESTS["clean"], set())
    rank, charpoly = verify.nullity_rank, verify._charpoly_rows
    monkeypatch.setattr(verify, "nullity_rank", lambda g: rank(g) + (g.n in (4, 5, 8)))
    monkeypatch.setattr(verify, "_charpoly_rows", lambda rows: [c + (len(rows) == 3) for c in charpoly(rows)])
    assert _report_digest() == (REPORT_DIGESTS["faulty"], set(THEOREM_IDS))


# the three corpus sweeps one size up, where every rule has cases on many shapes
SIX = {
    "thm3.1": (CORPUS_GRID.format(6), 603),
    "thm3.2": (CORPUS_GRID.format(6), 138),
    "pendant": ("iso-class connected corpus n<=6 x switching classes, every pendant pair", 505),
}


@pytest.mark.parametrize("theorem_id", sorted(SIX))
def test_corpus_sweep_summary_at_six_vertices(theorem_id):
    grid, cases = SIX[theorem_id]
    report = verify_theorem(theorem_id, n_max=6)
    assert report.summary() == {"theorem": theorem_id, "grid": grid, "cases": cases, "failures": 0, "status": "pass"}


def test_cut_points_and_pendants_do_not_depend_on_signs():
    # the corpus sweeps compute both once per underlying graph
    for n, edges in connected_graphs_upto_iso(6):
        positive = SignedGraph(n, [(u, v, 1) for u, v in edges])
        for g in signed_graphs_mod_switching(n, edges):
            assert cut_points(g) == cut_points(positive)
            assert pendant_pairs(g) == pendant_pairs(positive)


def test_cutpoint_plan_signs_to_the_induced_parts():
    # the sweeps plan each cut point's parts on the underlying graph and sign
    # them per switching class; signed with g's signs, the parts at v must be
    # the subgraphs G_i and G_i + v that g induces, per component of G - v
    # by smallest label, and the labels must partition the vertices but v
    graphs = pairs = 0
    for g in iter_signed_corpus(6):
        plan = verify._cutpoint_plan(SignedGraph(g.n, [(u, v, 1) for u, v, _ in g.edges]))
        assert [v for v, _ in plan] == sorted(cut_points(g))
        signs = [s for _, _, s in g.edges]
        for v, entries in plan:
            labels = [original for original, _, _ in entries]
            assert labels == sorted(labels) and sorted(sum(labels, (v,))) == list(range(g.n))
            for original, comp, plus_v in entries:
                assert comp.graph(signs) == _induced(g, original)
                assert plus_v.graph(signs) == _induced(g, sorted((*original, v)))
            pairs += 1
        graphs += bool(plan)
    assert (graphs, pairs) == (458, 543)


# nullity_rank calls of one sweep at n <= 6: one per switching class whose
# eta(G) a case reads (thm3.1 420, thm3.2 110 of the 458 with a cut point,
# pendant all), one per distinct signing of each planned part (and thm3.2's
# G - G_i)
RANK_CALLS_AT_SIX = {"thm3.1": 1523, "thm3.2": 1351, "pendant": 723}


@pytest.mark.parametrize("theorem_id", sorted(RANK_CALLS_AT_SIX))
def test_corpus_sweeps_keep_no_ranks_between_calls(monkeypatch, theorem_id):
    real = verify.nullity_rank
    calls = []
    monkeypatch.setattr(verify, "nullity_rank", lambda g: calls.append(g) or real(g))
    counts = []
    for _ in range(2):
        calls.clear()
        assert verify_theorem(theorem_id, n_max=6).cases_checked == SIX[theorem_id][1]
        counts.append(len(calls))
    assert counts == [RANK_CALLS_AT_SIX[theorem_id]] * 2


EMPTY = {"set.theta": dict(n_lo=12, n_hi=6), "thm3.1": dict(n_max=2), "pendant": dict(n_max=1)}


@pytest.mark.parametrize("theorem_id", sorted(EMPTY))
def test_sweep_with_no_cases_fails(theorem_id):
    report = verify_theorem(theorem_id, **EMPTY[theorem_id])
    assert report.cases_checked == 0 and not report.failures
    assert not report.passed and report.summary()["status"] == "fail"


def test_failing_sweep_records_in_order(monkeypatch):
    monkeypatch.setattr(verify, "nullity_path", lambda n: 0)
    report = verify_theorem("prop2.1", n_max=6)
    assert report.failures == [
        {"n": 1, "expected": 1, "got": 0},
        {"n": 3, "expected": 1, "got": 0},
        {"n": 5, "expected": 1, "got": 0},
    ]
    assert [list(f) for f in report.failures] == [["n", "expected", "got"]] * 3
    assert report.summary()["cases"] == 6 and report.summary()["status"] == "fail"
    assert report.json_lines().splitlines()[0] == '{"expected": 1, "got": 0, "n": 1}'


def test_infinity_failure_records(monkeypatch):
    monkeypatch.setattr(verify, "nullity_infinity", lambda p, q, l, sp, sq: 2 if l == 1 else 0)
    report = verify_theorem("thm4.1")
    assert report.cases_checked == 720
    assert report.failures[0] == {"p": 3, "q": 3, "l": 1, "sp": 0, "sq": 0, "expected": 0, "got": 2}
    assert {tuple(f) for f in report.failures} == {("p", "q", "l", "sp", "sq", "expected", "got")}


def test_theta_sweep_at_its_default_grid():
    # 12^3 length triples less the 34 with two or three 1s, 8 parity triples each
    report = verify_theorem("thm.theta")
    assert report.summary() == {
        "theorem": "thm.theta",
        "grid": "p,q,l in [1,12] with at most one 1, s1,s2,s3 in {0,1}",
        "cases": (12**3 - 34) * 8,
        "failures": 0,
        "status": "pass",
    }


def test_theta_failure_records(monkeypatch):
    monkeypatch.setattr(verify, "nullity_theta", lambda p, q, l, s1, s2, s3: 3 if 1 in (p, q, l) else 0)
    report = verify_theorem("thm.theta", l_max=2)
    assert report.cases_checked == 4 * 8  # (1,2,2), (2,1,2), (2,2,1), (2,2,2)
    assert report.failures[0] == {"p": 1, "q": 2, "l": 2, "s1": 0, "s2": 0, "s3": 0, "expected": 1, "got": 3}
    assert {tuple(f) for f in report.failures} == {("p", "q", "l", "s1", "s2", "s3", "expected", "got")}


def test_lem51_memory_does_not_grow_with_samples():
    verify_theorem("lem5.1", samples=20)  # warm-up: imports and caches
    tracemalloc.start()
    try:
        report = verify_theorem("lem5.1", samples=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.cases_checked == 4 * 2001
    assert peak < 500_000


def _off_by_one_on_4_vertices(monkeypatch):
    real = verify.nullity_rank
    monkeypatch.setattr(verify, "nullity_rank", lambda g: real(g) + (1 if g.n == 4 else 0))


PATH4 = [[0, 1, 1], [0, 3, 1], [1, 2, 1]]
STAR4 = [[0, 3, 1], [1, 3, 1], [2, 3, 1]]
PAW = [[0, 3, 1], [1, 2, 1], [1, 3, 1], [2, 3, 1]]
PAW_NEG = [[0, 3, 1], [1, 2, 1], [1, 3, 1], [2, 3, -1]]


def test_cutpoint_decrement_failure_records(monkeypatch):
    _off_by_one_on_4_vertices(monkeypatch)
    report = verify_theorem("thm3.1", n_max=4)
    assert report.cases_checked == 9
    rows = [(f["edges"], f["cut_point"], f["component"], f["expected"], f["got"]) for f in report.failures]
    assert rows == [
        (PATH4, 0, 1, 0, 1),
        (PATH4, 1, 1, 0, 1),
        (STAR4, 3, 0, 2, 3),
        (STAR4, 3, 1, 2, 3),
        (STAR4, 3, 2, 2, 3),
        (PAW, 3, 0, 0, 1),
        (PAW_NEG, 3, 0, 0, 1),
    ]
    assert {json.dumps(list(f)) for f in report.failures} == {
        '["n", "edges", "cut_point", "component", "expected", "got"]'
    }


def test_cutpoint_split_failure_records(monkeypatch):
    _off_by_one_on_4_vertices(monkeypatch)
    report = verify_theorem("thm3.2", n_max=4)
    assert report.cases_checked == 2
    assert report.failures == [
        {"n": 4, "edges": PATH4, "cut_point": 0, "component": 0, "expected": 0, "got": 1},
        {"n": 4, "edges": PATH4, "cut_point": 1, "component": 0, "expected": 0, "got": 1},
    ]


def test_pendant_failure_records(monkeypatch):
    _off_by_one_on_4_vertices(monkeypatch)
    report = verify_theorem("pendant", n_max=4)
    assert report.cases_checked == 11
    rows = [(f["edges"], f["pendant"], f["neighbor"], f["expected"], f["got"]) for f in report.failures]
    assert rows == [
        (PATH4, 2, 1, 1, 0),
        (PATH4, 3, 0, 1, 0),
        (STAR4, 0, 3, 3, 2),
        (STAR4, 1, 3, 3, 2),
        (STAR4, 2, 3, 3, 2),
        (PAW, 0, 3, 1, 0),
        (PAW_NEG, 0, 3, 1, 0),
    ]


def test_set_non_bicyclic_output_is_a_counted_case(monkeypatch, capsys):
    real = verify.realize_nullity

    def realize(class_name, n, k):
        return gen_path(8) if k == 0 else real(class_name, n, k)

    monkeypatch.setattr(verify, "realize_nullity", realize)
    report = verify_theorem("set.theta", n_lo=6, n_hi=6)
    assert report.cases_checked == 3
    assert report.failures == [
        {
            "n": 6, "k": 0,
            "edges": [[i, i + 1, 1] for i in range(7)],
            "kind": "witness",
            "expected": {"eta": 0, "balanced": False, "class": "Theta"},
            "got": {
                "eta": 0, "balanced": True,
                "class": "GraphError('bicyclic graph needs m = n + 1, got n=8, m=7')",
            },
        },
    ]
    assert main(["verify", "set.theta", "--n", "6..6"]) == 2
    assert "cases checked: 3, failures: 1" in capsys.readouterr().out


def test_set_bicyclic_witness_must_be_bicyclic(monkeypatch):
    # an unbalanced 5-cycle has the nullity asked for, but m = n
    real = verify.realize_nullity
    monkeypatch.setattr(verify, "realize_nullity", lambda cls, n, k: gen_cycle(5, 1) if k == 0 else real(cls, n, k))
    report = verify_theorem("set.bicyclic", n_lo=6, n_hi=6)
    assert report.cases_checked == 3
    assert report.failures == [
        {
            "n": 6, "k": 0,
            "edges": [[0, 1, -1], [0, 4, 1], [1, 2, 1], [2, 3, 1], [3, 4, 1]],
            "kind": "witness",
            "expected": {"eta": 0, "balanced": False, "class": "Theta"},
            "got": {"eta": 0, "balanced": False, "class": "GraphError('bicyclic graph needs m = n + 1, got n=5, m=5')"},
        },
    ]


# the smallest order of each set sweep's class
SET_MINIMUM = {"set.bplus": 7, "set.bplusplus": 8, "set.theta": 6, "set.bicyclic": 6}


@pytest.mark.parametrize("theorem_id", sorted(SET_MINIMUM))
def test_set_construction_failure_is_a_counted_case(monkeypatch, capsys, theorem_id):
    real = verify.realize_nullity

    def realize(class_name, n, k):
        if k == 0:
            raise InternalError("no witness")
        return real(class_name, n, k)

    monkeypatch.setattr(verify, "realize_nullity", realize)
    n = SET_MINIMUM[theorem_id]
    report = verify_theorem(theorem_id, n_lo=n, n_hi=n)
    assert report.cases_checked == (2 if theorem_id == "set.bplus" else 3)
    assert report.failures == [
        {"n": n, "k": 0, "kind": "construction", "got": "InternalError('no witness')"},
    ]
    assert main(["verify", theorem_id, "--n", f"{n}..{n}"]) == 2
    assert "failures: 1" in capsys.readouterr().out


# every (theorem id, option, limit) of the registry
LIMITS = [(tid, name, limit) for tid, (_, limits) in verify._REGISTRY.items() for name, limit in limits.items()]


@pytest.mark.parametrize("theorem_id, name, limit", LIMITS, ids=[f"{tid}-{name}" for tid, name, _ in LIMITS])
def test_option_beyond_its_limit_is_refused_before_sweeping(monkeypatch, theorem_id, name, limit):
    fn, limits = verify._REGISTRY[theorem_id]
    calls = []

    @functools.wraps(fn)  # verify_theorem reads the sweep's parameters through __wrapped__
    def stub(**options):
        calls.append(options)

    monkeypatch.setitem(verify._REGISTRY, theorem_id, (stub, limits))
    scope = "draws up to" if name == "samples" else "is exhaustive up to"
    message = f"{theorem_id} {scope} {name} = {limit}, got {name} = {limit + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_theorem(theorem_id, **{name: limit + 1})
    assert calls == []
    verify_theorem(theorem_id, **{name: limit})
    assert calls == [{name: limit}]
    # the default, which the benchmark runs, lies within the limit
    assert inspect.signature(fn).parameters[name].default <= limit


def test_every_sampled_sweep_has_a_limit():
    for theorem_id, (fn, limits) in verify._REGISTRY.items():
        assert ("samples" in inspect.signature(fn).parameters) == ("samples" in limits), theorem_id


@pytest.mark.parametrize(
    "theorem_id, options, message",
    [
        ("thm4.1", dict(p_max=10**6), "thm4.1 is exhaustive up to p_max = 30, got p_max = 1000000"),
        ("thm4.1", dict(l_max=10**6), "thm4.1 is exhaustive up to l_max = 30, got l_max = 1000000"),
        ("thm.theta", dict(l_max=10**6), "thm.theta is exhaustive up to l_max = 26, got l_max = 1000000"),
    ],
)
def test_closed_form_grids_of_the_library_are_bounded(monkeypatch, theorem_id, options, message):
    # no CLI flag sets p_max or l_max, but verify_theorem is public; at these
    # values the sweeps would not end
    monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("the sweep started"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_theorem(theorem_id, **options)


@pytest.mark.parametrize("theorem_id", sorted(SET_MINIMUM))
def test_set_sweep_beyond_its_limit_is_refused_before_sweeping(monkeypatch, theorem_id):
    # the real sweep: refused just above its limit before any realizer is
    # built, and passing at the limit itself
    limit = verify._REGISTRY[theorem_id][1]["n_hi"]
    calls = []
    monkeypatch.setattr(verify, "realize_nullity", lambda *args: calls.append(args))
    message = f"{theorem_id} is exhaustive up to n_hi = {limit}, got n_hi = {limit + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_theorem(theorem_id, n_lo=limit, n_hi=limit + 1)
    assert calls == []
    monkeypatch.undo()
    report = verify_theorem(theorem_id, n_lo=limit, n_hi=limit)
    assert report.passed and report.cases_checked > 0


@pytest.mark.parametrize("theorem_id", sorted(SET_MINIMUM))
def test_set_sweep_below_the_class_minimum_is_refused_before_sweeping(monkeypatch, theorem_id):
    n_min = SET_MINIMUM[theorem_id]
    calls = []
    monkeypatch.setattr(verify, "realize_nullity", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"^{theorem_id} needs n >= {n_min}, got n_lo = {n_min - 1}$"):
        verify_theorem(theorem_id, n_lo=n_min - 1, n_hi=n_min + 1)
    assert calls == []
    monkeypatch.undo()
    report = verify_theorem(theorem_id, n_lo=n_min, n_hi=n_min)
    assert report.passed and report.cases_checked > 0


def test_accepted_options_are_each_sweeps_parameters():
    # a rejection names every unknown option, so a parameter passed with a
    # bogus option is accepted exactly when the message names the bogus one only
    options = {"n_max", "samples", "seed", "n_lo", "n_hi", "p_max", "l_max"}
    for theorem_id, (fn, _) in verify._REGISTRY.items():
        params = inspect.signature(fn).parameters
        assert params.keys() <= options
        for name in options:
            unknown = sorted({name, "bogus"} - params.keys())
            with pytest.raises(ValueError, match=re.escape(f"does not accept options {unknown}")):
                verify_theorem(theorem_id, **{name: 1}, bogus=1)
    report = verify_theorem("thm4.1", p_max=4, l_max=2)
    assert report.parameter_grid == "p,q in [3,4], l in [1,2], sp,sq in {0,1}" and report.cases_checked == 32


def test_rejects_unknown_theorem_and_options():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify_theorem("thm9.9")
    with pytest.raises(ValueError, match="does not accept"):
        verify_theorem("thm4.1", n_max=3)
