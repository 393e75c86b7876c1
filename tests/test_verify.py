"""Theorem sweeps at small grids: pinned summaries and exact failure records."""

import json

import pytest

import sgn.verify as verify
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


def test_set_construction_failure_is_a_counted_case(monkeypatch):
    real = verify.realize_nullity

    def realize(class_name, n, k):
        if k == 0:
            raise ValueError("no witness")
        return real(class_name, n, k)

    monkeypatch.setattr(verify, "realize_nullity", realize)
    report = verify_theorem("set.theta", n_lo=6, n_hi=6)
    assert report.cases_checked == 3
    assert report.failures == [
        {"n": 6, "k": 0, "kind": "construction", "got": "ValueError('no witness')"},
    ]


def test_rejects_unknown_theorem_and_options():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify_theorem("thm9.9")
    with pytest.raises(ValueError, match="does not accept"):
        verify_theorem("thm4.1", n_max=3)
