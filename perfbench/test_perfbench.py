"""Tests of the benchmark itself: seeding, the percentile rules, the answer
checks and the tracer.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sgn = run.import_sgn()


def fingerprint(job):
    data = job.data
    if isinstance(data, sgn.SignedGraph):
        data = (data.n, data.edges)
    return (job.label, repr(data), job.expected)


@pytest.fixture(scope="module")
def job_lists():
    return {
        (name, seed): [fingerprint(j) for j in cls(sgn).make_jobs(seed)]
        for name, cls in workloads.WORKLOADS.items()
        for seed in (1, 2)
    } | {
        (name, 1, "again"): [fingerprint(j) for j in cls(sgn).make_jobs(1)]
        for name, cls in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_job_lists(job_lists, name):
    assert job_lists[(name, 1)] == job_lists[(name, 1, "again")]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(job_lists, name):
    one, two = job_lists[(name, 1)], job_lists[(name, 2)]
    assert len(one) == len(two)
    assert one != two


@pytest.mark.parametrize("name", ["verify", "dense", "sparse"])
def test_job_mix_does_not_depend_on_the_seed(job_lists, name):
    # the same job kinds and sizes on every seed keep the percentiles in place
    assert [f[0] for f in job_lists[(name, 1)]] == [f[0] for f in job_lists[(name, 2)]]


def ranked(latencies, failed=None):
    return run.rank_jobs(latencies, failed or [False] * len(latencies))


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    lat = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail(ranked(lat))
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(1 for x in lat if x > value) == 10

    lat = [float(i) for i in range(1, 20001)]
    value, pct, beyond = run.tail(ranked(lat))
    assert (value, pct) == (19990.0, 99.95)
    assert sum(1 for x in lat if x > value) == 10


def test_tail_is_the_maximum_below_twenty_jobs():
    # under 20 jobs no percentile at or above the median has 10 jobs beyond it
    lat = [float(i) for i in range(1, 18)]
    assert run.tail(ranked(lat)) == (17.0, 100.0, 0)
    lat = [float(i) for i in range(1, 21)]
    assert run.tail(ranked(lat)) == (10.0, 50.0, 10)


def test_p50_is_the_nearest_rank_median():
    assert run.p50(ranked([3.0, 1.0, 2.0])) == 2.0
    assert run.p50(ranked([4.0, 1.0, 3.0, 2.0])) == 2.0


def test_failed_jobs_rank_as_slowest():
    lat = [0.5, 9.0, 0.1, 7.0]
    order = ranked(lat, [False, False, True, False])
    assert order[-1] == (True, 0.1)
    assert [x for _, x in order] == [0.5, 7.0, 9.0, 0.1]
    # 25 fast jobs, 10 slow successes, 1 instant failure: the failure sits
    # beyond the tail percentile, not below the median
    lat = [1.0] * 25 + [5.0] * 10 + [0.001]
    failed = [False] * 35 + [True]
    value, _, beyond = run.tail(ranked(lat, failed))
    assert (value, beyond) == (5.0, 10)
    assert run.p50(ranked(lat, failed)) == 1.0


def test_twin_graphs_have_the_stated_nullity():
    rng = random.Random(7)
    for n in (8, 12, 20):
        for k in (1, 2, 4):
            g = sgn.SignedGraph(n, workloads.twin_graph(rng, n, k))
            assert sgn.nullity_rank(g) == k


def test_tree_and_bicyclic_checks_match_the_rank_route():
    from sgn.enumeration import random_tree_attached_bicyclic

    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 25)
        edges = workloads.random_tree(rng, n)
        assert len(workloads.strip_pendants(n, edges)) == sgn.nullity_rank(sgn.SignedGraph(n, edges))
    for kind in workloads.SPARSE_KINDS:
        for _ in range(10):
            base = random_tree_attached_bicyclic(rng, 12, kind)
            edges = workloads.random_tree(rng, 24, base.edges, 12)
            assert workloads.nullity_by_stripping(24, edges) == sgn.nullity_rank(sgn.SignedGraph(24, edges))


def test_exact_rank_matches_bareiss():
    rng = random.Random(5)
    for _ in range(30):
        g = sgn.enumeration.random_signed_graph(rng, rng.randint(1, 14), 0.4)
        rows = [list(r) for r in sgn.adjacency_matrix(g)]
        assert workloads.exact_rank(rows) == sgn.rank(rows)


def test_primes_are_prime_and_distinct():
    assert len(set(workloads.PRIMES)) == len(workloads.PRIMES)
    for p in workloads.PRIMES[:8]:
        assert p > 2**30
        assert all(p % d for d in range(3, 2000, 2))


def test_tracer_self_time_and_restore():
    originals = tracing.bindings()
    tracer = tracing.Tracer()
    g = sgn.gen_cycle(9, 1)
    with tracing.install(tracer):
        value, trace = sgn.nullity_structural(g)
        assert trace.replay() == value
        with pytest.raises(sgn.GraphError):
            sgn.parse_edge_list("2 1\n0 0 1\n")
        tracer.unwind()
    tracing.assert_unpatched(originals)
    assert tracer.calls["reduction.structural"] == 1
    assert tracer.calls["reduction.replay"] == 1
    assert tracer.errors["graph"] == 1
    assert all(t >= 0 for t in tracer.self_s.values())
    ids = {rec[0] for rec in tracer.records}
    assert all(parent == -1 or parent in ids for _, parent, *_ in tracer.records)
    # self times add up to the time the top-level spans cover
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_s)


def test_benchmark_file_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["corpus", "verify", "dense", "sparse"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
