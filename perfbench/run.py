"""The sgn benchmark: one seeded workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Jobs run one after another in a single process with no threads.  A run sets
up (import ``sgn``, build the seeded job list, warm up), then repeats whole
passes over the fixed job list until ``--seconds`` have elapsed, at least
once.  Answers are checked after each job, outside its timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures
untraced passes, then as many traced passes, and reports the per-layer
metrics.  The line before it holds the run facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import HEAVY_SWEEPS, VERIFY_CASES, WORKLOADS  # noqa: E402

#: Fresh processes whose set-up time ``setup_s`` takes the median of.
SETUP_SAMPLES = 3
#: A tail percentile needs this many jobs beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = ("graph", "enumeration", "linalg", "figures", "reduction", "families", "formulas", "verify")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}

    def add(unit, *names):
        for name in names:
            units[name] = unit

    add("count", "enumeration.atlas.calls")
    add("s", "enumeration.atlas.self_s", "enumeration.corpus.self_s", "enumeration.labeled.self_s",
        "enumeration.switching.self_s", "enumeration.sampler.self_s")
    add("count", "graph.construct.calls")
    add("s", "graph.construct.self_s", "graph.parse.self_s")
    for fn in ("components", "cut_points", "delete_vertices", "pendant_pairs", "balance"):
        add("count", f"graph.{fn}.calls")
        add("s", f"graph.{fn}.self_s")
    for kernel in ("rank", "charpoly"):
        for bucket in tracing.BUCKETS:
            add("count", f"linalg.{kernel}.calls.{bucket}")
            add("s", f"linalg.{kernel}.self_s.{bucket}")
    add("s", "linalg.adjacency.self_s")
    add("count", "figures.profile.calls")
    add("s", "figures.profile.self_s", "figures.eval.self_s", "figures.char_poly_figures.self_s")
    add("count", "reduction.structural.calls")
    add("s", "reduction.structural.self_s", "reduction.replay.self_s")
    add("count", "reduction.oracle.calls")
    add("s", "reduction.oracle.self_s")
    add("count", "reduction.cutpoint.attempts", "reduction.cutpoint.hits")
    add("ratio", "reduction.cutpoint.hit_ratio")
    add("s", "reduction.cutpoint.self_s")
    add("ratio", "reduction.fallback_frac")
    add("count", "reduction.trace.steps", "reduction.trace.snapshot_vertices")
    add("s", "families.self_s", "formulas.self_s")
    for tid in sorted(VERIFY_CASES):
        add("s", f"verify.{tid}.self_s")
        add("count", f"verify.{tid}.cases")
    add("count", *(f"{layer}.errors" for layer in LAYERS))
    add("ratio", "trace.overhead_frac", "trace.coverage_frac")
    return units


# -- statistics ------------------------------------------------------------------


def rank_jobs(latencies: list[float], failed: list[bool]) -> list[tuple[bool, float]]:
    """Jobs in rank order: failed jobs after every successful one."""
    return sorted(zip(failed, latencies))


def p50(ranked) -> float:
    return ranked[math.ceil(len(ranked) / 2) - 1][1]


def tail(ranked) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond it) at the highest percentile, not
    below the median, with at least ``TAIL_BEYOND`` jobs beyond it.

    Under ``2 * TAIL_BEYOND`` jobs no such percentile exists and the
    maximum is reported, as percentile 100 with no job beyond it.
    """
    n = len(ranked)
    if n < 2 * TAIL_BEYOND:
        return ranked[-1][1], 100.0, 0
    k = n - TAIL_BEYOND
    return ranked[k - 1][1], 100.0 * k / n, TAIL_BEYOND


# -- measurement -----------------------------------------------------------------

#: At most this many back-to-back runs of one job per pass.
REPEAT_MAX = 25
#: Seconds one reference probe takes on the host this benchmark was tuned on.
REF_NOMINAL_S = 0.002
#: Interval of the timer signal that runs a reference probe.
SAMPLE_EVERY_S = 0.25
#: A short job is scaled by the probes within this many seconds of it.
SAMPLE_WINDOW_S = 0.5


def reference_work() -> int:
    """Fixed pure-Python work shaped like sgn's hot paths and sharing no code
    with it: fraction-free elimination with growing integers, then sorted edge
    tuples, relabeled induced subgraphs and adjacency dicts."""
    n = 14
    m = [[(i * 7 + j * 13) % 5 - 2 for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = m[i][j] * m[c][c] - m[i][c] * m[c][j]
            m[i][c] = 0
        prev = m[c][c]
    rng = random.Random(7)
    total = prev.bit_length()
    for _ in range(3):
        n = 40
        pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(80))
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        for drop in range(0, n, 4):
            keep = [v for v in range(n) if v % 4 != drop % 4 or v < drop]
            back = {old: new for new, old in enumerate(keep)}
            sub = tuple(sorted((back[u], back[v], 1) for u, v in edges if u in back and v in back))
            adj = [{} for _ in keep]
            for u, v, s in sub:
                adj[u][v] = s
                adj[v][u] = s
            total += len(sub)
    return total


def probe() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class HostSpeed:
    """Samples the host's speed while jobs run, without a thread.

    Other tenants share the host's cores, and its speed drifts by up to half
    over minutes.  While active, a timer signal runs one reference probe
    every ``SAMPLE_EVERY_S``, inside whatever job is running.  ``busy`` gives
    the probe time to subtract from a job's time; ``scale`` turns a job's time
    into units of ``REF_NOMINAL_S``, using the median probe during the job,
    or within ``SAMPLE_WINDOW_S`` of a short job.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_work()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the probes took between ``t0`` and ``t1``."""
        return sum(self.took[bisect_left(self.at, t0):bisect_right(self.at, t1)])

    def scale(self, t0: float, t1: float) -> float:
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        if hi - lo < 3:
            lo = bisect_left(self.at, t0 - SAMPLE_WINDOW_S)
            hi = bisect_right(self.at, t1 + SAMPLE_WINDOW_S)
        near = self.took[lo:hi] or self.took[max(0, lo - 1):lo + 1]
        return REF_NOMINAL_S / statistics.median(near)


class Measurement:
    """Per-job latencies of every pass, answer digests and failures.

    Latencies are scaled by ``HostSpeed``; the raw times are kept beside them.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.latencies: list[list[float]] = [[] for _ in jobs]
        self.raw_latencies: list[list[float]] = [[] for _ in jobs]
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.probes: list[float] = []
        self.probe_in_jobs_s = 0.0
        self.digests: list = [None] * len(jobs)
        self.errors: dict[int, str] = {}
        self.wrong: set[int] = set()
        self.unstable: set[int] = set()

    @property
    def passes(self) -> int:
        return len(self.walls)

    def job_failed(self, i: int) -> bool:
        return i in self.errors or i in self.wrong

    def failed_runs(self) -> int:
        return sum(self.passes for i in range(len(self.jobs)) if self.job_failed(i))

    def ranked(self, raw: bool = False):
        table = self.raw_latencies if raw else self.latencies
        lat = [statistics.median(xs) for xs in table]
        return rank_jobs(lat, [self.job_failed(i) for i in range(len(lat))])


def run_job(wl, job, repeat_below_s: float, host: HostSpeed):
    """Time one job: back-to-back runs until they add up to ``repeat_below_s``
    (at most ``REPEAT_MAX``), each less the probes that interrupted it.

    Returns the median time, the first run's output and the name of the
    exception that ended it, if any.
    """
    times = []
    first = None
    while True:
        t0 = perf_counter()
        try:
            out = wl.run(job)
        except Exception as exc:
            t1 = perf_counter()
            return t1 - t0 - host.busy(t0, t1), None, type(exc).__name__
        t1 = perf_counter()
        times.append(t1 - t0 - host.busy(t0, t1))
        if first is None:
            first = out
        out = None
        if sum(times) >= repeat_below_s or len(times) >= REPEAT_MAX:
            return statistics.median(times), first, None


def measure(wl, jobs, *, seconds: float | None = None, passes: int | None = None,
            tracer=None, reference: Measurement | None = None) -> Measurement:
    """Whole passes over ``jobs`` until ``seconds`` elapse, or ``passes`` of them.

    Answers of the first pass are checked, unless ``reference`` already
    holds checked digests; every later answer must repeat its digest.  A
    traced measurement runs each job once per pass, so that its counts are
    per pass over the job list.
    """
    repeat_below_s = 0.0 if tracer is not None else wl.repeat_below_s
    m = Measurement(jobs)
    if reference is not None:
        m.digests, m.errors, m.wrong = list(reference.digests), dict(reference.errors), set(reference.wrong)
    start = perf_counter()
    while True:
        spans = []
        with HostSpeed() as host:
            for i, job in enumerate(jobs):
                t0 = perf_counter()
                dt, out, err = run_job(wl, job, repeat_below_s, host)
                spans.append((t0, perf_counter()))
                if tracer is not None:
                    tracer.unwind()
                m.raw_latencies[i].append(dt)
                digest = ("error", err) if err else wl.summarize(job, out)
                out = None
                if m.digests[i] is None:
                    m.digests[i] = digest
                    if err:
                        m.errors[i] = err
                    elif not wl.check(job, digest):
                        m.wrong.add(i)
                elif digest != m.digests[i]:
                    m.unstable.add(i)
            time.sleep(SAMPLE_WINDOW_S)
        wall = 0.0
        for i, (t0, t1) in enumerate(spans):
            m.latencies[i].append(m.raw_latencies[i][-1] * host.scale(t0, t1))
            wall += m.latencies[i][-1]
        m.walls.append(wall)
        m.raw_walls.append(sum(m.raw_latencies[i][-1] for i in range(len(jobs))))
        m.probes.extend(host.took)
        m.probe_in_jobs_s += sum(host.busy(t0, t1) for t0, t1 in spans)
        if passes is not None:
            if m.passes >= passes:
                return m
        elif perf_counter() - start >= seconds:
            return m


# -- set-up ------------------------------------------------------------------------


def import_sgn():
    sys.path.insert(0, str(SRC))
    import sgn

    if not Path(sgn.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sgn was imported from {sgn.__file__}, not from {SRC}")
    return sgn


def setup(workload: str, seed: int):
    """Import sgn, build the seeded job list and warm up.

    Returns (raw seconds, scaled seconds, workload, jobs); the scale comes
    from reference probes run right after set-up.
    """
    t0 = perf_counter()
    sgn = import_sgn()
    wl = WORKLOADS[workload](sgn)
    jobs = wl.make_jobs(seed)
    for job in wl.warmup(jobs):
        wl.run(job)
    raw = perf_counter() - t0
    return raw, raw * REF_NOMINAL_S / statistics.median(probe() for _ in range(9)), wl, jobs


def child_setup(workload: str, seed: int) -> tuple[float, float]:
    """(raw, scaled) set-up seconds of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    raw, scaled = json.loads(proc.stdout.strip().splitlines()[-1])
    return raw, scaled


# -- facts and deterministic counts ---------------------------------------------------


def tree_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def package_version(name: str) -> str:
    try:
        return __import__(name).__version__
    except ImportError:
        return "absent"


def counts_repeat(workload: str, seed: int, code: str, counts: dict) -> bool:
    """Counts must equal those of an earlier run with the same seed and the
    same program and benchmark code."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts_{workload}_{seed}_{code[:16]}.json"
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


# -- metrics ----------------------------------------------------------------------------


def end_to_end(m: Measurement, setup_s: float, raw: bool = False) -> dict:
    ranked = m.ranked(raw)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(m.raw_walls if raw else m.walls),
        "job_p50_ms": p50(ranked) * 1e3,
        "job_tail_ms": tail(ranked)[0] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: tracing.Tracer, traced: Measurement, untraced: Measurement, counts: dict) -> dict:
    """Per-layer metrics per pass over the job list."""
    passes = traced.passes
    values: dict[str, float] = {}
    for name, unit in per_layer_units().items():
        if name in counts:
            values[name] = counts[name]
        elif name.endswith(".errors"):
            values[name] = tracer.errors.get(name[: -len(".errors")], 0) / passes
        elif unit != "ratio":
            # "<span>.calls|self_s[.<bucket>]" names span "<span>[.<bucket>]"
            kind = ".self_s" if ".self_s" in name else ".calls"
            span, _, bucket = name.partition(kind)
            table = tracer.self_s if kind == ".self_s" else tracer.calls
            values[name] = table.get(span + bucket, 0) / passes
    attempts = tracer.calls.get("reduction.cutpoint", 0)
    hits = tracer.hits.get("reduction.cutpoint", 0)
    values["reduction.cutpoint.attempts"] = attempts / passes
    values["reduction.cutpoint.hits"] = hits / passes
    values["reduction.cutpoint.hit_ratio"] = hits / attempts if attempts else 0.0
    values.setdefault("reduction.fallback_frac", 0.0)
    values["trace.overhead_frac"] = statistics.median(traced.walls) / statistics.median(untraced.walls) - 1
    values["trace.coverage_frac"] = tracer.top_s / (sum(traced.raw_walls) + traced.probe_in_jobs_s)
    return values


# -- main ----------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    setup_raw, setup_s, wl, jobs = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps([setup_raw, setup_s]))
        return 0
    originals = tracing.bindings()

    untraced = measure(wl, jobs, seconds=args.seconds)
    tracing.assert_unpatched(originals)
    runs = [untraced]
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced = measure(wl, jobs, passes=untraced.passes, tracer=tracer, reference=untraced)
        tracing.assert_unpatched(originals)
        runs.append(traced)
    final = runs[-1]

    counts = wl.counts(jobs, untraced.digests)
    repeat = counts_repeat(args.workload, args.seed, tree_digest(SRC, HERE), counts)
    _, tail_pct, tail_beyond = tail(final.ranked())
    attempted = sum(len(jobs) * r.passes for r in runs)
    failed = sum(r.failed_runs() for r in runs)
    unstable = set().union(*(r.unstable for r in runs))
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "networkx": package_version("networkx"),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
        "jobs": len(jobs),
        "passes": final.passes,
        "tail_percentile": round(tail_pct, 4),
        "tail_jobs_beyond": tail_beyond,
        "fail_frac": failed / attempted,
        "failed_jobs": {jobs[i].label: err for i, err in sorted(final.errors.items())},
        "wrong_jobs": [jobs[i].label for i in sorted(final.wrong)],
        "unstable_jobs": [jobs[i].label for i in sorted(unstable)],
        "counts": counts,
        "counts_repeat": repeat,
        "reference_probe_s": statistics.median(final.probes),
    }
    if args.workload == "verify":
        facts["sweep_s"] = {
            job.label: statistics.median(xs)
            for job, xs in zip(jobs, final.latencies) if job.label in HEAVY_SWEEPS
        }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans_{args.workload}_{args.seed}.jsonl"
        tracer.write(spans)
        facts.update(spans_file=str(spans.relative_to(ROOT)), spans_kept=len(tracer.records),
                     spans_dropped=tracer.dropped)
        values = per_layer(tracer, traced, untraced, counts)
        units = per_layer_units()
    else:
        setups = [(setup_raw, setup_s)] + [child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        values = end_to_end(untraced, statistics.median(scaled for _, scaled in setups))
        facts["raw"] = end_to_end(untraced, statistics.median(raw for raw, _ in setups), raw=True)
        units = END_TO_END_UNITS
    correct = not (final.wrong or unstable) and repeat
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
