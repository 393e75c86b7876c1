"""Seeded job lists, timed job bodies and answer checks for the workloads.

Each workload builds its inputs from the benchmark seed alone; the program
under test only sees the generated graphs.  Every answer is checked outside
the timed region by a rule that does not depend on the seed and never re-runs
the route that produced it.

A workload object offers:

* ``make_jobs(seed)``: the fixed job list (same seed, same list);
* ``warmup(jobs)``: the jobs run once during set-up, untimed;
* ``run(job)``: the timed body, calling only ``sgn``'s public functions
  through the package namespace, so a traced run can rebind them;
* ``repeat_below_s``: a job shorter than this runs back to back until its
  runs add up to it, and its time is their median, so that a single host
  hiccup does not decide a short job's time;
* ``summarize(job, out)``: a small hashable digest of the answer and of the
  deterministic counts read from the returned objects;
* ``check(job, digest)``: the seed-independent correctness rule;
* ``counts(jobs, digests)``: deterministic counts over the job list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    label: str
    data: object
    expected: object = None


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v} {s}\n" for u, v, s in edges)


def _trace_counts(trace) -> tuple[int, int, int]:
    """(rank-oracle base cases, steps, vertices held in step snapshots)."""
    fallbacks = steps = snapshot = 0
    for step in trace.steps:
        steps += 1
        snapshot += step.before.n + sum(h.n for h in step.after)
        if step.method == "RankOracle":
            fallbacks += 1
    return fallbacks, steps, snapshot


def _reduction_counts(digests) -> dict:
    graphs = fallbacks = steps = snapshot = 0
    for d in digests:
        if d[0] == "error":
            continue
        graphs += 1
        fallbacks += d[-3]
        steps += d[-2]
        snapshot += d[-1]
    return {
        "reduction.graphs": graphs,
        "reduction.oracle_fallbacks": fallbacks,
        "reduction.fallback_frac": fallbacks / graphs if graphs else 0.0,
        "reduction.trace.steps": steps,
        "reduction.trace.snapshot_vertices": snapshot,
    }


# -- corpus ------------------------------------------------------------------

#: Signed graphs in the n <= 7 corpus: connected iso classes x switching classes.
CORPUS_SIZE = 197_349


class Corpus:
    """A uniform sample of the n <= 7 corpus; each job runs all three routes
    plus certificate replay on one tiny graph, so per-call overhead in
    ``linalg`` and ``reduction`` dominates."""

    name = "corpus"
    sample = 10_000
    repeat_below_s = 0.0

    def __init__(self, sgn):
        self.sgn = sgn

    def make_jobs(self, seed: int) -> list[Job]:
        from sgn import enumeration

        reps = enumeration.connected_graphs_upto_iso(7)
        # a connected graph has 2^(m - n + 1) switching classes
        sizes = [1 << (len(edges) - n + 1) for n, edges in reps]
        if sum(sizes) != CORPUS_SIZE:
            raise RuntimeError(f"corpus has {sum(sizes)} graphs, expected {CORPUS_SIZE}")
        picks = sorted(random.Random(seed).sample(range(CORPUS_SIZE), self.sample))
        jobs = []
        base = j = 0
        for (n, edges), size in zip(reps, sizes):
            wanted = set()
            while j < len(picks) and picks[j] < base + size:
                wanted.add(picks[j] - base)
                j += 1
            if wanted:
                last = max(wanted)
                for k, signs in enumerate(enumeration.switching_class_signs(n, edges)):
                    if k in wanted:
                        g = self.sgn.SignedGraph(n, [(u, v, s) for (u, v), s in zip(edges, signs)])
                        jobs.append(Job(f"corpus#{base + k}", g))
                        if k == last:
                            break
            base += size
        return jobs

    def warmup(self, jobs):
        return jobs[-200:]

    def run(self, job):
        sgn = self.sgn
        g = job.data
        r = sgn.nullity_rank(g)
        c = sgn.nullity_charpoly(g)
        s, trace = sgn.nullity_structural(g)
        return r, c, s, trace.replay(), trace

    def summarize(self, job, out):
        r, c, s, p, trace = out
        return (r, c, s, p) + _trace_counts(trace)

    def check(self, job, digest) -> bool:
        r, c, s, p = digest[:4]
        return r == c == s == p

    def counts(self, jobs, digests) -> dict:
        return _reduction_counts(digests)


# -- verify ------------------------------------------------------------------

#: Case counts each sweep must report at the grids below, for any seed.
VERIFY_CASES = {
    "bounds.bplus": 6000,
    "bounds.bplusplus": 5000,
    "bounds.theta": 5000,
    "cor2.1": 4038,
    "lem3.1": 500,
    "lem5.1": 104,
    "lem5.2": 17733,
    "pendant": 11986,
    "prop2.1": 20,
    "set.bicyclic": 35,
    "set.bplus": 25,
    "set.bplusplus": 25,
    "set.theta": 42,
    "thm2.2": 36,
    "thm3.1": 15128,
    "thm3.2": 2122,
    "thm4.1": 720,
}
#: Sweeps that sample at random take the benchmark seed.
SEEDED_SWEEPS = frozenset({"cor2.1", "lem3.1", "lem5.1", "bounds.bplus", "bounds.bplusplus", "bounds.theta"})
#: The labeled n <= 6 default grid of cor2.1 alone takes about 50 s.
COR21_N_MAX = 5
#: The sweeps reported one by one as ``sweep_s.<id>``.
HEAVY_SWEEPS = ("thm3.1", "thm3.2", "pendant", "cor2.1", "lem5.2")


class Verify:
    """Every registered sweep through ``verify_theorem``: the command that
    reproduces the paper, dominated by corpus rebuilds and small Bareiss
    calls, and the only heavy user of ``figures``."""

    name = "verify"
    repeat_below_s = 1.0

    def __init__(self, sgn):
        self.sgn = sgn

    def make_jobs(self, seed: int) -> list[Job]:
        jobs = []
        for tid in sorted(VERIFY_CASES):
            options = {"seed": seed} if tid in SEEDED_SWEEPS else {}
            if tid == "cor2.1":
                options["n_max"] = COR21_N_MAX
            jobs.append(Job(tid, (tid, options), VERIFY_CASES[tid]))
        return jobs

    def warmup(self, jobs):
        return [job for job in jobs if job.label == "prop2.1"]

    def run(self, job):
        tid, options = job.data
        return self.sgn.verify_theorem(tid, **options)

    def summarize(self, job, report):
        return (report.passed, report.cases_checked, len(report.failures))

    def check(self, job, digest) -> bool:
        passed, cases, _ = digest
        return passed and cases == job.expected

    def counts(self, jobs, digests) -> dict:
        return {f"verify.{job.label}.cases": 0 if d[0] == "error" else d[1] for job, d in zip(jobs, digests)}


# -- dense -------------------------------------------------------------------

#: (route, total vertex count, jobs).  Rank and charpoly each take about half
#: of ``wall_s``; the charpoly sizes stop at 90 because it is O(n^4).  The
#: counts put ``job_p50_ms`` inside the charpoly n=30 block and
#: ``job_tail_ms`` inside the rank n=120 block, away from block edges.
DENSE_MIX = (
    ("rank", 60, 8),
    ("charpoly", 30, 24),
    ("rank", 120, 8),
    ("charpoly", 60, 2),
    ("rank", 200, 3),
    ("charpoly", 90, 1),
)
DENSE_EDGE_PROB = 0.3
DENSE_MAX_TWINS = 4
#: Prime for the set-up certificate; products of two residues fit in int64.
CERT_PRIME = 2_147_483_647


def _is_prime(n: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 is exact below 3 215 031 751
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(limit: int, count: int) -> tuple[int, ...]:
    out = []
    n = limit - 1
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n -= 2
    return tuple(out)


#: Primes between 2^30 and 2^31.
PRIMES = _primes_below(CERT_PRIME + 1, 64)


def rank_mod_p(rows, p: int = CERT_PRIME) -> int:
    """Rank of an integer matrix over GF(p), by numpy Gaussian elimination.

    The rational rank is at least the rank mod p, so full rank mod p proves
    the matrix nonsingular over the rationals.
    """
    import numpy as np

    a = np.array(rows, dtype=np.int64) % p
    nr, nc = a.shape
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[r + 1:, c].copy()
        a[r + 1:] = (a[r + 1:] - np.outer(col, a[r]) % p) % p
        r += 1
    return r


def exact_rank(rows) -> int:
    """Rational rank of a {-1, 0, 1} matrix as the largest rank modulo enough primes.

    A nonzero r x r minor is at most the Hadamard bound, the product of the
    row norms sqrt(nonzeros), in absolute value.  The primes used exceed
    2^30 and their product exceeds that bound, so they cannot all divide the
    minor: one of them keeps the full rational rank.
    """
    bits = sum(math.log2(max(1, sum(1 for x in row if x))) / 2 for row in rows)
    need = int(bits // 30) + 1
    if need > len(PRIMES):
        raise ValueError(f"matrix needs {need} primes, only {len(PRIMES)} are listed")
    return max(rank_mod_p(rows, p) for p in PRIMES[:need])


def twin_graph(rng: random.Random, n: int, k: int):
    """A random signed graph on n vertices with nullity exactly k.

    A nonsingular core on n - k vertices (certified mod a prime) gets k twin
    vertices; a twin copies the current signed neighbourhood of a vertex, so
    its adjacency row repeats that vertex's row and adds exactly 1 to the
    nullity.  Labels are then shuffled.  Returns the edge list.
    """
    m = n - k
    while True:
        adj = [dict() for _ in range(m)]
        for u in range(m):
            for v in range(u + 1, m):
                if rng.random() < DENSE_EDGE_PROB:
                    s = rng.choice((1, -1))
                    adj[u][v] = adj[v][u] = s
        rows = [[adj[u].get(v, 0) for v in range(m)] for u in range(m)]
        if rank_mod_p(rows) == m:
            break
    for _ in range(k):
        v = rng.randrange(len(adj))
        twin = len(adj)
        adj.append(dict(adj[v]))
        for w, s in adj[v].items():
            adj[w][twin] = s
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v]), s)
        for u in range(n) for v, s in adj[u].items() if u < v
    )


class Dense:
    """Random p = 0.3 graphs of known nullity, as edge-list text: parse, then
    one ``linalg`` kernel at scale with growing integers."""

    name = "dense"
    repeat_below_s = 0.1

    def __init__(self, sgn):
        self.sgn = sgn

    def make_jobs(self, seed: int) -> list[Job]:
        rng = random.Random(seed)
        jobs = []
        for route, n, count in DENSE_MIX:
            for _ in range(count):
                k = rng.randint(1, DENSE_MAX_TWINS)
                text = edge_list_text(n, twin_graph(rng, n, k))
                jobs.append(Job(f"{route} n={n}", (route, text), k))
        return jobs

    def warmup(self, jobs):
        return [jobs[0], next(j for j in jobs if j.data[0] == "charpoly")]

    def run(self, job):
        route, text = job.data
        g = self.sgn.parse_edge_list(text)
        if route == "rank":
            return self.sgn.nullity_rank(g)
        return self.sgn.nullity_charpoly(g)

    def summarize(self, job, out):
        return (out,)

    def check(self, job, digest) -> bool:
        route, text = job.data
        if digest[0] != job.expected:
            return False
        return route == "rank" or self.sgn.nullity_rank(self.sgn.parse_edge_list(text)) == digest[0]

    def counts(self, jobs, digests) -> dict:
        return {}


# -- sparse ------------------------------------------------------------------

#: Random jobs (trees and tree-attached bicyclics) all have this many vertices;
#: ``job_p50_ms`` falls among them.
SPARSE_N = 300
SPARSE_TREES = 24
#: Tree-attached bicyclics per kind; each grows a random tree on a sampler
#: graph of SPARSE_BASE vertices, so no bare core exceeds SPARSE_BASE.
SPARSE_PER_KIND = 8
SPARSE_BASE = 60
SPARSE_KINDS = ("BPlus", "BPlusPlus", "Theta")
#: Equal paths, all slower than every random job, so that ``job_tail_ms``
#: (the 11th slowest job) lands on one of them.
SPARSE_TAIL_PATHS = 10
SPARSE_TAIL_PATH_N = 600
#: A 1500-vertex path, and a 2000-vertex path, beyond the structural route's
#: default recursion limit: it stays in the mix and counts as a failure until
#: the route handles it.
SPARSE_LONG_PATHS = (1500, 2000)
#: One bare theta core, which the structural route hands to its rank oracle.
SPARSE_THETA_N = 300


def relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), s) for u, v, s in edges)


def random_tree(rng: random.Random, n: int, edges=(), start: int = 1):
    """Grow a random recursive tree: vertex w >= start hangs off a uniform
    earlier vertex.  Signs are uniform."""
    edges = list(edges)
    for w in range(start, n):
        edges.append((rng.randrange(w), w, rng.choice((1, -1))))
    return edges


def strip_pendants(n: int, edges):
    """Delete pendant vertices together with their neighbours until none is
    left; each deletion keeps the nullity.

    Returns the surviving vertices.  On a forest the deleted pairs form a
    maximum matching, so the survivors are isolated and their number is
    n - 2 * matching size, the forest's nullity.
    """
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    alive = [True] * n
    deg = [len(a) for a in adj]
    stack = [v for v in range(n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if not alive[v] or deg[v] != 1:
            continue
        u = next(w for w in adj[v] if alive[w])
        alive[v] = alive[u] = False
        for w in adj[u]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    return [v for v in range(n) if alive[v]]


def nullity_by_stripping(n: int, edges) -> int:
    """Pendant stripping, then the multimodular rank of what is left."""
    alive = set(strip_pendants(n, edges))
    core = sorted({x for u, v, _ in edges if u in alive and v in alive for x in (u, v)})
    index = {v: i for i, v in enumerate(core)}
    rows = [[0] * len(core) for _ in core]
    for u, v, s in edges:
        if u in index and v in index:
            rows[index[u]][index[v]] = rows[index[v]][index[u]] = s
    return len(alive) - (exact_rank(rows) if core else 0)


class Sparse:
    """Paths, random trees, tree-attached bicyclics and a bare theta core at
    n = 300..2000, as edge-list text: parse, structural reduction, then
    certificate replay; ``reduction`` and ``graph`` at scale."""

    name = "sparse"
    repeat_below_s = 0.1

    def __init__(self, sgn):
        self.sgn = sgn

    def make_jobs(self, seed: int) -> list[Job]:
        from sgn.enumeration import random_tree_attached_bicyclic

        rng = random.Random(seed)
        specs = []
        for _ in range(SPARSE_TREES):
            specs.append(("tree", SPARSE_N, random_tree(rng, SPARSE_N)))
        for kind in SPARSE_KINDS:
            for _ in range(SPARSE_PER_KIND):
                base = random_tree_attached_bicyclic(rng, SPARSE_BASE, kind)
                specs.append((kind, SPARSE_N, random_tree(rng, SPARSE_N, base.edges, SPARSE_BASE)))
        while True:
            p, q = rng.randint(2, SPARSE_THETA_N), rng.randint(2, SPARSE_THETA_N)
            l = SPARSE_THETA_N + 1 - p - q
            if l >= 2:
                break
        theta = self.sgn.gen_theta(p, q, l)
        specs.append(("theta core", theta.n, [(u, v, rng.choice((1, -1))) for u, v, _ in theta.edges]))
        for n in (SPARSE_TAIL_PATH_N,) * SPARSE_TAIL_PATHS + SPARSE_LONG_PATHS:
            specs.append(("path", n, [(i, i + 1, rng.choice((1, -1))) for i in range(n - 1)]))
        jobs = []
        for kind, n, edges in specs:
            edges = relabel(rng, n, edges)
            jobs.append(Job(f"{kind} n={n}", (kind, n, edges, edge_list_text(n, edges))))
        return jobs

    def warmup(self, jobs):
        return jobs[:2]

    def run(self, job):
        g = self.sgn.parse_edge_list(job.data[3])
        s, trace = self.sgn.nullity_structural(g)
        return s, trace.replay(), trace

    def summarize(self, job, out):
        s, p, trace = out
        return (s, p) + _trace_counts(trace)

    def check(self, job, digest) -> bool:
        kind, n, edges, _ = job.data
        s, p = digest[:2]
        if kind == "path":
            expected = n % 2
        elif kind == "tree":
            expected = len(strip_pendants(n, edges))
        else:
            expected = nullity_by_stripping(n, edges)
        return s == p == expected

    def counts(self, jobs, digests) -> dict:
        return _reduction_counts(digests)


WORKLOADS = {w.name: w for w in (Corpus, Verify, Dense, Sparse)}
