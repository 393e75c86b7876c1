"""Theorem-verification sweeps with machine-readable reports.

Every sweep cross-checks a formula, construction, or reduction rule against
the exact rank/charpoly oracles over a documented parameter grid, and
returns a VerificationReport whose failure records embed full edge lists so
each counterexample is replayable.  Runs are deterministic: enumeration
orders are fixed and all randomness is seeded.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from . import figures
from .enumeration import (
    bicyclic_graphs_labeled,
    connected_graphs_labeled,
    force_unbalanced,
    iter_signed_corpus,
    random_signed_graph,
    random_switching,
    random_tree_attached_bicyclic,
    signed_graphs_mod_switching,
    switching_class_signs,
)
from .families import bicyclic_class, gen_cycle, gen_figure, gen_infinity, gen_path, realize_nullity
from .formulas import (
    InfinitySpec,
    is_max_nullity_extremal,
    nullity_cycle,
    nullity_infinity,
    nullity_path,
    upper_bound,
)
from .graph import SignedGraph, components, cut_points, delete_vertices, is_balanced, pendant_pairs, switch
from .linalg import _charpoly_rows, adjacency_matrix, char_poly, nullity_rank
from .reduction import _cutpoint_parts

DEFAULT_SEED = 20260811


@dataclass
class VerificationReport:
    """Outcome of one theorem sweep."""

    theorem_id: str
    parameter_grid: str
    cases_checked: int
    failures: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        # elapsed is deliberately excluded: reports must be byte-identical
        # across runs with identical inputs
        return {
            "theorem": self.theorem_id,
            "grid": self.parameter_grid,
            "cases": self.cases_checked,
            "failures": len(self.failures),
            "status": "pass" if self.passed else "fail",
        }

    def json_lines(self) -> str:
        # failures sorted by their serialized form so report bytes do not
        # depend on sweep execution order
        lines = sorted(json.dumps(f, sort_keys=True) for f in self.failures)
        lines.append(json.dumps(self.summary(), sort_keys=True))
        return "\n".join(lines) + "\n"


def _edge_list(g: SignedGraph) -> list[list[int]]:
    return [[u, v, s] for u, v, s in g.edges]


def _run(theorem_id: str, grid: str, cases) -> VerificationReport:
    """Drive one sweep.  ``cases`` yields once per checked case: None when
    the case passes, its failure record when it fails."""
    t0 = time.perf_counter()
    failures: list[dict] = []
    count = 0
    for failure in cases:
        count += 1
        if failure is not None:
            failures.append(failure)
    return VerificationReport(theorem_id, grid, count, failures, time.perf_counter() - t0)


# -- coefficient theorem ---------------------------------------------------


def verify_cor21(n_max: int = 6, samples: int = 500, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Figure-enumeration coefficients against the exact charpoly.

    Exhaustive over every labeled connected graph on up to ``n_max``
    vertices with one signature per switching class, then ``samples`` random
    signed graphs on 7..10 vertices through the public API.
    """

    def cases():
        for n in range(1, n_max + 1):
            for edges in connected_graphs_labeled(n):
                profile = figures._profile_from(n, edges)
                for signs in switching_class_signs(n, edges):
                    neg = 0
                    rows = [[0] * n for _ in range(n)]
                    for i, (u, v) in enumerate(edges):
                        s = signs[i]
                        rows[u][v] = s
                        rows[v][u] = s
                        if s == -1:
                            neg |= 1 << i
                    got = figures._eval_profile(profile, neg)
                    want = _charpoly_rows(rows)
                    yield None if got == want else dict(
                        case="exhaustive",
                        n=n,
                        edges=[[u, v, s] for (u, v), s in zip(edges, signs)],
                        expected=want,
                        got=got,
                    )
        rng = random.Random(seed)
        for _ in range(samples):
            g = random_signed_graph(rng, rng.randint(7, 10), edge_prob=0.4)
            want = char_poly(adjacency_matrix(g))
            got = figures.char_poly_figures(g)
            yield None if got == want else dict(
                case="random",
                n=g.n,
                edges=_edge_list(g),
                expected=list(want.coeffs),
                got=list(got.coeffs),
            )

    grid = (
        f"all labeled connected graphs n<={n_max} x switching classes; "
        f"{samples} random signed graphs 7<=n<=10 (seed {seed})"
    )
    return _run("cor2.1", grid, cases())


# -- path / cycle closed forms ----------------------------------------------


def verify_thm22(n_max: int = 20) -> VerificationReport:
    def cases():
        for n in range(3, n_max + 1):
            for s in (0, 1):
                want = nullity_rank(gen_cycle(n, s))
                got = nullity_cycle(n, s)
                yield None if got == want else dict(n=n, s=s, expected=want, got=got)

    return _run("thm2.2", f"cycles n in [3,{n_max}], s in {{0,1}}", cases())


def verify_prop21(n_max: int = 20) -> VerificationReport:
    def cases():
        for n in range(1, n_max + 1):
            want = nullity_rank(gen_path(n))
            got = nullity_path(n)
            yield None if got == want else dict(n=n, expected=want, got=got)

    return _run("prop2.1", f"paths n in [1,{n_max}]", cases())


# -- component additivity ----------------------------------------------------


def verify_lem31(samples: int = 500, seed: int = DEFAULT_SEED) -> VerificationReport:
    def cases():
        rng = random.Random(seed)
        for _ in range(samples):
            g = random_signed_graph(rng, rng.randint(2, 10), edge_prob=0.25)
            whole = nullity_rank(g)
            split = sum(nullity_rank(comp) for comp, _ in components(g))
            yield None if whole == split else dict(n=g.n, edges=_edge_list(g), expected=whole, got=split)

    grid = f"{samples} random signed graphs n<=10, possibly disconnected (seed {seed})"
    return _run("lem3.1", grid, cases())


# -- cut-point rules and the pendant lemma -----------------------------------


def _cutpoint_cases(n_max: int, rule):
    """Outer loop shared by the two cut-point rules.

    For every cut-point v of every corpus graph G with at least 3 vertices,
    ``rule(g, parts)`` yields ``(index, predicted eta(G))`` for each
    component of G - v that satisfies the rule's hypothesis; ``parts`` is
    the structural engine's decomposition of G at v.
    """
    for g in iter_signed_corpus(n_max):
        if g.n < 3:
            continue
        cpts = cut_points(g)
        if not cpts:
            continue
        eta_g = nullity_rank(g)
        for v in sorted(cpts):
            for idx, want in rule(g, _cutpoint_parts(g, v)):
                yield None if eta_g == want else dict(
                    n=g.n,
                    edges=_edge_list(g),
                    cut_point=v,
                    component=idx,
                    expected=want,
                    got=eta_g,
                )


def verify_thm31(n_max: int = 7) -> VerificationReport:
    """Decrement rule: wherever eta(G_i) = eta(G_i + v) + 1 at a cut-point v,
    eta(G) = sum eta(G_j) - 1, over the exhaustive n <= n_max corpus."""

    def decrement(g, parts):
        etas = [nullity_rank(comp) for comp, _, _ in parts]
        for idx, (_, _, plus_v) in enumerate(parts):
            if etas[idx] == nullity_rank(plus_v) + 1:
                yield idx, sum(etas) - 1

    grid = f"iso-class connected corpus n<={n_max} x switching classes, all qualifying (g, v, component) triples"
    return _run("thm3.1", grid, _cutpoint_cases(n_max, decrement))


def verify_thm32(n_max: int = 7) -> VerificationReport:
    """Split rule: wherever eta(G_i) = eta(G_i + v) - 1 at a cut-point v,
    eta(G) = eta(G_i) + eta(G - G_i), over the exhaustive n <= n_max corpus."""

    def split(g, parts):
        for idx, (comp, original, plus_v) in enumerate(parts):
            if nullity_rank(comp) == nullity_rank(plus_v) - 1:
                rest, _ = delete_vertices(g, original)
                yield idx, nullity_rank(comp) + nullity_rank(rest)

    grid = f"iso-class connected corpus n<={n_max} x switching classes, all qualifying (g, v, component) triples"
    return _run("thm3.2", grid, _cutpoint_cases(n_max, split))


def verify_pendant(n_max: int = 7) -> VerificationReport:
    """Deleting any pendant vertex together with its neighbor keeps the
    nullity, over the exhaustive n <= n_max corpus."""

    def cases():
        for g in iter_signed_corpus(n_max):
            pairs = pendant_pairs(g)
            if not pairs:
                continue
            eta_g = nullity_rank(g)
            for v, u in pairs:
                reduced, _ = delete_vertices(g, (v, u))
                got = nullity_rank(reduced)
                yield None if got == eta_g else dict(
                    n=g.n,
                    edges=_edge_list(g),
                    pendant=v,
                    neighbor=u,
                    expected=eta_g,
                    got=got,
                )

    grid = f"iso-class connected corpus n<={n_max} x switching classes, every pendant pair"
    return _run("pendant", grid, cases())


# -- infinity-graph formula ---------------------------------------------------


def verify_thm41(p_max: int = 8, l_max: int = 5) -> VerificationReport:
    """Infinity-graph nullity formula against the rank oracle on the full
    grid p, q in [3, p_max], l in [1, l_max], sign parities in {0, 1}."""

    def cases():
        for p in range(3, p_max + 1):
            for q in range(3, p_max + 1):
                for l in range(1, l_max + 1):
                    for sp in (0, 1):
                        for sq in (0, 1):
                            g = gen_infinity(p, q, l, sp, sq)
                            oracle = nullity_rank(g)
                            result = nullity_infinity(InfinitySpec(p, q, l, sp, sq), resolve=False)
                            if result.is_exact:
                                yield None if result.value == oracle else dict(
                                    p=p, q=q, l=l, sp=sp, sq=sq,
                                    branch="exact",
                                    expected=oracle,
                                    got=result.value,
                                )
                            else:
                                yield None if oracle >= result.lower_bound else dict(
                                    p=p, q=q, l=l, sp=sp, sq=sq,
                                    branch="lower-bound",
                                    expected=f">={result.lower_bound}",
                                    got=oracle,
                                )

    return _run("thm4.1", f"p,q in [3,{p_max}], l in [1,{l_max}], sp,sq in {{0,1}}", cases())


# -- bowtie balanceness lemma -------------------------------------------------


def verify_lem51(samples: int = 25, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Bowtie nullity by triangle balanceness: 0 when the two triangles have
    equal balanceness, 1 otherwise; invariant under random switchings."""

    def cases():
        rng = random.Random(seed)
        for sp in (0, 1):
            for sq in (0, 1):
                base = gen_figure("H13", sp=sp, sq=sq)
                expected = 0 if sp == sq else 1
                variants = [base] + [
                    switch(base, random_switching(rng, base.n)) for _ in range(samples)
                ]
                for g in variants:
                    got = nullity_rank(g)
                    yield None if got == expected else dict(
                        sp=sp, sq=sq,
                        edges=_edge_list(g),
                        expected=expected,
                        got=got,
                    )

    grid = f"triangle parities {{0,1}}^2, each with {samples} random switchings (seed {seed})"
    return _run("lem5.1", grid, cases())


# -- unbalanced bicyclic maximum ----------------------------------------------


def verify_lem52(n_max: int = 6) -> VerificationReport:
    """eta <= n - 3 for every unbalanced bicyclic signed graph with n <= n_max,
    with equality exactly for the both-triangles-unbalanced diamond."""

    def cases():
        for n in range(4, n_max + 1):
            for edges in bicyclic_graphs_labeled(n):
                for g in signed_graphs_mod_switching(n, edges):
                    balanced, _ = is_balanced(g)
                    if balanced:
                        continue
                    eta = nullity_rank(g)
                    extremal = is_max_nullity_extremal(g)
                    if eta > n - 3:
                        yield dict(n=n, edges=_edge_list(g), kind="bound",
                                   expected=f"<={n - 3}", got=eta)
                    elif (eta == n - 3) != extremal:
                        yield dict(n=n, edges=_edge_list(g), kind="equality",
                                   expected=f"equality iff extremal diamond", got=eta)
                    else:
                        yield None

    grid = f"all labeled connected bicyclic graphs n in [4,{n_max}] x unbalanced switching classes"
    return _run("lem5.2", grid, cases())


# -- sampled upper bounds -------------------------------------------------------


def _verify_bounds(theorem_id, kind, class_name, n_lo, n_hi, samples, seed, unbalanced_only):
    def cases():
        rng = random.Random(seed)
        for _ in range(samples):
            n = rng.randint(n_lo, n_hi)
            g = random_tree_attached_bicyclic(rng, n, kind)
            if unbalanced_only:
                g = force_unbalanced(rng, g)
            bound = upper_bound(class_name, n)
            eta = nullity_rank(g)
            yield None if eta <= bound else dict(n=n, edges=_edge_list(g), expected=f"<={bound}", got=eta)

    grid = f"{samples} random {kind} tree-attached graphs, n in [{n_lo},{n_hi}] (seed {seed})"
    return _run(theorem_id, grid, cases())


def verify_bounds_bplus(samples: int = 6000, seed: int = DEFAULT_SEED) -> VerificationReport:
    return _verify_bounds("bounds.bplus", "BPlus", "BPlus", 7, 9, samples, seed, False)


def verify_bounds_bplusplus(samples: int = 5000, seed: int = DEFAULT_SEED) -> VerificationReport:
    return _verify_bounds("bounds.bplusplus", "BPlusPlus", "BPlusPlus", 8, 9, samples, seed, False)


def verify_bounds_theta(samples: int = 5000, seed: int = DEFAULT_SEED) -> VerificationReport:
    return _verify_bounds("bounds.theta", "Theta", "ThetaUnbalanced", 5, 9, samples, seed, True)


# -- nullity sets ----------------------------------------------------------------


def _verify_set(theorem_id, class_name, n_lo, n_hi, k_offset):
    def cases():
        for n in range(n_lo, n_hi + 1):
            for k in range(0, n - k_offset + 1):
                try:
                    g = realize_nullity(class_name, n, k)
                except Exception as exc:  # construction failure is a counterexample
                    yield dict(n=n, k=k, kind="construction", got=repr(exc))
                    continue
                eta = nullity_rank(g)
                balanced, _ = is_balanced(g)
                cls = bicyclic_class(g)
                if eta != k or balanced or cls != class_name:
                    yield dict(
                        n=n, k=k,
                        edges=_edge_list(g),
                        kind="witness",
                        expected={"eta": k, "balanced": False, "class": class_name},
                        got={"eta": eta, "balanced": balanced, "class": cls},
                    )
                else:
                    yield None

    return _run(theorem_id, f"{class_name}: n in [{n_lo},{n_hi}], k in [0, n-{k_offset}]", cases())


def verify_set_bplus(n_lo: int = 8, n_hi: int = 12) -> VerificationReport:
    return _verify_set("set.bplus", "BPlus", n_lo, n_hi, 6)


def verify_set_bplusplus(n_lo: int = 8, n_hi: int = 12) -> VerificationReport:
    return _verify_set("set.bplusplus", "BPlusPlus", n_lo, n_hi, 6)


def verify_set_theta(n_lo: int = 6, n_hi: int = 12) -> VerificationReport:
    return _verify_set("set.theta", "Theta", n_lo, n_hi, 4)


def verify_set_bicyclic(n_lo: int = 8, n_hi: int = 12) -> VerificationReport:
    """Every k in [0, n-4] is attained by an unbalanced bicyclic signed graph."""

    def cases():
        for n in range(n_lo, n_hi + 1):
            for k in range(0, n - 4 + 1):
                g = realize_nullity("Theta", n, k)
                eta = nullity_rank(g)
                balanced, _ = is_balanced(g)
                ok = eta == k and not balanced and g.m == g.n + 1
                yield None if ok else dict(n=n, k=k, edges=_edge_list(g), expected=k, got=eta)

    return _run("set.bicyclic", f"n in [{n_lo},{n_hi}], k in [0, n-4] via theta realizers", cases())


# -- registry --------------------------------------------------------------------

_REGISTRY = {
    "cor2.1": (verify_cor21, ("n_max", "samples", "seed")),
    "thm2.2": (verify_thm22, ("n_max",)),
    "prop2.1": (verify_prop21, ("n_max",)),
    "lem3.1": (verify_lem31, ("samples", "seed")),
    "thm3.1": (verify_thm31, ("n_max",)),
    "thm3.2": (verify_thm32, ("n_max",)),
    "pendant": (verify_pendant, ("n_max",)),
    "thm4.1": (verify_thm41, ()),
    "lem5.1": (verify_lem51, ("samples", "seed")),
    "lem5.2": (verify_lem52, ("n_max",)),
    "bounds.bplus": (verify_bounds_bplus, ("samples", "seed")),
    "bounds.bplusplus": (verify_bounds_bplusplus, ("samples", "seed")),
    "bounds.theta": (verify_bounds_theta, ("samples", "seed")),
    "set.bplus": (verify_set_bplus, ("n_lo", "n_hi")),
    "set.bplusplus": (verify_set_bplusplus, ("n_lo", "n_hi")),
    "set.theta": (verify_set_theta, ("n_lo", "n_hi")),
    "set.bicyclic": (verify_set_bicyclic, ("n_lo", "n_hi")),
}

THEOREM_IDS = tuple(sorted(_REGISTRY))


def verify_theorem(theorem_id: str, **options) -> VerificationReport:
    """Run one registered sweep.  Unknown options for that sweep are rejected."""
    try:
        fn, accepted = _REGISTRY[theorem_id]
    except KeyError:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    kwargs = {k: v for k, v in options.items() if v is not None}
    unknown = set(kwargs) - set(accepted)
    if unknown:
        raise ValueError(
            f"theorem {theorem_id} does not accept options {sorted(unknown)}"
        )
    return fn(**kwargs)
