"""Theorem-verification sweeps with machine-readable reports.

Every sweep cross-checks a formula, construction, or reduction rule against
the exact rank/charpoly oracles over a documented parameter grid, and
returns a VerificationReport whose failure records embed full edge lists so
each counterexample is replayable.  Runs are deterministic: enumeration
orders are fixed and all randomness is seeded.

A sweep states its grid and its rule; one driver per kind of check does the
rest.  ``_run`` counts the cases and collects the failures.  ``_outcome``
builds every record of an equality check: the case's parameters, then
``expected`` (the oracle or the theorem's prediction), then ``got``.
``_closed_form`` runs the path, cycle, infinity and theta formulas against
the rank oracle; ``_corpus_cases`` runs the cut-point and pendant rules over
the corpus, ranking each signed graph at most once, when a case reads its
nullity; ``_verify_set`` builds a realizer per (n, k), ranks it and checks
it as a witness, counting a construction error as a failed case;
``set.bicyclic`` checks the theta realizers as witnesses of their class.
The bicyclic bound ``lem5.2`` and the sampled bounds are not equality
checks and write their own records.

``verify_theorem`` is the one boundary that sizes a sweep.  Each registry
row holds a sweep and the largest value of each option that sizes it, and a
larger value is refused there before sweeping, as is a set sweep's n_lo
below its class's least n; no sweep body holds a limit.

The corpus driver does its sign-independent work once per underlying graph:
a plan lists each cut point with the components of G - v (or each pendant
pair), and each part G_i, G_i + v or G - {v, u} as an edge-index map that
every switching class signs from its own sign vector.  Each part memoizes
its nullity by its tuple of edge signs, so a signed part is ranked once per
underlying graph; the memo goes with the plan when the sweep moves to the
next graph, and nothing is kept between sweeps.  The cut at a vertex v
is made in one place, ``_cutpoint_parts``, and ``_rank_differences``
ranks its parts: ``thm3.1`` and ``thm3.2`` read it per switching class,
and ``try_cutpoint_case1/2`` apply the two rules to one signed graph on
request, stopping at the lowest witness G_i.  The bicyclic sweep
``lem5.2`` skips the first switching class, the only balanced one, instead
of testing each class for balance, and tests the rest for the extremal
diamond without re-checking that they are connected, bicyclic and
unbalanced.
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
import time
from dataclasses import dataclass, field

from . import enumeration, figures
from .enumeration import (
    bicyclic_graphs_labeled,
    connected_graphs_labeled,
    force_unbalanced,
    iter_signed_corpus,  # unused; perfbench/tracing.py patches this name
    random_signed_graph,
    random_switching,
    random_tree_attached_bicyclic,
    signed_graphs_mod_switching,
    switching_class_signs,
)
from .families import (
    _REALIZERS,
    bicyclic_class,
    gen_cycle,
    gen_figure,
    gen_infinity,
    gen_path,
    gen_theta,
    realize_nullity,
)
from .formulas import (
    _is_extremal_diamond,
    is_max_nullity_extremal,  # unused; perfbench/tracing.py patches this name
    nullity_cycle,
    nullity_infinity,
    nullity_path,
    nullity_theta,
    upper_bound,
)
from .graph import (
    GraphError,
    SignedGraph,
    _component_vertex_sets,
    _induced_plan,
    _signed_part,
    components,
    cut_points,
    delete_vertices,
    is_balanced,
    pendant_pairs,
    switch,
)
from .linalg import _charpoly_rows, adjacency_matrix, char_poly, nullity_rank

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
        # a sweep that checked nothing (an empty or reversed grid) proves nothing
        return self.cases_checked > 0 and not self.failures

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


def _outcome(fields: dict, expected, got):
    """None when ``got`` equals ``expected``, else the failure record:
    ``fields``, then ``expected``, then ``got``."""
    return None if got == expected else dict(fields, expected=expected, got=got)


def _closed_form(points, build, formula):
    """Cases of a closed form: per parameter dict of ``points``, the rank
    oracle on ``build(**params)`` against ``formula(**params)``."""
    for params in points:
        yield _outcome(params, nullity_rank(build(**params)), formula(**params))


# -- coefficient theorem ---------------------------------------------------


def verify_cor21(n_max: int = 6, samples: int = 500, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Figure-enumeration coefficients against the exact charpoly.

    Exhaustive over every labeled connected graph on up to ``n_max``
    vertices with one signature per switching class, then ``samples``
    random signed graphs on 7..10 vertices through the public API.
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
                    # the hot loop builds the edge list only on a mismatch
                    yield None if got == want else _outcome(
                        dict(case="exhaustive", n=n, edges=[[u, v, s] for (u, v), s in zip(edges, signs)]), want, got
                    )
        rng = random.Random(seed)
        for _ in range(samples):
            g = random_signed_graph(rng, rng.randint(7, 10), edge_prob=0.4)
            want = list(char_poly(adjacency_matrix(g)).coeffs)
            got = list(figures.char_poly_figures(g).coeffs)
            yield None if got == want else _outcome(dict(case="random", n=g.n, edges=_edge_list(g)), want, got)

    grid = (
        f"all labeled connected graphs n<={n_max} x switching classes; "
        f"{samples} random signed graphs 7<=n<=10 (seed {seed})"
    )
    return _run("cor2.1", grid, cases())


# -- path / cycle closed forms ----------------------------------------------


def verify_thm22(n_max: int = 20) -> VerificationReport:
    """Cycle closed form against the rank oracle for n in [3, n_max], both
    parities."""
    points = (dict(n=n, s=s) for n in range(3, n_max + 1) for s in (0, 1))
    return _run("thm2.2", f"cycles n in [3,{n_max}], s in {{0,1}}", _closed_form(points, gen_cycle, nullity_cycle))


def verify_prop21(n_max: int = 20) -> VerificationReport:
    """Path closed form against the rank oracle for n in [1, n_max]."""
    points = (dict(n=n) for n in range(1, n_max + 1))
    return _run("prop2.1", f"paths n in [1,{n_max}]", _closed_form(points, gen_path, nullity_path))


# -- component additivity ----------------------------------------------------


def verify_lem31(samples: int = 500, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Nullity is additive over components, on ``samples`` random signed
    graphs."""

    def cases():
        rng = random.Random(seed)
        for _ in range(samples):
            g = random_signed_graph(rng, rng.randint(2, 10), edge_prob=0.25)
            whole = nullity_rank(g)
            split = sum(nullity_rank(comp) for comp, _ in components(g))
            yield None if split == whole else _outcome(dict(n=g.n, edges=_edge_list(g)), whole, split)

    grid = f"{samples} random signed graphs n<=10, possibly disconnected (seed {seed})"
    return _run("lem3.1", grid, cases())


# -- cut-point rules and the pendant lemma -----------------------------------


def _corpus_by_graph(n_max: int, plan):
    """The signed corpus, walked one underlying graph at a time.

    ``plan(g)`` is computed once per underlying graph, on its all-positive
    signing, and must depend on the underlying graph only (cut points,
    pendant pairs and the parts they cut off do).  That signing is the first
    switching class, so each graph is validated once.  Yields ``(g, signs,
    plan)`` for every switching class of each graph whose plan is non-empty,
    in corpus order, ``signs`` being g's edge signs; graphs with an empty
    plan are signed no further.  A plan, with the ranks its parts memoize,
    is dropped when the walk moves on to the next graph.
    """
    for n, edges in enumeration.connected_graphs_upto_iso(n_max):
        signed = signed_graphs_mod_switching(n, edges)
        positive = next(signed)
        found = plan(positive)
        if found:
            for g in itertools.chain((positive,), signed):
                yield g, [s for _, _, s in g.edges], found


class _Part:
    """An induced subgraph of one underlying graph, ranked once per signing.

    Switching classes of the host that agree on the part's edges sign it
    alike, so its nullity is memoized by the tuple of its edge signs.  Each
    miss calls the module's ``nullity_rank``.
    """

    __slots__ = ("plan", "indices", "etas")

    def __init__(self, g: SignedGraph, keep):
        self.plan = _induced_plan(g, keep)
        self.indices = tuple(i for i, _, _ in self.plan[1])
        self.etas: dict[tuple[int, ...], int] = {}

    def graph(self, signs) -> SignedGraph:
        """The part signed by the host's edge signs ``signs``."""
        return _signed_part(self.plan, [signs[i] for i in self.indices])

    def nullity(self, signs) -> int:
        key = tuple([signs[i] for i in self.indices])
        eta = self.etas.get(key)
        if eta is None:
            eta = self.etas[key] = nullity_rank(_signed_part(self.plan, key))
        return eta


def _cutpoint_parts(g: SignedGraph, v: int):
    """Per component G_i of G - v, ordered by smallest label: its original
    labels and the parts G_i and G_i + v.  ``v`` must be a cut point."""
    return [
        (tuple(comp), _Part(g, comp), _Part(g, sorted((*comp, v))))
        for comp in _component_vertex_sets(g, skip=v)
    ]


def _cutpoint_plan(g: SignedGraph):
    """Per cut point v, ascending: v and ``_cutpoint_parts(g, v)``."""
    return [(v, _cutpoint_parts(g, v)) for v in sorted(cut_points(g))]


def _rank_differences(parts, signs):
    """(eta(G_i), eta(G_i) - eta(G_i + v)) per part, ranked lazily.  A
    difference of +1 is the decrement rule's hypothesis, -1 the split
    rule's; neither has a known syntactic criterion, so both are ranked."""
    for _, comp, plus_v in parts:
        eta_i = comp.nullity(signs)
        yield eta_i, eta_i - plus_v.nullity(signs)


def _corpus_cases(n_max: int, plan, check):
    """Cases of a rule over the corpus: for every switching class G whose
    ``plan`` is non-empty, ``check(g, eta_g, signs, entry)`` yields
    ``(fields, expected, got)`` per case of each plan entry, and calls
    ``eta_g()`` for eta(G), which is ranked on the first call only and
    kept in a one-slot closure: a class none of whose entries has a case is
    never ranked.  A failure record, G's ``n`` and ``edges`` first, is
    built only on a mismatch, so a passing class builds nothing."""
    for g, signs, found in _corpus_by_graph(n_max, plan):
        eta = None

        def eta_g():
            nonlocal eta
            if eta is None:
                eta = nullity_rank(g)
            return eta

        for entry in found:
            for fields, expected, got in check(g, eta_g, signs, entry):
                yield None if got == expected else _outcome(dict(n=g.n, edges=_edge_list(g), **fields), expected, got)


_CUTPOINT_GRID = "iso-class connected corpus n<={} x switching classes, all qualifying (g, v, component) triples"


def verify_thm31(n_max: int = 7) -> VerificationReport:
    """Decrement rule: wherever eta(G_i) = eta(G_i + v) + 1 at a cut-point v,
    eta(G) = sum eta(G_j) - 1, over the exhaustive n <= n_max corpus."""

    def decrement(g, eta_g, signs, entry):
        v, parts = entry
        etas, deltas = zip(*_rank_differences(parts, signs))
        for idx, delta in enumerate(deltas):
            if delta == 1:
                yield dict(cut_point=v, component=idx), sum(etas) - 1, eta_g()

    return _run("thm3.1", _CUTPOINT_GRID.format(n_max), _corpus_cases(n_max, _cutpoint_plan, decrement))


def verify_thm32(n_max: int = 7) -> VerificationReport:
    """Split rule: wherever eta(G_i) = eta(G_i + v) - 1 at a cut-point v,
    eta(G) = eta(G_i) + eta(G - G_i), over the exhaustive n <= n_max corpus."""

    def split(g, eta_g, signs, entry):
        v, parts = entry
        for idx, (eta_i, delta) in enumerate(_rank_differences(parts, signs)):
            if delta == -1:
                rest, _ = delete_vertices(g, parts[idx][0])
                yield dict(cut_point=v, component=idx), eta_i + nullity_rank(rest), eta_g()

    return _run("thm3.2", _CUTPOINT_GRID.format(n_max), _corpus_cases(n_max, _cutpoint_plan, split))


def _cutpoint_witness(g: SignedGraph, v: int, delta: int):
    """(parts, signs, idx): the parts of G at v, G's edge signs and the
    lowest index of a component with rank difference ``delta``, idx None
    when none has it; the search stops at the witness."""
    if v not in cut_points(g):
        raise GraphError(f"vertex {v} is not a cut-point")
    parts = _cutpoint_parts(g, v)
    signs = [s for _, _, s in g.edges]
    ranked = _rank_differences(parts, signs)
    idx = next((idx for idx, (_, d) in enumerate(ranked) if d == delta), None)
    return parts, signs, idx


def try_cutpoint_case1(g: SignedGraph, v: int) -> tuple[tuple[SignedGraph, ...], int] | None:
    """Decrement rule (Theorem 3.1) at cut-point v: eta(G) = sum eta(G_i) - 1.

    Applicable when some component G_i of G - v satisfies
    eta(G_i) = eta(G_i + v) + 1.  Returns ``(parts, idx)``: every component
    G_i of G - v, ordered by smallest label, and the lowest index of one
    that qualifies; None when none does.  Raises ``GraphError`` when v is
    not a cut-point.
    """
    parts, signs, idx = _cutpoint_witness(g, v, 1)
    if idx is None:
        return None
    return tuple(comp.graph(signs) for _, comp, _ in parts), idx


def try_cutpoint_case2(g: SignedGraph, v: int) -> tuple[tuple[SignedGraph, SignedGraph], int] | None:
    """Split rule (Theorem 3.2) at cut-point v: eta(G) = eta(G_i) + eta(G - G_i).

    Applicable when some component G_i of G - v satisfies
    eta(G_i) = eta(G_i + v) - 1.  Returns ``((G_i, G - G_i), idx)`` for the
    qualifying G_i of lowest index ``idx`` among the components of G - v,
    ordered by smallest label, where G - G_i keeps v and every other
    component; None when none qualifies.  Raises ``GraphError`` when v is
    not a cut-point.
    """
    parts, signs, idx = _cutpoint_witness(g, v, -1)
    if idx is None:
        return None
    labels, comp, _ = parts[idx]
    return (comp.graph(signs), delete_vertices(g, labels)[0]), idx


def _pendant_plan(g: SignedGraph):
    """Per pendant pair (v, u), by label: v, u and the part G - {v, u}."""
    return [
        (v, u, _Part(g, [w for w in range(g.n) if w != v and w != u]))
        for v, u in pendant_pairs(g)
    ]


def verify_pendant(n_max: int = 7) -> VerificationReport:
    """Deleting any pendant vertex together with its neighbor keeps the
    nullity, over the exhaustive n <= n_max corpus."""

    def deletion(g, eta_g, signs, entry):
        v, u, reduced = entry
        yield dict(pendant=v, neighbor=u), eta_g(), reduced.nullity(signs)

    grid = f"iso-class connected corpus n<={n_max} x switching classes, every pendant pair"
    return _run("pendant", grid, _corpus_cases(n_max, _pendant_plan, deletion))


# -- infinity-graph formula ---------------------------------------------------


def verify_thm41(p_max: int = 8, l_max: int = 5) -> VerificationReport:
    """Infinity-graph nullity formula against the rank oracle on the full
    grid p, q in [3, p_max], l in [1, l_max], sign parities in {0, 1}."""

    cycles, bars, parities = range(3, p_max + 1), range(1, l_max + 1), (0, 1)
    points = (
        dict(p=p, q=q, l=l, sp=sp, sq=sq)
        for p, q, l, sp, sq in itertools.product(cycles, cycles, bars, parities, parities)
    )
    cases = _closed_form(points, gen_infinity, nullity_infinity)
    return _run("thm4.1", f"p,q in [3,{p_max}], l in [1,{l_max}], sp,sq in {{0,1}}", cases)


# -- theta-graph formula ---------------------------------------------------------


def verify_thm_theta(l_max: int = 12) -> VerificationReport:
    """Theta-graph nullity formula against the rank oracle for every path
    length triple in [1, l_max]^3 with at most one 1, and every parity triple."""

    points = (
        dict(p=p, q=q, l=l, s1=s1, s2=s2, s3=s3)
        for p, q, l in itertools.product(range(1, l_max + 1), repeat=3)
        if (p, q, l).count(1) <= 1
        for s1, s2, s3 in itertools.product((0, 1), repeat=3)
    )
    grid = f"p,q,l in [1,{l_max}] with at most one 1, s1,s2,s3 in {{0,1}}"
    return _run("thm.theta", grid, _closed_form(points, gen_theta, nullity_theta))


# -- bowtie balanceness lemma -------------------------------------------------


def verify_lem51(samples: int = 25, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Bowtie nullity by triangle balanceness: 0 when the two triangles have
    equal balanceness, 1 otherwise; invariant under ``samples`` random
    switchings per parity pair."""

    def cases():
        rng = random.Random(seed)
        for sp in (0, 1):
            for sq in (0, 1):
                base = gen_figure("H13", sp=sp, sq=sq)
                expected = 0 if sp == sq else 1
                for k in range(samples + 1):
                    # stream the switched variants; k = 0 checks the base itself
                    g = switch(base, random_switching(rng, base.n)) if k else base
                    eta = nullity_rank(g)
                    yield None if eta == expected else _outcome(dict(sp=sp, sq=sq, edges=_edge_list(g)), expected, eta)

    grid = f"triangle parities {{0,1}}^2, each with {samples} random switchings (seed {seed})"
    return _run("lem5.1", grid, cases())


# -- unbalanced bicyclic maximum ----------------------------------------------


def verify_lem52(n_max: int = 6) -> VerificationReport:
    """eta <= n - 3 for every unbalanced bicyclic signed graph with
    n <= n_max, with equality exactly for the both-triangles-unbalanced
    diamond."""

    def cases():
        for n in range(4, n_max + 1):
            for edges in bicyclic_graphs_labeled(n):
                classes = signed_graphs_mod_switching(n, edges)
                # the first class is the only balanced one: its tree edges are
                # positive, so each cotree edge closes a fundamental cycle of
                # its own sign, and only the all-positive class has no negative
                next(classes)
                for g in classes:
                    eta = nullity_rank(g)
                    # connected and bicyclic by construction, unbalanced by the skip
                    extremal = _is_extremal_diamond(g)
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
    """The bound of ``class_name`` on ``samples`` sampled graphs."""

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


def _witness(class_name, n, k, g, eta, balanced):
    """A realizer of ``class_name`` is an unbalanced graph of that class with
    nullity k."""
    try:
        cls = bicyclic_class(g)
    except GraphError as exc:  # not a connected bicyclic graph
        cls = repr(exc)
    return _outcome(
        dict(n=n, k=k, edges=_edge_list(g), kind="witness"),
        {"eta": k, "balanced": False, "class": class_name},
        {"eta": eta, "balanced": balanced, "class": cls},
    )


#: The class whose realizers each nullity-set sweep checks.
_SET_CLASSES = {"set.bplus": "BPlus", "set.bplusplus": "BPlusPlus", "set.theta": "Theta", "set.bicyclic": "Theta"}


def _verify_set(theorem_id, n_lo, n_hi, grid="{class_name}: n in [{n_lo},{n_hi}], k in [0, n-{k_offset}]"):
    """Every k of the class's nullity set at each n in [n_lo, n_hi] has a
    realizer that ``_witness`` accepts, given its rank-oracle nullity and
    balance; a realizer that raises is a failed case of kind
    ``construction``."""
    class_name = _SET_CLASSES[theorem_id]
    k_offset = _REALIZERS[class_name][1]

    def cases():
        for n in range(n_lo, n_hi + 1):
            for k in range(0, n - k_offset + 1):
                try:
                    g = realize_nullity(class_name, n, k)
                except Exception as exc:  # construction failure is a counterexample
                    yield dict(n=n, k=k, kind="construction", got=repr(exc))
                    continue
                balanced, _ = is_balanced(g)
                yield _witness(class_name, n, k, g, nullity_rank(g), balanced)

    grid = grid.format(class_name=class_name, n_lo=n_lo, n_hi=n_hi, k_offset=k_offset)
    return _run(theorem_id, grid, cases())


def verify_set_bplus(n_lo: int = 8, n_hi: int = 12) -> VerificationReport:
    return _verify_set("set.bplus", n_lo, n_hi)


def verify_set_bplusplus(n_lo: int = 8, n_hi: int = 12) -> VerificationReport:
    return _verify_set("set.bplusplus", n_lo, n_hi)


def verify_set_theta(n_lo: int = 6, n_hi: int = 12) -> VerificationReport:
    return _verify_set("set.theta", n_lo, n_hi)


def verify_set_bicyclic(n_lo: int = 8, n_hi: int = 12) -> VerificationReport:
    """Every k in [0, n-4] is attained by an unbalanced bicyclic signed graph:
    the theta realizers, checked as witnesses of their class."""
    return _verify_set("set.bicyclic", n_lo, n_hi, "n in [{n_lo},{n_hi}], k in [0, n-{k_offset}] via theta realizers")


# -- registry --------------------------------------------------------------------

# Each row: the sweep, and the largest value of each option that sizes it.
# Above it a grid cannot finish in reasonable time, so ``verify_theorem``
# refuses it before sweeping.  One order more multiplies an exhaustive
# sweep's graphs, or the ranks it takes, many times over; a sweep that ranks
# one graph per order pays polynomially more for each order; a sampled
# sweep's time grows with its samples, and its limit is the largest power of
# ten that sweeps in under about a minute.  Measured on a 2-core x86-64
# host, Python 3.11:
# - cor2.1: n_max = 6 and 10^4 samples together took 28 s;
# - thm2.2, prop2.1: ranking every order took 1.2 s and 0.6 s to n_max =
#   200, 4.2 s and 2.1 s to 300;
# - lem3.1, lem5.1: 10^6 samples took 45 s and 66 s;
# - thm3.1, thm3.2, pendant: no time limit; their corpus ends where the graph
#   atlas does, at n = 7, and ``enumeration.connected_graphs_upto_iso``
#   refuses more on its own;
# - lem5.2: n_max = 7 takes about 11 s;
# - bounds.*: 10^5 samples took 4.7 to 8.0 s, and bounds.theta would pass a
#   minute at 10^6;
# - set.*: a sweep ranks about n realizers at each order n; set.theta from
#   its default n_lo took 0.12 s to n_hi = 30, 2.1 s to 60 and 4.2 s to 70,
#   and each class takes 2.2 to 3.2 s to 64;
# - thm4.1: p_max = 30 and l_max = 30 together took 43 s (62 s at 32);
# - thm.theta: l_max = 26 took 48 s (30 s at 24).
_REGISTRY = {
    "cor2.1": (verify_cor21, {"n_max": 6, "samples": 10**4}),
    "thm2.2": (verify_thm22, {"n_max": 300}),
    "prop2.1": (verify_prop21, {"n_max": 300}),
    "lem3.1": (verify_lem31, {"samples": 10**6}),
    "thm3.1": (verify_thm31, {"n_max": 7}),
    "thm3.2": (verify_thm32, {"n_max": 7}),
    "pendant": (verify_pendant, {"n_max": 7}),
    "thm4.1": (verify_thm41, {"p_max": 30, "l_max": 30}),
    "thm.theta": (verify_thm_theta, {"l_max": 26}),
    "lem5.1": (verify_lem51, {"samples": 10**6}),
    "lem5.2": (verify_lem52, {"n_max": 7}),
    "bounds.bplus": (verify_bounds_bplus, {"samples": 10**5}),
    "bounds.bplusplus": (verify_bounds_bplusplus, {"samples": 10**5}),
    "bounds.theta": (verify_bounds_theta, {"samples": 10**5}),
    "set.bplus": (verify_set_bplus, {"n_hi": 64}),
    "set.bplusplus": (verify_set_bplusplus, {"n_hi": 64}),
    "set.theta": (verify_set_theta, {"n_hi": 64}),
    "set.bicyclic": (verify_set_bicyclic, {"n_hi": 64}),
}

THEOREM_IDS = tuple(sorted(_REGISTRY))


def verify_theorem(theorem_id: str, **options) -> VerificationReport:
    """Run one registered sweep.  Options that are not its parameters are
    rejected; so are, before sweeping, a set sweep's n_lo below its class's
    least n and an option above its row's limit."""
    try:
        fn, limits = _REGISTRY[theorem_id]
    except KeyError:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    kwargs = {k: v for k, v in options.items() if v is not None}
    unknown = kwargs.keys() - inspect.signature(fn).parameters.keys()
    if unknown:
        raise ValueError(
            f"theorem {theorem_id} does not accept options {sorted(unknown)}"
        )
    if theorem_id in _SET_CLASSES:  # no realizer exists below the class's least n
        n_min = _REALIZERS[_SET_CLASSES[theorem_id]][0]
        if kwargs.get("n_lo", n_min) < n_min:
            raise ValueError(f"{theorem_id} needs n >= {n_min}, got n_lo = {kwargs['n_lo']}")
    for name, limit in limits.items():
        if kwargs.get(name, limit) > limit:
            scope = "draws up to" if name == "samples" else "is exhaustive up to"
            raise ValueError(f"{theorem_id} {scope} {name} = {limit}, got {name} = {kwargs[name]}")
    return fn(**kwargs)
