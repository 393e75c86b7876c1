"""Structural nullity computation with replayable certificates.

The engine applies, in order: component splitting, pendant deletion (delete
a degree-1 vertex together with its neighbor; nullity is unchanged), and the
two cut-point rules.  At a cut-point v with components G_1..G_s of G - v:

* decrement rule: if some G_i has eta(G_i) = eta(G_i + v) + 1, then
  eta(G) = sum_i eta(G_i) - 1;
* split rule: if some G_i has eta(G_i) = eta(G_i + v) - 1, then
  eta(G) = eta(G_i) + eta(G - G_i).

Whether a rule applies is decided with the exact rank oracle (there is no
known syntactic criterion), so the engine is a certificate generator rather
than an oracle-free decision procedure.  When neither rule applies the
subgraph falls back to a rank-oracle base case; paths, cycles and isolated
vertices are closed-form base cases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .formulas import nullity_cycle
from .graph import (
    GraphError,
    SignedGraph,
    _induced,
    components,
    cut_points,
    delete_vertices,
    is_connected,
    pendant_pairs,
)
from .linalg import nullity_rank

KIND_COMPONENT_SPLIT = "ComponentSplit"
KIND_PENDANT_DELETE = "PendantDelete"
KIND_CUTPOINT_DECREMENT = "CutPointDecrement"
KIND_CUTPOINT_SPLIT = "CutPointSplit"
KIND_BASE_CASE = "BaseCase"

METHOD_RANK_ORACLE = "RankOracle"
METHOD_CLOSED_FORM = "ClosedForm"


@dataclass(frozen=True)
class ReductionStep:
    """One certificate step; ``before``/``after`` are full graph snapshots."""

    kind: str
    before: SignedGraph
    after: tuple[SignedGraph, ...]
    relation: str
    pendant: int | None = None
    neighbor: int | None = None
    cut_point: int | None = None
    component_index: int | None = None
    method: str | None = None
    value: int | None = None

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "relation": self.relation,
            "before": _graph_dict(self.before),
            "after": [_graph_dict(h) for h in self.after],
        }
        for key in ("pendant", "neighbor", "cut_point", "component_index", "method", "value"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d


def _graph_dict(g: SignedGraph) -> dict:
    return {"n": g.n, "edges": [[u, v, s] for u, v, s in g.edges]}


@dataclass(frozen=True)
class ReductionTrace:
    """Certificate for one structural nullity computation."""

    root: SignedGraph
    steps: tuple[ReductionStep, ...]
    result: int

    def replay(self) -> int:
        """Recompute the nullity from the recorded steps alone.

        Steps are recorded in pre-order, so a reverse pass resolves every
        subgraph before its parent.  Equal labeled graphs have equal nullity,
        which makes memoizing by graph value safe.
        """
        value: dict[SignedGraph, int] = {}
        for step in reversed(self.steps):
            if step.kind == KIND_BASE_CASE:
                value[step.before] = step.value
                continue
            try:
                parts = [value[h] for h in step.after]
            except KeyError:
                raise GraphError("trace replay: step references an unresolved graph")
            if step.kind == KIND_PENDANT_DELETE:
                value[step.before] = parts[0]
            elif step.kind == KIND_COMPONENT_SPLIT:
                value[step.before] = sum(parts)
            elif step.kind == KIND_CUTPOINT_DECREMENT:
                value[step.before] = sum(parts) - 1
            elif step.kind == KIND_CUTPOINT_SPLIT:
                value[step.before] = sum(parts)
            else:
                raise GraphError(f"trace replay: unknown step kind {step.kind!r}")
        if self.root not in value:
            raise GraphError("trace replay: root graph never resolved")
        return value[self.root]

    def to_json(self) -> str:
        return json.dumps(
            {
                "root": _graph_dict(self.root),
                "result": self.result,
                "steps": [s.to_dict() for s in self.steps],
            },
            indent=2,
        )


def apply_pendant(g: SignedGraph) -> tuple[SignedGraph, ReductionStep] | None:
    """Delete the lowest-labeled pendant together with its neighbor.

    Nullity is unchanged.  Returns None when no pendant exists.
    """
    pairs = pendant_pairs(g)
    if not pairs:
        return None
    v, u = pairs[0]
    reduced, _ = delete_vertices(g, (v, u))
    step = ReductionStep(
        kind=KIND_PENDANT_DELETE,
        before=g,
        after=(reduced,),
        relation=f"eta(G) = eta(G - {{{v},{u}}})",
        pendant=v,
        neighbor=u,
    )
    return reduced, step


def _cutpoint_parts(g: SignedGraph, v: int):
    """Components G_i of G - v, each as (G_i, its original labels, G_i + v).

    ``v`` must be a cut-point of ``g``; callers check that.
    """
    without, keep = delete_vertices(g, (v,))
    parts = []
    for comp, comp_map in components(without):
        original = tuple(keep[i] for i in comp_map)
        parts.append((comp, original, _induced(g, sorted((*original, v)))))
    return parts


def _deltas(parts, ranked: dict[SignedGraph, int]):
    """eta(G_i) - eta(G_i + v) for each part in order, ranked lazily: +1 is
    the decrement rule's hypothesis, -1 the split rule's.  ``ranked`` holds
    the nullities found so far in one decision, so a graph value that recurs
    at another cut point is ranked once."""
    for comp, _, plus_v in parts:
        for h in (comp, plus_v):
            if h not in ranked:
                ranked[h] = nullity_rank(h)
        yield ranked[comp] - ranked[plus_v]


def _decrement(g: SignedGraph, v: int, parts, idx: int):
    after = tuple(comp for comp, _, _ in parts)
    step = ReductionStep(
        kind=KIND_CUTPOINT_DECREMENT,
        before=g,
        after=after,
        relation=f"eta(G) = sum(eta(G_i) for G_i in G - {v}) - 1",
        cut_point=v,
        component_index=idx,
    )
    return after, step


def _split(g: SignedGraph, v: int, parts, idx: int):
    comp, original, _ = parts[idx]
    rest, _ = delete_vertices(g, original)
    pair = (comp, rest)
    step = ReductionStep(
        kind=KIND_CUTPOINT_SPLIT,
        before=g,
        after=pair,
        relation=f"eta(G) = eta(G_{idx + 1}) + eta(G - G_{idx + 1}), split at {v}",
        cut_point=v,
        component_index=idx,
    )
    return pair, step


def _try_cutpoint(g: SignedGraph, v: int, delta: int, build):
    if v not in cut_points(g):
        raise GraphError(f"vertex {v} is not a cut-point")
    parts = _cutpoint_parts(g, v)
    for idx, d in enumerate(_deltas(parts, {})):
        if d == delta:
            return build(g, v, parts, idx)
    return None


def try_cutpoint_case1(
    g: SignedGraph, v: int
) -> tuple[tuple[SignedGraph, ...], ReductionStep] | None:
    """Decrement rule at cut-point v.

    Applicable when some component G_i of G - v satisfies
    eta(G_i) = eta(G_i + v) + 1; then eta(G) = sum eta(G_i) - 1.
    The qualifying component of lowest index is recorded as witness.
    """
    return _try_cutpoint(g, v, 1, _decrement)


def try_cutpoint_case2(
    g: SignedGraph, v: int
) -> tuple[tuple[SignedGraph, SignedGraph], ReductionStep] | None:
    """Split rule at cut-point v.

    Applicable when some component G_i of G - v satisfies
    eta(G_i) = eta(G_i + v) - 1; then eta(G) = eta(G_i) + eta(G - G_i),
    where G - G_i keeps v (and every other component).
    """
    return _try_cutpoint(g, v, -1, _split)


def _is_cycle(g: SignedGraph) -> bool:
    return g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n))


def nullity_structural(g: SignedGraph) -> tuple[int, ReductionTrace]:
    """Nullity via structural reduction, with a replayable certificate.

    Rule order: components, pendants, cut-point decrement rule, cut-point
    split rule, base case.  Cut-points are tried in ascending label order.
    An explicit stack replaces recursion: each popped graph records one step
    and pushes its parts in reverse, which keeps the steps in pre-order.
    Every rule sets eta(G) to the sum of its parts' nullities, less one for
    the decrement rule, so the result is the sum of the base-case values
    minus the number of decrement steps.  It always equals the rank-oracle
    nullity; ``replay`` re-derives it from the steps alone.
    """
    steps: list[ReductionStep] = []
    result = 0
    stack = [g]
    while stack:
        parts, step = _rule(stack.pop())
        steps.append(step)
        if step.kind == KIND_BASE_CASE:
            result += step.value
        elif step.kind == KIND_CUTPOINT_DECREMENT:
            result -= 1
        stack.extend(reversed(parts))
    return result, ReductionTrace(root=g, steps=tuple(steps), result=result)


def _rule(g: SignedGraph) -> tuple[tuple[SignedGraph, ...], ReductionStep]:
    """(parts, step) for the first rule that applies to ``g``."""
    if g.n == 0:
        return (), _base_case(g)
    if not is_connected(g):
        parts = tuple(comp for comp, _ in components(g))
        step = ReductionStep(
            kind=KIND_COMPONENT_SPLIT,
            before=g,
            after=parts,
            relation="eta(G) = sum over connected components",
        )
        return parts, step
    hit = apply_pendant(g)
    if hit is not None:
        reduced, step = hit
        return (reduced,), step
    # each cut point is decomposed once and each graph value ranked once:
    # the decrement rule at any cut point wins, else the split rule at the
    # first cut point that admits it
    split = None
    ranked: dict[SignedGraph, int] = {}
    for v in sorted(cut_points(g)):
        parts = _cutpoint_parts(g, v)
        for idx, delta in enumerate(_deltas(parts, ranked)):
            if delta == 1:
                return _decrement(g, v, parts, idx)
            if delta == -1 and split is None:
                split = (v, parts, idx)
    if split is not None:
        return _split(g, *split)
    return (), _base_case(g)


def _base_case(g: SignedGraph) -> ReductionStep:
    # closed forms: the empty graph, isolated vertices and cycles (paths
    # with n >= 2 never reach here because they still carry pendants)
    method = METHOD_CLOSED_FORM
    if g.n == 0:
        value, relation = 0, "eta = 0 (empty graph)"
    elif g.m == 0:
        value = g.n  # n isolated vertices, each contributing 1
        relation = f"eta = {value} (isolated vertices)"
    elif _is_cycle(g):
        s = sum(1 for _, _, sg in g.edges if sg == -1) % 2
        value = nullity_cycle(g.n, s)
        relation = f"eta = {value} (cycle closed form, n={g.n}, s parity {s})"
    else:
        value = nullity_rank(g)
        method = METHOD_RANK_ORACLE
        relation = f"eta = {value} (exact rank)"
    return ReductionStep(
        kind=KIND_BASE_CASE,
        before=g,
        after=(),
        relation=relation,
        method=method,
        value=value,
    )
