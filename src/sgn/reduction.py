"""Structural nullity computation with replayable certificates.

The engine applies, in order: the edgeless base case, component splitting
(every isolated vertex goes into one edgeless part), pendant peeling (delete
a degree-1 vertex together with its neighbor, which keeps the nullity, until
no pendant is left; one step records every pair), and the base case of a
connected pendant-free graph.  Such a graph with cyclomatic number
c = m - n + 1 = 1 is a cycle; with c = 2 it is a theta or an infinity graph,
whose parameters are read off its branches in O(n): the paths between its
vertices of degree >= 3 through vertices of degree 2.  Those are closed
forms, so a graph with c <= 2 never reaches a matrix; a graph with c >= 3 is
decided by the exact rank oracle, and that base case is the engine's only
rank call.  A certificate holds three step kinds: ``ComponentSplit`` and
``PendantDelete``, whose graph's nullity is the sum of its parts', and
``BaseCase``, which states a value.

Each graph the engine reads gets one transient adjacency, its neighbor lists
from one pass over its edges (``graph._neighbor_lists``), which lives while
that graph's rule runs.  The component search and, for a connected graph,
the whole peel read that one build: a degree count plus the sum of each
vertex's live neighbors' labels names a pendant's one live neighbor in O(1),
because at degree 1 the sum is that neighbor (deleting u subtracts u from
the sum of each live neighbor of u; a running XOR would do as well, but the
sums start from one builtin call per vertex).  A min-heap keeps the
lowest-labeled pendant first.  A fact a rule has established is not checked
again, which keeps every certificate the same: a component of a split is
connected, so it gets no search; a peel's remainder has no pendant, because
the peel stops only when none is left, and its components keep their
degrees, so neither gets a pendant scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heappop, heappush

from .formulas import nullity_cycle, nullity_infinity, nullity_theta
from .graph import (
    GraphError,
    SignedGraph,
    _component_vertex_sets,
    _graph_dict,
    _induced,
    _neighbor_lists,
    check_vertex_ceiling,
    components,  # unused; perfbench/tracing.py patches this name
    cut_points,  # unused; perfbench/tracing.py patches this name
    delete_vertices,  # unused; perfbench/tracing.py patches this name
    pendant_pairs,  # unused; perfbench/tracing.py patches this name
)
from .linalg import nullity_rank

KIND_COMPONENT_SPLIT = "ComponentSplit"
KIND_PENDANT_DELETE = "PendantDelete"
KIND_BASE_CASE = "BaseCase"

METHOD_RANK_ORACLE = "RankOracle"
METHOD_CLOSED_FORM = "ClosedForm"


@dataclass(frozen=True)
class ReductionStep:
    """One certificate step; ``before``/``after`` are full graph snapshots.

    ``kind`` is one of the three ``KIND_*`` constants.  A ``ComponentSplit``
    or ``PendantDelete`` step's ``before`` has the nullity of its ``after``
    parts summed; a ``BaseCase`` step has no parts, and its ``method`` and
    ``value`` state how ``before`` was decided and its nullity.  A
    ``PendantDelete`` step lists in ``pairs`` every (pendant, neighbor)
    pair it deleted, in deletion order and in ``before``'s labels; its one
    ``after`` graph is ``before`` less all of them, relabeled contiguously.
    """

    kind: str
    before: SignedGraph
    after: tuple[SignedGraph, ...]
    relation: str
    pairs: tuple[tuple[int, int], ...] | None = None
    method: str | None = None
    value: int | None = None

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "relation": self.relation,
            "before": _graph_dict(self.before),
            "after": [_graph_dict(h) for h in self.after],
        }
        for key in ("pairs", "method", "value"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d


@dataclass(frozen=True)
class ReductionTrace:
    """Certificate for one structural nullity computation."""

    root: SignedGraph
    steps: tuple[ReductionStep, ...]
    result: int

    def replay(self) -> int:
        """Recompute the nullity from the recorded steps alone.

        Steps are recorded in pre-order, so a reverse pass resolves every
        subgraph before its parent: a base case to its value, any other step
        to the sum of its parts.  Equal labeled graphs have equal nullity,
        which makes memoizing by graph value safe.
        """
        value: dict[SignedGraph, int] = {}
        for step in reversed(self.steps):
            if step.kind == KIND_BASE_CASE:
                value[step.before] = step.value
                continue
            try:
                total = sum(value[h] for h in step.after)
            except KeyError:
                raise GraphError("trace replay: step references an unresolved graph")
            if step.kind not in (KIND_PENDANT_DELETE, KIND_COMPONENT_SPLIT):
                raise GraphError(f"trace replay: unknown step kind {step.kind!r}")
            value[step.before] = total
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


def peel_pendants(g: SignedGraph) -> tuple[SignedGraph, ReductionStep] | None:
    """Delete pendant pairs until none is left, recorded as one step.

    Each deletion takes the lowest-labeled pendant of the current graph
    together with its neighbor and keeps the nullity.  The peel runs on one
    transient adjacency of G (``_neighbor_lists``): a min-heap of pendant
    labels finds the next pendant, and a degree count with the sum of each
    vertex's live neighbors' labels names a pendant's one live neighbor in
    O(1), since at degree 1 that sum is the neighbor itself.  The whole
    peel is O(m + n log n) and builds one snapshot, of what is left.
    Returns None when no pendant exists.
    """
    return _peel(g, _neighbor_lists(g))


def _peel(g: SignedGraph, nbrs: list[list[int]]) -> tuple[SignedGraph, ReductionStep] | None:
    """``peel_pendants`` on G's neighbor lists ``nbrs``, which it only reads."""
    degree = list(map(len, nbrs))
    if 1 not in degree:
        return None
    heap = [v for v, d in enumerate(degree) if d == 1]  # ascending, so already a heap
    link = list(map(sum, nbrs))  # sum of the live neighbors; a pendant's is its neighbor
    pairs = []
    while heap:
        v = heappop(heap)
        # a vertex enters the heap once, when its degree reaches 1; it is
        # stale once deleted (degree -1) or left isolated (degree 0)
        if degree[v] != 1:
            continue
        u = link[v]
        degree[v] = degree[u] = -1
        pairs.append((v, u))
        for w in nbrs[u]:
            d = degree[w]
            if d > 0:
                link[w] -= u
                degree[w] = d - 1
                if d == 2:
                    heappush(heap, w)
    reduced = _induced(g, [v for v, d in enumerate(degree) if d >= 0])
    step = ReductionStep(
        kind=KIND_PENDANT_DELETE,
        before=g,
        after=(reduced,),
        relation="eta(G) = eta(G - every listed pendant pair)",
        pairs=tuple(pairs),
    )
    return reduced, step


def nullity_structural(g: SignedGraph) -> tuple[int, ReductionTrace]:
    """Nullity via structural reduction, with a replayable certificate.

    Rule order: edgeless base case, components (all isolated vertices in
    one edgeless part, after the others), pendant peeling, then the base
    case of a connected pendant-free graph: the closed form of a cycle,
    theta or infinity graph when m <= n + 1, so a graph with c <= 2 is
    decided in O(n log n) with no matrix, else the rank oracle.  The
    cut-point rules are not tried.  An explicit stack replaces recursion:
    each popped graph records one step and pushes its parts in reverse,
    which keeps the steps in pre-order.  Every rule sets eta(G) to the sum
    of its parts' nullities, so the result is the sum of the base-case
    values.  It always equals the rank-oracle nullity; ``replay``
    re-derives it from the steps alone.  A graph above the adjacency-list
    ceiling is refused even when no rule would traverse it (an edgeless
    one).
    """
    check_vertex_ceiling(g.n)
    steps: list[ReductionStep] = []
    result = 0
    stack = [(g, False, False)]
    while stack:
        h, connected, pendant_free = stack.pop()
        parts, step = _rule(h, connected, pendant_free)
        steps.append(step)
        if step.kind == KIND_BASE_CASE:
            result += step.value
        stack.extend(reversed(parts))
    return result, ReductionTrace(root=g, steps=tuple(steps), result=result)


def _rule(
    g: SignedGraph, connected: bool, pendant_free: bool
) -> tuple[tuple[tuple[SignedGraph, bool, bool], ...], ReductionStep]:
    """(parts, step) for the first rule that applies to ``g``.

    ``connected`` and ``pendant_free`` say what is already known of ``g``,
    and each part comes with what is known of it: a component is connected
    and keeps its graph's pendant-free flag, and a peel's remainder is
    pendant-free.  A known fact is not checked again.
    """
    if g.m == 0 or (connected and pendant_free):
        return (), _base_case(g)
    nbrs = _neighbor_lists(g)
    if not connected:
        comps = _component_vertex_sets(g, adj=nbrs)
        if len(comps) > 1:
            parts = tuple(_induced(g, comp) for comp in comps if len(comp) > 1)
            isolated = [comp[0] for comp in comps if len(comp) == 1]
            if isolated:
                parts += (_induced(g, isolated),)
            step = ReductionStep(
                kind=KIND_COMPONENT_SPLIT,
                before=g,
                after=parts,
                relation="eta(G) = sum over connected components",
            )
            return tuple((h, True, pendant_free) for h in parts), step
    if not pendant_free:
        hit = _peel(g, nbrs)
        if hit is not None:
            reduced, step = hit
            return ((reduced, False, True),), step
    return (), _base_case(g, nbrs)


def _base_case(g: SignedGraph, nbrs: list[list[int]] | None = None) -> ReductionStep:
    """The base-case step of ``g``; ``nbrs``, G's neighbor lists, is built
    here if None and only a theta or infinity graph reads it."""
    # closed forms: the empty graph, isolated vertices, and the connected
    # pendant-free graphs with m <= n + 1, which are cycles, theta and
    # infinity graphs (paths with n >= 2 never reach here because they are
    # peeled first); every other graph here has c >= 3
    method = METHOD_CLOSED_FORM
    if g.n == 0:
        value, relation = 0, "eta = 0 (empty graph)"
    elif g.m == 0:
        value = g.n  # n isolated vertices, each contributing 1
        relation = f"eta = {value} (isolated vertices)"
    elif g.m == g.n:
        s = sum(1 for _, _, sg in g.edges if sg == -1) % 2
        value = nullity_cycle(g.n, s)
        relation = f"eta = {value} (cycle closed form, n={g.n}, s parity {s})"
    elif g.m == g.n + 1:
        value, relation = _bicyclic_closed_form(g, _neighbor_lists(g) if nbrs is None else nbrs)
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


def _branches(g: SignedGraph, nbrs: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """Every branch of a connected pendant-free graph that is not a cycle,
    as (start, end, edges, negative-edge parity), read off its neighbor
    lists ``nbrs``.

    A branch is a path between vertices of degree >= 3 (possibly the same
    one) whose inner vertices have degree 2.  Each is walked once, from its
    start: hubs in ascending order, each one's neighbors in ascending order,
    and a walk is skipped when its first inner vertex was already walked, or
    when it is a single edge back to a lower hub.
    """
    negative = {(u, v) for u, v, s in g.edges if s < 0}
    walked = [False] * g.n
    out = []
    for a in range(g.n):
        if len(nbrs[a]) < 3:
            continue
        for x in nbrs[a]:
            if walked[x] or (len(nbrs[x]) > 2 and x < a):
                continue
            prev, v, edges, parity = a, x, 1, (min(a, x), max(a, x)) in negative
            while len(nbrs[v]) == 2:
                walked[v] = True
                y, w = nbrs[v]
                if w == prev:
                    w = y
                prev, v, edges, parity = v, w, edges + 1, parity ^ ((min(v, w), max(v, w)) in negative)
            out.append((a, v, edges, int(parity)))
    return out


def _bicyclic_closed_form(g: SignedGraph, nbrs: list[list[int]]) -> tuple[int, str]:
    """(eta, relation) of a connected pendant-free graph with m = n + 1.

    Its degrees exceed 2 by 2 in total, so it has one vertex of degree 4,
    with two cycles through it (infinity, l = 1), or two vertices a < b of
    degree 3, joined by three branches (theta) or each on a cycle, with one
    a-b branch of L edges between them (infinity, l = L + 1).
    """
    branches = _branches(g, nbrs)
    if all(a != b for a, b, _, _ in branches):
        lengths, parities = zip(*((length, parity) for _, _, length, parity in branches))
        value = nullity_theta(*lengths, *parities)
        return value, f"eta = {value} (theta closed form, lengths {lengths}, s parities {parities})"
    (p, sp), (q, sq) = ((length, parity) for a, b, length, parity in branches if a == b)
    l = 1 + sum(length for a, b, length, _ in branches if a != b)
    value = nullity_infinity(p, q, l, sp, sq)
    return value, f"eta = {value} (infinity closed form, p={p}, q={q}, l={l}, s parities ({sp}, {sq}))"


# unused; perfbench/tracing.py patches these names.  verify imports this
# module through families, so they are bound last.
from .verify import try_cutpoint_case1, try_cutpoint_case2  # noqa: E402
