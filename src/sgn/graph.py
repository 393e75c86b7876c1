"""Signed-graph data model, parsing, and structural queries.

A signed graph is a simple undirected graph together with a sign in
{+1, -1} on every edge.  Vertices are the integers ``0..n-1``; graphs
compare by labeled structure (isomorphism is deliberately not modeled).
All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Mapping, Sequence


class GraphError(ValueError):
    """Domain violation: bad vertex, bad sign, disconnected input, ..."""


class ParseError(GraphError):
    """Malformed edge-list or JSON input; the message names the offending line."""


#: A switching function assigns +1 or -1 to every vertex.
SwitchingFunction = Mapping[int, int]

#: Largest vertex count the adjacency lists, and so every traversal, accept.
#: Checked when the lists, or the figure stream's neighbor maps, are first
#: built, before anything per vertex is allocated; the matrix routes have
#: their own, lower ceiling.
MAX_VERTICES = 200_000


def check_vertex_ceiling(n: int) -> None:
    """Raise GraphError when ``n`` exceeds ``MAX_VERTICES``."""
    if n > MAX_VERTICES:
        raise GraphError(f"n = {n} exceeds the {MAX_VERTICES}-vertex ceiling of the adjacency lists")


@dataclass(frozen=True, slots=True)
class SignedGraph:
    """Immutable simple graph on vertices 0..n-1 with a +-1 sign per edge.

    Edges are stored as ``(u, v, sign)`` with ``u < v``, sorted by ``(u, v)``.
    The constructor normalizes edge orientation and rejects fields that are
    not exactly ``int`` (``bool`` is not), loops, duplicate edges,
    out-of-range endpoints and signs outside {+1, -1}.  Parsed edge
    lists and graphs derived from valid ones skip these checks (``_trusted``).

    A graph is its ``n`` and ``edges`` and nothing else: the class is
    slotted, so no adjacency or other derived value can be cached on it.
    Traversals build a transient one (``_neighbor_lists``); ``has_edge``
    and ``sign`` binary-search the sorted edges.  The accessors raise
    GraphError for a vertex outside 0..n-1.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        if type(n) is not int:
            raise GraphError(f"n must be an integer, got {n!r}")
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        norm = []
        for e in edges:
            try:
                u, v, s = e
            except (TypeError, ValueError):
                raise GraphError(f"edge must be a (u, v, sign) triple, got {e!r}")
            if type(u) is not int or type(v) is not int or type(s) is not int:
                raise GraphError(f"edge fields must be integers, got {[u, v, s]!r}")
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            if s not in (1, -1):
                raise GraphError(f"edge ({u},{v}) has sign {s!r}, expected 1 or -1")
            if u > v:
                u, v = v, u
            norm.append((u, v, s))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a[:2] == b[:2]:
                raise GraphError(f"duplicate edge ({a[0]},{a[1]})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> SignedGraph:
        """Store ``edges`` unchecked.  They must be in normal form: ``n >= 0``,
        ``0 <= u < v < n``, ``s`` in {1, -1}, and the ``(u, v)`` strictly ascending."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", tuple(edges))
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def _vertex(self, v: int) -> int:
        """``v``, or GraphError when it is not a vertex of the graph."""
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's neighbors, ascending, from a transient adjacency: O(n + m)."""
        return tuple(_neighbor_lists(self)[self._vertex(v)])

    def degree(self, v: int) -> int:
        """O(n + m), like ``neighbors``."""
        return len(self.neighbors(v))

    def _edge_sign(self, u: int, v: int) -> int:
        """The sign of the edge uv, 0 if there is none; a binary search, O(log m)."""
        key = (min(self._vertex(u), self._vertex(v)), max(u, v))
        i = bisect_left(self.edges, key)
        return self.edges[i][2] if i < self.m and self.edges[i][:2] == key else 0

    def has_edge(self, u: int, v: int) -> bool:
        return self._edge_sign(u, v) != 0

    def sign(self, u: int, v: int) -> int:
        if s := self._edge_sign(u, v):
            return s
        raise GraphError(f"no edge ({u},{v})")

    @property
    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, _ in self.edges)

    def cyclomatic_number(self) -> int:
        return self.m - self.n + len(_component_vertex_sets(self))

    def all_positive(self) -> bool:
        return all(s == 1 for _, _, s in self.edges)


@dataclass(frozen=True)
class CycleWitness:
    """A cycle of the host graph with its sign.

    ``vertices`` is the canonical orientation: smallest vertex first, then
    the smaller of its two cycle-neighbors.  ``sign`` is the product of the
    edge signs along the cycle and equals +1 iff ``neg_edge_count`` is even.
    """

    vertices: tuple[int, ...]
    sign: int
    neg_edge_count: int

    def __len__(self) -> int:
        return len(self.vertices)


def cycle_witness(g: SignedGraph, vertices: Sequence[int]) -> CycleWitness:
    """Build the canonical CycleWitness for a vertex cycle of ``g``."""
    k = len(vertices)
    if k < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {k}")
    if len(set(vertices)) != k:
        raise GraphError("cycle vertices must be distinct")
    i = vertices.index(min(vertices))
    rot = tuple(vertices[(i + j) % k] for j in range(k))
    if rot[-1] < rot[1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    # the k vertex pairs are distinct, so the cycle's edges are read in one
    # pass over g.edges rather than by k searches
    pairs = {(min(a, b), max(a, b)) for a, b in zip(rot, rot[1:] + rot[:1])}
    signs = [s for u, v, s in g.edges if (u, v) in pairs]
    if len(signs) < k:
        raise GraphError("cycle has consecutive vertices that no edge joins")
    neg = signs.count(-1)
    return CycleWitness(rot, -1 if neg % 2 else 1, neg)


# -- parsing and serialization -----------------------------------------


def parse_edge_list(text: str) -> SignedGraph:
    """Parse the edge-list format: header ``n m`` then ``m`` lines ``u v s``.

    ``#`` starts a comment line and blank lines are ignored.  Each malformed
    construct raises a ParseError naming the 1-based line number.

    The text is checked a column at a time (``_parse_columns``); a text
    that check refuses goes to the line scan ``_parse_lines``, which gives
    the same graph or names the first bad line.
    """
    g = _parse_columns(text)
    return g if g is not None else _parse_lines(text)


def _parse_columns(text: str) -> SignedGraph | None:
    """The graph of a valid edge list, checked column by column with
    builtins; None for any text it does not accept, malformed or not.

    It accepts exactly what ``_parse_lines`` accepts and builds the same
    graph: comment lines go before tokenizing (so a long comment is never
    split), every field goes through ``int`` in one pass, each column is
    checked whole (range by min and max, loops, signs), and the keys
    u*n + v of the oriented edges find duplicates.  Strictly ascending keys, the order
    ``serialize_edge_list`` writes, are the normal form already, so those
    edges are neither sorted nor hashed.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    # tuples, not the lists str.split returns: the collector untracks a
    # tuple of strings at its first pass, so a long text's rows do not make
    # every later pass slower
    rows = list(filter(None, map(tuple, map(str.split, lines))))
    del lines
    try:
        n, m = map(int, rows[0])
    except (IndexError, ValueError):
        return None
    del rows[0]
    if n < 0 or len(rows) != m:
        return None
    if not m:
        return SignedGraph._trusted(n, ())
    if set(map(len, rows)) != {3}:
        return None
    try:
        fields = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        return None
    del rows
    us, vs, ss = fields[0::3], fields[1::3], fields[2::3]
    del fields
    if (
        min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n
        or any(map(operator.eq, us, vs))
        or not set(ss) <= {1, -1}
    ):
        return None
    if any(map(operator.gt, us, vs)):
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
    keys = list(map(operator.add, map(operator.mul, us, repeat(n)), vs))
    if all(map(operator.lt, keys, islice(keys, 1, None))):
        return SignedGraph._trusted(n, zip(us, vs, ss))
    if len(set(keys)) != m:
        return None
    return SignedGraph._trusted(n, sorted(zip(us, vs, ss)))


def _parse_lines(text: str) -> SignedGraph:
    """``parse_edge_list`` one line at a time: the reference parser, and the
    one that names the first bad line of a malformed text."""
    header = None
    body: list[tuple[int, tuple[int, int, int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: header must be 'n m', got {raw!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: header must be two integers, got {raw!r}")
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: header counts must be nonnegative")
            header = (n, m)
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: edge must be 'u v s', got {raw!r}")
        try:
            u, v, s = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: edge fields must be integers, got {raw!r}")
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex out of range 0..{n - 1} in {raw!r}")
        if u == v:
            raise ParseError(f"line {lineno}: loop edge at vertex {u}")
        if s not in (1, -1):
            raise ParseError(f"line {lineno}: sign must be 1 or -1, got {s}")
        body.append((lineno, (u, v, s)))
    if header is None:
        raise ParseError("line 1: empty input, expected 'n m' header")
    n, m = header
    if len(body) != m:
        raise ParseError(f"header announced {m} edges but {len(body)} were given")
    seen: dict[tuple[int, int], int] = {}
    for lineno, (u, v, _) in body:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u},{v}), first at line {seen[key]}")
        seen[key] = lineno
    return SignedGraph._trusted(n, sorted((min(u, v), max(u, v), s) for _, (u, v, s) in body))


def serialize_edge_list(g: SignedGraph) -> str:
    """Emit the edge-list text format, edges sorted by (u, v)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {s}" for u, v, s in g.edges)
    return "\n".join(lines) + "\n"


def to_json(g: SignedGraph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v, s] for u, v, s in g.edges]})


def from_json(text: str) -> SignedGraph:
    try:
        obj = json.loads(text)
        return SignedGraph(obj["n"], [tuple(e) for e in obj["edges"]])
    except (json.JSONDecodeError, KeyError, TypeError, RecursionError, GraphError) as exc:
        raise ParseError(f"bad JSON graph: {exc}")


# -- connectivity, components, cut-points -------------------------------


def _neighbor_lists(g: SignedGraph) -> list[list[int]]:
    """Every vertex's neighbors, ascending, from one pass over ``g.edges``.

    The package's one adjacency builder.  It is transient, as a graph
    cannot hold it, so it is freed with the caller's last reference.  A
    vertex's degree is the length of its list.  The order is ascending
    because the edges are sorted by (u, v) with u < v: each vertex meets
    its smaller neighbors first, ascending, then its larger ones.
    """
    check_vertex_ceiling(g.n)
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _component_vertex_sets(
    g: SignedGraph, skip: int | None = None, adj: Sequence[Sequence[int]] | None = None
) -> list[list[int]]:
    """Ascending label lists of the components of ``g`` less the vertex ``skip``,
    searched on ``adj``, ``g``'s neighbor lists (built here if None)."""
    if adj is None:
        adj = _neighbor_lists(g)
    seen = [False] * g.n
    if skip is not None:
        seen[skip] = True
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for x in comp:  # the list grows as the search reaches new vertices
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        if len(comp) == g.n:  # connected: no sort
            return [list(range(g.n))]
        comp.sort()
        out.append(comp)
    return out


def is_connected(g: SignedGraph) -> bool:
    return len(_component_vertex_sets(g)) <= 1


def components(g: SignedGraph) -> list[tuple[SignedGraph, tuple[int, ...]]]:
    """Split into connected components.

    Returns one ``(subgraph, vertex_map)`` pair per component where
    ``vertex_map[i]`` is the original label of the component's vertex ``i``.
    Components are ordered by smallest original vertex.  A connected ``g``
    is returned itself; an isolated vertex of a larger graph is built as an
    edgeless graph, without a scan of ``g``'s edges.
    """
    return [
        (_induced(g, comp) if len(comp) > 1 or g.n == 1 else SignedGraph._trusted(1, ()), tuple(comp))
        for comp in _component_vertex_sets(g)
    ]


def _induced(g: SignedGraph, keep: Sequence[int]) -> SignedGraph:
    """Induced subgraph on the ascending labels ``keep``, relabeled 0..len-1;
    ``g`` itself when ``keep`` is every vertex."""
    if len(keep) == g.n:
        return g
    back = {old: new for new, old in enumerate(keep)}
    edges = [(back[u], back[v], s) for u, v, s in g.edges if u in back and v in back]
    return SignedGraph._trusted(len(keep), edges)


#: How to sign an induced subgraph from any signing of its host's underlying
#: graph: the subgraph's order, then, per subgraph edge in its normal order,
#: the host edge's index and the relabeled endpoints.
InducedPlan = tuple[int, tuple[tuple[int, int, int], ...]]


def _induced_plan(g: SignedGraph, keep: Sequence[int]) -> InducedPlan:
    """The plan of ``_induced(g, keep)``; it depends on g's underlying graph only."""
    back = {old: new for new, old in enumerate(keep)}
    return len(keep), tuple(
        (i, back[u], back[v]) for i, (u, v, _) in enumerate(g.edges) if u in back and v in back
    )


def _signed_part(plan: InducedPlan, signs: Sequence[int]) -> SignedGraph:
    """The planned subgraph with its edges signed by ``signs``, in plan order.

    Relabeling ascending labels keeps the host's (u, v) order, so the edges
    are already in normal form.
    """
    n, edge_map = plan
    return SignedGraph._trusted(n, [(u, v, s) for (_, u, v), s in zip(edge_map, signs)])


def cut_points(g: SignedGraph) -> frozenset[int]:
    """Vertices whose deletion disconnects ``g`` (Hopcroft-Tarjan lowpoints).

    Requires ``g`` connected (the same DFS checks it); callers decompose first.
    """
    if g.n == 0:
        raise GraphError("cut_points: graph has no vertices")
    parent, _, disc, low = _dfs_forest(g)
    if parent.count(-1) > 1:
        raise GraphError("cut_points: input graph is not connected")
    # the root 0 is a cut point iff it has two children, any other vertex
    # iff some child's subtree has no back edge above it
    points = {p for v, p in enumerate(parent) if p > 0 and low[v] >= disc[p]}
    if parent.count(0) > 1:
        points.add(0)
    return frozenset(points)


def delete_vertices(
    g: SignedGraph, remove: Iterable[int]
) -> tuple[SignedGraph, tuple[int, ...]]:
    """Induced subgraph on the complement of ``remove``, relabeled contiguously.

    Returns ``(subgraph, vertex_map)`` with ``vertex_map[i]`` the original
    label of new vertex ``i``.
    """
    drop = set(remove)
    for v in drop:
        if not (0 <= v < g.n):
            raise GraphError(f"delete_vertices: vertex {v} out of range 0..{g.n - 1}")
    keep = [v for v in range(g.n) if v not in drop]
    return _induced(g, keep), tuple(keep)


def pendant_pairs(g: SignedGraph) -> tuple[tuple[int, int], ...]:
    """All (degree-1 vertex, its unique neighbor) pairs, by vertex label."""
    return tuple((v, nb[0]) for v, nb in enumerate(_neighbor_lists(g)) if len(nb) == 1)


# -- switching, balance, canonical form ---------------------------------


def _theta_values(g: SignedGraph, theta: SwitchingFunction | Sequence[int]) -> list[int]:
    vals = []
    for v in range(g.n):
        try:
            t = theta[v]
        except (KeyError, IndexError):
            raise GraphError(f"switching function missing vertex {v}")
        if t not in (1, -1):
            raise GraphError(f"switching value at vertex {v} must be 1 or -1, got {t!r}")
        vals.append(t)
    return vals


def switch(g: SignedGraph, theta: SwitchingFunction | Sequence[int]) -> SignedGraph:
    """Resign ``g`` by theta: each edge sign becomes theta(u)*sign*theta(v)."""
    t = _theta_values(g, theta)
    return SignedGraph._trusted(g.n, [(u, v, t[u] * s * t[v]) for u, v, s in g.edges])


def _dfs_forest(g: SignedGraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """Lexicographically smallest DFS forest (roots at smallest labels).

    Returns (parent, theta, disc, low); parent[root] = -1; neighbors explored
    ascending, on ``_neighbor_lists``.  disc[v] is v's discovery time and
    low[v] its lowpoint: the smallest discovery time reached from v's
    subtree by at most one back edge.  theta(child) = sign(parent, child) *
    theta(parent) with theta(root) = 1, so switching by theta makes every
    forest edge positive; it is set after the search, in discovery order,
    from one pass over ``g.edges`` that picks out the forest edges.
    """
    adj = _neighbor_lists(g)
    parent = [-2] * g.n
    theta = [1] * g.n
    disc = [0] * g.n
    low = [0] * g.n
    order: list[int] = []
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        disc[root] = low[root] = len(order)
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            x, it = stack[-1]
            for y in it:
                if parent[y] == -2:
                    parent[y] = x
                    disc[y] = low[y] = len(order)
                    order.append(y)
                    stack.append((y, iter(adj[y])))
                    break
                if y != parent[x] and disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                stack.pop()
                p = parent[x]
                if p >= 0 and low[x] < low[p]:
                    low[p] = low[x]
    for u, v, s in g.edges:  # theta holds each child's forest-edge sign
        if parent[v] == u or parent[u] == v:
            theta[v if parent[v] == u else u] = s
    for x in order:  # a parent is discovered, and so final, before its child
        theta[x] *= theta[parent[x]] if parent[x] >= 0 else 1
    return parent, theta, disc, low


def _forest_path(parent: list[int], u: int, v: int) -> list[int]:
    """Path from u to v through their common DFS-forest ancestor."""
    anc_u = [u]
    x = u
    while parent[x] >= 0:
        x = parent[x]
        anc_u.append(x)
    pos = {x: i for i, x in enumerate(anc_u)}
    tail = [v]
    y = v
    while y not in pos:
        y = parent[y]
        tail.append(y)
    return anc_u[: pos[y]] + list(reversed(tail))


def is_balanced(g: SignedGraph) -> tuple[bool, SwitchingFunction | CycleWitness]:
    """Decide balance.

    Balanced: returns ``(True, theta)`` where ``switch(g, theta)`` is
    all-positive.  Unbalanced: returns ``(False, witness)`` where the witness
    is a negative cycle.  The algorithm roots a spanning forest, propagates
    theta(child) = sign(parent, child) * theta(parent), then checks every
    non-tree edge.
    """
    parent, theta, _, _ = _dfs_forest(g)
    for u, v, s in g.edges:
        if parent[v] == u or parent[u] == v:
            continue
        if theta[u] * s * theta[v] == -1:
            cyc = _forest_path(parent, u, v)
            return False, cycle_witness(g, cyc)
    return True, {v: theta[v] for v in range(g.n)}


def canonical_signature(g: SignedGraph) -> SignedGraph:
    """Switching-equivalent normal form.

    All edges of the deterministic DFS spanning forest are made positive; the
    remaining edge signs are then exactly the fundamental-cycle signs, which
    switching cannot change.  Hence the form is idempotent and two signatures
    of the same labeled underlying graph are switching equivalent iff their
    canonical forms are equal.
    """
    _, theta, _, _ = _dfs_forest(g)
    return switch(g, theta)


def switching_equivalent(g: SignedGraph, h: SignedGraph) -> bool:
    """True iff g and h share the labeled underlying graph and a switching."""
    if g.n != h.n or g.underlying_edges != h.underlying_edges:
        return False
    return canonical_signature(g) == canonical_signature(h)


# -- cycle inventory (cyclomatic number <= 2) ----------------------------


def find_cycles(g: SignedGraph) -> tuple[CycleWitness, ...]:
    """All cycles of a graph with cyclomatic number at most 2, shortest first.

    Trees have none, unicyclic graphs one; bicyclic graphs have two cycles
    (infinity-type) or three (theta-type).  Everything is read off the one
    DFS forest: each non-tree edge joins a descendant d to its ancestor a
    (Tarjan 1972) and closes the fundamental cycle a..d.  When two such
    cycles share a vertex, the tree paths a1..a2 and d2..d1 closed by both
    back edges form their edge sum, which is a third cycle exactly when its
    vertices are distinct.  Graphs with more independent cycles are rejected.
    """
    parent, _, disc, _ = _dfs_forest(g)
    c = g.m - g.n + parent.count(-1)
    if c > 2:
        raise GraphError(f"find_cycles: cyclomatic number {c} exceeds 2")
    back = [(u, v) if disc[u] < disc[v] else (v, u)
            for u, v, _ in g.edges if parent[v] != u and parent[u] != v]
    paths = [_forest_path(parent, a, d) for a, d in back]
    if len(paths) == 2 and set(paths[0]) & set(paths[1]):
        (a1, d1), (a2, d2) = back
        third = _forest_path(parent, a1, a2) + _forest_path(parent, d2, d1)
        if len(set(third)) == len(third):
            paths.append(third)
    cycles = [cycle_witness(g, path) for path in paths]
    cycles.sort(key=lambda w: (len(w.vertices), w.vertices))
    return tuple(cycles)
