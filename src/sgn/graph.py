"""Signed-graph data model, parsing, and structural queries.

A signed graph is a simple undirected graph together with a sign in
{+1, -1} on every edge.  Vertices are the integers ``0..n-1``; graphs
compare by labeled structure (isomorphism is deliberately not modeled).
All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class GraphError(ValueError):
    """Domain violation: bad vertex, bad sign, disconnected input, ..."""


class ParseError(GraphError):
    """Malformed edge-list or JSON input; the message names the offending line."""


#: A switching function assigns +1 or -1 to every vertex.
SwitchingFunction = Mapping[int, int]


@dataclass(frozen=True)
class SignedGraph:
    """Immutable simple graph on vertices 0..n-1 with a +-1 sign per edge.

    Edges are stored as ``(u, v, sign)`` with ``u < v``, sorted by ``(u, v)``.
    The constructor normalizes edge orientation and rejects loops, duplicate
    edges, out-of-range endpoints and signs outside {+1, -1}.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        norm = []
        for e in edges:
            try:
                u, v, s = e
            except (TypeError, ValueError):
                raise GraphError(f"edge must be a (u, v, sign) triple, got {e!r}")
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

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> tuple[dict[int, int], ...]:
        adj: tuple[dict[int, int], ...] = tuple({} for _ in range(self.n))
        for u, v, s in self.edges:
            adj[u][v] = s
            adj[v][u] = s
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def sign(self, u: int, v: int) -> int:
        try:
            return self._adj[u][v]
        except (KeyError, IndexError):
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
    neg = 0
    for a, b in zip(rot, rot[1:] + rot[:1]):
        if g.sign(a, b) == -1:
            neg += 1
    return CycleWitness(rot, -1 if neg % 2 else 1, neg)


# -- parsing and serialization -----------------------------------------


def parse_edge_list(text: str) -> SignedGraph:
    """Parse the edge-list format: header ``n m`` then ``m`` lines ``u v s``.

    ``#`` starts a comment line and blank lines are ignored.  Each malformed
    construct raises a ParseError naming the 1-based line number.
    """
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
    return SignedGraph(n, [e for _, e in body])


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
        n, edges = obj["n"], [tuple(e) for e in obj["edges"]]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad JSON graph: {exc}")
    # JSON true/false and 3.0 would pass the constructor's range checks
    if type(n) is not int:
        raise ParseError(f"bad JSON graph: n must be an integer, got {n!r}")
    for e in edges:
        if any(type(x) is not int for x in e):
            raise ParseError(f"bad JSON graph: edge fields must be integers, got {list(e)!r}")
    return SignedGraph(n, edges)


# -- connectivity, components, cut-points -------------------------------


def _component_vertex_sets(g: SignedGraph) -> list[list[int]]:
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for y in g._adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comp.sort()
        out.append(comp)
    return out


def is_connected(g: SignedGraph) -> bool:
    return len(_component_vertex_sets(g)) <= 1


def components(g: SignedGraph) -> list[tuple[SignedGraph, tuple[int, ...]]]:
    """Split into connected components.

    Returns one ``(subgraph, vertex_map)`` pair per component where
    ``vertex_map[i]`` is the original label of the component's vertex ``i``.
    Components are ordered by smallest original vertex.
    """
    return [(_induced(g, comp), tuple(comp)) for comp in _component_vertex_sets(g)]


def _induced(g: SignedGraph, keep: Sequence[int]) -> SignedGraph:
    """Induced subgraph on the ascending labels ``keep``, relabeled 0..len-1."""
    back = {old: new for new, old in enumerate(keep)}
    edges = [(back[u], back[v], s) for u, v, s in g.edges if u in back and v in back]
    return SignedGraph(len(keep), edges)


def cut_points(g: SignedGraph) -> frozenset[int]:
    """Vertices whose deletion disconnects ``g`` (Hopcroft-Tarjan lowpoints).

    Requires ``g`` connected (the same DFS checks it); callers decompose first.
    """
    if g.n == 0:
        raise GraphError("cut_points: graph has no vertices")
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    points: set[int] = set()
    timer = 0
    # iterative DFS: (vertex, neighbor iterator)
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0
    stack = [(0, iter(g.neighbors(0)))]
    while stack:
        x, it = stack[-1]
        advanced = False
        for y in it:
            if disc[y] == -1:
                parent[y] = x
                if x == 0:
                    root_children += 1
                disc[y] = low[y] = timer
                timer += 1
                stack.append((y, iter(g.neighbors(y))))
                advanced = True
                break
            elif y != parent[x]:
                low[x] = min(low[x], disc[y])
        if not advanced:
            stack.pop()
            if stack:
                px = stack[-1][0]
                low[px] = min(low[px], low[x])
                if px != 0 and low[x] >= disc[px]:
                    points.add(px)
    if timer < n:
        raise GraphError("cut_points: input graph is not connected")
    if root_children > 1:
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
    out = []
    for v in range(g.n):
        if g.degree(v) == 1:
            out.append((v, g.neighbors(v)[0]))
    return tuple(out)


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
    return SignedGraph(g.n, [(u, v, t[u] * s * t[v]) for u, v, s in g.edges])


def _dfs_forest(g: SignedGraph) -> tuple[list[int], list[int]]:
    """Lexicographically smallest DFS forest (roots at smallest labels).

    Returns (parent, theta); parent[root] = -1; neighbors explored ascending.
    theta is propagated along the forest, theta(child) = sign(parent, child)
    * theta(parent) with theta(root) = 1, so switching by theta makes every
    forest edge positive.
    """
    parent = [-2] * g.n
    theta = [1] * g.n
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        stack = [(root, iter(g.neighbors(root)))]
        while stack:
            x, it = stack[-1]
            for y in it:
                if parent[y] == -2:
                    parent[y] = x
                    theta[y] = g.sign(x, y) * theta[x]
                    stack.append((y, iter(g.neighbors(y))))
                    break
            else:
                stack.pop()
    return parent, theta


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
    parent, theta = _dfs_forest(g)
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
    _, theta = _dfs_forest(g)
    return switch(g, theta)


def switching_equivalent(g: SignedGraph, h: SignedGraph) -> bool:
    """True iff g and h share the labeled underlying graph and a switching."""
    if g.n != h.n or g.underlying_edges != h.underlying_edges:
        return False
    return canonical_signature(g) == canonical_signature(h)


# -- cycle inventory (cyclomatic number <= 2) ----------------------------


def find_cycles(g: SignedGraph) -> tuple[CycleWitness, ...]:
    """All cycles of a graph with cyclomatic number at most 2.

    Trees have none, unicyclic graphs one; bicyclic graphs have two cycles
    (infinity-type) or three (theta-type, where the two fundamental cycles
    share edges and their symmetric difference is the third cycle).  Graphs
    with more independent cycles are rejected.
    """
    c = g.cyclomatic_number()
    if c > 2:
        raise GraphError(f"find_cycles: cyclomatic number {c} exceeds 2")
    parent, _ = _dfs_forest(g)
    tree = set()
    for v in range(g.n):
        if parent[v] >= 0:
            tree.add((min(v, parent[v]), max(v, parent[v])))
    fundamental = []
    for u, v, _ in g.edges:
        if (u, v) not in tree:
            fundamental.append(_forest_path(parent, u, v))
    cycles = [cycle_witness(g, cyc) for cyc in fundamental]
    if len(fundamental) == 2:
        e1 = _cycle_edge_set(fundamental[0])
        e2 = _cycle_edge_set(fundamental[1])
        if e1 & e2:
            third = _walk_cycle(e1 ^ e2)
            cycles.append(cycle_witness(g, third))
    cycles.sort(key=lambda w: (len(w.vertices), w.vertices))
    return tuple(cycles)


def _cycle_edge_set(vertices: Sequence[int]) -> set[tuple[int, int]]:
    out = set()
    for a, b in zip(vertices, list(vertices[1:]) + [vertices[0]]):
        out.add((min(a, b), max(a, b)))
    return out


def _walk_cycle(edge_set: set[tuple[int, int]]) -> list[int]:
    adj: dict[int, list[int]] = {}
    for a, b in edge_set:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(vs) != 2 for vs in adj.values()):
        raise GraphError("edge set is not a single cycle")
    start = min(adj)
    walk = [start]
    prev = None
    cur = start
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        step = nxt[0]
        if step == start:
            break
        walk.append(step)
        prev, cur = cur, step
    if len(walk) != len(adj):
        raise GraphError("edge set is not a single cycle")
    return walk
