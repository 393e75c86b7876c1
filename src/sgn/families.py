"""Deterministic generators for paths, cycles, stars, bicyclic families,
the figure graphs G1..G8 / H1..H13, and nullity-set realizers.

Negative edges are always placed at canonical positions (the first edges of
a cycle or path); correctness under repositioning is covered by switching
invariance, which the verification suites test separately.  Each bicyclic
class has one realizer row in ``_REALIZERS``: its least order, the offset
that ends its nullity set [0, n - offset], and one builder each for k = 0,
the top k and the k between.  Realizers re-check their own output with the
structural route before returning, so a mis-transcribed construction fails
loudly instead of producing a wrong witness.  Their outputs are bicyclic
(c = 2), which pendant peeling and the closed forms decide with no matrix,
so the check holds at every order up to the adjacency-list ceiling; the set
sweeps check every witness against the rank oracle on top.
"""

from __future__ import annotations

import inspect

from .graph import MAX_VERTICES, GraphError, SignedGraph, find_cycles, is_connected
from .reduction import nullity_structural


class InternalError(RuntimeError):
    """A construction failed its own oracle self-check; indicates a bug."""


# -- elementary families --------------------------------------------------


def gen_path(n: int) -> SignedGraph:
    """All-positive path 0-1-...-(n-1)."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return SignedGraph(n, [(i, i + 1, 1) for i in range(n - 1)])


def gen_cycle(n: int, s: int = 0) -> SignedGraph:
    """Cycle 0-1-...-(n-1)-0 with the first s edges negative."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    if not (0 <= s <= n):
        raise GraphError(f"negative edge count {s} out of range 0..{n}")
    edges = []
    for i in range(n):
        u, v = i, (i + 1) % n
        edges.append((u, v, -1 if i < s else 1))
    return SignedGraph(n, edges)


def gen_star(k: int) -> SignedGraph:
    """All-positive star on k vertices: center 0 with k - 1 leaves."""
    if k < 1:
        raise GraphError(f"star needs k >= 1, got {k}")
    return SignedGraph(k, [(0, i, 1) for i in range(1, k)])


def gen_infinity(p: int, q: int, l: int, sp: int = 0, sq: int = 0) -> SignedGraph:
    """Two cycles C_p and C_q joined by a path with l vertices.

    With l = 1 the cycles share a single vertex; with l >= 2 the path's
    endpoints lie on the two cycles, so the graph has p + q + l - 2 vertices.
    The first sp edges of C_p and the first sq edges of C_q are negative,
    path edges positive.
    """
    if p < 3 or q < 3:
        raise GraphError(f"cycle lengths must be >= 3, got p={p}, q={q}")
    if l < 1:
        raise GraphError(f"connecting path needs l >= 1 vertices, got {l}")
    if not (0 <= sp <= p and 0 <= sq <= q):
        raise GraphError("negative edge counts out of range")
    edges = []
    for i in range(p):
        u, v = i, (i + 1) % p
        edges.append((u, v, -1 if i < sp else 1))
    if l == 1:
        q_cycle = [0] + list(range(p, p + q - 1))
    else:
        path = [0] + list(range(p, p + l - 1))
        edges.extend((a, b, 1) for a, b in zip(path, path[1:]))
        q_cycle = list(range(p + l - 2, p + l - 2 + q))
    for i in range(q):
        u, v = q_cycle[i], q_cycle[(i + 1) % q]
        edges.append((u, v, -1 if i < sq else 1))
    return SignedGraph(p + q + l - 2, edges)


def gen_theta(p: int, q: int, l: int, s1: int = 0, s2: int = 0, s3: int = 0) -> SignedGraph:
    """Two hubs joined by three internally disjoint paths of edge-lengths
    p, q, l (each >= 1, at most one equal to 1), on p + q + l - 1 vertices.

    ``s1``, ``s2``, ``s3`` give the negative-edge parity of each path; a
    parity of 1 makes the path's first edge (the one leaving hub 0) negative.
    """
    lengths, signs = (p, q, l), (s1, s2, s3)
    if any(x < 1 for x in lengths):
        raise GraphError(f"path lengths must be >= 1, got {lengths}")
    if lengths.count(1) > 1:
        raise GraphError("at most one of the three path lengths may be 1")
    if any(x not in (0, 1) for x in signs):
        raise GraphError(f"signs must be three parities in {{0,1}}, got {signs!r}")
    edges = []
    nxt = 2  # hubs are 0 and 1
    for length, parity in zip(lengths, signs):
        chain = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            edges.append((a, b, -1 if (i == 0 and parity) else 1))
    return SignedGraph(p + q + l - 1, edges)


# -- figure graphs --------------------------------------------------------
#
# The fixed-size H graphs and the parametric G graphs reproduce the paper's
# constructions.  Where a drawing leaves the attachment vertex ambiguous the
# choice below is the one whose pendant-deletion sequence reproduces the
# stated reduced graph; each figure's entry records the layout.


def _broom(n: int, core: list, junction: int, path: int) -> SignedGraph:
    """``core`` plus a path of ``path`` new vertices leaving ``junction``;
    the remaining vertices up to n - 1 become leaves at the path's far end,
    or at ``junction`` itself when ``path`` is 0.  New vertices are numbered
    on from the core's largest label."""
    first = 1 + max(max(u, v) for u, v, _ in core)
    chain = [junction, *range(first, first + path)]
    return SignedGraph(n, [
        *core,
        *((a, b, 1) for a, b in zip(chain, chain[1:])),
        *((chain[-1], j, 1) for j in range(first + path, n)),
    ])


_TRIANGLE = [(0, 1, -1), (0, 2, 1), (1, 2, 1)]  # unbalanced

# triangle {0,1,2} and quadrangle {0,3,4,5} sharing vertex 0;
# triangle unbalanced, quadrangle balanced
_INFINITY341 = [(0, 1, 1), (1, 2, -1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (4, 5, 1), (0, 5, 1)]

# hubs 0,1 (both triangles unbalanced via the negative hub edge), outer 2,3
_DIAMOND = [(0, 1, -1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1)]


def _bowtie(sp: int = 1, sq: int = 1) -> list:
    # triangles {0,1,2} and {2,3,4} sharing vertex 2
    return [
        (0, 1, -1 if sp else 1),
        (0, 2, 1),
        (1, 2, 1),
        (2, 3, 1),
        (2, 4, 1),
        (3, 4, -1 if sq else 1),
    ]


def _infinity441(s_free_quad: int) -> list:
    # quadrangles {0,1,2,3} and {0,4,5,6} sharing vertex 0; the first
    # quadrangle (the one that never carries the pendant) has parity
    # s_free_quad, the second is balanced
    return [
        (0, 1, -1 if s_free_quad else 1),
        (1, 2, 1),
        (2, 3, 1),
        (0, 3, 1),
        (0, 4, 1),
        (4, 5, 1),
        (5, 6, 1),
        (0, 6, 1),
    ]


def _fig_H3(n: int) -> SignedGraph:
    """Cycle on n - 1 vertices plus one pendant attached at vertex 0."""
    if n is None or n < 4:
        raise GraphError("H3 needs n >= 4 (cycle plus pendant)")
    return _broom(n, list(gen_cycle(n - 1, 1).edges), 0, 1)


def _fig_H10(s: int = 0) -> SignedGraph:
    """Two quadrangles sharing vertex 0; pendant at quad vertex 4.

    The pendant-free quadrangle {0,1,2,3} has negative-edge parity ``s``;
    the nullity is 2 when it is balanced and 0 when unbalanced.
    """
    if s not in (0, 1):
        raise GraphError(f"H10 parity must be 0 or 1, got {s}")
    return _broom(8, _infinity441(s), 4, 1)


def _fig_H13(sp: int = 1, sq: int = 1) -> SignedGraph:
    """Bowtie: triangles {0,1,2} and {2,3,4} sharing vertex 2, with
    configurable balanceness parities.  Equal parities give nullity 0."""
    if sp not in (0, 1) or sq not in (0, 1):
        raise GraphError("H13 parities must be 0 or 1")
    return SignedGraph(5, _bowtie(sp, sq))


def _fig_G1(n: int) -> SignedGraph:
    """Unbalanced triangle {0,1,2} joined by edge 0-3 to balanced quadrangle
    {3,4,5,6}, with n - 7 pendant leaves at the triangle's junction vertex 0.

    Deleting one leaf with vertex 0 leaves an edge, the quadrangle, and
    n - 8 isolated vertices, so the nullity is n - 6 (and equals n - 6 for
    n = 7 as well, where the graph is the bare infinity graph).
    """
    if n is None or n < 7:
        raise GraphError("G1 needs n >= 7")
    core = [(0, 1, 1), (1, 2, -1), (0, 2, 1), (0, 3, 1)]
    core += [(3, 4, 1), (4, 5, 1), (5, 6, 1), (3, 6, 1)]
    return _broom(n, core, 0, 0)


def _fig_G2(n: int, k: int) -> SignedGraph:
    """Two unbalanced triangles joined through a path, with extra leaves.

    Triangle {0,1,2} carries k + 1 leaves at its junction vertex 2; from 2 a
    path with n - k - 7 interior vertices leads to the second triangle's
    junction.  Valid for 1 <= k <= n - 7; the nullity is k.
    """
    _check_nk(n, k, high_offset=7, name="G2")
    t = n - 3  # second triangle {t, t+1, t+2}, junction t
    chain = [2, *range(k + 4, t + 1)]
    edges = _TRIANGLE + [(2, j, 1) for j in range(3, k + 4)]
    edges += [(a, b, 1) for a, b in zip(chain, chain[1:])]
    edges += [(t, t + 1, -1), (t, t + 2, 1), (t + 1, t + 2, 1)]
    return SignedGraph(n, edges)


def _fig_G3(n: int) -> SignedGraph:
    """Bowtie with both triangles unbalanced and n - 5 leaves at the outer
    vertex 4.  Nullity n - 6 (needs n >= 6 so at least one leaf exists)."""
    if n is None or n < 6:
        raise GraphError("G3 needs n >= 6")
    return _broom(n, _bowtie(), 4, 0)


def _fig_G4(n: int, k: int) -> SignedGraph:
    """Bowtie with both triangles unbalanced, a path with n - k - 7 interior
    vertices from outer vertex 4, ending in a star center with k + 1 leaves.

    Valid for 1 <= k <= n - 7; the nullity is k.
    """
    _check_nk(n, k, high_offset=7, name="G4")
    return _broom(n, _bowtie(), 4, n - k - 6)


def _fig_G5(n: int) -> SignedGraph:
    """Diamond (both triangles unbalanced) with a pendant at outer vertex 2
    and a path of n - 5 vertices at outer vertex 3.  Nullity 0."""
    if n is None or n < 6:
        raise GraphError("G5 needs n >= 6")
    return _broom(n, _DIAMOND + [(2, 4, 1)], 3, n - 5)


def _fig_G6(n: int) -> SignedGraph:
    """Diamond (both triangles unbalanced) with n - 4 leaves at hub 0.
    Nullity n - 4."""
    if n is None or n < 5:
        raise GraphError("G6 needs n >= 5")
    return _broom(n, _DIAMOND, 0, 0)


def _fig_G7(n: int, k: int) -> SignedGraph:
    """Diamond (both triangles unbalanced), path with n - k - 5 interior
    vertices from outer vertex 3, star center with k leaves at the far end.

    Needs k >= 1.  Realizes nullity k when n - k is odd.
    """
    _check_nk(n, k, high_offset=5, name="G7")
    return _broom(n, _DIAMOND, 3, n - k - 4)


def _fig_G8(n: int, k: int) -> SignedGraph:
    """Theta graph (hub edge 0-1, apex 2, two-edge path 0-3-4-1) with an
    unbalanced triangle and balanced quadrangle, a path with n - k - 5
    interior vertices from the apex, and a star center with k - 1 leaves.

    With k = 1 the star degenerates to the bare path endpoint; the reduction
    then ends at the theta core itself, whose nullity is 1.  Realizes
    nullity k when n - k is even.
    """
    _check_nk(n, k, high_offset=5, name="G8")
    core = [(0, 1, 1), (0, 2, -1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (1, 4, 1)]
    return _broom(n, core, 2, n - k - 4)


def _check_nk(n, k, *, high_offset, name):
    if n is None or k is None:
        raise GraphError(f"{name} needs both n and k")
    if k < 1:
        raise GraphError(f"{name} needs k >= 1, got k={k}")
    if n - k < high_offset:
        raise GraphError(f"{name} needs k <= n - {high_offset}, got n={n}, k={k}")


# Each builder's signature says what it takes: ``n`` and ``k`` for the sizes,
# any other parameter is a sign keyword.
_FIGURES = {
    # unbalanced triangle 0,1,2 with the path 2-3-4-5 attached
    "H1": lambda: _broom(6, _TRIANGLE, 2, 3),
    # unbalanced triangle 0,1,2 with pendant 3 and path 2-4-5, all at 2
    "H2": lambda: _broom(6, _TRIANGLE + [(2, 3, 1)], 2, 2),
    "H3": _fig_H3,
    # bowtie (unbalanced triangles) with a pendant at outer vertex 4
    "H4": lambda: _broom(6, _bowtie(), 4, 1),
    # bowtie (unbalanced triangles) with a pendant at the shared vertex 2
    "H5": lambda: _broom(6, _bowtie(), 2, 1),
    # triangle/quadrangle sharing vertex 0 with a pendant at: triangle
    # vertex 1 (H6), the shared vertex (H7), quad vertex 3 adjacent to the
    # shared vertex (H8), quad vertex 4 opposite it (H9)
    "H6": lambda: _broom(7, _INFINITY341, 1, 1),
    "H7": lambda: _broom(7, _INFINITY341, 0, 1),
    "H8": lambda: _broom(7, _INFINITY341, 3, 1),
    "H9": lambda: _broom(7, _INFINITY341, 4, 1),
    "H10": _fig_H10,
    # two balanced quadrangles sharing vertex 0 with a pendant at quad
    # vertex 5 opposite the shared vertex (H11), or at the shared vertex (H12)
    "H11": lambda: _broom(8, _infinity441(0), 5, 1),
    "H12": lambda: _broom(8, _infinity441(0), 0, 1),
    "H13": _fig_H13,
    "G1": _fig_G1,
    "G2": _fig_G2,
    "G3": _fig_G3,
    "G4": _fig_G4,
    "G5": _fig_G5,
    "G6": _fig_G6,
    "G7": _fig_G7,
    "G8": _fig_G8,
}


def gen_figure(fig_id: str, /, n: int | None = None, k: int | None = None, **signs) -> SignedGraph:
    """Build a figure graph by identifier (H1..H13, G1..G8).

    H3 and G1/G3/G5/G6 take ``n``; G2/G4/G7/G8 take ``n`` and ``k``; the
    fixed-size H graphs take neither, and an ``n`` or ``k`` given to a figure
    that does not take it is rejected.  H10 takes ``s`` (parity of the
    pendant-free quadrangle, default balanced); H13 takes ``sp``/``sq``
    (triangle parities, default both unbalanced).  ``fig_id`` is
    positional-only, so a ``fig_id`` keyword is one more sign parameter,
    rejected as any other a figure does not take.
    """
    fid = fig_id.upper()
    builder = _FIGURES.get(fid)
    if builder is None:
        raise GraphError(f"unknown figure id {fig_id!r}")
    params = inspect.signature(builder).parameters
    sizes = {"n": n, "k": k}
    unused = sorted(p for p, val in sizes.items() if val is not None and p not in params)
    if unused:
        raise GraphError(f"{fid} got unexpected parameters {unused}")
    extra = sorted(signs.keys() - params.keys())
    if extra:
        if params.keys() <= sizes.keys():
            raise GraphError(f"{fid} takes no sign parameters, got {extra}")
        raise GraphError(f"{fid} got unexpected parameters {extra}")
    return builder(**{p: sizes[p] for p in params if p in sizes}, **signs)


# -- nullity-set realizers ------------------------------------------------


def _bplusplus_zero(n: int) -> SignedGraph:
    # negative triangle sharing a vertex with C_q, q = n - 2, whose parity
    # (q - 1) // 2 mod 2 gives nullity 0 in both infinity cases: for odd q
    # it makes the odd-odd invariant even, for even q it leaves C_q itself
    # with nullity 0
    q = n - 2
    return gen_infinity(3, q, 1, 1, (q - 1) // 2 % 2)


# class -> (least n, offset, builder at k = 0, builder at k = n - offset,
# builder for the k between): the nullity set at n is [0, n - offset].
# The builders look gen_infinity up by name when called, so a rebinding of
# the module's name (perfbench/tracing.py makes one) reaches them.
_REALIZERS = {
    "BPlus": (7, 6, lambda n: gen_infinity(3, 3, n - 4, 1, 1), _fig_G1, _fig_G2),
    "BPlusPlus": (8, 6, _bplusplus_zero, _fig_G3, _fig_G4),
    "Theta": (6, 4, _fig_G5, _fig_G6, lambda n, k: (_fig_G7 if (n - k) % 2 else _fig_G8)(n, k)),
}


def realize_nullity(class_name: str, n: int, k: int) -> SignedGraph:
    """An unbalanced signed graph of the given class with nullity exactly k.

    Classes and ranges:  ``BPlus`` (infinity base, path length >= 2): n >= 7,
    0 <= k <= n - 6.  ``BPlusPlus`` (infinity base, shared vertex): n >= 8,
    0 <= k <= n - 6.  ``Theta``: n >= 6, 0 <= k <= n - 4.

    Each class is one ``_REALIZERS`` row: k = 0 comes from an exact
    infinity-formula instance or the theta chain G5, maximal k from
    G1/G3/G6, and the k between from G2/G4, or for theta from G7/G8 by the
    parity of n - k.  The output is re-verified with the structural route
    before being returned.
    """
    if class_name not in _REALIZERS:
        raise GraphError(
            f"unknown class {class_name!r}; expected BPlus, BPlusPlus, or Theta"
        )
    n_min, offset, zero, top, between = _REALIZERS[class_name]
    if n < n_min:
        raise GraphError(f"{class_name} realizer needs n >= {n_min}")
    if not (0 <= k <= n - offset):
        raise GraphError(f"{class_name} nullity set at n={n} is [0,{n - offset}], got k={k}")
    g = zero(n) if k == 0 else top(n) if k == n - offset else between(n, k)
    got, _ = nullity_structural(g)
    if got != k:
        raise InternalError(
            f"realize_nullity({class_name}, n={n}, k={k}) built a graph with "
            f"nullity {got}; the construction is mis-transcribed"
        )
    return g


def bicyclic_class(g: SignedGraph) -> str:
    """Classify a connected bicyclic graph by its base.

    "BPlus": two vertex-disjoint cycles (infinity base with a real connecting
    path), "BPlusPlus": two cycles sharing one vertex, "Theta": three cycles.
    """
    if not is_connected(g):
        raise GraphError("bicyclic_class needs a connected graph")
    if g.m != g.n + 1:
        raise GraphError(f"bicyclic graph needs m = n + 1, got n={g.n}, m={g.m}")
    cycles = find_cycles(g)
    if len(cycles) == 3:
        return "Theta"
    a, b = (set(w.vertices) for w in cycles)
    return "BPlusPlus" if a & b else "BPlus"


# -- family-spec strings (CLI surface) ------------------------------------


# spec kind -> builder; the builder's signature names the spec's keys.  The
# figure row is an adapter so that every key after ``id``, ``n`` and ``k``
# included, is converted in spec order, and the id reaches gen_figure
# positionally.
_SPECS = {
    "path": gen_path,
    "cycle": gen_cycle,
    "star": gen_star,
    "infinity": gen_infinity,
    "theta": gen_theta,
    "figure": lambda id, **params: gen_figure(id, **params),
    "realize": realize_nullity,
}


def parse_family_spec(spec: str) -> SignedGraph:
    """Build a graph from a spec string like ``cycle:n=6,s=1`` or
    ``figure:id=G1,n=10`` or ``realize:class=BPlus,n=12,k=6``.

    The kinds are the keys of ``_SPECS``, and a spec's keys are the
    parameters of its kind's builder, bound in signature order: one with no
    default is required, ``**`` takes the remaining keys in spec order, and
    a key left over after the build is an error.  ``id`` and ``class``
    (``realize_nullity``'s ``class_name``) are text, every other value an
    integer no larger than ``MAX_VERTICES``.  A leading ``family:`` prefix
    is accepted and ignored.
    """
    text = spec.strip()
    if text.startswith("family:"):
        text = text[len("family:"):]
    kind, _, arg_text = text.partition(":")
    kind = kind.strip().lower()
    args: dict[str, str] = {}
    if arg_text.strip():
        for item in arg_text.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise GraphError(f"bad family parameter {item!r}, expected key=value")
            key = key.strip()
            if key in args:
                raise GraphError(f"family parameter {key} given more than once")
            args[key] = val.strip()

    def intval(key):
        raw = args.pop(key)
        try:
            val = int(raw)
        except ValueError:
            raise GraphError(f"parameter {key} must be an integer, got {raw!r}")
        if val > MAX_VERTICES:
            raise GraphError(f"parameter {key} = {val} exceeds the {MAX_VERTICES}-vertex ceiling")
        return val

    builder = _SPECS.get(kind)
    if builder is None:
        raise GraphError(f"unknown family kind {kind!r}")
    kwargs = {}
    for name, param in inspect.signature(builder).parameters.items():
        key = "class" if name == "class_name" else name
        if param.kind is param.VAR_KEYWORD:
            kwargs.update({rest: intval(rest) for rest in list(args)})
        elif key in args:
            kwargs[name] = args.pop(key) if key in ("id", "class") else intval(key)
        elif param.default is param.empty:
            raise GraphError(f"family {kind!r} needs parameter {key}")
    g = builder(**kwargs)
    if args:
        raise GraphError(f"unused family parameters {sorted(args)}")
    return g
