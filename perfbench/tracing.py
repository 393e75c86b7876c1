"""Span tracing of ``sgn`` from outside the package.

Only a traced run calls ``install``: it rebinds the cross-module callables
listed in ``PATCHES`` to wrappers that open one span per call and restores
the originals on exit.  Spans are kept in memory as (id, parent, name, start,
end); self time is a span's duration minus the time its child spans cover,
accumulated per name as spans close.  Untraced runs call ``assert_unpatched``
so that no wrapper can leak into an end-to-end figure.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MARK = "__perfbench_original__"


def size_bucket(n: int) -> str:
    if n <= 7:
        return "n_le_7"
    if n <= 30:
        return "n_le_30"
    if n <= 120:
        return "n_le_120"
    return "n_gt_120"


BUCKETS = ("n_le_7", "n_le_30", "n_le_120", "n_gt_120")


class Tracer:
    """In-memory spans with per-name self time, call and error counts.

    The first ``keep`` spans are stored for writing out; later ones only feed
    the aggregates.
    """

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.records: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.top_s = 0.0
        self._stack: list[list] = []
        self._next = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, perf_counter(), 0.0, self._next, parent]
        self._next += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list, failed: bool = False) -> None:
        end = perf_counter()
        # frames above this one were left open only if their own close was
        # interrupted (a RecursionError at the limit); drop them
        while self._stack and self._stack.pop() is not frame:
            pass
        name, start, child, idx, parent = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if failed:
            self.errors[name.split(".", 1)[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration
        if idx < self.keep:
            self.records.append((idx, parent, name, start, end))
        else:
            self.dropped += 1

    def unwind(self) -> None:
        """Close spans a failed job left open; called between jobs."""
        while self._stack:
            self.close(self._stack[0], failed=True)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.records):
                fh.write(json.dumps(rec) + "\n")


def _wrap(tracer: Tracer, fn, name, hits: str | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(frame, failed=True)
            raise
        tracer.close(frame)
        if hits is not None and result is not None:
            tracer.hits[hits] += 1
        return result

    setattr(wrapper, MARK, fn)
    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str):
    """One span per ``next()``; the consumer's work between items is outside."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            frame = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(frame)
                return
            except BaseException:
                tracer.close(frame, failed=True)
                raise
            tracer.close(frame)
            yield item

    setattr(wrapper, MARK, fn)
    return wrapper


def _rank_name(args) -> str:
    return "linalg.rank." + size_bucket(len(args[0]))


def _charpoly_name(args) -> str:
    return "linalg.charpoly." + size_bucket(len(args[0]))


def _verify_name(args) -> str:
    return "verify." + args[0]


# (module, attribute, span name or name function, kind).  Every entry is a
# binding some caller looks up at call time: the ``sgn`` package namespace for
# the benchmark's own calls, and each module's globals for calls across
# modules.  Kinds: "call", "gen" (generator, one span per item), "hits" (a
# non-None result counts as a hit of the rule).
PATCHES = (
    # graph
    ("sgn.graph", "SignedGraph.__init__", "graph.construct", "call"),
    ("sgn", "parse_edge_list", "graph.parse", "call"),
    *(
        (mod, fn, "graph." + fn, "call")
        for mod in ("sgn.reduction", "sgn.verify")
        for fn in ("components", "cut_points", "delete_vertices", "pendant_pairs")
    ),
    ("sgn.formulas", "components", "graph.components", "call"),
    ("sgn.verify", "is_balanced", "graph.balance", "call"),
    ("sgn.formulas", "is_balanced", "graph.balance", "call"),
    # enumeration
    ("sgn.enumeration", "connected_graphs_upto_iso", "enumeration.atlas", "call"),
    ("sgn.verify", "iter_signed_corpus", "enumeration.corpus", "gen"),
    ("sgn.verify", "connected_graphs_labeled", "enumeration.labeled", "gen"),
    ("sgn.verify", "bicyclic_graphs_labeled", "enumeration.labeled", "gen"),
    ("sgn.verify", "signed_graphs_mod_switching", "enumeration.switching", "gen"),
    ("sgn.verify", "switching_class_signs", "enumeration.switching", "gen"),
    *(
        ("sgn.verify", fn, "enumeration.sampler", "call")
        for fn in ("random_signed_graph", "random_switching", "random_tree_attached_bicyclic", "force_unbalanced")
    ),
    # linalg
    ("sgn", "nullity_rank", "linalg.nullity_rank", "call"),
    ("sgn", "nullity_charpoly", "linalg.nullity_charpoly", "call"),
    ("sgn.linalg", "rank", _rank_name, "call"),
    ("sgn.linalg", "_charpoly_rows", _charpoly_name, "call"),
    ("sgn.verify", "_charpoly_rows", _charpoly_name, "call"),
    ("sgn.linalg", "adjacency_matrix", "linalg.adjacency", "call"),
    ("sgn.verify", "adjacency_matrix", "linalg.adjacency", "call"),
    # figures
    ("sgn.figures", "_profile_from", "figures.profile", "call"),
    ("sgn.figures", "_eval_profile", "figures.eval", "call"),
    ("sgn.figures", "char_poly_figures", "figures.char_poly_figures", "call"),
    # reduction
    ("sgn", "nullity_structural", "reduction.structural", "call"),
    ("sgn.reduction", "ReductionTrace.replay", "reduction.replay", "call"),
    ("sgn.reduction", "nullity_rank", "reduction.oracle", "call"),
    ("sgn.reduction", "try_cutpoint_case1", "reduction.cutpoint", "hits"),
    ("sgn.reduction", "try_cutpoint_case2", "reduction.cutpoint", "hits"),
    ("sgn.reduction", "nullity_cycle", "formulas", "call"),
    # families and formulas; sgn.families' own bindings serve the samplers'
    # function-level imports
    *(
        ("sgn.verify", fn, "families", "call")
        for fn in ("bicyclic_class", "gen_cycle", "gen_figure", "gen_infinity", "gen_path", "realize_nullity")
    ),
    ("sgn.families", "gen_infinity", "families", "call"),
    ("sgn.families", "gen_theta", "families", "call"),
    *(
        ("sgn.verify", fn, "formulas", "call")
        for fn in ("is_max_nullity_extremal", "nullity_cycle", "nullity_infinity", "nullity_path", "upper_bound")
    ),
    # verify
    ("sgn", "verify_theorem", _verify_name, "call"),
)


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def bindings() -> dict:
    """The object currently bound at every patch point."""
    out = {}
    for module, attr, _, _ in PATCHES:
        owner, name = _owner(module, attr)
        out[(module, attr)] = owner.__dict__[name]
    return out


@contextmanager
def install(tracer: Tracer):
    """Rebind every patch point to a span wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, span, kind in PATCHES:
            owner, name = _owner(module, attr)
            original = owner.__dict__[name]
            if kind == "gen":
                wrapper = _wrap_generator(tracer, original, span)
            else:
                wrapper = _wrap(tracer, original, span, "reduction.cutpoint" if kind == "hits" else None)
            saved.append((owner, name, original))
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def assert_unpatched(expected: dict) -> None:
    """Every patch point still holds its original, unwrapped callable."""
    now = bindings()
    for key, obj in now.items():
        if hasattr(obj, MARK) or obj is not expected[key]:
            raise RuntimeError(f"{key[0]}.{key[1]} is not the original binding")
