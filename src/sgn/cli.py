"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error (argparse's usage errors
included, also a graph above the matrix routes' vertex ceiling, or a
``verify --json`` path that cannot be written), 2 verification failure
(including "not switching equivalent" for ``equiv``), 3 internal
inconsistency (the nullity methods disagreed, which signals a library bug).

Graph arguments accept a file path, ``-`` for stdin, or a family spec such
as ``cycle:n=6,s=1`` (an argument naming an existing file is read as a file;
any other argument containing a colon is treated as a spec).
``ROUTES`` is the one table of ``nullity``'s routes, in ``--method all``
order: each row holds the route's answer function, its admission check and
the largest order ``--method all`` runs it on.  ``--method``'s choices,
``cmd_nullity`` and ``cmd_charpoly`` read only the table.  A check returns
why its route refuses a graph (``linalg.matrix_refusal`` for rank and
charpoly, ``figures.figure_refusal`` for the figure route, and for charpoly
also 300 vertices under ``all`` and 480 on an explicit request), or None;
the route then runs no step.  A single ``--method`` it refuses exits 1 with
``error: <refusal>``; ``--method all`` writes ``<route>: skipped
(<refusal>)`` to stderr and goes on.  The structural route has no check: it
refuses a graph from inside, as the library does.  The ``verify`` sweeps'
limits are rows of ``verify._REGISTRY``, which ``verify_theorem`` checks
before it sweeps.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from .families import parse_family_spec
from .figures import char_poly_figures, figure_refusal
from .graph import (
    GraphError,
    ParseError,
    SignedGraph,
    canonical_signature,
    is_balanced,
    parse_edge_list,
    serialize_edge_list,
    switching_equivalent,
)
from .linalg import (
    LinalgError,
    adjacency_matrix,
    char_poly,
    matrix_refusal,
    nullity_charpoly,
    nullity_rank,
    zero_multiplicity,
)
from .reduction import nullity_structural
from .verify import THEOREM_IDS, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_INTERNAL = 3


def _charpoly_refusal(g: SignedGraph, order: int | None, limit: int = 480) -> str | None:
    """The charpoly row's check: the matrix ceiling, then ``order``, the
    row's order under ``--method all``, or on an explicit request (``order``
    None) the route's own ``limit``."""
    refusal = matrix_refusal(g.n)
    if refusal or g.n <= (order or limit):
        return refusal
    if not order:
        return f"n = {g.n} exceeds the {limit}-vertex limit of the charpoly route"
    return f"{g.n} vertices, above the {order} that --method all runs it on; --method charpoly runs it up to {limit}"


#: The routes of ``nullity``, in ``--method all`` order: name to (answer
#: function, admission check, largest order ``--method all`` runs it on).
#: A check takes the graph and that order (None on an explicit request) and
#: returns why the route refuses the graph, or None; ``structural`` has no
#: check, and answers with its certificate as well.  The charpoly orders,
#: 300 here and 480 as the ``limit`` of ``_charpoly_refusal``, are
#: measured: ``nullity_charpoly`` on a cycle with 30 random chords took
#: 1.0 s at n = 200, 3.5 s at 300, 11.6 s at 400, 17.5 s at 450, 23.6 s at
#: 480 and 28 to 38 s at 500, and ran past 60 s on the plain 2000-vertex
#: cycle (2-core x86-64 host, Python 3.11); its time grows about as n^3.
ROUTES = {
    "rank": (nullity_rank, lambda g, order: matrix_refusal(g.n), None),
    "charpoly": (nullity_charpoly, _charpoly_refusal, 300),
    "figures": (lambda g: zero_multiplicity(char_poly_figures(g)),
                lambda g, order: figure_refusal(g.n, Counter(x for e in g.underlying_edges for x in e)), None),
    "structural": (nullity_structural, None, None),
}


def load_graph(source: str) -> SignedGraph:
    """Resolve a CLI graph argument: '-' for stdin, an existing file, or a
    spec string.  Stdin and files are decoded alike, as UTF-8 with
    ``surrogateescape``: a byte that is not UTF-8 reaches the parser, which
    names its line, whatever the locale."""
    if source == "-":
        data = sys.stdin.buffer.read()
    elif ":" in source and not os.path.isfile(source):
        return parse_family_spec(source)
    else:
        try:
            with open(source, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source!r}: {exc}")
    return parse_edge_list(data.decode("utf-8", "surrogateescape"))


def cmd_nullity(args) -> int:
    g = load_graph(args.graph)
    under_all = args.method == "all"
    results: dict[str, int] = {}
    trace = None
    for method in ROUTES if under_all else [args.method]:
        answer, check, order = ROUTES[method]
        if refusal := check and check(g, order if under_all else None):
            if not under_all:
                raise GraphError(refusal)
            print(f"{method}: skipped ({refusal})", file=sys.stderr)
            continue
        results[method] = answer(g)
        if isinstance(results[method], tuple):  # the structural certificate
            results[method], trace = results[method]
    for method, value in results.items():
        print(f"{method}: {value}")
    if args.trace and trace is not None:
        print(trace.to_json())
    if len(set(results.values())) > 1:
        print("method disagreement: " + ", ".join(f"{m}={v}" for m, v in results.items()),
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_charpoly(args) -> int:
    g = load_graph(args.graph)
    if refusal := ROUTES["charpoly"][1](g, None):
        raise GraphError(refusal)
    p = char_poly(adjacency_matrix(g))
    print(p)
    print("coefficients:", list(p.coeffs))
    return EXIT_OK


def cmd_balance(args) -> int:
    g = load_graph(args.graph)
    balanced, witness = is_balanced(g)
    if balanced:
        theta = " ".join(f"{v}:{witness[v]:+d}" for v in range(g.n))
        print("balanced")
        print("switching to all-positive:", theta if theta else "(empty)")
    else:
        print("unbalanced")
        print("negative cycle:", "-".join(map(str, witness.vertices)),
              f"(sign {witness.sign:+d}, {witness.neg_edge_count} negative edges)")
    return EXIT_OK


def cmd_canon(args) -> int:
    g = load_graph(args.graph)
    sys.stdout.write(serialize_edge_list(canonical_signature(g)))
    return EXIT_OK


def cmd_generate(args) -> int:
    g = parse_family_spec(args.spec)
    sys.stdout.write(serialize_edge_list(g))
    return EXIT_OK


def cmd_equiv(args) -> int:
    g = load_graph(args.graph1)
    h = load_graph(args.graph2)
    if switching_equivalent(g, h):
        print("switching equivalent")
        return EXIT_OK
    print("not switching equivalent")
    return EXIT_VERIFY_FAIL


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise GraphError(f"range must look like 8..12, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise GraphError(f"range bounds must be integers, got {text!r}")


def cmd_verify(args) -> int:
    options = {
        "n_max": args.n_max,
        "samples": args.samples,
        "seed": args.seed,
    }
    if args.n is not None:
        options["n_lo"], options["n_hi"] = _parse_range(args.n)
    try:
        report = verify_theorem(args.theorem, **options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    summary = report.summary()
    print(f"theorem {report.theorem_id}: {summary['status']}")
    print(f"  grid: {report.parameter_grid}")
    print(f"  cases checked: {report.cases_checked}, failures: {len(report.failures)}")
    print(f"  elapsed: {report.elapsed:.2f}s")
    for failure in report.failures[:10]:
        print(f"  counterexample: {failure}")
    if len(report.failures) > 10:
        print(f"  ... and {len(report.failures) - 10} more")
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.json_lines())
        except OSError as exc:
            print(f"error: cannot write {args.json!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"  report written to {args.json}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on ``EXIT_USAGE``; the subcommand
    parsers take this class from their parent."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgn",
        description="Exact nullity and characteristic polynomials of signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nullity", help="nullity of a graph by one or all methods")
    p.add_argument("graph", help="edge-list file, '-' for stdin, or family spec")
    p.add_argument("--method", choices=[*ROUTES, "all"], default="all")
    p.add_argument("--trace", action="store_true",
                   help="print the structural reduction certificate as JSON")
    p.set_defaults(fn=cmd_nullity)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("balance", help="balance test with switching or negative-cycle witness")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_balance)

    p = sub.add_parser("canon", help="canonical switching-equivalent form")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("generate", help="emit a family instance as an edge list")
    p.add_argument("spec", help="e.g. cycle:n=6,s=1 | infinity:p=3,q=4,l=2 | figure:id=G1,n=10")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run a theorem verification sweep")
    p.add_argument("theorem", metavar="THEOREM",
                   help="one of: " + ", ".join(THEOREM_IDS))
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--n", default=None, help="vertex range for set sweeps, e.g. 8..12")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", default=None, help="write the JSON-lines report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("equiv", help="switching equivalence of two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(fn=cmd_equiv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, GraphError, LinalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
