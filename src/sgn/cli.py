"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error (argparse's usage errors
included, also a graph above the matrix routes' vertex ceiling, or a
``verify --json`` path that cannot be written), 2 verification failure
(including "not switching equivalent" for ``equiv``), 3 internal
inconsistency (the nullity methods disagreed, which signals a library bug).

Graph arguments accept a file path, ``-`` for stdin, or a family spec such
as ``cycle:n=6,s=1`` (an argument naming an existing file is read as a file;
any other argument containing a colon is treated as a spec).
``nullity --method all`` skips, with a note on stderr, the figure route on a
graph it refuses (``figures.FIGURE_BOUND``), the rank and charpoly routes
on a graph above ``linalg.MAX_MATRIX_VERTICES``, and the charpoly route
alone on a graph above ``ALL_CHARPOLY_MAX_VERTICES``; a single ``--method``
that refuses the graph exits 1, and ``--method charpoly`` and ``charpoly``
run up to ``CHARPOLY_MAX_VERTICES`` and exit 1 at once above it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .families import parse_family_spec
from .figures import SizeGuardError, char_poly_figures
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
    MAX_MATRIX_VERTICES,
    LinalgError,
    adjacency_matrix,
    char_poly,
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

#: Largest order on which ``nullity --method all`` runs the charpoly route
#: (measured).  The route's time grows about as n^3: ``nullity_charpoly``
#: on a cycle with 30 random chords took 1.0 s at n = 200 and 3.5 s at 300,
#: and on the plain 2000-vertex cycle ran past 60 s (2-core x86-64 host,
#: Python 3.11).
ALL_CHARPOLY_MAX_VERTICES = 300

#: Largest order on which ``nullity --method charpoly`` and ``charpoly`` run
#: the route (measured); a larger graph, up to the matrix ceiling, exits 1
#: at once.  ``nullity_charpoly`` on a cycle with 30 random chords took
#: 11.6 s at n = 400, 17.5 s at 450, 23.6 s at 480 and 28 to 38 s at 500
#: (same host).
CHARPOLY_MAX_VERTICES = 480


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


def _check_charpoly_order(g: SignedGraph) -> None:
    """Refuse an explicit charpoly request above ``CHARPOLY_MAX_VERTICES``;
    above the matrix ceiling the route refuses the graph itself."""
    if CHARPOLY_MAX_VERTICES < g.n <= MAX_MATRIX_VERTICES:
        raise GraphError(f"n = {g.n} exceeds the {CHARPOLY_MAX_VERTICES}-vertex limit of the charpoly route")


def cmd_nullity(args) -> int:
    g = load_graph(args.graph)
    if args.method == "charpoly":
        _check_charpoly_order(g)
    methods = [args.method] if args.method != "all" else ["rank", "charpoly", "figures", "structural"]
    results: dict[str, int] = {}
    trace = None
    # the errors that ``all`` reports as a skipped route
    skips = {}
    if args.method == "all":
        skips["figures"] = SizeGuardError
        if g.n > MAX_MATRIX_VERTICES:
            skips.update(rank=LinalgError, charpoly=LinalgError)
        elif g.n > ALL_CHARPOLY_MAX_VERTICES:
            methods.remove("charpoly")
            print(f"charpoly: skipped ({g.n} vertices, above the {ALL_CHARPOLY_MAX_VERTICES} "
                  "that --method all runs it on; use --method charpoly)", file=sys.stderr)
    for method in methods:
        try:
            if method == "rank":
                results["rank"] = nullity_rank(g)
            elif method == "charpoly":
                results["charpoly"] = nullity_charpoly(g)
            elif method == "figures":
                results["figures"] = zero_multiplicity(char_poly_figures(g))
            elif method == "structural":
                results["structural"], trace = nullity_structural(g)
        except skips.get(method, ()) as exc:
            print(f"{method}: skipped ({exc})", file=sys.stderr)
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
    _check_charpoly_order(g)
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
    p.add_argument("--method", choices=["rank", "charpoly", "figures", "structural", "all"],
                   default="all")
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
