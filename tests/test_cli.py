"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import sgn
from sgn import cli
from sgn.cli import ALL_CHARPOLY_MAX_VERTICES, CHARPOLY_MAX_VERTICES, main
from sgn.graph import MAX_VERTICES
from sgn.linalg import CharPoly, nullity_rank

TRIANGLE = "3 3\n0 1 1\n1 2 1\n0 2 -1\n"


def run_cli(args, stdin=None, preexec_fn=None):
    proc = subprocess.run(
        [sys.executable, "-m", "sgn.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        preexec_fn=preexec_fn,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _stub_cli(monkeypatch, name, fake):
    """Replace ``cli.<name>`` wherever the CLI holds it: as a module name
    and as a value of ``cli.ROUTES``."""
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, fake)
    for route, answer in cli.ROUTES.items():
        if answer is real:
            monkeypatch.setitem(cli.ROUTES, route, fake)


def test_nullity_all_methods_agree(capsys):
    assert main(["nullity", "cycle:n=6,s=1"]) == 0
    out = capsys.readouterr().out
    assert out.count(": 2") == 4  # rank, charpoly, figures, structural


def test_nullity_single_vertex(capsys):
    assert main(["nullity", "path:n=1"]) == 0
    assert "rank: 1" in capsys.readouterr().out


def test_nullity_from_stdin():
    code, out, _ = run_cli(["nullity", "--method", "rank", "-"], stdin=TRIANGLE)
    assert code == 0
    assert "rank: 0" in out


def test_nullity_structural_trace(capsys):
    assert main(["nullity", "--method", "structural", "--trace", "path:n=5"]) == 0
    out = capsys.readouterr().out
    assert "structural: 1" in out
    payload = json.loads(out.split("\n", 1)[1])
    assert payload["result"] == 1


def test_nullity_structural_trace_of_a_long_path(capsys):
    # the peel records every pendant pair of the path in one step
    assert main(["nullity", "path:n=100000", "--method", "structural", "--trace"]) == 0
    head, blob = capsys.readouterr().out.split("\n", 1)
    assert head == "structural: 0"
    trace = json.loads(blob)
    assert trace["result"] == 0 and len(trace["steps"]) <= 3
    assert len(trace["steps"][0]["pairs"]) == 50_000


def test_nullity_structural_of_a_bicyclic_graph_above_the_matrix_ceiling(capsys):
    # n = 3000: the theta closed form decides it with no matrix
    assert main(["nullity", "--method", "structural", "theta:p=1000,q=1000,l=1001"]) == 0
    assert capsys.readouterr().out == "structural: 1\n"
    assert main(["nullity", "--method", "structural", "infinity:p=1500,q=1500,l=2,sp=1"]) == 0
    assert capsys.readouterr().out == "structural: 2\n"


def test_nullity_all_skips_the_matrix_routes_above_their_ceiling(capsys):
    assert main(["nullity", "cycle:n=3000,s=1"]) == 0
    out, err = capsys.readouterr()
    assert out == "structural: 0\n"
    ceiling = "n = 3000 exceeds the 2000-vertex ceiling of the matrix routes"
    assert err == (
        f"rank: skipped ({ceiling})\n"
        f"charpoly: skipped ({ceiling})\n"
        "figures: skipped (figure enumeration guard: n = 3000, prod(deg(v) + 1) exceeds 10000000000)\n"
    )


def test_nullity_all_skips_the_charpoly_route_above_its_order(capsys):
    # one note at every order: at n = 1000 advice to use --method charpoly
    # alone would send the user to a route that refuses the graph
    for n in (ALL_CHARPOLY_MAX_VERTICES + 1, 1000):
        assert main(["nullity", f"cycle:n={n},s=1"]) == 0
        out, err = capsys.readouterr()
        assert out == "rank: 0\nstructural: 0\n"
        assert err == (
            f"charpoly: skipped ({n} vertices, above the {ALL_CHARPOLY_MAX_VERTICES} that --method all "
            f"runs it on; --method charpoly runs it up to {CHARPOLY_MAX_VERTICES})\n"
            f"figures: skipped (figure enumeration guard: n = {n}, prod(deg(v) + 1) exceeds 10000000000)\n"
        )


def test_nullity_method_charpoly_runs_above_the_all_order(capsys):
    n = ALL_CHARPOLY_MAX_VERTICES + 1
    assert main(["nullity", "--method", "charpoly", f"cycle:n={n},s=1"]) == 0
    assert capsys.readouterr() == ("charpoly: 0\n", "")


def test_charpoly_limit_lies_between_the_all_order_and_the_matrix_ceiling():
    # above the --method all order, so that its skip note's advice helps
    assert ALL_CHARPOLY_MAX_VERTICES < CHARPOLY_MAX_VERTICES < 2000


@pytest.mark.parametrize(
    "args, stub, value",
    [(["nullity", "--method", "charpoly"], "nullity_charpoly", 0), (["charpoly"], "char_poly", CharPoly((1,)))],
)
def test_explicit_charpoly_runs_to_its_limit_and_refuses_above_it(monkeypatch, capsys, args, stub, value):
    # the route itself is stubbed: at the limit it would take about 30 s
    calls = []
    _stub_cli(monkeypatch, stub, lambda x: calls.append(x) or value)
    n = CHARPOLY_MAX_VERTICES
    assert main([*args, f"cycle:n={n},s=1"]) == 0
    assert len(calls) == 1
    capsys.readouterr()
    assert main([*args, f"cycle:n={n + 1},s=1"]) == 1
    assert len(calls) == 1
    assert capsys.readouterr() == (
        "", f"error: n = {n + 1} exceeds the {CHARPOLY_MAX_VERTICES}-vertex limit of the charpoly route\n"
    )


def test_nullity_infinity_example(capsys):
    assert main(["nullity", "infinity:p=3,q=4,l=2,sp=1,sq=0"]) == 0
    assert capsys.readouterr().out.count(": 1") == 4


def test_file_name_with_colon_is_read_as_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "a:b.txt"
    path.write_text(TRIANGLE)
    assert main(["nullity", "--method", "rank", str(path)]) == 0
    assert "rank: 0" in capsys.readouterr().out
    # an existing file wins over the spec it looks like; otherwise it is a spec
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path:n=3").write_text(TRIANGLE)
    assert main(["nullity", "--method", "rank", "path:n=3"]) == 0
    assert "rank: 0" in capsys.readouterr().out
    (tmp_path / "path:n=3").unlink()
    assert main(["nullity", "--method", "rank", "path:n=3"]) == 0
    assert "rank: 1" in capsys.readouterr().out


def test_charpoly(capsys):
    assert main(["charpoly", "cycle:n=3,s=1"]) == 0
    out = capsys.readouterr().out
    assert "x^3 - 3x + 2" in out
    assert "[1, 0, -3, 2]" in out


def test_balance_unbalanced(capsys, tmp_path):
    path = tmp_path / "tri.sg"
    path.write_text(TRIANGLE)
    assert main(["balance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "unbalanced" in out and "negative cycle" in out


def test_balance_balanced(capsys):
    assert main(["balance", "cycle:n=4,s=2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("balanced")


def test_canon_is_idempotent_via_cli(capsys):
    assert main(["canon", "cycle:n=5,s=2"]) == 0
    first = capsys.readouterr().out
    assert main(["canon", "cycle:n=5,s=4"]) == 0
    second = capsys.readouterr().out
    assert first == second  # same parity, same canonical form


def test_generate_edge_list(capsys):
    assert main(["generate", "cycle:n=4,s=0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 4"
    assert len(out.splitlines()) == 5


def test_generate_figure(capsys):
    assert main(["generate", "figure:id=G1,n=10"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "10 11"


def test_generate_realize(capsys):
    assert main(["generate", "realize:class=BPlus,n=12,k=6"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("12 ")


def test_generate_realize_beyond_the_matrix_ceiling(capsys):
    assert main(["generate", "realize:class=BPlus,n=2500,k=3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2500 2501"


def test_equiv_exit_codes(tmp_path):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    a.write_text("3 3\n0 1 -1\n1 2 1\n0 2 1\n")
    b.write_text(TRIANGLE)
    assert main(["equiv", str(a), str(b)]) == 0
    c = tmp_path / "c.sg"
    c.write_text("3 3\n0 1 -1\n1 2 -1\n0 2 1\n")  # even parity: balanced class
    assert main(["equiv", str(a), str(c)]) == 2


def test_parse_error_exit_code(capsys):
    assert main(["nullity", "cycle:n=two"]) == 1
    assert "error" in capsys.readouterr().err


NOT_UTF8 = b"3 1\n0 1 \xff\n"
NOT_UTF8_ERROR = "error: line 2: edge fields must be integers, got '0 1 \\udcff'\n"


@pytest.mark.parametrize("args", [["nullity"], ["charpoly"], ["equiv", "path:n=3"]])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, args):
    # a file is decoded as stdin is, so its bad byte reaches the parser
    # and both name its line
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    proc = subprocess.run([sys.executable, "-m", "sgn.cli", *args, str(path)], capture_output=True)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode() == NOT_UTF8_ERROR
    from_stdin = subprocess.run([sys.executable, "-m", "sgn.cli", *args, "-"], input=NOT_UTF8,
                                capture_output=True)
    assert from_stdin.returncode == 1 and from_stdin.stderr == proc.stderr


def test_generate_rejects_repeated_spec_keys(capsys):
    assert main(["generate", "cycle:n=4,n=5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "family parameter n given more than once" in captured.err


@pytest.mark.parametrize(
    "spec, unused",
    [("figure:id=H4,n=99", "['n']"), ("figure:id=H10,n=3,k=2", "['k', 'n']"), ("figure:id=G1,n=8,k=3", "['k']")],
)
def test_generate_figure_rejects_sizes_it_does_not_take(capsys, spec, unused):
    assert main(["generate", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"got unexpected parameters {unused}" in captured.err


def test_unknown_theorem_exit_code(capsys):
    assert main(["verify", "thm9.9"]) == 1
    assert "unknown theorem" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "thm2.2", "--n-max", "x"], "argument --n-max: invalid int value: 'x'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["nullity", "--method", "bogus", "cycle:n=4"], "argument --method: invalid choice: 'bogus'"),
    ],
    ids=["bad-int", "unknown-command", "no-command", "bad-choice"],
)
def test_usage_errors_exit_1(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.startswith("usage: sgn") and message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nullity", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: sgn nullity")


def test_a_fig_id_key_exits_1_without_a_traceback(capsys):
    assert main(["generate", "figure:id=G1,fig_id=3"]) == 1
    assert capsys.readouterr() == ("", "error: G1 takes no sign parameters, got ['fig_id']\n")


def test_verify_thm22(capsys, tmp_path):
    report_path = tmp_path / "report.jsonl"
    assert main(["verify", "thm2.2", "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "thm2.2: pass" in out
    assert "cases checked: 36" in out
    lines = report_path.read_text().strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary == {
        "cases": 36,
        "failures": 0,
        "grid": "cycles n in [3,20], s in {0,1}",
        "status": "pass",
        "theorem": "thm2.2",
    }


def test_verify_reports_are_byte_identical(tmp_path):
    p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["verify", "lem5.1", "--samples", "5", "--json", str(p1)]) == 0
    assert main(["verify", "lem5.1", "--samples", "5", "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_report_to_an_unwritable_path_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    assert main(["verify", "prop2.1", "--json", str(target)]) == 1
    out, err = capsys.readouterr()
    assert "prop2.1: pass" in out and "report written" not in out
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not target.exists()


def test_verify_set_theta_range(capsys):
    assert main(["verify", "set.theta", "--n", "6..8"]) == 0
    out = capsys.readouterr().out
    assert "set.theta: pass" in out


def test_verify_empty_grid_fails(capsys, tmp_path):
    report_path = tmp_path / "report.jsonl"
    assert main(["verify", "set.theta", "--n", "12..6", "--json", str(report_path)]) == 2
    out = capsys.readouterr().out
    assert "set.theta: fail" in out and "cases checked: 0, failures: 0" in out
    assert json.loads(report_path.read_text())["status"] == "fail"
    for args in (["thm3.1", "--n-max", "2"], ["pendant", "--n-max", "1"]):
        assert main(["verify", *args]) == 2
        assert "cases checked: 0" in capsys.readouterr().out


# one order below each class's smallest, as an --n range
BELOW_MINIMUM = {"set.bplus": "6..6", "set.bplusplus": "7..9", "set.theta": "5..8", "set.bicyclic": "5..5"}


@pytest.mark.parametrize("theorem_id", sorted(BELOW_MINIMUM))
def test_verify_set_below_the_class_minimum_exits_1(capsys, tmp_path, theorem_id):
    report_path = tmp_path / "report.jsonl"
    assert main(["verify", theorem_id, "--n", BELOW_MINIMUM[theorem_id], "--json", str(report_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {theorem_id} needs n >= ")
    assert not report_path.exists()


@pytest.mark.parametrize(
    "theorem_id, n_max, limit",
    [("cor2.1", 7, 6), ("lem5.2", 8, 7), ("lem5.2", 99999, 7), ("prop2.1", 3000, 300), ("thm2.2", 301, 300)],
)
def test_verify_exhaustive_grid_beyond_its_limit_exits_1(capsys, tmp_path, theorem_id, n_max, limit):
    report_path = tmp_path / "report.jsonl"
    assert main(["verify", theorem_id, "--n-max", str(n_max), "--json", str(report_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {theorem_id} is exhaustive up to n_max = {limit}, got n_max = {n_max}\n")
    assert not report_path.exists()


@pytest.mark.parametrize("theorem_id", sorted(BELOW_MINIMUM))
def test_verify_set_beyond_its_limit_exits_1(capsys, tmp_path, theorem_id):
    report_path = tmp_path / "report.jsonl"
    assert main(["verify", theorem_id, "--n", "8..3000", "--json", str(report_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {theorem_id} is exhaustive up to n_hi = 64, got n_hi = 3000\n")
    assert not report_path.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["set.theta", "--n", "1..3000"], "set.theta needs n >= 6, got n_lo = 1"),
        (["set.bicyclic", "--n", "5..3000"], "set.bicyclic needs n >= 6, got n_lo = 5"),
        (["cor2.1", "--n-max", "7", "--samples", "100000"], "cor2.1 is exhaustive up to n_max = 6, got n_max = 7"),
    ],
)
def test_verify_grid_with_two_faults_names_the_first(capsys, args, message):
    # a set range below the class's least n is named before its n_hi; an
    # option's limits in the order the sweep takes its options
    assert main(["verify", *args]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "theorem_id, limit",
    [("cor2.1", 10**4), ("lem3.1", 10**6), ("lem5.1", 10**6),
     ("bounds.bplus", 10**5), ("bounds.bplusplus", 10**5), ("bounds.theta", 10**5)],
)
def test_verify_samples_beyond_the_limit_exits_1(capsys, monkeypatch, tmp_path, theorem_id, limit):
    # refused before the sweep starts: a sweep would fail the test at once
    monkeypatch.setattr(sgn.verify, "_run", lambda *args: pytest.fail("the sweep started"))
    report_path = tmp_path / "report.jsonl"
    for samples in (limit + 1, 100000000):
        assert main(["verify", theorem_id, "--samples", str(samples), "--json", str(report_path)]) == 1
        message = f"error: {theorem_id} draws up to samples = {limit}, got samples = {samples}\n"
        assert capsys.readouterr() == ("", message)
    assert not report_path.exists()


def test_figure_route_guard(capsys, tmp_path):
    k14 = tmp_path / "k14.txt"
    pairs = [(u, v) for u in range(14) for v in range(u + 1, 14)]
    k14.write_text(f"14 {len(pairs)}\n" + "".join(f"{u} {v} 1\n" for u, v in pairs))
    assert main(["nullity", str(k14)]) == 0
    out, err = capsys.readouterr()
    assert out == "rank: 0\ncharpoly: 0\nstructural: 0\n"
    assert err == "figures: skipped (figure enumeration guard: n = 14, prod(deg(v) + 1) exceeds 10000000000)\n"
    assert main(["nullity", "--method", "figures", str(k14)]) == 1
    assert "error: figure enumeration guard: n = 14" in capsys.readouterr().err
    assert main(["nullity", "path:n=20"]) == 0
    assert capsys.readouterr().out == "rank: 0\ncharpoly: 0\nfigures: 0\nstructural: 0\n"


def test_method_disagreement_exits_3(monkeypatch, capsys):
    _stub_cli(monkeypatch, "nullity_charpoly", lambda g: nullity_rank(g) + 1)
    assert main(["nullity", "cycle:n=6,s=1"]) == 3
    assert capsys.readouterr().err == (
        "method disagreement: rank=2, charpoly=3, figures=2, structural=2\n"
    )


def test_console_entry_point():
    code, out, _ = run_cli(["charpoly", "cycle:n=4,s=1"])
    assert code == 0 and "x^4 - 4x^2 + 4" in out


def test_package_runs_as_a_module_from_a_checkout():
    # python -m sgn with nothing but the source tree on the path, exit codes
    # passed through
    env = {**os.environ, "PYTHONPATH": str(Path(sgn.__file__).resolve().parent.parent)}

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "sgn", *args], capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    code, out, _ = run("charpoly", "cycle:n=4,s=1")
    assert code == 0 and "x^4 - 4x^2 + 4" in out
    code, out, err = run("nullity", "cycle:n=two")
    assert code == 1 and out == "" and err.startswith("error: ")
    code, out, err = run()
    assert code == 1 and out == "" and err.startswith("usage: sgn")


def _limit_address_space():
    # 512 MiB: enough to start the CLI, far too little for a 10^8 x 10^8 matrix
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "args",
    [["nullity", "--method", "rank", "-"], ["nullity", "--method", "charpoly", "-"], ["charpoly", "-"]],
)
def test_vertex_ceiling_of_the_matrix_routes(args):
    code, out, err = run_cli(args, stdin="100000000 0\n", preexec_fn=_limit_address_space)
    assert code == 1 and out == ""
    assert err == "error: n = 100000000 exceeds the 2000-vertex ceiling of the matrix routes\n"


@pytest.mark.parametrize(
    "args",
    [
        ["nullity", "--method", "structural", "-"],
        ["nullity", "--method", "figures", "-"],
        ["balance", "-"],
        ["canon", "-"],
    ],
)
def test_vertex_ceiling_of_the_adjacency_lists(args):
    code, out, err = run_cli(args, stdin="100000000 0\n", preexec_fn=_limit_address_space)
    assert code == 1 and out == ""
    assert err == f"error: n = 100000000 exceeds the {MAX_VERTICES}-vertex ceiling of the adjacency lists\n"


@pytest.mark.parametrize(
    "args, key",
    [
        (["generate", "path:n=100000000"], "n"),
        (["generate", "cycle:n=100000000"], "n"),
        (["generate", "star:k=100000000"], "k"),
        (["generate", "infinity:p=100000000,q=3,l=1"], "p"),
        (["generate", "figure:id=G1,n=100000000"], "n"),
        (["generate", "realize:class=Theta,n=100000000,k=0"], "n"),
        (["nullity", "--method", "structural", "path:n=100000000"], "n"),
    ],
)
def test_vertex_ceiling_of_the_family_parameters(args, key):
    code, out, err = run_cli(args, preexec_fn=_limit_address_space)
    assert (code, out) == (1, "")
    assert err == f"error: parameter {key} = 100000000 exceeds the {MAX_VERTICES}-vertex ceiling\n"


def test_generate_at_the_vertex_ceiling():
    code, out, err = run_cli(["generate", f"path:n={MAX_VERTICES}"], preexec_fn=_limit_address_space)
    assert (code, err) == (0, "")
    assert out.startswith(f"{MAX_VERTICES} {MAX_VERTICES - 1}\n0 1 1\n")


def test_canon_at_the_vertex_ceiling():
    code, out, err = run_cli(["canon", "-"], stdin=f"{MAX_VERTICES} 0\n", preexec_fn=_limit_address_space)
    assert (code, out, err) == (0, f"{MAX_VERTICES} 0\n", "")


def test_balance_and_canon_of_a_cycle_at_the_vertex_ceiling():
    # the DFS forest and cycle_witness at scale, under the same 512 MiB
    # (about 100 MB at the peak): the forest is the path 0-1-...-(n-1), so
    # the witness is the whole cycle and the canonical form's one negative
    # edge is the cotree edge 0-(n-1)
    n = MAX_VERTICES - 1
    spec = f"cycle:n={n},s=1"
    code, out, err = run_cli(["balance", spec], preexec_fn=_limit_address_space)
    assert (code, err) == (0, "")
    assert out == f"unbalanced\nnegative cycle: {'-'.join(map(str, range(n)))} (sign -1, 1 negative edges)\n"
    code, out, err = run_cli(["canon", spec], preexec_fn=_limit_address_space)
    assert (code, err) == (0, "")
    assert out == f"{n} {n}\n0 1 1\n0 {n - 1} -1\n" + "".join(f"{v} {v + 1} 1\n" for v in range(1, n - 1))


def _limits_table():
    """The rows of the README's limits table, by their first cell."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = next(block for block in readme.split("### Limits", 1)[1].split("\n\n") if block.startswith("|"))
    return {line.split(" | ")[0].removeprefix("| "): line for line in table.splitlines()[2:]}


def _spaced(value: int) -> str:
    return f"{value:,}".replace(",", " ")


def test_readme_limits_table_lists_every_limit():
    from sgn import figures, graph, linalg, verify

    rows = _limits_table()
    for theorem_id, (_, limits) in verify._REGISTRY.items():
        line = rows.pop(f"`verify {theorem_id}`")
        for name, limit in limits.items():
            assert f"`{name}` = {_spaced(limit)}" in line, theorem_id
    constants = {
        "cli.ALL_CHARPOLY_MAX_VERTICES": ALL_CHARPOLY_MAX_VERTICES,
        "cli.CHARPOLY_MAX_VERTICES": CHARPOLY_MAX_VERTICES,
        "linalg.MAX_MATRIX_VERTICES": linalg.MAX_MATRIX_VERTICES,
        "graph.MAX_VERTICES": graph.MAX_VERTICES,
        "figures.FIGURE_BOUND": figures.FIGURE_BOUND,
    }
    for name, value in constants.items():
        assert rows.pop(f"`{name}`").split(" | ")[1].startswith(_spaced(value)), name
    assert rows == {}
