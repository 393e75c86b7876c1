"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import resource
import subprocess
import sys

import pytest

from sgn.cli import main

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


def test_size_guard_env(monkeypatch, capsys):
    monkeypatch.setenv("SGN_SIZE_GUARD", "4")
    assert main(["nullity", "--method", "figures", "cycle:n=6,s=0"]) == 1
    assert "guard" in capsys.readouterr().err
    monkeypatch.setenv("SGN_SIZE_GUARD", "6")
    assert main(["nullity", "--method", "figures", "cycle:n=6,s=0"]) == 0


def test_console_entry_point():
    code, out, _ = run_cli(["charpoly", "cycle:n=4,s=1"])
    assert code == 0 and "x^4 - 4x^2 + 4" in out


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
