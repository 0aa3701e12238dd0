import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pursuitlab
from pursuitlab import games, thresholds
from pursuitlab.cli import main
from pursuitlab.games import Classic, state_estimate
from pursuitlab.graphs import gnp_sample, read_edge_list, write_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall(text: str) -> str:
    return re.sub(r'"wall_ms":\s*[0-9.]+', '"wall_ms": X', text)


def csv_without_wall(text: str) -> str:
    import csv
    import io

    out = []
    for ln in text.splitlines():
        if ln.startswith("#") or ln.startswith("target_id"):
            out.append(ln)
            continue
        row = next(csv.reader([ln]))
        row[9] = "X"  # wall_ms column
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(row)
        out.append(buf.getvalue())
    return "\n".join(out)


# ------------------------------------------------------------------------ gen

def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, stdout, _ = run_cli(capsys, "gen", "--n", "5", "--p", "1.0", "--seed", "3", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "n 5"
    assert len(text.splitlines()) == 11
    g = read_edge_list(text)
    assert g.edge_count() == 10
    summary = json.loads(stdout)
    assert summary["config"]["command"] == "gen" and summary["edges"] == 10


def test_gen_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    run_cli(capsys, "gen", "--n", "40", "--p", "0.37", "--seed", "11", "--out", str(a))
    run_cli(capsys, "gen", "--n", "40", "--p", "0.37", "--seed", "11", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_sparse_family(tmp_path, capsys):
    out = tmp_path / "s.edges"
    code, stdout, _ = run_cli(capsys, "gen", "--n", "300", "--family", "1,2.5,0", "--seed", "18", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["edges"] == 0


def test_gen_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "--n", "5")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "gen", "--n", "5", "--p", "0.5", "--family", "1,1,0")
    assert code == 1
    code, _, err = run_cli(capsys, "gen", "--n", "5", "--p", "1.5")
    assert code == 2  # domain error
    code, out, err = run_cli(capsys, "gen", "--n", "2000000", "--p", "0.5")
    assert code == 2 and out == "" and err.startswith("error: n = 2000000 is too large") and err.count("\n") == 1


# ---------------------------------------------------------------------- solve

def test_solve_named_examples(capsys, monkeypatch):
    solved = []
    game_value = games.game_value
    monkeypatch.setattr(games, "game_value", lambda g, v, *rest: solved.append(v) or game_value(g, v, *rest))
    code, out, _ = run_cli(capsys, "solve", "--named", "petersen", "--variant", "classic", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["winner"] == "Cop"
    assert doc["state_estimate"] == state_estimate(10, Classic(3))
    assert solved == [Classic(3)]
    for k, winner in ((2, "Robber"), (3, "Cop")):
        solved.clear()
        code, out, _ = run_cli(capsys, "solve", "--named", "petersen", "--variant", "classic", "--k", str(k),
                               "--cop-number", "--k-max", "4")
        doc = json.loads(out)
        assert (doc["winner"], doc["cop_number"]) == (winner, 3)
        assert solved == [Classic(1), Classic(2), Classic(3)]  # each game solved once
    code, out, _ = run_cli(capsys, "solve", "--named", "c4", "--variant", "tandem")
    assert json.loads(out)["winner"] == "Cop"
    code, out, _ = run_cli(capsys, "solve", "--named", "k33", "--variant", "traps", "--m", "1", "--traps", "1")
    assert json.loads(out)["winner"] == "Robber"


def test_solve_cop_number(capsys):
    code, out, _ = run_cli(capsys, "solve", "--named", "petersen", "--cop-number", "--k-max", "4")
    doc = json.loads(out)
    assert doc["cop_number"] == 3


def test_solve_from_file(tmp_path, capsys):
    p = tmp_path / "c4.edges"
    p.write_text("n 4\n0 1\n0 3\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "solve", "--graph", str(p), "--variant", "classic", "--k", "1")
    assert json.loads(out)["winner"] == "Robber"


def test_non_integer_vertex_is_domain_exit(tmp_path, capsys):
    graph = tmp_path / "bad.edges"
    graph.write_text("n 4\n0 x\n")
    rooted = tmp_path / "bad.rooted"
    rooted.write_text("n 4\n0 x\nroots 0\n")
    for argv in (("solve", "--graph", str(graph)), ("threshold", "--rooted", str(rooted))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err == "error: bad edge line '0 x'\n", argv


def test_solve_refuses_oversized_header_n(tmp_path, capsys):
    graph = tmp_path / "huge.edges"
    graph.write_text("n 1000000000\n0 1\n")
    code, out, err = run_cli(capsys, "solve", "--graph", str(graph))
    assert code == 2 and out == "" and err.startswith("error: n = 1000000000 is too large") and err.count("\n") == 1


def test_solve_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--named", "petersen", "--k", "2", "--max-states", "10")
    assert code == 2 and "state budget" in err
    code, _, cop_number_err = run_cli(capsys, "solve", "--named", "petersen", "--k", "2", "--cop-number",
                                      "--max-states", "10")
    assert code == 2 and cop_number_err == err


# ----------------------------------------------------------------------- eval

def test_eval_examples(capsys):
    code, out, _ = run_cli(capsys, "eval", "--named", "c4", "--builtin", "escape_1")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run_cli(capsys, "eval", "--named", "petersen", "--formula",
                           "forall x forall y exists z (E(x,z)&E(z,y))")
    assert out.strip() == "false"
    code, out, _ = run_cli(capsys, "eval", "--named", "complete(4)", "--axiom", "0,1")
    assert out.strip() == "false"
    code, out, _ = run_cli(capsys, "eval", "--named", "complete(4)", "--builtin", "tandem_capture", "--json")
    doc = json.loads(out)
    assert doc["value"] is True


def test_eval_parse_error_is_domain_exit(capsys):
    code, _, err = run_cli(capsys, "eval", "--named", "c4", "--formula", "E(x,y)")
    assert code == 2 and "free variables" in err


def test_eval_too_wide_sentence_is_domain_exit(tmp_path, capsys):
    p = tmp_path / "g200.edges"
    p.write_text(write_edge_list(gnp_sample(200, 0.5, 0)))
    code, out, err = run_cli(capsys, "eval", "--graph", str(p), "--builtin", "escape_3")
    assert code == 2 and out == "" and "too wide" in err


def test_eval_builtin_names(capsys):
    for name in ["escape_2", "trap_escape_1_1", "isolated_vertices_2", "complementary_escape", "empty_graph"]:
        code, out, _ = run_cli(capsys, "eval", "--named", "c4", "--builtin", name)
        assert code == 0 and out.strip() in ("true", "false")
    code, _, _ = run_cli(capsys, "eval", "--named", "c4", "--builtin", "whatever")
    assert code == 2


# ------------------------------------------------------------------------- mu

def test_mu_exact(capsys):
    code, out, _ = run_cli(capsys, "mu", "--axiom", "0,1", "--exact", "--n", "3", "--p", "0.5")
    doc = json.loads(out)
    assert (doc["mu_num"], doc["mu_den"]) == (1, 2)
    code, out, _ = run_cli(capsys, "mu", "--axiom", "0,1", "--exact", "--n", "3")
    doc = json.loads(out)
    assert code == 0 and (doc["mu_num"], doc["mu_den"]) == (1, 2) and doc["config"]["p"] == 0.5
    code, _, err = run_cli(capsys, "mu", "--axiom", "0,1", "--exact", "--n", "9", "--p", "0.5")
    assert code == 2
    code, out, err = run_cli(capsys, "mu", "--builtin", "escape_3", "--exact", "--n", "8")
    assert code == 2 and out == "" and "byte bound" in err


def test_mu_exact_refuses_another_measure(capsys):
    for flag, value in (("--p", "0.3"), ("--family", "1,0.5,0")):
        code, out, err = run_cli(capsys, "mu", "--axiom", "0,1", "--exact", "--n", "3", flag, value)
        assert code == 1 and out == "" and "usage error" in err and flag in err


def test_mu_estimate_json(capsys):
    code, out, _ = run_cli(capsys, "mu", "--builtin", "empty_graph", "--n", "10", "--p", "0.0",
                           "--samples", "25", "--seed", "4")
    doc = json.loads(out)
    assert doc["successes"] == 25 and doc["estimate"] == 1.0
    assert doc["config"]["seed"] == 4


# ---------------------------------------------------------------------- sweep

def test_sweep_csv_and_reproducibility(capsys):
    args = ["sweep", "--axiom", "1,2", "--n-list", "6,10", "--p", "0.5",
            "--samples", "40", "--seed", "12"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1].startswith("target_id,")
    config = json.loads(lines[0][len("# config "):])
    rebuilt = ["sweep", "--axiom", config["axiom"], "--n-list", ",".join(str(x) for x in config["n_list"]),
               "--p", str(config["p"]), "--samples", str(config["samples"]), "--seed", str(config["seed"]),
               "--jobs", str(config["jobs"]), "--max-states", str(config["max_states"])]
    code, out2, _ = run_cli(capsys, *rebuilt)
    assert csv_without_wall(out1) == csv_without_wall(out2)


def test_sweep_rejects_mixed_targets(capsys):
    code, _, err = run_cli(capsys, "sweep", "--variant", "tandem", "--winner", "cop",
                           "--builtin", "escape_1", "--n-list", "8", "--p", "0.5")
    assert code == 1 and "formula flags" in err


def test_sweep_win_target_and_budget_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--variant", "classic", "--k", "3", "--winner", "robber",
                           "--n-list", "8,500", "--p", "0.5", "--samples", "5", "--seed", "2")
    assert code == 0
    rows = out.splitlines()[2:]
    assert len(rows) == 2
    assert "state budget" in rows[1]


def test_sweep_records_too_wide_sentence_in_row(capsys):
    args = ["--builtin", "escape_2", "--p", "0.5", "--samples", "3", "--seed", "1"]
    code, out, _ = run_cli(capsys, "sweep", "--n-list", "6,80", *args)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert [(r["n"], r["samples"]) for r in rows] == [("6", "3"), ("80", "3")]
    assert rows[0]["error"] == "" and rows[0]["successes"] != ""
    assert "too wide" in rows[1]["error"] and rows[1]["successes"] == ""
    code, out, err = run_cli(capsys, "mu", "--n", "80", *args)
    assert code == 2 and out == "" and "too wide" in err


def test_n_below_one_is_a_domain_exit_for_mu_and_an_in_row_error_for_sweep(capsys):
    args = ["--builtin", "escape_1", "--p", "0.5", "--samples", "3", "--seed", "1"]
    code, out, err = run_cli(capsys, "mu", "--n", "0", *args)
    assert code == 2 and out == "" and "need n >= 1" in err
    code, out, _ = run_cli(capsys, "sweep", "--n-list", "0,5", *args)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert [r["n"] for r in rows] == ["0", "5"]
    assert "need n >= 1" in rows[0]["error"] and rows[0]["successes"] == ""
    assert rows[1]["error"] == "" and rows[1]["successes"] != ""


def test_sweep_records_family_refused_at_small_n_in_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--builtin", "escape_1", "--n-list", "1,5",
                           "--family", "1,1,0", "--samples", "3", "--seed", "1")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert [r["n"] for r in rows] == ["1", "5"]
    assert "PFamily is defined for n >= 2" in rows[0]["error"]
    assert rows[1]["error"] == "" and rows[1]["successes"] != ""


def test_sweep_jobs_do_not_change_results(capsys):
    base = ["sweep", "--builtin", "escape_1", "--n-list", "12", "--p", "0.5",
            "--samples", "60", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    _, out8, _ = run_cli(capsys, *base, "--jobs", "8")
    rows1 = csv_without_wall(out1).splitlines()[1:]  # config line records the jobs flag
    rows8 = csv_without_wall(out8).splitlines()[1:]
    assert rows1 == rows8


# ------------------------------------------------------------------ threshold

def test_threshold_gadget(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gadget", "common-neighbor")
    doc = json.loads(out)
    assert (doc["exponent_num"], doc["exponent_den"]) == (-3, 2)
    assert (doc["log_exp_num"], doc["log_exp_den"]) == (1, 2)
    code, out, _ = run_cli(capsys, "threshold", "--gadget", "common-neighbor", "--convention", "nonroot")
    doc = json.loads(out)
    assert (doc["exponent_num"], doc["exponent_den"]) == (-1, 2)


def test_threshold_file_and_error_exit(tmp_path, capsys):
    p = tmp_path / "gadget.rooted"
    p.write_text("n 3\n0 2\n1 2\nroots 0 1\n")
    code, out, _ = run_cli(capsys, "threshold", "--rooted", str(p))
    assert json.loads(out)["exponent_num"] == -3
    roots_only = tmp_path / "ro.rooted"
    roots_only.write_text("n 2\n0 1\nroots 0 1\n")
    code, _, err = run_cli(capsys, "threshold", "--rooted", str(roots_only))
    assert code == 2


def test_threshold_enumerates_subextensions_once(tmp_path, capsys, monkeypatch):
    rg = thresholds.RootedGraph(gnp_sample(10, 0.4, 3), frozenset({0, 1}))
    p = tmp_path / "g.rooted"
    p.write_text(thresholds.write_rooted(rg))
    calls = []
    subextensions = thresholds.subextensions
    monkeypatch.setattr(thresholds, "subextensions", lambda rg: calls.append(rg) or subextensions(rg))
    for convention in ("paper", "nonroot"):
        calls.clear()
        code, out, _ = run_cli(capsys, "threshold", "--rooted", str(p), "--convention", convention)
        doc = json.loads(out)
        assert code == 0 and len(calls) == 1, convention
        assert Fraction(doc["mad_num"], doc["mad_den"]) == thresholds.mad(rg, convention)


def test_threshold_usage(capsys):
    code, _, _ = run_cli(capsys, "threshold")
    assert code == 1


# ------------------------------------------------------------------ subprocess

def test_module_entry_point():
    # The child imports the same package as this process, however pytest found it.
    src = str(Path(pursuitlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pursuitlab", "eval", "--named", "c4", "--builtin", "escape_1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "false"


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "solve", "--named", "c4", "--frobnicate")
    assert code == 1
