"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
tolerances are pinned here; master seeds are fixed constants so each
statistical criterion is a deterministic, reproducible run.
"""

import json
import re
import time
from fractions import Fraction

from pursuitlab.cli import main as cli_main
from pursuitlab.experiments import (
    Z_999,
    derive_trial_seed,
    estimate_mu,
    estimate_win,
    exact_mu,
    verify_ea_bound,
    wilson_interval,
)
from pursuitlab.games import (
    Classic,
    Complementary,
    Tandem,
    Traps,
    Winner,
    cop_number,
    game_value,
    is_dismantlable,
)
from pursuitlab.graphs import PFamily, diameter, gnp_sample, named
from pursuitlab.logic import (
    complementary_escape,
    empty_graph,
    escape_k,
    evaluate,
    extension_axiom,
    isolated_vertices,
    parse,
    tandem_capture,
    trap_escape,
)
from pursuitlab.thresholds import NONROOT, PAPER, common_neighbor_gadget, mad, threshold

from conftest import graph_from_mask, pair_list

SEED_TRENDS = 2025      # criterion 3
SEED_IMPLICATIONS = 1404  # criterion 4
SEED_CALIBRATION = 6    # criterion 6
SEED_SPARSE = 18        # criterion 7 (alpha = 2.5 rows)
SEED_ISOLATED = 7       # criterion 7 (alpha = 1.25 row)
SEED_BRACKET = 8        # criterion 8


def report(num, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def test_criterion_01_named_winner_table():
    t0 = time.perf_counter()
    checks = [
        game_value(named("c4"), Classic(1)) is Winner.ROBBER,
        game_value(named("d4"), Classic(1)) is Winner.COP,
        game_value(named("p4"), Classic(1)) is Winner.COP,
        game_value(named("k33"), Classic(2)) is Winner.COP,
        game_value(named("k33"), Traps(1, 1)) is Winner.ROBBER,
        cop_number(named("petersen"), 4) == 3,
        game_value(named("petersen"), Tandem()) is Winner.COP,
        diameter(named("petersen")) == 2,
        game_value(named("c4"), Tandem()) is Winner.COP,
    ]
    elapsed = time.perf_counter() - t0
    report(1, all(checks) and elapsed < 1.0,
           f"winner table {sum(checks)}/9 rows exact, {elapsed:.2f}s (< 1s)")


def test_criterion_02_oracle_equivalence_all_6_vertex_graphs():
    t0 = time.perf_counter()
    pairs = pair_list(6)
    mismatches = 0
    for mask in range(1 << 15):
        g = graph_from_mask(6, mask, pairs)
        if (game_value(g, Classic(1)) is Winner.COP) != is_dismantlable(g):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(2, mismatches == 0 and elapsed < 60.0,
           f"{mismatches} mismatches over 32768 graphs, {elapsed:.1f}s (< 60s)")


def test_criterion_03_zero_one_trends_classic1_tandem_traps_complementary():
    results = []
    r = estimate_win(Classic(1), Winner.ROBBER, 60, 0.5, 200, SEED_TRENDS)
    results.append(("classic1 robber", float(r.estimate), 0.97))
    r = estimate_win(Tandem(), Winner.COP, 60, 0.5, 200, SEED_TRENDS)
    results.append(("tandem cop", float(r.estimate), 0.97))
    r = estimate_win(Traps(1, 1), Winner.ROBBER, 60, 0.5, 200, SEED_TRENDS)
    results.append(("traps11 robber", float(r.estimate), 0.95))
    r = estimate_win(Complementary(), Winner.ROBBER, 60, 0.5, 200, SEED_TRENDS)
    results.append(("complementary robber", float(r.estimate), 0.95))
    ok = all(est >= bar for _, est, bar in results)
    report(3, ok, "n=60 p=0.5, 200 samples: " + ", ".join(f"{k}={est:.3f} (>= {bar})" for k, est, bar in results))


def test_criterion_03_zero_one_trend_classic3():
    """Robber win frequency for three cops at n=60, p=0.5, bar 0.95.

    This row encodes an n-to-infinity statement at a fixed finite size, and
    fails; see the test output for the measured frequency.  Three cops win
    in their first move whenever some 3 vertices dominate the graph, and at
    n = 60 199 of the 200 samples (seed 2025) have a dominating 3-set: the
    expected number of them is C(60,3)(7/8)^57, about 17, and the
    domination number of G(n, 1/2) grows only like log2 n - log2 log2 n
    (Wieland and Godbole, 2001).  The check is kept as stated, not weakened.
    """
    r = estimate_win(Classic(3), Winner.ROBBER, 60, 0.5, 200, SEED_TRENDS)
    est = float(r.estimate)
    report(3, est >= 0.95, f"classic3 robber at n=60: {est:.3f} (>= 0.95 required)")


def test_criterion_04_implication_invariant_suite():
    checks = [
        (escape_k(1), Classic(1), Winner.ROBBER),
        (trap_escape(1, 1), Traps(1, 1), Winner.ROBBER),
        (tandem_capture(), Tandem(), Winner.COP),
        (complementary_escape(), Complementary(), Winner.ROBBER),
    ]
    violations = 0
    fired = 0
    for i in range(500):
        n = 4 + (i % 27)  # sizes 4..30
        p = (0.2, 0.5, 0.8)[i % 3]
        g = gnp_sample(n, p, derive_trial_seed(SEED_IMPLICATIONS, i))
        for f, v, who in checks:
            if evaluate(f, g):
                fired += 1
                if game_value(g, v) is not who:
                    violations += 1
    report(4, violations == 0,
           f"{violations} violations over 500 graphs ({fired} fired implications, 4 formulas)")


def test_criterion_05_ea_bound_verification():
    failures = []
    for n in (1, 2, 3):
        for m in range(n + 1):
            for k in range(n + 1, 8):
                chk = verify_ea_bound(m, n, k)
                if not chk.holds:
                    failures.append((m, n, k))
    exact_ok = exact_mu(extension_axiom(0, 1), 3) == Fraction(1, 2)
    report(5, not failures and exact_ok,
           f"bound holds for all 43 (m,n,k) cases; mu_3(EA_0,1) = 1/2 exactly: {exact_ok}")


def test_criterion_06_monte_carlo_calibration():
    formulas = [
        extension_axiom(1, 2),
        extension_axiom(0, 1),
        parse("forall x forall y !E(x,y)"),
    ]
    ok = True
    details = []
    for f in formulas:
        exact = float(exact_mu(f, 5))
        r1 = estimate_mu(f, 5, 0.5, 10000, SEED_CALIBRATION, jobs=1)
        r8 = estimate_mu(f, 5, 0.5, 10000, SEED_CALIBRATION, jobs=8)
        lo, hi = wilson_interval(r1.successes, r1.samples, Z_999)
        contained = lo <= exact <= hi
        deterministic = r1.successes == r8.successes
        ok = ok and contained and deterministic
        details.append(f"exact={exact:.5f} in [{lo:.5f},{hi:.5f}]={contained}, jobs-stable={deterministic}")
    report(6, ok, "; ".join(details))


def test_criterion_07_varying_p_regimes():
    fam_sparse = PFamily(1, 2.5, 0)
    rep = estimate_mu(empty_graph(), 300, fam_sparse, 100, SEED_SPARSE)
    empty_freq = float(rep.estimate)
    robber_all = all(
        game_value(gnp_sample(300, fam_sparse.p(300), derive_trial_seed(SEED_SPARSE, i)), Classic(1))
        is Winner.ROBBER
        for i in range(100)
    )
    rep_iso = estimate_mu(isolated_vertices(2), 500, PFamily(1, 1.25, 0), 100, SEED_ISOLATED)
    iso_freq = float(rep_iso.estimate)
    ok = empty_freq >= 0.99 and robber_all and iso_freq >= 0.95
    report(7, ok,
           f"alpha=2.5 N=300: empty={empty_freq:.2f} (>= 0.99), robber wins all: {robber_all}; "
           f"alpha=1.25 N=500: isolated_pair={iso_freq:.2f} (>= 0.95)")


def test_criterion_08_complementary_threshold_bracket():
    robber = estimate_win(Complementary(), Winner.ROBBER, 200, PFamily(1, 0.2, 0), 100, SEED_BRACKET)
    cop = estimate_win(Complementary(), Winner.COP, 200, PFamily(1, 1.8, 0), 100, SEED_BRACKET)
    ok = float(robber.estimate) >= 0.9 and float(cop.estimate) >= 0.9
    report(8, ok,
           f"N=200: robber at p=N^-0.2 -> {float(robber.estimate):.2f} (>= 0.9); "
           f"cop at p=N^-1.8 -> {float(cop.estimate):.2f} (>= 0.9)")


def test_criterion_09_threshold_gadget_exact_values():
    rg = common_neighbor_gadget()
    tp = threshold(rg, PAPER)
    tn = threshold(rg, NONROOT)
    ok = (
        mad(rg, PAPER) == Fraction(2, 3)
        and tp.exponent == Fraction(-3, 2)
        and tp.log_exponent == Fraction(1, 2)
        and tn.exponent == Fraction(-1, 2)
        and tn.log_exponent == Fraction(1, 2)
    )
    report(9, ok,
           f"paper: mad=2/3, f(N)=N^(-3/2)(log N)^(1/2); nonroot: f(N)=N^(-1/2)(log N)^(1/2), "
           f"s=2 in both (exact rationals)")


def _strip_wall_json(text: str) -> str:
    return re.sub(r'"wall_ms":\s*[0-9.]+', '"wall_ms": X', text)


def _strip_wall_csv(text: str) -> str:
    import csv
    import io

    out = []
    for ln in text.splitlines():
        if ln.startswith("#") or ln.startswith("target_id"):
            out.append(ln)
            continue
        row = next(csv.reader([ln]))
        row[9] = "X"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(row)
        out.append(buf.getvalue())
    return "\n".join(out)


def test_criterion_10_reproducibility(capsys):
    sweep_args = ["sweep", "--builtin", "escape_1", "--n-list", "10,20", "--p", "0.5",
                  "--samples", "50", "--seed", "33"]
    assert cli_main(list(sweep_args)) == 0
    out1 = capsys.readouterr().out
    config = json.loads(out1.splitlines()[0][len("# config "):])
    rebuilt = ["sweep", "--builtin", config["builtin"],
               "--n-list", ",".join(str(x) for x in config["n_list"]),
               "--p", str(config["p"]), "--samples", str(config["samples"]),
               "--seed", str(config["seed"]), "--jobs", str(config["jobs"]),
               "--max-states", str(config["max_states"])]
    assert cli_main(rebuilt) == 0
    out2 = capsys.readouterr().out
    csv_ok = _strip_wall_csv(out1) == _strip_wall_csv(out2)

    solve_args = ["solve", "--named", "petersen", "--variant", "tandem"]
    assert cli_main(list(solve_args)) == 0
    j1 = capsys.readouterr().out
    assert cli_main(list(solve_args)) == 0
    j2 = capsys.readouterr().out
    json_ok = _strip_wall_json(j1) == _strip_wall_json(j2)
    report(10, csv_ok and json_ok,
           f"CSV rerun byte-identical modulo wall_ms: {csv_ok}; JSON rerun: {json_ok}")
