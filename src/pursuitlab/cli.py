"""Command-line front end for generation, solving, evaluation, estimation, and
threshold calculation.

Every output embeds the effective run configuration (including the seed), so
any result can be regenerated byte-for-byte apart from wall-clock fields.
Exit codes: 0 success, 1 usage error, 2 domain or budget error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import experiments, games, graphs, logic, thresholds

USAGE_EXIT = 1
DOMAIN_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_graph_source(p: _Parser):
    p.add_argument("--graph", help="edge-list file")
    p.add_argument("--named", help="named graph (c4, p4, d4, k33, petersen, cycle(k), path(k), complete(k))")


def _load_graph(args) -> graphs.Graph:
    if bool(args.graph) == bool(args.named):
        raise UsageError("give exactly one of --graph/--named")
    if args.named:
        return graphs.named(args.named)
    with open(args.graph) as fh:
        return graphs.read_edge_list(fh.read())


def _add_formula_source(p: _Parser):
    p.add_argument("--formula", help="formula text in the E/= grammar")
    p.add_argument("--axiom", help="extension axiom 'm,n'")
    p.add_argument("--builtin", help="builtin sentence, e.g. escape_1, trap_escape_1_1, "
                                     "tandem_capture, complementary_escape, isolated_vertices_2, empty_graph")


def _parse_builtin_name(name: str) -> logic.Formula:
    key = name.strip().lower()
    if key in ("tandem_capture", "complementary_escape", "empty_graph"):
        return logic.builtin(key)
    m = re.fullmatch(r"escape_(\d+)", key)
    if m:
        return logic.escape_k(int(m.group(1)))
    m = re.fullmatch(r"trap_escape_(\d+)_(\d+)", key)
    if m:
        return logic.trap_escape(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"isolated_vertices_(\d+)", key)
    if m:
        return logic.isolated_vertices(int(m.group(1)))
    raise logic.LogicError(f"unknown builtin {name!r}")


def _load_formula(args) -> logic.Formula:
    given = [x for x in (args.formula, args.axiom, args.builtin) if x]
    if len(given) != 1:
        raise UsageError("give exactly one of --formula/--axiom/--builtin")
    if args.formula:
        return logic.parse(args.formula)
    if args.axiom:
        try:
            m, n = (int(x) for x in args.axiom.split(","))
        except ValueError as exc:
            raise UsageError(f"--axiom wants 'm,n', got {args.axiom!r}") from exc
        return logic.extension_axiom(m, n)
    return _parse_builtin_name(args.builtin)


def _add_variant_flags(p: _Parser):
    p.add_argument("--variant", choices=["classic", "traps", "roadblocks", "complementary", "tandem"],
                   default="classic")
    p.add_argument("--k", type=int, default=1, help="cop count for classic")
    p.add_argument("--m", type=int, default=1, help="cop count for traps/roadblocks")
    p.add_argument("--traps", type=int, default=1, help="trap stock")
    p.add_argument("--blocks", type=int, default=1, help="roadblock stock")


def _load_variant(args) -> games.Variant:
    if args.variant == "classic":
        return games.Classic(args.k)
    if args.variant == "traps":
        return games.Traps(args.m, args.traps)
    if args.variant == "roadblocks":
        return games.Roadblocks(args.m, args.blocks)
    if args.variant == "complementary":
        return games.Complementary()
    return games.Tandem()


def _add_p_spec(p: _Parser):
    p.add_argument("--p", type=float, help="constant edge probability")
    p.add_argument("--family", help="p(N) family 'c,alpha,beta'")


def _load_p_spec(args) -> experiments.PSpec:
    if (args.p is None) == (args.family is None):
        raise UsageError("give exactly one of --p/--family")
    if args.p is not None:
        if not 0.0 <= args.p <= 1.0:
            raise graphs.GraphError(f"edge probability must lie in [0,1], got {args.p}")
        return args.p
    try:
        c, alpha, beta = (float(x) for x in args.family.split(","))
    except ValueError as exc:
        raise UsageError(f"--family wants 'c,alpha,beta', got {args.family!r}") from exc
    return graphs.PFamily(c, alpha, beta)


def _p_config(args) -> dict:
    return {"p": args.p} if args.p is not None else {"family": args.family}


def _emit(text: str, out: str | None):
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build_parser() -> _Parser:
    top = _Parser(prog="pursuitlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a G(n,p) or G(n,p(N)) graph to an edge-list file")
    gen.add_argument("--n", type=int, required=True)
    _add_p_spec(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path (default stdout)")

    solve = sub.add_parser("solve", help="exact winner of a game variant on one graph")
    _add_graph_source(solve)
    _add_variant_flags(solve)
    solve.add_argument("--cop-number", action="store_true", help="also compute the cop number")
    solve.add_argument("--k-max", type=int, default=4)
    solve.add_argument("--max-states", type=int, default=games.DEFAULT_MAX_STATES)
    solve.add_argument("--out")

    ev = sub.add_parser("eval", help="evaluate a sentence on one graph")
    _add_graph_source(ev)
    _add_formula_source(ev)
    ev.add_argument("--json", action="store_true")
    ev.add_argument("--out")

    mu = sub.add_parser("mu", help="exact or Monte Carlo mu for a sentence (JSON report)")
    _add_formula_source(mu)
    mu.add_argument("--exact", action="store_true", help="exact uniform measure, p = 1/2 (n <= 8)")
    mu.add_argument("--n", type=int, required=True)
    _add_p_spec(mu)
    mu.add_argument("--samples", type=int, default=1000)
    mu.add_argument("--seed", type=int, default=0)
    mu.add_argument("--jobs", type=int, default=1)
    mu.add_argument("--out")

    sw = sub.add_parser("sweep", help="estimate over a list of n values (CSV)")
    _add_formula_source(sw)
    _add_variant_flags(sw)
    sw.add_argument("--winner", choices=["cop", "robber"], help="estimate a game winner instead of a formula")
    sw.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 10,20,40")
    _add_p_spec(sw)
    sw.add_argument("--samples", type=int, default=200)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--max-states", type=int, default=games.DEFAULT_MAX_STATES)
    sw.add_argument("--out")

    th = sub.add_parser("threshold", help="threshold function of a rooted graph (JSON)")
    th.add_argument("--rooted", help="rooted-graph file (edge list + roots line)")
    th.add_argument("--gadget", choices=["common-neighbor"], help="use a builtin rooted graph")
    th.add_argument("--convention", choices=["paper", "nonroot"], default="paper")
    th.add_argument("--out")
    return top


def _cmd_gen(args) -> int:
    p_spec = _load_p_spec(args)
    if isinstance(p_spec, graphs.PFamily):
        g = graphs.gnpn_sample(args.n, p_spec, args.seed)
    else:
        g = graphs.gnp_sample(args.n, p_spec, args.seed)
    text = graphs.write_edge_list(g)
    config = {"command": "gen", "n": args.n, **_p_config(args), "seed": args.seed, "out": args.out}
    summary = _json_dump({"config": config, "vertices": g.n, "edges": g.edge_count()})
    if args.out:
        _emit(text, args.out)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args)
    v = _load_variant(args)
    t0 = time.perf_counter()
    cop_number = None
    if args.cop_number and isinstance(v, games.Classic) and v.k <= args.k_max:
        # Classic(k) is a cop win iff the cop number is at most k, so the
        # cop-number search already solves it; keep its budget error first.
        games.check_budget(g.n, v, args.max_states)
        cop_number = games.cop_number(g, args.k_max, args.max_states)
        winner = games.Winner.COP if cop_number is not None and cop_number <= v.k else games.Winner.ROBBER
    else:
        winner = games.game_value(g, v, args.max_states)
        if args.cop_number:
            cop_number = games.cop_number(g, args.k_max, args.max_states)
    result = {
        "config": {
            "command": "solve", "graph": args.graph, "named": args.named,
            "variant": args.variant, "k": args.k, "m": args.m, "traps": args.traps,
            "blocks": args.blocks, "cop_number": bool(args.cop_number),
            "k_max": args.k_max, "max_states": args.max_states,
        },
        "winner": winner.value,
        "state_estimate": games.state_estimate(g.n, v),
    }
    if args.cop_number:
        result["cop_number"] = cop_number
    result["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    _emit(_json_dump(result), args.out)
    return 0


def _cmd_eval(args) -> int:
    g = _load_graph(args)
    f = _load_formula(args)
    value = logic.evaluate(f, g)
    if args.json:
        config = {"command": "eval", "graph": args.graph, "named": args.named,
                  "formula": args.formula, "axiom": args.axiom, "builtin": args.builtin}
        _emit(_json_dump({"config": config, "formula": logic.to_text(f), "value": value}), args.out)
    else:
        _emit(("true" if value else "false") + "\n", args.out)
    return 0


def _cmd_mu(args) -> int:
    f = _load_formula(args)
    config = {
        "command": "mu", "formula": args.formula, "axiom": args.axiom, "builtin": args.builtin,
        "exact": bool(args.exact), "n": args.n, **({"p": 0.5} if args.exact else _p_config(args)),
        "samples": args.samples, "seed": args.seed, "jobs": args.jobs,
    }
    if args.exact:
        if args.family is not None or args.p not in (None, 0.5):
            raise UsageError("--exact is the uniform measure, p = 1/2; drop --family and any other --p")
        value = experiments.exact_mu(f, args.n)
        _emit(_json_dump({"config": config, "formula": logic.to_text(f),
                          "mu_num": value.numerator, "mu_den": value.denominator,
                          "mu": float(f"{float(value):.6g}")}), args.out)
        return 0
    p_spec = _load_p_spec(args)
    report = experiments.estimate_mu(f, args.n, p_spec, args.samples, args.seed, args.jobs)
    _emit(_json_dump({"config": config, **report.to_json_dict()}), args.out)
    return 0


def _cmd_sweep(args) -> int:
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError as exc:
        raise UsageError(f"--n-list wants comma-separated integers, got {args.n_list!r}") from exc
    p_spec = _load_p_spec(args)
    if args.winner:
        if args.formula or args.axiom or args.builtin:
            raise UsageError("--winner targets a game; drop the formula flags")
        target: experiments.SweepTarget = (
            _load_variant(args),
            games.Winner.COP if args.winner == "cop" else games.Winner.ROBBER,
        )
    else:
        target = _load_formula(args)
    config = {
        "command": "sweep", "formula": args.formula, "axiom": args.axiom, "builtin": args.builtin,
        "variant": args.variant if args.winner else None, "k": args.k, "m": args.m,
        "traps": args.traps, "blocks": args.blocks, "winner": args.winner,
        "n_list": n_list, **_p_config(args), "samples": args.samples,
        "seed": args.seed, "jobs": args.jobs, "max_states": args.max_states,
    }
    rows = experiments.sweep(target, n_list, p_spec, args.samples, args.seed, args.jobs, args.max_states)
    _emit(experiments.sweep_to_csv(rows, config), args.out)
    return 0


def _cmd_threshold(args) -> int:
    if bool(args.rooted) == bool(args.gadget):
        raise UsageError("give exactly one of --rooted/--gadget")
    if args.gadget:
        rg = thresholds.common_neighbor_gadget()
    else:
        with open(args.rooted) as fh:
            rg = thresholds.read_rooted(fh.read())
    fn = thresholds.threshold(rg, args.convention)
    mad = -1 / fn.exponent  # threshold's exponent is -1/mad
    config = {"command": "threshold", "rooted": args.rooted, "gadget": args.gadget,
              "convention": args.convention}
    _emit(_json_dump({"config": config, **fn.to_json_dict(),
                      "mad_num": mad.numerator, "mad_den": mad.denominator,
                      "describe": fn.describe()}), args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "mu": _cmd_mu,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
}

_DOMAIN_ERRORS = (
    graphs.GraphError,
    logic.LogicError,
    games.GameError,
    thresholds.ThresholdError,
    experiments.ExperimentError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
