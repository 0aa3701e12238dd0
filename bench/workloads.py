"""The four bench workloads: inputs from a seed, timed parts, and answer checks.

A workload is a list of parts.  One round runs every part once, in order,
from one process with ``jobs=1``; the round is the unit that ``wall_s`` and
``cpu_s`` time.  Round ``r`` of seed ``s`` draws fresh inputs from
``(s, r, part)``, so a cache keyed on a whole graph or sample never sees a
repeat, while a cache keyed on (n, variant) does.  Part sizes are chosen so
that no part takes much more than a third of its round at the commit that
introduced the bench (see bench/README.md).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from pursuitlab import cli, experiments, games, graphs, logic
from pursuitlab.games import Classic, Complementary, Roadblocks, Tandem, Traps, Winner
from pursuitlab.graphs import PFamily

import oracles

COP, ROBBER = Winner.COP, Winner.ROBBER
DEFAULT_SEED = 1
EXPECTED = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    """Values recorded by bench/record.py where no independent oracle exists."""
    if not EXPECTED.exists():
        return {"default_seed": {}}
    return json.loads(EXPECTED.read_text())


def part_seed(seed: int, rnd: int, part: str) -> int:
    return random.Random(f"{seed}:{rnd}:{part}").getrandbits(62)


def sample_adjacency(n: int, p: float, master: int, samples: int) -> list[tuple[int, ...]]:
    """The graphs a Monte Carlo row with this master seed draws, for checking."""
    return [graphs.gnp_sample(n, p, experiments.derive_trial_seed(master, i)).adjacency for i in range(samples)]


VARIANT_CASE = {
    Classic(1): "classic1", Classic(2): "classic2", Classic(3): "classic3", Tandem(): "tandem",
    Traps(1, 1): "traps11", Complementary(): "complementary", Traps(2, 1): "traps21",
    Roadblocks(1, 1): "roadblocks11",
}

FORMULAS = {
    "escape_1": logic.escape_k(1),
    "trap_escape_1_1": logic.trap_escape(1, 1),
    "tandem_capture": logic.tandem_capture(),
    "complementary_escape": logic.complementary_escape(),
    "empty_graph": logic.empty_graph(),
    "isolated_vertices_2": logic.isolated_vertices(2),
}
FORMULA_CASE = {f: name for name, f in FORMULAS.items()}


class Checker:
    """Counts checked answers; an answer that is wrong or raised is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, total: int, wrong: int, what: str) -> None:
        """Record ``total`` answers of which ``wrong`` failed."""
        self.attempted += total
        self.failed += wrong
        if wrong and len(self.messages) < 20:
            self.messages.append(what if len(what) <= 300 else what[:300] + "...")

    def raised(self, part: str, exc: BaseException) -> None:
        self.expect(False, f"{part}: raised {type(exc).__name__}: {exc}")


class Workload:
    name = ""
    parts: tuple[str, ...] = ()

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.expected = load_expected()

    def inputs(self, seed: int, rnd: int) -> dict:
        raise NotImplementedError

    def run_part(self, part: str, inp):
        return getattr(self, "run_" + part)(inp)

    def check_part(self, part: str, inp, answer, ck: Checker) -> None:
        getattr(self, "check_" + part)(inp, answer, ck)

    def summary(self, part: str, answer):
        """JSON-able digest of an answer, compared with the recorded default-seed run."""
        return answer

    def recorded(self, part: str):
        return self.expected["default_seed"].get(self.name, {}).get(part)


# ---------------------------------------------------------------------------


def _win_row(v, who, n, p_spec, samples, master) -> int:
    return experiments.estimate_win(v, who, n, p_spec, samples, master).successes


class GamesGnp60(Workload):
    name = "games-gnp60"
    # (part, variant, counted winner, samples per round, smoke samples)
    ROWS = (
        ("classic1", Classic(1), ROBBER, 200, 4),
        ("tandem", Tandem(), COP, 150, 4),
        ("complementary", Complementary(), ROBBER, 250, 4),
        ("traps11", Traps(1, 1), ROBBER, 16, 2),
        ("classic3", Classic(3), ROBBER, 16, 2),
    )
    parts = tuple(r[0] for r in ROWS)

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.rows = {r[0]: (r[1], r[2], r[4] if smoke else r[3]) for r in self.ROWS}

    def inputs(self, seed, rnd):
        out = {part: part_seed(seed, rnd, part) for part in self.parts}
        # Classic(3) has no independent oracle at n = 60: its master seed comes
        # from a pool whose per-sample winners were recorded (bench/record.py).
        pool = self.expected["classic3_pool"]["masters"]
        out["classic3"] = pool[part_seed(seed, rnd, "classic3") % len(pool)]
        return out

    def run_part(self, part, master):
        v, who, samples = self.rows[part]
        return _win_row(v, who, 60, 0.5, samples, master)

    def check_part(self, part, master, wins, ck):
        v, who, samples = self.rows[part]
        if part == "classic3":
            pool = self.expected["classic3_pool"]
            bits = pool["robber_wins"][pool["masters"].index(master)]
            ck.expect(wins == bits[:samples].count("1"), f"classic3 master {master}: {wins} robber wins")
            return
        adjs = sample_adjacency(60, 0.5, master, samples)
        if part == "classic1":
            robber = sum(not games.is_dismantlable(graphs.Graph.from_adjacency(a)) for a in adjs)
            ck.expect(wins == robber, f"classic1: {wins} robber wins, {robber} non-dismantlable")
            return
        certify = {"tandem": oracles.diameter_at_most_2, "complementary": oracles.complementary_escape,
                   "traps11": oracles.trap_escape_1_1}[part]
        certified = sum(certify(a) for a in adjs)
        ck.expect(certified <= wins <= samples, f"{part}: {wins} wins, {certified} certified")


# ---------------------------------------------------------------------------


class SentencesGnp(Workload):
    name = "sentences-gnp"
    parts = ("cli_sweep", "implications", "exact_mu")
    SWEEP_N = (10, 20, 40, 60)
    IMPLICATIONS = (
        ("escape_1", Classic(1), ROBBER),
        ("trap_escape_1_1", Traps(1, 1), ROBBER),
        ("tandem_capture", Tandem(), COP),
        ("complementary_escape", Complementary(), ROBBER),
    )
    AXIOMS = ((0, 2), (1, 2), (1, 3))
    JOBS_ROW = (60, 0.5, 120)  # n, p, samples of the jobs=1 vs jobs=2 row

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.sweep_samples = 3 if smoke else 80
        self.graphs = 27 if smoke else 135  # whole cycles of the 27 sizes
        self._mu5: dict | None = None

    def inputs(self, seed, rnd):
        return {part: part_seed(seed, rnd, part) for part in self.parts}

    def run_cli_sweep(self, master):
        argv = ["sweep", "--builtin", "escape_1", "--n-list", ",".join(map(str, self.SWEEP_N)),
                "--p", "0.5", "--samples", str(self.sweep_samples), "--seed", str(master)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def check_cli_sweep(self, master, answer, ck):
        rc, text = answer
        rows = [r for r in csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#"))]
        ck.expect(rc == 0 and [int(r["n"]) for r in rows] == list(self.SWEEP_N), f"sweep rc={rc}")
        for r in rows:
            n = int(r["n"])
            truth = sum(oracles.escape_1(a) for a in sample_adjacency(n, 0.5, master, self.sweep_samples))
            ck.expect(r["successes"] == str(truth), f"sweep n={n}: {r['successes']} vs {truth}")

    def summary(self, part, answer):
        if part == "cli_sweep":
            return [r["successes"] for r in csv.DictReader(
                ln for ln in answer[1].splitlines() if not ln.startswith("#"))]
        if part == "implications":
            return [[list(vals), [w.value for w in wins]] for _, vals, wins in answer]
        return [str(x) for x in answer]

    def run_implications(self, master):
        out = []
        for i in range(self.graphs):
            n = 4 + i % 27
            p = (0.2, 0.5, 0.8)[i % 3]
            g = graphs.gnp_sample(n, p, experiments.derive_trial_seed(master, i))
            vals, wins = [], []
            for name, v, _ in self.IMPLICATIONS:
                val = logic.evaluate(FORMULAS[name], g)
                vals.append(val)
                if val:
                    wins.append(games.game_value(g, v))
            out.append((g.adjacency, vals, wins))
        return out

    def check_implications(self, master, answer, ck):
        for adj, vals, wins in answer:
            fired = iter(wins)
            for (name, _, who), val in zip(self.IMPLICATIONS, vals):
                ck.expect(val == oracles.SENTENCES[name](adj), f"evaluate {name} on n={len(adj)}")
                if val:
                    w = next(fired)
                    ck.expect(w is who, f"{name} fired but game_value gave {w} on n={len(adj)}")

    def run_exact_mu(self, _):
        out = []
        for m, k in self.AXIOMS:
            f = logic.extension_axiom(m, k)
            out.append(experiments.exact_mu(f, 7))
            out.append(experiments.exact_mu(f, 5))
        return out

    def check_exact_mu(self, _, answer, ck):
        if self._mu5 is None:
            # Per-graph evaluate summed over all 1024 five-vertex graphs.
            five = [graphs.Graph.from_adjacency(a) for a in all_adjacency(5)]
            self._mu5 = {mk: Fraction(sum(logic.evaluate(logic.extension_axiom(*mk), g) for g in five), len(five))
                         for mk in self.AXIOMS}
        recorded = self.expected["exact_mu7"]
        for (m, k), mu7, mu5 in zip(self.AXIOMS, answer[0::2], answer[1::2]):
            ck.expect(str(mu7) == recorded[f"{m},{k}"], f"exact_mu EA({m},{k}) n=7: {mu7}")
            ck.expect(mu5 == self._mu5[(m, k)], f"exact_mu EA({m},{k}) n=5: {mu5} vs {self._mu5[(m, k)]}")

    def jobs_row(self, seed: int, jobs: int):
        n, p, samples = self.JOBS_ROW
        if self.smoke:
            samples = 8
        return experiments.estimate_mu(FORMULAS["escape_1"], n, p, samples, part_seed(seed, 0, "jobs"), jobs).successes


# ---------------------------------------------------------------------------


class SparseLargeN(Workload):
    name = "sparse-large-n"
    # (part, n, family, kind, target, counted winner)
    ROWS = (
        ("empty300", 300, PFamily(1, 2.5, 0), "mu", "empty_graph", None),
        ("isolated500", 500, PFamily(1, 1.25, 0), "mu", "isolated_vertices_2", None),
        ("classic1_300", 300, PFamily(1, 2.5, 0), "win", Classic(1), ROBBER),
        ("comp_robber200", 200, PFamily(1, 0.2, 0), "win", Complementary(), ROBBER),
        ("comp_cop200", 200, PFamily(1, 1.8, 0), "win", Complementary(), COP),
    )
    parts = tuple(r[0] for r in ROWS)

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.samples = 2 if smoke else 40
        self.rows = {r[0]: r[1:] for r in self.ROWS}

    def inputs(self, seed, rnd):
        out = {part: part_seed(seed, rnd, part) for part in self.parts}
        out["classic1_300"] = out["empty300"]  # criterion 7 plays Classic(1) on the same N = 300 graphs
        return out

    def run_part(self, part, master):
        n, fam, kind, target, who = self.rows[part]
        if kind == "mu":
            return experiments.estimate_mu(FORMULAS[target], n, fam, self.samples, master).successes
        return _win_row(target, who, n, fam, self.samples, master)

    def check_part(self, part, master, wins, ck):
        n, fam, kind, target, who = self.rows[part]
        adjs = sample_adjacency(n, fam.p(n), master, self.samples)
        if part == "empty300":
            truth = sum(oracles.edge_count(a) == 0 for a in adjs)
        elif part in ("isolated500", "comp_cop200"):
            # An isolated vertex witnesses isolated_vertices(2) (no distinctness
            # guard) and is a spot from which the complementary cop reaches
            # every other vertex in one move.
            truth = sum(oracles.has_isolated_vertex(a) for a in adjs)
        elif part == "classic1_300":
            # Fewer than n-1 edges means disconnected, which is a robber win.
            truth = sum(oracles.edge_count(a) < n - 1 or not games.is_dismantlable(graphs.Graph.from_adjacency(a))
                        for a in adjs)
        else:
            truth = sum(oracles.complementary_escape(a) for a in adjs)
        if part in ("comp_robber200", "comp_cop200"):
            ck.expect(truth <= wins <= self.samples, f"{part}: {wins} wins, {truth} certified")
        else:
            ck.expect(wins == truth, f"{part}: {wins} vs {truth}")


# ---------------------------------------------------------------------------


def all_adjacency(n: int) -> list[tuple[int, ...]]:
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        out.append(tuple(adj))
    return out


class SmallExhaustive(Workload):
    name = "small-exhaustive"
    parts = ("six_classic1", "six_tandem", "arena_roadblocks", "arena_traps21", "cli_solve")
    FAST_VARIANTS = (Classic(1), Classic(2), Tandem(), Complementary(), Traps(1, 1))
    # argv, expected winner, expected cop number (None: not asked, or checked on the explicit arena)
    CLI = (
        (["solve", "--named", "petersen", "--cop-number"], "Robber", 3),
        (["solve", "--named", "d4", "--cop-number"], "Cop", 1),
        (["solve", "--named", "cycle(28)", "--k", "2", "--cop-number"], "Cop", 2),
        (["solve", "--named", "k33", "--variant", "traps", "--m", "1", "--traps", "1"], "Robber", None),
        (["solve", "--named", "cycle(36)", "--variant", "tandem"], None, None),
    )

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.six = [graphs.Graph.from_adjacency(a) for a in all_adjacency(6)]
        self.classic1_count = 512 if smoke else len(self.six)
        self.tandem_count = 64 if smoke else 6144
        self.arena_n = {"arena_roadblocks": 8 if smoke else 12, "arena_traps21": 6 if smoke else 10}
        self.dismantlable = None
        self.tandem_table = bytes.fromhex(self.expected.get("tandem_six", ""))
        self._cli_tandem: str | None = None

    def inputs(self, seed, rnd):
        out = {
            "six_classic1": range(self.classic1_count),
            "six_tandem": random.Random(part_seed(seed, rnd, "six_tandem")).sample(range(len(self.six)),
                                                                                    self.tandem_count),
            "cli_solve": None,
        }
        for part, variant in (("arena_roadblocks", Roadblocks(1, 1)), ("arena_traps21", Traps(2, 1))):
            out[part] = (self._half_dense(self.arena_n[part], part_seed(seed, rnd, part)), variant)
        return out

    @staticmethod
    def _half_dense(n: int, seed: int) -> graphs.Graph:
        """First G(n, 1/2) draw with exactly half the pairs as edges.

        Fixing the edge count keeps arena size, and with it the round time,
        from swinging with the seed.
        """
        target = n * (n - 1) // 4
        for j in range(10_000):
            g = graphs.gnp_sample(n, 0.5, seed + j)
            if g.edge_count() == target:
                return g
        raise RuntimeError("no half-dense sample found")

    def run_six_classic1(self, idx):
        six = self.six
        return [games.game_value(six[i], Classic(1)) for i in idx]

    def check_six_classic1(self, idx, answer, ck):
        if self.dismantlable is None:
            self.dismantlable = [games.is_dismantlable(g) for g in self.six]
        wrong = sum((w is COP) != self.dismantlable[i] for i, w in zip(idx, answer))
        ck.tally(len(answer), wrong, f"six_classic1: {wrong} answers disagree with dismantlability")

    def run_six_tandem(self, idx):
        six = self.six
        return [games.game_value(six[i], Tandem()) for i in idx]

    def check_six_tandem(self, idx, answer, ck):
        table = self.tandem_table
        wrong = sum((w is COP) != bool((table[i >> 3] >> (i & 7)) & 1) for i, w in zip(idx, answer))
        ck.tally(len(answer), wrong, f"six_tandem: {wrong} answers disagree with the recorded table")
        # Explicit arena against the fast backend on a few graphs per variant.
        rng = random.Random(sum(idx[:8]))
        for v in self.FAST_VARIANTS:
            for i in rng.sample(range(len(self.six)), 3):
                g = self.six[i]
                arena = games.build_arena(g, v)
                explicit = games.solve(arena).winner[arena.root]
                ck.expect(games.game_value(g, v) is explicit, f"{VARIANT_CASE[v]} graph {i}: fast != explicit")

    def run_arena(self, inp):
        g, v = inp
        arena = games.build_arena(g, v)
        return arena, games.solve(arena)

    run_arena_roadblocks = run_arena_traps21 = run_arena

    def check_arena(self, inp, answer, ck):
        g, v = inp
        arena, winmap = answer
        cop_won = oracles.cop_won_states(arena.succ, [o.value == "Cops" for o in arena.owner], arena.capture)
        ck.expect(list(cop_won) == [w is COP for w in winmap.winner], f"{VARIANT_CASE[v]}: solve != sweep attractor")
        # Cops who never use their traps or blocks play Classic(m).
        if games.game_value(g, Classic(v.m)) is COP:
            ck.expect(winmap.winner[arena.root] is COP, f"{VARIANT_CASE[v]}: Classic({v.m}) cop win but robber")

    check_arena_roadblocks = check_arena_traps21 = check_arena

    def run_cli_solve(self, _):
        out = []
        for argv, _, _ in self.CLI:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
            out.append((rc, buf.getvalue()))
        return out

    def check_cli_solve(self, _, answer, ck):
        for (argv, winner, cops), (rc, text) in zip(self.CLI, answer):
            result = json.loads(text) if rc == 0 else {}
            if winner is None:
                if self._cli_tandem is None:
                    arena = games.build_arena(graphs.named(argv[2]), Tandem())
                    self._cli_tandem = games.solve(arena).winner[arena.root].value
                winner = self._cli_tandem
            ok = rc == 0 and result.get("winner") == winner and result.get("cop_number") == cops
            ck.expect(ok, f"cli {' '.join(argv)}: rc={rc} {result.get('winner')} {result.get('cop_number')}")

    def summary(self, part, answer):
        if part in ("six_classic1", "six_tandem"):
            return sum(w is COP for w in answer)
        if part.startswith("arena"):
            arena, winmap = answer
            return [arena.state_count, arena.transition_count, winmap.winner[arena.root].value]
        return [json.loads(text).get("winner") if rc == 0 else rc for rc, text in answer]


WORKLOADS = {w.name: w for w in (GamesGnp60, SentencesGnp, SparseLargeN, SmallExhaustive)}
