import random
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import or_

import numpy as np
import pytest

from pursuitlab import fastsolve
from pursuitlab.games import (
    Arena,
    ArenaBudgetError,
    Classic,
    Complementary,
    GameError,
    Owner,
    Roadblocks,
    SimulationError,
    Tandem,
    Traps,
    Winner,
    build_arena,
    cop_number,
    game_value,
    game_values,
    is_dismantlable,
    simulate,
    solve,
    state_estimate,
)
from pursuitlab.graphs import Graph, complement, gnp_sample, named

from conftest import all_graphs, graph_from_mask, pair_list


# --------------------------------------------------------------- paper table

WINNER_TABLE = [
    ("c4", Classic(1), Winner.ROBBER),
    ("d4", Classic(1), Winner.COP),
    ("p4", Classic(1), Winner.COP),
    ("k33", Classic(2), Winner.COP),
    ("k33", Traps(1, 1), Winner.ROBBER),
    ("petersen", Classic(2), Winner.ROBBER),
    ("petersen", Classic(3), Winner.COP),
    ("petersen", Tandem(), Winner.COP),
    ("c4", Tandem(), Winner.COP),
]


@pytest.mark.parametrize("name,variant,expected", WINNER_TABLE)
def test_named_graph_winners(name, variant, expected):
    assert game_value(named(name), variant) is expected


def test_cop_numbers():
    assert cop_number(named("petersen"), 4) == 3
    assert cop_number(named("complete(5)"), 2) == 1
    assert cop_number(named("c4"), 3) == 2
    assert cop_number(named("petersen"), 2) is None


# --------------------------------------------------------------------- arena

def test_arena_c4_classic1_counts():
    a = build_arena(named("c4"), Classic(1))
    move_states = sum(1 for s in a.states if s[0] in ("C", "R"))
    assert move_states == 4 * 4 * 2
    placement_states = sum(1 for s in a.states if s[0] in ("PC", "PR"))
    assert placement_states == 1 + 4
    assert a.state_count == 37
    assert a.transition_count == sum(len(s) for s in a.succ)


def test_arena_tandem_invariant():
    g = named("petersen")
    a = build_arena(g, Tandem())
    for s in a.states:
        if s[0] in ("C", "R", "PR"):
            c1, c2 = s[1]
            assert c1 == c2 or g.has_edge(c1, c2)


def test_arena_traps_stock_invariant():
    a = build_arena(named("k33"), Traps(1, 1))
    for idx in range(a.state_count):
        st = a.describe(idx)
        if st.turn in ("Cops", "Robber"):
            assert len(st.trap_sites) + st.stock == 1
            assert len(st.trap_sites) <= 1


def test_arena_capture_states_are_terminal_and_others_move():
    for name, variant in [("c4", Classic(1)), ("k33", Traps(1, 1)), ("petersen", Tandem())]:
        a = build_arena(named(name), variant)
        for i in range(a.state_count):
            if a.capture[i]:
                assert a.succ[i] == []
            else:
                assert len(a.succ[i]) >= 1


def test_arena_budget_error():
    with pytest.raises(ArenaBudgetError):
        build_arena(named("petersen"), Classic(2), max_states=50)
    with pytest.raises(ArenaBudgetError):
        game_value(gnp_sample(200, 0.5, 1), Classic(3))


def test_arena_deterministic_indexing():
    a = build_arena(named("k33"), Traps(1, 1))
    b = build_arena(named("k33"), Traps(1, 1))
    assert a.states == b.states
    assert a.succ == b.succ


def test_state_estimate_covers_actual_move_states():
    for name, variant in [("c4", Classic(1)), ("c4", Tandem()), ("k33", Traps(1, 1)), ("p4", Roadblocks(1, 1))]:
        g = named(name)
        a = build_arena(g, variant)
        move_states = sum(1 for s in a.states if s[0] in ("C", "R"))
        assert move_states <= state_estimate(g.n, variant)


# --------------------------------------------------------------------- solve

def test_solver_fixpoint_property():
    for name, variant in [("c4", Classic(1)), ("k33", Classic(2)), ("petersen", Tandem()), ("k33", Traps(1, 1))]:
        a = build_arena(named(name), variant)
        wm = solve(a)
        for s in range(a.state_count):
            if a.capture[s]:
                assert wm.winner[s] is Winner.COP
                continue
            succ_winners = [wm.winner[t] for t in a.succ[s]]
            if a.owner[s] is Owner.COPS:
                expected = Winner.COP if Winner.COP in succ_winners else Winner.ROBBER
            else:
                expected = Winner.ROBBER if Winner.ROBBER in succ_winners else Winner.COP
            assert wm.winner[s] is expected


def test_fast_and_explicit_backends_agree_exhaustively():
    variants = [Classic(1), Classic(2), Classic(3), Tandem(), Complementary(), Traps(1, 1), Traps(1, 2)]
    for g in (g for n in range(1, 5) for g in all_graphs(n)):
        for v in variants:
            a = build_arena(g, v)
            assert solve(a).winner[a.root] is game_value(g, v)


def test_fast_and_explicit_backends_agree_random():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(5, 8)
        g = gnp_sample(n, rng.choice([0.2, 0.5, 0.8]), rng.getrandbits(32))
        for v in [Classic(1), Classic(2), Tandem(), Complementary(), Traps(1, 1), Traps(1, 2)]:
            a = build_arena(g, v)
            assert solve(a).winner[a.root] is game_value(g, v)
    for _ in range(6):
        g = gnp_sample(rng.randint(6, 9), 0.5, rng.getrandbits(32))
        a = build_arena(g, Classic(3))
        assert solve(a).winner[a.root] is game_value(g, Classic(3))
    # The cop wins here only by picking its trap up again.
    g = gnp_sample(7, 0.5, 189)
    a = build_arena(g, Traps(1, 1))
    assert solve(a).winner[a.root] is game_value(g, Traps(1, 1))


def _dominated_by(g: Graph, k: int) -> bool:
    """Some k vertices have closed neighbourhoods that cover the graph."""
    closed = [g.adjacency[v] | 1 << v for v in range(g.n)]
    return any(reduce(or_, (closed[v] for v in s)) == (1 << g.n) - 1 for s in combinations(range(g.n), k))


def test_fast_and_explicit_backends_agree_past_the_first_round():
    """No legal placement dominates the named graphs, so the packed kernel's
    closed-form first cop step does not decide them and its loop runs; the
    sparse samples mix games decided in the first round with longer ones."""
    cases = [
        (named("cycle(7)"), Classic(2), Winner.COP),  # domination number 3
        (named("petersen"), Classic(2), Winner.ROBBER),
        (named("cycle(10)"), Classic(3), Winner.COP),  # domination number 4
        (_disjoint_union(named("petersen"), named("c4")), Classic(3), Winner.ROBBER),  # cop numbers add to 5
    ]
    for g, v, expected in cases:
        assert not _dominated_by(g, v.k)
        a = build_arena(g, v)
        assert solve(a).winner[a.root] is expected
        assert game_value(g, v) is expected
    undecided = 0
    for seed in range(12):
        g = gnp_sample(9 + seed % 2, 0.2, seed)
        undecided += not _dominated_by(g, 3)
        assert not _dominated_by(g, 1)  # so no Traps(1,1) game ends in the first round
        for v in (Classic(3), Traps(1, 1)):
            a = build_arena(g, v)
            assert solve(a).winner[a.root] is game_value(g, v)
    assert undecided >= 6


def test_byte_table_robber_step_matches_its_definition():
    """The robber is trapped at r iff N[r] lies inside the row CT."""
    rng = np.random.default_rng(5)
    # Rows of 1..130 vertices: padding bits in the last word, and several words.
    for n in (1, 7, 8, 63, 64, 65, 130):
        g = gnp_sample(n, 0.3, n)
        closed = np.array([[u == v or g.has_edge(u, v) for u in range(n)] for v in range(n)])
        ct = rng.random((40, n)) < rng.random((40, 1))  # rows of every density
        ct = np.vstack([ct, np.zeros(n, bool), np.ones(n, bool)])
        table = fastsolve._trap_table(fastsolve._pack(closed), fastsolve._pack(np.ones(n, bool)))
        got = fastsolve._trapped(fastsolve._pack(ct), table)
        bits = np.unpackbits(got.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        want = (closed[None] <= ct[:, None]).all(axis=2)  # want[i, r]: N[r] inside ct[i]
        assert (bits[:, :n] == want).all() and not bits[:, n:].any()


def test_batch_and_single_graph_engines_agree():
    """The matrix batch against the big-int engine, graph by graph.  Trees,
    paths, cycles and sparse G(n, c/n) make both loops run many rounds."""
    batches = [list(all_graphs(6))]  # all 32768 six-vertex graphs in one call
    batches += [list(all_graphs(n)) for n in range(1, 5)]
    # Adjacency rows of 63..65 and 130 vertices end on either side of a 64-bit word.
    batches += [[gnp_sample(n, p, seed) for seed in range(3)] for n in (63, 64, 65, 130) for p in (0.1, 0.5, 0.9)]
    batches += [[gnp_sample(n, p, seed) for p in (0.2, 0.5, 0.8) for seed in range(10)] for n in (22, 23, 24, 37, 38, 39)]
    batches += [[_random_tree(n, random.Random(seed)) for seed in range(3)] + [named(f"path({n})"), named(f"cycle({n})")] for n in (60, 130)]
    batches += [[gnp_sample(n, c / n, seed) for c in (1, 2, 4) for seed in range(2)] for n in (130, 300)]
    for v in (Classic(1), Complementary()):
        for gs in batches:
            one = [fastsolve._int_winner(g, v) for g in gs]
            assert fastsolve._single_cop_batch(gs, gs[0].n, isinstance(v, Complementary)) == one
    assert fastsolve.winners([], Classic(1)) == [] and game_values([], Complementary()) == []


def _record_engines(monkeypatch, names):
    calls = []
    for name in names:
        engine = getattr(fastsolve, name)
        monkeypatch.setattr(fastsolve, name, lambda *a, _name=name, _engine=engine: calls.append(_name) or _engine(*a))
    return calls


def test_single_cop_engine_is_chosen_by_graph_count(monkeypatch):
    """One graph runs the big-int engine at every n, for each variant it
    takes; two or more single-cop graphs run the matrix batch."""
    calls = _record_engines(monkeypatch, ("_int_winner", "_single_cop_batch"))
    for v in (Classic(1), Complementary(), Tandem()):
        for n in (6, 24, 39, 120):
            g = gnp_sample(n, 0.5, 1)
            for solve_one in (fastsolve.winner, game_value, lambda g, v: fastsolve.winners([g], v)):
                calls.clear()
                solve_one(g, v)
                assert calls == ["_int_winner"], (n, v)
    two_small = [gnp_sample(6, 0.5, seed) for seed in range(2)]
    for v in (Classic(1), Complementary()):
        for solve_all in (fastsolve.winners, game_values):
            calls.clear()
            solve_all(two_small, v)
            assert calls == ["_single_cop_batch"], v


def test_two_cop_engine_is_chosen_by_variant(monkeypatch):
    """Tandem has no crossover, and stays on the big-int engine at every n;
    Classic(k >= 2) runs the packed kernel at every n."""
    calls = _record_engines(monkeypatch, ("_int_winner", "_kernel_winner"))
    cases = [(Tandem(), gnp_sample(n, 0.5, 1), "_int_winner") for n in (6, 120)]
    cases += [(Classic(k), gnp_sample(n, 0.5, 1), "_kernel_winner") for k in (2, 3) for n in (6, 12)]
    for v, g, engine in cases:
        for solve_one in (fastsolve.winner, game_value, lambda g, v: fastsolve.winners([g, g], v)[0]):
            calls.clear()
            solve_one(g, v)
            assert set(calls) == {engine}, (g.n, v)


def _kernel_tandem(g: Graph) -> Winner:
    """Tandem on the packed kernel over ordered cop pairs (lead, second),
    without the big-int engine's factorisation: the lead moves inside its
    closed neighbourhood, then the second cop anywhere in N[lead] (an OR over
    the second axis, read on the diagonal).  Legal placements are equal or
    adjacent pairs, and the first cop step reaches the lead's closed 2-ball."""
    n = g.n
    eye = np.eye(n, dtype=bool)
    closed = np.array([[u == v or g.has_edge(u, v) for u in range(n)] for v in range(n)])
    bits = fastsolve._pack(eye)
    diag = np.arange(n)

    def cop_step(rt, nb):
        lead = fastsolve._nbhd_or(rt, 1, nb)[diag, diag]
        return fastsolve._nbhd_or(lead, 0, nb)[:, None].repeat(n, axis=1)

    ball = fastsolve._pack(closed.astype(int) @ closed > 0)
    return fastsolve._fixpoint(closed, fastsolve._pack(closed), [bits, bits], [ball, bits], closed, cop_step)


def test_big_int_and_kernel_engines_agree_on_tandem():
    """The big-int engine against the packed kernel for Tandem, on every
    graph with n <= 6 and on seeded sparse graphs at larger n.  Where round
    one decides (some lead has a full closed 2-ball), the kernel returns a
    cop win from its closed-form first step, so the big-int answer is
    checked against that test directly; every other graph is solved by both,
    and both winners must occur among them."""
    def two_ball_full(g):
        closed = [a | 1 << v for v, a in enumerate(g.adjacency)]
        return any(reduce(or_, (closed[x] for x in g.neighbors(c)), closed[c]) == (1 << g.n) - 1 for c in range(g.n))

    gs = [g for n in range(1, 7) for g in all_graphs(n)]
    gs += [gnp_sample(n, p, seed) for n in (7, 12, 30) for p in (0.1, 0.2, 0.5) for seed in range(4)]
    undecided = {w: 0 for w in Winner}
    for g in gs:
        w = fastsolve._int_winner(g, Tandem())
        if two_ball_full(g):
            assert w is Winner.COP, g.adjacency
        else:
            assert w is _kernel_tandem(g), g.adjacency
            undecided[w] += 1
    assert min(undecided.values()) >= 100, undecided


def test_batch_needs_graphs_of_one_size():
    gs = [gnp_sample(5, 0.5, 1), gnp_sample(6, 0.5, 1)]
    for v in (Classic(1), Tandem()):
        with pytest.raises(GameError, match="one size"):
            fastsolve.winners(gs, v)
        with pytest.raises(GameError, match="one size"):
            game_values(gs, v)


def test_game_values_matches_game_value_on_every_backend():
    gs = [gnp_sample(7, 0.5, seed) for seed in range(6)]
    for v in (Classic(1), Classic(2), Tandem(), Complementary(), Traps(1, 1), Traps(2, 1), Roadblocks(1, 1)):
        assert game_values(gs, v) == [game_value(g, v) for g in gs]
    with pytest.raises(ArenaBudgetError):
        game_values(gs, Classic(1), max_states=10)


# ------------------------------------------------------------- dismantlable

def test_dismantlable_examples():
    assert is_dismantlable(named("p4")) is True
    assert is_dismantlable(named("c4")) is False
    assert is_dismantlable(named("d4")) is True
    assert is_dismantlable(named("petersen")) is False
    assert is_dismantlable(Graph(1)) is True


def test_random_trees_are_dismantlable():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
        assert is_dismantlable(Graph(n, edges)) is True


def _dismantlable_any_survivor(g):
    """Reference: the same deletion, trying every survivor as a dominator."""
    closed = [g.adjacency[v] | (1 << v) for v in range(g.n)]
    active = (1 << g.n) - 1
    active_count = g.n
    while active_count > 1:
        removed = False
        m = active
        while m:
            bu = m & -m
            m ^= bu
            u = bu.bit_length() - 1
            cu = closed[u] & active
            mm = active & ~bu
            while mm:
                bv = mm & -mm
                mm ^= bv
                v = bv.bit_length() - 1
                if cu & ~(closed[v] & active) == 0:
                    active ^= bu
                    active_count -= 1
                    removed = True
                    break
            if removed:
                break
        if not removed:
            return False
    return True


def test_dismantlable_matches_any_survivor_reference():
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        g = gnp_sample(n, rng.choice([0.2, 0.5, 0.8]), rng.getrandbits(40))
        seen.add(_dismantlable_any_survivor(g))
        assert is_dismantlable(g) is _dismantlable_any_survivor(g)
    assert seen == {False, True}


def test_dismantlable_matches_any_survivor_reference_on_large_and_dense_graphs():
    rng = random.Random(23)
    seen = set()
    gs = [gnp_sample(n, p, rng.getrandbits(40)) for n, p, count in ((60, 0.5, 20), (300, 2.5 / 300, 1), (40, 0.95, 20))
          for _ in range(count)]
    for chords in (0, 0, 0, 3, 3, 3):  # trees, which dismantle leaf by leaf, some with chords added
        edges = {(rng.randrange(i), i) for i in range(1, 60)}
        edges |= {tuple(sorted(rng.sample(range(60), 2))) for _ in range(chords)}
        gs.append(Graph(60, sorted(edges)))
    for g in gs:
        expected = _dismantlable_any_survivor(g)
        seen.add(expected)
        assert is_dismantlable(g) is expected
    assert seen == {False, True}


def test_solver_matches_dismantlable_on_all_5_vertex_graphs():
    gs = list(all_graphs(5))
    for g, w in zip(gs, game_values(gs, Classic(1))):
        assert (w is Winner.COP) == is_dismantlable(g)


def test_solver_matches_dismantlable_on_random_graphs():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(5, 40)
        g = gnp_sample(n, rng.choice([0.2, 0.5, 0.8]), rng.getrandbits(32))
        assert (game_value(g, Classic(1)) is Winner.COP) == is_dismantlable(g)


def test_cop_monotonicity_all_6_vertex_graphs():
    pairs = pair_list(6)
    gs = [graph_from_mask(6, mask, pairs) for mask in range(1 << 15)]
    for g, one_cop in zip(gs, game_values(gs, Classic(1))):
        if one_cop is Winner.COP:
            assert game_value(g, Classic(2)) is Winner.COP
        elif game_value(g, Classic(2)) is Winner.COP:
            assert game_value(g, Classic(3)) is Winner.COP


# ------------------------------------------------------------------ simulate

def test_simulate_capture_on_cop_won_graphs():
    for name, variant in [("d4", Classic(1)), ("p4", Classic(1)), ("k33", Classic(2)), ("c4", Tandem())]:
        g = named(name)
        a = build_arena(g, variant)
        trace = simulate(g, variant, "optimal", "optimal")
        assert trace.outcome == "capture"
        assert trace.capture_round <= a.state_count


def test_simulate_survival_on_robber_won_graphs():
    for name, variant, cop in [("c4", Classic(1), "optimal"), ("c4", Classic(1), "greedy"),
                               ("petersen", Classic(2), "random"), ("k33", Traps(1, 1), "optimal")]:
        trace = simulate(named(name), variant, cop, "optimal", max_rounds=60, seed=5)
        assert trace.outcome == "survived"


def test_simulate_d4_capture_round_one():
    trace = simulate(named("d4"), Classic(1), "optimal", "optimal")
    assert trace.outcome == "capture" and trace.capture_round == 1


def test_simulate_illegal_policy_raises():
    def broken(arena, wm, state, rng):
        return -1

    with pytest.raises(SimulationError, match="illegal move"):
        simulate(named("c4"), Classic(1), broken, "optimal")


def test_strategy_soundness_against_random_opponents():
    # Cop-won instance: optimal cops beat 100 random robbers.
    g = named("petersen")
    for seed in range(100):
        t = simulate(g, Tandem(), "optimal", "random", seed=seed)
        assert t.outcome == "capture"
    # Robber-won instance: optimal robber survives 100 random cop policies.
    c4 = named("c4")
    for seed in range(100):
        t = simulate(c4, Classic(1), "random", "optimal", max_rounds=40, seed=seed)
        assert t.outcome == "survived"


def test_trace_json_lines():
    import json

    t = simulate(named("d4"), Classic(1), "optimal", "optimal")
    lines = t.to_json_lines().strip().splitlines()
    assert json.loads(lines[-1])["outcome"] == "capture"
    first = json.loads(lines[0])
    assert first["mover"] == "placement_cops"


# ----------------------------------------------------------------- roadblocks

def test_roadblocks_basics():
    # blocks can only help the cops: P4 stays cop-win
    assert game_value(named("p4"), Roadblocks(1, 1)) is Winner.COP
    assert game_value(named("complete(2)"), Roadblocks(1, 1)) is Winner.COP
    assert game_value(Graph(3), Roadblocks(1, 1)) is Winner.ROBBER
    # one block turns the C4 chase into a path chase
    assert game_value(named("c4"), Roadblocks(1, 1)) is Winner.COP


def test_roadblocks_simulate_and_trace():
    import json

    t = simulate(named("c4"), Roadblocks(1, 1), "optimal", "optimal", seed=2)
    assert t.outcome == "capture"
    lines = [json.loads(ln) for ln in t.to_json_lines().strip().splitlines()]
    assert any(step.get("state", {}).get("blocked") for step in lines[:-1]) or t.capture_round <= 2


def test_roadblocks_block_stock_accounting():
    a = build_arena(named("c4"), Roadblocks(1, 1))
    for idx in range(a.state_count):
        st = a.describe(idx)
        if st.turn in ("Cops", "Robber"):
            assert len(st.blocked_edges) + st.stock == 1


def test_variant_validation():
    with pytest.raises(GameError):
        Classic(0)
    with pytest.raises(GameError):
        Traps(0, 1)
    with pytest.raises(GameError):
        cop_number(named("c4"), 0)


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges)


def _random_tree(n: int, rng: random.Random) -> Graph:
    return Graph(n, [(rng.randint(0, i - 1), i) for i in range(1, n)])


def test_multiword_masks_on_graphs_past_64_vertices():
    """Vertex sets beyond one 64-bit word: provable winners via component
    arithmetic (cop numbers add over disjoint unions, a tandem pair cannot
    straddle components, a lone trap cannot cover a second component)."""
    rng = random.Random(77)
    t1, t2 = _random_tree(33, rng), _random_tree(33, rng)
    two_trees = _disjoint_union(t1, t2)  # n = 66, cop number 2
    assert game_value(two_trees, Classic(1)) is Winner.ROBBER
    assert game_value(two_trees, Classic(2)) is Winner.COP
    assert game_value(two_trees, Tandem()) is Winner.ROBBER
    assert game_value(two_trees, Traps(1, 1)) is Winner.ROBBER

    c4_plus_tree = _disjoint_union(named("c4"), _random_tree(61, rng))  # n = 65, cop number 3
    assert game_value(c4_plus_tree, Classic(2)) is Winner.ROBBER
    assert game_value(c4_plus_tree, Classic(3)) is Winner.COP

    one_tree = _random_tree(66, rng)
    assert game_value(one_tree, Classic(1)) is Winner.COP
    assert game_value(one_tree, Traps(1, 1)) is Winner.COP
    assert game_value(named("complete(70)"), Tandem()) is Winner.COP


def test_multiword_tandem_agrees_with_capture_formula():
    # tandem_capture true forces a tandem cop win; checks the n > 64 path
    from pursuitlab.logic import evaluate, tandem_capture

    g = gnp_sample(70, 0.5, 4321)
    assert evaluate(tandem_capture(), g)
    assert game_value(g, Tandem()) is Winner.COP


def test_traps_with_zero_stock_match_classic():
    for name in ("c4", "d4", "p4", "k33"):
        g = named(name)
        assert game_value(g, Traps(1, 0)) is game_value(g, Classic(1))


def test_traps_with_two_cops_goes_through_explicit_arena():
    # no fast path for m >= 2; two cops already win on K33 even without traps
    assert game_value(named("k33"), Traps(2, 1)) is Winner.COP
    g = named("c4")
    a = build_arena(g, Traps(2, 1))
    assert solve(a).winner[a.root] is game_value(g, Traps(2, 1))


# ------------------------------------------------------------ move-rule pin
# The explicit arena's move rules as they stood before toggles were threaded
# once per joint move: one action generator per variant, every order of the
# cops tried, Complementary with its own branches.  The pin test checks that
# build_arena and solve still give the same arena and WinMap.

def _ref_initial_aux(v):
    if isinstance(v, Traps):
        return ((), v.t)
    if isinstance(v, Roadblocks):
        return ((), v.b)
    return ()


def _ref_placements(g, v):
    aux = _ref_initial_aux(v)
    if isinstance(v, Classic):
        for cops in combinations_with_replacement(range(g.n), v.k):
            yield cops, aux
    elif isinstance(v, (Traps, Roadblocks)):
        for cops in combinations_with_replacement(range(g.n), v.m):
            yield cops, aux
    elif isinstance(v, Complementary):
        for c in range(g.n):
            yield (c,), aux
    else:
        for c1 in range(g.n):
            for c2 in range(g.n):
                if c1 == c2 or g.has_edge(c1, c2):
                    yield (c1, c2), aux


def _ref_trap_actions(c, sites, stock):
    yield sites, stock
    if stock > 0 and c not in sites:
        yield tuple(sorted(sites + (c,))), stock - 1
    if c in sites:
        yield tuple(s for s in sites if s != c), stock + 1


def _ref_block_actions(g, c, blocked, stock):
    yield blocked, stock
    for x in sorted(g.neighbors(c)):
        e = (min(c, x), max(c, x))
        if stock > 0 and e not in blocked:
            yield tuple(sorted(blocked + (e,))), stock - 1
        if e in blocked:
            yield tuple(b for b in blocked if b != e), stock + 1


def _ref_cop_moves(g, v, closed, cops, aux):
    if isinstance(v, Classic):
        seen = set()
        for joint in product(*(closed[c] for c in cops)):
            key = tuple(sorted(joint))
            if key not in seen:
                seen.add(key)
                yield key, aux
    elif isinstance(v, Complementary):
        for c2 in closed[cops[0]]:
            yield (c2,), aux
    elif isinstance(v, Tandem):
        for c1n in closed[cops[0]]:
            for c2n in closed[c1n]:
                yield (c1n, c2n), aux
    else:
        act = _ref_trap_actions if isinstance(v, Traps) else (lambda c, b, st: _ref_block_actions(g, c, b, st))
        results = set()
        for joint in product(*(closed[c] for c in cops)):
            orders = {joint} if len(set(joint)) <= 1 else set(permutations(joint))
            for order in orders:
                states = [aux]
                for c2 in order:
                    states = list(dict.fromkeys(nxt for s, st in states for nxt in act(c2, s, st)))
                for final_aux in states:
                    results.add((tuple(sorted(joint)), final_aux))
        yield from sorted(results)


def _ref_robber_moves(g, v, r, aux):
    if isinstance(v, Roadblocks):
        return sorted([r] + [x for x in g.neighbors(r) if (min(r, x), max(r, x)) not in aux[0]])
    return sorted(set(g.neighbors(r)) | {r})


def _ref_arena(g, v):
    def closed_lists(h):
        return [sorted(set(h.neighbors(u)) | {u}) for u in range(h.n)]

    move_closed = closed_lists(complement(g) if isinstance(v, Complementary) else g)
    states, index, succ, owner, capture = [("PC",)], {("PC",): 0}, [], [], []

    def intern(st):
        if st not in index:
            index[st] = len(states)
            states.append(st)
        return index[st]

    head = 0
    while head < len(states):
        st = states[head]
        tag = st[0]
        if tag == "PC":
            owner.append(Owner.COPS)
            capture.append(False)
            succ.append([intern(("PR", cops, aux)) for cops, aux in _ref_placements(g, v)])
        elif tag == "PR":
            owner.append(Owner.ROBBER)
            capture.append(False)
            succ.append([intern(("C", st[1], r, st[2])) for r in range(g.n)])
        else:
            _, cops, r, aux = st
            owner.append(Owner.COPS if tag == "C" else Owner.ROBBER)
            caught = r in cops or (isinstance(v, Traps) and r in aux[0])
            capture.append(caught)
            if caught:
                succ.append([])
            elif tag == "C":
                succ.append([intern(("R", c2, r, a2)) for c2, a2 in _ref_cop_moves(g, v, move_closed, cops, aux)])
            else:
                succ.append([intern(("C", cops, r2, aux)) for r2 in _ref_robber_moves(g, v, r, aux)])
        head += 1
    return Arena(g, v, states, succ, owner, capture)


PIN_VARIANTS = [
    Classic(1), Classic(2), Classic(3), Tandem(), Complementary(),
    Traps(1, 0), Traps(1, 1), Traps(1, 2), Traps(2, 1), Traps(2, 2), Traps(3, 1),
    Roadblocks(1, 0), Roadblocks(1, 1), Roadblocks(1, 2), Roadblocks(2, 1),
]


@pytest.mark.parametrize("v", PIN_VARIANTS, ids=str)
def test_arena_matches_the_reference_move_rules(v):
    m = getattr(v, "m", 1)
    n_max = {1: 8, 2: 6, 3: 4}[m]
    rng = random.Random(f"pin {v}")
    for i in range(6):
        n = 1 + i if i < 2 else rng.randint(3, n_max)
        g = gnp_sample(n, rng.choice([0.3, 0.5, 0.8]), rng.getrandbits(32))
        a, ref = build_arena(g, v), _ref_arena(g, v)
        assert (a.states, a.succ, a.owner, a.capture) == (ref.states, ref.succ, ref.owner, ref.capture)
        wa, wr = solve(a), solve(ref)
        assert (wa.winner, wa.cop_strategy, wa.robber_strategy) == (wr.winner, wr.cop_strategy, wr.robber_strategy)


@pytest.mark.parametrize("v", PIN_VARIANTS, ids=str)
def test_arena_budget_edge(v):
    g = gnp_sample(5, 0.5, 2020)
    size = build_arena(g, v).state_count
    assert build_arena(g, v, max_states=size).state_count == size
    with pytest.raises(ArenaBudgetError) as err:
        build_arena(g, v, max_states=size - 1)
    assert (err.value.estimate, err.value.max_states) == (size, size - 1)


def test_unused_stock_is_classic_and_more_stock_never_hurts_the_cops():
    """Traps and roadblocks against an independent backend: with no stock the
    game is Classic(m), and a cop win stays one with one more trap or block,
    since cops can always leave it unused."""
    rng = random.Random(30)
    flips = set()
    for i in range(80):
        m = 1 if i % 5 else 2
        g = gnp_sample(rng.randint(2, 7 if m == 1 else 6), rng.choice([0.2, 0.4, 0.6]), rng.getrandbits(32))
        classic = game_value(g, Classic(m))
        for kind in (Traps, Roadblocks):
            winners = [game_value(g, kind(m, s)) for s in range(3 if m == 1 else 2)]
            assert winners[0] is classic
            for s in range(1, len(winners)):
                assert not (winners[s - 1] is Winner.COP and winners[s] is Winner.ROBBER)
                if winners[s - 1] is Winner.ROBBER and winners[s] is Winner.COP:
                    flips.add(s)
    assert flips == {1, 2}
