"""Exact solving of cops-and-robber games and variants as reachability games.

Conventions (fixed; the winner tables depend on them):
  * cops place first and may colocate, the robber places second with full
    knowledge, and cops move first in every round;
  * staying put is always a legal move for every piece;
  * capture happens the moment a cop and the robber share a vertex
    (including the robber moving onto a cop) or the robber stands on a trap;
  * traps/roadblocks: each cop first moves, then may place a trap (block) at
    its vertex (on an incident edge) or pick one up there; no pre-game
    placement; robbers cannot traverse blocked edges, cops can;
  * tandem: the pair stays equal-or-adjacent from placement on; the lead cop
    moves inside its closed neighborhood, the second cop then relocates to
    any vertex in the closed neighborhood of the lead's new position;
  * complementary: the robber moves along the given edge set, the single cop
    along its complement.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement, permutations, product
from math import comb
from typing import Callable, Iterable, Sequence, Union

from .graphs import Graph, complement, one_size

__all__ = [
    "Winner",
    "Classic",
    "Traps",
    "Roadblocks",
    "Complementary",
    "Tandem",
    "Variant",
    "GameState",
    "Arena",
    "WinMap",
    "Trace",
    "TraceStep",
    "GameError",
    "ArenaBudgetError",
    "SimulationError",
    "DEFAULT_MAX_STATES",
    "build_arena",
    "solve",
    "game_value",
    "game_values",
    "cop_number",
    "is_dismantlable",
    "simulate",
    "state_estimate",
    "variant_id",
]

DEFAULT_MAX_STATES = 10_000_000


class GameError(ValueError):
    pass


class ArenaBudgetError(GameError):
    def __init__(self, estimate: int, max_states: int):
        super().__init__(
            f"state budget exceeded: needs about {estimate} states, limit {max_states}"
        )
        self.estimate = estimate
        self.max_states = max_states


class SimulationError(GameError):
    pass


class Winner(str, Enum):
    COP = "Cop"
    ROBBER = "Robber"


class Owner(str, Enum):
    COPS = "Cops"
    ROBBER = "Robber"


@dataclass(frozen=True)
class Classic:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise GameError(f"need k >= 1 cops, got {self.k}")


@dataclass(frozen=True)
class Traps:
    m: int
    t: int

    def __post_init__(self):
        if self.m < 1 or self.t < 0:
            raise GameError(f"need m >= 1 and t >= 0, got m={self.m}, t={self.t}")


@dataclass(frozen=True)
class Roadblocks:
    m: int
    b: int

    def __post_init__(self):
        if self.m < 1 or self.b < 0:
            raise GameError(f"need m >= 1 and b >= 0, got m={self.m}, b={self.b}")


@dataclass(frozen=True)
class Complementary:
    pass


@dataclass(frozen=True)
class Tandem:
    pass


Variant = Union[Classic, Traps, Roadblocks, Complementary, Tandem]


def variant_id(v: Variant) -> str:
    if isinstance(v, Classic):
        return f"classic(k={v.k})"
    if isinstance(v, Traps):
        return f"traps(m={v.m},t={v.t})"
    if isinstance(v, Roadblocks):
        return f"roadblocks(m={v.m},b={v.b})"
    if isinstance(v, Complementary):
        return "complementary"
    if isinstance(v, Tandem):
        return "tandem"
    raise GameError(f"unknown variant {v!r}")


@dataclass(frozen=True)
class GameState:
    """Public view of one position; used in traces and debugging."""

    cop_positions: tuple[int, ...]
    robber_position: int | None
    trap_sites: frozenset[int]
    blocked_edges: frozenset[tuple[int, int]]
    stock: int
    turn: str  # PlacementCops | PlacementRobber | Cops | Robber


# Internal state tuples: ("PC",), ("PR", cops, aux), ("C", cops, r, aux),
# ("R", cops, r, aux).  aux is () for plain variants, (sites, stock) for
# traps, (blocked, stock) for roadblocks; sites/blocked are sorted tuples.

_TURN_NAME = {"PC": "PlacementCops", "PR": "PlacementRobber", "C": "Cops", "R": "Robber"}


def _closed_lists(g: Graph) -> list[list[int]]:
    return [sorted(set(g.neighbors(v)) | {v}) for v in range(g.n)]


def state_estimate(n: int, v: Variant) -> int:
    """Worst-case move-state count used for budget prechecks."""
    if isinstance(v, Classic):
        return comb(n + v.k - 1, v.k) * n * 2
    if isinstance(v, Tandem):
        return n * n * n * 2
    if isinstance(v, Complementary):
        return n * n * 2
    if isinstance(v, Traps):
        sites = sum(comb(n, j) for j in range(v.t + 1))
        return comb(n + v.m - 1, v.m) * sites * n * 2
    if isinstance(v, Roadblocks):
        e_max = n * (n - 1) // 2
        blocks = sum(comb(e_max, j) for j in range(v.b + 1))
        return comb(n + v.m - 1, v.m) * blocks * n * 2
    raise GameError(f"unknown variant {v!r}")


def check_budget(n: int, v: Variant, max_states: int) -> None:
    """Raise ArenaBudgetError when state_estimate(n, v) exceeds max_states."""
    estimate = state_estimate(n, v)
    if estimate > max_states:
        raise ArenaBudgetError(estimate, max_states)


class Arena:
    """Explicit two-player reachability game over one graph and variant.

    State 0 is the cop-placement root; indexing is the deterministic BFS
    discovery order with sorted successor generation.
    """

    def __init__(self, g: Graph, v: Variant, states, index, succ, owner, capture):
        self.graph = g
        self.variant = v
        self.states = states
        self.index = index
        self.succ = succ
        self.owner = owner
        self.capture = capture
        self.root = 0

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return sum(len(s) for s in self.succ)

    def describe(self, idx: int) -> GameState:
        st = self.states[idx]
        tag = st[0]
        if tag == "PC":
            return GameState((), None, frozenset(), frozenset(), _initial_stock(self.variant), _TURN_NAME[tag])
        if tag == "PR":
            cops, aux = st[1], st[2]
            sites, blocked, stock = _split_aux(self.variant, aux)
            return GameState(cops, None, sites, blocked, stock, _TURN_NAME[tag])
        cops, r, aux = st[1], st[2], st[3]
        sites, blocked, stock = _split_aux(self.variant, aux)
        return GameState(cops, r, sites, blocked, stock, _TURN_NAME[tag])


def _initial_stock(v: Variant) -> int:
    if isinstance(v, Traps):
        return v.t
    if isinstance(v, Roadblocks):
        return v.b
    return 0


def _split_aux(v: Variant, aux) -> tuple[frozenset, frozenset, int]:
    if isinstance(v, Traps):
        return frozenset(aux[0]), frozenset(), aux[1]
    if isinstance(v, Roadblocks):
        return frozenset(), frozenset(aux[0]), aux[1]
    return frozenset(), frozenset(), 0


def _initial_aux(v: Variant):
    if isinstance(v, (Traps, Roadblocks)):
        return ((), _initial_stock(v))
    return ()


def _is_capture(v: Variant, cops: tuple[int, ...], r: int, aux) -> bool:
    if r in cops:
        return True
    if isinstance(v, Traps) and r in aux[0]:
        return True
    return False


def _placements(g: Graph, v: Variant) -> Iterable[tuple[tuple[int, ...], object]]:
    aux = _initial_aux(v)
    if isinstance(v, Classic):
        for cops in combinations_with_replacement(range(g.n), v.k):
            yield cops, aux
    elif isinstance(v, (Traps, Roadblocks)):
        for cops in combinations_with_replacement(range(g.n), v.m):
            yield cops, aux
    elif isinstance(v, Complementary):
        for c in range(g.n):
            yield (c,), aux
    elif isinstance(v, Tandem):
        for c1 in range(g.n):
            for c2 in range(g.n):
                if c1 == c2 or g.has_edge(c1, c2):
                    yield (c1, c2), aux
    else:
        raise GameError(f"unknown variant {v!r}")


def _trap_actions(c: int, sites: tuple[int, ...], stock: int):
    yield sites, stock
    if stock > 0 and c not in sites:
        yield tuple(sorted(sites + (c,))), stock - 1
    if c in sites:
        yield tuple(s for s in sites if s != c), stock + 1


def _block_actions(g: Graph, c: int, blocked: tuple, stock: int):
    yield blocked, stock
    for x in sorted(g.neighbors(c)):
        e = (min(c, x), max(c, x))
        if stock > 0 and e not in blocked:
            yield tuple(sorted(blocked + (e,))), stock - 1
        if e in blocked:
            yield tuple(b for b in blocked if b != e), stock + 1


def _cop_moves(g: Graph, v: Variant, closed, cops: tuple[int, ...], aux):
    """Joint cop moves as (new_cops, new_aux) pairs, deduplicated, sorted."""
    if isinstance(v, Classic):
        seen = set()
        for joint in product(*(closed[c] for c in cops)):
            key = tuple(sorted(joint))
            if key not in seen:
                seen.add(key)
                yield key, aux
    elif isinstance(v, Complementary):
        for c2 in closed[cops[0]]:  # closed lists of the complement graph
            yield (c2,), aux
    elif isinstance(v, Tandem):
        c1, _ = cops
        for c1n in closed[c1]:
            for c2n in closed[c1n]:
                yield (c1n, c2n), aux
    elif isinstance(v, (Traps, Roadblocks)):
        # Each cop moves, then may act at its new vertex. Actions within one
        # turn interact only through the shared stock, so thread them in
        # every order to avoid biasing pickup-then-place combinations.
        act = _trap_actions if isinstance(v, Traps) else (lambda c, b, st: _block_actions(g, c, b, st))
        results = set()
        for joint in product(*(closed[c] for c in cops)):
            orders = {joint} if len(set(joint)) <= 1 else set(permutations(joint))
            for order in orders:
                states = [aux]
                for c2 in order:
                    states = [nxt for s, st in states for nxt in act(c2, s, st)]
                    states = list(dict.fromkeys(states))
                for final_aux in states:
                    results.add((tuple(sorted(joint)), final_aux))
        yield from sorted(results)
    else:
        raise GameError(f"unknown variant {v!r}")


def _robber_moves(g: Graph, v: Variant, r: int, aux) -> list[int]:
    if isinstance(v, Roadblocks):
        blocked = aux[0]
        out = [r]
        for x in g.neighbors(r):
            if (min(r, x), max(r, x)) not in blocked:
                out.append(x)
        return sorted(out)
    return sorted(set(g.neighbors(r)) | {r})


def build_arena(g: Graph, v: Variant, max_states: int = DEFAULT_MAX_STATES) -> Arena:
    """Explicit reachable arena from the cop-placement root.

    Raises ArenaBudgetError (leaving no partial arena behind) as soon as the
    reachable state set would exceed max_states.
    """
    move_closed = _closed_lists(complement(g)) if isinstance(v, Complementary) else _closed_lists(g)
    states: list[tuple] = [("PC",)]
    index: dict[tuple, int] = {("PC",): 0}
    succ: list[list[int]] = []
    owner: list[Owner] = []
    capture: list[bool] = []

    def intern(st: tuple) -> int:
        i = index.get(st)
        if i is None:
            i = len(states)
            if i >= max_states:
                raise ArenaBudgetError(i + 1, max_states)
            index[st] = i
            states.append(st)
        return i

    head = 0
    while head < len(states):
        st = states[head]
        tag = st[0]
        if tag == "PC":
            owner.append(Owner.COPS)
            capture.append(False)
            succ.append([intern(("PR", cops, aux)) for cops, aux in _placements(g, v)])
        elif tag == "PR":
            owner.append(Owner.ROBBER)
            capture.append(False)
            cops, aux = st[1], st[2]
            succ.append([intern(("C", cops, r, aux)) for r in range(g.n)])
        elif tag == "C":
            cops, r, aux = st[1], st[2], st[3]
            owner.append(Owner.COPS)
            if _is_capture(v, cops, r, aux):
                capture.append(True)
                succ.append([])
            else:
                capture.append(False)
                succ.append(
                    [intern(("R", c2, r, a2)) for c2, a2 in _cop_moves(g, v, move_closed, cops, aux)]
                )
        else:  # "R"
            cops, r, aux = st[1], st[2], st[3]
            owner.append(Owner.ROBBER)
            if _is_capture(v, cops, r, aux):
                capture.append(True)
                succ.append([])
            else:
                capture.append(False)
                succ.append(
                    [intern(("C", cops, r2, aux)) for r2 in _robber_moves(g, v, r, aux)]
                )
        head += 1
    return Arena(g, v, states, index, succ, owner, capture)


@dataclass
class WinMap:
    """Per-state winner plus positional strategies for both sides."""

    winner: list[Winner]
    cop_strategy: dict[int, int]
    robber_strategy: dict[int, int]

    def winner_at(self, idx: int) -> Winner:
        return self.winner[idx]


def solve(a: Arena) -> WinMap:
    """Backward cop-attractor with per-state outdegree counters.

    Linear in arena size; a state is cop-won iff it lies in the least fixed
    point of the capture attractor, and the complement is robber-won via the
    staying-out strategy.
    """
    n_states = a.state_count
    preds: list[list[int]] = [[] for _ in range(n_states)]
    for s, successors in enumerate(a.succ):
        for t in successors:
            preds[t].append(s)
    counter = [len(s) for s in a.succ]
    winner = [Winner.ROBBER] * n_states
    cop_strategy: dict[int, int] = {}
    robber_strategy: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in range(n_states):
        if a.capture[s]:
            winner[s] = Winner.COP
            queue.append(s)
        elif not a.succ[s]:
            raise GameError(f"non-capture state {s} has no moves; arena is malformed")
    while queue:
        s = queue.popleft()
        for t in preds[s]:
            if winner[t] is Winner.COP:
                continue
            if a.owner[t] is Owner.COPS:
                winner[t] = Winner.COP
                cop_strategy[t] = s
                queue.append(t)
            else:
                counter[t] -= 1
                if counter[t] == 0:
                    winner[t] = Winner.COP
                    queue.append(t)
    for s in range(n_states):
        if winner[s] is Winner.ROBBER and a.owner[s] is Owner.ROBBER:
            for t in a.succ[s]:
                if winner[t] is Winner.ROBBER:
                    robber_strategy[s] = t
                    break
    return WinMap(winner, cop_strategy, robber_strategy)


def game_value(g: Graph, v: Variant, max_states: int = DEFAULT_MAX_STATES) -> Winner:
    """Winner under optimal play including optimal initial placement.

    Dispatches to a vectorized fixed-point backend for the standard variants
    (identical conventions, cross-checked in the test suite); other variants
    go through the explicit arena.
    """
    check_budget(g.n, v, max_states)
    from . import fastsolve

    w = fastsolve.winner(g, v)
    return w if w is not None else _arena_value(g, v, max_states)


def _arena_value(g: Graph, v: Variant, max_states: int) -> Winner:
    arena = build_arena(g, v, max_states)
    return solve(arena).winner[arena.root]


def game_values(graphs: Sequence[Graph], v: Variant, max_states: int = DEFAULT_MAX_STATES) -> list[Winner]:
    """`game_value` of each graph, in order; all graphs share one n.

    The budget is checked once.  Classic(1) and Complementary run as one
    batched fixed point (`fastsolve.winners`); other variants go one graph at
    a time, through the same backends as `game_value`.
    """
    check_budget(one_size(graphs, GameError), v, max_states)
    from . import fastsolve

    out = fastsolve.winners(graphs, v)
    return [w if w is not None else _arena_value(g, v, max_states) for g, w in zip(graphs, out)]


def cop_number(g: Graph, k_max: int, max_states: int = DEFAULT_MAX_STATES) -> int | None:
    """Least k <= k_max winning for the cops in the classic game, else None."""
    if k_max < 1:
        raise GameError(f"need k_max >= 1, got {k_max}")
    for k in range(1, k_max + 1):
        if game_value(g, Classic(k), max_states) is Winner.COP:
            return k
    return None


def is_dismantlable(g: Graph) -> bool:
    """Cop-win oracle: iterated deletion of dominated vertices.

    A vertex u is dominated when its closed neighborhood (inside the surviving
    set) is contained in another survivor's closed neighborhood; the graph is
    dismantlable iff deletion reduces it to a single vertex.  A dominator of
    u contains u in its closed neighborhood, so only u's surviving neighbors
    are tried.
    """
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
            mm = cu & ~bu
            while mm:
                bv = mm & -mm
                mm ^= bv
                v = bv.bit_length() - 1
                if cu & ~closed[v] == 0:  # cu lies inside active already
                    active ^= bu
                    active_count -= 1
                    removed = True
                    break
            if removed:
                break
        if not removed:
            return False
    return True


# ---------------------------------------------------------------------------
# Strategy simulation.


@dataclass
class TraceStep:
    round: int
    mover: str
    action: str
    state: GameState


@dataclass
class Trace:
    steps: list[TraceStep]
    outcome: str  # "capture" | "survived"
    capture_round: int | None
    rounds_played: int

    def to_json_lines(self) -> str:
        import json

        lines = []
        for s in self.steps:
            lines.append(
                json.dumps(
                    {
                        "round": s.round,
                        "mover": s.mover,
                        "action": s.action,
                        "state": {
                            "cops": list(s.state.cop_positions),
                            "robber": s.state.robber_position,
                            "traps": sorted(s.state.trap_sites),
                            "blocked": sorted(list(e) for e in s.state.blocked_edges),
                            "stock": s.state.stock,
                            "turn": s.state.turn,
                        },
                    },
                    sort_keys=True,
                )
            )
        lines.append(
            json.dumps(
                {"outcome": self.outcome, "capture_round": self.capture_round, "rounds": self.rounds_played},
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


Policy = Callable[[Arena, WinMap | None, int, random.Random], int]


def _dist_matrix(g: Graph) -> list[list[int]]:
    big = g.n + 1
    out = []
    for v in range(g.n):
        dist = [big] * g.n
        dist[v] = 0
        q = deque([v])
        while q:
            u = q.popleft()
            for w in g.neighbors(u):
                if dist[w] > dist[u] + 1:
                    dist[w] = dist[u] + 1
                    q.append(w)
        out.append(dist)
    return out


def _greedy_policy(arena: Arena, dist: list[list[int]], state: int, rng: random.Random) -> int:
    st = arena.states[state]
    succs = arena.succ[state]
    tag = st[0]
    big = arena.graph.n + 1

    def cop_score(t: int) -> tuple:
        nxt = arena.states[t]
        cops, r = nxt[1], nxt[2]
        return (min(dist[c][r] for c in cops), sum(dist[c][r] for c in cops), t)

    def robber_score(t: int) -> tuple:
        nxt = arena.states[t]
        cops, r = nxt[1], nxt[2]
        if r in cops:
            return (big + 1, big + 1, t)  # entering capture ranks worst
        return (-min(dist[c][r] for c in cops), -sum(dist[c][r] for c in cops), t)

    if tag == "PC":
        return succs[0]
    if tag == "PR":
        return min(succs, key=robber_score)
    if tag == "C":
        return min(succs, key=cop_score)
    return min(succs, key=robber_score)


def _make_policy(spec, side: Owner, arena: Arena, winmap: WinMap | None, dist) -> Policy:
    if callable(spec):
        return spec
    if spec == "random":
        return lambda a, wm, s, rng: rng.choice(a.succ[s])
    if spec == "greedy":
        return lambda a, wm, s, rng: _greedy_policy(a, dist, s, rng)
    if spec == "optimal":
        if winmap is None:
            raise SimulationError("optimal policy needs a solved arena")

        def optimal(a: Arena, wm: WinMap, s: int, rng: random.Random) -> int:
            if side is Owner.COPS and wm.winner[s] is Winner.COP and s in wm.cop_strategy:
                return wm.cop_strategy[s]
            if side is Owner.ROBBER and wm.winner[s] is Winner.ROBBER and s in wm.robber_strategy:
                return wm.robber_strategy[s]
            return _greedy_policy(a, dist, s, rng)  # losing side: fall back to heuristic

        return optimal
    raise SimulationError(f"unknown policy {spec!r}; use 'optimal', 'random', 'greedy' or a callable")


def simulate(
    g: Graph,
    v: Variant,
    cop_policy="optimal",
    robber_policy="optimal",
    max_rounds: int | None = None,
    seed: int = 0,
    max_states: int = DEFAULT_MAX_STATES,
) -> Trace:
    """Play one game under the given policies and record the trace.

    Built-in policies: "optimal" (solved WinMap strategy, heuristic when the
    side is lost), "random", "greedy" (BFS-distance chase/evade).
    """
    arena = build_arena(g, v, max_states)
    needs_winmap = cop_policy == "optimal" or robber_policy == "optimal"
    winmap = solve(arena) if needs_winmap else None
    dist = _dist_matrix(g)
    cop = _make_policy(cop_policy, Owner.COPS, arena, winmap, dist)
    robber = _make_policy(robber_policy, Owner.ROBBER, arena, winmap, dist)
    if max_rounds is None:
        max_rounds = arena.state_count
    rng = random.Random(seed)
    steps: list[TraceStep] = []
    state = arena.root
    rounds = 0
    while True:
        if arena.capture[state]:
            return Trace(steps, "capture", rounds, rounds)
        if rounds >= max_rounds and arena.states[state][0] == "C":
            return Trace(steps, "survived", None, rounds)
        tag = arena.states[state][0]
        mover = arena.owner[state]
        policy = cop if mover is Owner.COPS else robber
        nxt = policy(arena, winmap, state, rng)
        if nxt not in arena.succ[state]:
            raise SimulationError(
                f"policy for {mover.value} returned an illegal move at state {arena.describe(state)}"
            )
        if tag == "C":
            rounds += 1
        label = {
            "PC": "placement_cops",
            "PR": "placement_robber",
            "C": "cops",
            "R": "robber",
        }[tag]
        steps.append(TraceStep(rounds, label, _action_text(arena, state, nxt), arena.describe(nxt)))
        state = nxt


def _action_text(arena: Arena, s: int, t: int) -> str:
    a, b = arena.describe(s), arena.describe(t)
    tag = arena.states[s][0]
    if tag == "PC":
        return f"cops place at {list(b.cop_positions)}"
    if tag == "PR":
        return f"robber places at {b.robber_position}"
    if tag == "C":
        extra = ""
        if a.trap_sites != b.trap_sites:
            extra = f", traps -> {sorted(b.trap_sites)}"
        if a.blocked_edges != b.blocked_edges:
            extra = f", blocks -> {sorted(list(e) for e in b.blocked_edges)}"
        return f"cops move to {list(b.cop_positions)}{extra}"
    return f"robber moves to {b.robber_position}"
