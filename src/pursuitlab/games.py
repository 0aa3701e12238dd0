"""Exact solving of cops-and-robber games and variants as reachability games.

Conventions (fixed; the winner tables depend on them):
  * cops place first and may colocate, the robber places second with full
    knowledge, and cops move first in every round;
  * staying put is always a legal move for every piece;
  * capture happens the moment a cop and the robber share a vertex
    (including the robber moving onto a cop) or the robber stands on a trap;
  * traps/roadblocks: each cop first moves, then may place a trap (block) at
    its vertex (on an incident edge) or pick one up there; no pre-game
    placement; robbers cannot traverse blocked edges, cops can.  Within one
    turn the cops' actions take effect in an order the cops choose, so one
    cop's pickup can pay for another's placement; a turn never ends with
    the stock below zero;
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
from itertools import combinations_with_replacement, product
from math import comb
from typing import Callable, Sequence, Union

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


def _cop_count(v: Variant) -> int:
    """Cops of a variant whose placements are any multiset of vertices."""
    if isinstance(v, Classic):
        return v.k
    if isinstance(v, (Traps, Roadblocks)):
        return v.m
    if isinstance(v, Complementary):
        return 1
    raise GameError(f"unknown variant {v!r}")


def state_estimate(n: int, v: Variant) -> int:
    """Worst-case move-state count used for budget prechecks."""
    if isinstance(v, Traps):
        aux_sets = sum(comb(n, j) for j in range(v.t + 1))
    elif isinstance(v, Roadblocks):
        aux_sets = sum(comb(n * (n - 1) // 2, j) for j in range(v.b + 1))
    elif isinstance(v, Tandem):
        return n * n * n * 2
    else:
        aux_sets = 1
    c = _cop_count(v)
    return comb(n + c - 1, c) * aux_sets * n * 2


def check_budget(n: int, v: Variant, max_states: int) -> None:
    """Raise ArenaBudgetError when state_estimate(n, v) exceeds max_states."""
    estimate = state_estimate(n, v)
    if estimate > max_states:
        raise ArenaBudgetError(estimate, max_states)


class Arena:
    """Explicit two-player reachability game over one graph and variant.

    State 0 is the cop-placement root; indexing is the deterministic BFS
    discovery order over successor lists generated in a fixed order.
    """

    def __init__(self, g: Graph, v: Variant, states, succ, owner, capture):
        self.graph = g
        self.variant = v
        self.states = states
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
            cops, r, aux = (), None, _initial_aux(self.variant)
        elif tag == "PR":
            cops, r, aux = st[1], None, st[2]
        else:
            cops, r, aux = st[1:]
        sites, blocked, stock = _split_aux(self.variant, aux)
        return GameState(cops, r, sites, blocked, stock, _TURN_NAME[tag])


def _split_aux(v: Variant, aux) -> tuple[frozenset, frozenset, int]:
    if isinstance(v, Traps):
        return frozenset(aux[0]), frozenset(), aux[1]
    if isinstance(v, Roadblocks):
        return frozenset(), frozenset(aux[0]), aux[1]
    return frozenset(), frozenset(), 0


def _initial_aux(v: Variant):
    if isinstance(v, Traps):
        return ((), v.t)
    if isinstance(v, Roadblocks):
        return ((), v.b)
    return ()


def _placements(g: Graph, v: Variant) -> list[tuple[int, ...]]:
    if isinstance(v, Tandem):
        return [(c1, c2) for c1 in range(g.n) for c2 in range(g.n) if c1 == c2 or g.has_edge(c1, c2)]
    return list(combinations_with_replacement(range(g.n), _cop_count(v)))


def _toggles(items: tuple, stock: int, choices: tuple):
    """Keep, or toggle one choice: pick it up (stock + 1) or put it down (stock - 1)."""
    yield items, stock
    for x in choices:
        if x in items:
            yield tuple(i for i in items if i != x), stock + 1
        else:
            yield tuple(sorted(items + (x,))), stock - 1


def _cop_moves(v: Variant, closed, choices, cops: tuple[int, ...], aux):
    """Joint cop moves as (new_cops, new_aux) pairs, deduplicated."""
    if isinstance(v, Tandem):
        c1, _ = cops
        return [((c1n, c2n), aux) for c1n in closed[c1] for c2n in closed[c1n]]
    if choices is None:  # first-seen order
        keys = dict.fromkeys(tuple(sorted(joint)) for joint in product(*(closed[c] for c in cops)))
        return [(key, aux) for key in keys]
    # Each cop moves, then may toggle one choice at its new vertex.  Toggles
    # interact only through the stock: two of one item cancel, as keeping
    # does, and a net set of toggles has a legal order (pickups first)
    # exactly when it ends with stock >= 0.  So thread them once per
    # multiset of new positions, let the stock dip below zero in between and
    # filter at the end.
    results = set()
    for key in dict.fromkeys(tuple(sorted(joint)) for joint in product(*(closed[c] for c in cops))):
        auxes = {aux}
        for c in key:
            auxes = {nxt for items, stock in auxes for nxt in _toggles(items, stock, choices[c])}
        results.update((key, a) for a in auxes if a[1] >= 0)
    return sorted(results)


def build_arena(g: Graph, v: Variant, max_states: int = DEFAULT_MAX_STATES) -> Arena:
    """Explicit reachable arena from the cop-placement root.

    Raises ArenaBudgetError (leaving no partial arena behind) as soon as the
    reachable state set would exceed max_states.

    A configuration is one (cops, aux) pair, numbered as first seen.  Each
    configuration's joint cop moves, and each Roadblocks robber move list on
    (r, blocked), are computed once per build.  States are interned under
    the integer code (configuration * (n + 1) + r) * 2 + (robber to move),
    with r = n for the robber-placement state, so a state tuple is built
    only when the state is new.
    """
    n = g.n
    robber_closed = _closed_lists(g)
    cop_closed = _closed_lists(complement(g)) if isinstance(v, Complementary) else robber_closed
    traps, blocks = isinstance(v, Traps), isinstance(v, Roadblocks)
    choices = None
    if traps:
        choices = [(c,) for c in range(n)]
    elif blocks:
        choices = [tuple((min(c, x), max(c, x)) for x in sorted(g.neighbors(c))) for c in range(n)]
    stride = 2 * (n + 1)
    config_index: dict[tuple, int] = {}
    configs: list[tuple] = []
    cop_memo: dict[int, list[int]] = {}
    robber_memo: dict[tuple, list[int]] = {}
    states: list[tuple] = [("PC",)]
    state_config = [-1]
    index: dict[int, int] = {}
    succ: list[list[int]] = []
    owner: list[Owner] = []
    capture: list[bool] = []

    def config(cops: tuple[int, ...], aux) -> int:
        key = (cops, aux)
        c = config_index.get(key)
        if c is None:
            c = config_index[key] = len(configs)
            configs.append(key)
        return c

    def new_state(code: int) -> int:
        i = len(states)
        if i >= max_states:
            raise ArenaBudgetError(i + 1, max_states)
        c, rest = divmod(code, stride)
        r, robber_turn = divmod(rest, 2)
        cops, aux = configs[c]
        index[code] = i
        states.append(("PR", cops, aux) if r == n else ("R" if robber_turn else "C", cops, r, aux))
        state_config.append(c)
        return i

    def intern(codes: list[int]) -> list[int]:  # the codes of one list are distinct
        out = [index.get(code) for code in codes]
        if None in out:
            out = [new_state(code) if i is None else i for code, i in zip(codes, out)]
        return out

    head = 0
    while head < len(states):
        st = states[head]
        tag = st[0]
        c = state_config[head]
        if tag == "PC":
            owner.append(Owner.COPS)
            capture.append(False)
            aux = _initial_aux(v)
            succ.append(intern([config(cops, aux) * stride + 2 * n for cops in _placements(g, v)]))
        elif tag == "PR":
            owner.append(Owner.ROBBER)
            capture.append(False)
            succ.append(intern([c * stride + 2 * r for r in range(n)]))
        else:
            cops, r, aux = st[1:]
            owner.append(Owner.COPS if tag == "C" else Owner.ROBBER)
            caught = r in cops or traps and r in aux[0]
            capture.append(caught)
            if caught:
                succ.append([])
            elif tag == "C":
                targets = cop_memo.get(c)
                if targets is None:
                    targets = cop_memo[c] = [config(*move) for move in _cop_moves(v, cop_closed, choices, cops, aux)]
                succ.append(intern([c2 * stride + 2 * r + 1 for c2 in targets]))
            else:
                moves = robber_closed[r]
                if blocks:
                    key = (r, aux[0])
                    moves = robber_memo.get(key)
                    if moves is None:
                        moves = robber_memo[key] = [x for x in robber_closed[r] if (min(r, x), max(r, x)) not in aux[0]]
                succ.append(intern([c * stride + 2 * r2 for r2 in moves]))
        head += 1
    return Arena(g, v, states, succ, owner, capture)


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

    The budget is checked once.  Classic(1) and Complementary graphs go to
    the single-cop engine together (`fastsolve.winners`), which solves two or
    more as one batch; other variants go one graph at a time, through the
    same backends as `game_value`.
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
    dismantlable iff deletion reduces it to a single vertex, in whatever
    order dominated vertices are deleted.  A dominator of u is a surviving
    neighbor that lies in N[x] for every surviving x in N[u].  The lowest
    remaining candidate v is tried; when it fails, some x in N[u] misses v,
    and the candidates are cut down to N[x], which drops v and every other
    candidate that x misses.  Deleting u shrinks only its neighbors'
    neighborhoods, so only they are checked again, and a survivor with no
    surviving neighbor ends the search.
    """
    closed = [g.adjacency[v] | (1 << v) for v in range(g.n)]
    active = pending = (1 << g.n) - 1
    active_count = g.n
    while pending and active_count > 1:
        bu = pending & -pending
        pending ^= bu
        cu = closed[bu.bit_length() - 1] & active
        cand = nbrs = cu ^ bu
        if not nbrs:
            return False
        while cand:
            miss = cu & ~closed[(cand & -cand).bit_length() - 1]
            if not miss:  # cu lies inside active already
                active ^= bu
                active_count -= 1
                pending |= nbrs
                break
            cand &= closed[(miss & -miss).bit_length() - 1]
    return active_count <= 1


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
