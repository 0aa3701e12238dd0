"""Independent answers the bench checks the program against.

These work directly on the bitmask adjacency rows and share no code with
``logic.evaluate``, ``experiments._vec_eval``, ``fastsolve`` or
``games.solve``.  The sentence checks are closed forms of the builtin
sentences for graphs with at least three vertices; the game certificates
are one-way (they can prove a winner, never refute one).
"""

from __future__ import annotations

import numpy as np


def _closed(adj: tuple[int, ...]) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(adj)]


def escape_1(adj) -> bool:
    """forall x != y exists z in N(y) outside N[x]."""
    closed = _closed(adj)
    return all(adj[y] & ~closed[x] for y in range(len(adj)) for x in range(len(adj)) if x != y)


def trap_escape_1_1(adj) -> bool:
    """forall x != y at least two z in N(y) outside N[x] (one may hold the trap)."""
    closed = _closed(adj)
    n = len(adj)
    if n < 3:
        return True  # no distinct (x, t, y) exists
    return all((adj[y] & ~closed[x]).bit_count() >= 2 for y in range(n) for x in range(n) if x != y)


def tandem_capture(adj) -> bool:
    """forall x1 != y at least two common neighbours (one may hold the second cop)."""
    n = len(adj)
    if n < 3:
        return True
    return all((adj[a] & adj[b]).bit_count() >= 2 for a in range(n) for b in range(n) if a != b)


def complementary_escape(adj) -> bool:
    """forall x != y some common neighbour."""
    n = len(adj)
    return all(adj[a] & adj[b] for a in range(n) for b in range(a + 1, n))


SENTENCES = {
    "escape_1": escape_1,
    "trap_escape_1_1": trap_escape_1_1,
    "tandem_capture": tandem_capture,
    "complementary_escape": complementary_escape,
}


def edge_count(adj) -> int:
    return sum(row.bit_count() for row in adj) // 2


def has_isolated_vertex(adj) -> bool:
    return any(row == 0 for row in adj)


def diameter_at_most_2(adj) -> bool:
    """Every pair is adjacent or has a common neighbour: tandem cops capture in round one."""
    n = len(adj)
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        reach = row | (1 << v)
        m = row
        while m:
            b = m & -m
            reach |= adj[b.bit_length() - 1]
            m ^= b
        if reach != full:
            return False
    return True


def cop_won_states(succ: list[list[int]], cop_owned: list[bool], capture: list[bool]) -> np.ndarray:
    """Cop attractor by repeated synchronous sweeps over a CSR copy of the arena.

    Deliberately a different algorithm from ``games.solve`` (which runs a
    backward worklist with outdegree counters): a state joins when it is a
    capture, a cop state with some cop-won successor, or a robber state
    whose successors are all cop-won.
    """
    n = len(succ)
    deg = np.fromiter((len(s) for s in succ), dtype=np.int64, count=n)
    flat = np.fromiter((t for s in succ for t in s), dtype=np.int64, count=int(deg.sum()))
    owner_of_edge = np.repeat(np.arange(n), deg)
    cop = np.asarray(cop_owned, dtype=bool)
    won = np.asarray(capture, dtype=bool).copy()
    while True:
        hit = np.bincount(owner_of_edge, weights=won[flat], minlength=n)
        new = won | (cop & (hit > 0)) | (~cop & (deg > 0) & (hit == deg))
        if np.array_equal(new, won):
            return won
        won = new
