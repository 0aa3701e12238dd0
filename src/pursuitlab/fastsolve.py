"""Vectorized winner computation for the standard game variants.

Every variant here has a state space that factors as (cop configuration) x
(robber vertex) x (turn), and the winner is the same least fixed point the
explicit worklist solver computes:

    CT[cfg] = occupied[cfg] | union of RT[cfg'] over joint cop moves
    RT[cfg] = occupied[cfg] | { r : closed_nbhd(r) subset of CT[cfg] }

with capture states seeding both sides.  Cops win iff some legal placement
configuration ends up with a full CT row.  Four engines compute it:

  * single-cop games (Classic(1), Complementary) have two engines, and
    `_single_cop` alone picks one, from the input: a call on one graph with
    n <= _LOOP_MAX_N keeps one big-int robber set per cop vertex, and every
    other call, from `winner` or `winners`, runs one fixed point over
    float32 (B, n, n) 0/1 matrices indexed [graph, cop, robber], both
    half-steps matrix products.  The loop costs least on one small graph;
    the batch on larger graphs and on many graphs at once;
  * Classic(k >= 2), Tandem and Traps(1,t) share one kernel, `_fixpoint`,
    over a tensor of configurations whose robber sets are packed into uint64
    words.  Each variant supplies per-axis row tables for its capture rows
    and for its first cop step CT0 in closed form (Classic(k): the OR of k
    closed neighbourhoods; Tandem: the lead's closed 2-ball, one boolean
    matrix product; Traps(1,t): N[c] | sites), its legal placements, and a
    general cop step built from `_nbhd_or`.  CT0 decides a cop win when one
    move from some legal placement reaches every vertex; for Classic(k) that
    is a dominating k-set, which G(60, 1/2) almost always has for k = 3 (its
    domination number is about log2 n - log2 log2 n; Wieland and Godbole,
    2001).  Otherwise the loop starts from CT0, and `_nbhd_or` runs only in
    rounds >= 2.  The robber step is a table lookup: r is trapped iff N[r]
    lies inside CT, so (closed neighbourhoods being symmetric) the trapped
    set is the AND of ~N[x] over the x outside CT, read byte by byte of CT
    from a per-graph table of those ANDs, the "Four Russians" method
    (Arlazarov, Dinic, Kronrod and Faradzev, 1970);
  * Traps(m >= 2) and Roadblocks are left to the explicit arena
    (`winner` returns None).

Agreement with the explicit arena solver, and of the batch engine with the
big-int one, is enforced by the test suite.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from typing import Sequence

import numpy as np

from .games import Classic, Complementary, GameError, Tandem, Traps, Variant, Winner
from .graphs import Graph, _bits_to_list, adjacency_array, one_size

__all__ = ["winner", "winners"]

# Each float32 (B, n, n) array of the batch engine holds at most this many
# bytes, and at least one graph.  1 MiB ran n <= 60 up to 30% faster, but
# raised the peak RSS of Monte Carlo rows at N = 200..300 from 37.9 to 41.2 MB.
_BATCH_BYTES = 1 << 18
# A single-cop game on one graph with at most this many vertices runs the
# big-int loop; bigger graphs, and every call with two or more, run the
# matrix batch.  One-graph calls, us per graph, loop / batch, mean over 100
# G(n, p) at each p in {0.2, 0.5, 0.8}, best of 5 (2 cores, Python 3.11,
# numpy 2.4; runs differ by up to 20%):
#
#   n               6        12       14       15       16       17        20
#   Classic(1)      13 / 51  51 / 69  79 / 95  86 / 79  87 / 73  112 / 75  115 / 68
#   Complementary   10 / 43  32 / 50  56 / 73  45 / 46  52 / 58   59 / 57   61 / 44
#
# A 300-graph batch at n = 6 costs about 5 us per graph, so the graph count
# decides as well as n.
_LOOP_MAX_N = 15


def _single_cop_loop(g: Graph, complementary: bool) -> Winner:
    """The single-cop fixed point on one graph, one big-int robber set per cop
    vertex.  The cop moves in the complement when complementary; a vertex's
    closed neighbourhood there is every vertex it is not adjacent to."""
    n = g.n
    full = (1 << n) - 1
    robber_closed = [a | (1 << v) for v, a in enumerate(g.adjacency)]
    cop_closed = [full ^ a for a in g.adjacency] if complementary else robber_closed
    occ = [1 << c for c in range(n)]
    cop_moves = [_bits_to_list(cop_closed[c]) for c in range(n)]
    rt = occ[:]
    while True:
        ct = []
        for c in range(n):
            u = occ[c]
            for c2 in cop_moves[c]:
                u |= rt[c2]
            ct.append(u)
        if any(row == full for row in ct):
            return Winner.COP
        new_rt = []
        for c in range(n):
            row = ct[c]
            m = occ[c]
            for r in range(n):
                if robber_closed[r] & ~row == 0:
                    m |= 1 << r
            new_rt.append(m)
        if new_rt == rt:
            return Winner.ROBBER
        rt = new_rt


def _single_cop_batch(graphs: Sequence[Graph], n: int, complementary: bool) -> list[Winner]:
    """The single-cop fixed point on a batch of n-vertex graphs, over 0/1
    float32 matrices indexed [graph, cop vertex, robber vertex]:

        CT = I | (N_cop @ RT > 0)
        RT = I | ((1 - CT) @ N_rob == 0)

    The robber step counts the robber's moves to vertices outside CT; it may
    multiply by N_rob on the right because closed neighbourhoods are
    symmetric.  A graph is decided by a full CT row (cop win) or an unchanged
    RT (robber win), and then leaves the batch.
    """
    adj = adjacency_array(graphs, n)
    eye = np.eye(n, dtype=np.float32)
    rob = (adj | eye.astype(bool)).astype(np.float32)
    cop = (~adj).astype(np.float32) if complementary else rob  # ~adj is the complement's closed nbhd
    rt = np.broadcast_to(eye, rob.shape).copy()
    ct = np.empty_like(rt)
    nxt = np.empty_like(rt)
    out: list = [None] * len(graphs)
    live = np.arange(len(graphs))
    while live.size:
        m = live.size
        rt_m, ct_m, nxt_m = rt[:m], ct[:m], nxt[:m]
        np.matmul(cop[:m], rt_m, out=ct_m)
        np.minimum(ct_m, 1, out=ct_m)
        np.maximum(ct_m, eye, out=ct_m)
        cop_win = ct_m.all(axis=2).any(axis=1)
        np.subtract(1, ct_m, out=ct_m)
        np.matmul(ct_m, rob[:m], out=nxt_m)
        np.equal(nxt_m, 0, out=nxt_m)
        np.maximum(nxt_m, eye, out=nxt_m)
        done = cop_win | (nxt_m == rt_m).all(axis=(1, 2))
        rt, nxt = nxt, rt
        for i in np.flatnonzero(done):
            out[live[i]] = Winner.COP if cop_win[i] else Winner.ROBBER
        if done.any():
            keep = ~done
            live = live[keep]
            for a in (rt, rob) if cop is rob else (rt, rob, cop):
                a[: live.size] = a[:m][keep]
    return out


def _single_cop(graphs: Sequence[Graph], n: int, complementary: bool) -> list[Winner]:
    """Single-cop winners of n-vertex graphs.  The only place that picks the
    engine: one graph at n <= _LOOP_MAX_N runs the big-int loop, anything
    else the matrix batch, in sub-batches of at most _BATCH_BYTES per array."""
    if len(graphs) == 1 and n <= _LOOP_MAX_N:
        return [_single_cop_loop(graphs[0], complementary)]
    step = max(1, _BATCH_BYTES // (4 * n * n))
    out: list = []
    for start in range(0, len(graphs), step):
        out += _single_cop_batch(graphs[start : start + step], n, complementary)
    return out


def _is_single_cop(v: Variant) -> bool:
    return isinstance(v, Classic) and v.k == 1 or isinstance(v, Complementary)


def winners(graphs: Sequence[Graph], v: Variant) -> list[Winner | None]:
    """`winner` for each graph; all graphs share one n.  Single-cop games
    are solved together; other variants go one graph at a time."""
    n = one_size(graphs, GameError)
    if not _is_single_cop(v):
        return [winner(g, v) for g in graphs]
    return _single_cop(graphs, n, isinstance(v, Complementary))


def _pack(rows: np.ndarray) -> np.ndarray:
    """Bool vertex-set rows over n vertices as rows of uint64 words, low word first."""
    n = rows.shape[-1]
    packed = np.zeros(rows.shape[:-1] + (8 * ((n + 63) >> 6),), np.uint8)
    packed[..., : (n + 7) >> 3] = np.packbits(rows, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _or_rows(rows: list, out: np.ndarray | None = None) -> np.ndarray:
    """out[i0, i1, ...] | rows[0][i0] | rows[1][i1] | ..., one axis per row
    table: into out in place when it is given, else as a new array."""
    k = len(rows)
    views = [r.reshape((1,) * ax + r.shape[:1] + (1,) * (k - 1 - ax) + r.shape[1:]) for ax, r in enumerate(rows)]
    if out is None:
        return reduce(np.bitwise_or, views)
    for v in views:
        out |= v
    return out


def _nbhd_or(u: np.ndarray, axis: int, closed: list[np.ndarray]) -> np.ndarray:
    """out[..., v, ...] = OR of u[..., x, ...] over x in closed[v], along one axis."""
    out = np.empty_like(u)
    for v, nb in enumerate(closed):
        out[(slice(None),) * axis + (v,)] = np.bitwise_or.reduce(u.take(nb, axis=axis), axis=axis)
    return out


def _trap_table(nmask: np.ndarray, full: np.ndarray) -> np.ndarray:
    """tab[p, b]: the vertices r whose closed neighbourhood misses every vertex
    x = 8p + j with bit j of byte b clear, for the (n + 7) // 8 byte positions
    that hold a vertex.  Closed neighbourhoods are symmetric, so r misses x
    iff x misses r, and tab[p, b] is the AND of ~N[x] over those x; vertices
    past n (the padding bits) constrain nothing."""
    n, words = nmask.shape
    positions = (n + 7) >> 3
    notn = np.broadcast_to(full, (8 * positions, words)).copy()
    notn[:n] &= ~nmask
    notn = notn.reshape(positions, 8, words)
    miss = np.empty((positions, 256, words), np.uint64)  # indexed by the complement byte ~b
    miss[:, 0] = full
    for j in range(8):
        np.bitwise_and(miss[:, : 1 << j], notn[:, j, None], out=miss[:, 1 << j : 2 << j])
    return np.ascontiguousarray(miss[:, ::-1])


def _trapped(ct: np.ndarray, tab: np.ndarray) -> np.ndarray:
    """Per configuration, the vertices r with N[r] inside its row of ct: the
    AND over byte positions p of tab[p, byte p of the row] (the Four Russians
    method of Arlazarov, Dinic, Kronrod and Faradzev, 1970).  Bytes past the
    table hold only padding bits.  Gathering one byte position at a time
    keeps the temporaries at one row per configuration."""
    rows = ct.reshape(-1, ct.shape[-1]).astype("<u8", copy=False).view(np.uint8)
    out = tab[0][rows[:, 0]]
    for p in range(1, tab.shape[0]):
        out &= tab[p][rows[:, p]]
    return out.reshape(ct.shape)


def _fixpoint(closed: np.ndarray, nmask: np.ndarray, occ_rows: list, ct_rows: list, placed, cop_step) -> Winner:
    """Least fixed point over a tensor of cop configurations, one axis per
    row table.

    closed is the (n, n) bool closed-neighbourhood matrix and nmask its
    packed rows.  OR-ing occ_rows along the axes gives, per configuration,
    the packed robber vertices it captures (occ); OR-ing ct_rows gives the
    first cop step CT0 in closed form: occ together with every vertex one
    cop move reaches from it.  placed indexes the legal placements.  Only
    when CT0 does not decide the game are the robber table built and the
    loop run; there cop_step(RT, nb) returns a new array holding, per
    configuration, the union of RT over its cop moves, where nb[v] lists the
    closed neighbourhood of v.
    """
    full = np.bitwise_or.reduce(nmask, axis=0)
    ct = _or_rows(ct_rows)
    if (ct[placed] == full).all(axis=-1).any():
        return Winner.COP
    tab = _trap_table(nmask, full)
    cols = np.nonzero(closed)[1]
    ends = [0, *np.cumsum(closed.sum(axis=1)).tolist()]
    nb = [cols[a:b] for a, b in zip(ends, ends[1:])]
    rt = _or_rows(occ_rows)
    while True:
        new_rt = _or_rows(occ_rows, _trapped(ct, tab))
        del ct  # one configuration tensor fewer while the cop step builds the next
        if np.array_equal(new_rt, rt):
            return Winner.ROBBER
        rt = new_rt
        ct = _or_rows(occ_rows, cop_step(rt, nb))
        if (ct[placed] == full).all(axis=-1).any():
            return Winner.COP


@lru_cache(maxsize=8)
def _trap_sets(n: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trap-site sets of size <= t as (#sets, n) bool rows (the empty set
    first), plus the tables add[c, i] / rem[c, i]: the set reached from set i
    by placing / picking up a trap at c, or i itself when that action is not
    legal.  Cached per (n, t); the arrays are read-only."""
    sets = [s for size in range(t + 1) for s in combinations(range(n), size)]
    index = {s: i for i, s in enumerate(sets)}
    add = np.tile(np.arange(len(sets)), (n, 1))
    rem = add.copy()
    member = np.array([(i, c) for i, s in enumerate(sets) for c in s], dtype=int).reshape(-1, 2)
    rows = np.zeros((len(sets), n), dtype=bool)
    rows[member[:, 0], member[:, 1]] = True
    for i, s in enumerate(sets):
        for c in s:
            j = index[tuple(x for x in s if x != c)]
            rem[c, i] = j
            add[c, j] = i
    for a in (rows, add, rem):
        a.setflags(write=False)
    return rows, add, rem


def winner(g: Graph, v: Variant) -> Winner | None:
    """Winner for the supported variants, or None when unsupported."""
    n = g.n
    if _is_single_cop(v):
        return _single_cop([g], n, isinstance(v, Complementary))[0]
    eye = np.eye(n, dtype=bool)
    closed = adjacency_array([g], n)[0] | eye
    nmask = _pack(closed)
    bits = _pack(eye)
    if isinstance(v, Classic):
        k = v.k

        def classic_step(rt, nb):
            for ax in range(k):
                rt = _nbhd_or(rt, ax, nb)
            return rt

        return _fixpoint(closed, nmask, [bits] * k, [nmask] * k, ..., classic_step)
    if isinstance(v, Tandem):
        # The lead moves inside its closed neighbourhood, then the second cop
        # anywhere in N[lead]: OR over the second axis, read on the diagonal.
        # Legal placements are equal or adjacent pairs, and the first cop step
        # reaches the lead's closed 2-ball.
        diag = np.arange(n)
        return _fixpoint(
            closed,
            nmask,
            [bits, bits],
            [_pack(closed @ closed), bits],
            closed,
            lambda rt, nb: _nbhd_or(_nbhd_or(rt, 1, nb)[diag, diag], 0, nb)[:, None].repeat(n, axis=1),
        )
    if isinstance(v, Traps) and v.m == 1:
        sites, add, rem = _trap_sets(n, v.t)
        sites = _pack(sites)
        cop = np.arange(n)[:, None]
        return _fixpoint(
            closed,
            nmask,
            [bits, sites],
            [nmask, sites],
            (slice(None), 0),  # no traps laid before the first move
            lambda rt, nb: _nbhd_or(rt | rt[cop, add] | rt[cop, rem], 0, nb),
        )
    return None
