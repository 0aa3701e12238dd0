"""Vectorized winner computation for the standard game variants.

Every variant here has a state space that factors as (cop configuration) x
(robber vertex) x (turn), and the winner is the same least fixed point the
explicit worklist solver computes:

    CT[cfg] = occupied[cfg] | union of RT[cfg'] over joint cop moves
    RT[cfg] = occupied[cfg] | { r : closed_nbhd(r) subset of CT[cfg] }

with capture states seeding both sides.  Cops win iff some legal placement
configuration ends up with a full CT row.  One of three engines computes
it, picked from the variant and the number of graphs in the call: `winners`
sends single-cop games on two or more graphs to the matrix batch and every
other graph to `winner`, which picks by the variant alone:

  * the big-int engine, `_int_fixpoint`, keeps one Python int of robber
    vertices per configuration in a flat list.  It takes Classic(1),
    Complementary and Tandem, one graph at a time, at every n.  Each
    variant gives its first cop step CT0 in closed form, which decides a cop
    win before anything else is built, and its cop moves as masks over the
    configurations.  Tandem is solved over the lead's vertex alone: the
    second cop may stand anywhere in N[lead] after every move, so the lead
    decides the cop step, and a round costs O(n * degree) int operations.
    Rounds are semi-naive: only rows of CT that changed are trapped again,
    and only configurations whose T grew push it on.  A game that needs
    many rounds on one large sparse graph (a tree, say) costs it more than
    it would cost the batch; README lists the measured trade-off;
  * the matrix batch, `_single_cop_batch`, runs the single-cop fixed point
    on graphs of one n together, over float32 (B, n, n) 0/1 matrices
    indexed [graph, cop, robber], both half-steps matrix products.  It takes
    every single-cop call on two or more graphs;
  * the packed kernel, `_fixpoint`, takes Classic(k >= 2) and Traps(1,t)
    at every n, over a tensor of configurations whose robber sets are packed
    into uint64 words.  Each variant supplies per-axis row tables for its
    capture rows and for its first cop step CT0 in closed form (Classic(k):
    the OR of k closed neighbourhoods; Traps(1,t): N[c] | sites), its legal
    placements, and a general cop step built from `_nbhd_or`.  CT0 decides a cop win when one move from some legal
    placement reaches every vertex; for Classic(k) that is a dominating
    k-set, which G(60, 1/2) almost always has for k = 3 (its domination
    number is about log2 n - log2 log2 n; Wieland and Godbole, 2001).
    Otherwise the loop starts from CT0, and `_nbhd_or` runs only in rounds
    >= 2.

Both the big-int engine and the kernel find the trapped set the same way:
r is trapped iff N[r] lies inside CT, so (closed neighbourhoods being
symmetric) it is the AND of ~N[x] over the x outside CT.  The big-int engine
folds it over the missing vertices and stops at an empty set; the kernel
reads it byte by byte of CT from a per-graph table of those ANDs, the "Four
Russians" method (Arlazarov, Dinic, Kronrod and Faradzev, 1970).
Traps(m >= 2) and Roadblocks are left to the explicit arena (`winner`
returns None).

Agreement with the explicit arena solver, and of the engines with each
other, is enforced by the test suite.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from typing import Sequence

import numpy as np

from .games import Classic, Complementary, GameError, Tandem, Traps, Variant, Winner
from .graphs import Graph, adjacency_array, one_size

__all__ = ["winner", "winners"]

# Each float32 (B, n, n) array of the batch engine holds at most this many
# bytes, and at least one graph.  1 MiB ran n <= 60 up to 30% faster, but
# raised the peak RSS of Monte Carlo rows at N = 200..300 from 37.9 to 41.2 MB.
_BATCH_BYTES = 1 << 18
_SINGLE_COP = (Classic(1), Complementary())


def _int_fixpoint(ct: list[int], moves: list[int], notn: list[int], full: int) -> Winner:
    """Least fixed point over a flat list of cop configurations, one Python
    int of robber vertices per configuration:

        T[x]  = { r : N[r] inside CT[x] }
        CT[c] = CT0[c] | OR of T[x] over the configurations x in moves[c]

    ct holds CT0, the first cop step in closed form (the robber vertices one
    cop move from c captures on), which the caller has found to have no full
    row.  moves[c] is a mask over configurations, and symmetric: x is in
    moves[c] iff c is in moves[x].  CT and T only grow, so evaluation is
    semi-naive: only rows of CT that changed are trapped again, and only
    configurations whose T grew push it to the rows that move to them.  The
    trapped set is the AND of notn[y] = ~N[y] over the y outside the CT row,
    cut short once it is empty.  Every configuration is a legal placement,
    so the first full row is a cop win, and a round in which no T grows is a
    robber win.

    T[x] leaves out x itself: a robber there is captured, and every row c
    that moves to x already holds x, because CT0[c] holds moves[c] (the
    caller's condition).  Kept, x would stay in the AND while the row holds
    N[x], since no y outside the row is then adjacent to x; the cut-off
    would not fire, and every T would count as grown in round one.
    """
    ct = list(ct)
    trapped = [0] * len(ct)
    dirty = range(len(ct))
    while True:
        grown = []
        for x in dirty:
            row = ct[x]
            t = row & ~(1 << x)
            m = full ^ row
            while m and t:
                b = m & -m
                t &= notn[b.bit_length() - 1]
                m ^= b
            if t != trapped[x]:
                trapped[x] = t
                grown.append(x)
        if not grown:
            return Winner.ROBBER
        dirty = set()
        for x in grown:
            t = trapped[x]
            m = moves[x]
            while m:
                b = m & -m
                c = b.bit_length() - 1
                m ^= b
                old = ct[c]
                u = old | t
                if u != old:
                    if u == full:
                        return Winner.COP
                    ct[c] = u
                    dirty.add(c)


def _int_winner(g: Graph, v: Variant) -> Winner:
    """The big-int engine on one graph.  Each variant gives its
    configurations' first cop step CT0 in closed form, checked for a full
    row before anything else is built, and their moves; in each, CT0[c]
    holds moves[c], as `_int_fixpoint` needs:

      * one cop (Classic(1), Complementary): configuration c is the cop's
        vertex; CT0[c] and moves[c] are its closed neighbourhood, in the
        complement when complementary (every vertex c is not adjacent to);
      * Tandem: the cop step depends only on the lead, and the second cop
        may then stand anywhere in N[lead], so configuration x is the lead's
        vertex after a move.  From there the cops capture on N[x] (the second
        cop takes that vertex) and trap T[x].  CT0 is the lead's closed
        2-ball, and moves[x] is N[x].
    """
    n = g.n
    full = (1 << n) - 1
    closed = [a | 1 << x for x, a in enumerate(g.adjacency)]
    if isinstance(v, Tandem):
        ct = []
        for c in closed:
            u = 0
            while c:
                b = c & -c
                u |= closed[b.bit_length() - 1]
                c ^= b
            if u == full:
                return Winner.COP
            ct.append(u)
        moves = closed
    else:
        ct = [full ^ a for a in g.adjacency] if isinstance(v, Complementary) else closed
        if full in ct:
            return Winner.COP
        moves = ct
    return _int_fixpoint(ct, moves, [full ^ c for c in closed], full)


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


def _kernel_winner(g: Graph, v: Variant) -> Winner | None:
    """The packed kernel on one graph: Classic(k) and Traps(1,t), else None."""
    n = g.n
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


def winners(graphs: Sequence[Graph], v: Variant) -> list[Winner | None]:
    """`winner` for each graph; all graphs share one n.  Single-cop games on
    two or more graphs are solved as one matrix batch; every other call goes
    one graph at a time through `winner`."""
    n = one_size(graphs, GameError)
    if len(graphs) > 1 and v in _SINGLE_COP:
        step = max(1, _BATCH_BYTES // (4 * n * n))
        complementary = isinstance(v, Complementary)
        return [w for i in range(0, len(graphs), step) for w in _single_cop_batch(graphs[i : i + step], n, complementary)]
    return [winner(g, v) for g in graphs]


def winner(g: Graph, v: Variant) -> Winner | None:
    """Winner for the supported variants, or None when unsupported.
    Classic(1), Complementary and Tandem run the big-int engine; every other
    variant runs the packed kernel (or the explicit arena, when
    `_kernel_winner` returns None)."""
    if v in _SINGLE_COP or isinstance(v, Tandem):
        return _int_winner(g, v)
    return _kernel_winner(g, v)
