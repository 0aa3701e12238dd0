"""Vectorized winner computation for the standard game variants.

Every variant here has a state space that factors as (cop configuration) x
(robber vertex) x (turn), and the winner is the same least fixed point the
explicit worklist solver computes:

    CT[cfg] = occupied[cfg] | union of RT[cfg'] over joint cop moves
    RT[cfg] = occupied[cfg] | { r : closed_nbhd(r) subset of CT[cfg] }

with capture states seeding both sides.  Cops win iff some legal placement
configuration ends up with a full CT row.  Four engines compute it:

  * `winners` solves a batch of single-cop games (Classic(1), Complementary)
    on graphs of one size as one fixed point over float32 (B, n, n) 0/1
    matrices indexed [graph, cop, robber], both half-steps matrix products;
  * `winner` on one single-cop game keeps one big-int robber set per cop
    vertex: at n = 6 a one-graph batch costs about four times this loop,
    and many callers solve one graph at a time;
  * Classic(k >= 2), Tandem and Traps(1,t) share one kernel, `_fixpoint`,
    over a tensor of configurations whose robber sets are packed into uint64
    words; each variant supplies only its capture rows, its legal placements
    and its cop step, built from `_nbhd_or`;
  * Traps(m >= 2) and Roadblocks are left to the explicit arena
    (`winner` returns None).

Agreement with the explicit arena solver, and of the batch engine with the
big-int one, is enforced by the test suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from .games import Classic, Complementary, Tandem, Traps, Variant, Winner, _one_size
from .graphs import Graph, complement

__all__ = ["winner", "winners"]

# Each float32 (B, n, n) array of the batch engine holds at most this many
# bytes, and at least one graph.  1 MiB ran n <= 60 up to 30% faster, but
# raised the peak RSS of Monte Carlo rows at N = 200..300 from 37.9 to 41.2 MB.
_BATCH_BYTES = 1 << 18


def _closed_masks(g: Graph) -> list[int]:
    return [g.adjacency[v] | (1 << v) for v in range(g.n)]


def _mask_to_list(m: int) -> list[int]:
    out = []
    while m:
        b = m & -m
        out.append(b.bit_length() - 1)
        m ^= b
    return out


def _single_cop_winner(cop_closed: list[int], robber_closed: list[int], n: int) -> Winner:
    """Classic one-cop game; cop and robber adjacency may differ."""
    full = (1 << n) - 1
    occ = [1 << c for c in range(n)]
    cop_moves = [_mask_to_list(cop_closed[c]) for c in range(n)]
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


def _adjacency(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """Adjacency of each graph as a (B, n, n) bool array."""
    row_bytes = (n + 7) >> 3
    raw = b"".join(row.to_bytes(row_bytes, "little") for g in graphs for row in g.adjacency)
    rows = np.frombuffer(raw, np.uint8).reshape(len(graphs), n, row_bytes)
    return np.unpackbits(rows, axis=2, count=n, bitorder="little").view(bool)


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
    adj = _adjacency(graphs, n)
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


def winners(graphs: Sequence[Graph], v: Variant) -> list[Winner | None]:
    """`winner` for each graph; all graphs share one n.  Classic(1) and
    Complementary run through the batch engine, in sub-batches of at most
    _BATCH_BYTES per array; other variants go one graph at a time."""
    n = _one_size(graphs)
    if not (isinstance(v, Classic) and v.k == 1 or isinstance(v, Complementary)):
        return [winner(g, v) for g in graphs]
    step = max(1, _BATCH_BYTES // (4 * n * n))
    out: list = []
    for start in range(0, len(graphs), step):
        out += _single_cop_batch(graphs[start : start + step], n, isinstance(v, Complementary))
    return out


def _pack(masks: list[int], n: int) -> np.ndarray:
    """Vertex-set bitmasks over n vertices as rows of uint64 words, low word first."""
    words = (n + 63) >> 6
    raw = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), words).astype(np.uint64)


def _nbhd_or(u: np.ndarray, axis: int, closed: list[np.ndarray]) -> np.ndarray:
    """out[..., v, ...] = OR of u[..., x, ...] over x in closed[v], along one axis."""
    out = np.empty_like(u)
    for v, nb in enumerate(closed):
        out[(slice(None),) * axis + (v,)] = np.bitwise_or.reduce(u.take(nb, axis=axis), axis=axis)
    return out


def _fixpoint(g: Graph, occ: np.ndarray, cop_step, placed) -> Winner:
    """Least fixed point over a tensor of cop configurations.

    occ[cfg] holds the packed robber vertices captured in configuration cfg
    (shape: configuration axes + words).  cop_step(RT) returns, per
    configuration, the union of RT over its cop moves (broadcastable to occ).
    placed indexes the configuration axes of the legal placements.
    """
    n = g.n
    nmask = _pack(_closed_masks(g), n)
    bits = _pack([1 << r for r in range(n)], n)
    full = _pack([(1 << n) - 1], n)[0]
    flat_occ = occ.reshape(-1, occ.shape[-1])
    rt = occ
    while True:
        ct = occ | cop_step(rt)
        if (ct[placed] == full).all(axis=-1).any():
            return Winner.COP
        flat_ct = ct.reshape(flat_occ.shape)
        new_rt = flat_occ.copy()
        for r in range(n):
            ok = ((flat_ct & nmask[r]) == nmask[r]).all(axis=1)
            new_rt[ok] |= bits[r]
        new_rt = new_rt.reshape(occ.shape)
        if np.array_equal(new_rt, rt):
            return Winner.ROBBER
        rt = new_rt


def _trap_sets(n: int, t: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Trap-site sets of size <= t as bitmasks (the empty set first), plus the
    tables add[c, i] / rem[c, i]: the set reached from set i by placing /
    picking up a trap at c, or i itself when that action is not legal."""
    sets = [s for size in range(t + 1) for s in combinations(range(n), size)]
    index = {s: i for i, s in enumerate(sets)}
    add = np.tile(np.arange(len(sets)), (n, 1))
    rem = add.copy()
    for i, s in enumerate(sets):
        for c in s:
            j = index[tuple(x for x in s if x != c)]
            rem[c, i] = j
            add[c, j] = i
    return [sum(1 << c for c in s) for s in sets], add, rem


def winner(g: Graph, v: Variant) -> Winner | None:
    """Winner for the supported variants, or None when unsupported."""
    n = g.n
    masks = _closed_masks(g)
    if isinstance(v, Classic) and v.k == 1:
        return _single_cop_winner(masks, masks, n)
    if isinstance(v, Complementary):
        return _single_cop_winner(_closed_masks(complement(g)), masks, n)
    closed = [np.array(_mask_to_list(m)) for m in masks]
    bits = _pack([1 << c for c in range(n)], n)
    if isinstance(v, Classic):
        k = v.k
        occ = np.zeros((n,) * k + bits.shape[1:], dtype=np.uint64)
        for ax in range(k):
            occ |= bits.reshape((1,) * ax + (n,) + (1,) * (k - 1 - ax) + (-1,))

        def classic_step(rt):
            for ax in range(k):
                rt = _nbhd_or(rt, ax, closed)
            return rt

        return _fixpoint(g, occ, classic_step, ...)
    if isinstance(v, Tandem):
        # The lead moves inside its closed neighbourhood, then the second cop
        # anywhere in N[lead]: OR over the second axis, read on the diagonal.
        diag = np.arange(n)
        valid = np.zeros((n, n), dtype=bool)  # equal or adjacent pairs
        for c, nb in enumerate(closed):
            valid[c, nb] = True
        return _fixpoint(
            g,
            bits[:, None] | bits[None, :],
            lambda rt: _nbhd_or(_nbhd_or(rt, 1, closed)[diag, diag], 0, closed)[:, None],
            valid,
        )
    if isinstance(v, Traps) and v.m == 1:
        sites, add, rem = _trap_sets(n, v.t)
        cop = np.arange(n)[:, None]
        return _fixpoint(
            g,
            bits[:, None] | _pack(sites, n)[None, :],
            lambda rt: _nbhd_or(rt | rt[cop, add] | rt[cop, rem], 0, closed),
            (slice(None), 0),  # no traps laid before the first move
        )
    return None
