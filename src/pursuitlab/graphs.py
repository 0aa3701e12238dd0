"""Finite simple graphs: bitset adjacency, G(n,p) samplers, named graphs, text IO.

Vertices are always the dense range 0..n-1.  Adjacency is stored as one
bitmask int per vertex, which gives O(1) edge tests and O(deg) neighbor
iteration; both are load-bearing for the game solvers.  `adjacency_array`
is the one conversion of a batch of graphs to the bool arrays the sentence
evaluator and the vectorized solvers work on.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "PFamily",
    "gnp_sample",
    "gnpn_sample",
    "named",
    "complement",
    "open_neighborhood",
    "closed_neighborhood",
    "components",
    "is_connected",
    "diameter",
    "count_tree_components",
    "write_edge_list",
    "read_edge_list",
    "to_dot",
]


class GraphError(ValueError):
    """Bad graph construction or query arguments."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Self-loops are never stored; "staying put" in the games is modeled in
    the move semantics (closed neighborhoods), not in the edge set.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop ({u},{u}) not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def from_adjacency(cls, masks: Iterable[int]) -> "Graph":
        """Build from bitmask rows (must already be symmetric, irreflexive)."""
        g = cls.__new__(cls)
        rows = tuple(masks)
        g.n = len(rows)
        g._adj = rows
        return g

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Bitmask adjacency rows; row v has bit u set iff {u,v} is an edge."""
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        m = self._adj[v]
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u,v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            m = self._adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


@dataclass(frozen=True)
class PFamily:
    """Edge-probability family p(N) = c * N**(-alpha) * (log N)**beta.

    Natural log; the evaluated value is clamped to [0,1].  This closed form
    covers every sparse-regime exponent the experiments need.
    """

    c: float
    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if self.c <= 0:
            raise GraphError(f"PFamily coefficient must be positive, got {self.c}")

    def p(self, n: int) -> float:
        if n < 2:
            raise GraphError("PFamily is defined for n >= 2")
        value = self.c * n ** (-self.alpha) * math.log(n) ** self.beta
        return min(1.0, max(0.0, value))

    def describe(self) -> str:
        return f"c={self.c:g},alpha={self.alpha:g},beta={self.beta:g}"


# Pairs whose coins are drawn by one getrandbits call (32 KiB of words).
_DRAW_PAIRS = 4096
# gnp_sample refuses an n whose working arrays (the pair draws, the
# _upper_triangle mask and the adjacency, about 3 n^2 bytes) would pass this
# many bytes: n <= 4729 is served.  read_edge_list holds a header's n to the
# same bound for its 8n-byte adjacency list.
_SAMPLE_BYTES = 1 << 26


# Samples come in runs of one n (a Monte Carlo row, its checks), so one slot
# holds the mask for a whole run and keeps at most one n x n mask alive.
@lru_cache(maxsize=1)
def _upper_triangle(n: int) -> np.ndarray:
    """(n, n) bool mask of the pairs u < v; read-only."""
    r = np.arange(n)
    mask = r[:, None] < r
    mask.setflags(write=False)
    return mask


def gnp_sample(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p) sample; identical (n,p,seed) gives identical edges.

    Pair j in lexicographic order (u, v), u < v, is an edge iff the j-th
    `random.Random(seed).random()` draw is below p, so results do not depend
    on thread count or on any global random state.  The draws are read in
    bulk: `random()` is two MT19937 words a, b as (a >> 5 << 26 | b >> 6)
    / 2**53, and `getrandbits` returns the same words in the same order,
    least significant first, so each 64-bit little-endian word of its output
    is one draw.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must lie in [0,1], got {p}")
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    if 3 * n * n > _SAMPLE_BYTES:
        raise GraphError(f"n = {n} is too large: its working arrays would take about {3 * n * n} bytes, "
                         f"over the {_SAMPLE_BYTES}-byte bound")
    rng = random.Random(seed)
    if p >= 1.0:
        full = (1 << n) - 1
        return Graph.from_adjacency(full ^ (1 << v) for v in range(n))
    if p <= 0.0:
        return Graph.from_adjacency([0] * n)
    below = math.ceil(p * 2**53)  # random() < p iff its 53-bit numerator < below
    pairs = n * (n - 1) // 2
    hits = np.empty(pairs, bool)
    for a in range(0, pairs, _DRAW_PAIRS):
        k = min(_DRAW_PAIRS, pairs - a)
        x = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u8")
        hits[a:a + k] = ((x & 0xFFFFFFFF) >> 5 << 26 | x >> 38) < below
    adj = np.zeros((n, n), bool)
    adj[_upper_triangle(n)] = hits  # row-major order is lexicographic pair order
    adj |= adj.T
    rb = (n + 7) >> 3
    raw = np.packbits(adj, axis=1, bitorder="little").tobytes()
    return Graph.from_adjacency(int.from_bytes(raw[i:i + rb], "little") for i in range(0, n * rb, rb))


def gnpn_sample(n: int, fam: PFamily, seed: int) -> Graph:
    """G(n, p(n)) sample for an N-dependent family; delegates to gnp_sample."""
    if n < 2:
        raise GraphError("gnpn_sample needs n >= 2")
    return gnp_sample(n, fam.p(n), seed)


def _cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError(f"cycle needs k >= 3, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def _path(k: int) -> Graph:
    if k < 1:
        raise GraphError(f"path needs k >= 1, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def _complete(k: int) -> Graph:
    if k < 1:
        raise GraphError(f"complete needs k >= 1, got {k}")
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def _petersen() -> Graph:
    # Outer 5-cycle 0..4, spokes i--i+5, inner pentagram 5+i -- 5+((i+2) mod 5).
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def _k33() -> Graph:
    # Sides {0,1,2} and {3,4,5}.
    return Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _d4() -> Graph:
    # Diamond: 4-cycle 0-1-2-3 plus the chord {0,2}; degree 3 at 0 and 2.
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


_FIXED_NAMED = {
    "c4": lambda: _cycle(4),
    "p4": lambda: _path(4),
    "d4": _d4,
    "k33": _k33,
    "petersen": _petersen,
}

_PARAM_NAMED = {"cycle": _cycle, "path": _path, "complete": _complete}


def named(name: str) -> Graph:
    """Canonical witness graphs with fixed, documented vertex labelings.

    Accepted names: c4, p4, d4, k33, petersen, cycle(k), path(k), complete(k).
    Labelings: cycles/paths are 0-1-...-k(-0); the diamond is the 4-cycle
    0-1-2-3 with chord {0,2}; K33 has sides {0,1,2} vs {3,4,5}; the Petersen
    graph is outer cycle 0..4, spokes i--i+5, inner edges 5+i -- 5+((i+2)%5).
    """
    key = name.strip().lower()
    if key in _FIXED_NAMED:
        return _FIXED_NAMED[key]()
    m = re.fullmatch(r"([a-z]+)\((\d+)\)", key)
    if m and m.group(1) in _PARAM_NAMED:
        return _PARAM_NAMED[m.group(1)](int(m.group(2)))
    raise GraphError(f"unknown named graph {name!r}")


def complement(g: Graph) -> Graph:
    """Edge-complement: (u,v) with u != v is an edge iff it is not one in g."""
    full = (1 << g.n) - 1
    rows = tuple((full ^ g.adjacency[v]) & ~(1 << v) for v in range(g.n))
    return Graph.from_adjacency(rows)


def open_neighborhood(g: Graph, v: int) -> set[int]:
    """N(v) = {u : E(u,v)}; never contains v."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    return set(g.neighbors(v))


def closed_neighborhood(g: Graph, v: int) -> set[int]:
    """N[v] = N(v) union {v}: the legal move targets including staying put."""
    out = open_neighborhood(g, v)
    out.add(v)
    return out


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    seen = 0
    out = []
    adj = g.adjacency
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= adj[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        out.append(_bits_to_list(comp))
    return out


def _bits_to_list(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def diameter(g: Graph) -> int | float:
    """Max pairwise shortest-path distance; math.inf when disconnected."""
    best = 0
    full = (1 << g.n) - 1
    adj = g.adjacency
    for v in range(g.n):
        seen = 1 << v
        frontier = seen
        dist = 0
        while seen != full:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= adj[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~seen
            if not frontier:
                return math.inf
            seen |= frontier
            dist += 1
        best = max(best, dist)
    return best


def one_size(graphs: Sequence[Graph], error: type[Exception], what: str = "a batch") -> int:
    """The vertex count every graph of a batch shares (1 for an empty batch);
    graphs of different sizes raise `error`, saying that `what` needs one."""
    sizes = {g.n for g in graphs} or {1}
    if len(sizes) > 1:
        raise error(f"{what} needs graphs of one size, got n in {sorted(sizes)}")
    return sizes.pop()


def adjacency_array(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """Adjacency of n-vertex graphs as a (B, n, n) bool array."""
    row_bytes = (n + 7) >> 3
    raw = b"".join(row.to_bytes(row_bytes, "little") for g in graphs for row in g.adjacency)
    rows = np.frombuffer(raw, np.uint8).reshape(len(graphs), n, row_bytes)
    return np.unpackbits(rows, axis=2, count=n, bitorder="little").view(bool)


def _induced(g: Graph, vertices: list[int]) -> Graph:
    idx = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if g.has_edge(u, v):
                edges.append((idx[u], idx[v]))
    return Graph(len(vertices), edges)


def _isomorphic(a: Graph, b: Graph) -> bool:
    """Exhaustive isomorphism test, intended for graphs up to 8 vertices."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(b.degree(v) for v in range(b.n)):
        return False
    import itertools

    ae = a.edges()
    for perm in itertools.permutations(range(a.n)):
        if all(b.has_edge(perm[u], perm[v]) for u, v in ae):
            return True
    return False


def count_tree_components(g: Graph, pattern: Graph) -> int:
    """Number of connected components of g isomorphic to the given pattern."""
    if pattern.n > 8:
        raise GraphError("pattern too large; isomorphism matching is capped at 8 vertices")
    if not is_connected(pattern):
        raise GraphError("pattern must be connected")
    count = 0
    for comp in components(g):
        if len(comp) == pattern.n and _isomorphic(_induced(g, comp), pattern):
            count += 1
    return count


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: `n <N>` then one `<u> <v>` line per edge."""
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("n "):
        raise GraphError("edge-list text must start with a `n <N>` line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise GraphError(f"bad header line {lines[0]!r}") from exc
    if 8 * n > _SAMPLE_BYTES:  # Graph(n) starts from an n-slot list, 8 bytes a slot
        raise GraphError(f"n = {n} is too large: its adjacency list would take about {8 * n} bytes, "
                         f"over the {_SAMPLE_BYTES}-byte bound")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())  # a wrong count or a non-integer raises ValueError
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
        if not u < v:
            raise GraphError(f"edge lines must have u < v, got {ln!r}")
        edges.append((u, v))
    if edges != sorted(edges):
        raise GraphError("edge lines must be sorted lexicographically")
    return Graph(n, edges)


def to_dot(g: Graph) -> str:
    """DOT text for visualization with external tools."""
    body = [f"  {v};" for v in range(g.n) if g.degree(v) == 0]
    body += [f"  {u} -- {v};" for u, v in g.edges()]
    return "graph G {\n" + "\n".join(body) + "\n}\n"
