"""Rooted-graph extension statements and threshold-function calculus.

All densities are exact rationals.  The density denominator is a per-call
convention: "paper" divides |E_S \\ E_R| by |V_S|, "nonroot" by |V_S \\ R|.
Both are exposed because they lead to different threshold exponents for the
common-neighbor gadget, and the artifact reports rather than adjudicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graphs import Graph, GraphError, _induced, read_edge_list, write_edge_list
from .logic import And, Edge, Eq, Exists, Forall, Formula

__all__ = [
    "RootedGraph",
    "ThresholdFn",
    "ThresholdError",
    "PAPER",
    "NONROOT",
    "common_neighbor_gadget",
    "subextensions",
    "dens",
    "mad",
    "primal_subextensions",
    "is_grounded",
    "threshold",
    "ext_statement",
    "read_rooted",
    "write_rooted",
]

PAPER = "paper"
NONROOT = "nonroot"
_CONVENTIONS = (PAPER, NONROOT)

_SUBEXT_MAX_VERTICES = 16
_EXT_MAX_VERTICES = 8


class ThresholdError(ValueError):
    pass


@dataclass(frozen=True)
class RootedGraph:
    """(H, R): a pattern graph with a nonempty designated root set."""

    graph: Graph
    roots: frozenset[int]

    def __post_init__(self):
        if not self.roots:
            raise ThresholdError("root set must be nonempty")
        if not all(0 <= r < self.graph.n for r in self.roots):
            raise ThresholdError(f"roots {sorted(self.roots)} out of range for n={self.graph.n}")

    @property
    def non_roots(self) -> list[int]:
        return [v for v in range(self.graph.n) if v not in self.roots]

    def root_edge_count(self) -> int:
        return sum(1 for u, v in self.graph.edges() if u in self.roots and v in self.roots)

    def extension_edge_count(self) -> int:
        """|E_H \\ E_R|: edges with at least one non-root endpoint."""
        return self.graph.edge_count() - self.root_edge_count()


def common_neighbor_gadget() -> RootedGraph:
    """Roots {0,1}, one non-root 2, edges 0-2 and 1-2: every root pair must
    extend to a common neighbor."""
    return RootedGraph(Graph(3, [(0, 2), (1, 2)]), frozenset({0, 1}))


def subextensions(rg: RootedGraph) -> list[RootedGraph]:
    """All induced (S, R) with R included; S ranges over root set unions with
    every subset of non-roots, from (R alone) up to H itself."""
    if rg.graph.n > _SUBEXT_MAX_VERTICES:
        raise ThresholdError(f"subextension enumeration capped at {_SUBEXT_MAX_VERTICES} vertices")
    nr = rg.non_roots
    out = []
    for size in range(len(nr) + 1):
        for keep in combinations(nr, size):
            order = sorted(rg.roots.union(keep))
            out.append(RootedGraph(_induced(rg.graph, order), frozenset(order.index(r) for r in rg.roots)))
    return out


def _check_convention(convention: str):
    if convention not in _CONVENTIONS:
        raise ThresholdError(f"unknown convention {convention!r}; use {PAPER!r} or {NONROOT!r}")


def dens(rg: RootedGraph, convention: str = PAPER) -> Fraction:
    """Rooted density: extension edges over |V_S| (paper) or |V_S \\ R|."""
    _check_convention(convention)
    num = rg.extension_edge_count()
    if convention == PAPER:
        return Fraction(num, rg.graph.n)
    non_root_count = rg.graph.n - len(rg.roots)
    if non_root_count == 0:
        raise ThresholdError("nonroot convention is undefined without non-root vertices")
    return Fraction(num, non_root_count)


def is_grounded(rg: RootedGraph) -> bool:
    """True iff some edge joins a root to a non-root vertex."""
    return any((u in rg.roots) != (v in rg.roots) for u, v in rg.graph.edges())


def _densest(rg: RootedGraph, convention: str) -> tuple[Fraction, list[RootedGraph]]:
    """The maximal density over subextensions, and the subextensions that
    achieve it, from one enumeration."""
    _check_convention(convention)
    subs = subextensions(rg)
    if convention == NONROOT:
        # The roots-only subextension has no denominator under this convention.
        subs = [s for s in subs if s.graph.n > len(s.roots)]
    if not subs:
        raise ThresholdError("no subextension with non-root vertices")
    cands = [(s, dens(s, convention)) for s in subs]
    best = max(d for _, d in cands)
    return best, [s for s, d in cands if d == best]


def mad(rg: RootedGraph, convention: str = PAPER) -> Fraction:
    """Maximal average degree: max density over subextensions."""
    return _densest(rg, convention)[0]


def primal_subextensions(rg: RootedGraph, convention: str = PAPER) -> list[RootedGraph]:
    """Subextensions achieving the maximal density."""
    return _densest(rg, convention)[1]


@dataclass(frozen=True)
class ThresholdFn:
    """f(N) = N**exponent * (log N)**log_exponent, exact rationals."""

    exponent: Fraction
    log_exponent: Fraction
    convention: str

    def to_json_dict(self) -> dict:
        return {
            "exponent_num": self.exponent.numerator,
            "exponent_den": self.exponent.denominator,
            "log_exp_num": self.log_exponent.numerator,
            "log_exp_den": self.log_exponent.denominator,
            "convention": self.convention,
        }

    def describe(self) -> str:
        s = f"N^({self.exponent})"
        if self.log_exponent:
            s += f" * (log N)^({self.log_exponent})"
        return s

    def value(self, n: int) -> float:
        import math

        v = float(n) ** float(self.exponent)
        if self.log_exponent:
            v *= math.log(n) ** float(self.log_exponent)
        return v


def threshold(rg: RootedGraph, convention: str = PAPER) -> ThresholdFn:
    """Threshold function for the extension property of (H, R).

    Exponent is -1/mad; when some primal subextension is grounded the log
    factor is 1/s with s the least extension-edge count over grounded primal
    subextensions, otherwise there is no log factor.
    """
    _check_convention(convention)
    if rg.graph.n == len(rg.roots):
        raise ThresholdError("threshold needs at least one non-root vertex")
    m, primal = _densest(rg, convention)
    if m <= 0:
        raise ThresholdError("no non-root structure: mad is zero")
    grounded_primal = [s for s in primal if is_grounded(s)]
    if grounded_primal:
        s_min = min(s.extension_edge_count() for s in grounded_primal)
        log_exp = Fraction(1, s_min)
    else:
        log_exp = Fraction(0)
    return ThresholdFn(exponent=-1 / m, log_exponent=log_exp, convention=convention)


def ext_statement(rg: RootedGraph) -> Formula:
    """FO sentence: every placement of the roots extends to the non-roots.

    Only required adjacencies are constrained; root-root edges and non-edges
    impose nothing.  Roots become universals x1..xr (in vertex order),
    non-roots existentials z1..zs.
    """
    if rg.graph.n > _EXT_MAX_VERTICES:
        raise ThresholdError(f"ext_statement capped at {_EXT_MAX_VERTICES} vertices")
    roots = sorted(rg.roots)
    non_roots = rg.non_roots
    name = {}
    for i, r in enumerate(roots, start=1):
        name[r] = f"x{i}"
    for i, v in enumerate(non_roots, start=1):
        name[v] = f"z{i}"
    atoms = [
        Edge(name[u], name[v])
        for u, v in rg.graph.edges()
        if not (u in rg.roots and v in rg.roots)
    ]
    if atoms:
        body: Formula = atoms[0]
        for a in atoms[1:]:
            body = And(body, a)
    else:
        first = name[roots[0]]
        body = Eq(first, first)  # no required adjacencies: vacuously true
    for v in reversed(non_roots):
        body = Exists(name[v], body)
    for r in reversed(roots):
        body = Forall(name[r], body)
    return body


def write_rooted(rg: RootedGraph) -> str:
    """Edge-list text plus a final `roots ...` line."""
    return write_edge_list(rg.graph) + "roots " + " ".join(str(r) for r in sorted(rg.roots)) + "\n"


def read_rooted(text: str) -> RootedGraph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[-1].startswith("roots"):
        raise ThresholdError("rooted-graph text must end with a `roots ...` line")
    try:
        roots = frozenset(int(x) for x in lines[-1].split()[1:])
    except ValueError as exc:
        raise ThresholdError(f"bad roots line {lines[-1]!r}") from exc
    try:
        g = read_edge_list("\n".join(lines[:-1]))
    except GraphError as exc:
        raise ThresholdError(str(exc)) from exc
    return RootedGraph(g, roots)
