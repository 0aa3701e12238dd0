"""First-order logic over the graph vocabulary {E, =}.

AST, recursive-descent parser, printer, an array evaluator, and constructors
for the extension axioms and the game winning-condition sentences.  The
evaluator turns each subformula into a boolean array over its free variables
and a batch of graphs, so one pass answers a sentence for many graphs.  The
edge atom is irreflexive and symmetric: E(x,x) is false on every graph, and
reflexive movement lives in the game semantics instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Union

import numpy as np

from .graphs import Graph, adjacency_array, one_size

__all__ = [
    "Formula",
    "Forall",
    "Exists",
    "And",
    "Or",
    "Implies",
    "Not",
    "Edge",
    "Eq",
    "LogicError",
    "ParseError",
    "parse",
    "to_text",
    "free_variables",
    "evaluate",
    "evaluate_batch",
    "evaluate_lanes",
    "check_sentence",
    "extension_axiom",
    "escape_k",
    "trap_escape",
    "complementary_escape",
    "tandem_capture",
    "isolated_vertices",
    "empty_graph",
    "builtin",
    "BUILTIN_NAMES",
]


class LogicError(ValueError):
    """Bad formula construction or evaluation arguments."""


class ParseError(LogicError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Edge:
    a: str
    b: str


@dataclass(frozen=True)
class Eq:
    a: str
    b: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Edge, Eq, Not, And, Or, Implies, Forall, Exists]

_BINARY = (And, Or, Implies)
_QUANT = (Forall, Exists)


def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, (Edge, Eq)):
        return frozenset((f.a, f.b))
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, _BINARY):
        return free_variables(f.lhs) | free_variables(f.rhs)
    if isinstance(f, _QUANT):
        return free_variables(f.body) - {f.var}
    raise LogicError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Parsing.  Grammar (EBNF):
#   formula := quant | impl
#   quant   := ("forall"|"exists") IDENT formula
#   impl    := or ("->" impl)?
#   or      := and ("|" and)*
#   and     := unary ("&" unary)*
#   unary   := "!" unary | "(" formula ")" | atom
#   atom    := "E(" IDENT "," IDENT ")" | IDENT "=" IDENT
#   IDENT   := [a-z][a-z0-9_]*
# Precedence ! > & > | > ->, implication right-associative, quantifier
# bodies extend as far right as possible.

_TOKEN_RE = re.compile(r"\s*(->|[()!&|,=]|E(?=\()|[a-z][a-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos + len(rest) - len(stripped))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.scope: list[str] = []

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def _next(self) -> str:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def _expect(self, tok: str):
        got = self._peek()
        if got != tok:
            raise ParseError(f"expected {tok!r}, found {got!r}", self._pos())
        self.i += 1

    def formula(self) -> Formula:
        if self._peek() in ("forall", "exists"):
            kind = self._next()
            pos = self._pos()
            var = self._ident()
            if var in self.scope:
                raise ParseError(f"variable {var!r} is already quantified on this branch", pos)
            self.scope.append(var)
            body = self.formula()
            self.scope.pop()
            return Forall(var, body) if kind == "forall" else Exists(var, body)
        return self.impl()

    def impl(self) -> Formula:
        lhs = self.disj()
        if self._peek() == "->":
            self._next()
            return Implies(lhs, self.impl())
        return lhs

    def disj(self) -> Formula:
        f = self.conj()
        while self._peek() == "|":
            self._next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self._peek() == "&":
            self._next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self._peek()
        if tok == "!":
            self._next()
            return Not(self.unary())
        if tok == "(":
            self._next()
            f = self.formula()
            self._expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self._peek()
        if tok == "E":
            self._next()
            self._expect("(")
            a = self._ident()
            self._expect(",")
            b = self._ident()
            self._expect(")")
            return Edge(a, b)
        a = self._ident()
        self._expect("=")
        b = self._ident()
        return Eq(a, b)

    def _ident(self) -> str:
        pos = self._pos()
        tok = self._next()
        if not re.fullmatch(r"[a-z][a-z0-9_]*", tok) or tok in ("forall", "exists"):
            raise ParseError(f"expected identifier, found {tok!r}", pos)
        return tok


def parse(text: str) -> Formula:
    """Parse a sentence; rejects free variables and shadowed quantifiers."""
    p = _Parser(text)
    f = p.formula()
    if p.i < len(p.tokens):
        raise ParseError(f"unexpected trailing token {p._peek()!r}", p._pos())
    free = free_variables(f)
    if free:
        raise ParseError(
            "sentence has free variables: " + ", ".join(sorted(free)), len(text)
        )
    return f


def _operand(f: Formula) -> str:
    # Quantifiers are only grammatical at formula level or inside parens.
    text = to_text(f)
    return "(" + text + ")" if isinstance(f, _QUANT) else text


def to_text(f: Formula) -> str:
    """Print a formula; parse(to_text(f)) returns an identical AST."""
    if isinstance(f, Edge):
        return f"E({f.a},{f.b})"
    if isinstance(f, Eq):
        return f"{f.a} = {f.b}"
    if isinstance(f, Not):
        inner = to_text(f.body)
        if isinstance(f.body, (Edge, Not)):
            return "!" + inner
        if isinstance(f.body, _BINARY):
            return "!" + inner  # binaries already carry parentheses
        return "!(" + inner + ")"
    if isinstance(f, And):
        return f"({_operand(f.lhs)} & {_operand(f.rhs)})"
    if isinstance(f, Or):
        return f"({_operand(f.lhs)} | {_operand(f.rhs)})"
    if isinstance(f, Implies):
        return f"({_operand(f.lhs)} -> {_operand(f.rhs)})"
    if isinstance(f, Forall):
        return f"forall {f.var} {to_text(f.body)}"
    if isinstance(f, Exists):
        return f"exists {f.var} {to_text(f.body)}"
    raise LogicError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Evaluation.  A sentence is rewritten into a plan: negation normal form with
# &/| chains flattened and each quantifier pushed inward as far as it goes
# (miniscoping, sound because a universe is never empty).  Plan nodes are
# ("E" | "=", free, a, b, negated), ("&" | "|", free, parts in folding order)
# and ("all" | "any", free, var, body), where free is the free variables.
# Each node evaluates to an array with one axis per variable, of size one
# where the node does not mention it, and a last axis of lanes: broadcasting
# does the joins and a quantifier is a reduction along its variable's axis.

# A sentence whose widest node needs more than this for a single lane is
# refused before anything is allocated.
_MAX_ARRAY_BYTES = 1 << 25
# Lanes go through in sub-batches of about this many bytes per array: enough
# to amortise numpy's per-call cost on small graphs, little memory on large.
_BATCH_BYTES = 1 << 20
# Plans of this many recently evaluated sentences are kept.
_PLAN_CACHE_SIZE = 256


def _parts(node: tuple) -> tuple:
    return node[2] if node[0] in ("&", "|") else node[3:] if node[0] in ("all", "any") else ()


def _width(node: tuple) -> int:
    return max([len(node[1]), *map(_width, _parts(node))])


def _has_edge(node: tuple) -> bool:
    return node[0] == "E" and node[2] != node[3] or any(map(_has_edge, _parts(node)))


def _junction(op: str, parts: list) -> tuple:
    flat = [q for p in parts for q in (p[2] if p[0] == op else (p,))]
    if len(flat) == 1:
        return flat[0]
    # Graph-independent parts fold first, then narrowest first: full-width arrays come last.
    flat.sort(key=lambda p: (_has_edge(p), len(p[1])))
    return (op, frozenset().union(*(p[1] for p in flat)), tuple(flat))


def _quantify(q: str, var: str, body: tuple) -> tuple:
    if var not in body[1]:
        return body
    if body[0] in ("&", "|"):
        inner = [p for p in body[2] if var in p[1]]
        outer = [p for p in body[2] if var not in p[1]]
        if body[0] == ("&" if q == "all" else "|"):
            return _junction(body[0], outer + [_quantify(q, var, p) for p in inner])
        if outer:
            return _junction(body[0], outer + [_quantify(q, var, _junction(body[0], inner))])
    return (q, body[1] - {var}, var, body)


def _plan(f: Formula, negated: bool = False) -> tuple:
    if isinstance(f, (Edge, Eq)):
        return ("E" if isinstance(f, Edge) else "=", frozenset((f.a, f.b)), f.a, f.b, negated)
    if isinstance(f, Not):
        return _plan(f.body, not negated)
    if isinstance(f, Implies):
        return _junction("&" if negated else "|", [_plan(f.lhs, not negated), _plan(f.rhs, negated)])
    if isinstance(f, (And, Or)):
        return _junction("&" if isinstance(f, And) != negated else "|", [_plan(f.lhs, negated), _plan(f.rhs, negated)])
    if isinstance(f, _QUANT):
        return _quantify("all" if isinstance(f, Forall) != negated else "any", f.var, _plan(f.body, negated))
    raise LogicError(f"not a formula node: {f!r}")


def _array(node: tuple, axes: dict[str, int], rank: int, edge: np.ndarray, eye: np.ndarray) -> np.ndarray:
    op = node[0]
    if op in ("E", "="):
        _, _, a, b, negated = node
        if a == b:
            r = np.zeros((1,) * (rank + 1), edge.dtype)
            return r if (op == "E") != negated else ~r
        shape = [1] * rank + [-1]
        shape[axes[a]] = shape[axes[b]] = edge.shape[0]
        r = (edge if op == "E" else eye).reshape(shape)  # both are symmetric
        return ~r if negated else r
    if op in ("all", "any"):
        _, free, var, body = node
        axis = min(set(range(rank)) - {axes[v] for v in free})
        r = _array(body, {**axes, var: axis}, rank, edge, eye)
        return (np.bitwise_and if op == "all" else np.bitwise_or).reduce(r, axis=axis, keepdims=True)
    ufunc = np.bitwise_and if op == "&" else np.bitwise_or
    acc = _array(node[2][0], axes, rank, edge, eye)
    for part in node[2][1:]:
        r = _array(part, axes, rank, edge, eye)
        # Write into an operand this node owns when it already has the result's shape.
        shape = np.broadcast_shapes(acc.shape, r.shape)
        acc = ufunc(acc, r, out=next((a for a in (acc, r) if a.base is None and a.shape == shape), None))
    return acc


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _sentence_plan(f: Formula) -> tuple[tuple, int]:
    """The plan of formula f and its width, built once per formula (formulas are frozen)."""
    plan = _plan(f)
    return plan, _width(plan)


def _checked_plan(f: Formula, n: int, dtype) -> tuple[tuple, int, int]:
    """The plan of sentence f, its width and its bytes per lane of `dtype` at n.

    Raises LogicError when f has free variables, n < 1, or f is too wide at n.
    """
    plan, width = _sentence_plan(f)
    if plan[1]:
        raise LogicError("evaluate requires a sentence; free variables: " + ", ".join(sorted(plan[1])))
    if n < 1:
        raise LogicError(f"need a universe of at least one vertex, got n={n}")
    lane_bytes = n ** max(width, 2) * np.dtype(dtype).itemsize
    if width >= 32 or lane_bytes > _MAX_ARRAY_BYTES:
        raise LogicError(f"sentence is too wide to evaluate at n={n}: its widest subformula has {width} free "
                         f"variables, {lane_bytes} bytes per lane, over the {_MAX_ARRAY_BYTES}-byte bound")
    return plan, width, lane_bytes


def check_sentence(f: Formula, n: int, dtype=np.bool_) -> int:
    """Raise LogicError where evaluate_lanes would refuse f on n vertices with
    lanes of `dtype`, before any graph exists; else return its bytes per lane."""
    return _checked_plan(f, n, dtype)[2]


def evaluate_lanes(f: Formula, n: int, lanes: int, dtype, leaf: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Truth of sentence f on each of `lanes` lanes over the universe 0..n-1.

    leaf(start, stop) gives lanes start..stop-1 as an (n, n, stop - start) adjacency tensor of
    `dtype` (bool: one graph per lane; uint64: one graph per bit).  Every array keeps its memory
    order, which is fastest with the longer of the lane and vertex axes innermost.
    """
    plan, width, lane_bytes = _checked_plan(f, n, dtype)
    step = max(1, _BATCH_BYTES // lane_bytes)
    eye = np.eye(n, dtype=bool)[:, :, None] * ~np.zeros(1, dtype)
    out = np.empty(lanes, dtype)
    for start in range(0, lanes, step):
        out[start : start + step] = _array(plan, {}, width, leaf(start, min(start + step, lanes)), eye).reshape(-1)
    return out


def evaluate_batch(f: Formula, graphs: list[Graph]) -> list[bool]:
    """Tarskian truth of a sentence on each graph; all graphs share one n."""
    n = one_size(graphs, LogicError, "evaluate_batch")

    def leaf(a: int, b: int) -> np.ndarray:
        edge = adjacency_array(graphs[a:b], n).transpose(1, 2, 0)
        return np.ascontiguousarray(edge) if b - a > n else edge  # the longer axis innermost

    return evaluate_lanes(f, n, len(graphs), np.bool_, leaf).tolist()


def evaluate(f: Formula, g: Graph) -> bool:
    """Tarskian truth of a sentence over the universe 0..n-1 of g."""
    return evaluate_batch(f, [g])[0]


# ---------------------------------------------------------------------------
# Sentence constructors.


def _conj(parts: list[Formula]) -> Formula:
    if not parts:
        raise LogicError("empty conjunction")
    return reduce(And, parts)


def extension_axiom(m: int, n: int) -> Formula:
    """The extension axiom with n prescribed vertices, m of them adjacent.

    For all distinct x1..xn there is a z distinct from all of them, adjacent
    to x1..xm and non-adjacent to x(m+1)..xn.
    """
    if n < 1:
        raise LogicError(f"need n >= 1, got n={n}")
    if not 0 <= m <= n:
        raise LogicError(f"need 0 <= m <= n, got m={m}, n={n}")
    xs = [f"x{i}" for i in range(1, n + 1)]
    z = "z"
    body_parts: list[Formula] = [Not(Eq(z, x)) for x in xs]
    body_parts += [Edge(z, xs[i]) for i in range(m)]
    body_parts += [Not(Edge(z, xs[i])) for i in range(m, n)]
    inner: Formula = Exists(z, _conj(body_parts))
    guard = [Not(Eq(xs[i], xs[j])) for i in range(n) for j in range(i + 1, n)]
    if guard:
        inner = Implies(_conj(guard), inner)
    for x in reversed(xs):
        inner = Forall(x, inner)
    return inner


def escape_k(k: int) -> Formula:
    """Robber-escape sentence against k cops.

    For all distinct cop spots x1..xk and robber spot y there is a move
    target z adjacent to y and out of reach of every cop.
    """
    if k < 1:
        raise LogicError(f"need k >= 1, got {k}")
    xs = [f"x{i}" for i in range(1, k + 1)]
    y, z = "y", "z"
    guard_parts = [Not(Eq(xs[i], xs[j])) for i in range(k) for j in range(i + 1, k)]
    guard_parts += [Not(Eq(x, y)) for x in xs]
    cons = [Not(Eq(x, z)) for x in xs]
    cons.append(Not(Eq(y, z)))
    cons += [Not(Edge(x, z)) for x in xs]
    cons.append(Edge(y, z))
    inner: Formula = Exists(z, Implies(_conj(guard_parts), _conj(cons)))
    # Quantifier prefix: all cops, then the robber, then the witness.
    body = inner
    body = Forall(y, body)
    for x in reversed(xs):
        body = Forall(x, body)
    return body


def trap_escape(m: int, t: int) -> Formula:
    """Robber-escape sentence against m cops holding t placed traps."""
    if m < 1 or t < 1:
        raise LogicError(f"need m >= 1 and t >= 1, got m={m}, t={t}")
    xs = [f"x{i}" for i in range(1, m + 1)]
    ts = [f"t{i}" for i in range(1, t + 1)]
    y, z = "y", "z"
    guard: list[Formula] = []
    for x in xs:
        for tv in ts:
            guard += [Not(Eq(x, tv)), Not(Eq(y, x)), Not(Eq(y, tv))]
    guard += [Not(Eq(xs[i], xs[j])) for i in range(m) for j in range(i + 1, m)]
    guard += [Not(Eq(ts[i], ts[j])) for i in range(t) for j in range(i + 1, t)]
    cons: list[Formula] = [Not(Eq(z, x)) for x in xs]
    cons += [Not(Eq(z, tv)) for tv in ts]
    cons.append(Not(Eq(y, z)))
    cons += [Not(Edge(z, x)) for x in xs]
    cons.append(Edge(y, z))
    inner: Formula = Exists(z, Implies(_conj(guard), _conj(cons)))
    body = Forall(y, inner)
    for tv in reversed(ts):
        body = Forall(tv, body)
    for x in reversed(xs):
        body = Forall(x, body)
    return body


def complementary_escape() -> Formula:
    """Escape sentence when the cop moves on the complementary edge set."""
    x, y, z = "x", "y", "z"
    return Forall(x, Forall(y, Exists(z, Implies(Not(Eq(x, y)), And(Edge(y, z), Edge(x, z))))))


def tandem_capture() -> Formula:
    """One-move capture sentence for a tandem cop pair."""
    x1, x2, y, z = "x1", "x2", "y", "z"
    guard = _conj([Not(Eq(x1, x2)), Not(Eq(x1, y)), Not(Eq(x2, y))])
    cons = _conj([Not(Eq(x1, z)), Not(Eq(x2, z)), Not(Eq(y, z)), Edge(x1, z), Edge(y, z)])
    return Forall(x1, Forall(x2, Forall(y, Exists(z, Implies(guard, cons)))))


def isolated_vertices(r: int) -> Formula:
    """Witness sentence naming r isolated vertices.

    No pairwise-distinctness guard is imposed on the witnesses, so the
    sentence is already satisfied once a single isolated vertex exists.
    """
    if r < 1:
        raise LogicError(f"need r >= 1, got {r}")
    xs = [f"x{i}" for i in range(1, r + 1)]
    y = "y"
    body = _conj([Or(Eq(y, x), Not(Edge(y, x))) for x in xs])
    f: Formula = Forall(y, body)
    for x in reversed(xs):
        f = Exists(x, f)
    return f


def empty_graph() -> Formula:
    """The graph has no edges at all."""
    return Forall("x", Forall("y", Not(Edge("x", "y"))))


BUILTIN_NAMES = (
    "escape_k",
    "trap_escape",
    "complementary_escape",
    "tandem_capture",
    "isolated_vertices",
    "empty_graph",
)

_BUILTINS: dict[str, Callable[..., Formula]] = {
    "escape_k": escape_k,
    "trap_escape": trap_escape,
    "complementary_escape": complementary_escape,
    "tandem_capture": tandem_capture,
    "isolated_vertices": isolated_vertices,
    "empty_graph": empty_graph,
}


def builtin(name: str, *params: int) -> Formula:
    """Dispatch to a named winning-condition constructor."""
    if name not in _BUILTINS:
        raise LogicError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name](*params)
