"""Shared test helpers: exhaustive graph enumeration, a naive reference
interpreter for sentences (independent of the array evaluator in
pursuitlab.logic), and a random sentence generator for round-trip checks."""

import random

from pursuitlab import logic as L
from pursuitlab.graphs import Graph


def pair_list(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n, mask, pairs=None):
    pairs = pairs or pair_list(n)
    adj = [0] * n
    for i, (u, v) in enumerate(pairs):
        if (mask >> i) & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph.from_adjacency(adj)


def all_graphs(n):
    pairs = pair_list(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_mask(n, mask, pairs)


def eval_reference(f, g, env=None):
    """Direct recursive Tarskian evaluation; the oracle for the array evaluator."""
    env = env or {}
    if isinstance(f, L.Edge):
        return g.has_edge(env[f.a], env[f.b])
    if isinstance(f, L.Eq):
        return env[f.a] == env[f.b]
    if isinstance(f, L.Not):
        return not eval_reference(f.body, g, env)
    if isinstance(f, L.And):
        return eval_reference(f.lhs, g, env) and eval_reference(f.rhs, g, env)
    if isinstance(f, L.Or):
        return eval_reference(f.lhs, g, env) or eval_reference(f.rhs, g, env)
    if isinstance(f, L.Implies):
        return (not eval_reference(f.lhs, g, env)) or eval_reference(f.rhs, g, env)
    if isinstance(f, L.Forall):
        return all(eval_reference(f.body, g, {**env, f.var: v}) for v in range(g.n))
    if isinstance(f, L.Exists):
        return any(eval_reference(f.body, g, {**env, f.var: v}) for v in range(g.n))
    raise TypeError(f)


def has_extension_property(g, m, n):
    """Direct combinatorial EA check: loop over distinct tuples and scan for a
    witness with the required adjacency pattern.  Independent of the AST."""
    from itertools import permutations

    for tup in permutations(range(g.n), n):
        found = False
        for z in range(g.n):
            if z in tup:
                continue
            if all(g.has_edge(z, tup[i]) for i in range(m)) and not any(
                g.has_edge(z, tup[i]) for i in range(m, n)
            ):
                found = True
                break
        if not found:
            return False
    return True


def random_sentence(rng: random.Random, n_vars=3, depth=3):
    names = [f"v{i}" for i in range(n_vars)]

    def rand_body(d):
        if d == 0 or rng.random() < 0.3:
            a, b = rng.choice(names), rng.choice(names)
            return L.Edge(a, b) if rng.random() < 0.7 else L.Eq(a, b)
        roll = rng.random()
        if roll < 0.25:
            return L.Not(rand_body(d - 1))
        lhs, rhs = rand_body(d - 1), rand_body(d - 1)
        if roll < 0.5:
            return L.And(lhs, rhs)
        if roll < 0.75:
            return L.Or(lhs, rhs)
        return L.Implies(lhs, rhs)

    f = rand_body(depth)
    for v in reversed(names):
        f = (L.Forall if rng.random() < 0.5 else L.Exists)(v, f)
    return f
