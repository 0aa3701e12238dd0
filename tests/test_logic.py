import random
import tracemalloc

import pytest

from pursuitlab import logic as L
from pursuitlab.graphs import Graph, gnp_sample, named
from pursuitlab.logic import (
    And,
    Edge,
    Eq,
    Exists,
    Forall,
    Implies,
    LogicError,
    Not,
    ParseError,
    builtin,
    complementary_escape,
    empty_graph,
    escape_k,
    evaluate,
    evaluate_batch,
    extension_axiom,
    isolated_vertices,
    parse,
    tandem_capture,
    to_text,
    trap_escape,
)

from conftest import all_graphs, eval_reference, graph_from_mask, has_extension_property, pair_list, random_sentence


# ---------------------------------------------------------------------- parse

def test_parse_theorem_two_escape_sentence():
    f = parse("forall x forall y exists z (!(x=y) -> (E(y,z) & !E(x,z)))")
    assert f == Forall("x", Forall("y", Exists("z",
        Implies(Not(Eq("x", "y")), And(Edge("y", "z"), Not(Edge("x", "z")))))))


def test_parse_rejects_free_variables():
    with pytest.raises(ParseError, match="free variables"):
        parse("E(x,y)")


def test_parse_rejects_shadowing():
    with pytest.raises(ParseError, match="already quantified"):
        parse("forall x exists x E(x,x)")


def test_parse_allows_parallel_branch_reuse():
    f = parse("(exists x forall y E(x,y)) & (exists x forall y !E(x,y))")
    assert isinstance(f, And)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse("forall x @")
    assert e.value.position == 9
    with pytest.raises(ParseError):
        parse("forall x E(x,")


def test_precedence_and_associativity():
    f = parse("forall a forall b forall c (!E(a,b) & E(b,c) | E(a,c) -> E(a,a))")
    # ! binds tighter than &, & tighter than |, | tighter than ->
    body = f.body.body.body
    assert isinstance(body, Implies)
    assert isinstance(body.lhs, L.Or)
    assert isinstance(body.lhs.lhs, And)
    assert isinstance(body.lhs.lhs.lhs, Not)
    g = parse("forall a forall b (E(a,b) -> E(b,a) -> a = b)")
    inner = g.body.body
    assert isinstance(inner.rhs, Implies)  # right-associative


def test_print_parse_round_trip_builtins():
    formulas = [
        extension_axiom(0, 1),
        extension_axiom(3, 8),
        escape_k(1),
        escape_k(3),
        trap_escape(1, 1),
        trap_escape(2, 3),
        complementary_escape(),
        tandem_capture(),
        isolated_vertices(2),
        empty_graph(),
    ]
    for f in formulas:
        assert parse(to_text(f)) == f


def test_print_parse_round_trip_random():
    rng = random.Random(4242)
    for _ in range(300):
        f = random_sentence(rng, n_vars=rng.randint(1, 4), depth=rng.randint(1, 4))
        assert parse(to_text(f)) == f


# ------------------------------------------------------------------- evaluate

def test_evaluate_matches_reference_interpreter():
    rng = random.Random(17)
    graphs = list(all_graphs(1)) + list(all_graphs(3))
    graphs += [gnp_sample(rng.randint(4, 6), rng.random(), rng.getrandbits(32)) for _ in range(10)]
    sentences = [random_sentence(rng, n_vars=rng.randint(1, 3), depth=rng.randint(1, 3)) for _ in range(120)]
    sentences += [parse(text) for text in (
        "forall x exists y forall z (E(x,z) | x = z)",  # y is never used
        "exists x forall y exists z E(x,x)",
        "(exists x forall y E(x,y)) & (exists x forall y !E(x,y))",  # x and y reused on two branches
        "(forall x exists y (E(x,y) & !(x = y))) | (exists x forall y (x = y | !E(x,y)))",
        "exists x E(x,x)",
        "forall x (x = x & !E(x,x))",
        "exists x !(x = x)",
        "forall x forall y (E(x,y) -> (exists z (E(z,z) | z = z & E(y,z))))",
    )]
    by_size = {}
    for g in graphs:
        by_size.setdefault(g.n, []).append(g)
    for f in sentences:
        for same_n in by_size.values():
            expected = [eval_reference(f, g) for g in same_n]
            assert [evaluate(f, g) for g in same_n] == expected, to_text(f)
            assert evaluate_batch(f, same_n) == expected, to_text(f)


def test_evaluate_requires_sentence():
    with pytest.raises(LogicError):
        evaluate(Edge("x", "y"), Graph(2))


def test_evaluate_refuses_too_wide_sentence_before_allocating():
    g = gnp_sample(200, 0.5, 0)
    tracemalloc.start()
    try:
        with pytest.raises(LogicError, match="too wide"):
            evaluate(escape_k(3), g)  # its widest node has 200**5 cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_each_sentence_is_planned_once(monkeypatch):
    sentences = [escape_k(1), trap_escape(1, 1), tandem_capture()]
    plan, calls = L._plan, {}

    def counted(f, negated=False):
        calls[f] = calls.get(f, 0) + 1
        return plan(f, negated)

    monkeypatch.setattr(L, "_plan", counted)
    L._sentence_plan.cache_clear()
    graphs = [gnp_sample(n, 0.5, n) for n in (4, 7, 9)]
    expected = [[eval_reference(f, g) for g in graphs] for f in sentences]
    for _ in range(3):
        assert [[evaluate(f, g) for g in graphs] for f in sentences] == expected
        assert [evaluate_batch(f, graphs[1:2] * 2) for f in sentences] == [[e[1]] * 2 for e in expected]
    assert [calls[f] for f in sentences] == [1, 1, 1]


def test_evaluate_batch_needs_one_size():
    assert evaluate_batch(empty_graph(), []) == []
    with pytest.raises(LogicError, match="one size"):
        evaluate_batch(empty_graph(), [Graph(2), Graph(3)])


def test_evaluate_examples():
    escape = parse("forall x forall y exists z (!(x=y) -> (E(y,z) & !E(x,z)))")
    assert evaluate(escape, named("c4")) is False
    common = parse("forall x forall y exists z (E(x,z) & E(z,y))")
    assert evaluate(common, named("petersen")) is False
    assert evaluate(parse("forall x forall y !E(x,y)"), Graph(4)) is True


def test_edge_atom_is_irreflexive():
    assert evaluate(parse("forall x !E(x,x)"), named("complete(4)")) is True


# --------------------------------------------------------- extension axioms

def test_extension_axiom_shape_3_8():
    f = extension_axiom(3, 8)
    universals = 0
    node = f
    while isinstance(node, Forall):
        universals += 1
        node = node.body
    assert universals == 8
    pos = neg = existentials = 0

    def walk(x, neg_depth=0):
        nonlocal pos, neg, existentials
        if isinstance(x, Edge):
            if neg_depth % 2:
                neg += 1
            else:
                pos += 1
        elif isinstance(x, Not):
            walk(x.body, neg_depth + 1)
        elif isinstance(x, (And, L.Or)):
            walk(x.lhs, neg_depth)
            walk(x.rhs, neg_depth)
        elif isinstance(x, Implies):
            walk(x.lhs, neg_depth)
            walk(x.rhs, neg_depth)
        elif isinstance(x, (Forall, Exists)):
            if isinstance(x, Exists):
                existentials += 1
            walk(x.body, neg_depth)

    walk(node)
    assert existentials == 1 and pos == 3 and neg == 5


def test_extension_axiom_0_1():
    f = extension_axiom(0, 1)
    for n in (2, 3, 5):
        assert evaluate(f, Graph(n)) is True
    assert evaluate(f, Graph(1)) is False
    assert evaluate(f, named("complete(4)")) is False


def test_extension_axiom_validation():
    with pytest.raises(LogicError):
        extension_axiom(3, 2)
    with pytest.raises(LogicError):
        extension_axiom(0, 0)


def test_extension_axiom_equivalent_to_escape_1_up_to_n5():
    ea = extension_axiom(1, 2)
    esc = escape_k(1)
    for n in range(1, 5):
        for g in all_graphs(n):
            assert evaluate(ea, g) == evaluate(esc, g)
    for g in all_graphs(5):
        assert evaluate(ea, g) == evaluate(esc, g)


def test_extension_axiom_matches_direct_checker_all_graphs_up_to_6():
    cases = [(m, n) for n in (1, 2, 3) for m in range(n + 1)]
    formulas = {mn: extension_axiom(*mn) for mn in cases}
    pairs = pair_list(6)
    batches = [list(all_graphs(size)) for size in range(1, 6)]
    batches.append([graph_from_mask(6, mask, pairs) for mask in range(1 << 15)])
    for graphs in batches:
        for (m, n), f in formulas.items():
            assert evaluate_batch(f, graphs) == [has_extension_property(g, m, n) for g in graphs], (m, n)


def test_ea_monotonicity_on_six_vertex_graphs():
    # EA_{k,2k} true implies EA_{m,n} true whenever k >= max(m, n-m); k <= 2.
    targets = {
        1: [(m, n) for n in (1, 2) for m in range(n + 1) if max(m, n - m) <= 1],
        2: [(m, n) for n in (1, 2, 3, 4) for m in range(n + 1) if max(m, n - m) <= 2],
    }
    target_formulas = {k: [extension_axiom(m, n) for m, n in v] for k, v in targets.items()}
    strong = {k: extension_axiom(k, 2 * k) for k in (1, 2)}
    pairs = pair_list(6)
    graphs = [graph_from_mask(6, mask, pairs) for mask in range(1 << 15)]
    for k in (1, 2):
        holds = evaluate_batch(strong[k], graphs)
        for f in target_formulas[k]:
            assert all(t for s, t in zip(holds, evaluate_batch(f, graphs)) if s)


# ------------------------------------------------------------------- builtins

def test_isolated_vertices_on_triangle_plus_two():
    g = Graph(5, [(2, 3), (3, 4), (2, 4)])  # vertices 0,1 isolated
    assert evaluate(isolated_vertices(2), g) is True
    assert evaluate(isolated_vertices(2), named("c4")) is False


def test_tandem_capture_on_complete_graph():
    assert evaluate(tandem_capture(), named("complete(4)")) is True


def test_trap_escape_false_on_k33():
    assert evaluate(trap_escape(1, 1), named("k33")) is False


def test_complementary_escape_examples():
    assert evaluate(complementary_escape(), named("complete(2)")) is False
    assert evaluate(complementary_escape(), named("petersen")) is False  # girth 5


def test_builtin_dispatch():
    assert builtin("escape_k", 2) == escape_k(2)
    assert builtin("empty_graph") == empty_graph()
    with pytest.raises(LogicError):
        builtin("nope")
    with pytest.raises(LogicError):
        escape_k(0)
    with pytest.raises(LogicError):
        trap_escape(1, 0)
    with pytest.raises(LogicError):
        isolated_vertices(0)


# ------------------------------------------------------------------ properties

def test_negation_and_de_morgan_extensional():
    rng = random.Random(5)
    graphs = [g for n in (1, 2, 3, 4) for g in all_graphs(n)]
    for _ in range(25):
        f = random_sentence(rng, n_vars=2, depth=2)
        h = random_sentence(rng, n_vars=2, depth=2)
        for g in graphs:
            assert evaluate(Not(f), g) == (not evaluate(f, g))
            assert evaluate(Not(And(f, h)), g) == evaluate(L.Or(Not(f), Not(h)), g)
            assert evaluate(Not(L.Or(f, h)), g) == evaluate(And(Not(f), Not(h)), g)
