import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pursuitlab
from pursuitlab import graphs
from pursuitlab.graphs import (
    Graph,
    GraphError,
    PFamily,
    closed_neighborhood,
    complement,
    components,
    count_tree_components,
    diameter,
    gnp_sample,
    gnpn_sample,
    is_connected,
    named,
    open_neighborhood,
    read_edge_list,
    to_dot,
    write_edge_list,
)

from conftest import all_graphs


def test_gnp_extremes():
    g = gnp_sample(5, 0.0, 123)
    assert g.edge_count() == 0
    g = gnp_sample(5, 1.0, 123)
    assert g.edge_count() == 10
    assert all(g.degree(v) == 4 for v in range(5))


def test_gnp_edge_count_within_four_sigma():
    # C(1000,2) Bernoulli(0.5) trials: mean 249750, sigma = sqrt(499500/4).
    g = gnp_sample(1000, 0.5, 20240517)
    sigma = math.sqrt(499500 * 0.25)
    assert abs(g.edge_count() - 249750) <= 4 * sigma


def test_gnp_determinism():
    a = gnp_sample(50, 0.3, 99)
    b = gnp_sample(50, 0.3, 99)
    assert a == b
    assert gnp_sample(50, 0.3, 100) != a


def test_gnp_rejects_bad_p():
    with pytest.raises(GraphError):
        gnp_sample(5, 1.5, 0)
    with pytest.raises(GraphError):
        gnp_sample(5, -0.1, 0)


def _gnp_pair_loop(n, p, seed):
    """Reference sampler: one random() draw per pair, in lexicographic order."""
    rng = random.Random(seed)
    adj = [0] * n
    if p >= 1.0:
        full = (1 << n) - 1
        adj = [full ^ (1 << v) for v in range(n)]
        return Graph.from_adjacency(adj)
    if p > 0.0:
        rnd = rng.random
        for u in range(n):
            for v in range(u + 1, n):
                if rnd() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
    return Graph.from_adjacency(adj)


def test_gnp_matches_one_random_draw_per_pair():
    # n = 130 has 8385 pairs, more than one bulk draw holds.
    seeds = [0, 1, -5, 2**32 - 1, 2**32, 2**63 + 12345]
    for n in (1, 2, 6, 60, 63, 64, 65, 130):
        for p in (0.0, 2**-53, 1e-6, 0.5, 1 - 2**-53, 1.0):
            for seed in seeds:
                assert gnp_sample(n, p, seed) == _gnp_pair_loop(n, p, seed), (n, p, seed)
    # p equal to a draw, and one float either side of it: random() < p is strict.
    for seed in seeds:
        draw = random.Random(seed).random()
        for p in (math.nextafter(draw, 0.0), draw, math.nextafter(draw, 1.0)):
            assert gnp_sample(2, p, seed).edge_count() == (draw < p)


def test_gnp_sample_does_not_import_numpy_random():
    src = str(Path(pursuitlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, pursuitlab; pursuitlab.gnp_sample(60, 0.5, 1); print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_gnp_refuses_oversized_n_before_allocating():
    tracemalloc.start()
    try:
        for p in (0.0, 0.5, 1.0):
            with pytest.raises(GraphError, match="too large"):
                gnp_sample(2_000_000, p, 0)  # about 12 TB of working arrays
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    largest = math.isqrt(graphs._SAMPLE_BYTES // 3)
    assert gnp_sample(largest, 0.0, 0).n == largest
    with pytest.raises(GraphError, match="too large"):
        gnp_sample(largest + 1, 0.0, 0)


def test_gnpn_sparse_family_mostly_empty():
    fam = PFamily(1, 2.5, 0)
    empty = sum(1 for s in range(100) if gnpn_sample(300, fam, 1800 + s).edge_count() == 0)
    # per-sample P(empty) is about 0.97; this fixed seed block clears 94
    assert empty >= 94


def test_gnpn_alpha0_is_complete():
    g = gnpn_sample(7, PFamily(1, 0, 0), 5)
    assert g.edge_count() == 21


def test_gnpn_isolated_vertices_at_alpha_125():
    fam = PFamily(1, 1.25, 0)
    single = Graph(1)
    hits = 0
    for s in range(100):
        g = gnpn_sample(500, fam, 2500 + s)
        if count_tree_components(g, single) >= 2:
            hits += 1
    assert hits >= 95


def test_pfamily_validation_and_clamp():
    with pytest.raises(GraphError):
        PFamily(0, 1, 0)
    assert PFamily(100, 0, 0).p(10) == 1.0
    assert 0.0 <= PFamily(1, 3.0, 2.0).p(2) <= 1.0


def test_named_petersen():
    g = named("petersen")
    assert g.n == 10 and g.edge_count() == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert is_connected(g) and diameter(g) == 2


def test_named_small_graphs():
    c4 = named("c4")
    assert c4.n == 4 and c4.edge_count() == 4 and all(c4.degree(v) == 2 for v in range(4))
    k33 = named("k33")
    assert k33.n == 6 and k33.edge_count() == 9
    assert not any(k33.has_edge(u, v) for u in range(3) for v in range(3) if u != v)
    assert not any(k33.has_edge(u, v) for u in range(3, 6) for v in range(3, 6) if u != v)
    d4 = named("d4")
    assert sorted(d4.degree(v) for v in range(4)) == [2, 2, 3, 3]
    assert named("cycle(7)").edge_count() == 7
    assert named("path(1)").n == 1
    assert named("complete(5)").edge_count() == 10


def test_named_unknown():
    with pytest.raises(GraphError):
        named("grid(3)")


def test_complement_examples():
    assert complement(named("complete(5)")).edge_count() == 0
    c4 = named("c4")
    assert complement(c4).edges() == [(0, 2), (1, 3)]
    rng = random.Random(1)
    for _ in range(20):
        g = gnp_sample(rng.randint(1, 12), rng.random(), rng.getrandbits(32))
        assert complement(complement(g)) == g


def test_neighborhoods():
    c4 = named("c4")
    assert open_neighborhood(c4, 0) == {1, 3}
    assert closed_neighborhood(c4, 0) == {0, 1, 3}
    g = Graph(4)
    assert open_neighborhood(g, 2) == set()
    assert closed_neighborhood(g, 2) == {2}
    k5 = named("complete(5)")
    assert open_neighborhood(k5, 2) == {0, 1, 3, 4}
    with pytest.raises(GraphError):
        open_neighborhood(c4, 4)


def test_neighborhood_membership_property():
    rng = random.Random(3)
    for _ in range(25):
        g = gnp_sample(rng.randint(1, 10), rng.random(), rng.getrandbits(32))
        for v in range(g.n):
            assert v not in open_neighborhood(g, v)
            assert v in closed_neighborhood(g, v)


def test_components_and_diameter():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert components(two_edges) == [[0, 1], [2, 3]]
    assert diameter(two_edges) == math.inf
    assert not is_connected(two_edges)
    assert diameter(named("p4")) == 3
    assert diameter(Graph(1)) == 0
    rng = random.Random(8)
    for _ in range(30):
        g = gnp_sample(rng.randint(1, 12), rng.choice([0.1, 0.4, 0.8]), rng.getrandbits(32))
        comps = components(g)
        assert sum(len(c) for c in comps) == g.n
        assert (diameter(g) != math.inf) == is_connected(g)


def test_count_tree_components():
    g = Graph(5, [(3, 4)])  # 3 isolated vertices plus one edge
    assert count_tree_components(g, Graph(1)) == 3
    two_p3 = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert count_tree_components(two_p3, named("path(3)")) == 2
    assert count_tree_components(named("c4"), Graph(1)) == 0
    with pytest.raises(GraphError):
        count_tree_components(g, Graph(9, [(i, i + 1) for i in range(8)]))
    with pytest.raises(GraphError):
        count_tree_components(g, Graph(3, [(0, 1)]))  # disconnected pattern


def test_edge_list_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        g = gnp_sample(rng.randint(1, 15), rng.random(), rng.getrandbits(32))
        assert read_edge_list(write_edge_list(g)) == g
    text = write_edge_list(named("c4"))
    assert text.splitlines()[0] == "n 4"
    assert text.splitlines()[1] == "0 1"


def test_edge_list_rejects_malformed():
    with pytest.raises(GraphError):
        read_edge_list("4\n0 1\n")
    with pytest.raises(GraphError):
        read_edge_list("n 4\n1 0\n")  # u >= v
    with pytest.raises(GraphError):
        read_edge_list("n 4\n0 2\n0 1\n")  # unsorted
    with pytest.raises(GraphError, match="bad edge line '0 x'"):
        read_edge_list("n 4\n0 x\n")


def test_edge_list_refuses_oversized_n_before_allocating(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="too large"):
            read_edge_list("n 1000000000\n0 1\n")  # an 8 GB adjacency list
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(graphs, "_SAMPLE_BYTES", 800)  # the boundary at a cheap size
    assert read_edge_list("n 100\n0 1\n").n == 100
    with pytest.raises(GraphError, match="too large"):
        read_edge_list("n 101\n")


def test_edges_match_a_pairwise_scan():
    def scan(g):
        return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]

    # Rows of 63..65 and 130 vertices end on either side of a 64-bit word.
    for n in (1, 2, 63, 64, 65, 130):
        gs = [gnp_sample(n, p, seed) for p in (0.05, 0.5) for seed in range(3)]
        for g in gs + [Graph(n), named(f"complete({n})")]:
            assert g.edges() == scan(g), g


def test_dot_export():
    dot = to_dot(Graph(3, [(0, 1)]))
    assert "0 -- 1;" in dot and "2;" in dot


def test_graph_construction_errors():
    with pytest.raises(GraphError):
        Graph(0)
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])


def test_edge_count_distribution_chi_square():
    # 10000 seeds at n=6, p=0.5 against Binomial(15, 1/2), significance 0.001.
    from scipy import stats

    n, trials = 6, 10000
    counts = [0] * 16
    for s in range(trials):
        counts[gnp_sample(n, 0.5, 60000 + s).edge_count()] += 1
    expected = [trials * stats.binom.pmf(k, 15, 0.5) for k in range(16)]
    # merge sparse tails so every expected bin has mass >= 5
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    exp = [e * sum(obs) / sum(exp) for e in exp]
    _, pvalue = stats.chisquare(obs, exp)
    assert pvalue > 0.001


def test_all_graphs_helper_enumerates_labeled_graphs():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert len({g for g in all_graphs(3)}) == 8
