import random

import pytest

from kroutecut import (INF, CutSolution, DemandSet, Flavor, Graph, Instance,
                       induced_subinstance, is_feasible,
                       min_weight_edge_st_cut, min_weight_vertex_st_cut,
                       num_edge_disjoint_paths, num_vertex_disjoint_paths)
from kroutecut.errors import Infeasible, InvalidVertex, NoSeparator
from kroutecut.graph import PathCounter, connectivity

from helpers import (brute_min_edge_cut_cardinality, brute_min_vertex_separator,
                     brute_min_weight_side, cut_weight, random_graph,
                     random_pairs)


K4 = Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)])


def test_graph_rejects_self_loops():
    with pytest.raises(InvalidVertex):
        Graph(2, [(1, 1, 3)])


def test_graph_rejects_out_of_range():
    with pytest.raises(InvalidVertex):
        Graph(2, [(0, 2, 1)])


def test_parallel_edges_keep_ids():
    g = Graph(2, [(0, 1, 5), (0, 1, 7)])
    assert g.weight(0) == 5
    assert g.weight(1) == 7


def test_edge_disjoint_path_examples():
    path = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert num_edge_disjoint_paths(path, 0, 2) == 1
    par = Graph(2, [(0, 1, 1)] * 3)
    assert num_edge_disjoint_paths(par, 0, 1) == 3
    # K4: brute-force minimum cut cardinality is 3
    assert brute_min_edge_cut_cardinality(K4, 0, 1) == 3
    assert num_edge_disjoint_paths(K4, 0, 1) == 3


def test_edge_disjoint_invalid_vertex():
    g = Graph(2, [(0, 1, 1)])
    with pytest.raises(InvalidVertex):
        num_edge_disjoint_paths(g, 0, 5)
    with pytest.raises(InvalidVertex):
        num_edge_disjoint_paths(g, 1, 1)


def test_vertex_disjoint_path_examples():
    path = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert num_vertex_disjoint_paths(path, 0, 2) == 1
    par = Graph(2, [(0, 1, 1), (0, 1, 1)])
    assert num_vertex_disjoint_paths(par, 0, 1) == 2
    assert num_vertex_disjoint_paths(K4, 0, 1) == 3


def test_min_weight_edge_cut_examples():
    path = Graph(3, [(0, 1, 3), (1, 2, 5)])
    value, side = min_weight_edge_st_cut(path, 0, 2)
    assert value == 3
    assert side == frozenset({0})
    unc = Graph(2, [(0, 1, INF)])
    value, _ = min_weight_edge_st_cut(unc, 0, 1)
    assert value == INF
    diamond = Graph(4, [(0, 1, 2), (1, 3, 2), (0, 2, 1), (2, 3, 3)])
    assert brute_min_weight_side(diamond, 0, 3) == 3
    value, _ = min_weight_edge_st_cut(diamond, 0, 3)
    assert value == 3


def test_flows_on_a_long_path():
    # Every augmenting path is the whole path, 10^4 arcs deep.
    n = 10_000
    g = Graph(n, [(i, i + 1, 1 if i == n // 2 else 2) for i in range(n - 1)])
    assert num_edge_disjoint_paths(g, 0, n - 1) == 1
    value, side = min_weight_edge_st_cut(g, 0, n - 1)
    assert (value, side) == (1, frozenset(range(n // 2 + 1)))


def test_min_weight_vertex_cut_examples():
    path = Graph(3, [(0, 1, 1), (1, 2, 1)])
    sep, value = min_weight_vertex_st_cut(path, {1: 5}, 0, 2)
    assert sep == frozenset({1}) and value == 5
    adj = Graph(2, [(0, 1, 1)])
    with pytest.raises(NoSeparator):
        min_weight_vertex_st_cut(adj, {}, 0, 1)
    two = Graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    sep, value = min_weight_vertex_st_cut(two, {1: 1, 2: 4}, 0, 3)
    assert sep == frozenset({1, 2}) and value == 5


def test_is_feasible_examples():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    inst = Instance(g, DemandSet([(0, 2)]), 1, Flavor.EDGE)
    empty = CutSolution.from_edges(g, [], 1)
    assert not is_feasible(inst, empty, 1)
    full = CutSolution.from_edges(g, [0, 1], 1)
    assert is_feasible(inst, full, 1)
    par = Graph(2, [(0, 1, 1), (0, 1, 1)])
    inst2 = Instance(par, DemandSet([(0, 1)]), 2, Flavor.EDGE)
    one = CutSolution.from_edges(par, [0], 2)
    assert is_feasible(inst2, one, 2)


def test_is_feasible_monotone():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, 5, 8)
        inst = Instance(g, DemandSet(random_pairs(rng, 5, 2)), 2, Flavor.EDGE)
        removed = set()
        prev = False
        for e in range(g.edge_count):
            removed.add(e)
            now = is_feasible(inst, CutSolution.from_edges(g, removed, 2), 2)
            assert now or not prev
            prev = now


def test_infinite_edges_not_removable():
    g = Graph(2, [(0, 1, INF)])
    with pytest.raises(Infeasible):
        CutSolution.from_edges(g, [0], 1)


def test_induced_subinstance():
    tri = Graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    inst = Instance(tri, DemandSet([(0, 1), (0, 2)]), 2, Flavor.EDGE)
    sub = induced_subinstance(inst, {0, 1})
    assert sub.instance.graph.edge_count == 1
    assert sub.instance.demands.r == 1
    assert sub.orig_edge == (0,)
    assert sub.orig_pair == (0,)
    whole = induced_subinstance(inst, {0, 1, 2})
    assert whole.instance.graph.edge_count == 3
    empty = induced_subinstance(inst, set())
    assert empty.instance.demands.r == 0


def test_menger_agreement_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(1, 14))
        assert num_edge_disjoint_paths(g, 0, 1) == \
            brute_min_edge_cut_cardinality(g, 0, 1)


def test_vertex_menger_agreement_random():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.randint(1, 9))
        got = num_vertex_disjoint_paths(g, 0, 1)
        sep = brute_min_vertex_separator(g, 0, 1)
        if sep is None:
            # adjacent pair: direct edges each count as one path on top of
            # the count with those edges removed
            direct = [i for i, e in enumerate(g.edges) if {e.u, e.v} == {0, 1}]
            rest = num_vertex_disjoint_paths(g, 0, 1, exclude=frozenset(direct))
            assert got == len(direct) + rest
        else:
            assert got == len(sep)


def test_min_cut_vs_brute_random():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.randint(1, 10), inf_prob=0.15)
        value, side = min_weight_edge_st_cut(g, 0, 1)
        assert value == brute_min_weight_side(g, 0, 1)
        if value < INF:
            assert 0 in side and 1 not in side
            assert cut_weight(g, side) == value


def _networkx_paths(nx, g, s, t, flavor, exclude):
    """Path counts of G - exclude by networkx: edge flavor as a max flow
    with parallel edges summed into capacities, vertex flavor as the direct
    s-t edges plus the node connectivity of the simple graph without them."""
    kept = [e for i, e in enumerate(g.edges) if i not in exclude]
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    if flavor is Flavor.EDGE:
        for e in kept:
            if h.has_edge(e.u, e.v):
                h[e.u][e.v]["capacity"] += 1
            else:
                h.add_edge(e.u, e.v, capacity=1)
        return nx.maximum_flow_value(h, s, t)
    direct = sum(1 for e in kept if {e.u, e.v} == {s, t})
    h.add_edges_from((e.u, e.v) for e in kept if {e.u, e.v} != {s, t})
    return direct + nx.node_connectivity(h, s, t)


def test_path_counter_matches_networkx():
    # One counter per graph and flavor answers every query, so a capacity
    # or an excluded arc left over from an earlier call shows up here.
    nx = pytest.importorskip("networkx")
    rng = random.Random(167)
    for _ in range(120):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.randint(0, 14))
        for flavor in Flavor:
            paths = PathCounter(g, flavor)
            for _ in range(6):
                s, t = random_pairs(rng, n, 1)[0]
                exclude = frozenset(i for i in range(g.edge_count)
                                    if rng.random() < 0.3)
                limit = rng.choice([None, 1, 2, 3])
                want = _networkx_paths(nx, g, s, t, flavor, exclude)
                if limit is not None:
                    want = min(want, limit)
                assert paths.count(s, t, exclude, limit) == want
                assert connectivity(g, s, t, flavor, exclude, limit) == want
                # The flow's edges carry the paths alone.
                used = paths.used_edges()
                assert not used & exclude
                rest = frozenset(range(g.edge_count)) - used
                assert PathCounter(g, flavor).count(
                    s, t, exclude | rest, limit) == want
