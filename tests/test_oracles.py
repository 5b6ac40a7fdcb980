import itertools
import math
import random
from fractions import Fraction

import pytest

from kroutecut import (INF, DemandSet, Flavor, Graph, OracleConfig,
                       gomory_hu, k_route_sparsest_cut,
                       k_route_sparsest_cut_bicriteria, l_multicut,
                       laminar_min_cut_family, min_weight_edge_st_cut,
                       num_edge_disjoint_paths, sparsest_cut,
                       vertex_k_route_sparsest_cut)
from kroutecut import oracles
from kroutecut.errors import (ExactCapExceeded, FreeSetBlowup, Infeasible,
                              KrcError, NoCandidateCut, SeparatorBlowup)
from kroutecut.exact import brute_force_sparsest
from kroutecut.graph import wsum
from kroutecut.oracles import CutKind, _mask_tables, _scan_masks

from helpers import cut_weight, random_graph, random_instance, random_pairs

EXACT = OracleConfig()
SWEEP = OracleConfig(mode="sweep", seed=7)
# Vertex counts on both sides of SWEEP_EXACT_MAX: sweep mode scans exactly
# up to it and coarsens above it.
SMALL_N, LARGE_N = (2, 7), (11, 12)


def assert_cut_fields(g, d, cut, waive=0):
    """The cut's free edges, residual and denominator, recomputed from G and
    D: the free edges are the first `waive` cut edges by (-w, id)."""
    outside = frozenset(range(g.vertex_count)) - cut.side - cut.separator
    assert cut.side and outside
    crossing = {i for i, e in enumerate(g.edges)
                if (e.u in cut.side and e.v in outside)
                or (e.v in cut.side and e.u in outside)}
    ranked = sorted(crossing, key=lambda i: (-g.weight(i), i))
    assert cut.free_edges == frozenset(ranked[:waive])
    assert cut.residual_weight == wsum(
        g.weight(i) for i in crossing - cut.free_edges)
    if cut.kind is CutKind.UNIFORM:
        den = min(d.count_in(cut.side), d.count_in(outside))
    else:
        den = sum(1 for s, t in d.pairs
                  if s not in cut.separator and t not in cut.separator
                  and (s in cut.side) != (t in cut.side))
    assert den == cut.denominator > 0
    assert cut.sparsity == Fraction(cut.residual_weight, den)


def test_gomory_hu_two_vertices():
    tree = gomory_hu(Graph(2, [(0, 1, 7)]))
    assert len(tree.tree_edges) == 1
    assert tree.min_cut_value(0, 1) == 7


def test_gomory_hu_path():
    g = Graph(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2)])
    tree = gomory_hu(g)
    assert tree.min_cut_value(0, 3) == 1


def test_gomory_hu_tree_input_matches_all_pairs():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 7)
        edges = [(i, rng.randrange(i), rng.randint(1, 9))
                 for i in range(1, n)]
        g = Graph(n, edges)
        tree = gomory_hu(g)
        for u, v in itertools.combinations(range(n), 2):
            assert tree.min_cut_value(u, v) == min_weight_edge_st_cut(g, u, v)[0]


def test_gomory_hu_flow_and_cut_property():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(0, 14), inf_prob=0.1)
        tree = gomory_hu(g)
        assert len(tree.tree_edges) == n - 1
        for u, v in itertools.combinations(range(n), 2):
            assert tree.min_cut_value(u, v) == \
                min_weight_edge_st_cut(g, u, v)[0]
        for ei, (a, b, cap, _) in enumerate(tree.tree_edges):
            side = tree.bipartition(ei)
            assert (a in side) != (b in side)
            assert cut_weight(g, side) == cap
            assert cap == min_weight_edge_st_cut(g, a, b)[0]


def test_gomory_hu_matches_networkx():
    # An independent max-flow: networkx on the simple graph whose edge
    # capacities are the sums of each vertex pair's parallel edges.
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.randint(0, 20), wmin=0, wmax=9,
                         inf_prob=0.05)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        for u, v, w in g.edges:
            old = h.get_edge_data(u, v, {"capacity": 0})["capacity"]
            h.add_edge(u, v, capacity=old + w)
        tree = gomory_hu(g)
        for u, v in itertools.combinations(range(n), 2):
            assert tree.min_cut_value(u, v) == \
                min(nx.minimum_cut_value(h, u, v), INF)


def test_laminar_single_pair():
    g = Graph(3, [(0, 1, 2), (1, 2, 3)])
    fam = laminar_min_cut_family(g, DemandSet([(0, 2)]))
    assert len(fam.sets) == 1
    assert DemandSet([(0, 2)]).count_in(fam.sets[0]) <= 1


def test_laminar_disconnected_pair_is_component():
    g = Graph(4, [(0, 1, 5), (2, 3, 5)])
    fam = laminar_min_cut_family(g, DemandSet([(0, 2)]))
    assert fam.sets[0] in (frozenset({0, 1}), frozenset({2, 3}))
    assert cut_weight(g, fam.sets[0]) == 0


def test_laminar_star():
    g = Graph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)])
    fam = laminar_min_cut_family(g, DemandSet([(1, 2), (3, 4)]))
    for s in fam.sets:
        assert len(s) == 1
    a, b = fam.sets
    assert not (a & b)


def test_laminar_invariants_random():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(1, 14), inf_prob=0.05)
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 5)))
        fam = laminar_min_cut_family(g, d)
        for i, (s, t) in enumerate(d.pairs):
            side = fam.sets[i]
            assert (s in side) != (t in side)
            assert cut_weight(g, side) == min_weight_edge_st_cut(g, s, t)[0]
            assert d.count_in(side) <= d.r
        for a, b in itertools.combinations(fam.sets, 2):
            assert not (a & b) or a <= b or b <= a


def test_sparsest_cut_path():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    d = DemandSet([(0, 2)])
    cut = sparsest_cut(g, d, CutKind.UNIFORM, EXACT)
    assert cut.sparsity == 1


def test_sparsest_cut_zero_bridge():
    g = Graph(4, [(0, 1, 3), (1, 2, 0), (2, 3, 3)])
    d = DemandSet([(0, 3)])
    cut = sparsest_cut(g, d, CutKind.NONUNIFORM, EXACT)
    assert cut.sparsity == 0


def test_sparsest_cut_kinds_agree_single_pair():
    rng = random.Random(21)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 8))
        d = DemandSet(random_pairs(rng, g.vertex_count, 1))
        a = sparsest_cut(g, d, CutKind.UNIFORM, EXACT)
        b = sparsest_cut(g, d, CutKind.NONUNIFORM, EXACT)
        assert a.sparsity == b.sparsity


def test_sparsest_cut_exact_cap(monkeypatch):
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    monkeypatch.setattr(OracleConfig, "exact_vertex_cap", 2)
    with pytest.raises(ExactCapExceeded):
        sparsest_cut(g, DemandSet([(0, 2)]), CutKind.UNIFORM, EXACT)


def test_sweep_never_beats_exact():
    rng = random.Random(33)
    for n_range in [SMALL_N] * 40 + [LARGE_N] * 12:
        g = random_graph(rng, rng.randint(*n_range), rng.randint(1, 12))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            ex = sparsest_cut(g, d, kind, EXACT)
            sw = sparsest_cut(g, d, kind, SWEEP)
            assert sw.sparsity >= ex.sparsity
            assert_cut_fields(g, d, sw)


def test_k_route_equals_plain_for_k1():
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 8))
        d = DemandSet(random_pairs(rng, g.vertex_count, 2))
        plain = sparsest_cut(g, d, CutKind.NONUNIFORM, EXACT)
        route = k_route_sparsest_cut(g, d, 1, CutKind.NONUNIFORM, EXACT)
        assert route.sparsity == plain.sparsity
        assert route.free_edges == frozenset()


def test_k_route_triangle():
    g = Graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    cut = k_route_sparsest_cut(g, DemandSet([(0, 1)]), 2,
                               CutKind.NONUNIFORM, EXACT)
    assert cut.sparsity == 1
    assert len(cut.free_edges) == 1


def test_k_route_parallel_weights():
    g = Graph(2, [(0, 1, 5), (0, 1, 1)])
    cut = k_route_sparsest_cut(g, DemandSet([(0, 1)]), 2,
                               CutKind.NONUNIFORM, EXACT)
    assert cut.residual_weight == 1
    assert cut.free_edges == frozenset({0})
    assert cut.sparsity == 1


def test_k_route_matches_brute_force():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 9),
                         inf_prob=0.1)
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        k = rng.randint(1, 3)
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            got = k_route_sparsest_cut(g, d, k, kind, EXACT)
            want = brute_force_sparsest(g, d, k, Flavor.EDGE, kind)
            assert got.sparsity == want.sparsity
            if got.side == want.side:  # one free-set rule in both
                assert got.free_edges == want.free_edges


def test_free_set_budget(monkeypatch):
    g = Graph(4, [(0, 1, 1)] * 8)
    monkeypatch.setattr(OracleConfig, "free_set_budget", 3)
    with pytest.raises(FreeSetBlowup):
        k_route_sparsest_cut(g, DemandSet([(0, 1)]), 3, CutKind.NONUNIFORM,
                             EXACT)


def test_multicut_trivial_and_star():
    star = Graph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)])
    d = DemandSet([(1, 2), (3, 4)])
    assert l_multicut(star, d, 0, EXACT) == frozenset()
    one = l_multicut(star, d, 1, EXACT)
    assert sum(star.weight(e) for e in one) == 1
    two = l_multicut(star, d, 2, EXACT)
    assert sum(star.weight(e) for e in two) == 2


def test_multicut_exact_matches_enumeration():
    rng = random.Random(37)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 5), rng.randint(1, 7))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        for ell in range(d.r + 1):
            got = l_multicut(g, d, ell, EXACT)
            best = None
            for size in range(g.edge_count + 1):
                for sub in itertools.combinations(range(g.edge_count), size):
                    from kroutecut import num_edge_disjoint_paths
                    sep = sum(1 for s, t in d.pairs
                              if num_edge_disjoint_paths(
                                  g, s, t, exclude=frozenset(sub), limit=1) == 0)
                    if sep >= ell:
                        w = sum(g.weight(e) for e in sub)
                        if best is None or w < best:
                            best = w
            assert sum(g.weight(e) for e in got) == best


def test_multicut_infeasible():
    g = Graph(2, [(0, 1, INF)])
    with pytest.raises(Infeasible):
        l_multicut(g, DemandSet([(0, 1)]), 1, EXACT)


def test_greedy_multicut_separates():
    rng = random.Random(41)
    greedy = OracleConfig(mode="sweep", seed=1)
    from kroutecut import num_edge_disjoint_paths
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 9))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        for ell in range(d.r + 1):
            cut = l_multicut(g, d, ell, greedy)
            sep = sum(1 for s, t in d.pairs
                      if num_edge_disjoint_paths(
                          g, s, t, exclude=cut, limit=1) == 0)
            assert sep >= ell


def _separated_by_flows(g, d, removed):
    return sum(1 for s, t in d.pairs
               if num_edge_disjoint_paths(g, s, t, exclude=frozenset(removed),
                                          limit=1) == 0)


def _greedy_multicut_reference(g, d, ell):
    """The greedy multicut on per-call path counts; returns (set, rounds)."""
    removed = set()
    rounds = 0
    while _separated_by_flows(g, d, removed) < ell:
        rounds += 1
        best = None
        for i, (s, t) in enumerate(d.pairs):
            if num_edge_disjoint_paths(g, s, t, exclude=frozenset(removed),
                                       limit=1) == 0:
                continue
            value, side = min_weight_edge_st_cut(g, s, t,
                                                 exclude=frozenset(removed))
            if value >= INF:
                continue
            if best is None or value < best[0]:
                best = (value, i, g.cut_edges(side, exclude=frozenset(removed)))
        if best is None:
            raise Infeasible("cannot separate")
        removed.update(best[2])
    return frozenset(removed), rounds


def _exact_multicut_reference(g, d, ell):
    """The plain branch and bound: every node, a leave-in branch included,
    counts separated pairs afresh. Returns (set, greedy rounds, nodes that
    took an edge)."""
    finite = sorted((i for i, e in enumerate(g.edges) if e.w < INF),
                    key=lambda i: (-g.edges[i].w, i))
    if _separated_by_flows(g, d, finite) < ell:
        raise Infeasible("cannot separate")
    seed, rounds = _greedy_multicut_reference(g, d, ell)
    best = [sum(g.edges[i].w for i in seed), tuple(sorted(seed))]
    takes = 0

    def dfs(idx, removed, cost):
        nonlocal takes
        if cost > best[0]:
            return
        if _separated_by_flows(g, d, removed) >= ell:
            key = (cost, tuple(sorted(removed)))
            if key < tuple(best):
                best[:] = key
            return
        if idx == len(finite):
            return
        e = finite[idx]
        w = g.edges[e].w
        if cost + w <= best[0]:
            takes += 1
            removed.append(e)
            dfs(idx + 1, removed, cost + w)
            removed.pop()
        dfs(idx + 1, removed, cost)

    dfs(0, [], 0)
    return frozenset(best[1]), rounds, takes


def test_multicut_matches_plain_search(monkeypatch):
    # Same sets, not only the same weights, for every ell in 0..r: zero
    # weights and parallel edges make ties, INF edges make pairs uncuttable.
    labellings = [0]
    plain = oracles._labels

    def counted(*args):
        labellings[0] += 1
        return plain(*args)

    monkeypatch.setattr(oracles, "_labels", counted)
    greedy = OracleConfig(mode="sweep", seed=1)

    def check(g, d, ell):
        """The exact search's labellings when ell pairs can be cut, else
        None; the greedy search matches its reference too."""
        try:
            want, rounds, takes = _exact_multicut_reference(g, d, ell)
        except Infeasible:
            for cfg in (EXACT, greedy):
                with pytest.raises(Infeasible):
                    l_multicut(g, d, ell, cfg)
            return None
        labellings[0] = 0
        assert l_multicut(g, d, ell, EXACT) == want
        # One labelling for the check, one per greedy round and one at
        # the end of the greedy search, one at the root, and at most
        # one at each node that takes an edge.
        spent = labellings[0]
        assert spent <= rounds + takes + 3
        assert l_multicut(g, d, ell, greedy) == \
            _greedy_multicut_reference(g, d, ell)[0]
        return spent

    rng = random.Random(163)
    solved = []
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 10), wmin=0,
                         wmax=4, inf_prob=0.1)
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        for ell in range(d.r + 1):
            spent = check(g, d, ell)
            if spent is not None:
                solved.append(spent)
    assert len(solved) > 1000
    # The witness bound: the same search without it spends 60 877
    # labellings.
    assert sum(solved) <= 17_135
    # The bound's edge cases, for every ell up to r: pair (0,2) has only INF
    # edges past its heaviest, first-ordered edge, and pairs joined by a
    # direct edge, one of them uncuttable.
    for g, pairs in [
            (Graph(5, [(0, 1, 5), (1, 2, INF), (0, 3, 1), (3, 2, INF),
                       (3, 4, 1)]), [(0, 2), (3, 4), (1, 4)]),
            (Graph(4, [(0, 1, 3), (1, 2, INF), (2, 3, INF), (0, 3, 0)]),
             [(0, 2), (1, 3), (0, 3)]),
            (Graph(3, [(0, 1, 0), (0, 1, 2), (1, 2, 1), (0, 2, INF)]),
             [(0, 1), (1, 2), (0, 2)])]:
        d = DemandSet(pairs)
        for ell in range(d.r + 1):
            check(g, d, ell)


def test_bicriteria_clipping_rule():
    # weight 10 clipped at threshold 4 with k=3 means an effective 2
    assert min(Fraction(10), Fraction(4, 3 - 1)) == 2


def test_bicriteria_free_set_bound_exact_backend():
    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(2, 8))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        k = 2
        cut = k_route_sparsest_cut_bicriteria(g, d, k, EXACT)
        assert len(cut.free_edges) <= 2 * (k - 1)
        cut_ids = set(g.cut_edges(cut.side))
        assert cut.free_edges <= cut_ids
        assert wsum(g.weight(e) for e in cut_ids - cut.free_edges) == \
            cut.residual_weight
        den = sum(1 for s, t in d.pairs if (s in cut.side) != (t in cut.side))
        assert den == cut.denominator > 0


def test_bicriteria_zero_weight_free_separation():
    g = Graph(2, [(0, 1, 0), (0, 1, 5)])
    cut = k_route_sparsest_cut_bicriteria(g, DemandSet([(0, 1)]), 2, EXACT)
    assert cut.sparsity == 0


def test_bicriteria_not_below_exact_own_route_count():
    rng = random.Random(47)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 6), rng.randint(2, 8))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        cut = k_route_sparsest_cut_bicriteria(g, d, rng.randint(2, 3), EXACT)
        k_prime = len(cut.free_edges) + 1
        exact_cut = brute_force_sparsest(g, d, k_prime, Flavor.EDGE,
                                         CutKind.NONUNIFORM)
        assert cut.sparsity >= exact_cut.sparsity


def test_vertex_k_route_examples():
    path = Graph(3, [(0, 1, 1), (1, 2, 1)])
    cut = vertex_k_route_sparsest_cut(path, DemandSet([(0, 2)]), 2,
                                      CutKind.NONUNIFORM, EXACT)
    assert cut.sparsity == 0
    assert cut.separator == frozenset({1})

    k4 = Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1),
                   (2, 3, 1)])
    cut = vertex_k_route_sparsest_cut(k4, DemandSet([(0, 1)]), 2,
                                      CutKind.NONUNIFORM, EXACT)
    assert cut.sparsity == 2


def test_vertex_k1_equals_edge_sparsest():
    # At k = 1 the vertex cut has no separator and the k-route cut no free
    # edge, so all three oracles return the same route cut, field for field,
    # in both modes and on both sides of SWEEP_EXACT_MAX.
    rng = random.Random(53)
    for n_range, m_max in [((2, 6), 8)] * 15 + [(LARGE_N, 24), ((13, 16), 40)] * 3:
        g = random_graph(rng, rng.randint(*n_range), rng.randint(1, m_max))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        for kind in CutKind:
            for cfg in (EXACT, SWEEP):
                e = sparsest_cut(g, d, kind, cfg)
                assert vertex_k_route_sparsest_cut(g, d, 1, kind, cfg) == e
                assert k_route_sparsest_cut(g, d, 1, kind, cfg) == e
                assert e.separator == e.free_edges == frozenset()


def test_vertex_k_route_matches_brute_force():
    rng = random.Random(59)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 8),
                         inf_prob=0.05)
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        k = rng.randint(1, 3)
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            got = vertex_k_route_sparsest_cut(g, d, k, kind, EXACT)
            want = brute_force_sparsest(g, d, k, Flavor.VERTEX, kind)
            assert got.sparsity == want.sparsity


def test_sweep_vertex_oracle_valid_fields():
    rng = random.Random(61)
    for n_range in [(3, 7)] * 15 + [LARGE_N] * 6:
        g = random_graph(rng, rng.randint(*n_range), rng.randint(2, 10))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        cut = vertex_k_route_sparsest_cut(g, d, 2, CutKind.NONUNIFORM, SWEEP)
        assert len(cut.separator) <= 1
        assert_cut_fields(g, d, cut)


def test_oracle_determinism():
    rng = random.Random(67)
    for n in (7, 12):
        g = random_graph(rng, n, 2 * n)
        d = DemandSet(random_pairs(rng, n, 3))
        for oracle, args in (
                (sparsest_cut, (g, d, CutKind.NONUNIFORM)),
                (k_route_sparsest_cut, (g, d, 2, CutKind.NONUNIFORM)),
                (vertex_k_route_sparsest_cut, (g, d, 2, CutKind.NONUNIFORM))):
            a = oracle(*args, SWEEP)
            b = oracle(*args, OracleConfig(mode="sweep", seed=7))
            assert a == b


def test_separator_budget(monkeypatch):
    g = Graph(8, [(0, 1, 1)])
    monkeypatch.setattr(OracleConfig, "separator_budget", 4)
    with pytest.raises(SeparatorBlowup):
        vertex_k_route_sparsest_cut(g, DemandSet([(0, 1)]), 3,
                                    CutKind.NONUNIFORM, EXACT)
    # At n = 12, k = 3 there are 1 + 12 + 66 = 79 separators of size below
    # k. Exact mode enumerates them all and refuses; sweep mode tries only
    # subsets of its pool, so the budget does not apply to it.
    g = Graph(12, [(v, (v + 1) % 12, 1) for v in range(12)])
    d = DemandSet([(0, 6)])
    monkeypatch.setattr(OracleConfig, "separator_budget", 50)
    with pytest.raises(SeparatorBlowup):
        vertex_k_route_sparsest_cut(g, d, 3, CutKind.NONUNIFORM, EXACT)
    cut = vertex_k_route_sparsest_cut(g, d, 3, CutKind.NONUNIFORM,
                                      OracleConfig(mode="sweep"))
    assert_cut_fields(g, d, cut)


def test_k_route_residual_recomputes():
    rng = random.Random(139)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 9))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        k = rng.randint(1, 3)
        for cfg in (EXACT, SWEEP):
            cut = k_route_sparsest_cut(g, d, k, CutKind.NONUNIFORM, cfg)
            assert_cut_fields(g, d, cut, k - 1)


def test_sweep_vertex_oracle_uniform_kind_fields():
    rng = random.Random(149)
    for n_range in [(3, 7)] * 10 + [LARGE_N] * 6:
        g = random_graph(rng, rng.randint(*n_range), rng.randint(2, 10))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        cut = vertex_k_route_sparsest_cut(g, d, 2, CutKind.UNIFORM, SWEEP)
        assert len(cut.separator) <= 1
        assert_cut_fields(g, d, cut)


def _naive_tables(n, edges, d_of, pairs):
    """Cut and denominator tables built one subset and one edge at a time."""
    fin, infc, d_in, cross = [], [], [], []
    for mask in range(1 << n):
        cut = [w for u, v, w in edges if ((mask >> u) ^ (mask >> v)) & 1]
        fin.append(sum(w for w in cut if w < INF))
        infc.append(sum(1 for w in cut if w >= INF))
        d_in.append(sum(d_of[v] for v in range(n) if (mask >> v) & 1))
        cross.append(sum(1 for s, t in pairs
                         if ((mask >> s) ^ (mask >> t)) & 1))
    return fin, infc, d_in, cross


def _k_route_by_free_sets(g, d, k, kind):
    """Exact k-route sparsest cut the long way: every side in mask order,
    each with every free set of size k-1, strict improvement only, so ties
    go to the first mask. Among equal sparsities a residual across no INF
    edge improves on one across an INF edge. Returns (side, residual,
    denominator)."""
    n = g.vertex_count
    fin, infc, d_in, cross = _naive_tables(
        n, g.edges, [d.per_vertex.get(v, 0) for v in range(n)], d.pairs)
    best = None  # (num, den, mask, INF edges left)
    for mask in range(1, (1 << n) - 1):
        if kind is CutKind.UNIFORM:
            den = min(d_in[mask], 2 * d.r - d_in[mask])
        else:
            den = cross[mask]
        if den == 0:
            continue
        for free in itertools.combinations(range(g.edge_count),
                                           min(k - 1, g.edge_count)):
            f, ic = fin[mask], infc[mask]
            for u, v, w in (g.edges[i] for i in free):
                if ((mask >> u) ^ (mask >> v)) & 1:
                    if w >= INF:
                        ic -= 1
                    else:
                        f -= w
            num = INF if ic > 0 else min(f, INF)
            if best is None or ((num * best[1], ic > 0)
                                < (best[0] * den, best[3] > 0)):
                best = (num, den, mask, ic)
    if best is None:
        return None
    num, den, mask, _ = best
    return frozenset(v for v in range(n) if (mask >> v) & 1), num, den


def test_cut_tables_match_naive():
    rng = random.Random(151)
    cases = [(Graph(1), DemandSet([])), (Graph(2), DemandSet([])),
             (Graph(2, [(0, 1, 3), (1, 0, INF), (0, 1, 0)]),
              DemandSet([(0, 1)])),
             (Graph(3, [(0, 1, 2**62), (1, 2, 2**62), (0, 2, INF)]),
              DemandSet([(0, 2)]))]
    for _ in range(60):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.randint(0, 12), wmin=0, inf_prob=0.2)
        cases.append((g, DemandSet(random_pairs(rng, n, rng.randint(1, 4)))))
    for g, d in cases:
        n = g.vertex_count
        d_of = [d.per_vertex.get(v, 0) for v in range(n)]
        fin, infc, d_in, cross = _naive_tables(n, g.edges, d_of, d.pairs)
        big = g.total_finite_weight() + 1
        assert _mask_tables(g, d) == \
            (big, [f + big * i for f, i in zip(fin, infc)], d_in, cross)


def test_k_route_exact_matches_free_set_loop():
    rng = random.Random(157)
    weights = (0, 1, 2, 3, 4, 2**62 - 1, 2**62, INF)
    for _ in range(1000):
        n = rng.randint(2, 5)
        g = Graph(n, [(*rng.sample(range(n), 2), rng.choice(weights))
                      for _ in range(rng.randint(0, 6))])
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 3)))
        k = rng.randint(1, 5)
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            want = _k_route_by_free_sets(g, d, k, kind)
            if want is None:
                with pytest.raises(NoCandidateCut):
                    k_route_sparsest_cut(g, d, k, kind, EXACT)
                continue
            got = k_route_sparsest_cut(g, d, k, kind, EXACT)
            assert (got.side, got.residual_weight, got.denominator) == want
            assert_cut_fields(g, d, got, k - 1)


def _vertex_by_separators(g, d, k, kind, cfg):
    """Exact vertex k-route sparsest cut the long way: for each separator D,
    G - D relabelled and its naive tables, one scan with strict improvement
    only, and strict improvement across separators. Within one separator,
    among equal sparsities a side across no INF edge improves on one across
    an INF edge."""
    n = g.vertex_count
    if n > cfg.exact_vertex_cap:
        raise ExactCapExceeded("cap")
    if sum(math.comb(n, j) for j in range(k)) > cfg.separator_budget:
        raise SeparatorBlowup("budget")
    best = None  # (num, den, side, separator)
    for size in range(k):
        for delta in itertools.combinations(range(n), size):
            rest = [v for v in range(n) if v not in delta]
            pos = {v: i for i, v in enumerate(rest)}
            edges = [(pos[u], pos[v], w) for u, v, w in g.edges
                     if u in pos and v in pos]
            pairs = [(pos[s], pos[t]) for s, t in d.pairs
                     if s in pos and t in pos]
            d_of = [d.per_vertex.get(v, 0) for v in rest]
            fin, infc, d_in, cross = _naive_tables(len(rest), edges, d_of,
                                                   pairs)
            here = None  # (num, den, mask)
            for mask in range(1, (1 << len(rest)) - 1):
                if kind is CutKind.UNIFORM:
                    den = min(d_in[mask], sum(d_of) - d_in[mask])
                else:
                    den = cross[mask]
                if den == 0:
                    continue
                num = INF if infc[mask] else min(fin[mask], INF)
                if here is None or ((num * here[1], infc[mask] > 0)
                                    < (here[0] * den, infc[here[2]] > 0)):
                    here = (num, den, mask)
            if here is None:
                continue
            num, den, mask = here
            if best is None or num * best[1] < best[0] * den:
                side = frozenset(v for i, v in enumerate(rest)
                                 if (mask >> i) & 1)
                best = (num, den, side, frozenset(delta))
    if best is None:
        raise NoCandidateCut("none")
    return best


def test_vertex_exact_matches_per_separator_path(monkeypatch):
    rng = random.Random(163)
    weights = (0, 1, 2, 3, 2**62 - 1, 2**62, INF)
    for trial in range(1000):
        n = rng.randint(2, 7)
        g = Graph(n, [(*rng.sample(range(n), 2), rng.choice(weights))
                      for _ in range(rng.randint(0, 7))])
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 3)))
        monkeypatch.setattr(OracleConfig, "exact_vertex_cap",
                            rng.choice((20, 20, 20, 4)))
        monkeypatch.setattr(OracleConfig, "separator_budget",
                            rng.choice((10**6, 10**6, 7)))
        k = rng.randint(1, 4)
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            try:
                want = _vertex_by_separators(g, d, k, kind, EXACT)
            except KrcError as exc:
                with pytest.raises(type(exc)):
                    vertex_k_route_sparsest_cut(g, d, k, kind, EXACT)
                continue
            got = vertex_k_route_sparsest_cut(g, d, k, kind, EXACT)
            num, den, side, delta = want
            assert (got.side, got.separator, got.residual_weight,
                    got.denominator, got.sparsity) == \
                (side, delta, num, den, Fraction(num, den)), trial


def test_vertex_exact_float_tie_resolved_exactly():
    # Sides {0}, {1} and {2} have sparsities 2^62+1, 2^62-1 and 2^62+1, all
    # of which round to the float 2^62; the first of them, {0}, is not the
    # least. The edge oracles scan the same sides, with no separator.
    a = 2**62 - 1
    g = Graph(3, [(0, 1, a), (0, 2, 2), (1, 2, a)])
    d = DemandSet([(0, 1), (1, 2)])
    assert float(Fraction(2**62 + 1)) == float(Fraction(2**63 - 2, 2))
    kind = CutKind.NONUNIFORM
    for cut in (vertex_k_route_sparsest_cut(g, d, 1, kind, EXACT),
                sparsest_cut(g, d, kind, EXACT),
                k_route_sparsest_cut(g, d, 1, kind, EXACT)):
        assert (cut.side, cut.residual_weight, cut.denominator) == \
            (frozenset({1}), 2**63 - 2, 2)
    assert cut.sparsity == brute_force_sparsest(
        g, d, 1, Flavor.VERTEX, CutKind.NONUNIFORM).sparsity


def test_saturated_cut_reads_inf_in_both_modes():
    # Two parallel 2^62 edges weigh 2^63 > INF together, so their cut
    # saturates to INF, as a cut across an INF edge does. On the 11-vertex
    # path of such bundles sweep mode coarsens, and every cut reads INF too.
    d = DemandSet([(0, 1)])
    for edges in ([(0, 1, 2**62), (0, 1, 2**62)], [(0, 1, 1), (1, 0, INF)]):
        for cfg in (EXACT, OracleConfig(mode="sweep")):
            cut = sparsest_cut(Graph(2, edges), d, CutKind.NONUNIFORM, cfg)
            assert (cut.side, cut.residual_weight) == (frozenset({0}), INF)
    path = Graph(11, [(v, v + 1, 2**62) for v in range(10) for _ in "ab"])
    d = DemandSet([(0, 10), (3, 7)])
    for cfg in (EXACT, OracleConfig(mode="sweep")):
        for kind in CutKind:
            cut = sparsest_cut(path, d, kind, cfg)
            assert cut.residual_weight == INF
            assert_cut_fields(path, d, cut)


def test_complement_tie_returns_side_without_last_vertex():
    # On the 4-cycle with k = 2, sides {0,1}, {1,2} and their complements
    # all have sparsity 1/2. The first mask, {0,1}, lacks vertex 3, and it
    # waives its first cut edge by id, 1, since the weights are equal.
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    d = DemandSet([(0, 2), (1, 3)])
    for kind in CutKind:
        tables = _mask_tables(g, d)
        before = (tables[0], *map(list, tables[1:]))
        got = k_route_sparsest_cut(g, d, 2, kind, EXACT)
        assert (got.side, got.residual_weight, got.denominator) == \
            _k_route_by_free_sets(g, d, 2, kind) == (frozenset({0, 1}), 1, 2)
        assert got.free_edges == frozenset({1})
        # Equal weights: the edges in id order are heaviest first.
        assert _scan_masks(tables, range(4), 0, kind, list(g.edges), 1) == \
            (1, 2, 0b0011)
        assert _mask_tables(g, d) == before  # waiving wrote no cached table


def test_vertex_complement_tie_with_separator():
    # Removing hub 2 leaves edges 0-1 and 3-4, so side {0,1} of G - {2} has
    # sparsity 0; its complement {3,4} holds rest[-1] = 4 and scores the
    # same. Vertex 4 carries a terminal, so the uniform denominator needs
    # G - D's whole terminal count.
    g = Graph(5, [(0, 2, 5), (1, 2, 5), (3, 2, 5), (4, 2, 5), (0, 1, 1),
                  (3, 4, 1)])
    d = DemandSet([(0, 3), (1, 4)])
    for kind in CutKind:
        got = vertex_k_route_sparsest_cut(g, d, 2, kind, EXACT)
        assert (got.residual_weight, got.denominator, got.side,
                got.separator) == _vertex_by_separators(g, d, 2, kind, EXACT) \
            == (0, 2, frozenset({0, 1}), frozenset({2}))
        assert _scan_masks(_mask_tables(g, d), [0, 1, 3, 4], 1 << 2,
                           kind) == (0, 2, 0b0011)


def test_scan_masks_on_tiny_tables():
    # Fewer than two vertices left have no proper side, so no answer and
    # no error; two vertices have one side.
    no_pairs = DemandSet([])
    g = Graph(3, [(0, 1, 3), (1, 2, 5), (0, 2, 2)])
    tables = _mask_tables(g, DemandSet([(0, 2)]))
    for kind in CutKind:
        assert _scan_masks(_mask_tables(Graph(0), no_pairs), [], 0,
                           kind) is None
        assert _scan_masks(_mask_tables(Graph(1), no_pairs), [0], 0,
                           kind) is None
        assert _scan_masks(_mask_tables(Graph(1), no_pairs), [], 1,
                           kind) is None
        assert _scan_masks(tables, [], 0b111, kind) is None
        assert _scan_masks(tables, [0], 0b110, kind) is None
        assert _scan_masks(tables, [0, 2], 0b010, kind) == (2, 1, 1)
        assert _scan_masks(_mask_tables(Graph(2, [(0, 1, 3)]),
                                        DemandSet([(0, 1)])),
                           range(2), 0, kind) == (3, 1, 1)


def test_saturated_tie_prefers_side_across_no_inf_edge():
    # Side {0} crosses the INF edge and side {0,1} two 2^62 edges, whose
    # sum passes INF: both read INF/1. The INF edge can never be cut, so
    # {0,1} wins although {0} comes first.
    g = Graph(3, [(0, 1, INF), (1, 2, 2**62), (1, 2, 2**62)])
    d = DemandSet([(0, 2)])
    kind = CutKind.NONUNIFORM
    for cut in (sparsest_cut(g, d, kind, EXACT),
                k_route_sparsest_cut(g, d, 1, kind, EXACT),
                vertex_k_route_sparsest_cut(g, d, 1, kind, EXACT)):
        assert (cut.side, cut.residual_weight, cut.denominator) == \
            (frozenset({0, 1}), INF, 1)
    # Waiving one edge, the INF one, leaves {0} three 2^62 edges: INF with
    # no INF edge. The free set reported is that edge, not the first id.
    g = Graph(2, [(0, 1, 2**62), (0, 1, 2**62), (0, 1, INF), (0, 1, 2**62)])
    cut = k_route_sparsest_cut(g, DemandSet([(0, 1)]), 2, kind, EXACT)
    assert (cut.side, cut.residual_weight, cut.free_edges) == \
        (frozenset({0}), INF, frozenset({2}))
    assert _k_route_by_free_sets(g, DemandSet([(0, 1)]), 2, kind) == \
        (frozenset({0}), INF, 1)


def _answer(oracle, *args):
    """An oracle's SparseCut, or the class of the KrcError it raises."""
    try:
        return oracle(*args)
    except KrcError as exc:
        return type(exc)


def test_sweep_scans_exactly_up_to_ten_vertices(monkeypatch):
    # On graphs of at most SWEEP_EXACT_MAX vertices sweep mode takes exact
    # mode's scan: every field and every error agree. The free-set budget is
    # checked ahead of that split, and the separator budget wherever the
    # scan is exact, so both modes refuse the same inputs.
    rng = random.Random(173)
    weights = (0, 0, 1, 2, 3, 5, 2**62 - 1, 2**62, INF)
    seen = set()
    for trial in range(500):
        n = rng.randint(2, oracles.SWEEP_EXACT_MAX)
        edges = [(*rng.sample(range(n), 2), rng.choice(weights))
                 for _ in range(rng.randint(0, 2 * n))]
        edges += [e for e in edges if rng.random() < 0.2]  # parallel copies
        g = Graph(n, edges)
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 4)))
        k = rng.randint(1, 4)
        for name, tight in (("free_set_budget", 12), ("separator_budget", 20)):
            monkeypatch.setattr(OracleConfig, name,
                                rng.choice((200_000, 200_000, tight)))
        exact = OracleConfig()
        sweep = OracleConfig(mode="sweep", seed=trial)
        fsize = min(k - 1, g.edge_count)
        over_free = math.comb(g.edge_count, fsize) > exact.free_set_budget
        over_sep = (sum(math.comb(n, j) for j in range(k))
                    > exact.separator_budget)
        for kind in CutKind:
            for oracle, args in (
                    (sparsest_cut, (g, d, kind)),
                    (k_route_sparsest_cut, (g, d, k, kind)),
                    (vertex_k_route_sparsest_cut, (g, d, k, kind))):
                want = _answer(oracle, *args, exact)
                assert _answer(oracle, *args, sweep) == want, trial
                seen.add(want if isinstance(want, type) else type(want))
                if oracle is k_route_sparsest_cut:
                    assert (want is FreeSetBlowup) == over_free, trial
                if oracle is vertex_k_route_sparsest_cut:
                    assert (want is SeparatorBlowup) == over_sep, trial
    assert {FreeSetBlowup, SeparatorBlowup} < seen


def test_sweep_runs_only_above_ten_vertices(monkeypatch):
    # At n = SWEEP_EXACT_MAX no oracle coarsens. One vertex more, and each
    # coarse-scans G once per call, not once per free set; each G - D then
    # has ten vertices and is scanned exactly. Two more, and each G - D of
    # a separator from the pool is coarse-scanned too.
    assert oracles.SWEEP_EXACT_MAX == 10
    calls = []
    coarse_scan = oracles._coarse_scan
    monkeypatch.setattr(oracles, "_coarse_scan",
                        lambda *a: calls.append(a) or coarse_scan(*a))
    kind = CutKind.NONUNIFORM
    for n in (10, 11, 12):
        g = Graph(n, [(v, (v + 1) % n, 1 + v % 3) for v in range(n)]
                  + [(0, n // 2, 2)])
        d = DemandSet([(0, n // 2), (1, n - 1)])
        for oracle, args in ((sparsest_cut, (g, d, kind, SWEEP)),
                             (k_route_sparsest_cut, (g, d, 2, kind, SWEEP))):
            calls.clear()
            oracle(*args)
            assert len(calls) == (n > 10), (oracle, n)
        calls.clear()
        vertex_k_route_sparsest_cut(g, d, 2, kind, SWEEP)
        if n < 12:
            assert len(calls) == (n > 10)
        else:
            assert 1 < len(calls) <= 1 + oracles.SEPARATOR_POOL
            assert all(a[0] == n - 1 for a in calls[1:])


def _mixed_graph(rng, n):
    """Seeded multigraph with zero, small, 2^62 and INF weights and parallel
    copies of some edges."""
    weights = (0, 1, 2, 3, 5, 2**62 - 1, 2**62, INF)
    edges = [(*rng.sample(range(n), 2), rng.choice(weights))
             for _ in range(rng.randint(n, 3 * n))]
    return Graph(n, edges + [e for e in edges if rng.random() < 0.3])


def test_coarsening_keeps_pair_ends_apart():
    # Fewer than C(11, 2) = 55 pairs leave some merge of two of 11 or more
    # groups that joins no pair's ends, so no pair is ever joined. Short
    # edge lists leave groups with no neighbour, which merge at weight 0.
    rng = random.Random(191)
    for trial in range(300):
        n = rng.randint(11, 16)
        edges = _mixed_graph(rng, n).edges
        edges = edges[:rng.choice((len(edges), rng.randint(0, n)))]
        pairs = random_pairs(rng, n, rng.randint(1, 12))
        group = oracles._coarsen(n, edges, pairs, random.Random(trial))
        assert sorted(set(group)) == list(range(oracles.SWEEP_EXACT_MAX))
        assert all(group[s] != group[t] for s, t in pairs), trial


def test_sweep_splits_first_pair_when_every_merge_joins_a_pair(monkeypatch):
    # Pairs join every two of the 12 vertices (r = 66), so reaching ten
    # groups joins some pair's ends, but never the first pair's: each
    # oracle still returns a side of positive denominator, and no scan
    # reads more than 2^(10 - 1) sides.
    rng = random.Random(193)
    d = DemandSet(itertools.combinations(range(12), 2))
    assert d.r == 66
    sides = []
    scan = oracles._scan_masks
    monkeypatch.setattr(oracles, "_scan_masks", lambda tables, rest, dm, *a: (
        sides.append(1 << len(rest) - 1 if dm else len(tables[1]) >> 1)
        or scan(tables, rest, dm, *a)))
    for trial in range(4):
        g = _mixed_graph(rng, 12)
        group = oracles._coarsen(12, g.edges, d.pairs, random.Random(trial))
        assert group[0] != group[1]
        cfg = OracleConfig(mode="sweep", seed=trial)
        for kind in CutKind:
            for cut, waive in (
                    (sparsest_cut(g, d, kind, cfg), 0),
                    (k_route_sparsest_cut(g, d, 3, kind, cfg), 2),
                    (vertex_k_route_sparsest_cut(g, d, 2, kind, cfg), 0)):
                assert_cut_fields(g, d, cut, waive)
    assert sides and max(sides) <= 1 << 9


def test_sweep_separator_comes_from_the_pool():
    # Above SWEEP_EXACT_MAX the vertex oracle tries only separators drawn
    # from the SEPARATOR_POOL boundary vertices of the plain coarse cut,
    # which is the sweep-mode sparsest cut, with the most crossing weight.
    rng = random.Random(197)
    truncated = separated = 0
    for trial in range(12):
        n = rng.randint(14, 24)
        g = random_graph(rng, n, 3 * n)
        d = DemandSet(random_pairs(rng, n, 4))
        cfg = OracleConfig(mode="sweep", seed=trial)
        for kind in CutKind:
            plain = sparsest_cut(g, d, kind, cfg).side
            weight = {}
            for u, v, w in g.edges:
                if (u in plain) != (v in plain):
                    weight[u] = weight.get(u, 0) + w
                    weight[v] = weight.get(v, 0) + w
            pool = sorted(weight, key=lambda v: (-weight[v], v))[:8]
            truncated += len(weight) > len(pool)
            cut = vertex_k_route_sparsest_cut(g, d, 3, kind, cfg)
            assert cut.separator <= set(pool), trial
            separated += bool(cut.separator)
            assert_cut_fields(g, d, cut)
    assert truncated and separated


def test_sweep_above_ten_vertices_never_beats_exact():
    # Above SWEEP_EXACT_MAX sweep mode coarsens: its cuts are sound and
    # never sparser than exact mode's.
    rng = random.Random(179)
    for _ in range(12):
        n = rng.randint(11, 16)
        g = _mixed_graph(rng, n)
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 4)))
        for kind in CutKind:
            for oracle, args, waive in (
                    (sparsest_cut, (g, d, kind), 0),
                    (k_route_sparsest_cut, (g, d, 2, kind), 1),
                    (k_route_sparsest_cut, (g, d, 3, kind), 2),
                    (vertex_k_route_sparsest_cut, (g, d, 2, kind), 0)):
                sw = oracle(*args, SWEEP)
                assert sw.sparsity >= oracle(*args, EXACT).sparsity
                assert len(sw.separator) <= 1
                assert_cut_fields(g, d, sw, waive)


def test_bicriteria_waives_inf_edges_and_never_pays_them():
    # INF edges are clipped like finite ones, so a multicut may cut them;
    # the free set takes them first, and a finite residual pays none. If
    # some pair is split by finite edges alone, a side across no INF edge
    # exists and the residual is finite. A 2^62 edge at k = 3 clips to at
    # most INF, never above it.
    rng = random.Random(181)
    for _ in range(40):
        n = rng.randint(2, 5)
        base = random_graph(rng, n, rng.randint(2, 4), wmax=2, inf_prob=0.4)
        # Bundles of two or three INF edges cost less than some finite
        # bundles at low thresholds, but k = 2 waives only two edges.
        g = Graph(n, [e for e in base.edges
                      for _ in range(rng.randint(1 + (e.w >= INF), 3))])
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 3)))
        inf_part = _labels_of(g.vertex_count,
                              [e for e in g.edges if e.w >= INF])
        finite_split = any(inf_part[s] != inf_part[t] for s, t in d.pairs)
        for cfg in (EXACT, SWEEP):
            try:
                cut = k_route_sparsest_cut_bicriteria(g, d, 2, cfg)
            except NoCandidateCut:
                assert not finite_split
                continue
            inf_cut = {i for i in g.cut_edges(cut.side) if g.weight(i) >= INF}
            assert (cut.residual_weight < INF) == (inf_cut <= cut.free_edges)
            if finite_split:
                assert cut.residual_weight < INF
    g = Graph(3, [(0, 1, 2**62), (1, 2, 1), (0, 2, INF)])
    for cfg in (EXACT, SWEEP):
        cut = k_route_sparsest_cut_bicriteria(g, DemandSet([(0, 2)]), 3, cfg)
        assert (cut.side, cut.residual_weight, cut.free_edges) == \
            ({0}, 0, {0, 2})
    # Two 2^62 edges clip to a cut of value 2^63, which saturates to INF but
    # crosses no INF edge, so the multicut still takes it.
    g = Graph(3, [(0, 1, 2**62), (1, 2, 2**62), (0, 2, INF)])
    for cfg in (EXACT, SWEEP):
        cut = k_route_sparsest_cut_bicriteria(g, DemandSet([(0, 2)]), 3, cfg)
        assert (cut.side, cut.residual_weight, cut.denominator) == ({0}, 0, 1)
    # Five INF edges are cheaper than six unit ones at every threshold, but
    # only four can be waived; the unit edges give the finite side.
    g = Graph(3, [(0, 1, INF)] * 5 + [(1, 2, 1)] * 6)
    for cfg in (EXACT, SWEEP):
        cut = k_route_sparsest_cut_bicriteria(g, DemandSet([(0, 2)]), 3, cfg)
        assert (cut.side, cut.residual_weight) == ({0, 1}, 2)


def _labels_of(n, edges):
    """Component label of each vertex in the graph on `edges`."""
    label = list(range(n))

    def root(v):
        while label[v] != v:
            v = label[v]
        return v
    for e in edges:
        label[root(e.u)] = root(e.v)
    return [root(v) for v in range(n)]
