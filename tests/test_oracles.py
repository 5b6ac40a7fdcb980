import itertools
import math
import random
from fractions import Fraction

import pytest

from kroutecut import (INF, DemandSet, Flavor, Graph, OracleConfig,
                       gomory_hu, k_route_sparsest_cut,
                       k_route_sparsest_cut_bicriteria, l_multicut,
                       laminar_min_cut_family, min_weight_edge_st_cut,
                       sparsest_cut, vertex_k_route_sparsest_cut)
from kroutecut.errors import (ExactCapExceeded, FreeSetBlowup, Infeasible,
                              KrcError, NoCandidateCut, SeparatorBlowup)
from kroutecut.exact import brute_force_sparsest
from kroutecut.graph import wsum
from kroutecut.oracles import CutKind, _mask_tables

from helpers import cut_weight, random_graph, random_instance, random_pairs

EXACT = OracleConfig()
SWEEP = OracleConfig(mode="sweep", seed=7)


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


def test_sparsest_cut_exact_cap():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    small = OracleConfig(exact_vertex_cap=2)
    with pytest.raises(ExactCapExceeded):
        sparsest_cut(g, DemandSet([(0, 2)]), CutKind.UNIFORM, small)


def test_sweep_never_beats_exact():
    rng = random.Random(33)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), rng.randint(1, 12))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            ex = sparsest_cut(g, d, kind, EXACT)
            sw = sparsest_cut(g, d, kind, SWEEP)
            assert sw.sparsity >= ex.sparsity


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


def test_free_set_budget():
    g = Graph(4, [(0, 1, 1)] * 8)
    tight = OracleConfig(free_set_budget=3)
    with pytest.raises(FreeSetBlowup):
        k_route_sparsest_cut(g, DemandSet([(0, 1)]), 3, CutKind.NONUNIFORM,
                             tight)


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
    rng = random.Random(53)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 8))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        v = vertex_k_route_sparsest_cut(g, d, 1, CutKind.NONUNIFORM, EXACT)
        e = sparsest_cut(g, d, CutKind.NONUNIFORM, EXACT)
        assert v.sparsity == e.sparsity
        assert v.separator == frozenset()


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
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 7), rng.randint(2, 10))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        cut = vertex_k_route_sparsest_cut(g, d, 2, CutKind.NONUNIFORM, SWEEP)
        outside = frozenset(range(g.vertex_count)) - cut.side - cut.separator
        num = wsum(e.w for e in g.edges
                   if (e.u in cut.side and e.v in outside)
                   or (e.v in cut.side and e.u in outside))
        assert num == cut.residual_weight
        den = sum(1 for s, t in d.pairs
                  if s not in cut.separator and t not in cut.separator
                  and (s in cut.side) != (t in cut.side)
                  and (s in cut.side or s in outside)
                  and (t in cut.side or t in outside))
        assert den == cut.denominator


def test_oracle_determinism():
    rng = random.Random(67)
    g = random_graph(rng, 7, 12)
    d = DemandSet(random_pairs(rng, 7, 3))
    a = sparsest_cut(g, d, CutKind.NONUNIFORM, SWEEP)
    b = sparsest_cut(g, d, CutKind.NONUNIFORM,
                     OracleConfig(mode="sweep", seed=7))
    assert a == b


def test_separator_budget():
    from kroutecut.errors import SeparatorBlowup
    g = Graph(8, [(0, 1, 1)])
    tight = OracleConfig(separator_budget=4)
    with pytest.raises(SeparatorBlowup):
        vertex_k_route_sparsest_cut(g, DemandSet([(0, 1)]), 3,
                                    CutKind.NONUNIFORM, tight)


def test_k_route_residual_recomputes():
    rng = random.Random(139)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 9))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        k = rng.randint(1, 3)
        cut = k_route_sparsest_cut(g, d, k, CutKind.NONUNIFORM, EXACT)
        assert len(cut.free_edges) <= k - 1
        cut_ids = set(g.cut_edges(cut.side))
        assert cut.free_edges <= cut_ids
        assert wsum(g.weight(e) for e in cut_ids - cut.free_edges) == \
            cut.residual_weight
        assert cut.sparsity == Fraction(cut.residual_weight, cut.denominator)


def test_sweep_vertex_oracle_uniform_kind_fields():
    rng = random.Random(149)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7), rng.randint(2, 10))
        d = DemandSet(random_pairs(rng, g.vertex_count, rng.randint(1, 3)))
        cut = vertex_k_route_sparsest_cut(g, d, 2, CutKind.UNIFORM, SWEEP)
        outside = frozenset(range(g.vertex_count)) - cut.side - cut.separator
        num = wsum(e.w for e in g.edges
                   if (e.u in cut.side and e.v in outside)
                   or (e.v in cut.side and e.u in outside))
        assert num == cut.residual_weight
        den = min(d.count_in(cut.side), d.count_in(outside))
        assert den == cut.denominator > 0


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
    """Exact k-route sparsest cut the long way: one scan over every side per
    free set of size k-1, in combinations order, strict improvement only."""
    n = g.vertex_count
    fin, infc, d_in, cross = _naive_tables(
        n, g.edges, [d.per_vertex.get(v, 0) for v in range(n)], d.pairs)
    best = None  # (num, den, mask, free)
    for free in itertools.combinations(range(g.edge_count),
                                       min(k - 1, g.edge_count)):
        for mask in range(1, (1 << n) - 1):
            if kind is CutKind.UNIFORM:
                den = min(d_in[mask], 2 * d.r - d_in[mask])
            else:
                den = cross[mask]
            if den == 0:
                continue
            f, ic = fin[mask], infc[mask]
            for u, v, w in (g.edges[i] for i in free):
                if ((mask >> u) ^ (mask >> v)) & 1:
                    if w >= INF:
                        ic -= 1
                    else:
                        f -= w
            num = INF if ic > 0 else min(f, INF)
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, mask, free)
    if best is None:
        return None
    num, den, mask, free = best
    side = frozenset(v for v in range(n) if (mask >> v) & 1)
    return side, num, den, frozenset(free) & set(g.cut_edges(side))


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
            assert (got.side, got.residual_weight, got.denominator,
                    got.free_edges) == want


def test_exact_excluded_edges_match_deleted_edges():
    # Excluded edges are waived from every side; the reference deletes them
    # and scans G - F's naive tables with first-mask strict improvement.
    rng = random.Random(167)
    weights = (0, 1, 2, 3, 2**62 - 1, 2**62, INF)
    for _ in range(1000):
        n = rng.randint(2, 6)
        g = Graph(n, [(*rng.sample(range(n), 2), rng.choice(weights))
                      for _ in range(rng.randint(0, 8))])
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 3)))
        excl = frozenset(i for i in range(g.edge_count) if rng.random() < 0.3)
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            side, num, den, _ = _k_route_by_free_sets(
                g.without_edges(excl)[0], d, 1, kind)
            got = sparsest_cut(g, d, kind, EXACT, exclude_edges=excl)
            assert (got.side, got.residual_weight, got.denominator,
                    got.free_edges) == \
                (side, num, den, excl & set(g.cut_edges(side)))


def _vertex_by_separators(g, d, k, kind, cfg):
    """Exact vertex k-route sparsest cut the long way: for each separator D,
    G - D relabelled and its naive tables, one scan with strict improvement
    only, and strict improvement across separators."""
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
            for mask in range(1, (1 << len(rest)) - 1):
                if kind is CutKind.UNIFORM:
                    den = min(d_in[mask], sum(d_of) - d_in[mask])
                else:
                    den = cross[mask]
                if den == 0:
                    continue
                num = INF if infc[mask] else min(fin[mask], INF)
                if best is None or num * best[1] < best[0] * den:
                    side = frozenset(v for i, v in enumerate(rest)
                                     if (mask >> i) & 1)
                    best = (num, den, side, frozenset(delta))
    if best is None:
        raise NoCandidateCut("none")
    return best


def test_vertex_exact_matches_per_separator_path():
    rng = random.Random(163)
    weights = (0, 1, 2, 3, 2**62 - 1, 2**62, INF)
    for trial in range(1000):
        n = rng.randint(2, 5)
        g = Graph(n, [(*rng.sample(range(n), 2), rng.choice(weights))
                      for _ in range(rng.randint(0, 7))])
        d = DemandSet(random_pairs(rng, n, rng.randint(1, 3)))
        cfg = OracleConfig(exact_vertex_cap=rng.choice((20, 20, 20, 4)),
                           separator_budget=rng.choice((10**6, 10**6, 7)))
        k = rng.randint(1, 4)
        for kind in (CutKind.UNIFORM, CutKind.NONUNIFORM):
            try:
                want = _vertex_by_separators(g, d, k, kind, cfg)
            except KrcError as exc:
                with pytest.raises(type(exc)):
                    vertex_k_route_sparsest_cut(g, d, k, kind, cfg)
                continue
            got = vertex_k_route_sparsest_cut(g, d, k, kind, cfg)
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
    # saturates to INF, as a cut across an INF edge does.
    d = DemandSet([(0, 1)])
    for edges in ([(0, 1, 2**62), (0, 1, 2**62)], [(0, 1, 1), (1, 0, INF)]):
        for cfg in (EXACT, OracleConfig(mode="sweep")):
            cut = sparsest_cut(Graph(2, edges), d, CutKind.NONUNIFORM, cfg)
            assert (cut.side, cut.residual_weight) == (frozenset({0}), INF)
