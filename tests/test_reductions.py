import itertools
import random
from fractions import Fraction

import pytest

from kroutecut import (INF, CutSolution, DemandSet, Flavor, Graph, Instance,
                       is_feasible)
from kroutecut import reductions
from kroutecut.errors import (ExactCapExceeded, GuessZero, IsolatedTerminal,
                              NonIntegralThreshold, SizeOverflow)
from kroutecut.exact import brute_force_opt
from kroutecut.reductions import (Bipartite, Hypergraph,
                                  dks_incidence_to_ssve, ec_to_vc,
                                  is_expanding, sample_candidate_vertices,
                                  ssve_to_st_vc_krc, tensor_square,
                                  vc_weighted_to_uniform)

from helpers import make_instance, random_instance


def test_ec_to_vc_single_edge():
    inst = make_instance(2, [(0, 1, 5)], [(0, 1)], 1)
    image, rmap = ec_to_vc(inst)
    assert image.graph.vertex_count == 2
    assert image.graph.edge_count == 1
    assert image.flavor is Flavor.VERTEX
    assert brute_force_opt(inst).total_weight == 5
    assert brute_force_opt(image).total_weight == 5


def test_ec_to_vc_degree_three_clique():
    inst = make_instance(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], [(1, 2)], 1)
    image, _ = ec_to_vc(inst)
    clique_edges = [e for e in image.graph.edges if e.w >= INF]
    assert len(clique_edges) == 3  # K3 on vertex 0's ports


def test_ec_to_vc_triangle_k2():
    tri = make_instance(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], [(0, 1)], 2)
    image, _ = ec_to_vc(tri)
    assert brute_force_opt(tri).total_weight == 1
    assert brute_force_opt(image).total_weight == 1


def test_ec_to_vc_isolated_terminal():
    inst = make_instance(3, [(0, 1, 1)], [(0, 2)], 1)
    with pytest.raises(IsolatedTerminal):
        ec_to_vc(inst)


def test_ec_to_vc_round_trip_random():
    rng = random.Random(101)
    done = 0
    while done < 25:
        inst = random_instance(rng, rng.randint(2, 5), rng.randint(1, 8),
                               rng.randint(1, 2), rng.randint(1, 3))
        touched = {v for e in inst.graph.edges for v in (e.u, e.v)}
        if not inst.demands.terminals <= touched:
            continue
        done += 1
        image, rmap = ec_to_vc(inst)
        src = brute_force_opt(inst)
        img = brute_force_opt(image)
        assert src.total_weight == img.total_weight
        # pull the image optimum back, push the source optimum forward
        back = CutSolution.from_edges(inst.graph,
                                      rmap.pull_back(img.removed_edge_ids),
                                      inst.k)
        assert is_feasible(inst, back, inst.k)
        assert back.total_weight == img.total_weight
        fwd = CutSolution.from_edges(image.graph,
                                     rmap.push_forward(src.removed_edge_ids),
                                     inst.k)
        assert is_feasible(image, fwd, inst.k)
        assert fwd.total_weight == src.total_weight


def test_uniformize_unit_weights():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 2,
                         Flavor.VERTEX)
    image, rmap = vc_weighted_to_uniform(inst, 1)
    assert all(len(group) == 27 for group in rmap.edge_groups)
    assert all(e.w == 1 for e in image.graph.edges)
    assert image.graph.edge_count == 54


def test_uniformize_weight_two():
    inst = make_instance(3, [(0, 1, 2)], [(0, 1)], 1, Flavor.VERTEX)
    image, rmap = vc_weighted_to_uniform(inst, 1)
    assert len(rmap.edge_groups[0]) == 54


def test_uniformize_clips_heavy_edges():
    inst = make_instance(3, [(0, 1, 100), (1, 2, 1)], [(0, 2)], 2,
                         Flavor.VERTEX)
    image, rmap = vc_weighted_to_uniform(inst, 2)
    # clipped to n*guess = 6, then scaled by n^3
    assert len(rmap.edge_groups[0]) == 6 * 27


def test_uniformize_deletes_cheap_edges():
    inst = make_instance(3, [(0, 1, 100), (1, 2, 1)], [(0, 2)], 2,
                         Flavor.VERTEX)
    image, rmap = vc_weighted_to_uniform(inst, 100)
    assert rmap.edge_groups[1] == ()
    assert rmap.always_removed == (1,)
    assert 1 in rmap.pull_back([])


def test_uniformize_guess_zero():
    inst = make_instance(2, [(0, 1, 1)], [(0, 1)], 1, Flavor.VERTEX)
    with pytest.raises(GuessZero):
        vc_weighted_to_uniform(inst, 0)


def test_uniformize_opt_bracket():
    # With the correct guess, reconstructing a source solution from the
    # image (image optimum plus the pre-deleted weight, in source units)
    # lands in [source OPT, source OPT + deleted]. Demands must be
    # non-adjacent: parallel copies of a direct terminal edge each count
    # as a path of their own and would break the expansion.
    #
    # The image optimum is n^3 times the optimum of the clipped source
    # graph: partial copy removals never change connectivity, which the
    # direct path-count checks below confirm on the expanded graph itself.
    from kroutecut import Instance, num_vertex_disjoint_paths
    rng = random.Random(103)
    checked = 0
    while checked < 10:
        inst = random_instance(rng, rng.randint(3, 5), rng.randint(2, 5),
                               1, rng.randint(1, 2), Flavor.VERTEX,
                               no_adjacent=True, wmin=1, wmax=9)
        src = brute_force_opt(inst).total_weight
        if src == 0:
            continue
        checked += 1
        image, rmap = vc_weighted_to_uniform(inst, src)
        deleted = sum(inst.graph.weight(e) for e in rmap.always_removed)
        clipped = Instance(
            Graph(inst.graph.vertex_count,
                  [(e.u, e.v, min(e.w, inst.graph.vertex_count * src))
                   for i, e in enumerate(inst.graph.edges)
                   if i not in rmap.always_removed]),
            inst.demands, inst.k, Flavor.VERTEX)
        opt_clipped = brute_force_opt(clipped).total_weight
        n3 = inst.graph.vertex_count ** 3
        image_opt = n3 * opt_clipped
        assert image_opt <= n3 * src
        assert image_opt + n3 * deleted >= n3 * src
        # spot-check the all-or-none reduction on the expanded graph:
        # connectivity only depends on which groups are fully removed
        s, t = inst.demands.pairs[0]
        for _ in range(3):
            taken = set()
            full = set()
            for e, group in enumerate(rmap.edge_groups):
                if not group:
                    continue
                roll = rng.random()
                if roll < 0.35:
                    taken.update(group)
                    full.add(e)
                elif roll < 0.6:
                    taken.update(list(group)[:len(group) // 2])
            want = num_vertex_disjoint_paths(
                inst.graph, s, t,
                exclude=frozenset(full) | frozenset(rmap.always_removed))
            got = num_vertex_disjoint_paths(image.graph, s, t,
                                            exclude=frozenset(taken))
            assert got == want
    assert checked == 10


def test_ssve_construction_counts():
    bip = Bipartite(2, 2, [(0, 0), (0, 1), (1, 1)])
    inst = ssve_to_st_vc_krc(bip, Fraction(1, 2))
    n_big = 2 * 2 * 2 + 1
    assert n_big == 9
    assert inst.k == 2  # m(1 - alpha) + 1
    assert inst.graph.vertex_count == 2 + 2 + 2 * n_big
    unit_edges = [e for e in inst.graph.edges if e.w == 1]
    assert len(unit_edges) == 2 * n_big  # one per clique vertex, to t
    assert inst.demands.pairs == ((0, 1),)
    assert inst.flavor is Flavor.VERTEX


def test_ssve_rejects_non_integral():
    bip = Bipartite(3, 2, [(0, 0)])
    with pytest.raises(NonIntegralThreshold):
        ssve_to_st_vc_krc(bip, Fraction(1, 2))
    with pytest.raises(ValueError):
        ssve_to_st_vc_krc(bip, Fraction(3, 2))


def test_tensor_square_sizes():
    bip = Bipartite(2, 3, [(0, 0), (1, 2)])
    sq = tensor_square(bip)
    assert sq.left_count == 4
    assert sq.right_count == 9
    assert len(sq.edges) == 4


def test_tensor_single_edge():
    bip = Bipartite(1, 1, [(0, 0)])
    sq = tensor_square(bip)
    assert sq.left_count == sq.right_count == 1
    assert sq.edges == ((0, 0),)


def test_tensor_overflow(monkeypatch):
    bip = Bipartite(3, 3, [(i, j) for i in range(3) for j in range(3)])
    monkeypatch.setattr(reductions, "TENSOR_MAX_CELLS", 10)
    with pytest.raises(SizeOverflow):
        tensor_square(bip)


def test_dks_incidence():
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    bip, alpha_of = dks_incidence_to_ssve(h, 3)
    assert bip.left_count == 2
    assert bip.right_count == 4
    assert bip.neighborhood([0]) == frozenset({0, 1, 2})
    assert alpha_of(1) == Fraction(1, 2)


def test_dks_triangle_lambda2():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    bip, alpha_of = dks_incidence_to_ssve(h, 2)
    assert bip.left_count == 3
    assert all(len(bip.neighborhood([l])) == 2 for l in range(3))
    assert alpha_of(3) == Fraction(1)


def test_sample_candidate_vertices_deterministic():
    bip = Bipartite(2, 5, [(0, 0), (0, 1), (0, 2), (1, 3)])
    a = sample_candidate_vertices(bip, [0, 1], 3, seed=5)
    b = sample_candidate_vertices(bip, [0, 1], 3, seed=5)
    assert a == b
    assert len(a) == 3
    assert a <= bip.neighborhood([0, 1])
    padded = sample_candidate_vertices(bip, [1], 3, seed=5)
    assert len(padded) == 3  # neighborhood has one vertex, padding kicks in


def test_is_expanding_complete():
    bip = Bipartite(3, 4, [(l, r) for l in range(3) for r in range(4)])
    assert is_expanding(bip, Fraction(1, 3), Fraction(3, 4))
    assert not is_expanding(bip, Fraction(1, 3), Fraction(1))


def test_is_expanding_matching():
    import math
    # a perfect matching is (alpha, beta)-expanding iff ceil(alpha*m) > beta*m
    for m in (2, 3, 4):
        bip = Bipartite(m, m, [(i, i) for i in range(m)])
        for num in range(1, m + 1):
            alpha = Fraction(num, m)
            for bden in range(1, m + 1):
                beta = Fraction(bden, m + 1)
                want = math.ceil(alpha * m) > beta * m
                assert is_expanding(bip, alpha, beta) == want


def test_is_expanding_cap():
    bip = Bipartite(21, 1, [(0, 0)])
    with pytest.raises(ExactCapExceeded):
        is_expanding(bip, Fraction(1, 2), Fraction(1, 2))


def test_tensor_amplification_forward():
    rng = random.Random(107)
    for _ in range(30):
        edges = [(l, r) for l in range(4) for r in range(4)
                 if rng.random() < 0.5]
        try:
            bip = Bipartite(4, 4, edges)
        except ValueError:
            continue
        alpha, beta = Fraction(1, 2), Fraction(1, 2)
        if not is_expanding(bip, alpha, beta):
            sq = tensor_square(bip)
            assert not is_expanding(sq, alpha * alpha, beta * beta)


def test_ec_to_vc_pullback_arbitrary_feasible():
    # not just optima: any feasible image solution pulls back feasibly at
    # equal weight, and vice versa
    rng = random.Random(151)
    done = 0
    while done < 15:
        inst = random_instance(rng, rng.randint(2, 5), rng.randint(1, 7),
                               rng.randint(1, 2), rng.randint(1, 2))
        touched = {v for e in inst.graph.edges for v in (e.u, e.v)}
        if not inst.demands.terminals <= touched:
            continue
        done += 1
        image, rmap = ec_to_vc(inst)
        finite = [i for i, e in enumerate(image.graph.edges) if e.w < INF]
        for _ in range(4):
            subset = frozenset(e for e in finite if rng.random() < 0.6)
            sol = CutSolution.from_edges(image.graph, subset, inst.k)
            if not is_feasible(image, sol, inst.k):
                continue
            back = CutSolution.from_edges(inst.graph, rmap.pull_back(subset),
                                          inst.k)
            assert is_feasible(inst, back, inst.k)
            assert back.total_weight == sol.total_weight
