import math
import random
from fractions import Fraction

import mpmath
import pytest

from kroutecut import (DemandSet, Flavor, Graph, INF, Instance, SolverParams,
                       connectivity, solve_uniform_ec)
from kroutecut.errors import CapExceeded, Infeasible
from kroutecut.graph import FlowNet
from kroutecut.exact import (brute_force_opt, brute_force_sparsest,
                             cost_bound, feasible_cut, log_lower, ratio_report,
                             route_sparsity_vs_opt,
                             two_route_vertex_sparsity_vs_opt,
                             uniform_sparsity_vs_opt)
from kroutecut.oracles import CutKind

from helpers import make_instance, random_graph, random_instance, random_pairs


def test_brute_force_path():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 1)
    assert brute_force_opt(inst).total_weight == 1


def test_brute_force_three_parallel():
    inst = make_instance(2, [(0, 1, 1), (0, 1, 2), (0, 1, 3)], [(0, 1)], 2)
    sol = brute_force_opt(inst)
    assert sol.total_weight == 3
    assert sol.removed_edge_ids == frozenset({0, 1})


def test_brute_force_infeasible():
    inst = make_instance(2, [(0, 1, INF)], [(0, 1)], 1)
    with pytest.raises(Infeasible):
        brute_force_opt(inst)


def test_brute_force_cap():
    inst = make_instance(2, [(0, 1, 1)] * 23, [(0, 1)], 1)
    with pytest.raises(CapExceeded):
        brute_force_opt(inst)


def test_brute_force_deterministic_tie_break():
    inst = make_instance(2, [(0, 1, 1), (0, 1, 1)], [(0, 1)], 2)
    a = brute_force_opt(inst)
    b = brute_force_opt(inst)
    assert a == b
    assert a.removed_edge_ids == frozenset({0})


def test_brute_force_vertex_flavor():
    diamond = make_instance(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)],
                            [(0, 3)], 2, Flavor.VERTEX)
    assert brute_force_opt(diamond).total_weight == 1


def test_brute_force_dominates_any_feasible():
    rng = random.Random(109)
    from kroutecut import is_feasible, CutSolution
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 5), rng.randint(1, 7),
                               rng.randint(1, 2), rng.randint(1, 2))
        opt = brute_force_opt(inst)
        finite = [i for i, e in enumerate(inst.graph.edges) if e.w < INF]
        sol = CutSolution.from_edges(inst.graph, finite, inst.k)
        if is_feasible(inst, sol, inst.k):
            assert opt.total_weight <= sol.total_weight


def test_feasible_cut_is_feasible_and_bounds_opt():
    from kroutecut import is_feasible, CutSolution
    rng = random.Random(167)
    found = 0
    for i in range(300):
        flavor = (Flavor.EDGE, Flavor.VERTEX)[i % 2]
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.randint(1, 10), wmin=0, wmax=4,
                         inf_prob=0.15)
        inst = Instance(g, DemandSet(random_pairs(rng, n, rng.randint(1, 3))),
                        rng.randint(1, 3), flavor)
        cut = feasible_cut(inst, inst.demands.pairs)
        if cut is None:
            continue
        found += 1
        sol = CutSolution.from_edges(g, cut, inst.k)
        assert is_feasible(inst, sol, inst.k)
        assert sol.total_weight >= brute_force_opt(inst).total_weight
    assert found > 200


def test_feasible_cut_gives_up_on_an_inf_path():
    # Pair (0,2) is joined by INF edges alone; cutting the direct edge still
    # leaves it one path under k = 2.
    inst = make_instance(3, [(0, 1, INF), (1, 2, INF), (0, 2, 1)], [(0, 2)], 2)
    assert feasible_cut(inst, inst.demands.pairs) is None
    assert brute_force_opt(inst).removed_edge_ids == frozenset({2})


def _brute_force_opt_reference(inst):
    """The plain search: every node, a leave-in branch included, asks
    `connectivity` afresh for each pair not yet cut. Returns (ids, weight,
    nodes that took an edge)."""
    g = inst.graph
    k = inst.k
    finite = [i for i, e in enumerate(g.edges) if e.w < INF]
    violated0 = [(s, t) for s, t in inst.demands.pairs
                 if connectivity(g, s, t, inst.flavor, limit=k) >= k]
    for s, t in violated0:
        if connectivity(g, s, t, inst.flavor, exclude=frozenset(finite),
                        limit=k) >= k:
            raise Infeasible("stays connected")
    order = sorted(finite, key=lambda i: (-g.edges[i].w, i))
    best = [sum(g.edges[i].w for i in finite), tuple(sorted(finite))]
    takes = 0

    def dfs(idx, removed, cost, violated):
        nonlocal takes
        if cost > best[0]:
            return
        excl = frozenset(removed)
        still = [(s, t) for s, t in violated
                 if connectivity(g, s, t, inst.flavor, exclude=excl,
                                 limit=k) >= k]
        if not still:
            key = (cost, tuple(sorted(removed)))
            if key < tuple(best):
                best[:] = key
            return
        if idx == len(order):
            return
        e = order[idx]
        w = g.edges[e].w
        if cost + w <= best[0]:
            takes += 1
            removed.append(e)
            dfs(idx + 1, removed, cost + w, still)
            removed.pop()
        dfs(idx + 1, removed, cost, still)

    dfs(0, [], 0, violated0)
    return frozenset(best[1]), best[0], takes


def test_brute_force_opt_matches_plain_search(monkeypatch):
    # Same set, not only the same weight: zero weights and parallel edges
    # make ties, INF edges make pairs uncuttable, and both flavors run.
    flows = [0]
    plain = FlowNet.max_flow

    def counted(self, *args, **kwargs):
        flows[0] += 1
        return plain(self, *args, **kwargs)

    monkeypatch.setattr(FlowNet, "max_flow", counted)

    def check(inst):
        """brute_force_opt's flows on a feasible instance, else None."""
        try:
            want = _brute_force_opt_reference(inst)
        except Infeasible:
            with pytest.raises(Infeasible):
                brute_force_opt(inst)
            return None
        flows[0] = 0
        got = brute_force_opt(inst)
        assert (got.removed_edge_ids, got.total_weight) == want[:2]
        # One flow per pair up front and for the infeasibility check, then
        # at most one per pair at each node that takes an edge.
        assert flows[0] <= inst.demands.r * (want[2] + 2)
        return flows[0]

    rng = random.Random(151)
    solved = []
    for i in range(500):
        flavor = (Flavor.EDGE, Flavor.VERTEX)[i % 2]
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.randint(1, 10), wmin=0, wmax=4,
                         inf_prob=0.1)
        r = rng.randint(1, 3)
        inst = Instance(g, DemandSet(random_pairs(rng, n, r)),
                        rng.randint(1, 3), flavor)
        spent = check(inst)
        if spent is not None:
            solved.append(spent)
    assert len(solved) > 400
    # The search spends 19 244 flows without the witness bound, 16 306 with
    # it, and 10 973 when feasible_cut's weight is its starting bound too.
    assert sum(solved) <= 10_973
    # The bounds' edge cases, at k = 1, 2, 3 and in both flavors: pair (0,2)
    # has only INF edges past its heaviest, first-ordered edge; pair (0,1) of
    # the second graph is joined by two direct edges, one of weight 0. At
    # k = 2, feasible_cut's set for the third graph is {0, 1}, of OPT's
    # weight but with a needless zero-weight edge: were it a candidate, it
    # would beat the search's {1} on the tie.
    for n, edges, pairs in [
            (5, [(0, 1, 5), (1, 2, INF), (0, 3, 1), (3, 2, INF), (3, 4, 1),
                 (2, 4, 2)], [(0, 2), (3, 4)]),
            (4, [(0, 1, 2), (0, 1, 0), (0, 2, 1), (2, 1, 1), (0, 3, 1),
                 (3, 1, INF)], [(0, 1), (2, 3)]),
            (3, [(1, 2, 0), (1, 0, 1), (1, 2, 2), (0, 2, INF)], [(0, 1)])]:
        for k in (1, 2, 3):
            for flavor in Flavor:
                check(make_instance(n, edges, pairs, k, flavor))


def test_brute_sparsest_examples():
    path = Graph(3, [(0, 1, 1), (1, 2, 1)])
    cut = brute_force_sparsest(path, DemandSet([(0, 2)]), 1)
    assert cut.sparsity == 1
    two = Graph(4, [(0, 1, 1), (2, 3, 1)])
    cut = brute_force_sparsest(two, DemandSet([(0, 2)]), 1)
    assert cut.sparsity == 0


def test_brute_sparsest_cap():
    g = Graph(15, [(0, 1, 1)])
    with pytest.raises(CapExceeded):
        brute_force_sparsest(g, DemandSet([(0, 1)]), 1)


def test_log_lower_bounds():
    for x in (2, 3, 5, 10, 100):
        lo = log_lower(x)
        with mpmath.workdps(80):
            assert mpmath.mpf(lo.numerator) / lo.denominator < mpmath.ln(x)
        assert float(lo) == pytest.approx(math.log(x), abs=1e-12)


def _log_lower_mpmath(x, digits):
    with mpmath.workdps(digits + 15):
        scaled = mpmath.floor(mpmath.ln(x) * mpmath.mpf(10) ** digits)
    return Fraction(int(scaled) - 1, 10 ** digits)


def test_log_lower_matches_mpmath_formula():
    rng = random.Random(157)
    xs = list(range(1, 3001))
    xs += [v for j in range(301) for v in (2**j - 1, 2**j, 2**j + 1) if v]
    xs += [rng.randrange(1, 2**200) for _ in range(200)]
    for digits in (1, 5, 10, 30, 50, 80):
        for x in xs:
            assert log_lower(x, digits) == _log_lower_mpmath(x, digits), \
                (x, digits)


def test_cost_bound_uniform_example():
    # uniform EC, k=2, r=1: bound is 8*2*ln 2
    inst = make_instance(2, [(0, 1, 1), (0, 1, 1)], [(0, 1)], 2)
    bound = cost_bound("uniform-ec", inst)
    assert float(bound) == pytest.approx(16 * math.log(2), rel=1e-9)


def test_ratio_report_fields():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 1)
    res = solve_uniform_ec(inst, SolverParams())
    rep = ratio_report(inst, "uniform-ec", res, instance_id="toy")
    assert rep.opt_weight == 1
    assert rep.ratio == 1
    assert rep.within_bound is True
    assert rep.instance_id == "toy"


def test_ratio_report_zero_opt():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 2)
    res = solve_uniform_ec(inst, SolverParams())
    rep = ratio_report(inst, "uniform-ec", res)
    assert rep.opt_weight == 0
    assert rep.ratio == 1
    assert rep.within_bound is True


def test_ratio_report_unbounded_algorithms():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 1,
                         Flavor.VERTEX)
    from kroutecut import solve_vc
    res = solve_vc(inst, SolverParams())
    rep = ratio_report(inst, "vc", res)
    assert rep.bound is None
    assert rep.within_bound is None


def test_uniform_sparsity_check_needs_premise():
    inst = make_instance(3, [(0, 1, 1)], [(0, 2)], 1)
    lhs, rhs, ok = uniform_sparsity_vs_opt(inst)
    assert not ok


def test_uniform_sparsity_inequality_random():
    rng = random.Random(113)
    hits = 0
    while hits < 20:
        inst = random_instance(rng, rng.randint(3, 6), rng.randint(3, 10),
                               rng.randint(1, 3), rng.randint(1, 2), unit=True)
        lhs, rhs, ok = uniform_sparsity_vs_opt(inst)
        if ok:
            hits += 1
            assert lhs <= rhs


def test_route_sparsity_inequality_random():
    rng = random.Random(127)
    hits = 0
    while hits < 12:
        inst = random_instance(rng, rng.randint(3, 6), rng.randint(3, 10),
                               rng.randint(2, 3), rng.randint(1, 2))
        lhs, rhs, ok = route_sparsity_vs_opt(inst)
        if ok:
            hits += 1
            assert lhs <= rhs


def test_two_route_sparsity_skips_adjacent_pairs():
    inst = make_instance(2, [(0, 1, 1)], [(0, 1)], 2, Flavor.VERTEX)
    _, _, ok = two_route_vertex_sparsity_vs_opt(inst)
    assert not ok
