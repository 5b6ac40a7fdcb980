import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kroutecut
from kroutecut import (DemandSet, Flavor, Graph, Instance, OracleConfig,
                       SolverParams, is_feasible, num_vertex_disjoint_paths,
                       solve_ec, solve_ec_polytime, solve_st, solve_two_route,
                       solve_uniform_ec, solve_vc)
from kroutecut.errors import Infeasible, NoFeasibleGuess, NonUniformWeights
from kroutecut.exact import brute_force_opt
from kroutecut.solvers import GRID_EPSILON

from helpers import make_instance, random_instance

PARAMS = SolverParams()
SWEEP_PARAMS = SolverParams(oracle=OracleConfig(mode="sweep", seed=3))


def test_uniform_ec_trivial_below_threshold():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 2)
    res = solve_uniform_ec(inst, PARAMS)
    assert res.solution.removed_edge_ids == frozenset()


def test_uniform_ec_parallel_gadget():
    # The recursion removes the whole sparsest cut, here both parallel
    # edges; the brute-force optimum is 1 and the cost bound still holds.
    inst = make_instance(2, [(0, 1, 1), (0, 1, 1)], [(0, 1)], 2)
    res = solve_uniform_ec(inst, PARAMS)
    assert is_feasible(inst, res.solution, 2)
    assert brute_force_opt(inst).total_weight == 1
    assert res.solution.total_weight == 2


def test_uniform_ec_two_gadgets():
    inst = make_instance(4, [(0, 1, 1), (0, 1, 1), (2, 3, 1), (2, 3, 1)],
                         [(0, 1), (2, 3)], 2)
    res = solve_uniform_ec(inst, PARAMS)
    assert is_feasible(inst, res.solution, 2)
    assert brute_force_opt(inst).total_weight == 2


def test_uniform_ec_rejects_mixed_weights():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 2)], [(0, 2)], 1)
    with pytest.raises(NonUniformWeights):
        solve_uniform_ec(inst, PARAMS)


def test_uniform_ec_delta_threshold():
    # (1+delta)k rounded up: delta=1/2, k=2 -> pairs only chased below 3,
    # so two parallel paths already satisfy the relaxed requirement
    inst = make_instance(2, [(0, 1, 1)] * 2, [(0, 1)], 2)
    res = solve_uniform_ec(inst, SolverParams(delta=Fraction(1, 2)))
    assert res.guarantee == 3
    assert res.solution.removed_edge_ids == frozenset()
    res0 = solve_uniform_ec(inst, PARAMS)
    assert res0.guarantee == 2
    assert res0.solution.total_weight > 0


def test_ec_k1_multicut_path():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 1)
    res = solve_ec(inst, PARAMS)
    assert res.solution.total_weight == 1
    assert res.guarantee == 1


def test_ec_already_low():
    inst = make_instance(2, [(0, 1, 5), (0, 1, 5)], [(0, 1)], 2)
    res = solve_ec(inst, PARAMS)
    assert res.solution.removed_edge_ids == frozenset()


def test_ec_three_parallel():
    inst = make_instance(2, [(0, 1, 1)] * 3, [(0, 1)], 2)
    res = solve_ec(inst, PARAMS)
    assert res.solution.total_weight == 1
    assert len(res.solution.removed_edge_ids) == 1
    assert is_feasible(inst, res.solution, 3)


def test_ec_drops_pair_each_iteration():
    rng = random.Random(71)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(3, 6), rng.randint(2, 9),
                               rng.randint(1, 3), rng.randint(1, 2))
        res = solve_ec(inst, PARAMS)
        assert len(res.trace) <= inst.demands.r
        assert is_feasible(inst, res.solution, 2 * inst.k - 1)


def test_ec_polytime_matches_contract():
    inst = make_instance(2, [(0, 1, 1)] * 3, [(0, 1)], 2)
    res = solve_ec_polytime(inst, PARAMS)
    assert is_feasible(inst, res.solution, res.guarantee)
    # cost is bounded by the optimum at the realized route count
    relaxed = Instance(inst.graph, inst.demands, res.guarantee, inst.flavor)
    assert res.solution.total_weight <= brute_force_opt(relaxed).total_weight


def test_ec_polytime_k1_delegates():
    inst = make_instance(3, [(0, 1, 2), (1, 2, 3)], [(0, 2)], 1)
    res = solve_ec_polytime(inst, PARAMS)
    assert res.solution.total_weight == 2


def test_ec_polytime_realized_route_bound():
    rng = random.Random(73)
    for _ in range(10):
        inst = random_instance(rng, rng.randint(3, 6), rng.randint(2, 8),
                               rng.randint(1, 3), 2)
        res = solve_ec_polytime(inst, PARAMS)
        # exact multicut backend: |F| <= 2(2k-2), so k' <= 4k-3
        assert res.guarantee <= 4 * inst.k - 3
        assert is_feasible(inst, res.solution, res.guarantee)


def test_vc_examples():
    path = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 2,
                         Flavor.VERTEX)
    assert solve_vc(path, PARAMS).solution.removed_edge_ids == frozenset()

    path1 = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 1,
                          Flavor.VERTEX)
    assert solve_vc(path1, PARAMS).solution.total_weight == 1

    k4 = make_instance(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1),
                           (1, 3, 1), (2, 3, 1)], [(0, 1)], 1, Flavor.VERTEX)
    assert solve_vc(k4, PARAMS).solution.total_weight == 3


def test_two_route_examples():
    path = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2)], 2,
                         Flavor.VERTEX)
    assert solve_two_route(path, PARAMS).solution.removed_edge_ids == frozenset()

    # An adjacent pair has no one-vertex separator, so the split here is
    # forced through the whole cut; the brute-force optimum is 1.
    par = make_instance(2, [(0, 1, 1), (0, 1, 1)], [(0, 1)], 2, Flavor.VERTEX)
    res = solve_two_route(par, PARAMS)
    assert is_feasible(par, res.solution, 2)
    assert brute_force_opt(par).total_weight == 1
    assert res.solution.total_weight == 2

    diamond = make_instance(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)],
                            [(0, 3)], 2, Flavor.VERTEX)
    res = solve_two_route(diamond, PARAMS)
    assert res.solution.total_weight == 1
    assert brute_force_opt(diamond).total_weight == 1


def test_two_route_requires_k2_vertex():
    bad = make_instance(2, [(0, 1, 1)], [(0, 1)], 3, Flavor.VERTEX)
    with pytest.raises(ValueError):
        solve_two_route(bad, PARAMS)


def test_two_route_never_leaves_two_paths():
    rng = random.Random(79)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(2, 10),
                               rng.randint(1, 3), 2, Flavor.VERTEX)
        res = solve_two_route(inst, PARAMS)
        removed = res.solution.removed_edge_ids
        for s, t in inst.demands.pairs:
            assert num_vertex_disjoint_paths(inst.graph, s, t,
                                             exclude=removed) <= 1


def test_st_k1_is_min_cut():
    inst = make_instance(3, [(0, 1, 4), (1, 2, 6)], [(0, 2)], 1,
                         Flavor.VERTEX)
    res = solve_st(inst, PARAMS)
    assert res.solution.total_weight == 4


def test_st_already_below_k():
    inst = make_instance(3, [(0, 1, 5), (1, 2, 5)], [(0, 2)], 2,
                         Flavor.VERTEX)
    res = solve_st(inst, PARAMS)
    assert res.solution.removed_edge_ids == frozenset()
    assert res.guarantee == 2


def test_st_diamond_bicriteria():
    diamond = make_instance(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)],
                            [(0, 3)], 2, Flavor.VERTEX)
    res = solve_st(diamond, SolverParams(c=Fraction(1)))
    opt = brute_force_opt(diamond).total_weight
    assert opt == 1
    eps = Fraction(1, 100)
    assert res.solution.total_weight <= (1 + 1) * (1 + eps) * opt
    assert res.trace[0]["separator_witness"] <= 2


def test_st_exact_k_route_with_c_equals_k():
    rng = random.Random(83)
    for _ in range(15):
        k = rng.randint(2, 3)
        inst = random_instance(rng, rng.randint(3, 6), rng.randint(2, 8), 1,
                               k, Flavor.VERTEX, no_adjacent=True)
        res = solve_st(inst, SolverParams(c=Fraction(k)))
        assert is_feasible(inst, res.solution, k)
        opt = brute_force_opt(inst).total_weight
        assert res.solution.total_weight <= \
            (k + 1) * (1 + GRID_EPSILON) * opt


def test_st_requires_single_pair():
    inst = make_instance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2), (0, 1)], 2,
                         Flavor.VERTEX)
    with pytest.raises(ValueError):
        solve_st(inst, PARAMS)


def test_solvers_feasible_with_sweep_oracle():
    rng = random.Random(89)
    for _ in range(15):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(2, 10),
                               rng.randint(1, 3), rng.randint(1, 2))
        for solver in (solve_ec, solve_ec_polytime):
            res = solver(inst, SWEEP_PARAMS)
            assert is_feasible(inst, res.solution, res.guarantee)
        vinst = Instance(inst.graph, inst.demands, inst.k, Flavor.VERTEX)
        res = solve_vc(vinst, SWEEP_PARAMS)
        assert is_feasible(vinst, res.solution, res.guarantee)


def test_solver_determinism():
    rng = random.Random(97)
    inst = random_instance(rng, 6, 9, 3, 2)
    a = solve_ec(inst, SWEEP_PARAMS)
    b = solve_ec(inst, SolverParams(oracle=OracleConfig(mode="sweep", seed=3)))
    assert a.solution == b.solution
    assert a.trace == b.trace


def test_uniform_all_inf_infeasible():
    from kroutecut import INF
    inst = make_instance(2, [(0, 1, INF), (0, 1, INF)], [(0, 1)], 2)
    with pytest.raises(Infeasible):
        solve_uniform_ec(inst, PARAMS)


def test_uniform_ec_delta_cost_bound():
    # with slack delta the removed weight stays within
    # 8(1+1/delta) ln(1+r) times the optimum at the original k
    from kroutecut.exact import cost_bound
    rng = random.Random(131)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(3, 12),
                               rng.randint(1, 3), rng.randint(1, 3), unit=True)
        for delta in (Fraction(1, 4), Fraction(1, 2)):
            res = solve_uniform_ec(inst, SolverParams(delta=delta))
            assert is_feasible(inst, res.solution, res.guarantee)
            opt = brute_force_opt(inst).total_weight
            bound = cost_bound("uniform-ec", inst, delta=delta)
            if opt == 0:
                assert res.solution.total_weight == 0
            else:
                assert Fraction(res.solution.total_weight) <= bound * opt


def test_trace_edges_match_solution():
    rng = random.Random(137)
    for _ in range(12):
        inst = random_instance(rng, rng.randint(3, 6), rng.randint(3, 9),
                               rng.randint(1, 3), rng.randint(1, 2))
        for solver in (solve_ec, solve_ec_polytime):
            res = solver(inst, PARAMS)
            traced = set()
            for rec in res.trace:
                traced.update(rec["removed_edges"])
            assert traced == set(res.solution.removed_edge_ids)
        uinst = random_instance(rng, rng.randint(3, 6), rng.randint(3, 9),
                                rng.randint(1, 3), rng.randint(1, 2),
                                unit=True)
        res = solve_uniform_ec(uinst, PARAMS)
        traced = set()
        for rec in res.trace:
            traced.update(rec["removed_edges"])
        assert traced == set(res.solution.removed_edge_ids)


def test_st_all_zero_weights():
    from kroutecut import INF
    diamond = make_instance(4, [(0, 1, 0), (1, 3, 0), (0, 2, 0), (2, 3, 0)],
                            [(0, 3)], 2, Flavor.VERTEX)
    res = solve_st(diamond, PARAMS)
    assert res.solution.total_weight == 0
    assert is_feasible(diamond, res.solution, 2)
    pinned = make_instance(4, [(0, 1, INF), (1, 3, INF), (0, 2, INF),
                               (2, 3, INF)], [(0, 3)], 2, Flavor.VERTEX)
    with pytest.raises(Infeasible):
        solve_st(pinned, PARAMS)


def test_self_check_raises_under_optimize():
    # The output re-check must survive python -O, which strips asserts.
    script = (
        "import kroutecut.solvers as solvers\n"
        "from kroutecut.cli import gen_instance\n"
        "from kroutecut.errors import SelfCheckFailed\n"
        "solvers.is_feasible = lambda *args: False\n"
        "inst, _ = gen_instance('random', {}, 0)\n"
        "try:\n"
        "    solvers.solve_ec(inst, solvers.SolverParams())\n"
        "except SelfCheckFailed:\n"
        "    print('SelfCheckFailed')\n"
    )
    env = dict(os.environ,
               PYTHONPATH=str(Path(kroutecut.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "SelfCheckFailed"
