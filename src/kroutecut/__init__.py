"""Multi-route cut algorithms with exact desk-scale oracles."""

from .graph import (INF, CutSolution, DemandSet, Edge, Flavor, Graph,
                    Instance, connectivity, induced_subinstance, is_feasible,
                    min_weight_edge_st_cut, min_weight_vertex_st_cut,
                    num_edge_disjoint_paths, num_vertex_disjoint_paths)
from .oracles import (CutKind, GomoryHuTree, LaminarMinCutFamily,
                      OracleConfig, SparseCut, gomory_hu,
                      k_route_sparsest_cut, k_route_sparsest_cut_bicriteria,
                      l_multicut, laminar_min_cut_family, sparsest_cut,
                      vertex_k_route_sparsest_cut)
from .solvers import (SOLVERS, SolveResult, SolverParams, solve_ec,
                      solve_ec_polytime, solve_st, solve_two_route,
                      solve_uniform_ec, solve_vc)

__all__ = [
    "INF", "CutSolution", "DemandSet", "Edge", "Flavor", "Graph",
    "Instance", "connectivity", "induced_subinstance", "is_feasible",
    "min_weight_edge_st_cut", "min_weight_vertex_st_cut",
    "num_edge_disjoint_paths", "num_vertex_disjoint_paths",
    "CutKind", "GomoryHuTree", "LaminarMinCutFamily", "OracleConfig",
    "SparseCut", "gomory_hu", "k_route_sparsest_cut",
    "k_route_sparsest_cut_bicriteria", "l_multicut", "laminar_min_cut_family",
    "sparsest_cut", "vertex_k_route_sparsest_cut",
    "SOLVERS", "SolveResult", "SolverParams", "solve_ec", "solve_ec_polytime",
    "solve_st", "solve_two_route", "solve_uniform_ec", "solve_vc",
]
