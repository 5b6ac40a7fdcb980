"""Multi-route cut solvers.

Every solver returns a SolveResult whose solution is feasible at the declared
guarantee: each demand pair is left with strictly fewer than `guarantee`
disjoint paths of the instance's flavor. Feasibility is re-checked before
returning, independent of the oracle quality, so heuristic oracle modes only
affect cost, never validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (Infeasible, NoFeasibleGuess, NonUniformWeights,
                     SelfCheckFailed)
from .graph import (INF, CutSolution, DemandSet, Flavor, Graph, Instance,
                    connectivity, induced_subinstance, is_feasible,
                    min_weight_edge_st_cut, min_weight_vertex_st_cut,
                    num_vertex_disjoint_paths)
from .oracles import (CutKind, OracleConfig, k_route_sparsest_cut,
                      k_route_sparsest_cut_bicriteria, sparsest_cut,
                      vertex_k_route_sparsest_cut)

# Grid step of `st`'s guesses of OPT, and so the (1 + eps) in its bound.
GRID_EPSILON = Fraction(1, 100)


@dataclass(frozen=True)
class SolverParams:
    oracle: OracleConfig = OracleConfig()
    delta: Fraction = Fraction(0)            # connectivity slack, [0, 1)
    c: Fraction = Fraction(1)                # single-pair cost tradeoff, > 0

    def __post_init__(self):
        if not (0 <= self.delta < 1):
            raise ValueError("delta must lie in [0, 1)")
        if self.c <= 0:
            raise ValueError("c must be positive")


@dataclass(frozen=True)
class SolveResult:
    solution: CutSolution
    guarantee: int
    trace: tuple[dict, ...]


def _live_pairs(g: Graph, pairs, flavor: Flavor, threshold: int):
    return [(s, t) for s, t in pairs
            if connectivity(g, s, t, flavor, limit=threshold) >= threshold]


def _guard_finite(g: Graph, edge_ids) -> None:
    for e in edge_ids:
        if g.weight(e) >= INF:
            raise Infeasible("separating the remaining pairs requires an "
                             "infinite-weight edge")


def _side_edges(g: Graph, side: frozenset[int], outside: frozenset[int]):
    return [i for i, e in enumerate(g.edges)
            if (e.u in side and e.v in outside) or (e.v in side and e.u in outside)]


def _finish(inst: Instance, removed, guarantee: int, trace) -> SolveResult:
    sol = CutSolution.from_edges(inst.graph, removed, guarantee)
    if not is_feasible(inst, sol, guarantee):
        raise SelfCheckFailed("solver produced an infeasible cut")
    return SolveResult(sol, guarantee, tuple(trace))


def _round_solve(inst: Instance, threshold: int, step) -> SolveResult:
    """Round loop of `ec`, `ec-polytime` and `vc`.

    Each round deletes a cut and drops the pairs that fell below the round's
    bound. `step(g, demands)` sees the current graph and the live pairs and
    returns (edge ids of g to delete, trace record, the round's bound);
    "free_edges" in the record are ids of g too. Every round must drop a
    pair, and the guarantee is the largest bound any round held its pairs to.
    """
    g = inst.graph
    emap = list(range(g.edge_count))
    pairs = _live_pairs(g, inst.demands.pairs, inst.flavor, threshold)
    removed: set[int] = set()
    trace = []
    guarantee = threshold
    while pairs:
        e0, rec, bound = step(g, DemandSet(pairs))
        _guard_finite(g, e0)
        removed.update(emap[e] for e in e0)
        guarantee = max(guarantee, bound)
        if "free_edges" in rec:
            rec["free_edges"] = sorted(emap[e] for e in rec["free_edges"])
        rec["removed_edges"] = sorted(emap[e] for e in e0)
        g, idmap = g.without_edges(e0)
        emap = [emap[i] for i in idmap]
        survivors = _live_pairs(g, pairs, inst.flavor, bound)
        dropped = [p for p in pairs if p not in survivors]
        if not dropped:
            raise SelfCheckFailed("an iteration must drop at least one pair")
        rec["dropped_pairs"] = sorted([s, t] for s, t in dropped)
        trace.append(rec)
        pairs = survivors
    return _finish(inst, removed, guarantee, trace)


def _split_solve(inst: Instance, threshold: int, split) -> SolveResult:
    """Divide and conquer of `uniform-ec` and `two-route`, on an explicit stack.

    `split(g, demands)` returns a SparseCut with side S and separator D of
    the current sub-instance. The edges from S to the rest R are removed and
    the induced sub-instances on S+D and R+D are solved in turn, so the trace
    lists the splits in pre-order, with original vertex and edge ids. Vertex
    instances record the separator.
    """
    g = inst.graph
    stack = [(g, inst.demands.pairs, range(g.vertex_count), range(g.edge_count))]
    removed: set[int] = set()
    trace = []
    while stack:
        g, pairs, vmap, emap = stack.pop()
        live = _live_pairs(g, pairs, inst.flavor, threshold)
        if not live:
            continue
        cut = split(g, DemandSet(live))
        side, delta = cut.side, cut.separator
        outside = frozenset(range(g.vertex_count)) - side - delta
        e0 = _side_edges(g, side, outside)
        _guard_finite(g, e0)
        removed.update(emap[e] for e in e0)
        crossing = [(s, t) for s, t in live
                    if (s in side and t in outside) or (t in side and s in outside)]
        rec = {
            "cut_side": sorted(vmap[v] for v in side),
            "removed_edges": sorted(emap[e] for e in e0),
            "sparsity": str(cut.sparsity),
            "dropped_pairs": sorted([vmap[s], vmap[t]] for s, t in crossing),
        }
        if inst.flavor is Flavor.VERTEX:
            rec["separator"] = sorted(vmap[v] for v in delta)
        trace.append(rec)
        parts = []
        for part in (side | delta, outside | delta):
            if len(part) >= g.vertex_count:
                raise SelfCheckFailed("a split must shrink the vertex set")
            shell = Instance(g, DemandSet((s, t) for s, t in live
                                          if s in part and t in part),
                             inst.k, inst.flavor)
            sub = induced_subinstance(shell, part)
            parts.append((sub.instance.graph, sub.instance.demands.pairs,
                          [vmap[v] for v in sub.orig_vertex],
                          [emap[e] for e in sub.orig_edge]))
        stack.extend(reversed(parts))
    return _finish(inst, removed, threshold, trace)


# ---------------------------------------------------------------------------
# Uniform edge connectivity: divide and conquer on sparsest cuts.


def solve_uniform_ec(inst: Instance, params: SolverParams) -> SolveResult:
    """Recursive sparsest-cut partitioning for uniform edge weights.

    With delta > 0 pairs are only chased below ceil((1+delta)k) paths, which
    keeps the removed-edge budget independent of k.
    """
    if inst.flavor is not Flavor.EDGE:
        raise ValueError("solve_uniform_ec needs an edge-connectivity instance")
    weights = {e.w for e in inst.graph.edges}
    if len(weights) > 1:
        raise NonUniformWeights(f"distinct weights {sorted(weights)}")
    k_plus = math.ceil((1 + params.delta) * inst.k)
    return _split_solve(inst, k_plus, lambda g, dem: sparsest_cut(
        g, dem, CutKind.UNIFORM, params.oracle))


# ---------------------------------------------------------------------------
# Non-uniform edge connectivity: iterative multi-route sparse cuts.


def solve_ec(inst: Instance, params: SolverParams) -> SolveResult:
    """Iterative (2k-1)-route sparsest-cut rounds; pairs end below 2k-1."""
    if inst.flavor is not Flavor.EDGE:
        raise ValueError("solve_ec needs an edge-connectivity instance")
    threshold = 2 * inst.k - 1

    def step(g, dem):
        cut = k_route_sparsest_cut(g, dem, threshold, CutKind.NONUNIFORM,
                                   params.oracle)
        cut_ids = sorted(g.cut_edges(cut.side), key=lambda i: (-g.edges[i].w, i))
        return cut_ids[threshold - 1:], {
            "cut_side": sorted(cut.side),
            "free_edges": cut_ids[:threshold - 1],
            "sparsity": str(cut.sparsity),
        }, threshold

    return _round_solve(inst, threshold, step)


def solve_ec_polytime(inst: Instance, params: SolverParams) -> SolveResult:
    """Same loop as solve_ec with the polynomial-time relaxed-route oracle.

    The oracle's free set fixes both the removed edges and the realized route
    count k' = |F|+1 for each round; the reported guarantee is the largest
    threshold any pair was held to.
    """
    if inst.flavor is not Flavor.EDGE:
        raise ValueError("solve_ec_polytime needs an edge-connectivity instance")
    if inst.k == 1:
        # The relaxed oracle needs a route parameter of at least 2; with k=1
        # plain route enumeration is already a single empty free set.
        return solve_ec(inst, params)
    threshold = 2 * inst.k - 1

    def step(g, dem):
        cut = k_route_sparsest_cut_bicriteria(g, dem, threshold, params.oracle)
        k_prime = len(cut.free_edges) + 1
        return sorted(set(g.cut_edges(cut.side)) - cut.free_edges), {
            "cut_side": sorted(cut.side),
            "free_edges": cut.free_edges,
            "sparsity": str(cut.sparsity),
            "realized_k": k_prime,
        }, k_prime

    return _round_solve(inst, threshold, step)


# ---------------------------------------------------------------------------
# Vertex connectivity.


def solve_vc(inst: Instance, params: SolverParams) -> SolveResult:
    """Iterative vertex-flavored multi-route sparse cuts; pairs end below 2k-1."""
    if inst.flavor is not Flavor.VERTEX:
        raise ValueError("solve_vc needs a vertex-connectivity instance")
    threshold = 2 * inst.k - 1

    def step(g, dem):
        cut = vertex_k_route_sparsest_cut(g, dem, threshold, CutKind.NONUNIFORM,
                                          params.oracle)
        outside = frozenset(range(g.vertex_count)) - cut.side - cut.separator
        return _side_edges(g, cut.side, outside), {
            "cut_side": sorted(cut.side),
            "separator": sorted(cut.separator),
            "sparsity": str(cut.sparsity),
        }, threshold

    return _round_solve(inst, threshold, step)


def solve_two_route(inst: Instance, params: SolverParams) -> SolveResult:
    """Exact-k algorithm for vertex connectivity at k=2.

    Splits on a one-vertex separator, removes the side-to-side edges, and
    recurses on both closed sides; no pair retains two vertex-disjoint paths.
    """
    if inst.flavor is not Flavor.VERTEX or inst.k != 2:
        raise ValueError("solve_two_route needs a vertex instance with k=2")
    return _split_solve(inst, 2, lambda g, dem: vertex_k_route_sparsest_cut(
        g, dem, 2, CutKind.UNIFORM, params.oracle))


# ---------------------------------------------------------------------------
# Single source-sink pair.


def _guess_grid(total: int, weights) -> list[int]:
    grid = set(w for w in weights if 0 < w <= total)
    grid.add(total)
    value = Fraction(1)
    while True:
        point = math.ceil(value)
        if point >= total:
            break
        grid.add(point)
        value *= 1 + GRID_EPSILON
    return sorted(grid)


def solve_st(inst: Instance, params: SolverParams) -> SolveResult:
    """Single-pair algorithm via vertex cuts in the edge-subdivision graph.

    Every edge is subdivided by a vertex carrying the edge weight; original
    vertices cost (c/(k-1)) times the current optimum guess. Candidates whose
    original-vertex witness stays below k(1+1/c) qualify; with c=k the witness
    stays below k and the returned cut is feasible at k itself.
    """
    if inst.flavor is not Flavor.VERTEX:
        raise ValueError("solve_st needs a vertex-connectivity instance")
    if inst.demands.r != 1:
        raise ValueError("solve_st needs exactly one demand pair")
    g = inst.graph
    s, t = inst.demands.pairs[0]
    k = inst.k

    if k == 1:
        value, side = min_weight_edge_st_cut(g, s, t)
        if value >= INF:
            raise Infeasible("the pair cannot be disconnected")
        e0 = g.cut_edges(side)
        return _finish(inst, e0, 1, [{"removed_edges": sorted(e0)}])

    if num_vertex_disjoint_paths(g, s, t, limit=k) < k:
        return _finish(inst, set(), k, [])

    n = g.vertex_count
    sub_edges = []
    for i, e in enumerate(g.edges):
        sub_edges.append((e.u, n + i))
        sub_edges.append((n + i, e.v))
    gsub = Graph(n + g.edge_count, [(u, v, 1) for u, v in sub_edges])

    total = g.total_finite_weight()
    if total == 0:
        # Only zero-weight edges are removable; take them all if that works.
        free = [i for i, e in enumerate(g.edges) if e.w < INF]
        if connectivity(g, s, t, Flavor.VERTEX, frozenset(free), limit=k) < k:
            return _finish(inst, free, k, [{"removed_edges": sorted(free)}])
        raise Infeasible("unremovable edges keep the pair connected")
    c = params.c
    scale = c.denominator * (k - 1)
    # The correct-guess cut always meets this witness bound, and it keeps the
    # c=k run strictly below k original vertices, hence genuinely k-route.
    witness_cap = (k - 1) * (1 + 1 / c)

    best = None  # (weight, sorted edge ids, witness size, guess)
    for guess in _guess_grid(total, (e.w for e in g.edges if e.w < INF)):
        weights = {n + i: (e.w * scale if e.w < INF else INF)
                   for i, e in enumerate(g.edges)}
        for v in range(n):
            if v not in (s, t):
                weights[v] = c.numerator * guess
        separator, value = min_weight_vertex_st_cut(gsub, weights, s, t)
        if value >= INF:
            continue
        witness = sorted(v for v in separator if v < n)
        edge_ids = sorted(v - n for v in separator if v >= n)
        if Fraction(len(witness)) > witness_cap:
            continue
        cand = (sum(g.weight(e) for e in edge_ids), tuple(edge_ids),
                len(witness), guess)
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        raise NoFeasibleGuess("no guess produced a qualifying separator")
    weight, edge_ids, witness_size, guess = best
    trace = [{
        "removed_edges": list(edge_ids),
        "separator_witness": witness_size,
        "guess": guess,
    }]
    return _finish(inst, edge_ids, witness_size + 1, trace)


SOLVERS = {
    "uniform-ec": solve_uniform_ec,
    "ec": solve_ec,
    "ec-polytime": solve_ec_polytime,
    "vc": solve_vc,
    "two-route": solve_two_route,
    "st": solve_st,
}
