"""Brute-force exact solvers and inequality checkers.

Everything here is deliberately independent of the oracle implementations it
is used to validate: subset enumeration and branch and bound only, written in
the plainest possible style.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CapExceeded, Infeasible
from .graph import (INF, CutSolution, DemandSet, Flavor, Graph, Instance,
                    connectivity, wsum)
from .oracles import CutKind, SparseCut
from .solvers import GRID_EPSILON, SolveResult

BRUTE_EDGE_CAP = 22
BRUTE_VERTEX_CAP = 14


@dataclass(frozen=True)
class RatioReport:
    instance_id: str
    algorithm: str
    solution_weight: int
    opt_weight: int
    ratio: Fraction
    bound: Optional[Fraction]
    within_bound: Optional[bool]


def log_lower(x: int, digits: int = 50) -> Fraction:
    """Rational lower bound on ln(x), within 10^-digits of the true value."""
    if x <= 0:
        raise ValueError("log_lower needs a positive argument")
    # Imported here: mpmath adds about 4 MiB and 40 ms to every import of the
    # package, and only the ratio bounds need it.
    import mpmath
    with mpmath.workdps(digits + 15):
        scaled = mpmath.floor(mpmath.ln(x) * mpmath.mpf(10) ** digits)
    return Fraction(int(scaled) - 1, 10 ** digits)


def brute_force_opt(inst: Instance) -> CutSolution:
    """Minimum-weight feasible cut by branch and bound over finite edges."""
    g = inst.graph
    finite = [i for i, e in enumerate(g.edges) if e.w < INF]
    if len(finite) > BRUTE_EDGE_CAP:
        raise CapExceeded(f"{len(finite)} finite edges exceeds cap {BRUTE_EDGE_CAP}")
    k = inst.k

    all_removed = frozenset(finite)
    violated0 = [
        (s, t) for s, t in inst.demands.pairs
        if connectivity(g, s, t, inst.flavor, limit=k) >= k
    ]
    for s, t in violated0:
        if connectivity(g, s, t, inst.flavor, exclude=all_removed, limit=k) >= k:
            raise Infeasible(f"pair ({s},{t}) stays {k}-connected without finite edges")

    order = sorted(finite, key=lambda i: (-g.edges[i].w, i))
    # Removing every finite edge is feasible by the check above.
    best_cost = sum(g.edges[i].w for i in finite)
    best_ids = tuple(sorted(finite))

    def dfs(idx: int, removed: list[int], cost: int, violated) -> None:
        nonlocal best_cost, best_ids
        if cost > best_cost:
            return
        excl = frozenset(removed)
        still = [
            (s, t) for s, t in violated
            if connectivity(g, s, t, inst.flavor, exclude=excl, limit=k) >= k
        ]
        if not still:
            key = (cost, tuple(sorted(removed)))
            if key < (best_cost, best_ids):
                best_cost, best_ids = key
            return
        if idx == len(order):
            return
        e = order[idx]
        w = g.edges[e].w
        if cost + w <= best_cost:
            removed.append(e)
            dfs(idx + 1, removed, cost + w, still)
            removed.pop()
        dfs(idx + 1, removed, cost, still)

    dfs(0, [], 0, violated0)
    return CutSolution(frozenset(best_ids), best_cost, k)


def brute_force_sparsest(g: Graph, demands: DemandSet, k: int,
                         flavor: Flavor = Flavor.EDGE,
                         kind: CutKind = CutKind.NONUNIFORM) -> SparseCut:
    """Exhaustive minimization over (side, free edges) or (side, separator)."""
    n = g.vertex_count
    if n > BRUTE_VERTEX_CAP:
        raise CapExceeded(f"{n} vertices exceeds cap {BRUTE_VERTEX_CAP}")
    if demands.r < 1:
        raise ValueError("need at least one demand pair")
    two_r = 2 * demands.r
    pv = demands.per_vertex
    vertices = list(range(n))
    best = None  # (num, den, side, free, separator)

    if flavor is Flavor.EDGE:
        for size in range(1, n):
            for side_t in itertools.combinations(vertices, size):
                side = frozenset(side_t)
                if kind is CutKind.UNIFORM:
                    d = demands.count_in(side)
                    den = min(d, two_r - d)
                else:
                    den = sum(1 for s, t in demands.pairs
                              if (s in side) != (t in side))
                if den == 0:
                    continue
                cut = g.cut_edges(side)
                cut.sort(key=lambda i: (-g.edges[i].w, i))
                free = cut[:k - 1]
                num = wsum(g.edges[i].w for i in cut[k - 1:])
                if best is None or num * best[1] < best[0] * den:
                    best = (num, den, side, frozenset(free), frozenset())
    else:
        for dsize in range(0, k):
            for delta_t in itertools.combinations(vertices, dsize):
                delta = frozenset(delta_t)
                rest = [v for v in vertices if v not in delta]
                d_rest = sum(pv.get(v, 0) for v in rest)
                for size in range(1, len(rest)):
                    for side_t in itertools.combinations(rest, size):
                        side = frozenset(side_t)
                        if kind is CutKind.UNIFORM:
                            d = demands.count_in(side)
                            den = min(d, d_rest - d)
                        else:
                            den = sum(
                                1 for s, t in demands.pairs
                                if s not in delta and t not in delta
                                and (s in side) != (t in side))
                        if den == 0:
                            continue
                        num = wsum(
                            e.w for e in g.edges
                            if e.u not in delta and e.v not in delta
                            and (e.u in side) != (e.v in side))
                        if best is None or num * best[1] < best[0] * den:
                            best = (num, den, side, frozenset(), delta)

    if best is None:
        raise Infeasible("no cut with positive denominator")
    num, den, side, free, delta = best
    return SparseCut(side=side, kind=kind, residual_weight=num, denominator=den,
                     sparsity=Fraction(num, den), free_edges=free, separator=delta)


# ---------------------------------------------------------------------------
# Per-algorithm cost bounds (oracle factor 1) and ratio reports.


def cost_bound(algorithm: str, inst: Instance, delta: Fraction = Fraction(0),
               c: Fraction = Fraction(1)) -> Optional[Fraction]:
    """Guaranteed cost ratio for an algorithm run with exact oracles.

    Logarithms enter as rational lower bounds of the true transcendental
    value, so a reported pass is always sound. Algorithms without a pinned
    desk-scale bound return None.
    """
    r = inst.demands.r
    k = inst.k
    if r == 0:
        return Fraction(1)
    ln1r = log_lower(1 + r)
    if algorithm == "uniform-ec":
        if delta == 0:
            return 8 * k * ln1r
        return 8 * (1 + 1 / delta) * ln1r
    if algorithm == "ec":
        return 32 * (r.bit_length()) * ln1r  # bit_length(r) == floor(log2 r)+1
    if algorithm == "two-route":
        return 16 * ln1r
    if algorithm == "st":
        return (1 + c) * (1 + GRID_EPSILON)
    return None


def ratio_report(inst: Instance, algorithm_name: str, sol: SolveResult,
                 instance_id: str = "", delta: Fraction = Fraction(0),
                 c: Fraction = Fraction(1)) -> RatioReport:
    """Solution weight against the brute-force optimum at the original k."""
    opt = brute_force_opt(inst)
    sw = sol.solution.total_weight
    if opt.total_weight == 0:
        if sw != 0:
            raise ValueError("positive-weight solution on a zero-cost instance")
        ratio = Fraction(1)
    else:
        ratio = Fraction(sw, opt.total_weight)
    bound = cost_bound(algorithm_name, inst, delta=delta, c=c)
    within = None if bound is None else ratio <= bound
    return RatioReport(instance_id=instance_id, algorithm=algorithm_name,
                       solution_weight=sw, opt_weight=opt.total_weight,
                       ratio=ratio, bound=bound, within_bound=within)


# ---------------------------------------------------------------------------
# Sparsity-versus-optimum inequality checks. Both sides are exact rationals;
# each returns (lhs, rhs, premise_held).


def _all_pairs_connected(inst: Instance, threshold: int) -> bool:
    return all(
        connectivity(inst.graph, s, t, inst.flavor, limit=threshold) >= threshold
        for s, t in inst.demands.pairs)


def uniform_sparsity_vs_opt(inst: Instance):
    """Uniform sparsity <= 2k * OPT / r, valid when all pairs are k-connected."""
    if not _all_pairs_connected(inst, inst.k):
        return None, None, False
    phi = brute_force_sparsest(inst.graph, inst.demands, 1,
                               Flavor.EDGE, CutKind.UNIFORM).sparsity
    opt = brute_force_opt(inst).total_weight
    rhs = Fraction(2 * inst.k * opt, inst.demands.r)
    return phi, rhs, True


def relaxed_uniform_sparsity_vs_opt(inst: Instance, delta: Fraction):
    """Uniform sparsity <= 2(1+1/delta) * OPT / r under (1+delta)k-connectivity."""
    threshold = math.ceil((1 + delta) * inst.k)
    if not _all_pairs_connected(inst, threshold):
        return None, None, False
    phi = brute_force_sparsest(inst.graph, inst.demands, 1,
                               Flavor.EDGE, CutKind.UNIFORM).sparsity
    opt = brute_force_opt(inst).total_weight
    rhs = 2 * (1 + 1 / delta) * Fraction(opt, inst.demands.r)
    return phi, rhs, True


def route_sparsity_vs_opt(inst: Instance):
    """(2k-1)-route non-uniform sparsity <= 16 * OPT * (floor(log2 r)+1) / r."""
    threshold = 2 * inst.k - 1
    if inst.demands.r < 2 or not _all_pairs_connected(inst, threshold):
        return None, None, False
    phi = brute_force_sparsest(inst.graph, inst.demands, threshold,
                               Flavor.EDGE, CutKind.NONUNIFORM).sparsity
    opt = brute_force_opt(inst).total_weight
    r = inst.demands.r
    rhs = Fraction(16 * opt * r.bit_length(), r)
    return phi, rhs, True


def two_route_vertex_sparsity_vs_opt(inst: Instance):
    """Uniform vertex 2-route sparsity <= 4 * OPT / r (k = 2 only).

    Requires every demand pair to be non-adjacent: an adjacent pair can end
    up with one disjoint path but no one-vertex separator, and then no cut
    of sparsity zero exists even though the optimum costs nothing.
    """
    if inst.k != 2 or inst.flavor is not Flavor.VERTEX:
        return None, None, False
    terminals = set(map(frozenset, inst.demands.pairs))
    if any(frozenset((e.u, e.v)) in terminals for e in inst.graph.edges):
        return None, None, False
    psi = brute_force_sparsest(inst.graph, inst.demands, 2,
                               Flavor.VERTEX, CutKind.UNIFORM).sparsity
    opt = brute_force_opt(inst).total_weight
    rhs = Fraction(4 * opt, inst.demands.r)
    return psi, rhs, True
