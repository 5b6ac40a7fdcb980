"""Brute-force exact solvers and inequality checkers.

Everything here is deliberately independent of the oracle implementations it
is used to validate: subset enumeration and branch and bound only, written in
the plainest possible style. The branch and bound reuses its own flow answers
and skips only subtrees holding no feasible set and nodes above an upper
bound on the optimum, so it returns the set of the plain search that
tests/test_exact.py keeps as its reference. The bound is the weight of a
feasible set found by union-find alone, without flows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CapExceeded, Infeasible
from .graph import (INF, CutSolution, DemandSet, Flavor, Graph, Instance,
                    PathCounter, connectivity, wsum)
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
    ratio: Optional[Fraction]  # None when a zero optimum meets a positive weight
    bound: Optional[Fraction]
    within_bound: Optional[bool]


def _atanh_bounds(p: int, q: int, bits: int) -> tuple[int, int]:
    """Integers lo <= atanh(p/q) * 2^bits <= hi, for 0 <= p/q <= 1/3.

    The series sum of (p/q)^(2i+1) / (2i+1) is floor-summed in fixed point.
    Each power is floored from the one before, so it lies less than 9/8
    below its true value (every step adds under 1 to an error shrunk by
    (p/q)^2 <= 1/9); each term then lies less than 3 below its own, and the
    terms from the first zero power on sum to less than 2.
    """
    p2, q2 = p * p, q * q
    power = (p << bits) // q
    lo = terms = 0
    while power:
        lo += power // (2 * terms + 1)
        power = power * p2 // q2
        terms += 1
    return lo, lo + 3 * terms + 2


def log_lower(x: int, digits: int = 50) -> Fraction:
    """Rational lower bound on ln(x), within 10^-digits of the true value.

    It is (floor(ln(x) * 10^digits) - 1) / 10^digits, in integers only:
    ln x = 2e atanh(1/3) + 2 atanh((x - 2^e) / (x + 2^e)) with
    2^e <= x < 2^(e+1), bracketed in fixed point with guard bits doubled
    until both ends give the same floor.
    """
    if x <= 0:
        raise ValueError("log_lower needs a positive argument")
    e = x.bit_length() - 1
    scale = 10 ** digits
    guard = 32
    while True:
        bits = digits * 10 // 3 + guard  # 10/3 > log2(10)
        lo2, hi2 = _atanh_bounds(1, 3, bits)
        lo, hi = _atanh_bounds(x - (1 << e), x + (1 << e), bits)
        low = (2 * (e * lo2 + lo) * scale) >> bits
        if low == (2 * (e * hi2 + hi) * scale) >> bits:
            return Fraction(low - 1, scale)
        guard *= 2


def _heaviest_first(g: Graph) -> list[int]:
    """Finite edge ids by weight, heaviest first, ties by id."""
    finite = [i for i, e in enumerate(g.edges) if e.w < INF]
    return sorted(finite, key=lambda i: (-g.edges[i].w, i))


def feasible_cut(inst: Instance,
                 pairs: Sequence[tuple[int, int]]) -> Optional[list[int]]:
    """Finite edges whose removal leaves each pair under k disjoint paths,
    found by union-find alone; None if a pair is joined by INF edges alone.

    Disconnect: from G minus every finite edge, put back, heaviest first,
    each edge whose return joins no pair; D is the rest. Each side S, the
    component of a pair's s in G - D, then has its whole boundary in D.
    Give back: heaviest first, return each edge of D while every side it
    crosses has had fewer than k - 1 edges returned. Each pair's S then keeps
    at most k - 1 boundary edges, so fewer than k edge-disjoint, and so fewer
    than k vertex-disjoint, s-t paths remain.
    """
    g = inst.graph
    root = list(range(g.vertex_count))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in g.edges:
        if e.w == INF:
            root[find(e.u)] = find(e.v)
    if any(find(s) == find(t) for s, t in pairs):
        return None
    cut = []
    for i in _heaviest_first(g):
        a, b = find(g.edges[i].u), find(g.edges[i].v)
        if a != b and any({find(s), find(t)} == {a, b} for s, t in pairs):
            cut.append(i)
        else:
            root[a] = b
    budget = {find(s): inst.k - 1 for s, _ in pairs}
    removed = []
    for i in cut:
        sides = {find(g.edges[i].u), find(g.edges[i].v)} & budget.keys()
        if all(budget[side] for side in sides):
            for side in sides:
                budget[side] -= 1
        else:
            removed.append(i)
    return removed


def brute_force_opt(inst: Instance) -> CutSolution:
    """Minimum-weight feasible cut by branch and bound over finite edges.

    Edges are tried heaviest first. Each node takes one more edge; the
    branches that leave edges in keep the node's removed set, and so its
    answers, and run as a loop at the node. For every pair still
    k-connected the edges of its last k-path flow are kept: taking an edge
    outside them leaves the pair k-connected, so only the pairs whose flow
    used the taken edge get a new flow, on one reusable unit network.

    A feasible set cuts an edge of every such flow, and below a node only
    later edges are taken, so the node's loop ends at the earliest of its
    pairs' latest finite flow edges. The search starts from the weight of
    `feasible_cut`'s set when that is below the finite total. Only subtrees
    holding no feasible set and nodes above a bound no less than the optimum
    are skipped, so every node of optimal weight is still met, and among
    equal weights the lexicographically least sorted id tuple still wins.
    """
    g = inst.graph
    order = _heaviest_first(g)
    if len(order) > BRUTE_EDGE_CAP:
        raise CapExceeded(f"{len(order)} finite edges exceeds cap {BRUTE_EDGE_CAP}")
    k = inst.k
    paths = PathCounter(g, inst.flavor)

    def connected(s: int, t: int, removed) -> Optional[frozenset[int]]:
        """The edges of k disjoint s-t paths avoiding `removed`, if any."""
        if paths.count(s, t, removed, limit=k) >= k:
            return paths.used_edges()
        return None

    violated0 = []
    for s, t in inst.demands.pairs:
        used = connected(s, t, ())
        if used is not None:
            violated0.append((s, t, used))
    for s, t, _ in violated0:
        if connected(s, t, order) is not None:
            raise Infeasible(f"pair ({s},{t}) stays {k}-connected without finite edges")

    pos = {e: j for j, e in enumerate(order)}

    def latest(used: frozenset[int]) -> int:
        """The last order position among a flow's finite edges, or -1."""
        return max((pos[e] for e in used if e in pos), default=-1)

    # Removing every finite edge is feasible by the check above.
    best_cost = sum(g.edges[i].w for i in order)
    best_ids = tuple(sorted(order))
    # A cheaper feasible set only bounds the search: it may hold needless
    # zero-weight edges, and then its ids could win a tie against the search's
    # own leaf. So its ids are a sentinel that sorts after every id tuple.
    cut = feasible_cut(inst, [(s, t) for s, t, _ in violated0])
    if cut is not None:
        bound = sum(g.edges[i].w for i in cut)
        if bound < best_cost:
            best_cost, best_ids = bound, (g.edge_count,)

    def dfs(idx: int, removed: list[int], cost: int, violated) -> None:
        nonlocal best_cost, best_ids
        if cost > best_cost:
            return
        if not violated:
            key = (cost, tuple(sorted(removed)))
            if key < (best_cost, best_ids):
                best_cost, best_ids = key
            return
        # Every pair's flow must lose an edge taken at this node or below.
        last = min(p for _, _, _, p in violated)
        for j in range(idx, last + 1):
            if cost > best_cost:
                return
            e = order[j]
            w = g.edges[e].w
            if cost + w <= best_cost:
                removed.append(e)
                still = []
                for s, t, used, p in violated:
                    if e in used:
                        used = connected(s, t, removed)
                        if used is None:
                            continue
                        p = latest(used)
                    still.append((s, t, used, p))
                dfs(j + 1, removed, cost + w, still)
                removed.pop()

    dfs(0, [], 0, [(s, t, used, latest(used)) for s, t, used in violated0])
    return CutSolution(frozenset(best_ids), best_cost, k)


def brute_force_sparsest(g: Graph, demands: DemandSet, k: int,
                         flavor: Flavor = Flavor.EDGE,
                         kind: CutKind = CutKind.NONUNIFORM) -> SparseCut:
    """Exhaustive minimization over (side, free edges) or (side, separator)."""
    if k < 1:
        raise ValueError("k must be >= 1")
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
    """Solution weight against the brute-force optimum at the original k.

    A positive weight against a zero optimum has no finite ratio: the ratio
    is None, and so is within_bound unless the algorithm has a bound, which
    such a solution then misses.
    """
    opt = brute_force_opt(inst)
    sw = sol.solution.total_weight
    if opt.total_weight:
        ratio = Fraction(sw, opt.total_weight)
    else:
        ratio = None if sw else Fraction(1)
    bound = cost_bound(algorithm_name, inst, delta=delta, c=c)
    within = None if bound is None else ratio is not None and ratio <= bound
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
