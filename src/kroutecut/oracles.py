"""Gomory-Hu trees, laminar minimum-cut families, and sparsest-cut oracles.

Sparsity values are exact rationals throughout; no floating point enters a
comparison. Exact oracle modes enumerate subsets and are therefore the
ground truth the solvers are tested against; sweep/greedy modes are seeded
heuristics for larger graphs and carry no stated approximation factor.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import (ExactCapExceeded, FreeSetBlowup, Infeasible,
                     NoCandidateCut, SeparatorBlowup)
# num_edge_disjoint_paths is unused here but stays bound: perfbench's tracer
# test checks that this module's binding is wrapped.
from .graph import (INF, DemandSet, Graph, _edge_net, min_weight_edge_st_cut,
                    num_edge_disjoint_paths, wsum)  # noqa: F401


class CutKind(Enum):
    UNIFORM = "uniform"
    NONUNIFORM = "nonuniform"


@dataclass(frozen=True)
class OracleConfig:
    """Configuration for the pluggable sparsest-cut backends.

    mode "exact" enumerates every vertex subset (factor 1) and refuses graphs
    above exact_vertex_cap; mode "sweep" orders vertices by iterative
    neighbor averaging from seeded random starts and takes the best prefix
    cut. On graphs of at most SWEEP_EXACT_MAX vertices sweep mode scans
    exactly too, so there both modes give the same answers. Enumeration
    budgets are hard errors, never silent truncation.
    """

    mode: str = "exact"
    exact_vertex_cap: int = 20
    seed: int = 0
    sweep_restarts: int = 3
    free_set_budget: int = 200_000
    separator_budget: int = 200_000

    def __post_init__(self):
        if self.mode not in ("exact", "sweep"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")

    @property
    def multicut_mode(self) -> str:
        return "exact" if self.mode == "exact" else "greedy"


@dataclass(frozen=True)
class SparseCut:
    side: frozenset[int]
    kind: CutKind
    residual_weight: int
    denominator: int
    sparsity: Fraction
    free_edges: frozenset[int] = frozenset()
    separator: frozenset[int] = frozenset()


@dataclass(frozen=True)
class GomoryHuTree:
    """Spanning tree whose edges encode all pairwise minimum cuts.

    Capacities carry a deterministic perturbation (weight scaled by 2^m plus
    2^edge_id), so distinct crossing edge sets never tie and, on a connected
    graph, every vertex pair has one minimum cut. On a disconnected graph
    any split of the components is a zero cut, so a pair in different
    components has several. `cap` is the true weight recovered from it.
    """

    vertex_count: int
    tree_edges: tuple[tuple[int, int, int, int], ...]  # (u, v, cap, perturbed)

    def _adj(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v, _, _) in enumerate(self.tree_edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return adj

    def path_edges(self, s: int, t: int) -> list[int]:
        adj = self._adj()
        parent = {s: (-1, -1)}
        queue = [s]
        for u in queue:
            if u == t:
                break
            for v, ei in adj[u]:
                if v not in parent:
                    parent[v] = (u, ei)
                    queue.append(v)
        path = []
        cur = t
        while cur != s:
            prev, ei = parent[cur]
            path.append(ei)
            cur = prev
        path.reverse()
        return path

    def min_edge_on_path(self, s: int, t: int) -> int:
        path = self.path_edges(s, t)
        return min(path, key=lambda ei: self.tree_edges[ei][3])

    def min_cut_value(self, s: int, t: int) -> int:
        return min(self.tree_edges[ei][2] for ei in self.path_edges(s, t))

    def bipartition(self, edge_index: int) -> frozenset[int]:
        """Vertices on the u-side once the given tree edge is removed."""
        u = self.tree_edges[edge_index][0]
        adj = self._adj()
        seen = {u}
        queue = [u]
        for x in queue:
            for y, ei in adj[x]:
                if ei != edge_index and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)


@dataclass(frozen=True)
class LaminarMinCutFamily:
    sets: tuple[frozenset[int], ...]


def perturbed_weights(g: Graph) -> list[int]:
    """w_e scaled by 2^m plus 2^e: sums are unique per edge subset."""
    m = g.edge_count
    return [(e.w << m) | (1 << i) for i, e in enumerate(g.edges)]


def gomory_hu(g: Graph) -> GomoryHuTree:
    """Gusfield's cut tree: n-1 maximum flows on G itself, no contraction
    (Gusfield 1990, "Very simple methods for all pairs network flow
    analysis"). Vertex s takes its minimum cut to its current parent t; the
    vertices that shared t and fall on s's side move under s, and s swaps
    places with t if t's own parent falls on s's side too.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("gomory_hu needs at least two vertices")
    pert = perturbed_weights(g)
    parent = [0] * n
    value = [0] * n
    for s in range(1, n):
        t = parent[s]
        net, _ = _edge_net(g, pert)
        value[s] = net.max_flow(s, t)
        side = net.residual_reachable(s)
        for v in side:
            if v != s and parent[v] == t:
                parent[v] = s
        if parent[t] in side:
            parent[s], parent[t] = parent[t], s
            value[s], value[t] = value[t], value[s]
    m = g.edge_count
    return GomoryHuTree(n, tuple((v, parent[v], min(value[v] >> m, INF),
                                  value[v]) for v in range(1, n)))


def laminar_min_cut_family(g: Graph, demands: DemandSet) -> LaminarMinCutFamily:
    """One minimum cut per demand pair, all nested or disjoint.

    Cuts come from a single Gomory-Hu tree; for each pair the side with the
    smaller terminal count is kept, ties resolved toward the side holding
    the first pair's source. D(S_i) <= r for every set.
    """
    if demands.r < 1:
        raise ValueError("need at least one demand pair")
    tree = gomory_hu(g)
    anchor = demands.pairs[0][0]
    two_r = 2 * demands.r
    sets = []
    for s, t in demands.pairs:
        ei = tree.min_edge_on_path(s, t)
        side = tree.bipartition(ei)
        if s not in side:
            side = frozenset(range(g.vertex_count)) - side
        d_side = demands.count_in(side)
        other = frozenset(range(g.vertex_count)) - side
        if d_side < two_r - d_side:
            chosen = side
        elif d_side > two_r - d_side:
            chosen = other
        else:
            chosen = side if anchor in side else other
        sets.append(chosen)
    return LaminarMinCutFamily(tuple(sets))


# ---------------------------------------------------------------------------
# Sparse-cut scanning. Both backends pick a side of a graph whose vertices
# carry demand counts d_of (summing to d_total) and whose split pairs count
# for the non-uniform denominator; the best side comes back as a bit mask.


def _cut_table(n: int, weighted_edges) -> list[int]:
    """Crossing weight of every vertex subset, by a low-bit DP.

    A subset whose lowest vertex is v is v added to a subset S of higher
    vertices, and adding v changes the cut by deg(v) minus twice the weight
    from v into S; with the lowest vertex taken from n-1 down, the whole
    table costs O(2^n) after an O(n^2 + m) adjacency matrix.
    """
    adj = [[0] * n for _ in range(n)]
    for u, v, w in weighted_edges:
        adj[u][v] += w
        adj[v][u] += w
    table = [0] * (1 << n)
    for low in range(n - 1, -1, -1):
        row = adj[low]
        deg = sum(row)
        up = [0]  # up[S]: weight from low into S, bit j of S = vertex low+1+j
        for w in row[low + 1:]:
            up += [x + w for x in up]
        step = 2 << low
        table[1 << low::step] = [t + deg - 2 * x
                                 for t, x in zip(table[::step], up)]
    return table


def _demand_counts(g: Graph, demands: DemandSet) -> list[int]:
    pv = demands.per_vertex
    return [pv.get(v, 0) for v in range(g.vertex_count)]


@lru_cache(maxsize=1)
def _mask_tables(g: Graph, demands: DemandSet):
    """(big, cut, d_in, cross) per vertex subset, for the exact oracles;
    one set is kept. `cut` weighs each INF edge as big, the finite total
    plus one, so a side crosses an INF edge iff its cut reaches big. `d_in`
    counts the terminals inside and `cross` the demand pairs split."""
    n = g.vertex_count
    big = g.total_finite_weight() + 1
    cut = _cut_table(n, [(u, v, big if w >= INF else w)
                         for u, v, w in g.edges])
    d_in = [0]
    for d in _demand_counts(g, demands):
        d_in += [x + d for x in d_in]
    cross = _cut_table(n, [(s, t, 1) for s, t in demands.pairs])
    return big, cut, d_in, cross


def _heaviest_first(g: Graph, edge_ids) -> list[int]:
    """Edge ids by weight, heaviest (INF) first, then by id."""
    return sorted(edge_ids, key=lambda i: (-g.edges[i].w, i))


def _scan_masks(tables, rest, dm: int, kind: CutKind, ranked=(),
                waive: int = 0, tie_key=None):
    """Least-sparsity proper side of G - D as (numerator, denominator,
    mask), or None if no side has a positive denominator.

    `tables` are G's `_mask_tables`, D is the vertex mask `dm` and `rest`
    the other vertices ascending; bit i of a mask is vertex rest[i]. A side
    and its complement in G - D have the same cut, denominator, waived edges
    and tie key, and the first mask of the pair lacks rest[-1], so only the
    sides without rest[-1] are scanned. With D empty they are the lower
    half of G's tables. Otherwise they are the subsets S of rest[:-1], and
    each table c gives G - D's as c(S) less the sum over v in S of
    (c(v) + c(D) - c(v | D)) / 2, the weight between v and D. The uniform
    denominator min(d, d_total - d) needs G - D's whole terminal count,
    d_in(V) - d_in(D), read before that halving.

    With D empty, each side of positive denominator waives the first
    `waive` edges of `ranked`, (u, v, w) tuples, that cross it: big off its
    cut for an INF edge, w for a finite one. With `ranked` heaviest first
    those are its `waive` heaviest cut edges. A side's numerator is its cut
    if that is below both big and INF, else INF.

    A float quotient shortlists the sides and exact products decide: int/int
    division rounds correctly, and rounding is monotone, so the exact
    minimum has the least float. A tie in sparsity goes to a side whose cut
    is below big, one that crosses no INF edge, over one that is not; then
    to the smaller `tie_key(mask, numerator)` if one is given, else to the
    first mask. The winner keeps its own numerator and denominator, since
    0/2 ties 0/1.
    """
    big, cut, d_in, cross = tables
    lim = min(big, INF)
    d_total = d_in[-1] - d_in[dm]
    dens = cross if kind is CutKind.NONUNIFORM else d_in
    if dm:
        lower = rest[:-1]
        subs = [0]
        for v in lower:
            subs += list(map((1 << v).__or__, subs))
        tabs = []
        for c in (cut, dens):
            off = [0]  # off[i]: weight between side i and D
            for v in lower:
                w = (c[1 << v] + c[dm] - c[1 << v | dm]) >> 1
                off += list(map(w.__add__, off)) if w else off
            tabs.append(list(map(operator.sub, map(c.__getitem__, subs), off)))
        cut, dens = tabs
    else:
        half = len(cut) >> 1
        cut, dens = cut[:half], dens[:half]
    if kind is CutKind.UNIFORM:
        dens = [d if d + d <= d_total else d_total - d for d in dens]
    sides = list(itertools.compress(range(len(dens)), dens))
    if not sides:
        return None
    if waive:  # `cut` is this scan's own copy, never the cached table
        for mask in sides:
            c, left = cut[mask], waive
            for u, v, w in ranked:
                if w == 0:
                    break
                if ((mask >> u) ^ (mask >> v)) & 1:
                    c -= big if w >= INF else w
                    left -= 1
                    if not left:
                        break
            cut[mask] = c
    nums = cut if max(cut) < lim else [c if c < lim else INF for c in cut]
    quots = list(map(operator.truediv, map(nums.__getitem__, sides),
                     map(dens.__getitem__, sides)))
    low = min(quots)
    ties = itertools.compress(sides, map(low.__eq__, quots))
    best = next(ties)
    best_key = None
    for i in ties:
        lhs = nums[i] * dens[best]
        rhs = nums[best] * dens[i]
        if lhs == rhs:  # a side that crosses no INF edge wins
            lhs, rhs = cut[i] >= big, cut[best] >= big
        if lhs < rhs:
            best, best_key = i, None
        elif lhs == rhs and tie_key is not None:
            if best_key is None:
                best_key = tie_key(best, nums[best])
            key = tie_key(i, nums[i])
            if key < best_key:
                best, best_key = i, key
    return nums[best], dens[best], best


# Neighbor-averaging rounds per sweep ordering.
SWEEP_ROUNDS = 8
# Sweep mode scans graphs of at most this many vertices exactly: their tables
# hold at most 2^10 entries, so one scan costs less than one sweep per free
# set, and the answer is never worse than the sweep's.
SWEEP_EXACT_MAX = 10


def _scans_exactly(g: Graph, cfg: OracleConfig) -> bool:
    return cfg.mode == "exact" or g.vertex_count <= SWEEP_EXACT_MAX


def _sweep_orderings(g: Graph, cfg: OracleConfig,
                     exclude: frozenset[int]) -> list[tuple[int, ...]]:
    n = g.vertex_count
    max_fin = max((e.w for e in g.edges if e.w < INF), default=1)
    glue = max(2 * max_fin, 1)
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, e in enumerate(g.edges):
        if i in exclude:
            continue
        w = glue if e.w >= INF else e.w
        nbrs[e.u].append((e.v, w))
        nbrs[e.v].append((e.u, w))
    tots = [sum(w for _, w in nb) for nb in nbrs]
    rng = random.Random(cfg.seed)
    seen = set()
    orderings = []
    for _ in range(max(1, cfg.sweep_restarts)):
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        for _ in range(SWEEP_ROUNDS):
            nxt = []
            for v in range(n):
                tot = tots[v]
                if tot > 0:
                    avg = sum(w * x[u] for u, w in nbrs[v]) / tot
                    nxt.append(0.5 * x[v] + 0.5 * avg)
                else:
                    nxt.append(x[v])
            mean = sum(nxt) / n
            nxt = [val - mean for val in nxt]
            scale = max(abs(val) for val in nxt)
            x = [val / scale for val in nxt] if scale > 0 else nxt
        order = tuple(sorted(range(n), key=lambda v: (x[v], v)))
        if order not in seen:
            seen.add(order)
            orderings.append(order)
    return orderings


def _sweep_prefix_best(g: Graph, d_of: list[int], d_total: int, pairs,
                       kind: CutKind, cfg: OracleConfig,
                       exclude: frozenset[int]):
    """Best (numerator, denominator, mask) over the prefixes of the
    neighbor-averaging orderings, excluded edges deleted; exact arithmetic.
    The cut weighs INF edges as big, as `_mask_tables` does."""
    n = g.vertex_count
    big = g.total_finite_weight() + 1
    lim = min(big, INF)
    incidence = g.incidence
    best = None
    for order in _sweep_orderings(g, cfg, exclude):
        in_side = [False] * n
        mask = cut = d_in = crossing = 0
        for pos in range(n - 1):
            v = order[pos]
            in_side[v] = True
            mask |= 1 << v
            d_in += d_of[v]
            for ei in incidence[v]:
                if ei in exclude:
                    continue
                e = g.edges[ei]
                other = e.v if e.u == v else e.u
                w = big if e.w >= INF else e.w
                cut += -w if in_side[other] else w
            for s, t in pairs:
                if s == v or t == v:
                    other = t if s == v else s
                    crossing += -1 if in_side[other] else 1
            if kind is CutKind.UNIFORM:
                den = min(d_in, d_total - d_in)
            else:
                den = crossing
            if den == 0:
                continue
            num = cut if cut < lim else INF
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, mask)
    return best


def _check_exact_cap(n: int, cfg: OracleConfig) -> None:
    if cfg.mode == "exact" and n > cfg.exact_vertex_cap:
        raise ExactCapExceeded(
            f"{n} vertices exceeds exact cap {cfg.exact_vertex_cap}")


def _side(mask: int, vertices) -> frozenset[int]:
    return frozenset(v for i, v in enumerate(vertices) if (mask >> i) & 1)


def sparsest_cut(g: Graph, demands: DemandSet, kind: CutKind,
                 cfg: OracleConfig,
                 exclude_edges: frozenset[int] = frozenset()) -> SparseCut:
    """Minimum-sparsity cut for the given kind (exact or sweep backend)."""
    if demands.r < 1:
        raise ValueError("need at least one demand pair")
    _check_exact_cap(g.vertex_count, cfg)
    if _scans_exactly(g, cfg):
        # Excluded edges are waived from every cut weight, which is the same
        # as deleting them and keeps the cached tables valid.
        ranked = [tuple(g.edges[e])
                  for e in _heaviest_first(g, exclude_edges)]
        best = _scan_masks(_mask_tables(g, demands), range(g.vertex_count),
                           0, kind, ranked, len(ranked))
    else:
        best = _sweep_prefix_best(g, _demand_counts(g, demands),
                                  2 * demands.r, demands.pairs, kind, cfg,
                                  exclude_edges)
    if best is None:
        raise NoCandidateCut("no cut with positive denominator")
    num, den, mask = best
    side = _side(mask, range(g.vertex_count))
    return SparseCut(side=side, kind=kind, residual_weight=num, denominator=den,
                     sparsity=Fraction(num, den),
                     free_edges=frozenset(exclude_edges) & set(g.cut_edges(side)))


def _first_free_set(g: Graph, order: list[int], size: int, mask: int,
                    num: int) -> tuple[int, ...]:
    """First free set of `size` edges, in `itertools.combinations` order,
    that leaves side `mask` its least residual weight `num`, across no INF
    edge if one can.

    A free set is optimal iff it holds the `size` largest savings, where an
    edge saves its weight if it crosses the side and nothing if not. The
    first such set takes the crossing edges of positive weight in `order`
    (ids heaviest first) up to `size`, then the smallest other ids. An INF
    residual is left by every free set: the first set that waives every INF
    edge the side crosses wins, or the first of all if none can.
    """
    # A saturated side counts only its INF cut edges, and size + 1 of them
    # show that no free set waives them all.
    saturated = num >= INF
    free = []
    for i in order:
        u, v, w = g.edges[i]
        if len(free) == size + saturated or w == 0 or (saturated and w < INF):
            break
        if ((mask >> u) ^ (mask >> v)) & 1:
            free.append(i)
    if len(free) > size:
        return tuple(range(size))
    taken = set(free)
    rest = (i for i in range(g.edge_count) if i not in taken)
    free += itertools.islice(rest, size - len(free))
    return tuple(sorted(free))


def k_route_sparsest_cut(g: Graph, demands: DemandSet, k: int, kind: CutKind,
                         cfg: OracleConfig) -> SparseCut:
    """Minimizer of residual sparsity with k-1 edges waived.

    For a fixed side the best k-1 edges to waive are its k-1 heaviest cut
    edges, so exact mode makes one pass with those waived over the sides
    that leave out vertex n-1, one of each complement pair: the true
    k-route sparsest cut. Among optimal (free set, side) pairs it prefers
    one whose residual crosses no INF edge, then returns the first free set
    in `itertools.combinations` order, then the first side, which lacks
    vertex n-1. Sweep mode makes the same pass on graphs of at most
    SWEEP_EXACT_MAX vertices, and on larger ones runs the plain sweep once
    per free set of size k-1 with that set deleted. The free-set budget is
    checked in both modes and at every size, so that both refuse the same
    inputs; the exact pass does not enumerate free sets, and the check can
    go once sweep mode stops doing so too.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    fsize = min(k - 1, g.edge_count)
    count = math.comb(g.edge_count, fsize)
    if count > cfg.free_set_budget:
        raise FreeSetBlowup(
            f"{count} free sets exceed budget {cfg.free_set_budget}")
    if _scans_exactly(g, cfg):
        if demands.r < 1:
            raise ValueError("need at least one demand pair")
        _check_exact_cap(g.vertex_count, cfg)
        order = _heaviest_first(g, range(g.edge_count))
        best = _scan_masks(
            _mask_tables(g, demands), range(g.vertex_count), 0, kind,
            [tuple(g.edges[i]) for i in order], fsize,
            lambda mask, num: _first_free_set(g, order, fsize, mask, num))
        if best is None:
            raise NoCandidateCut("no candidate cut for any free set")
        num, den, mask = best
        side = _side(mask, range(g.vertex_count))
        free = _first_free_set(g, order, fsize, mask, num)
        return SparseCut(side=side, kind=kind, residual_weight=num,
                         denominator=den, sparsity=Fraction(num, den),
                         free_edges=frozenset(free) & set(g.cut_edges(side)))
    best = None
    for free in itertools.combinations(range(g.edge_count), fsize):
        try:
            cut = sparsest_cut(g, demands, kind, cfg, exclude_edges=frozenset(free))
        except NoCandidateCut:
            continue
        if best is None or (cut.residual_weight * best.denominator
                            < best.residual_weight * cut.denominator):
            best = cut
    if best is None:
        raise NoCandidateCut("no candidate cut for any free set")
    return best


# ---------------------------------------------------------------------------
# Multicut backends and the polynomial-time bi-criteria oracle.


def _adjacency(g: Graph) -> list[list[tuple[int, int]]]:
    """(edge id, other endpoint) of the edges at each vertex."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for i, (u, v, _) in enumerate(g.edges):
        adjacency[u].append((i, v))
        adjacency[v].append((i, u))
    return adjacency


def _labels(adjacency, removed) -> list[int]:
    """Component number of each vertex in G - removed, in order of the
    components' least vertices. Two vertices are joined by a path exactly
    when their labels agree."""
    label = [-1] * len(adjacency)
    count = 0
    for start in range(len(adjacency)):
        if label[start] >= 0:
            continue
        label[start] = count
        queue = [start]
        for u in queue:
            for ei, v in adjacency[u]:
                if label[v] < 0 and ei not in removed:
                    label[v] = count
                    queue.append(v)
        count += 1
    return label


def _count_separated(demands: DemandSet, label: list[int]) -> int:
    return sum(1 for s, t in demands.pairs if label[s] != label[t])


def _greedy_multicut(g: Graph, demands: DemandSet, ell: int) -> frozenset[int]:
    removed: set[int] = set()
    adjacency = _adjacency(g)
    while True:
        label = _labels(adjacency, removed)
        if _count_separated(demands, label) >= ell:
            return frozenset(removed)
        best = None  # (value, pair index, cut ids)
        for i, (s, t) in enumerate(demands.pairs):
            if label[s] != label[t]:
                continue
            value, side = min_weight_edge_st_cut(g, s, t, exclude=frozenset(removed))
            if value >= INF:
                continue
            if best is None or value < best[0]:
                best = (value, i, g.cut_edges(side, exclude=frozenset(removed)))
        if best is None:
            raise Infeasible(f"cannot separate {ell} pairs with finite edges")
        removed.update(best[2])


def _exact_multicut(g: Graph, demands: DemandSet, ell: int) -> frozenset[int]:
    """Minimum-weight edge set separating at least ell pairs (branch and bound).

    Finite edges are tried heaviest first from the greedy multicut's cost.
    Each node takes one more edge; the branches that leave edges in keep the
    node's removed set, and so its component labels, and run as a loop at
    the node. Taking an edge whose ends already have different labels
    changes no label, so only an edge inside a component costs a new
    labelling. Among equal weights the lexicographically least sorted id
    tuple wins.
    """
    finite = sorted((i for i, e in enumerate(g.edges) if e.w < INF),
                    key=lambda i: (-g.edges[i].w, i))
    adjacency = _adjacency(g)
    if _count_separated(demands, _labels(adjacency, frozenset(finite))) < ell:
        raise Infeasible(f"cannot separate {ell} pairs with finite edges")
    seed = sorted(_greedy_multicut(g, demands, ell))
    best_cost = sum(g.edges[i].w for i in seed)
    best_set = tuple(seed)

    def dfs(idx: int, removed: list[int], cost: int, label: list[int]) -> None:
        nonlocal best_cost, best_set
        if cost > best_cost:
            return
        if _count_separated(demands, label) >= ell:
            key = (cost, tuple(sorted(removed)))
            if key < (best_cost, best_set):
                best_cost, best_set = key
            return
        for j in range(idx, len(finite)):
            if cost > best_cost:
                return
            e = finite[j]
            u, v, w = g.edges[e]
            if cost + w <= best_cost:
                removed.append(e)
                dfs(j + 1, removed, cost + w, label if label[u] != label[v]
                    else _labels(adjacency, frozenset(removed)))
                removed.pop()

    dfs(0, [], 0, _labels(adjacency, ()))
    return frozenset(best_set)


def l_multicut(g: Graph, demands: DemandSet, ell: int,
               cfg: OracleConfig) -> frozenset[int]:
    """Edge set separating at least ell demand pairs.

    Exact mode minimizes total weight; greedy mode repeatedly removes the
    cheapest single-pair minimum cut (no stated factor).
    """
    if ell < 0 or ell > demands.r:
        raise ValueError("ell must lie in [0, r]")
    if ell == 0:
        return frozenset()
    if cfg.multicut_mode == "exact":
        return _exact_multicut(g, demands, ell)
    return _greedy_multicut(g, demands, ell)


def _components(g: Graph, removed: frozenset[int]) -> list[list[int]]:
    label = _labels(_adjacency(g), removed)
    comps: list[list[int]] = [[] for _ in range(max(label, default=-1) + 1)]
    for v, c in enumerate(label):
        comps[c].append(v)
    return comps


def _flip_partition(comps: list[list[int]], demands: DemandSet) -> list[bool]:
    """Greedy component flips until no single flip separates more pairs."""
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    flags = [False] * len(comps)

    def crossing() -> int:
        return sum(1 for s, t in demands.pairs
                   if flags[comp_of[s]] != flags[comp_of[t]])

    current = crossing()
    improved = True
    while improved:
        improved = False
        for ci in range(len(comps)):
            flags[ci] = not flags[ci]
            cand = crossing()
            if cand > current:
                current = cand
                improved = True
            else:
                flags[ci] = not flags[ci]
    return flags


def k_route_sparsest_cut_bicriteria(g: Graph, demands: DemandSet, k: int,
                                    cfg: OracleConfig) -> SparseCut:
    """Polynomial-time relaxed k-route sparsest cut via multicut rounding.

    Sweeps a grid of separated-pair targets and weight-clipping thresholds,
    solves a multicut for each, flips whole components to maximize separated
    pairs, and waives the most expensive surviving cut edges. If G has INF
    edges, each threshold is tried twice: once with them uncuttable, and
    once clipped like finite ones, so a multicut may cut them. They are
    waived first and never paid: a side that crosses more of them than it
    waives scores INF, and the uncuttable clipping still offers a finite
    side wherever the waivable one cuts too many. The realized free-set
    size is recorded so callers learn the achieved route count.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if demands.r < 1:
        raise ValueError("need at least one demand pair")
    f_target = 2 * (k - 1)

    finite_w = sorted({e.w for e in g.edges if e.w < INF and e.w > 0})
    if finite_w:
        cap = finite_w[-1] * (k - 1)
        thresholds = sorted({min(t * w, cap)
                             for w in finite_w
                             for t in range(1, g.edge_count + 1)})
    else:
        thresholds = [0]

    # INF edges stay uncuttable in the first clipping and are clipped like
    # finite ones in the second, which only graphs with an INF edge need.
    clip_inf = (False, True) if any(e.w >= INF for e in g.edges) else (False,)

    best = None  # (num, den, side, free tuple)
    for r_target in range(1, demands.r + 1):
        for thr, inf_too in itertools.product(thresholds, clip_inf):
            clipped = Graph(g.vertex_count,
                            [(e.u, e.v, e.w if e.w >= INF and not inf_too
                              else min(e.w * (k - 1), thr, INF))
                             for e in g.edges])
            try:
                removed = l_multicut(clipped, demands, r_target, cfg)
            except Infeasible:
                continue
            comps = _components(g, removed)
            flags = _flip_partition(comps, demands)
            side = frozenset(v for ci, comp in enumerate(comps)
                             if flags[ci] for v in comp)
            cut_ids = g.cut_edges(side)
            if not cut_ids and not side:
                continue
            den = sum(1 for s, t in demands.pairs
                      if (s in side) != (t in side))
            if den == 0:
                continue
            ranked = sorted(cut_ids, key=lambda i: (-g.edges[i].w, i))
            free = tuple(sorted(ranked[:f_target]))
            num = wsum(g.edges[i].w for i in ranked[f_target:])
            cand = (num, den, side, free)
            if best is None or cand[0] * best[1] < best[0] * cand[1]:
                best = cand
    if best is None:
        raise NoCandidateCut("no multicut candidate produced a crossing cut")
    num, den, side, free = best
    return SparseCut(side=side, kind=CutKind.NONUNIFORM, residual_weight=num,
                     denominator=den, sparsity=Fraction(num, den),
                     free_edges=frozenset(free))


# ---------------------------------------------------------------------------
# Vertex-flavored k-route sparsest cuts.


def _separator_candidates(n: int, max_size: int, budget: int):
    count = sum(math.comb(n, j) for j in range(max_size + 1))
    if count > budget:
        raise SeparatorBlowup(f"{count} separators exceed budget {budget}")
    for size in range(max_size + 1):
        yield from itertools.combinations(range(n), size)


def vertex_k_route_sparsest_cut(g: Graph, demands: DemandSet, k: int,
                                kind: CutKind, cfg: OracleConfig) -> SparseCut:
    """Minimizer over (side S, separator D) with |D| <= k-1 of the sparsity
    of edges from S to the rest, with D removed from the graph.

    Pairs with an endpoint inside the separator never count toward the
    split-pair denominator; terminal-count denominators keep full counts.
    Exact mode reads each G - D from G's tables, and so does sweep mode if
    G has at most SWEEP_EXACT_MAX vertices; larger graphs in sweep mode
    sweep each G - D. Ties: first D; within one D, a side across no INF
    edge, then the first S.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if demands.r < 1:
        raise ValueError("need at least one demand pair")
    n = g.vertex_count
    _check_exact_cap(n, cfg)
    exact = _scans_exactly(g, cfg)
    best = None  # (num, den, side frozenset, delta frozenset)
    for delta in _separator_candidates(n, k - 1, cfg.separator_budget):
        dset = frozenset(delta)
        rest = [v for v in range(n) if v not in dset]
        if len(rest) < 2:
            continue
        if exact:
            found = _scan_masks(_mask_tables(g, demands), rest,
                                sum(1 << v for v in delta), kind)
        else:
            pos = {v: i for i, v in enumerate(rest)}
            sub = Graph(len(rest), [(pos[e.u], pos[e.v], e.w) for e in g.edges
                                    if e.u not in dset and e.v not in dset])
            pairs = [(pos[s], pos[t]) for s, t in demands.pairs
                     if s not in dset and t not in dset]
            d_of = [demands.per_vertex.get(v, 0) for v in rest]
            found = _sweep_prefix_best(sub, d_of, sum(d_of), pairs, kind, cfg,
                                       frozenset())
        if found is None:
            continue
        num, den, mask = found
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, _side(mask, rest), dset)
    if best is None:
        raise NoCandidateCut("no (side, separator) pair with positive denominator")
    num, den, side, dset = best
    return SparseCut(side=side, kind=kind, residual_weight=num, denominator=den,
                     sparsity=Fraction(num, den), separator=dset)
