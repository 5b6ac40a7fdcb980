"""Gomory-Hu trees, laminar minimum-cut families, and sparsest-cut oracles.

Sparsity values are exact rationals throughout; no floating point enters a
comparison. Exact oracle modes enumerate subsets and are therefore the
ground truth the solvers are tested against; sweep/greedy modes are seeded
heuristics for larger graphs and carry no stated approximation factor. One
route-cut body serves the plain, k-route edge and vertex sparsest cuts in
both modes: a vertex cut deletes a separator D of at most k-1 vertices, and
an edge cut is the case D empty that waives its side's k-1 heaviest cut
edges, the free edges it reports. One mask scanner scores every side:
sweep mode hands it the coarse graphs of a multilevel partitioner.
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
from typing import ClassVar

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
    """The oracle mode and the seed of sweep mode's coarsenings.

    mode "exact" enumerates every vertex subset (factor 1) and refuses graphs
    above exact_vertex_cap; mode "sweep" does the same up to SWEEP_EXACT_MAX
    vertices and above it scans the unions of groups of sweep_restarts
    seeded coarsenings, then refines by single-vertex moves. The multicut is
    exact in exact mode, under the same cap, and greedy in sweep mode. The
    budgets are hard errors, never silent truncation. All four limits are
    class constants.
    """

    mode: str = "exact"
    seed: int = 0
    exact_vertex_cap: ClassVar[int] = 20
    sweep_restarts: ClassVar[int] = 3
    free_set_budget: ClassVar[int] = 200_000
    separator_budget: ClassVar[int] = 200_000

    def __post_init__(self):
        if self.mode not in ("exact", "sweep"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")


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
# Sparse-cut scanning: `_scan_masks` picks the best side, as a bit mask, of a
# graph whose vertices carry terminal counts and whose pairs split.


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


def _tables(n: int, edges, d_of: list[int], pairs):
    """(big, cut, d_in, cross) per vertex subset of the graph on (u, v, w)
    `edges` with terminal counts `d_of` and `pairs`; `cut` weighs each INF
    edge as big, the finite total plus one, so it reaches big iff crossed."""
    big = sum(w for _, _, w in edges if w < INF) + 1
    cut = _cut_table(n, [(u, v, big if w >= INF else w) for u, v, w in edges])
    d_in = [0]
    for d in d_of:
        d_in += [x + d for x in d_in]
    return big, cut, d_in, _cut_table(n, [(s, t, 1) for s, t in pairs])


@lru_cache(maxsize=1)
def _mask_tables(g: Graph, demands: DemandSet):
    """G's `_tables`, for the exact scans; one set is kept. Coarse and
    G - D tables are built uncached, so they never evict it."""
    n = g.vertex_count
    return _tables(n, g.edges, [demands.per_vertex.get(v, 0) for v in range(n)],
                   demands.pairs)


def _heaviest_first(edges) -> list[int]:
    """Ids of `edges`, (u, v, w) tuples, heaviest (INF) first, then by id."""
    return sorted(range(len(edges)), key=lambda i: (-edges[i][2], i))


def _scan_masks(tables, rest, dm: int, kind: CutKind, ranked=(),
                waive: int = 0):
    """Least-sparsity proper side of G - D as (numerator, denominator,
    mask), or None if no side has a positive denominator.

    `tables` are G's `_tables`, D is the vertex mask `dm` and `rest`
    the other vertices ascending; bit i of a mask is vertex rest[i]. A side
    and its complement in G - D have the same cut, denominator and waived
    edges, and the first mask of the pair lacks rest[-1], so only the sides
    without rest[-1] are scanned. With D empty they are the lower
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
    to the first mask. The winner keeps its own numerator and denominator,
    since 0/2 ties 0/1.
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
    for i in ties:
        lhs = nums[i] * dens[best]
        rhs = nums[best] * dens[i]
        if lhs == rhs:  # a side that crosses no INF edge wins
            lhs, rhs = cut[i] >= big, cut[best] >= big
        if lhs < rhs:
            best = i
    return nums[best], dens[best], best


# Sweep mode scans graphs of at most this many vertices exactly and coarsens
# larger ones to this many groups, so no scan reads over 2^9 sides.
SWEEP_EXACT_MAX = 10
SEPARATOR_POOL = 8  # boundary vertices from which sweep mode draws separators


def _coarsen(n: int, edges, pairs, rng: random.Random) -> list[int]:
    """Group of each vertex, 0 to SWEEP_EXACT_MAX - 1, by seeded heavy-edge
    matchings (Karypis and Kumar 1998): each level visits the groups in
    random order and merges each unmerged one with the unmerged neighbour
    it shares the most weight with, or with any group if none has a
    neighbour, capped so that the last level lands on SWEEP_EXACT_MAX.
    Groups holding a pair's ends merge only if nothing else can, one merge
    per level and never the first pair's, so some side splits that pair.
    """
    group = list(range(n))
    count = n
    while count > SWEEP_EXACT_MAX:
        apart = {frozenset((group[s], group[t])) for s, t in pairs}
        share: list[dict[int, int]] = [{} for _ in range(count)]
        for u, v, w in edges:
            a, b = group[u], group[v]
            if a != b and frozenset((a, b)) not in apart:
                share[a][b] = share[b][a] = share[a].get(b, 0) + w
        if not any(share):  # no neighbours: any two groups merge at weight 0
            share = [{b: 0 for b in range(count) if b != a
                      and frozenset((a, b)) not in apart} for a in range(count)]
        mate = list(range(count))
        merges = count - SWEEP_EXACT_MAX
        visit = list(range(count))
        rng.shuffle(visit)
        for a in visit:
            near = [(w, -b) for b, w in share[a].items() if mate[b] == b]
            if merges and mate[a] == a and near:
                b = -max(near)[1]
                mate[a], mate[b] = b, a
                merges -= 1
        if merges == count - SWEEP_EXACT_MAX:  # forced: any but the first pair
            a, b = min(map(frozenset, itertools.combinations(range(count), 2)),
                       key=frozenset(group[v] for v in pairs[0]).__eq__)
            mate[a], mate[b] = b, a
        roots = sorted({min(a, mate[a]) for a in range(count)})
        count = len(roots)
        group = [roots.index(min(c, mate[c])) for c in group]
    return group


def _coarse_scan(n: int, edges, d_of: list[int], pairs, kind: CutKind,
                 waive: int, cfg: OracleConfig):
    """Sparse (numerator, denominator, mask) of a graph above
    SWEEP_EXACT_MAX vertices, given as `_tables` takes it, or None.

    Each of cfg.sweep_restarts coarsenings (INF edges weigh the finite
    total plus one, so they merge first) keeps every edge between groups,
    so `_scan_masks` scores a union of groups, waiving its `waive` heaviest
    cut edges, as the graph does. Its best union is lifted and refined by
    single-vertex moves (Fiduccia and Mattheyses 1982), each taken iff the
    side stays proper and the waived, saturated residual over a positive
    denominator strictly falls, as integer products, until a pass makes no
    move. Ties: first restart.
    """
    big = sum(w for _, _, w in edges if w < INF) + 1
    order = _heaviest_first(edges)
    heavy = [(u, v, big if w >= INF else w)
             for u, v, w in map(edges.__getitem__, order)]
    d_total = sum(d_of)

    def score(mask):
        res = sum([c for u, v, c in heavy
                   if ((mask >> u) ^ (mask >> v)) & 1][waive:])
        res = res if res < min(big, INF) else INF
        if kind is CutKind.NONUNIFORM:
            return res, sum(((mask >> s) ^ (mask >> t)) & 1 for s, t in pairs)
        d = sum(d for v, d in enumerate(d_of) if (mask >> v) & 1)
        return res, min(d, d_total - d)

    rng = random.Random(cfg.seed)
    best = None
    for _ in range(max(1, cfg.sweep_restarts)):
        group = _coarsen(n, heavy, pairs, rng)
        counts = [sum(d for v, d in enumerate(d_of) if group[v] == c)
                  for c in range(SWEEP_EXACT_MAX)]
        ranked = [(group[u], group[v], w) for u, v, w in
                  map(edges.__getitem__, order) if group[u] != group[v]]
        found = _scan_masks(
            _tables(SWEEP_EXACT_MAX, ranked, counts,
                    [(group[s], group[t]) for s, t in pairs
                     if group[s] != group[t]]),
            range(SWEEP_EXACT_MAX), 0, kind, ranked, waive)
        if found is None:
            continue
        num, den, mask = found
        mask = sum(1 << v for v in range(n) if (mask >> group[v]) & 1)
        moved = True
        while moved:
            moved = False
            for v in range(n):
                new = mask ^ (1 << v)
                if new and new != (1 << n) - 1:
                    res, dn = score(new)
                    if dn > 0 and res * den < num * dn:
                        num, den, mask, moved = res, dn, new, True
        if best is None or num * best[1] < best[0] * den:
            best = num, den, mask
    return best


def _check_exact_cap(n: int, cfg: OracleConfig) -> None:
    if cfg.mode == "exact" and n > cfg.exact_vertex_cap:
        raise ExactCapExceeded(
            f"{n} vertices exceeds exact cap {cfg.exact_vertex_cap}")


def _route_cut(g: Graph, demands: DemandSet, kind: CutKind, cfg: OracleConfig,
               waive: int = 0, separators: int = 0) -> SparseCut:
    """Least-sparsity side S and separator D, |D| <= `separators`, of the
    edges from S to the rest of G - D, with S's `waive` heaviest cut edges
    waived. This one body serves the plain cut, the k-route edge cut (waive
    k-1, and then D is empty) and the vertex cut (separators k-1).

    Exact mode, and sweep mode up to SWEEP_EXACT_MAX vertices, read each
    G - D from G's tables. Above it, sweep mode scans G - D re-indexed, on
    its own tables or coarsened if still above the bound, and draws every
    nonempty D from the SEPARATOR_POOL vertices of most crossing weight on
    the cut found for D empty. Pairs with an end in D never count toward
    the split-pair denominator; terminal-count denominators keep full
    counts. Ties: first D; within one D, a side across no INF edge, then
    the first S. The free edges, set only when `waive` > 0, are the side's
    first `waive` cut edges by (-w, id). The separator budget bounds the
    separators that are enumerated, so it is checked only where the scan is
    exact; sweep mode above SWEEP_EXACT_MAX tries at most 2^SEPARATOR_POOL.
    """
    if demands.r < 1:
        raise ValueError("need at least one demand pair")
    n = g.vertex_count
    _check_exact_cap(n, cfg)
    exact = cfg.mode == "exact" or n <= SWEEP_EXACT_MAX
    count = sum(math.comb(n, j) for j in range(separators + 1))
    if exact and count > cfg.separator_budget:
        raise SeparatorBlowup(f"{count} separators exceed budget {cfg.separator_budget}")
    order = _heaviest_first(g.edges) if waive else ()
    ranked = [g.edges[i] for i in order]
    pool = range(n)
    best = None  # (num, den, side, separator)
    for size in range(separators + 1):
        for delta in itertools.combinations(pool, size):
            rest = [v for v in range(n) if v not in delta]
            if len(rest) < 2:
                continue
            if exact:
                found = _scan_masks(_mask_tables(g, demands), rest,
                                    sum(1 << v for v in delta), kind, ranked,
                                    waive)
            else:  # only D empty waives, and then the coarse scan ranks G
                pos = {v: i for i, v in enumerate(rest)}
                sub = (len(rest), [(pos[u], pos[v], w) for u, v, w in g.edges
                                   if u in pos and v in pos],
                       [demands.per_vertex.get(v, 0) for v in rest],
                       [(pos[s], pos[t]) for s, t in demands.pairs
                        if s in pos and t in pos])
                found = (_scan_masks(_tables(*sub), range(len(rest)), 0, kind)
                         if len(rest) <= SWEEP_EXACT_MAX else
                         _coarse_scan(*sub, kind, waive, cfg))
            if found is None:
                continue
            num, den, mask = found
            if best is None or num * best[1] < best[0] * den:
                side = frozenset(v for i, v in enumerate(rest) if (mask >> i) & 1)
                best = (num, den, side, frozenset(delta))
        if size == 0 and separators and not exact:  # best: the cut for D empty
            crossing = [e for e in g.edges
                        if (e.u in best[2]) != (e.v in best[2])]
            weight = {x: sum(e.w for e in crossing if x in e[:2])
                      for e in crossing for x in e[:2]}
            pool = sorted(sorted(weight, key=lambda x: (-weight[x], x))
                          [:SEPARATOR_POOL])
    if best is None:
        raise NoCandidateCut("no cut with positive denominator")
    num, den, side, delta = best
    cut = set(g.cut_edges(side)) if waive else ()
    free = [i for i in order if i in cut][:waive]
    return SparseCut(side=side, kind=kind, residual_weight=num,
                     denominator=den, sparsity=Fraction(num, den),
                     free_edges=frozenset(free), separator=delta)


def sparsest_cut(g: Graph, demands: DemandSet, kind: CutKind,
                 cfg: OracleConfig) -> SparseCut:
    """Minimum-sparsity cut for the given kind: `_route_cut` with nothing
    waived and no separator, so the k-route and vertex cuts at k = 1."""
    return _route_cut(g, demands, kind, cfg)


def k_route_sparsest_cut(g: Graph, demands: DemandSet, k: int, kind: CutKind,
                         cfg: OracleConfig) -> SparseCut:
    """Minimizer of residual sparsity with k-1 edges waived.

    For a fixed side the best k-1 edges to waive are its k-1 heaviest cut
    edges, by (-w, id), and those are the cut's free edges. `_route_cut`
    scans with them waived, with no separator: in exact mode the true
    k-route sparsest cut, preferring among optimal sides one whose residual
    crosses no INF edge, then the first, which lacks vertex n-1. No mode
    enumerates free sets, yet both check the free-set budget, to refuse the
    inputs they always have.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    fsize = min(k - 1, g.edge_count)
    count = math.comb(g.edge_count, fsize)
    if count > cfg.free_set_budget:
        raise FreeSetBlowup(
            f"{count} free sets exceed budget {cfg.free_set_budget}")
    return _route_cut(g, demands, kind, cfg, waive=fsize)


def vertex_k_route_sparsest_cut(g: Graph, demands: DemandSet, k: int,
                                kind: CutKind, cfg: OracleConfig) -> SparseCut:
    """Minimizer over (side S, separator D) with |D| <= k-1 of the sparsity
    of edges from S to the rest, with D removed from the graph: the same
    `_route_cut` as the edge cuts, with k-1 separators and nothing waived.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _route_cut(g, demands, kind, cfg, separators=k - 1)


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
            if best is None or value < best[0]:
                # A saturated value may still be a cut of finite edges.
                cut = g.cut_edges(side, exclude=frozenset(removed))
                if all(g.edges[e].w < INF for e in cut):
                    best = (value, i, cut)
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
    labelling.

    Each pair still joined keeps a BFS path of G - removed until a taken
    edge lies on it. A separating set cuts an edge of each path it
    separates (Marx 2006, "Parameterized graph separation problems"), and
    below a node only later edges are taken, so with need pairs still to
    separate the loop ends at the need-th latest of the paths' last finite
    edges. The skipped subtrees hold no separating set, so the same sets
    are met in the same order, and among equal weights the
    lexicographically least sorted id tuple still wins.
    """
    finite = sorted((i for i, e in enumerate(g.edges) if e.w < INF),
                    key=lambda i: (-g.edges[i].w, i))
    adjacency = _adjacency(g)
    if _count_separated(demands, _labels(adjacency, frozenset(finite))) < ell:
        raise Infeasible(f"cannot separate {ell} pairs with finite edges")
    seed = sorted(_greedy_multicut(g, demands, ell))
    best_cost = sum(g.edges[i].w for i in seed)
    best_set = tuple(seed)
    pos = {e: j for j, e in enumerate(finite)}

    def bfs_path(removed, s: int, t: int):
        """A BFS s-t path in G - removed, and its last finite position."""
        via = {s: None}
        queue = [s]
        for u in queue:
            if t in via:
                break
            for ei, v in adjacency[u]:
                if v not in via and ei not in removed:
                    via[v] = (ei, u)
                    queue.append(v)
        path = []
        while via[t] is not None:
            ei, t = via[t]
            path.append(ei)
        return path, max((pos[e] for e in path if e in pos), default=-1)

    def witnesses(label, removed, old):
        """Each pair's path, or None once it is separated; an old path stays
        while it avoids `removed`."""
        return [None if label[s] != label[t]
                else p if p is not None and removed.isdisjoint(p[0])
                else bfs_path(removed, s, t)
                for (s, t), p in zip(demands.pairs, old)]

    def dfs(idx: int, removed: list[int], cost: int, label: list[int],
            paths) -> None:
        nonlocal best_cost, best_set
        need = ell - paths.count(None)
        if need <= 0:
            key = (cost, tuple(sorted(removed)))
            if key < (best_cost, best_set):
                best_cost, best_set = key
            return
        # A separating set cuts each pair's path at this node or below.
        lasts = sorted((p[1] for p in paths if p is not None), reverse=True)
        if len(lasts) < need:
            return
        for j in range(idx, lasts[need - 1] + 1):
            e = finite[j]
            u, v, w = g.edges[e]
            if cost + w <= best_cost:
                removed.append(e)
                if label[u] != label[v]:
                    dfs(j + 1, removed, cost + w, label, paths)
                else:
                    cut = frozenset(removed)
                    child = _labels(adjacency, cut)
                    dfs(j + 1, removed, cost + w, child,
                        witnesses(child, cut, paths))
                removed.pop()

    label = _labels(adjacency, ())
    dfs(0, [], 0, label, witnesses(label, frozenset(), [None] * demands.r))
    return frozenset(best_set)


def l_multicut(g: Graph, demands: DemandSet, ell: int,
               cfg: OracleConfig) -> frozenset[int]:
    """Edge set separating at least ell demand pairs.

    Exact mode minimizes total weight and, like the exact sparse cuts,
    refuses graphs above exact_vertex_cap; greedy mode repeatedly removes
    the cheapest single-pair minimum cut (no stated factor).
    """
    if ell < 0 or ell > demands.r:
        raise ValueError("ell must lie in [0, r]")
    if ell == 0:
        return frozenset()
    if cfg.mode == "exact":
        _check_exact_cap(g.vertex_count, cfg)
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
            den = sum(1 for s, t in demands.pairs
                      if (s in side) != (t in side))
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
