"""Undirected weighted multigraphs, connectivity primitives, and instances.

Weights are nonnegative integers used as deletion costs. Connectivity is
structural: every edge counts as one unit regardless of weight, so disjoint
path counts and deletion costs never mix. INF is a reserved sentinel larger
than any finite weight; arithmetic on it saturates and INF edges are never
removable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import Infeasible, InvalidVertex, NoSeparator

INF = 2**63 - 1


def wadd(a: int, b: int) -> int:
    """Saturating weight addition."""
    if a >= INF or b >= INF:
        return INF
    return min(a + b, INF)


def wsum(values: Iterable[int]) -> int:
    total = 0
    for v in values:
        total = wadd(total, v)
    return total


class Edge(NamedTuple):
    u: int
    v: int
    w: int


class Flavor(Enum):
    EDGE = "ec"
    VERTEX = "vc"


@dataclass(frozen=True)
class Graph:
    """Multigraph with stable integer edge ids (the position in `edges`)."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]] = ()):
        object.__setattr__(self, "vertex_count", vertex_count)
        norm = []
        for u, v, w in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidVertex(f"edge ({u},{v}) out of range")
            if u == v:
                raise InvalidVertex(f"self-loop at {u}")
            if w < 0:
                raise ValueError(f"negative weight {w}")
            if w > INF:
                raise ValueError(f"weight {w} above INF")
            norm.append(Edge(u, v, w))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def weight(self, eid: int) -> int:
        return self.edges[eid].w

    def total_finite_weight(self) -> int:
        return sum(e.w for e in self.edges if e.w < INF)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise InvalidVertex(f"vertex {v} out of range")

    def cut_edges(self, side: frozenset[int] | set[int],
                  exclude: frozenset[int] = frozenset()) -> list[int]:
        """Edge ids with exactly one endpoint in `side`."""
        out = []
        for i, e in enumerate(self.edges):
            if i in exclude:
                continue
            if (e.u in side) != (e.v in side):
                out.append(i)
        return out

    def without_edges(self, removed: Iterable[int]) -> tuple["Graph", list[int]]:
        """Copy with the given edges deleted; returns (graph, id map).

        Position j of the map holds the original id of the new edge j.
        """
        gone = set(removed)
        keep = [(e.u, e.v, e.w) for i, e in enumerate(self.edges) if i not in gone]
        idmap = [i for i in range(len(self.edges)) if i not in gone]
        return Graph(self.vertex_count, keep), idmap


@dataclass(frozen=True)
class DemandSet:
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        norm = []
        for s, t in pairs:
            if s == t:
                raise InvalidVertex(f"demand pair ({s},{t}) has equal endpoints")
            norm.append((s, t))
        object.__setattr__(self, "pairs", tuple(norm))

    @property
    def r(self) -> int:
        return len(self.pairs)

    @cached_property
    def per_vertex(self) -> dict[int, int]:
        """Number of pairs each vertex participates in (D_v)."""
        counts: dict[int, int] = {}
        for s, t in self.pairs:
            counts[s] = counts.get(s, 0) + 1
            counts[t] = counts.get(t, 0) + 1
        return counts

    @cached_property
    def terminals(self) -> frozenset[int]:
        return frozenset(v for p in self.pairs for v in p)

    def count_in(self, side: Iterable[int]) -> int:
        """D(side): terminals in `side`, counted with multiplicity."""
        pv = self.per_vertex
        return sum(pv.get(v, 0) for v in side)


@dataclass(frozen=True)
class Instance:
    graph: Graph
    demands: DemandSet
    k: int
    flavor: Flavor

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for s, t in self.demands.pairs:
            self.graph.check_vertex(s)
            self.graph.check_vertex(t)


@dataclass(frozen=True)
class CutSolution:
    removed_edge_ids: frozenset[int]
    total_weight: int
    achieved_k: int

    @staticmethod
    def from_edges(g: Graph, removed: Iterable[int], achieved_k: int) -> "CutSolution":
        ids = frozenset(removed)
        for eid in ids:
            if not 0 <= eid < g.edge_count:
                raise ValueError(f"edge id {eid} out of range")
            if g.weight(eid) >= INF:
                raise Infeasible(f"edge {eid} has infinite weight and cannot be removed")
        return CutSolution(ids, sum(g.weight(e) for e in ids), achieved_k)


@dataclass(frozen=True)
class InducedSubinstance:
    """A vertex-induced sub-instance plus the maps back to original ids."""

    instance: Instance
    orig_vertex: tuple[int, ...]
    orig_edge: tuple[int, ...]
    orig_pair: tuple[int, ...]


# ---------------------------------------------------------------------------
# Max-flow engine (Dinic). Capacities are Python ints, so arbitrarily large
# perturbed capacities stay exact.


class FlowNet:
    __slots__ = ("n", "to", "cap", "head")

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, cap: int, rcap: int = 0) -> int:
        """Adds u->v with capacity cap and the paired reverse arc v->u."""
        i = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(i)
        self.to.append(u)
        self.cap.append(rcap)
        self.head[v].append(i + 1)
        return i

    def max_flow(self, s: int, t: int, limit: Optional[int] = None) -> int:
        """Max flow value; stops early once `limit` is reached.

        Plain big-int arithmetic: capacities may exceed INF (the Gomory-Hu
        construction uses perturbed capacities), so no saturation here.
        """
        flow = 0
        to, cap, head = self.to, self.cap, self.head
        target = limit if limit is not None else \
            sum(cap[i] for i in head[s]) + 1
        while flow < target:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for i in head[u]:
                    v = to[i]
                    if cap[i] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                break
            it = [0] * self.n  # next arc to try at each vertex
            while flow < target:
                # Advance along level arcs from s; a dead end retreats one
                # arc and moves its tail past it. Pointers stay on the arcs
                # of a found path, as they may still have capacity.
                path = []
                u = s
                while u != t:
                    arcs = head[u]
                    j = it[u]
                    want = level[u] + 1
                    while j < len(arcs):
                        i = arcs[j]
                        if cap[i] > 0 and level[to[i]] == want:
                            break
                        j += 1
                    it[u] = j
                    if j < len(arcs):
                        path.append(i)
                        u = to[i]
                    elif path:
                        u = to[path.pop() ^ 1]
                        it[u] += 1
                    else:
                        break
                if u != t:
                    break
                pushed = min([target - flow] + [cap[i] for i in path])
                for i in path:
                    cap[i] -= pushed
                    cap[i ^ 1] += pushed
                flow += pushed
        return flow

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for i in self.head[u]:
                v = self.to[i]
                if self.cap[i] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _edge_net(g: Graph, caps: Sequence[int],
              exclude: frozenset[int] = frozenset()) -> tuple[FlowNet, list[int]]:
    """One undirected arc pair per edge; returns (net, arc index per edge)."""
    net = FlowNet(g.vertex_count)
    arc_of = [-1] * g.edge_count
    for i, e in enumerate(g.edges):
        if i in exclude:
            continue
        arc_of[i] = net.add_arc(e.u, e.v, caps[i], caps[i])
    return net, arc_of


def _split_net(g: Graph, s: int, t: int, vertex_caps: dict[int, int],
               edge_cap: int | None) -> tuple[FlowNet, list[int]]:
    """Node-splitting network: vertex v != s,t becomes v_in=2v, v_out=2v+1.

    Edges get capacity `edge_cap` each (None means INF, i.e. uncuttable).
    Returns (net, arc index per edge); an edge's two directions are the arcs
    a and a + 2.
    """
    n = g.vertex_count
    net = FlowNet(2 * n)

    def port_out(v: int) -> int:
        return 2 * v if v in (s, t) else 2 * v + 1

    def port_in(v: int) -> int:
        return 2 * v

    for v in range(n):
        if v not in (s, t):
            net.add_arc(2 * v, 2 * v + 1, vertex_caps.get(v, INF))
    ec = INF if edge_cap is None else edge_cap
    arc_of = []
    for e in g.edges:
        arc_of.append(net.add_arc(port_out(e.u), port_in(e.v), ec))
        net.add_arc(port_out(e.v), port_in(e.u), ec)
    return net, arc_of


class PathCounter:
    """Disjoint s-t path counts in one graph, on reusable unit networks.

    The edge flavor builds one network for the graph; the vertex flavor one
    node-splitting network per pair, since s and t stay unsplit. Each count
    restores the unit capacities and sets the arcs of excluded edges to 0,
    so it finds the flow a network built without those edges would find.
    Weights are ignored: every edge is one unit of capacity.
    """

    __slots__ = ("g", "flavor", "_nets", "_last")

    def __init__(self, g: Graph, flavor: Flavor):
        self.g = g
        self.flavor = flavor
        # key -> (net, the two arcs of each edge, unit capacities)
        self._nets: dict = {}
        self._last = None

    def _net(self, s: int, t: int):
        key = None if self.flavor is Flavor.EDGE else (min(s, t), max(s, t))
        found = self._nets.get(key)
        if found is None:
            g = self.g
            if key is None:
                net, arc_of = _edge_net(g, [1] * g.edge_count)
                arcs = [(a, a + 1) for a in arc_of]
            else:
                units = dict.fromkeys(range(g.vertex_count), 1)
                net, arc_of = _split_net(g, s, t, units, edge_cap=1)
                arcs = [(a, a + 2) for a in arc_of]
            found = self._nets[key] = (net, arcs, net.cap[:])
        return found

    def count(self, s: int, t: int, exclude: Iterable[int] = (),
              limit: Optional[int] = None) -> int:
        """Disjoint s-t paths avoiding `exclude`, or `limit` if fewer."""
        g = self.g
        g.check_vertex(s)
        g.check_vertex(t)
        if s == t:
            raise InvalidVertex("s and t must differ")
        net, arcs, base = self._net(s, t)
        self._last = (net, arcs, base, exclude)
        cap = net.cap
        cap[:] = base
        for e in exclude:
            a, b = arcs[e]
            cap[a] = cap[b] = 0
        if self.flavor is Flavor.EDGE:
            return net.max_flow(s, t, limit)
        return net.max_flow(2 * s, 2 * t, limit)

    def used_edges(self) -> frozenset[int]:
        """Edges carrying flow after the last count, whose `exclude` must
        be unchanged since. Deleting any other edge leaves as many paths,
        since the flow's paths avoid it."""
        net, arcs, base, exclude = self._last
        cap = net.cap
        return frozenset(e for e, (a, b) in enumerate(arcs)
                         if (cap[a] != base[a] or cap[b] != base[b])
                         and e not in exclude)


def num_edge_disjoint_paths(g: Graph, s: int, t: int,
                            exclude: frozenset[int] = frozenset(),
                            limit: Optional[int] = None) -> int:
    """Maximum number of pairwise edge-disjoint s-t paths.

    Each parallel edge is a separate unit of capacity; weights are ignored.
    """
    return PathCounter(g, Flavor.EDGE).count(s, t, exclude, limit)


def num_vertex_disjoint_paths(g: Graph, s: int, t: int,
                              exclude: frozenset[int] = frozenset(),
                              limit: Optional[int] = None) -> int:
    """Maximum number of internally-vertex-disjoint s-t paths.

    Direct s-t edges each count as one path (mixed Menger convention).
    """
    return PathCounter(g, Flavor.VERTEX).count(s, t, exclude, limit)


def min_weight_edge_st_cut(g: Graph, s: int, t: int,
                           exclude: frozenset[int] = frozenset()) -> tuple[int, frozenset[int]]:
    """Minimum total weight disconnecting s from t, with one s-side witness.

    Value INF means no finite cut exists.
    """
    g.check_vertex(s)
    g.check_vertex(t)
    if s == t:
        raise InvalidVertex("s and t must differ")
    caps = [e.w for e in g.edges]
    net, _ = _edge_net(g, caps, exclude)
    value = net.max_flow(s, t)
    side = frozenset(net.residual_reachable(s))
    return min(value, INF), side


def min_weight_vertex_st_cut(g: Graph, vertex_weights: dict[int, int], s: int,
                             t: int) -> tuple[frozenset[int], int]:
    """Minimum-weight vertex set (within V minus {s,t}) separating s from t."""
    g.check_vertex(s)
    g.check_vertex(t)
    if s == t:
        raise InvalidVertex("s and t must differ")
    for e in g.edges:
        if {e.u, e.v} == {s, t}:
            raise NoSeparator("s and t are adjacent")
    net, _ = _split_net(g, s, t, vertex_weights, edge_cap=None)
    value = net.max_flow(2 * s, 2 * t)
    reach = net.residual_reachable(2 * s)
    separator = frozenset(
        v for v in range(g.vertex_count)
        if v not in (s, t) and 2 * v in reach and 2 * v + 1 not in reach
    )
    return separator, min(value, INF)


def connectivity(g: Graph, s: int, t: int, flavor: Flavor,
                 exclude: frozenset[int] = frozenset(),
                 limit: Optional[int] = None) -> int:
    if flavor is Flavor.EDGE:
        return num_edge_disjoint_paths(g, s, t, exclude, limit)
    return num_vertex_disjoint_paths(g, s, t, exclude, limit)


def is_feasible(inst: Instance, sol: CutSolution, relaxed_k: int) -> bool:
    """True iff every pair has fewer than relaxed_k disjoint paths left."""
    if relaxed_k < 1:
        raise ValueError("relaxed_k must be >= 1")
    paths = PathCounter(inst.graph, inst.flavor)
    for s, t in inst.demands.pairs:
        if paths.count(s, t, sol.removed_edge_ids, limit=relaxed_k) >= relaxed_k:
            return False
    return True


def induced_subinstance(inst: Instance, side: Iterable[int]) -> InducedSubinstance:
    """Sub-instance on G[side] with id maps back to the original instance."""
    side_set = set(side)
    for v in side_set:
        inst.graph.check_vertex(v)
    orig_vertex = tuple(sorted(side_set))
    new_id = {v: i for i, v in enumerate(orig_vertex)}
    edges = []
    orig_edge = []
    for i, e in enumerate(inst.graph.edges):
        if e.u in side_set and e.v in side_set:
            edges.append((new_id[e.u], new_id[e.v], e.w))
            orig_edge.append(i)
    pairs = []
    orig_pair = []
    for i, (s, t) in enumerate(inst.demands.pairs):
        if s in side_set and t in side_set:
            pairs.append((new_id[s], new_id[t]))
            orig_pair.append(i)
    sub = Instance(Graph(len(orig_vertex), edges), DemandSet(pairs), inst.k, inst.flavor)
    return InducedSubinstance(sub, orig_vertex, tuple(orig_edge), tuple(orig_pair))
