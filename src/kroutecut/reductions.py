"""Deterministic instance transformations.

Edge-connectivity to vertex-connectivity, weighted-to-uniform expansion,
the single-pair construction from small-set vertex expansion, tensor squares
of bipartite graphs, and the hypergraph incidence view of dense subgraphs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import (ExactCapExceeded, GuessZero, IsolatedTerminal,
                     NonIntegralThreshold, SizeOverflow)
from .graph import INF, DemandSet, Flavor, Graph, Instance


@dataclass(frozen=True)
class Bipartite:
    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, left_count: int, right_count: int,
                 edges: Iterable[tuple[int, int]]):
        seen = set()
        norm = []
        for l, r in edges:
            if not (0 <= l < left_count and 0 <= r < right_count):
                raise ValueError(f"bipartite edge ({l},{r}) out of range")
            if (l, r) in seen:
                raise ValueError(f"duplicate bipartite edge ({l},{r})")
            seen.add((l, r))
            norm.append((l, r))
        object.__setattr__(self, "left_count", left_count)
        object.__setattr__(self, "right_count", right_count)
        object.__setattr__(self, "edges", tuple(norm))

    def neighbor_masks(self) -> list[int]:
        """Right-neighborhood of each left vertex as a bitmask."""
        masks = [0] * self.left_count
        for l, r in self.edges:
            masks[l] |= 1 << r
        return masks

    def neighborhood(self, left_set: Iterable[int]) -> frozenset[int]:
        masks = self.neighbor_masks()
        acc = 0
        for l in left_set:
            acc |= masks[l]
        return frozenset(r for r in range(self.right_count) if (acc >> r) & 1)


@dataclass(frozen=True)
class Hypergraph:
    vertex_count: int
    hyperedges: tuple[frozenset[int], ...]

    def __init__(self, vertex_count: int, hyperedges: Iterable[Iterable[int]]):
        norm = []
        arity = None
        for he in hyperedges:
            fs = frozenset(he)
            if arity is None:
                arity = len(fs)
            if len(fs) != arity:
                raise ValueError("hyperedges must have uniform arity")
            for v in fs:
                if not (0 <= v < vertex_count):
                    raise ValueError(f"hyperedge vertex {v} out of range")
            norm.append(fs)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "hyperedges", tuple(norm))

    @property
    def arity(self) -> int:
        return len(self.hyperedges[0]) if self.hyperedges else 0


@dataclass(frozen=True)
class ReductionMap:
    """Edge bookkeeping between a source instance and its image.

    edge_groups[e] lists the image edges standing in for source edge e.
    always_removed lists source edges the reduction deleted outright, which
    every pulled-back solution includes.
    """

    edge_groups: tuple[tuple[int, ...], ...]
    always_removed: tuple[int, ...] = ()

    def push_forward(self, source_edges: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        for e in source_edges:
            out.update(self.edge_groups[e])
        return frozenset(out)

    def pull_back(self, image_edges: Iterable[int]) -> frozenset[int]:
        chosen = set(image_edges)
        out = set(self.always_removed)
        for e, group in enumerate(self.edge_groups):
            if group and all(j in chosen for j in group):
                out.add(e)
        return frozenset(out)


def ec_to_vc(inst: Instance) -> tuple[Instance, ReductionMap]:
    """Replace each vertex by an uncuttable clique with one node per incident
    edge; edge weights survive one-to-one, so optima transfer exactly."""
    if inst.flavor is not Flavor.EDGE:
        raise ValueError("ec_to_vc needs an edge-connectivity instance")
    g = inst.graph
    incidence: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for eid, e in enumerate(g.edges):
        incidence[e.u].append(eid)
        incidence[e.v].append(eid)
    for v in inst.demands.terminals:
        if not incidence[v]:
            raise IsolatedTerminal(f"terminal {v} has degree 0")

    node_of: dict[tuple[int, int], int] = {}
    counter = 0
    for v in range(g.vertex_count):
        for eid in incidence[v]:
            node_of[(v, eid)] = counter
            counter += 1

    # Image edges: the weighted originals first (image id == source id),
    # then the clique edges.
    image_edges: list[tuple[int, int, int]] = []
    for eid, e in enumerate(g.edges):
        image_edges.append((node_of[(e.u, eid)], node_of[(e.v, eid)], e.w))
    for v in range(g.vertex_count):
        for a, b in itertools.combinations(incidence[v], 2):
            image_edges.append((node_of[(v, a)], node_of[(v, b)], INF))

    rep = [None] * g.vertex_count
    for v in range(g.vertex_count):
        if incidence[v]:
            rep[v] = node_of[(v, min(incidence[v]))]
    pairs = [(rep[s], rep[t]) for s, t in inst.demands.pairs]
    image = Instance(Graph(counter, image_edges), DemandSet(pairs), inst.k,
                     Flavor.VERTEX)
    rmap = ReductionMap(edge_groups=tuple((e,) for e in range(g.edge_count)))
    return image, rmap


def vc_weighted_to_uniform(inst: Instance, opt_guess: int) -> tuple[Instance, ReductionMap]:
    """Drop edges far below the guessed optimum, clip far above it, scale by
    n^3, and expand every edge into that many parallel unit edges.

    Optimum preservation needs non-adjacent demand pairs: parallel copies of
    a direct terminal-to-terminal edge each count as a disjoint path.
    """
    if inst.flavor is not Flavor.VERTEX:
        raise ValueError("vc_weighted_to_uniform needs a vertex instance")
    if opt_guess < 0:
        raise ValueError("optimum guess must be non-negative")
    if opt_guess == 0 and inst.demands.r > 0:
        raise GuessZero("optimum guess 0 with a nonempty demand set")
    g = inst.graph
    if any(e.w >= INF for e in g.edges):
        raise ValueError("infinite-weight edges cannot be expanded to unit copies")
    n = g.vertex_count
    n3 = n ** 3
    groups: list[tuple[int, ...]] = []
    image_edges: list[tuple[int, int, int]] = []
    always_removed = []
    for eid, e in enumerate(g.edges):
        if e.w * n3 < opt_guess:
            always_removed.append(eid)
            groups.append(())
            continue
        clipped = min(e.w, n * opt_guess)
        copies = clipped * n3
        start = len(image_edges)
        image_edges.extend((e.u, e.v, 1) for _ in range(copies))
        groups.append(tuple(range(start, start + copies)))
    image = Instance(Graph(n, image_edges), inst.demands, inst.k, Flavor.VERTEX)
    rmap = ReductionMap(
        edge_groups=tuple(groups),
        always_removed=tuple(always_removed),
    )
    return image, rmap


def ssve_to_st_vc_krc(bip: Bipartite, alpha: Fraction) -> Instance:
    """Single-pair vertex instance whose optimum is N times the smallest
    neighborhood over left sets of relative size alpha.

    Right vertices become uncuttable cliques of N = 2mn+1 nodes, each clique
    node pays one unit to reach the sink, and k = m(1-alpha)+1.
    """
    m, n = bip.left_count, bip.right_count
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie strictly between 0 and 1")
    if (alpha * m).denominator != 1:
        raise NonIntegralThreshold(f"alpha*m = {alpha * m} is not integral")
    big_n = 2 * m * n + 1
    s, t = 0, 1
    u_base = 2
    clique_base = u_base + m

    def clique_node(v: int, j: int) -> int:
        return clique_base + v * big_n + j

    edges: list[tuple[int, int, int]] = []
    for u in range(m):
        edges.append((s, u_base + u, INF))
    for u, v in sorted(bip.edges):
        for j in range(big_n):
            edges.append((u_base + u, clique_node(v, j), INF))
    for v in range(n):
        for a, b in itertools.combinations(range(big_n), 2):
            edges.append((clique_node(v, a), clique_node(v, b), INF))
    for v in range(n):
        for j in range(big_n):
            edges.append((clique_node(v, j), t, 1))

    k = m - int(alpha * m) + 1
    graph = Graph(clique_base + n * big_n, edges)
    return Instance(graph, DemandSet([(s, t)]), k, Flavor.VERTEX)


TENSOR_MAX_CELLS = 4_000_000  # vertices per side, and edges, of a tensor square


def tensor_square(bip: Bipartite) -> Bipartite:
    """Tensor product of the graph with itself, row-major index encoding."""
    m, n = bip.left_count, bip.right_count
    if max(m * m, n * n, len(bip.edges) ** 2) > TENSOR_MAX_CELLS:
        raise SizeOverflow(f"tensor square exceeds {TENSOR_MAX_CELLS} cells")
    edges = []
    for u1, v1 in bip.edges:
        for u2, v2 in bip.edges:
            edges.append((u1 * m + u2, v1 * n + v2))
    return Bipartite(m * m, n * n, edges)


def dks_incidence_to_ssve(h: Hypergraph, kappa: int) -> tuple[Bipartite, Callable[[int], Fraction]]:
    """Incidence bipartite graph of a hypergraph: one left vertex per
    hyperedge, joined to its members. The returned formula maps a guessed
    count of containable hyperedges to the relative left-set size."""
    if kappa < 1:
        raise ValueError("kappa must be positive")
    edges = []
    for i, he in enumerate(h.hyperedges):
        for v in sorted(he):
            edges.append((i, v))
    bip = Bipartite(len(h.hyperedges), h.vertex_count, edges)

    def alpha_of(m_prime: int) -> Fraction:
        return Fraction(m_prime, bip.left_count)

    return bip, alpha_of


def sample_candidate_vertices(bip: Bipartite, left_set: Iterable[int],
                              kappa: int, seed: int) -> frozenset[int]:
    """Seeded size-kappa sample from the neighborhood of a left set.

    If the neighborhood is smaller than kappa it is padded with the
    lowest-numbered remaining right vertices.
    """
    pool = sorted(bip.neighborhood(left_set))
    if len(pool) < kappa:
        extra = [r for r in range(bip.right_count) if r not in set(pool)]
        pool = pool + extra[:kappa - len(pool)]
    rng = random.Random(seed)
    return frozenset(rng.sample(pool, min(kappa, len(pool))))


def is_expanding(bip: Bipartite, alpha: Fraction, beta: Fraction) -> bool:
    """True iff every left set of relative size >= alpha has a neighborhood
    of relative size strictly above beta. Checking the minimum qualifying
    size suffices: neighborhoods only grow with the set."""
    m, n = bip.left_count, bip.right_count
    if m > 20:
        raise ExactCapExceeded(f"{m} left vertices exceeds the brute-force cap")
    size = _ceil_fraction(alpha * m)
    if size > m:
        return True
    masks = bip.neighbor_masks()
    threshold = beta * n
    for subset in itertools.combinations(range(m), size):
        acc = 0
        for l in subset:
            acc |= masks[l]
        if Fraction(bin(acc).count("1")) <= threshold:
            return False
    return True


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
