"""Output checks that share no code with kroutecut.

Instances are re-read from their rendered text, and connectivity is counted
with a plain breadth-first augmenting-path max flow written here. Vertex
counts follow the package's mixed Menger convention: vertices other than s
and t have capacity one and every direct s-t edge is one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

INF_TOKEN = "inf"


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Parsed:
    n: int
    edges: tuple  # (u, v, w) with w None for an infinite edge
    pairs: tuple
    k: int
    flavor: str  # "ec" or "vc"


def parse(text: str) -> Parsed:
    n = k = 0
    flavor = ""
    edges, pairs = [], []
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if toks[0] == "p":
            flavor, n, k = toks[2], int(toks[3]), int(toks[6])
        elif toks[0] == "e":
            w = None if toks[3] == INF_TOKEN else int(toks[3])
            edges.append((int(toks[1]), int(toks[2]), w))
        elif toks[0] == "d":
            pairs.append((int(toks[1]), int(toks[2])))
    return Parsed(n, tuple(edges), tuple(pairs), k, flavor)


def max_flow(arcs, nodes: int, s: int, t: int, limit=None) -> int:
    """Edmonds-Karp on (u, v, cap, rcap) arcs."""
    head = [[] for _ in range(nodes)]
    to, cap = [], []
    for u, v, c, rc in arcs:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(rc)
    flow = 0
    while limit is None or flow < limit:
        prev = [-1] * nodes
        prev[s] = -2
        queue = [s]
        for u in queue:
            if u == t:
                break
            for a in head[u]:
                if cap[a] > 0 and prev[to[a]] == -1:
                    prev[to[a]] = a
                    queue.append(to[a])
        if prev[t] == -1:
            break
        push, v = None, t
        while v != s:
            a = prev[v]
            push = cap[a] if push is None else min(push, cap[a])
            v = to[a ^ 1]
        if limit is not None:
            push = min(push, limit - flow)
        v = t
        while v != s:
            a = prev[v]
            cap[a] -= push
            cap[a ^ 1] += push
            v = to[a ^ 1]
        flow += push
    return flow


def paths(inst: Parsed, s: int, t: int, removed=frozenset(), flavor=None,
          limit=None) -> int:
    """Disjoint s-t paths left after deleting `removed` edge ids."""
    flavor = flavor or inst.flavor
    kept = [e for i, e in enumerate(inst.edges) if i not in removed]
    if flavor == "ec":
        arcs = [(u, v, 1, 1) for u, v, _ in kept]
        return max_flow(arcs, inst.n, s, t, limit)

    def out(v):
        return 2 * v if v in (s, t) else 2 * v + 1

    arcs = [(2 * v, 2 * v + 1, 1, 0) for v in range(inst.n) if v not in (s, t)]
    for u, v, _ in kept:
        arcs.append((out(u), 2 * v, 1, 0))
        arcs.append((out(v), 2 * u, 1, 0))
    return max_flow(arcs, 2 * inst.n, 2 * s, 2 * t, limit)


def min_cut_value(inst: Parsed, s: int, t: int) -> int:
    big = sum(w for _, _, w in inst.edges if w is not None) + 1
    arcs = [(u, v, big if w is None else w, big if w is None else w)
            for u, v, w in inst.edges]
    return max_flow(arcs, inst.n, s, t)


def removal_weight(inst: Parsed, removed) -> int:
    """Weight of a removed-edge list, rejecting bad ids and infinite edges."""
    if len(set(removed)) != len(removed):
        raise CheckError(f"removed edges repeat: {removed}")
    total = 0
    for e in removed:
        if not 0 <= e < len(inst.edges):
            raise CheckError(f"removed edge {e} out of range")
        w = inst.edges[e][2]
        if w is None:
            raise CheckError(f"removed edge {e} is infinite")
        total += w
    return total


def check_solve(inst: Parsed, report: dict) -> None:
    removed = report["removed_edges"]
    weight = removal_weight(inst, removed)
    if weight != report["weight"]:
        raise CheckError(f"reported weight {report['weight']} != {weight}")
    level = report["guarantee_k"]
    gone = frozenset(removed)
    for s, t in inst.pairs:
        left = paths(inst, s, t, gone, limit=level)
        if left >= level:
            raise CheckError(f"pair ({s},{t}) keeps {left} paths "
                             f"at guarantee {level}")
    if "opt" in report:
        if report["bound"] is not None and report["within_bound"] is not True:
            raise CheckError(f"ratio {report['ratio']} above bound "
                             f"{report['bound']}")
        if level == inst.k and weight < report["opt"]:
            raise CheckError(f"weight {weight} below the optimum "
                             f"{report['opt']} at k={inst.k}")
        expect = Fraction(weight, report["opt"]) if report["opt"] else 1
        if Fraction(report["ratio"]) != expect:
            raise CheckError(f"ratio {report['ratio']} != {expect}")


def check_multicut(inst: Parsed, removed, ell: int) -> int:
    weight = removal_weight(inst, removed)
    gone = frozenset(removed)
    cut = sum(1 for s, t in inst.pairs if paths(inst, s, t, gone, "ec", 1) == 0)
    if cut < ell:
        raise CheckError(f"multicut separates {cut} < {ell} pairs")
    return weight


def check_laminar(inst: Parsed, sets) -> int:
    if len(sets) != len(inst.pairs):
        raise CheckError(f"{len(sets)} sets for {len(inst.pairs)} pairs")
    total = 0
    for (s, t), side in zip(inst.pairs, sets):
        if (s in side) == (t in side):
            raise CheckError(f"set {sorted(side)} does not split ({s},{t})")
        crossing = [w for u, v, w in inst.edges if (u in side) != (v in side)]
        if None in crossing:
            raise CheckError(f"set {sorted(side)} cuts an infinite edge")
        best = min_cut_value(inst, s, t)
        if sum(crossing) != best:
            raise CheckError(f"set for ({s},{t}) cuts {sum(crossing)}, "
                             f"minimum is {best}")
        total += best
    for a in sets:
        for b in sets:
            if a & b and not (a <= b or b <= a):
                raise CheckError("family is not laminar")
    return total


def check_ec_to_vc(inst: Parsed, image: Parsed, counts) -> None:
    for i, (s, t) in enumerate(inst.pairs):
        a, b = image.pairs[i]
        edge = paths(inst, s, t)
        vertex = paths(image, a, b)
        if not edge == vertex == counts[i]:
            raise CheckError(f"pair {i}: edge connectivity {edge}, image "
                             f"vertex connectivity {vertex}, package {counts[i]}")
