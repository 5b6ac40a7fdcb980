"""Instance file parsing, instance generation, solver dispatch, reports.

Instance grammar (one record per line, `#` starts a comment):

    p krc <ec|vc> <n> <m> <r> <k>
    e <u> <v> <weight|inf>     exactly m lines, edge ids follow line order
    d <s> <t>                  exactly r lines

Bipartite graphs use `p bip <m> <n> <edges>` with `e <left> <right>` lines;
hypergraphs use `p hyp <n> <m> <arity>` with `h <v1> ... <v_arity>` lines.
Reports are JSON with sorted keys, so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import exact
from .errors import Infeasible, KrcError, NoFeasibleGuess, ParseError
from .graph import (INF, CutSolution, DemandSet, Flavor, Graph, Instance,
                    is_feasible)
from .oracles import CutKind, OracleConfig, l_multicut
from .reductions import (Bipartite, Hypergraph, dks_incidence_to_ssve,
                         ec_to_vc, ssve_to_st_vc_krc, tensor_square,
                         vc_weighted_to_uniform)
from .solvers import SOLVERS, SolverParams


# ---------------------------------------------------------------------------
# Parsing and rendering.


def _records(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def _parse_weight(token: str, line_no: int) -> int:
    if token.lower() == "inf":
        return INF
    try:
        w = int(token)
    except ValueError:
        raise ParseError(line_no, f"bad weight {token!r}") from None
    if w < 0:
        raise ParseError(line_no, "weights must be nonnegative")
    return w


def _ints(toks, line_no: int, what: str) -> list[int]:
    if not all(map(str.isdecimal, toks)):
        raise ParseError(line_no, f"{what} must be a nonnegative integer")
    return [int(x) for x in toks]


def parse_instance(text: str) -> Instance:
    header = None
    edges: list[tuple[int, int, int]] = []
    demands: list[tuple[int, int]] = []
    for line_no, toks in _records(text):
        kind = toks[0]
        if kind == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if len(toks) != 7 or toks[1] != "krc" or toks[2] not in ("ec", "vc"):
                raise ParseError(line_no, "expected `p krc <ec|vc> n m r k`")
            header = (toks[2], *_ints(toks[3:], line_no, "header field"))
            header_line = line_no
        elif kind == "e":
            if header is None:
                raise ParseError(line_no, "edge before header")
            if len(toks) != 4:
                raise ParseError(line_no, "expected `e u v w`")
            try:  # inline, not _ints: edge lines are most of an instance
                u, v = int(toks[1]), int(toks[2])
            except ValueError:
                raise ParseError(line_no, "non-integer endpoint") from None
            w = _parse_weight(toks[3], line_no)
            n = header[1]
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"endpoint out of range 0..{n - 1}")
            if u == v:
                raise ParseError(line_no, "self-loop")
            edges.append((u, v, w))
        elif kind == "d":
            if header is None:
                raise ParseError(line_no, "demand before header")
            if len(toks) != 3:
                raise ParseError(line_no, "expected `d s t`")
            s, t = _ints(toks[1:], line_no, "terminal")
            n = header[1]
            if not (0 <= s < n and 0 <= t < n):
                raise ParseError(line_no, f"terminal out of range 0..{n - 1}")
            if s == t:
                raise ParseError(line_no, "demand pair with equal endpoints")
            demands.append((s, t))
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    if header is None:
        raise ParseError(0, "missing header")
    flavor_tok, n, m, r, k = header
    if len(edges) != m:
        raise ParseError(header_line,
                         f"header declares {m} edges, found {len(edges)}")
    if len(demands) != r:
        raise ParseError(header_line,
                         f"header declares {r} demands, found {len(demands)}")
    if k < 1:
        raise ParseError(header_line, "k must be >= 1")
    flavor = Flavor.EDGE if flavor_tok == "ec" else Flavor.VERTEX
    return Instance(Graph(n, edges), DemandSet(demands), k, flavor)


def render_instance(inst: Instance) -> str:
    lines = [f"p krc {inst.flavor.value} {inst.graph.vertex_count} "
             f"{inst.graph.edge_count} {inst.demands.r} {inst.k}"]
    for e in inst.graph.edges:
        w = "inf" if e.w >= INF else str(e.w)
        lines.append(f"e {e.u} {e.v} {w}")
    for s, t in inst.demands.pairs:
        lines.append(f"d {s} {t}")
    return "\n".join(lines) + "\n"


def parse_bipartite(text: str) -> Bipartite:
    header = None
    edges = {}  # (left, right) -> its line, in file order
    for line_no, toks in _records(text):
        if toks[0] == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if len(toks) != 5 or toks[1] != "bip":
                raise ParseError(line_no, "expected `p bip m n edges`")
            header = _ints(toks[2:], line_no, "header field")
            header_line = line_no
        elif toks[0] == "e":
            if header is None or len(toks) != 3:
                raise ParseError(line_no, "expected `e left right` after header")
            l, r = _ints(toks[1:], line_no, "endpoint")
            if l >= header[0] or r >= header[1]:
                raise ParseError(line_no, f"edge ({l},{r}) out of range")
            if (l, r) in edges:
                raise ParseError(line_no, f"edge ({l},{r}) repeats line "
                                          f"{edges[l, r]}")
            edges[l, r] = line_no
        else:
            raise ParseError(line_no, f"unknown record {toks[0]!r}")
    if header is None:
        raise ParseError(0, "missing header")
    if len(edges) != header[2]:
        raise ParseError(header_line, f"header declares {header[2]} edges, "
                                      f"found {len(edges)}")
    return Bipartite(header[0], header[1], edges)


def render_bipartite(bip: Bipartite) -> str:
    lines = [f"p bip {bip.left_count} {bip.right_count} {len(bip.edges)}"]
    lines.extend(f"e {l} {r}" for l, r in bip.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    header = None
    hyperedges = []
    for line_no, toks in _records(text):
        if toks[0] == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate header")
            if len(toks) != 5 or toks[1] != "hyp":
                raise ParseError(line_no, "expected `p hyp n m arity`")
            header = _ints(toks[2:], line_no, "header field")
            header_line = line_no
        elif toks[0] == "h":
            if header is None:
                raise ParseError(line_no, "hyperedge before header")
            members = _ints(toks[1:], line_no, "vertex")
            if len(members) != header[2] or len(set(members)) != header[2]:
                raise ParseError(line_no, f"need {header[2]} distinct vertices")
            if members and max(members) >= header[0]:
                raise ParseError(line_no, f"vertex {max(members)} out of "
                                          f"range 0..{header[0] - 1}")
            hyperedges.append(members)
        else:
            raise ParseError(line_no, f"unknown record {toks[0]!r}")
    if header is None:
        raise ParseError(0, "missing header")
    if len(hyperedges) != header[1]:
        raise ParseError(header_line, f"header declares {header[1]} "
                                      f"hyperedges, found {len(hyperedges)}")
    return Hypergraph(header[0], hyperedges)


# ---------------------------------------------------------------------------
# Instance generation.


def gen_instance(kind: str, params: dict, seed: int) -> tuple[Instance, dict]:
    """Seeded instance generator; returns (instance, metadata)."""
    rng = random.Random(seed)
    if kind == "random":
        return _gen_random(params, rng), {}
    if kind == "planted":
        return _gen_planted(params, rng)
    if kind == "grid":
        return _gen_grid(params, rng), {}
    raise ValueError(f"unknown generator kind {kind!r}")


def _gen_random(params: dict, rng: random.Random) -> Instance:
    n = params.get("n", 8)
    m = params.get("m", 12)
    r = params.get("r", 2)
    k = params.get("k", 2)
    wmin = params.get("wmin", 1)
    wmax = params.get("wmax", 8)
    flavor = Flavor(params.get("flavor", "ec"))
    if n < 2:
        raise ValueError("need at least two vertices")
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v, rng.randint(wmin, wmax)))
    pairs = []
    for _ in range(r):
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        if t >= s:
            t += 1
        pairs.append((s, t))
    return Instance(Graph(n, edges), DemandSet(pairs), k, flavor)


def _gen_planted(params: dict, rng: random.Random) -> tuple[Instance, dict]:
    """Two uncuttable cliques joined by k-1 free bridges plus cheap ones.

    Removing exactly the cheap bridges is optimal: any kept cheap bridge
    leaves the cross pair k-connected, and the clique interiors are wide
    enough that no interior cut is ever cheaper.
    """
    k = params.get("k", 2)
    cheap = params.get("cheap_bridges", 2)
    wmax = params.get("wmax", 5)
    flavor = Flavor(params.get("flavor", "ec"))
    side = max(k - 1 + cheap, 2)
    n = 2 * side
    edges: list[tuple[int, int, int]] = []
    for base in (0, side):
        for a in range(side):
            for b in range(a + 1, side):
                edges.append((base + a, base + b, INF))
    # Endpoint-disjoint bridges keep the vertex-connectivity count equal to
    # the bridge count as well.
    for i in range(k - 1):
        edges.append((i, side + i, INF))
    cheap_ids = []
    opt = 0
    for i in range(cheap):
        w = rng.randint(1, wmax)
        opt += w
        cheap_ids.append(len(edges))
        edges.append((k - 1 + i, side + k - 1 + i, w))
    inst = Instance(Graph(n, edges), DemandSet([(0, side)]), k, flavor)
    return inst, {"opt": opt, "cheap_bridges": cheap_ids}


def _gen_grid(params: dict, rng: random.Random) -> Instance:
    w = params.get("w", 3)
    h = params.get("h", 3)
    r = params.get("r", 2)
    k = params.get("k", 2)
    wmin = params.get("wmin", 1)
    wmax = params.get("wmax", 1)
    flavor = Flavor(params.get("flavor", "ec"))

    def vid(i: int, j: int) -> int:
        return (i % h) * w + (j % w)

    edges = []
    for i in range(h):
        for j in range(w):
            edges.append((vid(i, j), vid(i, j + 1), rng.randint(wmin, wmax)))
            edges.append((vid(i, j), vid(i + 1, j), rng.randint(wmin, wmax)))
    pairs = []
    for _ in range(r):
        i, j = rng.randrange(h), rng.randrange(w)
        if rng.random() < 0.5 and h > 1:
            pairs.append((vid(i, j), vid(i + h // 2, j)))
        elif w > 1:
            pairs.append((vid(i, j), vid(i, j + w // 2)))
        else:
            pairs.append((vid(i, j), vid(i + h // 2, j)))
    return Instance(Graph(w * h, edges), DemandSet(pairs), k, flavor)


# ---------------------------------------------------------------------------
# Reports.


def build_report(instance_id: str, algorithm: str, inst: Instance, result,
                 ratio=None, include_trace: bool = False) -> dict:
    payload = {
        "instance": instance_id,
        "algorithm": algorithm,
        "k": inst.k,
        "guarantee_k": result.guarantee,
        "removed_edges": sorted(result.solution.removed_edge_ids),
        "weight": result.solution.total_weight,
        "feasible": True,
    }
    if ratio is not None:
        payload["opt"] = ratio.opt_weight
        payload["ratio"] = None if ratio.ratio is None else str(ratio.ratio)
        payload["bound"] = None if ratio.bound is None else str(ratio.bound)
        payload["within_bound"] = ratio.within_bound
    if include_trace:
        payload["trace"] = result.trace
    return payload


def write_report(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Command-line front end.


def fraction(text: str) -> Fraction:
    """A rational option value; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="krc",
                                  description="multi-route cut toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--alg", required=True, choices=sorted(SOLVERS))
    solve.add_argument("--input", required=True)
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument("--ratio", action="store_true",
                       help="include the brute-force optimum and ratio")
    solve.add_argument("--trace", action="store_true")
    solve.add_argument("--delta", type=fraction, default="0")
    solve.add_argument("--c", type=fraction, default="1")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--report", default=None)
    solve.add_argument("--oracle", choices=["exact", "sweep"], default="exact")

    verify = sub.add_parser("verify", help="check a solution file")
    verify.add_argument("--input", required=True)
    verify.add_argument("--solution", required=True)
    verify.add_argument("--k", type=int, default=None)

    oracle = sub.add_parser("oracle", help="run an exact oracle")
    whats = oracle.add_subparsers(dest="what", required=True)
    brute, sparsest, multicut = (whats.add_parser(name) for name in
                                 ("brute", "sparsest", "multicut"))
    for p in (brute, sparsest, multicut):
        p.add_argument("--input", required=True)
        p.add_argument("--report", default=None)
    brute.add_argument("--k", type=int, default=None)
    sparsest.add_argument("--route", type=int, default=1)
    sparsest.add_argument("--kind", choices=["uniform", "nonuniform"],
                          default="nonuniform")
    multicut.add_argument("--ell", type=int, default=None)
    multicut.add_argument("--oracle", choices=["exact", "sweep"],
                          default="exact")

    reduce_p = sub.add_parser("reduce", help="apply an instance transformation")
    reduce_p.add_argument("what",
                          choices=["ec2vc", "uniformize", "ssve", "tensor", "dks"])
    reduce_p.add_argument("--input", required=True)
    reduce_p.add_argument("--out", required=True)
    reduce_p.add_argument("--opt-guess", type=int, default=None)
    reduce_p.add_argument("--alpha", type=fraction, default=None)
    reduce_p.add_argument("--kappa", type=int, default=None)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=["random", "planted", "grid"],
                     default="random")
    gen.add_argument("--out", required=True)
    for name in ("n", "m", "r", "k", "wmin", "wmax", "w", "h", "cheap-bridges"):
        gen.add_argument(f"--{name}", type=int, default=None)
    gen.add_argument("--flavor", choices=["ec", "vc"], default=None)
    gen.add_argument("--seed", type=int, default=0)
    return top


def _params_from_args(args) -> SolverParams:
    return SolverParams(
        oracle=OracleConfig(mode=args.oracle, seed=args.seed),
        delta=args.delta,
        c=args.c,
    )


def _load_instance(path: str, k_override) -> Instance:
    inst = parse_instance(Path(path).read_text())
    if k_override is not None:
        inst = Instance(inst.graph, inst.demands, k_override, inst.flavor)
    return inst


def _cmd_solve(args) -> int:
    inst = _load_instance(args.input, args.k)
    params = _params_from_args(args)
    result = SOLVERS[args.alg](inst, params)
    ratio = None
    if args.ratio:
        ratio = exact.ratio_report(inst, args.alg, result,
                                   instance_id=args.input,
                                   delta=params.delta, c=params.c)
    payload = build_report(args.input, args.alg, inst, result, ratio,
                           include_trace=args.trace)
    if args.report:
        write_report(payload, args.report)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.input, args.k)
    data = json.loads(Path(args.solution).read_text())
    if not isinstance(data, dict):
        raise ValueError("solution file must hold a JSON object")
    removed, level = data.get("removed_edges", []), data.get("guarantee_k", inst.k)
    # JSON true and false load as bool, which Python counts as int.
    if (type(removed) is not list or any(type(e) is not int for e in removed)
            or type(level) is not int or level < 1):
        raise ValueError("removed_edges must list ints, guarantee_k be >= 1")
    level = args.k or level
    sol = CutSolution.from_edges(inst.graph, frozenset(removed), level)
    ok = is_feasible(inst, sol, level)
    print("feasible" if ok else "infeasible")
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.input, getattr(args, "k", None))
    if args.what == "brute":
        sol = exact.brute_force_opt(inst)
        print(sol.total_weight)
        if args.report:
            write_report({
                "instance": args.input,
                "opt": sol.total_weight,
                "removed_edges": sorted(sol.removed_edge_ids),
            }, args.report)
    elif args.what == "multicut":
        ell = inst.demands.r if args.ell is None else args.ell
        cut = l_multicut(inst.graph, inst.demands, ell,
                         OracleConfig(mode=args.oracle))
        print(sum(inst.graph.weight(e) for e in cut))
        if args.report:
            write_report({
                "instance": args.input,
                "ell": ell,
                "removed_edges": sorted(cut),
                "weight": sum(inst.graph.weight(e) for e in cut),
            }, args.report)
    else:
        kind = CutKind.UNIFORM if args.kind == "uniform" else CutKind.NONUNIFORM
        cut = exact.brute_force_sparsest(inst.graph, inst.demands, args.route,
                                         inst.flavor, kind)
        print(str(cut.sparsity))
        if args.report:
            write_report({
                "instance": args.input,
                "route": args.route,
                "kind": args.kind,
                "sparsity": str(cut.sparsity),
                "side": sorted(cut.side),
            }, args.report)
    return 0


def _cmd_reduce(args) -> int:
    out = Path(args.out)
    if args.what == "ec2vc":
        inst = _load_instance(args.input, None)
        image, _ = ec_to_vc(inst)
        out.write_text(render_instance(image))
    elif args.what == "uniformize":
        if args.opt_guess is None:
            raise ValueError("uniformize needs --opt-guess")
        inst = _load_instance(args.input, None)
        image, _ = vc_weighted_to_uniform(inst, args.opt_guess)
        out.write_text(render_instance(image))
    elif args.what == "ssve":
        if args.alpha is None:
            raise ValueError("ssve needs --alpha")
        bip = parse_bipartite(Path(args.input).read_text())
        image = ssve_to_st_vc_krc(bip, args.alpha)
        out.write_text(render_instance(image))
    elif args.what == "tensor":
        bip = parse_bipartite(Path(args.input).read_text())
        out.write_text(render_bipartite(tensor_square(bip)))
    else:  # dks
        if args.kappa is None:
            raise ValueError("dks needs --kappa")
        hyp = parse_hypergraph(Path(args.input).read_text())
        bip, alpha_of = dks_incidence_to_ssve(hyp, args.kappa)
        out.write_text(render_bipartite(bip))
        print(f"left vertices: {bip.left_count}; "
              f"alpha for m'=1: {alpha_of(1)}")
    return 0


def _cmd_gen(args) -> int:
    params = {}
    for name in ("n", "m", "r", "k", "wmin", "wmax", "w", "h"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if getattr(args, "cheap_bridges") is not None:
        params["cheap_bridges"] = args.cheap_bridges
    if args.flavor is not None:
        params["flavor"] = args.flavor
    inst, meta = gen_instance(args.kind, params, args.seed)
    Path(args.out).write_text(render_instance(inst))
    if meta:
        sidecar = Path(str(args.out) + ".meta.json")
        sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return 0


def run(argv) -> int:
    """Dispatch a parsed command; exit code 0 ok, 1 infeasible, 2 usage."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "reduce": _cmd_reduce,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except (Infeasible, NoFeasibleGuess) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (KrcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
