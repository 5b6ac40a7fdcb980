#!/usr/bin/env python3
"""Closed-loop benchmark of kroutecut: one client, one operation at a time.

    python3 perfbench/run.py --workload sweep-ladder --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the run times operations untraced and the last stdout line holds
the end-to-end metrics; with `--trace 1` it runs the scored passes untraced
and then traced, and reports the per-layer metrics. Every output is checked
by `checker.py` outside the timed region; a wrong output or an exception that
is not a KrcError makes the run incorrect (exit 1).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Bytecode is always written, to a directory of the benchmark's own, so that
# neither PYTHONDONTWRITEBYTECODE nor a __pycache__ in the source tree (running
# the tests writes one) changes what setup_s measures. measure() imports once
# untimed to fill it; the timed imports then load bytecode.
sys.dont_write_bytecode = False
sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")

import checker  # noqa: E402
import ladder  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_PASSES = 100_000
INF_WEIGHT = 2**63 - 1  # kroutecut.graph.INF, the uncuttable-edge weight
PACKAGE_MODULES = ("graph", "oracles", "solvers", "exact", "reductions",
                   "cli", "errors")

# Operations are single-threaded, CPU-bound and do no I/O, so they are timed
# in process CPU seconds. On a shared virtual machine wall time also counts
# the moments the host deschedules the process, which swing between runs by
# far more than the program's own cost does.
clock = time.process_time


class Modules:
    """The package's modules from one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "kroutecut" or n.startswith("kroutecut.")]:
            del sys.modules[name]
        self.all = [importlib.import_module("kroutecut")]
        for name in PACKAGE_MODULES:
            module = importlib.import_module(f"kroutecut.{name}")
            setattr(self, name, module)
            self.all.append(module)
        self.caches = [v for m in self.all for v in vars(m).values()
                       if callable(getattr(v, "cache_clear", None))]
        self.mask_tables = getattr(self.oracles, "_mask_tables", None)


@dataclass
class Case:
    op: wl.Op
    seed: int
    text: str
    inst: object
    meta: dict


@dataclass
class Outcome:
    case: Case
    seconds: float
    value: object = None
    rounds: int | None = None
    error: str | None = None  # KrcError subclass name
    untyped: str | None = None  # traceback of any other exception


def op_seed(seed: int, pass_no: int, slot: int) -> int:
    return (seed * MAX_PASSES + pass_no) * 1000 + slot


def make_pass(mods: Modules, w: wl.Workload, seed: int, pass_no: int):
    cases = []
    for slot, op in enumerate(w.ops):
        s = op_seed(seed, pass_no, slot)
        inst, meta = mods.cli.gen_instance(op.gen, dict(op.params), s)
        text = mods.cli.render_instance(inst)
        cases.append(Case(op, s, text, mods.cli.parse_instance(text), meta))
    return cases


def setup(w: wl.Workload, seed: int):
    """Import the package and build the scored passes' instances."""
    gc.collect()
    start = clock()
    mods = Modules()
    passes = [make_pass(mods, w, seed, p) for p in range(w.scored_passes)]
    return clock() - start, mods, passes


def execute(mods: Modules, mode: str, case: Case):
    """The timed operation; returns (value, solver rounds)."""
    op, inst = case.op, case.inst
    cfg = mods.oracles.OracleConfig(mode=mode, seed=case.seed)
    if op.call in ("solve", "solve+ratio"):
        params = mods.solvers.SolverParams(oracle=cfg)
        result = mods.solvers.SOLVERS[op.alg](inst, params)
        ratio = None
        if op.call == "solve+ratio":
            ratio = mods.exact.ratio_report(inst, op.alg, result, op.label,
                                            delta=params.delta, c=params.c)
        report = mods.cli.build_report(op.label, op.alg, inst, result, ratio)
        return report, len(result.trace)
    if op.call == "l_multicut":
        cut = mods.oracles.l_multicut(inst.graph, inst.demands,
                                      inst.demands.r, cfg)
        return sorted(cut), None
    if op.call == "laminar":
        family = mods.oracles.laminar_min_cut_family(inst.graph, inst.demands)
        return family.sets, None
    if op.call == "ec_to_vc":
        image, _ = mods.reductions.ec_to_vc(inst)
        counts = [mods.graph.num_vertex_disjoint_paths(image.graph, a, b)
                  for a, b in image.demands.pairs]
        return (image, counts), None
    raise ValueError(f"unknown call {op.call!r}")


class CacheStats:
    def __init__(self):
        self.hits = self.misses = 0


def run_pass(mods: Modules, w: wl.Workload, cases, tracer=None,
             cache_stats=None):
    """Runs one pass; returns (outcomes, CPU seconds).

    A `krc solve` process starts cold, so every package cache is cleared
    before each operation and again after the pass; `cache_stats` counts the
    mask-table lookups of this pass's operations only.
    """
    gc.collect()
    outcomes = []
    start = clock()
    for case in cases:
        clear_caches(mods, cache_stats)
        if tracer is not None:
            tracer.op_id += 1
        t0 = clock()
        try:
            value, rounds = execute(mods, w.mode, case)
            out = Outcome(case, clock() - t0, value, rounds)
        except mods.errors.KrcError as exc:
            out = Outcome(case, clock() - t0, error=type(exc).__name__)
        except Exception:  # noqa: BLE001 - any other exception fails the run
            out = Outcome(case, clock() - t0, untyped=traceback.format_exc())
        outcomes.append(out)
    took = clock() - start
    clear_caches(mods, cache_stats)
    return outcomes, took


def clear_caches(mods: Modules, cache_stats=None) -> None:
    if cache_stats is not None and mods.mask_tables is not None:
        info = mods.mask_tables.cache_info()
        cache_stats.hits += info.hits
        cache_stats.misses += info.misses
    for cache in mods.caches:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# Checking and scoring (outside the timed region).


def parsed_image(image) -> checker.Parsed:
    g = image.graph
    edges = tuple((e.u, e.v, None if e.w >= INF_WEIGHT else e.w)
                  for e in g.edges)
    return checker.Parsed(g.vertex_count, edges, image.demands.pairs,
                          image.k, image.flavor.value)


@dataclass
class Score:
    weight: int = 0
    excess: int = 0
    opt: int | None = None  # known optimum, when positive
    digest: str = ""


def score(out: Outcome) -> Score:
    """Checks one successful outcome and returns its quality figures."""
    case, op = out.case, out.case.op
    inst = checker.parse(case.text)
    sc = Score()
    if op.call.startswith("solve"):
        report = out.value
        checker.check_solve(inst, report)
        sc.weight = report["weight"]
        sc.excess = report["guarantee_k"] - report["k"]
        opt = report.get("opt", case.meta.get("opt"))
        if opt:
            if report["guarantee_k"] == inst.k and sc.weight < opt:
                raise checker.CheckError(
                    f"weight {sc.weight} below the known optimum {opt}")
            sc.opt = opt
        payload = [report["removed_edges"], report["guarantee_k"]]
    elif op.call == "l_multicut":
        sc.weight = checker.check_multicut(inst, out.value, len(inst.pairs))
        payload = out.value
    elif op.call == "laminar":
        sets = [frozenset(s) for s in out.value]
        sc.weight = checker.check_laminar(inst, sets)
        payload = [sorted(s) for s in sets]
    else:
        image, counts = out.value
        checker.check_ec_to_vc(inst, parsed_image(image), counts)
        payload = counts
    blob = json.dumps([case.text, payload], sort_keys=True).encode()
    sc.digest = hashlib.sha256(blob).hexdigest()
    return sc


@dataclass
class Quality:
    attempted: int = 0
    failed: int = 0
    weight: int = 0
    excess: int = 0
    opt_total: int = 0
    opt_solution_total: int = 0
    ratio_max: Fraction | None = None
    ratio_max_label: str = ""
    digest: str = ""
    failures: dict | None = None
    problems: list | None = None


def assess(outcomes) -> Quality:
    """Quality figures over outcomes; wrong outputs land in `problems`."""
    q = Quality(failures={}, problems=[])
    h = hashlib.sha256()
    for out in outcomes:
        q.attempted += 1
        label = out.case.op.label
        if out.untyped is not None:
            q.problems.append(f"{label} seed={out.case.seed}: untyped "
                              f"exception\n{out.untyped}")
            continue
        if out.error is not None:
            q.failed += 1
            key = (label, out.error, out.error == out.case.op.expect)
            q.failures[key] = q.failures.get(key, 0) + 1
            h.update(f"{out.case.text}{out.error}".encode())
            continue
        try:
            sc = score(out)
        except checker.CheckError as exc:
            q.problems.append(f"{label} seed={out.case.seed}: {exc}")
            continue
        q.weight += sc.weight
        q.excess += sc.excess
        if sc.opt is not None:
            q.opt_total += sc.opt
            q.opt_solution_total += sc.weight
            ratio = Fraction(sc.weight, sc.opt)
            if q.ratio_max is None or ratio > q.ratio_max:
                q.ratio_max, q.ratio_max_label = ratio, label
        h.update(sc.digest.encode())
    q.digest = h.hexdigest()[:16]
    return q


def tail(times):
    """(value, percentile, samples): the highest whole percentile with at
    least ten samples above it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    pct = max(0, (100 * (n - 10)) // n) if n else 0
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct, n


# ---------------------------------------------------------------------------
# Runs.


def measure(w: wl.Workload, seed: int, seconds: float, out=sys.stdout):
    """Untraced run; returns (metrics, quality, attempted, failed)."""
    Modules()  # compiles any stale bytecode, so timed imports only load it
    took, mods, passes = setup(w, seed)
    setup_times = [took]

    outcomes_all, walls, rates = [], [], []
    start = time.monotonic()
    p = 0
    while p < w.scored_passes or (
            p < MAX_PASSES
            and time.monotonic() + statistics.mean(walls) <= start + seconds):
        cases = passes[p] if p < len(passes) else make_pass(mods, w, seed, p)
        began = time.monotonic()
        outcomes, took = run_pass(mods, w, cases)
        outcomes_all.extend(outcomes)
        rates.append(sum(1 for o in outcomes
                         if o.error is None and o.untyped is None) / took)
        # One more set-up after every pass, its result dropped: set-ups are
        # spread over the run like the operations, so that setup_s samples
        # the host over the same span of time and not only its first second.
        setup_times.append(setup(w, seed)[0])
        walls.append(time.monotonic() - began)
        p += 1
    setup_s = statistics.median(setup_times)

    scored = outcomes_all[:w.scored_passes * len(w.ops)]
    quality = assess(scored)
    rest = assess(outcomes_all[len(scored):])
    quality.problems.extend(rest.problems)
    good = [o.seconds for o in outcomes_all
            if o.error is None and o.untyped is None]
    tail_s, pct, samples = tail(good)
    failed = quality.failed + rest.failed
    metrics = {
        "solves_per_s": statistics.median(rates),
        "op_s_p50": statistics.median(good),
        "op_s_tail": tail_s,
        "fail_rate": quality.failed / quality.attempted,
        "cut_weight_total": quality.weight,
        "opt_ratio_pooled": quality.opt_solution_total / quality.opt_total
        if quality.opt_total else 0.0,
        "opt_ratio_max": float(quality.ratio_max or 0),
        "guarantee_excess": quality.excess,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# passes={p} (scored {w.scored_passes}) ops={len(outcomes_all)} "
          f"failed={failed}", file=out)
    units = {n: u for n, u, *_ in wl.END_TO_END + wl.PRINTED_ONLY}
    notes = {
        "solves_per_s": f"median over {p} passes of successful ops / pass "
                        f"CPU time ({sum(walls):.1f} s wall)",
        "op_s_tail": f"p{pct} of {samples} ops",
        "fail_rate": f"{quality.failed} of {quality.attempted} scored ops",
        "setup_s": f"median of {len(setup_times)}",
        "cut_weight_total": f"scored passes, digest {quality.digest}",
        "opt_ratio_pooled": f"{quality.opt_solution_total} / "
                            f"{quality.opt_total}",
        "opt_ratio_max": quality.ratio_max_label,
    }
    for name, value in metrics.items():
        print(f"{name:18s} {value:14.6g} {units[name]:7s} "
              f"{notes.get(name, '')}", file=out)
    for (label, error, known), count in sorted(quality.failures.items()):
        print(f"# failure: {label} {error} x{count} "
              f"({'known' if known else 'unexpected'})", file=out)
    return metrics, quality, len(outcomes_all), failed


def measure_traced(w: wl.Workload, seed: int, out=sys.stdout):
    """The scored passes traced, after the first of them untraced.

    The untraced pass is rerun traced on freshly parsed instances of the
    same seeds (caches are cleared before every operation), which gives the
    tracing overhead and checks that tracing changes no result.
    """
    _, mods, passes = setup(w, seed)
    plain_out, _ = run_pass(mods, w, passes[0])
    tracer = Tracer()
    tracer.install(mods)
    cache_stats = CacheStats()
    try:
        fresh = [make_pass(mods, w, seed, p) for p in range(w.scored_passes)]
        traced_out = [o for cases in fresh
                      for o in run_pass(mods, w, cases, tracer, cache_stats)[0]]
    finally:
        tracer.uninstall()

    first_traced = traced_out[:len(plain_out)]
    q_plain, q_first = assess(plain_out), assess(first_traced)
    q_traced = assess(traced_out)
    problems = q_plain.problems + q_traced.problems
    if q_plain.digest != q_first.digest:
        problems.append(f"traced digest {q_first.digest} != untraced "
                        f"{q_plain.digest}")

    frontier_exact = frontier_sweep = 0
    if w.ladder == "sweep":
        frontier_sweep = ladder.sweep_ladder(mods, out)
    elif w.ladder == "exact":
        frontier_exact = ladder.exact_frontier(mods, out)

    op_time = sum(o.seconds for o in traced_out)
    overhead = (sum(o.seconds for o in first_traced)
                / sum(o.seconds for o in plain_out))
    ops = len(traced_out)
    calls, self_s, total = tracer.calls, tracer.self_s, tracer.total

    solves = [o for o in traced_out
              if o.case.op.call.startswith("solve") and o.rounds is not None]
    lookups = cache_stats.hits + cache_stats.misses
    free_sets = sum(count for (parent, child), count in tracer.children.items()
                    if parent == "oracles.k_route"
                    and child.startswith("oracles.sparsest_cut."))
    m = {
        "graph.max_flow.calls": calls("graph.max_flow"),
        "graph.max_flow.self_s": self_s("graph.max_flow"),
        "graph.edge_paths.calls": calls("graph.edge_paths"),
        "graph.vertex_paths.calls": calls("graph.vertex_paths"),
        "graph.st_cut.calls": calls("graph.st_cut"),
        "graph.st_cut.self_s": self_s("graph.st_cut"),
        "graph.is_feasible.calls": calls("graph.is_feasible"),
        "graph.is_feasible.s": total("graph.is_feasible"),
        "graph.flows_per_op": calls("graph.max_flow") / ops,
        "graph.self_share": self_s("graph") / op_time,
        "oracles.sparsest_cut.exact.calls": calls("oracles.sparsest_cut.exact"),
        "oracles.sparsest_cut.exact.self_s": self_s("oracles.sparsest_cut.exact"),
        "oracles.masks_scanned": tracer.computed["masks"],
        "oracles.mask_tables.hit_ratio":
            cache_stats.hits / lookups if lookups else 0.0,
        "oracles.sparsest_cut.sweep.calls": calls("oracles.sparsest_cut.sweep"),
        "oracles.sparsest_cut.sweep.self_s": self_s("oracles.sparsest_cut.sweep"),
        "oracles.sweep_orderings": tracer.computed["orderings"],
        "oracles.k_route.calls": calls("oracles.k_route"),
        "oracles.k_route.free_sets": free_sets,
        "oracles.k_route.self_s": self_s("oracles.k_route"),
        "oracles.vertex_k_route.calls": calls("oracles.vertex_k_route"),
        "oracles.vertex_k_route.self_s": self_s("oracles.vertex_k_route"),
        "oracles.separators": tracer.computed["separators"],
        "oracles.l_multicut.calls": calls("oracles.l_multicut"),
        "oracles.l_multicut.self_s": self_s("oracles.l_multicut"),
        "oracles.l_multicut.flows_per_call":
            tracer.flows_per_call("oracles.l_multicut"),
        "oracles.bicriteria.calls": calls("oracles.bicriteria"),
        "oracles.bicriteria.self_s": self_s("oracles.bicriteria"),
        "oracles.laminar.calls": calls("oracles.laminar"),
        "oracles.laminar.self_s": self_s("oracles.laminar"),
    }
    for alg in mods.solvers.SOLVERS:
        m[f"solvers.{alg}.calls"] = calls(f"solvers.{alg}")
        m[f"solvers.{alg}.s"] = total(f"solvers.{alg}")
    m.update({
        "solvers.rounds": sum(o.rounds for o in solves),
        "solvers.self_s": self_s("solvers"),
        "solvers.zero_round_share":
            sum(1 for o in solves if o.rounds == 0) / len(solves)
            if solves else 0.0,
        "exact.brute_force_opt.calls": calls("exact.brute_force_opt"),
        "exact.brute_force_opt.self_s": self_s("exact.brute_force_opt"),
        "exact.brute_force_opt.flows_per_call":
            tracer.flows_per_call("exact.brute_force_opt"),
        "exact.ratio_report.calls": calls("exact.ratio_report"),
        "reductions.ec_to_vc.calls": calls("reductions.ec_to_vc"),
        "reductions.ec_to_vc.self_s": self_s("reductions.ec_to_vc"),
        "reductions.image_edges": tracer.computed["image_edges"],
        "cli.gen_instance.s": total("cli.gen_instance"),
        "cli.render_instance.s": total("cli.render_instance"),
        "cli.parse_instance.s": total("cli.parse_instance"),
        "cli.build_report.s": total("cli.build_report"),
        "trace_overhead": overhead,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in SRC.rglob("*.py")),
        "frontier.exact_n_10s": frontier_exact,
        "frontier.sweep_n_10s": frontier_sweep,
    })
    print(f"# traced {ops} ops over {w.scored_passes} passes; "
          f"self-time share of traced op time:", file=out)
    layers = ("graph", "oracles.sparsest_cut.exact",
              "oracles.sparsest_cut.sweep", "oracles", "solvers", "exact",
              "reductions", "cli")
    for layer in layers:
        print(f"#   {layer:28s} {self_s(layer) / op_time:7.1%}", file=out)
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)[:8]
    print("# largest self times: " + ", ".join(
        f"{name} {st.self_time / op_time:.1%}" for name, st in top), file=out)
    print(f"# zero-round solves: {m['solvers.zero_round_share']:.1%} "
          f"of {len(solves)}", file=out)
    attempted = len(plain_out) + len(traced_out)
    failed = q_plain.failed + q_traced.failed
    return m, problems, attempted, failed


def result_line(correct, attempted, failed, metrics, declared) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in declared},
    })


def run_all(args) -> int:
    """Every workload in a fresh process of its own."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=wl.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # The solvers' own feasibility check is an assert.
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "kroutecut" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    w = wl.WORKLOADS[args.workload]
    print(f"# kroutecut benchmark workload={w.name} mode={w.mode} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={sys.version.split()[0]} optimize={sys.flags.optimize}")
    if args.trace:
        metrics, problems, attempted, failed = measure_traced(w, args.seed)
        declared = wl.PER_LAYER
    else:
        metrics, quality, attempted, failed = measure(w, args.seed,
                                                      args.seconds)
        problems = quality.problems
        declared = wl.END_TO_END
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    print(result_line(not problems, attempted, failed, metrics, declared))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
