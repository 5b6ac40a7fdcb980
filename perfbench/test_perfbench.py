"""Self-tests of the benchmark on a tiny instance list.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import ladder  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY_OPS = (
    wl.op("solve", "ec", "random", n=5, m=11, r=2, k=2),
    wl.op("solve", "ec", "planted", k=2, cheap_bridges=2),
    wl.op("solve+ratio", "two-route", "random", n=5, m=9, r=2, k=2,
          flavor="vc"),
    wl.op("l_multicut", None, "random", n=5, m=9, r=2, k=2),
    wl.op("laminar", None, "random", n=6, m=12, r=3, k=2),
    wl.op("ec_to_vc", None, "grid", w=3, h=2, r=2, k=2),
    wl.op("solve", "vc", "planted", expect="Infeasible",
          k=2, cheap_bridges=2, flavor="vc"),
)


def tiny(w: wl.Workload = wl.FLOW_ORACLE, passes: int = 1) -> wl.Workload:
    return dataclasses.replace(w, ops=TINY_OPS, scored_passes=passes,
                               ladder=None)


def measure(w, seed):
    out = io.StringIO()
    metrics, quality, attempted, failed = run.measure(w, seed, 0, out)
    return metrics, quality, attempted, failed, out.getvalue()


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    metrics, quality, attempted, failed, text = measure(
        tiny(wl.WORKLOADS[name]), 0)
    assert not quality.problems
    assert failed == 1  # the planted vertex instance
    line = json.loads(run.result_line(True, attempted, failed, metrics,
                                      wl.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for metric, unit, *_ in wl.END_TO_END:
        assert line["metrics"][metric]["unit"] == unit
        assert line["metrics"][metric]["value"] > 0, metric
    for metric, unit, *_ in wl.END_TO_END + wl.PRINTED_ONLY:
        assert any(row.split()[:1] == [metric] and unit in row.split()
                   for row in text.splitlines()), metric


def test_one_seed_gives_identical_results():
    w = tiny(passes=2)
    (ma, qa, *_), (mb, qb, *_) = measure(w, 3), measure(w, 3)
    assert (qa.digest, qa.weight, qa.ratio_max, qa.excess, qa.failed,
            qa.attempted) == (qb.digest, qb.weight, qb.ratio_max, qb.excess,
                              qb.failed, qb.attempted)
    for name in ("cut_weight_total", "opt_ratio_max", "opt_ratio_pooled",
                 "guarantee_excess", "fail_rate"):
        assert ma[name] == mb[name]


def test_another_seed_changes_the_instances():
    w = tiny()
    mods = run.Modules()
    texts = [[c.text for c in run.make_pass(mods, w, seed, 0)]
             for seed in (0, 1)]
    assert all(a != b for a, b in zip(*texts))
    again = [c.text for c in run.make_pass(mods, w, 0, 0)]
    assert again == texts[0]


def test_no_instance_repeats_across_passes():
    w = wl.FLOW_ORACLE
    mods = run.Modules()
    seeds = {c.seed for p in range(3) for c in run.make_pass(mods, w, 0, p)}
    assert len(seeds) == 3 * len(w.ops)


def planted_solve():
    mods = run.Modules()
    w = dataclasses.replace(tiny(wl.EXACT_DESK), ops=(TINY_OPS[1],))
    outcomes, _ = run.run_pass(mods, w, run.make_pass(mods, w, 0, 0))
    (out,) = outcomes
    assert out.error is None and out.untyped is None
    return out


def test_checker_accepts_the_solver_output():
    out = planted_solve()
    assert out.value["removed_edges"]
    assert run.score(out).weight == out.value["weight"]


@pytest.mark.parametrize("corrupt", ["drop", "weight", "infinite"])
def test_checker_rejects_a_corrupted_cut(corrupt):
    out = planted_solve()
    report = dict(out.value)
    inst = checker.parse(out.case.text)
    if corrupt == "drop":
        report["removed_edges"] = report["removed_edges"][1:]
        report["weight"] = checker.removal_weight(inst,
                                                  report["removed_edges"])
    elif corrupt == "weight":
        report["weight"] -= 1
    else:
        inf = next(i for i, e in enumerate(inst.edges) if e[2] is None)
        report["removed_edges"] = report["removed_edges"] + [inf]
    with pytest.raises(checker.CheckError):
        checker.check_solve(inst, report)
    bad = dataclasses.replace(out, value=report)
    assert run.assess([bad]).problems


def test_untyped_exception_fails_the_run():
    out = planted_solve()
    bad = dataclasses.replace(out, value=None, untyped="Traceback ...")
    quality = run.assess([bad])
    assert quality.problems and quality.failed == 0


def test_checker_counts_match_the_package():
    mods = run.Modules()
    rng = random.Random(5)
    for seed in range(30):
        flavor = rng.choice(["ec", "vc"])
        inst, _ = mods.cli.gen_instance(
            "random", {"n": 6, "m": 12, "r": 2, "flavor": flavor}, seed)
        parsed = checker.parse(mods.cli.render_instance(inst))
        removed = frozenset(rng.sample(range(12), 3))
        for s, t in parsed.pairs:
            ours = checker.paths(parsed, s, t, removed)
            theirs = mods.graph.connectivity(
                inst.graph, s, t, inst.flavor, exclude=removed)
            assert ours == theirs


def test_traced_run_emits_every_per_layer_metric():
    w = tiny(passes=2)
    metrics, problems, attempted, failed = run.measure_traced(
        w, 0, io.StringIO())
    assert not problems
    assert attempted == 3 * len(TINY_OPS) and failed == 3
    line = json.loads(run.result_line(True, attempted, failed, metrics,
                                      wl.PER_LAYER))
    assert [m for m, *_ in wl.PER_LAYER] == list(line["metrics"])
    assert metrics["graph.max_flow.calls"] > 0
    assert metrics["solvers.ec.calls"] == 4
    assert metrics["exact.ratio_report.calls"] == 2
    assert metrics["reductions.ec_to_vc.calls"] == 2
    assert metrics["oracles.laminar.calls"] == 2


def test_tracer_wraps_every_binding_and_restores_them():
    mods = run.Modules()
    before = {(m.__name__, k): v for m in mods.all for k, v in vars(m).items()}
    solvers = dict(mods.solvers.SOLVERS)
    flow = mods.graph.FlowNet.max_flow
    tracer = Tracer()
    tracer.install(mods)
    try:
        for module in (mods.graph, mods.solvers, mods.exact):
            assert hasattr(module.connectivity, "__wrapped__")
        assert hasattr(mods.oracles.num_edge_disjoint_paths, "__wrapped__")
        assert all(hasattr(f, "__wrapped__")
                   for f in mods.solvers.SOLVERS.values())
        assert mods.graph.FlowNet.max_flow is not flow
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in mods.all for k, v in vars(m).items()}
    assert after == before
    assert mods.solvers.SOLVERS == solvers
    assert mods.graph.FlowNet.max_flow is flow


def test_caches_are_empty_after_a_pass():
    mods = run.Modules()
    w = dataclasses.replace(tiny(wl.EXACT_DESK), ops=(TINY_OPS[1],))
    run.run_pass(mods, w, run.make_pass(mods, w, 0, 0))
    info = mods.mask_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_a_failed_ladder_point_ends_the_frontier(monkeypatch):
    mods = run.Modules()

    def fails(inst, params):
        raise mods.errors.Infeasible("no cut")

    monkeypatch.setitem(mods.solvers.SOLVERS, "ec", fails)
    rows = []
    assert ladder._frontier(mods, "ec", (10, 12), "exact", rows) == 0
    assert rows == [("ec", "exact", 10, None, None, "Infeasible")]
