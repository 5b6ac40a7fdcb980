"""Workload op lists for the kroutecut benchmark.

Workload names, metric names, units, directions and bounds are declared once,
in BENCHMARK.json at the repository root; this module loads them from there.
A workload is a fixed list of operation specs (one *pass*) run in one oracle
mode. Every pass draws fresh instances from `cli.gen_instance`, so no
instance repeats within a process. The first `scored_passes` passes are the
fixed work that quality metrics, digests and the traced run are computed
over; later passes only add timing samples until the run's time is used.

Sizes are scaled so that one pass takes about a second and a 30 s run holds
hundreds of operations: instance difficulty varies with the seed, and the
spread between runs at different seeds has to stay well inside each
metric's bound. Larger sizes are timed by the ROADMAP ladder in the traced
run (ladder.py).

Where each layer does its work, and where a change to it should show no
change:
  graph (max flow, path counts, st cuts)      flow-oracle   not exact-desk
  oracles exact mask scans and tables         exact-desk    not sweep-ladder
  oracles sweeps, k-route free sets, laminar  sweep-ladder  not flow-oracle
  oracles vertex k-route separators           sweep-ladder, exact-desk
                                                            not flow-oracle
  oracles multicut and bicriteria, exact      flow-oracle   not exact-desk
  brute-force optimum, reductions
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Op:
    """One user-level operation: `call` applied to a generated instance.

    call is one of:
      solve        SOLVERS[alg] then cli.build_report (`krc solve`)
      solve+ratio  the same plus exact.ratio_report (`krc solve --ratio`)
      l_multicut   oracles.l_multicut with ell = r
      laminar      oracles.laminar_min_cut_family
      ec_to_vc     reductions.ec_to_vc plus vertex path counts on the image
    `expect` names a KrcError subclass the op is known to raise today. It
    only labels a failure as known in the printed list; every failure counts
    in fail_rate.
    """

    call: str
    alg: str | None
    gen: str
    params: tuple = ()
    expect: str | None = None

    @property
    def label(self) -> str:
        what = self.alg or self.call
        if self.call == "solve+ratio":
            what += "+ratio"
        args = ",".join(f"{k}={v}" for k, v in self.params if k != "flavor")
        return f"{what}/{self.gen}({args})"


def op(call, alg, gen, expect=None, **params) -> Op:
    return Op(call, alg, gen, tuple(sorted(params.items())), expect)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    ops: tuple[Op, ...] = field(repr=False)
    scored_passes: int
    ladder: str | None = None  # frontier measured in the traced run


SWEEP_LADDER = Workload(
    name="sweep-ladder",
    mode="sweep",
    scored_passes=15,
    ladder="sweep",
    ops=(
        op("solve", "ec", "random", n=6, m=18, r=4, k=2),
        op("solve", "ec", "random", n=7, m=21, r=4, k=2),
        op("solve", "ec", "grid", w=4, h=2, r=4, k=2, wmax=8),
        op("solve", "vc", "random", n=10, m=30, r=4, k=2, flavor="vc"),
        op("solve", "vc", "random", n=12, m=36, r=4, k=2, flavor="vc"),
        op("solve", "uniform-ec", "grid", w=8, h=8, r=4, k=2),
        op("solve", "ec-polytime", "random", n=12, m=36, r=4, k=2),
        op("solve", "ec-polytime", "random", n=20, m=60, r=4, k=2),
        op("solve", "st", "random", n=12, m=48, r=1, k=3, flavor="vc"),
        op("laminar", None, "random", n=20, m=60, r=4, k=2),
        # OPT is known only on planted instances. The cheap one runs twice a
        # pass so that opt_ratio_pooled pools enough of them to be steady
        # between seeds.
        op("solve", "ec", "planted", k=2, cheap_bridges=3),
        op("solve", "ec", "planted", k=2, cheap_bridges=3),
        op("solve", "ec", "planted", k=2, cheap_bridges=4),
        op("solve", "vc", "planted", expect="Infeasible",
           k=2, cheap_bridges=4, flavor="vc"),
        op("solve", "ec", "random", expect="FreeSetBlowup",
           n=14, m=56, r=4, k=3),
    ),
)

EXACT_DESK = Workload(
    name="exact-desk",
    mode="exact",
    scored_passes=20,
    ladder="exact",
    ops=(
        op("solve", "ec", "random", n=8, m=20, r=4, k=2),
        op("solve", "ec", "random", n=9, m=22, r=4, k=2),
        op("solve", "ec", "random", n=10, m=20, r=4, k=2),
        op("solve", "ec", "random", n=5, m=17, r=4, k=3),
        op("solve", "ec", "planted", k=2, cheap_bridges=3),
        op("solve", "ec", "planted", k=2, cheap_bridges=4),
        op("solve", "uniform-ec", "grid", w=4, h=3, r=4, k=2),
        op("solve", "uniform-ec", "grid", w=4, h=3, r=4, k=3),
        op("solve", "vc", "random", n=10, m=25, r=4, k=2, flavor="vc"),
        op("solve", "two-route", "random", n=10, m=20, r=4, k=2, flavor="vc"),
        op("solve", "two-route", "random", n=12, m=24, r=4, k=2, flavor="vc"),
        op("solve", "vc", "planted", expect="Infeasible",
           k=2, cheap_bridges=4, flavor="vc"),
        op("solve", "two-route", "planted", expect="Infeasible",
           k=2, cheap_bridges=4, flavor="vc"),
    ),
)

FLOW_ORACLE = Workload(
    name="flow-oracle",
    mode="exact",
    scored_passes=40,
    ops=(
        op("solve+ratio", "ec", "random", n=4, m=11, r=3, k=2),
        op("solve+ratio", "ec", "random", n=5, m=12, r=3, k=2),
        op("solve+ratio", "two-route", "random", n=6, m=11, r=3, k=2,
           flavor="vc"),
        op("solve+ratio", "two-route", "random", n=7, m=12, r=3, k=2,
           flavor="vc"),
        op("solve", "ec-polytime", "random", n=4, m=7, r=3, k=2),
        op("l_multicut", None, "random", n=5, m=11, r=3, k=2),
        op("ec_to_vc", None, "grid", w=5, h=2, r=3, k=2, wmax=8),
    ),
)

_DEFINED = {w.name: w for w in (SWEEP_LADDER, EXACT_DESK, FLOW_ORACLE)}
# Every workload BENCHMARK.json names must have an op list here.
WORKLOADS = {w["name"]: _DEFINED[w["name"]] for w in MANIFEST["workloads"]}

# (name, unit) of each metric BENCHMARK.json declares.
END_TO_END = tuple((m["name"], m["unit"]) for m in MANIFEST["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in MANIFEST["per_layer"])
RUN_SECONDS = MANIFEST["run_seconds"]

# Printed but not gated: fail_rate is meant to fall to zero once the known
# failures are fixed (the JSON result carries it as failed/attempted), and
# opt_ratio_max, the largest single solution/OPT, swings with one small-OPT
# instance; opt_ratio_pooled (sum of solutions / sum of OPTs over the same
# operations) is the steady form that is gated.
PRINTED_ONLY = (("fail_rate", "ratio"), ("opt_ratio_max", "ratio"))
