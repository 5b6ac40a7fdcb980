"""ROADMAP baseline ladder points and the two frontier numbers.

Each point is one solve on `cli.gen_instance("random", n, m=3n, r=4, k=2)` at
seed 0, stopped by a CPU-time alarm once it passes the budget. A solver's
ladder ends at its first point that is over budget or fails; the frontier is
the largest n solved within it.
"""

from __future__ import annotations

import signal
import time

BUDGET_S = 10.0
SIZES = (10, 20, 40, 80)
EXACT_SIZES = (10, 12, 14, 16, 18, 20)
# Seed-0 sweep-mode wall times from the ROADMAP baseline table (None: not
# run); single runs on a 2-core machine, so orders of magnitude only.
BASELINE = {
    "ec": (0.8, 5.0, 64, None),
    "vc": (0.06, 0.3, 10, 91),
    "ec-polytime": (0.09, 0.02, 0.35, 1.0),
    "uniform-ec": (0.001, 0.002, 0.009, 0.013),
}


class OverBudget(Exception):
    pass


def _alarm(_signum, _frame):
    raise OverBudget


def _point(mods, alg: str, n: int, mode: str):
    """(seconds, weight, guarantee); seconds is None and the guarantee is the
    reason when the solve failed or went over budget."""
    flavor = "vc" if alg == "vc" else "ec"
    inst, _ = mods.cli.gen_instance(
        "random", {"n": n, "m": 3 * n, "r": 4, "k": 2, "flavor": flavor}, 0)
    params = mods.solvers.SolverParams(
        oracle=mods.oracles.OracleConfig(mode=mode, seed=0))
    previous = signal.signal(signal.SIGPROF, _alarm)
    signal.setitimer(signal.ITIMER_PROF, BUDGET_S)
    start = time.process_time()
    try:
        result = mods.solvers.SOLVERS[alg](inst, params)
    except mods.errors.KrcError as exc:
        return None, None, type(exc).__name__
    except OverBudget:
        return None, None, "over budget"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    took = time.process_time() - start
    return took, result.solution.total_weight, result.guarantee


def _frontier(mods, alg, sizes, mode, rows) -> int:
    best = 0
    for n in sizes:
        took, weight, guarantee = _point(mods, alg, n, mode)
        rows.append((alg, mode, n, took, weight, guarantee))
        if took is None:
            break
        best = n
    return best


def sweep_ladder(mods, out) -> int:
    """Prints the ROADMAP seed-0 ladder beside its baseline; returns the
    sweep frontier (largest `ec` n within budget)."""
    rows = []
    frontier = _frontier(mods, "ec", SIZES, "sweep", rows)
    for alg in ("vc", "ec-polytime", "uniform-ec"):
        _frontier(mods, alg, SIZES, "sweep", rows)
    print("# ROADMAP ladder, seed 0, sweep mode, random m=3n r=4 k=2 "
          f"(budget {BUDGET_S:g} s per point)", file=out)
    print(f"#   {'solver':12s} {'n':>3s} {'cpu_s':>8s} {'roadmap_s':>10s} "
          f"{'weight':>7s} guarantee", file=out)
    for alg, _mode, n, took, weight, guarantee in rows:
        base = BASELINE[alg][SIZES.index(n)]
        now = "-" if took is None else f"{took:.3f}"
        print(f"#   {alg:12s} {n:3d} {now:>8s} {str(base):>10s} "
              f"{str(weight):>7s} {guarantee}", file=out)
    return frontier


def exact_frontier(mods, out) -> int:
    rows = []
    frontier = _frontier(mods, "ec", EXACT_SIZES, "exact", rows)
    for alg, _mode, n, took, weight, guarantee in rows:
        now = "-" if took is None else f"{took:.3f}"
        print(f"# exact ladder ec n={n}: {now} cpu_s weight={weight} "
              f"guarantee={guarantee}", file=out)
    return frontier
