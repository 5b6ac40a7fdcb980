"""Pinned solver reports across code changes.

Every solver runs on small seeded random, planted and grid instances, in
each oracle mode it uses, and its report is compared with
`data/golden_reports.json` as "<weight> <guarantee_k> <sha256>", the hash
taken over the full report (trace included), so a diff of the file shows
each changed key's weight and guarantee; a run that raises a KrcError pins
the error's class name instead. A refactor must leave every entry
unchanged. Regenerate the file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from kroutecut.cli import build_report, gen_instance
from kroutecut.errors import KrcError
from kroutecut.oracles import OracleConfig
from kroutecut.solvers import SOLVERS, SolverParams

DATA = Path(__file__).with_name("data") / "golden_reports.json"
SEEDS = (0, 1, 2)
BOTH = ("exact", "sweep")

# (instance label, generator kind, generator params, solvers, oracle modes)
CASES = [
    ("random-ec", "random", {"n": 6, "m": 10, "r": 2, "k": 2},
     ("ec", "ec-polytime"), BOTH),
    ("random-ec-k3", "random", {"n": 4, "m": 10, "r": 2, "k": 3},
     ("ec",), BOTH),
    ("random-unit", "random", {"n": 6, "m": 12, "r": 3, "k": 2, "wmax": 1},
     ("uniform-ec", "ec"), BOTH),
    ("grid-ec", "grid", {"w": 3, "h": 3, "r": 3, "k": 2},
     ("uniform-ec", "ec"), BOTH),
    ("grid-ec", "grid", {"w": 3, "h": 3, "r": 3, "k": 2},
     ("ec-polytime",), BOTH),
    ("planted-ec", "planted", {"k": 2, "cheap_bridges": 2},
     ("uniform-ec", "ec", "ec-polytime"), BOTH),
    ("random-vc", "random", {"n": 6, "m": 16, "r": 2, "k": 2, "flavor": "vc"},
     ("vc", "two-route"), BOTH),
    ("random-vc-k3", "random",
     {"n": 7, "m": 30, "r": 2, "k": 3, "flavor": "vc"}, ("vc",), BOTH),
    ("random-vc-n10", "random",
     {"n": 10, "m": 25, "r": 4, "k": 2, "flavor": "vc"},
     ("vc", "two-route"), BOTH),
    ("random-vc-n12-k3", "random",
     {"n": 12, "m": 36, "r": 4, "k": 3, "flavor": "vc"}, ("vc",), BOTH),
    ("grid-vc", "grid", {"w": 3, "h": 3, "r": 2, "k": 2, "flavor": "vc"},
     ("vc", "two-route"), BOTH),
    ("planted-vc", "planted", {"k": 2, "cheap_bridges": 2, "flavor": "vc"},
     ("vc", "two-route", "st"), ("exact",)),
    ("random-st", "random", {"n": 7, "m": 14, "r": 1, "k": 3, "flavor": "vc"},
     ("st",), ("exact",)),
    # Weights near INF: the finite total passes INF, with and without INF
    # edges in the graph.
    ("planted-ec-huge", "planted",
     {"k": 2, "cheap_bridges": 5, "wmax": 2**62}, ("ec",), BOTH),
    ("random-vc-huge", "random",
     {"n": 7, "m": 16, "r": 2, "k": 2, "wmin": 2**61, "wmax": 2**62,
      "flavor": "vc"}, ("vc", "two-route"), BOTH),
]


def outcome(key, kind, params, seed, alg, mode) -> str:
    inst, _ = gen_instance(kind, dict(params), seed)
    params = SolverParams(oracle=OracleConfig(mode=mode, seed=seed))
    try:
        result = SOLVERS[alg](inst, params)
    except KrcError as exc:
        return type(exc).__name__
    report = build_report(key, alg, inst, result, include_trace=True)
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
    return f"{report['weight']} {report['guarantee_k']} {digest}"


def outcomes(only_alg=None) -> dict[str, str]:
    out = {}
    for label, kind, params, algs, modes in CASES:
        for alg in algs:
            if only_alg is not None and alg != only_alg:
                continue
            for mode in modes:
                for seed in SEEDS:
                    key = f"{alg}/{mode}/{label}/{seed}"
                    out[key] = outcome(key, kind, params, seed, alg, mode)
    return out


@pytest.mark.parametrize("alg", sorted(SOLVERS))
def test_golden_reports(alg):
    pinned = {key: value for key, value in json.loads(DATA.read_text()).items()
              if key.split("/", 1)[0] == alg}
    got = outcomes(alg)
    assert pinned, f"no pinned reports for {alg}"
    changed = sorted(key for key in pinned.keys() | got.keys()
                     if pinned.get(key) != got.get(key))
    assert not changed, f"reports changed: {changed}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(outcomes(), sort_keys=True, indent=1) + "\n")
