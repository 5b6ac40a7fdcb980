import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kroutecut
from kroutecut import (INF, Flavor, OracleConfig,
                       k_route_sparsest_cut_bicriteria, l_multicut,
                       num_edge_disjoint_paths)
from kroutecut.cli import (_build_parser, _params_from_args, build_report,
                           gen_instance, parse_bipartite, parse_hypergraph,
                           parse_instance, render_bipartite, render_instance,
                           run, write_report)
from kroutecut.errors import ExactCapExceeded, ParseError


PATH_TEXT = "p krc ec 3 2 1 1\ne 0 1 1\ne 1 2 1\nd 0 2\n"


def test_parse_path_instance():
    inst = parse_instance(PATH_TEXT)
    assert inst.graph.vertex_count == 3
    assert inst.graph.edge_count == 2
    assert inst.demands.pairs == ((0, 2),)
    assert inst.k == 1
    assert inst.flavor is Flavor.EDGE


def test_parse_inf_weight():
    inst = parse_instance("p krc vc 2 1 1 2\ne 0 1 inf\nd 0 1\n")
    assert inst.graph.edges[0].w == INF
    assert inst.flavor is Flavor.VERTEX


def test_parse_rejects_equal_demand():
    with pytest.raises(ParseError) as err:
        parse_instance("p krc ec 2 1 1 1\ne 0 1 1\nd 0 0\n")
    assert err.value.line_no == 3


def test_parse_rejects_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_instance("\np krc ec 2 2 0 1\ne 0 1 1\n")
    assert err.value.line_no == 2  # the header's line


def test_parse_comments_ignored():
    inst = parse_instance("# header\np krc ec 2 1 0 1  # trailing\ne 0 1 3\n")
    assert inst.graph.edge_count == 1


def test_round_trip_generated():
    rng_seeds = range(12)
    for seed in rng_seeds:
        for kind in ("random", "grid"):
            inst, _ = gen_instance(kind, {}, seed)
            again = parse_instance(render_instance(inst))
            assert again == inst


def test_gen_deterministic():
    a, _ = gen_instance("random", {"n": 9, "m": 15}, 42)
    b, _ = gen_instance("random", {"n": 9, "m": 15}, 42)
    assert a == b
    c, _ = gen_instance("random", {"n": 9, "m": 15}, 43)
    assert c != a


def test_gen_grid_counts():
    inst, _ = gen_instance("grid", {"w": 3, "h": 3}, 1)
    assert inst.graph.vertex_count == 9
    assert inst.graph.edge_count == 18


def test_gen_planted_opt_matches_brute_force():
    from kroutecut.exact import brute_force_opt
    for seed in range(6):
        inst, meta = gen_instance("planted", {"k": 2, "cheap_bridges": 2}, seed)
        assert brute_force_opt(inst).total_weight == meta["opt"]


def test_bipartite_round_trip():
    text = "p bip 2 3 2\ne 0 0\ne 1 2\n"
    bip = parse_bipartite(text)
    assert render_bipartite(bip) == text


def test_parse_hypergraph():
    h = parse_hypergraph("p hyp 4 2 3\nh 0 1 2\nh 1 2 3\n")
    assert h.vertex_count == 4
    assert len(h.hyperedges) == 2


def test_cli_solve_verify_oracle(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    report = tmp_path / "out.json"
    code = run(["solve", "--alg", "ec", "--input", str(inst_file),
                "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["feasible"] is True
    assert payload["weight"] == 1
    assert payload["removed_edges"] in ([0], [1])

    code = run(["verify", "--input", str(inst_file),
                "--solution", str(report)])
    assert code == 0

    empty = tmp_path / "empty.json"
    empty.write_text('{"removed_edges": [], "guarantee_k": 1}')
    code = run(["verify", "--input", str(inst_file), "--solution", str(empty)])
    assert code == 1

    code = run(["oracle", "brute", "--input", str(inst_file)])
    assert code == 0


def test_cli_solve_with_ratio(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    report = tmp_path / "out.json"
    code = run(["solve", "--alg", "uniform-ec", "--input", str(inst_file),
                "--ratio", "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["opt"] == 1
    assert payload["ratio"] == "1"
    assert payload["within_bound"] is True
    assert "bound" in payload


@pytest.mark.parametrize("alg, text, within", [
    ("vc", "p krc vc 3 4 1 2\ne 2 0 0\ne 0 2 0\ne 0 2 1\ne 1 0 0\nd 0 2\n",
     None),
    ("two-route", "p krc vc 3 3 3 2\ne 2 1 0\ne 2 1 3\ne 0 1 0\n"
     "d 1 2\nd 2 1\nd 0 1\n", False)], ids=["vc", "two-route"])
def test_cli_ratio_against_zero_optimum(tmp_path, alg, text, within):
    # The solvers pay for edges the optimum does without: no finite ratio,
    # and a bound, where the algorithm has one, is missed.
    inst_file = tmp_path / "z.krc"
    inst_file.write_text(text)
    report = tmp_path / "out.json"
    code = run(["solve", "--alg", alg, "--input", str(inst_file), "--ratio",
                "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["opt"] == 0 < payload["weight"]
    assert payload["ratio"] is None
    assert payload["within_bound"] is within
    assert (payload["bound"] is None) == (within is None)


def test_cli_trace_flag(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    with_trace = tmp_path / "a.json"
    without = tmp_path / "b.json"
    assert run(["solve", "--alg", "ec", "--input", str(inst_file),
                "--trace", "--report", str(with_trace)]) == 0
    assert run(["solve", "--alg", "ec", "--input", str(inst_file),
                "--report", str(without)]) == 0
    assert "trace" in json.loads(with_trace.read_text())
    assert "trace" not in json.loads(without.read_text())


def test_cli_infeasible_exit(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text("p krc ec 2 1 1 1\ne 0 1 inf\nd 0 1\n")
    code = run(["oracle", "brute", "--input", str(inst_file)])
    assert code == 1


def test_cli_usage_error(tmp_path):
    inst_file = tmp_path / "bad.krc"
    inst_file.write_text("p krc ec 2 1 1 1\ne 0 5 1\nd 0 1\n")
    code = run(["solve", "--alg", "ec", "--input", str(inst_file)])
    assert code == 2


def test_cli_reduce_commands(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    out = tmp_path / "image.krc"
    assert run(["reduce", "ec2vc", "--input", str(inst_file),
                "--out", str(out)]) == 0
    image = parse_instance(out.read_text())
    assert image.flavor is Flavor.VERTEX

    bip_file = tmp_path / "g.bip"
    bip_file.write_text("p bip 2 2 2\ne 0 0\ne 1 1\n")
    out2 = tmp_path / "ssve.krc"
    assert run(["reduce", "ssve", "--input", str(bip_file), "--alpha", "1/2",
                "--out", str(out2)]) == 0
    image2 = parse_instance(out2.read_text())
    assert image2.k == 2

    out3 = tmp_path / "sq.bip"
    assert run(["reduce", "tensor", "--input", str(bip_file),
                "--out", str(out3)]) == 0
    sq = parse_bipartite(out3.read_text())
    assert sq.left_count == 4

    hyp_file = tmp_path / "h.hyp"
    hyp_file.write_text("p hyp 3 2 2\nh 0 1\nh 1 2\n")
    out4 = tmp_path / "inc.bip"
    assert run(["reduce", "dks", "--input", str(hyp_file), "--kappa", "2",
                "--out", str(out4)]) == 0
    inc = parse_bipartite(out4.read_text())
    assert inc.left_count == 2

    vc_file = tmp_path / "v.krc"
    vc_file.write_text("p krc vc 3 2 1 2\ne 0 1 1\ne 1 2 1\nd 0 2\n")
    out5 = tmp_path / "uni.krc"
    assert run(["reduce", "uniformize", "--input", str(vc_file),
                "--opt-guess", "1", "--out", str(out5)]) == 0
    uni = parse_instance(out5.read_text())
    assert all(e.w == 1 for e in uni.graph.edges)


def test_cli_rejects_flags_the_command_ignores(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    assert run(["reduce", "ec2vc", "--input", str(inst_file),
                "--out", str(tmp_path / "image.krc"), "--delta", "1"]) == 2


def test_cli_oracle_mode_only_for_multicut(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    for what in ("brute", "sparsest"):
        assert run(["oracle", what, "--input", str(inst_file),
                    "--oracle", "exact"]) == 2
    assert run(["oracle", "multicut", "--input", str(inst_file),
                "--oracle", "sweep"]) == 0


def test_exact_multicut_refuses_graphs_above_the_cap(tmp_path, capsys):
    # Exact mode refuses graphs above exact_vertex_cap in the multicut and in
    # the bi-criteria oracle built on it, as the exact sparse cuts do; the
    # greedy multicut still answers.
    # On the cycle with vertex 0's edge to 1 tripled, pair (0, 1) has four
    # routes, above ec-polytime's threshold of 3 at k = 2.
    n = OracleConfig.exact_vertex_cap + 1
    text = (f"p krc ec {n} {n + 2} 2 2\ne 0 1 1\ne 0 1 1\n"
            + "".join(f"e {v} {(v + 1) % n} 1\n" for v in range(n))
            + "d 0 1\nd 5 15\n")
    inst = parse_instance(text)
    g, d = inst.graph, inst.demands
    with pytest.raises(ExactCapExceeded):
        l_multicut(g, d, 2, OracleConfig())
    with pytest.raises(ExactCapExceeded):
        k_route_sparsest_cut_bicriteria(g, d, 2, OracleConfig())
    rest, _ = g.without_edges(l_multicut(g, d, 2, OracleConfig(mode="sweep")))
    assert all(num_edge_disjoint_paths(rest, s, t) == 0 for s, t in d.pairs)
    inst_file = tmp_path / "c21.krc"
    inst_file.write_text(text)
    capsys.readouterr()
    for argv in (["oracle", "multicut", "--oracle", "exact"],
                 ["solve", "--alg", "ec-polytime", "--oracle", "exact"]):
        assert run(argv + ["--input", str(inst_file)]) == 2, argv
        assert f"{n} vertices exceeds exact cap" in capsys.readouterr().err
    assert run(["oracle", "multicut", "--oracle", "sweep",
                "--input", str(inst_file)]) == 0


def test_cli_import_leaves_mpmath_unloaded():
    # Nothing in the package needs mpmath, which costs about 4 MiB of RSS.
    src = Path(kroutecut.__file__).resolve().parents[1]
    code = "import sys, kroutecut.cli; sys.exit('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_ratio_leaves_mpmath_unloaded(tmp_path):
    # The ratio bounds' logarithms are integer arithmetic.
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    src = Path(kroutecut.__file__).resolve().parents[1]
    code = ("import sys\nfrom kroutecut.cli import run\n"
            f"code = run(['solve', '--alg', 'uniform-ec', '--input', "
            f"{str(inst_file)!r}, '--ratio', '--report', "
            f"{str(tmp_path / 'out.json')!r}])\n"
            "sys.exit(code or 'mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert "bound" in json.loads((tmp_path / "out.json").read_text())


def test_cli_verify_rejects_edge_ids_out_of_range(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    for ids in ([-1], [2], [0, 7]):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"removed_edges": ids}))
        assert run(["verify", "--input", str(inst_file),
                    "--solution", str(sol)]) == 2


def test_cli_verify_rejects_malformed_solution_files(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    sol = tmp_path / "sol.json"
    for data in ({"removed_edges": ["a"]}, {"removed_edges": [0.5]},
                 {"removed_edges": 3}, {"removed_edges": [[0]]},
                 {"removed_edges": [True]}, {"guarantee_k": "x"}, [1, 2]):
        sol.write_text(json.dumps(data))
        assert run(["verify", "--input", str(inst_file),
                    "--solution", str(sol)]) == 2, data


def test_cli_gen_writes_sidecar(tmp_path):
    out = tmp_path / "plant.krc"
    assert run(["gen", "--kind", "planted", "--k", "2", "--out", str(out),
                "--seed", "9"]) == 0
    meta = json.loads((tmp_path / "plant.krc.meta.json").read_text())
    assert "opt" in meta
    inst = parse_instance(out.read_text())
    assert inst.k == 2


def test_report_byte_stable(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ["solve", "--alg", "ec", "--input", str(inst_file),
            "--oracle", "sweep", "--seed", "11", "--trace"]
    assert run(args + ["--report", str(r1)]) == 0
    assert run(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_oracle_multicut(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(
        "p krc ec 5 4 2 1\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 0 4 1\nd 1 2\nd 3 4\n")
    code = run(["oracle", "multicut", "--input", str(inst_file), "--ell", "1"])
    assert code == 0


def test_cli_oracle_rejects_seed(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    assert run(["oracle", "multicut", "--input", str(inst_file),
                "--seed", "1"]) == 2


def test_cli_oracle_sparsest_report(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    out = tmp_path / "sparsest.json"
    assert run(["oracle", "sparsest", "--input", str(inst_file), "--route",
                "2", "--kind", "uniform", "--report", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "instance": str(inst_file), "route": 2, "kind": "uniform",
        "sparsity": "0", "side": [0]}


def test_cli_oracle_sparsest_rejects_route_below_one(tmp_path):
    ec_file = tmp_path / "p.krc"
    ec_file.write_text(PATH_TEXT)
    vc_file = tmp_path / "v.krc"
    vc_file.write_text("p krc vc 3 2 1 2\ne 0 1 1\ne 1 2 1\nd 0 2\n")
    for inst_file in (ec_file, vc_file):
        for route in ("0", "-1"):
            assert run(["oracle", "sparsest", "--input", str(inst_file),
                        "--route", route]) == 2


def test_cli_rejects_zero_denominators(tmp_path):
    inst_file = tmp_path / "p.krc"
    inst_file.write_text(PATH_TEXT)
    bip_file = tmp_path / "g.bip"
    bip_file.write_text("p bip 2 2 2\ne 0 0\ne 1 1\n")
    solve = ["solve", "--alg", "ec", "--input", str(inst_file)]
    for argv in (solve + ["--delta", "1/0"], solve + ["--c", "1/0"],
                 ["reduce", "ssve", "--input", str(bip_file), "--alpha", "1/0",
                  "--out", str(tmp_path / "ssve.krc")]):
        assert run(argv) == 2, argv


def test_cli_uniformize_rejects_negative_guess(tmp_path):
    vc_file = tmp_path / "v.krc"
    vc_file.write_text("p krc vc 3 2 1 2\ne 0 1 1\ne 1 2 1\nd 0 2\n")
    out = tmp_path / "uni.krc"
    assert run(["reduce", "uniformize", "--input", str(vc_file),
                "--opt-guess", "-3", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("what, text, line_no", [
    ("tensor", "p bip 2 2 1\ne 0 1\np bip 3 3 1\n", 3),  # second header
    ("dks", "p hyp 3 1 2\nh 0 1\np hyp 4 1 2\n", 3),
    ("dks", "p hyp 3 1 2\nh 0 0\n", 2),  # arity 1 under an arity-2 header
    ("tensor", "p bip 2 2 x\n", 1),  # non-integer tokens
    ("tensor", "p bip 2 2 1\ne 0 y\n", 2),
    ("dks", "p hyp 3 1 2\nh 0 z\n", 2),
    ("tensor", "p bip -3 2 0\n", 1),  # squared, -3 read as 9 vertices
    ("tensor", "p bip 2 2 1\ne 5 0\n", 2),  # out of range
    ("tensor", "p bip 2 2 2\ne 0 1\ne 0 1\n", 3),  # repeated
    ("dks", "p hyp 3 1 2\nh 0 7\n", 2),  # out of range
    ("tensor", "# a comment\np bip 2 2 2\ne 0 1\n", 2),  # count mismatch
    ("dks", "\np hyp 3 2 2\nh 0 1\n", 2),
], ids=["bip-header-twice", "hyp-header-twice", "hyp-repeated-vertex",
        "bip-header-token", "bip-edge-token", "hyp-vertex-token",
        "bip-negative-count", "bip-edge-range", "bip-edge-repeated",
        "hyp-vertex-range", "bip-count", "hyp-count"])
def test_cli_reduce_rejects_malformed_files_by_line(tmp_path, capsys, what,
                                                     text, line_no):
    src = tmp_path / "in.txt"
    src.write_text(text)
    out = tmp_path / "out.bip"
    kappa = ["--kappa", "1"] if what == "dks" else []
    assert run(["reduce", what, "--input", str(src), "--out", str(out)]
               + kappa) == 2
    assert f"line {line_no}:" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_config_holds_only_mode_and_seed():
    assert {f.name for f in dataclasses.fields(OracleConfig)} == {"mode", "seed"}
    args = _build_parser().parse_args(["solve", "--alg", "ec", "--input", "x",
                                       "--oracle", "sweep", "--seed", "5"])
    assert _params_from_args(args).oracle == OracleConfig(mode="sweep", seed=5)
    assert (OracleConfig.exact_vertex_cap, OracleConfig.sweep_restarts,
            OracleConfig.free_set_budget, OracleConfig.separator_budget) == \
        (20, 3, 200_000, 200_000)
    with pytest.raises(TypeError):
        OracleConfig(free_set_budget=3)
