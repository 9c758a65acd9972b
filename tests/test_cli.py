import argparse
import ast
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import eg_matchlab
from eg_matchlab import cli
from eg_matchlab.bounds import BUDGET_TAGS
from eg_matchlab.cli import main
from eg_matchlab.graph_core import BITSET_ADJ_LIMIT, Graph, GnpParams, gen_gnp
from eg_matchlab.matching import matching_number

from conftest import BUDGET_PINS, complete_graph, cycle


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(g.to_edge_list_text())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_k5(self, capsys):
        code, out, _ = run(capsys, ["gen", "--n", "5", "--p", "1", "--seed", "1"])
        assert code == 0
        assert out.splitlines()[0] == "5 10"

    def test_round_trip_nu(self, capsys, tmp_path):
        out_file = tmp_path / "g.txt"
        code, _, _ = run(capsys, ["gen", "--n", "40", "--p", "0.2",
                                  "--seed", "9", "--out", str(out_file)])
        assert code == 0
        g = Graph.from_edge_list_text(out_file.read_text())
        code, out, _ = run(capsys, ["nu", str(out_file)])
        assert code == 0
        assert json.loads(out)["nu"] == matching_number(g)

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--n", "5", "--p", "0.5"])


class TestSubcommands:
    def test_tau(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(5))
        code, out, _ = run(capsys, ["tau", path])
        assert code == 0 and json.loads(out)["tau"] == 3

    def test_tb_witness(self, capsys, tmp_path):
        path = write_graph(tmp_path, Graph(4, [(0, 1), (0, 2), (0, 3)]))
        code, out, _ = run(capsys, ["tb-witness", path])
        obj = json.loads(out)
        assert code == 0
        assert obj == {"n": 4, "s_set": [0], "odd_count": 3, "deficiency": 2}

    def test_tb_witness_large(self, capsys, tmp_path):
        g = gen_gnp(GnpParams(1000, 2 / 1000, 5))
        path = write_graph(tmp_path, g)
        code, out, _ = run(capsys, ["tb-witness", path])
        obj = json.loads(out)
        assert code == 0
        assert obj["odd_count"] - len(obj["s_set"]) == obj["deficiency"]
        assert obj["deficiency"] == g.n - 2 * matching_number(g)
        assert sha256(json.dumps(obj["s_set"])) == (
            "049af791fa8182f2bc0b555d2e5ab541383961ccabc1b4e331672eb3e0ad55d1")

    @pytest.mark.parametrize("flag", [["--n-exact", "30"], ["--heuristic"]])
    def test_tb_witness_has_no_knobs(self, tmp_path, flag):
        path = write_graph(tmp_path, cycle(5))
        with pytest.raises(SystemExit):
            main(["tb-witness", path] + flag)

    @pytest.mark.parametrize("argv,unknown", [
        (["budget", "--tag", "CUT", "--n", "1024", "--t", "P25"], "--t P25"),
        (["extremal", "GRAPH", "--k", "1", "--mo", "heur"], "--mo heur")])
    def test_abbreviated_flag_rejected(self, capsys, tmp_path, argv, unknown):
        path = write_graph(tmp_path, cycle(5))
        with pytest.raises(SystemExit) as exc:
            main([path if a == "GRAPH" else a for a in argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err

    def test_threads_flag_rejected(self, tmp_path):
        path = write_graph(tmp_path, cycle(5))
        with pytest.raises(SystemExit):
            main(["--threads", "2", "nu", path])

    def test_tau_budget_exit_3_reports_progress(self, capsys, tmp_path):
        path = write_graph(tmp_path, gen_gnp(GnpParams(30, 0.5, 11)))
        code, out, err = run(capsys, ["tau", path, "--budget", "3"])
        assert code == 3 and out == ""
        assert err.startswith("capability error")
        assert "after 3 nodes" in err
        assert "(lower bound 16, upper bound 28)" in err

    @pytest.mark.parametrize("budget", ["0", "-4"])
    def test_non_positive_budget_exit_2(self, capsys, tmp_path, budget):
        path = write_graph(tmp_path, Graph(1))
        code, out, err = run(capsys, ["tau", path, "--budget", budget])
        assert code == 2 and out == "" and err.startswith("input error")
        code, out, err = run(capsys, ["certify", path, "--budget", budget])
        assert code == 2 and out == "" and err.startswith("input error")

    def test_egcheck_k6(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(6))
        code, out, _ = run(capsys, ["egcheck", path, "--k", "1"])
        obj = json.loads(out)
        assert code == 0
        assert obj["verdict"] == "HOLDS" and obj["size"] == 5

    def test_egcheck_marks_k_beyond_range(self, capsys, tmp_path):
        # K_6: k = 3 has 2k + 1 > n; only that k carries the mark
        path = write_graph(tmp_path, complete_graph(6))
        code, out, _ = run(capsys, ["egcheck", path])
        per_k = json.loads(out)["per_k"]
        assert code == 0
        assert [k for k, obj in per_k.items()
                if obj.get("two_k_plus_1_exceeds_n")] == ["3"]
        code, out, _ = run(capsys, ["egcheck", path, "--k", "3"])
        assert json.loads(out)["two_k_plus_1_exceeds_n"] is True

    def test_extremal_json(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(5))
        code, out, _ = run(capsys, ["extremal", path, "--k", "1"])
        obj = json.loads(out)
        assert obj["size"] == 2 and obj["maximizer_count"] == 5
        assert all(f["canonical"] for f in obj["forms"])

    def test_extremal_json_pinned(self, capsys, tmp_path):
        # six maximizers at k = 2: the forms list follows maximizer order
        path = write_graph(tmp_path, gen_gnp(GnpParams(9, 0.5, 5)))
        code, out, _ = run(capsys, ["extremal", path, "--k", "2"])
        assert code == 0
        assert out == (
            '{"exact": true, "forms": ['
            '{"canonical": true, "form1": [], "form2": [[0, 4]]}, '
            '{"canonical": true, "form1": [], "form2": [[2, 4]]}, '
            '{"canonical": true, "form1": [], "form2": [[2, 7]]}, '
            '{"canonical": true, "form1": [], "form2": [[4, 5]]}, '
            '{"canonical": true, "form1": [], "form2": [[4, 6]]}, '
            '{"canonical": true, "form1": [], "form2": [[4, 7]]}], '
            '"k": 2, "lower_bound_only": false, "maximizer_count": 6, '
            '"size": 10}\n')

    def test_extremal_capability_exit_3(self, capsys, tmp_path):
        g = Graph(500, [(i, i + 1) for i in range(499)])
        path = write_graph(tmp_path, g)
        code, _, err = run(capsys, ["extremal", path, "--k", "3",
                                    "--mode", "exact"])
        assert code == 3
        assert "capability" in err

    def test_extremal_past_row_limit_exit_3(self, capsys, tmp_path):
        path = write_graph(tmp_path, Graph(BITSET_ADJ_LIMIT + 1))
        code, out, err = run(capsys, ["extremal", path, "--k", "0",
                                      "--n-exact", "100000"])
        assert (code, out) == (3, "")
        assert "BITSET_ADJ_LIMIT" in err

    def test_extremal_bad_k_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(5))
        code, _, err = run(capsys, ["extremal", path, "--k", "4"])
        assert code == 2 and "input" in err

    @pytest.mark.parametrize("argv", [
        ["extremal", "--k", "1"], ["extremal", "--k", "1", "--mode", "heur"],
        ["egcheck"], ["egcheck", "--k", "1"]])
    def test_negative_n_exact_exit_2(self, capsys, tmp_path, argv):
        path = write_graph(tmp_path, cycle(5))
        code, out, err = run(capsys, [argv[0], path, *argv[1:],
                                      "--n-exact", "-1"])
        assert (code, out) == (2, "")
        assert err == "input error: n_exact must be >= 0 (got -1)\n"

    @pytest.mark.parametrize("argv", [["extremal", "--k", "0"],
                                      ["egcheck"], ["egcheck", "--k", "0"]])
    def test_empty_graph_exit_2(self, capsys, tmp_path, argv):
        path = write_graph(tmp_path, Graph(0))
        code, out, err = run(capsys, [argv[0], path] + argv[1:])
        assert (code, out) == (2, "")
        assert err == "input error: extremal search needs n >= 1\n"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["nu", "/nonexistent/file.txt"])
        assert code == 2

    def test_improve_trace(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(5))
        pi = json.dumps({"S": [4], "blocks": [[0, 1, 2], [3]]})
        code, out, _ = run(capsys, ["improve", path, "--pi", pi,
                                    "--seed", "3"])
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert "final" in lines[-1]
        assert lines[-1]["reason"] in ("canonical", "no_improvement",
                                       "max_steps", "blocked")

    def test_improve_negative_max_steps_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, gen_gnp(GnpParams(6, 0.5, 1)))
        pi = json.dumps({"S": [5], "blocks": [[0, 1, 2], [3], [4]]})
        code, out, err = run(capsys, ["improve", path, "--pi", pi,
                                      "--seed", "1", "--max-steps", "-3"])
        assert (code, out) == (2, "")
        assert err == "input error: max_steps must be >= 0 (got -3)\n"

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1 << 128])
    @pytest.mark.parametrize("command", ["improve", "extremal"])
    def test_seed_out_of_range_exit_2(self, capsys, tmp_path, command, seed):
        path = write_graph(tmp_path, gen_gnp(GnpParams(6, 0.5, 1)))
        argv = {"improve": ["--pi", '{"S": [5], "blocks": [[0, 1, 2], [3], '
                                    '[4]]}'],
                "extremal": ["--k", "1", "--mode", "heur"]}[command]
        code, out, err = run(capsys, [command, path, *argv,
                                      "--seed", str(seed)])
        assert (code, out) == (2, "")
        assert err == ("input error: seed must be a 64-bit unsigned integer "
                       f"(got {seed})\n")

    def test_improve_bad_pi_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(5))
        code, _, _ = run(capsys, ["improve", path, "--pi", "{bad",
                                  "--seed", "1"])
        assert code == 2


MALFORMED_PI = [
    '{"S": [-1], "blocks": [[0, 1, 2], [3]]}',        # negative vertex
    '{"S": [], "blocks": [[0, 0, 0, 1, 2], [3]]}',    # repeated vertex
    '{"S": [], "blocks": [[0, 1, 2], [4]]}',          # out of range
]


class TestMalformedDecomposition:
    @pytest.mark.parametrize("pi", MALFORMED_PI)
    def test_improve_exit_2(self, capsys, tmp_path, pi):
        path = write_graph(tmp_path, cycle(4))
        code, out, err = run(capsys, ["improve", path, "--pi", pi,
                                      "--seed", "1"])
        assert code == 2
        assert out == "" and err.startswith("input error")

    def test_improve_negative_vertex_no_traceback(self, tmp_path):
        path = write_graph(tmp_path, cycle(4))
        env = dict(os.environ)
        src = str(Path(eg_matchlab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "eg_matchlab.cli", "improve", path,
             "--pi", MALFORMED_PI[0], "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("input error")


class TestBoundsCli:
    def test_budget_tag(self, capsys):
        code, out, _ = run(capsys, ["budget", "--tag", "P24a",
                                    "--n", "16384", "--p", "auto",
                                    "--eps", "0.5"])
        obj = json.loads(out)
        assert code == 0
        assert obj["tag"] == "P24a"
        assert obj["value_log10"] < -6

    def test_budget_bytes(self, capsys):
        code, out, _ = run(capsys, ["budget", "--tag", "P24a",
                                    "--n", "16384", "--p", "auto",
                                    "--eps", "0.5"])
        assert code == 0
        assert out == (
            '{"eps": 0.5, "n": 16384, "notes": {"exponent": "eps^2/2 * '
            'C(w,2) * p (summation form; the pointwise statement uses '
            'eps^2/3)", "w_min": 8193}, "p": 0.004738310804609001, '
            '"tag": "P24a", "vacuous": false, '
            '"value_log10": -3702.312118299865}\n')

    @pytest.mark.parametrize("tag", BUDGET_TAGS)
    def test_budget_bytes_all_tags(self, capsys, tag):
        code, out, _ = run(capsys, ["budget", "--tag", tag,
                                    "--n", "16384", "--p", "auto",
                                    "--eps", "0.5"])
        assert code == 0
        assert out == BUDGET_PINS["cli"][tag]

    @pytest.mark.parametrize("flag,value", [
        ("--m", "5"), ("--q", "0.5"), ("--lam", "1"), ("--K", "2"),
        ("--t", "3"), ("--side", "lt")])
    def test_budget_rejects_tail_bound_flags(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["budget", "--tag", "CUT", "--n", "1024", flag, value])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_budget_t_is_not_tag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["budget", "--t", "CUT", "--n", "1024"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--tag", "CUT"), ("--n", "1024"), ("--p", "auto"), ("--eps", "0.5")])
    def test_bounds_rejects_budget_flags(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--m", "100", "--q", "0.5", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_budget_empty_sum_is_null(self, capsys):
        code, out, _ = run(capsys, ["budget", "--tag", "P25", "--n", "1024",
                                    "--p", "auto"])
        assert code == 0
        obj = json.loads(out)
        assert obj["value_log10"] is None and obj["notes"]["empty_range"]
        assert "Infinity" not in out and "NaN" not in out

    def test_bounds_tail_query(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--m", "100", "--q", "0.5",
                                    "--lam", "10", "--K", "3",
                                    "--t", "60", "--side", "gt"])
        obj = json.loads(out)
        assert code == 0
        assert 0.39 < obj["upper"]["quadratic"] < 0.392
        assert obj["exact_tail"] <= obj["upper"]["phi"]

    def test_bounds_needs_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds"])
        assert exc.value.code == 2
        assert "required: --m, --q" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--t", "nan"), ("--t", "inf"), ("--lam", "nan"), ("--lam", "inf"),
        ("--K", "nan"), ("--K", "inf")])
    def test_bounds_non_finite_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, ["bounds", "--m", "100", "--q", "0.5",
                                      flag, value])
        assert code == 2 and out == ""
        assert err.startswith("input error")


class TestMonteCarlo:
    def test_csv_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "trials.csv"
        code, out, _ = run(capsys, [
            "montecarlo", "--regime", "forest", "--n", "200",
            "--trials", "5", "--seed", "11", "--out", str(out_file)])
        assert code == 0
        summary = json.loads(out)
        assert summary["schema"] == "eg-matchlab/1"
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("trial,seed,n,p,m,nu")
        assert len(lines) == 6

    def test_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["montecarlo", "--regime", "forest", "--n", "150",
                "--trials", "4", "--seed", "3"]
        run(capsys, argv + ["--out", str(a)])
        run(capsys, argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_middle_requires_p(self, capsys):
        code, _, err = run(capsys, ["montecarlo", "--regime", "middle",
                                    "--n", "100", "--trials", "1",
                                    "--seed", "1"])
        assert code == 2

    def test_unknown_check_exit_2(self, capsys):
        code, out, err = run(capsys, ["montecarlo", "--regime", "middle",
                                      "--n", "100", "--p", "0.03",
                                      "--trials", "1", "--seed", "1",
                                      "--checks", "nu,tua"])
        assert (code, out) == (2, "")
        assert "unknown checks ['tua']" in err

    def test_moves_check_removed_exit_2(self, capsys):
        code, out, err = run(capsys, ["montecarlo", "--regime", "forest",
                                      "--n", "100", "--trials", "1",
                                      "--seed", "1", "--checks", "nu,moves"])
        assert (code, out) == (2, "")
        assert "unknown checks ['moves']" in err

    def test_checks_help_lists_check_names(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        checks = next(a for a in sub.choices["montecarlo"]._actions
                      if a.dest == "checks")
        assert checks.help == "comma list: " + ",".join(
            eg_matchlab.harness.CHECK_NAMES)

    @pytest.mark.parametrize("flag,value", [
        ("--trials", "-3"), ("--seed", "-1"), ("--seed", str(1 << 64)),
        ("--eg-cutoff", "-5")])
    def test_out_of_range_exit_2(self, capsys, flag, value):
        argv = {"--trials": "1", "--seed": "1"}
        argv[flag] = value
        code, out, err = run(capsys, ["montecarlo", "--regime", "forest",
                                      "--n", "100"]
                             + [x for kv in argv.items() for x in kv])
        assert (code, out) == (2, "")
        assert err.startswith("input error: ")

    @pytest.mark.parametrize("argv", [
        ["--regime", "forest", "--n", "0", "--trials", "1"],
        ["--regime", "middle", "--n", "0", "--p", "0.1", "--trials", "0"],
        ["--regime", "dense", "--n", "0", "--trials", "0"]])
    def test_n_below_one_exit_2(self, capsys, argv):
        code, out, err = run(capsys, ["montecarlo", *argv, "--seed", "1"])
        assert (code, out) == (2, "")
        assert err == "input error: n must be >= 1 (got 0)\n"

    def test_stdout_csv_without_out(self, capsys):
        code, out, err = run(capsys, ["montecarlo", "--regime", "forest",
                                      "--n", "100", "--trials", "2",
                                      "--seed", "5"])
        assert code == 0
        assert out.splitlines()[0].startswith("trial,seed")
        assert json.loads(err)["schema"] == "eg-matchlab/1"


class TestNoOpFlags:
    """Every flag a subcommand declares is read as ``args.<dest>`` by its
    handler or by a ``cli`` function the handler calls."""

    @staticmethod
    def _functions():
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        return {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}

    @staticmethod
    def _reads(name, functions, seen):
        """The ``args`` fields read by ``name`` and by the module-level
        functions it calls, as ``args.x`` or ``getattr(args, "x", ...)``."""
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        reads = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if (node.func.id == "getattr" and len(node.args) >= 2
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "args"
                        and isinstance(node.args[1], ast.Constant)):
                    reads.add(node.args[1].value)
                reads |= TestNoOpFlags._reads(node.func.id, functions, seen)
        return reads

    def test_every_flag_is_read(self):
        functions = self._functions()
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        unread = {}
        for command, parser in sub.choices.items():
            reads = self._reads(parser.get_default("fn").__name__,
                                functions, set())
            dests = {a.dest for a in parser._actions
                     if not isinstance(a, argparse._HelpAction)}
            if dests - reads:
                unread[command] = sorted(dests - reads)
        assert unread == {}


class TestReadme:
    def test_cli_block_parses(self, capsys):
        """Every ``eg-matchlab`` line of README's CLI block parses, so a flag
        renamed or removed in the parser fails here until README follows."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1]
        block = section.split("```bash\n")[1].split("```")[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.splitlines()
                    if line.startswith("eg-matchlab ")]
        assert len(commands) >= 10
        parser = cli.build_parser()
        rejected = []
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                rejected.append(shlex.join(argv))
        assert rejected == [], capsys.readouterr().err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenHashes:
    """Output bytes pinned by sha256, so that a change to generation, the
    solvers or the record format cannot pass unnoticed."""

    def test_gen(self, capsys):
        code, out, _ = run(capsys, ["gen", "--n", "512", "--p", "0.1",
                                    "--seed", "208"])
        assert code == 0
        assert sha256(out) == ("98330f14794a0dd7b3cfd7a9afc4129f"
                               "d7e31737bbfca0fb9cc5ab6de09c4ea9")

    @pytest.mark.parametrize("argv,csv_hash,summary_hash", [
        (["--regime", "forest", "--n", "1000", "--trials", "20",
          "--seed", "5"],
         "a2e5e22564a398c0abc2d919356d2ed9295dbb0929bb5a2411505c2d37d095ba",
         "318a02fc11849dceeb3d4a82b89d601324494f2f0cda7c2b282776c4ec2af85d"),
        (["--regime", "middle", "--n", "200", "--p", "0.015",
          "--trials", "5", "--seed", "9"],
         "94604ec78286c7b8e515ab73777e565ddc9e7ed5a88470f5d9810a1031c16477",
         "5bac4d08ced50fac47ed9383049f5ff4a1a2659aa23213fd9e0d84b05a7e70f6"),
    ], ids=["forest", "middle"])
    def test_montecarlo(self, capsys, tmp_path, argv, csv_hash,
                        summary_hash):
        csv_file = tmp_path / "trials.csv"
        code, out, _ = run(capsys, ["montecarlo"] + argv
                           + ["--out", str(csv_file)])
        assert code == 0
        assert sha256(csv_file.read_text()) == csv_hash
        assert sha256(out) == summary_hash


class TestImportCost:
    def test_no_sparse_graph_modules(self):
        # scipy.sparse adds tens of milliseconds to every import of the package
        code = ("import sys, eg_matchlab; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.sparse')))")
        env = dict(os.environ)
        src = str(Path(eg_matchlab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCertify:
    def test_sparse_pin(self, capsys, tmp_path):
        # recorded with the bitmask breadth-first search that component
        # label arrays replaced
        path = write_graph(tmp_path, gen_gnp(GnpParams(3000, 0.0005, 77)))
        code, out, _ = run(capsys, ["certify", path, "--verify"])
        assert code == 0
        assert out == (
            '{"certificate_present": false, "direct_check": {"nu": 1035, '
            '"tau": 1035, "verdict": "holds"}, "m": 2216, "n": 3000, '
            '"p3_count": 30, "p3_witnesses": [[128, 36, 1991], '
            '[53, 1198, 315]], "reason": "an empty half-set exists"}\n')

    def test_failing_instance(self, capsys, tmp_path):
        blob = [(6 + u, 6 + v) for u, v in itertools.combinations(range(5), 2)]
        g = Graph(11, [(0, 1), (1, 2), (3, 4), (4, 5)] + blob)
        path = write_graph(tmp_path, g)
        code, out, _ = run(capsys, ["certify", path, "--verify"])
        obj = json.loads(out)
        assert code == 0
        assert obj["certificate_present"]
        assert obj["direct_check"] == {"nu": 4, "tau": None,
                                       "verdict": "fails"}

    def test_no_certificate(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(6))
        code, out, _ = run(capsys, ["certify", path])
        obj = json.loads(out)
        assert not obj["certificate_present"]
        assert "reason" in obj
