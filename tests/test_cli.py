"""End-to-end tests for the command-line interface.

Every command runs in-process through ``main`` so exit codes and output
can be asserted directly.
"""

import csv
import dataclasses
import gc
import hashlib
import io
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from test_instance import regular_instance

import rapkit.cli
import rapkit.exact
import rapkit.lp
from rapkit.cli import _num, main
from rapkit.ear import solve_ear
from rapkit.exact import solve_exact
from rapkit.instance import (
    InstanceError,
    Solution,
    format_instance,
    format_solution,
    make_instance,
    parse_instance,
    parse_solution,
    uniform_instance,
    verify_solution,
    solution_for,
)
from rapkit.lp import LpError, dump_lp
from rapkit.reductions import gk_family, random_instance
from rapkit.rounding import prepare


def c4_text():
    inst = uniform_instance(2, 2, [(0, 0), (0, 1), (1, 1), (1, 0)])
    return format_instance(inst)


def write(path, text):
    path.write_text(text)
    return str(path)


# `test_lp_round_outputs_pinned` lines: name, seed, exit code, then digests
# of stdout, stderr, --out, --trace and --dump-lp
PINNED_LP_ROUND_LINES = [
    "gk3 0 0 fd693aee709336bb e3b0c44298fc1c14 68da96bd7aeb82b3 fdc01cf1da7e890f 091f604541c94475",
    "gk3 1 0 c10a6a0496c622e4 e3b0c44298fc1c14 8a6fc98612de209b 45de3ebdd462ce73 091f604541c94475",
    "rand4 0 0 66ed86d5413bd8b7 e3b0c44298fc1c14 8816d99a471b764d 194990d23a55f88f 5e0bc6770d614a58",
    "rand4 1 0 cd3d6065f9bfb8b4 e3b0c44298fc1c14 394a5fd90e1803cd b0cf7be9071fa1f1 5e0bc6770d614a58",
    "unb3x4 0 0 bba1137fbd67f4d9 e3b0c44298fc1c14 b44f385ecb9a25d4 3e9c3d0d3e3a0401 45955dfa77281b87",
    "unb3x4 1 0 8bc3456d60a8f12c e3b0c44298fc1c14 86c52f7668ea8578 ff5fe27cb43c9b55 45955dfa77281b87",
    "nom4 0 0 3a28040759107dc7 e3b0c44298fc1c14 413a24fce1b0b792 7015fc7178f323b8 45fc62023907b380",
    "nom4 1 0 d9169ccb723ceabb e3b0c44298fc1c14 413a24fce1b0b792 7015fc7178f323b8 45fc62023907b380",
]


@pytest.fixture
def c4_file(tmp_path):
    return write(tmp_path / "c4.txt", c4_text())


@pytest.fixture
def g3_file(tmp_path):
    return write(tmp_path / "g3.txt", format_instance(gk_family(3)))


class TestSolve:
    def test_exact_on_cycle(self, c4_file, capsys):
        rc = main(["solve", "--algo", "exact", "--in", c4_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cost=4" in out
        assert "feasible=yes" in out
        assert "algo=exact" in out

    def test_ear_within_band(self, g3_file, capsys):
        rc = main(["solve", "--algo", "ear", "--in", g3_file])
        out = capsys.readouterr().out
        assert rc == 0
        cost = int(out.split("cost=")[1].split()[0])
        assert 8 <= cost <= 9

    def test_failed_lower_bound_keeps_the_solution(self, g3_file, tmp_path, capsys, monkeypatch):
        def no_memory(inst, plan=None):
            raise MemoryError("dense LP too large\nsecond line")

        monkeypatch.setattr(rapkit.cli, "lower_bounds", no_memory)
        sol = tmp_path / "g3.sol"
        rc = main(["solve", "--algo", "ear", "--in", g3_file, "--out", str(sol)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "feasible=yes" in captured.out
        assert captured.out.rstrip().endswith("lb=- ratio=-")
        assert captured.err == "lb: MemoryError: dense LP too large\n"
        assert parse_solution(sol.read_text())

        # a fault is not a missing bound
        def broken(inst, plan=None):
            raise AssertionError("bound check")

        monkeypatch.setattr(rapkit.cli, "lower_bounds", broken)
        with pytest.raises(AssertionError, match="bound check"):
            main(["solve", "--algo", "ear", "--in", g3_file])

    def test_rejected_solver_output_exits_3(self, c4_file, tmp_path, capsys, monkeypatch):
        # one matching of C4 fails when either of its edges does
        monkeypatch.setattr(rapkit.cli, "solve_exact", lambda inst: solution_for(inst, {1, 3}))
        sol = tmp_path / "pm.sol"
        rc = main(["solve", "--algo", "exact", "--in", c4_file, "--out", str(sol)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "feasible=no" in captured.out
        assert captured.err == "solver output rejected: infeasible at scenario e1\n"
        assert parse_solution(sol.read_text()) == {1, 3}

    def test_oversized_relaxation_master_leaves_the_bound_blank(
        self, g3_file, tmp_path, capsys, monkeypatch
    ):
        # gk3's seed master has 31 rows
        monkeypatch.setattr(rapkit.lp, "_MAX_MASTER_ROWS", 30)
        # at cost 2 per edge no counting bound applies
        g3 = gk_family(3)
        costly = write(tmp_path / "g3x2.txt", format_instance(dataclasses.replace(
            g3, costs=(2.0,) * g3.graph.n_edges)))
        assert main(["solve", "--algo", "exact", "--in", costly]) == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("lb=- ratio=-")
        assert captured.err == "lb: LpError: relaxation master of 31 rows passes 30\n"
        # at unit cost the counting bound 2n stands in for the relaxation
        assert main(["solve", "--algo", "ear", "--in", g3_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("lb=8 ratio=1.1250")
        assert captured.err == ""

    def test_refused_relaxation_is_reported(self, tmp_path, capsys):
        # the uniformized seed master of this instance has 980 rows
        wide = tmp_path / "wide.txt"
        argv = ["gen", "--family", "random", "--n-r", "40", "--n-t", "40", "--edge-prob",
                "0.2", "--cost-lo", "1", "--cost-hi", "1", "--seed", "1", "--out", str(wide)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["solve", "--algo", "lp-round", "--in", str(wide)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "LpError: relaxation master of 980 rows passes 600\n"

    def test_lp_round_repeat_runs_identical(self, g3_file, tmp_path, capsys):
        outputs = []
        for run in ("a", "b"):
            sol = tmp_path / f"{run}.sol"
            trace = tmp_path / f"{run}.trace"
            rc = main(
                [
                    "solve",
                    "--algo",
                    "lp-round",
                    "--in",
                    g3_file,
                    "--seed",
                    "7",
                    "--out",
                    str(sol),
                    "--trace",
                    str(trace),
                ]
            )
            assert rc == 0
            outputs.append(
                (capsys.readouterr().out, sol.read_bytes(), trace.read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_lp_round_outputs_pinned(self):
        # Digests of the report line, --out, --trace and --dump-lp for gk3, a
        # non-uniform balanced instance (its dump is the uniformized model),
        # an unbalanced one and one with nothing vulnerable. The rounding
        # reads the LP's solution bytes, so the runs use one BLAS thread, as
        # in test_lp.py's test_solution_bytes_pinned, with the same caveat
        # about the BLAS build.
        code = (
            "import contextlib, hashlib, io, tempfile\n"
            "from pathlib import Path\n"
            "from rapkit import gk_family, random_instance\n"
            "from rapkit.cli import main\n"
            "from rapkit.instance import format_instance, uniformize\n"
            "from rapkit.lp import dump_lp, relax\n"
            "rand = random_instance(4, 4, 0.6, 0.5, (1, 10), seed=4)\n"
            "assert rand.vulnerable and not rand.uniform\n"
            "cases = [('gk3', gk_family(3)), ('rand4', rand),\n"
            "         ('unb3x4', random_instance(3, 4, 0.6, 0.5, (1, 10), seed=1)),\n"
            "         ('nom4', random_instance(4, 4, 0.6, 0.0, (1, 10), seed=0))]\n"
            "def digest(data):\n"
            "    return hashlib.sha256(data).hexdigest()[:16]\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    for name, inst in cases:\n"
            "        path = Path(tmp, name + '.txt')\n"
            "        path.write_text(format_instance(inst))\n"
            "        for seed in (0, 1):\n"
            "            sol, trace, lp = (Path(tmp, f'{name}.{seed}.{ext}')\n"
            "                              for ext in ('sol', 'trace', 'lp'))\n"
            "            argv = ['solve', '--algo', 'lp-round', '--in', str(path),\n"
            "                    '--seed', str(seed), '--out', str(sol),\n"
            "                    '--trace', str(trace), '--dump-lp', str(lp)]\n"
            "            out, err = io.StringIO(), io.StringIO()\n"
            "            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "                rc = main(argv)\n"
            "            if inst is rand:\n"
            "                assert lp.read_text() == dump_lp(relax(uniformize(rand).instance).master)\n"
            "            print(name, seed, rc, digest(out.getvalue().encode()),\n"
            "                  digest(err.getvalue().encode()),\n"
            "                  *(digest(p.read_bytes()) for p in (sol, trace, lp)))\n"
        )
        src = str(Path(rapkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines() == PINNED_LP_ROUND_LINES

    def test_solution_file_verifies(self, g3_file, tmp_path, capsys):
        sol = tmp_path / "g3.sol"
        assert main(["solve", "--algo", "exact", "--in", g3_file, "--out", str(sol)]) == 0
        capsys.readouterr()
        assert main(["verify", g3_file, str(sol)]) == 0

    def test_trace_lists_iterations(self, g3_file, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        rc = main(
            ["solve", "--algo", "lp-round", "--in", g3_file, "--trace", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        iters = int(out.split("iters=")[1].split()[0])
        lines = trace.read_text().splitlines()
        assert len(lines) == iters
        assert all(line.startswith("iter ") for line in lines)

    def test_trace_lists_ears(self, g3_file, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        rc = main(["solve", "--algo", "ear", "--in", g3_file, "--trace", str(trace)])
        assert rc == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines and all(line.startswith("ear ") for line in lines)

    def test_dump_lp(self, g3_file, tmp_path, capsys):
        dump = tmp_path / "g3.lp"
        rc = main(
            ["solve", "--algo", "lp-round", "--in", g3_file, "--dump-lp", str(dump)]
        )
        assert rc == 0
        capsys.readouterr()
        text = dump.read_text()
        assert text.startswith("Minimize")
        assert "Subject To" in text
        # the final cut master: y per edge, a surplus per cut row
        assert " cut_0: " in text and " 0 <= y_0 <= 1" in text and " s_0 >= 0" in text

    @pytest.mark.parametrize("name", ["gk3", "rand4"])
    def test_dump_lp_starts_no_cut_loop(self, name, tmp_path, capsys, monkeypatch):
        # relax checks feasibility once per cut loop: one loop for the plan
        # and one for lb=, and the dump writes the plan's master
        inst = gk_family(3) if name == "gk3" else random_instance(4, 4, 0.6, 0.5, (1, 10), seed=4)
        path = write(tmp_path / "inst.txt", format_instance(inst))
        dump = tmp_path / "inst.lp"
        loops = []
        real_check = rapkit.lp.check_feasible
        monkeypatch.setattr(
            rapkit.lp, "check_feasible", lambda work: loops.append(work) or real_check(work)
        )
        assert main(["solve", "--algo", "lp-round", "--in", path, "--dump-lp", str(dump)]) == 0
        capsys.readouterr()
        assert len(loops) == 2
        monkeypatch.undo()
        assert dump.read_text() == dump_lp(prepare(inst).relaxation.master)

    def test_dump_lp_past_the_row_cap_exits_1(self, g3_file, tmp_path, capsys, monkeypatch):
        # exact solves; the bound and the dump both meet a seed master over the cap
        monkeypatch.setattr(rapkit.lp, "_MAX_MASTER_ROWS", 1)
        dump = tmp_path / "g3.lp"
        rc = main(["solve", "--algo", "exact", "--in", g3_file, "--dump-lp", str(dump)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.splitlines()[-1].startswith("LpError: relaxation master of ")
        assert err.splitlines()[-1].endswith(" rows passes 1")
        assert "Traceback" not in err

    def test_ear_warns_on_weights(self, tmp_path, capsys):
        inst = make_instance(2, 2, [(0, 0), (0, 1), (1, 1), (1, 0)], [], [1, 2, 1, 2])
        path = write(tmp_path / "w.txt", format_instance(inst))
        rc = main(["solve", "--algo", "ear", "--in", path])
        err = capsys.readouterr().err
        assert rc == 0
        assert "cardinality" in err

    def test_ear_order_flag(self, g3_file, capsys):
        rc = main(
            ["solve", "--algo", "ear", "--in", g3_file, "--ear-order", "random:5"]
        )
        assert rc == 0
        assert "feasible=yes" in capsys.readouterr().out

    def test_infeasible_instance_exits_2(self, tmp_path, capsys):
        inst = make_instance(2, 2, [(0, 0), (1, 1)], [0], [1, 1])
        path = write(tmp_path / "thin.txt", format_instance(inst))
        rc = main(["solve", "--algo", "exact", "--in", path])
        assert rc == 2
        assert "infeasible instance" in capsys.readouterr().err

    def test_non_finite_cost_exits_1(self, tmp_path, capsys):
        path = write(tmp_path / "nan.txt", "rap 1\ngraph 1 1\nedge 0 0 nan v\n")
        rc = main(["solve", "--algo", "exact", "--in", path])
        assert rc == 1
        assert "costs must be finite" in capsys.readouterr().err

    def test_overflowing_cost_total_exits_1(self, tmp_path, capsys):
        # each cost is finite, but their total is not: one line, no traceback
        text = "rap 1\ngraph 1 1\nedge 0 0 1e308 v\nedge 0 0 1e308 v\n"
        path = write(tmp_path / "huge.txt", text)
        sol = write(tmp_path / "huge.sol", "solution 2\n0\n1\n")
        runs = [["solve", "--algo", algo, "--in", path] for algo in ("exact", "ear", "lp-round")]
        for argv in [*runs, ["verify", path, sol]]:
            assert main(argv) == 1
            assert capsys.readouterr().err == "costs must total less than half the largest float\n"

    @pytest.mark.parametrize("flags", ["v v", "v i"], ids=["uniform", "mixed"])
    def test_costs_below_the_total_limit_solve(self, tmp_path, capsys, flags):
        # twice the total, 1.6e308, is finite; lp-round uniformizes the mixed
        # one to a total of 1.2e308, which is not checked again
        first, second = flags.split()
        text = f"rap 1\ngraph 1 1\nedge 0 0 4e307 {first}\nedge 0 0 4e307 {second}\n"
        path = write(tmp_path / "big.txt", text)
        for algo in ("exact", "ear", "lp-round"):
            assert main(["solve", "--algo", algo, "--in", path]) == 0
            assert " feasible=yes " in capsys.readouterr().out

    def test_huge_integral_costs_print_short(self, tmp_path, capsys):
        # 8e307 and its bound are integral floats past 2**53: no 308-digit integers
        text = "rap 1\ngraph 1 1\nedge 0 0 4e307 v\nedge 0 0 4e307 v\n"
        path = write(tmp_path / "big.txt", text)
        assert main(["solve", "--algo", "exact", "--in", path]) == 0
        out = capsys.readouterr().out
        assert " cost=8e+307 " in out and " lb=8e+307 " in out
        assert [_num(x) for x in (2.0**53 - 1, 2.0**53, 0.5)] == [
            "9007199254740991", "9007199254740992.0", "0.5"
        ]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["solve", "--algo", "exact", "--in", str(tmp_path / "none.txt")])
        assert rc == 1
        assert capsys.readouterr().err

    def test_unknown_algo_exits_1(self, c4_file, capsys):
        rc = main(["solve", "--algo", "greedy", "--in", c4_file])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unbalanced_round_trip(self, tmp_path, capsys):
        vulnerable = make_instance(
            2,
            3,
            [(0, 0), (0, 1), (1, 1), (1, 2), (0, 2), (1, 0)],
            [0, 2, 4],
            [2, 3, 4, 5, 1, 2],
        )
        # the zero-cost edge 4 is of no use; --out must not pad with it
        zero_cost = make_instance(
            2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)], [], [2, 1, 1, 0, 0]
        )
        for inst in (vulnerable, zero_cost):
            path = write(tmp_path / "unb.txt", format_instance(inst))
            sol = tmp_path / "unb.sol"
            rc = main(["solve", "--algo", "exact", "--in", path, "--out", str(sol)])
            assert rc == 0
            capsys.readouterr()
            assert parse_solution(sol.read_text()) == solve_exact(inst).edge_ids
            assert main(["verify", path, str(sol)]) == 0


class TestGen:
    def test_gk_counts(self, tmp_path, capsys):
        out = tmp_path / "g3.txt"
        rc = main(["gen", "--family", "gk", "--out", str(out), "--k", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "8 nodes, 12 edges"
        inst = parse_instance(out.read_text())
        assert inst.graph.n_edges == 12

    def test_gk_to_stdout(self, capsys):
        rc = main(["gen", "--family", "gk", "--k", "3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "8 nodes, 12 edges" in captured.err
        parse_instance(captured.out)

    def test_gk_missing_k(self, capsys):
        assert main(["gen", "--family", "gk"]) == 1
        assert "--k" in capsys.readouterr().err

    def test_gk_bad_k_exits_1(self, capsys):
        assert main(["gen", "--family", "gk", "--k", "2"]) == 1
        assert "k >= 3" in capsys.readouterr().err

    def test_setcover_variant_counts(self, tmp_path, capsys):
        sc = write(tmp_path / "sc.txt", "setcover 2 2\nset 1\nset 1 2\n")
        out = tmp_path / "ri.txt"
        rc = main(
            ["gen", "--family", "setcover", "--in", sc, "--variant", "basic",
             "--out", str(out)]
        )
        assert rc == 0
        # basic reduction: 2l + k nodes per side
        assert capsys.readouterr().out.strip() == "12 nodes, 14 edges"
        inst = parse_instance(out.read_text())
        assert inst.graph.n_r == 6

    def test_snpp_solvable(self, tmp_path, capsys):
        out = tmp_path / "sn.txt"
        rc = main(["gen", "--family", "snpp", "--n", "3", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert main(["solve", "--algo", "exact", "--in", str(out)]) == 0

    def test_random_deterministic(self, tmp_path, capsys):
        texts = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = main(
                ["gen", "--family", "random", "--n-r", "4", "--n-t", "4",
                 "--seed", "2", "--out", str(out)]
            )
            assert rc == 0
            texts.append(out.read_text())
        capsys.readouterr()
        assert texts[0] == texts[1]

    def test_random_missing_sides(self, capsys):
        assert main(["gen", "--family", "random", "--n-r", "4"]) == 1
        assert "--n-t" in capsys.readouterr().err

    def test_bad_family_exits_1(self, capsys):
        assert main(["gen", "--family", "mystery"]) == 1
        assert "invalid choice" in capsys.readouterr().err


# sha256 of the `rap verify` lines, one witness matching per scenario,
# recorded before the alternating-cycle search was shared with the ear
# solver, which had to keep every witness
PINNED_VERIFY_DIGESTS = {
    "gk10-ear": "0d530fec2e40984c6520c981ed14397f92d37fa402f4436b0c996f09826c3a26",
    "rand40-all": "351357ac52d3d75af6bdcf7bb007fa73b38442e29442e510e162f669e3e6e093",
    "rand12x9-ear": "8e9cbb488ad172f20da0bd15ab41ece9e7e69432f61fa43e91dbc434fddd9baf",
}


def _verify_case(name):
    """An instance and a solution of it: the ear output or every edge."""
    if name == "gk10-ear":
        inst = gk_family(10)
    elif name == "rand40-all":
        inst = random_instance(40, 40, 0.2, 0.5, (1, 1), seed=40)
        return inst, range(inst.graph.n_edges)
    else:
        inst = random_instance(12, 9, 0.4, 0.5, (1, 5), seed=3)
    return inst, solve_ear(inst).edge_ids


class TestVerify:
    def test_accepts_full_edge_set(self, c4_file, tmp_path, capsys):
        sol = write(tmp_path / "all.sol", "solution 4\n0\n1\n2\n3\n")
        rc = main(["verify", c4_file, sol])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("scenario e1: matching ")

    def test_rejects_bare_matching(self, c4_file, tmp_path, capsys):
        sol = write(tmp_path / "pm.sol", "solution 2\n1\n3\n")
        rc = main(["verify", c4_file, sol])
        assert rc == 3
        assert "scenario e1" in capsys.readouterr().err

    def test_invulnerable_instance_reports_nominal(self, tmp_path, capsys):
        inst = make_instance(1, 1, [(0, 0)], [], [1])
        path = write(tmp_path / "tiny.txt", format_instance(inst))
        sol = write(tmp_path / "tiny.sol", "solution 1\n0\n")
        rc = main(["verify", path, sol])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == ["scenario nominal: matching e0"]

    @pytest.mark.parametrize("name", sorted(PINNED_VERIFY_DIGESTS))
    def test_certificates_pinned(self, name, tmp_path, capsys):
        inst, ids = _verify_case(name)
        path = write(tmp_path / "inst.txt", format_instance(inst))
        sol = write(tmp_path / "x.sol", format_solution(ids))
        assert main(["verify", path, sol]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_DIGESTS[name]

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # `rap verify ... | head -n 1`: the reader leaves after one line of
        # about 1 MB of output; no traceback, nothing on stderr
        inst = regular_instance(200)
        path = write(tmp_path / "reg.txt", format_instance(inst))
        sol = write(tmp_path / "reg.sol", format_solution(range(inst.graph.n_edges)))
        src = str(Path(rapkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys\nfrom rapkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "verify", path, sol],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"scenario e0: matching e")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    def test_unbalanced_non_edge_ids_exit_1(self, tmp_path, capsys):
        inst = make_instance(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)], [], [2, 1, 1, 0, 0])
        path = write(tmp_path / "unb.txt", format_instance(inst))
        # 5 is the first dummy edge of the balanced completion
        for bad in (9, -1, 5):
            sol = write(tmp_path / "bad.sol", format_solution([1, 3, bad]))
            assert main(["verify", path, sol]) == 1
            assert capsys.readouterr().err == f"solution id {bad} is not an edge\n"
            with pytest.raises(InstanceError, match=f"solution id {bad} is not an edge"):
                verify_solution(inst, Solution(frozenset({1, 3, bad}), 1.0))

    def test_malformed_instance_exits_1(self, tmp_path, capsys):
        path = write(tmp_path / "junk.txt", "not an instance\n")
        sol = write(tmp_path / "s.sol", "solution 0\n")
        assert main(["verify", path, sol]) == 1
        assert capsys.readouterr().err

    def test_malformed_solution_exits_1(self, c4_file, tmp_path, capsys):
        sol = write(tmp_path / "s.sol", "solution 1\nfifty\n")
        assert main(["verify", c4_file, sol]) == 1
        assert capsys.readouterr().err

    def test_repeated_solution_id_exits_1(self, c4_file, tmp_path, capsys):
        # the header counts two edges; the file names one of them twice
        sol = write(tmp_path / "s.sol", "solution 2\n1\n1\n")
        assert main(["verify", c4_file, sol]) == 1
        assert capsys.readouterr().err == "edge id 1 is listed twice\n"


class TestBench:
    def gk_manifest(self, tmp_path, algos, ks=(3, 4, 5)):
        lines = []
        for k in ks:
            name = f"g{k}.txt"
            write(tmp_path / name, format_instance(gk_family(k)))
            lines += [f"{name} {algo}" for algo in algos]
        return write(tmp_path / "manifest.txt", "\n".join(lines) + "\n")

    def test_family_sweep_ratios(self, tmp_path, capsys):
        manifest = self.gk_manifest(tmp_path, ["ear", "exact"])
        rc = main(["bench", manifest])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "instance,algo,seed,cost,lb,exact,ratio,iters,ms,error"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        assert all(float(row[6]) <= 1.5 for row in rows)
        # exact rows match the reference column
        for row in rows:
            if row[1] == "exact":
                assert row[3] == row[5]

    def test_seed_sweep_all_feasible(self, tmp_path, capsys):
        manifest = self.gk_manifest(tmp_path, ["lp-round"], ks=(3,))
        rc = main(["bench", manifest, "--seeds", "0..19"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 20
        assert [row[2] for row in rows] == [str(s) for s in range(20)]
        assert all(row[3] for row in rows)

    def test_lp_round_seeds_share_one_relaxation(self, tmp_path, capsys, monkeypatch):
        plans = []
        real_prepare = rapkit.cli.prepare

        def counting_prepare(work):
            plans.append(real_prepare(work))
            return plans[-1]

        monkeypatch.setattr(rapkit.cli, "prepare", counting_prepare)
        manifest = self.gk_manifest(tmp_path, ["lp-round"], ks=(3,))
        assert main(["bench", manifest, "--seeds", "0..2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(plans) == 1 and plans[0].work is plans[0].original
        # each row matches a solve that prepares its own relaxation
        for row in rows:
            argv = ["solve", "--algo", "lp-round", "--seed", row["seed"],
                    "--in", str(tmp_path / "g3.txt")]
            assert main(argv) == 0
            report = capsys.readouterr().out
            assert f"cost={row['cost']} " in report and f"iters={row['iters']} " in report
            assert f"lb={row['lb']} " in report
        assert len(plans) == 4

    def test_one_relaxation_held_at_a_time(self, tmp_path, capsys, monkeypatch):
        held = []
        real_prepare = rapkit.cli.prepare

        def tracking_prepare(work):
            gc.collect()
            assert all(ref() is None for ref in held), "an earlier plan is still held"
            plan = real_prepare(work)
            held.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(rapkit.cli, "prepare", tracking_prepare)
        manifest = self.gk_manifest(tmp_path, ["lp-round", "ear"], ks=(3, 4))
        assert main(["bench", manifest, "--seeds", "0..1"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(held) == 2 and len(rows) == 8
        assert all(row["cost"] and not row["error"] for row in rows)

    def test_shared_failure_reported_in_each_row_that_needs_it(
        self, tmp_path, capsys, monkeypatch
    ):
        def failing_prepare(work):
            raise LpError("LP infeasible\nsecond line")

        monkeypatch.setattr(rapkit.cli, "prepare", failing_prepare)
        manifest = self.gk_manifest(tmp_path, ["lp-round", "ear"], ks=(3,))
        assert main(["bench", manifest, "--seeds", "0..2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 6
        for row in rows:
            if row["algo"] == "lp-round":
                assert row["error"] == "LpError: LP infeasible"
                assert row["cost"] == "" and row["iters"] == ""
            else:
                assert row["error"] == "" and row["cost"] == "9"

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = write(tmp_path / "m.txt", "# nothing yet\n")
        rc = main(["bench", manifest])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "instance,algo,seed,cost,lb,exact,ratio,iters,ms,error\n"

    def test_broken_instance_keeps_row(self, tmp_path, capsys):
        write(tmp_path / "junk.txt", "not an instance\n")
        write(tmp_path / "g3.txt", format_instance(gk_family(3)))
        manifest = write(tmp_path / "m.txt", "junk.txt ear\ng3.txt ear\n")
        rc = main(["bench", manifest])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 2
        assert rows[1][0] == "junk.txt" and rows[1][3] == ""
        assert rows[0][0] == "g3.txt" and rows[0][3] == "9"

    def test_error_column_names_failures(self, tmp_path, capsys, monkeypatch):
        def no_memory(inst, plan=None):
            raise MemoryError("dense LP too large\nsecond line")

        monkeypatch.setattr(rapkit.cli, "lower_bounds", no_memory)
        write(tmp_path / "junk.txt", "not an instance\n")
        write(tmp_path / "g3.txt", format_instance(gk_family(3)))
        manifest = write(tmp_path / "m.txt", "junk.txt ear\ng3.txt ear\n")
        assert main(["bench", manifest]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        by_name = {row["instance"]: row for row in rows}
        assert by_name["junk.txt"]["error"].startswith("InstanceError: ")
        assert by_name["g3.txt"]["error"] == "lb: MemoryError: dense LP too large"
        assert by_name["g3.txt"]["lb"] == "" and by_name["g3.txt"]["cost"] == "9"

        def infeasible(*args, **kwargs):
            raise InstanceError("infeasible instance")

        monkeypatch.setattr(rapkit.cli, "solve_ear", infeasible)
        assert main(["bench", manifest]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        g3 = next(row for row in rows if row["instance"] == "g3.txt")
        assert g3["cost"] == ""
        assert g3["error"] == (
            "lb: MemoryError: dense LP too large; InstanceError: infeasible instance"
        )

    def test_exact_size_guard_names_the_error(self, tmp_path, capsys, monkeypatch):
        # 225 search nodes would fit at 12 edges each, not at the 36 of its
        # completion to 6 x 6
        monkeypatch.setattr(rapkit.exact, "_WORK_BUDGET", 225 * 12)
        edges = [(r, t) for r in range(6) for t in range(2)]
        inst = make_instance(6, 2, edges, [], [1] * len(edges))
        write(tmp_path / "wide.txt", format_instance(inst))
        manifest = write(tmp_path / "m.txt", "wide.txt ear\n")
        assert main(["bench", manifest]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["error"] == "exact: ExactError: instance too large for exact solver"
        assert row["exact"] == "" and row["cost"] and row["lb"]

    @pytest.mark.parametrize("fault", [AssertionError, RecursionError])
    def test_faults_fail_the_run(self, tmp_path, monkeypatch, fault):
        def broken(*args, **kwargs):
            raise fault("broken invariant")

        monkeypatch.setattr(rapkit.cli, "solve_ear", broken)
        manifest = self.gk_manifest(tmp_path, ["ear"], ks=(3,))
        with pytest.raises(fault, match="broken invariant"):
            main(["bench", manifest])

    def test_csv_written_to_file(self, tmp_path, capsys):
        manifest = self.gk_manifest(tmp_path, ["exact"], ks=(3,))
        out = tmp_path / "rows.csv"
        rc = main(["bench", manifest, "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[1].startswith("g3.txt,exact,0,8")

    def test_bad_seed_range_exits_1(self, tmp_path, capsys):
        manifest = write(tmp_path / "m.txt", "")
        assert main(["bench", manifest, "--seeds", "5..1"]) == 1
        assert "seed range" in capsys.readouterr().err

    def test_bad_manifest_line_exits_1(self, tmp_path, capsys):
        manifest = write(tmp_path / "m.txt", "g3.txt warp-drive\n")
        assert main(["bench", manifest]) == 1
        assert "expected" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_solve_requires_instance(self, capsys):
        assert main(["solve", "--algo", "exact"]) == 1
        assert "--in" in capsys.readouterr().err
