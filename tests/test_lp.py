"""Tests for the relaxation builder and the built-in simplex engine."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_instance

import rapkit
from rapkit.instance import InstanceError, make_instance, uniform_instance, uniformize
from rapkit.lp import EPS_FEAS, LpError, build_lp, dump_lp, solve_lp
from rapkit.reductions import random_instance

C4_EDGES = [(0, 0), (1, 0), (1, 1), (0, 1)]


def c4_uniform():
    return uniform_instance(2, 2, C4_EDGES)


class TestBuildLp:
    def test_c4_uniform_dimensions(self):
        lp = build_lp(c4_uniform())
        assert lp.n_vars == 4 + 4 * 4
        assert sum(1 for s in lp.senses if s == "E") == 4 * 4
        assert sum(1 for s in lp.senses if s == "L") == 4 * 4

    def test_scenario_edge_fixed_by_bound(self):
        lp = build_lp(c4_uniform())
        for pos, f in enumerate(lp.blocks):
            j = lp.x_index(pos, f)
            assert lp.upper[j] == 0.0
        # fixings are bounds, not rows
        assert not any(name.startswith("fix") for name in lp.row_names)

    def test_nominal_block_when_no_vulnerable(self):
        inst = make_instance(2, 2, C4_EDGES, [], [1.0] * 4)
        lp = build_lp(inst)
        assert lp.blocks == (-1,)
        assert lp.n_vars == 8

    def test_variable_order(self):
        inst = make_instance(2, 2, C4_EDGES, [2, 0], [1.0] * 4)
        lp = build_lp(inst)
        assert lp.blocks == (0, 2)
        assert lp.var_names[:4] == ("y_0", "y_1", "y_2", "y_3")
        assert lp.var_names[4] == "x_f0_e0"
        assert lp.var_names[8] == "x_f2_e0"

    def test_unbalanced_rejected(self):
        inst = make_instance(2, 1, [(0, 0), (1, 0)], [], [1.0, 1.0])
        with pytest.raises(InstanceError, match="balanced_completion"):
            build_lp(inst)

    def test_infeasible_rejected(self):
        inst = uniform_instance(1, 1, [(0, 0)])
        with pytest.raises(InstanceError, match="infeasible"):
            build_lp(inst)

    @settings(max_examples=60, deadline=None)
    @given(small_instance(), st.booleans())
    def test_nonzeros_are_the_model(self, data, uniformized):
        n_r, n_t, edges, vulnerable, costs = data
        if not oracles.brute_feasible(n_r, n_t, edges, vulnerable, set(range(len(edges)))):
            return
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        if uniformized and vulnerable and not inst.uniform:
            # invulnerable edges gain parallel copies
            inst = uniformize(inst).instance
        g = inst.graph
        lp = build_lp(inst)
        # sorted by column, then row, with no cell twice
        keys = lp.cols * lp.n_rows + lp.rows
        assert np.all(np.diff(keys) > 0)
        assert np.all(np.abs(lp.vals) == 1.0)
        rows = oracles.relaxation_rows(g.n_r, g.n_t, list(g.edges), set(inst.vulnerable))
        assert lp.n_rows == len(rows)
        np.testing.assert_array_equal(lp.a_matrix, np.array([a for a, _, _ in rows]))
        assert lp.senses == tuple(sense for _, sense, _ in rows)
        assert lp.rhs.tolist() == [rhs for _, _, rhs in rows]


class TestSolveLp:
    def test_c4_uniform_value(self):
        sol = solve_lp(build_lp(c4_uniform()))
        assert sol.objective == pytest.approx(4.0, abs=1e-9)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in sol.y)

    def test_single_edge_nominal(self):
        inst = make_instance(1, 1, [(0, 0)], [], [2.5])
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(2.5, abs=1e-9)
        assert sol.y[0] == pytest.approx(1.0, abs=1e-9)

    def test_nominal_equals_min_cost_matching(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (0, 2), (2, 0)]
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        inst = make_instance(3, 3, edges, [], costs)
        expected = oracles.min_cost_pm_value(3, 3, edges, costs)
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(expected, abs=1e-6)

    def test_scenario_blocks_are_matchings_avoiding_f(self):
        sol = solve_lp(build_lp(c4_uniform()))
        for f, vec in sol.x.items():
            assert vec[f] <= EPS_FEAS
            # C4 has one perfect matching avoiding each edge, so the block
            # must be integral on the complementary pair
            complement = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}[f]
            for e in complement:
                assert vec[e] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        inst = make_instance(2, 2, C4_EDGES, [0, 2], [1.0, 2.0, 3.0, 4.0])
        a = solve_lp(build_lp(inst))
        b = solve_lp(build_lp(inst))
        assert a.y == b.y and a.objective == b.objective

    def test_residuals_within_tolerance(self):
        lp = build_lp(c4_uniform())
        sol = solve_lp(lp)
        values = np.array(sol.y + sum((sol.x[f] for f in lp.blocks), ()))
        resid = lp.a_matrix @ values - lp.rhs
        for i, sense in enumerate(lp.senses):
            if sense == "E":
                assert abs(resid[i]) <= EPS_FEAS
            else:
                assert resid[i] <= EPS_FEAS

    def test_residual_error_names_the_first_violating_row(self, monkeypatch):
        lp = build_lp(c4_uniform())
        optimum, objective, iters = rapkit.lp._simplex(lp)

        def check(values, message):
            monkeypatch.setattr(rapkit.lp, "_simplex", lambda _: (values, objective, iters))
            with pytest.raises(LpError, match=f"^{re.escape(message)}$"):
                solve_lp(lp)

        # every degree equality misses by -1; the first one is reported
        check(np.zeros(lp.n_vars), "residual -1.00e+00 on row deg_f0_r0")
        # y_1 = 0 breaks x_e - y_e <= 0 where a block uses edge 1 (the first
        # is f0's), while coupling rows with slack (residual -1) stay valid
        values = optimum.copy()
        values[1] = 0.0
        check(values, "residual 1.00e+00 on row cpl_f0_e1")

    @settings(max_examples=40, deadline=None)
    @given(small_instance(max_side=3, max_edges=8))
    def test_lower_bounds_brute_optimum(self, data):
        n_r, n_t, edges, vulnerable, costs = data
        if not oracles.brute_feasible(n_r, n_t, edges, vulnerable, set(range(len(edges)))):
            return
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        sol = solve_lp(build_lp(inst))
        brute = oracles.brute_exact(n_r, n_t, edges, vulnerable, costs)
        assert brute is not None
        assert sol.objective <= brute[0] + 1e-6

    def test_nominal_is_integral_optimum(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
        costs = [2.0, 7.0, 3.0, 1.0]
        inst = make_instance(2, 2, edges, [], costs)
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(3.0, abs=1e-6)
        assert round(sol.objective) == 3

    def test_peak_memory_is_a_few_basis_inverses(self):
        # the model is held as its nonzeros, so the solve's largest arrays
        # are the n_rows x n_rows basis inverse and what refactorizes it
        inst = uniformize(random_instance(5, 5, 0.6, 0.5, (1, 10), seed=0)).instance
        tracemalloc.start()
        try:
            lp = build_lp(inst)
            solve_lp(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * lp.n_rows**2

    def test_pivot_path_pinned(self):
        # A threaded BLAS sums the pricing products in another order and
        # can take another pivot path (gk_family(4): 637 pivots on two
        # threads), so the solves run in a child with one BLAS thread.
        code = (
            "from rapkit import gk_family\n"
            "from rapkit.lp import build_lp, solve_lp\n"
            "for k in (3, 4):\n"
            "    sol = solve_lp(build_lp(gk_family(k)))\n"
            "    print(k, sol.iterations, repr(sol.objective))\n"
        )
        src = str(Path(rapkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines() == ["3 356 7.000000000000002", "4 598 8.5"]

    def test_solution_bytes_pinned(self):
        # Digests of the y vector and the x blocks (in block order), recorded
        # with the dense-pricing, full-update simplex on one BLAS thread. The
        # uniformized random instance takes both basis-inverse update paths.
        # The bytes depend on the BLAS build and the CPU kernel it picks, not
        # only on the thread count: these were recorded with numpy 2.4.6 and
        # its bundled OpenBLAS 0.3.31 on its SkylakeX kernel, and another
        # build or kernel may sum the dense products in another order.
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from rapkit import gk_family, random_instance\n"
            "from rapkit.instance import uniformize\n"
            "from rapkit.lp import build_lp, solve_lp\n"
            "rand = random_instance(5, 5, 0.6, 0.5, (1, 10), seed=0)\n"
            "cases = [('gk3', gk_family(3)), ('gk4', gk_family(4)),\n"
            "         ('rand5', uniformize(rand).instance)]\n"
            "for name, inst in cases:\n"
            "    sol = solve_lp(build_lp(inst))\n"
            "    y = np.asarray(sol.y).tobytes()\n"
            "    x = np.asarray([sol.x[f] for f in sorted(sol.x)]).tobytes()\n"
            "    print(name, sol.iterations, hashlib.sha256(y).hexdigest()[:16],\n"
            "          hashlib.sha256(x).hexdigest()[:16])\n"
        )
        src = str(Path(rapkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines() == [
            "gk3 356 03918a38af8d9f61 e707fe34cf42e2ca",
            "gk4 598 18d02790ce0a5078 f9dbafeaff97695f",
            "rand5 1055 649a4783c46382a8 f6b6c9ecf2122f13",
        ]


class TestDumpLp:
    def test_sections_and_fixing(self):
        text = dump_lp(build_lp(c4_uniform()))
        assert text.startswith("Minimize")
        for section in ("Subject To", "Bounds", "End"):
            assert section in text
        assert " x_f0_e0 = 0" in text
        assert "deg_f0_r0:" in text
        assert "cpl_f0_e0:" in text

    def test_coupling_row_shape(self):
        text = dump_lp(build_lp(c4_uniform()))
        line = next(l for l in text.splitlines() if l.startswith(" cpl_f0_e1:"))
        assert "x_f0_e1" in line and "y_1" in line and "<= 0" in line
