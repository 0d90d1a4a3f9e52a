"""Tests for the relaxation builder and the built-in simplex engine."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_instance

import rapkit
from rapkit.instance import (
    NOMINAL_SCENARIO,
    InstanceError,
    balanced_completion,
    check_feasible,
    make_instance,
    uniform_instance,
    uniformize,
)
from rapkit.lp import (
    EPS_FEAS,
    _FULL_UPDATE_RATIO,
    _UPDATE_ROWS,
    LpError,
    _SimplexState,
    build_lp,
    dump_lp,
    relax,
    solve_lp,
)
from rapkit.reductions import random_instance

C4_EDGES = [(0, 0), (1, 0), (1, 1), (0, 1)]


def c4_uniform():
    return uniform_instance(2, 2, C4_EDGES)


def run_one_thread(code: str) -> list[str]:
    """The stdout lines of ``code``, run in a child with one BLAS thread.

    The child imports rapkit from this tree and ``oracles`` from the tests.
    """
    paths = [str(Path(rapkit.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


class TestBuildLp:
    def test_c4_uniform_dimensions(self):
        # the final master: a node cut per node and the four singletons
        # y(delta(v) - f) >= 1, after which no Hall cut is violated
        lp = relax(c4_uniform()).master
        assert lp.n_rows == 8 and lp.n_vars == 4 + 8
        assert lp.senses == ("E",) * 8
        assert lp.rhs.tolist() == [1.0] * 8

    def test_seed_cuts_leave_the_scenario_edge_out(self):
        # y(delta(v) - f) >= 1 at both ends of f stands for x^f_f = 0
        inst = make_instance(2, 2, C4_EDGES, [2, 0], [1.0] * 4)
        a = relax(inst).master.a_matrix
        # node cuts of r0, r1, t0, t1, then f0's ends {3} and {1}; f2's
        # ends give {1} and {3} again, which are kept once
        assert a[:6, :4].tolist() == [
            [1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 1, 0, 0],
        ]

    def test_nominal_block_when_no_vulnerable(self):
        # only the nominal scenario is separated; the node cuts suffice
        inst = make_instance(2, 2, C4_EDGES, [], [1.0] * 4)
        lp = relax(inst).master
        assert lp.n_vars == 8
        assert lp.a_matrix[:, :4].tolist() == [[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]

    def test_variable_order(self):
        # y by edge id, then one surplus per cut, which has -1 in its row only
        costs = np.array([2.0, 3.0, 5.0, 7.0])
        lp = build_lp(costs, [(frozenset({0, 3}), 1), (frozenset({1, 2, 3}), 2)])
        assert lp.objective.tolist() == [2.0, 3.0, 5.0, 7.0, 0.0, 0.0]
        assert lp.upper.tolist() == [1.0] * 4 + [np.inf] * 2
        np.testing.assert_array_equal(lp.a_matrix[:, 4:], -np.eye(2))

    def test_unbalanced_rejected(self):
        inst = make_instance(2, 1, [(0, 0), (1, 0)], [], [1.0, 1.0])
        with pytest.raises(InstanceError, match="balanced_completion"):
            relax(inst)

    def test_infeasible_rejected(self):
        inst = uniform_instance(1, 1, [(0, 0)])
        with pytest.raises(InstanceError, match="infeasible"):
            relax(inst)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(st.tuples(st.frozensets(st.integers(0, m - 1)), st.integers(0, 3)),
                         min_size=1, max_size=6),
            )
        )
    )
    def test_nonzeros_are_the_model(self, drawn):
        m, cuts = drawn
        lp = build_lp(np.arange(1.0, m + 1), cuts)
        # sorted by column, then row, with no cell twice
        keys = lp.cols * lp.n_rows + lp.rows
        assert np.all(np.diff(keys) > 0)
        assert np.all(np.abs(lp.vals) == 1.0)
        # row i: y(S_i) - s_i = b_i
        rows = [
            [1.0 if e in edges else 0.0 for e in range(m)]
            + [-1.0 if j == i else 0.0 for j in range(len(cuts))]
            for i, (edges, _) in enumerate(cuts)
        ]
        assert lp.n_rows == len(cuts)
        np.testing.assert_array_equal(lp.a_matrix, np.array(rows))
        assert lp.senses == ("E",) * len(cuts)
        assert lp.rhs.tolist() == [b for _, b in cuts]


def solve_k_block(inst):
    """The k-block model of ``inst`` solved by ``solve_lp``: (y, x blocks, solution)."""
    sol = solve_lp(oracles.k_block_lp(inst))
    return (*oracles.k_block_point(inst, sol.values), sol)


class TestSolveLp:
    # solve_lp on the paper's k-block model (tests/oracles.py), the largest
    # LPs of the relaxation; the solvers' masters and blocks are smaller

    def test_c4_uniform_value(self):
        y, _, sol = solve_k_block(c4_uniform())
        assert sol.objective == pytest.approx(4.0, abs=1e-9)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in y)

    def test_single_edge_nominal(self):
        inst = make_instance(1, 1, [(0, 0)], [], [2.5])
        y, _, sol = solve_k_block(inst)
        assert sol.objective == pytest.approx(2.5, abs=1e-9)
        assert y[0] == pytest.approx(1.0, abs=1e-9)

    def test_nominal_equals_min_cost_matching(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (0, 2), (2, 0)]
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        inst = make_instance(3, 3, edges, [], costs)
        expected = oracles.min_cost_pm_value(3, 3, edges, costs)
        assert solve_k_block(inst)[2].objective == pytest.approx(expected, abs=1e-6)

    def test_scenario_blocks_are_matchings_avoiding_f(self):
        _, x, _ = solve_k_block(c4_uniform())
        for f, vec in x.items():
            assert vec[f] <= EPS_FEAS
            # C4 has one perfect matching avoiding each edge, so the block
            # must be integral on the complementary pair
            complement = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}[f]
            for e in complement:
                assert vec[e] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        inst = make_instance(2, 2, C4_EDGES, [0, 2], [1.0, 2.0, 3.0, 4.0])
        a = solve_lp(oracles.k_block_lp(inst))
        b = solve_lp(oracles.k_block_lp(inst))
        assert a.values.tobytes() == b.values.tobytes() and a.objective == b.objective

    def test_residuals_within_tolerance(self):
        lp = oracles.k_block_lp(c4_uniform())
        resid = lp.a_matrix @ solve_lp(lp).values - lp.rhs
        for i, sense in enumerate(lp.senses):
            if sense == "E":
                assert abs(resid[i]) <= EPS_FEAS
            else:
                assert resid[i] <= EPS_FEAS

    def test_residual_error_names_the_first_violating_row(self, monkeypatch):
        lp = oracles.k_block_lp(c4_uniform())
        optimum, objective, iters = rapkit.lp._simplex(lp)

        def check(values, message):
            monkeypatch.setattr(rapkit.lp, "_simplex", lambda _: (values, objective, iters))
            with pytest.raises(LpError, match=f"^{re.escape(message)}$"):
                solve_lp(lp)

        # every degree equality misses by -1; the first one (block f0's
        # degree row of r0) is reported
        check(np.zeros(lp.n_vars), "residual -1.00e+00 on row 0")
        # y_1 = 0 breaks x_e - y_e <= 0 where a block uses edge 1; the first
        # is f0's coupling row of e1, after the 4 blocks' 16 degree rows,
        # while coupling rows with slack (residual -1) stay valid
        values = optimum.copy()
        values[1] = 0.0
        check(values, "residual 1.00e+00 on row 17")

    @settings(max_examples=40, deadline=None)
    @given(small_instance(max_side=3, max_edges=8))
    def test_lower_bounds_brute_optimum(self, data):
        n_r, n_t, edges, vulnerable, costs = data
        if not oracles.brute_feasible(n_r, n_t, edges, vulnerable, set(range(len(edges)))):
            return
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        sol = solve_lp(oracles.k_block_lp(inst))
        brute = oracles.brute_exact(n_r, n_t, edges, vulnerable, costs)
        assert brute is not None
        assert sol.objective <= brute[0] + 1e-6

    def test_nominal_is_integral_optimum(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
        costs = [2.0, 7.0, 3.0, 1.0]
        inst = make_instance(2, 2, edges, [], costs)
        sol = solve_lp(oracles.k_block_lp(inst))
        assert sol.objective == pytest.approx(3.0, abs=1e-6)
        assert round(sol.objective) == 3

    def test_peak_memory_is_a_few_basis_inverses(self):
        # the model is held as its nonzeros, so the solve's largest arrays
        # are the n_rows x n_rows basis inverse and what refactorizes it
        inst = uniformize(random_instance(5, 5, 0.6, 0.5, (1, 10), seed=0)).instance
        lp = oracles.k_block_lp(inst)
        tracemalloc.start()
        try:
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
            "from oracles import k_block_lp\n"
            "from rapkit import gk_family\n"
            "from rapkit.lp import solve_lp\n"
            "for k in (3, 4):\n"
            "    sol = solve_lp(k_block_lp(gk_family(k)))\n"
            "    print(k, sol.iterations, repr(sol.objective))\n"
        )
        assert run_one_thread(code) == ["3 356 7.000000000000002", "4 598 8.5"]

    def test_phase_end_refactorizes_only_after_a_move(self):
        # A phase ends with a refactorization unless no pivot or bound flip
        # came since the last one. Pinning _moved to True restores the
        # unconditional one, so each case must save exactly one inverse and
        # no byte of the point. The uniformized instance reaches phase 2's
        # optimum one pricing after a periodic refactorization; with zero
        # costs phase 2 starts optimal. One BLAS thread, as for the pins.
        code = (
            "from oracles import k_block_lp\n"
            "from rapkit import gk_family, random_instance\n"
            "from rapkit.instance import make_instance, uniformize\n"
            "from rapkit.lp import _SimplexState, solve_lp\n"
            "real = _SimplexState._refactorize\n"
            "def solve(inst):\n"
            "    calls = []\n"
            "    _SimplexState._refactorize = lambda self: calls.append(real(self))\n"
            "    values = solve_lp(k_block_lp(inst)).values\n"
            "    return len(calls), values.tobytes()\n"
            "g = gk_family(3).graph\n"
            "cases = [uniformize(random_instance(3, 3, 0.6, 0.5, (1, 10), seed=1)).instance,\n"
            "         make_instance(g.n_r, g.n_t, g.edges, g.edge_ids(), [0] * g.n_edges)]\n"
            "for inst in cases:\n"
            "    count, point = solve(inst)\n"
            "    _SimplexState._moved = property(lambda self: True, lambda self, v: None)\n"
            "    old_count, old_point = solve(inst)\n"
            "    del _SimplexState._moved\n"
            "    print(old_count - count, point == old_point)\n"
        )
        assert run_one_thread(code) == ["1 True", "1 True"]

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
            "from oracles import k_block_lp\n"
            "from rapkit import gk_family, random_instance\n"
            "from rapkit.instance import uniformize\n"
            "from rapkit.lp import solve_lp\n"
            "rand = random_instance(5, 5, 0.6, 0.5, (1, 10), seed=0)\n"
            "cases = [('gk3', gk_family(3)), ('gk4', gk_family(4)),\n"
            "         ('rand5', uniformize(rand).instance)]\n"
            "for name, inst in cases:\n"
            "    sol = solve_lp(k_block_lp(inst))\n"
            "    m = inst.graph.n_edges\n"
            "    y, x = sol.values[:m].tobytes(), sol.values[m:].tobytes()\n"
            "    print(name, sol.iterations, hashlib.sha256(y).hexdigest()[:16],\n"
            "          hashlib.sha256(x).hexdigest()[:16])\n"
        )
        assert run_one_thread(code) == [
            "gk3 356 03918a38af8d9f61 e707fe34cf42e2ca",
            "gk4 598 18d02790ce0a5078 f9dbafeaff97695f",
            "rand5 1055 649a4783c46382a8 f6b6c9ecf2122f13",
        ]


class TestUpdateInverse:
    # (n, nonzeros of d off the pivot, nonzeros of the pivot row, whether the
    # update goes full, how many row chunks a restricted update takes)
    @pytest.mark.parametrize(
        "n, d_nnz, row_nnz, full, chunks",
        [(50, 40, 30, True, 0), (120, 10, 20, False, 1), (200, 90, 100, False, 2)],
        ids=["full", "one-chunk", "several-chunks"],
    )
    def test_equals_the_dense_rank_one_update(self, n, d_nnz, row_nnz, full, chunks):
        rng = np.random.default_rng(n)
        b_inv = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3)
        leave_row = int(rng.integers(n))
        b_inv[leave_row] = 0.0
        b_inv[leave_row, rng.choice(n, row_nnz, replace=False)] = rng.normal(size=row_nnz)
        d = np.zeros(n)
        off_pivot = np.delete(np.arange(n), leave_row)
        d[rng.choice(off_pivot, d_nnz, replace=False)] = rng.normal(size=d_nnz)
        d[leave_row] = rng.uniform(0.5, 2.0)
        assert (_FULL_UPDATE_RATIO * d_nnz * row_nnz > n * n) == full
        if not full:
            assert -(-d_nnz // (_UPDATE_ROWS * n // row_nnz)) == chunks

        # every path must give the dense rank-one update's values exactly:
        # b - d' x row, with d' = d off the pivot, and the pivot row = row
        row = b_inv[leave_row] / d[leave_row]
        d_off = d.copy()
        d_off[leave_row] = 0.0
        expected = b_inv - np.multiply.outer(d_off, row)
        expected[leave_row] = row
        state = SimpleNamespace(b_inv=b_inv, n_rows=n)
        _SimplexState._update_inverse(state, leave_row, d)
        assert np.array_equal(state.b_inv, expected)


class TestRelaxationValue:
    @settings(max_examples=150, deadline=None)
    @given(small_instance(max_side=3, max_edges=8, balanced=False), st.booleans())
    def test_matches_the_k_block_model(self, data, uniformized):
        # nominal, mixed and (when drawn) uniformized completions
        work = balanced_completion(make_instance(*data)).instance
        assume(check_feasible(work))
        if uniformized and work.vulnerable and not work.uniform:
            work = uniformize(work).instance
        masters = []
        real_simplex = rapkit.lp._simplex

        def recording_simplex(lp):
            masters.append(real_simplex(lp)[0])
            return masters[-1], float(lp.objective @ masters[-1]), 0

        with mock.patch.object(rapkit.lp, "_simplex", recording_simplex):
            value = relax(work).objective
        assert value == pytest.approx(solve_lp(oracles.k_block_lp(work)).objective, abs=1e-7)
        # at return, the master's y lets every scenario's max-flow reach n
        g = work.graph
        y = masters[-1][: g.n_edges]
        for f in sorted(work.vulnerable) or [None]:
            capacity = [0.0 if e == f else float(v) for e, v in enumerate(y)]
            flow = oracles.brute_min_cut(g.n_r, g.n_t, list(g.edges), capacity)
            assert flow >= g.n_r - 1e-7

    @settings(max_examples=150, deadline=None)
    @given(small_instance(max_side=4, max_edges=12, balanced=False), st.integers(0, 6))
    def test_row_cap_keeps_a_lower_bound(self, data, extra):
        # a cap a few rows over the seed master stops some loops early
        work = balanced_completion(make_instance(*data)).instance
        assume(check_feasible(work))
        rows = []
        real_simplex = rapkit.lp._simplex

        def recording_simplex(lp):
            rows.append(lp.n_rows)
            return real_simplex(lp)

        with mock.patch.object(rapkit.lp, "_simplex", recording_simplex):
            relax(work)
            cap = rows[0] + extra
            rows.clear()
            with mock.patch.object(rapkit.lp, "_MAX_MASTER_ROWS", cap):
                value = relax(work).objective
        assert max(rows) <= cap
        assert value <= solve_lp(oracles.k_block_lp(work)).objective + 1e-7

    def test_row_cap_stops_the_loop(self, monkeypatch):
        # uncapped, the masters of this instance have 56, 64, 69, 71, 74,
        # 76 and 79 rows, and the last one's optimum is 79
        inst = random_instance(10, 10, 0.3, 0.5, (1, 10), seed=1)
        full = relax(inst)
        assert full.objective == 79 and full.converged
        monkeypatch.setattr(rapkit.lp, "_MAX_MASTER_ROWS", 70)
        capped = relax(inst)
        assert capped.objective < 79 and not capped.converged
        monkeypatch.setattr(rapkit.lp, "_MAX_MASTER_ROWS", 55)
        with pytest.raises(LpError, match="^relaxation master of 56 rows passes 55$"):
            relax(inst)

    def test_rejects_unbalanced_and_infeasible(self):
        with pytest.raises(InstanceError, match="balanced_completion"):
            relax(make_instance(2, 1, [(0, 0), (1, 0)], [], [1.0, 1.0]))
        with pytest.raises(InstanceError, match="infeasible"):
            relax(uniform_instance(1, 1, [(0, 0)]))

    def test_point_blocks_are_keyed_by_scenario(self):
        point = relax(make_instance(2, 2, C4_EDGES, [2, 0], [1.0] * 4))
        assert list(point.x) == [0, 2] and len(point.x) == 2
        with pytest.raises(KeyError):
            point.x[1]  # an edge that is not vulnerable
        with pytest.raises(KeyError):
            point.x[NOMINAL_SCENARIO]
        nominal = relax(make_instance(2, 2, C4_EDGES, [], [1.0] * 4))
        assert list(nominal.x) == [NOMINAL_SCENARIO]
        with pytest.raises(KeyError):
            nominal.x[0]

    def test_master_point_is_checked(self, monkeypatch):
        # a master point that misses its first cut is an engine failure
        monkeypatch.setattr(
            rapkit.lp, "_simplex", lambda lp: (np.zeros(lp.n_vars), 0.0, 0)
        )
        with pytest.raises(LpError, match=r"^residual -1\.00e\+00 on row 0$"):
            relax(c4_uniform())


class TestDumpLp:
    # the final cut master of the mixed C4 of TestBuildLp, whose seed cuts
    # are its last rows too (its optimum 3.0 is the relaxation's value)
    def test_sections_and_fixing(self):
        inst = make_instance(2, 2, C4_EDGES, [2, 0], [2.0, 3.0, 5.0, 7.0])
        text = dump_lp(relax(inst).master)
        assert text.startswith("Minimize\n obj: 2 y_0 + 3 y_1 + 5 y_2 + 7 y_3\n")
        for section in ("Subject To", "Bounds", "End"):
            assert section in text
        # f0 = (r0, t0) is left out of the seed cuts at its ends
        assert " cut_4: y_3 - s_4 = 1" in text
        assert " cut_5: y_1 - s_5 = 1" in text
        assert " 0 <= y_0 <= 1" in text and " s_0 >= 0" in text

    def test_cut_row_shape(self):
        text = dump_lp(relax(c4_uniform()).master)
        line = next(l for l in text.splitlines() if l.startswith(" cut_0:"))
        assert line == " cut_0: y_0 + y_3 - s_0 = 1"

    def test_dump_is_the_final_master(self, monkeypatch):
        inst = random_instance(4, 4, 0.6, 0.5, (1, 10), seed=4)
        built = []
        real_build = rapkit.lp.build_lp
        monkeypatch.setattr(
            rapkit.lp, "build_lp", lambda *args: built.append(real_build(*args)) or built[-1]
        )
        text = dump_lp(relax(inst).master)
        assert len(built) > 1  # rounds of cuts came after the seed master
        assert text.count(" cut_") == built[-1].n_rows
        assert text.count(" s_") == 2 * built[-1].n_rows  # in its row and its bound
