"""Tests for the randomized rounding solver and its helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_instance

import rapkit.lp
import rapkit.rounding
from rapkit.graph_core import PairAnalysis, components
from rapkit.instance import (
    NOMINAL_SCENARIO,
    InstanceError,
    balanced_completion,
    check_feasible,
    is_feasible_set,
    make_instance,
    uniform_instance,
    uniformize,
    verify_solution,
)
from rapkit.lp import LpError, solve_lp
from rapkit.rounding import (
    format_trace,
    prepare,
    rounding_iteration,
    solve_lp_round,
)
from rapkit.reductions import random_instance
from test_graph_core import gk_graph

C4_EDGES = [(0, 0), (1, 0), (1, 1), (0, 1)]


def c4_uniform():
    return uniform_instance(2, 2, C4_EDGES)


class TestRoundingIteration:
    def test_empty_selection_takes_whole_matching(self):
        inst = c4_uniform()
        plan = prepare(inst)
        x_set = frozenset()
        delta, _ = rounding_iteration(
            inst, PairAnalysis(inst.graph, x_set), plan.relaxation.x, 0,
            np.random.default_rng(0),
        )
        assert delta == frozenset({1, 3})

    def test_merging_edges_added(self):
        inst = c4_uniform()
        plan = prepare(inst)
        x_set = frozenset({0, 2})
        delta, _ = rounding_iteration(
            inst, PairAnalysis(inst.graph, x_set), plan.relaxation.x, 1,
            np.random.default_rng(0),
        )
        # avoiding edge 1 forces matching {0, 2}; both its edges lie inside
        # existing components, so nothing crosses
        assert delta == frozenset()
        x_set = frozenset({1, 3})
        delta, _ = rounding_iteration(
            inst, PairAnalysis(inst.graph, x_set), plan.relaxation.x, 1,
            np.random.default_rng(0),
        )
        assert delta == frozenset({0, 2})

    def test_parallel_edge_rescued_for_isolated_scenario(self):
        inst = uniform_instance(1, 1, [(0, 0), (0, 0)])
        plan = prepare(inst)
        x_set = frozenset({0})
        delta, _ = rounding_iteration(
            inst, PairAnalysis(inst.graph, x_set), plan.relaxation.x, 0,
            np.random.default_rng(0),
        )
        # the only matching avoiding edge 0 is its parallel twin, which
        # merges nothing but must still be kept
        assert delta == frozenset({1})

    def test_parallel_edge_dropped_when_scenario_not_isolated(self):
        inst = uniform_instance(2, 2, [(0, 0), (0, 0), (1, 1), (0, 1), (1, 0)])
        x_set = frozenset({0, 2, 3, 4})
        blocks = {0: (0.0, 1.0, 1.0, 0.0, 0.0)}
        delta, sampled = rounding_iteration(
            inst, PairAnalysis(inst.graph, x_set), blocks, 0, np.random.default_rng(0),
        )
        # f = 0 lies on the selected 4-cycle, so its twin merges nothing and
        # no rescue applies
        assert sampled == frozenset({1, 2})
        assert delta == frozenset()


class TestRelaxationPoint:
    @settings(max_examples=60, deadline=None)
    @given(small_instance(max_side=3, max_edges=8))
    def test_blocks_are_perfect_matchings_below_y(self, data):
        inst = make_instance(*data)
        if not check_feasible(inst):
            return
        plan = prepare(inst)
        work, relaxation = plan.work, plan.relaxation
        g = work.graph
        y = np.array(relaxation.y)
        assert float(np.dot(work.costs, y)) == pytest.approx(
            solve_lp(oracles.k_block_lp(work)).objective, abs=1e-7
        )
        # every block, so every block a rounding can visit
        for f, block in relaxation.x.items():
            x = np.array(block)
            for adj in g.adj_r + g.adj_t:
                assert abs(x[list(adj)].sum() - 1.0) <= 1e-9
            if f != NOMINAL_SCENARIO:
                assert x[f] == 0.0
            assert np.all(x >= -1e-9) and np.all(x <= y + 1e-9)

    @pytest.mark.parametrize(
        "vulnerable", [range(4), [], [0]], ids=["uniform", "nominal", "mixed"]
    )
    def test_rounding_builds_no_k_block_model(self, monkeypatch, vulnerable):
        inst = make_instance(2, 2, C4_EDGES, vulnerable=list(vulnerable), costs=[2, 3, 5, 7])
        work = uniformize(inst).instance if inst.vulnerable and not inst.uniform else inst
        expected = solve_lp(oracles.k_block_lp(work)).objective
        shapes = []
        real_simplex = rapkit.lp._simplex

        def recording_simplex(lp):
            shapes.append((lp.n_rows, lp.n_vars))
            return real_simplex(lp)

        monkeypatch.setattr(rapkit.lp, "_simplex", recording_simplex)
        plan = prepare(inst)
        assert plan.relaxation.objective == pytest.approx(expected, abs=1e-9)
        for seed in range(3):
            sol, _ = solve_lp_round(inst, seed=seed, plan=plan)
            verify_solution(inst, sol)
        # every LP solved is a cut master (one surplus column per row) or a
        # 2n-row x block, never the k-block model
        m, n = work.graph.n_edges, work.graph.n_r
        assert shapes
        assert all(cols == m + rows or (rows, cols) == (2 * n, m) for rows, cols in shapes)

    def test_blocks_solved_once_for_visited_scenarios_only(self, monkeypatch):
        g = gk_graph(3)
        inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
        plan = prepare(inst)
        solved = []
        real_block_lp = rapkit.lp._block_lp

        def recording_block_lp(work, y, f):
            solved.append(f)
            return real_block_lp(work, y, f)

        monkeypatch.setattr(rapkit.lp, "_block_lp", recording_block_lp)
        visited = set()
        for seed in range(5):
            _, trace = solve_lp_round(inst, seed=seed, plan=plan)
            visited |= {rec.scenario for rec in trace.records}
        assert sorted(solved) == sorted(visited)
        assert len(visited) < len(plan.relaxation.x)
        # the plan keeps its blocks, so the same seeds solve none again
        for seed in range(5):
            solve_lp_round(inst, seed=seed, plan=plan)
        assert sorted(solved) == sorted(visited)

    def test_capped_relaxation_is_refused(self, monkeypatch):
        # uniformized, this instance's cut masters have 104 and 109 rows
        inst = random_instance(10, 10, 0.3, 0.5, (1, 10), seed=1)

        def refuse(*_):
            raise AssertionError("a block was solved")

        monkeypatch.setattr(rapkit.lp, "_MAX_MASTER_ROWS", 105)
        monkeypatch.setattr(rapkit.lp, "_block_lp", refuse)
        with pytest.raises(
            LpError, match="^relaxation master passed 105 rows before its cuts converged$"
        ):
            prepare(inst)


class TestSolveLpRound:
    def test_c4_uniform_needs_all_edges(self):
        inst = c4_uniform()
        for seed in range(4):
            sol, trace = solve_lp_round(inst, seed=seed)
            assert sol.edge_ids == frozenset(range(4))
            assert sol.cost == pytest.approx(4.0)
            assert trace.iterations <= 4

    def test_parallel_pair_instance_terminates(self):
        inst = uniform_instance(1, 1, [(0, 0), (0, 0)])
        sol, trace = solve_lp_round(inst, seed=0)
        assert sol.edge_ids == frozenset({0, 1})
        assert trace.iterations <= 2

    def test_nominal_gives_min_cost_matching(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
        costs = [2.0, 7.0, 3.0, 1.0]
        inst = make_instance(2, 2, edges, [], costs)
        sol, trace = solve_lp_round(inst, seed=3)
        assert sol.cost == pytest.approx(
            oracles.min_cost_pm_value(2, 2, edges, costs)
        )
        assert trace.iterations == 1

    def test_g3_sizes_within_bounds(self):
        g = gk_graph(3)
        inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
        plan = prepare(inst)
        for seed in range(10):
            sol, trace = solve_lp_round(inst, seed=seed, plan=plan)
            assert 8 <= len(sol.edge_ids) <= 12
            assert trace.iterations <= 12

    def test_nonuniform_decodes_to_original_ids(self):
        inst = make_instance(2, 2, C4_EDGES, [0], [1.0] * 4)
        for seed in range(6):
            sol, _ = solve_lp_round(inst, seed=seed)
            assert sol.edge_ids <= frozenset(range(4))
            verify_solution(inst, sol)

    @pytest.mark.parametrize(
        "added, message",
        [
            # a three-edge path is matchable, but its middle edge 0 lies in
            # no perfect matching
            (frozenset({0, 1, 3}), "invariant"),
            (frozenset(), "scenario 0 still uncovered"),
        ],
        ids=["edge-not-allowed", "no-progress"],
    )
    def test_broken_iteration_raises(self, monkeypatch, added, message):
        def broken_iteration(inst, pairs, blocks, f, rng):
            return added, added

        monkeypatch.setattr(rapkit.rounding, "rounding_iteration", broken_iteration)
        with pytest.raises(AssertionError, match=message):
            solve_lp_round(c4_uniform(), seed=0)

    def test_infeasible_rejected(self):
        inst = uniform_instance(1, 1, [(0, 0)])
        with pytest.raises(InstanceError, match="infeasible"):
            solve_lp_round(inst, seed=0)

    def test_unbalanced_rounds_the_completion(self):
        # the same rounding as on the explicit completion, in the caller's ids
        cases = [
            make_instance(2, 1, [(0, 0), (1, 0)], [], [1.0, 1.0]),
            random_instance(3, 4, 0.6, 0.5, (1, 10), seed=1),
            random_instance(4, 3, 0.6, 0.5, (1, 10), seed=2),
        ]
        for inst in cases:
            completion = balanced_completion(inst)
            for seed in (0, 1):
                sol, trace = solve_lp_round(inst, seed=seed)
                ref, ref_trace = solve_lp_round(completion.instance, seed=seed)
                assert max(sol.edge_ids) < inst.graph.n_edges
                assert sol.edge_ids == completion.decode(ref.edge_ids)
                assert sol.cost == inst.cost_of(sol.edge_ids) and trace == ref_trace
                verify_solution(inst, sol)

    def test_deterministic_per_seed(self):
        inst = make_instance(2, 2, C4_EDGES, [0, 2], [1.0, 2.0, 3.0, 4.0])
        a, _ = solve_lp_round(inst, seed=11)
        b, _ = solve_lp_round(inst, seed=11)
        assert a.edge_ids == b.edge_ids

    def test_trace_component_counts_non_increasing(self):
        g = gk_graph(3)
        inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
        _, trace = solve_lp_round(inst, seed=1)
        for rec in trace.records:
            assert rec.components_after <= rec.components_before

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            small_instance(max_side=3, max_edges=8),
            small_instance(max_side=3, max_edges=8, balanced=False),
        )
    )
    def test_component_counts_match_graph_search(self, data):
        # the counts read off the oracle's analysis equal a plain search
        # over the selection, replayed from the trace
        n_r, n_t, edges, vulnerable, costs = data
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        work = inst if n_r == n_t else balanced_completion(inst).instance
        if not check_feasible(work):
            return
        plan = prepare(inst)
        g = plan.work.graph
        for seed in range(3):
            _, trace = solve_lp_round(inst, seed=seed, plan=plan)
            x_set: frozenset[int] = frozenset()
            for rec in trace.records:
                assert rec.components_before == len(components(g, x_set))
                x_set |= rec.added
                assert rec.components_after == len(components(g, x_set))

    @settings(max_examples=25, deadline=None)
    @given(small_instance(max_side=3, max_edges=8))
    def test_output_always_verifies(self, data):
        n_r, n_t, edges, vulnerable, costs = data
        if not oracles.brute_feasible(n_r, n_t, edges, vulnerable, set(range(len(edges)))):
            return
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        plan = prepare(inst)
        for seed in (0, 1):
            sol, trace = solve_lp_round(inst, seed=seed, plan=plan)
            verify_solution(inst, sol)
            assert trace.iterations <= plan.work.graph.n_edges


class TestFormatTrace:
    def test_line_shape(self):
        inst = c4_uniform()
        _, trace = solve_lp_round(inst, seed=0)
        text = format_trace(trace)
        lines = text.strip().splitlines()
        assert len(lines) == trace.iterations
        assert lines[0].startswith("iter 1 scenario e0 ")
        assert "components" in lines[0]

    def test_empty_trace(self):
        inst = make_instance(0, 0, [], [], [])
        _, trace = solve_lp_round(inst, seed=0)
        assert trace.iterations == 0
        assert format_trace(trace) == ""
