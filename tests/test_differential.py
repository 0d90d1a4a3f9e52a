"""All three solvers against the brute-force oracles on tiny instances."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import oracles
from strategies import small_instance

from rapkit.ear import solve_ear
from rapkit.exact import solve_exact
from rapkit.instance import InstanceError, make_instance
from rapkit.rounding import solve_lp_round


@settings(max_examples=200, deadline=None)
@given(small_instance(max_side=3, max_edges=8))
def test_solvers_agree_with_oracles(data):
    n_r, n_t, edges, vulnerable, costs = data
    inst = make_instance(n_r, n_t, edges, vulnerable, costs)
    optimum = oracles.brute_exact(n_r, n_t, edges, vulnerable, costs)
    if optimum is None:
        for solve in (solve_exact, solve_ear, solve_lp_round):
            with pytest.raises(InstanceError):
                solve(inst)
        return

    def robust(edge_ids):
        return oracles.brute_feasible(n_r, n_t, edges, vulnerable, set(edge_ids))

    exact = solve_exact(inst)
    assert robust(exact.edge_ids)
    assert (exact.cost, exact.edge_ids) == (pytest.approx(optimum[0], abs=1e-9), optimum[1])

    rounded, trace = solve_lp_round(inst, seed=0)
    assert robust(rounded.edge_ids)
    assert trace.iterations <= len(edges)
    assert rounded.cost >= optimum[0] - 1e-9

    unit = [1.0] * len(edges)
    kept = solve_ear(make_instance(n_r, n_t, edges, vulnerable, unit)).edge_ids
    assert robust(kept)
    unit_optimum, _ = oracles.brute_exact(n_r, n_t, edges, vulnerable, unit)
    # 1.5x on uniform instances, 3x in general
    if inst.uniform:
        assert 2 * len(kept) <= 3 * unit_optimum
    else:
        assert len(kept) <= 3 * unit_optimum
