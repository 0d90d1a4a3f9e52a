"""The built-in simplex against HiGHS on the same relaxation, and the MILP oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_instance

from rapkit.exact import solve_exact
from rapkit.instance import balanced_completion, check_feasible, make_instance, uniformize
from rapkit.lp import relax, solve_lp
from rapkit.reductions import random_instance

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def highs_objective(lp) -> float:
    a = sparse.csr_array((lp.vals, (lp.rows, lp.cols)), shape=(lp.n_rows, lp.n_vars))
    eq = np.array(lp.senses) == "E"
    eq_rows, le_rows = np.flatnonzero(eq), np.flatnonzero(~eq)
    res = optimize.linprog(
        lp.objective,
        A_ub=a[le_rows],
        b_ub=lp.rhs[le_rows],
        A_eq=a[eq_rows],
        b_eq=lp.rhs[eq_rows],
        bounds=np.column_stack([np.zeros(lp.n_vars), lp.upper]),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


@settings(max_examples=60, deadline=None)
@given(small_instance(), st.booleans())
def test_objective_matches_highs(data, uniformized):
    n_r, n_t, edges, vulnerable, costs = data
    assume(oracles.brute_feasible(n_r, n_t, edges, vulnerable, set(range(len(edges)))))
    inst = make_instance(n_r, n_t, edges, vulnerable, costs)
    if uniformized and vulnerable and not inst.uniform:
        inst = uniformize(inst).instance
    lp = oracles.k_block_lp(inst)
    assert solve_lp(lp).objective == pytest.approx(highs_objective(lp), abs=1e-7)


@settings(max_examples=150, deadline=None)
@given(small_instance(balanced=False), st.booleans())
def test_relaxation_value_matches_highs(data, uniformized):
    # the cut model's value against HiGHS on the k-block model of the same
    # completion: nominal, mixed and (when drawn) uniformized
    work = balanced_completion(make_instance(*data)).instance
    assume(check_feasible(work))
    if uniformized and work.vulnerable and not work.uniform:
        work = uniformize(work).instance
    expected = highs_objective(oracles.k_block_lp(work))
    assert relax(work).objective == pytest.approx(expected, abs=1e-7)


@settings(max_examples=100, deadline=None)
@given(small_instance(balanced=False), st.booleans())
def test_final_master_matches_highs(data, uniformized):
    # the master that --dump-lp writes is the relaxation: HiGHS's optimum
    # on it is relax's objective and HiGHS's k-block optimum
    work = balanced_completion(make_instance(*data)).instance
    assume(check_feasible(work))
    if uniformized and work.vulnerable and not work.uniform:
        work = uniformize(work).instance
    relaxation = relax(work)
    value = highs_objective(relaxation.master)
    assert value == pytest.approx(relaxation.objective, abs=1e-7)
    assert value == pytest.approx(highs_objective(oracles.k_block_lp(work)), abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(small_instance(max_side=3, max_edges=8))
def test_milp_oracle_matches_brute_force(data):
    n_r, n_t, edges, vulnerable, costs = data
    brute = oracles.brute_exact(n_r, n_t, edges, vulnerable, costs)
    got = oracles.milp_optimum(make_instance(*data))
    if brute is None:
        assert got is None
    else:
        assert got == pytest.approx(brute[0], abs=1e-6)


def test_milp_oracle_matches_solve_exact_at_15x15():
    inst = random_instance(15, 15, 0.25, 0.5, (1, 10), seed=1)
    assert solve_exact(inst).cost == 94
    assert oracles.milp_optimum(inst) == pytest.approx(94, abs=1e-6)


def test_milp_oracle_reaches_past_solve_exact():
    # solve_exact spends its work budget on this instance
    inst = random_instance(20, 20, 0.2, 0.5, (1, 10), seed=2)
    assert oracles.milp_optimum(inst) == pytest.approx(167, abs=1e-6)
