"""The built-in simplex against HiGHS on the same relaxation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_instance

from rapkit.instance import make_instance, uniformize
from rapkit.lp import build_lp, solve_lp

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
        bounds=np.column_stack([lp.lower, lp.upper]),
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
    lp = build_lp(inst)
    assert solve_lp(lp).objective == pytest.approx(highs_objective(lp), abs=1e-7)
