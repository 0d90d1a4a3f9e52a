"""Linear relaxation of the robust assignment formulation, plus a solver.

The model has one y variable per edge and, for every vulnerable edge f, a
block of x variables describing a fractional perfect matching that avoids f.
On bipartite graphs the degree equalities alone carve out the perfect
matching polytope, so each block contributes one equality per node and one
coupling inequality x <= y per edge. Minimizing c*y over these constraints
lower-bounds every robust solution.

The model is nearly all zeros and every coefficient is +-1, so it is kept
as its nonzeros. The solver, a bounded-variable revised primal simplex,
prices over them and keeps one dense array, the basis inverse, which it
updates only where it changes. On one BLAS thread neither moves the pivot
path or the returned point of the dense method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from rapkit.instance import (
    NOMINAL_SCENARIO,
    InstanceError,
    RapInstance,
    check_feasible,
)

EPS_FEAS = 1e-9
EPS_OPT = 1e-7


class LpError(RuntimeError):
    """The solver failed: infeasible model, iteration limit, or numerics."""


@dataclass(frozen=True)
class RapLp:
    """The relaxation in matrix form with deterministic variable order.

    Columns: the y block first (by edge id), then one x block per vulnerable
    edge in ascending id order. With no vulnerable edges a single nominal
    x block (key ``NOMINAL_SCENARIO``) keeps the model non-vacuous, so the
    optimum is the cheapest perfect matching. Rows: per-block degree
    equalities (R nodes then T nodes), then per-block coupling rows
    x_e - y_e <= 0. The fixing x^{-f}_f = 0 is a variable bound, not a row.
    The matrix is held as its nonzeros: ``vals[p]`` sits at row ``rows[p]``
    of column ``cols[p]``, sorted by column and then row.
    """

    instance: RapInstance
    blocks: tuple[int, ...]
    n_rows: int
    cols: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    var_names: tuple[str, ...]
    row_names: tuple[str, ...]

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def a_matrix(self) -> np.ndarray:
        """A dense copy of the matrix for inspection; the solver never builds one."""
        a = np.zeros((self.n_rows, self.n_vars))
        a[self.rows, self.cols] = self.vals
        return a

    def x_index(self, block_pos: int, e: int) -> int:
        return (block_pos + 1) * self.instance.graph.n_edges + e


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal point of the relaxation: y per edge, x per scenario block."""

    y: tuple[float, ...]
    x: Mapping[int, tuple[float, ...]]
    objective: float
    iterations: int


def build_lp(inst: RapInstance) -> RapLp:
    if not inst.graph.balanced:
        raise InstanceError("apply balanced_completion first")
    if not check_feasible(inst):
        raise InstanceError("infeasible instance")
    g = inst.graph
    m = g.n_edges
    blocks = tuple(sorted(inst.vulnerable)) if inst.vulnerable else (NOMINAL_SCENARIO,)
    k = len(blocks)
    n_vars = m * (k + 1)
    n_deg = k * (g.n_r + g.n_t)
    n_rows = n_deg + k * m

    ends = np.array(g.edges, dtype=np.int64).reshape(m, 2)
    block_pos = np.arange(k)[:, None]
    edge = np.arange(m)[None, :]
    coupling = n_deg + block_pos * m + edge  # (k, m): row of x^f_e - y_e <= 0
    # y_e: -1 in the coupling row of e in every block
    y_cols = np.repeat(np.arange(m), k)
    y_rows = coupling.T.ravel()
    # x^f_e: +1 in its block's R and T degree rows and in its coupling row
    deg_base = block_pos * (g.n_r + g.n_t)
    x_rows = np.stack(
        [deg_base + ends[:, 0], deg_base + g.n_r + ends[:, 1], coupling], axis=2
    ).ravel()
    x_cols = np.repeat(((block_pos + 1) * m + edge).ravel(), 3)
    cols = np.concatenate([y_cols, x_cols])
    rows = np.concatenate([y_rows, x_rows])
    vals = np.concatenate([np.full(y_cols.size, -1.0), np.ones(x_cols.size)])

    rhs = np.concatenate([np.ones(n_deg), np.zeros(k * m)])
    senses = ("E",) * n_deg + ("L",) * (k * m)

    def block_tag(f: int) -> str:
        return "nom" if f == NOMINAL_SCENARIO else f"f{f}"

    row_names: list[str] = []
    for f in blocks:
        row_names += [f"deg_{block_tag(f)}_r{r}" for r in range(g.n_r)]
        row_names += [f"deg_{block_tag(f)}_t{t}" for t in range(g.n_t)]
    for f in blocks:
        row_names += [f"cpl_{block_tag(f)}_e{e}" for e in range(m)]

    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)
    for pos, f in enumerate(blocks):
        if f != NOMINAL_SCENARIO:
            upper[(pos + 1) * m + f] = 0.0

    objective = np.zeros(n_vars)
    objective[:m] = np.asarray(inst.costs, dtype=float)

    var_names = [f"y_{e}" for e in range(m)]
    for f in blocks:
        var_names += [f"x_{block_tag(f)}_e{e}" for e in range(m)]

    return RapLp(
        instance=inst,
        blocks=blocks,
        n_rows=n_rows,
        cols=cols,
        rows=rows,
        vals=vals,
        senses=senses,
        rhs=rhs,
        lower=lower,
        upper=upper,
        objective=objective,
        var_names=tuple(var_names),
        row_names=tuple(row_names),
    )


_AT_LB, _AT_UB, _BASIC = 0, 1, 2
# Update the whole basis inverse once the touched block exceeds 1/4 of it:
# gathering and scattering a large block costs more than a dense pass. On
# lp-small's relaxations (one thread, Xeon SkylakeX), 9% of the updates go
# full at 4; the solves take 5% longer with the restricted update alone and
# 36% longer with the full update alone, as long at 4 as at 8, and peak
# memory grows by about 2 MB from 6 on.
_FULL_UPDATE_RATIO = 4
# rows per slice of a full update; bounding its temporaries keeps peak
# memory from growing through heap fragmentation
_UPDATE_ROWS = 64
# smallest pivot magnitude accepted by the ratio test and the update
_PIVOT_TOL = 1e-9
# pivots between refactorizations of the basis inverse
_REFACTOR_EVERY = 100
# degenerate pivots in a row before pricing falls back to Bland's rule
_DEGENERATE_SWITCH = 50


def _simplex(lp: RapLp) -> tuple[np.ndarray, float, int]:
    """Two-phase bounded-variable revised primal simplex.

    Returns the variable values, the objective and the pivot count. Dense
    basis inverse with product-form pivot updates and periodic
    refactorization. Pricing is Dantzig's rule with first-index tie breaks;
    after a run of degenerate pivots it falls back to Bland's rule until a
    positive step is taken, which guarantees termination.

    The working matrix (structurals, then one slack or artificial column
    per row) is held only as its nonzeros, sorted by column and row. FTRAN
    and refactorization scatter them into zeroed arrays, so the dense
    products see the values a dense matrix would hold. Pricing sums each
    column's nonzero terms in ascending row order; the coefficients are
    +-1, so the products are exact and the sums match the dense one-thread
    product bit for bit. A pivot updates the basis inverse only on the
    rows where the entering column is nonzero and the columns where the
    pivot row is nonzero, or in full, in slices of rows, when that block
    exceeds a quarter of the matrix. The two paths differ only in the sign
    of a zero, and each phase ends with a refactorization, so the returned
    point does not depend on the choice. A threaded BLAS sums the dual and
    FTRAN products in another order and can take another pivot path.
    """
    n_rows, n_struct = lp.n_rows, lp.n_vars
    if n_rows == 0:
        values = lp.lower.copy()
        return values, float(lp.objective @ values), 0

    senses = np.array(lp.senses)
    # slacks ("L" rows), then artificials ("E" rows), each one +1 after the structurals
    slack_rows = np.concatenate([np.flatnonzero(senses == "L"), np.flatnonzero(senses == "E")])
    n_slack = int(np.count_nonzero(senses == "L"))
    n_cols = n_struct + n_rows
    slack_cols = np.arange(n_struct, n_cols)
    nz_col = np.concatenate([lp.cols, slack_cols])
    nz_row = np.concatenate([lp.rows, slack_rows])
    nz_val = np.concatenate([lp.vals, np.ones(n_rows)])

    lower = np.concatenate([lp.lower, np.zeros(n_rows)])
    upper = np.concatenate([lp.upper, np.full(n_rows, np.inf)])

    # start: slacks and artificials basic, structurals at lower bound
    status = np.full(n_cols, _AT_LB, dtype=np.int8)
    basic = np.empty(n_rows, dtype=np.int64)
    basic[slack_rows] = slack_cols
    status[basic] = _BASIC

    state = _SimplexState(nz_col, nz_row, nz_val, lp.rhs.copy(), lower, upper, basic, status)

    phase1_cost = np.zeros(n_cols)
    phase1_cost[n_struct + n_slack :] = 1.0
    state.run(phase1_cost)
    if state.objective(phase1_cost) > 1e-7:
        raise LpError("LP infeasible")

    # pin artificials at zero for the optimality phase
    state.upper[n_struct + n_slack :] = 0.0
    phase2_cost = np.zeros(n_cols)
    phase2_cost[:n_struct] = lp.objective
    state.run(phase2_cost)

    values = state.values()[:n_struct]
    return values, float(lp.objective @ values), state.iterations


class _SimplexState:
    def __init__(self, nz_col, nz_row, nz_val, rhs, lower, upper, basic, status):
        # the working matrix's nonzeros, sorted by column, then row
        self.nz_col, self.nz_row, self.nz_val = nz_col, nz_row, nz_val
        self.rhs = rhs
        self.lower = lower
        self.upper = upper
        self.basic = basic
        self.status = status
        self.n_cols, self.n_rows = len(status), len(rhs)
        # column j's nonzeros are entries col_start[j] up to col_start[j + 1]
        self.col_start = np.searchsorted(nz_col, np.arange(self.n_cols + 1))
        self.b_inv = np.eye(self.n_rows)
        self.iterations = 0
        self._since_refactor = 0
        self.x_b = self._recompute_basics()

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.status == _AT_UB, self.upper, self.lower)
        vals[self.status == _BASIC] = 0.0
        return vals

    def _recompute_basics(self) -> np.ndarray:
        # nonbasic values sit at 0/1 bounds, so these sums are exact
        terms = self._nonbasic_values()[self.nz_col] * self.nz_val
        lhs = np.bincount(self.nz_row, weights=terms, minlength=self.n_rows)
        return self.b_inv @ (self.rhs - lhs)

    def _refactorize(self) -> None:
        # column k of the basis is working column basic[k]
        pos = np.full(self.n_cols, -1)
        pos[self.basic] = np.arange(self.n_rows)
        k = pos[self.nz_col]
        in_basis = k >= 0
        b = np.zeros((self.n_rows, self.n_rows))
        b[self.nz_row[in_basis], k[in_basis]] = self.nz_val[in_basis]
        del self.b_inv  # freed before the new inverse is allocated
        try:
            self.b_inv = np.linalg.inv(b)
        except np.linalg.LinAlgError as exc:
            raise LpError("singular basis") from exc
        self.x_b = self._recompute_basics()
        self._since_refactor = 0

    def values(self) -> np.ndarray:
        vals = self._nonbasic_values()
        vals[self.basic] = self.x_b
        return vals

    def objective(self, cost: np.ndarray) -> float:
        return float(cost @ self.values())

    def run(self, cost: np.ndarray) -> None:
        max_iter = 200 + 100 * (self.n_rows + self.n_cols)
        degenerate_run = 0
        bland = False
        fixed = self.upper - self.lower <= 0

        for _ in range(max_iter):
            self.iterations += 1
            y_dual = cost[self.basic] @ self.b_inv
            # each column's terms summed in ascending row order, as the
            # single-thread dense product does
            reduced = cost - np.bincount(
                self.nz_col,
                weights=y_dual[self.nz_row] * self.nz_val,
                minlength=self.n_cols,
            )

            viol = np.where(
                self.status == _AT_LB,
                -reduced,
                np.where(self.status == _AT_UB, reduced, -np.inf),
            )
            viol[self.status == _BASIC] = -np.inf
            viol[fixed] = -np.inf

            if bland:
                candidates = np.flatnonzero(viol > EPS_OPT)
                if candidates.size == 0:
                    self._refactorize()
                    return
                j = int(candidates[0])
            else:
                j = int(np.argmax(viol))
                if viol[j] <= EPS_OPT:
                    self._refactorize()
                    return

            a_j = np.zeros(self.n_rows)
            nz = slice(self.col_start[j], self.col_start[j + 1])
            a_j[self.nz_row[nz]] = self.nz_val[nz]
            d = self.b_inv @ a_j
            sigma = 1.0 if self.status[j] == _AT_LB else -1.0
            dd = sigma * d

            # ratio test: how far can the entering variable move before a
            # basic variable hits one of its bounds
            cols = self.basic
            t_rows = np.full(self.n_rows, np.inf)
            pos = dd > _PIVOT_TOL
            t_rows[pos] = (self.x_b[pos] - self.lower[cols[pos]]) / dd[pos]
            neg = (dd < -_PIVOT_TOL) & (self.upper[cols] != np.inf)
            t_rows[neg] = (self.x_b[neg] - self.upper[cols[neg]]) / dd[neg]
            np.maximum(t_rows, 0.0, out=t_rows)

            t_bound = self.upper[j] - self.lower[j]
            t_min = float(t_rows.min()) if self.n_rows else np.inf
            if t_min < t_bound - 1e-12:
                # leaving-variable ties break toward the smallest column id
                cand = np.flatnonzero(t_rows <= t_min + 1e-12)
                leave_row = int(cand[np.argmin(cols[cand])])
                hit_lower = bool(dd[leave_row] > 0)
                t_best = float(t_rows[leave_row])
            else:
                leave_row = -1
                hit_lower = True
                t_best = t_bound

            if t_best == np.inf:
                raise LpError("LP unbounded")

            step = max(t_best, 0.0)
            if step <= 1e-12:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_SWITCH:
                    bland = True
            else:
                degenerate_run = 0
                bland = False

            if leave_row < 0:
                # bound flip: the entering variable crosses to its other bound
                self.x_b -= step * dd
                self.status[j] = _AT_UB if self.status[j] == _AT_LB else _AT_LB
                continue

            entering_value = (
                self.lower[j] + step if sigma > 0 else self.upper[j] - step
            )
            leaving = self.basic[leave_row]
            self.x_b -= step * dd
            self.x_b[leave_row] = entering_value
            self.status[leaving] = _AT_LB if hit_lower else _AT_UB
            self.status[j] = _BASIC
            self.basic[leave_row] = j

            pivot = d[leave_row]
            if abs(pivot) < _PIVOT_TOL:
                raise LpError("numerically singular pivot")
            self.b_inv[leave_row, :] /= pivot
            # subtract d times the pivot row from every other row (the pivot
            # row takes d = 0); see the class docstring for the two paths
            row = self.b_inv[leave_row, :].copy()
            d[leave_row] = 0.0
            ri = np.flatnonzero(d)
            ci = np.flatnonzero(row)
            if _FULL_UPDATE_RATIO * ri.size * ci.size > self.n_rows * self.n_rows:
                for s in range(0, self.n_rows, _UPDATE_ROWS):
                    part = slice(s, s + _UPDATE_ROWS)
                    self.b_inv[part] -= np.multiply.outer(d[part], row)
                self.b_inv[leave_row, :] = row
            else:
                self.b_inv[np.ix_(ri, ci)] -= np.multiply.outer(d[ri], row[ci])

            self._since_refactor += 1
            if self._since_refactor >= _REFACTOR_EVERY:
                self._refactorize()

        raise LpError("iteration limit")


def solve_lp(lp: RapLp) -> FractionalSolution:
    """Solve the relaxation to optimality and validate the returned point.

    The point is checked against every row and bound within ``EPS_FEAS``;
    a violation means the engine misbehaved and raises ``LpError``.
    """
    values, objective, iters = _simplex(lp)

    lhs = np.bincount(lp.rows, weights=lp.vals * values[lp.cols], minlength=lp.n_rows)
    residual = lhs - lp.rhs
    for i, sense in enumerate(lp.senses):
        bad = abs(residual[i]) > EPS_FEAS if sense == "E" else residual[i] > EPS_FEAS
        if bad:
            raise LpError(f"residual {residual[i]:.2e} on row {lp.row_names[i]}")
    if np.any(values < lp.lower - EPS_FEAS) or np.any(values > lp.upper + EPS_FEAS):
        raise LpError("variable bound violated")

    m = lp.instance.graph.n_edges
    y = tuple(float(v) for v in values[:m])
    x: dict[int, tuple[float, ...]] = {}
    for pos, f in enumerate(lp.blocks):
        base = (pos + 1) * m
        x[f] = tuple(float(v) for v in values[base : base + m])
    return FractionalSolution(y=y, x=x, objective=objective, iterations=iters)


def dump_lp(lp: RapLp) -> str:
    """Render the model in the common textual LP interchange format."""

    def term(coef: float, name: str, first: bool) -> str:
        sign = "- " if coef < 0 else ("" if first else "+ ")
        mag = abs(coef)
        coef_s = "" if mag == 1.0 else f"{mag:g} "
        return f"{sign}{coef_s}{name}"

    lines = ["Minimize"]
    obj_terms: list[str] = []
    for j in np.flatnonzero(lp.objective):
        obj_terms.append(term(float(lp.objective[j]), lp.var_names[j], not obj_terms))
    lines.append(" obj: " + (" ".join(obj_terms) or "0"))
    lines.append("Subject To")
    terms: list[list[str]] = [[] for _ in range(lp.n_rows)]
    # each row's terms in ascending column order
    for p in np.lexsort((lp.cols, lp.rows)):
        row = terms[lp.rows[p]]
        row.append(term(float(lp.vals[p]), lp.var_names[lp.cols[p]], not row))
    for i in range(lp.n_rows):
        op = "=" if lp.senses[i] == "E" else "<="
        lines.append(f" {lp.row_names[i]}: {' '.join(terms[i])} {op} {lp.rhs[i]:g}")
    lines.append("Bounds")
    for j, name in enumerate(lp.var_names):
        lo, hi = lp.lower[j], lp.upper[j]
        if lo == hi:
            lines.append(f" {name} = {lo:g}")
        else:
            lines.append(f" {lo:g} <= {name} <= {hi:g}")
    lines.append("End")
    return "\n".join(lines) + "\n"
