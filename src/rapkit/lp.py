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
from functools import cached_property
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


def _block_tag(f: int) -> str:
    return "nom" if f == NOMINAL_SCENARIO else f"f{f}"


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
    of column ``cols[p]``, sorted by column and then row. Row and variable
    names are built on first access; only dumps and error messages read them.
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

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @cached_property
    def var_names(self) -> tuple[str, ...]:
        m = self.instance.graph.n_edges
        names = [f"y_{e}" for e in range(m)]
        for f in self.blocks:
            names += [f"x_{_block_tag(f)}_e{e}" for e in range(m)]
        return tuple(names)

    @cached_property
    def row_names(self) -> tuple[str, ...]:
        g = self.instance.graph
        names: list[str] = []
        for f in self.blocks:
            names += [f"deg_{_block_tag(f)}_r{r}" for r in range(g.n_r)]
            names += [f"deg_{_block_tag(f)}_t{t}" for t in range(g.n_t)]
        for f in self.blocks:
            names += [f"cpl_{_block_tag(f)}_e{e}" for e in range(g.n_edges)]
        return tuple(names)

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

    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)
    for pos, f in enumerate(blocks):
        if f != NOMINAL_SCENARIO:
            upper[(pos + 1) * m + f] = 0.0

    objective = np.zeros(n_vars)
    objective[:m] = np.asarray(inst.costs, dtype=float)

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
    )


_AT_LB, _AT_UB, _BASIC = 0, 1, 2
# Update the whole basis inverse once the touched block exceeds 1/4 of it:
# subtracting at a block's flat indices costs about 8.6 ns per entry
# against 1.9 ns for a dense pass. On lp-small's relaxations (one thread,
# Xeon SkylakeX), 9% of the updates go full at 4, and ratios from 3 to 6
# solve them in the same time within noise.
_FULL_UPDATE_RATIO = 4
# Rows per slice of a full update; a restricted update's chunks hold as
# many entries. The update allocates that scratch on each call: held
# through a phase, beside each refactorization's arrays, it moved lp-small's
# peak RSS between heap-layout levels of 52.4 and 54.6 MB, where scratch per
# call read 52.2 MB (one thread, Xeon SkylakeX). 8 and 16 rows slowed the
# full update by 40-50% (n_rows = 551), and 64 held 0.4 MB more at the peak.
_UPDATE_ROWS = 32
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
    pivot row is nonzero, subtracting in place at that block's flat indices
    a chunk of rows at a time, or in full, in slices of rows, when the
    block exceeds a quarter of the matrix. Either way each updated entry
    is b - d_i * row_c, rounded once per operation, and the two paths and
    the dense rank-one update differ only in the sign of a zero entry. No
    comparison sees that sign, and each phase ends with a refactorization,
    so the returned point does not depend on it. A threaded BLAS sums the
    dual and FTRAN products in another order and can take another pivot
    path.
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
    """Basis, bounds and basis inverse of one solve, carried across its phases.

    ``run`` keeps its per-pivot state across the pivots of a phase and
    changes it where a pivot does, at the entering column and the leaving
    row: each column's pricing sign (-1 at its lower bound, +1 at its upper
    bound, 0 when basic or fixed), and the cost and bounds of each row's
    basic variable. The dual, pricing, FTRAN and ratio test write into
    buffers allocated once per phase, and the entering column is scattered
    into a zeroed buffer and cleared after FTRAN. The update's scratch is
    bounded by _UPDATE_ROWS rows and freed on return. All of it
    computes the values a per-pivot rebuild would, up to the sign of a zero
    in the inverse (see ``_simplex``), so the pivot path and the returned
    point are unchanged.

    No view of ``b_inv`` outlives the pivot that made it: ``_refactorize``
    drops the old inverse before it allocates the new one, and a view held
    across that call would keep both alive.
    """

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

    def _update_inverse(self, leave_row, d, row) -> None:
        """Pivot the basis inverse on ``leave_row``, where ``d`` = B⁻¹ a_j.

        Divides the pivot row by the pivot and subtracts d times it from
        every other row, only where d and the pivot row are nonzero, or in
        full when that block exceeds 1/_FULL_UPDATE_RATIO of the matrix.
        ``d`` is clobbered and ``row`` receives the divided pivot row. The
        flat view of the inverse and the scratch of _UPDATE_ROWS * n_rows
        entries die with this call, so no refactorization finds the old
        inverse still referenced or the scratch still held.
        """
        n = self.n_rows
        np.divide(self.b_inv[leave_row], d[leave_row], out=row)
        self.b_inv[leave_row] = row
        d[leave_row] = 0.0  # the pivot row keeps its divided values
        ri = np.flatnonzero(d)
        ci = np.flatnonzero(row)
        outer = np.empty(_UPDATE_ROWS * n)
        if _FULL_UPDATE_RATIO * ri.size * ci.size > n * n:
            # einsum's outer-product kernel takes about half the time of
            # np.multiply.outer on large blocks; a zero product may come out +0
            for s in range(0, n, _UPDATE_ROWS):
                part = slice(s, s + _UPDATE_ROWS)
                out = outer[: min(_UPDATE_ROWS, n - s) * n].reshape(-1, n)
                np.einsum("i,j->ij", d[part], row, out=out)
                self.b_inv[part] -= out
            self.b_inv[leave_row] = row
            return
        # subtract the block's products in place at flat indices r * n + c,
        # a chunk of rows at a time so that no temporary outgrows the scratch
        idx = np.empty(outer.size, dtype=np.int64)
        flat = self.b_inv.reshape(-1)
        row_c = row[ci]
        start = ri * n
        chunk = max(1, outer.size // ci.size)
        for s in range(0, ri.size, chunk):
            rows = ri[s : s + chunk]
            shape = (rows.size, ci.size)
            at, prod = idx[: rows.size * ci.size], outer[: rows.size * ci.size]
            np.add(start[s : s + chunk, None], ci, out=at.reshape(shape))
            np.einsum("i,j->ij", d[rows], row_c, out=prod.reshape(shape))
            # ufunc.at takes its fast path only with 1-D indices (9 times faster)
            np.subtract.at(flat, at, prod)

    def run(self, cost: np.ndarray) -> None:
        n = self.n_rows
        max_iter = 200 + 100 * (n + self.n_cols)
        degenerate_run = 0
        bland = False
        status, basic = self.status, self.basic
        fixed = self.upper - self.lower <= 0
        # pricing sign: -1 at the lower bound, +1 at the upper bound, 0 when
        # basic or fixed, so sign * reduced cost is a column's violation
        sign = np.where(status == _AT_UB, 1.0, -1.0)
        sign[(status == _BASIC) | fixed] = 0.0
        # cost and bounds of the basic variables, by row
        cost_b, lower_b, upper_b = cost[basic], self.lower[basic], self.upper[basic]
        # buffers every pivot writes into; a_j is zero between pivots
        y_dual, a_j, d, dd, t_rows = (np.empty(n) for _ in range(5))
        a_j.fill(0.0)
        pos, neg = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        terms = np.empty(self.nz_row.size)
        viol = np.empty(self.n_cols)
        row = np.empty(n)

        for _ in range(max_iter):
            self.iterations += 1
            np.matmul(cost_b, self.b_inv, out=y_dual)
            # each column's terms summed in ascending row order, as the
            # single-thread dense product does
            np.take(y_dual, self.nz_row, out=terms)
            terms *= self.nz_val
            np.subtract(
                cost, np.bincount(self.nz_col, weights=terms, minlength=self.n_cols), out=viol
            )
            viol *= sign

            if bland:
                j = int(np.argmax(viol > EPS_OPT))
            else:
                j = int(np.argmax(viol))
            if viol[j] <= EPS_OPT:
                self._refactorize()
                return

            nz = slice(self.col_start[j], self.col_start[j + 1])
            a_j[self.nz_row[nz]] = self.nz_val[nz]
            np.matmul(self.b_inv, a_j, out=d)
            a_j[self.nz_row[nz]] = 0.0
            sigma = 1.0 if status[j] == _AT_LB else -1.0
            np.multiply(d, sigma, out=dd)

            # ratio test: how far can the entering variable move before a
            # basic variable hits one of its bounds (an infinite upper bound
            # gives an infinite ratio)
            np.greater(dd, _PIVOT_TOL, out=pos)
            np.less(dd, -_PIVOT_TOL, out=neg)
            t_rows.fill(np.inf)
            np.subtract(self.x_b, lower_b, out=t_rows, where=pos)
            np.subtract(self.x_b, upper_b, out=t_rows, where=neg)
            pos |= neg
            np.divide(t_rows, dd, out=t_rows, where=pos)
            np.maximum(t_rows, 0.0, out=t_rows)

            t_bound = self.upper[j] - self.lower[j]
            t_min = float(t_rows.min())
            if t_min < t_bound - 1e-12:
                # leaving-variable ties break toward the smallest column id
                cand = np.flatnonzero(t_rows <= t_min + 1e-12)
                leave_row = int(cand[np.argmin(basic[cand])])
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

            dd *= step
            self.x_b -= dd
            if leave_row < 0:
                # bound flip: the entering variable crosses to its other bound
                status[j] = _AT_UB if status[j] == _AT_LB else _AT_LB
                sign[j] = -sign[j]
                continue

            leaving = basic[leave_row]
            self.x_b[leave_row] = self.lower[j] + step if sigma > 0 else self.upper[j] - step
            status[leaving] = _AT_LB if hit_lower else _AT_UB
            sign[leaving] = 0.0 if fixed[leaving] else (-1.0 if hit_lower else 1.0)
            status[j] = _BASIC
            sign[j] = 0.0
            basic[leave_row] = j
            cost_b[leave_row] = cost[j]
            lower_b[leave_row], upper_b[leave_row] = self.lower[j], self.upper[j]

            if abs(d[leave_row]) < _PIVOT_TOL:
                raise LpError("numerically singular pivot")
            self._update_inverse(leave_row, d, row)

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
    equality = np.array(lp.senses) == "E"
    bad = np.flatnonzero(np.where(equality, np.abs(residual), residual) > EPS_FEAS)
    if bad.size:
        i = int(bad[0])
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
