"""Linear relaxation of the robust assignment formulation, plus a solver.

The paper's relaxation has one y variable per edge and, for every
vulnerable edge f, a block of x variables: a fractional perfect matching
that avoids f and lies below y. Minimizing c*y over it lower-bounds every
robust solution. No solver builds that k-block model. y restricted to
E - f dominates a fractional perfect matching exactly when every Hall cut
y(delta(A, T - B) - f) >= |A| - |B| holds (max-flow/min-cut; the
perfect-matching dominant, Schrijver, *Combinatorial Optimization*).
``relax`` finds the cuts it needs by max-flow, one scenario at a time, and
solves a master over y alone (``build_lp``, solved by ``solve_lp``). Its
``Relaxation`` keeps the last master, its y and value, and x blocks that
are solved one at a time, on first use, as 2n-row min-cost matchings below
y. y and those blocks form an optimal point of the k-block model.
``dump_lp`` renders a master.

Each model is kept as its nonzeros. Every variable has lower bound 0 and an
upper bound (0 when it is fixed). ``_simplex``, a bounded-variable revised
primal simplex, prices over the nonzeros and keeps one dense array, the
basis inverse. A threaded BLAS can take another pivot path, so the pinned
results assume one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from rapkit.graph_core import max_flow_min_cut
from rapkit.instance import (
    NOMINAL_SCENARIO,
    InstanceError,
    RapInstance,
    check_feasible,
)

EPS_FEAS = 1e-9
EPS_OPT = 1e-7
# the cut master's basis inverse is rows^2 * 8 bytes and each round adds a row;
# a 572-row master solved in 1.45 s (2-core host, one BLAS thread)
_MAX_MASTER_ROWS = 600


class LpError(RuntimeError):
    """The solver failed: infeasible model, iteration limit, or numerics."""


@dataclass(frozen=True)
class SparseLp:
    """A linear program held as its nonzeros; the fields the simplex reads.

    Minimize ``objective`` * v subject to one row per ``senses`` entry
    ("E": equal to ``rhs``, "L": at most ``rhs``) and 0 <= v <= ``upper``.
    ``vals[p]`` sits at row ``rows[p]`` of column ``cols[p]``, sorted by
    column and then row.
    """

    n_rows: int
    cols: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    upper: np.ndarray
    objective: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def a_matrix(self) -> np.ndarray:
        """A dense copy of the matrix for inspection; the solver never builds one."""
        a = np.zeros((self.n_rows, self.n_vars))
        a[self.rows, self.cols] = self.vals
        return a


class LpSolution(NamedTuple):
    """An optimal point of a ``SparseLp``, its objective and the simplex's pivot count."""

    values: np.ndarray
    objective: float
    iterations: int


@dataclass(frozen=True)
class Relaxation:
    """The relaxation of one instance, as ``relax``'s cut loop left it.

    ``master`` is the last cut master, ``y`` and ``objective`` its optimal y
    and optimum, and ``iterations`` the simplex pivots of every master the
    loop solved. ``converged`` says the loop stopped on a round that found
    no cut, so ``objective`` is the relaxation's value; otherwise the loop
    stopped at ``_MAX_MASTER_ROWS`` rows, and since every cut is valid,
    ``objective`` is still a lower bound on it. ``x`` maps each scenario f
    to its block, solved on first read and kept (``_block_lp``): any
    fractional perfect matching of E - f below y completes y to a point of
    the k-block model with the same objective. A capped y can miss a Hall
    cut and leave a block infeasible.
    """

    master: SparseLp
    y: tuple[float, ...]
    x: Mapping[int, tuple[float, ...]]
    objective: float
    iterations: int
    converged: bool


# Update the whole basis inverse once the touched block exceeds 1/4 of it:
# on inverses of 365-572 rows, subtracting at a block's flat indices costs
# about 6-7 ns per entry against 1.6-1.9 ns for a dense pass (one thread,
# Xeon SkylakeX). lp-small's cut masters and x blocks (8-52 rows) go full
# on 8% of their updates; the models of 15 x 15 to 40 x 40 instances (up
# to 241-572 rows) on 35-41%.
_FULL_UPDATE_RATIO = 4
# Rows per slice of a full update; a restricted update's chunks hold as
# many entries, so no temporary of the update outgrows _UPDATE_ROWS *
# n_rows entries (146 kB at 572 rows). 8 and 16 rows slow the full update
# by 20-100% at 365-572 rows.
_UPDATE_ROWS = 32
# smallest pivot magnitude accepted by the ratio test and the update
_PIVOT_TOL = 1e-9
# pivots between refactorizations of the basis inverse
_REFACTOR_EVERY = 100
# degenerate pivots in a row before pricing falls back to Bland's rule
_DEGENERATE_SWITCH = 50


def _simplex(lp: SparseLp) -> tuple[np.ndarray, float, int]:
    """Two-phase bounded-variable revised primal simplex.

    Returns the variable values, the objective and the pivot count. Phase 1
    drives the artificials to 0 and phase 2 minimizes the objective, both
    on ``_SimplexState``'s basis. Pricing is Dantzig's rule with first-index
    tie breaks; after a run of degenerate pivots it falls back to Bland's
    rule until a positive step is taken, which guarantees termination.

    Pricing sums each column's nonzero terms in ascending row order; the
    coefficients are +-1, so the sums are exact. The dual and FTRAN are
    dense products with the basis inverse, which a threaded BLAS sums in
    another order, so the pivot path is pinned for one thread only. A pivot
    updates the inverse in place (``_update_inverse``). Every
    ``_REFACTOR_EVERY`` pivots, and at the end of a phase in which anything
    moved, ``np.linalg.inv`` rebuilds it.
    """
    if lp.n_rows == 0:
        values = np.zeros(lp.n_vars)
        return values, float(lp.objective @ values), 0

    state = _SimplexState(lp)
    artificials = slice(state.first_artificial, None)
    phase1_cost = np.zeros(state.n_cols)
    phase1_cost[artificials] = 1.0
    state.run(phase1_cost)
    if state.objective(phase1_cost) > 1e-7:
        raise LpError("LP infeasible")

    # pin artificials at zero for the optimality phase
    state.upper[artificials] = 0.0
    phase2_cost = np.zeros(state.n_cols)
    phase2_cost[: lp.n_vars] = lp.objective
    state.run(phase2_cost)

    values = state.values()[: lp.n_vars]
    return values, float(lp.objective @ values), state.iterations


class _SimplexState:
    """Basis, bounds and basis inverse of one solve, carried across its phases.

    Built from the model, with one +1 slack ("L" row) or artificial ("E"
    row) column per row after the structurals; these form the starting
    basis I, with every structural at 0. The working matrix is held only as
    its nonzeros, sorted by column and row. Every lower bound is 0, so
    ``basic`` (the column of each row) and ``sign`` (-1 at 0, +1 at the
    upper bound, 0 when basic or fixed) are the whole column state, and
    ``sign * reduced cost`` is a column's pricing violation. ``x_b`` holds
    the basic values and ``b_inv`` the basis inverse; ``run`` keeps the
    cost and upper bound of each row's basic variable beside them.

    No view of ``b_inv`` outlives the pivot that made it: ``_refactorize``
    drops the old inverse before it allocates the new one, and a view held
    across that call would keep both alive.
    """

    def __init__(self, lp: SparseLp):
        n_rows, n_struct = lp.n_rows, lp.n_vars
        senses = np.array(lp.senses)
        # slacks ("L" rows), then artificials ("E" rows), each one +1 after the structurals
        slack_rows = np.concatenate([np.flatnonzero(senses == "L"), np.flatnonzero(senses == "E")])
        self.first_artificial = n_struct + int(np.count_nonzero(senses == "L"))
        self.n_cols, self.n_rows = n_struct + n_rows, n_rows
        slack_cols = np.arange(n_struct, self.n_cols)
        # the working matrix's nonzeros, sorted by column, then row
        self.nz_col = np.concatenate([lp.cols, slack_cols])
        self.nz_row = np.concatenate([lp.rows, slack_rows])
        self.nz_val = np.concatenate([lp.vals, np.ones(n_rows)])
        self.rhs = lp.rhs
        self.upper = np.concatenate([lp.upper, np.full(n_rows, np.inf)])
        self.basic = np.empty(n_rows, dtype=np.int64)
        self.basic[slack_rows] = slack_cols
        self.sign = np.full(self.n_cols, -1.0)
        self.sign[self.basic] = 0.0
        # column j's nonzeros are entries col_start[j] up to col_start[j + 1]
        self.col_start = np.searchsorted(self.nz_col, np.arange(self.n_cols + 1))
        self.b_inv = np.eye(n_rows)
        self.iterations = 0
        self._since_refactor = 0
        # whether a pivot or a bound flip came since the last refactorization;
        # the starting inverse is exact, since the starting basis is I
        self._moved = False
        self.x_b = self._recompute_basics()

    def _nonbasic_values(self) -> np.ndarray:
        return np.where(self.sign > 0, self.upper, 0.0)

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
        self._moved = False

    def values(self) -> np.ndarray:
        vals = self._nonbasic_values()
        vals[self.basic] = self.x_b
        return vals

    def objective(self, cost: np.ndarray) -> float:
        return float(cost @ self.values())

    def _update_inverse(self, leave_row: int, d: np.ndarray) -> None:
        """Pivot the basis inverse on ``leave_row``, where ``d`` = B⁻¹ a_j.

        Divides the pivot row by the pivot and subtracts d times it from
        every other row, only where d and the pivot row are nonzero, or in
        full when that block exceeds 1/_FULL_UPDATE_RATIO of the matrix.
        Either path gives each updated entry as b - d_i * row_c, rounded
        once per operation, up to the sign of a zero that no comparison
        sees. ``d`` is clobbered. Each chunk's products and indices hold at
        most _UPDATE_ROWS * n_rows entries. They and the flat view of the
        inverse die with this call, so no refactorization finds the old
        inverse still referenced.
        """
        n = self.n_rows
        row = self.b_inv[leave_row] / d[leave_row]
        self.b_inv[leave_row] = row
        d[leave_row] = 0.0  # the pivot row keeps its divided values
        ri = np.flatnonzero(d)
        ci = np.flatnonzero(row)
        if _FULL_UPDATE_RATIO * ri.size * ci.size > n * n:
            # einsum's outer-product kernel takes about half the time of
            # np.multiply.outer on large blocks; a zero product may come out +0
            for s in range(0, n, _UPDATE_ROWS):
                part = slice(s, s + _UPDATE_ROWS)
                self.b_inv[part] -= np.einsum("i,j->ij", d[part], row)
            self.b_inv[leave_row] = row
            return
        # subtract the block's products in place at flat indices r * n + c,
        # a chunk of rows at a time; ufunc.at takes its fast path only with
        # 1-D indices (9 times faster)
        flat = self.b_inv.reshape(-1)
        row_c = row[ci]
        chunk = max(1, _UPDATE_ROWS * n // ci.size)
        for s in range(0, ri.size, chunk):
            rows = ri[s : s + chunk]
            at = (rows[:, None] * n + ci).ravel()
            np.subtract.at(flat, at, np.multiply.outer(d[rows], row_c).ravel())

    def run(self, cost: np.ndarray) -> None:
        n = self.n_rows
        max_iter = 200 + 100 * (n + self.n_cols)
        degenerate_run = 0
        bland = False
        sign, basic = self.sign, self.basic
        # a fixed column (upper bound 0) never enters
        fixed = self.upper <= 0
        sign[fixed] = 0.0
        # cost and upper bound of the basic variables, by row
        cost_b, upper_b = cost[basic], self.upper[basic]

        for _ in range(max_iter):
            self.iterations += 1
            y_dual = cost_b @ self.b_inv
            # each column's terms summed in ascending row order, as the
            # single-thread dense product does; in place, a temporary less per pivot
            terms = y_dual[self.nz_row]
            terms *= self.nz_val
            viol = cost - np.bincount(self.nz_col, weights=terms, minlength=self.n_cols)
            viol *= sign

            if bland:
                j = int(np.argmax(viol > EPS_OPT))
            else:
                j = int(np.argmax(viol))
            if viol[j] <= EPS_OPT:
                if self._moved:
                    self._refactorize()
                return

            nz = slice(self.col_start[j], self.col_start[j + 1])
            a_j = np.zeros(n)
            a_j[self.nz_row[nz]] = self.nz_val[nz]
            d = self.b_inv @ a_j
            sigma = -sign[j]
            dd = d * sigma

            # ratio test: how far can the entering variable move before a
            # basic variable hits one of its bounds (an infinite upper bound
            # gives an infinite ratio)
            t_rows = np.full(n, np.inf)
            np.divide(self.x_b, dd, out=t_rows, where=dd > _PIVOT_TOL)
            np.divide(self.x_b - upper_b, dd, out=t_rows, where=dd < -_PIVOT_TOL)
            t_rows = np.maximum(t_rows, 0.0)

            t_bound = self.upper[j]
            t_min = float(t_rows.min())
            if t_min < t_bound - 1e-12:
                # leaving-variable ties break toward the smallest column id
                cand = np.flatnonzero(t_rows <= t_min + 1e-12)
                leave_row = int(cand[np.argmin(basic[cand])])
                hit_lower = bool(dd[leave_row] > 0)
                t_best = float(t_rows[leave_row])
            else:
                leave_row = -1
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

            self.x_b -= dd * step
            self._moved = True
            if leave_row < 0:
                # bound flip: the entering variable crosses to its other bound
                sign[j] = -sign[j]
                continue

            leaving = basic[leave_row]
            self.x_b[leave_row] = step if sigma > 0 else self.upper[j] - step
            sign[leaving] = 0.0 if fixed[leaving] else (-1.0 if hit_lower else 1.0)
            sign[j] = 0.0
            basic[leave_row] = j
            cost_b[leave_row] = cost[j]
            upper_b[leave_row] = self.upper[j]

            if abs(d[leave_row]) < _PIVOT_TOL:
                raise LpError("numerically singular pivot")
            self._update_inverse(leave_row, d)

            self._since_refactor += 1
            if self._since_refactor >= _REFACTOR_EVERY:
                self._refactorize()

        raise LpError("iteration limit")


def solve_lp(lp: SparseLp) -> LpSolution:
    """``_simplex``'s result, once its point is checked against the model.

    The point must meet every row and bound within ``EPS_FEAS``; a
    violation means the engine misbehaved and raises ``LpError``, which
    names the first violated row by its index.
    """
    values, objective, iters = _simplex(lp)
    lhs = np.bincount(lp.rows, weights=lp.vals * values[lp.cols], minlength=lp.n_rows)
    residual = lhs - lp.rhs
    equality = np.array(lp.senses) == "E"
    bad = np.flatnonzero(np.where(equality, np.abs(residual), residual) > EPS_FEAS)
    if bad.size:
        i = int(bad[0])
        raise LpError(f"residual {residual[i]:.2e} on row {i}")
    if np.any(values < -EPS_FEAS) or np.any(values > lp.upper + EPS_FEAS):
        raise LpError("variable bound violated")
    return LpSolution(values, objective, iters)


def build_lp(costs: np.ndarray, cuts: Sequence[tuple[frozenset[int], int]]) -> SparseLp:
    """The cut master: minimize costs * y over 0 <= y <= 1 and y(S) - s = b, s >= 0, per cut (S, b).

    Columns are y by edge id, then one surplus per cut; row i is cut i.
    """
    m, c = len(costs), len(cuts)
    cut_cols = [e for edges, _ in cuts for e in edges]
    cut_rows = [i for i, (edges, _) in enumerate(cuts) for _ in edges]
    # y columns first, then one surplus column per cut
    cols = np.concatenate([np.array(cut_cols, dtype=np.int64), m + np.arange(c)])
    rows = np.concatenate([np.array(cut_rows, dtype=np.int64), np.arange(c)])
    vals = np.concatenate([np.ones(len(cut_cols)), np.full(c, -1.0)])
    order = np.lexsort((rows, cols))
    return SparseLp(
        n_rows=c,
        cols=cols[order],
        rows=rows[order],
        vals=vals[order],
        senses=("E",) * c,
        rhs=np.array([float(b) for _, b in cuts]),
        upper=np.concatenate([np.ones(m), np.full(c, np.inf)]),
        objective=np.concatenate([costs, np.zeros(c)]),
    )


def relax(inst: RapInstance) -> Relaxation:
    """The relaxation of a balanced, feasible instance, by a loop of Hall cuts over y.

    The master (``build_lp``) minimizes c * y over 0 <= y <= 1 and the
    Hall cuts found so far, seeded with y(delta(v)) >= 1 at every node and
    y(delta(v) - f) >= 1 at both ends of each vulnerable f; ``solve_lp``
    solves it afresh each round. Separation runs one max-flow per scenario
    (the nominal one when nothing is vulnerable) with capacity y on E - f:
    a flow below n gives the violated cut of its minimum cut's source side
    (A, B). Cuts are kept once per (edge set, rhs), and the loop converges
    on a round that adds none. A round that takes the master past
    ``_MAX_MASTER_ROWS`` rows ends the loop unconverged; a seed master past
    it raises ``LpError``. An infeasible instance raises ``InstanceError``,
    and so does an unbalanced one (``check_feasible``, called once per loop).
    """
    if not check_feasible(inst):
        raise InstanceError("infeasible instance")
    g = inst.graph
    n, m = g.n_r, g.n_edges
    # node v < n is R node v, node n + t is T node t
    incident = [frozenset(adj) for adj in g.adj_r + g.adj_t]
    # each cut (edge set S, rhs b) stands for y(S) >= b, kept in order found
    cuts = dict.fromkeys((edges, 1) for edges in incident)
    for f in sorted(inst.vulnerable):
        r, t = g.edges[f]
        for v in (r, n + t):
            cuts.setdefault((incident[v] - {f}, 1))
    if len(cuts) > _MAX_MASTER_ROWS:
        raise LpError(f"relaxation master of {len(cuts)} rows passes {_MAX_MASTER_ROWS}")
    costs = np.asarray(inst.costs, dtype=float)
    pivots = 0
    while True:
        master = build_lp(costs, list(cuts))
        values, objective, iters = solve_lp(master)
        pivots += iters
        y = values[:m]
        found = len(cuts)
        for f in inst.scenarios:
            capacity = y.tolist()
            if f != NOMINAL_SCENARIO:
                capacity[f] = 0.0
            flow, side_r, side_t = max_flow_min_cut(g, capacity)
            if flow < n - EPS_FEAS:
                edges = frozenset(
                    e for e, (r, t) in enumerate(g.edges)
                    if e != f and r in side_r and t not in side_t
                )
                cuts.setdefault((edges, len(side_r) - len(side_t)))
        if len(cuts) == found or len(cuts) > _MAX_MASTER_ROWS:
            return Relaxation(
                master, tuple(y.tolist()), _LazyBlocks(inst, y), objective, pivots,
                converged=len(cuts) == found,
            )


def _block_lp(inst: RapInstance, y: np.ndarray, f: int) -> SparseLp:
    """The min-cost fractional perfect matching of E - f under 0 <= x <= y.

    One degree equality per node (R nodes, then T nodes) and one column per
    edge, with x_f's upper bound 0. Tie-break: the columns are laid out in
    descending edge id, so where ``_simplex``'s first-index rule breaks a
    tie among equally priced columns, the later edge id wins.
    """
    g = inst.graph
    n, m = g.n_r, g.n_edges
    ids = np.arange(m)[::-1]  # column j holds edge ids[j]
    ends = np.array(g.edges, dtype=np.int64).reshape(m, 2)[ids]
    upper = y[ids]
    if f != NOMINAL_SCENARIO:
        upper[m - 1 - f] = 0.0
    return SparseLp(
        n_rows=2 * n,
        cols=np.repeat(np.arange(m), 2),
        rows=np.stack([ends[:, 0], n + ends[:, 1]], axis=1).ravel(),
        vals=np.ones(2 * m),
        senses=("E",) * (2 * n),
        rhs=np.ones(2 * n),
        upper=upper,
        objective=np.asarray(inst.costs, dtype=float)[ids],
    )


class _LazyBlocks(Mapping[int, tuple[float, ...]]):
    """The x blocks of a ``Relaxation``, each solved by ``_block_lp`` on first use.

    Keys are ``inst.scenarios``. A solved block is kept, so every reader of
    the record shares it.
    """

    def __init__(self, inst: RapInstance, y: np.ndarray):
        self._inst, self._y = inst, y
        self._solved: dict[int, tuple[float, ...]] = {}

    def __getitem__(self, f: int) -> tuple[float, ...]:
        if f not in self._solved:
            if f not in self._inst.scenarios:
                raise KeyError(f)
            values = solve_lp(_block_lp(self._inst, self._y, f)).values
            self._solved[f] = tuple(values[::-1].tolist())  # back in edge id order
        return self._solved[f]

    def __iter__(self):
        return iter(self._inst.scenarios)

    def __len__(self) -> int:
        return len(self._inst.scenarios)


def dump_lp(lp: SparseLp) -> str:
    """A cut master (``build_lp``) in the common textual LP interchange format.

    Variables are y_e per edge and s_i, the surplus of row cut_i; the rows
    keep the master's order, which in ``Relaxation.master`` is the order the
    cuts were found in. Starts no solve.
    """
    m = lp.n_vars - lp.n_rows
    names = [f"y_{e}" for e in range(m)] + [f"s_{i}" for i in range(lp.n_rows)]

    def term(coef: float, name: str, first: bool) -> str:
        sign = "- " if coef < 0 else ("" if first else "+ ")
        mag = abs(coef)
        coef_s = "" if mag == 1.0 else f"{mag:g} "
        return f"{sign}{coef_s}{name}"

    lines = ["Minimize"]
    obj_terms: list[str] = []
    for j in np.flatnonzero(lp.objective):
        obj_terms.append(term(float(lp.objective[j]), names[j], not obj_terms))
    lines.append(" obj: " + (" ".join(obj_terms) or "0"))
    lines.append("Subject To")
    terms: list[list[str]] = [[] for _ in range(lp.n_rows)]
    # each row's terms in ascending column order
    for p in np.lexsort((lp.cols, lp.rows)):
        row = terms[lp.rows[p]]
        row.append(term(float(lp.vals[p]), names[lp.cols[p]], not row))
    for i in range(lp.n_rows):
        lines.append(f" cut_{i}: {' '.join(terms[i])} = {lp.rhs[i]:g}")
    lines.append("Bounds")
    lines += [f" 0 <= {name} <= 1" for name in names[:m]]
    lines += [f" {name} >= 0" for name in names[m:]]
    lines.append("End")
    return "\n".join(lines) + "\n"
