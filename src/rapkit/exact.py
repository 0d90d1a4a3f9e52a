"""Exact optimum by branch and bound, plus combinatorial lower bounds.

The search branches on every edge in descending cost order, trying the
exclude branch first so that cheap solutions surface early.  Robust
feasibility is monotone in the edge set, which lets the exclude branch be
pruned as soon as the not-yet-excluded edges stop being feasible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .instance import (
    InstanceError,
    RapInstance,
    Solution,
    _completed,
    check_feasible,
    first_failing_scenario,
    solution_for,
)
from .lp import build_lp, solve_lp
from .rounding import RoundPlan

__all__ = ["BnbConfig", "ExactError", "lower_bounds", "solve_exact"]


class ExactError(RuntimeError):
    """Search guard tripped; the instance is out of the solver's reach."""


@dataclass(frozen=True)
class BnbConfig:
    """Safety rails for the exponential search."""

    max_edges: int = 26
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None


def solve_exact(inst: RapInstance, cfg: Optional[BnbConfig] = None) -> Solution:
    """Provably cheapest feasible edge set.

    Among equal-cost optima the lexicographically smallest edge id set is
    returned, which keeps output stable across runs.  Unbalanced instances
    are completed with zero-cost dummy edges internally; those never show
    up in the answer.
    """
    cfg = cfg or BnbConfig()
    mapping, work = _completed(inst)
    m = work.graph.n_edges
    if m > cfg.max_edges:
        raise ExactError("instance too large for exact solver")
    if not check_feasible(work):
        raise InstanceError("infeasible instance")

    all_ids = frozenset(range(m))
    order = sorted(range(m), key=lambda e: (-work.costs[e], e))

    deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
    nodes = 0
    best: Optional[tuple[float, tuple[int, ...]]] = None
    excluded: set[int] = set()

    def search(depth: int, cost: float) -> None:
        nonlocal nodes, best
        nodes += 1
        if cfg.node_limit is not None and nodes > cfg.node_limit:
            raise ExactError("instance too large for exact solver")
        if deadline is not None and time.monotonic() > deadline:
            raise ExactError("instance too large for exact solver")
        if best is not None and cost > best[0]:
            return
        if depth == m:
            key = (cost, tuple(sorted(all_ids - excluded)))
            if best is None or key < best:
                best = key
            return
        e = order[depth]
        excluded.add(e)
        if first_failing_scenario(work, all_ids - excluded) is None:
            search(depth + 1, cost)
        excluded.remove(e)
        search(depth + 1, cost + work.costs[e])

    search(0, 0.0)
    assert best is not None
    chosen = set(best[1])
    if mapping is not None:
        chosen = set(mapping.decode(chosen))
    return solution_for(inst, chosen)


def lower_bounds(inst: RapInstance, plan: Optional[RoundPlan] = None) -> float:
    """Best known lower bound on the optimal cost.

    Combines the counting bounds for unit costs (any solution contains a
    matching covering the smaller side; with every edge vulnerable each of
    those nodes needs two incident edges) with the LP relaxation value.
    ``plan``, prepared from the balanced completion of ``inst``, lends its
    relaxation value when it solved the same model (it did not uniformize);
    otherwise the relaxation is solved here.
    """
    _, work = _completed(inst)
    n = min(inst.graph.n_r, inst.graph.n_t)
    bounds = [0.0]
    unit = inst.graph.n_edges > 0 and all(c == 1 for c in inst.costs)
    if unit:
        bounds.append(float(n))
        if inst.uniform:
            bounds.append(2.0 * n)
    if plan is not None and plan.mapping is None:
        bounds.append(plan.fractional.objective)
    elif check_feasible(work):
        bounds.append(solve_lp(build_lp(work)).objective)
    return max(bounds)
