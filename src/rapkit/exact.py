"""Exact optimum by branch and bound, plus combinatorial lower bounds.

The search branches on every original edge in descending cost order,
exclude branch first, and always keeps a balanced completion's dummy edges.
A child is pruned on its cost plus a per-node degree bound; only then is an
exclusion tested for robust feasibility, which is monotone in the edge set.
"""

from __future__ import annotations

import math
from typing import Optional

from .graph_core import PairAnalysis
from .instance import (
    InstanceError,
    RapInstance,
    Solution,
    _scan,
    _scan_without,
    balanced_completion,
    solution_for,
)
from .lp import LpError, relax

__all__ = ["ExactError", "lower_bounds", "solve_exact"]

# nodes visited x completed edges; 0.2-0.5 us each (2-core host), so a refusal takes seconds
_WORK_BUDGET = 10_000_000


class ExactError(RuntimeError):
    """The search spent its work budget; the instance is out of its reach."""


class _Degrees:
    """Per-node degree bound on the cost a decision state has yet to add.

    A robust set holds at each node one invulnerable edge or two edges (one
    edge when nothing is vulnerable), so an invulnerable edge weighs 2, a
    vulnerable one 1, and a node needs 2.  A node's undecided edges are a
    suffix of its list in search order, cheapest last.  ``needs[v]`` is the
    cheapest completion at v, None when v cannot be completed.
    """

    def __init__(self, inst: RapInstance, order: list[int], fixed: frozenset[int]):
        g = inst.graph
        nodes = range(g.n_r + g.n_t)
        self.n_r, self.costs = g.n_r, inst.costs
        self.ends = [(r, g.n_r + t) for r, t in g.edges]
        self.weight = [1 if e in inst.vulnerable else 2 for e in range(g.n_edges)]
        self.lists = [[e for e in order if v in self.ends[e]] for v in nodes]
        # position of each node's last (cheapest) invulnerable edge, -1 if none
        self.heavy = [
            max((i for i, e in enumerate(lst) if self.weight[e] == 2), default=-1)
            for lst in self.lists
        ]
        self.seen = [0] * len(nodes)
        self.held = [sum(self.weight[e] for e in fixed if v in self.ends[e]) for v in nodes]
        self.needs = [self._need(v) for v in nodes]

    def _need(self, v: int) -> Optional[float]:
        held, seen = self.held[v], self.seen[v]
        if held >= 2:
            return 0.0
        edges, costs = self.lists[v], self.costs
        # the cheapest undecided edge that meets the need alone: the last
        # one once v holds weight 1, else the last invulnerable one
        i = len(edges) - 1 if held else self.heavy[v]
        one = costs[edges[i]] if i >= seen else None
        if len(edges) - seen < 2:
            return one
        two = costs[edges[-1]] + costs[edges[-2]]
        return two if one is None else min(one, two)

    def move(self, e: int, seen: int, held: int) -> None:
        """Shift e's decided and held counts and rework its two ends' needs."""
        for v in self.ends[e]:
            self.seen[v] += seen
            self.held[v] += held * self.weight[e]
            self.needs[v] = self._need(v)

    def bound(self) -> Optional[float]:
        """The larger side's sum of needs, None when a node cannot be met."""
        if None in self.needs:
            return None
        return max(math.fsum(self.needs[: self.n_r]), math.fsum(self.needs[self.n_r :]))


def solve_exact(inst: RapInstance) -> Solution:
    """Provably cheapest feasible edge set.

    Among optima of equal cost (a set's ``math.fsum``) the lexicographically
    smallest set of original edge ids is returned, which keeps output
    stable.  Unbalanced instances are completed with zero-cost dummy edges
    that are always kept, never branched on and never returned.  A child is
    pruned, before the oracle tests an exclusion, when its cost plus the
    ``_Degrees`` bound exceeds the best cost by a relative 1e-9.  Each frame
    holds the pair analysis of its edge set, and an exclusion is tested on
    the child analysis ``_scan_without`` derives from it.  The search
    runs on an explicit stack, and raises ``ExactError`` once its nodes
    times the completed edge count pass ``_WORK_BUDGET``.
    """
    completion = balanced_completion(inst)
    work = completion.instance
    m = work.graph.n_edges
    pairs, failing = _scan(work, None)
    if failing is not None:
        raise InstanceError("infeasible instance")

    all_ids = frozenset(range(m))
    fixed = completion.always_include
    order = sorted(all_ids - fixed, key=lambda e: (-work.costs[e], e))
    degrees = _Degrees(work, order, fixed)

    best: Optional[tuple[float, tuple[int, ...]]] = None
    excluded: set[int] = set()

    # an edge outside a frame's allowed set lies in no perfect matching of
    # any subset, so a robust set holding it stays robust without it; when
    # its cost exceeds the spacing of floats at the cost total, no sum can
    # absorb it, the smaller set costs strictly less, and the include
    # branch holds no optimum (a zero-cost edge can tie and win on ids)
    spacing = math.ulp(math.fsum(work.costs))

    def pruned(cost: float) -> bool:
        bound = degrees.bound()
        return bound is None or (best is not None and cost + bound > best[0] * (1 + 1e-9))

    # (depth, cost, stage, pairs) frames, pairs the analysis of the frame's
    # edge set; a child's subtree ends before its parent's next stage
    work_done = 0
    stack: list[tuple[int, float, int, PairAnalysis]] = [(0, 0.0, 0, pairs)]
    while stack:
        depth, cost, stage, pairs = stack.pop()
        if stage == 0:
            work_done += m
            if work_done > _WORK_BUDGET:
                raise ExactError("instance too large for exact solver")
            if depth == len(order):
                ids = tuple(sorted(all_ids - fixed - excluded))
                best = min(best or (math.inf, ()), (work.cost_of(ids), ids))
                continue
            e = order[depth]
            degrees.move(e, 1, 0)
            excluded.add(e)
            stack.append((depth, cost, 1, pairs))
            if not pruned(cost):
                child, failing = _scan_without(work, pairs, e)
                if failing is None:
                    stack.append((depth + 1, cost, 0, child))
        elif stage == 1:
            e = order[depth]
            excluded.remove(e)
            degrees.move(e, 0, 1)
            stack.append((depth, cost, 2, pairs))
            if work.costs[e] > spacing and not pairs.same_part(*work.graph.edges[e]):
                continue
            if not pruned(cost + work.costs[e]):
                stack.append((depth + 1, cost + work.costs[e], 0, pairs))
        else:
            degrees.move(order[depth], -1, -1)
    assert best is not None
    return solution_for(inst, completion.decode(best[1]))


def lower_bounds(inst: RapInstance) -> float:
    """Best known lower bound on the optimal cost.

    Combines the counting bounds for unit costs (any solution contains a
    matching covering the smaller side; with every edge vulnerable each of
    those nodes needs two incident edges) with the value of the LP
    relaxation of ``inst``'s balanced completion: the ``objective`` of
    ``lp.relax``, which solves it over y alone with Hall cuts (a lower
    bound still when the loop stops at its row cap). An infeasible
    completion has no relaxation to add. When that solve raises
    ``LpError`` (say, a seed master past its row cap), the counting bound is
    returned if one applies; otherwise the error propagates.
    """
    work = balanced_completion(inst).instance
    n = min(inst.graph.n_r, inst.graph.n_t)
    bounds = []
    if inst.graph.n_edges > 0 and all(c == 1 for c in inst.costs):
        bounds.append(2.0 * n if inst.uniform else float(n))
    try:
        bounds.append(relax(work).objective)
    except InstanceError:
        pass  # work is infeasible
    except LpError:
        if not bounds:
            raise
    return max(bounds, default=0.0)
