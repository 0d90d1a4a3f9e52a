"""Randomized LP rounding for robust assignment.

The solver relaxes the problem, then repeatedly picks an uncovered
vulnerable edge f, samples a perfect matching avoiding f from the Birkhoff
decomposition of the f-block of the fractional optimum, and keeps the
sampled edges that merge distinct connected components of the current
selection. An unbalanced instance is first completed with zero-cost dummy
edges, and a non-uniform one uniformized (parallel copies for invulnerable
edges); the result is mapped back to the completion, pruned and verified
there, and returned in the caller's edge ids.

One corner case needs care on multigraphs: when the selected f is an
isolated edge of the current selection and the sampled matching covers f's
endpoints with an edge parallel to f, that edge merges nothing yet must be
kept, otherwise f would never become covered. The parallel pair then forms
its own two-node component, which is matching-covered, so the loop
invariant (every edge-bearing component of the selection matching-covered)
is unaffected. The invariant is checked on every iteration, on the same
oracle analysis (``instance._scan``) that finds the next f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rapkit.decompose import birkhoff_decompose, sample
from rapkit.graph_core import components
from rapkit.instance import (
    NOMINAL_SCENARIO,
    InstanceMapping,
    RapInstance,
    Solution,
    _completed,
    _scan,
    prune_to_minimal,
    solution_for,
    uniformize,
    verify_solution,
)
from rapkit.lp import FractionalSolution, build_lp, solve_lp

TRUNCATE_EPS = 1e-9


@dataclass(frozen=True)
class IterationRecord:
    scenario: int
    sampled: frozenset[int]
    added: frozenset[int]
    components_before: int
    components_after: int


@dataclass(frozen=True)
class RoundTrace:
    records: tuple[IterationRecord, ...]

    @property
    def iterations(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RoundPlan:
    """Reusable per-instance state: the (possibly uniformized) LP optimum.

    Building a plan once lets many seeds share the LP solve. ``completion``
    is the balanced completion of ``original`` (None when it is balanced),
    and ``mapping`` the uniformizing of that (None when it is not needed).
    """

    original: RapInstance
    completion: InstanceMapping | None
    mapping: InstanceMapping | None
    work: RapInstance
    fractional: FractionalSolution


def rounding_iteration(
    inst: RapInstance,
    x_set: frozenset[int],
    comps: list[tuple[frozenset[int], frozenset[int], frozenset[int]]],
    frac: FractionalSolution,
    f: int,
    rng: np.random.Generator,
) -> tuple[frozenset[int], frozenset[int]]:
    """Sample a matching avoiding f and keep its component-merging edges.

    ``comps`` are ``components(g, x_set)``, fixed for the whole scan. A
    sampled edge parallel to an isolated-edge f is kept as well (see the
    module note); everything else inside a single component is dropped.
    Returns the kept edges and the whole sampled matching.
    """
    g = inst.graph
    avoid = None if f == NOMINAL_SCENARIO else f
    values = [0.0 if v < TRUNCATE_EPS else v for v in frac.x[f]]
    combination = birkhoff_decompose(g, avoid, values)
    matched = sample(combination, rng)

    comp_of_r = {r: i for i, (r_nodes, _, _) in enumerate(comps) for r in r_nodes}
    comp_of_t = {t: i for i, (_, t_nodes, _) in enumerate(comps) for t in t_nodes}
    rescue_pair: tuple[int, int] | None = None
    if avoid is not None and f in x_set:
        fr, ft = g.edges[f]
        # f is an isolated edge iff no other selected edge touches its ends
        alone = all(
            e == f or (g.edges[e][0] != fr and g.edges[e][1] != ft)
            for e in x_set
        )
        if alone:
            rescue_pair = (fr, ft)

    delta = set()
    for e in sorted(matched.edge_ids):
        r, t = g.edges[e]
        if comp_of_r[r] != comp_of_t[t]:
            delta.add(e)
        elif rescue_pair is not None and (r, t) == rescue_pair:
            delta.add(e)
    return frozenset(delta), matched.edge_ids


def prepare(inst: RapInstance) -> RoundPlan:
    """Complete and uniformize ``inst`` if needed, and solve the relaxation once."""
    completion, work = _completed(inst)
    mapping = uniformize(work) if work.vulnerable and not work.uniform else None
    if mapping is not None:
        work = mapping.instance
    frac = solve_lp(build_lp(work))
    return RoundPlan(inst, completion, mapping, work, frac)


def solve_lp_round(
    inst: RapInstance,
    seed: int = 0,
    plan: RoundPlan | None = None,
) -> tuple[Solution, RoundTrace]:
    """Round the relaxation to a feasible solution, then prune it minimal.

    ``plan`` carries the fractional optimum so repeated seeds skip the LP
    solve. Every iteration checks the loop invariant and that it covered its
    scenario, and raises ``AssertionError`` if not.
    """
    if plan is None or plan.original is not inst:
        plan = prepare(inst)
    work, frac = plan.work, plan.fractional
    g = work.graph
    rng = np.random.default_rng(seed)

    x_set: frozenset[int] = frozenset()
    comps = components(g, x_set)
    records: list[IterationRecord] = []
    f = _scan(work, x_set)[1]
    while f is not None:
        if len(records) >= g.n_edges:
            raise RuntimeError("rounding exceeded its iteration bound")
        delta, sampled = rounding_iteration(work, x_set, comps, frac, f, rng)
        x_set = x_set | delta
        before, comps = len(comps), components(g, x_set)
        records.append(
            IterationRecord(
                scenario=f,
                sampled=sampled,
                added=delta,
                components_before=before,
                components_after=len(comps),
            )
        )
        pairs, f = _scan(work, x_set)
        # every edge-bearing component is matching-covered exactly when
        # every selected edge is allowed
        if not x_set <= pairs.allowed:
            raise AssertionError(f"edges {sorted(x_set - pairs.allowed)} break the invariant")
        # scenarios up to the last one were covered; adding edges keeps them so
        if f is not None and f <= records[-1].scenario:
            raise AssertionError(f"scenario {records[-1].scenario} still uncovered")

    decoded = plan.mapping.decode(x_set) if plan.mapping is not None else x_set
    balanced = inst if plan.completion is None else plan.completion.instance
    pruned = prune_to_minimal(balanced, solution_for(balanced, decoded))
    verify_solution(balanced, pruned)
    if plan.completion is not None:
        pruned = solution_for(inst, plan.completion.decode(pruned.edge_ids))
    return pruned, RoundTrace(tuple(records))


def format_trace(trace: RoundTrace) -> str:
    """One line per iteration, stable and diff-friendly."""
    lines = []
    for i, rec in enumerate(trace.records, start=1):
        scen = "nominal" if rec.scenario == NOMINAL_SCENARIO else f"e{rec.scenario}"
        added = ",".join(map(str, sorted(rec.added))) or "-"
        lines.append(
            f"iter {i} scenario {scen} added {added} "
            f"components {rec.components_before}->{rec.components_after}"
        )
    return "\n".join(lines) + ("\n" if lines else "")

