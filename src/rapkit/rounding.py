"""Randomized LP rounding for robust assignment.

The solver relaxes the problem, then repeatedly picks an uncovered
vulnerable edge f, samples a perfect matching avoiding f from the Birkhoff
decomposition of the f-block of the fractional optimum, and keeps the
sampled edges that merge distinct connected components of the current
selection. Non-uniform instances are first uniformized (parallel copies for
invulnerable edges) and the result is mapped back and pruned.

One corner case needs care on multigraphs: when the selected f is an
isolated edge of the current selection and the sampled matching covers f's
endpoints with an edge parallel to f, that edge merges nothing yet must be
kept, otherwise f would never become covered. The parallel pair then forms
its own two-node component, which is matching-covered, so the loop
invariant is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rapkit.decompose import birkhoff_decompose, sample
from rapkit.graph_core import components, matching_covered_components
from rapkit.instance import (
    NOMINAL_SCENARIO,
    InstanceError,
    InstanceMapping,
    RapInstance,
    Solution,
    first_failing_scenario,
    prune_to_minimal,
    solution_for,
    uniformize,
    verify_solution,
)
from rapkit.lp import FractionalSolution, RapLp, build_lp, solve_lp

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

    Building a plan once lets many seeds share the LP solve.
    """

    original: RapInstance
    mapping: InstanceMapping | None
    work: RapInstance
    lp: RapLp
    fractional: FractionalSolution


def _uncovered_fast(inst: RapInstance, x_set: frozenset[int]) -> int | None:
    """Uncovered test relying on the loop invariant.

    When every edge-bearing component of the selection is matching-covered,
    a vulnerable edge is uncovered exactly when some node is still isolated
    (then nothing is covered) or when the edge is alone in its component.
    """
    if not inst.vulnerable:
        return None
    lowest = min(inst.vulnerable)
    comps = components(inst.graph, x_set)
    candidates = []
    for r_nodes, t_nodes, edge_ids in comps:
        if len(r_nodes) + len(t_nodes) == 1:
            return lowest
        if len(edge_ids) == 1:
            (e,) = edge_ids
            if e in inst.vulnerable:
                candidates.append(e)
    return min(candidates, default=None)


def uncovered_vulnerable_edge(
    inst: RapInstance, x_set: frozenset[int], debug: bool = False
) -> int | None:
    """Lowest-id vulnerable edge f with no perfect matching in x_set minus f.

    Uses the structural fast path, which is valid whenever every
    edge-bearing component of the selection is matching-covered (always
    true inside the rounding loop). ``debug`` re-runs the general
    feasibility oracle and checks agreement.
    """
    fast = _uncovered_fast(inst, x_set)
    if debug and inst.vulnerable:
        direct = first_failing_scenario(inst, x_set)
        if fast != direct:
            raise AssertionError(
                f"fast uncovered test gave {fast}, oracle gave {direct}"
            )
    return fast


def rounding_iteration(
    inst: RapInstance,
    x_set: frozenset[int],
    frac: FractionalSolution,
    f: int,
    rng: np.random.Generator,
) -> tuple[frozenset[int], frozenset[int]]:
    """Sample a matching avoiding f and keep its component-merging edges.

    Components are those of (nodes, x_set), fixed for the whole scan. A
    sampled edge parallel to an isolated-edge f is kept as well (see the
    module note); everything else inside a single component is dropped.
    Returns the kept edges and the whole sampled matching.
    """
    g = inst.graph
    avoid = None if f == NOMINAL_SCENARIO else f
    values = [0.0 if v < TRUNCATE_EPS else v for v in frac.x[f]]
    combination = birkhoff_decompose(g, avoid, values)
    matched = sample(combination, rng)

    comps = components(g, x_set)
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
    """Uniformize if needed and solve the relaxation once."""
    if not inst.graph.balanced:
        raise InstanceError("apply balanced_completion first")
    mapping: InstanceMapping | None = None
    work = inst
    if inst.vulnerable and not inst.uniform:
        mapping = uniformize(inst)
        work = mapping.instance
    lp = build_lp(work)
    frac = solve_lp(lp)
    return RoundPlan(
        original=inst, mapping=mapping, work=work, lp=lp, fractional=frac
    )


def _assert_covered_components(inst: RapInstance, x_set: frozenset[int]) -> None:
    for comp in matching_covered_components(inst.graph, x_set):
        if comp.edge_ids and not comp.matching_covered:
            raise AssertionError(
                f"component with edges {sorted(comp.edge_ids)} is not matching-covered"
            )


def solve_lp_round(
    inst: RapInstance,
    seed: int = 0,
    plan: RoundPlan | None = None,
    debug: bool = False,
) -> tuple[Solution, RoundTrace]:
    """Round the relaxation to a feasible solution, then prune it minimal.

    ``plan`` carries the fractional optimum so repeated seeds skip the LP
    solve. ``debug`` re-verifies the covered test and the matching-covered
    component invariant after every iteration.
    """
    if plan is None or plan.original is not inst:
        plan = prepare(inst)
    work, frac = plan.work, plan.fractional
    rng = np.random.default_rng(seed)
    m = work.graph.n_edges

    x_set: frozenset[int] = frozenset()
    records: list[IterationRecord] = []

    def next_scenario(xs: frozenset[int]) -> int | None:
        if not work.vulnerable:
            # nothing is vulnerable: done once the selection holds a matching
            return first_failing_scenario(work, xs)
        return uncovered_vulnerable_edge(work, xs, debug=debug)

    while (f := next_scenario(x_set)) is not None:
        if len(records) >= m:
            raise RuntimeError("rounding exceeded its iteration bound")
        before = len(components(work.graph, x_set))
        delta, sampled = rounding_iteration(work, x_set, frac, f, rng)
        x_set = x_set | delta
        records.append(
            IterationRecord(
                scenario=f,
                sampled=sampled,
                added=delta,
                components_before=before,
                components_after=len(components(work.graph, x_set)),
            )
        )
        if debug:
            _assert_covered_components(work, x_set)
            # scenarios up to f were covered before; adding edges keeps them so
            still = first_failing_scenario(work, x_set)
            if still is not None and still <= f:
                raise AssertionError(f"scenario {f} still uncovered after its iteration")

    decoded = plan.mapping.decode(x_set) if plan.mapping is not None else x_set
    pruned = prune_to_minimal(inst, solution_for(inst, decoded))
    verify_solution(inst, pruned)
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

