"""Randomized LP rounding for robust assignment.

The solver relaxes the problem, then repeatedly picks an uncovered
vulnerable edge f, samples a perfect matching avoiding f from the Birkhoff
decomposition of the f-block of the fractional optimum, and keeps the
sampled edges that merge distinct connected components of the current
selection. An unbalanced instance is first completed with zero-cost dummy
edges, and a non-uniform one uniformized (parallel copies for invulnerable
edges); the result is mapped back to the completion, pruned and verified
there, and returned in the caller's edge ids.

The relaxation is ``lp.relax``'s record: y from the cut model, and each
f-block solved the first time the loop visits f, as a min-cost fractional
perfect matching of E - f below y. A plan keeps the record and its solved
blocks, so the seeds that round one plan share them.

The loop invariant, checked on every iteration on the oracle analysis
(``instance._scan``) that finds the next f, is that every edge-bearing
component of the selection is matching-covered. The components are read
off that analysis: under the invariant they are its parts
(``PairAnalysis.same_part``, ``n_parts``), the unmatched nodes included.

On multigraphs, when the selected f is an isolated edge and the sampled
matching covers f's ends with an edge parallel to f, that edge merges
nothing yet must be kept, or f would never become covered. The parallel
pair forms its own two-node component, which is matching-covered, so the
invariant is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from rapkit.decompose import birkhoff_decompose, sample
from rapkit.graph_core import PairAnalysis
from rapkit.instance import (
    NOMINAL_SCENARIO,
    InstanceMapping,
    RapInstance,
    Solution,
    _scan,
    balanced_completion,
    prune_to_minimal,
    solution_for,
    uniformize,
    verify_solution,
)
from rapkit import lp


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
    """Reusable per-instance state: the (possibly uniformized) relaxation.

    Building a plan once lets many seeds share the cut loop and the x
    blocks. ``completion`` is the balanced completion of ``original``, and
    ``mapping`` the uniformizing of that; either is the identity (nothing
    appended) when its step is not needed. ``relaxation`` is ``lp.relax``
    of ``work``, the instance the rounding runs on, and has converged: the
    cut model's y and last master, with x blocks solved on first read and
    kept.
    """

    original: RapInstance
    completion: InstanceMapping
    mapping: InstanceMapping
    relaxation: lp.Relaxation

    @property
    def work(self) -> RapInstance:
        return self.mapping.instance


def rounding_iteration(
    inst: RapInstance,
    pairs: PairAnalysis,
    blocks: Mapping[int, Sequence[float]],
    f: int,
    rng: np.random.Generator,
) -> tuple[frozenset[int], frozenset[int]]:
    """Sample a matching avoiding f and keep its component-merging edges.

    ``pairs`` is the oracle's analysis of the current selection. Under the
    loop invariant, a sampled edge (r, t) lies inside one component exactly
    when r and t lie in one part of ``pairs``, and f is an isolated edge
    exactly when it is the selection's only edge at its R node; a sampled
    edge parallel to it is then kept too (see the module note).
    ``blocks[f]`` is the relaxation's f-block. Returns the kept edges and
    the whole sampled matching.
    """
    g = inst.graph
    avoid = None if f == NOMINAL_SCENARIO else f
    matched = sample(birkhoff_decompose(g, avoid, blocks[f]), rng)

    rescue_pair = None
    if avoid is not None and pairs.edges_at(g.edges[f][0]) == [f]:
        rescue_pair = g.edges[f]
    delta = set()
    for e in matched.edge_ids:
        r, t = g.edges[e]
        if not pairs.same_part(r, t) or (r, t) == rescue_pair:
            delta.add(e)
    return frozenset(delta), matched.edge_ids


def prepare(inst: RapInstance) -> RoundPlan:
    """Complete and uniformize ``inst`` if needed, and solve the relaxation once.

    Raises ``LpError`` when the relaxation's cut loop stops at its row cap,
    since a capped y can leave a block infeasible.
    """
    completion = balanced_completion(inst)
    work = completion.instance
    mapping = uniformize(work) if work.vulnerable and not work.uniform else InstanceMapping(work)
    relaxation = lp.relax(mapping.instance)
    if not relaxation.converged:
        raise lp.LpError(
            f"relaxation master passed {lp._MAX_MASTER_ROWS} rows before its cuts converged"
        )
    return RoundPlan(inst, completion, mapping, relaxation)


def solve_lp_round(
    inst: RapInstance,
    seed: int = 0,
    plan: RoundPlan | None = None,
) -> tuple[Solution, RoundTrace]:
    """Round the relaxation to a feasible solution, then prune it minimal.

    ``plan`` carries the relaxation so repeated seeds skip the cut
    loop and reuse the blocks already solved. Every iteration checks the
    loop invariant and that it covered its scenario, and raises
    ``AssertionError`` if not.
    """
    if plan is None or plan.original is not inst:
        plan = prepare(inst)
    work, blocks = plan.work, plan.relaxation.x
    g = work.graph
    rng = np.random.default_rng(seed)

    x_set: frozenset[int] = frozenset()
    records: list[IterationRecord] = []
    pairs, f = _scan(work, x_set)
    n_comps = pairs.n_parts()
    while f is not None:
        if len(records) >= g.n_edges:
            raise RuntimeError("rounding exceeded its iteration bound")
        delta, sampled = rounding_iteration(work, pairs, blocks, f, rng)
        x_set = x_set | delta
        pairs, next_f = _scan(work, x_set)
        # every edge-bearing component is matching-covered exactly when
        # every selected edge is allowed
        if not x_set <= pairs.allowed:
            raise AssertionError(f"edges {sorted(x_set - pairs.allowed)} break the invariant")
        before, n_comps = n_comps, pairs.n_parts()
        records.append(IterationRecord(f, sampled, delta, before, n_comps))
        # scenarios up to f were covered; adding edges keeps them so
        if next_f is not None and next_f <= f:
            raise AssertionError(f"scenario {f} still uncovered")
        f = next_f

    balanced = plan.completion.instance
    pruned = prune_to_minimal(balanced, solution_for(balanced, plan.mapping.decode(x_set)))
    verify_solution(balanced, pruned)
    return solution_for(inst, plan.completion.decode(pruned.edge_ids)), RoundTrace(tuple(records))


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

