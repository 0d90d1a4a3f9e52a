"""Problem instances, solution verification, pruning, and transformations.

An instance couples a balanced or unbalanced bipartite multigraph with a set
of vulnerable edge ids and non-negative per-edge costs. An edge set X is
feasible when, for every vulnerable edge f, X minus f still contains a
perfect matching (and X itself contains one when no edge is vulnerable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from rapkit.graph_core import (
    BipartiteMultigraph,
    GraphError,
    PairAnalysis,
    max_matching,
)

# certificate key used for the plain perfect-matching requirement when the
# vulnerable set is empty
NOMINAL_SCENARIO = -1


class InstanceError(ValueError):
    """Malformed instance data or a violated operation precondition."""


class InfeasibleSolutionError(ValueError):
    """A solution fails verification; ``scenario`` names the failing edge."""

    def __init__(self, message: str, scenario: int | None = None):
        super().__init__(message)
        self.scenario = scenario


@dataclass(frozen=True)
class RapInstance:
    graph: BipartiteMultigraph
    vulnerable: frozenset[int]
    costs: tuple[float, ...]

    def __post_init__(self):
        m = self.graph.n_edges
        if len(self.costs) != m:
            raise InstanceError("one cost per edge required")
        for eid in self.vulnerable:
            if not (0 <= eid < m):
                raise InstanceError(f"vulnerable id {eid} is not an edge")
        if not all(math.isfinite(c) for c in self.costs):
            raise InstanceError("costs must be finite")
        if any(c < 0 for c in self.costs):
            raise InstanceError("costs must be non-negative")

    @property
    def uniform(self) -> bool:
        return self.vulnerable == frozenset(self.graph.edge_ids())

    def cost_of(self, edge_ids: Iterable[int]) -> float:
        # exactly rounded, so the cost does not depend on the iteration order
        return math.fsum(self.costs[e] for e in edge_ids)


def make_instance(
    n_r: int,
    n_t: int,
    edges: Iterable[tuple[int, int]],
    vulnerable: Iterable[int],
    costs: Iterable[float],
) -> RapInstance:
    return RapInstance(
        BipartiteMultigraph(n_r, n_t, edges),
        frozenset(vulnerable),
        tuple(float(c) for c in costs),
    )


def uniform_instance(
    n_r: int, n_t: int, edges: Iterable[tuple[int, int]], costs: Iterable[float] | None = None
) -> RapInstance:
    g = BipartiteMultigraph(n_r, n_t, edges)
    cs = tuple(1.0 for _ in g.edges) if costs is None else tuple(map(float, costs))
    return RapInstance(g, frozenset(g.edge_ids()), cs)


@dataclass(frozen=True)
class Solution:
    edge_ids: frozenset[int]
    cost: float

    def __len__(self) -> int:
        return len(self.edge_ids)


def solution_for(inst: RapInstance, edge_ids: Iterable[int]) -> Solution:
    ids = frozenset(edge_ids)
    for e in ids:
        if not (0 <= e < inst.graph.n_edges):
            raise InstanceError(f"solution id {e} is not an edge")
    return Solution(ids, inst.cost_of(ids))


@dataclass(frozen=True)
class Certificate:
    """One perfect matching per vulnerable edge, avoiding that edge.

    When the instance has no vulnerable edges the single required matching
    is stored under ``NOMINAL_SCENARIO``.
    """

    matchings: Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class InstanceMapping:
    """An instance transformation with data-driven solution translation.

    ``encode_map`` sends each original edge id to the new ids standing in
    for it; ``always_include`` lists new ids every encoded solution must
    carry; ``decode_map`` sends new ids back to original ids (ids with no
    original counterpart are absent and drop out on decode).
    """

    instance: RapInstance
    encode_map: Mapping[int, tuple[int, ...]]
    decode_map: Mapping[int, int]
    always_include: frozenset[int] = frozenset()
    swapped_sides: bool = False

    def encode(self, edge_ids: Iterable[int]) -> frozenset[int]:
        out = set(self.always_include)
        for e in edge_ids:
            out.update(self.encode_map[e])
        return frozenset(out)

    def decode(self, edge_ids: Iterable[int]) -> frozenset[int]:
        return frozenset(
            self.decode_map[e] for e in edge_ids if e in self.decode_map
        )


def _require_balanced(inst: RapInstance) -> None:
    if not inst.graph.balanced:
        raise InstanceError("apply balanced_completion first")


def check_feasible(inst: RapInstance) -> bool:
    """Whether the full edge set is feasible for every single-edge scenario."""
    return first_failing_scenario(inst) is None


def _scan(inst: RapInstance, active: Iterable[int] | None) -> tuple[PairAnalysis, int | None]:
    """Pair analysis of ``active`` and its lowest failing scenario.

    ``first_failing_scenario`` states the rule.
    """
    g = inst.graph
    pairs = PairAnalysis(g, active)
    pm = pairs.matching
    if not pm.perfect:
        return pairs, min(inst.vulnerable, default=NOMINAL_SCENARIO)
    spare = {g.edges[e][0] for e in pairs.allowed - pm.edge_ids}
    at_risk = pm.edge_ids & inst.vulnerable
    return pairs, min((f for f in at_risk if g.edges[f][0] not in spare), default=None)


def first_failing_scenario(
    inst: RapInstance, active: Iterable[int] | None = None
) -> int | None:
    """Lowest scenario under which the edge set X = ``active`` fails, or None.

    ``active`` defaults to every edge. With nothing vulnerable the answer is
    ``NOMINAL_SCENARIO`` when X has no perfect matching. Otherwise, given one
    perfect matching M of X, f fails exactly when f is in M and no other
    edge of X at f's R node lies in a perfect matching (the mandatory-edge
    characterization: Lovasz-Plummer, *Matching Theory*; Tassa, TCS 2012).
    """
    _require_balanced(inst)
    act = frozenset(inst.graph.edge_ids() if active is None else active)
    if act and (min(act) < 0 or max(act) >= inst.graph.n_edges):
        raise InstanceError("active ids must be edges")
    return _scan(inst, act)[1]


def _cycle_swap(pairs: PairAnalysis, f: int) -> frozenset[int] | None:
    """The analysis' matching swapped along an alternating cycle through f."""
    pm, edges = pairs.matching, pairs.graph.edges
    cycle = pairs.alternating_path(pm.match_t, edges[f][0], edges[f][0])
    if cycle is None:
        return None
    return (pm.edge_ids - {pm.match_r[edges[e][0]] for e in cycle}) | set(cycle)


def verify_solution(inst: RapInstance, x: Solution) -> Certificate:
    """Check robust feasibility of ``x`` and return per-scenario witnesses.

    A scenario outside the oracle's perfect matching M is witnessed by M,
    one inside M by M swapped along an alternating cycle through it. Each
    witness is checked directly, and a failing scenario is confirmed by a
    direct matching on ``x`` minus that edge, before either is reported.
    """
    _require_balanced(inst)
    g = inst.graph
    ids = x.edge_ids
    for e in ids:
        if not (0 <= e < g.n_edges):
            raise InstanceError(f"solution id {e} is not an edge")
    pairs, failing = _scan(inst, ids)
    if failing is not None:
        if max_matching(g, frozenset(g.edge_ids()).difference(ids - {failing})).perfect:
            raise AssertionError(f"scenario {failing} reported failing but survives")
        if failing == NOMINAL_SCENARIO:
            raise InfeasibleSolutionError(
                "infeasible: no perfect matching in solution", NOMINAL_SCENARIO
            )
        raise InfeasibleSolutionError(f"infeasible at scenario e{failing}", failing)
    pm = pairs.matching.edge_ids
    matchings = {
        f: _cycle_swap(pairs, f) if f in pm else pm for f in sorted(inst.vulnerable)
    } or {NOMINAL_SCENARIO: pm}
    for f, w in matchings.items():
        ends = [g.edges[e] for e in w or ()]
        perfect = len({r for r, _ in ends}) == len({t for _, t in ends}) == len(ends) == g.n_r
        if w is None or f in w or not w <= ids or not perfect:
            raise AssertionError(f"no valid witness for scenario {f}")
    return Certificate(matchings)


def is_feasible_set(inst: RapInstance, edge_ids: Iterable[int]) -> bool:
    """Feasibility of an arbitrary edge set, without building a certificate."""
    return first_failing_scenario(inst, solution_for(inst, edge_ids).edge_ids) is None


def prune_to_minimal(inst: RapInstance, x: Solution) -> Solution:
    """Shrink a feasible solution until no single edge can be dropped.

    Edges are tried in descending cost, ties broken by descending id; an
    edge is dropped when the edges left without it are still feasible.
    """
    verify_solution(inst, x)
    current = set(x.edge_ids)
    for e in sorted(current, key=lambda e: (-inst.costs[e], -e)):
        if first_failing_scenario(inst, current - {e}) is None:
            current.discard(e)
    return solution_for(inst, current)


def balanced_completion(inst: RapInstance) -> InstanceMapping:
    """Equalize the sides with dummy nodes joined to all of the larger side.

    If T is the larger side the two sides are swapped first (edge ids are
    unchanged by the swap). Dummy edges have zero cost, are invulnerable,
    and are appended after the original edges. Decoding drops them.
    """
    g = inst.graph
    swapped = g.n_t > g.n_r
    if swapped:
        n_r, n_t = g.n_t, g.n_r
        base_edges = [(t, r) for (r, t) in g.edges]
    else:
        n_r, n_t = g.n_r, g.n_t
        base_edges = list(g.edges)
    deficit = n_r - n_t
    edges = list(base_edges)
    costs = list(inst.costs)
    for j in range(deficit):
        for r in range(n_r):
            edges.append((r, n_t + j))
            costs.append(0.0)
    new_inst = RapInstance(
        BipartiteMultigraph(n_r, n_t + deficit, edges),
        inst.vulnerable,
        tuple(costs),
    )
    m = g.n_edges
    dummy_ids = frozenset(range(m, len(edges)))
    return InstanceMapping(
        instance=new_inst,
        encode_map={e: (e,) for e in range(m)},
        decode_map={e: e for e in range(m)},
        always_include=dummy_ids,
        swapped_sides=swapped,
    )


def _completed(inst: RapInstance) -> tuple[InstanceMapping | None, RapInstance]:
    """The balanced completion's mapping and instance; ``None, inst`` if balanced."""
    if inst.graph.balanced:
        return None, inst
    mapping = balanced_completion(inst)
    return mapping, mapping.instance


def uniformize(inst: RapInstance) -> InstanceMapping:
    """Make every edge vulnerable by doubling the invulnerable ones.

    Each invulnerable edge e gains a parallel copy with the same cost; the
    new vulnerable set is the whole edge list. Encoding a solution adds the
    copy of each of its invulnerable edges (at most doubling its cost);
    decoding maps each copy back to its original edge id.
    """
    _require_balanced(inst)
    g = inst.graph
    m = g.n_edges
    edges = list(g.edges)
    costs = list(inst.costs)
    encode_map: dict[int, tuple[int, ...]] = {}
    decode_map: dict[int, int] = {e: e for e in range(m)}
    for e in range(m):
        if e in inst.vulnerable:
            encode_map[e] = (e,)
        else:
            copy_id = len(edges)
            edges.append(g.edges[e])
            costs.append(inst.costs[e])
            encode_map[e] = (e, copy_id)
            decode_map[copy_id] = e
    new_inst = RapInstance(
        BipartiteMultigraph(g.n_r, g.n_t, edges),
        frozenset(range(len(edges))),
        tuple(costs),
    )
    return InstanceMapping(
        instance=new_inst,
        encode_map=encode_map,
        decode_map=decode_map,
    )


# --- text formats -----------------------------------------------------------


def _tokenize(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(line.split())
    return rows


def parse_instance(text: str) -> RapInstance:
    """Read the line-based instance format.

    ::

        rap 1
        graph <n_r> <n_t>
        edge <r_index> <t_index> <cost> <v|i>   # one line per edge, id order
    """
    rows = _tokenize(text)
    if not rows or rows[0] != ["rap", "1"]:
        raise InstanceError("expected header 'rap 1'")
    if len(rows) < 2 or rows[1][0] != "graph" or len(rows[1]) != 3:
        raise InstanceError("expected 'graph <n_r> <n_t>'")
    try:
        n_r, n_t = int(rows[1][1]), int(rows[1][2])
    except ValueError as exc:
        raise InstanceError("graph line needs two integers") from exc
    edges = []
    vulnerable = set()
    costs = []
    for row in rows[2:]:
        if row[0] != "edge" or len(row) != 5:
            raise InstanceError(f"expected 'edge <r> <t> <cost> <v|i>', got {' '.join(row)!r}")
        try:
            r, t, cost = int(row[1]), int(row[2]), float(row[3])
        except ValueError as exc:
            raise InstanceError(f"bad edge line {' '.join(row)!r}") from exc
        if row[4] not in ("v", "i"):
            raise InstanceError("edge flag must be 'v' or 'i'")
        if row[4] == "v":
            vulnerable.add(len(edges))
        edges.append((r, t))
        costs.append(cost)
    try:
        return make_instance(n_r, n_t, edges, vulnerable, costs)
    except GraphError as exc:
        raise InstanceError(str(exc)) from exc


def format_instance(
    inst: RapInstance, edge_comments: Mapping[int, str] | None = None
) -> str:
    lines = ["rap 1", f"graph {inst.graph.n_r} {inst.graph.n_t}"]
    for eid, (r, t) in enumerate(inst.graph.edges):
        flag = "v" if eid in inst.vulnerable else "i"
        cost = inst.costs[eid]
        cost_s = f"{int(cost)}" if float(cost).is_integer() else repr(cost)
        line = f"edge {r} {t} {cost_s} {flag}"
        if edge_comments and eid in edge_comments:
            line += f"  # {edge_comments[eid]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> frozenset[int]:
    rows = _tokenize(text)
    if not rows or rows[0][0] != "solution" or len(rows[0]) != 2:
        raise InstanceError("expected header 'solution <count>'")
    try:
        count = int(rows[0][1])
    except ValueError as exc:
        raise InstanceError("solution count must be an integer") from exc
    ids = []
    for row in rows[1:]:
        if len(row) != 1:
            raise InstanceError(f"expected one edge id per line, got {' '.join(row)!r}")
        try:
            ids.append(int(row[0]))
        except ValueError as exc:
            raise InstanceError(f"bad edge id {row[0]!r}") from exc
    if len(ids) != count:
        raise InstanceError(f"solution header says {count} edges, found {len(ids)}")
    return frozenset(ids)


def format_solution(edge_ids: Iterable[int]) -> str:
    ids = sorted(edge_ids)
    return "\n".join([f"solution {len(ids)}"] + [str(e) for e in ids]) + "\n"
