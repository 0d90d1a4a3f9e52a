"""Problem instances, solution verification, pruning, and transformations.

An instance couples a balanced or unbalanced bipartite multigraph with a set
of vulnerable edge ids and non-negative per-edge costs. An edge set X is
feasible when, for every vulnerable edge f, X minus f still contains a
perfect matching (and X itself contains one when no edge is vulnerable).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

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
    def scenarios(self) -> tuple[int, ...]:
        """The vulnerable ids in ascending order, or ``NOMINAL_SCENARIO`` alone when none is."""
        return tuple(sorted(self.vulnerable)) or (NOMINAL_SCENARIO,)

    @property
    def uniform(self) -> bool:
        return self.vulnerable == frozenset(self.graph.edge_ids())

    def cost_of(self, edge_ids: Iterable[int]) -> float:
        # exactly rounded, so the cost does not depend on the iteration order
        return math.fsum(self.costs[e] for e in edge_ids)


def _checked_total(inst: RapInstance) -> RapInstance:
    # uniformize at most doubles a total, and the exact search adds a bound
    # of at most the total to a cost, so twice an input's total must be
    # finite; the instances a solver builds from an input are not checked again
    try:
        doubled = 2 * math.fsum(inst.costs)
    except OverflowError:
        doubled = math.inf
    if not math.isfinite(doubled):
        raise InstanceError("costs must total less than half the largest float")
    return inst


def make_instance(
    n_r: int,
    n_t: int,
    edges: Iterable[tuple[int, int]],
    vulnerable: Iterable[int],
    costs: Iterable[float],
) -> RapInstance:
    return _checked_total(RapInstance(
        BipartiteMultigraph(n_r, n_t, edges),
        frozenset(vulnerable),
        tuple(float(c) for c in costs),
    ))


def uniform_instance(
    n_r: int, n_t: int, edges: Iterable[tuple[int, int]], costs: Iterable[float] | None = None
) -> RapInstance:
    g = BipartiteMultigraph(n_r, n_t, edges)
    cs = tuple(1.0 for _ in g.edges) if costs is None else tuple(map(float, costs))
    return _checked_total(RapInstance(g, frozenset(g.edge_ids()), cs))


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
    is stored under ``NOMINAL_SCENARIO``. From ``verify_solution``,
    ``matchings`` is keyed by the instance's ``scenarios`` and lazy: its
    length and keys cost nothing, and reading a key builds that scenario's
    witness, checks it directly and returns it, anew on every read.
    """

    matchings: Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class InstanceMapping:
    """An instance built from another by appending edges, and the way back.

    Edge ids below ``n_original`` name the same edge in both instances.
    Appended edge ``n_original + i`` stands for original edge
    ``appended[i]``, or is a dummy when that entry is -1. Encoding adds
    every dummy (``always_include``) and each stand-in of an encoded edge;
    decoding maps stand-ins back and drops the dummies. With nothing
    appended the mapping is the identity, and ``encode`` and ``decode``
    return a frozenset argument itself.
    """

    instance: RapInstance
    appended: tuple[int, ...] = ()

    @property
    def n_original(self) -> int:
        return self.instance.graph.n_edges - len(self.appended)

    @property
    def always_include(self) -> frozenset[int]:
        n = self.n_original
        return frozenset(n + i for i, e in enumerate(self.appended) if e == -1)

    def encode(self, edge_ids: Iterable[int]) -> frozenset[int]:
        ids = frozenset(edge_ids)
        if not self.appended:
            return ids
        n = self.n_original
        return ids | {n + i for i, e in enumerate(self.appended) if e == -1 or e in ids}

    def decode(self, edge_ids: Iterable[int]) -> frozenset[int]:
        if not self.appended:
            return frozenset(edge_ids)
        n, app = self.n_original, self.appended
        return frozenset(e if e < n else app[e - n] for e in edge_ids if e < n or app[e - n] != -1)


def _require_balanced(inst: RapInstance) -> None:
    if not inst.graph.balanced:
        raise InstanceError("apply balanced_completion first")


def check_feasible(inst: RapInstance) -> bool:
    """Whether the full edge set is feasible for every single-edge scenario."""
    return first_failing_scenario(inst) is None


def _scan(inst: RapInstance, active: Iterable[int] | None) -> tuple[PairAnalysis, int | None]:
    """Pair analysis of ``active`` and its lowest failing scenario.

    ``first_failing_scenario`` states the rule. The analysis is built cold,
    from an empty matching, for every caller: the verifier, to stay
    independent of the solvers; the rounding loop, which reads the
    analysis' parts on selections that are not yet perfect;
    ``prune_to_minimal``, through ``first_failing_scenario``; and the exact
    search, for its whole edge set only, since it tests each exclusion
    with ``_scan_without``. Birkhoff peeling calls ``max_matching`` cold as
    well, since its terms are the matchings.
    """
    pairs = PairAnalysis(inst.graph, active)
    if not pairs.matching.perfect:
        return pairs, min(inst.vulnerable, default=NOMINAL_SCENARIO)
    return pairs, min(pairs.mandatory & inst.vulnerable, default=None)


def _scan_without(
    inst: RapInstance, pairs: PairAnalysis, e: int
) -> tuple[PairAnalysis | None, int | None]:
    """``_scan`` of Y less e, from ``pairs``, the analysis of a robust edge set Y.

    Y must have no failing scenario. ``PairAnalysis.without`` re-analyses
    e's part alone, and the rule is applied to the R nodes whose allowed
    edges it changed (``changed``) alone: Y has no failing mandatory edge,
    and an R node with the same allowed edges keeps its mandatory edge,
    since a node's only allowed edge lies in every perfect matching. The
    analysis is None when Y less e has no perfect matching.
    """
    child = pairs.without(e)
    if child is None:
        return None, min(inst.vulnerable, default=NOMINAL_SCENARIO)
    mandatory = child.mandatory_at(child.changed)
    return child, min(inst.vulnerable.intersection(mandatory), default=None)


def first_failing_scenario(
    inst: RapInstance, active: Iterable[int] | None = None
) -> int | None:
    """Lowest scenario under which the edge set X = ``active`` fails, or None.

    ``active`` defaults to every edge. With nothing vulnerable the answer is
    ``NOMINAL_SCENARIO`` when X has no perfect matching. Otherwise f fails
    exactly when it lies in every perfect matching of X: given one, M, when
    f is in M and no other edge of X at f's R node lies in a perfect
    matching (``PairAnalysis.mandatory``; Lovasz-Plummer, *Matching
    Theory*; Tassa, TCS 2012).
    An id in ``active`` that is not an edge raises GraphError("active ids
    must be edges"), from ``max_matching``, the one check of the ids.
    """
    _require_balanced(inst)
    return _scan(inst, active)[1]


def _cycle_swap(pairs: PairAnalysis, f: int) -> frozenset[int] | None:
    """The analysis' matching swapped along an alternating cycle through f."""
    pm, edges = pairs.matching, pairs.graph.edges
    cycle = pairs.alternating_path(pm.match_t, edges[f][0], edges[f][0])
    if cycle is None:
        return None
    return (pm.edge_ids - {pm.match_r[edges[e][0]] for e in cycle}) | set(cycle)


def _perfect(g: BipartiteMultigraph, w: frozenset[int]) -> bool:
    """Whether the edges ``w`` cover every node of ``g`` once."""
    ends = [g.edges[e] for e in w]
    return len({r for r, _ in ends}) == len({t for _, t in ends}) == len(ends) == g.n_r


def _reaches_all(arcs: list[list[int]], roots: Iterable[int]) -> bool:
    """Whether searches along ``arcs`` from ``roots`` reach every node."""
    seen = [False] * len(arcs)
    stack = list(roots)
    for v in stack:
        seen[v] = True
    while stack:
        for w in arcs[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def _check_certificate(
    g: BipartiteMultigraph, x: frozenset[int], pairs: PairAnalysis, vulnerable: frozenset[int]
) -> None:
    """Confirm that the analysis of X = ``x`` proves X robust, in O(n + m).

    The analysis' matching M must be perfect inside X; each of its parts,
    as labelled by ``part_labels``, strongly connected in X's pair digraph
    under M, built here from X and M alone; and every vulnerable f in M
    must have another edge of X at its R node whose head pair lies in its
    part. Then M and a path back through that part, an alternating cycle
    through f, give a perfect matching of X less f for every scenario
    (Lovasz-Plummer, *Matching Theory*). A label that merges two parts
    fails here; one that splits a part can only fail a robust X.
    """
    pm = pairs.matching.edge_ids
    if not pm <= x or not _perfect(g, pm):
        raise AssertionError("no valid witness: the matching is not perfect inside the solution")
    edges, label = g.edges, pairs.part_labels()
    head = [0] * g.n_t  # head[t]: the pair matched at t, named by its R node
    for e in pm:
        r, t = edges[e]
        head[t] = r
    # the pair digraph's arcs that stay inside one labelled part, and the same reversed
    inside: list[list[int]] = [[] for _ in range(g.n_r)]
    reverse: list[list[int]] = [[] for _ in range(g.n_r)]
    for e in x:
        r, t = edges[e]
        h = head[t]
        if label[h] == label[r]:
            inside[r].append(h)
            reverse[h].append(r)
    roots = {label[r]: r for r in range(g.n_r)}.values()  # one pair of each part
    if not (_reaches_all(inside, roots) and _reaches_all(reverse, roots)):
        raise AssertionError("a labelled part is not strongly connected")
    for f in vulnerable & pm:
        r = edges[f][0]
        if not any(e != f and e in x and label[head[edges[e][1]]] == label[r] for e in g.adj_r[r]):
            raise AssertionError(f"scenario {f} has no other edge inside its part")


class _Witnesses(Mapping[int, frozenset[int]]):
    """Per-scenario witnesses of a robust set X, each built when read.

    A scenario outside the analysis' perfect matching M is witnessed by M,
    one inside M by M swapped along an alternating cycle through it. Each
    witness is checked directly (it avoids f, lies in X and is perfect)
    and is returned in the original instance's edge ids.
    """

    def __init__(
        self,
        scenarios: Iterable[int],
        completion: InstanceMapping,
        pairs: PairAnalysis,
        x: frozenset[int],
    ):
        self._keys = dict.fromkeys(scenarios)
        self._completion, self._pairs, self._x = completion, pairs, x

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __contains__(self, f: object) -> bool:
        return f in self._keys

    def __getitem__(self, f: int) -> frozenset[int]:
        if f not in self._keys:
            raise KeyError(f)
        pm = self._pairs.matching.edge_ids
        w = _cycle_swap(self._pairs, f) if f in pm else pm
        g = self._completion.instance.graph
        if w is None or f in w or not w <= self._x or not _perfect(g, w):
            raise AssertionError(f"no valid witness for scenario {f}")
        return self._completion.decode(w)


def verify_solution(inst: RapInstance, x: Solution) -> Certificate:
    """Check robust feasibility of ``x`` and return its certificate.

    The verdict is the oracle's (``_scan``). A failing scenario is
    confirmed by a direct matching on ``x`` minus that edge before it is
    reported; a pass, by ``_check_certificate``, in O(n + m) and without
    the oracle's strongly-connected-components code. The certificate's
    witnesses are built and checked directly only when read (see
    ``Certificate``). An unbalanced instance is checked on its balanced
    completion, with every dummy edge added to ``x``; the witnesses are
    returned in ``inst``'s edge ids, and scenario ids are the same in both.
    """
    for e in x.edge_ids:
        if not (0 <= e < inst.graph.n_edges):
            raise InstanceError(f"solution id {e} is not an edge")
    completion = balanced_completion(inst)
    g = completion.instance.graph
    ids = completion.encode(x.edge_ids)
    pairs, failing = _scan(completion.instance, ids)
    if failing is not None:
        if max_matching(g, ids - {failing}).perfect:
            raise AssertionError(f"scenario {failing} reported failing but survives")
        if failing == NOMINAL_SCENARIO:
            raise InfeasibleSolutionError(
                "infeasible: no perfect matching in solution", NOMINAL_SCENARIO
            )
        raise InfeasibleSolutionError(f"infeasible at scenario e{failing}", failing)
    _check_certificate(g, ids, pairs, inst.vulnerable)
    return Certificate(_Witnesses(inst.scenarios, completion, pairs, ids))


def is_feasible_set(inst: RapInstance, edge_ids: Iterable[int]) -> bool:
    """Feasibility of an arbitrary edge set, without building a certificate."""
    return first_failing_scenario(inst, solution_for(inst, edge_ids).edge_ids) is None


def prune_to_minimal(inst: RapInstance, x: Solution) -> Solution:
    """Shrink a feasible solution until no single edge can be dropped.

    Edges are tried in descending cost, ties broken by descending id; an
    edge is dropped when the edges left without it are still feasible.
    Balanced instances only: an unbalanced one raises InstanceError before
    ``x`` is verified.
    """
    _require_balanced(inst)
    verify_solution(inst, x)
    current = set(x.edge_ids)
    for e in sorted(current, key=lambda e: (-inst.costs[e], -e)):
        if first_failing_scenario(inst, current - {e}) is None:
            current.discard(e)
    return solution_for(inst, current)


def balanced_completion(inst: RapInstance) -> InstanceMapping:
    """Equalize the sides with dummy nodes joined to all of the larger side.

    A balanced instance gets the identity: ``inst`` itself, nothing
    appended. Otherwise, if T is the larger side, the two sides are swapped
    first (edge ids are unchanged by the swap). Dummy edges have zero cost,
    are invulnerable, and are appended after the original edges. Decoding
    drops them.
    """
    g = inst.graph
    if g.balanced:
        return InstanceMapping(inst)
    n = max(g.n_r, g.n_t)
    n_t = min(g.n_r, g.n_t)
    edges = [(t, r) for r, t in g.edges] if g.n_t > g.n_r else list(g.edges)
    dummies = [(r, t) for t in range(n_t, n) for r in range(n)]
    completed = RapInstance(
        BipartiteMultigraph(n, n, edges + dummies),
        inst.vulnerable,
        tuple(inst.costs) + (0.0,) * len(dummies),
    )
    return InstanceMapping(completed, (-1,) * len(dummies))


def uniformize(inst: RapInstance) -> InstanceMapping:
    """Make every edge vulnerable by doubling the invulnerable ones.

    Each invulnerable edge e gains a parallel copy with the same cost,
    appended in id order; the new vulnerable set is the whole edge list.
    Encoding a solution adds the copy of each of its invulnerable edges (at
    most doubling its cost); decoding maps each copy back to its original
    edge id.
    """
    _require_balanced(inst)
    g = inst.graph
    copied = tuple(e for e in g.edge_ids() if e not in inst.vulnerable)
    uniform = RapInstance(
        BipartiteMultigraph(g.n_r, g.n_t, list(g.edges) + [g.edges[e] for e in copied]),
        frozenset(range(g.n_edges + len(copied))),
        tuple(inst.costs) + tuple(inst.costs[e] for e in copied),
    )
    return InstanceMapping(uniform, copied)


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
    ids: set[int] = set()
    for row in rows[1:]:
        if len(row) != 1:
            raise InstanceError(f"expected one edge id per line, got {' '.join(row)!r}")
        try:
            e = int(row[0])
        except ValueError as exc:
            raise InstanceError(f"bad edge id {row[0]!r}") from exc
        if e in ids:
            raise InstanceError(f"edge id {e} is listed twice")
        ids.add(e)
    if len(ids) != count:
        raise InstanceError(f"solution header says {count} edges, found {len(ids)}")
    return frozenset(ids)


def format_solution(edge_ids: Iterable[int]) -> str:
    ids = sorted(edge_ids)
    return "\n".join([f"solution {len(ids)}"] + [str(e) for e in ids]) + "\n"
