"""Ear-decomposition heuristic for robust assignment.

Every matching-covered bipartite graph can be grown from a single matching
edge by repeatedly attaching odd-length paths (ears) whose endpoints lie on
different sides and already belong to the partial graph.  Keeping only the
starting edge and the non-trivial ears of such a decomposition yields a
sparse spanning subgraph in which every edge still lies on some perfect
matching, which is exactly the structure a robust solution needs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_core import GraphError, PairAnalysis
from .instance import (
    InstanceError,
    RapInstance,
    Solution,
    _scan,
    balanced_completion,
    solution_for,
    verify_solution,
)

__all__ = [
    "Ear",
    "EarDecomposition",
    "ear_decomposition",
    "format_ears",
    "parse_ear_order",
    "solve_ear",
]


@dataclass(frozen=True)
class Ear:
    """One ear: a path of edge ids in traversal order.

    The first ear in a decomposition is the starting single matching edge.
    A later ear is trivial when it consists of a single edge joining two
    nodes that were both reached earlier.
    """

    edge_ids: tuple[int, ...]
    trivial: bool

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class EarDecomposition:
    """Ears in construction order; ears[0] is the starting edge."""

    ears: tuple[Ear, ...]

    def edge_set(self) -> frozenset[int]:
        out: set[int] = set()
        for ear in self.ears:
            out.update(ear.edge_ids)
        return frozenset(out)

    def nontrivial(self) -> tuple[Ear, ...]:
        return tuple(ear for ear in self.ears[1:] if not ear.trivial)


def _pick(items: Sequence[int], rng: Optional[np.random.Generator]) -> int:
    # items is ascending; lowest wins unless a generator is supplied
    if rng is None:
        return items[0]
    return items[int(rng.integers(len(items)))]


def _lex_min_pm(pairs: PairAnalysis) -> tuple[list[int], list[int]]:
    """Lexicographically least perfect matching of the analysed edge set.

    Returned as the matched edge id at each R and T node, -1 where the edge
    set leaves a node uncovered.

    The analysis' matching M must be perfect on the nodes the edge set
    touches, and its pairs must form one part (see
    ``PairAnalysis.alternating_path``). Edges are tried in ascending id,
    and an edge is fixed when some perfect matching holds it together with
    every pair fixed so far. M is kept up to date: an edge e = (r, t)
    outside M qualifies exactly when an alternating cycle through e avoids
    the fixed pairs (Lovasz-Plummer, *Matching Theory*), that is when e is
    parallel to r's matching edge or a path leads from the pair at t back
    to r, and M is then swapped along it. A skipped edge stays skipped,
    since fixing pairs only removes matchings.
    """
    edges = pairs.graph.edges
    match_r, match_t = list(pairs.matching.match_r), list(pairs.matching.match_t)
    fixed: set[int] = set()  # pairs, named by their r node
    for e in pairs.edge_list:
        r, t = edges[e]
        target = edges[match_t[t]][0]
        if r in fixed or target in fixed:
            continue
        if match_r[r] != e:
            path = [] if target == r else pairs.alternating_path(match_t, target, r, fixed)
            if path is None:
                continue
            for a in [e, *path]:
                match_r[edges[a][0]] = match_t[edges[a][1]] = a
        fixed.add(r)
    return match_r, match_t


def ear_decomposition(
    pairs: PairAnalysis, rng: Optional[np.random.Generator] = None
) -> EarDecomposition:
    """Decompose the analysed edge set, one matching-covered component, into ears.

    The starting edge is the lowest-numbered edge of the set; each ear is
    grown depth-first, preferring edges that reach pairs not yet covered,
    so ears come out long and few.  Choices follow ascending edge ids
    unless rng is given, which shuffles them instead.  The ears do not
    depend on the analysis' matching, since they are read off the least
    perfect matching, so the analysis may have been started warm.
    """
    # matching-covered: every edge allowed (so every node it touches is
    # matched) and the pairs in one part
    g, active = pairs.graph, pairs.edge_list
    if not pairs.allowed.issuperset(active) or len(pairs.allowed_components()) != 1:
        raise GraphError("component not matching-covered")

    match_r, match_t = _lex_min_pm(pairs)

    # Contract matched pairs; each non-matching edge (r, t) becomes an arc
    # from t's pair to r's pair.  Pairs are named by their r node.
    arcs: list[tuple[int, int, int]] = []  # (edge id, tail pair, head pair)
    for e in pairs.edge_list:
        r, t = g.edges[e]
        if match_r[r] != e:
            arcs.append((e, g.edges[match_t[t]][0], r))
    leaving: list[list[int]] = [[] for _ in match_r]
    for idx, (_, tail, _) in enumerate(arcs):
        leaving[tail].append(idx)

    def ordered(items: list[int]) -> list[int]:
        if rng is None or len(items) < 2:
            return items
        return [items[i] for i in rng.permutation(len(items))]

    def deep_path(start: int, goals: set[int]) -> list[int]:
        """Arc indices of a start -> goals walk hugging uncovered pairs.

        Depth-first, diving into pairs outside goals for as long as
        possible and closing into goals only when stuck.  Interior pairs
        are distinct and lie outside goals.
        """
        visited = {start}
        entered: dict[int, int] = {}
        fresh: dict[int, list[int]] = {}
        closing: dict[int, list[int]] = {}

        def classify(v: int) -> None:
            heads = [(arcs[i][2], i) for i in leaving[v]]
            fresh[v] = ordered([i for h, i in heads if h not in visited and h not in goals])
            closing[v] = ordered([i for h, i in heads if h in goals])

        classify(start)
        stack = [start]
        while stack:
            v = stack[-1]
            advanced = False
            while fresh[v]:
                idx = fresh[v].pop(0)
                head = arcs[idx][2]
                if head in visited:
                    continue
                visited.add(head)
                entered[head] = idx
                classify(head)
                stack.append(head)
                advanced = True
                break
            if advanced:
                continue
            if closing[v]:
                path = [closing[v][0]]
                while v != start:
                    path.append(entered[v])
                    v = arcs[entered[v]][1]
                path.reverse()
                return path
            stack.pop()
        raise GraphError("component not matching-covered")

    def expand(arc_path: Sequence[int]) -> tuple[int, ...]:
        """Interleave arc edges with the matched edges of interior pairs."""
        edge_path = [arcs[arc_path[0]][0]]
        for idx in arc_path[1:]:
            edge_path.append(match_r[arcs[idx][1]])
            edge_path.append(arcs[idx][0])
        if len(edge_path) > 1 and edge_path[0] > edge_path[-1]:
            edge_path.reverse()
        return tuple(edge_path)

    start_edge = min(active)
    start_pair = g.edges[start_edge][0]
    ears: list[Ear] = [Ear((start_edge,), trivial=False)]
    if not arcs:
        return EarDecomposition(ears=tuple(ears))

    used = [False] * len(arcs)
    in_h: set[int] = set()
    frontier: list[int] = []  # unused arcs whose tail is in in_h, ascending

    def attach(path: Sequence[int]) -> None:
        for idx in path:
            used[idx] = True
        for idx in path:
            for pair in arcs[idx][1:]:
                if pair not in in_h:
                    in_h.add(pair)
                    for j in leaving[pair]:
                        if not used[j]:
                            insort(frontier, j)

    incident = [i for i in range(len(arcs)) if start_pair in (arcs[i][1], arcs[i][2])]
    first = _pick(incident, rng)
    tail, head = arcs[first][1], arcs[first][2]
    if tail == head:
        cycle = [first]
    elif tail == start_pair:
        cycle = [first] + deep_path(head, {start_pair})
    else:
        cycle = deep_path(start_pair, {tail}) + [first]
    attach(cycle)
    ears.append(Ear(expand(cycle), trivial=len(cycle) == 1))

    while frontier:
        idx = _pick(frontier, rng)
        del frontier[bisect_left(frontier, idx)]
        head = arcs[idx][2]
        if head in in_h:
            used[idx] = True
            ears.append(Ear((arcs[idx][0],), trivial=True))
            continue
        path = [idx] + deep_path(head, in_h)
        attach(path)
        ears.append(Ear(expand(path), trivial=False))
    if not all(used):
        raise GraphError("component not matching-covered")

    return EarDecomposition(ears=tuple(ears))


def parse_ear_order(order: str) -> Optional[np.random.Generator]:
    """Turn an order name into a generator: "lowest" or "random:<seed>"."""
    if order == "lowest":
        return None
    if order.startswith("random:"):
        seed_text = order[len("random:") :]
        try:
            return np.random.default_rng(int(seed_text))
        except ValueError:
            pass
    raise ValueError(f"unknown ear order {order!r}")


def solve_ear(
    inst: RapInstance,
    ear_order: str = "lowest",
    trace: Optional[list[EarDecomposition]] = None,
) -> Solution:
    """Robust solution via ear decomposition of the allowed subgraph.

    Keeps, per matching-covered component, the starting edge plus every
    non-trivial ear.  When that leaves a component as a single vulnerable
    edge (possible only for a two-node bundle of parallel edges), the
    lowest-numbered parallel edge is kept as well so the component survives
    the loss of either copy.  Output size is at most three times the number
    of task nodes.  Passing a list as ``trace`` collects the decomposition
    of every component as it is built.
    """
    rng = parse_ear_order(ear_order)
    completion = balanced_completion(inst)
    work = completion.instance
    pairs, failing = _scan(work, None)
    if failing is not None:
        raise InstanceError("infeasible instance")
    # the components of the allowed subgraph, each matching-covered and
    # perfectly matched by the whole graph's matching, whose edges inside
    # it start its analysis; the rest of the whole-graph analysis is
    # dropped first
    comps = pairs.allowed_components()
    pm = pairs.matching.match_r
    del pairs

    chosen: set[int] = set()
    for comp_edges in comps:
        start = [e if e in comp_edges else -1 for e in pm]
        dec = ear_decomposition(PairAnalysis(work.graph, comp_edges, start), rng)
        if trace is not None:
            trace.append(dec)
        kept: set[int] = set(dec.ears[0].edge_ids)
        for ear in dec.nontrivial():
            kept.update(ear.edge_ids)
        if len(kept) == 1 and next(iter(kept)) in work.vulnerable:
            spares = sorted(comp_edges - kept)
            if spares:
                kept.add(spares[0])
        chosen.update(kept)

    if len(chosen) > 3 * work.graph.n_t:
        raise RuntimeError("ear solution exceeded its size bound")
    verify_solution(work, solution_for(work, chosen))
    return solution_for(inst, completion.decode(chosen))


def format_ears(dec: EarDecomposition) -> str:
    """One line per ear: index, edge ids, and a trivial marker."""
    lines = []
    for i, ear in enumerate(dec.ears):
        ids = ",".join(f"e{e}" for e in ear.edge_ids)
        mark = " trivial" if ear.trivial else ""
        lines.append(f"ear {i} {ids}{mark}")
    return "\n".join(lines)
