"""Ear-decomposition heuristic for robust assignment.

Every matching-covered bipartite graph can be grown from a single matching
edge by repeatedly attaching odd-length paths (ears) whose endpoints lie on
different sides and already belong to the partial graph.  Keeping only the
starting edge and the non-trivial ears of such a decomposition yields a
sparse spanning subgraph in which every edge still lies on some perfect
matching, which is exactly the structure a robust solution needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Optional, Sequence

import numpy as np

from .graph_core import GraphError, PairAnalysis, greedy_start
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
    """Ears in construction order; ears[0] is the starting edge.

    ``paths`` holds an ear as its edge ids, a trivial one as its edge id
    alone; ``ears`` builds the ``Ear`` objects when first read.
    """

    paths: tuple[tuple[int, ...] | int, ...]

    @cached_property
    def ears(self) -> tuple[Ear, ...]:
        return tuple(Ear((p,), True) if isinstance(p, int) else Ear(p, False) for p in self.paths)

    def edge_set(self) -> frozenset[int]:
        return frozenset(e for ear in self.ears for e in ear.edge_ids)

    def nontrivial(self) -> tuple[Ear, ...]:
        return tuple(ear for ear in self.ears[1:] if not ear.trivial)


def _pop(heap: list[int], rng: Optional[np.random.Generator]) -> int:
    # the lowest item, unless a generator picks a rank; a sorted list is a heap
    if rng is None:
        return heappop(heap)
    heap.sort()
    return heap.pop(int(rng.integers(len(heap))))


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
    perfect matching, so the analysis may have been started warm, or be
    one of a larger analysis' ``parts``.
    """
    # matching-covered: every edge allowed (so every node it touches is
    # matched) and the pairs in one part
    edges, active = pairs.graph.edges, pairs.edge_list
    if not pairs.allowed.issuperset(active) or len(set(pairs.part_labels()) - {-1}) != 1:
        raise GraphError("component not matching-covered")

    match_r, match_t = _lex_min_pm(pairs)

    # Contract matched pairs; each non-matching edge (r, t) becomes an arc
    # from t's pair to r's pair.  Pairs are named by their r node, and an
    # arc by its index: its edge, tail pair and head pair are arc_edge,
    # tail_of and head_of at that index.
    arc_edge = [e for e in active if match_r[edges[e][0]] != e]
    tail_of = [edges[match_t[edges[e][1]]][0] for e in arc_edge]
    head_of = [edges[e][0] for e in arc_edge]
    leaving: dict[int, list[int]] = {}
    for idx, tail in enumerate(tail_of):
        leaving.setdefault(tail, []).append(idx)

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
        # per pair: arcs still to try into fresh pairs, last first, and into goals
        fresh: dict[int, list[int]] = {}
        closing: dict[int, list[int]] = {}

        def classify(v: int) -> None:
            heads = [(head_of[i], i) for i in leaving[v]]
            fresh[v] = ordered([i for h, i in heads if h not in visited and h not in goals])[::-1]
            closing[v] = ordered([i for h, i in heads if h in goals])

        classify(start)
        stack = [start]
        while stack:
            v = stack[-1]
            ahead = fresh[v]
            while ahead and head_of[ahead[-1]] in visited:
                ahead.pop()
            if ahead:
                idx = ahead.pop()
                head = head_of[idx]
                visited.add(head)
                entered[head] = idx
                classify(head)
                stack.append(head)
                continue
            if closing[v]:
                path = [closing[v][0]]
                while v != start:
                    path.append(entered[v])
                    v = tail_of[entered[v]]
                path.reverse()
                return path
            stack.pop()
        raise GraphError("component not matching-covered")

    def expand(arc_path: Sequence[int]) -> tuple[int, ...]:
        """Interleave arc edges with the matched edges of interior pairs."""
        edge_path = [arc_edge[arc_path[0]]]
        for idx in arc_path[1:]:
            edge_path.append(match_r[tail_of[idx]])
            edge_path.append(arc_edge[idx])
        if len(edge_path) > 1 and edge_path[0] > edge_path[-1]:
            edge_path.reverse()
        return tuple(edge_path)

    start_edge = min(active)
    start_pair = edges[start_edge][0]
    paths: list[tuple[int, ...] | int] = [(start_edge,)]
    if not arc_edge:
        return EarDecomposition(tuple(paths))

    used = [False] * len(arc_edge)
    in_h: set[int] = set()
    frontier: list[int] = []  # a heap of the unused arcs whose tail is in in_h

    def attach(path: Sequence[int]) -> None:
        for idx in path:
            used[idx] = True
        for idx in path:
            for pair in (tail_of[idx], head_of[idx]):
                if pair not in in_h:
                    in_h.add(pair)
                    for j in leaving[pair]:
                        if not used[j]:
                            heappush(frontier, j)

    incident = [i for i, (t, h) in enumerate(zip(tail_of, head_of)) if start_pair in (t, h)]
    first = _pop(incident, rng)
    tail, head = tail_of[first], head_of[first]
    if tail == head:
        cycle = [first]
    elif tail == start_pair:
        cycle = [first] + deep_path(head, {start_pair})
    else:
        cycle = deep_path(start_pair, {tail}) + [first]
    attach(cycle)
    paths.append(arc_edge[first] if len(cycle) == 1 else expand(cycle))

    while frontier:
        idx = heappop(frontier) if rng is None else _pop(frontier, rng)
        if head_of[idx] in in_h:
            used[idx] = True
            paths.append(arc_edge[idx])
            continue
        path = [idx] + deep_path(head_of[idx], in_h)
        attach(path)
        paths.append(expand(path))
    if not all(used):
        raise GraphError("component not matching-covered")

    return EarDecomposition(tuple(paths))


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
    # no output depends on the scan's matching, since the ears are read off
    # each part's least perfect matching, so the scan starts greedy
    pairs, failing = _scan(work, None, greedy_start(work.graph))
    if failing is not None:
        raise InstanceError("infeasible instance")

    chosen: set[int] = set()
    for part in pairs.parts():  # the matching-covered components of the allowed subgraph
        dec = ear_decomposition(part, rng)
        if trace is not None:
            trace.append(dec)
        # the starting edge and every non-trivial ear
        kept = {e for path in dec.paths if not isinstance(path, int) for e in path}
        if len(kept) == 1 and next(iter(kept)) in work.vulnerable:
            spares = [e for e in part.edge_list if e not in kept]
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
