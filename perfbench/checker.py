"""The benchmark's own robust-feasibility check, independent of rapkit.

A solution X (a set of edge ids) of an instance with sides R and T is
feasible when, for every vulnerable edge f, X minus f holds a matching
that covers the smaller side (every node when the sides are equal), and X
itself holds one when nothing is vulnerable. This is the same rule rapkit
applies after zero-cost completion of an unbalanced instance, but it is
stated and checked here without any rapkit code.

The check finds one maximum matching M of X. A scenario f outside M is
witnessed by M itself. For f in M, M minus f is repaired by one
breadth-first search for an augmenting path from f's freed endpoint that
does not use f. All loops are iterative, so deep graphs cannot overflow
the interpreter stack.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


class CheckFailed(Exception):
    """An output failed the benchmark's correctness or quality check."""


def _augment(
    adj: Sequence[Sequence[tuple[int, int]]],
    match_s: list[int],
    match_o: list[int],
    edge_ends: Sequence[tuple[int, int]],
    start: int,
    avoid: int,
) -> bool:
    """Grow the matching along a shortest augmenting path from free ``start``.

    ``adj[s]`` lists (edge id, other-side node) pairs; ``match_s`` and
    ``match_o`` hold the matched edge id per node, or -1.
    """
    parent_edge: dict[int, int] = {}  # other-side node -> edge that reached it
    queue = deque([start])
    seen_s = {start}
    while queue:
        s = queue.popleft()
        for eid, o in adj[s]:
            if eid == avoid or o in parent_edge:
                continue
            parent_edge[o] = eid
            nxt = match_o[o]
            if nxt == -1:
                # flip the path back to start
                while True:
                    e = parent_edge[o]
                    s_end = edge_ends[e][0]
                    prev = match_s[s_end]
                    match_s[s_end] = e
                    match_o[o] = e
                    if s_end == start:
                        return True
                    o = edge_ends[prev][1]
            s_next = edge_ends[nxt][0]
            if s_next not in seen_s:
                seen_s.add(s_next)
                queue.append(s_next)
    return False


def check_robust(
    n_r: int,
    n_t: int,
    edges: Sequence[tuple[int, int]],
    vulnerable: Iterable[int],
    chosen: Iterable[int],
) -> int:
    """Raise ``CheckFailed`` unless ``chosen`` survives every scenario.

    Returns the number of scenarios checked.
    """
    ids = sorted(set(chosen))
    m = len(edges)
    for e in ids:
        if not 0 <= e < m:
            raise CheckFailed(f"solution id {e} is not an edge")
    # orient every edge from the smaller side s to the other side o
    swap = n_t < n_r
    n_s, n_o = (n_t, n_r) if swap else (n_r, n_t)
    edge_ends = [(t, r) if swap else (r, t) for r, t in edges]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_s)]
    for e in ids:
        s, o = edge_ends[e]
        adj[s].append((e, o))

    match_s = [-1] * n_s
    match_o = [-1] * n_o
    for s in range(n_s):
        if not _augment(adj, match_s, match_o, edge_ends, s, -1):
            raise CheckFailed(f"no matching covers side node {s}")

    scenarios = sorted(set(vulnerable))
    if not scenarios:
        return 1
    chosen_set = set(ids)
    for f in scenarios:
        if f not in chosen_set or match_s[edge_ends[f][0]] != f:
            continue
        s, o = edge_ends[f]
        trial_s = list(match_s)
        trial_o = list(match_o)
        trial_s[s] = -1
        trial_o[o] = -1
        if not _augment(adj, trial_s, trial_o, edge_ends, s, f):
            raise CheckFailed(f"infeasible at scenario e{f}")
    return len(scenarios)


def parse_solution_text(text: str) -> list[int]:
    """Read a ``solution <count>`` file: one edge id per following line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise CheckFailed("empty solution file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "solution":
        raise CheckFailed(f"bad solution header {lines[0]!r}")
    ids = [int(ln) for ln in lines[1:]]
    if len(ids) != int(head[1]):
        raise CheckFailed("solution count does not match its header")
    return ids
