"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately written by enumeration, independent of the
library's algorithms, so the two can disagree when one of them is wrong.
Only small inputs are ever passed in.
"""

from __future__ import annotations

import math
from itertools import combinations


def enumerate_perfect_matchings(
    n_r: int, n_t: int, edges: list[tuple[int, int]], active: set[int] | None = None
) -> list[frozenset[int]]:
    """All perfect matchings (as edge-id sets) using only active edges."""
    if n_r != n_t:
        return []
    act = set(range(len(edges))) if active is None else set(active)
    by_r: dict[int, list[int]] = {r: [] for r in range(n_r)}
    for eid in sorted(act):
        by_r[edges[eid][0]].append(eid)

    out: list[frozenset[int]] = []

    def extend(r: int, used_t: set[int], chosen: list[int]) -> None:
        if r == n_r:
            out.append(frozenset(chosen))
            return
        for eid in by_r[r]:
            t = edges[eid][1]
            if t in used_t:
                continue
            used_t.add(t)
            chosen.append(eid)
            extend(r + 1, used_t, chosen)
            chosen.pop()
            used_t.remove(t)

    extend(0, set(), [])
    return out


def max_matching_size(
    n_r: int, n_t: int, edges: list[tuple[int, int]], active: set[int] | None = None
) -> int:
    """Maximum matching cardinality by memoized bitmask recursion on T."""
    act = set(range(len(edges))) if active is None else set(active)
    by_r: list[list[int]] = [[] for _ in range(n_r)]
    for eid in act:
        r, t = edges[eid]
        by_r[r].append(t)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(r: int, used_mask: int) -> int:
        if r == n_r:
            return 0
        top = best(r + 1, used_mask)
        for t in by_r[r]:
            if not used_mask & (1 << t):
                top = max(top, 1 + best(r + 1, used_mask | (1 << t)))
        return top

    return best(0, 0)


def brute_has_pm_avoiding(
    n_r: int, n_t: int, edges: list[tuple[int, int]], f: int, active: set[int] | None = None
) -> bool:
    act = set(range(len(edges))) if active is None else set(active)
    act = act - {f}
    return n_r == n_t and max_matching_size(n_r, n_t, edges, act) == n_r


def brute_allowed_edges(
    n_r: int, n_t: int, edges: list[tuple[int, int]], active: set[int] | None = None
) -> frozenset[int]:
    """Edge ids in at least one perfect matching, by full enumeration."""
    pms = enumerate_perfect_matchings(n_r, n_t, edges, active)
    out: set[int] = set()
    for m in pms:
        out |= m
    return frozenset(out)


def brute_feasible(
    n_r: int,
    n_t: int,
    edges: list[tuple[int, int]],
    vulnerable: set[int],
    x: set[int],
) -> bool:
    """Robust feasibility of edge set ``x`` checked scenario by scenario."""
    if n_r != n_t:
        return False
    if max_matching_size(n_r, n_t, edges, x) != n_r:
        return False
    for f in vulnerable:
        if max_matching_size(n_r, n_t, edges, x - {f}) != n_r:
            return False
    return True


def cut_capacity(
    n_r: int, edges: list[tuple[int, int]], capacity: list[float], a: set[int], b: set[int]
) -> float:
    """Capacity of the source-side cut {source} + A + B of the flow network
    source -1-> R -capacity-> T -1-> sink: (n_r - |A|) + capacity(A, T - B) + |B|."""
    across = math.fsum(capacity[e] for e, (r, t) in enumerate(edges) if r in a and t not in b)
    return (n_r - len(a)) + across + len(b)


def brute_min_cut(
    n_r: int, n_t: int, edges: list[tuple[int, int]], capacity: list[float]
) -> float:
    """Minimum cut of that network over every A of R and B of T, by enumeration."""
    return min(
        cut_capacity(n_r, edges, capacity, set(a), set(b))
        for i in range(n_r + 1)
        for a in combinations(range(n_r), i)
        for j in range(n_t + 1)
        for b in combinations(range(n_t), j)
    )


def brute_exact(
    n_r: int,
    n_t: int,
    edges: list[tuple[int, int]],
    vulnerable: set[int],
    costs: list[float],
) -> tuple[float, frozenset[int]] | None:
    """Cheapest feasible edge set by trying subsets in ascending size.

    A set's cost is its correctly rounded sum (``math.fsum``), which does not
    depend on the order of the ids. Ties are broken toward the
    lexicographically smallest sorted id tuple. Returns None when even the
    full edge set is infeasible.
    """
    m = len(edges)
    all_ids = set(range(m))
    if not brute_feasible(n_r, n_t, edges, vulnerable, all_ids):
        return None
    best: tuple[float, tuple[int, ...]] | None = None
    for k in range(n_r, m + 1):
        for combo in combinations(range(m), k):
            x = set(combo)
            cost = math.fsum(costs[e] for e in combo)
            if best is not None and cost > best[0]:
                continue
            if not brute_feasible(n_r, n_t, edges, vulnerable, x):
                continue
            key = (cost, tuple(sorted(combo)))
            if best is None or key < best:
                best = key
        # a superset never costs less under non-negative costs only if all
        # costs are positive; with zero costs larger subsets can tie, so we
        # cannot stop at the first feasible size in general
    assert best is not None
    return best[0], frozenset(best[1])


def brute_exact_unbalanced(
    n_r: int,
    n_t: int,
    edges: list[tuple[int, int]],
    vulnerable: set[int],
    costs: list[float],
) -> tuple[float, frozenset[int]] | None:
    """Cheapest edge set robustly matching the smaller side, |R| >= |T|.

    Feasible means: with any single vulnerable edge removed, the set still
    contains a matching covering every T node.
    """
    assert n_r >= n_t

    def covers_t(x: set[int]) -> bool:
        return max_matching_size(n_r, n_t, edges, x) == n_t

    def feas(x: set[int]) -> bool:
        if not covers_t(x):
            return False
        return all(covers_t(x - {f}) for f in vulnerable)

    m = len(edges)
    if not feas(set(range(m))):
        return None
    best: tuple[float, tuple[int, ...]] | None = None
    for k in range(n_t, m + 1):
        for combo in combinations(range(m), k):
            x = set(combo)
            cost = math.fsum(costs[e] for e in combo)
            if best is not None and cost > best[0]:
                continue
            if not feas(x):
                continue
            key = (cost, tuple(sorted(combo)))
            if best is None or key < best:
                best = key
    assert best is not None
    return best[0], frozenset(best[1])


def relaxation_rows(
    n_r: int, n_t: int, edges: list[tuple[int, int]], vulnerable: set[int]
) -> list[tuple[list[float], str, float]]:
    """The relaxation's constraints as dense (coefficients, sense, rhs) rows.

    Written from the model's definition: columns are y_e, then one block of
    x_e per vulnerable edge in ascending order (one nominal block when none
    is vulnerable). Each block has a degree equality per R node, then per T
    node, and after all degree rows come the coupling rows x_e - y_e <= 0,
    block by block.
    """
    m = len(edges)
    blocks = sorted(vulnerable) or [None]
    n_cols = m * (len(blocks) + 1)
    out = []
    for pos in range(len(blocks)):
        x0 = (pos + 1) * m
        for side, count in ((0, n_r), (1, n_t)):
            for node in range(count):
                row = [0.0] * n_cols
                for e, ends in enumerate(edges):
                    if ends[side] == node:
                        row[x0 + e] = 1.0
                out.append((row, "E", 1.0))
    for pos in range(len(blocks)):
        for e in range(m):
            row = [0.0] * n_cols
            row[(pos + 1) * m + e] = 1.0
            row[e] = -1.0
            out.append((row, "L", 0.0))
    return out


def min_cost_pm_value(
    n_r: int, n_t: int, edges: list[tuple[int, int]], costs: list[float]
) -> float | None:
    """Minimum perfect matching cost via scipy's assignment solver."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    if n_r != n_t:
        return None
    big = float(sum(abs(c) for c in costs) + 1.0) * 10
    w = np.full((n_r, n_t), big)
    for eid, (r, t) in enumerate(edges):
        w[r, t] = min(w[r, t], costs[eid])
    rows, cols = linear_sum_assignment(w)
    val = float(w[rows, cols].sum())
    if val >= big:
        return None
    return val


def min_cover_size(k: int, sets: list[frozenset[int]]) -> int | None:
    """Smallest number of sets whose union is {1..k}, by enumeration."""
    ground = set(range(1, k + 1))
    for size in range(len(sets) + 1):
        for combo in combinations(range(len(sets)), size):
            covered = set().union(*(sets[j] for j in combo)) if combo else set()
            if covered >= ground:
                return size
    return None


def shortest_nice_path(
    n_r: int, n_t: int, edges: list[tuple[int, int]], src_t: int, dst_r: int
) -> int | None:
    """Node count of a shortest nice path from a t-side to an r-side node.

    A path is nice when the nodes it does not touch can be perfectly
    matched among themselves.  Enumerates all simple paths by DFS, so the
    graph is capped at 12 nodes.
    """
    if n_r + n_t > 12:
        raise ValueError("oracle limited to 12 nodes")
    adj: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for r in range(n_r):
        adj[("r", r)] = set()
    for t in range(n_t):
        adj[("t", t)] = set()
    for r, t in edges:
        adj[("r", r)].add(("t", t))
        adj[("t", t)].add(("r", r))

    def complement_matchable(visited: set[tuple[str, int]]) -> bool:
        rs = [r for r in range(n_r) if ("r", r) not in visited]
        ts = [t for t in range(n_t) if ("t", t) not in visited]
        if len(rs) != len(ts):
            return False
        if not rs:
            return True
        rmap = {r: i for i, r in enumerate(rs)}
        tmap = {t: i for i, t in enumerate(ts)}
        sub = [
            (rmap[r], tmap[t])
            for r, t in edges
            if ("r", r) not in visited and ("t", t) not in visited
        ]
        return max_matching_size(len(rs), len(ts), sub) == len(rs)

    start = ("t", src_t)
    goal = ("r", dst_r)
    best: int | None = None

    def dfs(node: tuple[str, int], visited: set[tuple[str, int]]) -> None:
        nonlocal best
        if best is not None and len(visited) >= best:
            return
        if node == goal:
            if complement_matchable(visited):
                best = len(visited)
            return
        for nb in sorted(adj[node]):
            if nb not in visited:
                visited.add(nb)
                dfs(nb, visited)
                visited.remove(nb)

    dfs(start, {start})
    return best
