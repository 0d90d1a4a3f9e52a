"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately written by enumeration, independent of the
library's algorithms, so the two can disagree when one of them is wrong.
Only small inputs are ever passed in. The exceptions are the paper's
k-block relaxation, written from its definition as input for the library's
simplex and HiGHS, an exact MILP on it that reaches 20 x 20 instances, and
``kuhn_match_arrays``, the library's earlier Kuhn routine kept as written,
which pins the scan order of ``graph_core._match_arrays``.
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


def kuhn_match_arrays(g, active: frozenset[int], start=None) -> tuple[list[int], list[int]]:
    """``graph_core._match_arrays`` as it was before its adjacency lists were
    read once per node: a set test of ``active`` on every adjacency entry
    and a fresh ``seen`` set per root. The matching it finds is the one the
    library must keep finding."""
    from rapkit.graph_core import _check_start

    edges, adj_r = g.edges, g.adj_r
    if start is None:
        match_r, match_t = [-1] * g.n_r, [-1] * g.n_t
    else:
        match_r, match_t = list(start), _check_start(g, active, start)
    # a path re-matches only matched R nodes and its root, so a root matched
    # before its turn was matched by the start
    for root in range(g.n_r):
        if match_r[root] != -1:
            continue
        seen: set[int] = set()
        # one frame per R node on the search path:
        # [node, next adjacency position, edge taken from the node]
        path = [[root, 0, -1]]
        while path:
            frame = path[-1]
            adj = adj_r[frame[0]]
            while frame[1] < len(adj):
                eid = adj[frame[1]]
                frame[1] += 1
                t = edges[eid][1]
                if eid not in active or t in seen:
                    continue
                seen.add(t)
                frame[2] = eid
                other = match_t[t]
                if other == -1:
                    for r, _, e in path:
                        match_r[r] = e
                        match_t[edges[e][1]] = e
                    path.clear()
                else:
                    path.append([edges[other][0], 0, -1])
                break
            else:
                path.pop()
    return match_r, match_t


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


def k_block_lp(inst):
    """The paper's relaxation with one x block per scenario, as a ``SparseLp``.

    Written from the model's definition. Columns are y_e, then one block of
    x_e per vulnerable edge in ascending order (one nominal block when none
    is vulnerable). Each block has a degree equality per R node, then per T
    node, and after all degree rows come the coupling rows x_e - y_e <= 0,
    block by block. x_f of block f has upper bound 0, every other variable
    1; y_e costs c_e. ``inst`` must be balanced.
    """
    import numpy as np

    from rapkit.lp import SparseLp

    g = inst.graph
    n_r, n_t, m = g.n_r, g.n_t, g.n_edges
    blocks = sorted(inst.vulnerable) or [None]
    n_deg = len(blocks) * (n_r + n_t)
    n_vars = m * (len(blocks) + 1)
    entries = []  # (column, row, coefficient)
    upper = [1.0] * n_vars
    for pos, f in enumerate(blocks):
        deg = pos * (n_r + n_t)
        for e, (r, t) in enumerate(g.edges):
            x, coupling = (pos + 1) * m + e, n_deg + pos * m + e
            entries += [(x, deg + r, 1.0), (x, deg + n_r + t, 1.0), (x, coupling, 1.0)]
            entries.append((e, coupling, -1.0))
        if f is not None:
            upper[(pos + 1) * m + f] = 0.0
    nz = np.array(sorted(entries)).reshape(-1, 3)
    return SparseLp(
        n_rows=n_deg + len(blocks) * m,
        cols=nz[:, 0].astype(np.int64),
        rows=nz[:, 1].astype(np.int64),
        vals=nz[:, 2].copy(),
        senses=("E",) * n_deg + ("L",) * (len(blocks) * m),
        rhs=np.array([1.0] * n_deg + [0.0] * (len(blocks) * m)),
        upper=np.array(upper),
        objective=np.array(list(inst.costs) + [0.0] * (n_vars - m), dtype=float),
    )


def k_block_point(inst, values) -> tuple[tuple[float, ...], dict]:
    """Split a ``k_block_lp(inst)`` point into y and the x block of each scenario."""
    m = inst.graph.n_edges
    blocks = sorted(inst.vulnerable) or [-1]
    x = {f: tuple(values[(pos + 1) * m : (pos + 2) * m].tolist()) for pos, f in enumerate(blocks)}
    return tuple(values[:m].tolist()), x


def milp_optimum(inst) -> float | None:
    """Cheapest robust edge set of a balanced instance, by HiGHS's MILP solver.

    ``k_block_lp`` with y integral is an exact model: y's support must hold
    a fractional, hence (bipartite) an integral, perfect matching avoiding
    each f. Returns None when the instance is infeasible.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    if inst.graph.n_edges == 0:
        return None  # no perfect matching
    lp = k_block_lp(inst)
    a = csr_array((lp.vals, (lp.rows, lp.cols)), shape=(lp.n_rows, lp.n_vars))
    lower = np.where(np.array(lp.senses) == "E", lp.rhs, -np.inf)
    integral = np.zeros(lp.n_vars)
    integral[: inst.graph.n_edges] = 1
    res = milp(
        lp.objective,
        constraints=LinearConstraint(a, lower, lp.rhs),
        integrality=integral,
        bounds=Bounds(np.zeros(lp.n_vars), lp.upper),
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(res.fun)


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
