"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately written by enumeration, independent of the
library's algorithms, so the two can disagree when one of them is wrong.
Only small inputs are ever passed in. The exceptions are the paper's
k-block relaxation, written from its definition as input for the library's
simplex and HiGHS, an exact MILP on it that reaches 20 x 20 instances, and
``kuhn_match_arrays``, the library's earlier Kuhn routine kept as written,
which pins the scan order of ``graph_core._match_arrays``, and
``pair_digraph_path``, the earlier ``PairAnalysis.alternating_path``, which
pins the path its search over allowed edges returns, and ``reference_ears``
and ``reference_solve_ear``, the earlier ear decomposition and ear solver,
which pin the ears and the solution.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from itertools import combinations
from types import SimpleNamespace


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


def pair_digraph_path(pairs, match_t, source: int, goal: int, fixed=()) -> list[int] | None:
    """``PairAnalysis.alternating_path``'s reference: a search over every arc of the pair digraph.

    The arcs at pair r are the analysed set's edges at R node r whose two
    ends the analysis' own matching covers, in ascending id, allowed or
    not. Breadth-first from ``source``, with heads read from ``match_t``;
    each pair's own matching edge and every pair in ``fixed`` are skipped.
    Edges are listed from the goal back to the source; None when there is
    no path.
    """
    edges, matching = pairs.graph.edges, pairs.matching
    arcs: list[list[int]] = [[] for _ in range(pairs.graph.n_r)]
    for e in pairs.edge_list:
        r, t = edges[e]
        if matching.match_r[r] != -1 and matching.match_t[t] != -1:
            arcs[r].append(e)
    reached_by = {source: -1}  # pair -> edge that reached it
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for e in arcs[u]:
            mate = match_t[edges[e][1]]
            if mate == e:
                continue
            head = edges[mate][0]
            if head == goal:
                path = [e]
                while u != source:
                    path.append(reached_by[u])
                    u = edges[path[-1]][0]
                return path
            if head not in reached_by and head not in fixed:
                reached_by[head] = e
                queue.append(head)
    return None


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


def degree_bound(
    n_r: int,
    n_t: int,
    edges: list[tuple[int, int]],
    vulnerable: set[int],
    costs: list[float],
    kept: set[int],
    undecided: set[int],
) -> float | None:
    """The larger side's ``math.fsum`` of per-node needs, None if one is unmet.

    A node is met by one invulnerable edge or by two edges. A node met by
    the ``kept`` edges needs 0; otherwise its need is the cheapest one or
    two ``undecided`` edges at it that meet it together with the kept ones
    (two costs summed with ``+``), or None when none do.
    """

    def met(at: list[int]) -> bool:
        return len(at) >= 2 or any(e not in vulnerable for e in at)

    needs = []
    for v in range(n_r + n_t):
        at = [e for e, (r, t) in enumerate(edges) if v in (r, n_r + t)]
        held = [e for e in at if e in kept]
        free = [e for e in at if e in undecided]
        if met(held):
            needs.append(0.0)
            continue
        options = [costs[e] for e in free if met(held + [e])]
        options += [costs[a] + costs[b] for a, b in combinations(free, 2)]
        needs.append(min(options, default=None))
    if None in needs:
        return None
    return max(math.fsum(needs[:n_r]), math.fsum(needs[n_r:]))


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


def _pick(items, rng) -> int:
    # items is ascending; lowest wins unless a generator is supplied
    if rng is None:
        return items[0]
    return items[int(rng.integers(len(items)))]


def reference_ears(pairs, rng=None) -> tuple:
    """``rapkit.ear.ear_decomposition`` as it was before its frontier became a
    heap and its trivial ears plain edge ids, returning the ears alone; the
    ears it finds are the ones the library must keep finding.

    Decompose the analysed edge set, one matching-covered component, into ears.

    The starting edge is the lowest-numbered edge of the set; each ear is
    grown depth-first, preferring edges that reach pairs not yet covered,
    so ears come out long and few.  Choices follow ascending edge ids
    unless rng is given, which shuffles them instead.  The ears do not
    depend on the analysis' matching, since they are read off the least
    perfect matching, so the analysis may have been started warm.
    """
    from rapkit.ear import Ear, _lex_min_pm
    from rapkit.graph_core import GraphError

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
        return tuple(ears)

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

    return tuple(ears)

def reference_solve_ear(inst, ear_order: str = "lowest") -> tuple[frozenset[int], str]:
    """``rapkit.ear.solve_ear``'s edge set and ``format_ears`` trace, built as
    it was built before its parts were read off one analysis: a cold
    ``PairAnalysis`` of the whole completion, then a cold one of each
    allowed component, decomposed by ``reference_ears``."""
    from rapkit.ear import format_ears, parse_ear_order
    from rapkit.graph_core import PairAnalysis
    from rapkit.instance import balanced_completion, first_failing_scenario

    rng = parse_ear_order(ear_order)
    completion = balanced_completion(inst)
    work = completion.instance
    assert first_failing_scenario(work) is None
    g, chosen, texts = work.graph, set(), []
    for comp in PairAnalysis(g).allowed_components():
        ears = reference_ears(PairAnalysis(g, comp), rng)
        texts.append(format_ears(SimpleNamespace(ears=ears)))
        kept = set(ears[0].edge_ids)
        for ear in ears[1:]:
            if not ear.trivial:
                kept.update(ear.edge_ids)
        if len(kept) == 1 and next(iter(kept)) in work.vulnerable:
            spares = sorted(comp - kept)
            if spares:
                kept.add(spares[0])
        chosen.update(kept)
    return frozenset(completion.decode(chosen)), "\n".join(texts)
