"""Bipartite multigraph representation and matching primitives.

Nodes live on two sides, R and T. Edges carry stable integer ids given by
their position in the construction list, and parallel edges are allowed.
All operations are pure functions; graphs and matchings never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class GraphError(ValueError):
    """A structural requirement of a graph operation is violated."""


@dataclass(frozen=True)
class Matching:
    """Pairwise non-adjacent edges; ``perfect`` means every node is covered."""

    edge_ids: frozenset[int]
    perfect: bool

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class Component:
    """One connected component, with its matching-covered verdict."""

    r_nodes: frozenset[int]
    t_nodes: frozenset[int]
    edge_ids: frozenset[int]
    matching_covered: bool


class BipartiteMultigraph:
    """Immutable bipartite multigraph with 0-based edge ids.

    ``edges[i]`` is the endpoint pair ``(r_index, t_index)`` of edge i.
    Adjacency lists are kept per node, in ascending edge-id order, which
    fixes the scan order of every matching routine.
    """

    __slots__ = ("n_r", "n_t", "edges", "adj_r", "adj_t")

    def __init__(self, n_r: int, n_t: int, edges: Iterable[tuple[int, int]] = ()):
        if n_r < 0 or n_t < 0:
            raise GraphError("node counts must be non-negative")
        edge_list = [(int(r), int(t)) for r, t in edges]
        for eid, (r, t) in enumerate(edge_list):
            if not (0 <= r < n_r and 0 <= t < n_t):
                raise GraphError(f"edge {eid} endpoints ({r},{t}) out of range")
        adj_r: list[list[int]] = [[] for _ in range(n_r)]
        adj_t: list[list[int]] = [[] for _ in range(n_t)]
        for eid, (r, t) in enumerate(edge_list):
            adj_r[r].append(eid)
            adj_t[t].append(eid)
        self.n_r = n_r
        self.n_t = n_t
        self.edges = tuple(edge_list)
        self.adj_r = tuple(tuple(a) for a in adj_r)
        self.adj_t = tuple(tuple(a) for a in adj_t)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def balanced(self) -> bool:
        return self.n_r == self.n_t

    def edge_ids(self) -> range:
        return range(len(self.edges))

    def __repr__(self) -> str:
        return f"BipartiteMultigraph(n_r={self.n_r}, n_t={self.n_t}, m={len(self.edges)})"


def _match_arrays(
    g: BipartiteMultigraph, forbidden: frozenset[int]
) -> tuple[list[int], list[int]]:
    """Maximum matching by augmenting paths; returns per-node matched edge ids.

    R nodes are processed in ascending index and adjacency is scanned in
    ascending edge id, so the result is deterministic for a fixed input.
    The depth-first search keeps its path on an explicit stack, so long
    augmenting paths cannot overflow the interpreter's call stack.
    """
    edges, adj_r = g.edges, g.adj_r
    match_r = [-1] * g.n_r
    match_t = [-1] * g.n_t
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
                if eid in forbidden or t in seen:
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


def max_matching(g: BipartiteMultigraph, forbidden: Iterable[int] = ()) -> Matching:
    """Maximum-cardinality matching of ``g`` avoiding every forbidden edge id."""
    forb = frozenset(forbidden)
    for eid in forb:
        if not (0 <= eid < len(g.edges)):
            raise GraphError(f"forbidden id {eid} is not an edge")
    match_r, _ = _match_arrays(g, forb)
    ids = frozenset(e for e in match_r if e != -1)
    perfect = g.balanced and len(ids) == g.n_r
    return Matching(ids, perfect)


def has_pm_avoiding(g: BipartiteMultigraph, f: int) -> bool:
    """True iff the graph has a perfect matching that avoids edge ``f``."""
    if not g.balanced:
        raise GraphError("not balanced")
    if not (0 <= f < len(g.edges)):
        raise GraphError(f"no edge with id {f}")
    return max_matching(g, (f,)).perfect


def _restricted_forbidden(
    g: BipartiteMultigraph, active: Iterable[int] | None
) -> frozenset[int]:
    if active is None:
        return frozenset()
    act = set(active)
    return frozenset(e for e in range(len(g.edges)) if e not in act)


def _pair_arcs(
    g: BipartiteMultigraph,
    active: Iterable[int],
    match_r: list[int],
    match_t: list[int],
) -> list[list[tuple[int, int]]]:
    """The matched-pair digraph, as (edge id, head) arcs per r node.

    Each matched (r, t) pair is contracted to one vertex indexed by its r
    node. Every active non-matching edge (r, t) whose endpoints are both
    matched becomes an arc from r's pair to the pair matched at t; an edge
    parallel to a matching edge becomes a self-loop.
    """
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(g.n_r)]
    for eid in active:
        r, t = g.edges[eid]
        if match_r[r] not in (-1, eid) and match_t[t] != -1:
            arcs[r].append((eid, g.edges[match_t[t]][0]))
    return arcs


def _scc_of_pairs(arcs: list[list[tuple[int, int]]], match_r: list[int]) -> list[int]:
    """Strongly connected components of the matched-pair digraph ``arcs``.

    Returns scc ids indexed by r, -1 for unmatched r nodes.
    """
    n = len(arcs)
    # Tarjan, iterative to keep deep digraphs off the call stack.
    scc = [-1] * n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    n_sccs = 0
    for root in range(n):
        if index[root] != -1 or match_r[root] == -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v = frame[0]
            if frame[1] == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recursed = False
            while frame[1] < len(arcs[v]):
                w = arcs[v][frame[1]][1]
                frame[1] += 1
                if index[w] == -1:
                    work.append([w, 0])
                    recursed = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc[w] = n_sccs
                    if w == v:
                        break
                n_sccs += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return scc


def _allowed_within(
    g: BipartiteMultigraph,
    active: Sequence[int],
    match_r: list[int],
    match_t: list[int],
) -> frozenset[int]:
    """Edges of ``active`` lying in some perfect matching of their component.

    Valid for edges whose component is perfectly matched by the given arrays;
    edges incident to an unmatched node are reported as not allowed.
    """
    arcs = _pair_arcs(g, active, match_r, match_t)
    scc = _scc_of_pairs(arcs, match_r)
    allowed = {e for e in match_r if e != -1}
    allowed.update(e for r, out in enumerate(arcs) for e, head in out if scc[r] == scc[head])
    return frozenset(allowed)


def allowed_edges(
    g: BipartiteMultigraph, active: Iterable[int] | None = None
) -> frozenset[int]:
    """Edge ids contained in at least one perfect matching.

    With ``active`` given, the question is asked of the subgraph formed by
    those edges on the full node set. One perfect matching is computed, the
    matched pairs are contracted, and a non-matching edge is allowed exactly
    when its endpoints' pairs share a strongly connected component of the
    resulting digraph. Matching edges are always allowed.
    """
    if not g.balanced:
        raise GraphError("not balanced")
    forb = _restricted_forbidden(g, active)
    match_r, match_t = _match_arrays(g, forb)
    if sum(1 for e in match_r if e != -1) != g.n_r:
        raise GraphError("no perfect matching")
    act = sorted(set(active)) if active is not None else list(range(len(g.edges)))
    return _allowed_within(g, act, match_r, match_t)


def components(
    g: BipartiteMultigraph, active: Iterable[int] | None = None
) -> list[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """Connected components over the given edge set, isolated nodes included.

    Returns (r_nodes, t_nodes, edge_ids) triples ordered by first discovery
    when scanning R nodes in ascending index, then T nodes.
    """
    act = g.edge_ids() if active is None else set(active)
    # node v < n_r is R node v, node n_r + j is T node j
    n_r = g.n_r
    incident: list[list[int]] = [[] for _ in range(n_r + g.n_t)]
    for eid in act:
        r, t = g.edges[eid]
        incident[r].append(eid)
        incident[n_r + t].append(eid)
    seen = [False] * len(incident)
    out = []
    for start in range(len(incident)):
        if seen[start]:
            continue
        seen[start] = True
        nodes, comp_e, stack = [start], set(), [start]
        while stack:
            for eid in incident[stack.pop()]:
                comp_e.add(eid)
                r, t = g.edges[eid]
                for w in (r, n_r + t):
                    if not seen[w]:
                        seen[w] = True
                        nodes.append(w)
                        stack.append(w)
        comp_r = frozenset(v for v in nodes if v < n_r)
        comp_t = frozenset(v - n_r for v in nodes if v >= n_r)
        out.append((comp_r, comp_t, frozenset(comp_e)))
    return out


def matching_covered_components(
    g: BipartiteMultigraph, active: Iterable[int] | None = None
) -> list[Component]:
    """Connected components, each flagged matching-covered or not.

    A component is matching-covered when it is perfectly matchable on its own
    node set and every one of its edges lies in some perfect matching of the
    component. An isolated edge qualifies; an isolated node does not.
    """
    forb = _restricted_forbidden(g, active)
    match_r, match_t = _match_arrays(g, forb)
    act = sorted(set(active)) if active is not None else list(range(len(g.edges)))
    allowed = _allowed_within(g, act, match_r, match_t)
    comps = components(g, act)
    out = []
    for comp_r, comp_t, comp_e in comps:
        matchable = len(comp_r) == len(comp_t) and all(
            match_r[r] != -1 for r in comp_r
        )
        covered = bool(comp_e) and matchable and comp_e <= allowed
        out.append(Component(comp_r, comp_t, comp_e, covered))
    return out
