"""Bipartite multigraph representation and matching primitives.

Nodes live on two sides, R and T. Edges carry stable integer ids given by
their position in the construction list, and parallel edges are allowed.
All operations are pure functions; graphs and matchings never mutate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """A structural requirement of a graph operation is violated."""


@dataclass(frozen=True)
class Matching:
    """Pairwise non-adjacent edges; ``perfect`` means every node is covered.

    ``max_matching`` also fills ``match_r`` and ``match_t``, the matched
    edge id at each R and T node, or -1; ``match_r`` alone is a ``Start``.
    """

    edge_ids: frozenset[int]
    perfect: bool
    match_r: tuple[int, ...] = field(default=(), compare=False, repr=False)
    match_t: tuple[int, ...] = field(default=(), compare=False, repr=False)

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


# a starting matching: the matched edge id at each R node, or -1
Start = Sequence[int]


def _check_start(g: BipartiteMultigraph, active: frozenset[int], start: Start) -> list[int]:
    """The T side of ``start``; GraphError unless it is a matching within ``active``."""
    if len(start) != g.n_r:
        raise GraphError("start needs one entry per R node")
    edges, match_t = g.edges, [-1] * g.n_t
    for r, e in enumerate(start):
        if e == -1:
            continue
        if e not in active:
            raise GraphError(f"start edge {e} is outside the edge set")
        if edges[e][0] != r:
            raise GraphError(f"start edge {e} does not meet R node {r}")
        t = edges[e][1]
        if match_t[t] != -1:
            raise GraphError(f"start edges {match_t[t]} and {e} share a T node")
        match_t[t] = e
    return match_t


def greedy_start(g: BipartiteMultigraph, active: Iterable[int] | None = None) -> list[int]:
    """A ``Start`` within ``active`` (every edge by default): each R node, in
    ascending order, takes its lowest-id edge to a T node still free."""
    act, edges, free, start = _active_ids(g, active), g.edges, [True] * g.n_t, [-1] * g.n_r
    for r, adj in enumerate(g.adj_r):
        for e in adj:
            if free[edges[e][1]] and e in act:
                free[edges[e][1]], start[r] = False, e
                break
    return start


def _match_arrays(
    g: BipartiteMultigraph, active: frozenset[int], start: Start | None = None
) -> tuple[list[int], list[int]]:
    """Maximum matching by augmenting paths; returns per-node matched edge ids.

    Only edges in ``active`` are used. The search starts from ``start``
    (empty by default) and roots one augmenting search at each R node it
    leaves unmatched: a node without an augmenting path keeps none after
    later augmentations, so the result is maximum whatever the start. R
    nodes are processed in ascending index and adjacency is scanned in
    ascending edge id, so the result is deterministic for a fixed input.
    The depth-first search keeps its path on an explicit stack, so long
    augmenting paths cannot overflow the interpreter's call stack.
    """
    edges, adj_r = g.edges, g.adj_r
    if start is None:
        match_r, match_t = [-1] * g.n_r, [-1] * g.n_t
    else:
        match_r, match_t = list(start), _check_start(g, active, start)
    # a path re-matches only matched R nodes and its root, so a root matched
    # before its turn was matched by the start
    roots = [r for r, e in enumerate(match_r) if e == -1]
    if not roots:
        return match_r, match_t
    # out[r]: r's active edges as (edge id, T node) in ascending id, read on
    # r's first visit; reached[t] == root: t was reached in root's search
    out: list[list[tuple[int, int]] | None] = [None] * g.n_r
    reached = [-1] * g.n_t
    for root in roots:
        # one frame per R node on the search path: [node, iterator over its
        # active edges, edge taken from the node]; no search has visited the
        # root, since searches visit matched R nodes only
        out[root] = [(e, edges[e][1]) for e in adj_r[root] if e in active]
        path = [[root, iter(out[root]), -1]]
        while path:
            top = path[-1]
            for eid, t in top[1]:
                if reached[t] != root:
                    break
            else:
                path.pop()
                continue
            reached[t] = root
            top[2] = eid
            other = match_t[t]
            if other == -1:
                for r, _, e in path:
                    match_r[r] = e
                    match_t[edges[e][1]] = e
                break
            r = edges[other][0]
            if out[r] is None:
                out[r] = [(e, edges[e][1]) for e in adj_r[r] if e in active]
            path.append([r, iter(out[r]), -1])
    return match_r, match_t


def max_matching(
    g: BipartiteMultigraph, active: Iterable[int] | None = None, start: Start | None = None
) -> Matching:
    """Maximum-cardinality matching within the edge set ``active`` (every edge by default).

    ``start``, a matching within ``active`` as the matched edge id at each
    R node (or -1), is grown rather than an empty one. An id in ``active``
    that is not an edge, or a start that is no such matching, raises
    GraphError.
    """
    match_r, match_t = _match_arrays(g, _active_ids(g, active), start)
    ids = frozenset(match_r) - {-1}
    perfect = g.balanced and len(ids) == g.n_r
    return Matching(ids, perfect, tuple(match_r), tuple(match_t))


# residual capacity at or below this counts as none
_FLOW_EPS = 1e-12


def max_flow_min_cut(
    g: BipartiteMultigraph, capacity: Sequence[float]
) -> tuple[float, frozenset[int], frozenset[int]]:
    """Maximum flow from a source to a sink through ``g``, and a minimum cut.

    The network has an arc of capacity 1 from the source to each R node,
    one arc of capacity ``capacity[e]`` from r to t for each edge e, and an
    arc of capacity 1 from each T node to the sink. Edmonds-Karp: each
    augmenting path is a shortest one, found breadth-first, so no search
    recurses. Returns the flow value and the R and T nodes on the source
    side of a minimum cut (those the last search reached), whose capacity
    (n_r - |A|) + capacity(edges from A to T outside B) + |B| equals the
    flow value up to rounding.
    """
    if len(capacity) != g.n_edges:
        raise GraphError("one capacity per edge required")
    edges, adj_r, adj_t = g.edges, g.adj_r, g.adj_t
    flow = [0.0] * g.n_edges
    from_source = [0.0] * g.n_r  # flow on source -> r
    to_sink = [0.0] * g.n_t  # flow on t -> sink
    value = 0.0
    while True:
        # reached_r[r] / reached_t[t]: the edge that reached the node (-1 at
        # the source's own R nodes), None while the node is unreached
        reached_r: list[int | None] = [None] * g.n_r
        reached_t: list[int | None] = [None] * g.n_t
        queue = deque()
        for r in range(g.n_r):
            if 1.0 - from_source[r] > _FLOW_EPS:
                reached_r[r] = -1
                queue.append(r)
        end = -1
        while queue and end == -1:
            r = queue.popleft()
            for e in adj_r[r]:
                t = edges[e][1]
                if reached_t[t] is not None or capacity[e] - flow[e] <= _FLOW_EPS:
                    continue
                reached_t[t] = e
                if 1.0 - to_sink[t] > _FLOW_EPS:
                    end = t
                    break
                for back in adj_t[t]:
                    r2 = edges[back][0]
                    if reached_r[r2] is None and flow[back] > _FLOW_EPS:
                        reached_r[r2] = back
                        queue.append(r2)
        if end == -1:
            side_r = frozenset(r for r in range(g.n_r) if reached_r[r] is not None)
            side_t = frozenset(t for t in range(g.n_t) if reached_t[t] is not None)
            return value, side_r, side_t
        # walk back from the sink: forward edges into T nodes alternate with
        # backward edges into R nodes, up to a source arc
        path, t = [], end
        step = 1.0 - to_sink[end]
        while True:
            e = reached_t[t]
            r = edges[e][0]
            path.append(e)
            step = min(step, capacity[e] - flow[e])
            back = reached_r[r]
            if back == -1:
                step = min(step, 1.0 - from_source[r])
                break
            path.append(back)
            step = min(step, flow[back])
            t = edges[back][1]
        for i, e in enumerate(path):
            flow[e] += step if i % 2 == 0 else -step
        from_source[r] += step
        to_sink[end] += step
        value += step


def _scc_of_pairs(arcs: list[list[tuple[int, int]]], roots: Iterable[int]) -> list[int]:
    """Strongly connected components of the pair digraph ``arcs``.

    ``arcs[v]`` lists pair v's arcs as (edge id, head pair). Returns scc ids
    indexed by pair, numbered from 0 in the order Tarjan closes them, and
    -1 for pairs not reached from ``roots``.
    """
    n = len(arcs)
    # Tarjan, iterative to keep deep digraphs off the call stack; a visited
    # node is on Tarjan's stack exactly while it has no scc id
    scc = [-1] * n
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0
    n_sccs = 0
    for root in roots:
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(arcs[root]))]
        while work:
            v, out = work[-1]
            for _, w in out:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(arcs[w])))
                    break
                if scc[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        scc[w] = n_sccs
                        if w == v:
                            break
                    n_sccs += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return scc


def _active_ids(g: BipartiteMultigraph, active: Iterable[int] | None) -> frozenset[int]:
    """``active`` as a frozenset, every edge by default; the one check that ids are edges."""
    if active is None:
        return frozenset(g.edge_ids())
    act = frozenset(active)
    if act and (min(act) < 0 or max(act) >= g.n_edges):
        raise GraphError("active ids must be edges")
    return act


def _pair_path(
    out: Sequence[Sequence[int]],
    edges: Sequence[tuple[int, int]],
    match_t: Sequence[int],
    source: int,
    goal: int,
    fixed: Collection[int] = (),
) -> list[int] | None:
    """Non-matching edges of a shortest path from pair ``source`` to ``goal``.

    Breadth-first over ``out[v]``, the edges pair v may leave by, with
    heads read from ``match_t``; each pair's own matching edge is skipped,
    and so is every pair in ``fixed`` (the goal excepted), so with
    ``source == goal`` the path is an alternating cycle. Edges are listed
    from the goal back to the source; None when there is no path.
    """
    reached_by = {source: -1}  # pair -> edge that reached it
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for f in out[u]:
            mate = match_t[edges[f][1]]
            if mate == f:
                continue
            head = edges[mate][0]
            if head == goal:
                path = [f]
                while u != source:
                    path.append(reached_by[u])
                    u = edges[path[-1]][0]
                return path
            if head not in reached_by and head not in fixed:
                reached_by[head] = f
                queue.append(head)
    return None


class PairAnalysis:
    """One maximum matching of an edge set, and the parts and edges it implies.

    The edge set is ``active`` (every edge by default; an id that is not
    an edge raises GraphError from ``max_matching``) on the full node set,
    read in ascending order as ``edge_list``. Its ``matching`` is maximum,
    not necessarily perfect.

    The analysis reads a digraph on the matched (r, t) pairs: an edge
    (r, t) of the set whose two ends are matched leads from r's pair to
    the pair matched at t. The parts are its strongly connected classes,
    each holding the two nodes of every pair in it, plus each unmatched
    node in a part of its own (``same_part``, ``n_parts``). ``allowed`` holds the
    edges inside one part, and ``mandatory`` the matching's edges at R
    nodes with no other allowed edge. On a part of the graph that the
    matching covers perfectly, ``allowed`` holds exactly the edges lying in
    some perfect matching of that part, ``mandatory`` the edges lying in
    every one, and each part, with its allowed edges, is one connected
    component of the allowed subgraph (Lovasz-Plummer, *Matching Theory*;
    Tassa, TCS 2012).

    ``start``, a matching within the edge set as the matched edge at each
    R node (see ``max_matching``), is grown into the analysis' matching
    instead of an empty one. When the result is perfect, ``allowed``,
    ``mandatory``, the parts and every fact read from them are the same
    whichever perfect matching is found; ``matching`` is not. A start
    therefore serves readers of the former only. ``without`` derives the
    analysis of the set less one edge from a perfect analysis.

    Built either way, an analysis holds the same four fields: ``_pm``, the
    matching as its ``match_r`` and ``match_t``; ``_scc``, a part label at
    each R node (-1 where unmatched); ``_allowed_at``, the allowed edges at
    each R node in ascending id; and ``changed``. Every other answer is
    read from them. A cold analysis also keeps the ``matching`` that
    ``max_matching`` returned and its edge set; a derived one builds the
    former from ``_pm`` and, for ``without``, the latter from its parent's
    less the removed edge. ``parts`` derives one analysis per part.
    """

    def __init__(
        self,
        g: BipartiteMultigraph,
        active: Iterable[int] | None = None,
        start: Start | None = None,
    ):
        act = frozenset(g.edge_ids() if active is None else active)
        matching = max_matching(g, act, start)
        edges, match_r, match_t = g.edges, matching.match_r, matching.match_t
        # arcs[r]: the set's edges at pair r whose T end is matched, in
        # ascending id, as (edge id, head pair); pairs are named by their r
        # node, and r's matching edge and its parallels are self-loops
        arcs: list[list[tuple[int, int]]] = [[] for _ in range(g.n_r)]
        for e in sorted(act):
            r, t = edges[e]
            if match_r[r] != -1 and match_t[t] != -1:
                arcs[r].append((e, edges[match_t[t]][0]))
        scc = _scc_of_pairs(arcs, [r for r, e in enumerate(match_r) if e != -1])
        self.graph, self.matching, self._active = g, matching, act
        self._pm, self._scc = (match_r, match_t), scc
        self._allowed_at = [[e for e, h in out if scc[h] == s] for out, s in zip(arcs, scc)]
        # the R nodes whose allowed edges ``without`` changed; all of them here
        self.changed: Sequence[int] = range(g.n_r)

    @cached_property
    def matching(self) -> Matching:
        (match_r, match_t), g = self._pm, self.graph
        ids = frozenset(match_r) - {-1}
        return Matching(ids, g.balanced and len(ids) == g.n_r, tuple(match_r), tuple(match_t))

    @cached_property
    def allowed(self) -> frozenset[int]:
        return frozenset(chain.from_iterable(self._allowed_at))

    @cached_property
    def _active(self) -> frozenset[int]:
        # the set of the nearest analysis up the chain that holds one, less
        # the edges removed since
        removed, node = [], self
        while "_active" not in vars(node):
            removed.append(node._removed)
            node = node._parent
        return node._active.difference(removed)

    @cached_property
    def edge_list(self) -> list[int]:
        return sorted(self._active)

    @property
    def mandatory(self) -> frozenset[int]:
        """The matching's edges at R nodes with no other allowed edge."""
        return frozenset(self.mandatory_at(range(self.graph.n_r)))

    def mandatory_at(self, rs: Iterable[int]) -> list[int]:
        """The matching's edges at the R nodes ``rs`` that have no other allowed edge."""
        match_r, allowed_at = self._pm[0], self._allowed_at
        return [match_r[r] for r in rs if len(allowed_at[r]) == 1]

    def part_labels(self) -> Sequence[int]:
        """A label at each R node, shared by the pairs of one part; -1 at an unmatched node."""
        return self._scc

    def same_part(self, r: int, t: int) -> bool:
        """Whether R node r and T node t lie in one part."""
        mate = self._pm[1][t]
        return mate != -1 and self._scc[r] == self._scc[self.graph.edges[mate][0]]

    def n_parts(self) -> int:
        """The number of parts, each unmatched node counted as one."""
        scc = self._scc
        return len(set(scc) - {-1}) + scc.count(-1) + self._pm[1].count(-1)

    def without(self, e: int) -> PairAnalysis | None:
        """The analysis of this set less edge e; None when that has no perfect matching.

        This analysis' matching must be perfect (GraphError otherwise). A
        perfect matching of the set is one of each part, so removing e can
        only split e's part P: every other part keeps its pairs, matching
        edges and allowed edges. An e outside ``allowed`` changes nothing,
        and the result shares every fact of this analysis. An e in the
        matching is swapped out along an alternating cycle through its pair
        inside P. P stays one part when e's tail pair still reaches its head
        pair; otherwise P's pairs alone are re-analysed, over P's allowed
        edges less e. The R nodes whose allowed edges changed are the
        result's ``changed``.
        """
        g, (match_r, match_t) = self.graph, self._pm
        if not g.balanced or -1 in match_r:
            raise GraphError("without needs a perfect matching")
        edges, scc, old = g.edges, self._scc, self._allowed_at
        r, t = edges[e]
        if e not in old[r]:
            return self._child(e, self._pm, scc, old, ())
        if match_r[r] == e:
            cycle = _pair_path(old, edges, match_t, r, r)
            if cycle is None:
                return None
            match_r, match_t = list(match_r), list(match_t)
            for f in cycle:
                v, u = edges[f]
                match_r[v] = match_t[u] = f
        allowed_at = list(old)
        allowed_at[r] = [f for f in old[r] if f != e]
        head = edges[match_t[t]][0]
        if head == r or _pair_path(allowed_at, edges, match_t, r, head) is not None:
            return self._child(e, (match_r, match_t), scc, allowed_at, (r,))
        label = scc[r]
        part = [v for v, s in enumerate(scc) if s == label]
        local = {v: i for i, v in enumerate(part)}
        arcs = [[(f, local[edges[match_t[edges[f][1]]][0]]) for f in allowed_at[v]] for v in part]
        sub = _scc_of_pairs(arcs, range(len(part)))
        # P's first sub-part keeps its label, the others take unused ones
        scc, fresh = list(scc), max(scc)
        for i, v in enumerate(part):
            scc[v] = label if sub[i] == 0 else fresh + sub[i]
            allowed_at[v] = [f for f, h in arcs[i] if sub[h] == sub[i]]
        changed = [v for v in part if len(allowed_at[v]) < len(old[v])]
        return self._child(e, (match_r, match_t), scc, allowed_at, changed)

    def _child(
        self,
        e: int,
        pm: tuple[Sequence[int], Sequence[int]],
        scc: list[int],
        allowed_at: list[list[int]],
        changed: Sequence[int],
    ) -> PairAnalysis:
        child = object.__new__(PairAnalysis)
        child.graph, child._parent, child._removed = self.graph, self, e
        child._pm, child._scc, child._allowed_at = pm, scc, allowed_at
        child.changed = changed
        return child

    def parts(self) -> Iterator[PairAnalysis]:
        """This analysis restricted to each part that holds a pair, ordered by lowest r node.

        A part's edge set is its allowed edges, and it holds this analysis'
        four fields at the part's pairs alone: what a cold analysis of that
        set holds, up to which perfect matching and which label.
        """
        g, match_r, allowed_at = self.graph, self._pm[0], self._allowed_at
        members: dict[int, list[int]] = {}
        for r, s in enumerate(self._scc):
            if s != -1:
                members.setdefault(s, []).append(r)
        for s, rs in members.items():
            pm_r, pm_t, scc, at = [-1] * g.n_r, [-1] * g.n_t, [-1] * g.n_r, [()] * g.n_r
            for r in rs:
                e = pm_r[r] = match_r[r]
                pm_t[g.edges[e][1]], scc[r], at[r] = e, s, allowed_at[r]
            part = object.__new__(PairAnalysis)
            part.graph, part._pm, part._scc, part._allowed_at = g, (pm_r, pm_t), scc, at
            part.changed = rs
            part._active = part.allowed = frozenset(chain.from_iterable(allowed_at[r] for r in rs))
            yield part

    def edges_at(self, r: int) -> list[int]:
        """The set's edges at R node r, in ascending id."""
        return [e for e in self.graph.adj_r[r] if e in self._active]

    def allowed_components(self) -> list[frozenset[int]]:
        """The allowed edges of each part that holds a pair, ordered by lowest r node."""
        groups: dict[int, list[int]] = {}
        for s, allowed in zip(self._scc, self._allowed_at):
            if s != -1:
                groups.setdefault(s, []).extend(allowed)
        return [frozenset(group) for group in groups.values()]

    def alternating_path(
        self, match_t: Sequence[int], source: int, goal: int, fixed: Collection[int] = ()
    ) -> list[int] | None:
        """Non-matching edges of a shortest path from pair ``source`` to ``goal``.

        ``source`` and ``goal`` must lie in one part, and ``match_t`` must
        be a perfect matching of the set's pairs there. Breadth-first over
        each pair's allowed edges in ascending id (see ``_pair_path``): an
        arc between two pairs of one part lies on a cycle, so it is
        allowed, and a pair reached by any other arc never leads back into
        the part, so the search over every arc of the pair digraph returns
        the same path. Heads are read from ``match_t``, the current
        matching, so the search stays valid after the matching is swapped
        along earlier paths. Each pair's own matching edge is skipped, and
        so is every pair in ``fixed``. With ``source == goal`` the path is
        an alternating cycle through that pair. Edges are listed from the
        goal back to the source; None when there is no path.
        """
        return _pair_path(self._allowed_at, self.graph.edges, match_t, source, goal, fixed)


def allowed_edges(
    g: BipartiteMultigraph, active: Iterable[int] | None = None
) -> frozenset[int]:
    """Edge ids contained in at least one perfect matching.

    With ``active`` given, the question is asked of the subgraph formed by
    those edges on the full node set (see ``PairAnalysis``).
    """
    if not g.balanced:
        raise GraphError("not balanced")
    pairs = PairAnalysis(g, active)
    if not pairs.matching.perfect:
        raise GraphError("no perfect matching")
    return pairs.allowed


def components(
    g: BipartiteMultigraph, active: Iterable[int] | None = None
) -> list[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """Connected components over the given edge set, isolated nodes included.

    Returns (r_nodes, t_nodes, edge_ids) triples ordered by first discovery
    when scanning R nodes in ascending index, then T nodes.
    """
    act = _active_ids(g, active)
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
    active = _active_ids(g, active)  # read twice below
    pairs = PairAnalysis(g, active)
    match_r = pairs.matching.match_r
    out = []
    for comp_r, comp_t, comp_e in components(g, active):
        matchable = len(comp_r) == len(comp_t) and all(match_r[r] != -1 for r in comp_r)
        covered = bool(comp_e) and matchable and comp_e <= pairs.allowed
        out.append(Component(comp_r, comp_t, comp_e, covered))
    return out
