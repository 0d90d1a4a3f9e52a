"""Instance generators.

Four families: set-cover encodings (three variants of one gadget
construction), a tightness family for the ear heuristic, a two-scenario
gadget whose optimum measures a shortest nice path, and seeded random
instances.  All generators are deterministic given their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .graph_core import BipartiteMultigraph
from .instance import (
    InstanceError,
    RapInstance,
    Solution,
    _tokenize,
    balanced_completion,
    check_feasible,
    format_instance,
    make_instance,
    solution_for,
    uniform_instance,
    verify_solution,
)

__all__ = [
    "ReducedInstance",
    "SetCoverInstance",
    "VARIANTS",
    "decode_cover",
    "format_reduced",
    "format_set_cover",
    "from_set_cover",
    "from_snpp",
    "gk_family",
    "make_set_cover",
    "parse_set_cover",
    "random_instance",
    "random_snpp",
]

VARIANTS = ("basic", "uniform_weighted", "uniform_card")

ROLES = ("E1", "E2", "E3", "E4", "E5", "E6")


@dataclass(frozen=True)
class SetCoverInstance:
    """Ground set {1..k} plus a list of non-empty subsets covering it."""

    k: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.k < 1:
            raise InstanceError("ground set must be non-empty")
        ground = set(range(1, self.k + 1))
        seen: set[int] = set()
        for s in self.sets:
            if not s:
                raise InstanceError("sets must be non-empty")
            if not s <= ground:
                raise InstanceError("set element outside the ground set")
            seen |= s
        if seen != ground:
            raise InstanceError("sets do not cover the ground set")


def make_set_cover(k: int, sets: Iterable[Iterable[int]]) -> SetCoverInstance:
    return SetCoverInstance(k, tuple(frozenset(s) for s in sets))


@dataclass(frozen=True)
class ReducedInstance:
    """A set-cover encoding together with its decode metadata.

    ``roles`` tags every edge with the gadget class it belongs to (one tag
    per edge, so the classes partition the edge set).  ``indicator`` maps
    each set index to the edge whose presence selects that set; dropping
    all other information from a solution recovers a cover.
    """

    rap: RapInstance
    variant: str
    setcover: SetCoverInstance
    roles: tuple[str, ...]
    indicator: Mapping[int, int]
    edge_comments: Mapping[int, str]

    def __post_init__(self):
        if len(self.roles) != self.rap.graph.n_edges:
            raise InstanceError("one role tag per edge required")
        if any(role not in ROLES for role in self.roles):
            raise InstanceError("unknown role tag")

    def role_ids(self, role: str) -> frozenset[int]:
        return frozenset(e for e, tag in enumerate(self.roles) if tag == role)


def from_set_cover(sc: SetCoverInstance, variant: str = "basic") -> ReducedInstance:
    """Encode a set-cover instance as an assignment-robustness instance.

    Every variant builds the same skeleton: one selector chain per set and
    one element chain per ground element, wired by the membership relation.
    ``basic`` charges 1 per selected set (role E4), keeps everything else
    free, and makes only the element chains (role E1) vulnerable.
    ``uniform_weighted`` keeps the E4 cost profile but makes every edge
    vulnerable; to survive that, each E3/E5 chain edge is widened into a
    six-cycle.  ``uniform_card`` additionally splits each E1 edge into a
    three-edge path and charges 1 everywhere, so the optimum counts
    q + 2k + (minimum cover size) edges, q being the number of forced
    chain edges (roles E1, E3, E5).
    """
    if variant not in VARIANTS:
        raise InstanceError(f"unknown variant {variant!r}")
    k, sets = sc.k, sc.sets
    l = len(sets)
    gadgets = variant in ("uniform_weighted", "uniform_card")
    subdivide = variant == "uniform_card"

    # t side: u's, vbar's, w's, then gadget nodes; r side: v's, ubar's,
    # vtil's, then gadget nodes.  Gadget nodes appear six-cycle block
    # first (E3 rows, then E5 rows), subdivision block last.
    t_names = [f"u{s}" for s in range(1, k + 1)]
    t_names += [f"vbar(S{j})" for j in range(1, l + 1)]
    t_names += [f"w(S{j})" for j in range(1, l + 1)]
    r_names = [f"v(S{j})" for j in range(1, l + 1)]
    r_names += [f"ubar{s}" for s in range(1, k + 1)]
    r_names += [f"vtil(S{j})" for j in range(1, l + 1)]

    u = {s: s - 1 for s in range(1, k + 1)}
    vbar = {j: k + j for j in range(l)}
    w = {j: k + l + j for j in range(l)}
    v = {j: j for j in range(l)}
    ubar = {s: l + s - 1 for s in range(1, k + 1)}
    vtil = {j: l + k + j for j in range(l)}

    def new_t(name: str) -> int:
        t_names.append(name)
        return len(t_names) - 1

    def new_r(name: str) -> int:
        r_names.append(name)
        return len(r_names) - 1

    cyc: dict[tuple[str, int], tuple[int, int, int, int]] = {}
    if gadgets:
        for role in ("E3", "E5"):
            for j in range(l):
                tag = f"{role} S{j + 1}"
                cyc[(role, j)] = (
                    new_t(f"x1({tag})"),
                    new_r(f"x2({tag})"),
                    new_t(f"y1({tag})"),
                    new_r(f"y2({tag})"),
                )
    z1 = {}
    z2 = {}
    if subdivide:
        for s in range(1, k + 1):
            z1[s] = new_t(f"z1(u{s})")
            z2[s] = new_r(f"z2(u{s})")

    edges: list[tuple[int, int]] = []
    roles: list[str] = []
    comments: dict[int, str] = {}
    indicator: dict[int, int] = {}

    def emit(r: int, t: int, role: str, note: str = "") -> int:
        eid = len(edges)
        edges.append((r, t))
        roles.append(role)
        comments[eid] = f"{role} {{{r_names[r]},{t_names[t]}}}{note}"
        return eid

    def emit_cycle(vr: int, wt: int, role: str, j: int) -> None:
        x1, x2, y1, y2 = cyc[(role, j)]
        emit(vr, x1, role)
        emit(x2, x1, role)
        emit(x2, wt, role)
        emit(vr, y1, role)
        emit(y2, y1, role)
        emit(y2, wt, role)

    # edge ids are grouped by role, ascending; chains expand in place
    for s in range(1, k + 1):
        if subdivide:
            emit(ubar[s], z1[s], "E1")
            emit(z2[s], z1[s], "E1")
            emit(z2[s], u[s], "E1")
        else:
            emit(ubar[s], u[s], "E1")
    for j in range(l):
        for s in sorted(sets[j]):
            emit(v[j], u[s], "E2")
    for j in range(l):
        if gadgets:
            emit_cycle(v[j], vbar[j], "E3", j)
        else:
            emit(v[j], vbar[j], "E3")
    for j in range(l):
        indicator[j] = emit(vtil[j], vbar[j], "E4", f" indicator S{j + 1}")
    for j in range(l):
        if gadgets:
            emit_cycle(vtil[j], w[j], "E5", j)
        else:
            emit(vtil[j], w[j], "E5")
    for j in range(l):
        for s in sorted(sets[j]):
            emit(ubar[s], w[j], "E6")

    if variant == "uniform_card":
        costs = [1.0] * len(edges)
    else:
        costs = [1.0 if role == "E4" else 0.0 for role in roles]
    if variant == "basic":
        vulnerable = {e for e, role in enumerate(roles) if role == "E1"}
    else:
        vulnerable = set(range(len(edges)))

    rap = make_instance(len(r_names), len(t_names), edges, vulnerable, costs)
    return ReducedInstance(rap, variant, sc, tuple(roles), indicator, comments)


def decode_cover(ri: ReducedInstance, x: Solution) -> tuple[frozenset[int], ...]:
    """Read the selected cover off a feasible solution.

    For the two weighted variants the zero-cost edges are added back in
    first; a solver may have dropped them without changing the objective.
    The solution is re-verified, so an infeasible ``x`` fails loudly
    before any cover is produced.
    """
    ids = set(x.edge_ids)
    if ri.variant != "uniform_card":
        ids |= {e for e, role in enumerate(ri.roles) if role != "E4"}
    verify_solution(ri.rap, solution_for(ri.rap, ids))
    chosen = sorted(j for j, e in ri.indicator.items() if e in ids)
    cover = tuple(ri.setcover.sets[j] for j in chosen)
    covered = set().union(*cover) if cover else set()
    if covered != set(range(1, ri.setcover.k + 1)):
        raise RuntimeError("reduction violated")
    return cover


def format_reduced(ri: ReducedInstance) -> str:
    """Instance text with the generator's numbering documented up front."""
    sc = ri.setcover
    head = [
        f"# set-cover reduction ({ri.variant}): k={sc.k}, {len(sc.sets)} sets",
        "# t side: u1..uk, vbar(Sj), w(Sj), then gadget nodes",
        "# r side: v(Sj), ubar1..ubark, vtil(Sj), then gadget nodes",
        "# edge ids grouped by role E1..E6; chain gadgets expand in place",
    ]
    return "\n".join(head) + "\n" + format_instance(ri.rap, ri.edge_comments)


def gk_family(k: int) -> RapInstance:
    """Worst-case family for the ear heuristic: k three-edge paths between
    two hubs, consecutive paths tied together by chords.

    Nodes are 0..2k+1 with node 0 and the odd nodes >= 3 on the r side,
    node 1 and the even nodes on the t side.  Edges: {0,1}, the paths
    0-i-(i+1)-1 for even i in [2, 2k], and the chords {i+1, i+2} and
    {i, i+3} for even i in [4, 2k-2].  Every edge is vulnerable, all
    costs are one.  The optimum keeps 2k+2 edges (one Hamiltonian
    cycle) while keeping all k paths, at 3k edges, is also admissible
    for the ear heuristic.
    """
    if k < 3:
        raise InstanceError("gk family needs k >= 3")
    r_index = {0: 0}
    t_index = {1: 0}
    for node in range(2, 2 * k + 2):
        if node % 2 == 1:
            r_index[node] = len(r_index)
        else:
            t_index[node] = len(t_index)

    def edge(a: int, b: int) -> tuple[int, int]:
        if a in r_index and b in t_index:
            return (r_index[a], t_index[b])
        return (r_index[b], t_index[a])

    edges = [edge(0, 1)]
    for i in range(2, 2 * k + 1, 2):
        edges += [edge(0, i), edge(i, i + 1), edge(i + 1, 1)]
    for j in range(4, 2 * k - 1, 2):
        edges += [edge(j + 1, j + 2), edge(j, j + 3)]
    return uniform_instance(k + 1, k + 1, edges)


def from_snpp(
    h: BipartiteMultigraph, s: tuple[str, int], t: tuple[str, int]
) -> RapInstance:
    """Two-scenario instance whose optimum measures a shortest nice path.

    ``s`` must name a t-side node of ``h`` (as ``("t", index)``) and ``t``
    an r-side node.  Two fresh nodes x (r side) and y (t side) are added
    with edges f1 = {s, x}, f2 = {x, y}, g = {y, t}, getting ids m, m+1,
    m+2; f1 and f2 form the vulnerable set and every cost is one.  When
    the result is feasible its optimum equals n/2 + L/2 + 2, where n is
    the node count of ``h`` and L the node count of a shortest s-t path
    whose complement is perfectly matchable in ``h``.
    """
    if not h.balanced:
        raise InstanceError("graph must be balanced")
    side_s, s_idx = s
    side_t, t_idx = t
    if side_s != "t" or not (0 <= s_idx < h.n_t):
        raise InstanceError("s must be a t-side node")
    if side_t != "r" or not (0 <= t_idx < h.n_r):
        raise InstanceError("t must be an r-side node")
    x = h.n_r
    y = h.n_t
    edges = list(h.edges) + [(x, s_idx), (x, y), (t_idx, y)]
    m = h.n_edges
    return make_instance(h.n_r + 1, h.n_t + 1, edges, {m, m + 1}, [1.0] * len(edges))


def _draw_feasible(
    n_r: int,
    n_t: int,
    edge_prob: float,
    seed: int,
    build: Callable[[list[tuple[int, int]], np.random.Generator], RapInstance],
) -> RapInstance:
    """Draw edge sets until ``build`` makes a robustly feasible instance of one.

    Each of the n_r * n_t node pairs gets an edge with probability
    ``edge_prob``; ``build`` takes those edges and the generator, which it
    may draw from further. Unbalanced results are judged after zero-cost
    completion. Gives up after 100 attempts.
    """
    if n_r < 1 or n_t < 1:
        raise InstanceError("need at least one node per side")
    if not 0.0 <= edge_prob <= 1.0:
        raise InstanceError("edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        edges = [(r, t) for r in range(n_r) for t in range(n_t) if rng.random() < edge_prob]
        inst = build(edges, rng)
        if check_feasible(balanced_completion(inst).instance):
            return inst
    raise InstanceError("could not generate feasible instance")


def random_instance(
    n_r: int,
    n_t: int,
    edge_prob: float,
    vuln_prob: float,
    cost_range: tuple[int, int] = (1, 10),
    seed: int = 0,
) -> RapInstance:
    """Seeded random instance, regenerated until it is robustly feasible.

    Edges are drawn by ``_draw_feasible``; each is vulnerable with
    probability ``vuln_prob`` and costs an integer drawn uniformly from
    ``cost_range`` (both ends included).
    """
    if not 0.0 <= vuln_prob <= 1.0:
        raise InstanceError("vuln_prob must lie in [0, 1]")
    lo, hi = cost_range
    if lo < 0 or hi < lo:
        raise InstanceError("cost range must satisfy 0 <= lo <= hi")

    def build(edges: list[tuple[int, int]], rng: np.random.Generator) -> RapInstance:
        vulnerable = {e for e in range(len(edges)) if rng.random() < vuln_prob}
        costs = [float(c) for c in rng.integers(lo, hi, size=len(edges), endpoint=True)]
        return make_instance(n_r, n_t, edges, vulnerable, costs)

    return _draw_feasible(n_r, n_t, edge_prob, seed, build)


def random_snpp(n: int, edge_prob: float, seed: int = 0) -> RapInstance:
    """Seeded random nice-path gadget: ``from_snpp`` on an n x n graph drawn
    by ``_draw_feasible``, with the fixed terminals t0 and r0."""
    return _draw_feasible(
        n, n, edge_prob, seed,
        lambda edges, _: from_snpp(BipartiteMultigraph(n, n, edges), ("t", 0), ("r", 0)),
    )


def parse_set_cover(text: str) -> SetCoverInstance:
    """Read the line format::

        setcover <k> <l>
        set <elem> <elem> ...   # one line per set, elements 1-based
    """
    rows = _tokenize(text)
    if not rows or rows[0][0] != "setcover" or len(rows[0]) != 3:
        raise InstanceError("expected header 'setcover <k> <l>'")
    try:
        k, l = int(rows[0][1]), int(rows[0][2])
    except ValueError as exc:
        raise InstanceError("setcover header needs two integers") from exc
    body = rows[1:]
    if len(body) != l:
        raise InstanceError(f"header says {l} sets, found {len(body)}")
    sets = []
    for row in body:
        if row[0] != "set" or len(row) < 2:
            raise InstanceError(f"expected 'set <elem> ...', got {' '.join(row)!r}")
        try:
            sets.append(frozenset(int(tok) for tok in row[1:]))
        except ValueError as exc:
            raise InstanceError(f"bad element in {' '.join(row)!r}") from exc
    return SetCoverInstance(k, tuple(sets))


def format_set_cover(sc: SetCoverInstance) -> str:
    lines = [f"setcover {sc.k} {len(sc.sets)}"]
    for s in sc.sets:
        lines.append("set " + " ".join(str(e) for e in sorted(s)))
    return "\n".join(lines) + "\n"
