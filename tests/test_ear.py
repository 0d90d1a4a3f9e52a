"""Ear decomposition and the sparse solver built on it."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from rapkit.ear import (
    Ear,
    _lex_min_pm,
    ear_decomposition,
    format_ears,
    parse_ear_order,
    solve_ear,
)
from rapkit.graph_core import (
    BipartiteMultigraph,
    GraphError,
    PairAnalysis,
    allowed_edges,
    matching_covered_components,
    max_matching,
)
from rapkit.instance import (
    InstanceError,
    _cycle_swap,
    make_instance,
    uniform_instance,
    verify_solution,
)
from rapkit.reductions import gk_family, random_instance

from oracles import brute_feasible, enumerate_perfect_matchings, max_matching_size
from strategies import small_instance
from test_graph_core import C4_EDGES, gk_graph


def path_nodes(g, edge_ids):
    """Node sequence of an edge path, tagged ('r', i) / ('t', j)."""
    ends = []
    for e in edge_ids:
        r, t = g.edges[e]
        ends.append((("r", r), ("t", t)))
    if len(ends) == 1:
        return list(ends[0])
    first = ends[0][0] if ends[0][0] not in ends[1] else ends[0][1]
    seq = [first]
    for pair in ends:
        a, b = pair
        nxt = b if a == seq[-1] else a
        assert seq[-1] in pair, "edges do not chain into a path"
        seq.append(nxt)
    return seq


def check_decomposition(g, comp, dec):
    """Structural audit: odd ears, endpoints in the prefix, fresh interiors."""
    first = dec.ears[0]
    assert len(first.edge_ids) == 1 and not first.trivial
    seen = set(path_nodes(g, first.edge_ids))
    covered = set(first.edge_ids)
    for ear in dec.ears[1:]:
        nodes = path_nodes(g, ear.edge_ids)
        assert len(ear.edge_ids) % 2 == 1
        if ear.trivial:
            assert len(ear.edge_ids) == 1
        assert nodes[0] in seen and nodes[-1] in seen
        assert nodes[0][0] != nodes[-1][0], "ear endpoints on one side"
        interior = nodes[1:-1]
        assert len(set(interior)) == len(interior)
        for v in interior:
            assert v not in seen
        seen.update(nodes)
        covered.update(ear.edge_ids)
    comp_nodes = {("r", r) for r in comp.r_nodes} | {("t", t) for t in comp.t_nodes}
    assert seen == comp_nodes
    assert covered == set(comp.edge_ids)


def test_single_edge_component():
    g = BipartiteMultigraph(1, 1, [(0, 0)])
    dec = ear_decomposition(PairAnalysis(g))
    assert dec.ears == (Ear((0,), trivial=False),)
    assert dec.edge_set() == {0}


def test_four_cycle_decomposition():
    g = BipartiteMultigraph(2, 2, C4_EDGES)
    dec = ear_decomposition(PairAnalysis(g))
    assert dec.ears == (
        Ear((0,), trivial=False),
        Ear((1, 2, 3), trivial=False),
    )
    comp = matching_covered_components(g)[0]
    check_decomposition(g, comp, dec)


def test_six_cycle_decomposition():
    edges = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]
    g = BipartiteMultigraph(3, 3, edges)
    dec = ear_decomposition(PairAnalysis(g))
    assert dec.ears == (
        Ear((0,), trivial=False),
        Ear((1, 2, 3, 4, 5), trivial=False),
    )


def test_parallel_pair_decomposition():
    g = BipartiteMultigraph(1, 1, [(0, 0), (0, 0)])
    dec = ear_decomposition(PairAnalysis(g))
    assert dec.ears == (
        Ear((0,), trivial=False),
        Ear((1,), trivial=True),
    )
    assert dec.nontrivial() == ()


def test_not_matching_covered_rejected():
    # path of three edges: middle edge is on no perfect matching
    g = BipartiteMultigraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(GraphError, match="not matching-covered"):
        ear_decomposition(PairAnalysis(g))
    # two separate components at once are also rejected
    g2 = BipartiteMultigraph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(GraphError, match="not matching-covered"):
        ear_decomposition(PairAnalysis(g2))


def test_gk_decomposition_is_structural():
    for k in (3, 4, 5):
        g = gk_graph(k)
        comp = matching_covered_components(g)[0]
        dec = ear_decomposition(PairAnalysis(g))
        check_decomposition(g, comp, dec)


def test_random_order_decomposition_is_structural():
    g = gk_graph(3)
    comp = matching_covered_components(g)[0]
    for seed in range(6):
        dec = ear_decomposition(PairAnalysis(g), rng=np.random.default_rng(seed))
        check_decomposition(g, comp, dec)


def test_solve_ear_four_cycle():
    inst = uniform_instance(2, 2, C4_EDGES)
    sol = solve_ear(inst)
    assert sol.edge_ids == frozenset({0, 1, 2, 3})
    assert sol.cost == 4.0


def test_solve_ear_keeps_vulnerable_parallel_pair():
    inst = uniform_instance(1, 1, [(0, 0), (0, 0)])
    sol = solve_ear(inst)
    assert sol.edge_ids == frozenset({0, 1})

    lopsided = make_instance(1, 1, [(0, 0), (0, 0)], vulnerable=[0], costs=[1, 1])
    assert solve_ear(lopsided).edge_ids == frozenset({0, 1})

    safe_first = make_instance(1, 1, [(0, 0), (0, 0)], vulnerable=[1], costs=[1, 1])
    assert solve_ear(safe_first).edge_ids == frozenset({0})


def test_solve_ear_trace_collects_decompositions():
    inst = uniform_instance(2, 2, C4_EDGES)
    decs = []
    sol = solve_ear(inst, trace=decs)
    assert len(decs) == 1
    covered = frozenset(e for ear in decs[0].ears for e in ear.edge_ids)
    assert covered == sol.edge_ids


def test_solve_ear_gk_within_bound():
    # the depth-first ear growth pays one four-cycle plus a single long ear
    for k in (3, 4, 5):
        g = gk_graph(k)
        inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
        sol = solve_ear(inst)
        verify_solution(inst, sol)
        assert 2 * k + 2 <= len(sol.edge_ids) <= 3 * k
        assert len(sol.edge_ids) == 2 * k + 3
        assert sol.edge_ids == solve_ear(inst).edge_ids


def test_solve_ear_random_orders_stay_feasible():
    g = gk_graph(3)
    inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
    sizes = set()
    for seed in range(10):
        sol = solve_ear(inst, ear_order=f"random:{seed}")
        verify_solution(inst, sol)
        assert len(sol.edge_ids) <= 3 * 3
        sizes.add(len(sol.edge_ids))
        again = solve_ear(inst, ear_order=f"random:{seed}")
        assert again.edge_ids == sol.edge_ids
    assert sizes, "no runs recorded"


def test_solve_ear_unbalanced():
    # two workers, one task: completion adds a dummy task, output drops it
    inst = uniform_instance(2, 1, [(0, 0), (1, 0)])
    sol = solve_ear(inst)
    assert sol.edge_ids <= {0, 1}
    edges = list(inst.graph.edges)
    for f in sorted(inst.vulnerable):
        kept = [e for e in sol.edge_ids if e != f]
        assert max_matching_size(2, 1, tuple(edges[e] for e in kept)) == 1


def test_solve_ear_nominal_keeps_only_matching():
    # a perfect matching plus parallel copies: copies are trivial ears
    edges = [(0, 0), (1, 1), (0, 0), (1, 1)]
    inst = make_instance(2, 2, edges, vulnerable=[], costs=[1, 1, 1, 1])
    assert solve_ear(inst).edge_ids == frozenset({0, 1})


def test_solve_ear_infeasible_rejected():
    inst = uniform_instance(1, 1, [(0, 0)])
    with pytest.raises(InstanceError, match="infeasible instance"):
        solve_ear(inst)


def test_parse_ear_order():
    assert parse_ear_order("lowest") is None
    rng = parse_ear_order("random:7")
    assert isinstance(rng, np.random.Generator)
    for bad in ("", "best", "random:", "random:x"):
        with pytest.raises(ValueError, match="unknown ear order"):
            parse_ear_order(bad)


def test_format_ears():
    g = BipartiteMultigraph(2, 2, C4_EDGES)
    text = format_ears(ear_decomposition(PairAnalysis(g)))
    assert text == "ear 0 e0\near 1 e1,e2,e3"
    g2 = BipartiteMultigraph(1, 1, [(0, 0), (0, 0)])
    assert format_ears(ear_decomposition(PairAnalysis(g2))).splitlines()[1] == "ear 1 e1 trivial"


@settings(max_examples=120, deadline=None)
@given(small_instance())
def test_solve_ear_feasible_and_sparse(data):
    n_r, n_t, edges, vulnerable, costs = data
    if n_r != n_t:
        return
    inst = make_instance(n_r, n_t, edges, vulnerable=vulnerable, costs=costs)
    x_all = set(range(len(edges)))
    if not brute_feasible(n_r, n_t, edges, vulnerable, x_all):
        return
    sol = solve_ear(inst)
    assert brute_feasible(n_r, n_t, edges, vulnerable, set(sol.edge_ids))
    assert len(sol.edge_ids) <= 3 * n_t


@settings(max_examples=80, deadline=None)
@given(small_instance())
def test_decomposition_structure_and_ear_count(data):
    n_r, n_t, edges, vulnerable, costs = data
    if n_r != n_t:
        return
    g = BipartiteMultigraph(n_r, n_t, edges)
    if max_matching_size(n_r, n_t, tuple(edges)) != n_t:
        return
    active = allowed_edges(g)
    for comp in matching_covered_components(g, active):
        if not comp.edge_ids:
            continue
        dec = ear_decomposition(PairAnalysis(g, comp.edge_ids))
        check_decomposition(g, comp, dec)
        assert len(dec.nontrivial()) <= max(len(comp.t_nodes) - 1, 0)


@settings(max_examples=150, deadline=None)
@given(small_instance())
def test_trace_follows_allowed_components(data):
    # one decomposition per edge-bearing component of the allowed subgraph,
    # in the order the components are found
    n_r, n_t, edges, vulnerable, costs = data
    if not brute_feasible(n_r, n_t, edges, vulnerable, set(range(len(edges)))):
        return
    inst = make_instance(n_r, n_t, edges, vulnerable=vulnerable, costs=costs)
    decs = []
    solve_ear(inst, trace=decs)
    g = inst.graph
    comps = matching_covered_components(g, allowed_edges(g))
    assert [d.edge_set() for d in decs] == [c.edge_ids for c in comps if c.edge_ids]


@settings(max_examples=200, deadline=None)
@given(small_instance())
def test_lex_min_pm_is_least_perfect_matching(data):
    n_r, n_t, edges, _, _ = data
    g = BipartiteMultigraph(n_r, n_t, edges)
    for comp in matching_covered_components(g):
        rs, ts = sorted(comp.r_nodes), sorted(comp.t_nodes)
        ids = sorted(comp.edge_ids)
        # the component on its own nodes; local ids keep the global order
        local = [(rs.index(edges[e][0]), ts.index(edges[e][1])) for e in ids]
        pms = enumerate_perfect_matchings(len(rs), len(ts), local)
        if not ids or not pms:
            continue
        least = min(tuple(sorted(ids[i] for i in pm)) for pm in pms)
        match_r, _ = _lex_min_pm(PairAnalysis(g, comp.edge_ids))
        assert tuple(sorted(e for e in match_r if e != -1)) == least


# sha256 of the solve_ear edge set ("3,5,8") and of its format_ears trace,
# recorded before the least-matching and ear-frontier rewrite, which had to
# keep the output byte for byte
PINNED_EAR_DIGESTS = {
    ("rand40", "lowest"): (
        "63cf2947e2efa5269fb3aa61fb45775cf72b4278c8475feeb68d2a42f1bf4420",
        "b3db3001f81c66bb6021757573b3b540678194b0a88c614d98dfdad540d8ccbf",
    ),
    ("rand40", "random:1"): (
        "ffb623c6574f0f0b6133d926ba8b706a0dd395af1305e626c2b3aa9844ebb50b",
        "c76e2f37da630ebc7f92a905703773d6ba5ce0285d50330284edf2f06e7b2fb9",
    ),
    ("rand80", "lowest"): (
        "419241335b159328c4098afd8644760d6756789e9737c59dc2e67c87f9e3e959",
        "51cffcf3b9361425c64af4289baeac8c03e6d7ba62ef92f4f758b5bdfe30a0cf",
    ),
    ("rand80", "random:1"): (
        "1731fc248c0be457f6e7ccaac8232b15402da746d3b14719eb7e3c5d104bac6c",
        "6f853ff3d67c2ed699d17ea5553be3ad95267fc7e5b43dce53ca803bb0ffd15f",
    ),
    ("gk10", "lowest"): (
        "e4fc396376f8b6f009428e72c586447826646f7c1ff04feee354f5aa07ce702b",
        "c026e7504228f112bc4888e63306b21e0dbab04232c4933ebb6501942f089eb4",
    ),
    ("gk10", "random:1"): (
        "2fac2fb3c47ddc733485c0e00fdc178fd081faf573962f6ceebabb25be68fcf9",
        "1701cda0f74ede36e07c6fa356657e979937c55d9dea6a19f965fcbc88ac80e8",
    ),
    ("gk25", "lowest"): (
        "753db2670cc34eac707a0ca7590c40187931423050e8f1c222c43085d4a2799b",
        "d232701f52dba684658241cc3244cf0e17354c5c3dffc5e895aaf9c6c0329de2",
    ),
    ("gk25", "random:1"): (
        "68aa3ff5a159a3a03a96567631278b11034934e939db7b83065820dc735da5c8",
        "3534a3459d50a81cb6f5ececbbd04a37344e189c66d498ab76a54f09a547e583",
    ),
}


def _pinned_case(name):
    if name.startswith("gk"):
        return gk_family(int(name[2:]))
    n = int(name[4:])
    return random_instance(n, n, {40: 0.2, 80: 0.12}[n], 0.5, (1, 1), seed=n)


@pytest.mark.parametrize("name,order", sorted(PINNED_EAR_DIGESTS))
def test_ear_output_pinned(name, order):
    decs = []
    sol = solve_ear(_pinned_case(name), ear_order=order, trace=decs)
    edge_text = ",".join(map(str, sorted(sol.edge_ids)))
    trace_text = "\n".join(format_ears(d) for d in decs)
    got = tuple(hashlib.sha256(t.encode()).hexdigest() for t in (edge_text, trace_text))
    assert got == PINNED_EAR_DIGESTS[name, order]


def _start_from(g, ids):
    match_r = [-1] * g.n_r
    for e in ids:
        match_r[g.edges[e][0]] = e
    return match_r


@pytest.mark.parametrize("order", ["lowest", "random:1"])
@pytest.mark.parametrize("name", ["gk10", "rand40"])
def test_decomposition_ignores_the_start(name, order):
    # solve_ear starts each component's analysis from the whole graph's
    # matching M; the ears must be those of a cold start, and so they are
    # from M swapped along an alternating cycle, a different perfect
    # matching, and from M's edges at odd R nodes alone
    inst = _pinned_case(name)
    g = inst.graph
    pairs = PairAnalysis(g)
    pm = pairs.matching.edge_ids
    swapped = _cycle_swap(pairs, min(pm))
    assert swapped is not None and swapped != pm
    odd = {e for e in pm if g.edges[e][0] % 2 == 1}
    for comp in pairs.allowed_components():
        cold = ear_decomposition(PairAnalysis(g, comp), parse_ear_order(order))
        for ids in (pm, swapped, odd):
            warm = PairAnalysis(g, comp, _start_from(g, ids & comp))
            assert ear_decomposition(warm, parse_ear_order(order)) == cold
    ids = ",".join(map(str, sorted(solve_ear(inst, ear_order=order).edge_ids)))
    assert hashlib.sha256(ids.encode()).hexdigest() == PINNED_EAR_DIGESTS[name, order][0]


def test_long_cycle_needs_full_swap():
    # even cycle r_i - t_i (edge a_i) - r_i - t_(i+1) (edge b_i); b_0 gets the
    # lowest id, so the least perfect matching is every b_i, while the
    # matching routine settles on every a_i and one swap must turn the
    # whole cycle
    n = 3000
    edges = [(0, 1), (0, 0)]
    for i in range(1, n):
        edges += [(i, i), (i, (i + 1) % n)]
    g = BipartiteMultigraph(n, n, edges)
    b_ids = {0} | {2 * i + 1 for i in range(1, n)}
    a_ids = set(range(2 * n)) - b_ids
    assert max_matching(g).edge_ids == a_ids
    active = frozenset(g.edge_ids())
    match_r, _ = _lex_min_pm(PairAnalysis(g, active))
    assert set(match_r) == b_ids
    dec = ear_decomposition(PairAnalysis(g))
    assert len(dec.ears) == 2 and len(dec.ears[1]) == 2 * n - 1
    check_decomposition(g, matching_covered_components(g)[0], dec)
