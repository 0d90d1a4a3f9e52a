"""Tests for matching primitives, pinned against brute-force enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_graph, small_instance

from rapkit.graph_core import (
    BipartiteMultigraph,
    GraphError,
    PairAnalysis,
    _match_arrays,
    allowed_edges,
    components,
    matching_covered_components,
    max_flow_min_cut,
    max_matching,
)
from rapkit.instance import make_instance, uniformize

# 4-cycle r0-t0-r1-t1-r0, edge ids in cycle order
C4_EDGES = [(0, 0), (1, 0), (1, 1), (0, 1)]
# path r0-t0-r1 plus pendant edge r1-t1; e1 is the middle edge
P4_EDGES = [(0, 0), (1, 0), (1, 1)]


def c4() -> BipartiteMultigraph:
    return BipartiteMultigraph(2, 2, C4_EDGES)


def p4() -> BipartiteMultigraph:
    return BipartiteMultigraph(2, 2, P4_EDGES)


def all_but(g: BipartiteMultigraph, f: int) -> set[int]:
    """Every edge id of g except f."""
    return set(g.edge_ids()) - {f}


def gk_graph(k: int) -> BipartiteMultigraph:
    """The tight example family: a 4-cycle core with k pendant 4-paths.

    Nodes 0..2k+1; edge {0,1}; paths 0-i-(i+1)-1 for even i in [2, 2k];
    chords {i+1, i+2} and {i, i+3} for even i in [4, 2k-2]. Side R holds
    node 0 and the odd nodes >= 3; side T holds node 1 and the even
    nodes >= 2.
    """
    r_index = {0: 0}
    t_index = {1: 0}
    for v in range(2, 2 * k + 2):
        if v % 2 == 1:
            r_index[v] = len(r_index)
        else:
            t_index[v] = len(t_index)

    def edge(u: int, v: int) -> tuple[int, int]:
        if u in r_index and v in t_index:
            return (r_index[u], t_index[v])
        return (r_index[v], t_index[u])

    edges = [edge(0, 1)]
    for i in range(2, 2 * k + 1, 2):
        edges += [edge(0, i), edge(i, i + 1), edge(i + 1, 1)]
    for j in range(4, 2 * k - 1, 2):
        edges += [edge(j + 1, j + 2), edge(j, j + 3)]
    return BipartiteMultigraph(k + 1, k + 1, edges)


class TestMaxMatching:
    def test_c4_perfect(self):
        m = max_matching(c4())
        assert len(m) == 2 and m.perfect

    def test_c4_forbidden_forces_other_pm(self):
        # both perfect matchings of C4 enumerated by the oracle
        pms = oracles.enumerate_perfect_matchings(2, 2, C4_EDGES)
        assert sorted(map(sorted, pms)) == [[0, 2], [1, 3]]
        m = max_matching(c4(), all_but(c4(), 0))
        assert m.edge_ids == frozenset({1, 3}) and m.perfect

    def test_single_edge_forbidden(self):
        g = BipartiteMultigraph(1, 1, [(0, 0)])
        m = max_matching(g, all_but(g, 0))
        assert len(m) == 0 and not m.perfect

    def test_empty_graph(self):
        m = max_matching(BipartiteMultigraph(0, 0, []))
        assert len(m) == 0 and m.perfect

    def test_deterministic(self):
        g = BipartiteMultigraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        assert max_matching(g).edge_ids == max_matching(g).edge_ids

    def test_bad_forbidden_id(self):
        # an id outside the graph is refused, whatever else active holds
        with pytest.raises(GraphError, match="active ids must be edges"):
            max_matching(c4(), {0, 7})

    def test_long_augmenting_paths(self):
        # r(i+1) meets t(i) before t(i+1), so each new r node searches the
        # whole chain below it: 3000 levels deep
        n = 3000
        edges = [(i + 1, i) for i in range(n - 1)] + [(i, i) for i in range(n)]
        m = max_matching(BipartiteMultigraph(n, n, edges))
        assert m.perfect and len(m) == n

    @settings(max_examples=120)
    @given(small_graph(), st.data())
    def test_size_matches_brute_force(self, data, picks):
        n_r, n_t, edges = data
        g = BipartiteMultigraph(n_r, n_t, edges)
        assert len(max_matching(g)) == oracles.max_matching_size(n_r, n_t, edges)
        x = picks.draw(st.sets(st.sampled_from(range(len(edges)))) if edges else st.just(set()))
        assert len(max_matching(g, x)) == oracles.max_matching_size(n_r, n_t, edges, x)

    @settings(max_examples=150)
    @given(small_graph(max_side=7, max_edges=24), st.data())
    def test_same_matching_as_reference_kuhn(self, data, picks):
        # the scan order is pinned: cold, and warm from a matching of part of
        # the set, the routine finds the reference copy's matching
        n_r, n_t, edges = data
        g = BipartiteMultigraph(n_r, n_t, edges)
        every = frozenset(range(len(edges)))
        x = frozenset(picks.draw(st.sets(st.sampled_from(sorted(every)))) if edges else ())
        part = frozenset(picks.draw(st.sets(st.sampled_from(sorted(x)))) if x else ())
        start = oracles.kuhn_match_arrays(g, part)[0]
        for act, begin in [(every, None), (x, None), (x, start)]:
            assert _match_arrays(g, act, begin) == oracles.kuhn_match_arrays(g, act, begin)


class TestHasPmAvoiding:
    # a perfect matching avoiding edge f is a perfect one within all edges but f
    def test_c4_any_edge(self):
        for f in range(4):
            assert max_matching(c4(), all_but(c4(), f)).perfect is True

    def test_single_edge(self):
        g = BipartiteMultigraph(1, 1, [(0, 0)])
        assert max_matching(g, all_but(g, 0)).perfect is False

    def test_p4_values(self):
        # frozen from the enumeration oracle: the unique perfect matching is
        # the two end edges, so only the middle edge can be avoided
        g = p4()
        assert [oracles.brute_has_pm_avoiding(2, 2, P4_EDGES, f) for f in range(3)] == [
            False,
            True,
            False,
        ]
        assert [max_matching(g, all_but(g, f)).perfect for f in range(3)] == [False, True, False]

    def test_unbalanced_never_perfect(self):
        g = BipartiteMultigraph(2, 1, [(0, 0), (1, 0)])
        assert max_matching(g, all_but(g, 0)).perfect is False
        assert oracles.brute_has_pm_avoiding(2, 1, [(0, 0), (1, 0)], 0) is False

    @settings(max_examples=120)
    @given(small_graph(balanced=True))
    def test_matches_brute_force(self, data):
        n_r, n_t, edges = data
        g = BipartiteMultigraph(n_r, n_t, edges)
        for f in range(len(edges)):
            assert max_matching(g, all_but(g, f)).perfect == oracles.brute_has_pm_avoiding(
                n_r, n_t, edges, f
            )


class TestAllowedEdges:
    def test_c4_all_allowed(self):
        assert allowed_edges(c4()) == frozenset(range(4))

    def test_p4_end_edges_only(self):
        assert oracles.brute_allowed_edges(2, 2, P4_EDGES) == frozenset({0, 2})
        assert allowed_edges(p4()) == frozenset({0, 2})

    def test_g3_all_allowed(self):
        g = gk_graph(3)
        assert g.n_edges == 12
        assert oracles.brute_allowed_edges(g.n_r, g.n_t, list(g.edges)) == frozenset(
            range(12)
        )
        assert allowed_edges(g) == frozenset(range(12))

    def test_no_pm_rejected(self):
        g = BipartiteMultigraph(2, 2, [(0, 0), (1, 0)])
        with pytest.raises(GraphError, match="no perfect matching"):
            allowed_edges(g)

    def test_active_restriction(self):
        # restricting C4 to one perfect matching leaves just those edges
        assert allowed_edges(c4(), active={0, 2}) == frozenset({0, 2})

    def test_parallel_edges_both_allowed(self):
        g = BipartiteMultigraph(1, 1, [(0, 0), (0, 0)])
        assert allowed_edges(g) == frozenset({0, 1})

    @settings(max_examples=120)
    @given(small_graph(balanced=True))
    def test_matches_brute_force(self, data):
        n_r, n_t, edges = data
        g = BipartiteMultigraph(n_r, n_t, edges)
        brute = oracles.brute_allowed_edges(n_r, n_t, edges)
        if oracles.max_matching_size(n_r, n_t, edges) < n_r:
            with pytest.raises(GraphError):
                allowed_edges(g)
        else:
            assert allowed_edges(g) == brute


class TestMatchingCoveredComponents:
    def test_c4_single_covered(self):
        comps = matching_covered_components(c4())
        assert len(comps) == 1 and comps[0].matching_covered

    def test_c4_plus_isolated_edge(self):
        g = BipartiteMultigraph(3, 3, C4_EDGES + [(2, 2)])
        comps = matching_covered_components(g)
        assert len(comps) == 2
        assert all(c.matching_covered for c in comps)

    def test_p4_not_covered(self):
        comps = matching_covered_components(p4())
        assert len(comps) == 1 and not comps[0].matching_covered

    def test_active_may_be_any_iterable(self):
        listed = matching_covered_components(c4(), [0, 1, 2, 3])
        assert matching_covered_components(c4(), (e for e in range(4))) == listed

    def test_isolated_node_not_covered(self):
        g = BipartiteMultigraph(2, 2, [(0, 0)])
        comps = matching_covered_components(g)
        flags = sorted(c.matching_covered for c in comps)
        # the edge is covered, the two isolated nodes are not
        assert len(comps) == 3 and flags == [False, False, True]

    @settings(max_examples=120)
    @given(small_graph())
    def test_flag_matches_componentwise_enumeration(self, data):
        n_r, n_t, edges = data
        g = BipartiteMultigraph(n_r, n_t, edges)
        for comp in matching_covered_components(g):
            if not comp.edge_ids:
                assert not comp.matching_covered
                continue
            pms = oracles.enumerate_perfect_matchings(
                len(comp.r_nodes), len(comp.t_nodes), _relabel(g, comp)
            )
            covered = bool(pms) and frozenset().union(*pms) == frozenset(
                range(len(comp.edge_ids))
            )
            assert comp.matching_covered == covered

    @settings(max_examples=200, deadline=None)
    @given(small_instance(), st.booleans(), st.data())
    def test_covered_exactly_when_every_edge_allowed(self, data, doubled, picks):
        # the rounding loop's invariant check reads the allowed set; the
        # uniformized copy brings parallel edges
        inst = make_instance(*data)
        g = uniformize(inst).instance.graph if doubled else inst.graph
        ids = st.sampled_from(range(g.n_edges)) if g.n_edges else st.nothing()
        x = frozenset(picks.draw(st.sets(ids)))
        covered = all(
            c.matching_covered for c in matching_covered_components(g, x) if c.edge_ids
        )
        assert (x <= PairAnalysis(g, x).allowed) == covered


class TestPairAnswers:
    @settings(max_examples=200, deadline=None)
    @given(small_graph(balanced=True), st.data())
    def test_mandatory_is_in_every_perfect_matching(self, data, picks):
        n_r, n_t, edges = data
        ids = st.sampled_from(range(len(edges))) if edges else st.nothing()
        x = frozenset(picks.draw(st.sets(ids)))
        pairs = PairAnalysis(BipartiteMultigraph(n_r, n_t, edges), x)
        assert pairs.mandatory <= pairs.matching.edge_ids
        if pairs.matching.perfect:
            pms = oracles.enumerate_perfect_matchings(n_r, n_t, edges, x)
            assert pairs.mandatory == frozenset.intersection(*pms)

    @settings(max_examples=200, deadline=None)
    @given(small_graph(balanced=True), st.integers(0, 2), st.integers(0, 2))
    def test_parts_are_the_components_of_a_covered_union(self, data, extra_r, extra_t):
        # the allowed edges of a balanced graph, with empty nodes added on
        # both sides: matching-covered components and isolated nodes
        n_r, n_t, edges = data
        x = oracles.brute_allowed_edges(n_r, n_t, edges)
        g = BipartiteMultigraph(n_r + extra_r, n_t + extra_t, edges)
        pairs = PairAnalysis(g, x)
        comps = components(g, x)
        assert pairs.n_parts() == len(comps)
        for r in range(g.n_r):
            for t in range(g.n_t):
                shared = any(r in comp_r and t in comp_t for comp_r, comp_t, _ in comps)
                assert pairs.same_part(r, t) == shared

    def test_edges_at(self):
        g = BipartiteMultigraph(2, 2, [(0, 0), (1, 0), (0, 1), (0, 0)])
        pairs = PairAnalysis(g, {0, 1, 3})
        assert pairs.edges_at(0) == [0, 3] and pairs.edges_at(1) == [1]


def _relabel(g: BipartiteMultigraph, comp) -> list[tuple[int, int]]:
    """Component edges re-indexed to local contiguous node ids."""
    rs = {v: i for i, v in enumerate(sorted(comp.r_nodes))}
    ts = {v: i for i, v in enumerate(sorted(comp.t_nodes))}
    return [(rs[g.edges[e][0]], ts[g.edges[e][1]]) for e in sorted(comp.edge_ids)]


class TestComponents:
    def test_isolated_nodes_listed(self):
        g = BipartiteMultigraph(2, 2, [(0, 0)])
        comps = components(g)
        sizes = sorted(len(c[0]) + len(c[1]) for c in comps)
        assert sizes == [1, 1, 2]

    def test_active_subset(self):
        comps = components(c4(), active={0})
        assert len(comps) == 3


@pytest.mark.parametrize(
    "routine",
    [
        max_matching,
        PairAnalysis,
        components,
        allowed_edges,
        matching_covered_components,
    ],
)
@pytest.mark.parametrize("bad_id", [-1, len(C4_EDGES)])
def test_active_ids_must_be_edges(routine, bad_id):
    # a negative id would otherwise index g.edges from its end
    with pytest.raises(GraphError, match="active ids must be edges"):
        routine(c4(), [*range(len(C4_EDGES)), bad_id])


# C4's perfect matching {0, 2} as its match_r
C4_PM_02 = [0, 2]


class TestStart:
    def test_start_is_grown(self):
        # a perfect start is kept whole (cold, the search finds {1, 3}); from
        # edge 1 alone, r0's search takes edge 0 and moves r1 onto edge 2
        assert max_matching(c4()).edge_ids == frozenset({1, 3})
        assert max_matching(c4(), start=C4_PM_02).edge_ids == frozenset({0, 2})
        grown = max_matching(c4(), start=[-1, 1])
        assert grown.perfect and grown.edge_ids == frozenset({0, 2})

    @pytest.mark.parametrize(
        "active,start",
        [
            ({1, 2, 3}, C4_PM_02),  # a start edge outside active
            (None, [1, -1]),  # edge 1 is at R node 1, not 0
            (None, [0, 2, -1]),  # one entry too many
        ],
        ids=["forbidden", "wrong-r-node", "length"],
    )
    @pytest.mark.parametrize("routine", [max_matching, PairAnalysis], ids=lambda f: f.__name__)
    def test_invalid_start_raises(self, routine, active, start):
        with pytest.raises(GraphError, match="start"):
            routine(c4(), active, start)

    def test_two_start_edges_at_one_t_node(self):
        # edges 0 and 1 both end at T node 0
        with pytest.raises(GraphError, match="share a T node"):
            max_matching(c4(), start=[0, 1])


class TestMaxFlowMinCut:
    @settings(max_examples=150, deadline=None)
    @given(small_graph(max_side=4, max_edges=9), st.data())
    def test_matches_brute_force_min_cut(self, graph, data):
        n_r, n_t, edges = graph
        capacity = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    st.floats(min_value=0.0, max_value=1.5),
                ),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
        value, side_r, side_t = max_flow_min_cut(BipartiteMultigraph(n_r, n_t, edges), capacity)
        assert value == pytest.approx(oracles.brute_min_cut(n_r, n_t, edges, capacity), abs=1e-9)
        # the returned source side is a minimum cut
        cut = oracles.cut_capacity(n_r, edges, capacity, set(side_r), set(side_t))
        assert cut == pytest.approx(value, abs=1e-9)

    def test_deep_chain(self):
        # r_i - t_{i+1} come first in every adjacency, so the last augmenting
        # path runs the whole chain: 2n - 1 edges over 2n = 2,000 nodes
        n = 1000
        edges = [(i, i + 1) for i in range(n - 1)] + [(i, i) for i in range(n)]
        value, side_r, side_t = max_flow_min_cut(
            BipartiteMultigraph(n, n, edges), [1.0] * len(edges)
        )
        assert value == n and not side_r and not side_t

    def test_one_capacity_per_edge(self):
        with pytest.raises(GraphError, match="one capacity per edge required"):
            max_flow_min_cut(c4(), [1.0] * 3)


class TestConstruction:
    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            BipartiteMultigraph(1, 1, [(0, 1)])

    @pytest.mark.parametrize("n_r, n_t", [(-1, 2), (2, -1)])
    def test_negative_node_count(self, n_r, n_t):
        with pytest.raises(GraphError, match="node counts must be non-negative"):
            BipartiteMultigraph(n_r, n_t)

    def test_edge_ids_are_positions(self):
        g = BipartiteMultigraph(2, 2, [(0, 1), (1, 0)])
        assert g.edges[0] == (0, 1) and g.edges[1] == (1, 0)
