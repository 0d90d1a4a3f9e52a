"""Tests for instances, verification, pruning, and the two transformations."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_instance

import rapkit.instance
from rapkit.graph_core import GraphError, PairAnalysis, matching_covered_components
from rapkit.instance import (
    NOMINAL_SCENARIO,
    InfeasibleSolutionError,
    InstanceError,
    _scan,
    _scan_without,
    balanced_completion,
    check_feasible,
    first_failing_scenario,
    format_instance,
    format_solution,
    is_feasible_set,
    make_instance,
    parse_instance,
    parse_solution,
    prune_to_minimal,
    solution_for,
    uniform_instance,
    uniformize,
    verify_solution,
)

C4_EDGES = [(0, 0), (1, 0), (1, 1), (0, 1)]


def c4_uniform():
    return uniform_instance(2, 2, C4_EDGES)


def regular_instance(n: int, seed: int = 1):
    """The union of three seeded random permutations: 3-regular, every edge
    vulnerable, unit costs. Its edges split into three perfect matchings,
    so the whole edge set is robust."""
    rng = random.Random(seed)
    edges = []
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        edges += enumerate(perm)
    return uniform_instance(n, n, edges)


class TestCheckFeasible:
    def test_c4_uniform(self):
        assert check_feasible(c4_uniform()) is True

    def test_single_vulnerable_edge(self):
        inst = uniform_instance(1, 1, [(0, 0)])
        assert check_feasible(inst) is False

    def test_g3_uniform(self):
        from test_graph_core import gk_graph

        g = gk_graph(3)
        inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
        assert check_feasible(inst) is True

    def test_empty_vulnerable_needs_pm_only(self):
        inst = make_instance(1, 1, [(0, 0)], [], [1.0])
        assert check_feasible(inst) is True

    def test_unbalanced_rejected(self):
        inst = make_instance(2, 1, [(0, 0), (1, 0)], [], [1.0, 1.0])
        with pytest.raises(InstanceError, match="apply balanced_completion first"):
            check_feasible(inst)

    @settings(max_examples=100)
    @given(small_instance())
    def test_matches_brute_force(self, data):
        n_r, n_t, edges, vulnerable, costs = data
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        assert check_feasible(inst) == oracles.brute_feasible(
            n_r, n_t, edges, vulnerable, set(range(len(edges)))
        )


class TestVerifySolution:
    def test_c4_full_certificate(self):
        inst = c4_uniform()
        cert = verify_solution(inst, solution_for(inst, range(4)))
        assert set(cert.matchings) == {0, 1, 2, 3}
        # avoiding an edge of C4 forces the complementary perfect matching
        assert cert.matchings[0] == frozenset({1, 3})
        assert cert.matchings[1] == frozenset({0, 2})
        for f, pm in cert.matchings.items():
            assert f not in pm

    def test_c4_one_matching_infeasible(self):
        inst = c4_uniform()
        with pytest.raises(InfeasibleSolutionError, match="infeasible at scenario e0") as ei:
            verify_solution(inst, solution_for(inst, {0, 2}))
        assert ei.value.scenario == 0

    def test_nominal_certificate(self):
        inst = make_instance(2, 2, C4_EDGES, [], [1.0] * 4)
        cert = verify_solution(inst, solution_for(inst, {0, 2}))
        assert cert.matchings == {NOMINAL_SCENARIO: frozenset({0, 2})}

    def test_nominal_infeasible(self):
        inst = make_instance(2, 2, C4_EDGES, [], [1.0] * 4)
        with pytest.raises(InfeasibleSolutionError):
            verify_solution(inst, solution_for(inst, {0, 1}))

    @pytest.mark.parametrize("fault", ["holds_scenario", "outside_x", "swap_short", "m_short"])
    def test_bad_witness_raises(self, monkeypatch, fault):
        # C4 plus e4, a parallel copy of e0 that x leaves out
        inst = make_instance(2, 2, [*C4_EDGES, (0, 0)], range(5), [1.0] * 5)
        x = solution_for(inst, range(4))
        assert verify_solution(inst, x).matchings[1] == frozenset({0, 2})
        real_swap, real_scan = rapkit.instance._cycle_swap, rapkit.instance._scan

        def bad_swap(pairs, f):
            w = real_swap(pairs, f)
            if fault == "holds_scenario":
                return pairs.matching.edge_ids  # perfect and inside x, but holds f
            if fault == "outside_x":
                return (w - {0}) | {4}  # perfect, but e4 is not in x
            return w - {min(w)}

        def bad_scan(work, active):
            pairs, failing = real_scan(work, active)
            pm = pairs.matching
            pairs.matching = dataclasses.replace(pm, edge_ids=pm.edge_ids - {min(pm.edge_ids)})
            return pairs, failing

        if fault == "m_short":
            # nothing vulnerable: M is the one witness, and it misses a node;
            # the certificate check refuses it before any witness is read
            inst = make_instance(2, 2, C4_EDGES, [], [1.0] * 4)
            x = solution_for(inst, range(4))
            monkeypatch.setattr(rapkit.instance, "_scan", bad_scan)
            with pytest.raises(AssertionError, match="no valid witness"):
                verify_solution(inst, x)
            return
        monkeypatch.setattr(rapkit.instance, "_cycle_swap", bad_swap)
        # a witness is built, and checked, when it is read
        cert = verify_solution(inst, x)
        with pytest.raises(AssertionError, match="no valid witness"):
            cert.matchings[1]

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("merged_labels", "not strongly connected"),
            ("arc_outside_x", "not strongly connected"),
            ("split_labels", "no other edge inside its part"),
        ],
    )
    def test_bad_analysis_raises(self, monkeypatch, fault, message):
        # two disjoint C4s, robust; e8 = (r0, t2) and e9 = (r2, t0) join them
        # into one part of the analysis only when both are in the set
        edges = [*C4_EDGES, *[(r + 2, t + 2) for r, t in C4_EDGES], (0, 2), (2, 0)]
        inst = uniform_instance(4, 4, edges)
        x = solution_for(inst, [*range(8), 9] if fault == "arc_outside_x" else range(8))
        verify_solution(inst, x)
        real_scan = rapkit.instance._scan

        def bad_scan(work, active):
            if fault == "arc_outside_x":
                # the analysis of x plus e8: one part, whose arc r0 -> r3 x lacks
                pairs, failing = real_scan(work, set(active) | {8})
                assert len(set(pairs.part_labels())) == 1
                return pairs, failing
            pairs, failing = real_scan(work, active)
            labels = list(pairs.part_labels())
            if fault == "merged_labels":
                pairs._scc = [labels[0]] * 4
            else:
                # r1 in a part of its own: it holds no edge back to r0's C4
                pairs._scc = [labels[0], max(labels) + 1, labels[2], labels[3]]
            return pairs, failing

        monkeypatch.setattr(rapkit.instance, "_scan", bad_scan)
        with pytest.raises(AssertionError, match=message):
            verify_solution(inst, x)

    def test_witnesses_are_built_when_read(self, monkeypatch):
        inst = regular_instance(2000)
        searches = []
        real_path = PairAnalysis.alternating_path

        def counted(pairs, *args):
            searches.append(args)
            return real_path(pairs, *args)

        monkeypatch.setattr(PairAnalysis, "alternating_path", counted)
        cert = verify_solution(inst, solution_for(inst, range(6000)))
        assert searches == [] and len(cert.matchings) == 6000
        assert list(cert.matchings) == list(range(6000)) and 5999 in cert.matchings
        assert 6000 not in cert.matchings and searches == []
        m = _scan(inst, None)[0].matching.edge_ids
        inside, outside = min(m), min(set(range(6000)) - m)
        # one read, one witness: a cycle search for a scenario in M, none outside it
        assert cert.matchings[outside] == m and searches == []
        w = cert.matchings[inside]
        assert len(searches) == 1 and inside not in w and len(w) == 2000
        with pytest.raises(KeyError):
            cert.matchings[6000]

    @settings(max_examples=100)
    @given(small_instance())
    def test_matches_brute_force_on_subsets(self, data):
        n_r, n_t, edges, vulnerable, costs = data
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        # spot-check the full set and one arbitrary half-size subset
        for ids in [set(range(len(edges))), set(range(0, len(edges), 2))]:
            expected = oracles.brute_feasible(n_r, n_t, edges, vulnerable, ids)
            assert is_feasible_set(inst, ids) == expected

    @settings(max_examples=150)
    @given(small_instance(balanced=False), st.data())
    def test_unbalanced_checks_the_completion(self, data, picks):
        n_r, n_t, edges, vulnerable, costs = data
        assume(n_r != n_t)
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        ids = picks.draw(st.sets(st.sampled_from(range(len(edges))) if edges else st.nothing()))
        completion = balanced_completion(inst)
        work = completion.instance
        small = min(n_r, n_t)

        def covers(x):
            return oracles.max_matching_size(n_r, n_t, edges, x) == small

        feasible = covers(ids) and all(covers(ids - {f}) for f in vulnerable)
        try:
            expected = verify_solution(work, solution_for(work, completion.encode(ids)))
        except InfeasibleSolutionError as exc:
            assert not feasible
            with pytest.raises(InfeasibleSolutionError) as ei:
                verify_solution(inst, solution_for(inst, ids))
            assert ei.value.scenario == exc.scenario and str(ei.value) == str(exc)
            assert exc.scenario in (vulnerable or {NOMINAL_SCENARIO})
            return
        assert feasible
        cert = verify_solution(inst, solution_for(inst, ids))
        assert cert.matchings == {f: completion.decode(w) for f, w in expected.matchings.items()}
        for f, w in cert.matchings.items():
            ends = [edges[e] for e in w]
            assert f not in w and w <= ids and covers(w)
            assert len(ends) == len({r for r, _ in ends}) == len({t for _, t in ends}) == small


class TestFirstFailingScenario:
    def test_c4(self):
        inst = c4_uniform()
        assert first_failing_scenario(inst) is None
        assert first_failing_scenario(inst, set(range(4))) is None
        assert first_failing_scenario(inst, {0, 2}) == 0
        assert first_failing_scenario(inst, {0, 1, 2}) == 0
        assert first_failing_scenario(inst, set()) == 0

    def test_nominal(self):
        inst = make_instance(2, 2, C4_EDGES, [], [1.0] * 4)
        assert first_failing_scenario(inst, {0, 2}) is None
        assert first_failing_scenario(inst, {0, 1}) == NOMINAL_SCENARIO

    def test_parallel_copy_covers(self):
        inst = uniform_instance(1, 1, [(0, 0), (0, 0)])
        assert first_failing_scenario(inst) is None
        assert first_failing_scenario(inst, {0, 1}) is None
        assert first_failing_scenario(inst, {0}) == 0
        assert first_failing_scenario(inst, {1}) == 1

    def test_rejects_non_edge(self):
        # PairAnalysis is the one check of the ids
        with pytest.raises(GraphError, match="active ids must be edges"):
            first_failing_scenario(c4_uniform(), {0, 4})

    @settings(max_examples=200, deadline=None)
    @given(small_instance(), st.data())
    def test_matches_brute_force_and_certificates_hold(self, data, picks):
        n_r, n_t, edges, vulnerable, costs = data
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        x = picks.draw(st.sets(st.sampled_from(range(len(edges)))) if edges else st.just(set()))
        if vulnerable:
            failing = [
                f
                for f in sorted(vulnerable)
                if not oracles.brute_has_pm_avoiding(n_r, n_t, edges, f, x)
            ]
            expected = failing[0] if failing else None
        elif oracles.max_matching_size(n_r, n_t, edges, x) == n_r:
            expected = None
        else:
            expected = NOMINAL_SCENARIO
        assert first_failing_scenario(inst, x) == expected
        assert (expected is None) == oracles.brute_feasible(n_r, n_t, edges, vulnerable, x)
        if expected is not None:
            with pytest.raises(InfeasibleSolutionError) as ei:
                verify_solution(inst, solution_for(inst, x))
            assert ei.value.scenario == expected
            return
        cert = verify_solution(inst, solution_for(inst, x))
        assert set(cert.matchings) == (set(vulnerable) or {NOMINAL_SCENARIO})
        for f, pm in cert.matchings.items():
            assert f not in pm
            assert pm in oracles.enumerate_perfect_matchings(n_r, n_t, edges, x)


def _scc_partition(pairs):
    """The matched R nodes grouped by part, as a set of frozensets."""
    g = pairs.graph
    return {
        frozenset(r for r in range(g.n_r) if pairs.same_part(r, g.edges[e][1]))
        for e in pairs.matching.match_r
        if e != -1
    }


def _verdict(inst, pairs):
    """``_scan``'s rule read from an analysis built elsewhere."""
    if not pairs.matching.perfect:
        return min(inst.vulnerable, default=NOMINAL_SCENARIO)
    return min(pairs.mandatory & inst.vulnerable, default=None)


class TestWarmStart:
    @settings(max_examples=200, deadline=None)
    @given(small_instance(max_edges=12), st.data())
    def test_warm_scan_agrees_with_cold(self, data, picks):
        n_r, n_t, edges, vulnerable, costs = data
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        x = picks.draw(st.sets(st.sampled_from(range(len(edges)))) if edges else st.just(set()))
        # any matching inside x: the listed edges that touch no earlier one
        listed = picks.draw(st.lists(st.sampled_from(sorted(x))) if x else st.just([]))
        match_r, used_t = [-1] * n_r, set()
        for e in listed:
            r, t = edges[e]
            if match_r[r] == -1 and t not in used_t:
                match_r[r] = e
                used_t.add(t)
        cold, cold_failing = _scan(inst, x)
        warm = PairAnalysis(inst.graph, x, match_r)
        if vulnerable:
            failing = [
                f
                for f in sorted(vulnerable)
                if not oracles.brute_has_pm_avoiding(n_r, n_t, edges, f, x)
            ]
            expected = failing[0] if failing else None
        else:
            perfect = oracles.max_matching_size(n_r, n_t, edges, x) == n_r
            expected = None if perfect else NOMINAL_SCENARIO
        assert _verdict(inst, warm) == cold_failing == expected
        assert len(warm.matching) == len(cold.matching)
        if cold.matching.perfect:
            assert warm.allowed == cold.allowed
            assert _scc_partition(warm) == _scc_partition(cold)


def _children_agree_with_cold(inst, y):
    """Check ``_scan_without`` against a cold ``_scan`` on y less one or two edges.

    y must have no failing scenario. Each edge e of y is removed from y's
    analysis, and each further edge from the child's when y less e has no
    failing scenario either. Returns the cases met among the first
    removals: "matched", "not allowed" and "split".
    """
    pairs, failing = _scan(inst, y)
    assert failing is None
    cases = set()
    for e in sorted(y):
        child, child_failing = _scan_without(inst, pairs, e)
        cold, cold_failing = _scan(inst, y - {e})
        assert child_failing == cold_failing
        assert (child is None) == (not cold.matching.perfect)
        if e in pairs.matching.edge_ids:
            cases.add("matched")
        if e not in pairs.allowed:
            cases.add("not allowed")
        if child is None:
            continue
        assert child.allowed == cold.allowed
        assert child.n_parts() == cold.n_parts()
        assert child.mandatory == cold.mandatory
        assert child.edge_list == cold.edge_list
        assert sorted(map(sorted, child.allowed_components())) == sorted(
            map(sorted, cold.allowed_components())
        )
        assert child.matching.perfect and child.matching.edge_ids <= y - {e}
        if child.n_parts() > pairs.n_parts():
            cases.add("split")
        if child_failing is not None:
            continue
        for e2 in sorted(y - {e}):
            grandchild, grandchild_failing = _scan_without(inst, child, e2)
            cold, cold_failing = _scan(inst, y - {e, e2})
            assert grandchild_failing == cold_failing
            if grandchild is not None:
                assert grandchild.allowed == cold.allowed
                assert grandchild.n_parts() == cold.n_parts()
                assert grandchild.edge_list == cold.edge_list
    return cases


class TestScanWithout:
    def test_cases_agree_with_cold(self):
        # a 4-cycle, a doubled edge, and edge 6 joining them in no perfect matching
        edges = [(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (2, 2), (0, 2)]
        inst = uniform_instance(3, 3, edges)
        cases = _children_agree_with_cold(inst, frozenset(range(len(edges))))
        assert cases == {"matched", "not allowed", "split"}

    @settings(max_examples=150, deadline=None)
    @given(small_instance(max_edges=10, balanced=False), st.data())
    def test_child_agrees_with_cold(self, data, picks):
        # a robust y between the completion's edge set and a minimal one:
        # the listed edges are dropped in turn while the rest stays robust
        work = balanced_completion(make_instance(*data)).instance
        y = set(work.graph.edge_ids())
        assume(_scan(work, y)[1] is None)
        for e in picks.draw(st.lists(st.sampled_from(sorted(y)), unique=True)):
            if _scan(work, y - {e})[1] is None:
                y.discard(e)
        _children_agree_with_cold(work, frozenset(y))

    def test_without_needs_a_perfect_matching(self):
        pairs = PairAnalysis(uniform_instance(2, 2, [(0, 0), (1, 0)]).graph)
        with pytest.raises(GraphError, match="perfect matching"):
            pairs.without(0)


class TestPruneToMinimal:
    def test_c4_uniform_already_minimal(self):
        inst = c4_uniform()
        x = solution_for(inst, range(4))
        assert prune_to_minimal(inst, x).edge_ids == frozenset(range(4))

    def test_nominal_prunes_to_one_matching(self):
        inst = make_instance(2, 2, C4_EDGES, [], [1.0] * 4)
        out = prune_to_minimal(inst, solution_for(inst, range(4)))
        assert len(out.edge_ids) == 2
        assert is_feasible_set(inst, out.edge_ids)

    def test_infeasible_input_propagates(self):
        inst = c4_uniform()
        with pytest.raises(InfeasibleSolutionError):
            prune_to_minimal(inst, solution_for(inst, {0, 2}))

    def test_unbalanced_rejected_before_verifying(self):
        # x is infeasible too, but the instance's shape is refused first
        inst = make_instance(1, 2, [(0, 0), (0, 1)], [0], [1, 1])
        with pytest.raises(InstanceError, match="apply balanced_completion first"):
            prune_to_minimal(inst, solution_for(inst, {0}))

    @settings(max_examples=60, deadline=None)
    @given(small_instance())
    def test_output_structure(self, data):
        n_r, n_t, edges, vulnerable, costs = data
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        if not oracles.brute_feasible(n_r, n_t, edges, vulnerable, set(range(len(edges)))):
            return
        out = prune_to_minimal(inst, solution_for(inst, range(len(edges))))
        ids = out.edge_ids
        assert is_feasible_set(inst, ids)
        # no single edge is removable
        for e in ids:
            assert not is_feasible_set(inst, ids - {e})
        # structural shape of minimal solutions: every component is
        # matching-covered and no vulnerable edge stands alone
        for comp in matching_covered_components(inst.graph, ids):
            if comp.edge_ids:
                assert comp.matching_covered
            if len(comp.edge_ids) == 1:
                (e,) = comp.edge_ids
                assert e not in inst.vulnerable


class TestBalancedCompletion:
    def test_adds_dummies(self):
        inst = make_instance(3, 2, [(0, 0), (1, 0), (2, 1)], [0], [1.0, 2.0, 3.0])
        mapping = balanced_completion(inst)
        g2 = mapping.instance.graph
        assert (g2.n_r, g2.n_t) == (3, 3)
        assert g2.n_edges == 6
        assert mapping.instance.vulnerable == frozenset({0})
        assert all(mapping.instance.costs[e] == 0.0 for e in range(3, 6))
        assert mapping.always_include == frozenset({3, 4, 5})

    def test_already_balanced_identity(self):
        inst = c4_uniform()
        mapping = balanced_completion(inst)
        assert mapping.instance.graph.n_edges == 4
        assert mapping.always_include == frozenset()
        assert mapping.instance.graph.edges == inst.graph.edges

    def test_swap_when_t_larger(self):
        inst = make_instance(1, 2, [(0, 0), (0, 1)], [0, 1], [1.0, 1.0])
        mapping = balanced_completion(inst)
        g2 = mapping.instance.graph
        assert [r for r, _ in g2.edges[:2]] == [t for _, t in inst.graph.edges]
        assert (g2.n_r, g2.n_t) == (2, 2)
        # original edges keep their ids with endpoints transposed
        assert g2.edges[0] == (0, 0) and g2.edges[1] == (1, 0)

    def test_decode_drops_dummies(self):
        inst = make_instance(3, 2, [(0, 0), (1, 0), (2, 1)], [], [1.0, 1.0, 1.0])
        mapping = balanced_completion(inst)
        encoded = mapping.encode({0, 2})
        assert encoded == frozenset({0, 2, 3, 4, 5})
        assert mapping.decode(encoded) == frozenset({0, 2})

    def test_encode_preserves_cost(self):
        inst = make_instance(3, 2, [(0, 0), (1, 0), (2, 1)], [], [1.0, 2.0, 3.0])
        mapping = balanced_completion(inst)
        x = {1, 2}
        assert mapping.instance.cost_of(mapping.encode(x)) == inst.cost_of(x)


class TestUniformize:
    def test_copies_invulnerable(self):
        inst = make_instance(2, 2, C4_EDGES, [0, 2], [1.0, 2.0, 3.0, 4.0])
        mapping = uniformize(inst)
        new = mapping.instance
        assert new.graph.n_edges == 6
        assert new.uniform
        # copies sit after the originals, same endpoints and cost
        assert new.graph.edges[4] == inst.graph.edges[1]
        assert new.costs[4] == inst.costs[1]
        assert mapping.decode({4}) == {1} and mapping.decode({5}) == {3}

    def test_already_uniform_identity(self):
        inst = c4_uniform()
        mapping = uniformize(inst)
        assert mapping.instance.graph.n_edges == 4
        assert mapping.decode(frozenset({1, 2})) == frozenset({1, 2})

    def test_encode_at_most_doubles_cost(self):
        inst = make_instance(2, 2, C4_EDGES, [0], [1.0, 2.0, 3.0, 4.0])
        mapping = uniformize(inst)
        x = {0, 1, 2, 3}
        encoded = mapping.encode(x)
        assert mapping.instance.cost_of(encoded) <= 2 * inst.cost_of(x)
        assert is_feasible_set(mapping.instance, encoded)

    def test_decode_projects_copies(self):
        # a feasible uniformized solution may pair an original edge's copy
        # with other originals; decoding must land back on original ids
        inst = make_instance(2, 2, C4_EDGES, [0], [1.0] * 4)
        mapping = uniformize(inst)
        # copies of edges 1 and 3 are ids 4 and 6 here
        assert is_feasible_set(mapping.instance, {0, 2, 4, 6})
        decoded = mapping.decode({0, 2, 4, 6})
        assert decoded == frozenset({0, 1, 2, 3})
        assert is_feasible_set(inst, decoded)
        # plain id intersection would keep only {0, 2}, which is infeasible
        assert not is_feasible_set(inst, {0, 2})

    @settings(max_examples=60, deadline=None)
    @given(small_instance())
    def test_round_trip_feasibility(self, data):
        n_r, n_t, edges, vulnerable, costs = data
        inst = make_instance(n_r, n_t, edges, vulnerable, costs)
        full = set(range(len(edges)))
        if not oracles.brute_feasible(n_r, n_t, edges, vulnerable, full):
            return
        mapping = uniformize(inst)
        encoded = mapping.encode(full)
        assert is_feasible_set(mapping.instance, encoded)
        assert mapping.instance.cost_of(encoded) <= 2 * inst.cost_of(full) + 1e-12
        decoded = mapping.decode(encoded)
        assert decoded <= full
        assert is_feasible_set(inst, decoded)


@settings(max_examples=100, deadline=None)
@given(small_instance(balanced=False), st.data())
def test_every_mapping_round_trips(data, draw):
    # both transformations, the second applied to the first's result: a
    # subset survives encode then decode, its encoding carries every dummy,
    # the completion keeps its cost and uniformizing at most doubles it
    inst = make_instance(*data)
    completion = balanced_completion(inst)
    uniform = uniformize(completion.instance)
    for mapping, source, factor in ((completion, inst, 1), (uniform, completion.instance, 2)):
        ids = range(source.graph.n_edges)
        x = frozenset(draw.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set())))
        encoded = mapping.encode(x)
        assert mapping.decode(encoded) == x
        assert mapping.always_include <= encoded
        assert source.cost_of(x) <= mapping.instance.cost_of(encoded) <= factor * source.cost_of(x)
        if not mapping.appended:
            # the identity hands back the caller's own frozenset, not a copy
            assert encoded is x and mapping.decode(x) is x
    assert (completion.instance is inst) == inst.graph.balanced


class TestTextFormats:
    def test_instance_round_trip(self):
        inst = make_instance(2, 2, C4_EDGES, [0, 2], [1.0, 2.5, 3.0, 0.0])
        text = format_instance(inst)
        back = parse_instance(text)
        assert back.graph.edges == inst.graph.edges
        assert back.vulnerable == inst.vulnerable
        assert back.costs == inst.costs

    def test_parse_with_comments(self):
        text = """
        # sample instance
        rap 1
        graph 1 1
        edge 0 0 2 v  # the only edge
        """
        inst = parse_instance(text)
        assert inst.graph.n_edges == 1
        assert inst.costs == (2.0,)
        assert inst.vulnerable == frozenset({0})

    def test_parse_rejects_bad_header(self):
        with pytest.raises(InstanceError, match="rap 1"):
            parse_instance("rap 2\ngraph 1 1\n")

    def test_parse_rejects_bad_flag(self):
        with pytest.raises(InstanceError, match="'v' or 'i'"):
            parse_instance("rap 1\ngraph 1 1\nedge 0 0 1 x\n")

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_cost(self, cost):
        with pytest.raises(InstanceError, match="costs must be finite"):
            make_instance(2, 2, C4_EDGES, [0], [1.0, cost, 1.0, 1.0])

    @pytest.mark.parametrize("costs", [[1e308, 1e308], [1e308, 0.0]], ids=["sum", "double"])
    def test_rejects_costs_whose_doubled_total_overflows(self, costs):
        # every cost is finite; the exact total overflows, or twice it does
        with pytest.raises(InstanceError, match="half the largest float"):
            make_instance(1, 1, [(0, 0), (0, 0)], [0, 1], costs)

    def test_uniformize_accepts_an_input_below_the_total_limit(self):
        # the input's doubled total is finite, the copy's is not
        inst = make_instance(1, 1, [(0, 0), (0, 0)], [0], [4e307, 4e307])
        assert uniformize(inst).instance.costs == (4e307, 4e307, 4e307)

    def test_parse_rejects_bad_endpoint(self):
        with pytest.raises(InstanceError):
            parse_instance("rap 1\ngraph 1 1\nedge 0 5 1 v\n")

    def test_solution_round_trip(self):
        ids = frozenset({3, 0, 7})
        text = format_solution(ids)
        assert text.splitlines()[0] == "solution 3"
        assert parse_solution(text) == ids

    def test_solution_count_mismatch(self):
        with pytest.raises(InstanceError, match="header says"):
            parse_solution("solution 2\n1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rap 1\n", "expected 'graph <n_r> <n_t>'"),
            ("rap 1\ngraph 2\n", "expected 'graph <n_r> <n_t>'"),
            ("rap 1\nnodes 2 2\n", "expected 'graph <n_r> <n_t>'"),
            ("rap 1\ngraph 2 two\n", "graph line needs two integers"),
            ("rap 1\ngraph 1.5 2\n", "graph line needs two integers"),
            ("rap 1\ngraph 1 1\nedge 0 0 1\n", "expected 'edge <r> <t> <cost> <v|i>'"),
            ("rap 1\ngraph 1 1\narc 0 0 1 v\n", "expected 'edge <r> <t> <cost> <v|i>'"),
            ("rap 1\ngraph 1 1\nedge 0 zero 1 v\n", "bad edge line 'edge 0 zero 1 v'"),
            ("rap 1\ngraph 1 1\nedge 0 0 cheap v\n", "bad edge line"),
        ],
    )
    def test_parse_instance_rejects(self, text, message):
        with pytest.raises(InstanceError, match=re.escape(message)):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "expected header 'solution <count>'"),
            ("solution\n1\n", "expected header 'solution <count>'"),
            ("answer 1\n1\n", "expected header 'solution <count>'"),
            ("solution one\n1\n", "solution count must be an integer"),
            ("solution 2\n1 2\n", "expected one edge id per line, got '1 2'"),
            ("solution 1\ne1\n", "bad edge id 'e1'"),
            ("solution 2\n1\n1\n", "edge id 1 is listed twice"),
        ],
    )
    def test_parse_solution_rejects(self, text, message):
        with pytest.raises(InstanceError, match=re.escape(message)):
            parse_solution(text)


class TestRapInstance:
    def test_rejects_wrong_cost_count(self):
        with pytest.raises(InstanceError, match="one cost per edge required"):
            make_instance(2, 2, C4_EDGES, [0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("eid", [-1, 4])
    def test_rejects_vulnerable_id_outside_the_edges(self, eid):
        with pytest.raises(InstanceError, match=f"vulnerable id {eid} is not an edge"):
            make_instance(2, 2, C4_EDGES, [0, eid], [1.0] * 4)

    def test_rejects_negative_cost(self):
        with pytest.raises(InstanceError, match="costs must be non-negative"):
            make_instance(2, 2, C4_EDGES, [0], [1.0, -0.5, 1.0, 1.0])

    def test_scenarios(self):
        assert make_instance(2, 2, C4_EDGES, [3, 0, 2], [1.0] * 4).scenarios == (0, 2, 3)
        assert make_instance(2, 2, C4_EDGES, [], [1.0] * 4).scenarios == (NOMINAL_SCENARIO,)
