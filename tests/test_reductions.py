"""Generator correctness: set-cover encodings, the tightness family, the
nice-path gadget, and random instances."""

import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapkit.exact import solve_exact
from rapkit.ear import solve_ear
from rapkit.graph_core import BipartiteMultigraph
from rapkit.instance import (
    InfeasibleSolutionError,
    InstanceError,
    check_feasible,
    format_instance,
    is_feasible_set,
    parse_instance,
    solution_for,
)
from rapkit.reductions import (
    SetCoverInstance,
    decode_cover,
    format_reduced,
    format_set_cover,
    from_set_cover,
    from_snpp,
    gk_family,
    make_set_cover,
    parse_set_cover,
    random_instance,
    random_snpp,
)

from oracles import min_cover_size, shortest_nice_path
from test_graph_core import gk_graph

# every set-cover instance with k <= 3 ground elements and at most two sets
TINY_COVERS = [
    (1, [{1}]),
    (1, [{1}, {1}]),
    (2, [{1, 2}]),
    (2, [{1}, {2}]),
    (2, [{1}, {1, 2}]),
    (2, [{1, 2}, {1, 2}]),
    (3, [{1, 2, 3}]),
    (3, [{1, 2}, {3}]),
    (3, [{1, 2}, {2, 3}]),
    (3, [{1, 2, 3}, {2}]),
]


def seeded_covers(count: int, max_k: int = 5, max_sets: int = 4, seed: int = 20):
    """Random feasible set-cover instances, non-covering drafts discarded."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(1, max_k + 1))
        l = int(rng.integers(1, max_sets + 1))
        sets = []
        for _ in range(l):
            mask = rng.random(k) < 0.6
            elems = {s + 1 for s in range(k) if mask[s]}
            if elems:
                sets.append(elems)
        if sets and set().union(*sets) == set(range(1, k + 1)):
            out.append(make_set_cover(k, sets))
    return out


def cover_equivalence(sc, variant):
    """Selecting indicators on top of the free edges is feasible exactly
    for the covering subsets; checked over all 2^l subsets."""
    ri = from_set_cover(sc, variant)
    ground = set(range(1, sc.k + 1))
    base = frozenset(range(ri.rap.graph.n_edges)) - ri.role_ids("E4")
    l = len(sc.sets)
    for size in range(l + 1):
        for combo in combinations(range(l), size):
            x = set(base) | {ri.indicator[j] for j in combo}
            covered = set().union(*(sc.sets[j] for j in combo)) if combo else set()
            assert is_feasible_set(ri.rap, x) == (covered == ground)


class TestSetCoverInstance:
    def test_accepts_covering_sets(self):
        sc = make_set_cover(3, [{1, 2}, {3}])
        assert sc.k == 3
        assert sc.sets == (frozenset({1, 2}), frozenset({3}))

    def test_rejects_uncovered_ground(self):
        with pytest.raises(InstanceError, match="do not cover"):
            make_set_cover(3, [{1, 2}])

    def test_rejects_foreign_element(self):
        with pytest.raises(InstanceError, match="outside the ground set"):
            make_set_cover(2, [{1, 2, 3}])

    def test_rejects_empty_set(self):
        with pytest.raises(InstanceError, match="non-empty"):
            make_set_cover(1, [{1}, set()])

    def test_rejects_empty_ground(self):
        with pytest.raises(InstanceError, match="ground set"):
            SetCoverInstance(0, ())

    def test_parse_round_trip(self):
        text = "setcover 3 2\nset 1 2\nset 3\n"
        sc = parse_set_cover(text)
        assert sc == make_set_cover(3, [{1, 2}, {3}])
        assert format_set_cover(sc) == text
        assert parse_set_cover(format_set_cover(sc)) == sc

    def test_parse_ignores_comments(self):
        sc = parse_set_cover("# cover\nsetcover 1 1\nset 1  # all\n")
        assert sc == make_set_cover(1, [{1}])

    def test_parse_rejects_bad_header(self):
        with pytest.raises(InstanceError, match="setcover"):
            parse_set_cover("cover 1 1\nset 1\n")

    def test_parse_rejects_wrong_count(self):
        with pytest.raises(InstanceError, match="found"):
            parse_set_cover("setcover 1 2\nset 1\n")

    def test_parse_rejects_bad_element(self):
        with pytest.raises(InstanceError, match="bad element"):
            parse_set_cover("setcover 1 1\nset one\n")

    def test_parse_rejects_non_integer_header(self):
        with pytest.raises(InstanceError, match="setcover header needs two integers"):
            parse_set_cover("setcover 1 many\nset 1\n")

    @pytest.mark.parametrize("line", ["set", "sets 1"])
    def test_parse_rejects_bad_set_line(self, line):
        with pytest.raises(InstanceError, match=f"expected 'set <elem> ...', got '{line}'"):
            parse_set_cover(f"setcover 1 1\n{line}\n")


class TestBasicVariant:
    def test_single_set_counts(self):
        # k=2 with one two-element set: 4 nodes per side, 9 edges
        ri = from_set_cover(make_set_cover(2, [{1, 2}]), "basic")
        assert ri.rap.graph.n_r == ri.rap.graph.n_t == 4
        assert ri.rap.graph.n_edges == 9

    def test_counts_formula(self):
        for sc in seeded_covers(8, seed=3):
            ri = from_set_cover(sc, "basic")
            l = len(sc.sets)
            total = sum(len(s) for s in sc.sets)
            assert ri.rap.graph.n_r == ri.rap.graph.n_t == 2 * l + sc.k
            assert ri.rap.graph.n_edges == 3 * l + sc.k + 2 * total

    def test_vulnerable_set_is_element_chain(self):
        for sc in [make_set_cover(2, [{1, 2}]), make_set_cover(3, [{1}, {2, 3}])]:
            ri = from_set_cover(sc, "basic")
            assert ri.rap.vulnerable == ri.role_ids("E1")
            assert len(ri.rap.vulnerable) == sc.k

    def test_costs_charge_only_indicators(self):
        ri = from_set_cover(make_set_cover(2, [{1}, {2}]), "basic")
        for e in range(ri.rap.graph.n_edges):
            assert ri.rap.costs[e] == (1.0 if ri.roles[e] == "E4" else 0.0)
        assert set(ri.indicator.values()) == set(ri.role_ids("E4"))

    def test_roles_partition_edges(self):
        ri = from_set_cover(make_set_cover(3, [{1, 3}, {2}]), "basic")
        assert len(ri.roles) == ri.rap.graph.n_edges
        counts = {role: 0 for role in ("E1", "E2", "E3", "E4", "E5", "E6")}
        for role in ri.roles:
            counts[role] += 1
        l, total = 2, 3
        assert counts == {
            "E1": 3, "E2": total, "E3": l, "E4": l, "E5": l, "E6": total,
        }

    def test_instances_are_feasible(self):
        for sc in seeded_covers(6, seed=9):
            assert check_feasible(from_set_cover(sc, "basic").rap)

    def test_rejects_unknown_variant(self):
        with pytest.raises(InstanceError, match="unknown variant"):
            from_set_cover(make_set_cover(1, [{1}]), "fancy")

    def test_cover_equivalence_tiny(self):
        for k, sets in TINY_COVERS:
            cover_equivalence(make_set_cover(k, sets), "basic")

    def test_cover_equivalence_seeded(self):
        for sc in seeded_covers(10, seed=77):
            cover_equivalence(sc, "basic")

    def test_dump_round_trips_and_names_indicators(self):
        ri = from_set_cover(make_set_cover(2, [{1, 2}]), "basic")
        text = format_reduced(ri)
        back = parse_instance(text)
        assert back.graph.edges == ri.rap.graph.edges
        assert back.vulnerable == ri.rap.vulnerable
        assert back.costs == ri.rap.costs
        assert "indicator S1" in text


class TestDecodeCover:
    def test_single_indicator_decodes_to_its_set(self):
        sc = make_set_cover(2, [{1, 2}])
        ri = from_set_cover(sc, "basic")
        base = frozenset(range(ri.rap.graph.n_edges)) - ri.role_ids("E4")
        x = solution_for(ri.rap, base | {ri.indicator[0]})
        assert decode_cover(ri, x) == (frozenset({1, 2}),)

    def test_full_edge_set_decodes_to_everything(self):
        sc = make_set_cover(2, [{1}, {1, 2}])
        ri = from_set_cover(sc, "basic")
        x = solution_for(ri.rap, range(ri.rap.graph.n_edges))
        assert decode_cover(ri, x) == sc.sets

    def test_zero_cost_edges_added_back_before_decode(self):
        sc = make_set_cover(1, [{1}])
        ri = from_set_cover(sc, "basic")
        x = solution_for(ri.rap, [ri.indicator[0]])
        assert decode_cover(ri, x) == (frozenset({1}),)

    def test_infeasible_solution_fails_verification(self):
        sc = make_set_cover(2, [{1}, {2}])
        ri = from_set_cover(sc, "basic")
        base = frozenset(range(ri.rap.graph.n_edges)) - ri.role_ids("E4")
        with pytest.raises(InfeasibleSolutionError):
            decode_cover(ri, solution_for(ri.rap, base | {ri.indicator[0]}))


class TestUniformWeighted:
    def test_every_edge_vulnerable(self):
        ri = from_set_cover(make_set_cover(2, [{1, 2}]), "uniform_weighted")
        assert ri.rap.uniform

    def test_counts_formula(self):
        for sc in seeded_covers(6, max_k=4, max_sets=3, seed=4):
            ri = from_set_cover(sc, "uniform_weighted")
            l = len(sc.sets)
            total = sum(len(s) for s in sc.sets)
            assert ri.rap.graph.n_r == ri.rap.graph.n_t == 6 * l + sc.k
            assert ri.rap.graph.n_edges == 13 * l + sc.k + 2 * total

    def test_costs_charge_only_indicators(self):
        ri = from_set_cover(make_set_cover(1, [{1}]), "uniform_weighted")
        for e in range(ri.rap.graph.n_edges):
            assert ri.rap.costs[e] == (1.0 if ri.roles[e] == "E4" else 0.0)

    def test_instances_are_feasible(self):
        for sc in seeded_covers(5, max_k=4, max_sets=3, seed=11):
            assert check_feasible(from_set_cover(sc, "uniform_weighted").rap)

    def test_cover_equivalence_tiny(self):
        for k, sets in TINY_COVERS:
            cover_equivalence(make_set_cover(k, sets), "uniform_weighted")

    def test_cover_equivalence_seeded(self):
        for sc in seeded_covers(5, max_k=4, max_sets=3, seed=78):
            cover_equivalence(sc, "uniform_weighted")


class TestUniformCard:
    def test_unit_costs_everywhere(self):
        ri = from_set_cover(make_set_cover(1, [{1}]), "uniform_card")
        assert ri.rap.uniform
        assert all(c == 1.0 for c in ri.rap.costs)

    def test_counts_formula(self):
        for sc in seeded_covers(5, max_k=3, max_sets=2, seed=5):
            ri = from_set_cover(sc, "uniform_card")
            l = len(sc.sets)
            total = sum(len(s) for s in sc.sets)
            assert ri.rap.graph.n_r == ri.rap.graph.n_t == 6 * l + 2 * sc.k
            assert ri.rap.graph.n_edges == 13 * l + 3 * sc.k + 2 * total

    def test_exact_optimum_counts_cover(self):
        # optimum = forced chain edges + one membership pair per element
        # + one indicator per chosen set
        for k, sets in TINY_COVERS:
            sc = make_set_cover(k, sets)
            if len(sc.sets) > 2 or sc.k > 2:
                continue
            ri = from_set_cover(sc, "uniform_card")
            q = sum(1 for role in ri.roles if role in ("E1", "E3", "E5"))
            sol = solve_exact(ri.rap)
            assert sol.cost == q + 2 * sc.k + min_cover_size(sc.k, list(sc.sets))
            cover = decode_cover(ri, sol)
            covered = set().union(*cover) if cover else set()
            assert covered == set(range(1, sc.k + 1))

    def test_larger_instances_stay_feasible(self):
        for sc in seeded_covers(4, max_k=4, max_sets=3, seed=12):
            assert check_feasible(from_set_cover(sc, "uniform_card").rap)


class TestGkFamily:
    def test_rejects_small_k(self):
        for k in (0, 1, 2):
            with pytest.raises(InstanceError, match="k >= 3"):
                gk_family(k)

    def test_k3_counts(self):
        inst = gk_family(3)
        assert inst.graph.n_r == inst.graph.n_t == 4
        assert inst.graph.n_edges == 12

    def test_matches_reference_construction(self):
        for k in (3, 4, 5, 6):
            inst = gk_family(k)
            ref = gk_graph(k)
            assert inst.graph.edges == ref.edges
            assert inst.graph.n_r == ref.n_r
            assert inst.uniform
            assert all(c == 1.0 for c in inst.costs)

    def test_exact_optimum_is_2k_plus_2(self):
        for k in (3, 4):
            sol = solve_exact(gk_family(k))
            assert sol.cost == 2 * k + 2

    def test_all_paths_is_worst_admissible(self):
        # keeping every three-edge path is feasible at 3k edges
        for k in (3, 4, 5):
            inst = gk_family(k)
            path_ids = set(range(1, 3 * k + 1))
            assert is_feasible_set(inst, path_ids)
            assert len(path_ids) == 3 * k

    def test_ear_lands_in_band(self):
        for k in (3, 4, 5):
            inst = gk_family(k)
            sol = solve_ear(inst)
            assert 2 * k + 2 <= len(sol.edge_ids) <= 3 * k


class TestFromSnpp:
    def test_single_edge_becomes_four_cycle(self):
        h = BipartiteMultigraph(1, 1, [(0, 0)])
        inst = from_snpp(h, ("t", 0), ("r", 0))
        assert inst.graph.n_r == inst.graph.n_t == 2
        assert inst.graph.n_edges == 4
        assert inst.vulnerable == frozenset({1, 2})
        assert all(c == 1.0 for c in inst.costs)
        assert solve_exact(inst).cost == 4.0

    def test_added_edges_touch_fresh_nodes(self):
        h = BipartiteMultigraph(2, 2, [(0, 0), (1, 1), (0, 1)])
        inst = from_snpp(h, ("t", 1), ("r", 0))
        m = h.n_edges
        assert inst.graph.edges[m] == (2, 1)       # f1 = {s, x}
        assert inst.graph.edges[m + 1] == (2, 2)   # f2 = {x, y}
        assert inst.graph.edges[m + 2] == (0, 2)   # g = {y, t}
        assert inst.vulnerable == frozenset({m, m + 1})

    def test_rejects_wrong_sides(self):
        h = BipartiteMultigraph(1, 1, [(0, 0)])
        with pytest.raises(InstanceError, match="t-side"):
            from_snpp(h, ("r", 0), ("r", 0))
        with pytest.raises(InstanceError, match="r-side"):
            from_snpp(h, ("t", 0), ("t", 0))
        with pytest.raises(InstanceError, match="t-side"):
            from_snpp(h, ("t", 5), ("r", 0))

    def test_rejects_unbalanced_graph(self):
        h = BipartiteMultigraph(2, 1, [(0, 0), (1, 0)])
        with pytest.raises(InstanceError, match="balanced"):
            from_snpp(h, ("t", 0), ("r", 0))

    def test_optimum_counts_shortest_nice_path(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 12:
            side = int(rng.integers(1, 5))
            edges = [
                (r, t)
                for r in range(side)
                for t in range(side)
                if rng.random() < 0.55
            ]
            if not edges:
                continue
            h = BipartiteMultigraph(side, side, edges)
            s = ("t", int(rng.integers(side)))
            t = ("r", int(rng.integers(side)))
            inst = from_snpp(h, s, t)
            length = shortest_nice_path(side, side, edges, s[1], t[1])
            if length is None:
                assert not check_feasible(inst)
                continue
            opt = solve_exact(inst).cost
            assert opt == side + length / 2 + 2
            done += 1

    def test_no_nice_path_means_infeasible(self):
        # two isolated pairs: any s-t path leaves its endpoints' partners
        # unmatched, so no nice path and no robust solution
        h = BipartiteMultigraph(2, 2, [(0, 0), (1, 1)])
        inst = from_snpp(h, ("t", 0), ("r", 1))
        assert shortest_nice_path(2, 2, list(h.edges), 0, 1) is None
        assert not check_feasible(inst)


class TestRandomInstance:
    def test_deterministic_for_seed(self):
        a = random_instance(4, 4, 0.6, 0.5, (1, 8), seed=13)
        b = random_instance(4, 4, 0.6, 0.5, (1, 8), seed=13)
        assert a.graph.edges == b.graph.edges
        assert a.vulnerable == b.vulnerable
        assert a.costs == b.costs

    def test_complete_uniform(self):
        inst = random_instance(3, 3, 1.0, 1.0, (1, 1), seed=0)
        assert inst.graph.n_edges == 9
        assert inst.uniform

    def test_no_vulnerability(self):
        inst = random_instance(3, 3, 0.8, 0.0, (1, 5), seed=2)
        assert inst.vulnerable == frozenset()

    def test_results_are_feasible(self):
        from rapkit.instance import balanced_completion

        for seed in range(6):
            inst = random_instance(3, 4, 0.5, 0.6, (1, 9), seed=seed)
            work = inst if inst.graph.balanced else balanced_completion(inst).instance
            assert check_feasible(work)

    def test_costs_respect_range(self):
        inst = random_instance(4, 4, 0.7, 0.5, (2, 3), seed=7)
        assert all(c in (2.0, 3.0) for c in inst.costs)

    def test_gives_up_when_hopeless(self):
        with pytest.raises(InstanceError, match="could not generate"):
            random_instance(2, 2, 0.0, 0.5, (1, 2), seed=1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InstanceError, match="edge_prob"):
            random_instance(2, 2, 1.5, 0.5)
        with pytest.raises(InstanceError, match="cost range"):
            random_instance(2, 2, 0.5, 0.5, (4, 1))
        with pytest.raises(InstanceError, match="one node"):
            random_instance(0, 2, 0.5, 0.5)

    def test_draws_pinned(self):
        # random_instance and random_snpp share one draw loop; these bytes
        # were written by the two generators before they shared it
        h = hashlib.sha256()
        for seed in range(5):
            h.update(format_instance(random_snpp(4, 0.5, seed)).encode())
            h.update(format_instance(random_instance(4, 5, 0.5, 0.5, (1, 9), seed=seed)).encode())
        assert h.hexdigest() == "785a4a1f3d1b2f31b43a8e91b24fc1ad9fcf34d854eb0d2f6f85c970491161e3"


class TestRandomSnpp:
    def test_gadget_on_a_feasible_draw(self):
        inst = random_snpp(3, 0.6, seed=4)
        assert (inst.graph.n_r, inst.graph.n_t) == (4, 4)
        m = inst.graph.n_edges
        assert inst.graph.edges[-3:] == ((3, 0), (3, 3), (0, 3))
        assert inst.vulnerable == {m - 3, m - 2}
        assert check_feasible(inst)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InstanceError, match="one node"):
            random_snpp(0, 0.5)
        with pytest.raises(InstanceError, match="edge_prob"):
            random_snpp(3, -0.1)
        with pytest.raises(InstanceError, match="could not generate"):
            random_snpp(2, 0.0)


@st.composite
def cover_instances(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    l = draw(st.integers(min_value=1, max_value=4))
    ground = list(range(1, k + 1))
    sets = [
        draw(st.sets(st.sampled_from(ground), min_size=1, max_size=k))
        for _ in range(l - 1)
    ]
    covered = set().union(*sets) if sets else set()
    # force overall coverage with one completing set
    missing = set(ground) - covered
    extra = draw(st.sets(st.sampled_from(ground), max_size=k)) | missing
    sets.append(extra or {1})
    return make_set_cover(k, sets)


@given(cover_instances(), st.sampled_from(["basic", "uniform_weighted", "uniform_card"]))
@settings(max_examples=40, deadline=None)
def test_reduction_shape_properties(sc, variant):
    ri = from_set_cover(sc, variant)
    g = ri.rap.graph
    assert g.balanced
    assert len(ri.roles) == g.n_edges
    assert check_feasible(ri.rap)
    assert set(ri.indicator.values()) == set(ri.role_ids("E4"))
    assert len(ri.indicator) == len(sc.sets)
    if variant == "basic":
        assert ri.rap.vulnerable == ri.role_ids("E1")
    else:
        assert ri.rap.uniform
    # the all-in solution always decodes to the full collection
    full = solution_for(ri.rap, range(g.n_edges))
    assert decode_cover(ri, full) == sc.sets
