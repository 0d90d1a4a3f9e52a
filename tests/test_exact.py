"""Branch-and-bound exact solver against full subset enumeration."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rapkit.exact
import rapkit.lp
from rapkit import gk_family, random_instance
from rapkit.exact import ExactError, _Degrees, lower_bounds, solve_exact
from rapkit.instance import (
    InstanceError,
    make_instance,
    uniform_instance,
    verify_solution,
)
from rapkit.lp import LpError, relax, solve_lp

from oracles import (
    brute_exact,
    brute_exact_unbalanced,
    degree_bound,
    k_block_lp,
    min_cost_pm_value,
)
from strategies import small_graph, small_instance
from test_graph_core import C4_EDGES, gk_graph


def test_four_cycle_needs_all_edges():
    inst = uniform_instance(2, 2, C4_EDGES)
    sol = solve_exact(inst)
    assert sol.cost == 4.0
    assert sol.edge_ids == frozenset({0, 1, 2, 3})


def test_gk_optimum_is_long_cycle():
    g = gk_graph(3)
    inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
    sol = solve_exact(inst)
    assert sol.cost == 8.0
    verify_solution(inst, sol)


def test_nominal_is_min_cost_matching():
    edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
    costs = [3.0, 1.0, 2.0, 5.0]
    inst = make_instance(2, 2, edges, vulnerable=[], costs=costs)
    sol = solve_exact(inst)
    assert sol.cost == min_cost_pm_value(2, 2, edges, costs) == 3.0
    assert sol.edge_ids == frozenset({1, 2})


def test_ties_break_toward_smallest_ids():
    # two disjoint perfect matchings of equal cost
    inst = uniform_instance(1, 1, [(0, 0), (0, 0), (0, 0)])
    sol = solve_exact(inst)
    assert sol.cost == 2.0
    assert sol.edge_ids == frozenset({0, 1})


def test_cost_is_exactly_rounded():
    # 0.1 + 0.1 + 0.3 + 1 summed in the frozenset's order reads 1.5000000000000002
    edges = [(0, 0), (0, 1), (1, 1), (0, 0), (1, 1), (1, 0), (0, 0)]
    costs = [1, 2.5, 0.1, 0.1, 0.3, 0.1, 1]
    sol = solve_exact(make_instance(2, 2, edges, {0, 2, 3, 4, 6}, costs))
    assert sol.edge_ids == frozenset({0, 2, 3, 4})
    assert sol.cost == 1.5


def test_zero_cost_padding_is_dropped():
    # a costless vulnerable parallel edge: optimum keeps it anyway for
    # robustness, but never pads with useless extras
    edges = [(0, 0), (0, 0), (1, 1), (1, 1)]
    inst = make_instance(2, 2, edges, vulnerable=[0, 1, 2, 3], costs=[1, 0, 1, 0])
    sol = solve_exact(inst)
    assert sol.edge_ids == frozenset({0, 1, 2, 3})
    assert sol.cost == 2.0


@pytest.mark.parametrize("tiny", [1.0, 8.0])
def test_absorbed_cost_keeps_its_include_branch(tiny):
    # edge 0 lies in no perfect matching; its cost 1 vanishes in the sum
    # 2e16 + 1, so the set holding it ties and wins on ids, while 8 does not
    edges = [(0, 1), (0, 0), (1, 1)]
    costs = [tiny, 1e16, 1e16]
    cost, ids = brute_exact(2, 2, edges, set(), costs)
    sol = solve_exact(make_instance(2, 2, edges, [], costs))
    assert (sol.cost, sol.edge_ids) == (cost, ids)
    assert (0 in ids) == (tiny == 1.0)


def test_unbalanced_duplicates_the_column():
    inst = uniform_instance(2, 1, [(0, 0), (1, 0)])
    sol = solve_exact(inst)
    oracle = brute_exact_unbalanced(2, 1, [(0, 0), (1, 0)], {0, 1}, [1.0, 1.0])
    assert oracle is not None
    assert sol.cost == oracle[0]
    assert sol.edge_ids == oracle[1]


def test_infeasible_rejected():
    inst = uniform_instance(1, 1, [(0, 0)])
    with pytest.raises(InstanceError, match="infeasible instance"):
        solve_exact(inst)


def test_guard_rejects_large_instances(monkeypatch):
    # the search visits 13 nodes, each charged the 12 edges
    edges = [(i, i) for i in range(6)] + [(i, (i + 1) % 6) for i in range(6)]
    inst = uniform_instance(6, 6, edges)
    monkeypatch.setattr(rapkit.exact, "_WORK_BUDGET", 13 * 12 - 1)
    with pytest.raises(ExactError, match="^instance too large for exact solver$"):
        solve_exact(inst)
    monkeypatch.setattr(rapkit.exact, "_WORK_BUDGET", 13 * 12)
    assert solve_exact(inst).cost == 12.0


def test_guard_counts_the_completed_edges(monkeypatch):
    # 225 nodes; completing 6 x 2 adds 6 x 4 dummies, so each costs 36, not 12
    edges = [(r, t) for r in range(6) for t in range(2)]
    inst = make_instance(6, 2, edges, vulnerable=[], costs=[1] * len(edges))
    monkeypatch.setattr(rapkit.exact, "_WORK_BUDGET", 225 * 36 - 1)
    with pytest.raises(ExactError, match="^instance too large for exact solver$"):
        solve_exact(inst)
    monkeypatch.setattr(rapkit.exact, "_WORK_BUDGET", 225 * 36)
    assert solve_exact(inst).edge_ids == frozenset({0, 3})


def test_search_deeper_than_the_recursion_limit():
    # a 2-regular cycle on 1,200 nodes keeps every one of its 1,200 edges
    n = 600
    edges = [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)]
    assert solve_exact(uniform_instance(n, n, edges)).edge_ids == frozenset(range(2 * n))


@pytest.mark.parametrize(
    "n, p, seed, optimum",
    [(10, 0.3, 1, 79), (12, 0.3, 3, 62), (15, 0.25, 2, 84), (15, 0.25, 1, 94)],
    ids=["10x10", "12x12", "15x15s2", "15x15s1"],
)
def test_optimum_beyond_26_edges(n, p, seed, optimum):
    # 30, 48, 55 and 62 completed edges
    inst = random_instance(n, n, p, 0.5, (1, 10), seed=seed)
    sol = solve_exact(inst)
    verify_solution(inst, sol)
    assert sol.cost == optimum


@pytest.mark.parametrize(
    "inst, exclusions",
    [(gk_family(4), 89), (random_instance(10, 10, 0.3, 0.5, (1, 10), seed=1), 229)],
    ids=["gk4", "10x10"],
)
def test_oracle_calls_pinned(monkeypatch, inst, exclusions):
    # one child analysis per exclusion tested, so this pins the visit order
    calls = []
    real_scan_without = rapkit.exact._scan_without

    def counting_scan_without(*args):
        calls.append(args)
        return real_scan_without(*args)

    monkeypatch.setattr(rapkit.exact, "_scan_without", counting_scan_without)
    solve_exact(inst)
    assert len(calls) == exclusions


def test_determinism():
    g = gk_graph(3)
    inst = uniform_instance(g.n_r, g.n_t, list(g.edges))
    assert solve_exact(inst).edge_ids == solve_exact(inst).edge_ids


def test_lower_bounds_examples():
    inst = uniform_instance(2, 2, C4_EDGES)
    assert lower_bounds(inst) == 4.0
    g = gk_graph(3)
    gi = uniform_instance(g.n_r, g.n_t, list(g.edges))
    assert lower_bounds(gi) == 8.0
    # non-uniform unit costs: matching bound only
    ni = make_instance(2, 2, C4_EDGES, vulnerable=[0], costs=[1, 1, 1, 1])
    assert lower_bounds(ni) >= 2.0


@pytest.mark.parametrize("vulnerable", [range(4), [], [0]], ids=["uniform", "nominal", "mixed"])
def test_lower_bounds_build_no_k_block_model(monkeypatch, vulnerable):
    inst = make_instance(2, 2, C4_EDGES, vulnerable=list(vulnerable), costs=[2, 3, 5, 7])
    expected = solve_lp(k_block_lp(inst)).objective
    shapes = []
    real_simplex = rapkit.lp._simplex

    def recording_simplex(lp):
        shapes.append((lp.n_rows, lp.n_vars))
        return real_simplex(lp)

    monkeypatch.setattr(rapkit.lp, "_simplex", recording_simplex)
    assert lower_bounds(inst) == pytest.approx(expected, abs=1e-9)
    # every LP solved is a cut master: one surplus column per row
    assert shapes and all(cols == 4 + rows for rows, cols in shapes)


def test_lower_bounds_check_feasibility_once(monkeypatch):
    # the cut loop's own check decides whether the relaxation applies
    calls = []
    real_check = rapkit.lp.check_feasible

    def counting_check(inst):
        calls.append(inst)
        return real_check(inst)

    monkeypatch.setattr(rapkit.lp, "check_feasible", counting_check)
    assert lower_bounds(make_instance(2, 2, C4_EDGES, [0], [2, 3, 5, 7])) == 10.0
    # infeasible: the counting bound of unit costs, or nothing
    assert lower_bounds(make_instance(2, 2, [(0, 0), (1, 1)], [0], [1, 1])) == 2.0
    assert lower_bounds(make_instance(2, 2, [(0, 0), (1, 1)], [0], [1, 2])) == 0.0
    assert len(calls) == 3


def test_lower_bound_meets_the_optimum_on_the_uniform_c4():
    y = make_instance(2, 2, C4_EDGES, range(4), [1] * 4)
    assert solve_exact(y).cost == 4.0
    assert lower_bounds(y) == 4.0


def test_lower_bound_of_a_10x10_instance():
    # the k-block model of this instance takes 26,258 simplex pivots
    assert lower_bounds(random_instance(10, 10, 0.3, 0.5, (1, 10), seed=1)) == 79


def test_lower_bounds_keep_the_counting_bound_past_the_row_cap():
    # uniform unit costs: the seed master of 2,304 rows passes the cap, 2n remains
    inst = random_instance(60, 60, 0.3, 1.0, (1, 1), seed=1)
    with pytest.raises(LpError, match="master of 2304 rows"):
        relax(inst)
    assert lower_bounds(inst) == 120.0


def test_lower_bounds_raise_when_no_counting_bound_applies():
    inst = random_instance(60, 60, 0.3, 1.0, (1, 10), seed=1)
    with pytest.raises(LpError, match="passes 600"):
        lower_bounds(inst)


@settings(max_examples=60, deadline=None)
@given(small_instance())
def test_matches_subset_enumeration(data):
    n_r, n_t, edges, vulnerable, costs = data
    if n_r != n_t:
        return
    inst = make_instance(n_r, n_t, edges, vulnerable=vulnerable, costs=costs)
    oracle = brute_exact(n_r, n_t, edges, set(vulnerable), costs)
    if oracle is None:
        with pytest.raises(InstanceError):
            solve_exact(inst)
        return
    sol = solve_exact(inst)
    assert sol.cost == pytest.approx(oracle[0], abs=1e-9)
    assert sol.edge_ids == oracle[1]


@settings(max_examples=40, deadline=None)
@given(small_instance())
def test_lower_bounds_never_exceed_optimum(data):
    n_r, n_t, edges, vulnerable, costs = data
    if n_r != n_t:
        return
    inst = make_instance(n_r, n_t, edges, vulnerable=vulnerable, costs=costs)
    oracle = brute_exact(n_r, n_t, edges, set(vulnerable), costs)
    if oracle is None:
        return
    assert lower_bounds(inst) <= oracle[0] + 1e-6


@settings(max_examples=150, deadline=None)
@given(small_graph(max_side=3, max_edges=8), st.data())
def test_unbalanced_matches_subset_enumeration(graph, data):
    # the completion's dummy edges are free, so a tie-break that counted
    # them would pad the answer with useless zero-cost edges
    n_r, n_t, edges = graph
    ids = range(len(edges))
    vulnerable = data.draw(st.sets(st.sampled_from(ids)) if edges else st.just(set()))
    cost = st.integers(0, 9).map(float)
    costs = data.draw(st.lists(cost, min_size=len(edges), max_size=len(edges)))
    inst = make_instance(n_r, n_t, edges, vulnerable=vulnerable, costs=costs)
    if n_r < n_t:
        n_r, n_t, edges = n_t, n_r, [(t, r) for r, t in edges]
    oracle = brute_exact_unbalanced(n_r, n_t, edges, vulnerable, costs)
    if oracle is None:
        with pytest.raises(InstanceError):
            solve_exact(inst)
        return
    sol = solve_exact(inst)
    assert (sol.cost, sol.edge_ids) == (pytest.approx(oracle[0], abs=1e-9), oracle[1])


def test_unbalanced_keeps_no_useless_zero_cost_edge():
    # edge 0 is invulnerable, so it alone serves t0; edge 1 adds nothing
    sol = solve_exact(make_instance(2, 1, [(0, 0), (1, 0)], [1], [0, 0]))
    assert sol.edge_ids == frozenset({0})
    sol = solve_exact(make_instance(1, 2, [(0, 0), (0, 1)], [], [0, 0]))
    assert sol.edge_ids == frozenset({0})


# `test_outputs_pinned`: sha256 prefix of the comma-joined sorted edge ids;
# no instance has a zero-cost edge, so no tie-break on padding is involved
PINNED_EXACT_DIGESTS = {
    "gk4": "569550245175f4a9",
    "gk5": "afdc28ef5df53f1c",
    "rand6x6s3": "9e13f6070e2fe476",
    "rand6x6s5": "8a4cd73f63aac82d",
    "rand5x6s2": "2c12fb4c6d269b67",
    "rand6x5s2": "0556267e12a24741",
    "mixed5x5s1": "89302aa8cb15890c",
}


def _pinned_exact_cases():
    unit = {"edge_prob": 0.6, "vuln_prob": 1.0, "cost_range": (1, 1)}
    return {
        "gk4": gk_family(4),
        "gk5": gk_family(5),
        "rand6x6s3": random_instance(6, 6, **unit, seed=3),
        "rand6x6s5": random_instance(6, 6, **unit, seed=5),
        "rand5x6s2": random_instance(5, 6, **unit, seed=2),
        "rand6x5s2": random_instance(6, 5, **unit, seed=2),
        "mixed5x5s1": random_instance(5, 5, 0.6, 0.5, (1, 10), seed=1),
    }


def test_outputs_pinned():
    got = {}
    for name, inst in _pinned_exact_cases().items():
        text = ",".join(map(str, sorted(solve_exact(inst).edge_ids)))
        got[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert got == PINNED_EXACT_DIGESTS


FRACTIONAL_COST = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 1e9]),
)


@settings(max_examples=150, deadline=None)
@given(small_instance(cost=FRACTIONAL_COST))
def test_degree_bound_and_optimum_on_fractional_costs(data):
    n_r, n_t, edges, vulnerable, costs = data
    inst = make_instance(n_r, n_t, edges, vulnerable=vulnerable, costs=costs)
    oracle = brute_exact(n_r, n_t, edges, set(vulnerable), costs)
    if oracle is None:
        return
    order = sorted(range(len(edges)), key=lambda e: (-costs[e], e))
    bound = _Degrees(inst, order, frozenset()).bound()
    assert bound is not None
    assert bound <= oracle[0] * (1 + 1e-9)
    sol = solve_exact(inst)
    assert sol.edge_ids == oracle[1]
    assert sol.cost == pytest.approx(oracle[0], rel=1e-12, abs=1e-12)


# costs whose binary exponents lie far apart, so that a float running sum
# of the needs loses digits that a correctly rounded sum keeps
SPREAD_COST = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 7.0, 1e-300, 3e-5, 1e16, 4e300])


@settings(max_examples=300, deadline=None)
@given(small_instance(max_edges=12, cost=SPREAD_COST), st.data())
def test_degree_bound_equals_the_reference_along_a_search_walk(data, walk):
    # a random depth-first walk of the search's moves: exclude an edge,
    # then include it, then undo it; the bound must equal the reference's
    # to the bit after every move
    n_r, n_t, edges, vulnerable, costs = data
    inst = make_instance(n_r, n_t, edges, vulnerable=vulnerable, costs=costs)
    ids = range(len(edges))
    fixed = frozenset(walk.draw(st.sets(st.sampled_from(ids)) if edges else st.just(set())))
    order = sorted(set(ids) - fixed, key=lambda e: (-costs[e], e))
    degrees = _Degrees(inst, order, fixed)
    included: list[bool] = []  # per decided edge, in order
    for deeper in walk.draw(st.lists(st.booleans(), max_size=40)):
        depth = len(included)
        if deeper and depth < len(order):
            degrees.move(order[depth], 1, 0)
            included.append(False)
        elif included and not included[-1]:
            degrees.move(order[depth - 1], 0, 1)
            included[-1] = True
        elif included:
            degrees.move(order[depth - 1], -1, -1)
            included.pop()
        kept = fixed | {e for e, inc in zip(order, included) if inc}
        undecided = set(order[len(included) :])
        assert degrees.bound() == degree_bound(
            n_r, n_t, edges, vulnerable, costs, kept, undecided
        )
