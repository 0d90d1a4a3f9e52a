"""Acceptance gate: end-to-end behavior checks with printed verdicts.

Each test covers one advertised guarantee, collects every violation it
finds, and prints a single PASS or FAIL line (run pytest with -s to see
them).  Tolerances are stated inline; counting identities are checked in
exact integer arithmetic.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from oracles import (
    brute_exact_unbalanced,
    brute_feasible,
    enumerate_perfect_matchings,
    k_block_lp,
    min_cost_pm_value,
    min_cover_size,
    shortest_nice_path,
)
from rapkit.decompose import birkhoff_decompose, make_combination, sample
from rapkit.exact import ExactError, solve_exact
from rapkit.graph_core import BipartiteMultigraph, Matching, matching_covered_components
from rapkit.instance import (
    InfeasibleSolutionError,
    RapInstance,
    Solution,
    balanced_completion,
    check_feasible,
    is_feasible_set,
    make_instance,
    prune_to_minimal,
    solution_for,
    uniformize,
    verify_solution,
)
from rapkit.ear import solve_ear
from rapkit.lp import solve_lp
from rapkit.reductions import (
    from_set_cover,
    from_snpp,
    gk_family,
    make_set_cover,
    random_instance,
)
from rapkit.rounding import prepare, solve_lp_round


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def cost_of(inst: RapInstance, edge_ids) -> float:
    return sum(inst.costs[e] for e in edge_ids)


# shared instance suites, built once and reused across checks


@lru_cache(maxsize=None)
def random_suite() -> tuple[RapInstance, ...]:
    """50 seeded feasible balanced instances with n <= 12, m <= 20."""
    probs = {3: 0.75, 4: 0.65, 5: 0.55, 6: 0.5}
    out: list[RapInstance] = []
    seed = 4000
    while len(out) < 50:
        side = (3, 4, 5, 6)[len(out) % 4]
        try:
            inst = random_instance(side, side, probs[side], 0.5, (1, 10), seed=seed)
        except Exception:
            inst = None
        seed += 1
        if inst is not None and inst.graph.n_edges <= 20:
            out.append(inst)
    return tuple(out)


@lru_cache(maxsize=None)
def suite_optima() -> tuple[Solution, ...]:
    return tuple(solve_exact(inst) for inst in random_suite())


@lru_cache(maxsize=None)
def unbalanced_suite() -> tuple[RapInstance, ...]:
    """20 seeded feasible unbalanced instances, n <= 12, small enough to
    compare against subset enumeration."""
    shapes = ((3, 4), (4, 3), (4, 5), (5, 4), (3, 5), (5, 3), (2, 4), (4, 2), (2, 3), (3, 2))
    out: list[RapInstance] = []
    seed = 9000
    while len(out) < 20:
        n_r, n_t = shapes[len(out) % len(shapes)]
        try:
            inst = random_instance(n_r, n_t, 0.7, 0.5, (1, 9), seed=seed)
        except Exception:
            inst = None
        seed += 1
        if inst is not None and inst.graph.n_edges <= 12:
            out.append(inst)
    return tuple(out)


@lru_cache(maxsize=None)
def snpp_suite() -> tuple[tuple[RapInstance, int | None, int], ...]:
    """30 seeded path-gadget instances with the oracle's answer attached.

    Each entry is (instance, shortest nice path node count or None, side).
    """
    rng = np.random.default_rng(8)
    out = []
    while len(out) < 30:
        side = int(rng.integers(2, 5))
        edges = [
            (r, t) for r in range(side) for t in range(side) if rng.random() < 0.7
        ]
        src = int(rng.integers(side))
        dst = int(rng.integers(side))
        h = BipartiteMultigraph(side, side, edges)
        inst = from_snpp(h, ("t", src), ("r", dst))
        out.append((inst, shortest_nice_path(side, side, edges, src, dst), side))
    return tuple(out)


@lru_cache(maxsize=None)
def tiny_cover_grid():
    """Every covering collection with at most 2 elements and 2 sets."""
    out = []
    for k in (1, 2):
        ground = frozenset(range(1, k + 1))
        subsets = [
            frozenset(s)
            for r in range(1, k + 1)
            for s in combinations(sorted(ground), r)
        ]
        for l in (1, 2):
            for combo in combinations_with_replacement(subsets, l):
                if frozenset().union(*combo) == ground:
                    out.append(make_set_cover(k, combo))
    return tuple(out)


# fixed catalogue for the cover-equivalence sweep: 25 instances, k <= 5,
# at most 4 sets each, elements drawn from the 1-based ground set {1..k}
COVER_CATALOGUE = [
    (1, [{1}]),
    (1, [{1}, {1}]),
    (2, [{1, 2}]),
    (2, [{1}, {2}]),
    (2, [{1}, {1, 2}]),
    (2, [{1}, {2}, {1, 2}]),
    (2, [{1, 2}, {1, 2}]),
    (3, [{1, 2, 3}]),
    (3, [{1}, {2}, {3}]),
    (3, [{1, 2}, {3}]),
    (3, [{1, 2}, {2, 3}]),
    (3, [{1, 2}, {2, 3}, {1, 3}]),
    (3, [{1}, {1, 2}, {1, 2, 3}]),
    (3, [{1, 2, 3}, {1}, {2}, {3}]),
    (4, [{1, 2, 3, 4}]),
    (4, [{1, 2}, {3, 4}]),
    (4, [{1, 2}, {2, 3}, {3, 4}]),
    (4, [{1}, {2}, {3}, {4}]),
    (4, [{1, 2, 3}, {2, 3, 4}]),
    (4, [{1, 4}, {2, 3}, {1, 2, 3, 4}]),
    (5, [{1, 2, 3, 4, 5}]),
    (5, [{1, 2}, {3, 4}, {4, 5}]),
    (5, [{1, 2, 3}, {3, 4, 5}]),
    (5, [{1}, {2, 3}, {4, 5}, {1, 3, 5}]),
    (5, [{1, 2, 3, 4}, {2, 3, 4, 5}, {1, 5}]),
]


def seeded_covers(count: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(1, 6))
        l = int(rng.integers(1, 5))
        sets = []
        for _ in range(l):
            mask = rng.random(k) < 0.6
            if not mask.any():
                mask[int(rng.integers(k))] = True
            sets.append(frozenset(int(i) + 1 for i in np.flatnonzero(mask)))
        if frozenset().union(*sets) == frozenset(range(1, k + 1)):
            out.append(make_set_cover(k, tuple(sets)))
    return out


def covers_ground(sc, chosen: tuple[int, ...]) -> bool:
    union = set().union(*(sc.sets[j] for j in chosen)) if chosen else set()
    return union >= set(range(1, sc.k + 1))


def test_tightness_family_closed_form_and_ear_band():
    problems = []
    t0 = time.perf_counter()
    for k in (3, 4):
        inst = gk_family(k)
        best = solve_exact(inst)
        if best.cost != 2 * k + 2:
            problems.append(f"k={k} exact {best.cost} != {2 * k + 2}")
        ear = solve_ear(inst)
        try:
            verify_solution(inst, ear)
        except InfeasibleSolutionError:
            problems.append(f"k={k} ear output infeasible")
            continue
        size = len(ear.edge_ids)
        if not 2 * k + 2 <= size <= 3 * k:
            problems.append(f"k={k} ear size {size} outside [{2 * k + 2}, {3 * k}]")
        if 2 * size > 3 * (2 * k + 2):
            problems.append(f"k={k} ear ratio above 1.5")
    # independent confirmation at k = 3: scan the whole subset lattice
    g3 = gk_family(3)
    edges = list(g3.graph.edges)
    vuln = set(g3.vulnerable)
    best_size = 13
    for mask in range(1 << 12):
        x = {e for e in range(12) if mask >> e & 1}
        if len(x) < best_size and brute_feasible(4, 4, edges, vuln, x):
            best_size = len(x)
    if best_size != 8:
        problems.append(f"subset scan found optimum {best_size} != 8")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s, budget 5s")
    check(
        "tightness family: optimum 2k+2, ear within [2k+2, 3k]",
        not problems,
        problems[0] if problems else f"subset scan agrees, {elapsed:.1f}s",
    )


def test_cover_subsets_verify_exactly_when_they_cover():
    fixed = [make_set_cover(k, tuple(frozenset(s) for s in sets))
             for k, sets in COVER_CATALOGUE]
    instances = fixed + seeded_covers(25, seed=2)
    problems = []
    t0 = time.perf_counter()
    for sc in instances:
        ri = from_set_cover(sc, "basic")
        skeleton = frozenset(range(ri.rap.graph.n_edges)) - frozenset(
            ri.indicator.values()
        )
        for size in range(len(sc.sets) + 1):
            for chosen in combinations(range(len(sc.sets)), size):
                x = skeleton | {ri.indicator[j] for j in chosen}
                try:
                    verify_solution(ri.rap, solution_for(ri.rap, x))
                    feasible = True
                except InfeasibleSolutionError:
                    feasible = False
                if feasible != covers_ground(sc, chosen):
                    problems.append(
                        f"k={sc.k} sets={[sorted(s) for s in sc.sets]} "
                        f"chosen={chosen}: verify={feasible}"
                    )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    check(
        "cover reduction: chosen sets cover iff solution verifies",
        not problems,
        problems[0] if problems else f"50 instances, all subsets, {elapsed:.1f}s",
    )


def test_unit_cost_reduction_optimum_counts_cover():
    problems = []
    t0 = time.perf_counter()
    for sc in tiny_cover_grid():
        ri = from_set_cover(sc, "uniform_card")
        q = sum(len(ri.role_ids(role)) for role in ("E1", "E3", "E5"))
        want = q + 2 * sc.k + min_cover_size(sc.k, list(sc.sets))
        got = solve_exact(ri.rap).cost
        if got != want:
            problems.append(
                f"k={sc.k} sets={[sorted(s) for s in sc.sets]}: {got} != {want}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    check(
        "unit-cost reduction: optimum is chain edges + 2k + cover size",
        not problems,
        problems[0] if problems else f"{len(tiny_cover_grid())} instances, {elapsed:.1f}s",
    )


def test_relaxation_bounds_optimum_and_matches_assignment():
    problems = []
    for inst, best in zip(random_suite(), suite_optima()):
        lp_value = solve_lp(k_block_lp(inst)).objective
        if lp_value > best.cost + 1e-6:
            problems.append(f"lp {lp_value} above optimum {best.cost}")
        g = inst.graph
        plain = make_instance(g.n_r, g.n_t, list(g.edges), [], list(inst.costs))
        plain_lp = solve_lp(k_block_lp(plain)).objective
        ref = min_cost_pm_value(g.n_r, g.n_t, list(g.edges), list(inst.costs))
        if ref is None or abs(plain_lp - ref) > 1e-6:
            problems.append(f"invulnerable lp {plain_lp} != assignment {ref}")
    check(
        "relaxation: never above optimum, exact on invulnerable instances",
        not problems,
        problems[0] if problems else "50 instances within 1e-6",
    )


def test_rounding_feasible_within_iteration_budget():
    problems = []
    ratios = []
    for inst, best in zip(random_suite(), suite_optima()):
        plan = prepare(inst)
        m = inst.graph.n_edges
        for seed in range(5):
            sol, trace = solve_lp_round(inst, seed=seed, plan=plan)
            try:
                verify_solution(inst, sol)
            except InfeasibleSolutionError:
                problems.append(f"seed {seed} output infeasible")
                continue
            if trace.iterations > m:
                problems.append(f"seed {seed}: {trace.iterations} iterations > {m}")
            ratios.append(sol.cost / best.cost)
    mean_ratio = sum(ratios) / len(ratios) if ratios else float("nan")
    # 1.1135 is this mean when the rounding read the k-block model's optimal point
    if not problems and not mean_ratio <= 1.1135:
        problems.append(f"mean cost ratio vs optimum {mean_ratio:.4f} above 1.1135")
    check(
        "rounding: all 250 runs verified, iterations within edge count, mean ratio <= 1.1135",
        not problems,
        problems[0] if problems else f"mean cost ratio vs optimum {mean_ratio:.4f}",
    )


def test_decomposition_reconstructs_and_samples_faithfully():
    rng = np.random.default_rng(6)
    problems = []
    done = 0
    while done < 100:
        side = int(rng.integers(2, 7))
        edges = [
            (r, t) for r in range(side) for t in range(side) if rng.random() < 0.6
        ]
        pms = enumerate_perfect_matchings(side, side, edges)
        if not pms:
            continue
        terms = min(5, len(pms))
        idx = [int(i) for i in rng.choice(len(pms), size=terms, replace=False)]
        lam = rng.dirichlet(np.ones(terms))
        x = np.zeros(len(edges))
        for w, i in zip(lam, idx):
            for e in pms[i]:
                x[e] += w
        g = BipartiteMultigraph(side, side, edges)
        cc = birkhoff_decompose(g, None, x)
        err = float(np.max(np.abs(cc.reconstruct(len(edges)) - x)))
        weight_gap = abs(sum(w for w, _ in cc.terms) - 1.0)
        if err > 1e-6:
            problems.append(f"reconstruction error {err:.2e}")
        if weight_gap > 1e-9:
            problems.append(f"weights sum off by {weight_gap:.2e}")
        if len(cc.terms) > len(edges):
            problems.append(f"{len(cc.terms)} terms for {len(edges)} edges")
        done += 1

    # frequency fidelity on two-matching combinations
    checked = 0
    while checked < 5:
        side = int(rng.integers(2, 7))
        edges = [
            (r, t) for r in range(side) for t in range(side) if rng.random() < 0.6
        ]
        pms = enumerate_perfect_matchings(side, side, edges)
        if len(pms) < 2:
            continue
        weight = float(rng.uniform(0.2, 0.8))
        cc = make_combination(
            [
                (weight, Matching(pms[0], perfect=True)),
                (1.0 - weight, Matching(pms[1], perfect=True)),
            ]
        )
        hits = sum(
            sample(cc, rng).edge_ids == pms[0] for _ in range(10_000)
        )
        freq = hits / 10_000
        if abs(freq - weight) > 0.03:
            problems.append(f"sampled {freq:.3f} for weight {weight:.3f}")
        checked += 1
    check(
        "decomposition: reconstructs within 1e-6 and samples match weights",
        not problems,
        problems[0] if problems else "100 points, 5 sampling runs",
    )


def test_pruned_solutions_are_minimal_and_matching_covered():
    problems = []
    for inst in random_suite():
        full = solution_for(inst, range(inst.graph.n_edges))
        x = prune_to_minimal(inst, full)
        comps = matching_covered_components(inst.graph, x.edge_ids)
        for comp in comps:
            if not comp.matching_covered:
                problems.append("component not matching-covered")
            if len(comp.edge_ids) == 1:
                (e,) = comp.edge_ids
                if e in inst.vulnerable:
                    problems.append(f"vulnerable isolated edge e{e}")
        for e in x.edge_ids:
            if is_feasible_set(inst, x.edge_ids - {e}):
                problems.append(f"e{e} removable from pruned solution")
    check(
        "pruning: matching-covered components, no vulnerable isolated edge, "
        "no removable edge",
        not problems,
        problems[0] if problems else "50 instances tight",
    )


def test_path_gadget_optimum_tracks_shortest_nice_path():
    problems = []
    feasible = 0
    t0 = time.perf_counter()
    for inst, path_nodes, side in snpp_suite():
        if path_nodes is None:
            if check_feasible(inst):
                problems.append("feasible gadget but no nice path exists")
            continue
        feasible += 1
        want = side + path_nodes // 2 + 2
        got = solve_exact(inst).cost
        if got != want:
            problems.append(f"side {side}: optimum {got} != {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    if feasible < 10:
        problems.append(f"only {feasible} feasible gadgets sampled")
    check(
        "path gadget: optimum equals half nodes plus half path plus two",
        not problems,
        problems[0] if problems else f"{feasible}/30 feasible, {elapsed:.1f}s",
    )


def test_completion_preserves_optimum_and_uniform_copy_costs():
    problems = []
    for inst in unbalanced_suite():
        g = inst.graph
        edges = list(g.edges)
        vuln = set(inst.vulnerable)
        costs = list(inst.costs)
        if g.n_r >= g.n_t:
            oracle = brute_exact_unbalanced(g.n_r, g.n_t, edges, vuln, costs)
        else:
            flipped = [(t, r) for r, t in edges]
            oracle = brute_exact_unbalanced(g.n_t, g.n_r, flipped, vuln, costs)
        got = solve_exact(inst).cost
        if oracle is None or got != oracle[0]:
            problems.append(f"optimum {got} vs subset scan {oracle}")

        work = balanced_completion(inst).instance
        um = uniformize(work)
        uni = um.instance
        x = solve_exact(work)
        encoded = um.encode(x.edge_ids)
        if not is_feasible_set(uni, encoded):
            problems.append("encoded solution infeasible")
        if cost_of(uni, encoded) > 2 * x.cost + 1e-9:
            problems.append("encoding more than doubles cost")
        candidates = [encoded, frozenset(range(uni.graph.n_edges))]
        candidates.append(solve_ear(uni).edge_ids)
        for ids in candidates:
            if not is_feasible_set(uni, ids):
                continue
            decoded = um.decode(ids)
            if not is_feasible_set(work, decoded):
                problems.append("decoded solution infeasible")
            elif cost_of(work, decoded) > cost_of(uni, ids) + 1e-9:
                problems.append("decoding raised cost")
    check(
        "completion keeps the optimum; uniform copies cost at most double",
        not problems,
        problems[0] if problems else "20 unbalanced instances",
    )


def test_ear_stays_within_approximation_guarantees():
    problems = []
    pool: list[tuple[str, RapInstance]] = []
    pool += [(f"g{k}", gk_family(k)) for k in (3, 4, 5)]
    pool += [
        (f"cover{i}", from_set_cover(sc, "uniform_card").rap)
        for i, sc in enumerate(tiny_cover_grid())
    ]
    pool += [(f"rand{i}", inst) for i, inst in enumerate(random_suite())]
    pool += [(f"unb{i}", inst) for i, inst in enumerate(unbalanced_suite())]
    pool += [
        (f"path{i}", inst)
        for i, (inst, path_nodes, _) in enumerate(snpp_suite())
        if path_nodes is not None
    ]
    compared = 0
    for name, inst in pool:
        g = inst.graph
        unit = make_instance(
            g.n_r, g.n_t, list(g.edges), sorted(inst.vulnerable), [1] * g.n_edges
        )
        if g.balanced:
            try:
                opt = len(solve_exact(unit).edge_ids)
            except ExactError:
                continue
        else:
            edges = list(g.edges)
            if g.n_r >= g.n_t:
                ref = brute_exact_unbalanced(
                    g.n_r, g.n_t, edges, set(unit.vulnerable), list(unit.costs)
                )
            else:
                ref = brute_exact_unbalanced(
                    g.n_t,
                    g.n_r,
                    [(t, r) for r, t in edges],
                    set(unit.vulnerable),
                    list(unit.costs),
                )
            if ref is None:
                continue
            opt = int(ref[0])
        kept = len(solve_ear(unit).edge_ids)
        compared += 1
        if inst.uniform:
            if 2 * kept > 3 * opt:
                problems.append(f"{name}: {kept} vs optimum {opt} breaks 1.5")
        elif kept > 3 * opt:
            problems.append(f"{name}: {kept} vs optimum {opt} breaks 3.0")
    check(
        "ear output within 1.5x (uniform) / 3x (general) of optimum",
        not problems,
        problems[0] if problems else f"{compared} instances compared",
    )
