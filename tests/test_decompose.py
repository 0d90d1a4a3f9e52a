"""Tests for Birkhoff peeling and weighted sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import small_graph

from rapkit.decompose import (
    ConvexCombination,
    DecomposeError,
    birkhoff_decompose,
    make_combination,
    sample,
)
from rapkit.graph_core import BipartiteMultigraph, Matching

C4_EDGES = [(0, 0), (1, 0), (1, 1), (0, 1)]


def c4() -> BipartiteMultigraph:
    return BipartiteMultigraph(2, 2, C4_EDGES)


class TestBirkhoffDecompose:
    def test_integral_input_single_term(self):
        cc = birkhoff_decompose(c4(), 0, [0.0, 1.0, 0.0, 1.0])
        assert len(cc.terms) == 1
        w, m = cc.terms[0]
        assert w == pytest.approx(1.0) and m.edge_ids == frozenset({1, 3})

    def test_half_half(self):
        cc = birkhoff_decompose(c4(), None, [0.5, 0.5, 0.5, 0.5])
        assert len(cc.terms) == 2
        assert sorted(w for w, _ in cc.terms) == [pytest.approx(0.5)] * 2
        matched = sorted(sorted(m.edge_ids) for _, m in cc.terms)
        assert matched == [[0, 2], [1, 3]]

    def test_avoided_edge_stays_out(self):
        cc = birkhoff_decompose(c4(), 2, [0.0, 1.0, 0.0, 1.0])
        for _, m in cc.terms:
            assert 2 not in m.edge_ids

    @pytest.mark.parametrize("x", [[1.0, 0.0, 1.0], [[1.0, 0.0, 1.0, 0.0]], [1.0] * 5])
    def test_rejects_wrong_shape(self, x):
        with pytest.raises(DecomposeError, match="one value per edge required"):
            birkhoff_decompose(c4(), None, x)

    def test_rejects_negative_coordinate(self):
        with pytest.raises(DecomposeError, match="negative coordinate"):
            birkhoff_decompose(c4(), None, [1.0, -0.5, 1.0, 0.5])

    @pytest.mark.parametrize("f", [-1, 4])
    def test_rejects_avoided_id_outside_the_edges(self, f):
        with pytest.raises(DecomposeError, match=f"no edge with id {f}"):
            birkhoff_decompose(c4(), f, [1.0, 0.0, 1.0, 0.0])

    def test_mass_on_avoided_edge_rejected(self):
        with pytest.raises(DecomposeError, match="avoided edge"):
            birkhoff_decompose(c4(), 0, [0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("f", [None, 0])
    def test_solver_noise_peels_like_zero(self, f):
        # a relaxation block may hold entries down to -EPS_FEAS and tiny
        # positive ones; both stay out of the support, although the matching
        # routine would try their edges first
        g = BipartiteMultigraph(2, 2, [(0, 0), (1, 1)] + C4_EDGES)
        noisy = [-1e-9, 5e-10, 0.6, 0.4, 0.6, 0.4]
        clean = [0.0, 0.0, 0.6, 0.4, 0.6, 0.4]
        assert birkhoff_decompose(g, f, noisy).terms == birkhoff_decompose(g, f, clean).terms

    def test_support_without_pm(self):
        g = BipartiteMultigraph(2, 2, [(0, 0), (1, 0), (1, 1)])
        with pytest.raises(DecomposeError, match="support has no perfect matching"):
            birkhoff_decompose(g, None, [0.5, 0.5, 0.5])

    def test_term_count_bounded_by_support(self):
        cc = birkhoff_decompose(c4(), None, [0.25, 0.75, 0.25, 0.75])
        assert len(cc.terms) <= 4

    @settings(max_examples=60, deadline=None)
    @given(small_graph(balanced=True, max_side=4, max_edges=10), st.data())
    def test_reconstructs_known_combinations(self, graph_data, data):
        n_r, n_t, edges = graph_data
        pms = oracles.enumerate_perfect_matchings(n_r, n_t, edges)
        if not pms:
            return
        chosen = pms[: min(len(pms), 5)]
        raw = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
        weights = np.array(raw, dtype=float) / sum(raw)
        x = np.zeros(len(edges))
        for w, pm in zip(weights, chosen):
            for e in pm:
                x[e] += w
        g = BipartiteMultigraph(n_r, n_t, edges)
        cc = birkhoff_decompose(g, None, x)
        assert sum(cc.weights()) == pytest.approx(1.0, abs=1e-9)
        assert len(cc.terms) <= len(edges)
        np.testing.assert_allclose(cc.reconstruct(len(edges)), x, atol=1e-6)
        for _, m in cc.terms:
            assert m.perfect


class TestMakeCombination:
    def test_zero_weight_dropped(self):
        m1 = Matching(frozenset({0, 2}), True)
        m2 = Matching(frozenset({1, 3}), True)
        cc = make_combination([(1.0, m1), (0.0, m2)])
        assert len(cc.terms) == 1 and cc.terms[0][1] is m1

    def test_weights_renormalized(self):
        m1 = Matching(frozenset({0, 2}), True)
        m2 = Matching(frozenset({1, 3}), True)
        cc = make_combination([(2.0, m1), (6.0, m2)])
        assert cc.weights() == (pytest.approx(0.25), pytest.approx(0.75))

    def test_all_zero_rejected(self):
        with pytest.raises(DecomposeError):
            make_combination([(0.0, Matching(frozenset(), True))])


class TestSample:
    def test_single_term_always(self):
        m = Matching(frozenset({0, 2}), True)
        cc = ConvexCombination(((1.0, m),))
        rng = np.random.default_rng(0)
        assert all(sample(cc, rng) is m for _ in range(20))

    def test_two_term_frequencies(self):
        m1 = Matching(frozenset({0, 2}), True)
        m2 = Matching(frozenset({1, 3}), True)
        cc = ConvexCombination(((0.5, m1), (0.5, m2)))
        rng = np.random.default_rng(42)
        hits = sum(1 for _ in range(4000) if sample(cc, rng) is m1)
        assert 0.45 <= hits / 4000 <= 0.55

    def test_deterministic_given_seed(self):
        m1 = Matching(frozenset({0, 2}), True)
        m2 = Matching(frozenset({1, 3}), True)
        cc = ConvexCombination(((0.3, m1), (0.7, m2)))
        seq1 = [sample(cc, np.random.default_rng(7)).edge_ids for _ in range(1)]
        seq2 = [sample(cc, np.random.default_rng(7)).edge_ids for _ in range(1)]
        assert seq1 == seq2
