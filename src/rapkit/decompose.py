"""Decompose fractional perfect matchings into convex combinations.

A vector in the bipartite perfect matching polytope is peeled greedily: find
a perfect matching inside the support, subtract it scaled by its smallest
coordinate, and repeat. Every round zeroes at least one edge, so the number
of terms never exceeds the number of edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rapkit.graph_core import BipartiteMultigraph, Matching, max_matching

DEFAULT_EPS = 1e-9


class DecomposeError(RuntimeError):
    """The vector is too far from the matching polytope to peel."""


@dataclass(frozen=True)
class ConvexCombination:
    """Weighted perfect matchings with weights summing to one."""

    terms: tuple[tuple[float, Matching], ...]

    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.terms)

    def reconstruct(self, n_edges: int) -> np.ndarray:
        out = np.zeros(n_edges)
        for w, matching in self.terms:
            for e in matching.edge_ids:
                out[e] += w
        return out


def make_combination(
    terms: Sequence[tuple[float, Matching]]
) -> ConvexCombination:
    """Normalize weights to sum one and drop zero-weight terms."""
    kept = [(float(w), m) for w, m in terms if w > 0.0]
    if not kept:
        raise DecomposeError("no positive-weight terms")
    total = sum(w for w, _ in kept)
    return ConvexCombination(tuple((w / total, m) for w, m in kept))


def birkhoff_decompose(
    g: BipartiteMultigraph,
    f: int | None,
    x: Sequence[float],
) -> ConvexCombination:
    """Peel ``x`` into perfect matchings of ``g`` that avoid edge ``f``.

    ``f`` may be None when no edge must be avoided. Requires x >= 0 with
    x_f at most ``DEFAULT_EPS``; degree sums should be within
    ``DEFAULT_EPS`` of one, which holds for solver output. Raises when the
    remaining support stops containing a perfect matching while mass is
    left, which signals an upstream tolerance failure.
    """
    residual = np.asarray(x, dtype=float).copy()
    if residual.shape != (g.n_edges,):
        raise DecomposeError("one value per edge required")
    if np.any(residual < -DEFAULT_EPS):
        raise DecomposeError("negative coordinate")
    if f is not None:
        if not (0 <= f < g.n_edges):
            raise DecomposeError(f"no edge with id {f}")
        if residual[f] > DEFAULT_EPS:
            raise DecomposeError("avoided edge carries mass")
        residual[f] = 0.0

    terms: list[tuple[float, Matching]] = []
    while residual.size and float(residual.max()) > DEFAULT_EPS:
        matching = max_matching(g, np.flatnonzero(residual > DEFAULT_EPS).tolist())
        if not matching.perfect:
            raise DecomposeError("support has no perfect matching")
        ids = sorted(matching.edge_ids)
        lam = float(residual[ids].min())
        terms.append((lam, matching))
        residual[ids] -= lam
    return make_combination(terms)


def sample(cc: ConvexCombination, rng: np.random.Generator) -> Matching:
    """Draw one matching, term i with probability equal to its weight."""
    u = float(rng.random())
    acc = 0.0
    for w, matching in cc.terms:
        acc += w
        if u < acc:
            return matching
    return cc.terms[-1][1]
