"""Shared hypothesis strategies for small random graphs and instances."""

from __future__ import annotations

from hypothesis import strategies as st


@st.composite
def small_graph(draw, max_side: int = 5, max_edges: int = 12, balanced: bool = False):
    """(n_r, n_t, edges) with up to ``max_side`` nodes per side."""
    n_r = draw(st.integers(min_value=1, max_value=max_side))
    n_t = n_r if balanced else draw(st.integers(min_value=1, max_value=max_side))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_r - 1),
                st.integers(min_value=0, max_value=n_t - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return n_r, n_t, edges


@st.composite
def small_instance(
    draw,
    max_side: int = 4,
    max_edges: int = 10,
    cost: st.SearchStrategy[float] = st.integers(min_value=0, max_value=9).map(float),
    balanced: bool = True,
):
    """(n_r, n_t, edges, vulnerable, costs), on a balanced graph by default.

    Costs are drawn from ``cost``, the integers 0..9 by default.
    """
    n_r, n_t, edges = draw(small_graph(max_side=max_side, max_edges=max_edges, balanced=balanced))
    vulnerable = draw(st.sets(st.sampled_from(range(len(edges))) if edges else st.nothing()))
    costs = draw(
        st.lists(
            cost,
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return n_r, n_t, edges, set(vulnerable), costs
