"""Degree-capped incidence selection and the list coloring it enables.

A selection is a tuple of (v, u) pairs, one per edge in edge order: every
edge keeps exactly two of its incidences and every vertex keeps at most k.
It is a flow on source -> edge (cap 2) -> incident vertex (cap 1) -> sink
(cap k), computed by the shared max-flow :func:`core.edge_vertex_flow`.  At
the cap 2*max_degree/min_size (rounded up) such a selection always exists, and
the list-coloring search colors the selected pairs with cap+1 list entries
without ever backtracking.
"""

from __future__ import annotations

from typing import Optional

from .core import Hypergraph, ListAssignment, _color_pairs, edge_vertex_flow
from .density import bound_gk
from .errors import TheoremContradictionError


def build_selection(hg: Hypergraph, k: int) -> Optional[tuple[tuple[int, int], ...]]:
    """Select two incidences per edge with all vertex degrees at most k.

    A max flow on source -> edge (cap 2) -> incident vertex (cap 1) -> sink
    (cap k); a flow that saturates every edge keeps the two vertices that
    took its units.  Returns None when no such flow exists, which can only
    happen below the guaranteed cap.
    """
    if k < 1:
        raise ValueError("degree cap must be at least 1")
    value, flowing, _ = edge_vertex_flow(hg, 2, k, 1)
    if value < 2 * len(hg.edges):
        return None
    it = iter(flowing)
    return tuple(zip(it, it))


def list_color_gk(
    hg: Hypergraph, lists: ListAssignment
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Proper list coloring of an arbitrary hypergraph with cap+1 list entries.

    Builds the selection at the guaranteed cap ceil(2*max_degree/min_size)
    and colors its pairs with the list-coloring search.  Every vertex has at
    most cap pair neighbors and at least cap+1 entries, so a value is always
    left and the search never backtracks: it returns the greedy coloring in
    vertex order, each vertex taking the first list entry that no
    lower-index neighbor holds.  Returns the coloring and the selection it
    colored.
    """
    k = bound_gk(hg) - 1
    pairs = build_selection(hg, k)
    if pairs is None:
        raise TheoremContradictionError(
            f"no degree-{k} selection found at the guaranteed cap"
        )
    why = "2*max_degree/min_size rounded up, plus 1"
    return _color_pairs(hg, pairs, lists, [k + 1] * hg.n, why), pairs
