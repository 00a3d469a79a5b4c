"""Degree-capped incidence selection and the list coloring it enables.

A selection is a tuple of (v, u) pairs, one per edge in edge order: every
edge keeps exactly two of its incidences and every vertex keeps at most k.
It is a flow on source -> edge (cap 2) -> incident vertex (cap 1) -> sink
(cap k), computed by the shared max-flow :func:`core.edge_vertex_flow`.  At
the cap 2*max_degree/min_size (rounded up) such a selection always exists, and
a first fit in vertex order colors the selected pairs from cap+1 list entries:
no vertex has more than cap pair neighbors, so it never gets stuck.
"""

from __future__ import annotations

from itertools import filterfalse, repeat
from typing import Optional

from .core import Hypergraph, ListAssignment, _capped_heads, _verified
from .density import bound_gk
from .errors import TheoremContradictionError


def build_selection(hg: Hypergraph, k: int) -> Optional[tuple[tuple[int, int], ...]]:
    """Select two incidences per edge with all vertex degrees at most k.

    A max flow on source -> edge (cap 2) -> incident vertex (cap 1) -> sink
    (cap k); a flow that saturates every edge keeps the two vertices that
    took its units, in the edge's own (ascending) order.  Returns None when
    no such flow exists, which can only happen below the guaranteed cap.
    """
    flowing = _capped_heads(hg, 2, k)
    return None if flowing is None else tuple(zip(flowing[::2], flowing[1::2]))


def list_color_gk(
    hg: Hypergraph, lists: ListAssignment
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Proper list coloring of an arbitrary hypergraph with cap+1 list entries.

    Builds the selection at the guaranteed cap ceil(2*max_degree/min_size)
    and gives each vertex, in index order, the first entry of its list that
    no lower-index pair neighbor holds: it has at most cap pair neighbors and
    at least cap+1 entries.  Returns the coloring and the selection it colored.
    """
    lists.require_count(hg.n)
    k = bound_gk(hg) - 1
    lists.require_sizes(repeat(k + 1), "2*max_degree/min_size rounded up, plus 1")
    pairs = build_selection(hg, k)
    if pairs is None:
        raise TheoremContradictionError(
            f"no degree-{k} selection found at the guaranteed cap"
        )
    lower: list[list[int]] = [[] for _ in range(hg.n)]
    for v, u in pairs:  # v < u, as build_selection keeps them
        lower[u].append(v)
    color: list = []
    for lv, below in zip(lists.lists, lower):
        taken = {color[u] for u in below}
        # None, which the verification rejects, if the theorem ever failed.
        color.append(next(filterfalse(taken.__contains__, lv), None))
    return _verified(hg, color, lists.lists), pairs
