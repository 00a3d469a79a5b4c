"""Degree-capped incidence selection and the greedy coloring it enables.

Every edge keeps exactly two of its incidences and every vertex keeps at most
k: a flow on source -> edge (cap 2) -> incident vertex (cap 1) -> sink
(cap k), computed by the shared max-flow :func:`core.edge_vertex_flow`.  At
the cap 2*max_degree/min_size (rounded up) such a selection always exists, and
greedy coloring of the selected pairs with cap+1 list entries never runs out
of colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Coloring, Hypergraph, ListAssignment, edge_vertex_flow, is_proper
from .density import bound_gk
from .errors import PreconditionError, TheoremContradictionError


@dataclass(frozen=True)
class IncidenceSelection:
    """Two chosen vertices per edge under a vertex-degree cap."""

    chosen: tuple[tuple[int, int], ...]
    k: int

    def degrees(self, n: int) -> list[int]:
        d = [0] * n
        for pair in self.chosen:
            for v in pair:
                d[v] += 1
        return d


def build_selection(hg: Hypergraph, k: int) -> Optional[IncidenceSelection]:
    """Select two incidences per edge with all vertex degrees at most k.

    A max flow on source -> edge (cap 2) -> incident vertex (cap 1) -> sink
    (cap k); a flow that saturates every edge keeps the two vertices that
    took its units.  Returns None when no such flow exists, which can only
    happen below the guaranteed cap.
    """
    if k < 1:
        raise ValueError("degree cap must be at least 1")
    value, chosen, _ = edge_vertex_flow(hg, 2, k, 1)
    if value < 2 * len(hg.edges):
        return None
    return IncidenceSelection(tuple(chosen), k)


def gk_selection(hg: Hypergraph) -> IncidenceSelection:
    """The degree-capped selection at the guaranteed cap ceil(2*max_degree/min_size)."""
    k = bound_gk(hg) - 1
    selection = build_selection(hg, k)
    if selection is None:
        raise TheoremContradictionError(
            f"no degree-{k} selection found at the guaranteed cap"
        )
    return selection


def list_color_gk(
    hg: Hypergraph,
    lists: ListAssignment,
    selection: Optional[IncidenceSelection] = None,
) -> Coloring:
    """Proper list coloring of an arbitrary hypergraph with cap+1 list entries.

    Colors the pairs of a degree-capped selection greedily in vertex order;
    every vertex sees at most cap colored neighbors, so cap+1 entries always
    leave a choice.  ``selection`` must be a selection for ``hg`` with every
    degree at most its cap; it defaults to :func:`gk_selection`, and a caller
    that also reports the selection passes the one it built.
    """
    if lists.n != hg.n:
        raise PreconditionError("list assignment size differs from vertex count")
    if selection is None:
        selection = gk_selection(hg)
    k = selection.k
    short = [v for v in range(hg.n) if len(lists.lists[v]) < k + 1]
    if short:
        v = short[0]
        raise PreconditionError(
            f"vertex {v}: list of size {len(lists.lists[v])} is below the "
            f"required {k + 1} (2*max_degree/min_size rounded up, plus 1)"
        )
    adj: list[list[int]] = [[] for _ in range(hg.n)]
    for x, y in selection.chosen:
        adj[x].append(y)
        adj[y].append(x)
    color: list[Optional[int]] = [None] * hg.n
    for v in range(hg.n):
        taken = {color[u] for u in adj[v] if color[u] is not None}
        free = next((c for c in lists.lists[v] if c not in taken), None)
        if free is None:
            raise TheoremContradictionError(f"greedy ran out of colors at vertex {v}")
        color[v] = free
    coloring = Coloring(tuple(color))
    if not is_proper(hg, coloring) or not coloring.respects(lists):
        raise TheoremContradictionError("greedy pair coloring failed verification")
    return coloring
