"""Flow-based orientations and the sparse constructive coloring pipeline.

An orientation is a tuple holding one head vertex per edge, in edge order;
its head degrees are :func:`core.vertex_counts` of that tuple.  One with max
head degree k exists iff the network source -> edge (cap 1) -> incident
vertex (cap 1) -> sink (cap k) carries a flow that saturates every edge node
(Hall's condition); the shared max-flow :func:`core.edge_vertex_flow`
computes it.  The minimal cap is ceil(L) (Hakimi), and the cut loop of
:mod:`density` finds it by integer steps on this unit network alone: a flow
that falls short cuts off an edge subset denser than the cap, whose density
ceiling is the next cap.  No exact density is solved.  For a 2-colorable
hypergraph the orientation reduces list coloring to a bipartite pair graph
whose list colorings always exist and pull back to the hypergraph; the
coloring is a tuple holding one color per vertex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import (
    Hypergraph,
    ListAssignment,
    _capped_heads,
    _color_lists,
    require_bipartition,
    require_edges,
    require_orientation,
    vertex_counts,
)
from .density import _parametric_cut
from .errors import TheoremContradictionError


def hall_orientation(hg: Hypergraph, k: int) -> Optional[tuple[int, ...]]:
    """An orientation with every vertex heading at most k edges, if one exists.

    Each edge sends one unit of flow to one of its vertices and each vertex
    passes at most k units to the sink; a flow that saturates every edge is
    exactly such an orientation, its heads the vertices that took the flow.
    """
    return _capped_heads(hg, 1, k)


def min_orientation(hg: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """The smallest degree cap admitting an orientation, with a witness.

    The minimum equals ceil(L) (Hakimi): any orientation concentrates each
    subset's edges on its own union, forcing max degree >= L, and the Hall
    condition for cap ceil(L) holds on every subset.  This starts the cut
    loop of :mod:`density` at k = ceil(|E| / |union E|) <= ceil(L), which
    runs the unit flow at cap k.  If the flow saturates every edge, k is the
    minimum.  Otherwise the edges E' on the residual source side span exactly
    the vertices on that side, so the cut (|E| - |E'|) + k|union E'| < |E|
    gives |E'| > k|union E'|, and the next cap is ceil(|E'| / |union E'|):
    at least k + 1, at most ceil(L).
    """
    require_edges(hg, "min_orientation")
    union = len({v for e in hg.edges for v in e})
    start = Fraction(-(-len(hg.edges) // union))
    cap, phi = _parametric_cut(hg, start, integral=True)
    k = cap.numerator
    if max(vertex_counts(hg.n, phi)) != k:
        raise TheoremContradictionError(
            f"no orientation of max degree exactly ceil(L) = {k}"
        )
    return k, phi


def reduce_to_pairgraph(
    hg: Hypergraph, bip: tuple[str, ...], phi: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """Pick per edge the pair (head, partner) with the partner on the other side.

    Returns one pair per edge, in edge order.  The partner is the
    smallest-index vertex of the edge opposite the head; one always exists
    because every edge meets both sides.
    """
    require_bipartition(hg, bip)
    require_orientation(hg, phi)
    pairs = []
    for e, head in zip(hg.edges, phi):
        side = bip[head]
        for partner in e:
            if bip[partner] != side:
                break
        pairs.append((head, partner))
    return tuple(pairs)


def list_color_sparse(
    hg: Hypergraph,
    bip: tuple[str, ...],
    lists: ListAssignment,
) -> tuple[int, ...]:
    """Proper list coloring of a 2-colorable hypergraph via its minimal orientation.

    Requires one list per vertex, each longer than its vertex's head degree
    under the minimal orientation; uniform lists of size ceil(L) + 1 always
    qualify.  The bipartition is checked once, by :func:`reduce_to_pairgraph`.
    The pair graph is colored by the list-coloring search, which raises
    GuardExceededError after more than ``SEARCH_NODE_GUARD`` branching decisions.
    """
    lists.require_count(hg.n)
    _, phi = min_orientation(hg)
    pairs = reduce_to_pairgraph(hg, bip, phi)
    lists.require_sizes((d + 1 for d in vertex_counts(hg.n, phi)), "head degree + 1")
    color = _color_lists(hg, pairs, lists)
    if color is None:
        raise TheoremContradictionError(
            "pair graph admitted no list coloring despite sufficient lists"
        )
    return color
