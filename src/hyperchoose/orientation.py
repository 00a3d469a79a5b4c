"""Matching-based orientations and the sparse constructive coloring pipeline.

An orientation with max degree k exists iff the bipartite graph between edge
nodes and k slot copies of each vertex has a matching covering every edge
node; this is a Hall condition realized by Hopcroft-Karp phases.  For a
2-colorable hypergraph the orientation reduces list coloring to a bipartite
pair graph whose list colorings always exist and pull back to the hypergraph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil
from typing import Optional

from .core import (
    SEARCH_NODE_GUARD,
    Bipartition,
    Coloring,
    Hypergraph,
    ListAssignment,
    Orientation,
    _ListSearch,
    bipartition_is_valid,
    is_proper,
    orientation_is_valid,
)
from .density import EXACT_EDGE_GUARD, density_exact, density_flow
from .errors import PreconditionError, TheoremContradictionError


@dataclass(frozen=True)
class PairGraph:
    """One crossing vertex pair per hypergraph edge, with provenance indices."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    source_edges: tuple[int, ...]


def _hopcroft_karp(adj: list[list[int]], n_left: int, n_right: int) -> list[int]:
    """Maximum matching; returns the matched right node per left node (-1 if none)."""
    INF = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        q = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


def hall_orientation(hg: Hypergraph, k: int) -> Optional[Orientation]:
    """An orientation with every vertex heading at most k edges, if one exists.

    Edge nodes are matched into k slot copies of each vertex; a matching that
    covers all edges is exactly such an orientation.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = len(hg.edges)
    adj = [[v * k + i for v in e for i in range(k)] for e in hg.edges]
    match_l = _hopcroft_karp(adj, m, hg.n * k)
    if any(slot == -1 for slot in match_l):
        return None
    return Orientation(tuple(slot // k for slot in match_l))


def min_orientation(hg: Hypergraph) -> tuple[int, Orientation]:
    """The smallest degree cap admitting an orientation, with a witness.

    The minimum always equals ceil(L): an orientation at that cap exists by
    the Hall argument, and any orientation concentrates each subset's edges
    on its own union, forcing max degree >= L.
    """
    if not hg.edges:
        raise ValueError("min_orientation undefined for an empty edge set")
    for k in range(1, max(hg.degrees()) + 1):
        phi = hall_orientation(hg, k)
        if phi is not None:
            dens = (
                density_exact(hg)
                if len(hg.edges) <= EXACT_EDGE_GUARD
                else density_flow(hg)
            )
            if k != ceil(dens):
                raise TheoremContradictionError(
                    f"minimal orientation cap {k} != ceil(L) = {ceil(dens)}"
                )
            return k, phi
    raise TheoremContradictionError("no orientation found at the max-degree cap")


def reduce_to_pairgraph(
    hg: Hypergraph, bip: Bipartition, phi: Orientation
) -> PairGraph:
    """Pick per edge the pair (head, partner) with the partner on the other side.

    The partner is the smallest-index vertex of the edge opposite the head;
    one always exists because every edge meets both sides.
    """
    if not bipartition_is_valid(hg, bip):
        raise PreconditionError("bipartition is not valid for the hypergraph")
    if not orientation_is_valid(hg, phi):
        raise PreconditionError("orientation is not valid for the hypergraph")
    pairs = []
    for e, head in zip(hg.edges, phi.head):
        partner = next(v for v in e if bip.side[v] != bip.side[head])
        pairs.append((head, partner))
    return PairGraph(hg.n, tuple(pairs), tuple(range(len(hg.edges))))


def list_color_sparse(
    hg: Hypergraph,
    bip: Bipartition,
    lists: ListAssignment,
    *,
    max_nodes: Optional[int] = SEARCH_NODE_GUARD,
) -> Coloring:
    """Proper list coloring of a 2-colorable hypergraph via its minimal orientation.

    Requires every list to exceed the head degree of its vertex under the
    minimal orientation; uniform lists of size ceil(L) + 1 always qualify.
    The pair graph is colored by the list-coloring search, which raises
    GuardExceededError after more than ``max_nodes`` branching decisions.
    """
    if lists.n != hg.n:
        raise PreconditionError("list assignment size differs from vertex count")
    if not bipartition_is_valid(hg, bip):
        raise PreconditionError("bipartition is not valid for the hypergraph")
    k_star, phi = min_orientation(hg)
    deg = phi.degrees(hg.n)
    short = [v for v in range(hg.n) if len(lists.lists[v]) < deg[v] + 1]
    if short:
        v = short[0]
        raise PreconditionError(
            f"vertex {v}: list of size {len(lists.lists[v])} is below the "
            f"required {deg[v] + 1} (head degree + 1)"
        )
    pg = reduce_to_pairgraph(hg, bip, phi)
    color = _ListSearch(Hypergraph(pg.n, pg.pairs)).solve(
        lists.lists, max_nodes=max_nodes
    )
    if color is None:
        raise TheoremContradictionError(
            "pair graph admitted no list coloring despite sufficient lists"
        )
    coloring = Coloring(tuple(color))
    if not is_proper(hg, coloring) or not coloring.respects(lists):
        raise TheoremContradictionError("pair-graph coloring failed verification")
    return coloring
