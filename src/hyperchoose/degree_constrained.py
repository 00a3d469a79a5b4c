"""Degree-capped incidence selection and the greedy coloring it enables.

Every edge keeps exactly two of its incidences; overloaded vertices shed
degree along augmenting paths that alternate kept and dropped incidences over
pairwise-distinct edges.  Each flip moves one unit of degree from an
overloaded vertex to a deficient one, so the overload potential strictly
decreases and the repair loop terminates.  At the cap 2*max_degree/min_size
(rounded up) a zero-potential selection always exists, and greedy coloring of
the selected pairs with cap+1 list entries never runs out of colors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional

from .core import Coloring, Hypergraph, ListAssignment, is_proper, metrics
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

    def potential(self, n: int) -> int:
        return sum(max(0, d - self.k) for d in self.degrees(n))


def build_selection(hg: Hypergraph, k: int) -> Optional[IncidenceSelection]:
    """Select two incidences per edge with all vertex degrees at most k.

    Starts from the two smallest vertices of every edge, then repeatedly runs
    a BFS from the overloaded vertices along augmenting paths (kept incidence
    out, dropped incidence in, edges distinct) and flips the first path that
    reaches a vertex below the cap.  Returns None when no overloaded vertex
    can reach a deficit, which can only happen below the constructible cap.
    """
    if k < 1:
        raise ValueError("degree cap must be at least 1")
    chosen = [[e[0], e[1]] for e in hg.edges]
    deg = [0] * hg.n
    for pair in chosen:
        for v in pair:
            deg[v] += 1
    initial_potential = sum(max(0, d - k) for d in deg)
    flips = 0

    while True:
        sources = sorted(v for v in range(hg.n) if deg[v] > k)
        if not sources:
            break
        # held[v] lists edges currently keeping an incidence at v.
        held: list[list[int]] = [[] for _ in range(hg.n)]
        for j, pair in enumerate(chosen):
            for v in pair:
                held[v].append(j)
        parent: dict[int, tuple[int, int]] = {}
        visited = set(sources)
        used_edges = set()
        queue = deque(sources)
        target = None
        while queue and target is None:
            v = queue.popleft()
            for j in held[v]:
                if j in used_edges:
                    continue
                used_edges.add(j)
                for w in hg.edges[j]:
                    if w in chosen[j] or w in visited:
                        continue
                    visited.add(w)
                    parent[w] = (v, j)
                    if deg[w] < k:
                        target = w
                        break
                    queue.append(w)
                if target is not None:
                    break
        if target is None:
            return None
        # Flip the path backwards: each hop drops (v, edge) and keeps (w, edge).
        w = target
        while w in parent:
            v, j = parent[w]
            chosen[j][chosen[j].index(v)] = w
            w = v
        deg[target] += 1
        deg[w] -= 1
        flips += 1
        # Each flip lowers the overload potential by exactly one.
        assert flips <= initial_potential

    return IncidenceSelection(tuple((p[0], p[1]) for p in chosen), k)


def gk_selection(hg: Hypergraph) -> IncidenceSelection:
    """The degree-capped selection at the guaranteed cap ceil(2*max_degree/min_size)."""
    met = metrics(hg)
    k = ceil(Fraction(2 * met.max_degree, met.min_edge_size))
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
