"""Exact edge density L and the closed-form choosability upper bounds.

L(H) is the maximum of |E'| / |union of E'| over nonempty edge subsets.
:func:`density_flow` is the route every report takes: a min-degree peel in
O(sum of |e|) gives the density of one edge subset, a lower bound on L that
is often L itself.  When it meets the upper bound max_degree / s, it is L;
otherwise a parametric min-cut loop starts there, and one flow that
saturates proves it, while a flow that falls short moves to a denser subset.
Subset enumeration with bitset unions, :func:`density_exact`, is an
independent cross-check kept behind an edge guard.  The one cut loop also
finds ceil(L) for the orientations, stepping through ceilings.  All
arithmetic is exact rational; ceilings at integer boundaries are never left
to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .core import (
    Hypergraph,
    Metrics,
    _incidence,
    edge_vertex_flow,
    find_bipartition,
    metrics,
    require_edges,
)
from .errors import GuardExceededError, TheoremContradictionError

EXACT_EDGE_GUARD = 24


def density_exact(hg: Hypergraph) -> Fraction:
    """Maximize |E'|/|union E'| by branch-and-bound over edge subsets."""
    require_edges(hg, "density")
    m = len(hg.edges)
    if m > EXACT_EDGE_GUARD:
        raise GuardExceededError(
            f"{m} edges exceeds the enumeration guard {EXACT_EDGE_GUARD}; "
            "use density_flow"
        )
    masks = [sum(1 << v for v in e) for e in hg.edges]  # an edge's vertices differ

    best_num, best_den = 1, len(hg.edges[0])

    def rec(i: int, count: int, union: int, usize: int):
        nonlocal best_num, best_den
        if count and count * best_den > best_num * usize:
            best_num, best_den = count, usize
        if i == m:
            return
        # Any extension has at most count + (m - i) edges over at least usize
        # vertices, so it cannot beat the incumbent if this bound fails.
        if usize and (count + m - i) * best_den <= best_num * usize:
            return
        nu = union | masks[i]
        rec(i + 1, count + 1, nu, nu.bit_count())
        rec(i + 1, count, union, usize)

    rec(0, 0, 0, 0)
    return Fraction(best_num, best_den)


def density_flow(hg: Hypergraph) -> Fraction:
    """Same value as density_exact: a peel, then at most the cut loop's flows.

    The peel's value is the density of an edge subset, so it is at most L,
    and L is at most max_degree / s (see :func:`bounds`).  A peel that meets
    that ratio is L with no flow run; the peel counts the degrees, so the
    ratio costs one more pass over the edge sizes only.  Otherwise the cut
    loop starts at the peel's value; one flow that saturates every edge node
    there proves it is L, and a flow that falls short moves on to a strictly
    denser subset.
    """
    require_edges(hg, "density")
    lam, max_degree, _ = _peel_density(hg)
    if lam == Fraction(max_degree, min(map(len, hg.edges))):
        return lam
    return _parametric_cut(hg, lam, integral=False)[0]


def _peel_density(hg: Hypergraph) -> tuple[Fraction, int, list[int]]:
    """The densest |E'| / |union E'| met while peeling min-degree vertices.

    Greedy peeling (Charikar): repeatedly remove a vertex of least degree
    among the remaining ones, with every edge that still contains it.  A
    vertex whose last edge is gone has degree 0, so it leaves first, and
    whenever a vertex of positive degree is about to go, the remaining
    vertices are exactly the union of the remaining edges: each recorded
    value is the density of an edge subset, at most L.  A bucket queue keyed
    by degree holds every (degree, vertex) entry ever made; an entry whose
    degree is out of date is skipped.  The best ratio is kept as an integer
    pair and compared by cross-multiplication.  Returns it with the max
    degree and the edge indices in the order the peel removes them, the
    elimination order the coefficient count takes.
    """
    edges = hg.edges
    inc = _incidence(hg.n, edges)
    deg = [len(js) for js in inc]
    max_degree = max(deg, default=0)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    alive = [True] * len(edges)
    removed: list[int] = []
    live_e, live_v = len(edges), hg.n
    best_num, best_den = 0, 1
    d = 0
    while live_e:
        while not buckets[d]:
            d += 1
        v = buckets[d].pop()
        if deg[v] != d:
            continue
        deg[v] = -1
        if d:
            if live_e * best_den > best_num * live_v:
                best_num, best_den = live_e, live_v
            for j in inc[v]:
                if alive[j]:
                    alive[j] = False
                    removed.append(j)
                    live_e -= 1
                    for u in edges[j]:
                        if u != v:
                            x = deg[u] - 1
                            deg[u] = x
                            buckets[x].append(u)
                            if x < d:
                                d = x
        live_v -= 1
    return Fraction(best_num, best_den), max_degree, removed


def _parametric_cut(
    hg: Hypergraph, lam: Fraction, *, integral: bool
) -> tuple[Fraction, tuple[int, ...]]:
    """L, or ceil(L) if ``integral``, with the vertices its last flow used.

    The vertices are those of each incidence that carries flow, in slot
    order (see :func:`core.edge_vertex_flow`); at ``integral`` candidates
    the unit network's saturating flow gives one per edge, an orientation.

    ``lam`` is the first candidate: the density of some edge subset, or its
    ceiling if ``integral``, so it is at most L (or ceil(L)).  For a
    candidate density a/b, the network  source -> edge nodes (cap b),
    edge -> incident vertices (cap b), vertex -> sink (cap a)  has min cut
    below b*|E| iff some subset E' satisfies b|E'| - a|union E'| > 0, and the
    source side of the cut exhibits a strictly denser subset.  A flow that
    saturates every edge node splits each edge's b units among its vertices
    with no vertex above a, so b|E'| <= a|union E'| for every E' and the
    candidate is L (Goldberg).  An edge node receives at most b, so incidence
    arcs of cap b act as uncapped ones: the residual source side contains
    every vertex of its edges.  Each round replaces the candidate with the
    density of that subset, or its ceiling, so integral candidates k run the
    unit network (1, k, 1).  Candidates rise strictly and never pass L (or
    ceil(L)), so the loop ends within |E| rounds.
    """
    m = len(hg.edges)
    for _ in range(m + 1):
        a, b = lam.numerator, lam.denominator
        value, flowing, subset = edge_vertex_flow(hg, b, a, b)
        if value >= b * m:
            return lam, flowing
        union = {v for j in subset for v in hg.edges[j]}
        better = Fraction(len(subset), len(union))
        if better <= lam:
            raise TheoremContradictionError(
                f"cut at {lam} exhibited no edge subset denser than {lam}"
            )
        lam = Fraction(ceil(better)) if integral else better
    raise TheoremContradictionError("parametric search did not converge")


@dataclass(frozen=True)
class Bounds:
    """The exact density L and the closed-form choosability upper bounds.

    ``sparse`` = ceil(L) + 1 and ``degree`` = ceil(max_degree / min_size) + 1
    bound the choice number only when ``two_colorable``; ``gk`` =
    ceil(2 * max_degree / min_size) + 1 holds for every hypergraph.
    ``metrics`` are the ones every bound was computed from.
    """

    density: Fraction
    two_colorable: bool
    sparse: int
    degree: int
    gk: int
    metrics: Metrics


def bounds(hg: Hypergraph) -> Bounds:
    """Solve L, 2-colorability and the metrics once each, then every bound.

    ``degree`` is never below ``sparse`` because L <= max_degree / s:
    counting incidences, |E'| * s <= sum of |e| <= |union E'| * max_degree.
    """
    lam = density_flow(hg)
    met = metrics(hg)
    ratio = ceil(Fraction(met.max_degree, met.min_edge_size))
    if ratio < ceil(lam):
        raise TheoremContradictionError("degree ratio fell below the density ceiling")
    return Bounds(
        density=lam,
        two_colorable=find_bipartition(hg) is not None,
        sparse=ceil(lam) + 1,
        degree=ratio + 1,
        gk=_gk(met),
        metrics=met,
    )


def bound_gk(hg: Hypergraph) -> int:
    """ceil(2 * max_degree / min_edge_size) + 1; valid for arbitrary hypergraphs."""
    return _gk(metrics(hg))


def _gk(met: Metrics) -> int:
    return ceil(Fraction(2 * met.max_degree, met.min_edge_size)) + 1
