"""Exact edge density L and the closed-form choosability upper bounds.

L(H) is the maximum of |E'| / |union of E'| over nonempty edge subsets.  Two
independent exact routes are provided: subset enumeration with bitset unions
(guarded) and a parametric min-cut search (scales past the guard).  All
arithmetic is exact rational; ceilings at integer boundaries are never left
to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .core import Hypergraph, edge_vertex_flow, find_bipartition, metrics
from .errors import GuardExceededError, TheoremContradictionError

EXACT_EDGE_GUARD = 24


def density_exact(hg: Hypergraph, *, max_edges: int = EXACT_EDGE_GUARD) -> Fraction:
    """Maximize |E'|/|union E'| by branch-and-bound over edge subsets."""
    m = len(hg.edges)
    if m == 0:
        raise ValueError("density undefined for an empty edge set")
    if m > max_edges:
        raise GuardExceededError(
            f"{m} edges exceeds the enumeration guard {max_edges}; use density_flow"
        )
    masks = [_edge_mask(e) for e in hg.edges]

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


def _edge_mask(edge: tuple[int, ...]) -> int:
    mask = 0
    for v in edge:
        mask |= 1 << v
    return mask


def density_flow(hg: Hypergraph) -> Fraction:
    """Same value as density_exact via parametric min-cut (Dinkelbach search).

    For a candidate density a/b, the network  source -> edge nodes (cap b),
    edge -> incident vertices (cap b), vertex -> sink (cap a)  has min cut
    below b*|E| iff some subset E' satisfies b|E'| - a|union E'| > 0, and the
    source side of the cut exhibits a strictly denser subset.  An edge node
    receives at most b, so incidence arcs of cap b act as uncapped ones: the
    residual source side contains every vertex of its edges.  Each round
    replaces the candidate with the density of that subset; candidates are
    achieved densities, so the loop finishes within |E| rounds.
    """
    m = len(hg.edges)
    if m == 0:
        raise ValueError("density undefined for an empty edge set")
    lam = Fraction(m, len({v for e in hg.edges for v in e}))
    for _ in range(m + 1):
        a, b = lam.numerator, lam.denominator
        value, _, subset = edge_vertex_flow(hg, b, a, b)
        if value >= b * m:
            return lam
        union = {v for j in subset for v in hg.edges[j]}
        better = Fraction(len(subset), len(union))
        if better <= lam:
            raise TheoremContradictionError("parametric search failed to improve")
        lam = better
    raise TheoremContradictionError("parametric search did not converge")


def edge_density(hg: Hypergraph) -> Fraction:
    """Exact L via enumeration when small enough, min-cut search otherwise."""
    if len(hg.edges) <= EXACT_EDGE_GUARD:
        return density_exact(hg)
    return density_flow(hg)


@dataclass(frozen=True)
class SparseBound:
    """An upper-bound value plus the 2-colorability flag its validity needs."""

    value: int
    two_colorable: bool


def bound_sparse(hg: Hypergraph) -> SparseBound:
    """ceil(L) + 1, valid as a choosability bound only for 2-colorable inputs."""
    value = ceil(edge_density(hg)) + 1
    return SparseBound(value, find_bipartition(hg) is not None)


def bound_degree(hg: Hypergraph) -> SparseBound:
    """ceil(max_degree / min_edge_size) + 1, with the same validity flag.

    Always at least as large as bound_sparse because L <= max_degree / s:
    counting incidences, |E'| * s <= sum of |e| <= |union E'| * max_degree.
    """
    met = metrics(hg)
    ratio = ceil(Fraction(met.max_degree, met.min_edge_size))
    if ratio < ceil(edge_density(hg)):
        raise TheoremContradictionError("degree ratio fell below the density ceiling")
    return SparseBound(ratio + 1, find_bipartition(hg) is not None)


def bound_gk(hg: Hypergraph) -> int:
    """ceil(2 * max_degree / min_edge_size) + 1; valid for arbitrary hypergraphs."""
    met = metrics(hg)
    return ceil(Fraction(2 * met.max_degree, met.min_edge_size)) + 1
