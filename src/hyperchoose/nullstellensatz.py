"""Crossing spanning trees and polynomial coefficient certificates.

Each edge of a 2-colored hypergraph carries a spanning tree whose tree pairs
all cross the bipartition.  The product over edges of (sum of x_a + y_b over
tree pairs) expands with no cancellation, so the coefficient of the monomial
whose exponents match an orientation's degree vector counts, per edge, the
ways to pick an incident tree pair and endpoint.  A nonzero coefficient in
the signed product (x_a - y_b factors) certifies choosability with one more
color than each head degree; the two products agree up to a sign determined
by the total head degree on side B.

One iterative transfer count computes every coefficient.  It visits the
vertices one at a time and keeps, per set of open edges that already have a
head, the weighted number of partial head choices; the number of such live
terms is capped by TERM_GUARD.  At each vertex, every term that already heads
the same subset of the vertex's edges has the same picks, so the picks and
their weights are tabled once per subset for that vertex step, and a term
only ORs and multiplies.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from itertools import combinations
from math import comb, prod

from .core import (
    Hypergraph,
    SIDE_A,
    _incidence,
    bipartition_is_valid,
    orientation_is_valid,
    vertex_counts,
)
from .errors import GuardExceededError, PreconditionError

TERM_GUARD = 10**6


def crossing_tree(
    edge: tuple[int, ...], bip: tuple[str, ...]
) -> tuple[tuple[int, int], ...]:
    """The double-star spanning tree on an edge, as its (A, B) vertex pairs.

    The anchors are the least vertex per side.  Pairs are (a0, b0), then
    (a, b0) for the remaining A-vertices, then (a0, b) for the remaining
    B-vertices; |pairs| = |edge| - 1 and every pair crosses the sides.
    Deterministic so coefficient values are reproducible.
    """
    a_side = sorted(v for v in edge if bip[v] == SIDE_A)
    b_side = sorted(v for v in edge if bip[v] != SIDE_A)
    if not a_side or not b_side:
        raise PreconditionError(f"edge {tuple(edge)} lies inside one side")
    a0, b0 = a_side[0], b_side[0]
    pairs = [(a0, b0)]
    pairs.extend((a, b0) for a in a_side[1:])
    pairs.extend((a0, b) for b in b_side[1:])
    return tuple(pairs)


def _tree_multiplicity(tree: tuple[tuple[int, int], ...]) -> dict[int, int]:
    mult: dict[int, int] = {}
    for a, b in tree:
        mult[a] = mult.get(a, 0) + 1
        mult[b] = mult.get(b, 0) + 1
    return mult


def coefficient_count(
    hg: Hypergraph, bip: tuple[str, ...], phi: tuple[int, ...]
) -> int:
    """Coefficient of the orientation's degree monomial in the unsigned product.

    Equals the number of weighted ways to pick one tree-pair endpoint per edge
    so that every vertex is picked exactly its head-degree many times, the
    weight of a pick being the number of incident tree pairs.  Counted by the
    transfer count over vertices; exact (arbitrary precision).  Raises
    GuardExceededError past TERM_GUARD live terms.
    """
    if not orientation_is_valid(hg, phi):
        raise PreconditionError("orientation is not valid for the hypergraph")
    return monomial_coefficient(hg, bip, vertex_counts(hg.n, phi))


def monomial_coefficient(
    hg: Hypergraph, bip: tuple[str, ...], exponent: Sequence[int]
) -> int:
    """Unsigned-product coefficient of an arbitrary exponent vector."""
    if not bipartition_is_valid(hg, bip):
        raise PreconditionError("bipartition is not valid for the hypergraph")
    if len(exponent) != hg.n:
        raise PreconditionError("exponent vector size differs from vertex count")
    return _transfer_count(hg, bip, exponent)


def _vertex_order(hg: Hypergraph, incident: list[list[int]]) -> list[int]:
    """Greedy order: next is the vertex opening the fewest edges net of those it closes.

    A vertex opens an edge none of whose vertices came before it and closes
    an edge whose other vertices all came before it.  Ties go to the lower
    index.  Scores only fall, so a heap whose stale entries are skipped on
    pop keeps the order near-linear.
    """
    left = [len(e) for e in hg.edges]  # vertices of each edge not yet ordered
    score = [len(inc) for inc in incident]  # at first every edge is one to open
    heap = [(s, v) for v, s in enumerate(score)]
    heapq.heapify(heap)
    done = [False] * hg.n
    order: list[int] = []
    while heap:
        s, v = heapq.heappop(heap)
        if done[v] or s != score[v]:
            continue
        done[v] = True
        order.append(v)
        for j in incident[v]:
            e = hg.edges[j]
            left[j] -= 1
            # v opened j for all the others, and a single vertex left closes j.
            drop = (left[j] == len(e) - 1) + (left[j] == 1)
            if drop:
                for w in e:
                    if not done[w]:
                        score[w] -= drop
                        heapq.heappush(heap, (score[w], w))
    return order


def _pick_table(
    headed: int,
    closing: list[int],
    staying: list[int],
    heads: int,
    mults: list[dict[int, int]],
    v: int,
) -> tuple[tuple[int, int], ...]:
    """Vertex v's ways to head ``heads`` edges, given the edge bits already headed.

    It must head every unheaded edge it closes; the rest is a choice among
    the unheaded staying edges.  Each way is (bits of the picked staying
    edges, product of v's tree multiplicities over the forced and picked
    edges), in ``combinations`` order; there is no way when the forced edges
    alone exceed ``heads`` or too few free ones remain.  The picks of one
    term give distinct keys, so a table longer than TERM_GUARD raises before
    it is built: that term alone would take the count past the guard.
    """
    forced = [j for j in closing if not headed >> j & 1]
    free = [j for j in staying if not headed >> j & 1]
    k = heads - len(forced)
    if not 0 <= k <= len(free):
        return ()
    if comb(len(free), k) > TERM_GUARD:
        raise GuardExceededError(
            f"more than {TERM_GUARD} live terms in the coefficient count"
        )
    base = prod(mults[j][v] for j in forced)
    return tuple(
        (sum(1 << j for j in pick), base * prod(mults[j][v] for j in pick))
        for pick in combinations(free, k)
    )


def _transfer_count(
    hg: Hypergraph, bip: tuple[str, ...], target: Sequence[int]
) -> int:
    """Weighted number of head choices whose head-degree vector equals target.

    A term is the set of open edges that already have a head, one bit per
    edge index; terms map to summed weights.  Vertex v heads exactly
    target[v] of its still-unheaded edges, and an edge that v closes must
    have a head once v is done, when it leaves the term.  What v may pick
    depends only on which of its own edges the term already heads, so each
    such mask gets one pick table per vertex step: (pick bits, weight) pairs
    in ``combinations`` order, the weight covering the forced edges too.
    The tables of a step hold at most TERM_GUARD ways (a longer one raises,
    see ``_pick_table``); past that the step drops the ones it holds and
    builds them again as terms need them.
    """
    mults = [_tree_multiplicity(crossing_tree(e, bip)) for e in hg.edges]
    incident = _incidence(hg.n, hg.edges)
    order = _vertex_order(hg, incident)
    position = {v: i for i, v in enumerate(order)}
    closer = [max(e, key=position.__getitem__) for e in hg.edges]
    terms = {0: 1}
    for v in order:
        closing = [j for j in incident[v] if closer[j] == v]
        staying = [j for j in incident[v] if closer[j] != v]
        own = sum(1 << j for j in incident[v])
        keep_mask = ~sum(1 << j for j in closing)
        tables: dict[int, tuple[tuple[int, int], ...]] = {}
        tabled = 0  # pick ways held in tables
        nxt: dict[int, int] = {}
        for term, w in terms.items():
            headed = term & own
            table = tables.get(headed)
            if table is None:
                table = _pick_table(headed, closing, staying, target[v], mults, v)
                tabled += len(table)
                if tabled > TERM_GUARD:
                    # Hold no more ways than the guard lets terms live.
                    tables.clear()
                    tabled = len(table)
                tables[headed] = table
            kept = term & keep_mask
            for bits, weight in table:
                key = kept | bits
                nxt[key] = nxt.get(key, 0) + w * weight
            if len(nxt) > TERM_GUARD:
                raise GuardExceededError(
                    f"more than {TERM_GUARD} live terms in the coefficient count"
                )
        if not nxt:
            return 0
        terms = nxt
    return terms.get(0, 0)
