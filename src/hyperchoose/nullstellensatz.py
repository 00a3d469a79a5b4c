"""Crossing spanning trees and polynomial coefficient certificates.

Each edge of a 2-colored hypergraph carries a spanning tree whose tree pairs
all cross the bipartition.  The product over edges of (sum of x_a + y_b over
tree pairs) expands with no cancellation, so the coefficient of the monomial
whose exponents match an orientation's degree vector counts, per edge, the
ways to pick an incident tree pair and endpoint.  A nonzero coefficient in
the signed product (x_a - y_b factors) certifies choosability with one more
color than each head degree; the two products agree up to a sign determined
by the total head degree on side B.

One iterative transfer count computes every coefficient.  It takes the
edges one at a time, in the order the density peel removes them (min-degree
vertices first, each with its remaining edges), and keeps, per vector of
heads taken by the open vertices (seen, with edges left), the weighted
number of partial head choices; each vector is one int with a bit field per
open vertex.  The order decides only how many states the count holds, never
its value.  Before the first state is built, an a-priori bound on every
step's state count is checked against TERM_GUARD, so the count never holds
more states than the guard and needs no check of its own.  On planted
3-uniform instances with m = 2n edges the bound is 3 088 states at m = 36
(2 884 live at the peak), 15 363 at m = 40 (15 236) and 28 314 at m = 44
(19 227); on planted and regular instances of 10^4 vertices it fires before
any state exists.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import (
    Hypergraph,
    SIDE_A,
    require_bipartition,
    require_orientation,
    vertex_counts,
)
from .density import _peel_density
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
    transfer count over edges; exact (arbitrary precision).  Raises
    GuardExceededError, before any state is built, when a step may hold more
    than TERM_GUARD states.
    """
    require_orientation(hg, phi)
    return monomial_coefficient(hg, bip, vertex_counts(hg.n, phi))


def monomial_coefficient(
    hg: Hypergraph, bip: tuple[str, ...], exponent: Sequence[int]
) -> int:
    """Unsigned-product coefficient of an arbitrary exponent vector."""
    require_bipartition(hg, bip)
    if len(exponent) != hg.n:
        raise PreconditionError("exponent vector size differs from vertex count")
    return _transfer_count(hg, bip, exponent)


def _require_state_bound(
    edges: Sequence[tuple[int, ...]],
    order: list[int],
    target: Sequence[int],
    degs: list[int],
) -> None:
    """Raise GuardExceededError if some step may hold more than TERM_GUARD states.

    After i edges an open vertex v holds at least lo = max(0, t_v - rem_v)
    and at most hi = min(t_v, seen_v) heads, and the open vertices together
    hold i minus the targets of the closed ones.  A step's states are at most
    the integer vectors meeting both: the coefficient of x^need in the
    product of (1 + x + ... + x^(hi - lo)) over the open vertices, counted
    with every partial count saturated at TERM_GUARD + 1.
    """
    cap = TERM_GUARD + 1
    seen = [0] * len(degs)
    rem = list(degs)
    opened: set[int] = set()
    closed = 0  # the targets of the closed vertices
    for i, j in enumerate(order, 1):
        for v in edges[j]:
            seen[v] += 1
            rem[v] -= 1
            if rem[v]:
                opened.add(v)
            else:
                opened.discard(v)
                closed += target[v]
        need, spans = i - closed, []
        for v in opened:
            lo, hi = max(0, target[v] - rem[v]), min(target[v], seen[v])
            need -= lo
            if hi > lo:
                spans.append(hi - lo)
        need = min(need, sum(spans) - need)  # the count is symmetric about the middle
        if need < 0:
            continue
        ways = [1] + [0] * need  # ways[s]: vectors so far summing to s
        for span in spans:
            window, summed = 0, []  # window: ways[s - span] + ... + ways[s]
            for s, x in enumerate(ways):
                window += x
                if s > span:
                    window -= ways[s - span - 1]
                summed.append(min(window, cap))
            ways = summed
        if ways[need] > TERM_GUARD:
            raise GuardExceededError(
                f"more than {TERM_GUARD} states may live in the coefficient count"
            )


def _transfer_count(
    hg: Hypergraph, bip: tuple[str, ...], target: Sequence[int]
) -> int:
    """Weighted number of head choices whose head-degree vector equals target.

    The edges are taken in the order the density peel removes them (see
    :func:`density._peel_density`), and a state is the number of heads each
    open vertex holds, packed into one int with one bit field per open
    vertex; a closed vertex's field is cleared and its slot reused.  A
    head adds its vertex's tree multiplicity as a factor of the weight.  A
    vertex that must head the edge to still reach its target (it holds
    t_v - rem_v) takes it, two such vertices leave no successor, and a
    vertex at its target takes no more; so a closing vertex holds exactly
    t_v.  The state bound is checked before the first state is built.
    """
    edges = hg.edges
    degs = hg.degrees()
    if sum(target) != len(edges) or any(not 0 <= t <= d for t, d in zip(target, degs)):
        return 0
    order = _peel_density(hg)[2]
    _require_state_bound(edges, order, target, degs)
    width = max(target, default=0).bit_length()
    field = (1 << width) - 1
    shift = [0] * hg.n
    free: list[int] = []  # shifts of the slots that closed vertices left
    slots = 0
    rem = list(degs)
    states = {0: 1}
    for j in order:
        e = edges[j]
        mult = _tree_multiplicity(crossing_tree(e, bip))
        heads = []  # (shift, tight count, target, head bit, weight) per vertex
        for v in e:
            if rem[v] == degs[v]:
                if free:
                    shift[v] = free.pop()
                else:
                    shift[v], slots = slots, slots + width
            heads.append((shift[v], target[v] - rem[v], target[v], 1 << shift[v], mult[v]))
            rem[v] -= 1
        clear = 0
        for v in e:
            if not rem[v]:
                clear += target[v] << shift[v]
                free.append(shift[v])
        nxt: dict[int, int] = {}
        for key, w in states.items():
            tight = None
            picks = []
            for s, low, t, bit, weight in heads:
                c = key >> s & field
                if c == low:
                    if tight is not None:
                        break
                    tight = (bit, weight)
                elif c < t:
                    picks.append((bit, weight))
            else:
                base = key - clear
                for bit, weight in (tight,) if tight else picks:
                    k = base + bit
                    nxt[k] = nxt.get(k, 0) + w * weight
        if not nxt:
            return 0
        states = nxt
    return states.get(0, 0)
