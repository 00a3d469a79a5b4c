"""Ground-truth oracles: exact list coloring, choosability, and chromatic number.

Everything here is exact within constant guards (only the color universe of
``is_f_choosable`` can be set, and it must be positive); exceeding a guard
raises instead of approximating, because these routines back every other
module's verification.  The choosability decision enumerates adversarial
list systems up to color permutation and up to a domination order that
discards mergeable systems (see the lemma at ``is_f_choosable``), over at
most ``MAX_VERTICES`` vertices and ``FRAME_GUARD`` frames.  The color pairs
the partial system covers are one int bitmask, so the domination cut is a
popcount per candidate list, and every vertex, the last one included, scans
its candidates under that one cut.  A frame takes its memo key on entry and
stores it once it returns True.  Each system that survives the cut is first
tried with the previous colorable system's coloring: kept whole when every
list still holds its color, else repaired greedily and counted only after
``core._fits`` accepts it.  The list search decides the rest, and its
colorings pass ``core._verified``, which applies the same check.  Every
list search here stops at ``SEARCH_NODE_GUARD`` decisions beyond one per
vertex.

``choice_number`` enumerates only the levels below the paper's proven upper
bound and leaves the top level to the theorem; ``is_f_choosable`` itself
stays the plain enumerator at every f.  ``chromatic_number`` has no vertex
limit: its searches stop at the node guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .core import Hypergraph, ListAssignment, _color_lists, _fits, _ListSearch, _verified
from .density import Bounds, bounds
from .errors import GuardExceededError, InputError, TheoremContradictionError, check_guard

MAX_VERTICES = 12
MAX_UNIVERSE = 12
FRAME_GUARD = 250_000


def color_from_lists(
    hg: Hypergraph, lists: ListAssignment
) -> Optional[tuple[int, ...]]:
    """A proper coloring with every color drawn from its vertex list, or None."""
    return _color_lists(hg, hg.edges, lists)


@dataclass(frozen=True)
class ChoosabilityVerdict:
    choosable: bool
    witness: Optional[ListAssignment]
    lists_examined: int


@lru_cache(maxsize=None)
def _candidates(
    used: int, size: int
) -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
    """size-subsets of {1..used+size} whose fresh colors form a prefix, lex order.

    Each comes as (list, pair mask, used, pairs): the bitmask of its color
    pairs (the pair a < b is bit (b-1)(b-2)/2 + a-1), and the colors in use
    once it is added with the number of pairs among them.
    """
    out = []
    for comb in combinations(range(1, used + size + 1), size):
        fresh = [c for c in comb if c > used]
        if fresh == list(range(used + 1, used + 1 + len(fresh))):
            mask = 0
            for a, b in combinations(comb, 2):
                mask |= 1 << ((b - 1) * (b - 2) // 2 + a - 1)
            new_used = max(used, comb[-1])
            out.append((comb, mask, new_used, new_used * (new_used - 1) // 2))
    return tuple(out)


def is_f_choosable(
    hg: Hypergraph,
    f: Sequence[int],
    *,
    max_universe: int = MAX_UNIVERSE,
) -> ChoosabilityVerdict:
    """Decide whether every list system with sizes f admits a proper coloring.

    Exact decision by enumerating candidate list systems over the universe
    {1..sum(f)}, justified by two reductions:

    * Relabeling: a bad system has at most sum(f) distinct colors, so one
      exists within the universe iff one exists at all.
    * Merging: if two colors never share a list, replacing one by the other
      everywhere keeps all list sizes, and any proper coloring of the merged
      system splits back into one of the original (splitting a color class
      cannot create a monochromatic edge).  Iterating, every system is
      dominated by one in which all color pairs co-occur in some list; only
      those systems are solver-checked, and partial systems whose uncovered
      color pairs exceed the remaining lists' pair capacity are cut early.

    Systems are generated once per color-permutation orbit (fresh colors are
    allocated as the next unused integers) and subtrees already proven
    all-colorable are memoized by the orbit key: the multiset of per-color
    vertex-incidence sets, which determines a partial system up to color
    permutation because vertices are distinguishable.

    The covered color pairs are one int bitmask with its popcount, and each
    candidate list carries its precomputed pair mask, so the capacity cut
    costs a popcount per candidate.  Every vertex has one frame of the same
    shape: it is counted, then takes its memo key and returns at once on a
    hit, else scans ``_candidates`` under the cut and stores the key when
    it returns True.  At the last vertex no capacity is left, so the cut
    admits exactly the candidates that complete a system covering every
    color pair.  More than ``FRAME_GUARD`` frames raise.

    Each passing candidate at the last vertex completes a system, which is
    counted and decided there.  It is first tried with the coloring of the
    previous colorable system.  If every vertex keeps its color, that
    coloring counts as it is: it was verified proper, and each color was
    just found in its list.  Otherwise every vertex that lost its color
    takes, in index order, the first color of its list that no edge through
    it bans (an edge bans c when all its other vertices have c), and the
    repaired coloring counts only once ``core._fits`` finds it proper and
    every vertex's color in its list.  Failing that, the list search decides
    the system, and its coloring must pass ``core._verified``.  The systems
    are plain tuples of sorted lists, and a ``ListAssignment`` is built only
    for the witness.

    The verdict is deterministic; a negative one carries the first failing
    system in enumeration order, the one the list search found uncolorable.
    """
    n = hg.n
    f = tuple(f)
    if len(f) != n:
        raise ValueError("f must assign a list length to every vertex")
    if any(x < 1 for x in f):
        raise InputError("list lengths must be positive")
    if max_universe < 1:
        raise InputError("max_universe must be positive")
    check_guard(n, MAX_VERTICES, f"{n} vertices")
    check_guard(sum(f), max_universe, f"color universe {sum(f)}")

    degs = hg.degrees()
    if all(f[v] >= degs[v] + 1 for v in range(n)):
        # Greedy repair always succeeds: coloring vertices in any order, at
        # most deg(v) colors are excluded when v is reached.
        return ChoosabilityVerdict(True, None, 0)

    search = _ListSearch(hg.n, hg.edges)
    edges, inc = hg.edges, search.inc
    suffix_capacity = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_capacity[i] = suffix_capacity[i + 1] + f[i] * (f[i] - 1) // 2

    lists_acc: list[tuple[int, ...]] = []
    masks = [0] * (sum(f) + 1)  # per color, the vertices whose list holds it
    memo_true: set[tuple[int, tuple[int, ...]]] = set()
    examined = 0
    witness: Optional[ListAssignment] = None
    last: Optional[list[int]] = None  # coloring of the last colorable system
    frames, guard = 0, FRAME_GUARD

    def reuse() -> Optional[list[int]]:
        """``last`` itself if every vertex keeps its color, else a greedy repair.

        Each vertex that lost its color takes, in index order, the first color
        of its list that no edge through it bans; an edge bans c when all its
        other vertices have c.
        """
        lost = [v for v in range(n) if last[v] not in lists_acc[v]]
        if not lost:
            return last
        color: list = last[:]
        for v in lost:
            color[v] = None
        for v in lost:
            banned = set()
            for j in inc[v]:
                others = {color[u] for u in edges[j] if u != v}
                if len(others) == 1:
                    banned |= others
            for c in lists_acc[v]:
                if c not in banned:
                    color[v] = c
                    break
            else:
                return None
        return color

    def leaf() -> bool:
        """Decide the complete system ``lists_acc``; a coloring becomes ``last``."""
        nonlocal witness, last
        if last is not None:
            color = reuse()
            if color is last or (color is not None and _fits(hg, color, lists_acc)):
                last = color
                return True
        color = search.solve(lists_acc)
        if color is None:
            witness = ListAssignment(tuple(lists_acc))
            return False
        _verified(hg, color, lists_acc)
        last = color
        return True

    def rec(i: int, used: int, covered: int, count: int) -> bool:
        nonlocal examined, frames
        frames += 1
        if frames > guard:
            raise GuardExceededError(
                f"list-system enumeration exceeded the frame guard {guard}"
            )
        # Colors 1..used all occur, so these are exactly the nonzero masks.
        key = (i, tuple(sorted(masks[1 : used + 1])))
        if key in memo_true:
            return True
        uncovered = ~covered
        at_leaf = i == n - 1
        bit = 1 << i
        budget = count + suffix_capacity[i + 1]
        for cand, mask, new_used, pairs in _candidates(used, f[i]):
            newly = (mask & uncovered).bit_count()
            if pairs - newly > budget:
                continue
            lists_acc.append(cand)
            if at_leaf:
                examined += 1
                ok = leaf()
            else:
                for c in cand:
                    masks[c] |= bit
                ok = rec(i + 1, new_used, covered | mask, count + newly)
                for c in cand:
                    masks[c] ^= bit
            lists_acc.pop()
            if not ok:
                return False
        memo_true.add(key)
        return True

    ok = rec(0, 0, 0, 0)
    # rec refers to itself through its closure cell; emptying the cell breaks
    # that cycle, so the memo is freed on return, not at the next collection.
    del rec
    if ok:
        return ChoosabilityVerdict(True, None, examined)
    return ChoosabilityVerdict(False, witness, examined)


def chromatic_number(hg: Hypergraph) -> int:
    """Exact chromatic number by iterative deepening over the color count.

    Each color count's search stops at ``SEARCH_NODE_GUARD`` decisions beyond
    one per vertex, so no vertex limit applies.
    """
    if not hg.edges:
        return 1 if hg.n else 0
    search = _ListSearch(hg.n, hg.edges)
    for r in range(2, hg.n + 1):
        if search.solve([range(r)] * hg.n) is not None:
            return r
    raise TheoremContradictionError("rainbow coloring rejected")  # pragma: no cover


def choice_number(hg: Hypergraph, *, proven: Optional[Bounds] = None) -> int:
    """Smallest k such that every system of k-lists is colorable.

    The paper's theorems decide the top level U without enumeration:
    ch(H) <= ceil(2D/s) + 1 (the gk bound) for every H, and
    ch(H) <= ceil(L) + 1 (the sparse bound) when H is 2-colorable, so U is
    the smaller of the two there and the gk bound otherwise, both taken from
    ``proven``, the ``density.bounds(hg)`` a caller already holds, or else
    from ``density.bounds`` first.  Only k = 2..U-1 are enumerated, upward,
    each over the full color universe n*k, so ``is_f_choosable``'s vertex
    and frame guards bound the search, and apply only when U > 2; when none
    is choosable the answer is U.  Below the chromatic number the
    first system enumerated, every list equal, is uncolorable, so one search
    settles each such k.
    """
    if not hg.edges:
        return 1 if hg.n else 0
    if proven is None:
        proven = bounds(hg)
    upper = min(proven.gk, proven.sparse) if proven.two_colorable else proven.gk
    for k in range(2, upper):
        if is_f_choosable(hg, [k] * hg.n, max_universe=hg.n * k).choosable:
            return k
    return upper
