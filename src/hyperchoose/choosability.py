"""Ground-truth oracles: exact list coloring, choosability, and chromatic number.

Everything here is exact within constant vertex guards (only the color
universe of ``is_f_choosable`` can be set); exceeding a guard raises instead
of approximating, because these routines back every other module's
verification.  The choosability decision enumerates adversarial list systems
up to color permutation and up to a domination order that discards mergeable
systems (see the lemma at ``is_f_choosable``), which keeps the search at desk
scale despite the doubly-exponential raw space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .core import Hypergraph, ListAssignment, _ListSearch, is_proper
from .density import bound_gk
from .errors import GuardExceededError, PreconditionError, TheoremContradictionError

MAX_VERTICES = 12
MAX_UNIVERSE = 12
CHROMATIC_MAX_VERTICES = 20


def color_from_lists(
    hg: Hypergraph, lists: ListAssignment
) -> Optional[tuple[int, ...]]:
    """A proper coloring with every color drawn from its vertex list, or None."""
    if lists.n != hg.n:
        raise PreconditionError("list assignment size differs from vertex count")
    solved = _ListSearch(hg).solve(lists.lists)
    if solved is None:
        return None
    color = tuple(solved)
    if not is_proper(hg, color) or not lists.admits(color):
        raise TheoremContradictionError("list coloring failed verification")
    return color


@dataclass(frozen=True)
class ChoosabilityVerdict:
    choosable: bool
    witness: Optional[ListAssignment]
    lists_examined: int


@lru_cache(maxsize=None)
def _candidates(used: int, size: int) -> tuple[tuple[int, ...], ...]:
    """size-subsets of {1..used+size} whose fresh colors form a prefix, lex order."""
    out = []
    for comb in combinations(range(1, used + size + 1), size):
        fresh = [c for c in comb if c > used]
        if fresh == list(range(used + 1, used + 1 + len(fresh))):
            out.append(comb)
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

    The verdict is deterministic; a negative one carries the first failing
    system in enumeration order, re-verified uncolorable before returning.
    """
    n = hg.n
    f = tuple(f)
    if len(f) != n:
        raise ValueError("f must assign a list length to every vertex")
    if any(x < 1 for x in f):
        raise ValueError("list lengths must be positive")
    if n > MAX_VERTICES:
        raise GuardExceededError(f"{n} vertices exceeds the guard {MAX_VERTICES}")
    if sum(f) > max_universe:
        raise GuardExceededError(
            f"color universe {sum(f)} exceeds the guard {max_universe}"
        )

    degs = hg.degrees()
    if all(f[v] >= degs[v] + 1 for v in range(n)):
        # Greedy repair always succeeds: coloring vertices in any order, at
        # most deg(v) colors are excluded when v is reached.
        return ChoosabilityVerdict(True, None, 0)

    search = _ListSearch(hg)
    suffix_capacity = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_capacity[i] = suffix_capacity[i + 1] + f[i] * (f[i] - 1) // 2

    lists_acc: list[tuple[int, ...]] = []
    masks: dict[int, int] = {}
    covered: set[tuple[int, int]] = set()
    memo_true: set[tuple[int, tuple[int, ...]]] = set()
    examined = 0
    witness: Optional[ListAssignment] = None

    def rec(i: int, used: int) -> bool:
        nonlocal examined, witness
        if i == n:
            if used * (used - 1) // 2 > len(covered):
                return True  # a color pair never co-occurs: dominated, skip
            examined += 1
            if search.solve(lists_acc) is None:
                witness = ListAssignment(tuple(lists_acc))
                return False
            return True
        key = (i, tuple(sorted(masks.values())))
        if key in memo_true:
            return True
        bit = 1 << i
        for cand in _candidates(used, f[i]):
            new_used = max(used, cand[-1])
            newly = [
                p for p in combinations(cand, 2) if p not in covered
            ]
            if new_used * (new_used - 1) // 2 - len(covered) - len(newly) > (
                suffix_capacity[i + 1]
            ):
                continue
            covered.update(newly)
            for c in cand:
                masks[c] = masks.get(c, 0) | bit
            lists_acc.append(cand)
            ok = rec(i + 1, new_used)
            lists_acc.pop()
            for c in cand:
                masks[c] &= ~bit
                if not masks[c]:
                    del masks[c]
            covered.difference_update(newly)
            if not ok:
                return False
        memo_true.add(key)
        return True

    if rec(0, 0):
        return ChoosabilityVerdict(True, None, examined)
    assert witness is not None and search.solve(witness.lists) is None
    return ChoosabilityVerdict(False, witness, examined)


def chromatic_number(hg: Hypergraph) -> int:
    """Exact chromatic number by iterative deepening over the color count."""
    if hg.n > CHROMATIC_MAX_VERTICES:
        raise GuardExceededError(
            f"{hg.n} vertices exceeds the guard {CHROMATIC_MAX_VERTICES}"
        )
    if not hg.edges:
        return 1 if hg.n else 0
    search = _ListSearch(hg)
    for r in range(2, hg.n + 1):
        if search.solve([range(r)] * hg.n) is not None:
            return r
    raise TheoremContradictionError("rainbow coloring rejected")  # pragma: no cover


def choice_number(hg: Hypergraph) -> int:
    """Smallest k such that every system of k-lists is colorable.

    Iterates k upward from 2.  Each k is decided over the full color universe
    n*k, so only ``MAX_VERTICES`` bounds the search.  Below the chromatic
    number the first system enumerated, every list equal, is uncolorable, so
    one search settles each such k.
    """
    if not hg.edges:
        return 1 if hg.n else 0
    for k in range(2, bound_gk(hg) + 1):
        verdict = is_f_choosable(hg, [k] * hg.n, max_universe=hg.n * k)
        if verdict.choosable:
            return k
    raise TheoremContradictionError("choice number exceeded its proven upper bound")
