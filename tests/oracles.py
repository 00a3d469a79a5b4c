"""Independent reference implementations and instance generators for tests.

Everything here recomputes values by brute force, deliberately avoiding the
library's own algorithms so that agreement is meaningful.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import prod
from typing import Optional, Sequence

import mpmath
import numpy as np
import sympy

from hyperchoose import Hypergraph, ListAssignment, nullstellensatz
from hyperchoose.choosability import (
    MAX_UNIVERSE,
    MAX_VERTICES,
    ChoosabilityVerdict,
    is_f_choosable,
)
from hyperchoose.core import _ListSearch
from hyperchoose.dense import DenseExperimentReport, _rng, complete_proper_exists
from hyperchoose.density import _peel_density, bound_gk
from hyperchoose.errors import GuardExceededError
from hyperchoose.nullstellensatz import _tree_multiplicity, crossing_tree


def exhaustive_two_colorable(hg: Hypergraph) -> bool:
    """Scan all 2^n sidings for one where every edge meets both sides."""
    for sides in product("AB", repeat=hg.n):
        if all(len({sides[v] for v in e}) > 1 for e in hg.edges):
            return True
    return False


def first_bipartition(hg: Hypergraph) -> tuple[str, ...] | None:
    """Lexicographically first siding (vertex 0 most significant, A before B)."""
    return first_list_coloring(hg, [("A", "B")] * hg.n)


def first_list_coloring(hg: Hypergraph, lists) -> tuple | None:
    """First proper coloring in the product order of the lists, or None."""
    for cols in product(*lists):
        if all(len({cols[v] for v in e}) > 1 for e in hg.edges):
            return cols
    return None


def greedy_pair_coloring(n: int, pairs, lists) -> tuple:
    """Greedy list coloring of a pair graph in vertex order.

    Each vertex takes the first entry of its list that no already-colored
    pair neighbor holds.  Returns None when some vertex has no entry left.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for x, y in pairs:
        adj[x].append(y)
        adj[y].append(x)
    color: list = [None] * n
    for v in range(n):
        taken = {color[u] for u in adj[v] if color[u] is not None}
        free = next((c for c in lists[v] if c not in taken), None)
        if free is None:
            return None
        color[v] = free
    return tuple(color)


def naive_density(hg: Hypergraph) -> Fraction:
    """Plain maximum of |E'|/|union| over all nonempty subsets, no pruning."""
    best = Fraction(0)
    m = len(hg.edges)
    for r in range(1, m + 1):
        for picks in combinations(range(m), r):
            union = {v for j in picks for v in hg.edges[j]}
            best = max(best, Fraction(r, len(union)))
    return best


def brute_min_orientation(hg: Hypergraph) -> int:
    """Minimum over all head assignments of the max per-vertex head count."""
    m = len(hg.edges)
    best = m + 1
    deg = [0] * hg.n

    def rec(i: int, cur: int):
        nonlocal best
        if cur >= best:
            return
        if i == m:
            best = cur
            return
        for v in hg.edges[i]:
            deg[v] += 1
            rec(i + 1, max(cur, deg[v]))
            deg[v] -= 1

    rec(0, 0)
    return best


def brute_selection_exists(hg: Hypergraph, k: int) -> bool:
    """Scan every choice of two vertices per edge for one with all degrees <= k."""
    for pairs in product(*(combinations(e, 2) for e in hg.edges)):
        deg = [0] * hg.n
        for pair in pairs:
            for v in pair:
                deg[v] += 1
        if max(deg, default=0) <= k:
            return True
    return False


def split_tallies(lists, palette, draws, p):
    """Set-scan monochromatic count, two-sided dangerous tally and dangerous flags.

    Each color is neutral when its draw is below p, else blue in the lower
    half of the rest and red in the upper half.
    """
    blue = {c for c, u in zip(palette, draws) if p <= u < p + (1 - p) / 2}
    red = {c for c, u in zip(palette, draws) if u >= p + (1 - p) / 2}
    mono = sum(set(lv) <= blue or set(lv) <= red for lv in lists)
    tally = sum((not blue & set(lv)) + (not red & set(lv)) for lv in lists)
    dangerous = [not blue & set(lv) or not red & set(lv) for lv in lists]
    return mono, tally, dangerous


def mpmath_split_probability(s: int, l: int) -> float:
    """(s^(1/l) - 1) / (1 + s^(1/l)) at 30 mpmath digits, rounded once to a float."""
    with mpmath.workdps(30):
        r = mpmath.root(s, l)
        return float((r - 1) / (1 + r))


def mpmath_cond_ert_upper(s: int, l: int, t: int) -> bool:
    """Whether t < (1 + s^(1/l))^l / 4, by a float root guess and mpmath.

    A perfect l-th power s (found by checking the integers next to the float
    root) gives a rational threshold, compared exactly; otherwise a 60-digit
    evaluation, widened to 200 digits if the margin looks suspicious, decides.
    """
    guess = round(s ** (1.0 / l))
    for r in (guess - 1, guess, guess + 1):
        if r >= 1 and r**l == s:
            return Fraction(t) < Fraction((1 + r) ** l, 4)
    for dps in (60, 200):
        with mpmath.workdps(dps):
            threshold = (1 + mpmath.root(s, l)) ** l / 4
            if abs(threshold - t) > mpmath.mpf(10) ** (-dps // 2):
                return t < threshold
    raise ArithmeticError(
        f"threshold for s={s}, l={l} is numerically indistinguishable from t={t}"
    )


def exhaustive_colorable(hg: Hypergraph, r: int) -> bool:
    """Scan all r^n colorings for a proper one (tiny n only)."""
    for cols in product(range(r), repeat=hg.n):
        if all(len({cols[v] for v in e}) > 1 for e in hg.edges):
            return True
    return False


def sympy_coefficients(hg: Hypergraph, bip: tuple[str, ...], signed: bool):
    """Expand the tree-factor product symbolically; returns (poly, symbols)."""
    zs = sympy.symbols(f"z0:{hg.n}")
    expr = sympy.Integer(1)
    for e in hg.edges:
        tree = crossing_tree(e, bip)
        factor = sympy.Integer(0)
        for a, b in tree:
            factor += zs[a] - zs[b] if signed else zs[a] + zs[b]
        expr *= factor
    return sympy.Poly(sympy.expand(expr), *zs), zs


def b_side_sign(bip: tuple[str, ...], head) -> int:
    """(-1) to the number of heads on side B: y -> -y flips exactly that parity."""
    return -1 if sum(bip[h] == "B" for h in head) % 2 else 1


def sympy_target_coefficient(
    hg: Hypergraph, bip: tuple[str, ...], exponents: tuple[int, ...], signed: bool
) -> int:
    poly, _ = sympy_coefficients(hg, bip, signed)
    return int(poly.coeff_monomial(tuple(exponents)) or 0)


def random_hypergraph(
    rnd: random.Random, n: int, m: int, min_size: int = 2, max_size: int = 4
) -> Hypergraph:
    edges = []
    for _ in range(m):
        size = rnd.randint(min_size, min(max_size, n))
        edges.append(tuple(sorted(rnd.sample(range(n), size))))
    return Hypergraph(n, tuple(edges))


def random_two_colorable(
    rnd: random.Random, n_a: int, n_b: int, m: int, max_size: int = 4
) -> tuple[Hypergraph, tuple[str, ...]]:
    """Random hypergraph whose edges all cross a fixed bipartition."""
    edges = []
    for _ in range(m):
        size = rnd.randint(2, min(max_size, n_a + n_b))
        take_a = rnd.randint(max(1, size - n_b), min(n_a, size - 1))
        part_a = rnd.sample(range(n_a), take_a)
        part_b = rnd.sample(range(n_a, n_a + n_b), size - take_a)
        edges.append(tuple(sorted(part_a + part_b)))
    return Hypergraph(n_a + n_b, tuple(edges)), ("A",) * n_a + ("B",) * n_b


def _vertex_order(hg: Hypergraph, incident: list[list[int]]) -> list[int]:
    """The vertex order of ``reference_transfer_count``, greedy: next is the
    vertex opening the fewest edges net of those it closes.

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


def reference_transfer_count(
    hg: Hypergraph, bip: tuple[str, ...], target: Sequence[int]
) -> int:
    """The coefficient count as an edge-mask transfer over vertices: a term is
    the set of open edges that already have a head, and every term recomputes
    its forced and free edges and their weights.  It reads the package's
    ``TERM_GUARD`` at call time, so a patched guard applies here too."""
    mults = [_tree_multiplicity(crossing_tree(e, bip)) for e in hg.edges]
    incident: list[list[int]] = [[] for _ in range(hg.n)]
    for j, e in enumerate(hg.edges):
        for v in e:
            incident[v].append(j)
    order = _vertex_order(hg, incident)
    position = {v: i for i, v in enumerate(order)}
    closer = [max(e, key=position.__getitem__) for e in hg.edges]
    terms = {0: 1}
    for v in order:
        closing = [j for j in incident[v] if closer[j] == v]
        staying = [j for j in incident[v] if closer[j] != v]
        keep_mask = ~sum(1 << j for j in closing)
        nxt: dict[int, int] = {}
        for term, w in terms.items():
            # v must head every unheaded edge it closes; the rest is a choice.
            forced = [j for j in closing if not term >> j & 1]
            free = [j for j in staying if not term >> j & 1]
            k = target[v] - len(forced)
            if not 0 <= k <= len(free):
                continue
            base = w * prod(mults[j][v] for j in forced)
            kept = term & keep_mask
            for pick in combinations(free, k):
                key = kept | sum(1 << j for j in pick)
                nxt[key] = nxt.get(key, 0) + base * prod(mults[j][v] for j in pick)
                if len(nxt) > nullstellensatz.TERM_GUARD:
                    raise GuardExceededError(
                        f"more than {nullstellensatz.TERM_GUARD} live terms in the coefficient count"
                    )
        if not nxt:
            return 0
        terms = nxt
    return terms.get(0, 0)


def _reference_edge_order(hg: Hypergraph) -> list[int]:
    """The package's edge order: the edges as the density peel removes them."""
    return _peel_density(hg)[2]


def _degenerate_target(hg: Hypergraph, target: Sequence[int]) -> bool:
    """True for targets whose count is 0 before any step: a count outside
    0..deg(v), or a sum other than the edge count."""
    degs = hg.degrees()
    return sum(target) != len(hg.edges) or any(
        not 0 <= t <= d for t, d in zip(target, degs)
    )


def reference_edge_transfer(
    hg: Hypergraph, bip: tuple[str, ...], target: Sequence[int]
) -> tuple[int, list[int]]:
    """The count as a transfer over the edges in ``_reference_edge_order``, and
    its live states after each edge.

    A state is the whole head-count vector as a tuple.  Each edge tries every
    one of its vertices as head, then drops the states where a vertex of the
    edge exceeds its target or can no longer reach it with the edges it has
    left.  No guard."""
    if _degenerate_target(hg, target):
        return 0, []
    rem = hg.degrees()
    states = {(0,) * hg.n: 1}
    live = []
    for j in _reference_edge_order(hg):
        e = hg.edges[j]
        mult = _tree_multiplicity(crossing_tree(e, bip))
        for v in e:
            rem[v] -= 1
        nxt: dict[tuple[int, ...], int] = {}
        for state, w in states.items():
            for h in e:
                heads = list(state)
                heads[h] += 1
                if all(target[v] - rem[v] <= heads[v] <= target[v] for v in e):
                    key = tuple(heads)
                    nxt[key] = nxt.get(key, 0) + w * mult[h]
        states = nxt
        live.append(len(states))
    return states.get(tuple(target), 0), live


def reference_state_bounds(hg: Hypergraph, target: Sequence[int]) -> list[int]:
    """By brute force, the bound on the live states after each edge in
    ``_reference_edge_order``: the head-count vectors over the open vertices
    (seen, with edges left) where each v holds between max(0, t_v - rem_v)
    and min(t_v, seen_v) heads and the open vertices hold the step's heads
    less the targets of the closed ones.  Empty for a degenerate target."""
    if _degenerate_target(hg, target):
        return []
    rem = hg.degrees()
    seen = [0] * hg.n
    bounds = []
    for i, j in enumerate(_reference_edge_order(hg), 1):
        for v in hg.edges[j]:
            seen[v] += 1
            rem[v] -= 1
        opened = [v for v in range(hg.n) if seen[v] and rem[v]]
        held = i - sum(target[v] for v in range(hg.n) if seen[v] and not rem[v])
        ranges = [
            range(max(0, target[v] - rem[v]), min(target[v], seen[v]) + 1)
            for v in opened
        ]
        bounds.append(sum(sum(c) == held for c in product(*ranges)))
    return bounds


@lru_cache(maxsize=None)
def _reference_candidates(used: int, size: int) -> tuple[tuple[int, ...], ...]:
    """size-subsets of {1..used+size} whose fresh colors form a prefix, lex order."""
    out = []
    for comb in combinations(range(1, used + size + 1), size):
        fresh = [c for c in comb if c > used]
        if fresh == list(range(used + 1, used + 1 + len(fresh))):
            out.append(comb)
    return tuple(out)


def reference_is_f_choosable(
    hg: Hypergraph,
    f: Sequence[int],
    *,
    max_universe: int = MAX_UNIVERSE,
) -> ChoosabilityVerdict:
    """``choosability.is_f_choosable`` before the pair bitmask and the reused
    coloring: covered pairs in a set of tuples, a search at every dominant leaf."""
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

    search = _ListSearch(hg.n, hg.edges)
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
        for cand in _reference_candidates(used, f[i]):
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


def reference_choice_number(hg: Hypergraph) -> int:
    """``choosability.choice_number`` before the proven bound decided its top
    level: the smallest k in 2..bound_gk that ``is_f_choosable`` accepts,
    every level enumerated."""
    if not hg.edges:
        return 1 if hg.n else 0
    for k in range(2, bound_gk(hg) + 1):
        if is_f_choosable(hg, [k] * hg.n, max_universe=hg.n * k).choosable:
            return k
    raise AssertionError("choice number exceeded its proven upper bound")


def reference_lower_bound_experiment(
    s: int, l: int, t: int, trials: int, seed: int
) -> DenseExperimentReport:
    """``dense.lower_bound_experiment`` before its per-multiset memo: one
    ``complete_proper_exists`` call per trial."""
    rng = _rng(seed)
    witnesses = 0
    first_witness: Optional[ListAssignment] = None
    for _ in range(trials):
        left = [
            tuple(sorted(int(c) + 1 for c in rng.choice(l * l, size=l, replace=False)))
            for _ in range(t // 2)
        ]
        system = ListAssignment(tuple(left + left))
        if complete_proper_exists(s, t // 2, t // 2, system) is None:
            witnesses += 1
            if first_witness is None:
                first_witness = system
    return DenseExperimentReport(
        trials=trials,
        categories={"witness_found": witnesses, "colorable": trials - witnesses},
        seed=seed,
        witness_fraction=witnesses / trials,
        witness=first_witness,
    )


def reference_gen_k_regular_k_uniform(
    k: int, n: int, seed: int, proposals: int = 100_000
) -> Optional[Hypergraph]:
    """``core.gen_k_regular_k_uniform`` before it worked on arrays: Python
    lists for the layers, and a scan of every column from 0 after each swap.

    Builds k layers, each a permutation of the vertices; edge j collects the
    layer values at position j.  Columns with repeated vertices are repaired
    by random in-layer swaps; each swap or restart consumes one proposal from
    the budget.  Returns None if the budget is exhausted.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    budget = proposals
    while budget > 0:
        layers = [[int(x) for x in rng.permutation(n)] for _ in range(k)]
        budget -= 1
        stall = 0
        while True:
            # Scan before the budget check, so the last proposal is checked too.
            conflict = None
            for j in range(n):
                column = [layers[i][j] for i in range(k)]
                if len(set(column)) < k:
                    conflict = j
                    break
            if conflict is None:
                edges = tuple(
                    tuple(sorted(layers[i][j] for i in range(k))) for j in range(n)
                )
                hg = Hypergraph(n, edges)
                assert hg.degrees() == [k] * n
                return hg
            if budget == 0 or stall >= 50 * n:
                break
            column = [layers[i][conflict] for i in range(k)]
            dup_layer = next(i for i in range(1, k) if column[i] in column[:i])
            j2 = (conflict + 1 + int(rng.integers(n - 1))) % n
            layers[dup_layer][conflict], layers[dup_layer][j2] = (
                layers[dup_layer][j2],
                layers[dup_layer][conflict],
            )
            budget -= 1
            stall += 1
    return None


def reference_edge_vertex_flow(
    hg: Hypergraph, edge_cap: int, vertex_cap: int, incidence_cap: int
) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """``core.edge_vertex_flow`` before the implicit network: explicit arc
    arrays with source, sink and reverse arcs, and a DFS for every phase.

    Maximum flow on the network source -> edge -> vertex -> sink.

    Every edge node gets ``edge_cap`` from the source, every incidence arc
    carries up to ``incidence_cap``, and every vertex passes at most
    ``vertex_cap`` to the sink.  Density, orientations and degree-capped
    selections are this one network with different capacities.

    Dinic's algorithm: a BFS level graph per phase, then blocking flow by a
    depth-first walk with current-arc pointers and an explicit path stack, so
    paths of any length never recurse.  Arcs live in flat lists (``to``,
    ``cap``) with the reverse of arc ``a`` at ``a ^ 1``.

    Returns the flow value, per edge the vertices whose incidence arc carries
    flow (one tuple per edge, aligned with ``hg.edges``, vertices in the
    edge's order), and the indices of the edges on the source side of the
    residual network, which is the minimal minimum cut.
    """
    m, n = len(hg.edges), hg.n
    # Nodes: edges 0..m-1, vertices m..m+n-1, then the source and the sink.
    s, t = m + n, m + n + 1
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(m + n + 2)]

    def arc(u: int, v: int, c: int) -> None:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)

    # Sink arcs first, so each vertex tries the sink before any edge.
    for v in range(n):
        arc(m + v, t, vertex_cap)
    first: list[int] = []  # arc index of each edge's first incidence arc
    for j, e in enumerate(hg.edges):
        arc(s, j, edge_cap)
        first.append(len(to))
        for v in e:
            arc(j, m + v, incidence_cap)

    flow = 0
    while True:
        level = [-1] * (m + n + 2)
        level[s] = 0
        queue = [s]
        for u in queue:
            if u == t:
                break  # nodes one level past the sink lie on no shortest path
            lv = level[u] + 1
            for a in adj[u]:
                if cap[a]:
                    v = to[a]
                    if level[v] < 0:
                        level[v] = lv
                        queue.append(v)
        if level[t] < 0:
            break
        it = [0] * (m + n + 2)
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min([cap[a] for a in path])
                cut = -1
                for i, a in enumerate(path):
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                    if cut < 0 and not cap[a]:
                        cut = i
                flow += pushed
                # Resume at the tail of the first saturated arc.
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = adj[u]
            lv = level[u] + 1
            for i in range(it[u], len(arcs)):
                a = arcs[i]
                if cap[a] and level[to[a]] == lv:
                    it[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:
                if not path:
                    break
                # Dead end: no arc leads here again this phase; retreat.
                level[u] = -1
                u = to[path.pop() ^ 1]
                it[u] += 1

    # The reverse of incidence arc a holds the flow that a carries.
    chosen = [
        tuple(v for v, a in zip(e, range(f + 1, f + 2 * len(e), 2)) if cap[a])
        for f, e in zip(first, hg.edges)
    ]
    return flow, chosen, [j for j in range(m) if level[j] >= 0]


def flat_reference_flow(
    hg: Hypergraph, edge_cap: int, vertex_cap: int, incidence_cap: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """``reference_edge_vertex_flow`` with its per-edge witness flattened in
    edge order: the shape ``core.edge_vertex_flow`` returns."""
    flow, chosen, cut = reference_edge_vertex_flow(
        hg, edge_cap, vertex_cap, incidence_cap
    )
    return flow, tuple(chain.from_iterable(chosen)), cut
