"""Independent reference implementations and instance generators for tests.

Everything here recomputes values by brute force, deliberately avoiding the
library's own algorithms so that agreement is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import sympy

from hyperchoose import Hypergraph
from hyperchoose.nullstellensatz import crossing_tree


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
