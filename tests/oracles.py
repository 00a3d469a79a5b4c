"""Independent reference implementations and instance generators for tests.

Everything here recomputes values by brute force, deliberately avoiding the
library's own algorithms so that agreement is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import sympy

from hyperchoose import Bipartition, Hypergraph
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


def exhaustive_colorable(hg: Hypergraph, r: int) -> bool:
    """Scan all r^n colorings for a proper one (tiny n only)."""
    for cols in product(range(r), repeat=hg.n):
        if all(len({cols[v] for v in e}) > 1 for e in hg.edges):
            return True
    return False


def sympy_coefficients(hg: Hypergraph, bip: Bipartition, signed: bool):
    """Expand the tree-factor product symbolically; returns (poly, symbols)."""
    zs = sympy.symbols(f"z0:{hg.n}")
    expr = sympy.Integer(1)
    for e in hg.edges:
        tree = crossing_tree(e, bip)
        factor = sympy.Integer(0)
        for a, b in tree.pairs:
            factor += zs[a] - zs[b] if signed else zs[a] + zs[b]
        expr *= factor
    return sympy.Poly(sympy.expand(expr), *zs), zs


def sympy_target_coefficient(
    hg: Hypergraph, bip: Bipartition, exponents: tuple[int, ...], signed: bool
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
) -> tuple[Hypergraph, Bipartition]:
    """Random hypergraph whose edges all cross a fixed bipartition."""
    edges = []
    for _ in range(m):
        size = rnd.randint(2, min(max_size, n_a + n_b))
        take_a = rnd.randint(max(1, size - n_b), min(n_a, size - 1))
        part_a = rnd.sample(range(n_a), take_a)
        part_b = rnd.sample(range(n_a, n_a + n_b), size - take_a)
        edges.append(tuple(sorted(part_a + part_b)))
    bip = Bipartition(tuple(["A"] * n_a + ["B"] * n_b))
    return Hypergraph(n_a + n_b, tuple(edges)), bip
