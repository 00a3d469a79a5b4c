import random
from fractions import Fraction
from itertools import chain
from math import ceil

import pytest

from hyperchoose import (
    Hypergraph,
    core,
    degree_constrained,
    ListAssignment,
    PreconditionError,
    TheoremContradictionError,
    build_selection,
    gen_complete,
    gen_fano,
    list_color_gk,
    metrics,
    vertex_counts,
)
from hyperchoose.core import _fits
from oracles import brute_selection_exists, greedy_pair_coloring, random_hypergraph


def test_build_selection_fano_reaches_zero_potential():
    fano = gen_fano()
    sel = build_selection(fano, 2)  # cap = ceil(2*3/3)
    assert sel is not None
    assert vertex_counts(7, chain.from_iterable(sel)) == [2] * 7  # 14 incidences over 7 vertices
    assert max(vertex_counts(7, chain.from_iterable(sel))) <= 2
    for pair, edge in zip(sel, fano.edges):
        assert pair[0] in edge and pair[1] in edge and pair[0] != pair[1]


def test_build_selection_single_edge():
    sel = build_selection(Hypergraph(3, ((0, 1, 2),)), 1)
    assert sel is not None
    assert sel == ((0, 1),)
    assert max(vertex_counts(3, chain.from_iterable(sel))) <= 1


def test_build_selection_two_uniform_forced():
    hg = gen_complete(2, 3, 3)[0]
    sel = build_selection(hg, 3)
    assert sel is not None
    assert tuple(tuple(sorted(p)) for p in sel) == hg.edges
    assert max(vertex_counts(6, chain.from_iterable(sel))) == 3


def test_build_selection_absent_below_threshold():
    # 2-uniform star: both incidences forced, center degree = edge count.
    star = Hypergraph(4, ((0, 1), (0, 2), (0, 3)))
    assert build_selection(star, 2) is None
    assert build_selection(star, 3) is not None


def test_build_selection_never_absent_at_guaranteed_cap():
    rnd = random.Random(31)
    for _ in range(80):
        hg = random_hypergraph(rnd, rnd.randint(2, 9), rnd.randint(1, 10))
        met = metrics(hg)
        k = ceil(Fraction(2 * met.max_degree, met.min_edge_size))
        sel = build_selection(hg, k)
        assert sel is not None
        assert max(vertex_counts(hg.n, chain.from_iterable(sel))) <= k
        assert all(
            p[0] in e and p[1] in e and p[0] != p[1]
            for p, e in zip(sel, hg.edges)
        )


def test_build_selection_matches_brute_force():
    rnd = random.Random(41)
    absent = 0
    for _ in range(120):
        hg = random_hypergraph(rnd, rnd.randint(2, 7), rnd.randint(1, 6))
        for k in range(1, 5):
            sel = build_selection(hg, k)
            assert (sel is None) == (not brute_selection_exists(hg, k))
            absent += sel is None
            if sel is not None:
                assert max(vertex_counts(hg.n, chain.from_iterable(sel))) <= k
                assert all(
                    p[0] in e and p[1] in e and p[0] != p[1]
                    for p, e in zip(sel, hg.edges)
                )
    assert absent >= 100


def test_list_color_gk_fano():
    fano = gen_fano()
    lists = ListAssignment(tuple((1, 2, 3) for _ in range(7)))
    col, _ = list_color_gk(fano, lists)
    assert _fits(fano, col, lists.lists)


def test_list_color_gk_fano_random_lists():
    fano = gen_fano()
    rnd = random.Random(55)
    for _ in range(150):
        lists = ListAssignment(
            tuple(tuple(rnd.sample(range(1, 10), 3)) for _ in range(7))
        )
        col, _ = list_color_gk(fano, lists)
        assert _fits(fano, col, lists.lists)


def test_list_color_gk_triangle():
    hg = Hypergraph(3, ((0, 1), (1, 2), (0, 2)))
    lists = ListAssignment(tuple((1, 2, 3) for _ in range(3)))  # ceil(2*2/2)+1
    col, _ = list_color_gk(hg, lists)
    assert _fits(hg, col, lists.lists)


def test_list_color_gk_rejects_short_lists():
    fano = gen_fano()
    lists = ListAssignment(tuple((1, 2) for _ in range(7)))
    with pytest.raises(PreconditionError):
        list_color_gk(fano, lists)


def test_list_color_gk_random_instances():
    rnd = random.Random(60)
    for _ in range(40):
        hg = random_hypergraph(rnd, rnd.randint(2, 8), rnd.randint(1, 8))
        met = metrics(hg)
        k = ceil(Fraction(2 * met.max_degree, met.min_edge_size))
        lists = ListAssignment(
            tuple(tuple(rnd.sample(range(1, 2 * k + 4), k + 1)) for _ in range(hg.n))
        )
        col, pairs = list_color_gk(hg, lists)
        assert _fits(hg, col, lists.lists)
        assert max(vertex_counts(hg.n, chain.from_iterable(pairs))) <= k
        assert len(pairs) == len(hg.edges) and all(
            p[0] in e and p[1] in e and p[0] != p[1] for p, e in zip(pairs, hg.edges)
        )


def test_list_color_gk_is_the_vertex_order_greedy():
    # At cap k every vertex has at most k pair neighbors and k+1 or more
    # entries, so the search never backtracks and must return the greedy
    # coloring of the pairs it colored.
    rnd = random.Random(61)
    for _ in range(1000):
        hg = random_hypergraph(rnd, rnd.randint(2, 9), rnd.randint(1, 9))
        met = metrics(hg)
        k = ceil(Fraction(2 * met.max_degree, met.min_edge_size))
        lists = ListAssignment(
            tuple(
                tuple(sorted(rnd.sample(range(1, 2 * k + 7), rnd.randint(k + 1, k + 3))))
                for _ in range(hg.n)
            )
        )
        col, pairs = list_color_gk(hg, lists)
        assert col == greedy_pair_coloring(hg.n, pairs, lists.lists)


def gk_lists(rnd, n, k):
    """Lists of mixed sizes k+1..k+3 from a palette of k+3 colors, so that pair
    neighbors' lists overlap and the first fit has to skip entries."""
    return ListAssignment(
        tuple(tuple(rnd.sample(range(k + 3), rnd.randint(k + 1, k + 3))) for _ in range(n))
    )


def test_list_color_gk_matches_the_list_search_on_its_pairs():
    # The first fit and the list search that colored the pairs before it
    # agree on every system that meets the cap+1 rule.
    rnd = random.Random(62)
    for _ in range(600):
        hg = random_hypergraph(rnd, rnd.randint(2, 10), rnd.randint(1, 12))
        met = metrics(hg)
        k = ceil(Fraction(2 * met.max_degree, met.min_edge_size))
        lists = gk_lists(rnd, hg.n, k)
        col, pairs = list_color_gk(hg, lists)
        assert all(v < u for v, u in pairs)  # the order the first fit relies on
        assert col == tuple(core._ListSearch(hg.n, pairs).solve(lists.lists))


def test_list_color_gk_runs_no_list_search(monkeypatch):
    def refuse(self, lists):
        raise AssertionError("list_color_gk ran the list search")

    monkeypatch.setattr(core._ListSearch, "solve", refuse)
    rnd = random.Random(63)
    for _ in range(100):
        hg = random_hypergraph(rnd, rnd.randint(2, 9), rnd.randint(1, 9))
        met = metrics(hg)
        k = ceil(Fraction(2 * met.max_degree, met.min_edge_size))
        lists = gk_lists(rnd, hg.n, k)
        col, _ = list_color_gk(hg, lists)
        assert _fits(hg, col, lists.lists)


def test_list_color_gk_reports_a_stuck_first_fit(monkeypatch):
    # A selection past the cap (vertex 3 in three pairs at cap 2) can leave a
    # vertex no entry; the verification turns that into a theorem failure.
    path = Hypergraph(4, ((0, 1), (1, 2), (2, 3)))
    monkeypatch.setattr(
        degree_constrained, "build_selection", lambda hg, k: ((0, 3), (1, 3), (2, 3))
    )
    lists = ListAssignment(((1, 4, 5), (2, 4, 5), (3, 4, 5), (1, 2, 3)))
    with pytest.raises(TheoremContradictionError, match="failed verification"):
        list_color_gk(path, lists)
