import random

import pytest

from hyperchoose import (
    GuardExceededError,
    Hypergraph,
    ListAssignment,
    choice_number,
    chromatic_number,
    color_from_lists,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    is_f_choosable,
    is_proper,
)
from oracles import exhaustive_colorable, first_list_coloring, random_hypergraph

CLASSIC_BAD = ListAssignment(((1, 2), (1, 3), (2, 3), (1, 2), (1, 3), (2, 3)))


def test_color_from_lists_k33_bad_system():
    hg = gen_complete(2, 3, 3)[0]
    assert color_from_lists(hg, CLASSIC_BAD) is None


def test_color_from_lists_single_edge():
    hg = Hypergraph(2, ((0, 1),))
    assert color_from_lists(hg, ListAssignment(((1,), (1,)))) is None
    col = color_from_lists(hg, ListAssignment(((1,), (1, 2))))
    assert col.color == (1, 2)


def test_color_from_lists_verifies_and_is_deterministic():
    rnd = random.Random(17)
    for _ in range(50):
        hg = random_hypergraph(rnd, rnd.randint(2, 7), rnd.randint(1, 6))
        lists = ListAssignment(
            tuple(tuple(rnd.sample(range(1, 7), rnd.randint(1, 3))) for _ in range(hg.n))
        )
        first = color_from_lists(hg, lists)
        assert first == color_from_lists(hg, lists)
        if first is not None:
            assert is_proper(hg, first) and first.respects(lists)


def test_color_from_lists_is_lex_first():
    rnd = random.Random(4242)
    uncolorable = 0
    for _ in range(240):
        n = rnd.randint(2, 7)
        hg = random_hypergraph(rnd, n, rnd.randint(1, 12), max_size=3)
        lists = ListAssignment(
            tuple(tuple(rnd.sample(range(1, 5), rnd.choice((1, 2, 2, 3)))) for _ in range(n))
        )
        expected = first_list_coloring(hg, lists.lists)
        found = color_from_lists(hg, lists)
        if expected is None:
            uncolorable += 1
            assert found is None
        else:
            assert found is not None and found.color == expected
    assert uncolorable >= 10


def test_is_f_choosable_k33_two_lists():
    hg = gen_complete(2, 3, 3)[0]
    verdict = is_f_choosable(hg, [2] * 6)
    assert not verdict.choosable
    assert verdict.lists_examined > 0
    assert color_from_lists(hg, verdict.witness) is None
    # The classic witness, found exactly (not just up to relabeling).
    assert verdict.witness == CLASSIC_BAD


def test_is_f_choosable_k33_three_lists():
    hg = gen_complete(2, 3, 3)[0]
    verdict = is_f_choosable(hg, [3] * 6, max_universe=18)
    assert verdict.choosable and verdict.witness is None


def test_is_f_choosable_trivial_when_lists_beat_degrees():
    fano = gen_fano()
    verdict = is_f_choosable(fano, [4] * 7, max_universe=28)
    assert verdict.choosable and verdict.lists_examined == 0  # greedy shortcut


def test_is_f_choosable_guards():
    hg = gen_complete(2, 3, 3)[0]
    with pytest.raises(GuardExceededError):
        is_f_choosable(hg, [3] * 6)  # universe 18 over the default 12
    with pytest.raises(GuardExceededError):
        is_f_choosable(hg, [2] * 6, max_vertices=4)


def test_is_f_choosable_monotone_in_f():
    rnd = random.Random(3)
    for _ in range(15):
        hg = random_hypergraph(rnd, rnd.randint(2, 5), rnd.randint(1, 5), max_size=3)
        f = [rnd.randint(1, 2) for _ in range(hg.n)]
        small = is_f_choosable(hg, f, max_universe=24)
        bigger = [x + 1 for x in f]
        big = is_f_choosable(hg, bigger, max_universe=24)
        if small.choosable:
            assert big.choosable


def test_single_edge_choosability():
    hg = Hypergraph(2, ((0, 1),))
    assert not is_f_choosable(hg, [1, 1]).choosable
    assert is_f_choosable(hg, [1, 2]).choosable
    assert choice_number(hg) == 2


def test_chromatic_number_examples():
    assert chromatic_number(gen_fano()) == 3
    assert chromatic_number(gen_complete(2, 3, 3)[0]) == 2
    assert chromatic_number(Hypergraph(4, ((0, 1, 2, 3),))) == 2
    assert chromatic_number(Hypergraph(3, ())) == 1
    # Independent confirmation for the Fano plane.
    assert not exhaustive_colorable(gen_fano(), 2)
    assert exhaustive_colorable(gen_fano(), 3)


def test_chromatic_number_matches_brute_force():
    rnd = random.Random(31)
    seen = set()
    for _ in range(60):
        n = rnd.randint(2, 7)
        hg = random_hypergraph(rnd, n, rnd.randint(1, 14), max_size=rnd.choice((2, 3)))
        chi = chromatic_number(hg)
        assert exhaustive_colorable(hg, chi) and not exhaustive_colorable(hg, chi - 1)
        seen.add(chi)
    assert {2, 3, 4} <= seen


def test_chromatic_guard():
    with pytest.raises(GuardExceededError):
        chromatic_number(Hypergraph(25, ((0, 1),)), max_vertices=20)


def test_choice_number_k33():
    assert choice_number(gen_complete(2, 3, 3)[0]) == 3


def test_choice_number_triangle():
    hg = Hypergraph(3, ((0, 1), (1, 2), (0, 2)))
    assert choice_number(hg) == 3


def test_choice_number_regular_instance():
    hg = gen_k_regular_k_uniform(4, 6, seed=0)
    assert hg is not None
    assert choice_number(hg) == 2


def test_choice_number_at_least_chromatic():
    rnd = random.Random(11)
    for _ in range(20):
        hg = random_hypergraph(rnd, rnd.randint(2, 5), rnd.randint(1, 5), max_size=3)
        assert choice_number(hg) >= chromatic_number(hg)


def test_witness_is_reverified():
    rnd = random.Random(13)
    for _ in range(20):
        hg = random_hypergraph(rnd, rnd.randint(2, 5), rnd.randint(2, 6), max_size=3)
        verdict = is_f_choosable(hg, [2] * hg.n, max_universe=2 * hg.n)
        if not verdict.choosable:
            assert verdict.witness is not None
            assert color_from_lists(hg, verdict.witness) is None
            assert verdict.witness.sizes() == [2] * hg.n


def brute_f_choosable(hg, f):
    """Definition-level check over every system from {1..sum f}; tiny inputs only."""
    from itertools import combinations, product

    universe = list(range(1, sum(f) + 1))
    per_vertex = [list(combinations(universe, fv)) for fv in f]
    for system in product(*per_vertex):
        if color_from_lists(hg, ListAssignment(system)) is None:
            return False
    return True


def test_is_f_choosable_matches_definition_brute_force():
    rnd = random.Random(9999)
    checked = 0
    while checked < 12:
        n = rnd.randint(2, 4)
        hg = random_hypergraph(rnd, n, rnd.randint(1, 5), max_size=3)
        f = [rnd.randint(1, 2) for _ in range(n)]
        if sum(f) > 7:
            continue
        fast = is_f_choosable(hg, f, max_universe=24)
        assert fast.choosable == brute_f_choosable(hg, f)
        checked += 1
    # Denser fixed cases: the 4-cycle is 2-choosable, the complete graph is not.
    from itertools import combinations

    c4 = Hypergraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert is_f_choosable(c4, [2] * 4).choosable
    assert brute_f_choosable(c4, [2] * 4)
    k4 = Hypergraph(4, tuple(combinations(range(4), 2)))
    assert not is_f_choosable(k4, [2] * 4).choosable
    assert not brute_f_choosable(k4, [2] * 4)
