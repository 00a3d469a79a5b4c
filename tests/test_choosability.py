import gc
import random
import tracemalloc

import pytest

from hyperchoose import (
    GuardExceededError,
    Hypergraph,
    ListAssignment,
    choice_number,
    choosability,
    chromatic_number,
    color_from_lists,
    core,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    is_f_choosable,
)
from hyperchoose.core import _ListSearch, _fits
from oracles import (
    exhaustive_colorable,
    first_list_coloring,
    random_hypergraph,
    random_two_colorable,
    reference_choice_number,
    reference_is_f_choosable,
)

CLASSIC_BAD = ListAssignment(((1, 2), (1, 3), (2, 3), (1, 2), (1, 3), (2, 3)))


def test_color_from_lists_k33_bad_system():
    hg = gen_complete(2, 3, 3)[0]
    assert color_from_lists(hg, CLASSIC_BAD) is None


def test_color_from_lists_single_edge():
    hg = Hypergraph(2, ((0, 1),))
    assert color_from_lists(hg, ListAssignment(((1,), (1,)))) is None
    col = color_from_lists(hg, ListAssignment(((1,), (1, 2))))
    assert col == (1, 2)


# Eight isolated vertices, then a K4 that no 3 colors can color: chronological
# backtracking runs through the isolated vertices' values before it can refute
# the K4.
ISOLATED_K4 = Hypergraph(12, tuple((a, b) for a in range(8, 12) for b in range(a + 1, 12)))


def test_color_from_lists_node_guard(monkeypatch):
    lists = ListAssignment(((1, 2, 3),) * 12)
    assert color_from_lists(ISOLATED_K4, lists) is None
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 100)
    with pytest.raises(GuardExceededError, match="exceeded the node guard 100"):
        color_from_lists(ISOLATED_K4, lists)


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
            assert _fits(hg, first, lists.lists)


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
            assert found is not None and found == expected
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


def test_is_f_choosable_guards(monkeypatch):
    hg = gen_complete(2, 3, 3)[0]
    with pytest.raises(GuardExceededError):
        is_f_choosable(hg, [3] * 6)  # universe 18 over the default 12
    monkeypatch.setattr(choosability, "MAX_VERTICES", 4)
    with pytest.raises(GuardExceededError, match="6 vertices exceeds the guard 4"):
        is_f_choosable(hg, [2] * 6)


def test_is_f_choosable_rejects_nonpositive_universe():
    hg = gen_complete(2, 3, 3)[0]
    for universe in (0, -1):
        with pytest.raises(ValueError, match="max_universe must be positive"):
            is_f_choosable(hg, [3] * 6, max_universe=universe)


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


def test_chromatic_number_node_guard(monkeypatch):
    assert chromatic_number(ISOLATED_K4) == 4
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 100)
    with pytest.raises(GuardExceededError, match="exceeded the node guard 100"):
        chromatic_number(ISOLATED_K4)


def test_is_f_choosable_frame_guard(monkeypatch):
    # Fano at f = 3 enters 53 511 enumeration frames.
    monkeypatch.setattr(choosability, "FRAME_GUARD", 100)
    with pytest.raises(
        GuardExceededError, match="list-system enumeration exceeded the frame guard 100"
    ):
        is_f_choosable(gen_fano(), [3] * 7, max_universe=21)


@pytest.mark.parametrize(
    "hg, f, universe, frames, examined",
    [
        (gen_complete(2, 3, 3)[0], 3, 18, 2_238, 2_501),
        (gen_fano(), 3, 21, 53_511, 49_483),
    ],
    ids=["k33", "fano"],
)
def test_is_f_choosable_frame_count_is_pinned(monkeypatch, hg, f, universe, frames, examined):
    # Every frame is counted, memo hit or not: the run fits a guard of exactly
    # its frame count and exceeds one less.
    monkeypatch.setattr(choosability, "FRAME_GUARD", frames)
    verdict = is_f_choosable(hg, [f] * hg.n, max_universe=universe)
    assert verdict.choosable and verdict.lists_examined == examined
    monkeypatch.setattr(choosability, "FRAME_GUARD", frames - 1)
    with pytest.raises(GuardExceededError, match=f"frame guard {frames - 1}$"):
        is_f_choosable(hg, [f] * hg.n, max_universe=universe)


def test_is_f_choosable_node_guard(monkeypatch):
    # The first system, every list {1, 2}, takes a search of 11 decisions to
    # refute: over a guard of 3 plus one per vertex.
    fano = gen_fano()
    assert not is_f_choosable(fano, [2] * 7, max_universe=14).choosable
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 3)
    with pytest.raises(GuardExceededError, match="exceeded the node guard 3"):
        is_f_choosable(fano, [2] * 7, max_universe=14)


def test_chromatic_guard(monkeypatch):
    # No vertex limit: a single edge among 25 vertices is colored at once.
    assert chromatic_number(Hypergraph(25, ((0, 1),))) == 2
    # 36 isolated vertices ahead of a K4: refuting 3 colors runs into the
    # node guard.
    k4 = Hypergraph(40, tuple((a, b) for a in range(36, 40) for b in range(a + 1, 40)))
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 100)
    with pytest.raises(GuardExceededError, match="exceeded the node guard 100"):
        chromatic_number(k4)


def test_choice_number_k33():
    assert choice_number(gen_complete(2, 3, 3)[0]) == 3


def test_choice_number_guards():
    assert choice_number(Hypergraph(25, ())) == 1  # no edges: nothing to search
    # 2-colorable with L = 1/2: the sparse bound decides ch = 2 unenumerated.
    assert choice_number(Hypergraph(25, ((0, 1),))) == 2
    # A triangle has U = 3, so k = 2 must be enumerated over all 25 vertices.
    triangle = Hypergraph(25, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(GuardExceededError, match="25 vertices exceeds the guard 12"):
        choice_number(triangle)


def test_choice_number_triangle():
    hg = Hypergraph(3, ((0, 1), (1, 2), (0, 2)))
    assert choice_number(hg) == 3


def test_choice_number_regular_instance():
    hg = gen_k_regular_k_uniform(4, 6, seed=0)
    assert hg is not None
    assert choice_number(hg) == 2


@pytest.mark.parametrize("n, seed", [(1000, 1), (2000, 5), (4000, 20261017)])
def test_regular_family_exact_numbers_at_scale(n, seed):
    # k = 4: 2-colorable with L = 1, so ch = chi = 2 with nothing enumerated.
    hg = gen_k_regular_k_uniform(4, n, seed)
    assert hg is not None and hg.n == n
    assert find_bipartition(hg) is not None
    assert chromatic_number(hg) == 2
    assert choice_number(hg) == 2


def test_choice_number_matches_full_enumeration():
    # The reference enumerates every level up to bound_gk; choice_number
    # enumerates only the levels below the proven bound and returns the bound.
    named = [
        gen_complete(2, 3, 3)[0],
        gen_fano(),
        gen_complete(3, 2, 2)[0],
        Hypergraph(3, ((0, 1), (1, 2), (0, 2))),
        gen_k_regular_k_uniform(4, 6, 0),
    ]
    for hg in named:
        assert choice_number(hg) == reference_choice_number(hg), hg.edges
    rnd = random.Random(26)
    kinds = {True: 0, False: 0}
    while min(kinds.values()) < 25:
        n = rnd.randint(3, 6)
        if rnd.random() < 0.5:
            n_a = rnd.randint(1, n - 1)
            hg = random_two_colorable(rnd, n_a, n - n_a, rnd.randint(1, 5), max_size=3)[0]
        else:
            hg = random_hypergraph(rnd, n, rnd.randint(1, 6), max_size=3)
        kind = find_bipartition(hg) is not None
        if kinds[kind] >= 25:
            continue
        assert choice_number(hg) == reference_choice_number(hg), hg.edges
        kinds[kind] += 1


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
            assert first_list_coloring(hg, verdict.witness.lists) is None
            assert verdict.witness.sizes() == [2] * hg.n


def brute_f_choosable(hg, f):
    """Definition-level check over every system from {1..sum f}; tiny inputs only.

    Each system is colored by the product-order oracle, so this check shares
    no search with ``is_f_choosable``.
    """
    from itertools import combinations, product

    universe = list(range(1, sum(f) + 1))
    per_vertex = [list(combinations(universe, fv)) for fv in f]
    for system in product(*per_vertex):
        if first_list_coloring(hg, system) is None:
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


def test_is_f_choosable_matches_reference_on_random_hypergraphs():
    # The whole verdict, lists_examined and witness included, must equal the
    # set-of-pairs enumeration with a search at every leaf that it replaced.
    rnd = random.Random(20261018)
    not_choosable = 0
    for _ in range(300):
        n = rnd.randint(2, 7)
        hg = random_hypergraph(rnd, n, rnd.randint(1, 2 * n), max_size=3)
        f = [rnd.randint(1, 3) for _ in range(n)]
        verdict = is_f_choosable(hg, f, max_universe=24)
        assert verdict == reference_is_f_choosable(hg, f, max_universe=24), (hg, f)
        not_choosable += not verdict.choosable
    assert not_choosable >= 20


@pytest.mark.parametrize(
    "hg, k",
    [
        (gen_complete(2, 3, 3)[0], 2),
        (gen_complete(2, 3, 3)[0], 3),
        (gen_fano(), 2),
        (gen_fano(), 3),
        (gen_complete(3, 2, 2)[0], 2),
    ],
    ids=["k33-f2", "k33-f3", "fano-f2", "fano-f3", "k322-f2"],
)
def test_is_f_choosable_matches_reference_on_named_instances(hg, k):
    f = [k] * hg.n
    verdict = is_f_choosable(hg, f, max_universe=k * hg.n)
    assert verdict == reference_is_f_choosable(hg, f, max_universe=k * hg.n)


def test_is_f_choosable_reuses_colorings(monkeypatch):
    # Almost every dominant system on the Fano plane is colored by repairing
    # the previous system's coloring, not by a fresh search.
    calls = []
    solve = _ListSearch.solve

    def counted(self, lists):
        calls.append(lists)
        return solve(self, lists)

    monkeypatch.setattr(_ListSearch, "solve", counted)
    # Most systems keep the previous coloring outright, with no is_proper call
    # (the search checks its colorings through core._fits).
    checked = []
    proper = core.is_proper

    def counted_proper(hg, color):
        checked.append(color)
        return proper(hg, color)

    monkeypatch.setattr(core, "is_proper", counted_proper)
    verdict = is_f_choosable(gen_fano(), [3] * 7, max_universe=21)
    assert verdict.choosable and verdict.lists_examined == 49483
    assert len(calls) < verdict.lists_examined / 100
    assert len(checked) < verdict.lists_examined / 2


def test_is_f_choosable_reuse_rechecks_every_changed_list():
    # The first system {1}, {1}, {1, 2} is colored 1, 1, 2.  The second,
    # {1}, {2}, {1, 2}, changes only vertex 1's list, and that coloring still
    # fits every other vertex; the system itself is uncolorable.
    hg = Hypergraph(3, ((0, 2), (1, 2)))
    verdict = is_f_choosable(hg, [1, 1, 2])
    assert verdict == reference_is_f_choosable(hg, [1, 1, 2])
    assert verdict.witness == ListAssignment(((1,), (2,), (1, 2)))
    assert verdict.lists_examined == 2


def test_is_f_choosable_frees_its_memo_on_return():
    # With the cyclic collector off, memory still held after the call returns
    # is what reference counting alone cannot free.
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert is_f_choosable(gen_fano(), [3] * 7, max_universe=21).choosable
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 1_000_000
