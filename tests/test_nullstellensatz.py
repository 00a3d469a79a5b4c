import importlib
import random
from pathlib import Path

import pytest

from hyperchoose import (
    GuardExceededError,
    Hypergraph,
    PreconditionError,
    coefficient_count,
    crossing_tree,
    find_bipartition,
    gen_complete,
    min_orientation,
    monomial_coefficient,
    nullstellensatz,
    parse_hypergraph,
    vertex_counts,
)
from oracles import (
    _reference_edge_order,
    b_side_sign,
    random_two_colorable,
    reference_edge_transfer,
    reference_state_bounds,
    reference_transfer_count,
    sympy_coefficients,
    sympy_target_coefficient,
)


def check_against_sympy(hg, bip, phi) -> int:
    """Count = sympy's unsigned coefficient, and the signed one carries the B-side sign."""
    target = tuple(vertex_counts(hg.n, phi))
    count = coefficient_count(hg, bip, phi)
    assert count == sympy_target_coefficient(hg, bip, target, signed=False)
    signed = sympy_target_coefficient(hg, bip, target, signed=True)
    assert signed == b_side_sign(bip, phi) * count
    return count


def test_crossing_tree_shapes():
    assert crossing_tree((0, 1), ("A", "B")) == ((0, 1),)
    assert crossing_tree((0, 1, 2), ("A", "B", "B")) == (
        (0, 1),
        (0, 2),
    )
    tree = crossing_tree((0, 1, 2, 3), ("A", "A", "B", "B"))
    assert tree == ((0, 2), (1, 2), (0, 3))


def test_crossing_tree_spans_and_crosses():
    rnd = random.Random(8)
    for _ in range(30):
        hg, bip = random_two_colorable(rnd, 3, 3, 1, max_size=5)
        edge = hg.edges[0]
        tree = crossing_tree(edge, bip)
        assert len(tree) == len(edge) - 1
        assert {v for p in tree for v in p} == set(edge)
        assert all(bip[a] == "A" and bip[b] == "B" for a, b in tree)


def test_crossing_tree_rejects_one_sided_edge():
    with pytest.raises(PreconditionError):
        crossing_tree((0, 1), ("A", "A"))


def test_coefficient_count_rejects_a_head_outside_its_edge():
    hg, bip = gen_complete(2, 3, 3)
    phi = (1,) + min_orientation(hg)[1][1:]  # edge 0 is (0, 3)
    with pytest.raises(PreconditionError, match="orientation is not valid"):
        coefficient_count(hg, bip, phi)


def test_single_edge_coefficients():
    hg = Hypergraph(2, ((0, 1),))
    bip = ("A", "B")
    for head, signed in ((0, 1), (1, -1)):
        phi = (head,)
        assert check_against_sympy(hg, bip, phi) == 1
        assert sympy_target_coefficient(hg, bip, tuple(vertex_counts(2, phi)), signed=True) == signed


def test_four_cycle_coefficient_is_two():
    hg, bip = gen_complete(2, 2, 2)
    phi = (0, 3, 2, 1)  # every head degree 1
    assert vertex_counts(4, phi) == [1, 1, 1, 1]
    assert check_against_sympy(hg, bip, phi) == 2


def test_expand_matches_sympy_on_fixtures():
    hg, bip = gen_complete(2, 2, 2)
    phi = (0, 3, 2, 1)
    target = tuple(vertex_counts(4, phi))
    assert sympy_target_coefficient(hg, bip, target, signed=False) == 2
    assert sympy_target_coefficient(hg, bip, target, signed=True) == 2 * b_side_sign(bip, phi)


def test_expand_check_random_two_colorable():
    rnd = random.Random(21)
    for _ in range(50):
        hg, bip = random_two_colorable(rnd, rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(1, 6))
        _, phi = min_orientation(hg)
        assert check_against_sympy(hg, bip, phi) >= 1  # the orientation realizes a summand


def test_expand_check_against_sympy_random():
    rnd = random.Random(22)
    for _ in range(10):
        hg, bip = random_two_colorable(rnd, 2, 2, rnd.randint(1, 4), max_size=4)
        _, phi = min_orientation(hg)
        check_against_sympy(hg, bip, phi)


def test_fstar_has_no_negative_coefficient():
    rnd = random.Random(23)
    for _ in range(20):
        hg, bip = random_two_colorable(rnd, 2, 2, rnd.randint(1, 5))
        poly, _ = sympy_coefficients(hg, bip, signed=False)
        for exponent, coef in poly.terms():
            assert monomial_coefficient(hg, bip, exponent) == coef > 0


def test_degree_conservation():
    rnd = random.Random(24)
    for _ in range(20):
        hg, bip = random_two_colorable(rnd, 2, 3, rnd.randint(1, 6))
        _, phi = min_orientation(hg)
        assert sum(vertex_counts(hg.n, phi)) == len(hg.edges)


def test_random_orientations_have_positive_count():
    rnd = random.Random(25)
    for _ in range(40):
        hg, bip = random_two_colorable(rnd, 2, 2, rnd.randint(1, 5))
        phi = tuple(rnd.choice(e) for e in hg.edges)
        assert coefficient_count(hg, bip, phi) >= 1


def test_coefficient_links_to_choosability():
    # A positive coefficient certifies (head degrees + 1)-choosability; check
    # the uniform relaxation of that bound against the exact oracle.
    from hyperchoose import is_f_choosable

    rnd = random.Random(26)
    for _ in range(10):
        hg, bip = random_two_colorable(rnd, 2, 2, rnd.randint(1, 4), max_size=3)
        _, phi = min_orientation(hg)
        if coefficient_count(hg, bip, phi) >= 1:
            f = [d + 1 for d in vertex_counts(hg.n, phi)]
            verdict = is_f_choosable(hg, f, max_universe=sum(f))
            assert verdict.choosable


def test_monomial_coefficient_arbitrary_queries():
    hg, bip = gen_complete(2, 2, 2)
    phi = (0, 3, 2, 1)
    assert monomial_coefficient(hg, bip, vertex_counts(4, phi)) == coefficient_count(hg, bip, phi)
    # A wrong total degree or a negative exponent vanishes.
    assert monomial_coefficient(hg, bip, (4, 1, 1, 1)) == 0
    assert monomial_coefficient(hg, bip, (2, -1, 1, 2)) == 0
    # An exponent vector no orientation realizes can still be queried.
    probe = (2, 0, 1, 1)
    assert monomial_coefficient(hg, bip, probe) == sympy_target_coefficient(
        hg, bip, probe, signed=False
    )
    with pytest.raises(PreconditionError):
        monomial_coefficient(hg, bip, (1, 1, 1))
    with pytest.raises(PreconditionError):
        monomial_coefficient(hg, ("A",), (1, 1, 1, 1))


def test_monomial_coefficient_with_no_state_left_is_zero():
    # Two disjoint edges and the target (1, 1, 0, 0): the first edge's step has
    # nothing to bound (need < 0), and the second leaves no state, as vertex 0
    # has its one head and vertex 1 must take the edge it is not in.
    hg, bip, target = Hypergraph(4, ((0, 1), (2, 3))), ("A", "B", "A", "B"), (1, 1, 0, 0)
    assert monomial_coefficient(hg, bip, target) == 0
    assert sympy_target_coefficient(hg, bip, target, signed=False) == 0


def test_edgeless_coefficient_is_one():
    # The empty product is 1, so its one monomial, x^0, has coefficient 1.
    assert monomial_coefficient(Hypergraph(0, ()), (), ()) == 1
    assert monomial_coefficient(Hypergraph(3, ()), ("A", "B", "A"), (0, 0, 0)) == 1
    assert coefficient_count(Hypergraph(3, ()), ("A", "B", "A"), ()) == 1


def benchmark_workloads(monkeypatch):
    """The benchmark's instance generators, ``perfbench/workloads.py``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads")


def lab_planted(workloads, seed, m, c):
    """The planted 2-colorable instance of m edges on m // 2 vertices that the
    ``lab`` workload draws for its coefficient rung m, copy c."""
    rng = workloads._rng(seed, workloads.FAMILY_IDS["lab"], 2, m, c)
    return Hypergraph(m // 2, tuple(workloads.planted_edges(m // 2, m, rng)))


def lab_coefficient_rungs(monkeypatch, ms, seed=1):
    """The benchmark's ``lab`` coefficient instances at ``seed`` with m in ``ms``."""
    workloads = benchmark_workloads(monkeypatch)
    for m in ms:
        for c in range(workloads.COEFFICIENT_COPIES[m]):
            yield lab_planted(workloads, seed, m, c)


def reference_cases(rnd, count):
    """Random 2-colored instances, each with an orientation's head degrees and a
    random exponent vector whose entries may leave a vertex's range."""
    for _ in range(count):
        hg, bip = random_two_colorable(
            rnd, rnd.randint(1, 4), rnd.randint(1, 4), rnd.randint(1, 10)
        )
        phi = tuple(rnd.choice(e) for e in hg.edges)
        degs = hg.degrees()
        exponent = tuple(rnd.randint(-1, d + 1) for d in degs)
        yield hg, bip, phi, exponent


def test_transfer_count_matches_reference(monkeypatch):
    rnd = random.Random(27)
    zero = positive = 0
    for hg, bip, phi, exponent in reference_cases(rnd, 200):
        target = vertex_counts(hg.n, phi)
        assert coefficient_count(hg, bip, phi) == reference_transfer_count(hg, bip, target)
        coef = monomial_coefficient(hg, bip, exponent)
        assert coef == reference_transfer_count(hg, bip, exponent)
        assert reference_edge_transfer(hg, bip, exponent)[0] == coef
        zero += coef == 0
        positive += coef > 0
    assert zero and positive
    rungs = list(lab_coefficient_rungs(monkeypatch, (8, 12, 16, 36)))
    assert {len(hg.edges) for hg in rungs} == {8, 12, 16, 36}
    for hg in rungs:
        bip = find_bipartition(hg)
        _, phi = min_orientation(hg)
        count = coefficient_count(hg, bip, phi)
        assert count == reference_transfer_count(hg, bip, vertex_counts(hg.n, phi)) > 0
        assert monomial_coefficient(hg, bip, vertex_counts(hg.n, phi)) == count


@pytest.mark.parametrize("guard", [1, 2, 5, 50])
def test_transfer_count_guard_matches_reference(monkeypatch, guard):
    """The count raises exactly where the brute-force state bound passes the
    guard, and that bound holds a plain edge transfer's live states."""
    monkeypatch.setattr(nullstellensatz, "TERM_GUARD", guard)
    rnd = random.Random(28)
    cases = [
        (hg, bip, (vertex_counts(hg.n, phi), exponent))
        for hg, bip, phi, exponent in reference_cases(rnd, 60)
    ]
    # The random cases' bounds stay at or below 25; this one's, 267, passes every guard.
    complete, sides = gen_complete(3, 3, 3)
    cases.append((complete, sides, (vertex_counts(complete.n, min_orientation(complete)[1]),)))
    outcomes = set()
    for hg, bip, targets in cases:
        for target in targets:
            count, live = reference_edge_transfer(hg, bip, target)
            bounds = reference_state_bounds(hg, target)
            assert len(bounds) == len(live)
            assert all(bound >= states for bound, states in zip(bounds, live))
            expected = GuardExceededError if max(bounds, default=0) > guard else count
            try:
                got = monomial_coefficient(hg, bip, target)
            except GuardExceededError:
                got = GuardExceededError
            assert got == expected
            outcomes.add(expected is GuardExceededError)
    assert outcomes == {True, False}


def non_monochromatic_triples(side):
    """Every triple on side + side vertices that meets both halves."""
    from itertools import combinations

    edges = combinations(range(2 * side), 3)
    return Hypergraph(2 * side, tuple(t for t in edges if 0 < sum(v < side for v in t) < 3))


def traced_peak(call):
    """``call()``'s tracemalloc peak in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expect_guard(hg, bip, target):
    with pytest.raises(GuardExceededError):
        monomial_coefficient(hg, bip, target)


def test_guard_raises_before_building_a_long_pick_table(monkeypatch):
    """One term whose picks alone pass TERM_GUARD raises before its table is built."""
    # 4 + 4 vertices: 48 edges, the first vertex picks 6 of 18 (18 564 ways).
    hg = non_monochromatic_triples(4)
    bip = find_bipartition(hg)
    target = vertex_counts(hg.n, min_orientation(hg)[1])
    monkeypatch.setattr(nullstellensatz, "TERM_GUARD", 1000)
    with pytest.raises(GuardExceededError):
        reference_transfer_count(hg, bip, target)
    assert traced_peak(lambda: expect_guard(hg, bip, target)) < 2**20
    # 6 + 6 vertices at the real guard: about C(45, 15) ways, never built.
    monkeypatch.undo()
    hg = non_monochromatic_triples(6)
    bip = find_bipartition(hg)
    target = vertex_counts(hg.n, min_orientation(hg)[1])
    assert traced_peak(lambda: expect_guard(hg, bip, target)) < 2**20


def under_the_guard(hg):
    """Whether the state bound of hg's first min orientation, in the count's
    edge order, stays within TERM_GUARD."""
    target = vertex_counts(hg.n, min_orientation(hg)[1])
    order = _reference_edge_order(hg)
    try:
        nullstellensatz._require_state_bound(hg.edges, order, target, hg.degrees())
    except GuardExceededError:
        return False
    return True


def test_coefficient_reach_in_the_peel_order(monkeypatch):
    """The planted instances of 36 to 60 edges, at seeds 1 to 12, whose state
    bound stays under the guard in the peel's edge order: 76 of 84 (the
    former greedy vertex order passed 71).  Every ``lab`` rung, at seeds 1
    and 20261017, and the 44-edge golden instance stay under it."""
    workloads = benchmark_workloads(monkeypatch)
    sweep = [
        lab_planted(workloads, seed, m, 1)
        for m in range(36, 61, 4)
        for seed in range(1, 13)
    ]
    assert sum(map(under_the_guard, sweep)) == 76
    golden = Path(__file__).resolve().parent / "golden" / "coefficient_planted_m44.hgr"
    pinned = [parse_hypergraph(golden.read_text())]
    for seed in (1, 20261017):
        pinned += lab_coefficient_rungs(monkeypatch, workloads.COEFFICIENT_COPIES, seed)
    assert len(pinned) == 1 + 2 * sum(workloads.COEFFICIENT_COPIES.values())
    assert all(map(under_the_guard, pinned))
