"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the suite uses fixed seeds throughout, so outcomes are reproducible.
"""

import random
import time
from fractions import Fraction

import numpy as np

import hyperchoose as hc
from hyperchoose.core import _fits
from oracles import (
    b_side_sign,
    brute_min_orientation,
    random_hypergraph,
    random_two_colorable,
    sympy_target_coefficient,
)


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _canonical_system(lists: hc.ListAssignment):
    """Multiset of per-color vertex-incidence sets: invariant under relabeling."""
    incidence: dict[int, set[int]] = {}
    for v, lv in enumerate(lists.lists):
        for c in lv:
            incidence.setdefault(c, set()).add(v)
    return sorted(tuple(sorted(s)) for s in incidence.values())


CLASSIC_BAD = hc.ListAssignment(((1, 2), (1, 3), (2, 3), (1, 2), (1, 3), (2, 3)))


def test_criterion_1_erdos_rubin_taylor_k33():
    start = time.perf_counter()
    hg = hc.gen_complete(2, 3, 3)[0]

    two = hc.is_f_choosable(hg, [2] * 6)
    assert not two.choosable
    assert two.witness is not None
    assert hc.color_from_lists(hg, two.witness) is None
    assert _canonical_system(two.witness) == _canonical_system(CLASSIC_BAD)

    three = hc.is_f_choosable(hg, [3] * 6, max_universe=18)
    assert three.choosable

    ch = hc.choice_number(hg)
    assert ch == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(
        1,
        True,
        f"K(2;3,3): not 2-choosable (classic witness up to relabeling), "
        f"3-choosable, ch=3; {elapsed:.2f}s < 60s",
    )


def test_criterion_2_sparse_bound_consistency():
    hg = hc.gen_complete(2, 3, 3)[0]
    lam = hc.density_exact(hg)
    assert lam == Fraction(3, 2)
    bounds = hc.bounds(hg)
    assert bounds.sparse == 3 and bounds.two_colorable
    assert hc.choice_number(hg) == 3
    _report(2, True, "L(K(2;3,3)) = 3/2 exactly; ceil(L)+1 = 3 = ch")


def test_criterion_3_regular_instance_is_chromatic_choosable():
    start = time.perf_counter()
    hg = None
    for seed in range(50):
        cand = hc.gen_k_regular_k_uniform(4, 6, seed=seed)
        if cand is not None and hc.find_bipartition(cand) is not None:
            hg = cand
            break
    assert hg is not None, "no 2-colorable 4-uniform 4-regular instance found"
    assert hg.n == 6 <= 10
    met = hc.metrics(hg)
    assert met.uniform == 4 and hg.degrees() == [4] * 6

    bounds = hc.bounds(hg)
    assert bounds.sparse == 2 and bounds.two_colorable

    verdict = hc.is_f_choosable(hg, [2] * 6)  # universe 12: default guard
    assert verdict.choosable

    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _report(
        3,
        True,
        f"4-uniform 4-regular n=6 instance: bound 2 and 2-choosable, so ch=2; "
        f"{elapsed:.2f}s < 600s",
    )


def test_criterion_4_minimal_orientation_equals_density_ceiling():
    rnd = random.Random(4040)
    checked = 0
    while checked < 100:
        hg = random_hypergraph(rnd, rnd.randint(2, 7), rnd.randint(1, 8), max_size=4)
        product = 1
        for e in hg.edges:
            product *= len(e)
        assert product <= 10**6
        k_star, phi = hc.min_orientation(hg)
        dens = hc.density_exact(hg)
        assert k_star == (dens.numerator + dens.denominator - 1) // dens.denominator
        assert k_star == brute_min_orientation(hg)
        assert hc.orientation_is_valid(hg, phi)
        assert max(hc.vertex_counts(hg.n, phi)) == k_star
        checked += 1
    _report(4, True, f"{checked} random instances: k* = ceil(L) = brute-force minimum")


def test_criterion_5_gk_constructive_on_fano():
    fano = hc.gen_fano()
    assert hc.bound_gk(fano) == 3
    rnd = random.Random(505)
    for _ in range(1000):
        lists = hc.ListAssignment(
            tuple(tuple(rnd.sample(range(1, 10), 3)) for _ in range(7))
        )
        col, _ = hc.list_color_gk(fano, lists)
        assert _fits(fano, col, lists.lists)
    assert hc.chromatic_number(fano) == 3  # so 3 <= ch(Fano) <= bound_gk = 3
    _report(
        5,
        True,
        "Fano: 1000/1000 random 3-list systems colored constructively; "
        "with chi=3 this pins ch=3",
    )


def test_criterion_6_polynomial_certificates():
    def coefficients(hg, bip, phi):
        """Count, sympy's unsigned and signed coefficients, and the B-side sign."""
        target = tuple(hc.vertex_counts(hg.n, phi))
        return (
            hc.coefficient_count(hg, bip, phi),
            sympy_target_coefficient(hg, bip, target, signed=False),
            sympy_target_coefficient(hg, bip, target, signed=True),
            b_side_sign(bip, phi),
        )

    # Fixtures: single edge (both orientations) and the 4-cycle.
    single = hc.Hypergraph(2, ((0, 1),))
    sbip = ("A", "B")
    for head, expected_sign in ((0, 1), (1, -1)):
        assert coefficients(single, sbip, (head,)) == (
            1, 1, expected_sign, expected_sign
        )

    cyc, cbip = hc.gen_complete(2, 2, 2)
    count, fstar, f, sign = coefficients(cyc, cbip, (0, 3, 2, 1))
    assert count == fstar == 2 and f == sign * fstar

    rnd = random.Random(606)
    for _ in range(50):
        hg, bip = random_two_colorable(
            rnd, rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(1, 6)
        )
        _, phi = hc.min_orientation(hg)
        count, fstar, f, sign = coefficients(hg, bip, phi)
        assert count == fstar, "transfer count disagrees with the sympy expansion"
        assert f == sign * fstar, "sign relation violated"
        assert count >= 1
    _report(
        6,
        True,
        "52 instances: sympy expansion = transfer count, sign relation holds, "
        "coefficient >= 1",
    )


def test_criterion_7_split_closed_forms_and_monte_carlo():
    for cfg_seed, (s, l) in zip((101, 102, 103), [(4, 2), (16, 2), (8, 3)]):
        p = hc.split_probability(s, l)
        rng = np.random.Generator(np.random.Philox(2024))
        lists = hc.ListAssignment(
            tuple(
                tuple(sorted(int(c) + 1 for c in rng.choice(12, size=l, replace=False)))
                for _ in range(40)
            )
        )
        closed_a, closed_b = hc.expected_counts(lists, p)
        assert abs(closed_b / closed_a - s) <= 1e-9 * s

        rep = hc.split_experiment(lists, s=s, trials=100_000, seed=cfg_seed)
        assert rep.trials >= 10**5
        assert abs(rep.empirical_a - closed_a) <= 3 * rep.empirical_a_stderr
        assert abs(rep.empirical_b - closed_b) <= 3 * rep.empirical_b_stderr
    _report(
        7,
        True,
        "(s,l) in {(4,2),(16,2),(8,3)}: B/A = s to 1e-9; Monte-Carlo means "
        "within 3 standard errors over 1e5 splits",
    )


def test_criterion_8_split_coloring_mechanism():
    hg, bip = hc.gen_complete(2, 3, 3)
    lists = hc.ListAssignment(
        tuple(tuple(range(3 * i + 1, 3 * i + 4)) for i in range(6))
    )
    successes = 0
    for seed in range(1000):
        col = hc.random_split_color_report(hg, bip, lists, max_iters=1, seed=seed)[0]
        if col is not None:
            assert _fits(hg, col, lists.lists)
            successes += 1
    assert successes > 0
    _report(
        8,
        True,
        f"{successes}/1000 single-split iterations produced a verified proper coloring",
    )


def test_criterion_9_dense_lower_bound_experiment():
    report = hc.lower_bound_experiment(2, 2, 6, trials=10_000, seed=99)
    assert report.trials >= 10**4
    assert report.witness_fraction > 0
    assert report.witness is not None
    hg = hc.gen_complete(2, 3, 3)[0]
    assert hc.color_from_lists(hg, report.witness) is None
    # The asymptotic statement itself is not desk-scale reproducible; this
    # sampled analogue substitutes for it.
    _report(
        9,
        True,
        f"witness fraction {report.witness_fraction:.3f} > 0 over 1e4 trials; "
        f"reported witness confirmed uncolorable",
    )


def test_criterion_10_cross_bound_sanity():
    rnd = random.Random(1010)
    checked = 0
    while checked < 50:
        n = rnd.randint(3, 5)
        hg = random_hypergraph(rnd, n, rnd.randint(1, 6), max_size=3)
        try:
            ch = hc.choice_number(hg)
        except hc.GuardExceededError:
            continue
        chi = hc.chromatic_number(hg)
        bounds = hc.bounds(hg)
        upper = min(bounds.sparse, bounds.gk) if bounds.two_colorable else bounds.gk
        assert chi <= ch <= upper, (hg.edges, chi, ch, upper)
        # choice_number returns at most the bound by construction; full
        # enumeration at the bound checks the theorem independently.
        verdict = hc.is_f_choosable(hg, [upper] * hg.n, max_universe=hg.n * upper)
        assert verdict.choosable, (hg.edges, upper)
        checked += 1
    _report(
        10,
        True,
        f"{checked} random instances: chi <= ch <= min(bounds), "
        "and every system of min(bounds)-lists colorable",
    )
