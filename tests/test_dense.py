import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from hyperchoose import (
    GuardExceededError,
    dense,
    Hypergraph,
    ListAssignment,
    PreconditionError,
    color_from_lists,
    complete_proper_exists,
    cond_corollary,
    cond_ert_upper,
    expected_counts,
    feasibility_margin,
    find_bipartition,
    gen_complete,
    is_proper,
    lower_bound_experiment,
    random_split_color_report,
    split_experiment,
    split_probability,
)
from oracles import (
    mpmath_cond_ert_upper,
    mpmath_split_probability,
    reference_lower_bound_experiment,
    split_tallies,
)

DISJOINT_3LISTS = ListAssignment(tuple(tuple(range(3 * i + 1, 3 * i + 4)) for i in range(6)))


def test_split_probability_values():
    assert split_probability(16, 2) == pytest.approx(0.6, abs=1e-12)
    assert split_probability(4, 2) == pytest.approx(1 / 3, abs=1e-12)
    assert split_probability(2, 1) == pytest.approx(1 / 3, abs=1e-12)
    assert split_probability(8, 3) == pytest.approx(1 / 3, abs=1e-12)


def test_cond_ert_upper_threshold():
    assert cond_ert_upper(16, 2, 6)  # threshold 25/4
    assert not cond_ert_upper(16, 2, 7)
    assert cond_ert_upper(4, 2, 2)  # threshold 9/4
    assert not cond_ert_upper(9, 2, 4)  # threshold exactly 4: strict
    assert cond_ert_upper(10, 2, 4)  # irrational threshold slightly above 4


def test_split_probability_matches_mpmath_bit_for_bit():
    for s in range(2, 200):
        for l in range(1, 25):
            assert split_probability(s, l) == mpmath_split_probability(s, l), (s, l)


def test_cond_ert_upper_matches_mpmath_next_to_the_threshold():
    # t at floor, ceil and floor + 1 of the float threshold: the nearest ties,
    # wherever a float still places the threshold within 1.
    for s in range(2, 300):
        for l in range(1, 30):
            threshold = (1 + s ** (1 / l)) ** l / 4
            if threshold >= 1e15:
                continue
            near = {math.floor(threshold), math.ceil(threshold), math.floor(threshold) + 1}
            for t in near - {0}:
                assert cond_ert_upper(s, l, t) == mpmath_cond_ert_upper(s, l, t), (s, l, t)


@pytest.mark.parametrize("l", [10**3, 10**5, 10**7])
def test_thresholds_match_mpmath_at_large_l(l):
    for s in (2, 3, 10, 199, 2**100):
        assert split_probability(s, l) == mpmath_split_probability(s, l), s
        for t in (5, 10**30):
            assert cond_ert_upper(s, l, t) == mpmath_cond_ert_upper(s, l, t), (s, t)


@pytest.mark.parametrize("l", [10**16, 10**18, 10**30, 10**100])
def test_split_probability_matches_a_250_digit_reference_at_huge_l(l):
    # s^(1/l) - 1 ~ ln(s) / l has about log10(l) leading zeros: at a fixed 30
    # digits it loses its digits past l ~ 10^15, and rounds to 0 at 10^30.
    for s in (2, 3, 10, 199, 2**100):
        with mpmath.workdps(250):
            r = mpmath.root(s, l)
            reference = float((r - 1) / (1 + r))
        assert split_probability(s, l) == reference, s


@pytest.mark.parametrize("s, l", [(3, 150), (3, 300), (5, 200), (3, 1000)])
def test_cond_ert_upper_decides_ties_above_1e30(s, l):
    # t = floor(threshold) and t + 1, with the threshold far past 10^30: 60
    # significant digits alone cannot tell these apart.
    with mpmath.workdps(700):
        t = int(mpmath.floor((1 + mpmath.root(s, l)) ** l / 4))
    assert t > 10**30
    assert cond_ert_upper(s, l, t) and not cond_ert_upper(s, l, t + 1)


def test_cond_ert_upper_perfect_powers_past_the_float_range():
    # s = r^l overflows a float; the threshold (1 + r)^l / 4 is rational.
    r = 10**200 + 1  # (1 + r)^2 / 4 is an integer: t equal to it fails
    assert not cond_ert_upper(r**2, 2, (1 + r) ** 2 // 4)
    assert cond_ert_upper(r**2, 2, (1 + r) ** 2 // 4 - 1)
    r = 10**200  # (1 + r)^3 / 4 is not
    assert cond_ert_upper(r**3, 3, (1 + r) ** 3 // 4)
    assert not cond_ert_upper(r**3, 3, (1 + r) ** 3 // 4 + 1)


def test_cond_corollary():
    assert cond_corollary(16, 4, 16)
    assert not cond_corollary(16, 4, 17)
    assert cond_corollary(4, 3, 4)
    assert not cond_corollary(2, 2, 2)  # sqrt(2) < 2


def test_cond_corollary_matches_exact_formula():
    # t0 = floor(sqrt(s) * 2^(l-2)); t0 and t0 + 1 straddle the condition, and
    # t0^2 = s * 4^(l-2) exactly for perfect squares s (s = 4, l = 3, t = 4).
    ties = 0
    for s in [*range(2, 41), 2**61 - 1, 10**30]:
        for l in [*range(2, 9), 64, 300]:
            t0 = math.isqrt(s * 4 ** (l - 2))
            ties += t0 * t0 == s * 4 ** (l - 2)
            for t in {1, t0 - 1, t0, t0 + 1, t0 + 2} - {0}:
                assert cond_corollary(s, l, t) == (t * t <= s * 4 ** (l - 2)), (s, l, t)
    assert ties and cond_corollary(4, 3, 4) and not cond_corollary(4, 3, 5)


def test_cond_corollary_does_not_build_the_power():
    tracemalloc.start()
    try:
        assert cond_corollary(3, 10**8, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # 4^(10^8 - 2) alone would take 25 MB


def test_corollary_implies_main_threshold():
    for s in (2, 3, 4, 9, 16, 25):
        for l in (2, 3, 4):
            for t in range(1, 40):
                if cond_corollary(s, l, t):
                    assert cond_ert_upper(s, l, t)


def test_feasibility_margin_is_finite_diagnostic():
    assert math.isfinite(feasibility_margin(4, 2, 100))


def test_feasibility_margin_matches_closed_form():
    # The margin cancels terms of size s*l^2, so near its zero crossings the two
    # roundings are compared on that scale rather than relative to the margin.
    for s in (2, 3, 5, 7, 16):
        for l in range(1, 5):
            for t in range(1, 101):
                big_t = t / (2 * (1 + s ** (1.0 / l)) ** l)
                closed = l * l * s * math.log(s * big_t) - s * big_t + s * l * l
                assert math.isclose(
                    feasibility_margin(s, l, t), closed, rel_tol=1e-13, abs_tol=1e-13 * s * l * l
                )


def test_expected_counts_examples():
    la = ListAssignment(tuple((1, 2) for _ in range(10)))
    assert expected_counts(la, 0.0) == (5.0, 5.0)
    one = ListAssignment(((4,),))
    a, b = expected_counts(one, 1 / 3)
    assert a == pytest.approx(2 / 3) and b == pytest.approx(4 / 3)
    with pytest.raises(PreconditionError):
        expected_counts(ListAssignment(((1,), (1, 2))), 0.5)


def test_ratio_identity_b_over_a_equals_s():
    for s, l in [(4, 2), (16, 2), (8, 3), (5, 2), (7, 3)]:
        p = split_probability(s, l)
        a, b = expected_counts(DISJOINT_3LISTS, p) if l == 3 else expected_counts(
            ListAssignment(tuple(tuple(range(2 * i + 1, 2 * i + 1 + l)) for i in range(6))), p
        )
        assert b / a == pytest.approx(s, rel=1e-9)


def test_mono_and_dangerous_predicates():
    from hyperchoose.dense import _member, _tally

    # Palette 1..4 split into blue {1, 2}, red {3}, neutral {4}.
    is_blue = np.array([[True, True, False, False]])
    is_red = np.array([[False, False, True, False]])

    def verdicts(colors):
        lists = ListAssignment((colors,))
        mono, tally, dangerous = _tally(_member(lists, [1, 2, 3, 4]), is_blue, is_red)
        return bool(mono[0]), bool(dangerous[0, 0]), int(tally[0])

    assert verdicts((1, 2))[0]
    assert not verdicts((1, 4))[0]
    assert verdicts((1, 2))[1:] == (True, 1)  # no red
    assert verdicts((3, 4))[1:] == (True, 1)  # no blue
    assert verdicts((1, 3))[1:] == (False, 0)
    assert verdicts((4,))[1:] == (True, 2)  # neither: counted on both sides


def test_tally_matches_set_scans():
    from hyperchoose.dense import _member, _split, _tally

    rnd = random.Random(23)
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(60):
        lists = ListAssignment(
            tuple(tuple(rnd.sample(range(9), rnd.randint(1, 4))) for _ in range(rnd.randint(1, 8)))
        )
        palette = lists.palette()
        p = rnd.choice([0.0, 0.2, 0.5, 0.9])
        draws = rng.random((20, len(palette)))
        mono, tally, dangerous = _tally(_member(lists, palette), *_split(draws, p))
        for t in range(20):
            ref_mono, ref_tally, ref_dangerous = split_tallies(lists.lists, palette, draws[t], p)
            assert (mono[t], tally[t]) == (ref_mono, ref_tally)
            assert dangerous[t].tolist() == ref_dangerous


def test_random_split_color_k33():
    hg, bip = gen_complete(2, 3, 3)
    col = random_split_color_report(hg, bip, DISJOINT_3LISTS, max_iters=1000, seed=7)[0]
    assert col is not None
    assert is_proper(hg, col) and DISJOINT_3LISTS.admits(col)


def test_random_split_color_wide_lists():
    hg, bip = gen_complete(2, 3, 3)
    lists = ListAssignment(tuple(tuple(range(1, 9)) for _ in range(6)))
    col = random_split_color_report(hg, bip, lists, max_iters=1000, seed=3)[0]
    assert col is not None and is_proper(hg, col)


def test_random_split_color_rejections_observable():
    hg, bip = gen_complete(2, 3, 3)
    _, report = random_split_color_report(hg, bip, DISJOINT_3LISTS, 1000, seed=7)
    assert sum(report.categories.values()) == report.trials
    assert report.categories["colored"] in (0, 1)
    assert report.seed == 7


def test_random_split_color_single_color_palette_fails():
    hg, bip = gen_complete(2, 3, 3)
    lists = ListAssignment(tuple((1,) for _ in range(6)))
    col, report = random_split_color_report(hg, bip, lists, 50, seed=0)
    assert col is None
    assert report.trials == 50 and report.categories["colored"] == 0


def test_random_split_color_replay():
    hg, bip = gen_complete(2, 3, 3)
    a = random_split_color_report(hg, bip, DISJOINT_3LISTS, 1000, seed=11)[0]
    b = random_split_color_report(hg, bip, DISJOINT_3LISTS, 1000, seed=11)[0]
    assert a == b


def test_random_split_color_preconditions():
    hg = Hypergraph(4, ((0, 1), (1, 2, 3)))  # not uniform
    bip = find_bipartition(hg)
    lists = ListAssignment(tuple((1, 2) for _ in range(4)))
    with pytest.raises(PreconditionError):
        random_split_color_report(hg, bip, lists, 10, seed=0)


def test_split_experiment_matches_closed_forms():
    report = split_experiment(DISJOINT_3LISTS, s=2, trials=50_000, seed=11)
    assert abs(report.empirical_a - report.closed_a) <= 3 * report.empirical_a_stderr
    assert abs(report.empirical_b - report.closed_b) <= 3 * report.empirical_b_stderr
    assert sum(report.categories.values()) == report.trials


def test_complete_proper_exists_classic_bad_system():
    bad = ListAssignment(((1, 2), (1, 3), (2, 3), (1, 2), (1, 3), (2, 3)))
    assert complete_proper_exists(2, 3, 3, bad) is None


def test_complete_proper_exists_large_s_greedy():
    lists = ListAssignment(tuple((1,) for _ in range(4)))
    col = complete_proper_exists(9, 2, 2, lists)
    assert col is not None and col == (1, 1, 1, 1)


def test_complete_proper_exists_deep_sides_do_not_recurse():
    # One backtracking level per vertex: 1200 levels is past Python's
    # default recursion limit.
    lists = ListAssignment(tuple((i,) for i in range(1200)))
    col = complete_proper_exists(3, 600, 600, lists)
    assert col is not None and col == tuple(range(1200))


def test_complete_proper_exists_agrees_with_edge_oracle():
    hg, _ = gen_complete(3, 4, 4)
    rnd = random.Random(19)
    for _ in range(60):
        left = [tuple(sorted(rnd.sample(range(1, 5), 2))) for _ in range(4)]
        lists = ListAssignment(tuple(left + left))
        fast = complete_proper_exists(3, 4, 4, lists)
        slow = color_from_lists(hg, lists)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_proper(hg, fast) and lists.admits(fast)


def test_lower_bound_experiment_finds_witnesses():
    report = lower_bound_experiment(2, 2, 6, trials=3000, seed=5)
    assert report.witness_fraction > 0
    assert report.categories["witness_found"] + report.categories["colorable"] == 3000
    hg = gen_complete(2, 3, 3)[0]
    assert color_from_lists(hg, report.witness) is None


def test_lower_bound_experiment_zero_fraction_when_s_large():
    report = lower_bound_experiment(7, 2, 6, trials=200, seed=5)
    assert report.witness_fraction == 0.0 and report.witness is None


def test_lower_bound_experiment_replay_and_guards():
    a = lower_bound_experiment(2, 2, 6, trials=500, seed=9)
    b = lower_bound_experiment(2, 2, 6, trials=500, seed=9)
    assert a == b
    with pytest.raises(GuardExceededError):
        lower_bound_experiment(2, 4, 6, trials=10, seed=0)
    with pytest.raises(GuardExceededError):
        lower_bound_experiment(2, 2, 26, trials=10, seed=0)
    with pytest.raises(GuardExceededError):
        lower_bound_experiment(2, 2, 7, trials=10, seed=0)  # odd t


def test_lower_bound_experiment_matches_reference():
    # One verdict per side multiset must leave every report unchanged: the
    # counts, the witness (each trial's own system) and the JSON bytes.  At
    # t = 24 with l >= 2 a trial's search is slow and its multiset almost
    # never repeats, so those points draw one trial per seed.
    cases = [
        (s, l, t, 1 if t == 24 and l > 1 else 20, seed)
        for s in (2, 3, 7)
        for l in (1, 2, 3)
        for t in (2, 8, 24)
        for seed in range(30)
    ]
    cases += [(3, 2, 8, 200, seed) for seed in range(30)]  # the benchmark's runs
    cases += [(2, 2, 6, 500, seed) for seed in (99, *range(30))]  # ACCEPTANCE 9's shape
    found = 0
    for case in cases:
        report = lower_bound_experiment(*case)
        assert report.to_json() == reference_lower_bound_experiment(*case).to_json(), case
        found += report.witness is not None
    assert found >= 100


def test_lower_bound_experiment_blocks_match_reference(monkeypatch):
    # Blocks of 1, 2 and 7 trials split each run into several integers
    # calls; the stream, and so the report, must not notice the seams.
    # (2, 2, 6, 23, 3) finds its one witness at trial 10, past the first
    # block of 7; the t = 8 and t = 12 runs find witnesses in 25-50 % of
    # trials.
    cases = [
        (2, 2, 6, 23, 3),
        *((2, 2, 8, 24, seed) for seed in range(4)),
        (3, 2, 12, 24, 3),
        (3, 2, 8, 30, 1),
        (2, 1, 8, 15, 4),
        (2, 3, 8, 16, 5),
        (7, 2, 2, 9, 6),
    ]
    for block in (1, 2, 7):
        monkeypatch.setattr(dense, "LOWER_BOUND_BLOCK_TRIALS", block)
        for case in cases:
            assert case[3] > block
            report = lower_bound_experiment(*case)
            assert report.to_json() == reference_lower_bound_experiment(*case).to_json(), (
                block,
                case,
            )


def test_draw_lists_replays_choice():
    # Within the guard no l = 3 report depends on the stream (no witness is
    # ever found there), so this pins the draws themselves, past the guard
    # too: a numpy change to `choice` fails here instead of shifting reports.
    # The benchmark's `lab` runs derive their 31-bit seeds as below.
    bench = [
        int(np.random.SeedSequence([seed, 4, 3, c]).generate_state(1)[0]) % 2**31
        for seed in (1, 20261017)
        for c in range(30)
    ]
    for l in range(1, 6):
        for seed in (*range(200), *bench):
            fast = np.random.Generator(np.random.Philox(seed))
            slow = np.random.Generator(np.random.Philox(seed))
            drawn = dense._draw_lists(fast, l * l, l, 3, 2)
            want = [
                [sorted(int(c) + 1 for c in slow.choice(l * l, l, replace=False)) for _ in range(2)]
                for _ in range(3)
            ]
            assert drawn.tolist() == want, (l, seed)
            assert fast.integers(2**62) == slow.integers(2**62), (l, seed)
