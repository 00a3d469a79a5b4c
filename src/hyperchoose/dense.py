"""Dense-regime machinery: palette splits, threshold predicates, experiments.

The palette of colors is split at random into blue, red, and neutral classes;
a list is monochromatic if it sits entirely in one of blue or red, dangerous
if it misses blue or misses red.  With the neutral probability tuned so the
dangerous-to-monochromatic expectation ratio equals the edge size, rejection
sampling of splits yields proper colorings of uniform 2-colorable hypergraphs
whenever no list is monochromatic and fewer than edge-size lists are
dangerous.  The sampler and the split experiment share one vectorized tally
of monochromatic and dangerous lists over a block of splits, the sampler one
row at a time.  The mirrored-random-lists experiment below probes the opposite
regime: sampled list systems on a complete 2-colorable hypergraph that admit
no proper coloring certify a choice-number lower bound.

All randomness flows through Philox counter-based generators keyed by an
explicit 64-bit seed; identical seeds replay identical reports.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    Hypergraph,
    ListAssignment,
    SIDE_A,
    _rng,
    bipartition_is_valid,
    is_proper,
    metrics,
)
from .errors import (
    GuardExceededError,
    InputError,
    PreconditionError,
    TheoremContradictionError,
)

LOWER_BOUND_MAX_L = 3
LOWER_BOUND_MAX_T = 24
# Trials whose lists one `integers` call draws.  Within the guard a trial
# draws at most 12 lists of 5 values, so a block's draws stay under 0.5 MB
# whatever the trial count.
LOWER_BOUND_BLOCK_TRIALS = 1024


def _digits(prec: int) -> decimal.Context:
    """A decimal context of ``prec`` significant digits.

    The exponent range is the widest decimal allows, so that the threshold
    for a huge s or t stays in range.  A huge l does not reach it: a t below
    2^(l-2), as at l = 10^7, is decided before the decimal route.
    """
    return decimal.Context(prec=prec, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _root(s: int, l: int) -> decimal.Decimal:
    """s^(1/l) = exp(ln(s) / l) in the current decimal context."""
    return (decimal.Decimal(s).ln() / l).exp()


def split_probability(s: int, l: int) -> float:
    """Neutral probability (s^(1/l) - 1) / (1 + s^(1/l)).

    Computed with 30 significant decimal digits more than the leading zeros
    of s^(1/l) - 1 ~ ln(s) / l, of which there are at most l.bit_length() // 3
    + 1, and rounded once, so the float returned is within one ulp at any l.
    """
    if s < 2 or l < 1:
        raise InputError("requires s >= 2 and l >= 1")
    with decimal.localcontext(_digits(30 + l.bit_length() // 3 + 1)):
        r = _root(s, l)
        return float((r - 1) / (1 + r))


def _integer_root(s: int, l: int) -> Optional[int]:
    """The integer l-th root of s >= 2, or None if s is no perfect l-th power."""
    if s.bit_length() <= l:  # 1 < s^(1/l) < 2
        return None
    x = 1 << -(-s.bit_length() // l)  # at least s^(1/l)
    while True:  # Newton's method from above, in integers
        y = ((l - 1) * x + s // x ** (l - 1)) // l
        if y >= x:
            return x if x**l == s else None
        x = y


def cond_ert_upper(s: int, l: int, t: int) -> bool:
    """Whether t < (1 + s^(1/l))^l / 4, decided exactly at rational thresholds.

    A t of at most l - 2 bits is below 2^(l-2) < (1 + s^(1/l))^l / 4, since
    s^(1/l) > 1, so it passes with no power formed.  Otherwise, when s is a
    perfect l-th power the threshold is rational and compared exactly; else
    it is irrational, and a decimal evaluation to 60 digits past the units
    digit of t (widened to 200 digits if the margin looks suspicious)
    settles the comparison.
    """
    if s < 2 or l < 1 or t < 1:
        raise InputError("requires s >= 2, l >= 1, t >= 1")
    if t.bit_length() <= l - 2:
        return True
    r = _integer_root(s, l)
    if r is not None:
        return Fraction(t) < Fraction((1 + r) ** l, 4)
    # Near t the threshold has as many integer digits as t, and dps digits
    # past them keep its rounding error (about l * 10^-dps) below the margin.
    t_digits = t.bit_length() // 3 + 1  # at least the decimal digits of t
    for dps in (60, 200):
        with decimal.localcontext(_digits(t_digits + dps)):
            threshold = (1 + _root(s, l)) ** l / 4
            if abs(threshold - t) > decimal.Decimal(10) ** (-dps // 2):
                return t < threshold
    raise ArithmeticError(
        f"threshold for s={s}, l={l} is numerically indistinguishable from t={t}"
    )


def cond_corollary(s: int, l: int, t: int) -> bool:
    """Whether t <= sqrt(s) * 2^(l-2), decided exactly by squaring.

    t^2 <= s * 2^(2l-4) is decided by bit lengths, which differ unless the
    two sides are within a factor of two; only then is s * 2^(2l-4) built,
    and then it is no longer than t^2.  A true corollary condition implies
    the main threshold condition (since 1 + s^(1/l) >= 2 s^(1/(2l)) strictly
    for s >= 2); this is asserted.
    """
    if s < 2 or l < 2 or t < 1:
        raise InputError("requires s >= 2, l >= 2, t >= 1")
    square, shift = t * t, 2 * l - 4
    bits = s.bit_length() + shift
    if square.bit_length() != bits:
        ok = square.bit_length() < bits
    else:
        ok = square <= s << shift
    if ok and not cond_ert_upper(s, l, t):
        raise TheoremContradictionError(
            "corollary condition held but the main threshold condition failed"
        )
    return ok


def feasibility_margin(s: int, l: int, t: int) -> float:
    """Heuristic margin l^2*s*log(s*T) - s*T + s*l^2 with T = t/(2(1+s^(1/l))^l).

    The vanishing-correction factor of the true asymptotic condition is
    dropped, so this is a diagnostic only; negative values merely suggest the
    lower-bound regime.  Nothing is gated on it.
    """
    if s < 2 or l < 1 or t < 1:
        raise InputError("requires s >= 2, l >= 1, t >= 1")
    # log T = log(t/2) - l*log(1 + s^(1/l)); (1 + s^(1/l))^l itself overflows
    # a float for large l, while T only underflows harmlessly to 0.
    try:
        log_t = math.log(t / 2) - l * math.log1p(s ** (1.0 / l))
        return l * l * s * (math.log(s) + log_t) - s * math.exp(log_t) + s * l * l
    except OverflowError:
        raise InputError(
            "s, l or t out of range: the feasibility margin overflows a float"
        ) from None


def _common_length(lists: ListAssignment, what: str) -> int:
    """The length all lists share; PreconditionError naming ``what`` if none."""
    sizes = set(lists.sizes())
    if len(sizes) != 1:
        raise PreconditionError(f"{what} requires equal-length lists")
    return sizes.pop()


def expected_counts(lists: ListAssignment, p: float) -> tuple[float, float]:
    """Closed-form expected monochromatic and dangerous list tallies.

    Requires all lists to share one length l; the values are
    2*((1-p)/2)^l * count and 2*((1+p)/2)^l * count, independent of which
    colors the lists contain.  Both are two-sided tallies: the dangerous
    form sums the missing-blue and missing-red probabilities, so a list
    with neither class (all neutral) contributes twice.  The plain count
    of dangerous lists is bounded by the tally, which is what the
    rejection-sampling argument needs.
    """
    l = _common_length(lists, "expected_counts")
    count = lists.n
    return (
        2 * ((1 - p) / 2) ** l * count,
        2 * ((1 + p) / 2) ** l * count,
    )


def _member(lists: ListAssignment, palette: list[int]) -> np.ndarray:
    """(lists x palette) matrix marking the colors of each list."""
    index = {c: j for j, c in enumerate(palette)}
    member = np.zeros((lists.n, len(palette)), dtype=bool)
    for i, lv in enumerate(lists.lists):
        for c in lv:
            member[i, index[c]] = True
    return member


def _split(draws: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Blue and red masks of uniform draws: neutral below p, then blue, then red."""
    is_blue = (draws >= p) & (draws < p + (1 - p) / 2)
    is_red = draws >= p + (1 - p) / 2
    return is_blue, is_red


def _tally(
    member: np.ndarray, is_blue: np.ndarray, is_red: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monochromatic and dangerous lists under a (trials x palette) block of splits.

    Returns the monochromatic count per trial, the two-sided dangerous tally
    per trial (missing blue plus missing red, so a list with neither counts
    twice), and the (trials x lists) mask of dangerous lists.
    """
    blue_hits = is_blue.astype(np.int64) @ member.T.astype(np.int64)
    red_hits = is_red.astype(np.int64) @ member.T.astype(np.int64)
    list_sizes = member.sum(axis=1)
    mono = (blue_hits == list_sizes) | (red_hits == list_sizes)
    no_blue, no_red = blue_hits == 0, red_hits == 0
    tally = (no_blue.astype(np.int64) + no_red).sum(axis=1)
    return mono.sum(axis=1), tally, no_blue | no_red


@dataclass(frozen=True)
class DenseExperimentReport:
    """Aggregated trial outcomes of a seeded dense-regime experiment."""

    trials: int
    categories: dict[str, int]
    seed: int
    empirical_a: Optional[float] = None
    empirical_b: Optional[float] = None
    empirical_a_stderr: Optional[float] = None
    empirical_b_stderr: Optional[float] = None
    closed_a: Optional[float] = None
    closed_b: Optional[float] = None
    witness_fraction: Optional[float] = None
    witness: Optional[ListAssignment] = None

    def __post_init__(self):
        if sum(self.categories.values()) != self.trials:
            raise ValueError("category counts must sum to the trial count")

    def to_json(self) -> dict:
        """The report's fields that are set, with the witness as its list document."""
        doc = {
            f.name: value
            for f in fields(self)
            if (value := getattr(self, f.name)) is not None
        }
        doc["categories"] = dict(self.categories)
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


def random_split_color_report(
    hg: Hypergraph,
    bip: tuple[str, ...],
    lists: ListAssignment,
    max_iters: int,
    seed: int,
) -> tuple[Optional[tuple[int, ...]], DenseExperimentReport]:
    """Las-Vegas split coloring with a per-iteration rejection trace.

    Each iteration draws a palette split at the tuned neutral probability and
    rejects it if any list is monochromatic or at least edge-size many lists
    are dangerous; otherwise side-A vertices take blue colors, side-B vertices
    red colors, and dangerous vertices neutral colors, which is proper because
    every edge still contains a non-dangerous vertex whose color class differs
    from its neighbors'.  Returns (None, report) if the budget runs out.
    """
    met = metrics(hg)
    if met.uniform is None:
        raise PreconditionError("split coloring requires a uniform hypergraph")
    if lists.n != hg.n:
        raise PreconditionError("list assignment size differs from vertex count")
    if not bipartition_is_valid(hg, bip):
        raise PreconditionError("bipartition is not valid for the hypergraph")
    l = _common_length(lists, "split coloring")
    if max_iters < 1:
        raise InputError("max_iters must be positive")
    s = met.uniform
    p = split_probability(s, l)
    palette = lists.palette()
    member = _member(lists, palette)
    rng = _rng(seed)
    counts = {"rejected_monochromatic": 0, "rejected_dangerous": 0, "colored": 0}
    mono_counts: list[int] = []
    dang_counts: list[int] = []
    coloring = None
    for _ in range(max_iters):
        draws = rng.random(len(palette))
        is_blue, is_red = _split(draws[None, :], p)
        mono, tally, dangerous = _tally(member, is_blue, is_red)
        mono_counts.append(int(mono[0]))
        dang_counts.append(int(tally[0]))
        if mono[0] > 0:
            counts["rejected_monochromatic"] += 1
            continue
        if dangerous[0].sum() >= s:
            counts["rejected_dangerous"] += 1
            continue
        # Dangerous vertices take a neutral color, side A blue and side B red.
        label = dict(zip(palette, (is_blue[0] + 2 * is_red[0]).tolist()))
        color = []
        for v, lv in enumerate(lists.lists):
            want = 0 if dangerous[0, v] else 1 if bip[v] == SIDE_A else 2
            color.append(next(c for c in lv if label[c] == want))
        coloring = tuple(color)
        if not is_proper(hg, coloring) or not lists.admits(coloring):
            raise TheoremContradictionError("split coloring failed verification")
        counts["colored"] += 1
        break
    return coloring, _split_report(
        seed, counts, mono_counts, dang_counts, expected_counts(lists, p)
    )


def split_experiment(
    lists: ListAssignment, s: int, trials: int, seed: int
) -> DenseExperimentReport:
    """Sample many palette splits and tally monochromatic/dangerous lists.

    Every split uses the sampler's neutral probability, split_probability(s, l)
    for the common list length l.  Vectorized over trials; the empirical means
    estimate the closed forms and the report carries their standard errors for
    tolerance checks.  The dangerous tally is two-sided (missing blue plus
    missing red, matching the closed form); the rejection categories use the
    plain dangerous count.
    """
    l = _common_length(lists, "split_experiment")
    if trials < 1:
        raise ValueError("trials must be positive")
    p = split_probability(s, l)
    palette = lists.palette()
    draws = _rng(seed).random((trials, len(palette)))
    mono_counts, dang_counts, dangerous = _tally(
        _member(lists, palette), *_split(draws, p)
    )
    dang_set_counts = dangerous.sum(axis=1)

    n_mono = int((mono_counts > 0).sum())
    n_over = int(((mono_counts == 0) & (dang_set_counts >= s)).sum())
    categories = {
        "rejected_monochromatic": n_mono,
        "rejected_dangerous": n_over,
        "colorable_split": trials - n_mono - n_over,
    }
    return _split_report(
        seed, categories, mono_counts, dang_counts, expected_counts(lists, p)
    )


def _split_report(
    seed: int,
    categories: dict[str, int],
    mono: list[int] | np.ndarray,
    dang: list[int] | np.ndarray,
    closed: tuple[float, float],
) -> DenseExperimentReport:
    """The report of a run of palette splits, one tally entry per split."""
    mono = np.asarray(mono, dtype=float)
    dang = np.asarray(dang, dtype=float)
    trials = len(mono)
    return DenseExperimentReport(
        trials=trials,
        categories=categories,
        seed=seed,
        empirical_a=float(mono.mean()),
        empirical_b=float(dang.mean()),
        empirical_a_stderr=float(mono.std() / math.sqrt(trials)),
        empirical_b_stderr=float(dang.std() / math.sqrt(trials)),
        closed_a=closed[0],
        closed_b=closed[1],
    )


def complete_proper_exists(
    s: int, n_a: int, n_b: int, lists: ListAssignment
) -> Optional[tuple[int, ...]]:
    """List coloring of the complete 2-colorable s-uniform hypergraph on (n_a, n_b).

    Exploits completeness instead of enumerating edges: a coloring is proper
    exactly when no color is used on both sides with at least s occurrences in
    total, and those counts grow monotonically, so an explicit-stack
    backtracking over vertices with per-color side counts prunes exactly the
    improper prefixes.  Vertices 0..n_a-1 are side A.  Returns the first proper
    coloring (in the product order of the lists) or None.
    """
    if s < 2 or n_a < 1 or n_b < 1:
        raise ValueError("requires s >= 2 and nonempty sides")
    if lists.n != n_a + n_b:
        raise PreconditionError("list assignment size differs from n_a + n_b")
    count_a: dict[int, int] = {}
    count_b: dict[int, int] = {}
    color: list[int] = []  # colors of vertices 0..v-1
    resume: list[int] = []  # per colored vertex, the list position after its color
    v = pos = 0  # the vertex to color next and the first list position to try
    while v < n_a + n_b:
        side_counts = count_a if v < n_a else count_b
        other_counts = count_b if v < n_a else count_a
        options = lists.lists[v]
        for pos in range(pos, len(options)):
            c = options[pos]
            other = other_counts.get(c, 0)
            mine = side_counts.get(c, 0) + 1
            if other == 0 or mine + other < s:
                side_counts[c] = mine
                color.append(c)
                resume.append(pos + 1)
                v, pos = v + 1, 0
                break
        else:
            if not v:
                return None
            v -= 1
            (count_a if v < n_a else count_b)[color.pop()] -= 1
            pos = resume.pop()
    return tuple(color)


def _draw_lists(
    rng: np.random.Generator, palette_size: int, l: int, trials: int, lists: int
) -> np.ndarray:
    """(trials x lists x l) sorted l-subsets of {1..palette_size}, one per
    ``rng.choice(palette_size, size=l, replace=False)`` call, from one
    ``integers`` call on the same stream.

    For a palette of at most 10 000 colors ``choice`` runs Floyd's
    algorithm: l bounded draws with inclusive upper bounds P-l .. P-1, of
    which the j-th becomes P-l+j when it was already picked, then a shuffle
    of the picks by l-1 more bounded draws with bounds l-1 .. 1.  ``integers``
    with the exclusive bounds P-l+1 .. P, l .. 2 makes the same bounded draws
    (a bound of 0 consumes nothing in either), and the shuffle only permutes
    a list that is sorted here anyway.
    """
    highs = np.array(
        [*range(palette_size - l + 1, palette_size + 1), *range(l, 1, -1)],
        dtype=np.uint64,
    )
    draws = rng.integers(0, highs, size=(trials, lists, 2 * l - 1), dtype=np.uint64)
    picks = draws[..., :l].astype(np.int64)
    for j in range(1, l):
        seen = (picks[..., :j] == picks[..., j, None]).any(axis=-1)
        picks[..., j][seen] = palette_size - l + j
    picks.sort(axis=-1)
    return picks + 1


def lower_bound_experiment(
    s: int, l: int, t: int, trials: int, seed: int
) -> DenseExperimentReport:
    """Mirrored-random-lists probe for a choice-number lower bound.

    Each trial samples t/2 uniform l-subsets of the palette {1..l^2} for side
    A and copies them to side B; a trial whose system admits no proper
    coloring of the complete s-uniform hypergraph on (t/2, t/2) certifies a
    choice number above l for that hypergraph.  The report carries the
    witness fraction and the first uncolorable system found.

    Each distinct multiset of side-A lists is decided once per call.  This
    is exact: permuting side A's vertices together with their side-B copies
    is an automorphism of the complete hypergraph, so a trial's verdict
    depends only on the multiset, and the sorted lists are its key.  At
    l = 2 the palette has six 2-subsets, so 200 trials at t = 8 meet at
    most C(9, 4) = 126 keys.

    The lists of up to ``LOWER_BOUND_BLOCK_TRIALS`` trials come from one
    ``integers`` call (see ``_draw_lists``), which consumes the stream
    exactly as one ``rng.choice(l*l, size=l, replace=False)`` call per list
    would; the draws, and so every report, are the same per seed.
    """
    if s < 2 or l < 1 or t < 2 or trials < 1:
        raise InputError("requires s >= 2, l >= 1, t >= 2, trials >= 1")
    if l > LOWER_BOUND_MAX_L or t > LOWER_BOUND_MAX_T or t % 2 != 0:
        raise GuardExceededError(
            f"parameters outside the experiment guard "
            f"(l <= {LOWER_BOUND_MAX_L}, t <= {LOWER_BOUND_MAX_T}, t even)"
        )
    rng = _rng(seed)
    witnesses = 0
    first_witness: Optional[ListAssignment] = None
    uncolorable: dict[tuple[tuple[int, ...], ...], bool] = {}  # by side multiset
    for start in range(0, trials, LOWER_BOUND_BLOCK_TRIALS):
        block = min(LOWER_BOUND_BLOCK_TRIALS, trials - start)
        for rows in _draw_lists(rng, l * l, l, block, t // 2).tolist():
            left = list(map(tuple, rows))
            key = tuple(sorted(left))
            verdict = uncolorable.get(key)
            if verdict is None:
                # The draws are sorted, distinct and within 1..l^2 already.
                system = ListAssignment._checked(tuple(left + left))
                verdict = complete_proper_exists(s, t // 2, t // 2, system) is None
                uncolorable[key] = verdict
                if verdict and first_witness is None:
                    first_witness = system
            if verdict:
                witnesses += 1
    return DenseExperimentReport(
        trials=trials,
        categories={"witness_found": witnesses, "colorable": trials - witnesses},
        seed=seed,
        witness_fraction=witnesses / trials,
        witness=first_witness,
    )
