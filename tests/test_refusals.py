"""Each shared refusal: its exception type and exact message at every public
entry point that enforces it, and the single ``raise`` in the package that
words it."""

import ast
from pathlib import Path

import pytest

import hyperchoose
from hyperchoose import (
    Hypergraph,
    ListAssignment,
    bound_gk,
    bounds,
    build_selection,
    coefficient_count,
    cond_ert_upper,
    density_exact,
    density_flow,
    feasibility_margin,
    find_bipartition,
    gen_complete,
    gen_k_regular_k_uniform,
    hall_orientation,
    is_f_choosable,
    list_color_gk,
    list_color_sparse,
    lower_bound_experiment,
    metrics,
    min_orientation,
    monomial_coefficient,
    parse_hypergraph,
    random_split_color_report,
    reduce_to_pairgraph,
)
from hyperchoose.errors import GuardExceededError, InputError, PreconditionError, check_guard

K33, K33_BIP = gen_complete(2, 3, 3)
K33_PHI = min_orientation(K33)[1]
K33_LISTS = ListAssignment(tuple((3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(6)))
EMPTY = Hypergraph(2, ())
EMPTY_LISTS = ListAssignment(((1,), (1,)))
ONE_SIDED = ("A",) * 6  # every K3,3 edge inside side A
HEADLESS = (0,) * 9  # vertex 0 heads edges it is not in


def refused(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message


def test_check_guard_passes_at_its_limit():
    check_guard(5, 5, "five")
    with pytest.raises(GuardExceededError, match="^six exceeds the guard 5$"):
        check_guard(6, 5, "six")


# Each guard at its first refused value; for gen_complete, the first m past
# the guard at s = 3, n = 100 (m = 100 gives 990 000 edges).
GUARD_CASES = {
    "MAX_VERTICES": (
        lambda: is_f_choosable(Hypergraph(13, ((0, 1),)), [1] * 13, max_universe=13),
        "13 vertices exceeds the guard 12",
    ),
    "max_universe": (
        lambda: is_f_choosable(K33, [2] * 6, max_universe=11),
        "color universe 12 exceeds the guard 11",
    ),
    "HGR_VERTEX_GUARD": (
        lambda: parse_hypergraph("p hg 5000001 0\n"),
        "header n = 5000001 vertices exceeds the guard 5000000",
    ),
    "COMPLETE_EDGE_GUARD": (
        lambda: gen_complete(3, 100, 101),
        "C(201, 3) - C(100, 3) - C(101, 3) edges exceeds the guard 1000000",
    ),
    "REGULAR_INCIDENCE_GUARD": (
        lambda: gen_k_regular_k_uniform(11, 909_091, 0),
        "k*n = 10000001 incidences exceeds the guard 10000000",
    ),
    "TRIAL_GUARD splits": (
        lambda: random_split_color_report(K33, K33_BIP, K33_LISTS, 100_001, 1),
        "100001 splits exceeds the guard 100000",
    ),
    "TRIAL_GUARD trials": (
        lambda: lower_bound_experiment(3, 2, 8, 100_001, 1),
        "100001 trials exceeds the guard 100000",
    ),
}


@pytest.mark.parametrize("call, message", GUARD_CASES.values(), ids=GUARD_CASES)
def test_guards_refuse_with_one_message(call, message):
    refused(call, GuardExceededError, message)


BIPARTITION_CASES = {
    "reduce_to_pairgraph": lambda: reduce_to_pairgraph(K33, ONE_SIDED, K33_PHI),
    "list_color_sparse": lambda: list_color_sparse(K33, ONE_SIDED, K33_LISTS),
    "monomial_coefficient": lambda: monomial_coefficient(K33, ONE_SIDED, [1] * 6),
    "coefficient_count": lambda: coefficient_count(K33, ONE_SIDED, K33_PHI),
    "random_split_color_report": lambda: random_split_color_report(
        K33, ONE_SIDED, K33_LISTS, 1, 1
    ),
}


@pytest.mark.parametrize("call", BIPARTITION_CASES.values(), ids=BIPARTITION_CASES)
def test_invalid_bipartition_refused(call):
    refused(call, PreconditionError, "bipartition is not valid for the hypergraph")


ORIENTATION_CASES = {
    "reduce_to_pairgraph": lambda: reduce_to_pairgraph(K33, K33_BIP, HEADLESS),
    "reduce_to_pairgraph short": lambda: reduce_to_pairgraph(K33, K33_BIP, K33_PHI[:-1]),
    "coefficient_count": lambda: coefficient_count(K33, K33_BIP, HEADLESS),
}


@pytest.mark.parametrize("call", ORIENTATION_CASES.values(), ids=ORIENTATION_CASES)
def test_invalid_orientation_refused(call):
    refused(call, PreconditionError, "orientation is not valid for the hypergraph")


# Plain ValueError: no command-line value reaches these, as the CLI refuses
# an edgeless input first.
EMPTY_EDGE_CASES = {
    "metrics": (lambda: metrics(EMPTY), "metrics"),
    "bound_gk": (lambda: bound_gk(EMPTY), "metrics"),
    "list_color_gk": (lambda: list_color_gk(EMPTY, EMPTY_LISTS), "metrics"),
    "random_split_color_report": (
        lambda: random_split_color_report(EMPTY, ("A", "B"), EMPTY_LISTS, 1, 1),
        "metrics",
    ),
    "density_exact": (lambda: density_exact(EMPTY), "density"),
    "density_flow": (lambda: density_flow(EMPTY), "density"),
    "bounds": (lambda: bounds(EMPTY), "density"),
    "min_orientation": (lambda: min_orientation(EMPTY), "min_orientation"),
    "list_color_sparse": (
        lambda: list_color_sparse(EMPTY, ("A", "B"), EMPTY_LISTS),
        "min_orientation",
    ),
}


@pytest.mark.parametrize("call, what", EMPTY_EDGE_CASES.values(), ids=EMPTY_EDGE_CASES)
def test_empty_edge_set_refused(call, what):
    refused(call, ValueError, f"{what} undefined for an empty edge set")


DEGREE_CAP_CASES = {
    "hall_orientation 0": lambda: hall_orientation(K33, 0),
    "hall_orientation -1": lambda: hall_orientation(K33, -1),
    "build_selection 0": lambda: build_selection(K33, 0),
    "build_selection -1": lambda: build_selection(K33, -1),
}


@pytest.mark.parametrize("call", DEGREE_CAP_CASES.values(), ids=DEGREE_CAP_CASES)
def test_degree_cap_below_one_refused(call):
    refused(call, InputError, "k must be at least 1")


@pytest.mark.parametrize("predicate", [cond_ert_upper, feasibility_margin])
@pytest.mark.parametrize("s, l, t", [(1, 2, 3), (3, 0, 3), (3, 2, 0)])
def test_threshold_arguments_refused(predicate, s, l, t):
    refused(lambda: predicate(s, l, t), InputError, "requires s >= 2, l >= 1, t >= 1")


def raise_texts():
    """Per ``raise`` statement in the package, the string literals it holds."""
    for path in sorted(Path(hyperchoose.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                yield "".join(
                    c.value
                    for c in ast.walk(node.exc)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )


@pytest.mark.parametrize(
    "wording",
    [
        " exceeds the guard ",
        "bipartition is not valid for the hypergraph",
        "orientation is not valid for the hypergraph",
        " undefined for an empty edge set",
        "k must be at least 1",
        "requires s >= 2, l >= 1, t >= 1",
    ],
)
def test_each_shared_refusal_is_raised_from_one_place(wording):
    assert sum(wording in text for text in raise_texts()) == 1


def test_the_k33_fixtures_are_valid():
    # The refusals above come from the bad argument alone.
    assert find_bipartition(K33) is not None
    assert hall_orientation(K33, 2) is not None and build_selection(K33, 3) is not None
