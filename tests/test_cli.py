import argparse
import importlib.util
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

import hyperchoose
from hyperchoose import gen_complete, gen_fano, is_proper, parse_hypergraph, serialize_hypergraph, vertex_counts
from hyperchoose import Hypergraph, ListAssignment, metrics
from hyperchoose import choosability, cli, core, degree_constrained, dense, density, find_bipartition, nullstellensatz, orientation
from hyperchoose.cli import build_parser, main
from hyperchoose.errors import (
    GuardExceededError,
    InputError,
    PreconditionError,
    TheoremContradictionError,
)
from oracles import random_two_colorable, sympy_target_coefficient

K33 = gen_complete(2, 3, 3)[0]
K33_LISTS = [[1, 2, 3], [2, 3, 4], [3, 4, 5]] * 2  # 3-lists: enough for sparse and exact
K33_LISTS_GK = [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6]] * 2  # gk needs ceil(2*3/2)+1
GOLDEN = Path(__file__).parent / "golden"  # stdout every release reproduces byte for byte


@pytest.fixture
def k33_path(tmp_path):
    path = tmp_path / "k33.hgr"
    path.write_text(serialize_hypergraph(K33))
    return str(path)


@pytest.fixture
def fano_path(tmp_path):
    path = tmp_path / "fano.hgr"
    path.write_text(serialize_hypergraph(gen_fano()))
    return str(path)


def lists_file(tmp_path, lists, name="lists.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"n": len(lists), "lists": lists}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_analyze_k33(capsys, k33_path):
    code, out = run(capsys, "analyze", k33_path, "--exact", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_sparse"] == 3 and doc["bound_degree"] == 3 and doc["bound_gk"] == 4
    assert (doc["l_num"], doc["l_den"]) == (3, 2)
    assert doc["two_colorable"] and doc["choice_number"] == 3
    assert doc["schema_version"] == 1 and len(doc["digest"]) == 64


def test_analyze_fano(capsys, fano_path):
    code, out = run(capsys, "analyze", fano_path, "--exact", "--no-timing")
    doc = json.loads(out)
    assert code == 0
    assert not doc["two_colorable"]
    assert doc["bound_gk"] == 3 and doc["chromatic_number"] == 3


def test_analyze_byte_identical_without_timing(capsys, k33_path):
    _, first = run(capsys, "analyze", k33_path, "--no-timing")
    _, second = run(capsys, "analyze", k33_path, "--no-timing")
    assert first == second


# K3,3 and Fano meet the degree ratio D/s, so their L needs no flow; the
# cut loop runs two flows on peel_miss, whose peel stops below L.
@pytest.mark.parametrize("name", ["k33", "fano", "peel_miss"])
def test_analyze_matches_golden_output(capsys, k33_path, fano_path, name):
    path = {"k33": k33_path, "fano": fano_path}.get(name, str(GOLDEN / f"{name}.hgr"))
    code, out = run(capsys, "analyze", path, "--no-timing")
    assert code == 0
    assert out == (GOLDEN / f"analyze_{name}.json").read_text()


def test_analyze_has_no_density_route_option(capsys, k33_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", k33_path, "--flow"])
    assert exc.value.code == 2


def test_analyze_timing_present_by_default(capsys, k33_path):
    _, out = run(capsys, "analyze", k33_path)
    assert "timing_seconds" in json.loads(out)


def test_analyze_malformed_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.hgr"
    bad.write_text("p hg 2 1\ne 0 0\n")
    code, _ = run(capsys, "analyze", str(bad))
    assert code == 2


def test_analyze_missing_file_exits_2(capsys):
    code, _ = run(capsys, "analyze", "/nonexistent/file.hgr")
    assert code == 2


def test_orient_min(capsys, k33_path):
    code, out = run(capsys, "orient", k33_path)
    doc = json.loads(out)
    assert code == 0 and doc["k_star"] == 2
    assert max(doc["degrees"]) <= 2 and len(doc["head"]) == 9


def test_orient_runs_one_unit_flow_at_ceil_l(capsys, monkeypatch, tmp_path, k33_path):
    calls = []
    flow = density.edge_vertex_flow
    monkeypatch.setattr(
        density,
        "edge_vertex_flow",
        lambda hg, *caps: calls.append(caps) or flow(hg, *caps),
    )
    code, out = run(capsys, "orient", k33_path)
    assert code == 0 and json.loads(out)["k_star"] == 2
    assert calls == [(1, 2, 1)]  # one unit flow, at ceil(L) = ceil(3 / 2)

    def no_density(hg, **_):
        raise AssertionError("exact density solved")

    for name in ("density_exact", "density_flow"):
        monkeypatch.setattr(density, name, no_density)
    lists = lists_file(tmp_path, [[1, 2, 3]] * 6)
    assert run(capsys, "orient", k33_path)[0] == 0
    assert run(capsys, "color", k33_path, lists, "--method", "sparse")[0] == 0
    assert run(capsys, "coefficient", k33_path)[0] == 0


def test_orient_fixed_k_infeasible(capsys, k33_path):
    code, out = run(capsys, "orient", k33_path, "--k", "1")
    doc = json.loads(out)
    assert code == 0 and not doc["feasible"] and doc["head"] is None


def test_color_sparse(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[1, 2, 3]] * 6)
    out_file = tmp_path / "coloring.json"
    code, out = run(capsys, "color", k33_path, lists, "--method", "sparse", "-o", str(out_file))
    assert code == 0
    coloring = json.loads(out_file.read_text())
    assert coloring == json.loads(out)
    assert is_proper(K33, tuple(coloring))


def test_color_gk_fano(capsys, tmp_path, fano_path):
    lists = lists_file(tmp_path, [[1, 2, 3]] * 7)
    code, out = run(capsys, "color", fano_path, lists, "--method", "gk")
    assert code == 0
    assert is_proper(gen_fano(), tuple(json.loads(out)))


def test_color_exact_bad_lists_exits_5(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[1, 2], [1, 3], [2, 3]] * 2)
    code = main(["color", k33_path, lists, "--method", "exact"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "error: no proper coloring exists for the given lists\n"


def test_color_exact_unverified_coloring_exits_6(capsys, monkeypatch, tmp_path, k33_path):
    # color_from_lists verifies what the search returns, so a wrong coloring
    # is an internal error even when asserts are stripped.
    monkeypatch.setattr(choosability._ListSearch, "solve", lambda self, lists: [1] * 6)
    lists = lists_file(tmp_path, K33_LISTS)
    code = main(["color", k33_path, lists, "--method", "exact"])
    captured = capsys.readouterr()
    assert code == 6 and captured.out == ""
    assert "TheoremContradictionError" in captured.err


def test_color_exact_node_guard_exits_3(capsys, monkeypatch, tmp_path):
    # Eight isolated vertices ahead of a K4 with 3-lists: the refutation runs
    # past a guard of 100 decisions.
    path = tmp_path / "isolated_k4.hgr"
    edges = tuple((a, b) for a in range(8, 12) for b in range(a + 1, 12))
    path.write_text(serialize_hypergraph(hyperchoose.Hypergraph(12, edges)))
    lists = lists_file(tmp_path, [[1, 2, 3]] * 12)
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 100)
    code = main(["color", str(path), lists, "--method", "exact"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: coloring search exceeded the node guard 100\n"


def test_exact_chi_node_guard_exits_3(capsys, monkeypatch, tmp_path):
    # The same input: refuting 3 colors runs past a guard of 100 decisions.
    path = tmp_path / "isolated_k4.hgr"
    edges = tuple((a, b) for a in range(8, 12) for b in range(a + 1, 12))
    path.write_text(serialize_hypergraph(hyperchoose.Hypergraph(12, edges)))
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 100)
    for argv in (["exact", str(path), "--what", "chi"], ["analyze", str(path), "--exact"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), argv
        assert captured.err == "error: coloring search exceeded the node guard 100\n"


def test_choosability_frame_guard_exits_3(capsys, monkeypatch, fano_path):
    # Fano at f = 3 enters 53 511 enumeration frames: past a guard of 100.
    monkeypatch.setattr(choosability, "FRAME_GUARD", 100)
    code = main(["choosability", fano_path, "--f", "3", "--max-universe", "21"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: list-system enumeration exceeded the frame guard 100\n"


def test_choosability_nonpositive_universe_exits_2(capsys, k33_path):
    code = main(["choosability", k33_path, "--f", "3", "--max-universe", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: max_universe must be positive\n"


def test_choosability_node_guard_exits_3(capsys, monkeypatch, fano_path):
    # Refuting the first Fano system, every list {1, 2}, takes 11 decisions:
    # past a guard of 3 plus one per vertex.
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 3)
    for argv in (
        ["choosability", fano_path, "--f", "2", "--max-universe", "14"],
        ["exact", fano_path, "--what", "ch"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), argv
        assert captured.err == "error: coloring search exceeded the node guard 3\n"


def test_color_lists_size_mismatch_exits_4(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[1, 2, 3]] * 5)
    for method in ("exact", "sparse", "gk"):
        code, _ = run(capsys, "color", k33_path, lists, "--method", method)
        assert code == 4, method


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 6, "lists": [5] * 6},
        {"n": 6, "lists": [["a"]] * 6},
        {"n": 1, "lists": 5},
        {"n": 6, "lists": [[1.5, 2]] * 6},
        {"n": 6, "lists": [[True, 2]] * 6},
        {"n": "6", "lists": [[1, 2, 3]] * 6},
        [[1, 2, 3]] * 6,
        {"n": 6, "lists": [[1, 2, 3]] * 5 + [[]]},
        {"n": 6, "lists": [[1, 2, 2]] * 6},
        {"n": 6, "lists": [[-1, 2, 3]] * 6},
        {"n": 5, "lists": [[1, 2, 3]] * 6},
    ],
)
def test_malformed_lists_exit_2(capsys, tmp_path, k33_path, doc):
    path = tmp_path / "lists.json"
    path.write_text(json.dumps(doc))
    for argv in (
        *(["color", k33_path, str(path), "--method", m] for m in ("exact", "sparse", "gk")),
        ["dense", "split-color", k33_path, str(path), "--seed", "1"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, (argv, captured.err)
        assert captured.out == "" and captured.err.startswith(f"error: {path}: ")


def test_color_sparse_on_fano_exits_4(capsys, tmp_path, fano_path):
    lists = lists_file(tmp_path, [[1, 2, 3]] * 7)
    code, _ = run(capsys, "color", fano_path, lists, "--method", "sparse")
    assert code == 4


def test_color_short_lists_exit_4(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[1, 2]] * 6)
    code, _ = run(capsys, "color", k33_path, lists, "--method", "sparse")
    assert code == 4


def test_choosability_verdicts(capsys, k33_path):
    code, out = run(capsys, "choosability", k33_path, "--f", "2")
    doc = json.loads(out)
    assert code == 0 and not doc["choosable"]
    assert doc["witness"]["lists"] == [[1, 2], [1, 3], [2, 3]] * 2
    code, out = run(capsys, "choosability", k33_path, "--f", "3", "--max-universe", "18")
    assert code == 0 and json.loads(out)["choosable"]


def test_choosability_guard_exits_3(capsys, k33_path):
    code, _ = run(capsys, "choosability", k33_path, "--f", "3")
    assert code == 3


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("choosability_k33_f2", ["choosability", "K33", "--f", "2"]),
        (
            "choosability_k33_f3_universe18",
            ["choosability", "K33", "--f", "3", "--max-universe", "18"],
        ),
        ("analyze_exact_k33", ["analyze", "K33", "--exact", "--no-timing"]),
        ("analyze_exact_fano", ["analyze", "FANO", "--exact", "--no-timing"]),
        (
            "choosability_fano_f3_universe21",
            ["choosability", "FANO", "--f", "3", "--max-universe", "21"],
        ),
        (
            "choosability_fano_f2_universe14",
            ["choosability", "FANO", "--f", "2", "--max-universe", "14"],
        ),
        ("exact_ch_k33", ["exact", "K33", "--what", "ch"]),
        ("exact_ch_fano", ["exact", "FANO", "--what", "ch"]),
        ("exact_ch_regular_k4_n12", ["exact", "REGULAR", "--what", "ch"]),
    ],
)
def test_exact_oracles_match_golden_output(capsys, k33_path, fano_path, golden, argv):
    paths = {
        "K33": k33_path,
        "FANO": fano_path,
        "REGULAR": str(GOLDEN / "regular_k4_n12_seed1.hgr"),
    }
    code, out = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 0
    assert out == (GOLDEN / f"{golden}.json").read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("orient_k33", ["orient", "K33"]),
        ("orient_fano", ["orient", "FANO"]),
        ("orient_k33_k2", ["orient", "K33", "--k", "2"]),
        ("color_k33_sparse", ["color", "K33", "LISTS", "--method", "sparse"]),
        ("color_k33_exact", ["color", "K33", "LISTS", "--method", "exact"]),
        ("color_k33_gk", ["color", "K33", "LISTS_GK", "--method", "gk", "--selection", "SEL"]),
        ("coefficient_k33", ["coefficient", "K33"]),
        ("coefficient_planted_m16", ["coefficient", "PLANTED16"]),
        ("coefficient_planted_m44", ["coefficient", "PLANTED44"]),
    ],
)
def test_certificates_match_golden_output(
    capsys, tmp_path, k33_path, fano_path, golden, argv
):
    sel = tmp_path / "selection.json"
    paths = {
        "K33": k33_path,
        "FANO": fano_path,
        "LISTS": lists_file(tmp_path, K33_LISTS),
        "LISTS_GK": lists_file(tmp_path, K33_LISTS_GK, "lists_gk.json"),
        "SEL": str(sel),
        "PLANTED16": str(GOLDEN / "coefficient_planted_m16.hgr"),
        "PLANTED44": str(GOLDEN / "coefficient_planted_m44.hgr"),
    }
    code, out = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 0
    assert out == (GOLDEN / f"{golden}.json").read_text()
    if "SEL" in argv:
        assert sel.read_text() == (GOLDEN / "selection_k33_gk.json").read_text()


@pytest.mark.parametrize(
    "argv", [["choosability", "--f", "2"], ["exact", "--what", "ch"]]
)
def test_vertex_guard_is_not_an_option(capsys, k33_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], k33_path, *argv[1:], "--max-vertices", "5"])
    assert exc.value.code == 2
    assert "--max-vertices" in capsys.readouterr().err


def _leaf_parsers(parser, path=()):
    """(subcommand words, parser) for every subcommand that takes no further one."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def test_readme_synopsis_names_every_option():
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    leaves = dict(_leaf_parsers(build_parser()))
    seen = set()
    for line in block.splitlines():
        words = line.split()[1:]
        path = next(p for p in leaves if tuple(words[: len(p)]) == p)
        seen.add(path)
        named = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", line))
        aliases = [
            set(a.option_strings)
            for a in leaves[path]._actions
            if a.option_strings and a.dest != "help"
        ]
        assert named <= set().union(*aliases), (path, named)
        assert all(named & names for names in aliases), (path, named)
    assert seen == set(leaves)


def test_exact_values(capsys, k33_path):
    code, out = run(capsys, "exact", k33_path, "--what", "chi")
    assert code == 0 and json.loads(out)["value"] == 2
    code, out = run(capsys, "exact", k33_path, "--what", "ch")
    assert code == 0 and json.loads(out)["value"] == 3


def test_coefficient(capsys, k33_path):
    code, out = run(capsys, "coefficient", k33_path)
    doc = json.loads(out)
    assert code == 0
    assert doc["coef"] >= 1 and doc["sign"] in (-1, 1)
    assert doc["choosable_bound"] == 3


def test_coefficient_requires_two_colorable(capsys, fano_path):
    code, _ = run(capsys, "coefficient", fano_path)
    assert code == 4


def coefficient_doc(capsys, tmp_path, hg):
    path = tmp_path / "h.hgr"
    path.write_text(serialize_hypergraph(hg))
    code, out = run(capsys, "coefficient", str(path))
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize(
    "seed, edges, coef, sign, bound",
    [
        (0, 22, 455184, -1, 4),
        (1, 18, 256544, 1, 4),
        (2, 16, 1462684, -1, 4),
        (5, 20, 405571, -1, 4),
        (10, 16, 9898, -1, 3),
        (11, 23, 325170, 1, 3),
    ],
)
def test_coefficient_pinned_values(capsys, tmp_path, seed, edges, coef, sign, bound):
    # Pinned from an edge-by-edge enumeration of the head choices.
    rnd = random.Random(seed)
    m = rnd.randint(16, 24)
    hg, _ = random_two_colorable(rnd, rnd.randint(3, 6), rnd.randint(3, 6), m)
    assert len(hg.edges) == edges
    doc = coefficient_doc(capsys, tmp_path, hg)
    assert (doc["coef"], doc["sign"], doc["choosable_bound"]) == (coef, sign, bound)


def test_coefficient_sign_matches_sympy(capsys, tmp_path):
    rnd = random.Random(31)
    instances = [K33] + [random_two_colorable(rnd, 3, 3, rnd.randint(2, 6))[0] for _ in range(6)]
    signs = set()
    for hg in instances:
        doc = coefficient_doc(capsys, tmp_path, hg)
        bip = find_bipartition(hg)
        _, phi = orientation.min_orientation(hg)
        target = tuple(vertex_counts(hg.n, phi))
        assert doc["sign"] * doc["coef"] == sympy_target_coefficient(hg, bip, target, signed=True)
        signs.add(doc["sign"])
    assert signs == {-1, 1}


def test_coefficient_guard_exits_3(capsys, monkeypatch, k33_path):
    monkeypatch.setattr(nullstellensatz, "TERM_GUARD", 1)
    code, out = run(capsys, "coefficient", k33_path)
    assert code == 3 and out == ""


def test_coefficient_state_bound_exits_3_before_it_allocates(capsys, monkeypatch, tmp_path):
    """A 2000-edge planted instance exits 3 at the state bound, before the
    count builds any state."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    edges = workloads.planted_edges(1000, 2000, workloads._rng(1, workloads.FAMILY_IDS["planted"], 1000, 0))
    path = tmp_path / "planted.hgr"
    path.write_text(serialize_hypergraph(Hypergraph(1000, tuple(edges))))
    tracemalloc.start()
    start = time.perf_counter()
    code = main(["coefficient", str(path)])
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    captured = capsys.readouterr()
    message = f"more than {nullstellensatz.TERM_GUARD} states may live in the coefficient count"
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")
    assert elapsed < 1 and peak < 20 * 2**20, (elapsed, peak)


def test_dense_thresholds(capsys):
    code, out = run(capsys, "dense", "thresholds", "--s", "16", "--l", "2", "--t", "6")
    doc = json.loads(out)
    assert code == 0 and doc["ert_upper"] and not doc["corollary"]
    assert doc["split_p"] == pytest.approx(0.6)


@pytest.mark.parametrize("l", [1100, 2000])
def test_dense_thresholds_large_l(capsys, l):
    # (1 + s^(1/l))^l overflows a float here; the margin is taken in log space.
    code, out = run(capsys, "dense", "thresholds", "--s", "3", "--l", str(l), "--t", "5")
    assert code == 0 and math.isfinite(json.loads(out)["feasibility_margin"])


@pytest.mark.parametrize(
    "s, l, t",
    [(10, 2, 4), (9, 2, 4), (16, 3, 5), (3, 2000, 5), (3, 10**7, 5), (3, 10**30, 5)],
)
def test_dense_thresholds_match_golden_output(capsys, s, l, t):
    # An irrational near-tie, a perfect-power tie, and thresholds past a float.
    code, out = run(capsys, "dense", "thresholds", "--s", str(s), "--l", str(l), "--t", str(t))
    assert code == 0
    assert out == (GOLDEN / f"thresholds_s{s}_l{l}_t{t}.json").read_text()


@pytest.mark.parametrize(
    "s, l, t",
    [(10**400, 2, 5), (10**400, 3, 5), (10**400, 1000, 5), (3, 2, 10**400), (3, 2000, 10**400)],
    ids=["huge-s-l2", "huge-s-l3", "huge-s-l1000", "huge-t-l2", "huge-t-l2000"],
)
def test_dense_thresholds_past_the_float_range_exit_2(capsys, s, l, t):
    code = main(["dense", "thresholds", "--s", str(s), "--l", str(l), "--t", str(t)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "feasibility margin overflows a float" in captured.err


def test_dense_lower_bound_json_and_csv(capsys):
    code, out = run(
        capsys, "dense", "lower-bound", "--s", "2", "--l", "2", "--t", "6",
        "--trials", "400", "--seed", "1",
    )
    doc = json.loads(out)
    assert code == 0 and doc["witness_fraction"] > 0
    code, out = run(
        capsys, "dense", "lower-bound", "--s", "2", "--l", "2", "--t", "6", "8",
        "--trials", "100", "--seed", "1", "--csv",
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "s,l,t,trials,witness_fraction,seed"
    assert len(lines) == 3 and lines[1].startswith("2,2,6,100,")


def test_dense_lower_bound_matches_golden_output(capsys):
    # The t = 16 run finds 169 witnesses in 200 trials, so its witness count
    # depends on the draws of every trial, not only on the first witness's.
    for t, seed in ((8, 1), (16, 20261017)):
        code, out = run(
            capsys, "dense", "lower-bound", "--s", "3", "--l", "2", "--t", str(t),
            "--trials", "200", "--seed", str(seed),
        )
        assert code == 0
        assert out == (GOLDEN / f"lower_bound_s3_l2_t{t}_seed{seed}.json").read_text()


def test_dense_lower_bound_guard_exits_3(capsys):
    code, _ = run(capsys, "dense", "lower-bound", "--s", "2", "--l", "2", "--t", "7",
                  "--trials", "10", "--seed", "0")
    assert code == 3


def test_dense_lower_bound_trial_guard_exits_3(capsys, monkeypatch):
    argv = ["dense", "lower-bound", "--s", "3", "--l", "2", "--t", "8", "--seed", "1"]
    start = time.perf_counter()
    code = main([*argv, "--trials", str(10**20)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    message = f"{10**20} trials exceeds the guard {dense.TRIAL_GUARD}"
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")
    assert elapsed < 1
    # The guard is inclusive.
    monkeypatch.setattr(dense, "TRIAL_GUARD", 5)
    assert run(capsys, *argv, "--trials", "5")[0] == 0
    assert run(capsys, *argv, "--trials", "6")[0] == 3


def test_dense_split_color_iteration_guard_exits_3(capsys, tmp_path, monkeypatch, k33_path):
    # No split colors one-color lists, so every run within the guard exits 5.
    argv = ["dense", "split-color", k33_path, lists_file(tmp_path, [[1]] * 6), "--seed", "1"]
    start = time.perf_counter()
    code = main([*argv, "--max-iters", str(10**20)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    message = f"{10**20} splits exceeds the guard {dense.TRIAL_GUARD}"
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")
    assert elapsed < 1
    # The guard is inclusive.
    monkeypatch.setattr(dense, "TRIAL_GUARD", 5)
    assert run(capsys, *argv, "--max-iters", "5")[0] == 5
    assert run(capsys, *argv, "--max-iters", "6")[0] == 3


def test_dense_split_color(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)])
    code, out = run(capsys, "dense", "split-color", k33_path, lists, "--seed", "7")
    doc = json.loads(out)
    assert code == 0 and doc["success"]
    assert is_proper(K33, tuple(doc["coloring"]))
    assert sum(doc["report"]["categories"].values()) == doc["report"]["trials"]


@pytest.mark.parametrize(
    "golden, budget, exit_code",
    [("split_color_k33_seed1", [], 0), ("split_color_k33_seed1_budget3", ["--max-iters", "3"], 5)],
)
def test_dense_split_color_matches_golden_output(
    capsys, tmp_path, k33_path, golden, budget, exit_code
):
    lists = lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)])
    code, out = run(capsys, "dense", "split-color", k33_path, lists, "--seed", "1", *budget)
    assert code == exit_code
    assert out == (GOLDEN / f"{golden}.json").read_text()


def test_dense_split_color_missing_file_exits_2(capsys, tmp_path, k33_path):
    code, _ = run(capsys, "dense", "split-color", k33_path, str(tmp_path / "nope.json"))
    assert code == 2


def test_seed_env_is_ignored(capsys, tmp_path, k33_path, monkeypatch):
    # --seed is the one seed channel: without it the seed is 0, whatever the
    # environment holds.  Seeds 0 and 7 split these lists differently.
    lists = lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)])
    split = ["dense", "split-color", k33_path, lists]
    monkeypatch.setenv("HYPERCHOOSE_SEED", "7")
    without_flag = run(capsys, *split)
    assert without_flag == run(capsys, *split, "--seed", "0")
    assert without_flag != run(capsys, *split, "--seed", "7")


@pytest.mark.parametrize("command", ["generate regular", "dense split-color", "dense lower-bound"])
def test_negative_seed_names_the_option(capsys, tmp_path, k33_path, command):
    lists = lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)])
    rest = {
        "generate regular": ["--k", "4", "--n", "12"],
        "dense split-color": [k33_path, lists],
        "dense lower-bound": ["--s", "3", "--l", "2", "--t", "8"],
    }[command]
    code = main([*command.split(), *rest, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --seed must be a nonnegative integer\n"


def test_generate_complete_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "gen.hgr"
    bip_file = tmp_path / "bip.json"
    code, _ = run(
        capsys, "generate", "complete", "--s", "3", "--n", "2", "--m", "2",
        "-o", str(out_file), "--bipartition", str(bip_file),
    )
    assert code == 0
    hg = parse_hypergraph(out_file.read_text())
    assert hg == gen_complete(3, 2, 2)[0]
    assert json.loads(bip_file.read_text()) == ["A", "A", "B", "B"]


def test_generate_complete_bipartition_matches_golden(capsys, tmp_path):
    bip_file = tmp_path / "bip.json"
    code, _ = run(
        capsys, "generate", "complete", "--s", "2", "--n", "3", "--m", "3",
        "-o", str(tmp_path / "k33.hgr"), "--bipartition", str(bip_file),
    )
    assert code == 0
    assert bip_file.read_text() == (GOLDEN / "bipartition_k33.json").read_text()


def test_generate_fano_stdout(capsys):
    code, out = run(capsys, "generate", "fano")
    assert code == 0
    assert parse_hypergraph(out) == gen_fano()


def test_generate_regular(capsys, tmp_path):
    out_file = tmp_path / "reg.hgr"
    code, _ = run(capsys, "generate", "regular", "--k", "4", "--n", "8",
                  "--seed", "1", "-o", str(out_file))
    assert code == 0
    hg = parse_hypergraph(out_file.read_text())
    assert hg.degrees() == [4] * 8


def test_generate_regular_matches_golden(capsys):
    code, out = run(capsys, "generate", "regular", "--k", "4", "--n", "12", "--seed", "1")
    assert code == 0
    assert out == (GOLDEN / "regular_k4_n12_seed1.hgr").read_text()


def test_generate_regular_infeasible_exits_2(capsys):
    code, _ = run(capsys, "generate", "regular", "--k", "4", "--n", "3", "--seed", "0")
    assert code == 2


def test_generate_regular_one_proposal_is_accepted(capsys, monkeypatch):
    # Seed 1 draws a conflict-free pair of layers at once, so the one proposal
    # the budget allows must be checked and returned.
    monkeypatch.setattr(core, "PROPOSAL_BUDGET", 1)
    code, out = run(capsys, "generate", "regular", "--k", "2", "--n", "10", "--seed", "1")
    assert code == 0 and parse_hypergraph(out).degrees() == [2] * 10


def test_generate_regular_budget_exhausted_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(core, "PROPOSAL_BUDGET", 1)
    code = main(["generate", "regular", "--k", "3", "--n", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: search budget exhausted without a valid instance\n"


@pytest.mark.parametrize("k, n", [(2, 10**20), (10**14, 10**14)])
def test_generate_regular_past_the_incidence_guard_exits_3(capsys, monkeypatch, k, n):
    def refuse(seed):
        raise AssertionError("the generator drew before its guard")

    monkeypatch.setattr(core, "_rng", refuse)
    code = main(["generate", "regular", "--k", str(k), "--n", str(n), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        f"error: k*n = {k * n} incidences exceeds the guard {core.REGULAR_INCIDENCE_GUARD}\n"
    )


def test_generate_regular_incidence_guard_is_inclusive(monkeypatch):
    monkeypatch.setattr(core, "REGULAR_INCIDENCE_GUARD", 20)
    assert core.gen_k_regular_k_uniform(2, 10, 1).degrees() == [2] * 10  # k*n = 20
    with pytest.raises(GuardExceededError):
        core.gen_k_regular_k_uniform(3, 7, 1)  # k*n = 21


def test_dense_split_color_one_list_short_exits_4(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(5)])
    code = main(["dense", "split-color", k33_path, lists, "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "error: list assignment size differs from vertex count\n"


def test_dense_lower_bound_several_t_print_one_report_each(capsys):
    argv = ["dense", "lower-bound", "--s", "3", "--l", "2", "--trials", "50", "--seed", "1"]
    code, out = run(capsys, *argv, "--t", "8", "16")
    reports = json.loads(out)
    assert code == 0 and [doc.pop("t") for doc in reports] == [8, 16]
    for t, doc in zip((8, 16), reports):
        assert doc == json.loads(run(capsys, *argv, "--t", str(t))[1])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "HUGE", "--no-timing"], "header n = 10000000000 vertices exceeds the guard {v}"),
        (["orient", "HUGE"], "header n = 10000000000 vertices exceeds the guard {v}"),
        (
            ["generate", "complete", "--s", "3", "--n", "100000000", "--m", "100000000"],
            "C(200000000, 3) - C(100000000, 3) - C(100000000, 3) edges exceeds the guard {e}",
        ),
        (
            ["generate", "complete", "--s", "500000", "--n", "500000", "--m", "500000"],
            "C(1000000, 500000) - C(500000, 500000) - C(500000, 500000) edges exceeds the guard {e}",
        ),
    ],
)
def test_past_a_size_guard_exits_3_before_it_allocates(capsys, tmp_path, argv, message):
    huge = tmp_path / "huge.hgr"
    huge.write_text("p hg 10000000000 1\ne 0 1\n")
    tracemalloc.start()
    start = time.perf_counter()
    code = main([str(huge) if a == "HUGE" else a for a in argv])
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    captured = capsys.readouterr()
    message = message.format(v=core.HGR_VERTEX_GUARD, e=core.COMPLETE_EDGE_GUARD)
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")
    assert elapsed < 1 and peak < 2**20


def test_hgr_vertex_guard_is_inclusive(monkeypatch):
    monkeypatch.setattr(core, "HGR_VERTEX_GUARD", 4)
    assert parse_hypergraph("p hg 4 1\ne 0 3\n").n == 4
    with pytest.raises(GuardExceededError, match="header n = 5 vertices"):
        parse_hypergraph("p hg 5 1\ne 0 3\n")


def test_complete_edge_guard_is_inclusive_and_exact(monkeypatch):
    # At guard 9, K3,3's 9 edges pass and K2,5's 10 do not.  From s = 6 at
    # guard 9, the bound that spares a large s its binomials decides, and it
    # must refuse no count within the guard.
    for guard in (9, 20, 100):
        monkeypatch.setattr(core, "COMPLETE_EDGE_GUARD", guard)
        for s, n, m in product(range(2, 9), range(1, 9), range(1, 9)):
            if n + m < s:
                continue
            count = math.comb(n + m, s) - math.comb(n, s) - math.comb(m, s)
            if count <= guard:
                assert len(gen_complete(s, n, m)[0].edges) == count
            else:
                with pytest.raises(GuardExceededError):
                    gen_complete(s, n, m)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["color", "FANO", "LISTS", "--method", "sparse"], "sparse method"),
        (["coefficient", "FANO"], "coefficient"),
        (["dense", "split-color", "FANO", "LISTS"], "split coloring"),
    ],
)
def test_two_coloring_precondition_names_the_command(
    capsys, tmp_path, fano_path, argv, message
):
    files = {"FANO": fano_path, "LISTS": lists_file(tmp_path, [[1, 2, 3]] * 7)}
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"error: {message} requires a 2-colorable hypergraph\n"


# Lists for K3,3 that break the pair-graph list rule: vertex 2's list one color
# short, or one list too few.  Each message is pinned at the library and at
# the CLI.
SHORT_LIST_MESSAGES = {
    ("sparse", "short"): "vertex 2: list of size 2 is below the required 3 (head degree + 1)",
    ("gk", "short"): (
        "vertex 2: list of size 3 is below the required 4 "
        "(2*max_degree/min_size rounded up, plus 1)"
    ),
    ("sparse", "few"): "list assignment size differs from vertex count",
    ("gk", "few"): "list assignment size differs from vertex count",
}


@pytest.mark.parametrize("method, case", sorted(SHORT_LIST_MESSAGES))
def test_color_short_lists_messages(capsys, tmp_path, k33_path, method, case):
    lists = [list(lv) for lv in (K33_LISTS if method == "sparse" else K33_LISTS_GK)]
    if case == "short":
        lists[2].pop()
    else:
        lists.pop()
    message = SHORT_LIST_MESSAGES[method, case]
    la = core.ListAssignment(tuple(map(tuple, lists)))
    with pytest.raises(PreconditionError) as exc:
        if method == "sparse":
            orientation.list_color_sparse(K33, find_bipartition(K33), la)
        else:
            degree_constrained.list_color_gk(K33, la)
    assert str(exc.value) == message
    code = main(["color", k33_path, lists_file(tmp_path, lists), "--method", method])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (4, "", f"error: {message}\n")


def test_color_gk_writes_selection(capsys, monkeypatch, tmp_path, fano_path):
    built = []
    build = degree_constrained.build_selection
    monkeypatch.setattr(
        degree_constrained, "build_selection", lambda hg, k: built.append(k) or build(hg, k)
    )
    lists = lists_file(tmp_path, [[1, 2, 3]] * 7)
    sel_file = tmp_path / "selection.json"
    code, _ = run(capsys, "color", fano_path, lists, "--method", "gk",
                  "--selection", str(sel_file))
    assert code == 0
    assert built == [2]  # one selection, at ceil(2 * 3 / 3), colors and is written
    pairs = json.loads(sel_file.read_text())
    fano = gen_fano()
    assert len(pairs) == 7
    assert all(u in e and v in e and u != v for (u, v), e in zip(pairs, fano.edges))


@pytest.mark.parametrize("method", ["sparse", "exact"])
def test_color_selection_without_gk_exits_2(capsys, tmp_path, k33_path, method):
    lists = lists_file(tmp_path, K33_LISTS)
    sel_file = tmp_path / "selection.json"
    code = main(["color", k33_path, lists, "--method", method, "--selection", str(sel_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error: ")
    assert not sel_file.exists()


def test_exact_choice_number_runs_no_second_chromatic_search(
    capsys, monkeypatch, k33_path, fano_path
):
    calls = []
    chromatic = choosability.chromatic_number
    monkeypatch.setattr(
        choosability, "chromatic_number", lambda hg: calls.append(hg) or chromatic(hg)
    )
    # K3,3 is 2-colorable, so the bounds already give chi = 2.
    code, out = run(capsys, "analyze", k33_path, "--exact", "--no-timing")
    assert code == 0 and json.loads(out)["choice_number"] == 3
    assert calls == []
    code, out = run(capsys, "analyze", fano_path, "--exact", "--no-timing")
    assert code == 0 and json.loads(out)["chromatic_number"] == 3
    assert len(calls) == 1
    calls.clear()
    code, out = run(capsys, "exact", k33_path, "--what", "ch")
    assert code == 0 and json.loads(out)["value"] == 3
    assert calls == []


def test_analyze_exact_guard_exits_3(capsys, monkeypatch, tmp_path):
    # A triangle among 25 vertices: U = 3, so k = 2 must be enumerated, over
    # the 12-vertex enumeration guard.  The guard fires before the chromatic
    # search would repeat the 2-coloring search that bounds already failed.
    calls = []
    chromatic_number = choosability.chromatic_number
    monkeypatch.setattr(
        choosability, "chromatic_number", lambda hg: calls.append(hg) or chromatic_number(hg)
    )
    triangle = tmp_path / "triangle.hgr"
    triangle.write_text("p hg 25 3\ne 0 1\ne 1 2\ne 0 2\n")
    code = main(["analyze", str(triangle), "--exact"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: 25 vertices exceeds the guard 12\n"
    assert calls == []
    # A 25-vertex path is 2-colorable with L < 1: the bound decides ch = 2.
    path = tmp_path / "path.hgr"
    edges = [f"e {i} {i + 1}" for i in range(24)]
    path.write_text("p hg 25 24\n" + "\n".join(edges) + "\n")
    code, out = run(capsys, "analyze", str(path), "--exact", "--no-timing")
    report = json.loads(out)
    assert code == 0
    assert (report["chromatic_number"], report["choice_number"]) == (2, 2)


def edgeless_argv(tmp_path, argv):
    """``argv`` with PATH and LISTS replaced by an edgeless file and its 2-lists."""
    path = tmp_path / "edgeless.hgr"
    path.write_text("p hg 3 0\n")
    subst = {"PATH": str(path), "LISTS": lists_file(tmp_path, [[1, 2]] * 3)}
    return [subst.get(a, a) for a in argv]


@pytest.mark.parametrize(
    "argv, task",
    [
        (["orient", "PATH"], "orient"),
        (["color", "PATH", "LISTS", "--method", "sparse"], "color"),
        (["color", "PATH", "LISTS", "--method", "gk"], "color"),
        (["dense", "split-color", "PATH", "LISTS"], "color"),
        (["coefficient", "PATH"], "certify"),
        (["analyze", "PATH"], "analyze"),
    ],
)
def test_edgeless_input_exits_2_with_one_message(capsys, tmp_path, argv, task):
    code = main(edgeless_argv(tmp_path, argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: hypergraph has no edges; nothing to {task}\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["orient", "PATH", "--k", "1"], {"k": 1, "feasible": True, "head": [], "degrees": [0] * 3}),
        (["color", "PATH", "LISTS", "--method", "exact"], [1, 1, 1]),
        (["choosability", "PATH", "--f", "2"], {"f": 2, "choosable": True, "witness": None, "lists_examined": 0}),
        (["exact", "PATH", "--what", "ch"], {"what": "ch", "value": 1}),
        (["exact", "PATH", "--what", "chi"], {"what": "chi", "value": 1}),
    ],
)
def test_edgeless_input_still_serves_the_other_commands(capsys, tmp_path, argv, expected):
    code, out = run(capsys, *edgeless_argv(tmp_path, argv))
    assert code == 0 and json.loads(out) == expected


def test_internal_error_exits_6(capsys, monkeypatch, k33_path):
    def contradiction(hg):
        raise TheoremContradictionError("parametric search failed to improve")

    monkeypatch.setattr(density, "density_flow", contradiction)
    code = main(["analyze", k33_path, "--no-timing"])
    captured = capsys.readouterr()
    assert code == 6 and captured.out == ""
    assert captured.err == (
        "error: internal: TheoremContradictionError: parametric search failed to improve\n"
    )


@pytest.mark.parametrize(
    "command, patched",
    [("analyze", (density, "bounds")), ("orient", (orientation, "min_orientation"))],
    ids=["analyze", "orient"],
)
def test_value_error_inside_a_command_exits_6(capsys, monkeypatch, k33_path, command, patched):
    # Only InputError (and OSError) means bad input; any other ValueError is
    # a defect in the program.
    def boom(*_):
        raise ValueError("boom")

    monkeypatch.setattr(*patched, boom)
    argv = [command, k33_path] + (["--no-timing"] if command == "analyze" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (6, "")
    assert captured.err == "error: internal: ValueError: boom\n"


BAD_ARGUMENT_CASES = [
    (["orient", "K33", "--k", "0"], "k must be at least 1"),
    (["choosability", "K33", "--f", "0"], "list lengths must be positive"),
    (
        ["dense", "split-color", "K33", "LISTS", "--max-iters", "0"],
        "max_iters must be positive",
    ),
    (
        ["dense", "lower-bound", "--s", "3", "--l", "2", "--t", "8", "--trials", "0"],
        "requires s >= 2, l >= 1, t >= 2, trials >= 1",
    ),
    (
        ["dense", "lower-bound", "--s", "1", "--l", "2", "--t", "8"],
        "requires s >= 2, l >= 1, t >= 2, trials >= 1",
    ),
    (["dense", "thresholds", "--s", "1", "--l", "2", "--t", "3"], "requires s >= 2, l >= 1, t >= 1"),
    (["dense", "thresholds", "--s", "3", "--l", "1", "--t", "3"], "requires s >= 2, l >= 2, t >= 1"),
    (["generate", "complete", "--s", "1", "--n", "1", "--m", "1"], "infeasible parameters s=1, n=1, m=1"),
    (["generate", "regular", "--k", "1", "--n", "3"], "k must be at least 2"),
    (["generate", "regular", "--k", "3", "--n", "2"], "edge size 3 exceeds vertex count 2"),
    (["analyze", "BAD_HGR"], "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    (
        ["color", "K33", "BAD_LISTS", "--method", "gk"],
        "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte",
    ),
]


@pytest.mark.parametrize(
    "argv, message", BAD_ARGUMENT_CASES, ids=[" ".join(a) for a, _ in BAD_ARGUMENT_CASES]
)
def test_argument_and_decoding_faults_exit_2(capsys, tmp_path, k33_path, argv, message):
    bad_hgr = tmp_path / "bad.hgr"
    bad_hgr.write_bytes(b"p hg 2 1\ne 0 \xff1\n")
    bad_lists = tmp_path / "bad.json"
    bad_lists.write_bytes(b'{"n": 1, "lists": [[\xff]]}')
    paths = {
        "K33": k33_path,
        "LISTS": lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)]),
        "BAD_HGR": str(bad_hgr),
        "BAD_LISTS": str(bad_lists),
    }
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


def test_input_checks_raise_input_error_and_the_rest_plain_value_error():
    # Each check a command-line value reaches raises InputError, still a
    # ValueError; the checks no command-line value reaches raise plain
    # ValueError, which the CLI reports as internal.
    assert issubclass(InputError, ValueError)
    bip = find_bipartition(K33)
    lists = ListAssignment(tuple((3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(6)))
    user_faults = [
        lambda: orientation.hall_orientation(K33, 0),
        lambda: degree_constrained.build_selection(K33, 0),
        lambda: choosability.is_f_choosable(K33, [0] * 6),
        lambda: choosability.is_f_choosable(K33, [2] * 6, max_universe=0),
        lambda: dense.random_split_color_report(K33, bip, lists, 0, 1),
        lambda: dense.lower_bound_experiment(3, 2, 8, 0, 1),
        lambda: dense.lower_bound_experiment(1, 2, 8, 10, 1),
        lambda: dense.split_probability(1, 2),
        lambda: dense.cond_ert_upper(1, 2, 3),
        lambda: dense.cond_corollary(3, 1, 3),
        lambda: dense.feasibility_margin(1, 2, 3),
        lambda: dense.feasibility_margin(10**400, 2, 5),
        lambda: gen_complete(1, 1, 1),
        lambda: core.gen_k_regular_k_uniform(1, 3, 0),
        lambda: core.gen_k_regular_k_uniform(3, 2, 0),
        lambda: parse_hypergraph("p hg 2 1\ne 0 0\n"),
        lambda: ListAssignment.from_json({"n": 2, "lists": [[1]]}),
    ]
    for fault in user_faults:
        with pytest.raises(InputError):
            fault()
    empty = Hypergraph(2, ())
    internal_faults = [
        lambda: Hypergraph(2, ((0, 0),)),
        lambda: ListAssignment(((),)),
        lambda: ListAssignment.from_json({"n": 1, "lists": [[]]}),
        lambda: is_proper(K33, [0]),
        lambda: metrics(empty),
        lambda: density.density_flow(empty),
        lambda: orientation.min_orientation(empty),
        lambda: choosability.is_f_choosable(K33, [2]),
        lambda: dense.complete_proper_exists(1, 1, 1, ListAssignment(((1,), (1,)))),
        lambda: dense.split_experiment(lists, 2, 0, 1),
        lambda: dense.DenseExperimentReport(trials=1, categories={}, seed=0),
    ]
    for fault in internal_faults:
        with pytest.raises(ValueError) as exc:
            fault()
        assert not isinstance(exc.value, InputError), exc.value


def test_deeply_nested_lists_file_exits_2(capsys, tmp_path, k33_path):
    # The JSON parser gives up on deep nesting with a RecursionError: a fault
    # of the file, not of the program.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["color", k33_path, str(deep), "--method", "gk"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {deep}: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "data", [b'{"n": 1,\r\n "lists": [[1]],}', b'{"n": 1,\r "lists": [[1]],}'], ids=["CRLF", "CR"]
)
def test_lists_file_json_error_counts_line_ends_as_text_mode_does(capsys, tmp_path, k33_path, data):
    # A CRLF or a lone CR is one newline character, as in a text-mode read.
    path = tmp_path / "lists.json"
    path.write_bytes(data)
    code = main(["color", k33_path, str(path), "--method", "gk"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"error: {path}: Expecting property name enclosed in double quotes:"
        " line 2 column 17 (char 25)\n"
    )


def test_analyze_exact_computes_bounds_once(capsys, monkeypatch, k33_path, fano_path):
    # Wrapped at every package attribute that refers to it, so the choice
    # number's own call is counted too.
    calls = []
    bounds = density.bounds
    targets = [
        (module, attr)
        for name, module in sys.modules.items()
        if name == "hyperchoose" or name.startswith("hyperchoose.")
        for attr, value in vars(module).items()
        if value is bounds
    ]
    assert len(targets) >= 2
    for module, attr in targets:
        monkeypatch.setattr(module, attr, lambda hg: calls.append(hg) or bounds(hg))
    for path in (k33_path, fano_path):
        for argv in (["analyze", path, "--exact", "--no-timing"], ["exact", path, "--what", "ch"]):
            calls.clear()
            code, _ = run(capsys, *argv)
            assert code == 0 and len(calls) == 1, argv


def test_analyze_computes_metrics_once(capsys, monkeypatch, k33_path, fano_path):
    # Wrapped at every package attribute that refers to it, so no caller of
    # metrics escapes the count.
    calls = []
    metrics = core.metrics
    targets = [
        (module, attr)
        for name, module in sys.modules.items()
        if name == "hyperchoose" or name.startswith("hyperchoose.")
        for attr, value in vars(module).items()
        if value is metrics
    ]
    assert len(targets) >= 2
    for module, attr in targets:
        monkeypatch.setattr(module, attr, lambda hg: calls.append(hg) or metrics(hg))
    for path in (k33_path, fano_path, str(GOLDEN / "peel_miss.hgr")):
        calls.clear()
        code, _ = run(capsys, "analyze", path, "--no-timing")
        assert code == 0 and len(calls) == 1, path


def fresh_run(capsys, *argv):
    """One command through a newly built parser, as the first main() call runs it."""
    args = build_parser().parse_args(list(argv))
    return args.func(args), capsys.readouterr().out


def test_main_reuses_one_parser(capsys, monkeypatch, tmp_path, k33_path):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()

    golden = {name: (GOLDEN / f"{name}.json").read_text() for name in (
        "orient_k33_k2", "orient_k33", "color_k33_gk", "selection_k33_gk"
    )}
    assert run(capsys, "orient", k33_path, "--k", "2") == (0, golden["orient_k33_k2"])
    assert run(capsys, "orient", k33_path) == (0, golden["orient_k33"])

    lists = lists_file(tmp_path, K33_LISTS_GK)
    sel = tmp_path / "selection.json"
    gk = ["color", k33_path, lists, "--method", "gk"]
    assert run(capsys, *gk, "--selection", str(sel)) == (0, golden["color_k33_gk"])
    assert sel.read_text() == golden["selection_k33_gk"]
    sel.unlink()
    before = sorted(tmp_path.iterdir())
    assert run(capsys, *gk) == (0, golden["color_k33_gk"])
    assert sorted(tmp_path.iterdir()) == before  # no --selection: no file written

    lower = ["dense", "lower-bound", "--s", "2", "--l", "2", "--t", "6", "--trials", "200"]
    seeded = run(capsys, *lower, "--seed", "3")
    assert seeded[0] == 0 and seeded == fresh_run(capsys, *lower, "--seed", "3")

    with pytest.raises(SystemExit) as exc:
        main(["orient", k33_path, "--k", "two"])
    assert exc.value.code == 2 and "--k" in capsys.readouterr().err
    assert run(capsys, "orient", k33_path) == (0, golden["orient_k33"])
    assert len(builds) == 1


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(hyperchoose.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def hyperchoose_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hyperchoose", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    assert hyperchoose_m("generate", "fano", "-o", "f.hgr").returncode == 0
    done = hyperchoose_m("orient", "f.hgr")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["k_star"] == 1


def test_exact_choice_number_of_regular_instance_returns_fast():
    # ch = 2 follows from the sparse bound ceil(L) + 1 = 2 on this 2-colorable
    # input with L = 1 (the gk bound ceil(2D/s) + 1 is 3), so no list system
    # is enumerated.  Enumerating k = 2 instead ran out of a 2 GB
    # address-space limit without an answer.
    src = str(Path(hyperchoose.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["exact", str(GOLDEN / "regular_k4_n12_seed1.hgr"), "--what", "ch"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "hyperchoose", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"what": "ch", "value": 2}
    assert elapsed < 5, elapsed


def test_cli_leaves_mpmath_unloaded(tmp_path):
    (tmp_path / "k33.hgr").write_text(serialize_hypergraph(K33))
    src = str(Path(hyperchoose.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from hyperchoose.cli import main\n"
        "assert main(['orient', 'k33.hgr']) == 0\n"
        "assert main(['dense', 'thresholds', '--s', '10', '--l', '2', '--t', '4']) == 0\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_layers_resolve(monkeypatch):
    """Every function the benchmark's traced pass wraps exists under its name."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.LAYERS.items():
        mod = importlib.import_module(f"hyperchoose.{module}")
        for name in names:
            assert inspect.isfunction(getattr(mod, name, None)), f"{module}.{name}"
