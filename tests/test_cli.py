import json

import pytest

from hyperchoose import gen_complete, gen_fano, is_proper, parse_hypergraph, serialize_hypergraph, Coloring
from hyperchoose import degree_constrained, density
from hyperchoose.cli import main
from hyperchoose.errors import TheoremContradictionError

K33 = gen_complete(2, 3, 3)[0]


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
    assert is_proper(K33, Coloring(tuple(coloring)))


def test_color_gk_fano(capsys, tmp_path, fano_path):
    lists = lists_file(tmp_path, [[1, 2, 3]] * 7)
    code, out = run(capsys, "color", fano_path, lists, "--method", "gk")
    assert code == 0
    assert is_proper(gen_fano(), Coloring(tuple(json.loads(out))))


def test_color_exact_bad_lists_exits_5(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[1, 2], [1, 3], [2, 3]] * 2)
    code, _ = run(capsys, "color", k33_path, lists, "--method", "exact")
    assert code == 5


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


def test_dense_thresholds(capsys):
    code, out = run(capsys, "dense", "thresholds", "--s", "16", "--l", "2", "--t", "6")
    doc = json.loads(out)
    assert code == 0 and doc["ert_upper"] and not doc["corollary"]
    assert doc["split_p"] == pytest.approx(0.6)


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


def test_dense_lower_bound_guard_exits_3(capsys):
    code, _ = run(capsys, "dense", "lower-bound", "--s", "2", "--l", "2", "--t", "7",
                  "--trials", "10", "--seed", "0")
    assert code == 3


def test_dense_split_color(capsys, tmp_path, k33_path):
    lists = lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)])
    code, out = run(capsys, "dense", "split-color", k33_path, lists, "--seed", "7")
    doc = json.loads(out)
    assert code == 0 and doc["success"]
    assert is_proper(K33, Coloring(tuple(doc["coloring"])))
    assert sum(doc["report"]["categories"].values()) == doc["report"]["trials"]


def test_dense_split_color_missing_file_exits_2(capsys, tmp_path, k33_path):
    code, _ = run(capsys, "dense", "split-color", k33_path, str(tmp_path / "nope.json"))
    assert code == 2


def test_seed_env_fallback(capsys, tmp_path, k33_path, monkeypatch):
    lists = lists_file(tmp_path, [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)])
    monkeypatch.setenv("HYPERCHOOSE_SEED", "7")
    _, with_env = run(capsys, "dense", "split-color", k33_path, lists)
    monkeypatch.delenv("HYPERCHOOSE_SEED")
    _, with_flag = run(capsys, "dense", "split-color", k33_path, lists, "--seed", "7")
    assert with_env == with_flag


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


def test_generate_regular_infeasible_exits_2(capsys):
    code, _ = run(capsys, "generate", "regular", "--k", "4", "--n", "3", "--seed", "0")
    assert code == 2


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


def test_analyze_exact_guard_exits_3(capsys, tmp_path):
    # 25 isolated-ish vertices: over the chromatic-number vertex guard.
    big = tmp_path / "big.hgr"
    edges = [f"e {i} {i + 1}" for i in range(24)]
    big.write_text("p hg 25 24\n" + "\n".join(edges) + "\n")
    code, _ = run(capsys, "analyze", str(big), "--exact")
    assert code == 3


def test_internal_error_exits_6(capsys, monkeypatch, k33_path):
    def contradiction(hg):
        raise TheoremContradictionError("parametric search failed to improve")

    monkeypatch.setattr(density, "edge_density", contradiction)
    code = main(["analyze", k33_path, "--no-timing"])
    captured = capsys.readouterr()
    assert code == 6 and captured.out == ""
    assert captured.err == (
        "error: internal: TheoremContradictionError: parametric search failed to improve\n"
    )
