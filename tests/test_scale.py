"""Scale tier: the polynomial steps at n = 3000 return, within a deadline.

Every instance here is 2-colorable, so the coloring search must return a
valid certificate; the CLI runs must exit 0.  A step that recurses once per
vertex or searches exponentially fails these tests (a deadline turns a hang
into a failure) instead of passing on desk-sized inputs.  The module runs in
a few seconds.
"""

import json
import random
import signal
from functools import lru_cache
from math import ceil

import pytest

from hyperchoose import (
    Hypergraph,
    core,
    degree_constrained,
    density,
    ListAssignment,
    bipartition_is_valid,
    find_bipartition,
    gen_k_regular_k_uniform,
    orientation,
    orientation_is_valid,
    serialize_hypergraph,
)
from hyperchoose.cli import main
from hyperchoose.core import _ListSearch, _fits
from oracles import flat_reference_flow

N = 3000
DEADLINE_S = 60


class Deadline(Exception):
    pass


@pytest.fixture(autouse=True)
def deadline():
    def expire(signum, frame):
        raise Deadline(f"test ran past {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@lru_cache(maxsize=None)
def instance(family: str) -> Hypergraph:
    if family == "planted":
        # Random 3-sets on N vertices, m = 2N, each meeting both halves.
        rnd = random.Random(1)
        edges = []
        while len(edges) < 2 * N:
            e = tuple(sorted(rnd.sample(range(N), 3)))
            if len({v < N // 2 for v in e}) == 2:
                edges.append(e)
        return Hypergraph(N, tuple(edges))
    if family == "regular":
        return gen_k_regular_k_uniform(3, N, seed=1)
    # The path (i, i+1) plus a duplicate (0, 1).
    return Hypergraph(N, tuple((i, i + 1) for i in range(N - 1)) + ((0, 1),))


def write(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, tmp_path, family, command, *options, lists=None):
    """Run one CLI command on an instance (and a lists file); return its JSON."""
    files = [write(tmp_path, "h.hgr", serialize_hypergraph(instance(family)))]
    if lists is not None:
        files.append(write(tmp_path, "lists.json", json.dumps({"n": N, "lists": lists})))
    assert main([command, *files, *options]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("family", ["planted", "regular", "chain"])
def test_find_bipartition_at_scale(family):
    hg = instance(family)
    bip = find_bipartition(hg)
    assert bip is not None and bipartition_is_valid(hg, bip)


@pytest.mark.parametrize("family", ["planted", "regular", "chain"])
def test_edge_vertex_flow_matches_reference_at_scale(family, monkeypatch):
    # Every capacity triple the density, orientation and selection steps run
    # on this instance, checked against the explicit-arc Dinic's.
    hg = instance(family)
    flow = core.edge_vertex_flow
    caps = []

    def record(graph, *capacities):
        caps.append(capacities)
        return flow(graph, *capacities)

    for module in (density, core):  # core runs the orientation and selection flows
        monkeypatch.setattr(module, "edge_vertex_flow", record)
    density.density_flow(hg)
    orientation.min_orientation(hg)
    orientation.hall_orientation(hg, 1)
    degree_constrained.build_selection(hg, density.bound_gk(hg) - 1)
    for capacities in dict.fromkeys(caps):
        assert flow(hg, *capacities) == flat_reference_flow(hg, *capacities)


@pytest.mark.parametrize("family, flows", [("planted", 1), ("regular", 0)])
def test_density_flow_runs_at_most_one_flow(family, flows, monkeypatch):
    # The peel finds L on both; on the regular instance it meets D / s = 1,
    # and on the planted one a single flow certifies it.
    hg = instance(family)
    flow = core.edge_vertex_flow
    caps = []
    monkeypatch.setattr(
        density, "edge_vertex_flow", lambda g, *c: caps.append(c) or flow(g, *c)
    )
    density.density_flow(hg)
    assert len(caps) == flows


def test_chain_is_solved_by_propagation():
    search = _ListSearch(N, instance("chain").edges)
    assert search.solve([("A", "B")] * N) is not None
    assert search.nodes == 1  # vertex 0 is a decision; propagation sets the rest


def test_cli_analyze_regular(capsys, tmp_path):
    doc = run_cli(capsys, tmp_path, "regular", "analyze", "--no-timing")
    assert doc["two_colorable"]
    assert (doc["l_num"], doc["l_den"]) == (1, 1)


def test_cli_analyze_chain(capsys, tmp_path):
    doc = run_cli(capsys, tmp_path, "chain", "analyze", "--no-timing")
    assert doc["two_colorable"]
    assert (doc["l_num"], doc["l_den"]) == (1, 1)


def test_cli_orient_chain(capsys, tmp_path):
    doc = run_cli(capsys, tmp_path, "chain", "orient")
    assert doc["k_star"] == 1 == max(doc["degrees"])
    assert orientation_is_valid(instance("chain"), tuple(doc["head"]))


def test_cli_coefficient_chain(capsys, tmp_path):
    # The two copies of (0, 1) take heads 0 and 1 in either order, and every
    # other head is forced.
    doc = run_cli(capsys, tmp_path, "chain", "coefficient")
    assert doc["coef"] == 2


def check_coloring(capsys, tmp_path, family, method, size):
    rnd = random.Random(2)
    lists = [sorted(rnd.sample(range(2 * size), size)) for _ in range(N)]
    color = run_cli(capsys, tmp_path, family, "color", "--method", method, lists=lists)
    coloring = tuple(color)
    assert _fits(instance(family), coloring, lists)


def test_cli_color_sparse_planted(capsys, tmp_path):
    size = ceil(max(instance("planted").degrees()) / 3) + 1
    check_coloring(capsys, tmp_path, "planted", "sparse", size)


def test_cli_color_sparse_chain(capsys, tmp_path):
    check_coloring(capsys, tmp_path, "chain", "sparse", 2)  # head degree 1, plus 1


def test_cli_color_gk_regular(capsys, monkeypatch, tmp_path):
    # The pair coloring at the guaranteed cap never backtracks, so it needs
    # no branching decision beyond one per vertex.
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 0)
    check_coloring(capsys, tmp_path, "regular", "gk", 3)  # ceil(2 * 3 / 3) + 1


@pytest.mark.parametrize("family", ["planted", "regular"])
def test_list_color_gk_matches_the_list_search_at_scale(family):
    hg = instance(family)
    k = density.bound_gk(hg) - 1
    rnd = random.Random(3)
    lists = ListAssignment(
        tuple(tuple(rnd.sample(range(k + 3), rnd.randint(k + 1, k + 3))) for _ in range(N))
    )
    color, pairs = degree_constrained.list_color_gk(hg, lists)
    assert color == tuple(_ListSearch(N, pairs).solve(lists.lists))
