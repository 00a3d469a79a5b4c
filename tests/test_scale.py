"""Scale tier: the polynomial steps at n = 3000 return, within a deadline.

Every instance here is 2-colorable, so the coloring search must return a
valid certificate; the CLI runs must exit 0.  A step that recurses once per
vertex or searches exponentially fails these tests (a deadline turns a hang
into a failure) instead of passing on desk-sized inputs.  The module runs in
a few seconds.  Chain ``orient``, ``analyze`` and ``color --method sparse``
are not covered yet: they still recurse in the flow and matching code.
"""

import json
import random
import signal
from functools import lru_cache
from math import ceil

import pytest

from hyperchoose import (
    Coloring,
    Hypergraph,
    ListAssignment,
    bipartition_is_valid,
    find_bipartition,
    gen_k_regular_k_uniform,
    is_proper,
    serialize_hypergraph,
)
from hyperchoose.cli import main
from hyperchoose.core import _ListSearch

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


@pytest.mark.parametrize("family", ["planted", "regular", "chain"])
def test_find_bipartition_at_scale(family):
    hg = instance(family)
    bip = find_bipartition(hg)
    assert bip is not None and bipartition_is_valid(hg, bip)


def test_chain_is_solved_by_propagation():
    search = _ListSearch(instance("chain"))
    assert search.solve([("A", "B")] * N) is not None
    assert search.nodes == 1  # vertex 0 is a decision; propagation sets the rest


def test_cli_analyze_regular(capsys, tmp_path):
    path = write(tmp_path, "regular.hgr", serialize_hypergraph(instance("regular")))
    code = main(["analyze", path, "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["two_colorable"]
    assert (doc["l_num"], doc["l_den"]) == (1, 1)


def test_cli_color_sparse_planted(capsys, tmp_path):
    hg = instance("planted")
    size = ceil(max(hg.degrees()) / 3) + 1
    rnd = random.Random(2)
    lists = [sorted(rnd.sample(range(2 * size), size)) for _ in range(N)]
    path = write(tmp_path, "planted.hgr", serialize_hypergraph(hg))
    lpath = write(tmp_path, "lists.json", json.dumps({"n": N, "lists": lists}))
    code = main(["color", path, lpath, "--method", "sparse"])
    coloring = Coloring(tuple(json.loads(capsys.readouterr().out)))
    assert code == 0
    assert is_proper(hg, coloring) and coloring.respects(ListAssignment(lists))
