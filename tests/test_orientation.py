import random
from math import ceil

import pytest

from hyperchoose import (
    Hypergraph,
    ListAssignment,
    PreconditionError,
    density,
    density_exact,
    density_flow,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    hall_orientation,
    list_color_sparse,
    min_orientation,
    orientation,
    orientation_is_valid,
    reduce_to_pairgraph,
    vertex_counts,
)
from hyperchoose.core import _fits
from oracles import brute_min_orientation, random_hypergraph


def test_hall_orientation_k33():
    hg = gen_complete(2, 3, 3)[0]
    phi = hall_orientation(hg, 2)
    assert phi is not None
    assert orientation_is_valid(hg, phi)
    assert max(vertex_counts(hg.n, phi)) <= 2
    assert hall_orientation(hg, 1) is None  # 9 edges, 6 slots


def test_hall_orientation_single_edge():
    hg = Hypergraph(3, ((0, 1, 2),))
    phi = hall_orientation(hg, 1)
    assert phi is not None and sum(vertex_counts(3, phi)) == 1


def test_min_orientation_k33():
    hg = gen_complete(2, 3, 3)[0]
    k_star, phi = min_orientation(hg)
    assert k_star == 2 == brute_min_orientation(hg)
    assert max(vertex_counts(hg.n, phi)) <= 2


def test_min_orientation_fano_is_sdr():
    fano = gen_fano()
    k_star, phi = min_orientation(fano)
    assert k_star == 1
    assert sorted(phi) == list(range(7))  # distinct representatives


def test_min_orientation_triangle():
    hg = Hypergraph(3, ((0, 1), (1, 2), (0, 2)))
    k_star, _ = min_orientation(hg)
    assert k_star == 1


def test_min_orientation_matches_brute_force():
    rnd = random.Random(77)
    for _ in range(60):
        hg = random_hypergraph(rnd, rnd.randint(2, 7), rnd.randint(1, 7), max_size=3)
        k_star, phi = min_orientation(hg)
        assert k_star == brute_min_orientation(hg)
        assert k_star == ceil(density_exact(hg))
        assert orientation_is_valid(hg, phi)
        assert max(vertex_counts(hg.n, phi)) == k_star


def dense_core_sparse_tail(rnd: random.Random) -> Hypergraph:
    """Many 2- and 3-edges on 4-6 vertices plus a few 2-edges on many more.

    The tail lowers |E| / |union E| below the core's density, so the first
    cap min_orientation tries is often below ceil(L).
    """
    c = rnd.randint(4, 6)
    core = [
        tuple(sorted(rnd.sample(range(c), rnd.randint(2, 3))))
        for _ in range(rnd.randint(c + 2, 2 * c + 2))
    ]
    n = c + rnd.randint(8, 16)
    tail = [tuple(sorted(rnd.sample(range(c - 1, n), 2))) for _ in range(rnd.randint(3, 8))]
    return Hypergraph(n, tuple(core + tail))


def record_flow_caps(monkeypatch) -> list[int]:
    caps = []
    flow = density.edge_vertex_flow
    monkeypatch.setattr(
        density,
        "edge_vertex_flow",
        lambda hg, e, k, i: caps.append(k) or flow(hg, e, k, i),
    )
    return caps


def test_min_orientation_multi_round_matches_brute_force(monkeypatch):
    caps = record_flow_caps(monkeypatch)
    rnd = random.Random(79)
    multi_round = 0
    for _ in range(80):
        hg = dense_core_sparse_tail(rnd)
        caps.clear()
        k_star, phi = min_orientation(hg)
        assert k_star == brute_min_orientation(hg) == ceil(density_exact(hg))
        assert orientation_is_valid(hg, phi)
        assert max(vertex_counts(hg.n, phi)) == k_star
        assert caps == sorted(set(caps)) and caps[-1] == k_star
        multi_round += len(caps) > 1
    assert multi_round >= 20


def test_min_orientation_k6_plus_path_takes_two_flows(monkeypatch):
    caps = record_flow_caps(monkeypatch)
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    path = [(v, v + 1) for v in range(6, 36)]
    hg = Hypergraph(37, tuple(k6 + path))
    k_star, phi = min_orientation(hg)
    assert caps == [2, 3]  # ceil(45 / 37), then ceil(15 / 6) from the cut
    assert k_star == 3 == ceil(density_flow(hg))
    assert max(vertex_counts(hg.n, phi)) == 3


def test_hall_orientation_matches_brute_force():
    rnd = random.Random(78)
    infeasible = 0
    for _ in range(120):
        hg = random_hypergraph(rnd, rnd.randint(2, 7), rnd.randint(1, 7), max_size=3)
        k_min = brute_min_orientation(hg)
        for k in range(1, 5):
            phi = hall_orientation(hg, k)
            assert (phi is None) == (k < k_min)
            infeasible += phi is None
            if phi is not None:
                assert orientation_is_valid(hg, phi)
                assert max(vertex_counts(hg.n, phi)) <= k
    assert infeasible >= 50


def test_reduce_to_pairgraph_single_edge():
    hg = Hypergraph(3, ((0, 1, 2),))
    bip = find_bipartition(hg)
    assert bip == ("A", "A", "B")
    pairs = reduce_to_pairgraph(hg, bip, (0,))
    assert pairs == ((0, 2),)  # smallest opposite-side vertex


def test_reduce_to_pairgraph_rejects_a_head_outside_its_edge():
    hg, bip = gen_complete(2, 3, 3)
    phi = (1,) + min_orientation(hg)[1][1:]  # edge 0 is (0, 3)
    with pytest.raises(PreconditionError, match="orientation is not valid"):
        reduce_to_pairgraph(hg, bip, phi)


def test_reduce_to_pairgraph_k33_identity():
    hg, bip = gen_complete(2, 3, 3)
    _, phi = min_orientation(hg)
    pairs = reduce_to_pairgraph(hg, bip, phi)
    assert sorted(tuple(sorted(p)) for p in pairs) == sorted(hg.edges)


def test_reduce_to_pairgraph_complete_3_uniform():
    hg, bip = gen_complete(3, 2, 2)
    k_star, phi = min_orientation(hg)
    pairs = reduce_to_pairgraph(hg, bip, phi)
    assert len(pairs) == 4
    assert all(bip[x] != bip[y] for x, y in pairs)
    heads = [0] * hg.n
    for x, _ in pairs:
        heads[x] += 1
    assert heads == vertex_counts(hg.n, phi)


def test_list_color_sparse_k33():
    hg, bip = gen_complete(2, 3, 3)
    lists = ListAssignment(tuple((1, 2, 3) for _ in range(6)))
    col = list_color_sparse(hg, bip, lists)
    assert _fits(hg, col, lists.lists)


def test_list_color_sparse_two_lists_when_degree_one():
    hg = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
    bip = find_bipartition(hg)
    lists = ListAssignment(tuple((1, 2) for _ in range(4)))
    col = list_color_sparse(hg, bip, lists)
    assert _fits(hg, col, lists.lists)


def test_list_color_sparse_rejects_short_lists():
    hg, bip = gen_complete(2, 3, 3)
    lists = ListAssignment(tuple((1, 2) for _ in range(6)))  # need 3 at degree 2
    with pytest.raises(PreconditionError):
        list_color_sparse(hg, bip, lists)


def test_list_color_sparse_rejects_bad_bipartition():
    hg, _ = gen_complete(2, 3, 3)
    wrong = ("A",) * 6
    lists = ListAssignment(tuple((1, 2, 3) for _ in range(6)))
    with pytest.raises(PreconditionError):
        list_color_sparse(hg, wrong, lists)


def test_list_color_sparse_checks_the_bipartition_once(monkeypatch):
    calls = []
    check = orientation.require_bipartition

    def counted(hg, bip):
        calls.append(bip)
        return check(hg, bip)

    monkeypatch.setattr(orientation, "require_bipartition", counted)
    hg, bip = gen_complete(2, 3, 3)
    lists = ListAssignment(tuple((1, 2, 3) for _ in range(6)))
    for expected in (1, 2):
        list_color_sparse(hg, bip, lists)
        assert len(calls) == expected


def test_list_color_sparse_on_regular_instance_random_lists():
    hg = gen_k_regular_k_uniform(4, 8, seed=1)
    bip = find_bipartition(hg)
    assert bip is not None
    rnd = random.Random(123)
    for _ in range(100):
        lists = ListAssignment(
            tuple(tuple(rnd.sample(range(1, 10), 2)) for _ in range(8))
        )
        col = list_color_sparse(hg, bip, lists)
        assert _fits(hg, col, lists.lists)
