import random
from fractions import Fraction
from pathlib import Path

import pytest

from hyperchoose import (
    GuardExceededError,
    Hypergraph,
    bound_gk,
    bounds,
    density,
    density_exact,
    density_flow,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    metrics,
    parse_hypergraph,
)
from oracles import naive_density, random_hypergraph

GOLDEN = Path(__file__).parent / "golden"


def test_density_k33():
    hg = gen_complete(2, 3, 3)[0]
    assert density_exact(hg) == Fraction(3, 2)
    assert naive_density(hg) == Fraction(3, 2)  # all 2^9-1 subsets
    assert density_flow(hg) == Fraction(3, 2)


def test_density_single_edge():
    for s in (2, 3, 5):
        hg = Hypergraph(s, (tuple(range(s)),))
        assert density_exact(hg) == Fraction(1, s)
        assert density_flow(hg) == Fraction(1, s)


def test_density_fano():
    fano = gen_fano()
    assert naive_density(fano) == 1
    assert density_exact(fano) == 1
    assert density_flow(fano) == 1


def test_density_k_regular_is_one():
    for k, n, seed in [(2, 3, 0), (4, 8, 3)]:
        hg = gen_k_regular_k_uniform(k, n, seed=seed)
        assert hg is not None
        assert density_exact(hg) == 1


def test_density_flow_matches_exact_on_random_instances():
    rnd = random.Random(2024)
    for _ in range(100):
        hg = random_hypergraph(rnd, rnd.randint(2, 10), rnd.randint(1, 12))
        exact = density_exact(hg)
        assert density_flow(hg) == exact
        assert naive_density(hg) == exact


def test_density_flow_rounds_run_exact_candidate_networks(monkeypatch):
    calls = []
    flow = density.edge_vertex_flow
    monkeypatch.setattr(
        density,
        "edge_vertex_flow",
        lambda hg, *caps: calls.append(caps) or flow(hg, *caps),
    )
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    path = [(v, v + 1) for v in range(6, 36)]
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    cases = [
        # The peel reaches K6 at 15 / 6 = 5 / 2 = D / s: no flow.
        (Hypergraph(37, tuple(k6 + path)), Fraction(5, 2), []),
        (gen_complete(2, 3, 3)[0], Fraction(3, 2), []),
        (gen_fano(), Fraction(1), []),
        # K4 plus a pendant edge: the peel finds L = 6 / 4 below D / s = 2,
        # and one flow at 3 / 2 certifies it.
        (Hypergraph(5, tuple(k4 + [(3, 4)])), Fraction(3, 2), [(2, 3, 2)]),
        # The peel stops at 4 / 5; the flow there cuts off the 5 / 6 part.
        (
            random_hypergraph(random.Random(27), 8, 6),
            Fraction(5, 6),
            [(5, 4, 5), (6, 5, 6)],
        ),
        # The golden input that keeps the flows in the CLI's golden tests.
        (
            parse_hypergraph((GOLDEN / "peel_miss.hgr").read_text()),
            Fraction(3, 2),
            [(3, 4, 3), (2, 3, 2)],
        ),
    ]
    for hg, lam, caps in cases:
        calls.clear()
        assert density_flow(hg) == lam
        assert calls == caps


def test_peel_bounds_density_and_flow_matches_exact():
    # The peel's value is the density of an edge subset, so never above L;
    # every route out of density_flow must occur.
    rnd = random.Random(2026)
    below = degree_exit = one_flow = 0
    for _ in range(2000):
        hg = random_hypergraph(rnd, rnd.randint(2, 10), rnd.randint(1, 12))
        peel, _, removed = density._peel_density(hg)
        assert sorted(removed) == list(range(len(hg.edges)))  # each edge once
        exact = density_exact(hg)
        assert peel <= exact == density_flow(hg), hg
        met = metrics(hg)
        if peel < exact:
            below += 1
        elif peel == Fraction(met.max_degree, met.min_edge_size):
            degree_exit += 1
        else:
            one_flow += 1
    assert below >= 40 and degree_exit >= 300 and one_flow >= 1000


def test_density_guard():
    rnd = random.Random(1)
    hg = random_hypergraph(rnd, 12, 25)
    with pytest.raises(GuardExceededError):
        density_exact(hg)


def test_density_exact_rejects_an_edgeless_input():
    with pytest.raises(ValueError, match="empty edge set"):
        density_exact(Hypergraph(3, ()))


def test_density_at_most_degree_ratio():
    rnd = random.Random(5)
    for _ in range(60):
        hg = random_hypergraph(rnd, rnd.randint(2, 8), rnd.randint(1, 9))
        met = metrics(hg)
        assert density_exact(hg) <= Fraction(met.max_degree, met.min_edge_size)


def test_density_monotone_under_edge_addition():
    rnd = random.Random(6)
    for _ in range(40):
        hg = random_hypergraph(rnd, 6, rnd.randint(1, 7))
        size = rnd.randint(2, 4)
        extra = tuple(sorted(rnd.sample(range(6), size)))
        bigger = Hypergraph(6, hg.edges + (extra,))
        assert density_exact(bigger) >= density_exact(hg)


def test_bound_sparse_examples():
    res = bounds(gen_complete(2, 3, 3)[0])
    assert res.sparse == 3 and res.two_colorable
    hg = gen_k_regular_k_uniform(4, 8, seed=1)
    res = bounds(hg)
    assert res.sparse == 2 and res.two_colorable
    res = bounds(gen_fano())
    assert res.sparse == 2 and not res.two_colorable


def test_bound_degree_examples():
    assert bounds(gen_complete(2, 3, 3)[0]).degree == 3
    hg = gen_k_regular_k_uniform(4, 8, seed=1)
    assert bounds(hg).degree == 2
    assert bounds(Hypergraph(3, ((0, 1, 2),))).degree == 2


def test_bound_gk_examples():
    assert bound_gk(gen_fano()) == 3
    assert bound_gk(gen_complete(2, 3, 3)[0]) == 4
    assert bound_gk(Hypergraph(2, ((0, 1),))) == 2


def test_bound_chain_on_two_colorable_instances():
    rnd = random.Random(9)
    checked = 0
    while checked < 30:
        hg = random_hypergraph(rnd, rnd.randint(2, 8), rnd.randint(1, 8))
        res = bounds(hg)
        if not res.two_colorable:
            continue
        checked += 1
        assert res.density == density_exact(hg)
        assert res.sparse <= res.degree <= res.gk == bound_gk(hg)
