import random

import pytest

from hyperchoose import (
    Bipartition,
    Coloring,
    GuardExceededError,
    Hypergraph,
    HgrFormatError,
    ListAssignment,
    bipartition_is_valid,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    is_proper,
    metrics,
    parse_hypergraph,
    serialize_hypergraph,
    validate,
)
from oracles import exhaustive_two_colorable, first_bipartition, random_hypergraph

K33_TEXT = "p hg 6 9\n" + "".join(f"e {a} {b}\n" for a in (0, 1, 2) for b in (3, 4, 5))


def test_parse_single_edge():
    hg = parse_hypergraph("p hg 3 1\ne 0 1 2\n")
    assert hg.n == 3
    assert hg.edges == ((0, 1, 2),)


def test_parse_k33_matches_generator():
    assert parse_hypergraph(K33_TEXT) == gen_complete(2, 3, 3)[0]


def test_parse_comments_and_ordering():
    hg = parse_hypergraph("c a comment\np hg 4 2\ne 3 0\nc mid\ne 1 2\n")
    assert hg.edges == ((0, 3), (1, 2))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p hg 2 1\ne 0 0\n", "duplicate vertex"),
        ("p hg 2 1\ne 0\n", "size < 2"),
        ("p hg 2 1\ne 0 2\n", "outside"),
        ("p hg 2 1\ne 0 -1\n", "outside"),
        ("e 0 1\n", "before header"),
        ("p hg 2 2\ne 0 1\n", "declares 2 edges"),
        ("p hg 2 1\ne 0 1\np hg 2 1\n", "duplicate header"),
        ("p hg 2 1\nq 0 1\n", "unknown line"),
        ("p graph 2 1\ne 0 1\n", "malformed header"),
        ("", "missing header"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(HgrFormatError) as err:
        parse_hypergraph(text)
    assert fragment in str(err.value)


def test_roundtrip_reproduces_edges():
    rnd = random.Random(42)
    for _ in range(25):
        hg = random_hypergraph(rnd, rnd.randint(2, 9), rnd.randint(1, 8))
        again = parse_hypergraph(serialize_hypergraph(hg))
        assert again.n == hg.n and again.edges == hg.edges
        assert serialize_hypergraph(again) == serialize_hypergraph(hg)


def test_serialize_is_bit_exact():
    hg = Hypergraph(4, ((2, 0), (3, 1)))
    assert serialize_hypergraph(hg) == "p hg 4 2\ne 0 2\ne 1 3\n"


def test_metrics_fano():
    # Count incidences of the 7-line construction directly.
    fano = gen_fano()
    incidence = [sum(v in e for e in fano.edges) for v in range(7)]
    assert incidence == [3] * 7
    met = metrics(fano)
    assert (met.max_degree, met.min_edge_size, met.uniform, met.edge_count) == (3, 3, 3, 7)


def test_metrics_k33_and_single_edge():
    met = metrics(gen_complete(2, 3, 3)[0])
    assert (met.max_degree, met.min_edge_size, met.uniform, met.edge_count) == (3, 2, 2, 9)
    met = metrics(Hypergraph(3, ((0, 1, 2),)))
    assert (met.max_degree, met.min_edge_size, met.uniform, met.edge_count) == (1, 3, 3, 1)


def test_metrics_mixed_sizes_and_empty():
    met = metrics(Hypergraph(4, ((0, 1), (0, 1, 2))))
    assert met.uniform is None
    with pytest.raises(ValueError):
        metrics(Hypergraph(3, ()))


def test_is_proper():
    edge = Hypergraph(2, ((0, 1),))
    assert is_proper(edge, Coloring((1, 2)))
    assert not is_proper(edge, Coloring((1, 1)))


def test_no_two_coloring_of_fano_is_proper():
    fano = gen_fano()
    import itertools

    for cols in itertools.product((1, 2), repeat=7):
        assert not is_proper(fano, Coloring(cols))


def test_find_bipartition_k33():
    hg, bip = gen_complete(2, 3, 3)
    found = find_bipartition(hg)
    assert found == bip  # defining triples, A-first tie-break


def test_find_bipartition_fano_absent():
    assert find_bipartition(gen_fano()) is None
    assert not exhaustive_two_colorable(gen_fano())


def test_find_bipartition_single_edge():
    found = find_bipartition(Hypergraph(3, ((0, 1, 2),)))
    assert found is not None
    assert found.side == ("A", "A", "B")  # lexicographic first


def test_find_bipartition_agrees_with_exhaustive():
    rnd = random.Random(7)
    for _ in range(40):
        hg = random_hypergraph(rnd, rnd.randint(2, 9), rnd.randint(1, 7), max_size=3)
        found = find_bipartition(hg)
        assert (found is not None) == exhaustive_two_colorable(hg)
        if found is not None:
            assert bipartition_is_valid(hg, found)


def test_find_bipartition_is_lex_first():
    rnd = random.Random(2024)
    uncolorable = 0
    for _ in range(240):
        n = rnd.randint(1, 10)
        m = rnd.randint(0, 14) if n > 1 else 0
        hg = random_hypergraph(rnd, n, m, max_size=3)
        expected = first_bipartition(hg)
        found = find_bipartition(hg)
        if expected is None:
            uncolorable += 1
            assert found is None
        else:
            assert found is not None and found.side == expected
    assert uncolorable >= 20


def test_find_bipartition_node_guard():
    with pytest.raises(GuardExceededError):
        find_bipartition(gen_fano(), max_nodes=1)
    assert find_bipartition(gen_fano(), max_nodes=None) is None


def test_gen_complete_counts():
    assert len(gen_complete(2, 3, 3)[0].edges) == 9
    assert len(gen_complete(3, 2, 2)[0].edges) == 4
    assert len(gen_complete(4, 2, 3)[0].edges) == 5


def test_gen_complete_exact_edge_set():
    # Every s-subset meeting both parts appears exactly once.
    from itertools import combinations

    for s, n, m in [(2, 3, 3), (3, 2, 4), (4, 3, 3), (2, 1, 5)]:
        hg, bip = gen_complete(s, n, m)
        expected = {
            c
            for c in combinations(range(n + m), s)
            if any(v < n for v in c) and any(v >= n for v in c)
        }
        assert set(hg.edges) == expected
        assert len(hg.edges) == len(expected)
        assert bipartition_is_valid(hg, bip)


def test_gen_complete_rejects_infeasible():
    with pytest.raises(ValueError):
        gen_complete(1, 3, 3)
    with pytest.raises(ValueError):
        gen_complete(5, 2, 2)
    with pytest.raises(ValueError):
        gen_complete(2, 0, 3)


def test_gen_fano_not_two_colorable():
    assert find_bipartition(gen_fano()) is None


def test_gen_regular_triangle():
    hg = gen_k_regular_k_uniform(2, 3, seed=0)
    assert hg is not None
    assert sorted(hg.edges) == [(0, 1), (0, 2), (1, 2)]


def test_gen_regular_4_uniform():
    hg = gen_k_regular_k_uniform(4, 8, seed=1)
    assert hg is not None
    met = metrics(hg)
    assert met.uniform == 4 and met.edge_count == 8
    assert hg.degrees() == [4] * 8
    assert sum(hg.degrees()) == 4 * 8


def test_gen_regular_degree_identity_across_seeds():
    for seed in range(5):
        for k, n in [(2, 4), (3, 5), (4, 6)]:
            hg = gen_k_regular_k_uniform(k, n, seed=seed)
            assert hg is not None
            assert hg.degrees() == [k] * n and len(hg.edges) == n


def test_gen_regular_infeasible():
    with pytest.raises(ValueError):
        gen_k_regular_k_uniform(4, 3, seed=0)
    with pytest.raises(ValueError):
        gen_k_regular_k_uniform(1, 3, seed=0)


def test_validate_flags_duplicates():
    hg = Hypergraph(3, ((0, 1), (0, 1)))
    warnings = validate(hg)
    assert len(warnings) == 1 and "duplicates" in warnings[0]
    assert validate(gen_fano()) == []


def test_constructor_invariants():
    with pytest.raises(ValueError):
        Hypergraph(3, ((0,),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 0),))
    with pytest.raises(ValueError):
        ListAssignment(((1, 1),))
    with pytest.raises(ValueError):
        ListAssignment(((),))
    with pytest.raises(ValueError):
        Bipartition(("A", "C"))


def test_list_assignment_json_roundtrip():
    la = ListAssignment(((2, 1), (5,)))
    assert la.lists == ((1, 2), (5,))
    assert ListAssignment.from_json(la.to_json()) == la
    with pytest.raises(HgrFormatError):
        ListAssignment.from_json({"n": 3, "lists": [[1]]})
