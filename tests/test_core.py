import random
import re

import pytest

from hyperchoose import (
    GuardExceededError,
    Hypergraph,
    InputError,
    ListAssignment,
    PreconditionError,
    bipartition_is_valid,
    coefficient_count,
    core,
    density,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    is_proper,
    list_color_sparse,
    metrics,
    parse_hypergraph,
    random_split_color_report,
    reduce_to_pairgraph,
    serialize_hypergraph,
    validate,
)
from oracles import (
    exhaustive_two_colorable,
    first_bipartition,
    first_list_coloring,
    flat_reference_flow,
    random_hypergraph,
    reference_gen_k_regular_k_uniform,
)

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


# (document, fragment, the full message).  The fragment keeps each case's id.
MALFORMED = [
    ("p hg 2 1\ne 0 0\n", "duplicate vertex", "line 2: duplicate vertex in edge"),
    ("p hg 2 1\ne 0\n", "size < 2", "line 2: edge of size < 2"),
    ("p hg 2 1\ne 0 2\n", "outside", "line 2: vertex index 2 outside 0..1"),
    ("p hg 2 1\ne 0 -1\n", "outside", "line 2: vertex index -1 outside 0..1"),
    ("e 0 1\n", "before header", "line 1: edge line before header"),
    ("p hg 2 2\ne 0 1\n", "declares 2 edges", "header declares 2 edges but document has 1"),
    ("p hg 2 1\ne 0 1\np hg 2 1\n", "duplicate header", "line 3: duplicate header line"),
    ("p hg 2 1\nq 0 1\n", "unknown line", "line 2: unknown line type 'q'"),
    ("p graph 2 1\ne 0 1\n", "malformed header", "line 1: malformed header 'p graph 2 1'"),
    ("", "missing header", "missing header line"),
    # The first vertex out of range in line order, not in sorted order.
    ("p hg 2 1\ne 5 -1\n", "outside", "line 2: vertex index 5 outside 0..1"),
    ("p hg 3 1\ne\t5\t0\n", "tab-separated", "line 2: vertex index 5 outside 0..2"),
    ("p hg 3 1\n \t \ne 0 3\n", "whitespace-only line", "line 3: vertex index 3 outside 0..2"),
    ("p hg 3 2\r\ne 2 0\r\ne 1\r\n", "CRLF", "line 3: edge of size < 2"),
    ("p hg 3 1\ncx 1 2\ne 0 0\n", "cx comment", "line 3: duplicate vertex in edge"),
    ("cx\np hg 2 1\n\n  e 0 x  \n", "non-integer vertex", "line 4: non-integer vertex in 'e 0 x'"),
    (" p hg x 1\n", "non-integer header", "line 1: non-integer header field in 'p hg x 1'"),
    ("p hg -1 0\n", "negative count", "line 1: negative count in header"),
    ("p  hg 2  1 extra \n", "malformed header", "line 1: malformed header 'p  hg 2  1 extra'"),
    ("p hg 2 1\n\x0cq\n", "form feed", "line 3: unknown line type 'q'"),
]


@pytest.mark.parametrize(
    "text,message", [(t, m) for t, _, m in MALFORMED], ids=[f"{t}-{f}" for t, f, _ in MALFORMED]
)
def test_parse_rejects_malformed(text, message):
    with pytest.raises(InputError) as err:
        parse_hypergraph(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "p hg 3 1\ne\t2\t0\n",
        "p hg 3 1\n \t \ne 2 0\n",
        "p hg 3 1\r\ne 2 0\r\n",
        "p hg 3 1\ncx 1 2\n  e 0  2 \n",
    ],
    ids=["tab-separated", "whitespace-only line", "CRLF", "cx comment"],
)
def test_parse_accepts_any_whitespace_and_comment(text):
    hg = parse_hypergraph(text)
    assert hg.n == 3 and hg.edges == ((0, 2),)


def test_roundtrip_reproduces_edges():
    # The parser builds its hypergraph without the constructor's checks; on
    # seeded instances it still equals the original, with the same n and
    # edge order, and its edges pass the public constructor unchanged.
    rnd = random.Random(42)
    for _ in range(200):
        n = rnd.randint(2, 40)
        hg = random_hypergraph(rnd, n, rnd.randint(0, 3 * n))
        again = parse_hypergraph(serialize_hypergraph(hg))
        assert again == hg and again.n == hg.n and again.edges == hg.edges
        assert Hypergraph(again.n, again.edges).edges == again.edges
        assert serialize_hypergraph(again) == serialize_hypergraph(hg)


def test_equality_follows_the_stored_edge_order():
    hg = Hypergraph(4, ((0, 1), (2, 3), (1, 2)))
    same = Hypergraph(4, ((1, 0), (3, 2), (2, 1)))
    assert hg == same and hash(hg) == hash(same)
    assert hg != Hypergraph(4, ((2, 3), (0, 1), (1, 2)))
    assert hg != Hypergraph(5, hg.edges)


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
    assert is_proper(edge, (1, 2))
    assert not is_proper(edge, (1, 1))


def test_no_two_coloring_of_fano_is_proper():
    fano = gen_fano()
    import itertools

    for cols in itertools.product((1, 2), repeat=7):
        assert not is_proper(fano, cols)


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
    assert found == ("A", "A", "B")  # lexicographic first


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
            assert found is not None and found == expected
    assert uncolorable >= 20


def test_list_search_identical_lists_is_lex_first():
    # Identical lists switch on the symmetry cut; the first coloring in
    # ascending value order must survive it, also when the shared values
    # leave gaps.
    rnd = random.Random(99)
    uncolorable = 0
    for _ in range(400):
        r = rnd.randint(1, 4)
        n = rnd.randint(1, 8 if r < 4 else 7)
        m = rnd.randint(0, 3 * n) if n > 1 else 0
        hg = random_hypergraph(rnd, n, m, max_size=rnd.choice((2, 3)))
        shared = tuple(sorted(rnd.sample(range(10), r)))
        lists = [shared] * n
        expected = first_list_coloring(hg, lists)
        found = core._ListSearch(hg.n, hg.edges).solve(lists)
        if expected is None:
            uncolorable += 1
            assert found is None
        else:
            assert found is not None and tuple(found) == expected
    assert uncolorable >= 50


def test_list_search_ignores_the_order_within_lists():
    # Each vertex tries its values in ascending order, whatever the order of
    # its list: shuffled lists give the first coloring over the sorted ones.
    rnd = random.Random(31)
    uncolorable = differs = 0
    for _ in range(300):
        n = rnd.randint(1, 7)
        m = rnd.randint(0, 3 * n) if n > 1 else 0
        hg = random_hypergraph(rnd, n, m, max_size=rnd.choice((2, 3)))
        lists = [sorted(rnd.sample(range(6), rnd.randint(1, 3))) for _ in range(n)]
        shuffled = [rnd.sample(lv, len(lv)) for lv in lists]
        differs += shuffled != lists
        search = core._ListSearch(hg.n, hg.edges)
        expected = first_list_coloring(hg, lists)
        found = search.solve(shuffled)
        assert found == search.solve(lists)
        if expected is None:
            uncolorable += 1
            assert found is None
        else:
            assert found is not None and tuple(found) == expected
    assert uncolorable >= 10 and differs >= 200


def test_list_search_symmetry_cut_halves_fano_refutation():
    # Without the cut, refuting a 2-coloring of the Fano plane takes 22
    # decisions; fixing vertex 0 to the first value halves that.
    search = core._ListSearch(7, gen_fano().edges)
    assert search.solve([("A", "B")] * 7) is None
    assert search.nodes == 11


def test_find_bipartition_node_guard(monkeypatch):
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 1)
    with pytest.raises(GuardExceededError):
        find_bipartition(gen_fano())  # 11 decisions, over 1 + 7 vertices


def test_find_bipartition_node_guard_spares_one_decision_per_vertex(monkeypatch):
    # 49 decisions and no backtracking: far over the guard, within guard + n.
    monkeypatch.setattr(core, "SEARCH_NODE_GUARD", 10)
    hg = Hypergraph(50, ((0, 1),))
    bip = find_bipartition(hg)
    assert bip is not None and bipartition_is_valid(hg, bip)


def test_edge_vertex_flow_matches_reference_on_random_hypergraphs():
    # The whole triple, flow value, flowing incidences' vertices and cut side,
    # must equal the explicit-arc Dinic's on every capacity shape in use:
    # (b, a, b) below and above density 1, (1, k, 1) and (2, k, 1).
    rnd = random.Random(13)
    seen = {"empty": 0, "duplicate": 0, "isolated": 0}
    for _ in range(2000):
        n = rnd.randint(2, 12)
        m = 0 if rnd.random() < 0.05 else rnd.randint(1, 3 * n)
        edges = list(random_hypergraph(rnd, n, m).edges)
        if edges and rnd.random() < 0.3:
            edges += rnd.choices(edges, k=rnd.randint(1, 3))
        hg = Hypergraph(n, tuple(edges))
        seen["empty"] += not edges
        seen["duplicate"] += len(set(edges)) < len(edges)
        seen["isolated"] += len({v for e in edges for v in e}) < n
        assert core._incidence(n, edges) == [
            [j for j, e in enumerate(edges) if v in e] for v in range(n)
        ]
        b = rnd.randint(2, 6)
        k = rnd.randint(1, 4)
        for caps in (
            (b, rnd.randint(1, b - 1), b),
            (b, rnd.randint(b + 1, 3 * b), b),
            (1, k, 1),
            (2, k, 1),
        ):
            got = core.edge_vertex_flow(hg, *caps)
            assert got == flat_reference_flow(hg, *caps), (hg, caps)
    assert min(seen.values()) >= 50, seen


def test_edge_vertex_flow_matches_reference_on_deep_networks():
    # Level graphs up to about 24 layers deep, and one about 600 deep, which
    # the small networks above rarely build: the tight density flow at the
    # peel's value on random 3-uniform hypergraphs, the unit and gk flows on
    # 3-regular 3-uniform ones, and a chain whose one augmenting path runs
    # through every vertex.
    rnd = random.Random(17)
    networks = []
    for n in range(30, 121, 15):
        for m in (n, 2 * n):
            hg = random_hypergraph(rnd, n, m, 3, 3)
            lam = density._peel_density(hg)[0]
            networks.append((hg, (lam.denominator, lam.numerator, lam.denominator)))
        hg = gen_k_regular_k_uniform(3, n, seed=n)
        networks += [(hg, (1, 1, 1)), (hg, (2, 2, 1))]
    chain = Hypergraph(300, tuple((i, i + 1) for i in range(299)) + ((0, 1),))
    networks.append((chain, (1, 1, 1)))
    for hg, caps in networks:
        got = core.edge_vertex_flow(hg, *caps)
        assert got == flat_reference_flow(hg, *caps), (hg, caps)

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


def test_gen_regular_matches_reference(monkeypatch):
    # The grid holds budgets that run out: 786 of its 1 920 cases give None,
    # on both sides alike.
    nones = 0
    for k in range(2, 6):
        for n in [*range(k, k + 12), 50, 101, 1000]:
            for seed in range(8):
                for proposals in (1, 3, 50, 100_000):
                    monkeypatch.setattr(core, "PROPOSAL_BUDGET", proposals)
                    got = gen_k_regular_k_uniform(k, n, seed)
                    want = reference_gen_k_regular_k_uniform(k, n, seed, proposals)
                    case = (k, n, seed, proposals)
                    if want is None:
                        nones += 1
                        assert got is None, case
                    else:
                        assert (got.n, got.edges) == (want.n, want.edges), case
    assert nones == 786
    monkeypatch.undo()
    got = gen_k_regular_k_uniform(3, 10_000, 5)
    want = reference_gen_k_regular_k_uniform(3, 10_000, 5)
    assert (got.n, got.edges) == (want.n, want.edges)


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


# Two 3-edges and an isolated vertex 4, with a valid siding and three bad
# ones: a label C on the isolated vertex, a short tuple, and edge (0, 1, 2)
# inside side A.
LOOSE = Hypergraph(5, ((0, 1, 2), (1, 2, 3)))
LOOSE_SIDES = ("A", "A", "B", "A", "A")
BAD_SIDES = [("A", "A", "B", "A", "C"), ("A", "A", "B", "A"), ("A", "A", "A", "B", "A")]


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (-1, (), "vertex count must be nonnegative"),
        (3, ((0,),), "edge (0,) has size < 2"),
        (3, ((1, 0, 1),), "duplicate vertex in edge (0, 1, 1)"),
        (3, ((2, 3),), "edge (2, 3) has a vertex outside 0..2"),
        (3, ((0, -1),), "edge (-1, 0) has a vertex outside 0..2"),
    ],
)
def test_public_constructor_checks_every_edge(n, edges, message):
    with pytest.raises(ValueError) as err:
        Hypergraph(n, ((0, 1),) + edges if n > 0 else edges)
    assert str(err.value) == message


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
    # A 2-coloring is a plain tuple, so bipartition_is_valid makes the checks
    # a constructor would: labels, length, and every edge meeting both sides.
    assert bipartition_is_valid(LOOSE, LOOSE_SIDES)
    for bad in BAD_SIDES:
        assert not bipartition_is_valid(LOOSE, bad)
    assert is_proper(LOOSE, BAD_SIDES[0])  # the label check is not properness


@pytest.mark.parametrize("bad", BAD_SIDES)
@pytest.mark.parametrize(
    "step",
    [
        lambda bip: list_color_sparse(LOOSE, bip, ListAssignment(((1, 2, 3),) * 5)),
        lambda bip: reduce_to_pairgraph(LOOSE, bip, (0, 3)),
        lambda bip: coefficient_count(LOOSE, bip, (0, 3)),
        lambda bip: random_split_color_report(
            LOOSE, bip, ListAssignment(((1, 2, 3),) * 5), 1, 0
        ),
    ],
    ids=["list_color_sparse", "reduce_to_pairgraph", "coefficient_count", "split_color"],
)
def test_invalid_bipartition_is_a_precondition_error(step, bad):
    with pytest.raises(PreconditionError):
        step(bad)


def test_list_assignment_json_roundtrip():
    la = ListAssignment(((2, 1), (5,)))
    assert la.lists == ((1, 2), (5,))
    assert ListAssignment.from_json(la.to_json()) == la
    with pytest.raises(InputError):
        ListAssignment.from_json({"n": 3, "lists": [[1]]})


TYPES = "list assignment needs an integer n and lists of integer colors"


FROM_JSON_CASES = [
    ({"lists": [[1]]}, InputError, "list assignment document missing field: 'n'"),
    ({"n": 1}, InputError, "list assignment document missing field: 'lists'"),
    ({"n": 1.0, "lists": [[1]]}, InputError, TYPES),
    ({"n": True, "lists": [[1]]}, InputError, TYPES),
    ({"n": 1, "lists": [[1.5]]}, InputError, TYPES),
    ({"n": 1, "lists": [["1"]]}, InputError, TYPES),
    ({"n": 1, "lists": [[False, 2]]}, InputError, TYPES),
    ({"n": 1, "lists": {"0": [1]}}, InputError, TYPES),
    ({"n": 2, "lists": [[1], (2,)]}, InputError, TYPES),
    ({"n": 3, "lists": [[1]]}, InputError, "list assignment declares n=3 but carries 1 lists"),
    ({"n": 2, "lists": [[1], []]}, ValueError, "vertex 1: empty color list"),
    ({"n": 1, "lists": [[2, 1, 2]]}, ValueError, "vertex 0: duplicate color in list (1, 2, 2)"),
    ({"n": 2, "lists": [[0], [3, -1]]}, ValueError, "vertex 1: negative color in list (-1, 3)"),
    # A type fault anywhere, then a count mismatch, outranks a value fault.
    ({"n": 2, "lists": [[], ["a"]]}, InputError, TYPES),
    ({"n": 3, "lists": [[], [1]]}, InputError, "list assignment declares n=3 but carries 2 lists"),
    ({"n": 2, "lists": [[1, 1], [-1]]}, ValueError, "vertex 0: duplicate color in list (1, 1)"),
    ([1, 2], InputError, "list assignment document must be a JSON object"),
    ("x", InputError, "list assignment document must be a JSON object"),
    (None, InputError, "list assignment document must be a JSON object"),
    (3, InputError, "list assignment document must be a JSON object"),
]


# The ids keep HgrFormatError, the input-error type's name before it became
# InputError, so that these test names stayed the same across the rename.
@pytest.mark.parametrize(
    "doc, error, message",
    FROM_JSON_CASES,
    ids=[
        f"doc{i}-{'HgrFormatError' if error is InputError else error.__name__}-{message}"
        for i, (_, error, message) in enumerate(FROM_JSON_CASES)
    ],
)
def test_list_assignment_from_json_messages(doc, error, message):
    with pytest.raises(error) as exc:
        ListAssignment.from_json(doc)
    assert str(exc.value) == message
    if error is ValueError:
        assert not isinstance(exc.value, InputError)
        with pytest.raises(ValueError) as direct:
            ListAssignment(tuple(map(tuple, doc["lists"])))
        assert str(direct.value) == message


def test_from_json_follows_its_precedence_rule_on_random_documents():
    # Faults of every kind at random places: a type fault anywhere wins, then
    # a count mismatch, then the constructor's first value fault.
    class Color(int):
        pass

    def integer(value):
        return isinstance(value, int) and type(value) is not bool

    not_ints = [True, False, 1.0, 2.5, "1", None]
    rng = random.Random(20261017)
    seen = set()
    for _ in range(3000):
        lists = []
        for _ in range(rng.randint(0, 5)):
            # Empty lists, duplicates and negative colors come from the draws.
            lv = [rng.randint(-2, 6) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.1:
                lv.insert(rng.randint(0, len(lv)), rng.choice(not_ints))
            if rng.random() < 0.1:
                lv.insert(rng.randint(0, len(lv)), Color(rng.randint(-1, 6)))
            if rng.random() < 0.05:
                lv = rng.choice([tuple(lv), {"0": lv}, 3])
            lists.append(lv)
        doc = {"n": len(lists) + rng.choice([0, 0, 0, 1, -1]), "lists": lists}
        if rng.random() < 0.05:
            doc["n"] = rng.choice(not_ints + [Color(len(lists))])
        if rng.random() < 0.03:
            doc["lists"] = tuple(lists)
        if rng.random() < 0.03:
            del doc[rng.choice(["n", "lists"])]

        if "n" not in doc or "lists" not in doc:
            field = "n" if "n" not in doc else "lists"
            expected = InputError(f"list assignment document missing field: '{field}'")
        elif not (
            integer(doc["n"])
            and type(doc["lists"]) is list
            and all(type(lv) is list and all(map(integer, lv)) for lv in lists)
        ):
            expected = InputError(TYPES)
        elif len(lists) != doc["n"]:
            expected = InputError(
                f"list assignment declares n={doc['n']} but carries {len(lists)} lists"
            )
        else:
            try:
                expected = ListAssignment(tuple(map(tuple, lists)))
            except ValueError as exc:
                expected = exc
        try:
            got = ListAssignment.from_json(doc)
        except ValueError as exc:
            got = exc
        if isinstance(expected, ListAssignment):
            assert got == expected, doc
            seen.add("valid")
        else:
            assert (type(got), str(got)) == (type(expected), str(expected)), doc
            seen.add(re.sub(r"-?\d+|\(.*\)", "#", str(expected)))
    # Every outcome occurs, a valid document among them.
    assert seen == {
        "list assignment document missing field: 'n'",
        "list assignment document missing field: 'lists'",
        TYPES,
        "list assignment declares n=# but carries # lists",
        "vertex #: empty color list",
        "vertex #: duplicate color in list #",
        "vertex #: negative color in list #",
        "valid",
    }
