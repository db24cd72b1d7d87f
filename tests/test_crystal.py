import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from time import process_time

import pytest

from skelpoly import (
    Tableau,
    build_crystal,
    crystal_skeleton,
    descent_composition,
    descent_set,
    edge_count,
    evacuation,
    graph_json,
    inner_crystal,
    lowering_operator,
    max_descent_length,
    partitions,
    qsym_fundamental,
    raising_operator,
    row_word,
    semistandard_tableaux,
    standardize,
    tableau_stats,
    tableaux_from_table,
    to_dot,
    vertex_count,
    weight,
    yamanouchi_table,
)
from skelpoly import crystal
from skelpoly.cli import _json_chunks
from skelpoly.poly import MultiPoly


def _written(obj) -> str:
    return "".join(_json_chunks(obj))

# The bounded crystal on shape (3,2) with entries <= 3, edges keyed by rows.
FIGURE_EDGES = {
    (((1, 1, 1), (2, 2)), 2, ((1, 1, 1), (2, 3))),
    (((1, 1, 2), (2, 2)), 2, ((1, 1, 3), (2, 2))),
    (((1, 1, 1), (2, 3)), 2, ((1, 1, 1), (3, 3))),
    (((1, 1, 3), (2, 2)), 2, ((1, 1, 3), (2, 3))),
    (((1, 1, 3), (2, 3)), 2, ((1, 1, 3), (3, 3))),
    (((1, 1, 1), (3, 3)), 1, ((1, 1, 2), (3, 3))),
    (((1, 1, 2), (3, 3)), 1, ((1, 2, 2), (3, 3))),
    (((1, 1, 3), (3, 3)), 1, ((1, 2, 3), (3, 3))),
    (((1, 2, 2), (3, 3)), 1, ((2, 2, 2), (3, 3))),
    (((1, 2, 3), (3, 3)), 1, ((2, 2, 3), (3, 3))),
    # edges joining distinct quasi-crystals (drawn dotted)
    (((1, 1, 1), (2, 2)), 1, ((1, 1, 2), (2, 2))),
    (((1, 1, 1), (2, 3)), 1, ((1, 1, 2), (2, 3))),
    (((1, 1, 2), (2, 3)), 1, ((1, 2, 2), (2, 3))),
    (((1, 1, 2), (2, 3)), 2, ((1, 1, 2), (3, 3))),
    (((1, 1, 3), (2, 3)), 1, ((1, 2, 3), (2, 3))),
    (((1, 2, 2), (2, 3)), 2, ((1, 2, 3), (2, 3))),
    (((1, 2, 3), (2, 3)), 2, ((1, 2, 3), (3, 3))),
    (((2, 2, 2), (3, 3)), 2, ((2, 2, 3), (3, 3))),
}

FIGURE_CLASSES = {
    (3, 2): {
        ((1, 1, 1), (2, 2)),
        ((1, 1, 1), (2, 3)),
        ((1, 1, 1), (3, 3)),
        ((1, 1, 2), (3, 3)),
        ((1, 2, 2), (3, 3)),
        ((2, 2, 2), (3, 3)),
    },
    (2, 3): {
        ((1, 1, 2), (2, 2)),
        ((1, 1, 3), (2, 2)),
        ((1, 1, 3), (2, 3)),
        ((1, 1, 3), (3, 3)),
        ((1, 2, 3), (3, 3)),
        ((2, 2, 3), (3, 3)),
    },
    (2, 2, 1): {((1, 1, 2), (2, 3))},
    (1, 3, 1): {((1, 2, 2), (2, 3))},
    (1, 2, 2): {((1, 2, 3), (2, 3))},
}


def test_row_word():
    assert row_word(Tableau.of([[1, 1, 1, 2], [3, 4], [4]])) == (4, 3, 4, 1, 1, 1, 2)
    assert row_word(Tableau.of([[2, 5, 7]])) == (2, 5, 7)
    assert row_word(Tableau.of([[1, 1, 2, 5], [3, 8], [8]])) == (8, 3, 8, 1, 1, 2, 5)
    with pytest.raises(ValueError):
        row_word(Tableau(()))


def test_lowering_operator_examples():
    assert lowering_operator(Tableau.of([[1, 1, 1], [2, 2]]), 2) == Tableau.of(
        [[1, 1, 1], [2, 3]]
    )
    assert lowering_operator(Tableau.of([[1, 1, 3], [3, 3]]), 1) == Tableau.of(
        [[1, 2, 3], [3, 3]]
    )
    # word 3412 for color 2: the single 2 is bracket-matched by the 3
    assert lowering_operator(Tableau.of([[1, 2], [3, 4]]), 2) is None
    assert raising_operator(Tableau.of([[1, 1], [2, 2]]), 1) is None
    with pytest.raises(ValueError):
        lowering_operator(Tableau.of([[1]]), 0)


def test_operators_are_inverse_on_bounded_crystal():
    graph = build_crystal((3, 2), 3)
    for t in graph.vertices:
        for color in (1, 2):
            image = lowering_operator(t, color)
            if image is not None:
                assert image.is_semistandard()
                assert image.shape == t.shape
                assert raising_operator(image, color) == t
            back = raising_operator(t, color)
            if back is not None:
                assert lowering_operator(back, color) == t


def test_figure_crystal_golden():
    graph = build_crystal((3, 2), 3)
    assert len(graph.vertices) == 15
    edges = {
        (graph.vertices[u].rows, color, graph.vertices[v].rows)
        for u, color, v in graph.edges
    }
    assert edges == FIGURE_EDGES
    classes = graph.classes
    assert {qc.descent: {t.rows for t in qc.members} for qc in classes} == FIGURE_CLASSES
    for qc in classes:
        assert qc.representative.is_standard()
        assert all(tableau_stats(t).descent_composition == qc.descent for t in qc.members)


@pytest.mark.parametrize(
    "lam, bound",
    [(lam, b) for n in range(7) for lam in partitions(n) if lam for b in range(len(lam), 6)]
    + [((3, 2, 1), 7)],
)
def test_build_crystal_against_per_tableau_operators(lam, bound):
    graph = build_crystal(lam, bound)
    vertices = graph.vertices
    assert vertices == tuple(semistandard_tableaux(lam, bound))
    index = {t: i for i, t in enumerate(vertices)}
    expected_edges = []
    for u, t in enumerate(vertices):
        for color in range(1, bound):
            image = lowering_operator(t, color)
            if image is not None:
                expected_edges.append((u, color, index[image]))
    assert graph.edges == tuple(sorted(expected_edges))
    for u, color, v in graph.edges:
        assert raising_operator(vertices[v], color) == vertices[u]

    groups = {}
    for i, t in enumerate(vertices):
        groups.setdefault(standardize(t), []).append(i)
    expected_classes = sorted(groups.items(), key=lambda item: row_word(item[0]))
    assert len(graph.classes) == len(expected_classes)
    for qc, (rep, members) in zip(graph.classes, expected_classes):
        assert qc.representative == rep
        assert qc.descent == descent_composition(rep)
        assert qc.indices == tuple(members)
        assert qc.members == tuple(vertices[i] for i in members)


@pytest.mark.parametrize("lam, bound", [((3, 2), 4), ((2, 2, 1), 5), ((4, 2, 1), 4), ((3, 1, 1), 6)])
def test_crystal_counts_match_closed_forms(lam, bound):
    graph = build_crystal(lam, bound)
    contents = hooks = 1
    for r, length in enumerate(lam):
        for c in range(length):
            contents *= bound + c - r
            hooks *= (length - c - 1) + sum(1 for part in lam[r + 1 :] if part > c) + 1
    assert len(graph.vertices) == vertex_count(lam, bound) == contents // hooks
    n = sum(lam)
    for qc in graph.classes:
        # F_alpha(1^b) = C(b - d + n - 1, n) with d = len(alpha) - 1 descents
        d = len(qc.descent) - 1
        assert len(qc.members) == comb(bound - d + n - 1, n)
    few_descents = [t for t, _ in tableaux_from_table(lam) if len(descent_set(t)) <= bound - 1]
    assert len(graph.classes) == len(few_descents)


def test_quasi_crystal_classes_are_connected():
    graph = build_crystal((3, 2), 3)
    index = {t: i for i, t in enumerate(graph.vertices)}
    for qc in graph.classes:
        members = {index[t] for t in qc.members}
        adjacency = {m: set() for m in members}
        for u, _, v in graph.edges:
            if u in members and v in members:
                adjacency[u].add(v)
                adjacency[v].add(u)
        seen = set()
        stack = [next(iter(members))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node])
        assert seen == members


def test_tableaux_of_a_graph_are_built_once():
    graph = build_crystal((2, 1), 3)
    assert graph.rows is graph.rows
    assert graph.vertices is graph.vertices
    qc = graph.classes[0]
    assert qc.members is qc.members
    assert qc.members == tuple(graph.vertices[i] for i in qc.indices)
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        graph.rows = ()


def test_build_crystal_checks_the_shape():
    with pytest.raises(ValueError, match="not a partition"):
        build_crystal((1, 2), 3)
    with pytest.raises(ValueError, match="not a partition"):
        build_crystal((2, -1), 3)


def test_crystal_of_a_tall_rectangle():
    # the rows under a row are drawn with room for the rows below, so the
    # fill does no work beyond the 455 vertices; the skeleton walks only the
    # SYT with at most 4 runs, 419 of the 2.9e12 SYT of the shape
    graph = build_crystal((12, 12, 12), 4)
    assert len(graph.rows) == vertex_count((12, 12, 12), 4) == 455
    assert sorted(i for qc in graph.classes for i in qc.indices) == list(range(455))
    assert all(t.is_semistandard() for t in graph.vertices)
    assert len(graph.classes) == 419
    assert len(graph.edges) == edge_count((12, 12, 12), 4) == 1092


@pytest.mark.parametrize("lam", [(2,), (1, 1)])
def test_crystal_at_a_bound_past_one_byte_per_letter(lam):
    # a bound of 256 or more packs each letter of a row word into two bytes;
    # about 45,000 vertices and 89,000 edges, each against the operator
    graph = build_crystal(lam, 300)
    vertices = graph.vertices
    # in numeric order of the letters, not in the order of their little-endian bytes
    assert vertices == tuple(semistandard_tableaux(lam, 300))
    assert all(lowering_operator(vertices[u], i) == vertices[v] for u, i, v in graph.edges)
    assert len(graph.edges) == edge_count(lam, 300)


def test_crystal_of_one_box_at_a_large_bound():
    # a vertex costs the letters of its row word, not the bound: one letter each here
    graph = build_crystal((1,), 20_000)
    assert graph.edges == tuple((x - 1, x, x) for x in range(1, 20_000))


def test_crystal_of_a_long_row():
    # one class of 991 vertices, joined by color 1 into one string in lexicographic order
    assert build_crystal((990,), 2).edges == tuple((k, 1, k + 1) for k in range(990))


def test_closed_forms_of_one_box_at_a_huge_bound():
    # one string x -> x + 1 through all 10**6 vertices, in one class
    assert edge_count((1,), 10**6) == 999_999
    assert crystal_skeleton((1,), 10**6) == ((Tableau.of([[1]]), (1,), 10**6),)


def test_skeleton_of_a_long_column_and_a_long_row():
    # the one SYT of a column of 40 cells has 40 runs of one cell, that of a row of
    # 1,000 cells one run of 1,000; the class sizes are C(bound + n - runs, n)
    column = Tableau.of([i] for i in range(1, 41))
    assert crystal_skeleton((1,) * 40, 40) == ((column, (1,) * 40, 1),)
    assert crystal_skeleton((1000,), 2) == ((Tableau.of([range(1, 1001)]), (1000,), 1001),)
    assert edge_count((1000,), 2) == 1000


def test_built_crystal_of_a_row_longer_than_the_recursion_limit():
    # the rows of the vertices grow one column per pass, so a child whose recursion
    # limit is below the row's 200 cells builds the whole graph
    statement = (
        "import sys; sys.setrecursionlimit(150)\n"
        "from skelpoly.crystal import build_crystal\n"
        "graph = build_crystal((200,), 2)\n"
        "print(len(graph.vertices), len(graph.edges))"
    )
    done = subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(crystal.__file__))},
    )
    assert done.stdout == f"{vertex_count((200,), 2)} {edge_count((200,), 2)}\n" == "201 200\n"


def test_skeleton_of_a_column_taller_than_the_recursion_limit():
    # the SYT walk is a loop and the partitions `edge_count` lists take a level per
    # distinct part, so a column of 1,200 cells recurses nowhere.  The skeleton reads
    # the column's one SYT off a fresh walk of one step per cell, in well under half a
    # second; the Kostka number grows only the one row with room at each value, so it
    # is not cubic in the rows
    column = (1,) * 1200
    yamanouchi_table.cache_clear()
    start = process_time()
    (qc,) = crystal_skeleton(column, 1200)
    assert process_time() - start < 0.5
    assert qc.descent == column and qc.size == 1
    assert qc.representative.rows == tuple((i,) for i in range(1, 1201))
    assert list(crystal.partitions_within(1200, 1200, 1)) == [column]
    start = process_time()
    assert edge_count(column, 1200) == 0
    assert process_time() - start < 3


@pytest.mark.parametrize("lam", [lam for n in range(9) for lam in partitions(n)])
def test_skeleton_and_edge_count_match_the_built_crystal(lam):
    # every bound from the number of rows to 8: the closed forms against the
    # built graph, and the skeleton, read off the walk cut at its bound, against
    # the unbounded SYT table filtered by run count
    n = sum(lam)
    table = tableaux_from_table(lam)
    for bound in range(len(lam), 9):
        graph = build_crystal(lam, bound)
        skeleton = crystal_skeleton(lam, bound)
        assert edge_count(lam, bound) == len(graph.edges)
        # three items of the flat array per edge, which the lazy triples read in order
        flat = graph.edge_array
        assert len(flat) == 3 * edge_count(lam, bound)
        assert graph.edges == tuple(tuple(flat[k : k + 3]) for k in range(0, len(flat), 3))
        assert skeleton == tuple(
            (qc.representative, qc.descent, len(qc.indices)) for qc in graph.classes
        )
        if bound <= 6:
            # the build takes its classes from the skeleton: check them against
            # standardization, which it does not use, and that they part the vertices
            vertices = graph.vertices
            assert all(
                standardize(vertices[i]) == qc.representative
                for qc in graph.classes
                for i in qc.indices
            )
            members = sorted(i for qc in graph.classes for i in qc.indices)
            assert members == list(range(len(vertices)))
        few_runs = [(t, row.descent_composition) for t, row in table
                    if len(row.descent_composition) <= bound]
        # among SYT of one shape, the reversed rows order as the row words do
        assert sorted(few_runs, key=lambda pair: pair[0].rows[::-1]) == [
            (qc.representative, qc.descent) for qc in skeleton
        ]
        assert all(qc.size == comb(bound + n - len(qc.descent), n) for qc in skeleton)


def test_skeleton_of_nine_cells_against_the_table():
    # the shapes of 9 cells, whose crystals the test above does not build, at every
    # bound from 0 to 10: the skeleton against the unbounded SYT table filtered by
    # run count, and its class sizes against the closed form
    for lam in partitions(9):
        table = tableaux_from_table(lam)
        for bound in range(11):
            few_runs = [(t, row.descent_composition) for t, row in table
                        if len(row.descent_composition) <= bound]
            skeleton = crystal_skeleton(lam, bound)
            assert sorted(few_runs, key=lambda pair: pair[0].rows[::-1]) == [
                (qc.representative, qc.descent) for qc in skeleton
            ]
            assert [qc.size for qc in skeleton] == [
                comb(bound + 9 - len(qc.descent), 9) for qc in skeleton
            ]


def test_build_crystal_small_cases():
    two_one = build_crystal((2, 1), 2)
    assert len(two_one.vertices) == 2
    assert len(two_one.edges) == 1
    assert two_one.edges[0][1] == 1

    column = build_crystal((1, 1, 1), 3)
    assert len(column.vertices) == 1

    assert build_crystal((2, 1), 1).vertices == ()
    assert build_crystal((2, 1), 1).classes == crystal_skeleton((2, 1), 1) == ()


@pytest.mark.parametrize("bound", [0, 1, 3, 12])
def test_crystal_of_the_empty_shape(bound):
    graph = build_crystal((), bound)
    assert graph.vertices == (Tableau(()),)
    assert graph.edges == ()
    (qc,) = graph.classes
    assert (qc.representative, qc.members, qc.descent, qc.indices) == (
        Tableau(()), (Tableau(()),), (), (0,)
    )
    assert inner_crystal(graph) == graph.classes
    assert vertex_count((), bound) == 1
    assert _written(graph_json(graph)) == json.dumps(
        {
            "shape": [],
            "bound": bound,
            "vertices": [[]],
            "weights": [[]],
            "edges": [],
            "classes": [{"representative": [], "descent": [], "members": [0]}],
        },
        indent=2,
    )
    assert "".join(to_dot(graph)).count('v0 [label=""]') == 1


def test_the_empty_crystal_costs_the_same_at_any_bound():
    # the empty shape holds no letter, so no part of its build is sized by the bound
    tracemalloc.start()
    try:
        graph = build_crystal((), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21, peak
    assert (len(graph.vertices), len(graph.edges), len(graph.classes)) == (1, 0, 1)
    with pytest.raises(ValueError):
        row_word(Tableau(()))


def test_quasi_crystal_decomposition_of_21():
    graph = build_crystal((2, 1), 3)
    classes = graph.classes
    assert len(classes) == 2
    assert sorted(qc.representative.rows for qc in classes) == sorted(
        t.rows for t, _ in tableaux_from_table((2, 1))
    )


def test_quasi_crystal_generating_functions_are_fundamental():
    for lam in partitions(5):
        bound = max_descent_length(lam)
        graph = build_crystal(lam, bound)
        for qc in graph.classes:
            generating = MultiPoly.zero(bound)
            for t in qc.members:
                w = weight(t)
                generating = generating + MultiPoly.monomial(
                    tuple(w) + (0,) * (bound - len(w))
                )
            assert generating == qsym_fundamental(qc.descent, bound)


def test_descent_equivalent_classes_are_isomorphic():
    # weight-matching between classes with equal descent carries colored
    # edges to colored edges; (3,2,1) is the smallest shape with repeats
    lam = (3, 2, 1)
    bound = max_descent_length(lam)
    graph = build_crystal(lam, bound)
    by_descent = {}
    for qc in graph.classes:
        by_descent.setdefault(qc.descent, []).append(qc)
    repeated = {descent: group for descent, group in by_descent.items() if len(group) > 1}
    assert {descent: len(group) for descent, group in repeated.items()} == {
        (2, 2, 2): 2,
        (1, 2, 2, 1): 2,
    }
    for group in repeated.values():
        base, other = group[0], group[1]
        base_by_weight = {weight(t): t for t in base.members}
        other_by_weight = {weight(t): t for t in other.members}
        assert set(base_by_weight) == set(other_by_weight)
        for t in base.members:
            mate = other_by_weight[weight(t)]
            for color in range(1, bound):
                image = lowering_operator(t, color)
                stays = image is not None and standardize(image) == base.representative
                mirror = lowering_operator(mate, color)
                mirror_stays = (
                    mirror is not None and standardize(mirror) == other.representative
                )
                assert stays == mirror_stays
                if stays:
                    assert weight(mirror) == weight(image)


def test_inner_crystal():
    assert len(inner_crystal(build_crystal((2, 1), 3))) == 2
    assert len(inner_crystal(build_crystal((1, 1, 1), 3))) == 1
    inner = inner_crystal(build_crystal((3, 2), 3))
    assert len(inner) == len(semistandard_tableaux((3, 2), 2)) == 2
    # the classes themselves, in the graph's order, with their members
    assert [qc.descent for qc in inner] == [(2, 3), (3, 2)]
    assert [qc.representative.rows for qc in inner] == [((1, 2, 5), (3, 4)), ((1, 2, 3), (4, 5))]
    assert [len(qc.members) for qc in inner] == [6, 6]


def test_evacuation_worked_example():
    t = Tableau.of([[1, 1, 1, 2], [3, 4], [4]])
    image = evacuation(t)
    assert image == Tableau.of([[4, 4, 7, 7], [5, 7], [6]])
    assert descent_composition(t) == (4, 1, 2)
    assert descent_composition(image) == (2, 1, 4)


def test_evacuation_involution_and_descent_reversal():
    for n in range(1, 6):
        for lam in partitions(n):
            for t in build_crystal(lam, n).vertices:
                image = evacuation(t)
                assert image.shape == t.shape
                assert descent_composition(image) == descent_composition(t)[::-1]
                assert evacuation(image) == t


def test_evacuation_preserves_standardness():
    for lam in partitions(5):
        originals = {t for t, _ in tableaux_from_table(lam)}
        assert {evacuation(t) for t in originals} == originals


def test_evacuation_rejects_large_entries():
    with pytest.raises(ValueError):
        evacuation(Tableau.of([[9]]))


def test_evacuation_anti_isomorphism():
    for n in range(1, 6):
        for lam in partitions(n):
            graph = build_crystal(lam, n)
            for t in graph.vertices:
                for color in range(1, n):
                    image = lowering_operator(t, color)
                    mirrored = raising_operator(evacuation(t), n - color)
                    if image is None:
                        assert mirrored is None
                    else:
                        assert mirrored == evacuation(image)


def test_depth_equals_maj_of_evacuation():
    for n in range(1, 8):
        for lam in partitions(n):
            for t, _ in tableaux_from_table(lam):
                assert tableau_stats(t).depth == tableau_stats(evacuation(t)).maj


def test_dot_export():
    dot = "".join(to_dot(build_crystal((2, 1), 2)))
    assert dot.count("->") == 1
    assert 'label="1"' in dot
    assert "style=dotted" in dot  # the only edge joins two quasi-crystals
    fig = "".join(to_dot(build_crystal((3, 2), 3)))
    assert fig.count("subgraph cluster_") == 5
    assert fig.count("v0 ") + fig.count("v0 [") >= 1
    assert fig.count("->") == 18
    inner = "".join(to_dot(build_crystal((3, 2), 3), inner_only=True))
    assert inner.count("subgraph cluster_") == 2


def test_graph_json_round_trip_fields():
    graph = build_crystal((2, 1), 2)
    written = _written(graph_json(graph))
    assert written == json.dumps(
        {
            "shape": [2, 1],
            "bound": 2,
            "vertices": [t.to_json() for t in graph.vertices],
            "weights": [list(weight(t)) for t in graph.vertices],
            "edges": [list(edge) for edge in graph.edges],
            "classes": [
                {
                    "representative": qc.representative.to_json(),
                    "descent": list(qc.descent),
                    "members": [graph.vertices.index(t) for t in qc.members],
                }
                for qc in graph.classes
            ],
        },
        indent=2,
    )
    payload = json.loads(written)
    assert payload["shape"] == [2, 1]
    assert payload["bound"] == 2
    assert len(payload["vertices"]) == 2
    assert payload["edges"] == [[0, 1, 1]]
    assert len(payload["classes"]) == 2


def test_exports_stream_from_the_graph_arrays():
    # the JSON payload hands the writer the graph's own flat arrays of letters and
    # edges, and the DOT text comes as an iterator of blocks, so neither export
    # copies the graph whole or builds a tuple per vertex or edge
    graph = build_crystal((3, 2), 3)
    payload = graph_json(graph)
    vertices, edges = payload["vertices"], payload["edges"]
    assert vertices.flat is graph.letters and (vertices.lengths, vertices.count) == ((3, 2), 15)
    assert edges.flat is graph.edge_array and (edges.lengths, edges.count) == (3, 18)
    assert iter(payload["weights"]) is payload["weights"]
    assert iter(payload["classes"]) is payload["classes"]
    written = _written(payload)
    dot = to_dot(graph)
    assert iter(dot) is dot
    blocks = list(dot)
    # the header, one block per quasi-crystal, one batch of edges and the closing brace
    assert len(blocks) == 1 + len(graph.classes) + 1 + 1
    assert all(block.endswith("\n") for block in blocks)
    # neither export built the lazy rows, tableaux or edges
    assert not {"rows", "vertices", "edges"} & set(vars(graph))
    assert not any("members" in vars(qc) for qc in graph.classes)
    assert json.loads(written)["vertices"] == [t.to_json() for t in graph.vertices]
    assert json.loads(written)["edges"] == [list(edge) for edge in graph.edges]


@pytest.mark.parametrize("bound", [3, 9, 12])
def test_dot_labels_spell_the_row_words(bound):
    # a label is the row word, its letters parted by "-" when one is above 9
    graph = build_crystal((2, 1), bound)
    dot = "".join(to_dot(graph))
    for i, t in enumerate(graph.vertices):
        word = row_word(t)
        label = ("-" if max(word) > 9 else "").join(map(str, word))
        assert f'    v{i} [label="{label}"];\n' in dot
    assert dot.count("[label=") == len(graph.vertices) + len(graph.edges)


def test_dot_text_does_not_depend_on_the_edge_batch(monkeypatch):
    graph = build_crystal((3, 2), 3)
    for inner_only in (False, True):
        whole = "".join(to_dot(graph, inner_only))
        with monkeypatch.context() as patch:
            patch.setattr(crystal, "_BATCH", 5)
            assert "".join(to_dot(graph, inner_only)) == whole
    monkeypatch.setattr(crystal, "_BATCH", 5)
    assert len(list(to_dot(graph))) == 1 + 5 + 4 + 1  # 18 edges in batches of 5
