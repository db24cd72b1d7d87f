"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integer and polynomial equality, tolerance zero).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from math import comb, factorial

from skelpoly import (
    IndexSet,
    MultiPoly,
    Tableau,
    UniPoly,
    all_permutations,
    bifactorial,
    bifactorial_q_slice,
    build_crystal,
    charge,
    compositions,
    deep_skeleton,
    depth,
    descent_composition,
    dominance_covers,
    evacuation,
    fake_degree,
    internal_zeros,
    inverse,
    inversions,
    inner_crystal,
    lowering_operator,
    max_descent_length,
    partitions,
    qsym_fundamental,
    raising_operator,
    row_word,
    rsk,
    schur_poly,
    semistandard_tableaux,
    skeleton_poly,
    skeleton_poly_i,
    standard_with_descent,
    subsets,
    superboolean_covers,
    weight,
    word_descent_composition,
)
from skelpoly.verify import (
    check_bks,
    check_charge_depth,
    check_counting,
    check_hook_sum,
    check_linear_independence,
    check_mahonian,
    check_s6_inversion_count,
    check_skeleton_r,
    check_skeleton_rs,
    check_skeleton_rsk,
)


def _report(number: int, description: str, started: float) -> None:
    print(f"criterion {number:02d} PASS ({time.perf_counter() - started:.2f}s): {description}")


def mono(exps, **kw):
    return MultiPoly.monomial(exps, **kw)


def test_criterion_01_quasi_kostka_value():
    started = time.perf_counter()
    found = standard_with_descent((3, 3, 2), (1, 2, 2, 2, 1))
    assert len(found) == 3
    assert {t.rows for t in found} == {
        ((1, 3, 7), (2, 5, 8), (4, 6)),
        ((1, 3, 5), (2, 6, 7), (4, 8)),
        ((1, 3, 5), (2, 4, 7), (6, 8)),
    }
    _report(1, "f_{332,12221} = 3 by SYT enumeration", started)


def test_criterion_02_skeleton_of_32():
    started = time.perf_counter()
    assert skeleton_poly((3, 2)) == (
        mono((3, 2, 0))
        + mono((2, 3, 0))
        + mono((2, 2, 1))
        + mono((1, 3, 1))
        + mono((1, 2, 2))
    )
    assert deep_skeleton((3, 2)) == (
        mono((3, 2, 0), q=2)
        + mono((2, 3, 0), q=3)
        + mono((2, 2, 1), q=4)
        + mono((1, 3, 1), q=5)
        + mono((1, 2, 2), q=6)
    )
    _report(2, "skeleton of (3,2) and its depth grading", started)


def test_criterion_03_table_of_small_skeletons():
    started = time.perf_counter()
    expected = {
        (1,): mono((1,)),
        (2,): mono((2,)),
        (1, 1): mono((1, 1)),
        (3,): mono((3,)),
        (2, 1): mono((2, 1)) + mono((1, 2)),
        (1, 1, 1): mono((1, 1, 1)),
        (4,): mono((4,)),
        (3, 1): mono((3, 1)) + mono((2, 2)) + mono((1, 3)),
        (2, 2): mono((2, 2, 0)) + mono((1, 2, 1)),
        (2, 1, 1): mono((2, 1, 1)) + mono((1, 2, 1)) + mono((1, 1, 2)),
        (1, 1, 1, 1): mono((1, 1, 1, 1)),
    }
    assert len(expected) == 11
    for lam, poly in expected.items():
        assert skeleton_poly(lam) == poly, lam
    _report(3, "all eleven skeleton polynomials with shapes of size <= 4", started)


def test_criterion_04_evacuation_worked_example():
    started = time.perf_counter()
    t = Tableau.of([[1, 1, 1, 2], [3, 4], [4]])
    assert row_word(t) == (4, 3, 4, 1, 1, 1, 2)
    complemented = tuple(8 - x for x in reversed(row_word(t)))
    assert complemented == (6, 7, 7, 7, 4, 5, 4)
    image = evacuation(t)
    assert image == rsk(complemented)[0]
    assert image == Tableau.of([[4, 4, 7, 7], [5, 7], [6]])
    assert descent_composition(t) == (4, 1, 2)
    assert descent_composition(image) == (2, 1, 4)
    for lam in partitions(4):
        for vertex in build_crystal(lam, 4).vertices:
            assert evacuation(evacuation(vertex)) == vertex
    _report(4, "evacuation worked example and involutivity on entries <= 4", started)


def test_criterion_05_skeleton_correspondences():
    started = time.perf_counter()
    for n in range(1, 6):
        assert check_skeleton_r(n).passed
        assert check_skeleton_rs(n).passed
        assert check_skeleton_rsk(n).passed
        assert check_skeleton_r(n, graded=True).passed
        assert check_skeleton_rs(n, graded=True).passed
        assert check_skeleton_rsk(n, graded=True).passed
    _report(5, "three correspondences, plain and graded, for n <= 5", started)


def test_criterion_06_mahonian_distributions():
    started = time.perf_counter()
    for n in range(1, 9):
        assert check_mahonian(n).passed
    _report(6, "maj = depth = charge = inversions distribution for n <= 8", started)


def test_criterion_07_charge_depth():
    started = time.perf_counter()
    assert charge((5, 7, 8, 4, 1, 3, 6, 2)) == 17
    assert depth(word_descent_composition(inverse((5, 7, 8, 4, 1, 3, 6, 2)))) == 17
    for n in range(1, 8):
        assert check_charge_depth(n).passed
    _report(7, "charge example and charge = depth-of-inverse on S_7", started)


def test_criterion_08_fake_degrees_and_internal_zeros():
    started = time.perf_counter()
    assert fake_degree((4,)) == UniPoly((1,))
    assert fake_degree((3, 1)) == UniPoly((0, 1, 1, 1))
    assert fake_degree((2, 2)) == UniPoly((0, 0, 1, 0, 1))
    assert fake_degree((2, 1, 1)) == UniPoly((0, 0, 0, 1, 1, 1))
    assert fake_degree((1, 1, 1, 1)) == UniPoly((0, 0, 0, 0, 0, 0, 1))
    for n in range(1, 9):
        for lam in partitions(n):
            assert check_bks(lam).passed
    _report(8, "fake degrees for n = 4 and the internal-zero dichotomy for n <= 8", started)


def test_criterion_09_bifactorial():
    started = time.perf_counter()
    slice_three = bifactorial_q_slice(bifactorial(4), 3)
    assert slice_three == UniPoly((0, 1, 1, 2, 1, 1))
    assert slice_three(1) == 6
    assert {w for w in all_permutations(4) if inversions(w) == 3} == {
        (1, 4, 3, 2),
        (2, 3, 4, 1),
        (2, 4, 1, 3),
        (3, 1, 4, 2),
        (3, 2, 1, 4),
        (4, 1, 2, 3),
    }
    result = check_s6_inversion_count()
    assert result.passed and result.data == {"count": 49}
    assert bifactorial_q_slice(bifactorial(6), 4)(1) == 49
    for n in (2, 3, 5, 7):
        bi = bifactorial(n)
        for k in range(comb(n, 2) + 1):
            assert internal_zeros(bifactorial_q_slice(bi, k)).count == 0
    _report(9, "bifactorial slices, the S_6 count of 49 three ways, prime slices", started)


def test_criterion_10_enumeration_corollaries():
    started = time.perf_counter()
    # each skeleton polynomial at x_1 = x_2 = 1 and its later variables 0
    total = sum(p.evaluate((1, 1, 0, 0)[: p.arity]) for p in map(skeleton_poly, partitions(4)))
    assert total == 5
    short_involutions = {
        w
        for w in all_permutations(4)
        if inverse(w) == w and len(word_descent_composition(w)) <= 2
    }
    assert short_involutions == {
        (1, 2, 3, 4),
        (1, 2, 4, 3),
        (1, 3, 2, 4),
        (2, 1, 3, 4),
        (3, 4, 1, 2),
    }
    for n in range(1, 8):
        f_values = [skeleton_poly(lam).evaluate() for lam in partitions(n)]
        assert sum(v * v for v in f_values) == factorial(n)
        assert sum(f_values) == sum(1 for w in all_permutations(n) if inverse(w) == w)
        assert check_counting(n).passed
    _report(10, "descent-length counting corollaries for n <= 7", started)


def test_criterion_11_hook_sum_and_independence():
    started = time.perf_counter()
    for n in range(1, 8):
        assert check_hook_sum(n).passed
    for n in range(1, 7):
        assert check_linear_independence(n).passed
    _report(11, "hook sum for n <= 7 and linear independence for n <= 6", started)


def test_criterion_12_skeleton_algebra_support():
    started = time.perf_counter()
    result = check_skeleton_rs(4, report_support=True)
    assert result.passed
    assert result.data["support_size"] == 22
    assert result.data["collisions"] == [
        [[1, 3, 2, 4], [3, 4, 1, 2]],
        [[2, 1, 4, 3], [4, 2, 3, 1]],
    ]
    _report(12, "22 distinct paired monomials at n = 4 with the two collisions", started)


def test_criterion_13_crystal_structure():
    started = time.perf_counter()
    graph = build_crystal((3, 2), 3)
    assert len(graph.vertices) == 15
    classes = graph.classes
    assert len(classes) == 5
    assert sorted(qc.descent for qc in classes) == sorted(
        [(3, 2), (2, 3), (2, 2, 1), (1, 3, 1), (1, 2, 2)]
    )
    drawn_edges = {
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
    }
    edges = {
        (graph.vertices[u].rows, color, graph.vertices[v].rows)
        for u, color, v in graph.edges
    }
    assert drawn_edges <= edges

    for lam in partitions(5):
        bound = max_descent_length(lam)
        bounded = build_crystal(lam, bound)
        for qc in bounded.classes:
            generating = MultiPoly.zero(bound)
            for t in qc.members:
                w = weight(t)
                generating = generating + mono(tuple(w) + (0,) * (bound - len(w)))
            assert generating == qsym_fundamental(qc.descent, bound)

    for lam in partitions(6):
        bounded = build_crystal(lam, max_descent_length(lam))
        assert len(inner_crystal(bounded)) == len(semistandard_tableaux(lam, len(lam)))
        assert skeleton_poly_i(lam, len(lam)) == schur_poly(lam, len(lam))

    for lam in partitions(5):
        for t in build_crystal(lam, 5).vertices:
            for color in range(1, 5):
                image = lowering_operator(t, color)
                mirrored = raising_operator(evacuation(t), 5 - color)
                if image is None:
                    assert mirrored is None
                else:
                    assert mirrored == evacuation(image)
    _report(13, "bounded crystal golden graph, quasi-crystal functions, inner crystal, anti-isomorphism", started)


def test_criterion_14_order_theory():
    started = time.perf_counter()
    for n in range(1, 8):
        for lower, upper in dominance_covers(n):
            assert depth(lower) == depth(upper) + 1
        all_depths = {alpha: depth(alpha) for alpha in compositions(n)}
        assert [a for a, d in all_depths.items() if d == 0] == [(n,)]
        assert [a for a, d in all_depths.items() if d == comb(n, 2)] == [(1,) * n]
        for a in subsets(n):
            for b in superboolean_covers(a):
                assert sum(b.members) == sum(a.members) + 1
    from skelpoly import comp_to_set, set_to_comp

    for n in range(9):
        for alpha in compositions(n):
            assert set_to_comp(comp_to_set(alpha)) == alpha
        for a in subsets(n):
            assert comp_to_set(set_to_comp(a)) == a

    assert set(dominance_covers(4)) == {
        ((3, 1), (4,)),
        ((2, 2), (3, 1)),
        ((2, 1, 1), (2, 2)),
        ((1, 3), (2, 2)),
        ((1, 2, 1), (2, 1, 1)),
        ((1, 2, 1), (1, 3)),
        ((1, 1, 2), (1, 2, 1)),
        ((1, 1, 1, 1), (1, 1, 2)),
    }
    superboolean_edges = {(a, b) for a in subsets(4) for b in superboolean_covers(a)}
    assert superboolean_edges == {
        (IndexSet(4, ()), IndexSet(4, (1,))),
        (IndexSet(4, (1,)), IndexSet(4, (2,))),
        (IndexSet(4, (2,)), IndexSet(4, (1, 2))),
        (IndexSet(4, (2,)), IndexSet(4, (3,))),
        (IndexSet(4, (1, 2)), IndexSet(4, (1, 3))),
        (IndexSet(4, (3,)), IndexSet(4, (1, 3))),
        (IndexSet(4, (1, 3)), IndexSet(4, (2, 3))),
        (IndexSet(4, (2, 3)), IndexSet(4, (1, 2, 3))),
    }
    _report(14, "graded dominance and maj orders, dictionary round trip, diagrams", started)
