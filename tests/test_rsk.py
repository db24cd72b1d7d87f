import inspect
from bisect import bisect_right
from itertools import product

import pytest
from hypothesis import given, strategies as st

from skelpoly import (
    Tableau,
    all_permutations,
    charge,
    depth,
    descent_composition,
    descents,
    descent_set,
    inverse,
    inversions,
    left_descents,
    partitions,
    perm_stats,
    perm_table,
    rsk,
    rsk_inverse,
    standard_tableaux,
    symmetry_check,
    word_descent_composition,
)

# RS images and descent compositions for all of S_4.
S4_TABLE = {
    (1, 2, 3, 4): ([[1, 2, 3, 4]], (4,), [[1, 2, 3, 4]], (4,)),
    (1, 2, 4, 3): ([[1, 2, 3], [4]], (3, 1), [[1, 2, 3], [4]], (3, 1)),
    (1, 3, 2, 4): ([[1, 2, 4], [3]], (2, 2), [[1, 2, 4], [3]], (2, 2)),
    (1, 3, 4, 2): ([[1, 2, 4], [3]], (2, 2), [[1, 2, 3], [4]], (3, 1)),
    (1, 4, 2, 3): ([[1, 2, 3], [4]], (3, 1), [[1, 2, 4], [3]], (2, 2)),
    (1, 4, 3, 2): ([[1, 2], [3], [4]], (2, 1, 1), [[1, 2], [3], [4]], (2, 1, 1)),
    (2, 1, 3, 4): ([[1, 3, 4], [2]], (1, 3), [[1, 3, 4], [2]], (1, 3)),
    (2, 1, 4, 3): ([[1, 3], [2, 4]], (1, 2, 1), [[1, 3], [2, 4]], (1, 2, 1)),
    (2, 3, 1, 4): ([[1, 3, 4], [2]], (1, 3), [[1, 2, 4], [3]], (2, 2)),
    (2, 3, 4, 1): ([[1, 3, 4], [2]], (1, 3), [[1, 2, 3], [4]], (3, 1)),
    (2, 4, 1, 3): ([[1, 3], [2, 4]], (1, 2, 1), [[1, 2], [3, 4]], (2, 2)),
    (2, 4, 3, 1): ([[1, 3], [2], [4]], (1, 2, 1), [[1, 2], [3], [4]], (2, 1, 1)),
    (3, 1, 2, 4): ([[1, 2, 4], [3]], (2, 2), [[1, 3, 4], [2]], (1, 3)),
    (3, 1, 4, 2): ([[1, 2], [3, 4]], (2, 2), [[1, 3], [2, 4]], (1, 2, 1)),
    (3, 2, 1, 4): ([[1, 4], [2], [3]], (1, 1, 2), [[1, 4], [2], [3]], (1, 1, 2)),
    (3, 2, 4, 1): ([[1, 4], [2], [3]], (1, 1, 2), [[1, 3], [2], [4]], (1, 2, 1)),
    (3, 4, 1, 2): ([[1, 2], [3, 4]], (2, 2), [[1, 2], [3, 4]], (2, 2)),
    (3, 4, 2, 1): ([[1, 4], [2], [3]], (1, 1, 2), [[1, 2], [3], [4]], (2, 1, 1)),
    (4, 1, 2, 3): ([[1, 2, 3], [4]], (3, 1), [[1, 3, 4], [2]], (1, 3)),
    (4, 1, 3, 2): ([[1, 2], [3], [4]], (2, 1, 1), [[1, 3], [2], [4]], (1, 2, 1)),
    (4, 2, 1, 3): ([[1, 3], [2], [4]], (1, 2, 1), [[1, 4], [2], [3]], (1, 1, 2)),
    (4, 2, 3, 1): ([[1, 3], [2], [4]], (1, 2, 1), [[1, 3], [2], [4]], (1, 2, 1)),
    (4, 3, 1, 2): ([[1, 2], [3], [4]], (2, 1, 1), [[1, 4], [2], [3]], (1, 1, 2)),
    (4, 3, 2, 1): ([[1], [2], [3], [4]], (1, 1, 1, 1), [[1], [2], [3], [4]], (1, 1, 1, 1)),
}


def column_insertion_tableau(word):
    """Independent insertion-tableau oracle: column-insert the reversed word."""
    cols = []
    for x in reversed(word):
        j = 0
        while True:
            if j == len(cols):
                cols.append([x])
                break
            col = cols[j]
            pos = bisect_right(col, x)
            if pos == len(col):
                col.append(x)
                break
            x, col[pos] = col[pos], x
            j += 1
    height = max(len(col) for col in cols)
    return tuple(
        tuple(col[i] for col in cols if i < len(col)) for i in range(height)
    )


def test_s4_golden_table():
    for w, (p_rows, des_p, q_rows, des_q) in S4_TABLE.items():
        p, q = rsk(w)
        assert p == Tableau.of(p_rows), w
        assert q == Tableau.of(q_rows), w
        assert descent_composition(p) == des_p, w
        assert descent_composition(q) == des_q, w


def test_rsk_degenerate():
    p, q = rsk((1, 2, 3, 4, 5))
    assert p == q == Tableau.of([[1, 2, 3, 4, 5]])
    p, _ = rsk(())
    assert p == Tableau(())
    with pytest.raises(ValueError):
        rsk((0, 1))


def test_rsk_on_words():
    for n in range(1, 6):
        for word in product((1, 2, 3), repeat=n):
            p, q = rsk(word)
            assert p.is_semistandard() and p.max_entry <= 3
            assert q.is_standard()
            assert p.shape == q.shape
            assert sorted(v for row in p.rows for v in row) == sorted(word)


def test_insertion_tableau_against_column_oracle():
    for w in all_permutations(5):
        p, _ = rsk(w)
        assert p.rows == column_insertion_tableau(w)


def test_first_row_length_is_longest_increasing_run():
    def lis(word):
        best = []
        for x in word:
            pos = bisect_right(best, x)
            if pos == len(best):
                best.append(x)
            else:
                best[pos] = x
        return len(best)

    for w in all_permutations(6):
        p, _ = rsk(w)
        assert len(p.rows[0]) == lis(w)


def test_rsk_inverse_round_trip_s5():
    for w in all_permutations(5):
        assert rsk_inverse(*rsk(w)) == w


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=7))
def test_rsk_inverse_round_trip_words(word):
    word = tuple(word)
    p, q = rsk(word)
    assert rsk_inverse(p, q) == word


def test_rsk_inverse_golden_table():
    for w, (p_rows, _, q_rows, _) in S4_TABLE.items():
        assert rsk_inverse(Tableau.of(p_rows), Tableau.of(q_rows)) == w


def test_rsk_inverse_single_rows():
    p = Tableau.of([[1, 1, 2, 4]])
    q = Tableau.of([[1, 2, 3, 4]])
    assert rsk_inverse(p, q) == (1, 1, 2, 4)


def test_rsk_inverse_errors():
    with pytest.raises(ValueError):
        rsk_inverse(Tableau.of([[1, 2]]), Tableau.of([[1], [2]]))
    with pytest.raises(ValueError):
        rsk_inverse(Tableau.of([[1, 2]]), Tableau.of([[1, 3]]))


def test_symmetry():
    assert symmetry_check(1)
    assert symmetry_check(4)
    assert symmetry_check(6)


def test_recording_descents_match_one_line_descents():
    for w in all_permutations(6):
        _, q = rsk(w)
        assert descent_composition(q) == word_descent_composition(w)


def test_left_descents_match_insertion_tableau():
    for w in all_permutations(6):
        p, _ = rsk(w)
        assert left_descents(w) == descent_set(p)


def test_charge_worked_example():
    w = (5, 7, 8, 4, 1, 3, 6, 2)
    assert left_descents(w) == (2, 3, 4, 6)
    assert charge(w) == 17


def test_perm_stats_examples():
    identity = perm_stats((1, 2, 3, 4))
    assert identity.descent_composition == (4,)
    assert identity.maj == identity.depth == identity.charge == identity.inversions == 0
    assert identity.is_involution

    reversal = perm_stats((4, 3, 2, 1))
    assert reversal.descent_composition == (1, 1, 1, 1)
    assert reversal.inversions == 6

    w = perm_stats((5, 7, 8, 4, 1, 3, 6, 2))
    assert w.charge == 17
    assert w.maj == 14


def test_charge_is_depth_of_inverse():
    for w in all_permutations(6):
        assert charge(w) == depth(word_descent_composition(inverse(w)))


def test_bijectivity_and_involutions():
    for n in range(1, 7):
        images = {rsk(w) for w in all_permutations(n)}
        assert len(images) == len(list(all_permutations(n)))
        for p, q in images:
            assert p.shape == q.shape and p.is_standard() and q.is_standard()
        fixed = sum(1 for w in all_permutations(n) if inverse(w) == w)
        assert fixed == sum(len(standard_tableaux(lam)) for lam in partitions(n))
        for w in all_permutations(n):
            p, q = rsk(w)
            assert (p == q) == (inverse(w) == w)


def test_inversions_small():
    assert inversions((2, 1)) == 1
    assert inversions((3, 1, 2)) == 2
    assert inversions((5, 7, 8, 4, 1, 3, 6, 2)) == 19


def inductive_charge(w):
    """c_1 = 0, and c_(i+1) = c_i + 1 exactly when i+1 stands left of i."""
    position = {value: idx for idx, value in enumerate(w)}
    label = total = 0
    for i in range(1, len(w)):
        if position[i + 1] < position[i]:
            label += 1
        total += label
    return total


def lehmer_inversions(w):
    """Sum of the Lehmer code: the rank of each letter among those not yet read."""
    remaining = sorted(w)
    total = 0
    for value in w:
        rank = remaining.index(value)
        total += rank
        del remaining[rank]
    return total


def test_perm_table_against_single_permutation_oracles():
    assert inspect.isgeneratorfunction(perm_table)
    for n in range(0, 7):
        rows = list(perm_table(n))
        assert [w for w, _ in rows] == list(all_permutations(n))
        for w, row in rows:
            assert row.descent_composition == word_descent_composition(w)
            assert row.inverse_descent_composition == word_descent_composition(inverse(w))
            assert row.left_descents == left_descents(w)
            assert row.maj == sum(descents(w).members)
            assert row.depth == depth(row.descent_composition)
            assert row.is_involution == (inverse(w) == w)
            assert row.charge == inductive_charge(w) == charge(w)
            assert row.inversions == lehmer_inversions(w)
            assert perm_stats(w) == perm_stats(list(w)) == row


def test_perm_stats_rejects_non_permutations():
    for word in ((1, 1, 2), (0, 1), (2, 3), (1, 3)):
        with pytest.raises(ValueError):
            perm_stats(word)
