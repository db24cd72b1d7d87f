import inspect
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import islice, product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from skelpoly import (
    PermStats,
    Tableau,
    all_permutations,
    bifactorial,
    charge,
    comp_to_set,
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
    q_factorial,
    rsk,
    rsk_inverse,
    standard_tableaux,
    word_descent_composition,
)
from skelpoly.rsk import _involutions

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


def symmetry_check(n: int) -> bool:
    """True iff P(w^-1) = Q(w) and Q(w^-1) = P(w) across all of S_n."""
    for w in all_permutations(n):
        p, q = rsk(w)
        p_inv, q_inv = rsk(inverse(w))
        if p_inv != q or q_inv != p:
            return False
    return True


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
    for n in range(0, 8):
        rows = list(perm_table(n))
        assert [w for w, _ in rows] == list(all_permutations(n))
        for w, row in rows:
            assert row.descent_composition == word_descent_composition(w)
            assert row.inverse_descent_composition == word_descent_composition(inverse(w))
            # the left descents of w are the descents of its inverse
            assert comp_to_set(row.inverse_descent_composition).members == left_descents(w)
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


@pytest.mark.parametrize("n", [8, 9])
def test_perm_table_past_n7_against_oracles(n):
    # tails of length n // 2 = 4: the first sizes whose tail tables hold 24 orderings
    stride = 997  # coprime to the 24 tails of a prefix: the sample meets each tail index
    involutions = 0
    last = factorial(n) - 1
    for index, ((w, row), expected) in enumerate(
        zip(perm_table(n), all_permutations(n), strict=True)
    ):
        assert w == expected
        involutions += row.is_involution
        if row.is_involution or index % stride == 0 or index == last:
            assert perm_stats(w) == row
    counts = [1, 1]  # I(n) = I(n-1) + (n-1) I(n-2)
    for k in range(2, n + 1):
        counts.append(counts[-1] + (k - 1) * counts[-2])
    assert involutions == counts[n]


def test_involutions_each_once_and_self_inverse():
    counts = [1, 1]  # I(n) = I(n-1) + (n-1) I(n-2)
    for k in range(2, 11):
        counts.append(counts[-1] + (k - 1) * counts[-2])
    for n in range(11):
        words = list(_involutions(n))
        assert len(set(words)) == len(words) == counts[n]
        assert all(inverse(w) == w for w in words)  # `inverse` rejects a non-permutation


def test_perm_table_at_n10_against_oracles():
    # n = 10 is the first size with tails of length 5, whose tables hold 120 orderings
    rows = list(islice(zip(perm_table(10), all_permutations(10)), 20_000))
    assert len(rows) == 20_000
    for (w, row), expected in rows:
        assert w == expected
        assert perm_stats(w) == row


def test_perm_table_streams():
    # the rows of S_8 take about 10.5 MiB when stored; a sweep holds one row at a
    # time and its 70 tail tables of 24 entries, about 0.4 MiB
    tracemalloc.start()
    try:
        pairs = Counter((row.charge, row.depth) for _, row in perm_table(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(pairs.values()) == 40320
    assert peak < 2 * 2**20


def test_perm_table_degenerate_sizes():
    # S_0 has only the empty prefix and S_1 only the prefix (1,); both join the
    # one empty tail
    assert list(perm_table(0)) == [((), PermStats((), (), 0, 0, 0, 0, True))]
    assert list(perm_table(1)) == [((1,), PermStats((1,), (1,), 0, 0, 0, 0, True))]


def test_perm_table_distributions_at_n8():
    pairs = Counter()
    maj, inv, ch, dep = Counter(), Counter(), Counter(), Counter()
    for _, row in perm_table(8):
        maj[row.maj] += 1
        inv[row.inversions] += 1
        ch[row.charge] += 1
        dep[row.depth] += 1
        pairs[row.charge, row.depth] += 1
    target = dict(enumerate(q_factorial(8).coeffs))
    assert sum(target.values()) == 40320
    for dist in (maj, inv, ch, dep):
        assert dict(dist) == target
    assert pairs == {(p, q): c for (_, p, q), c in bifactorial(8).terms.items()}
