import inspect
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache
from itertools import product
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
    compositions,
    depth,
    descent_composition,
    descent_set,
    inverse,
    inversions,
    left_descents,
    partitions,
    perm_stats,
    perm_table,
    q_factorial,
    rsk,
    tableaux_from_table,
    word_descent_composition,
)
from skelpoly.rsk import _involution_ends, mask_stats, rsk_tally

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


def rsk_inverse(p, q):
    """Reverse bumping in decreasing recording-label order: the inverse of `rsk`."""
    rows = [list(row) for row in p.rows]
    row_of = {q.entry(r, c): r for r, c in q.cells()}
    out = []
    for step in range(q.size, 0, -1):
        r = row_of[step]
        x = rows[r].pop()
        for above in range(r - 1, -1, -1):
            row = rows[above]
            pos = bisect_left(row, x) - 1
            x, row[pos] = row[pos], x
        out.append(x)
    return tuple(reversed(out))


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
        assert fixed == sum(len(tableaux_from_table(lam)) for lam in partitions(n))
        for w in all_permutations(n):
            p, q = rsk(w)
            assert (p == q) == (inverse(w) == w)


def test_inversions_small():
    assert inversions((2, 1)) == 1
    assert inversions((3, 1, 2)) == 2
    assert inversions((5, 7, 8, 4, 1, 3, 6, 2)) == 19


def descents(w):
    """Positions i with w(i) > w(i+1)."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


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


@cache
def _rows(n):
    """The reference sweep of S_n, kept for the tests that read it."""
    return list(perm_table(n))


def test_perm_table_against_single_permutation_oracles():
    # every call gives a fresh generator
    assert all(inspect.isgenerator(perm_table(n)) for n in range(10))
    for n in range(0, 8):
        rows = _rows(n)
        assert [w for w, _ in rows] == list(all_permutations(n))
        for w, row in rows:
            assert row.descent_composition == word_descent_composition(w)
            assert row.inverse_descent_composition == word_descent_composition(inverse(w))
            # the left descents of w are the descents of its inverse
            assert comp_to_set(row.inverse_descent_composition).members == left_descents(w)
            assert row.maj == sum(descents(w))
            assert row.depth == depth(row.descent_composition)
            assert row.is_involution == (inverse(w) == w)
            assert row.charge == inductive_charge(w) == charge(w)
            assert row.inversions == lehmer_inversions(w)
            assert perm_stats(w) == perm_stats(list(w)) == row


@cache
def _mask(composition):
    return sum(1 << d for d in comp_to_set(composition).members)


def _tally_of(rows, n):
    """(Des, Des^-1) key tally, inversion histogram and involution descent tally of `rows`."""
    pairs, inversions, involutions = Counter(), [0] * (n * (n - 1) // 2 + 1), Counter()
    for row in rows:
        pairs[_mask(row.descent_composition) << n | _mask(row.inverse_descent_composition)] += 1
        inversions[row.inversions] += 1
        involutions[_mask(row.descent_composition)] += row.is_involution
    return pairs, inversions, +involutions


def test_rsk_tally_matches_the_perm_table_rows():
    for n in range(10):
        tally = rsk_tally(n)
        rows = (row for _, row in perm_table(n))
        assert (tally.pairs, tally.inversions, tally.involutions) == _tally_of(rows, n)
        assert sum(tally.pairs.values()) == factorial(n)
        assert rsk_tally(n) is tally  # kept once per process


def test_rsk_tally_matches_perm_stats():
    for n in range(8):
        tally = rsk_tally(n)
        rows = map(perm_stats, all_permutations(n))
        assert (tally.pairs, tally.inversions, tally.involutions) == _tally_of(rows, n)


def _splits(total, caps):
    """Every vector of len(caps) entries, each at most its cap, that sums to `total`."""
    if not caps:
        if total == 0:
            yield ()
        return
    for part in range(min(total, caps[0]) + 1):
        for rest in _splits(total - part, caps[1:]):
            yield (part, *rest)


def _less(margins, taken):
    """The nonzero margins left once `taken` is removed, sorted."""
    return tuple(sorted((m - t for m, t in zip(margins, taken) if m > t), reverse=True))


@cache
def _n_matrices(rows, columns):
    """N-matrices with these row sums and column sums (each sorted, of one total)."""
    if not rows:
        return 1
    return sum(_n_matrices(rows[1:], _less(columns, row)) for row in _splits(rows[0], columns))


@cache
def _symmetric_n_matrices(rows):
    """Symmetric N-matrices with these row sums (sorted): the first row is the diagonal
    entry and what it takes from the other rows."""
    if not rows:
        return 1
    first, rest = rows[0], rows[1:]
    return sum(_symmetric_n_matrices(_less(rest, row))
               for diagonal in range(first + 1) for row in _splits(first - diagonal, rest))


def _n_matrix_tally(n):
    """The (Des, Des^-1) tally of S_n and the Des tally of its involutions, in the keys
    of `rsk_tally`, counted by N-matrices (Gessel 1984; EC2 7.11 and 7.13).

    The w of S_n with Des(w) in S and Des(w^-1) in T are the N-matrices with row sums
    comp(S) and column sums comp(T), and the involutions with Des(w) in S the symmetric
    ones with row sums comp(S); a Moebius inversion in each coordinate leaves the w
    with Des(w) = S and Des(w^-1) = T.  Index bit d - 1 stands for d in [n-1].
    """
    low = n - 1
    margins = []  # the parts of comp(S), sorted, for each S
    for s in range(1 << low):
        cuts = [0, *(d for d in range(1, n) if s >> d - 1 & 1), n]
        margins.append(tuple(sorted((b - a for a, b in zip(cuts, cuts[1:])), reverse=True)))
    pairs = [_n_matrices(rows, columns) for rows in margins for columns in margins]
    involutions = [_symmetric_n_matrices(rows) for rows in margins]
    for bits, grid in ((2 * low, pairs), (low, involutions)):
        for bit in (1 << b for b in range(bits)):  # subtract each subset missing `bit`
            grid[:] = [c - grid[i ^ bit] if i & bit else c for i, c in enumerate(grid)]
    return (Counter({(i >> low) << n + 1 | (i & (1 << low) - 1) << 1: c
                     for i, c in enumerate(pairs) if c}),
            Counter({i << 1: c for i, c in enumerate(involutions) if c}))


def test_rsk_tally_matches_the_n_matrix_count():
    # an oracle without RSK or a sweep of S_n, past the sizes of the reference sweep
    for n in range(1, 10):
        tally = rsk_tally(n)
        assert (tally.pairs, tally.involutions) == _n_matrix_tally(n)
        assert tally.inversions == list(q_factorial(n).coeffs)
    assert len(rsk_tally(9).pairs) == 38_724


def test_rsk_tally_at_n8_keys_and_mask_stats():
    # 8,724 (Des, Des^-1) pairs occur among the 40,320 permutations of S_8
    assert len(rsk_tally(8).pairs) == 8724
    for n in range(1, 9):
        stats = mask_stats(n)
        assert sum(stat is not None for stat in stats) == 2 ** (n - 1)
        for mask, stat in enumerate(stats):
            if stat is not None:
                alpha, maj, dep = stat
                assert _mask(alpha) == mask and maj == sum(comp_to_set(alpha).members)
                assert dep == depth(alpha)


def _mask_stats_from_compositions(n):
    """`mask_stats(n)` by the composition route: each composition of n, its descent set
    as an IndexSet, and the maj and depth of that set."""
    stats_of = [None] * (1 << n)
    for alpha in compositions(n):
        ds = comp_to_set(alpha).members
        stats_of[sum(1 << d for d in ds)] = alpha, sum(ds), n * len(ds) - sum(ds)
    return tuple(stats_of)


def test_mask_stats_matches_the_composition_route():
    for n in range(13):
        stats = mask_stats(n)
        assert stats == _mask_stats_from_compositions(n)
        assert len(stats) == 1 << n
        assert [mask for mask, stat in enumerate(stats) if stat is None] == list(
            range(1, 1 << n, 2))
    assert mask_stats(0) == (((), 0, 0),)


@pytest.mark.parametrize("sweep", [all_permutations, perm_table, rsk_tally, mask_stats])
def test_sweeps_refuse_a_negative_n(sweep):
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        sweep(-1)


def test_perm_stats_rejects_non_permutations():
    for word in ((1, 1, 2), (0, 1), (2, 3), (1, 3)):
        with pytest.raises(ValueError):
            perm_stats(word)


@pytest.mark.parametrize("n", [8])
def test_perm_table_past_n7_against_oracles(n):
    # past the sizes checked row by row: each involution and every 997th row
    stride = 997
    involutions = 0
    rows = _rows(n)
    assert [w for w, _ in rows] == list(all_permutations(n))
    for index, (w, row) in enumerate(rows):
        involutions += row.is_involution
        if row.is_involution or index % stride == 0 or index == len(rows) - 1:
            assert comp_to_set(row.inverse_descent_composition).members == left_descents(w)
            assert row.charge == inductive_charge(w)
            assert row.inversions == lehmer_inversions(w)
    counts = [1, 1]  # I(n) = I(n-1) + (n-1) I(n-2)
    for k in range(2, n + 1):
        counts.append(counts[-1] + (k - 1) * counts[-2])
    assert involutions == counts[n]


def _involutions(n):
    """Every involution of S_n in one-line notation, each once: the least value not yet
    matched is either fixed or swapped with a greater unmatched one."""
    w = [0] * n

    def match(i):
        while i < n and w[i]:
            i += 1
        if i == n:
            yield tuple(w)
            return
        for j in range(i, n):
            if not w[j]:
                w[i], w[j] = j + 1, i + 1
                yield from match(i + 1)
                w[i] = w[j] = 0

    return match(0)


def test_involution_ends_match_the_involution_words():
    # the recurrence on w(n) against the words of each involution, past the sizes the
    # tally is checked at
    for n in range(12):
        words = _involutions(n)
        assert _involution_ends(n) == Counter(
            (sum(1 << i for i in range(1, n) if w[i - 1] > w[i]), w[-1] if w else 0)
            for w in words)


def test_involutions_each_once_and_self_inverse():
    counts = [1, 1]  # I(n) = I(n-1) + (n-1) I(n-2)
    for k in range(2, 11):
        counts.append(counts[-1] + (k - 1) * counts[-2])
    for n in range(11):
        words = list(_involutions(n))
        assert len(set(words)) == len(words) == counts[n]
        assert all(inverse(w) == w for w in words)  # `inverse` rejects a non-permutation


def test_perm_table_streams():
    # S_12 has 479,001,600 rows; a sweep that stored them would not return its first
    w, row = next(perm_table(12))
    assert w == tuple(range(1, 13))
    assert row == perm_stats(w)


def test_perm_table_degenerate_sizes():
    # S_0 has only the empty word and S_1 only (1,)
    assert list(perm_table(0)) == [((), PermStats((), (), 0, 0, 0, 0, True))]
    assert list(perm_table(1)) == [((1,), PermStats((1,), (1,), 0, 0, 0, 0, True))]


def test_perm_table_distributions_at_n8():
    pairs = Counter()
    maj, inv, ch, dep = Counter(), Counter(), Counter(), Counter()
    for _, row in _rows(8):
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
