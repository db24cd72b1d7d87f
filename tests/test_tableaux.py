import pickle
from collections import Counter
from itertools import accumulate, product
from time import process_time

import pytest
from hypothesis import given, strategies as st

from skelpoly import (
    Tableau,
    YamanouchiRow,
    compositions,
    descent_composition,
    descent_set,
    descent_tally,
    dominance_leq,
    fake_degree,
    is_quasi_yamanouchi,
    kostka,
    lambda_bar,
    max_descent_length,
    minimal_parsing,
    partitions,
    quasi_kostka_coefficient,
    quasi_yamanouchi_tableaux,
    semistandard_tableaux,
    semistandard_with_weight,
    skeleton_poly,
    standard_with_descent,
    standardize,
    tableau_stats,
    tableaux_from_table,
    weight,
    yamanouchi_table,
)
from skelpoly.compositions import trim

WORKED = Tableau.of([[1, 1, 2, 5], [3, 8], [8]])


def syt(shape):
    """The SYT of `shape`, sorted by rows."""
    return [t for t, _ in tableaux_from_table(shape)]


def deepest_fillings(shape):
    """The quasi-Yamanouchi tableaux of `shape` with the deepest descent composition."""
    deepest = tableaux_from_table(shape, quasi_yamanouchi=True, descent=lambda_bar(shape))
    return [t for t, _ in deepest]


def destandardize(t):
    """Replace every entry of the i-th band by i: the per-tableau oracle of the QY listing."""
    label = {cell: i for i, band in enumerate(minimal_parsing(t), start=1) for cell in band.cells}
    return Tableau.of([label[r, c] for c in range(len(row))] for r, row in enumerate(t.rows))


def test_tableau_predicates():
    assert WORKED.is_semistandard()
    assert not WORKED.is_standard()
    assert Tableau.of([[1, 2, 3, 5], [4, 7], [6]]).is_standard()
    assert not Tableau.of([[2, 1]]).is_semistandard()
    assert not Tableau.of([[1, 2], [1, 3]]).is_semistandard()
    assert not Tableau.of([[1], [1, 2]]).is_semistandard()


def test_tableau_has_no_instance_dict():
    # the slots keep a tableau to its one field: hundreds of thousands are held at once
    assert Tableau.__slots__ == ("rows",)
    assert not hasattr(WORKED, "__dict__")


def test_tableau_value_semantics():
    same = Tableau(((1, 1, 2, 5), (3, 8), (8,)))
    assert same == WORKED and hash(same) == hash(WORKED) == hash((WORKED.rows,))
    assert WORKED != Tableau.of([[1, 1, 2, 5], [3, 8], [9]]) and WORKED != WORKED.rows
    assert repr(Tableau.of([[1, 2], [3]])) == "Tableau(rows=((1, 2), (3,)))"
    assert pickle.loads(pickle.dumps(WORKED)) == WORKED
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        WORKED.rows = ()
    with pytest.raises(AttributeError):
        WORKED.extra = 1


def test_minimal_parsing_worked_example():
    bands = minimal_parsing(WORKED)
    assert [band.size for band in bands] == [3, 2, 2]
    assert [WORKED.entry(r, c) for r, c in bands[0].cells] == [1, 1, 2]
    assert bands[1].cells == ((1, 0), (0, 3))
    assert bands[2].cells == ((2, 0), (1, 1))


def test_minimal_parsing_degenerate():
    row = Tableau.of([[1] * 6])
    assert len(minimal_parsing(row)) == 1
    column = Tableau.of([[i] for i in range(1, 5)])
    assert [band.size for band in minimal_parsing(column)] == [1, 1, 1, 1]


def test_minimal_parsing_rejects_bad_input():
    with pytest.raises(ValueError):
        minimal_parsing(Tableau.of([[2, 1]]))


def test_descent_composition_examples():
    assert descent_composition(WORKED) == (3, 2, 2)
    superstandard = Tableau.of([[1, 1, 1], [2, 2]])
    assert descent_composition(superstandard) == (3, 2)
    syt = Tableau.of([[1, 3, 7], [2, 5, 8], [4, 6]])
    assert descent_composition(syt) == (1, 2, 2, 2, 1)


def test_standardize_worked_example():
    assert standardize(WORKED) == Tableau.of([[1, 2, 3, 5], [4, 7], [6]])
    assert destandardize(WORKED) == Tableau.of([[1, 1, 1, 2], [2, 3], [3]])


def test_standardize_fixes_standard_tableaux():
    for lam in partitions(5):
        for t in syt(lam):
            assert standardize(t) == t


def test_destandardize_lands_in_quasi_yamanouchi():
    for n in range(1, 7):
        for lam in partitions(n):
            for t in semistandard_tableaux(lam, 5):
                assert is_quasi_yamanouchi(destandardize(t))
                assert descent_composition(destandardize(t)) == descent_composition(t)
                assert descent_composition(standardize(t)) == descent_composition(t)
                assert destandardize(standardize(t)) == destandardize(t)


def test_canonical_identification():
    # standardize and destandardize are inverse bijections QY <-> SYT
    for lam in partitions(5):
        qy = quasi_yamanouchi_tableaux(lam)
        assert sorted(standardize(t).rows for t in qy) == sorted(
            t.rows for t in syt(lam)
        )
        for t in qy:
            assert destandardize(standardize(t)) == t
        for t in syt(lam):
            assert standardize(destandardize(t)) == t


def test_stats_examples():
    stats = tableau_stats(Tableau.of([[1, 1, 4, 4], [2, 4], [3]]))
    assert stats.descent_composition == (2, 1, 4)
    assert stats.depth == 9

    syt = Tableau.of([[1, 2, 3, 5], [4, 7], [6]])
    assert descent_set(syt) == (3, 5)
    assert tableau_stats(syt).maj == 8
    # descent set = proper prefix sums of the descent composition
    assert descent_set(syt) == (3, 3 + 2)


def test_descent_set_is_prefix_sums_of_descent_composition():
    # the row-position route (where does i+1 sit relative to i) and the
    # band-parsing route must agree on every standard tableau
    for n in range(1, 7):
        for lam in partitions(n):
            for t in syt(lam):
                row_of = {t.entry(r, c): r for r, c in t.cells()}
                physical = tuple(
                    i for i in range(1, n) if row_of[i + 1] > row_of[i]
                )
                assert descent_set(t) == physical
                alpha = descent_composition(t)
                prefix = []
                total = 0
                for part in alpha[:-1]:
                    total += part
                    prefix.append(total)
                assert tuple(prefix) == physical


def test_tableau_stats_descent_set_matches_standardization():
    # tableau_stats reads the descent set off the band parsing; descent_set
    # standardizes and compares the rows of i and i+1
    checked = 0
    for n in range(1, 7):
        for lam in partitions(n):
            for t in semistandard_tableaux(lam, 4):
                assert tableau_stats(t).descent_set == descent_set(t), t
                checked += 1
    assert checked == 1000


def test_superstandard_is_quasi_yamanouchi():
    for n in range(1, 7):
        for lam in partitions(n):
            # row i filled with i
            t = Tableau.of([i] * length for i, length in enumerate(lam, start=1))
            stats = tableau_stats(t)
            assert stats.is_quasi_yamanouchi
            assert stats.descent_composition == lam
            assert stats.weight == lam


def test_weight_with_gaps_is_not_quasi_yamanouchi():
    t = Tableau.of([[1, 1], [3, 3]])
    assert weight(t) == (2, 0, 2)
    assert descent_composition(t) == (2, 2)
    assert not is_quasi_yamanouchi(t)


def test_quasi_yamanouchi_of_32():
    expected = [
        [[1, 1, 1], [2, 2]],
        [[1, 1, 2], [2, 2]],
        [[1, 1, 2], [2, 3]],
        [[1, 2, 2], [2, 3]],
        [[1, 2, 3], [2, 3]],
    ]
    assert [t.to_json() for t in quasi_yamanouchi_tableaux((3, 2))] == expected


def syt_by_descent(shape):
    """The oracle for f_{shape,alpha}: SYT of `shape` counted by descent composition."""
    return Counter(descent_composition(t) for t in syt(shape))


def test_quasi_kostka_of_332():
    alpha = (1, 2, 2, 2, 1)
    assert quasi_kostka_coefficient((3, 3, 2), alpha) == syt_by_descent((3, 3, 2))[alpha] == 3


def test_unit_diagonal():
    for n in range(1, 9):
        for lam in partitions(n):
            assert quasi_kostka_coefficient(lam, lam) == syt_by_descent(lam)[lam] == 1
            assert kostka(lam, lam) == 1


def test_quasi_kostka_at_most_kostka():
    for n in range(1, 8):
        for lam in partitions(n):
            for alpha in compositions(n):
                assert quasi_kostka_coefficient(lam, alpha) <= kostka(lam, alpha)


def test_quasi_kostka_two_routes_agree():
    # counting SYT by descent must match counting QY tableaux by weight,
    # the skeleton polynomial's terms and the coefficient read from it
    for n in range(1, 7):
        for lam in partitions(n):
            by_descent = syt_by_descent(lam)
            by_weight = Counter(weight(t) for t in quasi_yamanouchi_tableaux(lam))
            assert by_weight == by_descent
            terms = {trim(exps): c for (exps, _, _), c in skeleton_poly(lam).terms.items()}
            assert terms == by_descent
            for alpha in compositions(n):
                assert quasi_kostka_coefficient(lam, alpha) == by_descent[alpha]


def test_quasi_yamanouchi_matches_filtered_ssyt():
    # destandardized SYT against the definition: bounded SSYT whose weight is their descent
    for n in range(1, 8):
        for lam in partitions(n):
            filtered = [
                t
                for t in semistandard_tableaux(lam, max_descent_length(lam))
                if is_quasi_yamanouchi(t)
            ]
            assert list(quasi_yamanouchi_tableaux(lam)) == filtered


def test_triangularity():
    for n in range(1, 8):
        for lam in partitions(n):
            for t in quasi_yamanouchi_tableaux(lam):
                alpha = descent_composition(t)
                assert dominance_leq(alpha, lam)
                assert dominance_leq(lambda_bar(lam), alpha)


def test_descent_reversal_counts():
    for n in range(1, 8):
        for lam in partitions(n):
            for alpha in compositions(n):
                assert quasi_kostka_coefficient(lam, alpha) == quasi_kostka_coefficient(
                    lam, alpha[::-1]
                )


def test_special_tableaux_examples():
    # the anti-supersemistandard tableau: the one QY filling of descent lambda_bar
    assert deepest_fillings((3, 3, 1)) == [Tableau.of([[1, 3, 4], [2, 4, 5], [3]])]
    # for a column it is the superstandard tableau, row i filled with i
    assert deepest_fillings((1, 1, 1)) == [Tableau.of([[1], [2], [3]])]


def test_deepest_filling_unique():
    for n in range(1, 8):
        for lam in partitions(n):
            (got,) = deepest_fillings(lam)
            assert descent_composition(got) == lambda_bar(lam)


def test_enumeration_counts():
    assert len(syt((4,))) == 1
    assert len(syt((2, 2))) == 2
    assert len(syt((3, 2))) == 5
    assert len(semistandard_tableaux((3, 2), 3)) == 15
    assert semistandard_tableaux((2, 1), 1) == []
    assert len(standard_with_descent((3, 3, 2), (1, 2, 2, 2, 1))) == 3


def test_semistandard_fill_against_brute_force():
    # every weakly increasing filling, kept when its columns strictly increase
    for n in range(0, 6):
        for lam in partitions(n):
            for bound in range(0, 5):
                cells = list(product(range(1, bound + 1), repeat=n))
                brute = []
                for word in cells:
                    rows, start = [], 0
                    for length in lam:
                        rows.append(word[start : start + length])
                        start += length
                    t = Tableau(tuple(rows))
                    if t.is_semistandard():
                        brute.append(t)
                assert semistandard_tableaux(lam, bound) == sorted(brute, key=lambda t: t.rows)
                for alpha in set(map(weight, brute)):
                    padded = alpha + (0,) * (bound - len(alpha))
                    assert semistandard_with_weight(lam, padded) == [
                        t for t in brute if weight(t) == alpha
                    ]


def test_semistandard_fill_of_a_tall_rectangle_is_quick():
    # each row is drawn only with room left for the rows under it, so no
    # partial filling is a dead end: 10,626 tableaux, not a search of 5^80
    start = process_time()
    assert len(semistandard_tableaux((20, 20, 20, 20), 5)) == 10_626
    assert process_time() - start < 5


def test_weighted_fill_of_a_long_row_is_quick():
    # each value adds one cell to a shape (v - 1, 0) or (v - 2, 1), so after v values
    # there are at most v partial tableaux: 21 distinct values list 20 tableaux with
    # no search over 2^20 prefixes
    start = process_time()
    listing = semistandard_with_weight((20, 1), (1,) * 21)
    assert process_time() - start < 1
    assert len(listing) == 20
    assert all(t.is_semistandard() and t.rows[1] != (1,) for t in listing)


def test_weighted_listing_carries_no_dead_partial_tableaux():
    # (20, 20) at weight 1^20 then 20 has one SSYT: the last strip of 20 cells fits
    # only on the inner shape (20, 0), so the ones fill the first row, and no other
    # filling of up to 20 cells inside (20, 20) is carried
    start = process_time()
    (only,) = semistandard_with_weight((20, 20), (1,) * 20 + (20,))
    assert process_time() - start < 0.1
    assert only.rows == (tuple(range(1, 21)), (21,) * 20)


def test_one_long_row_is_counted_and_listed_in_one_strip():
    # a strip of one row is built at the one size that fills it, whatever its length
    start = process_time()
    assert kostka((10**18,), (10**18,)) == 1
    assert process_time() - start < 1
    start = process_time()
    (only,) = semistandard_with_weight((200_000,), (200_000,))
    assert process_time() - start < 1
    assert only.rows == ((1,) * 200_000,)


def test_kostka_counts_match_the_listing():
    # Gessel: K(lam, w) counts the SYT of lam whose descent set lies in the partial
    # sums of w, read off the descent compositions of the Yamanouchi table; the
    # listing grows the same strips as the count, so it is checked against both.
    # Every composition of n <= 7, and every weight made from one by putting a zero
    # before, between or after its parts.
    for n in range(8):
        descent_sets = {
            lam: Counter(frozenset(accumulate(row.descent_composition[:-1]))
                         for row in yamanouchi_table(lam))
            for lam in partitions(n)
        }
        for alpha in compositions(n):
            weights = [alpha] + [alpha[:i] + (0,) + alpha[i:] for i in range(len(alpha) + 1)]
            for lam, tally in descent_sets.items():
                for w in weights:
                    cuts = set(accumulate(w))
                    gessel = sum(count for des, count in tally.items() if des <= cuts)
                    assert kostka(lam, w) == gessel == len(semistandard_with_weight(lam, w))


def test_kostka_of_a_weight_with_many_parts():
    # 500 values, counted one value at a time with no call nested per value
    assert kostka((1,) * 500, (1,) * 500) == kostka((500,), (1,) * 500) == 1
    assert kostka((2, 1), (1, 0, 1, 0, 1)) == 2


def test_negative_weight_part_is_rejected():
    # (2, -1, 2) sums to |(2, 1)|, so only the sign check stands between it and the fill
    with pytest.raises(ValueError, match="nonnegative"):
        semistandard_with_weight((2, 1), (2, -1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        kostka((2, 1), (2, -1, 2))
    assert kostka((2, 1), (2, 0, 1)) == 1


def test_enumeration_is_deterministic_and_sorted():
    listing = semistandard_tableaux((2, 1), 3)
    assert listing == sorted(listing, key=lambda t: t.rows)
    assert [t.to_json() for t in listing[:2]] == [[[1, 1], [2]], [[1, 1], [3]]]


@st.composite
def ssyt(draw):
    lam = draw(st.sampled_from([lam for n in range(1, 6) for lam in partitions(n)]))
    pool = semistandard_tableaux(lam, 5)
    return draw(st.sampled_from(pool))


@given(ssyt())
def test_parsing_properties_random(t):
    bands = minimal_parsing(t)
    assert sum(band.size for band in bands) == t.size
    labels = [[t.entry(r, c) for r, c in band.cells] for band in bands]
    for band, entries in zip(bands, labels):
        assert entries == sorted(entries)
        for (r1, c1), (r2, c2) in zip(band.cells, band.cells[1:]):
            assert r1 >= r2 and c1 < c2
    for first, second in zip(labels, labels[1:]):
        assert max(first) < min(second)


def _table_oracle_shapes():
    shapes = [lam for n in range(9) for lam in partitions(n)]
    return shapes + [(9,), (1,) * 9]


def test_yamanouchi_table_against_per_tableau_routes():
    # every table row against the fill and the minimal parsing, for |shape| <= 8
    # plus the empty shape and one row and one column of 9
    checked = 0
    for lam in _table_oracle_shapes():
        n = sum(lam)
        table = yamanouchi_table(lam)
        fill = semistandard_with_weight(lam, (1,) * n)
        assert syt(lam) == fill
        by_rows = {}
        for row in table:
            rows = [[] for _ in lam]
            for i, r in enumerate(row.word, start=1):
                rows[r].append(i)
            by_rows[Tableau.of(rows)] = row
        assert len(by_rows) == len(table) == len(fill)
        assert set(by_rows) == set(fill)
        assert list(table) == sorted(table, key=lambda row: row.word)  # walk order
        for t in fill:
            row = by_rows[t]
            assert row.descent_composition == descent_composition(t)
            assert row.stats().maj == sum(descent_set(t))
            assert row.stats() == tableau_stats(t)
            assert row.stats(quasi_yamanouchi=True) == tableau_stats(destandardize(t))
            checked += 1
        # each QY tableau is the destandardization of its row's SYT, in sorted order
        qy_pairs = tableaux_from_table(lam, quasi_yamanouchi=True)
        assert sorted(destandardize(t).rows for t in fill) == [q.rows for q, _ in qy_pairs]
        for q, row in qy_pairs:
            t = standardize(q)
            assert destandardize(t) == q
            assert by_rows[t] is row
        assert list(quasi_yamanouchi_tableaux(lam)) == [q for q, _ in qy_pairs]
    assert checked == sum(len(syt(lam)) for lam in _table_oracle_shapes())


def test_bounded_table_is_the_table_cut_at_the_bound():
    # the walk's prune against the unbounded walk filtered by run count, for
    # |shape| <= 10 at every bound from 0 to one past the most runs; a bound at or
    # past the most runs shares the unbounded table, kept as the last one walked
    for n in range(11):
        for lam in partitions(n):
            table = yamanouchi_table(lam)
            most = max_descent_length(lam) if lam else 0
            for bound in range(most + 2):
                if lam and bound >= most:
                    table = yamanouchi_table(lam)
                cut = yamanouchi_table(lam, bound)
                assert cut == tuple(
                    row for row in table if len(row.descent_composition) <= bound
                ), (lam, bound)
                if lam and bound >= most:
                    assert cut is table
    assert yamanouchi_table((2, 1), -1) == ()


def test_yamanouchi_table_edge_shapes():
    assert yamanouchi_table(()) == (YamanouchiRow((), ()),)
    assert tuple(syt(())) == quasi_yamanouchi_tableaux(()) == (Tableau(()),)
    assert yamanouchi_table((4,)) == (YamanouchiRow((0, 0, 0, 0), (4,)),)
    assert yamanouchi_table((1, 1, 1)) == (YamanouchiRow((0, 1, 2), (1, 1, 1)),)
    assert quasi_yamanouchi_tableaux((1, 1, 1)) == (Tableau.of([[1], [2], [3]]),)
    # the walk is a loop, so a row and a column longer than the recursion limit are walked
    assert yamanouchi_table((1200,)) == (YamanouchiRow((0,) * 1200, (1200,)),)
    column = (1,) * 1200
    assert yamanouchi_table(column) == (YamanouchiRow(tuple(range(1200)), column),)
    with pytest.raises(ValueError, match="not a partition"):
        yamanouchi_table((1, 2))


def test_descent_tally_against_the_strip_walk():
    # the SYT of a shape are its SSYT of weight 1^n, listed by horizontal strips, with
    # no code shared with the Yamanouchi walk; each is parsed here one at a time
    for n in range(1, 9):
        for lam in partitions(n):
            listing = semistandard_with_weight(lam, (1,) * n)
            assert descent_tally(lam) == Counter(map(descent_composition, listing)), lam
            majs = Counter(sum(descent_set(t)) for t in listing)
            assert fake_degree(lam).coeffs == tuple(majs[d] for d in range(max(majs) + 1)), lam


def test_one_table_is_kept_and_one_tally_per_shape():
    # the skeleton polynomial and the fake degree share one tally, walked once, and
    # only the last table walked stays; `skeleton --table` walks each shape once
    from skelpoly.cli import main

    shapes = [lam for n in range(1, 9) for lam in partitions(n)]
    yamanouchi_table.cache_clear()
    descent_tally.cache_clear()
    for lam in shapes:
        skeleton_poly(lam)
        fake_degree(lam)
    assert yamanouchi_table.cache_info().currsize <= 1
    assert yamanouchi_table.cache_info().misses == len(shapes)
    assert descent_tally.cache_info().misses == len(shapes)
    yamanouchi_table.cache_clear()
    descent_tally.cache_clear()
    assert main(["skeleton", "--table", "8"]) == 0
    assert yamanouchi_table.cache_info().misses == 67 == len(shapes) + 1


def test_descent_filter_reads_the_table():
    for n in range(1, 8):
        for lam in partitions(n):
            listed = 0
            for alpha in compositions(n):
                got = standard_with_descent(lam, alpha)
                assert got == [t for t in syt(lam) if descent_composition(t) == alpha]
                listed += len(got)
            assert listed == len(syt(lam))
    assert standard_with_descent((3, 2), (2, 0, 3)) == []


def test_table_routes_make_no_parsing(monkeypatch):
    import skelpoly.tableaux as tableaux_module
    from skelpoly.cli import main

    calls = []

    def counted(t):
        calls.append(t)
        return minimal_parsing(t)

    monkeypatch.setattr(tableaux_module, "minimal_parsing", counted)
    shape = (4, 3, 1, 1)
    yamanouchi_table.cache_clear()
    descent_tally.cache_clear()
    assert main(["tableaux", "4,3,1,1", "--qy"]) == 0
    assert main(["tableaux", "4,3,1,1", "--syt", "--format", "json"]) == 0
    assert main(["skeleton", "4,3,1,1"]) == 0
    assert fake_degree(shape).coefficient(0) == 0
    assert standard_with_descent(shape, (4, 3, 1, 1)) != []
    assert len(deepest_fillings(shape)) == 1
    assert calls == []
    descent_composition(Tableau.of([[1, 2], [3]]))
    assert len(calls) == 1  # the counter is live
