import pytest
from hypothesis import given, strategies as st

from skelpoly import (
    Tableau,
    compositions,
    descent_composition,
    descent_set,
    destandardize,
    dominance_leq,
    is_quasi_yamanouchi,
    kostka,
    lambda_bar,
    max_descent_length,
    minimal_parsing,
    partitions,
    quasi_kostka,
    quasi_yamanouchi_tableaux,
    semistandard_tableaux,
    special_tableaux,
    standard_tableaux,
    standard_with_descent,
    standardize,
    tableau_stats,
    weight,
)

WORKED = Tableau.of([[1, 1, 2, 5], [3, 8], [8]])


def test_tableau_predicates():
    assert WORKED.is_semistandard()
    assert not WORKED.is_standard()
    assert Tableau.of([[1, 2, 3, 5], [4, 7], [6]]).is_standard()
    assert not Tableau.of([[2, 1]]).is_semistandard()
    assert not Tableau.of([[1, 2], [1, 3]]).is_semistandard()
    assert not Tableau.of([[1], [1, 2]]).is_semistandard()


def test_minimal_parsing_worked_example():
    bands = minimal_parsing(WORKED)
    assert [band.size for band in bands] == [3, 2, 2]
    assert bands[0].labels == (1, 1, 2)
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
    superstandard = special_tableaux((3, 2)).superstandard
    assert descent_composition(superstandard) == (3, 2)
    syt = Tableau.of([[1, 3, 7], [2, 5, 8], [4, 6]])
    assert descent_composition(syt) == (1, 2, 2, 2, 1)


def test_standardize_worked_example():
    assert standardize(WORKED) == Tableau.of([[1, 2, 3, 5], [4, 7], [6]])
    assert destandardize(WORKED) == Tableau.of([[1, 1, 1, 2], [2, 3], [3]])


def test_standardize_fixes_standard_tableaux():
    for lam in partitions(5):
        for t in standard_tableaux(lam):
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
            t.rows for t in standard_tableaux(lam)
        )
        for t in qy:
            assert destandardize(standardize(t)) == t
        for t in standard_tableaux(lam):
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
            for t in standard_tableaux(lam):
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
            t = special_tableaux(lam).superstandard
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


def test_quasi_kostka_of_332():
    assert quasi_kostka((3, 3, 2), (1, 2, 2, 2, 1)) == 3


def test_unit_diagonal():
    for n in range(1, 9):
        for lam in partitions(n):
            assert quasi_kostka(lam, lam) == 1
            assert kostka(lam, lam) == 1


def test_quasi_kostka_at_most_kostka():
    for n in range(1, 8):
        for lam in partitions(n):
            for alpha in compositions(n):
                assert quasi_kostka(lam, alpha) <= kostka(lam, alpha)


def test_quasi_kostka_two_routes_agree():
    # counting SYT by descent must match counting QY tableaux by weight
    for n in range(1, 7):
        for lam in partitions(n):
            by_weight = {}
            for t in quasi_yamanouchi_tableaux(lam):
                by_weight[weight(t)] = by_weight.get(weight(t), 0) + 1
            for alpha in compositions(n):
                assert quasi_kostka(lam, alpha) == by_weight.get(alpha, 0)


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
                assert quasi_kostka(lam, alpha) == quasi_kostka(lam, alpha[::-1])


def test_special_tableaux_examples():
    got = special_tableaux((3, 3, 1))
    assert got.anti_supersemistandard == Tableau.of([[1, 3, 4], [2, 4, 5], [3]])
    column = special_tableaux((1, 1, 1))
    assert column.superstandard == column.anti_supersemistandard
    assert column.superstandard == Tableau.of([[1], [2], [3]])


def test_deepest_filling_unique():
    # special_tableaux raises unless exactly one tableau realizes lambda_bar
    for n in range(1, 8):
        for lam in partitions(n):
            got = special_tableaux(lam)
            assert descent_composition(got.anti_supersemistandard) == lambda_bar(lam)


def test_enumeration_counts():
    assert len(standard_tableaux((4,))) == 1
    assert len(standard_tableaux((2, 2))) == 2
    assert len(standard_tableaux((3, 2))) == 5
    assert len(semistandard_tableaux((3, 2), 3)) == 15
    assert semistandard_tableaux((2, 1), 1) == []
    assert len(standard_with_descent((3, 3, 2), (1, 2, 2, 2, 1))) == 3


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
    for band in bands:
        assert list(band.labels) == sorted(band.labels)
        for (r1, c1), (r2, c2) in zip(band.cells, band.cells[1:]):
            assert r1 >= r2 and c1 < c2
    for first, second in zip(bands, bands[1:]):
        assert max(first.labels) < min(second.labels)
