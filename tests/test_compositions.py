import pickle
from itertools import product

import pytest
from hypothesis import given, strategies as st
from math import comb

from skelpoly.compositions import is_partition, partitions_within
from skelpoly import (
    IndexSet,
    comp_to_set,
    compositions,
    conjugate,
    depth,
    descent_composition,
    dominance_covers,
    dominance_leq,
    is_hook,
    is_regular,
    lambda_bar,
    max_descent_length,
    partitions,
    raising_covers,
    refinements,
    set_to_comp,
    subsets,
    superboolean_covers,
    tableaux_from_table,
)

small_comps = st.lists(st.integers(min_value=1, max_value=4), max_size=5).map(tuple)


def _refines(fine, coarse):
    """Check that consecutive blocks of `fine` sum to the parts of `coarse`."""
    idx = 0
    for part in coarse:
        total = 0
        while total < part:
            if idx >= len(fine):
                return False
            total += fine[idx]
            idx += 1
        if total != part:
            return False
    return idx == len(fine)


def test_refinements_of_23():
    assert refinements((2, 3)) == {
        (2, 3),
        (2, 2, 1),
        (2, 1, 2),
        (2, 1, 1, 1),
        (1, 1, 3),
        (1, 1, 2, 1),
        (1, 1, 1, 2),
        (1, 1, 1, 1, 1),
    }


def test_refinements_small():
    assert refinements((1,)) == {(1,)}
    assert len(refinements((4,))) == 8


def test_refinements_against_block_oracle():
    for alpha in compositions(5):
        expected = {beta for beta in compositions(5) if _refines(beta, alpha)}
        assert refinements(alpha) == expected


def test_dominance_examples():
    assert dominance_leq((1, 3), (2, 2))
    assert not dominance_leq((2, 1, 1), (1, 3))
    assert not dominance_leq((1, 3), (2, 1, 1))
    assert dominance_leq((2, 2), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1, 1, 1))


def test_depth():
    assert depth((2, 1, 4)) == 9
    assert depth((7,)) == 0
    assert depth((1,) * 7) == 21


def test_raising_covers_examples():
    assert sorted(raising_covers((2, 2))) == [(1, 3), (2, 1, 1)]
    assert raising_covers((1, 1, 1, 1)) == []
    assert raising_covers((4,)) == [(3, 1)]


def test_raising_covers_contract():
    for n in range(1, 7):
        for alpha in compositions(n):
            for gamma in raising_covers(alpha):
                assert gamma != alpha
                assert dominance_leq(gamma, alpha)
                assert depth(gamma) == depth(alpha) + 1


def test_raising_covers_are_exactly_hasse_edges():
    for n in range(1, 9):
        raised = {(g, a) for a in compositions(n) for g in raising_covers(a)}
        assert raised == set(dominance_covers(n))


def test_dominance_grading_and_extremes():
    for n in range(1, 8):
        for lower, upper in dominance_covers(n):
            assert depth(lower) == depth(upper) + 1
        depths = {alpha: depth(alpha) for alpha in compositions(n)}
        assert [a for a, d in depths.items() if d == 0] == [(n,)]
        assert [a for a, d in depths.items() if d == comb(n, 2)] == [(1,) * n]
        assert max(depths.values()) == comb(n, 2)


def test_raising_reaches_everything():
    for n in range(1, 8):
        seen = {(n,)}
        frontier = [(n,)]
        while frontier:
            alpha = frontier.pop()
            for gamma in raising_covers(alpha):
                if gamma not in seen:
                    seen.add(gamma)
                    frontier.append(gamma)
        assert seen == set(compositions(n))


def test_comp_to_set_examples():
    assert comp_to_set((2, 1, 4)) == IndexSet(7, (2, 3))
    assert comp_to_set((7,)) == IndexSet(7, ())
    assert sum(comp_to_set((2, 1, 4)).members) == 5


def test_subset_dictionary_round_trip():
    for n in range(9):
        for alpha in compositions(n):
            assert set_to_comp(comp_to_set(alpha)) == alpha
        for a in subsets(n):
            assert comp_to_set(set_to_comp(a)) == a


@given(small_comps)
def test_round_trip_random(alpha):
    if alpha:
        assert set_to_comp(comp_to_set(alpha)) == alpha


def test_maj_of_set():
    # maj of a subset of [n-1] is the sum of its members, which are stored sorted
    assert sum(IndexSet(7, (3, 2)).members) == 5
    assert sum(IndexSet(4, ()).members) == 0
    assert sum(IndexSet(4, (1, 2, 3)).members) == 6


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(4, (4,))
    with pytest.raises(ValueError):
        IndexSet(4, (1, 1))


def test_index_set_value_semantics():
    with pytest.raises(ValueError, match=r"members must lie in \[1, 3\]: \(0, 2\)"):
        IndexSet(4, (0, 2))
    with pytest.raises(ValueError, match=r"duplicate members: \(2, 1, 2\)"):
        IndexSet(4, (2, 1, 2))
    s = IndexSet(5, (3, 1))
    assert s.members == (1, 3) and repr(s) == "IndexSet(n=5, members=(1, 3))"
    assert s == IndexSet(5, [1, 3]) and hash(s) == hash((5, (1, 3)))
    assert s != IndexSet(6, (1, 3)) and s != (5, (1, 3))
    assert pickle.loads(pickle.dumps(s)) == s
    # ordered by n first, then members as tuples
    assert IndexSet(5, (1, 3)) < IndexSet(5, (2,)) < IndexSet(6, ()) <= IndexSet(6, ())
    assert IndexSet(6, ()) > IndexSet(5, (4,)) >= IndexSet(5, (4,))
    with pytest.raises(TypeError):
        IndexSet(5, ()) < (5, ())
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        s.n = 6
    with pytest.raises(AttributeError, match="cannot delete field 'members'"):
        del s.members


def test_superboolean_covers_examples():
    assert superboolean_covers(IndexSet(4, ())) == [IndexSet(4, (1,))]
    assert superboolean_covers(IndexSet(4, (2,))) == [
        IndexSet(4, (1, 2)),
        IndexSet(4, (3,)),
    ]
    assert superboolean_covers(IndexSet(4, (1, 2, 3))) == []


def test_superboolean_grading_and_reachability():
    for n in range(1, 8):
        bottom = IndexSet(n, ())
        seen = {bottom}
        frontier = [bottom]
        while frontier:
            a = frontier.pop()
            for b in superboolean_covers(a):
                assert sum(b.members) == sum(a.members) + 1
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        assert seen == set(subsets(n))


def test_hasse_diagram_of_comp4_matches_known_picture():
    expected = {
        ((3, 1), (4,)),
        ((2, 2), (3, 1)),
        ((2, 1, 1), (2, 2)),
        ((1, 3), (2, 2)),
        ((1, 2, 1), (2, 1, 1)),
        ((1, 2, 1), (1, 3)),
        ((1, 1, 2), (1, 2, 1)),
        ((1, 1, 1, 1), (1, 1, 2)),
    }
    assert set(dominance_covers(4)) == expected


def test_superboolean_diagram_on_three_elements():
    edges = {
        (a, b) for a in subsets(4) for b in superboolean_covers(a)
    }
    expected = {
        (IndexSet(4, ()), IndexSet(4, (1,))),
        (IndexSet(4, (1,)), IndexSet(4, (2,))),
        (IndexSet(4, (2,)), IndexSet(4, (1, 2))),
        (IndexSet(4, (2,)), IndexSet(4, (3,))),
        (IndexSet(4, (1, 2)), IndexSet(4, (1, 3))),
        (IndexSet(4, (3,)), IndexSet(4, (1, 3))),
        (IndexSet(4, (1, 3)), IndexSet(4, (2, 3))),
        (IndexSet(4, (2, 3)), IndexSet(4, (1, 2, 3))),
    }
    assert edges == expected


def test_shape_stats_examples():
    assert conjugate((3, 3, 1)) == (3, 2, 2)
    assert lambda_bar((3, 3, 1)) == (1, 1, 2, 2, 1)
    assert lambda_bar((5,)) == (5,)
    assert is_hook((5,))
    assert not is_regular((2, 2))
    assert is_regular((3, 2))
    assert max_descent_length((3, 2)) == 3
    with pytest.raises(ValueError, match="empty partition"):
        max_descent_length(())
    with pytest.raises(ValueError, match="empty partition"):
        lambda_bar(())


def test_lambda_bar_depth_identity():
    for n in range(1, 9):
        for lam in partitions(n):
            assert depth(lambda_bar(lam)) == comb(n, 2) - depth(conjugate(lam))
            assert sum(lambda_bar(lam)) == n


def test_partitions_within_bounds_length_and_parts():
    # p(n) for n = 0..12, each partition once, in descending lexicographic order
    assert [len(partitions(n)) for n in range(13)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n in range(13):
        assert list(partitions(n)) == sorted(set(partitions(n)), reverse=True)
        assert all(is_partition(lam) and sum(lam) == n for lam in partitions(n))
    for total, length, largest in product(range(9), repeat=3):
        assert list(partitions_within(total, length, largest)) == [
            lam for lam in partitions(total) if len(lam) <= length and lam[:1] <= (largest,)
        ]


def test_hook_and_regular_flags():
    assert is_hook((4, 1, 1))
    assert is_hook((1, 1, 1))
    assert is_hook((3,))
    assert not is_hook((2, 2))
    assert is_regular((1,))
    assert not is_regular((3, 3, 3))
    assert is_regular((3, 3, 2))


def test_descent_length_extremes_over_standard_tableaux():
    for n in range(1, 8):
        for lam in partitions(n):
            lengths = {
                len(descent_composition(t)) for t, _ in tableaux_from_table(lam)
            }
            assert max(lengths) == max_descent_length(lam)
            assert min(lengths) == len(lam)
