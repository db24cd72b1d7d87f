from collections import Counter
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from skelpoly import (
    MultiPoly,
    UniPoly,
    bifactorial,
    bifactorial_q_slice,
    compositions,
    conjugate,
    deep_skeleton,
    depth,
    fake_degree,
    internal_zeros,
    kostka,
    partitions,
    q_factorial,
    qsym_fundamental,
    qsym_monomial,
    quasi_kostka_coefficient,
    schur_poly,
    skeleton_poly,
    skeleton_poly_i,
    standard_count,
    tableaux_from_table,
)


def mono(exps, **kw):
    return MultiPoly.monomial(exps, **kw)


class TestMultiPoly:
    def test_arithmetic(self):
        f = mono((2, 0)) + mono((0, 2))
        g = mono((1, 1), coeff=3)
        assert (f + g) - g == f
        assert f * MultiPoly.zero(2) == MultiPoly.zero(2)
        assert f * MultiPoly.one(2) == f
        assert (f + g) * (f + g) == f * f + 2 * (f * g) + g * g
        assert -(-f) == f

    def test_zero_terms_are_dropped(self):
        f = mono((1,)) - mono((1,))
        assert not f
        assert f == MultiPoly.zero(1)
        assert f.terms == {}

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            mono((1,)) + mono((1, 0))
        with pytest.raises(ValueError):
            mono((1,)) * mono((1, 0))

    def test_sum_of_nothing_is_zero(self):
        assert MultiPoly.sum([], 3) == MultiPoly.zero(3)
        assert MultiPoly.sum(iter(()), 0).arity == 0

    def test_sum_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.sum([mono((1, 0)), mono((1,))], 2)
        with pytest.raises(ValueError):
            MultiPoly.sum([mono((1,))], 2)

    def test_sum_equals_left_fold(self):
        summands = [
            mono((2, 0), p=1),
            mono((0, 2), coeff=-3),
            mono((1, 1), q=2),
            mono((2, 0), coeff=5, p=1),
            mono((0, 0), coeff=7),
        ]
        folded = MultiPoly.zero(2)
        for f in summands:
            folded = folded + f
        total = MultiPoly.sum(summands, 2)
        assert total == folded
        assert total.terms == folded.terms

    def test_sum_drops_cancelled_terms(self):
        total = MultiPoly.sum([mono((1, 2), coeff=2), mono((3, 0)), mono((1, 2), coeff=-2)], 2)
        assert total == mono((3, 0))
        assert list(total.terms) == [((3, 0), 0, 0)]
        assert not MultiPoly.sum([mono((1,)), -mono((1,))], 1).terms

    def test_embed_and_reverse(self):
        f = mono((2, 1))
        assert f.embed(4, 1) == mono((0, 2, 1, 0))
        assert f.reverse() == mono((1, 2))
        assert f.reverse().reverse() == f
        with pytest.raises(ValueError):
            f.embed(2, 1)

    def test_evaluate(self):
        f = mono((2, 1), coeff=3, q=2)
        assert f.evaluate((2, 5), q=1) == 60
        assert f.evaluate((2, 5), q=10) == 6000
        assert f.evaluate() == 3
        assert (mono((1, 0)) + mono((0, 1))).evaluate((1, 0)) == 1

    def test_coefficient_and_support(self):
        f = mono((2, 1, 0)) + mono((1, 2, 0), coeff=4)
        assert f.coefficient((2, 1)) == 1
        assert f.coefficient((1, 2, 0)) == 4
        assert f.coefficient((3, 0, 0)) == 0
        assert f.support() == {(2, 1), (1, 2)}

    def test_str_compact(self):
        assert str(mono((3, 2)) + mono((2, 3))) == "x^32 + x^23"
        assert str(MultiPoly.zero(2)) == "0"
        assert str(mono((1,), coeff=3, q=2)) == "3·q^2·x^1"
        assert str(mono((12,))) == "x1^12"

    def test_latex_and_json(self):
        f = mono((2, 1), coeff=2) + mono((1, 2))
        assert f.latex() == "2x_{1}^{2}x_{2}+x_{1}x_{2}^{2}"
        payload = f.to_json()
        assert payload["arity"] == 2
        assert payload["terms"] == [
            {"exponents": [2, 1], "p": 0, "q": 0, "coefficient": 2},
            {"exponents": [1, 2], "p": 0, "q": 0, "coefficient": 1},
        ]

    @pytest.mark.parametrize("coeff", [1, -1, 2, -3])
    def test_constant_prints_as_its_coefficient(self, coeff):
        constant = mono((0, 0), coeff=coeff)
        assert str(constant) == constant.latex() == str(UniPoly((coeff,))) == str(coeff)
        with_x1 = constant + mono((1, 0), coeff=2)
        assert str(with_x1) == f"{coeff} + 2·x^1"
        assert with_x1.latex() == f"{coeff}+2x_{{1}}"
        assert str(UniPoly((coeff, 2))) == f"{coeff} + 2·q"

    def test_latex_negative_term_after_a_constant(self):
        assert (mono((0, 0), coeff=-1) + mono((1, 0), coeff=-1)).latex() == "-1-x_{1}"

    def test_specialize(self):
        f = mono((1,), p=2) + mono((1,), q=1)
        assert f.specialize(p=1, q=1) == mono((1,), coeff=2)
        assert f.specialize(p=2) == mono((1,), coeff=4) + mono((1,), q=1)


class TestUniPoly:
    def test_basics(self):
        f = UniPoly((1, 0, 2))
        assert f.coefficient(2) == 2 and f.coefficient(5) == 0
        assert f.degree() == 2
        assert f(3) == 19
        assert UniPoly((0, 0)).degree() == -1
        assert UniPoly.from_terms({3: 1, 1: 1}) == UniPoly((0, 1, 0, 1))

    def test_arithmetic(self):
        q = UniPoly((0, 1))
        assert (q + q) == UniPoly((0, 2))
        assert q * q == UniPoly((0, 0, 1))
        assert str(UniPoly((1, 2))) == "1 + 2·q"


def test_skeleton_32():
    poly = skeleton_poly((3, 2))
    expected = (
        mono((3, 2, 0))
        + mono((2, 3, 0))
        + mono((2, 2, 1))
        + mono((1, 3, 1))
        + mono((1, 2, 2))
    )
    assert poly == expected


def test_skeleton_one_row_one_column():
    assert skeleton_poly((4,)) == mono((4,))
    assert skeleton_poly((1, 1, 1)) == mono((1, 1, 1))
    assert skeleton_poly(()) == MultiPoly.one(0)


def test_skeleton_22_table_row():
    assert skeleton_poly((2, 2)) == mono((2, 2, 0)) + mono((1, 2, 1))


def test_skeleton_homogeneous_unit_leading():
    for n in range(1, 8):
        for lam in partitions(n):
            poly = skeleton_poly(lam)
            for exps, _, _ in poly.terms:
                assert sum(exps) == n
            assert quasi_kostka_coefficient(lam, lam) == 1
            assert poly.evaluate() == len(tableaux_from_table(lam))


def test_skeleton_i_parts():
    assert skeleton_poly_i((3, 2), 3) == mono((2, 2, 1)) + mono((1, 3, 1)) + mono((1, 2, 2))
    assert skeleton_poly_i((3, 2), 2) == mono((3, 2)) + mono((2, 3))
    assert not skeleton_poly_i((3, 2), 1)
    assert not skeleton_poly_i((3, 2), 4)


def test_skeleton_i_nonvanishing_range():
    for n in range(1, 9):
        for lam in partitions(n):
            low, high = len(lam), n - lam[0] + 1
            for i in range(0, high + 2):
                part = skeleton_poly_i(lam, i)
                assert bool(part) == (low <= i <= high)


def test_skeleton_i_reversal_fixed():
    for n in range(1, 7):
        for lam in partitions(n):
            for i in range(len(lam), n - lam[0] + 2):
                part = skeleton_poly_i(lam, i)
                assert part.reverse() == part
    assert skeleton_poly_i((2, 2), 3).reverse() == skeleton_poly_i((2, 2), 3)


def test_reverse_vars_basics():
    assert mono((2, 1)).reverse() == mono((1, 2))
    sym = mono((1, 1)) + mono((2, 0)) + mono((0, 2))
    assert sym.reverse() == sym


def test_deep_skeleton_32():
    poly = deep_skeleton((3, 2))
    expected = (
        mono((3, 2, 0), q=2)
        + mono((2, 3, 0), q=3)
        + mono((2, 2, 1), q=4)
        + mono((1, 3, 1), q=5)
        + mono((1, 2, 2), q=6)
    )
    assert poly == expected
    assert deep_skeleton((3,)) == mono((3,), q=0)


def test_deep_skeleton_specializes_and_substitutes():
    for n in range(1, 7):
        for lam in partitions(n):
            deep = deep_skeleton(lam)
            plain = skeleton_poly(lam)
            assert deep.specialize(q=1) == plain
            # the depth grading is the substitution x_i -> q^(i-1) x_i
            substituted = MultiPoly(
                plain.arity,
                {
                    (exps, 0, sum(i * e for i, e in enumerate(exps))): coeff
                    for (exps, _, _), coeff in plain.terms.items()
                },
            )
            assert deep == substituted


def test_schur_small():
    assert schur_poly((2, 1), 2) == mono((2, 1)) + mono((1, 2))
    assert schur_poly((2, 1), 0) == MultiPoly.zero(0)
    assert schur_poly((), 3) == MultiPoly.one(3)


def test_schur_is_symmetric():
    poly = schur_poly((3, 1), 3)
    swapped = MultiPoly(
        3, {((e[1], e[0], e[2]), p, q): c for (e, p, q), c in poly.terms.items()}
    )
    assert poly == swapped


def test_inner_polynomial_is_bounded_schur():
    for n in range(1, 7):
        for lam in partitions(n):
            assert skeleton_poly_i(lam, len(lam)) == schur_poly(lam, len(lam))


def test_qsym_monomial_23():
    assert qsym_monomial((2, 3), 3) == mono((2, 3, 0)) + mono((2, 0, 3)) + mono((0, 2, 3))
    assert qsym_monomial((2,), 0) == MultiPoly.zero(0)
    assert qsym_monomial((), 2) == MultiPoly.one(2)


def test_fundamental_of_one_part_is_complete_homogeneous():
    for n in range(1, 5):
        for k in range(4):
            assert qsym_fundamental((n,), k) == schur_poly((n,), k)


def test_schur_expands_in_fundamental_basis():
    for lam in partitions(5):
        expected = MultiPoly.zero(5)
        for alpha in compositions(5):
            coeff = quasi_kostka_coefficient(lam, alpha)
            if coeff:
                expected = expected + coeff * qsym_fundamental(alpha, 5)
        assert schur_poly(lam, 5) == expected


def test_schur_is_spread_from_flat_kostka_numbers():
    # s_lambda(x_1..x_k) is symmetric, so its coefficient at a weak composition c
    # is the Kostka number at c with its zero parts dropped, counted by strips
    for n in range(1, 8):
        for k in range(1, n + 1):
            weak = [
                tuple(b - a - 1 for a, b in zip((-1,) + cut, cut + (n + k - 1,)))
                for cut in combinations(range(n + k - 1), k - 1)
            ]
            assert len(weak) == comb(n + k - 1, k - 1)
            for lam in partitions(n):
                spread = {(c, 0, 0): kostka(lam, tuple(part for part in c if part)) for c in weak}
                assert schur_poly(lam, k) == MultiPoly(k, spread)


def test_fake_degrees_for_four():
    assert fake_degree((4,)) == UniPoly((1,))
    assert fake_degree((3, 1)) == UniPoly.from_terms({1: 1, 2: 1, 3: 1})
    assert fake_degree((2, 2)) == UniPoly.from_terms({2: 1, 4: 1})
    assert fake_degree((2, 1, 1)) == UniPoly.from_terms({3: 1, 4: 1, 5: 1})
    assert fake_degree((1, 1, 1, 1)) == UniPoly.from_terms({6: 1})


def test_fake_degree_via_depth():
    # the fold of the descent tally against maj and depth over the listed SYT, each
    # read by parsing the tableau: maj and depth give the same polynomial
    from skelpoly import tableau_stats

    for n in range(1, 9):
        for lam in partitions(n):
            by_maj, by_depth = Counter(), Counter()
            for t, _ in tableaux_from_table(lam):
                stats = tableau_stats(t)
                by_maj[stats.maj] += 1
                by_depth[stats.depth] += 1
            assert fake_degree(lam) == UniPoly.from_terms(by_maj) == UniPoly.from_terms(by_depth)


def test_fake_degree_endpoints():
    for n in range(1, 8):
        for lam in partitions(n):
            f = fake_degree(lam)
            lo = depth(lam)
            hi = comb(n, 2) - depth(conjugate(lam))
            assert f.coefficient(lo) == 1
            assert f.coefficient(hi) == 1
            assert f.support()[0] == lo and f.support()[-1] == hi


def test_internal_zeros():
    assert internal_zeros(UniPoly.from_terms({2: 1, 4: 1})) == (1, (3,))
    assert internal_zeros(UniPoly.from_terms({1: 1, 2: 1, 3: 1})) == (0, ())
    assert internal_zeros(UniPoly()) == (0, ())
    assert internal_zeros(fake_degree((3, 3))) == (2, (4, 8))


def test_exactly_one_internal_zero_only_for_22():
    from skelpoly import is_regular

    for n in range(1, 9):
        for lam in partitions(n):
            count = internal_zeros(fake_degree(lam)).count
            if is_regular(lam):
                assert count == 0
            else:
                assert (count == 1) == (lam == (2, 2))
                assert count in (1, 2)


def test_q_factorial():
    assert q_factorial(0) == UniPoly((1,))
    assert q_factorial(1) == UniPoly((1,))
    assert q_factorial(3) == UniPoly((1, 2, 2, 1))
    assert q_factorial(6).coefficient(4) == 49
    for n in range(7):
        assert q_factorial(n)(1) == factorial(n)


def test_bifactorial_four():
    bi = bifactorial(4)
    assert bifactorial_q_slice(bi, 3) == UniPoly((0, 1, 1, 2, 1, 1))
    assert bifactorial_q_slice(bi, 3)(1) == 6
    assert bifactorial(1) == MultiPoly.one(0)


def test_bifactorial_specializes_to_q_factorial():
    for n in range(1, 7):
        bi = bifactorial(n).specialize(p=1)
        collapsed = {}
        for (_, _, qe), coeff in bi.terms.items():
            collapsed[qe] = collapsed.get(qe, 0) + coeff
        assert UniPoly.from_terms(collapsed) == q_factorial(n)


def test_bifactorial_prime_slices_have_no_internal_zeros():
    for n in (2, 3, 5, 7):
        bi = bifactorial(n)
        for k in range(comb(n, 2) + 1):
            assert internal_zeros(bifactorial_q_slice(bi, k)).count == 0


def test_bifactorial_symmetry():
    # swapping p and q fixes the polynomial term by term
    for n in range(1, 7):
        bi = bifactorial(n)
        swapped = {((), qe, pe): c for ((_, pe, qe), c) in bi.terms.items()}
        assert bi == MultiPoly(0, swapped)


@given(st.integers(min_value=0, max_value=6))
def test_q_factorial_degree(n):
    assert q_factorial(n).degree() == comb(n, 2)


def test_hook_characterization():
    from skelpoly import is_hook, max_descent_length

    for n in range(1, 8):
        for lam in partitions(n):
            collapses = skeleton_poly_i(lam, len(lam)).embed(
                skeleton_poly(lam).arity
            ) == skeleton_poly(lam)
            assert is_hook(lam) == (len(lam) == max_descent_length(lam)) == collapses


def _hook_lengths(shape):
    """Hook lengths computed here, not through the library."""
    return [
        length - c + sum(1 for other in shape[r + 1 :] if other > c)
        for r, length in enumerate(shape)
        for c in range(length)
    ]


def test_hook_length_formula():
    for n in range(10):
        for lam in partitions(n):
            hooks = 1
            for h in _hook_lengths(lam):
                hooks *= h
            assert factorial(n) % hooks == 0
            expected = factorial(n) // hooks
            assert len(tableaux_from_table(lam)) == skeleton_poly(lam).evaluate() == expected
            assert standard_count(lam) == expected


def test_q_hook_formula():
    # Stanley, EC2 Cor. 7.21.5, without division: f^lam(q) prod [h]_q = q^b(lam) [n]_q!
    for n in range(1, 10):
        for lam in partitions(n):
            lhs = fake_degree(lam)
            for h in _hook_lengths(lam):
                lhs = lhs * UniPoly((1,) * h)
            assert lhs == UniPoly((0,) * depth(lam) + (1,)) * q_factorial(n), lam
