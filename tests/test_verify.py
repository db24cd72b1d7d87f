from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skelpoly import MultiPoly, verify
from skelpoly.verify import (
    CHECK_NAMES,
    check_bifactorial,
    check_bks,
    check_charge_depth,
    check_counting,
    check_hook_sum,
    check_linear_independence,
    check_mahonian,
    check_s6_inversion_count,
    check_schur_family,
    check_skeleton_r,
    check_skeleton_rs,
    check_skeleton_rsk,
    _witness,
    run_checks,
)
from skelpoly import (
    deep_skeleton,
    is_regular,
    partitions,
    perm_table,
    qsym_fundamental,
    quasi_kostka_matrix,
    schur_poly,
    skeleton_poly,
)


def test_skeleton_r():
    for n in range(1, 6):
        assert check_skeleton_r(n).passed
        assert check_skeleton_r(n, graded=True).passed


def test_skeleton_rs():
    for n in range(1, 6):
        assert check_skeleton_rs(n).passed
        assert check_skeleton_rs(n, graded=True).passed


def test_small_sums_explicitly():
    from skelpoly import all_permutations, inverse, skeleton_poly, word_descent_composition

    # involution side at n = 3: one monomial per descent composition but (2,1)
    total = MultiPoly.zero(3)
    for lam in partitions(3):
        total = total + skeleton_poly(lam).embed(3)
    expected = (
        MultiPoly.monomial((3, 0, 0))
        + MultiPoly.monomial((2, 1, 0))
        + MultiPoly.monomial((1, 2, 0))
        + MultiPoly.monomial((1, 1, 1))
    )
    assert total == expected

    # paired side at n = 3 factors through the three shapes
    def pad(alpha):
        return tuple(alpha) + (0,) * (3 - len(alpha))

    paired = MultiPoly.zero(6)
    for lam in partitions(3):
        poly = skeleton_poly(lam)
        paired = paired + poly.embed(6, 0) * poly.embed(6, 3)
    by_hand = MultiPoly.zero(6)
    for w in all_permutations(3):
        exps = pad(word_descent_composition(inverse(w))) + pad(word_descent_composition(w))
        by_hand = by_hand + MultiPoly.monomial(exps)
    assert paired == by_hand


def test_skeleton_rs_support_report():
    result = check_skeleton_rs(4, report_support=True)
    assert result.passed
    assert result.data["support_size"] == 22
    assert result.data["collisions"] == [
        [[1, 3, 2, 4], [3, 4, 1, 2]],
        [[2, 1, 4, 3], [4, 2, 3, 1]],
    ]


def test_skeleton_rsk():
    for n in range(1, 5):
        assert check_skeleton_rsk(n).passed
        assert check_skeleton_rsk(n, graded=True).passed


def test_rs_and_rsk_multiply_in_blocks(monkeypatch):
    products = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        if isinstance(other, MultiPoly):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    for graded in (False, True):
        assert check_skeleton_rs(5, graded).passed
        assert check_skeleton_rsk(5, graded=graded).passed
    assert products == []
    assert check_skeleton_rsk(7, graded=True).passed
    MultiPoly.one(1) * MultiPoly.one(1)
    assert len(products) == 1  # the counter is live


def test_counting():
    for n in range(1, 6):
        assert check_counting(n).passed


def test_hook_sum():
    for n in range(1, 7):
        assert check_hook_sum(n).passed


def test_mahonian():
    for n in range(1, 7):
        assert check_mahonian(n).passed


def test_bks():
    assert check_bks((2, 2)).passed
    assert check_bks((3, 1)).passed
    assert check_bks((3, 3)).passed
    for n in range(1, 7):
        for lam in partitions(n):
            assert check_bks(lam).passed


def test_schur_family():
    for n in range(1, 7):
        for lam in partitions(n):
            result = check_schur_family(lam)
            assert result.passed
            if not is_regular(lam):
                assert result.data["connected"] is False


def test_schur_family_22_support():
    result = check_schur_family((2, 2))
    assert result.passed
    assert result.data == {"support_size": 2, "connected": False}


def test_charge_depth():
    for n in range(1, 6):
        assert check_charge_depth(n).passed


def test_s6():
    result = check_s6_inversion_count()
    assert result.passed
    assert result.data == {"count": 49}


def test_linear_independence():
    for n in range(1, 7):
        assert check_linear_independence(n).passed


def _rank_by_fractions(matrix):
    """Gaussian elimination over Fraction: the oracle for the integer rank."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            scale = rows[r][col] / rows[rank][col]
            rows[r] = [a - scale * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def _integer_matrices(draw):
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))  # zeros below a pivot skip no row
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    # zero rows, repeated rows and integer combinations of earlier rows lower the rank
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combine"]))
        if kind == "zero" or not rows:
            new = [0] * ncols
        elif kind == "repeat":
            new = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            new = [x * u + y * v for u, v in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@settings(max_examples=400)
@given(_integer_matrices())
@example([[0, 0, 3, 3], [0, 1, 3, 2], [3, -5, 3, 3], [0, -5, 0, 7]])
@example([[7, 0, 7, -1, 0, 0], [0, 1, 1, 0, 0, 2], [0, -1, 0, 0, 1, 0], [0, 1, 0, 3, 1, 0]])
def test_integer_rank_matches_fraction_elimination(matrix):
    assert verify._rank_over_rationals(matrix) == _rank_by_fractions(matrix)


def test_rank_examples():
    assert verify._rank_over_rationals([]) == 0
    assert verify._rank_over_rationals([[0, 0], [0, 0]]) == 0
    assert verify._rank_over_rationals([[2, 4, 6], [1, 2, 3], [0, 0, 1]]) == 2
    assert verify._rank_over_rationals([[0, 3], [5, 7], [1, 1]]) == 2


def test_quasi_kostka_matrix_has_full_row_rank():
    for n in range(1, 9):
        shapes, _, matrix = quasi_kostka_matrix(n)
        assert verify._rank_over_rationals(matrix) == len(shapes) == _rank_by_fractions(matrix)


def test_bifactorial_check():
    for n in range(1, 6):
        assert check_bifactorial(n).passed


def test_poly_witness_reports_first_difference():
    # keys inserted out of canonical order: shorter exponents (trailing zeros dropped)
    # first, then larger parts, then smaller p
    lhs = Counter({((1, 1, 0), 0, 0): 2, ((2, 0, 0), 1, 0): 1, ((1, 2, 0), 0, 0): 1})
    rhs = Counter({((1, 2, 0), 0, 0): 5, ((1, 1, 0), 0, 0): 2, ((2, 0, 0), 0, 0): 4})
    witness = _witness(lhs, rhs)
    assert witness == {"exponents": [2, 0, 0], "p": 0, "q": 0, "lhs": 0, "rhs": 4}
    del rhs[(2, 0, 0), 0, 0]
    assert _witness(lhs, rhs) == {"exponents": [2, 0, 0], "p": 1, "q": 0, "lhs": 1, "rhs": 0}
    assert _witness(lhs, Counter(lhs)) is None


def test_run_checks_all_small():
    results = run_checks(["all"], max_n=4)
    assert results
    assert all(r.passed for r in results)
    assert {r.name for r in results} == set(CHECK_NAMES)


def test_run_checks_job_list_is_pinned():
    graded = [{"n": n, "graded": g} for n in (1, 2, 3) for g in (False, True)]
    shapes = [[1], [2], [1, 1], [3], [2, 1], [1, 1, 1]]
    expected = (
        [("skeleton-r", p) for p in graded]
        + [("skeleton-rs", p) for p in graded]
        + [("skeleton-rsk", {"n": p["n"], "k": p["n"], "graded": p["graded"]}) for p in graded]
        + [("counting", {"n": n, "i": None, "j": None}) for n in (1, 2, 3)]
        + [("hook-sum", {"n": n}) for n in (1, 2, 3)]
        + [("mahonian", {"n": n}) for n in (1, 2, 3)]
        + [("bks", {"shape": s}) for s in shapes]
        + [("schur-family", {"shape": s}) for s in shapes]
        + [("charge-depth", {"n": n}) for n in (1, 2, 3)]
        + [("s6-inversions", {})]
        + [("linear-independence", {"n": n}) for n in (1, 2, 3)]
        + [("bifactorial", {"n": n}) for n in (1, 2, 3)]
    )
    results = run_checks(["all"], max_n=3)
    assert len(expected) == 49
    assert [(r.name, r.params) for r in results] == expected


def test_sweep_flags_match_the_checks_that_sweep(monkeypatch):
    sizes = {name: [] for name in CHECK_NAMES}
    current = []

    def recording_table(n):
        sizes[current[-1]].append(n)
        return perm_table(n)

    monkeypatch.setattr(verify, "perm_table", recording_table)
    for name in CHECK_NAMES:
        current.append(name)
        assert all(r.passed for r in run_checks([name], max_n=2))
    # a check with a largest n sweeps S_n for each n up to its bound; s6-inversions
    # sweeps S_6 whatever the bound, so it has none
    swept = {name for name, ns in sizes.items() if ns and max(ns) == 2}
    assert swept == {
        name for name, (_, largest, _) in verify._CHECKS.items() if largest is not None
    }
    assert sizes["s6-inversions"] == [6]


def test_run_checks_refuses_runaway_sweep_before_any_work(monkeypatch):
    def must_not_enumerate(n):
        raise AssertionError("S_n enumeration reached for a refused size")

    monkeypatch.setattr(verify, "perm_table", must_not_enumerate)
    message = "verify mahonian at n=11 has 39916800 permutations, above the limit of 3628800"
    with pytest.raises(ValueError) as exc:
        run_checks(["mahonian"], max_n=11)
    assert str(exc.value) == message
    assert verify.MAX_PERMUTATIONS == 3628800


def test_skeleton_rsk_limit_admits_n10_and_refuses_n11(monkeypatch):
    sizes = []
    monkeypatch.setattr(verify, "check_skeleton_rsk", lambda n, graded: sizes.append(n))
    run_checks(["skeleton-rsk"], max_n=10)
    assert max(sizes) == 10
    with pytest.raises(ValueError) as exc:
        run_checks(["skeleton-rsk"], max_n=11)
    assert str(exc.value) == (
        "verify skeleton-rsk at n=11 has 39916800 permutations, above the limit of 3628800"
    )
    assert max(sizes) == 10


def test_run_checks_unknown_name():
    with pytest.raises(ValueError):
        run_checks(["no-such-check"])


def test_check_result_json_excludes_timing_by_default():
    result = check_s6_inversion_count()
    payload = result.to_json()
    assert "elapsed" not in payload
    assert "elapsed" in result.to_json(include_timing=True)


def _changed(value, n):
    """A different value of the same kind; the changed row is n..1, whose compositions are 1^n."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value - 1
    return (n,)


def _with_one_row_changed(table, field):
    """`table` with the row of the longest permutation changed in `field`."""

    def changed_table(n):
        longest = tuple(range(n, 0, -1))
        for w, row in table(n):
            if w == longest:
                row = row._replace(**{field: _changed(getattr(row, field), n)})
            yield w, row

    return changed_table


# Each check that sweeps S_n, with each field of a `perm_table` row it reads.
# Changing that field in one row must fail the check with the pinned witness.
SWEEP_MUTANTS = [
    (check, graded, field)
    for check in ("skeleton-r", "skeleton-rs", "skeleton-rsk")
    for graded in (False, True)
    for field in (
        ("is_involution" if check == "skeleton-r" else "inverse_descent_composition",
         "descent_composition")
        + (("depth",) if graded else ())
    )
] + [
    ("counting", False, field)
    for field in ("inverse_descent_composition", "descent_composition", "is_involution")
] + [
    ("mahonian", False, field) for field in ("maj", "depth", "inversions", "charge")
] + [
    ("charge-depth", False, field) for field in ("charge", "inverse_descent_composition")
] + [("bifactorial", False, field) for field in ("charge", "depth")]

SWEEP_CHECKS = {
    "skeleton-r": check_skeleton_r,
    "skeleton-rs": check_skeleton_rs,
    "skeleton-rsk": check_skeleton_rsk,
    "counting": lambda n, _: check_counting(n),
    "mahonian": lambda n, _: check_mahonian(n),
    "charge-depth": lambda n, _: check_charge_depth(n),
    "bifactorial": lambda n, _: check_bifactorial(n),
}

# Pinned from the per-permutation sums that the tallies replaced.
PINNED_WITNESSES = {
    ("skeleton-r", False, "is_involution"):
        {"exponents": [1, 1, 1, 1], "p": 0, "q": 0, "lhs": 1, "rhs": 0},
    ("skeleton-r", False, "descent_composition"):
        {"exponents": [4, 0, 0, 0], "p": 0, "q": 0, "lhs": 1, "rhs": 2},
    ("skeleton-r", True, "is_involution"):
        {"exponents": [1, 1, 1, 1], "p": 6, "q": 0, "lhs": 1, "rhs": 0},
    ("skeleton-r", True, "descent_composition"):
        {"exponents": [4, 0, 0, 0], "p": 6, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-r", True, "depth"):
        {"exponents": [1, 1, 1, 1], "p": 5, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rs", False, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rs", False, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 0, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rs", True, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 6, "lhs": 0, "rhs": 1},
    ("skeleton-rs", True, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 6, "q": 6, "lhs": 0, "rhs": 1},
    ("skeleton-rs", True, "depth"):
        {"exponents": [1, 1, 1, 1, 1, 1, 1, 1], "p": 6, "q": 5, "lhs": 0, "rhs": 1},
    ("skeleton-rsk", False, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rsk", False, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 0, "q": 0, "lhs": 1, "rhs": 2},
    ("skeleton-rsk", True, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 6, "lhs": 0, "rhs": 1},
    ("skeleton-rsk", True, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 0, "q": 6, "lhs": 0, "rhs": 1},
    ("skeleton-rsk", True, "depth"):
        {"exponents": [1, 1, 1, 1, 1, 1, 1, 1], "p": 0, "q": 5, "lhs": 0, "rhs": 1},
    ("counting", False, "inverse_descent_composition"):
        {"i": 1, "j": 4, "lhs": 1, "rhs": 2},
    ("counting", False, "descent_composition"):
        {"i": 1, "lhs": 1, "rhs": 2},
    ("counting", False, "is_involution"):
        {"i": 4, "lhs": 10, "rhs": 9},
    ("mahonian", False, "maj"):
        {"statistic": "maj", "degree": 5, "count": 4, "expected": 3},
    ("mahonian", False, "depth"):
        {"statistic": "depth", "degree": 5, "count": 4, "expected": 3},
    ("mahonian", False, "inversions"):
        {"statistic": "inversions", "degree": 5, "count": 4, "expected": 3},
    ("mahonian", False, "charge"):
        {"statistic": "charge", "degree": 5, "count": 4, "expected": 3},
    ("charge-depth", False, "charge"):
        {"w": [4, 3, 2, 1], "charge": 5, "depth_of_inverse": 6},
    ("charge-depth", False, "inverse_descent_composition"):
        {"w": [4, 3, 2, 1], "charge": 6, "depth_of_inverse": 0},
    ("bifactorial", False, "charge"):
        {"p": 5, "q": 6, "observed": 1, "expected": 0},
    ("bifactorial", False, "depth"):
        {"p": 6, "q": 5, "observed": 1, "expected": 0},
}


@pytest.mark.parametrize("check, graded, field", SWEEP_MUTANTS)
def test_changed_permutation_row_fails_each_sweeping_check(check, graded, field, monkeypatch):
    monkeypatch.setattr(verify, "perm_table", _with_one_row_changed(verify.perm_table, field))
    result = SWEEP_CHECKS[check](4, graded)
    assert not result.passed
    assert result.witness == PINNED_WITNESSES[check, graded, field]


def _with_one_coefficient_raised(skeleton, shape, alpha):
    """`skeleton` with the coefficient of x^alpha in the polynomial of `shape` raised by 1."""

    def changed(lam):
        poly = skeleton(lam)
        if lam == shape:
            key = (alpha + (0,) * (poly.arity - len(alpha)), 0, 0)
            poly = MultiPoly(poly.arity, {**poly.terms, key: poly.terms.get(key, 0) + 1})
        return poly

    return changed


# Pinned from the polynomial sums and prefix-of-ones evaluations that the tallies replaced.
SKELETON_MUTANT_WITNESSES = {
    ("skeleton-r", False):
        {"exponents": [1, 2, 1, 0], "p": 0, "q": 0, "lhs": 3, "rhs": 2},
    ("skeleton-r", True):
        {"exponents": [1, 2, 1, 0], "p": 4, "q": 0, "lhs": 3, "rhs": 2},
    ("skeleton-rs", False):
        {"exponents": [2, 1, 1, 0, 1, 2, 1, 0], "p": 0, "q": 0, "lhs": 2, "rhs": 1},
    ("skeleton-rs", True):
        {"exponents": [2, 1, 1, 0, 1, 2, 1, 0], "p": 3, "q": 4, "lhs": 2, "rhs": 1},
    ("skeleton-rsk", False):
        {"exponents": [2, 1, 1, 0, 1, 2, 1, 0], "p": 0, "q": 0, "lhs": 3, "rhs": 2},
    ("skeleton-rsk", True):
        {"exponents": [2, 1, 1, 0, 1, 2, 1, 0], "p": 0, "q": 4, "lhs": 3, "rhs": 2},
    ("counting", False): {"i": 3, "lhs": 10, "rhs": 9},
    ("hook-sum", False): {"exponents": [1, 2, 1, 0], "p": 0, "q": 0, "lhs": 2, "rhs": 1},
}


@pytest.mark.parametrize("check, graded", SKELETON_MUTANT_WITNESSES)
def test_changed_skeleton_coefficient_fails_each_skeleton_check(check, graded, monkeypatch):
    changed = _with_one_coefficient_raised(verify.skeleton_poly, (2, 1, 1), (1, 2, 1))
    monkeypatch.setattr(verify, "skeleton_poly", changed)
    checks = {**SWEEP_CHECKS, "hook-sum": lambda n, _: check_hook_sum(n)}
    result = checks[check](4, graded)
    assert not result.passed
    assert result.witness == SKELETON_MUTANT_WITNESSES[check, graded]


def _first_difference(lhs, rhs):
    """The first term of lhs - rhs in canonical order, as a witness dict, or None."""
    if lhs == rhs:
        return None
    (exps, p, q), _ = (lhs - rhs).sorted_terms()[0]
    return {"exponents": list(exps), "p": p, "q": q,
            "lhs": lhs.coefficient(exps, p, q), "rhs": rhs.coefficient(exps, p, q)}


def _expanded_rsk_witness(n, k, graded, table):
    """The first differing term of the two sides of skeleton-rsk in full: every Schur
    and fundamental polynomial expanded over all weak compositions with k parts."""

    arity = k + n

    def product(x_poly, y_poly):  # x_poly in x_1..x_k times y_poly in the n variables after
        return x_poly.embed(arity) * y_poly.embed(arity, k)

    def skeleton(shape):
        return deep_skeleton(shape) if graded else skeleton_poly(shape)

    lhs = MultiPoly.sum((product(schur_poly(s, k), skeleton(s)) for s in partitions(n)), arity)
    y_sides = {}
    for _, row in table(n):
        des = row.descent_composition
        key = (des + (0,) * (n - len(des)), 0, row.depth if graded else 0)
        y_sides.setdefault(row.inverse_descent_composition, Counter())[key] += 1
    rhs = MultiPoly.sum(
        (product(qsym_fundamental(d, k), MultiPoly(n, y)) for d, y in y_sides.items()), arity
    )
    return _first_difference(lhs, rhs)


# The check takes the Schur and fundamental polynomials in k = n variables.
@pytest.mark.parametrize("n, k", [(4, 4)])
@pytest.mark.parametrize("graded", [False, True])
def test_flat_skeleton_rsk_witness_matches_the_full_expansion(n, k, graded, monkeypatch):
    fields = ["inverse_descent_composition", "descent_composition"] + (["depth"] if graded else [])
    assert check_skeleton_rsk(n, graded).witness is None
    assert _expanded_rsk_witness(n, k, graded, perm_table) is None
    for field in fields:
        changed = _with_one_row_changed(perm_table, field)
        monkeypatch.setattr(verify, "perm_table", changed)
        result = check_skeleton_rsk(n, graded)
        assert not result.passed
        assert result.witness == _expanded_rsk_witness(n, k, graded, changed)
