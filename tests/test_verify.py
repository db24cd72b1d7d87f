import pytest

from skelpoly import MultiPoly
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
    _poly_witness,
    run_checks,
)
from skelpoly import is_regular, partitions


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
    assert check_skeleton_rsk(3, k=5).passed


def test_counting():
    assert check_counting(4, 2).passed
    assert check_counting(4, 4, 4).passed
    assert check_counting(4, 1).passed
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


def test_bifactorial_check():
    for n in range(1, 6):
        assert check_bifactorial(n).passed


def test_poly_witness_reports_first_difference():
    lhs = MultiPoly.monomial((2, 0)) + MultiPoly.monomial((0, 2))
    rhs = MultiPoly.monomial((2, 0), coeff=3)
    witness = _poly_witness(lhs, rhs)
    assert witness == {"exponents": [2, 0], "p": 0, "q": 0, "lhs": 1, "rhs": 3}
    assert _poly_witness(lhs, lhs) is None


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


def test_run_checks_unknown_name():
    with pytest.raises(ValueError):
        run_checks(["no-such-check"])


def test_check_result_json_excludes_timing_by_default():
    result = check_s6_inversion_count()
    payload = result.to_json()
    assert "elapsed" not in payload
    assert "elapsed" in result.to_json(include_timing=True)
