import hashlib
import runpy
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from skelpoly import MultiPoly, verify
from skelpoly.cli import main
from skelpoly.rsk import RskTally, left_descents, mask_stats, rsk_tally
from skelpoly.verify import (
    CHECK_NAMES,
    CheckResult,
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
    compositions,
    deep_skeleton,
    depth,
    descent_tally,
    is_regular,
    partitions,
    perm_table,
    qsym_fundamental,
    quasi_kostka_coefficient,
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
    """Gaussian elimination over Fraction: the oracle for the rank certificate."""
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


def test_quasi_kostka_matrix_has_full_row_rank():
    # elimination over the whole matrix, the oracle for the unitriangular certificate
    for n in range(1, 9):
        shapes = partitions(n)
        matrix = [[quasi_kostka_coefficient(lam, alpha) for alpha in compositions(n)]
                  for lam in shapes]
        assert _rank_by_fractions(matrix) == len(shapes)
        assert check_linear_independence(n).passed


@pytest.mark.parametrize("shape, alpha", [((3, 1), (3, 1)), ((3, 1), (4,)), ((2, 1, 1), (2, 2))])
def test_linear_independence_names_the_entry_that_breaks_the_minor(shape, alpha, monkeypatch):
    # a diagonal entry other than 1, or a nonzero entry left of the diagonal
    true_coefficient = verify.quasi_kostka_coefficient

    def patched(lam, mu):
        return 5 if (lam, mu) == (shape, alpha) else true_coefficient(lam, mu)

    monkeypatch.setattr(verify, "quasi_kostka_coefficient", patched)
    result = check_linear_independence(4)
    assert not result.passed
    assert result.witness == {"shape": list(shape), "alpha": list(alpha), "coefficient": 5}


def test_linear_independence_reads_only_the_partition_columns(monkeypatch):
    read, true_coefficient = [], verify.quasi_kostka_coefficient

    def recorded(lam, mu):
        read.append((lam, mu))
        return true_coefficient(lam, mu)

    monkeypatch.setattr(verify, "quasi_kostka_coefficient", recorded)
    assert check_linear_independence(7).passed
    shapes = partitions(7)
    assert read == [(lam, mu) for i, lam in enumerate(shapes) for mu in shapes[: i + 1]]


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


def test_run_checks_runs_a_check_named_twice_once():
    # in the order each name is first given
    twice = run_checks(["bks", "mahonian", "bks", "mahonian"], max_n=2)
    once = run_checks(["bks", "mahonian"], max_n=2)
    assert [(r.name, r.params) for r in twice] == [(r.name, r.params) for r in once]
    assert len(once) == 5


def test_sweep_flags_match_the_checks_that_sweep(monkeypatch):
    sizes = {name: [] for name in CHECK_NAMES}
    current = []

    def recording_tally(n):
        sizes[current[-1]].append(n)
        return rsk_tally(n)

    monkeypatch.setattr(verify, "rsk_tally", recording_tally)
    for name in CHECK_NAMES:
        current.append(name)
        assert all(r.passed for r in run_checks([name], max_n=2))
    # a check whose largest n is the sweep limit sweeps S_n for each n up to its bound;
    # s6-inversions sweeps S_6 whatever the bound, so it has no largest n
    swept = {name for name, ns in sizes.items() if ns and max(ns) == 2}
    assert swept == {
        name
        for name, (_, _, _, largest) in verify._CHECKS.items()
        if largest == verify._SWEEP_MAX_N
    }
    assert sizes["s6-inversions"] == [6]


def test_run_checks_refuses_runaway_sweep_before_any_work(monkeypatch):
    def must_not_enumerate(n):
        raise AssertionError("S_n enumeration reached for a refused size")

    monkeypatch.setattr(verify, "perm_table", must_not_enumerate)
    monkeypatch.setattr(verify, "rsk_tally", must_not_enumerate)
    message = "verify mahonian at n=11 has 39916800 permutations, above the limit of 3628800"
    with pytest.raises(ValueError) as exc:
        run_checks(["mahonian"], max_n=11)
    assert str(exc.value) == message
    assert verify.MAX_PERMUTATIONS == 3628800


def test_skeleton_rsk_limit_admits_n10_and_refuses_n11(monkeypatch):
    sizes = []
    passed = CheckResult("skeleton-rsk", {}, True, None, 0.0)
    fake = (lambda n, graded: sizes.append(n) or passed, *verify._CHECKS["skeleton-rsk"][1:])
    monkeypatch.setitem(verify._CHECKS, "skeleton-rsk", fake)
    run_checks(["skeleton-rsk"], max_n=10)
    assert max(sizes) == 10
    with pytest.raises(ValueError) as exc:
        run_checks(["skeleton-rsk"], max_n=11)
    assert str(exc.value) == (
        "verify skeleton-rsk at n=11 has 39916800 permutations, above the limit of 3628800"
    )
    assert max(sizes) == 10


@pytest.mark.parametrize("name", ["hook-sum", "bks", "schur-family", "linear-independence"])
def test_table_check_limit_admits_its_largest_n_only(name, monkeypatch):
    # each of these checks holds a table that grows with n; every other check but
    # s6-inversions is held by the S_n sweep limit
    sizes = []
    check, kind, default, largest = verify._CHECKS[name]

    def record(arg):
        sizes.append(sum(arg) if kind == "per_shape" else arg)
        return CheckResult(name, {}, True, None, 0.0)

    monkeypatch.setitem(verify._CHECKS, name, (record, kind, default, largest))
    run_checks([name], max_n=largest)
    assert max(sizes) == largest
    with pytest.raises(ValueError) as exc:
        run_checks([name], max_n=largest + 1)
    assert str(exc.value) == f"verify {name} at n={largest + 1} is above its limit of n={largest}"
    assert max(sizes) == largest
    assert default < largest != verify._SWEEP_MAX_N


def test_benchmark_copy_of_the_check_table_matches():
    # perfbench/workloads.py counts the jobs its `verify` oracle expects from its own
    # {name: (job kind, default bound)} copy of the table; a drift fails every run there
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
    table = {name: (kind, default) for name, (_, kind, default, _) in verify._CHECKS.items()}
    assert list(table.items()) == list(workloads["VERIFY_CHECKS"].items())


def test_run_checks_unknown_name():
    with pytest.raises(ValueError):
        run_checks(["no-such-check"])


def test_default_checks_build_each_tally_once():
    # every check at default bounds reads S_1..S_8 from one tally each; S_8 is mahonian's
    rsk_tally.cache_clear()
    assert all(r.passed for r in run_checks(["all"]))
    info = rsk_tally.cache_info()
    assert info.misses == info.currsize == 8
    assert info.hits > 0


def test_passing_checks_read_no_permutation_rows(monkeypatch):
    # the rows are read only to name a failing w or to report the support
    def must_not_sweep(n):
        raise AssertionError("perm_table read by a passing check")

    monkeypatch.setattr(verify, "perm_table", must_not_sweep)
    assert all(r.passed for r in run_checks(["all"]))
    over_s_n = [name for name, (*_, largest) in verify._CHECKS.items()
                if largest == verify._SWEEP_MAX_N]
    assert all(r.passed for r in run_checks(over_s_n, max_n=8))


def test_hook_sum_names_the_hook_when_only_a_length_bucket_differs(monkeypatch):
    # x^(1,3) moved from the two-row hook to the three-row one: the full sums agree,
    # so the witness is the first hook, by rows, whose terms are not its length bucket
    def moved(shape):
        tally = descent_tally(shape)
        if shape == (3, 1):
            return Counter({alpha: c for alpha, c in tally.items() if alpha != (1, 3)})
        if shape == (2, 1, 1):
            return tally + Counter({(1, 3): 1})
        return tally

    monkeypatch.setattr(verify, "descent_tally", moved)
    result = check_hook_sum(4)
    assert not result.passed
    assert result.witness == {"hook": [3, 1], "detail": "length-restricted sum differs"}


def test_check_result_json_excludes_timing_by_default():
    result = check_s6_inversion_count()
    payload = result.to_json()
    assert "elapsed" not in payload
    assert "elapsed" in result.to_json(include_timing=True)
    # `run_checks` times each job; a direct call is not timed
    assert result.elapsed == 0.0
    assert run_checks(["s6-inversions"])[0]._replace(elapsed=0.0) == result
    assert all(r.elapsed > 0 for r in run_checks(["mahonian"], max_n=3))


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


def _changed_tally(n, field):
    """`rsk_tally(n)` and `mask_stats(n)` with the longest permutation w0 = n..1 changed in `field`.

    Only w0 has the full mask as Des(w) or as Des(w^-1).  A change of its descent or
    left-descent set moves its count to another key (w0 is an involution, so its descent
    set moves among the involutions too): to the empty set, or, for charge, to the full
    set without n-1, whose depth is one less.  A change of maj or depth changes that
    statistic of the full mask in `mask_stats(n)`, so depth moves charge too.
    """
    tally, stats, full = rsk_tally(n), list(mask_stats(n)), (1 << n) - 2
    pairs, involutions = Counter(tally.pairs), Counter(tally.involutions)
    inversions = list(tally.inversions)
    moved = {"descent_composition": (0, full), "inverse_descent_composition": (full, 0),
             "charge": (full, full ^ 1 << n - 1)}
    if field in moved:
        des, left = moved[field]
        pairs[full << n | full] -= 1
        pairs[des << n | left] += 1
        involutions[full] -= des != full
        involutions[des] += des != full
    elif field == "is_involution":
        involutions[full] -= 1
    elif field == "inversions":
        inversions[-1] -= 1
        inversions[-2] += 1
    else:
        alpha, maj, dep = stats[full]
        stats[full] = (alpha, maj - 1, dep) if field == "maj" else (alpha, maj, dep - 1)
    return RskTally(+pairs, inversions, +involutions), tuple(stats)


def _change_one_permutation(monkeypatch, field, *sizes):
    """Change w0 of each S_n, n in `sizes`, in `field`: in the tally and the mask table
    that the checks read, and in its row."""
    changed = {n: _changed_tally(n, field) for n in sizes}
    for k, real in enumerate((rsk_tally, mask_stats)):
        monkeypatch.setattr(verify, real.__name__,
                            lambda n, k=k, real=real: changed[n][k] if n in changed else real(n))
    monkeypatch.setattr(verify, "perm_table", _with_one_row_changed(perm_table, field))


# Each check that sweeps S_n, with each field of a `perm_table` row it reads.
# Changing that field of one permutation must fail the check with the pinned witness.
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

# Pinned from the per-permutation sums that the tallies replaced, but for a changed
# descent set in a graded check and a changed depth in bifactorial: a descent mask
# carries its depth, and charge is the depth of the left-descent mask, so those
# changes move the depth, or the charge, of w0 with them.
PINNED_WITNESSES = {
    ("skeleton-r", False, "is_involution"):
        {"exponents": [1, 1, 1, 1], "p": 0, "q": 0, "lhs": 1, "rhs": 0},
    ("skeleton-r", False, "descent_composition"):
        {"exponents": [4, 0, 0, 0], "p": 0, "q": 0, "lhs": 1, "rhs": 2},
    ("skeleton-r", True, "is_involution"):
        {"exponents": [1, 1, 1, 1], "p": 6, "q": 0, "lhs": 1, "rhs": 0},
    ("skeleton-r", True, "descent_composition"):
        {"exponents": [4, 0, 0, 0], "p": 0, "q": 0, "lhs": 1, "rhs": 2},
    ("skeleton-r", True, "depth"):
        {"exponents": [1, 1, 1, 1], "p": 5, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rs", False, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rs", False, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 0, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rs", True, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 6, "lhs": 0, "rhs": 1},
    ("skeleton-rs", True, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 6, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rs", True, "depth"):
        {"exponents": [1, 1, 1, 1, 1, 1, 1, 1], "p": 6, "q": 5, "lhs": 0, "rhs": 1},
    ("skeleton-rsk", False, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 0, "lhs": 0, "rhs": 1},
    ("skeleton-rsk", False, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 0, "q": 0, "lhs": 1, "rhs": 2},
    ("skeleton-rsk", True, "inverse_descent_composition"):
        {"exponents": [4, 0, 0, 0, 1, 1, 1, 1], "p": 0, "q": 6, "lhs": 0, "rhs": 1},
    ("skeleton-rsk", True, "descent_composition"):
        {"exponents": [1, 1, 1, 1, 4, 0, 0, 0], "p": 0, "q": 0, "lhs": 1, "rhs": 2},
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
        {"p": 5, "q": 5, "observed": 2, "expected": 1},
}


@pytest.mark.parametrize("check, graded, field", SWEEP_MUTANTS)
def test_changed_permutation_row_fails_each_sweeping_check(check, graded, field, monkeypatch):
    _change_one_permutation(monkeypatch, field, 4)
    result = SWEEP_CHECKS[check](4, graded)
    assert not result.passed
    assert result.witness == PINNED_WITNESSES[check, graded, field]


def _with_one_coefficient_raised(tally, shape, alpha):
    """`tally` with f_(shape, alpha), the coefficient of x^alpha in the skeleton polynomial
    of `shape`, raised by 1."""

    def changed(lam):
        return tally(lam) + Counter({alpha: 1}) if lam == shape else tally(lam)

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
    changed = _with_one_coefficient_raised(verify.descent_tally, (2, 1, 1), (1, 2, 1))
    monkeypatch.setattr(verify, "descent_tally", changed)
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


def _expanded_rsk_witness(n, k, graded, tally, stats):
    """The first differing term of the two sides of skeleton-rsk in full: every Schur
    and fundamental polynomial expanded over all weak compositions with k parts, the
    fundamental ones read off the (Des(w), Des(w^-1)) keys of `tally`."""

    arity = k + n

    def product(x_poly, y_poly):  # x_poly in x_1..x_k times y_poly in the n variables after
        return x_poly.embed(arity) * y_poly.embed(arity, k)

    def skeleton(shape):
        return deep_skeleton(shape) if graded else skeleton_poly(shape)

    lhs = MultiPoly.sum((product(schur_poly(s, k), skeleton(s)) for s in partitions(n)), arity)
    y_sides = {}
    for key, count in tally.pairs.items():
        (des, _, dep), (inverse_des, _, _) = stats[key >> n], stats[key & (1 << n) - 1]
        y_key = (des + (0,) * (n - len(des)), 0, dep if graded else 0)
        y_sides.setdefault(inverse_des, Counter())[y_key] += count
    rhs = MultiPoly.sum(
        (product(qsym_fundamental(d, k), MultiPoly(n, y)) for d, y in y_sides.items()), arity
    )
    return _first_difference(lhs, rhs)


# The check takes the Schur and fundamental polynomials in k = n variables; its zeta
# transform over the left-descent masks must name the first term of the full expansion.
@pytest.mark.parametrize("n, k", [(4, 4)])
@pytest.mark.parametrize("graded", [False, True])
def test_flat_skeleton_rsk_witness_matches_the_full_expansion(n, k, graded, monkeypatch):
    fields = ["inverse_descent_composition", "descent_composition"] + (["depth"] if graded else [])
    assert check_skeleton_rsk(n, graded).witness is None
    assert _expanded_rsk_witness(n, k, graded, rsk_tally(n), mask_stats(n)) is None
    for field in fields:
        _change_one_permutation(monkeypatch, field, n)
        result = check_skeleton_rsk(n, graded)
        assert not result.passed
        assert result.witness == _expanded_rsk_witness(n, k, graded, *_changed_tally(n, field))


def test_charge_depth_catches_a_wrong_left_descent_mask(monkeypatch):
    # one tail of S_4, (3, 4) after {1, 2}, gets the left descent 3 it does not have;
    # charge is the depth of the tallied mask, so it cannot tell, and the rows of the
    # reference sweep hold no wrong charge: but the masks of Des(w^-1) no longer tally
    # as Des(w)
    module = sys.modules["skelpoly.rsk"]  # `skelpoly.rsk` is the function
    lefts = module._lefts

    def flipped(members, placed):
        table = lefts(members, placed)
        if members == [3, 4] and placed == 0b110:  # the tails of {3, 4} after {1, 2}
            table[0] |= 1 << 3  # the pattern with no k after k+1: (3, 4)
        return table

    real = rsk_tally(4)  # kept before the patch, whichever test built it first
    monkeypatch.setattr(module, "_lefts", flipped)
    tally = rsk_tally.__wrapped__(4)  # built afresh, past the cache
    assert tally.pairs != real.pairs
    assert all(row.charge == depth(row.inverse_descent_composition) for _, row in perm_table(4))
    monkeypatch.setattr(verify, "rsk_tally", lambda n: tally)
    result = check_charge_depth(4)
    assert not result.passed
    assert result.witness == {"composition": [1, 2, 1], "as_des": 5, "as_des_inverse": 6}


def _key(w):
    """The `rsk_tally` key of w: its descent mask << n | its left-descent mask."""
    n = len(w)
    return sum(1 << i for i in range(1, n) if w[i - 1] > w[i]) << n | sum(
        1 << i for i in left_descents(w))


# (n, w whose count moves, w whose key it moves to) -> the witnesses of charge-depth,
# mahonian, bifactorial and counting, pinned from the checks that read the tally as
# tuples of `mask_stats` entries
MOVED_COUNT_WITNESSES = {
    (5, (2, 1, 3, 4, 5), (5, 4, 3, 1, 2)): (
        {"composition": [1, 1, 1, 2], "as_des": 5, "as_des_inverse": 4},
        {"statistic": "maj", "degree": 1, "count": 3, "expected": 4},
        {"p": 4, "q": 4, "observed": 3, "expected": 4},
        {"i": 2, "j": 2, "lhs": 21, "rhs": 20}),
    (5, (2, 3, 4, 5, 1), (5, 1, 2, 3, 4)): (
        {"composition": [1, 4], "as_des": 5, "as_des_inverse": 3},
        {"statistic": "maj", "degree": 1, "count": 5, "expected": 4},
        {"p": 1, "q": 4, "observed": 2, "expected": 1},
        None),
    (8, (2, 1, 3, 4, 5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 1, 2)): (
        {"composition": [1, 1, 1, 1, 1, 1, 2], "as_des": 8, "as_des_inverse": 7},
        {"statistic": "maj", "degree": 1, "count": 6, "expected": 7},
        {"p": 7, "q": 7, "observed": 61, "expected": 62},
        {"i": 2, "j": 2, "lhs": 85, "rhs": 84}),
    (8, (2, 3, 4, 5, 6, 7, 8, 1), (8, 1, 2, 3, 4, 5, 6, 7)): (
        {"composition": [1, 7], "as_des": 8, "as_des_inverse": 6},
        {"statistic": "maj", "degree": 1, "count": 8, "expected": 7},
        {"p": 1, "q": 7, "observed": 2, "expected": 1},
        None),
}


@pytest.mark.parametrize("case", MOVED_COUNT_WITNESSES)
def test_a_moved_tally_count_keeps_the_witnesses(case, monkeypatch):
    # one w of S_n counted under the key of another: the checks that read the tally by
    # mask name the same witnesses as when they read it by composition
    n, source, target = case
    tally = rsk_tally(n)
    pairs = Counter(tally.pairs)
    pairs[_key(source)] -= 1
    pairs[_key(target)] += 1
    assert tally.pairs[_key(source)] and tally.pairs[_key(target)]
    monkeypatch.setattr(verify, "rsk_tally", lambda m: tally._replace(pairs=+pairs))
    checks = (check_charge_depth, check_mahonian, check_bifactorial, check_counting)
    assert tuple(check(n).witness for check in checks) == MOVED_COUNT_WITNESSES[case]


# Printed by the former row-sweeping check for the same change of w0 at each n.
FORCED_CHARGE_DEPTH = """\
PASS charge-depth [n=1]
FAIL charge-depth [n=2]
  witness: {"w": [2, 1], "charge": 1, "depth_of_inverse": 0}
FAIL charge-depth [n=3]
  witness: {"w": [3, 2, 1], "charge": 3, "depth_of_inverse": 0}
FAIL charge-depth [n=4]
  witness: {"w": [4, 3, 2, 1], "charge": 6, "depth_of_inverse": 0}
1/4 checks passed
"""


def test_forced_charge_depth_failure_prints_the_row_witnesses(capsys, monkeypatch):
    outputs = []
    for fmt in ([], ["--format", "json"]):
        with monkeypatch.context() as patch:
            _change_one_permutation(patch, "inverse_descent_composition", 1, 2, 3, 4)
            assert main(["verify", "charge-depth", "--max-n", "4", *fmt]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == FORCED_CHARGE_DEPTH
    assert hashlib.sha256(outputs[1].encode()).hexdigest() == (
        "84fbc8f746b54ff5aa5d55f82b781d0cd68f301d3b95d4264b14e4dc15f5510a")
