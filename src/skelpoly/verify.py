"""Named, exhaustively checked identities over desk-scale ranges.

Every check returns a `CheckResult`: pass/fail, the first counterexample in
canonical order when failing, and wall time.  Checks are deterministic and
side-effect free.  `run_checks` is the single entry point used by the
command line; the `_CHECKS` table names every check with its default bound
and its jobs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, factorial
from operator import attrgetter
from typing import Callable, Iterable

from .compositions import (
    Composition,
    Partition,
    compositions,
    conjugate,
    depth,
    dominance_covers,
    dominance_leq,
    is_hook,
    is_regular,
    lambda_bar,
    partitions,
)
from .poly import (
    MultiPoly,
    _padded,
    bifactorial,
    bifactorial_q_slice,
    fake_degree,
    internal_zeros,
    q_factorial,
    qsym_fundamental,
    quasi_kostka_matrix,
    schur_poly,
    skeleton_poly,
    deep_skeleton,
)
from .rsk import perm_table
from .tableaux import descent_composition, standard_tableaux


@dataclass
class CheckResult:
    name: str
    params: dict
    passed: bool
    witness: object | None
    elapsed: float
    data: dict | None = field(default=None)

    def to_json(self, include_timing: bool = False) -> dict:
        out: dict = {
            "name": self.name,
            "params": self.params,
            "passed": self.passed,
            "witness": self.witness,
        }
        if self.data is not None:
            out["data"] = self.data
        if include_timing:
            out["elapsed"] = self.elapsed
        return out


def _finish(
    name: str,
    params: dict,
    witness: object | None,
    started: float,
    data: dict | None = None,
) -> CheckResult:
    return CheckResult(
        name=name,
        params=params,
        passed=witness is None,
        witness=witness,
        elapsed=time.perf_counter() - started,
        data=data,
    )


def _poly_witness(lhs: MultiPoly, rhs: MultiPoly) -> dict | None:
    """First differing term in canonical order, or None when equal."""
    if lhs == rhs:
        return None
    diff = lhs - rhs
    (exps, p, q), _ = diff.sorted_terms()[0]
    return {
        "exponents": list(exps),
        "p": p,
        "q": q,
        "lhs": lhs.coefficient(exps, p, q),
        "rhs": rhs.coefficient(exps, p, q),
    }


def _skeleton(shape: Partition, graded: bool, variable: str) -> MultiPoly:
    return deep_skeleton(shape, variable) if graded else skeleton_poly(shape)


def check_skeleton_r(n: int, graded: bool = False) -> CheckResult:
    """Sum of skeleton polynomials over shapes of n = descent sum over involutions."""
    started = time.perf_counter()
    lhs = MultiPoly.sum((_skeleton(s, graded, "p").embed(n) for s in partitions(n)), n)
    rhs = MultiPoly.sum(
        (
            MultiPoly.monomial(row.descent_composition, p=row.depth if graded else 0, arity=n)
            for _, row in perm_table(n) if row.is_involution
        ),
        n,
    )
    return _finish(
        "skeleton-r", {"n": n, "graded": graded}, _poly_witness(lhs, rhs), started
    )


def check_skeleton_rs(
    n: int, graded: bool = False, report_support: bool = False
) -> CheckResult:
    """Paired skeleton sum = two-sided descent sum over all permutations."""
    started = time.perf_counter()
    arity = 2 * n
    lhs = MultiPoly.sum(
        (
            _skeleton(s, graded, "p").embed(arity, 0) * _skeleton(s, graded, "q").embed(arity, n)
            for s in partitions(n)
        ),
        arity,
    )
    monomial_groups: dict[tuple[int, ...], list[list[int]]] = {}

    def monomials():
        for w, row in perm_table(n):
            des_inv = row.inverse_descent_composition
            exps = _padded(des_inv, n) + _padded(row.descent_composition, n)
            if report_support:
                monomial_groups.setdefault(exps, []).append(list(w))
            yield MultiPoly.monomial(
                exps,
                p=depth(des_inv) if graded else 0,
                q=row.depth if graded else 0,
            )

    rhs = MultiPoly.sum(monomials(), arity)
    data = None
    if report_support:
        collisions = sorted(group for group in monomial_groups.values() if len(group) > 1)
        data = {"support_size": len(monomial_groups), "collisions": collisions}
    return _finish(
        "skeleton-rs",
        {"n": n, "graded": graded},
        _poly_witness(lhs, rhs),
        started,
        data,
    )


def check_skeleton_rsk(n: int, k: int | None = None, graded: bool = False) -> CheckResult:
    """Schur-times-skeleton sum = fundamental-times-descent sum over permutations."""
    started = time.perf_counter()
    if k is None:
        k = n
    arity = k + n
    lhs = MultiPoly.sum(
        (
            schur_poly(s, k).embed(arity, 0) * _skeleton(s, graded, "q").embed(arity, k)
            for s in partitions(n)
        ),
        arity,
    )

    def products():
        for _, row in perm_table(n):
            fundamental = qsym_fundamental(row.inverse_descent_composition, k)
            y_mono = MultiPoly.monomial(
                (0,) * k + row.descent_composition, q=row.depth if graded else 0, arity=arity
            )
            yield fundamental.embed(arity, 0) * y_mono

    rhs = MultiPoly.sum(products(), arity)
    return _finish(
        "skeleton-rsk", {"n": n, "k": k, "graded": graded}, _poly_witness(lhs, rhs), started
    )


def check_counting(n: int, i: int | None = None, j: int | None = None) -> CheckResult:
    """Prefix-of-ones skeleton evaluations count descent-length-bounded permutations."""
    started = time.perf_counter()
    skeletons = [skeleton_poly(shape) for shape in partitions(n)]
    inv_lengths = []
    pair_lengths = []
    for _, row in perm_table(n):
        lengths = (len(row.inverse_descent_composition), len(row.descent_composition))
        pair_lengths.append(lengths)
        if row.is_involution:
            inv_lengths.append(lengths[1])
    single_range = [i] if i is not None else list(range(1, n + 1))
    if i is not None and j is not None:
        pair_range = [(i, j)]
    elif i is None:
        pair_range = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    else:
        pair_range = []

    witness = None
    for a in single_range:
        lhs = sum(poly.eval_ones_prefix(a) for poly in skeletons)
        rhs = sum(1 for length in inv_lengths if length <= a)
        if lhs != rhs:
            witness = {"i": a, "lhs": lhs, "rhs": rhs}
            break
    if witness is None:
        for a, b in pair_range:
            lhs = sum(
                poly.eval_ones_prefix(a) * poly.eval_ones_prefix(b)
                for poly in skeletons
            )
            rhs = sum(1 for la, lb in pair_lengths if la <= a and lb <= b)
            if lhs != rhs:
                witness = {"i": a, "j": b, "lhs": lhs, "rhs": rhs}
                break
    if witness is None:
        total_f = sum(poly.evaluate() for poly in skeletons)
        total_f2 = sum(poly.evaluate() ** 2 for poly in skeletons)
        if total_f != len(inv_lengths):
            witness = {"identity": "sum f = involutions", "lhs": total_f, "rhs": len(inv_lengths)}
        elif total_f2 != factorial(n):
            witness = {"identity": "sum f^2 = n!", "lhs": total_f2, "rhs": factorial(n)}
    return _finish("counting", {"n": n, "i": i, "j": j}, witness, started)


def check_hook_sum(n: int) -> CheckResult:
    """The skeleton polynomials of hooks sum to all monomials x^alpha, alpha of n."""
    started = time.perf_counter()
    lhs = MultiPoly.sum((skeleton_poly(s).embed(n) for s in partitions(n) if is_hook(s)), n)
    rhs = MultiPoly.sum((MultiPoly.monomial(a, arity=n) for a in compositions(n)), n)
    witness = _poly_witness(lhs, rhs)
    if witness is None:
        # refinement: the hook with k rows carries each length-k composition once
        for k in range(1, n + 1):
            hook = (n - k + 1,) + (1,) * (k - 1)
            expected = MultiPoly.sum(
                (MultiPoly.monomial(a) for a in compositions(n) if len(a) == k), k
            )
            if skeleton_poly(hook) != expected:
                witness = {"hook": list(hook), "detail": "length-restricted sum differs"}
                break
    return _finish("hook-sum", {"n": n}, witness, started)


def check_mahonian(n: int) -> CheckResult:
    """maj, depth, charge, and inversions all distribute as the q-factorial."""
    started = time.perf_counter()
    target = q_factorial(n)
    statistics = ("maj", "depth", "charge", "inversions")
    dists = [Counter() for _ in statistics]
    values_of = attrgetter(*statistics)
    for _, row in perm_table(n):
        for dist, value in zip(dists, values_of(row)):
            dist[value] += 1
    witness = next(
        (
            {"statistic": key, "degree": d, "count": dist[d], "expected": target.coefficient(d)}
            for key, dist in zip(statistics, dists)
            for d in range(target.degree() + 1)
            if dist[d] != target.coefficient(d)
        ),
        None,
    )
    return _finish("mahonian", {"n": n}, witness, started)


def check_bks(shape: Partition) -> CheckResult:
    """Internal-zero dichotomy of the fake degree polynomial of one shape."""
    started = time.perf_counter()
    n = sum(shape)
    f = fake_degree(shape)
    lo = depth(shape)
    hi = comb(n, 2) - depth(conjugate(shape))
    witness = None
    if f.coefficient(lo) != 1 or f.coefficient(hi) != 1:
        witness = {
            "detail": "endpoint coefficients",
            "low": [lo, f.coefficient(lo)],
            "high": [hi, f.coefficient(hi)],
        }
    elif is_regular(shape):
        support = f.support()
        if internal_zeros(f).count != 0 or support[0] != lo or support[-1] != hi:
            witness = {
                "detail": "regular shape must have contiguous support",
                "support": list(support),
            }
    else:
        for k in range(comb(n, 2) + 1):
            should_vanish = k < lo or k == lo + 1 or k == hi - 1 or k > hi
            if (f.coefficient(k) == 0) != should_vanish:
                witness = {"degree": k, "coefficient": f.coefficient(k)}
                break
        if witness is None and not 1 <= internal_zeros(f).count <= 2:
            witness = {"detail": "internal zero count", "count": internal_zeros(f).count}
    return _finish("bks", {"shape": list(shape)}, witness, started)


def check_schur_family(shape: Partition) -> CheckResult:
    """Skeleton support lies in the dominance interval [lambda_bar, shape].

    Also reports whether the support induces a connected subgraph of the
    dominance Hasse diagram; disconnectedness is asserted for rectangles.
    """
    started = time.perf_counter()
    n = sum(shape)
    poly = skeleton_poly(shape)
    support = sorted(poly.support())
    lbar = lambda_bar(shape)
    witness = None
    for alpha in support:
        if not (dominance_leq(lbar, alpha) and dominance_leq(alpha, shape)):
            witness = {"alpha": list(alpha), "detail": "outside interval"}
            break
    if witness is None:
        if poly.coefficient(shape) != 1:
            witness = {"detail": "top endpoint coefficient", "alpha": list(shape)}
        elif poly.coefficient(lbar) != 1:
            witness = {"detail": "bottom endpoint coefficient", "alpha": list(lbar)}
    support_set = set(support)
    neighbors: dict[Composition, set[Composition]] = {a: set() for a in support_set}
    for lower, upper in dominance_covers(n):
        if lower in support_set and upper in support_set:
            neighbors[lower].add(upper)
            neighbors[upper].add(lower)
    seen: set[Composition] = set()
    stack = [support[0]] if support else []
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(neighbors[node])
    connected = len(seen) == len(support_set)
    if witness is None and not is_regular(shape) and connected:
        witness = {"detail": "rectangle support should be disconnected"}
    return _finish(
        "schur-family",
        {"shape": list(shape)},
        witness,
        started,
        {"support_size": len(support), "connected": connected},
    )


def check_charge_depth(n: int) -> CheckResult:
    """charge(w) equals the depth of the inverse for every permutation."""
    started = time.perf_counter()
    witness = None
    for w, row in perm_table(n):
        lhs = row.charge
        rhs = depth(row.inverse_descent_composition)
        if lhs != rhs:
            witness = {"w": list(w), "charge": lhs, "depth_of_inverse": rhs}
            break
    return _finish("charge-depth", {"n": n}, witness, started)


def check_s6_inversion_count() -> CheckResult:
    """The 49 permutations of S_6 with four inversions, reproduced three ways."""
    started = time.perf_counter()
    witness = None
    direct = sum(1 for _, row in perm_table(6) if row.inversions == 4)
    from_q_factorial = q_factorial(6).coefficient(4)
    deep_targets = {(2, 4), (3, 2, 1)}
    admitting: dict[tuple[int, ...], int] = {}
    weighted = 0
    for shape in partitions(6):
        count = sum(
            1 for t in standard_tableaux(shape) if descent_composition(t) in deep_targets
        )
        if count:
            admitting[shape] = count
            weighted += count * len(standard_tableaux(shape))
    f_values = {
        shape: len(standard_tableaux(shape))
        for shape in ((5, 1), (4, 2), (4, 1, 1), (3, 2, 1))
    }
    if direct != 49:
        witness = {"detail": "direct count", "count": direct}
    elif from_q_factorial != 49:
        witness = {"detail": "q-factorial coefficient", "count": from_q_factorial}
    elif weighted != 49:
        witness = {"detail": "weighted shape sum", "count": weighted}
    elif set(admitting) != {(5, 1), (4, 2), (4, 1, 1), (3, 2, 1)}:
        witness = {"detail": "admitting shapes", "shapes": sorted(map(list, admitting))}
    elif [f_values[s] for s in ((5, 1), (4, 2), (4, 1, 1), (3, 2, 1))] != [5, 9, 10, 16]:
        witness = {"detail": "f values", "values": {str(k): v for k, v in f_values.items()}}
    return _finish("s6-inversions", {}, witness, started, {"count": direct})


def _rank_over_rationals(matrix: list[list[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix if any(row)]
    rank = 0
    ncols = len(matrix[0]) if matrix else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                scale = rows[r][col] / lead
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def check_linear_independence(n: int) -> CheckResult:
    """The skeleton coefficient matrix over shapes of n has full row rank."""
    started = time.perf_counter()
    shapes, _, matrix = quasi_kostka_matrix(n)
    rank = _rank_over_rationals(matrix)
    witness = None
    if rank != len(shapes):
        witness = {"rank": rank, "rows": len(shapes)}
    return _finish("linear-independence", {"n": n}, witness, started)


def check_bifactorial(n: int) -> CheckResult:
    """The two-variable factorial matches the (charge, depth) distribution."""
    started = time.perf_counter()
    bi = bifactorial(n)
    observed = Counter((row.charge, row.depth) for _, row in perm_table(n))
    expected = {(p, q): c for ((_, p, q), c) in bi.terms.items()}
    witness = None
    if observed != expected:
        diff = sorted(set(observed) ^ set(expected) | {
            k for k in set(observed) & set(expected) if observed[k] != expected[k]
        })
        key = diff[0]
        witness = {
            "p": key[0],
            "q": key[1],
            "observed": observed.get(key, 0),
            "expected": expected.get(key, 0),
        }
    if witness is None:
        at_p1 = {}
        for (_, _, qe), coeff in bi.specialize(p=1).terms.items():
            at_p1[qe] = at_p1.get(qe, 0) + coeff
        target = q_factorial(n)
        if any(at_p1.get(d, 0) != target.coefficient(d) for d in range(target.degree() + 1)):
            witness = {"detail": "p=1 specialization differs from q-factorial"}
    if witness is None and _is_prime(n):
        for k in range(comb(n, 2) + 1):
            slice_p = bifactorial_q_slice(bi, k)
            if internal_zeros(slice_p).count != 0:
                witness = {"detail": "prime-slice internal zero", "k": k}
                break
    return _finish("bifactorial", {"n": n}, witness, started)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


_Job = Callable[[], CheckResult]


def _each_n(check: Callable[[int], CheckResult], bound: int) -> list[_Job]:
    return [partial(check, n) for n in range(1, bound + 1)]


def _each_n_graded(check: Callable[[int, bool], CheckResult], bound: int) -> list[_Job]:
    return [partial(check, n, g) for n in range(1, bound + 1) for g in (False, True)]


def _each_shape(check: Callable[[Partition], CheckResult], bound: int) -> list[_Job]:
    return [partial(check, s) for n in range(1, bound + 1) for s in partitions(n)]


# name -> (default bound, jobs(bound, report_support)); None marks a check
# that takes no bound.  `all` runs the checks in this order.
_CHECKS: dict[str, tuple[int | None, Callable[[int, bool], list[_Job]]]] = {
    "skeleton-r": (6, lambda b, _: _each_n_graded(check_skeleton_r, b)),
    "skeleton-rs": (
        6,
        lambda b, support: _each_n_graded(
            lambda n, g: check_skeleton_rs(n, g, support), b
        ),
    ),
    "skeleton-rsk": (
        6,
        lambda b, _: _each_n_graded(lambda n, g: check_skeleton_rsk(n, graded=g), b),
    ),
    "counting": (7, lambda b, _: _each_n(check_counting, b)),
    "hook-sum": (7, lambda b, _: _each_n(check_hook_sum, b)),
    "mahonian": (8, lambda b, _: _each_n(check_mahonian, b)),
    "bks": (8, lambda b, _: _each_shape(check_bks, b)),
    "schur-family": (7, lambda b, _: _each_shape(check_schur_family, b)),
    "charge-depth": (7, lambda b, _: _each_n(check_charge_depth, b)),
    "s6-inversions": (None, lambda b, _: [check_s6_inversion_count]),
    "linear-independence": (6, lambda b, _: _each_n(check_linear_independence, b)),
    "bifactorial": (7, lambda b, _: _each_n(check_bifactorial, b)),
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(
    names: Iterable[str],
    max_n: int | None = None,
    report_support: bool = False,
) -> list[CheckResult]:
    """Run the selected checks (or all of them) and return results in order."""
    selected = list(names)
    if "all" in selected or not selected:
        selected = list(CHECK_NAMES)
    jobs: list[_Job] = []
    for name in selected:
        if name not in _CHECKS:
            raise ValueError(f"unknown check: {name}")
        default, build = _CHECKS[name]
        jobs.extend(build(default if max_n is None else max_n, report_support))
    return [job() for job in jobs]
