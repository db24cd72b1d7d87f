"""Named, exhaustively checked identities over desk-scale ranges.

Every check returns a `CheckResult`: pass/fail, the first counterexample in
canonical order when failing, and wall time.  Checks are deterministic and
side-effect free.  A polynomial identity is checked as two tallies, each a
`Counter` of term keys (x-exponents, p, q): on the skeleton side each shape
contributes its coefficients f_(shape, alpha), read through `_skeleton_terms`;
on the permutation side `perm_table(n)` streams S_n and only a few statistics
of each w are counted.  No polynomial is added, multiplied or evaluated;
`_witness` names the first key, in canonical term order, where the two
tallies differ.  Both sides of `skeleton-rsk` are quasisymmetric in x, so it
compares them only at the flat monomials x^alpha, one alpha at a time:
Kostka numbers times skeleton polynomials on the left, built once per
partition (the sorted parts of alpha), and the (Des(w), depth) tallies of
every Des(w^-1) that alpha refines on the right.  `run_checks` is the single
entry point used by the command line.  Each row of the `_CHECKS` table holds a
check's function, its job kind, its default bound and the largest n it admits;
`run_checks` builds the jobs of every selected row in one loop, and refuses a
bound above that n before any job runs.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from functools import partial
from itertools import accumulate, product
from math import comb, factorial
from typing import Callable, Iterable, NamedTuple

from .compositions import (
    Composition,
    Partition,
    compositions,
    conjugate,
    depth,
    dominance_leq,
    is_hook,
    is_regular,
    lambda_bar,
    partitions,
    raising_covers,
    refinements,
    trim,
)
from .poly import (
    _padded,
    _term_sort_key,
    bifactorial,
    bifactorial_q_slice,
    fake_degree,
    internal_zeros,
    q_factorial,
    quasi_kostka_coefficient,
    quasi_kostka_matrix,
    skeleton_poly,
)
from .rsk import perm_table
from .tableaux import kostka


class CheckResult(NamedTuple):
    name: str
    params: dict
    passed: bool
    witness: object | None
    elapsed: float
    data: dict | None = None

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


def _witness(lhs: Counter, rhs: Counter) -> dict | None:
    """The first term key, in canonical term order, where two tallies differ, or None."""
    differing = [key for key in lhs.keys() | rhs.keys() if lhs[key] != rhs[key]]
    if not differing:
        return None
    exps, p, q = key = min(differing, key=_term_sort_key)
    return {"exponents": list(exps), "p": p, "q": q, "lhs": lhs[key], "rhs": rhs[key]}


def _skeleton_terms(shape: Partition, n: int, graded: bool) -> list[tuple[tuple, int, int]]:
    """(alpha padded to n, depth(alpha) when graded else 0, f_(shape, alpha)) per skeleton term."""
    return [(_padded(exps, n), depth(exps) if graded else 0, coeff)
            for (exps, _, _), coeff in skeleton_poly(shape).terms.items()]


def check_skeleton_r(n: int, graded: bool = False) -> CheckResult:
    """Sum of skeleton polynomials over shapes of n = descent sum over involutions."""
    started = time.perf_counter()
    lhs: Counter = Counter()
    for shape in partitions(n):
        for alpha, d, coeff in _skeleton_terms(shape, n, graded):
            lhs[alpha, d, 0] += coeff
    rhs = Counter(
        (_padded(row.descent_composition, n), row.depth if graded else 0, 0)
        for _, row in perm_table(n) if row.is_involution
    )
    return _finish(
        "skeleton-r", {"n": n, "graded": graded}, _witness(lhs, rhs), started
    )


def check_skeleton_rs(
    n: int, graded: bool = False, report_support: bool = False
) -> CheckResult:
    """Paired skeleton sum = two-sided descent sum over all permutations."""
    started = time.perf_counter()
    lhs: Counter = Counter()
    for shape in partitions(n):
        terms = _skeleton_terms(shape, n, graded)
        for alpha, p, c in terms:
            for beta, q, d in terms:
                lhs[alpha + beta, p, q] += c * d
    rhs: Counter = Counter()
    monomial_groups: dict[tuple[int, ...], list[list[int]]] = {}
    depths = {des: depth(des) if graded else 0 for des in compositions(n)}
    for w, row in perm_table(n):
        des_inv = row.inverse_descent_composition
        exps = _padded(des_inv, n) + _padded(row.descent_composition, n)
        rhs[exps, depths[des_inv], row.depth if graded else 0] += 1
        if report_support:
            monomial_groups.setdefault(exps, []).append(list(w))
    data = None
    if report_support:
        collisions = sorted(group for group in monomial_groups.values() if len(group) > 1)
        data = {"support_size": len(monomial_groups), "collisions": collisions}
    return _finish(
        "skeleton-rs",
        {"n": n, "graded": graded},
        _witness(lhs, rhs),
        started,
        data,
    )


def check_skeleton_rsk(n: int, graded: bool = False) -> CheckResult:
    """Schur-times-skeleton sum = fundamental-times-descent sum over permutations.

    Both sides are quasisymmetric in x, so they are compared at each flat x^alpha
    (alpha a composition of n) as y-tallies of (Des(w), depth or 0): K_(shape,
    alpha) times each skeleton polynomial = the tally of each Des(w^-1) alpha refines.
    K_(shape, alpha) = K_(shape, mu) for mu the parts of alpha sorted, so the left side
    is built once per partition mu.
    """
    started = time.perf_counter()
    padded = {des: _padded(des, n) for des in compositions(n)}
    y_sides: defaultdict[Composition, Counter] = defaultdict(Counter)
    for _, row in perm_table(n):
        y = padded[row.descent_composition], row.depth if graded else 0
        y_sides[row.inverse_descent_composition][y] += 1
    reached: defaultdict[Composition, list[Counter]] = defaultdict(list)
    for des_inv, y_side in y_sides.items():
        for alpha in refinements(des_inv):
            reached[alpha].append(y_side)
    skeletons = {shape: _skeleton_terms(shape, n, graded) for shape in partitions(n)}
    left: dict[Partition, Counter] = {}
    for mu in skeletons:
        at_mu = left[mu] = Counter()
        for shape, terms in skeletons.items():
            if count := kostka(shape, mu):
                for des, q, coeff in terms:
                    at_mu[des, q] += count * coeff
    differing: tuple[Counter, Counter] = (Counter(), Counter())  # both sides where they differ
    for alpha in compositions(n):
        lhs, rhs = left[tuple(sorted(alpha, reverse=True))], Counter()
        for y_side in reached[alpha]:
            rhs.update(y_side)
        if lhs != rhs:
            x = _padded(alpha, n)
            for tally, side in zip(differing, (lhs, rhs)):
                tally.update({(x + des, 0, q): c for (des, q), c in side.items()})
    witness = _witness(*differing)
    return _finish("skeleton-rsk", {"n": n, "k": n, "graded": graded}, witness, started)


def check_counting(n: int) -> CheckResult:
    """Prefix-of-ones skeleton evaluations count descent-length-bounded permutations."""
    started = time.perf_counter()
    # ones[a] of a shape: its skeleton polynomial at x_1 = .. = x_a = 1, later x = 0,
    # the sum of f_(shape, alpha) over alpha of at most a parts
    ones = []
    for shape in partitions(n):
        by_parts = [0] * (n + 1)
        for alpha, _, coeff in _skeleton_terms(shape, n, False):
            by_parts[len(trim(alpha))] += coeff
        ones.append(list(accumulate(by_parts)))
    # (len Des(w^-1), len Des(w), w is an involution) -> number of permutations w
    lengths = Counter(
        (len(row.inverse_descent_composition), len(row.descent_composition), row.is_involution)
        for _, row in perm_table(n)
    )
    involutions = sum(c for (_, _, involution), c in lengths.items() if involution)
    witness = None
    for a in range(1, n + 1):
        lhs = sum(at[a] for at in ones)
        rhs = sum(c for (_, lb, involution), c in lengths.items() if involution and lb <= a)
        if lhs != rhs:
            witness = {"i": a, "lhs": lhs, "rhs": rhs}
            break
    if witness is None:
        for a, b in product(range(1, n + 1), repeat=2):
            lhs = sum(at[a] * at[b] for at in ones)
            rhs = sum(c for (la, lb, _), c in lengths.items() if la <= a and lb <= b)
            if lhs != rhs:
                witness = {"i": a, "j": b, "lhs": lhs, "rhs": rhs}
                break
    if witness is None:
        total_f = sum(at[n] for at in ones)
        total_f2 = sum(at[n] ** 2 for at in ones)
        if total_f != involutions:
            witness = {"identity": "sum f = involutions", "lhs": total_f, "rhs": involutions}
        elif total_f2 != factorial(n):
            witness = {"identity": "sum f^2 = n!", "lhs": total_f2, "rhs": factorial(n)}
    return _finish("counting", {"n": n, "i": None, "j": None}, witness, started)


def check_hook_sum(n: int) -> CheckResult:
    """The skeleton polynomials of hooks sum to all monomials x^alpha, alpha of n."""
    started = time.perf_counter()
    hooks = {s: Counter({(alpha, 0, 0): c for alpha, _, c in _skeleton_terms(s, n, False)})
             for s in partitions(n) if is_hook(s)}
    lhs: Counter = Counter()
    for terms in hooks.values():
        lhs.update(terms)
    rhs = Counter((_padded(a, n), 0, 0) for a in compositions(n))
    witness = _witness(lhs, rhs)
    if witness is None:
        # refinement: the hook with k rows carries each length-k composition once
        for k in range(1, n + 1):
            hook = (n - k + 1,) + (1,) * (k - 1)
            expected = Counter((_padded(a, n), 0, 0) for a in compositions(n) if len(a) == k)
            if hooks[hook] != expected:
                witness = {"hook": list(hook), "detail": "length-restricted sum differs"}
                break
    return _finish("hook-sum", {"n": n}, witness, started)


def check_mahonian(n: int) -> CheckResult:
    """maj, depth, charge, and inversions all distribute as the q-factorial."""
    started = time.perf_counter()
    target = q_factorial(n)
    # each statistic lies in 0..comb(n, 2): count by degree in one list per statistic
    majs, depths, charges, inversions = ([0] * (comb(n, 2) + 1) for _ in range(4))
    for _, (_, _, maj, dep, inv, ch, _) in perm_table(n):
        majs[maj] += 1
        depths[dep] += 1
        charges[ch] += 1
        inversions[inv] += 1
    dists = {"maj": majs, "depth": depths, "charge": charges, "inversions": inversions}
    witness = next(
        (
            {"statistic": key, "degree": d, "count": dist[d], "expected": target.coefficient(d)}
            for key, dist in dists.items()
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
    # the raising moves from each alpha are its Hasse edges down in dominance order
    edges = {(a, b) for a in support for b in raising_covers(a) if b in support_set}
    edges |= {(b, a) for a, b in edges}
    seen, frontier = set(), set(support[:1])
    while frontier:  # breadth first from the first member
        seen |= frontier
        frontier = {b for a, b in edges if a in frontier} - seen
    connected = seen == support_set
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
    depths = {des: depth(des) for des in compositions(n)}
    for w, row in perm_table(n):
        lhs = row.charge
        rhs = depths[row.inverse_descent_composition]
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
    expected_shapes = ((5, 1), (4, 2), (4, 1, 1), (3, 2, 1))
    f = {shape: sum(skeleton_poly(shape).terms.values()) for shape in partitions(6)}
    admitting: dict[tuple[int, ...], int] = {}
    weighted = 0
    for shape in partitions(6):
        count = sum(quasi_kostka_coefficient(shape, alpha) for alpha in deep_targets)
        if count:
            admitting[shape] = count
            weighted += count * f[shape]
    f_values = {shape: f[shape] for shape in expected_shapes}
    if direct != 49:
        witness = {"detail": "direct count", "count": direct}
    elif from_q_factorial != 49:
        witness = {"detail": "q-factorial coefficient", "count": from_q_factorial}
    elif weighted != 49:
        witness = {"detail": "weighted shape sum", "count": weighted}
    elif set(admitting) != set(expected_shapes):
        witness = {"detail": "admitting shapes", "shapes": sorted(map(list, admitting))}
    elif [f_values[s] for s in expected_shapes] != [5, 9, 10, 16]:
        witness = {"detail": "f values", "values": {str(k): v for k, v in f_values.items()}}
    return _finish("s6-inversions", {}, witness, started, {"count": direct})


def _rank_over_rationals(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix over Q, by fraction-free (Bareiss) elimination.

    After each pivot every entry of the rows below is a minor of `matrix`, on the pivot
    rows and columns and its own, so the division by the previous pivot is exact and
    every entry stays an integer; that holds only if every row below is rescaled, also
    one with a 0 in the pivot column.
    """
    rows = [list(row) for row in matrix if any(row)]
    rank = 0
    previous = 1
    ncols = len(matrix[0]) if matrix else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead_row = rows[rank]
        lead = lead_row[col]
        for r in range(rank + 1, len(rows)):
            row, scale = rows[r], rows[r][col]
            rows[r] = [(lead * a - scale * b) // previous for a, b in zip(row, lead_row)]
        previous = lead
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
    expected = Counter({(p, q): c for ((_, p, q), c) in bi.terms.items()})
    witness = None
    if observed != expected:
        p, q = min(k for k in observed.keys() | expected.keys() if observed[k] != expected[k])
        witness = {"p": p, "q": q, "observed": observed[p, q], "expected": expected[p, q]}
    if witness is None:
        at_p1 = bi.specialize(p=1)
        target = q_factorial(n)
        if any(at_p1.coefficient((), q=d) != target.coefficient(d)
               for d in range(target.degree() + 1)):
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


# The largest S_n a sweeping check may walk, as n!, refused by `run_checks` before any
# job runs; direct `check_*` calls are not limited.  Time holds the limit, not memory:
# each sweep streams `perm_table(n)` into a tally, so at `--max-n 10` (10! = 3,628,800)
# `verify counting` takes about 6 s at a 27 MB peak, `mahonian` 4.5 s at 22 MB,
# `skeleton-rsk` 21 s at 45 MB (9: 3.2 s, 22 MB); the 252 tail tables and the 9,496
# involutions of the S_10 sweep hold about 7 MB of those peaks.  11 would take eleven
# times as long (CPython 3.11, 2 cores).
_SWEEP_MAX_N = 10
MAX_PERMUTATIONS = factorial(_SWEEP_MAX_N)

# name -> (check, job kind, default bound, largest n admitted or None when not
# limited).  The kind names a check's jobs up to a bound n: `per_n` runs it at each
# m = 1..n, `graded` at each m ungraded then graded, `per_shape` at each partition of
# each m, `single` once with no argument and no bound.  Every check with a largest n
# sweeps S_m for each m up to its bound.  `all` runs the checks in this order.
_CHECKS: dict[str, tuple[Callable[..., CheckResult], str, int | None, int | None]] = {
    "skeleton-r": (check_skeleton_r, "graded", 6, _SWEEP_MAX_N),
    "skeleton-rs": (check_skeleton_rs, "graded", 6, _SWEEP_MAX_N),
    "skeleton-rsk": (check_skeleton_rsk, "graded", 6, _SWEEP_MAX_N),
    "counting": (check_counting, "per_n", 7, _SWEEP_MAX_N),
    "hook-sum": (check_hook_sum, "per_n", 7, None),
    "mahonian": (check_mahonian, "per_n", 8, _SWEEP_MAX_N),
    "bks": (check_bks, "per_shape", 8, None),
    "schur-family": (check_schur_family, "per_shape", 7, None),
    "charge-depth": (check_charge_depth, "per_n", 7, _SWEEP_MAX_N),
    "s6-inversions": (check_s6_inversion_count, "single", None, None),
    "linear-independence": (check_linear_independence, "per_n", 6, None),
    "bifactorial": (check_bifactorial, "per_n", 7, _SWEEP_MAX_N),
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(
    names: Iterable[str],
    max_n: int | None = None,
    report_support: bool = False,
) -> list[CheckResult]:
    """Run the selected checks (or all of them) and return results in order.

    One pass over the selected names refuses an unknown name, or a bound above the
    largest n of a check (one whose S_n is above `MAX_PERMUTATIONS`), and otherwise
    queues the check's jobs; no job runs until every name has passed.
    """
    selected = list(names)
    if "all" in selected or not selected:
        selected = list(CHECK_NAMES)
    queued: list[tuple[Callable[..., CheckResult], Iterable[tuple]]] = []
    for name in selected:
        if name not in _CHECKS:
            raise ValueError(f"unknown check: {name}")
        check, kind, default, largest = _CHECKS[name]
        n = default if max_n is None else max_n
        if largest is not None and n > largest:
            # n! is written out only up to 20!; at n = 100000 its digits would pass the
            # int-to-str limit, and past sys.maxsize `factorial` overflows
            count = factorial(n) if n <= 20 else f"{n}!"
            raise ValueError(
                f"verify {name} at n={n} has {count} permutations,"
                f" above the limit of {MAX_PERMUTATIONS}"
            )
        if name == "skeleton-rs":
            check = partial(check, report_support=report_support)
        sizes = range(1, (n or 0) + 1)
        if kind == "single":
            arguments: Iterable[tuple] = [()]
        elif kind == "per_n":
            arguments = ((m,) for m in sizes)
        elif kind == "graded":
            arguments = ((m, graded) for m in sizes for graded in (False, True))
        else:  # per_shape, lazy: a name refused later in the loop lists no partition
            arguments = ((shape,) for m in sizes for shape in partitions(m))
        queued.append((check, arguments))
    return [check(*args) for check, arguments in queued for args in arguments]
