"""Named, exhaustively checked identities over desk-scale ranges.

Every check returns a `CheckResult`: pass/fail and the first counterexample in
canonical order when failing.  Checks are deterministic and side-effect free.
`run_checks` times each job into its `elapsed`; a direct `check_*` call reports
0.0.  A polynomial identity is checked as two tallies, each a `Counter` of term
keys (x-exponents, p, q): on the skeleton side each shape contributes its
coefficients f_(shape, alpha), read off its `descent_tally`; the permutation
side reads `rsk_tally(n)`, S_n counted by the descent masks of (Des(w),
Des(w^-1)) and by inversions, built once per n and process, so no check visits
a permutation unless it names a failing w or lists the support.  `counting`,
`mahonian`, `charge-depth` and `bifactorial` read its int keys D << n | L by
`key >> n` and `key & low` into lists or int-keyed Counters (`_margins` counts
each mask as Des(w) and as Des(w^-1)), with no tuple per key; `mask_stats` gives
a mask's composition, maj and depth.  No polynomial
is added, multiplied or evaluated; `_witness` names the first key, in canonical
term order, where the two tallies differ.  `skeleton-rs` keys both sides by the
tally's own masks and spells out exponents only for the keys that differ.  Both
sides of `skeleton-rsk` are quasisymmetric in x, so it compares them only at the
flat monomials x^alpha: Kostka numbers times skeleton polynomials, built once
per partition (the sorted parts of alpha), against the (Des(w), depth) tallies
of every Des(w^-1) inside Des(alpha), summed by a zeta transform.  `run_checks`
is the single entry point used by the command line.  Each row of the `_CHECKS`
table holds a check's function, its job kind, its default bound and the largest
n it admits, and `run_checks` refuses a bound above that n before any job runs.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from functools import lru_cache, partial
from itertools import accumulate, product
from math import comb, factorial
from typing import Callable, Iterable, NamedTuple

from .compositions import (
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
)
from .rsk import all_permutations, left_descents, mask_stats, perm_table, rsk_tally
from .rsk import word_descent_composition
from .tableaux import descent_tally, kostka


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


def _finish(name: str, params: dict, witness: object, data: dict | None = None) -> CheckResult:
    return CheckResult(name, params, witness is None, witness, 0.0, data)


def _witness(lhs: Counter, rhs: Counter, term: Callable = lambda key: key) -> dict | None:
    """The first key, in canonical order of its term (exponents, p, q) = `term(key)`,
    where two tallies differ, or None."""
    differing = [key for key in lhs.keys() | rhs.keys() if lhs[key] != rhs[key]]
    if not differing:
        return None
    key = min(differing, key=lambda key: _term_sort_key(term(key)))
    exps, p, q = term(key)
    return {"exponents": list(exps), "p": p, "q": q, "lhs": lhs[key], "rhs": rhs[key]}


def _skeleton_terms(shape: Partition, n: int, graded: bool) -> list[tuple[tuple, int, int]]:
    """(alpha padded to n, depth(alpha) when graded else 0, f_(shape, alpha)) per alpha."""
    return [(_padded(alpha, n), depth(alpha) if graded else 0, coeff)
            for alpha, coeff in descent_tally(shape).items()]


def _margins(n: int) -> tuple[list[int], list[int]]:
    """The number of w in S_n with each mask as Des(w), and as Des(w^-1), from `rsk_tally(n)`."""
    des, left, low = [0] * (1 << n), [0] * (1 << n), (1 << n) - 1
    for key, count in rsk_tally(n).pairs.items():
        des[key >> n] += count
        left[key & low] += count
    return des, left


def check_skeleton_r(n: int, graded: bool = False) -> CheckResult:
    """Sum of skeleton polynomials over shapes of n = descent sum over involutions."""
    lhs: Counter = Counter()
    for shape in partitions(n):
        for alpha, d, coeff in _skeleton_terms(shape, n, graded):
            lhs[alpha, d, 0] += coeff
    stats, rhs = mask_stats(n), Counter()
    for des, count in rsk_tally(n).involutions.items():
        alpha, _, dep = stats[des]
        rhs[_padded(alpha, n), dep if graded else 0, 0] += count
    return _finish("skeleton-r", {"n": n, "graded": graded}, _witness(lhs, rhs))


def check_skeleton_rs(n: int, graded: bool = False, report_support: bool = False) -> CheckResult:
    """Paired skeleton sum = two-sided descent sum over all permutations.

    Each side is keyed as `rsk_tally(n)` keys w: x^alpha y^beta, with alpha = Des(w^-1)
    and beta = Des(w), is (mask(beta) << n | mask(alpha), p, q), p and q their depths
    when graded, else 0.
    """
    stats, low = mask_stats(n), (1 << n) - 1
    mask_of = {stat[0]: mask for mask, stat in enumerate(stats) if stat}
    lhs: Counter = Counter()
    for shape in partitions(n):
        terms = [(mask_of[alpha], depth(alpha) if graded else 0, coeff)
                 for alpha, coeff in descent_tally(shape).items()]
        for alpha, p, c in terms:
            for beta, q, d in terms:
                lhs[beta << n | alpha, p, q] += c * d
    rhs: Counter = Counter()
    for key, count in rsk_tally(n).pairs.items():
        (_, _, q), (beta, _, _) = stats[key >> n], stats[key & low]
        rhs[(key, depth(beta), q) if graded else (key, 0, 0)] += count

    def term(key: tuple) -> tuple:
        packed, p, q = key
        return _padded(stats[packed & low][0], n) + _padded(stats[packed >> n][0], n), p, q

    data = _support(n) if report_support else None
    return _finish("skeleton-rs", {"n": n, "graded": graded}, _witness(lhs, rhs, term), data)


@lru_cache(maxsize=1)  # the graded job of n follows the ungraded one and attaches the same
def _support(n: int) -> dict:
    """The number of paired monomials x^Des(w^-1) y^Des(w) of S_n, and the groups of w
    (in lexicographic order) that share one, from one sweep of the descent sets."""
    groups: dict[tuple, list[list[int]]] = {}
    for w in all_permutations(n):
        groups.setdefault((word_descent_composition(w), left_descents(w)), []).append(list(w))
    collisions = sorted(group for group in groups.values() if len(group) > 1)
    return {"support_size": len(groups), "collisions": collisions}


def check_skeleton_rsk(n: int, graded: bool = False) -> CheckResult:
    """Schur-times-skeleton sum = fundamental-times-descent sum over permutations.

    Both sides are quasisymmetric in x, so they are compared at each flat x^alpha
    (alpha a composition of n) as y-tallies of (Des(w), depth or 0): K_(shape,
    alpha) times each skeleton polynomial = the tally of each Des(w^-1) alpha refines.
    K_(shape, alpha) = K_(shape, mu) for mu the parts of alpha sorted, so the left side
    is built once per partition mu; the right side is a zeta transform over the masks.
    """
    stats = mask_stats(n)
    ys = [stat and (_padded(stat[0], n), stat[2] if graded else 0) for stat in stats]
    y_sides = [Counter() for _ in stats]  # by the mask L of Des(w^-1)
    for key, count in rsk_tally(n).pairs.items():
        y_sides[key & (1 << n) - 1][ys[key >> n]] += count
    # a zeta transform, one pass per bit: each y_sides[S] becomes the sum over L inside S
    for bit, mask in product([1 << d for d in range(1, n)], range(len(y_sides))):
        if mask & bit:
            y_sides[mask].update(y_sides[mask ^ bit])
    skeletons = {shape: _skeleton_terms(shape, n, graded) for shape in partitions(n)}
    left: dict[Partition, Counter] = {}
    for mu in skeletons:
        at_mu = left[mu] = Counter()
        for shape, terms in skeletons.items():
            if count := kostka(shape, mu):
                for des, q, coeff in terms:
                    at_mu[des, q] += count * coeff
    differing: tuple[Counter, Counter] = (Counter(), Counter())  # both sides where they differ
    for stat, rhs in zip(stats, y_sides):
        lhs = stat and left[tuple(sorted(stat[0], reverse=True))]
        if stat and lhs != rhs:
            x = _padded(stat[0], n)
            for tally, side in zip(differing, (lhs, rhs)):
                tally.update({(x + des, 0, q): c for (des, q), c in side.items()})
    witness = _witness(*differing)
    return _finish("skeleton-rsk", {"n": n, "k": n, "graded": graded}, witness)


def check_counting(n: int) -> CheckResult:
    """Prefix-of-ones skeleton evaluations count descent-length-bounded permutations."""
    # ones[a] of a shape: its skeleton polynomial at x_1 = .. = x_a = 1, later x = 0,
    # the sum of f_(shape, alpha) over alpha of at most a parts
    ones = []
    for shape in partitions(n):
        by_parts = [0] * (n + 1)
        for alpha, coeff in descent_tally(shape).items():
            by_parts[len(alpha)] += coeff
        ones.append(list(accumulate(by_parts)))
    # lengths[i][j]: w whose Des(w^-1) has i - 1 elements and Des(w) j - 1; involutions by
    # |Des(w)| + 1, the length of its composition
    lengths, low = [[0] * (n + 2) for _ in range(n + 2)], (1 << n) - 1
    involution_lengths = Counter()
    for key, count in rsk_tally(n).pairs.items():
        lengths[(key & low).bit_count() + 1][(key >> n).bit_count() + 1] += count
    for des, count in rsk_tally(n).involutions.items():
        involution_lengths[des.bit_count() + 1] += count
    witness = None
    for a in range(1, n + 1):
        lhs = sum(at[a] for at in ones)
        rhs = sum(c for lb, c in involution_lengths.items() if lb <= a)
        if lhs != rhs:
            witness = {"i": a, "lhs": lhs, "rhs": rhs}
            break
    if witness is None:
        for a, b in product(range(1, n + 1), repeat=2):
            lhs = sum(at[a] * at[b] for at in ones)
            rhs = sum(sum(row[:b + 1]) for row in lengths[:a + 1])
            if lhs != rhs:
                witness = {"i": a, "j": b, "lhs": lhs, "rhs": rhs}
                break
    if witness is None:
        total_f = sum(at[n] for at in ones)
        total_f2 = sum(at[n] ** 2 for at in ones)
        if total_f != (involutions := sum(involution_lengths.values())):
            witness = {"identity": "sum f = involutions", "lhs": total_f, "rhs": involutions}
        elif total_f2 != factorial(n):
            witness = {"identity": "sum f^2 = n!", "lhs": total_f2, "rhs": factorial(n)}
    return _finish("counting", {"n": n, "i": None, "j": None}, witness)


def check_hook_sum(n: int) -> CheckResult:
    """The skeleton polynomials of hooks sum to all monomials x^alpha, alpha of n."""
    hooks = {len(s): Counter({(alpha, 0, 0): c for alpha, _, c in _skeleton_terms(s, n, False)})
             for s in partitions(n) if is_hook(s)}
    # the hook with k rows carries each alpha of length k once; bucketed by length, in order
    by_length: defaultdict[int, Counter] = defaultdict(Counter)
    for alpha in compositions(n):
        by_length[len(alpha)][_padded(alpha, n), 0, 0] += 1
    witness = None
    if differing := [k for k, bucket in by_length.items() if hooks.get(k) != bucket]:
        lhs, rhs = Counter(), Counter()
        for tally, parts in ((lhs, hooks), (rhs, by_length)):
            for part in parts.values():
                tally.update(part)
        k = differing[0]
        witness = _witness(lhs, rhs) or {
            "hook": [n - k + 1] + [1] * (k - 1), "detail": "length-restricted sum differs"}
    return _finish("hook-sum", {"n": n}, witness)


def check_mahonian(n: int) -> CheckResult:
    """maj, depth, charge, and inversions all distribute as the q-factorial."""
    target = q_factorial(n)
    # each statistic lies in 0..comb(n, 2): count by degree in one list per statistic
    majs, depths, charges = ([0] * (comb(n, 2) + 1) for _ in range(3))
    for stat, as_des, as_left in zip(mask_stats(n), *_margins(n)):  # by mask: Des(w), Des(w^-1)
        if stat:
            majs[stat[1]] += as_des
            depths[stat[2]] += as_des
            charges[stat[2]] += as_left
    dists = {"maj": majs, "depth": depths, "charge": charges, "inversions": rsk_tally(n).inversions}
    witness = next(({"statistic": key, "degree": d, "count": dist[d], "expected": c}
                    for key, dist in dists.items()
                    for d, c in enumerate(target.coeffs) if dist[d] != c), None)
    return _finish("mahonian", {"n": n}, witness)


def check_bks(shape: Partition) -> CheckResult:
    """Internal-zero dichotomy of the fake degree polynomial of one shape."""
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
    return _finish("bks", {"shape": list(shape)}, witness)


def check_schur_family(shape: Partition) -> CheckResult:
    """Skeleton support lies in the dominance interval [lambda_bar, shape].

    Also reports whether the support induces a connected subgraph of the
    dominance Hasse diagram; disconnectedness is asserted for rectangles.
    """
    tally = descent_tally(shape)
    support = sorted(tally)
    lbar = lambda_bar(shape)
    witness = None
    for alpha in support:
        if not (dominance_leq(lbar, alpha) and dominance_leq(alpha, shape)):
            witness = {"alpha": list(alpha), "detail": "outside interval"}
            break
    if witness is None:
        if tally[shape] != 1:
            witness = {"detail": "top endpoint coefficient", "alpha": list(shape)}
        elif tally[lbar] != 1:
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
    data = {"support_size": len(support), "connected": connected}
    return _finish("schur-family", {"shape": list(shape)}, witness, data)


def check_charge_depth(n: int) -> CheckResult:
    """charge(w) = n*|L| - sum(L) for L = Des(w^-1) is sum (i-1)*alpha_i of alpha = comp(L),
    and, as w -> w^-1 permutes S_n, L is distributed as Des(w), which catches a wrong L.  A
    failure names the first w whose charge differs, else the first set tallied differently."""
    stats, (des, left) = mask_stats(n), _margins(n)  # mask -> w with it as Des(w), as Des(w^-1)
    witness = None
    if des != left or any(c and stat[2] != depth(stat[0]) for stat, c in zip(stats, left)):
        witness = next(({"w": list(w), "charge": row.charge, "depth_of_inverse": d}
                        for w, row in perm_table(n)
                        if row.charge != (d := depth(row.inverse_descent_composition))), None)
    if witness is None and des != left:
        mask = min((mask for mask, c in enumerate(des) if c != left[mask]), key=stats.__getitem__)
        witness = {"composition": list(stats[mask][0]),
                   "as_des": des[mask], "as_des_inverse": left[mask]}
    return _finish("charge-depth", {"n": n}, witness)


def check_s6_inversion_count() -> CheckResult:
    """The 49 permutations of S_6 with four inversions, reproduced three ways."""
    witness = None
    direct = rsk_tally(6).inversions[4]
    from_q_factorial = q_factorial(6).coefficient(4)
    deep_targets = {(2, 4), (3, 2, 1)}
    expected_shapes = ((5, 1), (4, 2), (4, 1, 1), (3, 2, 1))
    f = {shape: sum(descent_tally(shape).values()) for shape in partitions(6)}
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
    return _finish("s6-inversions", {}, witness, {"count": direct})


def check_linear_independence(n: int) -> CheckResult:
    """The skeleton coefficient matrix over shapes of n has full row rank.

    Its minor on the partition columns is unitriangular: f_(shape, shape) = 1, and
    f_(shape, mu) = 0 unless mu is dominated by `shape`, so at every mu listed before
    `shape` in `partitions(n)`: each is lexicographically greater, hence not dominated.
    That certifies the rank with no elimination, from those p(n)(p(n)+1)/2 entries; the
    witness is the first entry that breaks the pattern.
    """
    shapes = partitions(n)
    witness = next(({"shape": list(shape), "alpha": list(mu), "coefficient": coeff}
                    for i, shape in enumerate(shapes) for mu in shapes[:i + 1]
                    if (coeff := quasi_kostka_coefficient(shape, mu)) != int(mu == shape)), None)
    return _finish("linear-independence", {"n": n}, witness)


def check_bifactorial(n: int) -> CheckResult:
    """The two-variable factorial matches the (charge, depth) distribution."""
    bi = bifactorial(n)
    # (charge, depth) = (p, q) packs as p * width + q, in the order of (p, q)
    width, low, depths = comb(n, 2) + 1, (1 << n) - 1, [stat and stat[2] for stat in mask_stats(n)]
    observed: Counter = Counter()
    for key, count in rsk_tally(n).pairs.items():
        observed[depths[key & low] * width + depths[key >> n]] += count
    expected = Counter({p * width + q: c for ((_, p, q), c) in bi.terms.items()})
    witness = None
    if observed != expected:
        key = min(k for k in observed.keys() | expected.keys() if observed[k] != expected[k])
        p, q = divmod(key, width)
        witness = {"p": p, "q": q, "observed": observed[key], "expected": expected[key]}
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
    return _finish("bifactorial", {"n": n}, witness)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


# The largest S_n a check over S_n may read, as n!, refused by `run_checks` before any
# job runs; direct `check_*` calls are not limited.  Each check reads `rsk_tally(m)` for
# m up to its bound, each built once and kept: at `--max-n 10` (10! = 3,628,800) `verify
# counting` takes 1.0-1.6 s at a 36 MB peak, `mahonian` 0.9-1.0 s at 31 MB, `skeleton-rs`
# 3.0 s at 82 MB (its paired skeleton side) and `skeleton-rsk` 2.4-3.2 s at 47 MB; the
# S_10 tally has 169,438 keys, and the kept tallies add about 8 MB (CPython 3.11, 2 cores).
_SWEEP_MAX_N = 10
MAX_PERMUTATIONS = factorial(_SWEEP_MAX_N)

# name -> (check, job kind, default bound, largest n admitted or None when not
# limited).  The kind names a check's jobs up to a bound n: `per_n` runs it at each
# m = 1..n, `graded` at each m ungraded then graded, `per_shape` at each partition of
# each m, `single` once with no argument and no bound.  The checks whose largest n is
# `_SWEEP_MAX_N` read S_m for each m up to their bound.  At the other limits, and one
# above, `verify hook-sum` takes 0.8-1.0 s at 49 MB and 1.7 s at 86 MB, `bks` 0.6-0.9 s
# at 25 MB and 2.7 s at 44 MB, `schur-family` 2.3-2.8 s at 26 MB and 8.9 s at 45 MB, and
# `linear-independence` 0.6-0.9 s at 24 MB and 2.7 s at 44 MB, most of it in walking the
# SYT behind the descent tallies its minor reads (CPython 3.11, 2 cores).
# `all` runs the checks in this order.
_CHECKS: dict[str, tuple[Callable[..., CheckResult], str, int | None, int | None]] = {
    "skeleton-r": (check_skeleton_r, "graded", 6, _SWEEP_MAX_N),
    "skeleton-rs": (check_skeleton_rs, "graded", 6, _SWEEP_MAX_N),
    "skeleton-rsk": (check_skeleton_rsk, "graded", 6, _SWEEP_MAX_N),
    "counting": (check_counting, "per_n", 7, _SWEEP_MAX_N),
    "hook-sum": (check_hook_sum, "per_n", 7, 16),
    "mahonian": (check_mahonian, "per_n", 8, _SWEEP_MAX_N),
    "bks": (check_bks, "per_shape", 8, 12),
    "schur-family": (check_schur_family, "per_shape", 7, 12),
    "charge-depth": (check_charge_depth, "per_n", 7, _SWEEP_MAX_N),
    "s6-inversions": (check_s6_inversion_count, "single", None, None),
    "linear-independence": (check_linear_independence, "per_n", 6, 12),
    "bifactorial": (check_bifactorial, "per_n", 7, _SWEEP_MAX_N),
}

CHECK_NAMES = tuple(_CHECKS)
# the checks that take no bound: `verify` refuses --max-n when it names only these
UNBOUNDED_CHECKS = frozenset(name for name, row in _CHECKS.items() if row[1] == "single")


def run_checks(
    names: Iterable[str],
    max_n: int | None = None,
    report_support: bool = False,
) -> list[CheckResult]:
    """Run the selected checks (or all of them) and return results in order.

    One pass over the selected names refuses an unknown name or a bound above a
    check's largest n, and otherwise queues the check's jobs; no job runs until
    every name has passed.  Each result's `elapsed` is the wall time of its job.
    """
    selected = list(dict.fromkeys(names))  # a check named twice runs once
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
                if largest == _SWEEP_MAX_N
                else f"verify {name} at n={n} is above its limit of n={largest}"
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
    results = []
    for check, arguments in queued:
        for args in arguments:
            started = time.perf_counter()
            result = check(*args)
            results.append(result._replace(elapsed=time.perf_counter() - started))
    return results
