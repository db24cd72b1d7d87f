"""Partitions, compositions, the graded dominance order, and the subset dictionary.

A *partition* is a weakly decreasing tuple of positive integers, a *strong
composition* an arbitrary tuple of positive integers, and a *weak composition*
a tuple of nonnegative integers.  Everything in this module is a pure function
of immutable tuples, so values can be shared and cached freely.
"""

from __future__ import annotations

from functools import cache, total_ordering
from itertools import combinations
from math import prod
from typing import Iterable, Iterator

Composition = tuple[int, ...]
Partition = tuple[int, ...]


def is_strong(alpha: Iterable[int]) -> bool:
    return all(part >= 1 for part in alpha)


def is_partition(lam: Iterable[int]) -> bool:
    lam = tuple(lam)
    return is_strong(lam) and all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def _require_partition(lam: Composition) -> None:
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")


def trim(weak: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing zero parts: (2,0,3,0) -> (2,0,3)."""
    end = len(weak)
    while end > 0 and weak[end - 1] == 0:
        end -= 1
    return weak[:end]


def format_comp(alpha: Composition) -> str:
    """Digits run together when every part is below ten, else comma-separated.

    A lone part above nine keeps a trailing comma (`12,`), so that it does not
    read back as the digit string of (1, 2).
    """
    if all(part <= 9 for part in alpha):
        return "".join(str(part) for part in alpha)
    return ",".join(str(part) for part in alpha) + ("," if len(alpha) == 1 else "")


@cache
def compositions(n: int) -> tuple[Composition, ...]:
    """All strong compositions of n, sorted by length then reverse-lex."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []
    for k in range(n - 1, -1, -1):
        members = combinations(range(1, n), k)
        out.extend(set_to_comp(IndexSet(n, mem)) for mem in members)
    return tuple(sorted(out, key=lambda a: (len(a), tuple(-x for x in a))))


def partitions_within(total: int, length: int, largest: int) -> Iterator[Partition]:
    """The partitions of `total` with at most `length` parts, each at most `largest`,
    in descending lexicographic order; each recursion takes a part with all its copies."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for copies in range(min(total // part, length), 0, -1):
            for rest in partitions_within(total - part * copies, length - copies, part - 1):
                yield (part,) * copies + rest


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    return tuple(partitions_within(n, n, n))


def refinements(alpha: Composition) -> set[Composition]:
    """All strong compositions obtained by splitting parts of `alpha` in place.

    Each part a_i is replaced independently by one of its 2^(a_i - 1) ordered
    splits, so |refinements(alpha)| = 2^(|alpha| - len(alpha)).
    """
    if not is_strong(alpha):
        raise ValueError(f"composition must be strong: {alpha}")
    out = {()}
    for part in alpha:
        splits = [beta for beta in compositions(part)]
        out = {prefix + beta for prefix in out for beta in splits}
    return out


def dominance_leq(beta: Composition, alpha: Composition) -> bool:
    """True iff every prefix sum of `alpha` is >= the one of `beta`.

    Shorter sequences are padded with zeros; both must have the same size.
    """
    if sum(alpha) != sum(beta):
        raise ValueError(f"size mismatch: |{alpha}| != |{beta}|")
    total_a = total_b = 0
    for i in range(max(len(alpha), len(beta))):
        total_a += alpha[i] if i < len(alpha) else 0
        total_b += beta[i] if i < len(beta) else 0
        if total_a < total_b:
            return False
    return True


def depth(alpha: Composition) -> int:
    """The grading statistic sum_i (i-1)*alpha_i of the dominance order."""
    return sum(i * part for i, part in enumerate(alpha))


def raising_covers(alpha: Composition) -> list[Composition]:
    """All compositions reached from `alpha` by one raising move.

    A raising move shifts one unit from a part of size >= 2 to the part on
    its right (appending a new part 1 when applied to the last part).  Each
    result sits one depth level higher and directly below `alpha` in
    dominance order.
    """
    if not is_strong(alpha):
        raise ValueError(f"composition must be strong: {alpha}")
    out = []
    ell = len(alpha)
    for i, part in enumerate(alpha):
        if part < 2:
            continue
        if i < ell - 1:
            out.append(alpha[:i] + (part - 1, alpha[i + 1] + 1) + alpha[i + 2:])
        else:
            out.append(alpha[:i] + (part - 1, 1))
    return out


@cache
def dominance_covers(n: int) -> tuple[tuple[Composition, Composition], ...]:
    """Brute-force Hasse edges (lower, upper) of the dominance order on Comp(n)."""
    elements = compositions(n)
    strictly_below = {
        a: {b for b in elements if b != a and dominance_leq(b, a)} for a in elements
    }
    edges = []
    for upper in elements:
        below = strictly_below[upper]
        for lower in below:
            if not any(lower in strictly_below[mid] for mid in below if mid != lower):
                edges.append((lower, upper))
    return tuple(sorted(edges))


class _Immutable:
    """Attribute assignment and deletion refused once built: `__init__` sets the
    fields through `object.__setattr__`, or through the instance `__dict__`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Frozen(_Immutable):
    """Value semantics over `__slots__`: equality and hash by the fields, and a
    field-by-field repr."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


@total_ordering
class IndexSet(_Frozen):
    """A subset of {1, ..., n-1}, stored strictly sorted; ordered by (n, members)."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: tuple[int, ...]) -> None:
        ordered = tuple(sorted(members))
        if any(not 1 <= a <= n - 1 for a in ordered):
            raise ValueError(f"members must lie in [1, {n - 1}]: {members}")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate members: {members}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", ordered)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() < other._fields()


def comp_to_set(alpha: Composition) -> IndexSet:
    """Proper prefix sums of a strong composition, as a subset of [n-1]."""
    if not is_strong(alpha):
        raise ValueError(f"composition must be strong: {alpha}")
    total = 0
    sums = []
    for part in alpha[:-1]:
        total += part
        sums.append(total)
    return IndexSet(sum(alpha), tuple(sums))


def set_to_comp(subset: IndexSet) -> Composition:
    """Successive differences of a subset of [n-1]; inverse of comp_to_set."""
    if subset.n == 0:
        return ()
    bounds = (0, *subset.members, subset.n)
    return tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def subsets(n: int) -> tuple[IndexSet, ...]:
    """All 2^(n-1) subsets of [n-1], sorted."""
    ground = range(1, n)
    return tuple(
        sorted(IndexSet(n, mem) for k in range(n) for mem in combinations(ground, k))
    )


def superboolean_covers(subset: IndexSet) -> list[IndexSet]:
    """Covers of `subset` in the maj-graded order on subsets of [n-1].

    A cover either inserts 1 (when absent) or slides one member a to a+1
    (when a+1 is absent and still below n).  Either move raises maj by one.
    """
    n = subset.n
    have = set(subset.members)
    out = []
    if 1 not in have and n >= 2:
        out.append(IndexSet(n, (1, *subset.members)))
    for a in subset.members:
        if a + 1 not in have and a + 1 <= n - 1:
            out.append(IndexSet(n, tuple(sorted((have - {a}) | {a + 1}))))
    return sorted(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram of `lam`."""
    _require_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def hook_product(lam: Partition) -> int:
    """Product over the cells of `lam` of their hook lengths."""
    columns = conjugate(lam)
    return prod(row - c + columns[c] - r - 1 for r, row in enumerate(lam) for c in range(row))


def max_descent_length(lam: Partition) -> int:
    """The largest number of parts a descent composition of shape `lam` can have."""
    _require_partition(lam)
    if not lam:
        raise ValueError("empty partition")
    return sum(lam) - lam[0] + 1


def is_hook(lam: Partition) -> bool:
    """True when the second row has at most one box."""
    _require_partition(lam)
    return bool(lam) and (len(lam) == 1 or lam[1] <= 1)


def is_regular(lam: Partition) -> bool:
    """True unless `lam` is a c x r rectangle with c, r >= 2."""
    _require_partition(lam)
    return not (len(lam) >= 2 and lam[0] >= 2 and len(set(lam)) == 1)


def lambda_bar(lam: Partition) -> Composition:
    """The deepest descent composition supported by shape `lam`.

    Writing the conjugate as (c_1, ..., c_l, 1^L) with every c_j >= 2, the
    result is (1^(c_1 - 1), 2, 1^(c_2 - 2), 2, ..., 2, 1^(c_l - 2), L + 1);
    a one-row shape is its own result.
    """
    _require_partition(lam)
    if not lam:
        raise ValueError("empty partition")
    conj = conjugate(lam)
    tall = [c for c in conj if c >= 2]
    trailing_ones = len(conj) - len(tall)
    if not tall:
        return lam
    parts = [1] * (tall[0] - 1)
    for c in tall[1:]:
        parts.append(2)
        parts.extend([1] * (c - 2))
    parts.append(trailing_ones + 1)
    return tuple(parts)
