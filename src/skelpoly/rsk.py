"""Row-insertion RSK for words and permutations, with descent statistics.

Permutations are tuples in one-line notation over {1, ..., n}; words are
tuples of positive integers.  `rsk` returns the insertion and recording
tableaux; the statistics in `perm_stats` (descent compositions of w and of
its inverse, major index, depth, inversions, charge) all live on the
recording side or directly on the one-line word.  `perm_table(n)` streams
every permutation of S_n with those statistics, each row computed once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations, compress, permutations as _permutations, starmap
from operator import gt
from typing import Callable, Iterable, Iterator, NamedTuple

from .compositions import Composition, IndexSet, comp_to_set, compositions, set_to_comp
from .compositions import depth as composition_depth
from .tableaux import Tableau

Word = tuple[int, ...]


def is_permutation(word: Word) -> bool:
    return sorted(word) == list(range(1, len(word) + 1))


def inverse(w: Word) -> Word:
    """Inverse in one-line notation."""
    if not is_permutation(w):
        raise ValueError(f"not a permutation: {w}")
    inv = [0] * len(w)
    for position, value in enumerate(w, start=1):
        inv[value - 1] = position
    return tuple(inv)


def all_permutations(n: int) -> Iterator[Word]:
    return _permutations(range(1, n + 1))


def rsk(word: Iterable[int]) -> tuple[Tableau, Tableau]:
    """Schensted row insertion: returns (insertion tableau, recording tableau).

    The insertion tableau is semistandard (standard for a permutation); the
    recording tableau is always standard.
    """
    word = tuple(word)
    if any(x < 1 for x in word):
        raise ValueError(f"letters must be positive: {word}")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                q_rows[r].append(step)
                break
            x, row[pos] = row[pos], x
            r += 1
    return Tableau.of(p_rows), Tableau.of(q_rows)


def rsk_inverse(p: Tableau, q: Tableau) -> Word:
    """Reverse bumping in decreasing recording-label order; inverts `rsk`."""
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if not q.is_standard():
        raise ValueError("recording tableau must be standard")
    if not p.is_semistandard():
        raise ValueError("insertion tableau must be semistandard")
    rows = [list(row) for row in p.rows]
    row_of = {q.entry(r, c): r for r, c in q.cells()}
    out: list[int] = []
    for step in range(q.size, 0, -1):
        r = row_of[step]
        x = rows[r].pop()
        for above in range(r - 1, -1, -1):
            row = rows[above]
            pos = bisect_left(row, x) - 1
            x, row[pos] = row[pos], x
        out.append(x)
    return tuple(reversed(out))


def descents(w: Word) -> IndexSet:
    """Positions i with w(i) > w(i+1), as a subset of [n-1]."""
    n = len(w)
    return IndexSet(n, tuple(i for i in range(1, n) if w[i - 1] > w[i]))


def word_descent_composition(w: Word) -> Composition:
    """Descent composition of a permutation (that of its recording tableau)."""
    return set_to_comp(descents(w))


def left_descents(w: Word) -> tuple[int, ...]:
    """{i : i+1 occurs before i in w}; the descent set of the insertion tableau."""
    position = {value: idx for idx, value in enumerate(w)}
    return tuple(i for i in range(1, len(w)) if position[i + 1] < position[i])


def _charge(n: int, lefts: Iterable[int]) -> int:
    # the label c_i counts the left descents d < i, so each d adds 1 to c_(d+1..n)
    return sum(n - d for d in lefts)


def charge(w: Word) -> int:
    """Sum of the inductive labels c_i, where c_i grows by 1 at each left descent."""
    if not is_permutation(w):
        raise ValueError(f"not a permutation: {w}")
    return _charge(len(w), left_descents(w))


def inversions(w: Word) -> int:
    return sum(starmap(gt, combinations(w, 2)))


class PermStats(NamedTuple):
    descent_composition: Composition
    inverse_descent_composition: Composition
    left_descents: tuple[int, ...]
    maj: int
    depth: int
    inversions: int
    charge: int
    is_involution: bool


def _row(w: Word, composition_of: Callable[[tuple[int, ...]], Composition]) -> PermStats:
    n = len(w)
    # not inverse(w): that validates again, and the tests use it as the reference
    inv = [0] * n
    for position, value in enumerate(w, start=1):
        inv[value - 1] = position
    inv = tuple(inv)
    des = tuple(compress(range(1, n), map(gt, w, w[1:])))
    # the left descents of w are the descents of its inverse
    lefts = tuple(compress(range(1, n), map(gt, inv, inv[1:])))
    alpha = composition_of(des)
    return PermStats(
        descent_composition=alpha,
        inverse_descent_composition=composition_of(lefts),
        left_descents=lefts,
        maj=sum(des),
        depth=composition_depth(alpha),
        inversions=inversions(w),
        charge=_charge(n, lefts),
        is_involution=inv == w,
    )


def perm_stats(w: Word) -> PermStats:
    """All permutation statistics used by the polynomial identities.

    The descent composition is the one of the recording tableau; by the
    Schensted correspondence it can be read off the one-line word directly.
    """
    if not is_permutation(w):
        raise ValueError(f"not a permutation: {w}")
    # convert the two sets directly; only perm_table amortizes a table of all 2^(n-1)
    return _row(tuple(w), lambda members: set_to_comp(IndexSet(len(w), members)))


def perm_table(n: int) -> Iterator[tuple[Word, PermStats]]:
    """Each w of S_n with `perm_stats(w)`, in `all_permutations(n)` order.

    Streamed rather than stored: the rows of S_8 alone take about 14 MiB.
    """
    composition_of = {comp_to_set(alpha).members: alpha for alpha in compositions(n)}
    for w in all_permutations(n):
        yield w, _row(w, composition_of.__getitem__)
