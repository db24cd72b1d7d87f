"""Row-insertion RSK for words and permutations, with descent statistics.

Permutations are tuples in one-line notation over {1, ..., n}; words are
tuples of positive integers.  `rsk` returns the insertion and recording
tableaux; the statistics in `perm_stats` (descent composition, major index,
depth, inversions, charge) all live on the recording side or directly on
the one-line word.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import permutations as _permutations
from typing import Iterable, Iterator

from .compositions import Composition, IndexSet, depth as composition_depth, set_to_comp
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
    n = len(w)
    return sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class PermStats:
    descent_composition: Composition
    left_descents: tuple[int, ...]
    maj: int
    depth: int
    inversions: int
    charge: int
    is_involution: bool


def perm_stats(w: Word) -> PermStats:
    """All permutation statistics used by the polynomial identities.

    The descent composition is the one of the recording tableau; by the
    Schensted correspondence it can be read off the one-line word directly.
    """
    if not is_permutation(w):
        raise ValueError(f"not a permutation: {w}")
    dset = descents(w)
    des = set_to_comp(dset)
    lefts = left_descents(w)
    return PermStats(
        descent_composition=des,
        left_descents=lefts,
        maj=sum(dset.members),
        depth=composition_depth(des),
        inversions=inversions(w),
        charge=_charge(len(w), lefts),
        is_involution=inverse(w) == w,
    )


def symmetry_check(n: int) -> bool:
    """True iff P(w^-1) = Q(w) and Q(w^-1) = P(w) across all of S_n."""
    for w in all_permutations(n):
        p, q = rsk(w)
        p_inv, q_inv = rsk(inverse(w))
        if p_inv != q or q_inv != p:
            return False
    return True
