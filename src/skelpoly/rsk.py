"""Row-insertion RSK for words and permutations, with descent statistics.

Permutations are tuples in one-line notation over {1, ..., n}; words are
tuples of positive integers.  `rsk` returns the insertion and recording
tableaux; the statistics in `PermStats` (descent compositions of w and of
its inverse, major index, depth, inversions, charge, involution) all live on
the recording side or directly on the one-line word.  `perm_stats(w)` is the
reference route, one function per statistic on one word; `perm_table(n)`
streams every permutation of S_n with the same statistics, carried along a
depth-first search over positions rather than recomputed per row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations, permutations as _permutations, starmap
from operator import gt
from typing import Iterable, Iterator, NamedTuple

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


def charge(w: Word) -> int:
    """Sum of the inductive labels c_i, where c_i grows by 1 at each left descent."""
    if not is_permutation(w):
        raise ValueError(f"not a permutation: {w}")
    # c_i counts the left descents d < i, so each d adds 1 to c_(d+1..n)
    return sum(len(w) - d for d in left_descents(w))


def inversions(w: Word) -> int:
    return sum(starmap(gt, combinations(w, 2)))


class PermStats(NamedTuple):
    descent_composition: Composition
    inverse_descent_composition: Composition
    maj: int
    depth: int
    inversions: int
    charge: int
    is_involution: bool


def perm_stats(w: Word) -> PermStats:
    """All permutation statistics used by the polynomial identities, for one word.

    The reference route: each statistic comes from its own function on the
    one-line word.  The descent composition is the one of the recording
    tableau; by the Schensted correspondence it can be read off the word.
    """
    w = tuple(w)
    inv = inverse(w)  # raises on a non-permutation
    alpha = word_descent_composition(w)
    return PermStats(
        descent_composition=alpha,
        inverse_descent_composition=word_descent_composition(inv),
        maj=sum(descents(w).members),
        depth=composition_depth(alpha),
        inversions=inversions(w),
        charge=charge(w),
        is_involution=inv == w,
    )


def perm_table(n: int) -> Iterator[tuple[Word, PermStats]]:
    """Each w of S_n with `perm_stats(w)`, in `all_permutations(n)` order.

    A depth-first search over positions 1..n that tries the unplaced values
    in increasing order, so the rows come out lexicographically.  Placing v
    at position i updates every statistic of the prefix in O(1):
    inversions by the placed values greater than v; a descent at i-1 when
    the previous value exceeds v (maj += i-1, depth = n*des - maj); a left
    descent at v when v+1 is already placed (charge += n-v).  An involution
    needs w(v) = i whenever v < i; the case v > i is tested when position v
    is filled.  Descent sets are bitmasks (bit d for descent d), mapped to
    compositions through one dict per n.  Streamed rather than stored: the
    rows of S_8 alone take about 12 MiB.
    """
    composition_of = {
        sum(1 << d for d in comp_to_set(alpha).members): alpha for alpha in compositions(n)
    }
    values = ((1 << (n + 1)) - 1) ^ 1  # bit v for each value v of [n]
    make = tuple.__new__

    def extend(i, prefix, used, des_mask, maj, des, left_mask, charge, inv, involution):
        # place each free value at position i; `prefix` holds positions 1..i-1
        prev = prefix[-1] if prefix else 0
        free = values & ~used
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            w = prefix + (v,)
            d_mask, d_maj, d_des = des_mask, maj, des
            if prev > v:
                d_mask |= 1 << (i - 1)
                d_maj += i - 1
                d_des += 1
            placed = used | bit
            l_mask, l_charge = left_mask, charge
            if placed >> (v + 1) & 1:
                l_mask |= 1 << v
                l_charge += n - v
            w_inv = inv + (used >> (v + 1)).bit_count()
            w_involution = involution and (v >= i or prefix[v - 1] == i)
            if i + 1 < n:
                yield from extend(
                    i + 1, w, placed, d_mask, d_maj, d_des, l_mask, l_charge, w_inv, w_involution
                )
                continue
            # unrolled last position: x is the one value left, every other value
            # is placed, so x is a left descent unless x = n
            x = (values & ~placed).bit_length() - 1
            w += (x,)
            if v > x:
                d_mask |= 1 << i
                d_maj += i
                d_des += 1
            if x < n:
                l_mask |= 1 << x
                l_charge += n - x
                w_involution = w_involution and w[x - 1] == n
            row = (composition_of[d_mask], composition_of[l_mask], d_maj, n * d_des - d_maj,
                   w_inv + n - x, l_charge, w_involution)
            yield w, make(PermStats, row)

    if n < 2:  # no last position to unroll after the first
        alpha = composition_of[0]
        yield tuple(range(1, n + 1)), make(PermStats, (alpha, alpha, 0, 0, 0, 0, True))
        return
    yield from extend(1, (), 0, 0, 0, 0, 0, 0, 0, True)
