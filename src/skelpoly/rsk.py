"""Row-insertion RSK for words and permutations, with descent statistics.

Permutations are tuples in one-line notation over {1, ..., n}; words are
tuples of positive integers.  `rsk` returns the insertion and recording
tableaux.  A `PermStats` row holds the descent compositions of w and of its
inverse (its left descents), maj, depth, inversions, charge and whether w is
an involution.  `perm_stats(w)` is the reference, one function per statistic
on one word; `perm_table(n)` streams S_n with the same rows, reading maj,
depth and charge off the descent and left-descent masks.
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


def _involutions(n: int) -> Iterator[Word]:
    """Every involution of S_n in one-line notation, each once.

    The least value not yet matched is either fixed or swapped with a greater
    unmatched one.
    """
    w = [0] * n

    def match(i):
        while i < n and w[i]:
            i += 1
        if i == n:
            yield tuple(w)
            return
        for j in range(i, n):
            if not w[j]:
                w[i], w[j] = j + 1, i + 1
                yield from match(i + 1)
                w[i] = w[j] = 0

    return match(0)


def perm_table(n: int) -> Iterator[tuple[Word, PermStats]]:
    """Each w of S_n with `perm_stats(w)`, in `all_permutations(n)` order.

    Each w joins a prefix (positions 1..m, m = ceil(n/2)), from a depth-first
    search that tries the unplaced values in increasing order, to a tail, an
    ordering of the values the prefix leaves, from a table built once per
    remaining set.  Each half carries its descents and left descents (i with
    i+1 placed before i) as bitmasks, bit d for d, and its inversions; the one
    coupling is the descent at m of every tail that starts below the last
    prefix value.  One table per n maps each mask to its composition, its
    maj (sum of D) and its depth (n*|D| - sum of D); charge is that depth of
    the left-descent mask.  An involution passes the prefix test w(v) = i for
    each v = w(i) < i, then is looked up among the `_involutions(n)`.
    """
    stats_of = [None] * (1 << n)  # descent mask -> (composition, maj, depth)
    for alpha in compositions(n):
        ds = comp_to_set(alpha).members
        stats_of[sum(1 << d for d in ds)] = alpha, sum(ds), n * len(ds) - sum(ds)
    involutions = frozenset(_involutions(n))
    values = ((1 << (n + 1)) - 1) ^ 1  # bit v for each value v of [n]
    m = (n + 1) // 2  # prefix length; the tail holds the other t positions
    t = n - m
    make = tuple.__new__

    def prefixes(i, prefix, used, des_mask, left_mask, inv, involution):
        # every way to fill positions i..m after `prefix`, with its statistics
        if i > m:
            yield prefix, used, des_mask, left_mask, inv, involution
            return
        prev = prefix[-1] if prefix else 0
        free = values & ~used
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            placed = used | bit
            yield from prefixes(
                i + 1, prefix + (v,), placed,
                des_mask | 1 << (i - 1) if prev > v else des_mask,
                left_mask | 1 << v if placed >> (v + 1) & 1 else left_mask,
                inv + (used >> (v + 1)).bit_count(),
                involution and (v >= i or prefix[v - 1] == i),
            )

    # the orderings of range(t), lexicographic: the descents they put at positions
    # m+1..n-1, their inversions, and each k that comes after k+1
    patterns = []
    for order in _permutations(range(t)):
        steps = [m + j for j in range(1, t) if order[j - 1] > order[j]]
        where = sorted(range(t), key=order.__getitem__)
        patterns.append((order, sum(1 << d for d in steps), inversions(order),
                         [k for k in range(t - 1) if where[k + 1] < where[k]]))

    def tail_table(rest):
        # every ordering of the values in `rest`, lexicographic, with its statistics;
        # v in `rest` is a left descent when v+1 is placed, never when v is placed
        r = [v for v in range(1, n + 1) if rest >> v & 1]
        placed = values ^ rest
        cross = sum((placed >> (v + 1)).bit_count() for v in r)
        fixed_left = sum(1 << v for v in r if placed >> (v + 1) & 1)
        return [
            (tuple([r[k] for k in order]), mask, cross + inv,
             fixed_left | sum(1 << r[k] for k in after if r[k + 1] == r[k] + 1))
            for order, mask, inv, after in patterns
        ]

    tables = {}
    block = len(patterns) // max(t, 1)  # tails per first value
    for prefix, used, mask, left, inv, involution in prefixes(1, (), 0, 0, 0, 0, True):
        rest = values ^ used
        table = tables.get(rest)
        if table is None:
            table = tables[rest] = tail_table(rest)
        # the tails that start below the last prefix value add a descent at m
        split = (rest & ((1 << (prefix[-1] if prefix else 0)) - 1)).bit_count() * block
        for b_mask, entries in ((mask | 1 << m, table[:split]), (mask, table[split:])):
            for tail, t_mask, t_inv, t_left in entries:
                w = prefix + tail
                alpha, maj, dep = stats_of[b_mask | t_mask]
                beta, _, charge = stats_of[left | t_left]
                yield w, make(PermStats, (alpha, beta, maj, dep, inv + t_inv, charge,
                                          involution and w in involutions))
