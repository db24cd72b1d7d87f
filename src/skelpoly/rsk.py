"""Row-insertion RSK for words and permutations, with descent statistics.

Permutations are tuples in one-line notation over {1, ..., n}; words are
tuples of positive integers.  `rsk` returns the insertion and recording
tableaux; the statistics in `PermStats` (descent compositions of w and of
its inverse, major index, depth, inversions, charge, involution) all live on
the recording side or directly on the one-line word.  `perm_stats(w)` is the
reference route, one function per statistic on one word; `perm_table(n)`
streams every permutation of S_n with the same statistics, each row joining
a searched prefix to an entry of a per-remaining-set tail table rather than
recomputed from its word.
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

    Each w is a prefix (positions 1..m, m = ceil(n/2)) followed by a tail
    (the other n - m positions), and every statistic splits into a part of
    the prefix, a part of the tail and at most one term that couples them.
    The prefixes come from a depth-first search over positions 1..m that
    tries the unplaced values in increasing order.  Placing v at position i
    updates every statistic in O(1): inversions by the placed values greater
    than v; a descent at i-1 when the previous value exceeds v (maj += i-1,
    depth = n*des - maj); a left descent at v when v+1 is already placed
    (charge += n-v).  The tails are the orderings of the set R of values a
    prefix leaves, listed once per R in increasing order with what each adds
    to the descents at positions m+1..n-1, to the inversions (those between
    R and the greater placed values included) and to the left descents: a
    pair v, v+1 inside R by its order, v in R with v+1 placed always, v
    placed with v+1 in R never.  A row joins a prefix and a tail; the one
    coupling is the descent at position m, which every tail starting below
    the last prefix value has.  An involution needs w(v) = i at each position
    i with v = w(i) < i: the prefix tests its own positions; a tail fails on
    its own or names, for each of its values v <= m, the position that w(v)
    must be, and the prefix must agree.  Descent sets are bitmasks (bit d for
    descent d), mapped to compositions through one dict per n.

    The tail tables live as long as the generator: C(n, n-m) of them with
    (n-m)! entries each (252 of 120 at n = 10).  The rows are streamed rather
    than stored; those of S_8 alone take about 10.5 MiB.
    """
    composition_of = {
        sum(1 << d for d in comp_to_set(alpha).members): alpha for alpha in compositions(n)
    }
    values = ((1 << (n + 1)) - 1) ^ 1  # bit v for each value v of [n]
    m = (n + 1) // 2  # prefix length; the tail holds the other t positions
    t = n - m
    make = tuple.__new__

    def prefixes(i, prefix, used, des_mask, maj, des, left_mask, charge, inv, involution):
        # every way to fill positions i..m after `prefix`, with its statistics
        if i > m:
            yield prefix, used, des_mask, maj, des, left_mask, charge, inv, involution
            return
        prev = prefix[-1] if prefix else 0
        free = values & ~used
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
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
            yield from prefixes(
                i + 1, prefix + (v,), placed, d_mask, d_maj, d_des, l_mask, l_charge,
                inv + (used >> (v + 1)).bit_count(),
                involution and (v >= i or prefix[v - 1] == i),
            )

    # the orderings of range(t), lexicographic: the descents they put at positions
    # m+1..n-1 (mask, maj, n*des - maj), their inversions, and each k after k+1
    patterns = []
    for order in _permutations(range(t)):
        steps = [m + j for j in range(1, t) if order[j - 1] > order[j]]
        where = sorted(range(t), key=order.__getitem__)
        patterns.append((order, sum(1 << d for d in steps), sum(steps),
                         n * len(steps) - sum(steps), inversions(order),
                         [k for k in range(t - 1) if where[k + 1] < where[k]]))

    def tail_table(rest):
        # every ordering of the values in `rest`, lexicographic, with its statistics
        r = [v for v in range(1, n + 1) if rest >> v & 1]
        placed = values ^ rest
        cross = sum((placed >> (v + 1)).bit_count() for v in r)
        fixed_left = fixed_charge = 0
        for v in r:
            if placed >> (v + 1) & 1:
                fixed_left |= 1 << v
                fixed_charge += n - v
        table = []
        for order, mask, maj, dep, inv, after in patterns:
            tail = tuple([r[k] for k in order])
            left, charge = fixed_left, fixed_charge
            for k in after:
                v = r[k]
                if r[k + 1] == v + 1:
                    left |= 1 << v
                    charge += n - v
            key = []  # w(v) = m+1+j for the value v <= m at tail index j, else 0
            for p, v in enumerate(tail, start=m + 1):
                if m < v < p and tail[v - m - 1] != p:
                    key = None
                    break
                key.append(v if v <= m else 0)
            table.append((tail, mask, maj, dep, cross + inv, left, charge,
                          None if key is None else tuple(key)))
        return table

    tables = {}
    block = len(patterns) // max(t, 1)  # tails per first value
    for prefix, used, mask, maj, des, left, charge, inv, involution in prefixes(
        1, (), 0, 0, 0, 0, 0, 0, 0, True
    ):
        rest = values ^ used
        table = tables.get(rest)
        if table is None:
            table = tables[rest] = tail_table(rest)
        key = False  # equal to no tail's key
        if involution:
            need = [0] * t
            for v, p in enumerate(prefix, start=1):
                if p > m:
                    need[p - m - 1] = v
            key = tuple(need)
        # the tails that start below the last prefix value add a descent at m
        split = (rest & ((1 << (prefix[-1] if prefix else 0)) - 1)).bit_count() * block
        for b_mask, b_maj, b_dep, entries in (
            (mask | 1 << m, maj + m, n * (des + 1) - maj - m, table[:split]),
            (mask, maj, n * des - maj, table[split:]),
        ):
            for tail, t_mask, t_maj, t_dep, t_inv, t_left, t_charge, t_key in entries:
                row = (composition_of[b_mask | t_mask], composition_of[left | t_left],
                       b_maj + t_maj, b_dep + t_dep, inv + t_inv, charge + t_charge,
                       t_key == key)
                yield prefix + tail, make(PermStats, row)
