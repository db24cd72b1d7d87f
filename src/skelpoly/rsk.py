"""Row-insertion RSK for words and permutations, with descent statistics.

Permutations are tuples in one-line notation over {1, ..., n}; words are
tuples of positive integers.  `rsk` returns the insertion and recording
tableaux.  A `PermStats` row holds the descent compositions of w and of its
inverse (its left descents), maj, depth, inversions, charge and whether w is
an involution.  `perm_stats(w)` is the reference, one function per statistic
on one word, and `perm_table(n)` sweeps S_n with it.  `rsk_tally(n)`, kept per
process, counts S_n by the masks of Des(w) and Des(w^-1) and by inversions,
joining prefixes and tails of the one-line words, without a row per w.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from functools import cache
from itertools import combinations, permutations as _permutations, product, starmap
from operator import add, gt
from typing import Iterable, Iterator, NamedTuple

from .compositions import Composition, comp_to_set, compositions
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


def word_descent_composition(w: Word) -> Composition:
    """Descent composition of a permutation (that of its recording tableau): its runs."""
    runs, start = [], 0
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            runs.append(i - start)
            start = i
    return (*runs, len(w) - start) if w else ()


def left_descents(w: Word) -> tuple[int, ...]:
    """{i : i+1 occurs before i in w}; the descent set of the insertion tableau."""
    position = {value: idx for idx, value in enumerate(w)}
    return tuple(i for i in range(1, len(w)) if position[i + 1] < position[i])


def charge(w: Word) -> int:
    """Sum of the inductive labels c_i, where c_i grows by 1 at each left descent."""
    if not is_permutation(w):
        raise ValueError(f"not a permutation: {w}")
    return _charge(w)


def _charge(w: Word) -> int:
    """`charge` of a word known to be a permutation."""
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
    one-line word, which is checked once.  The descent composition is the one
    of the recording tableau; by the Schensted correspondence it can be read
    off the word.
    """
    w = tuple(w)
    inv = inverse(w)  # raises on a non-permutation
    alpha = word_descent_composition(w)
    return PermStats(
        descent_composition=alpha,
        inverse_descent_composition=word_descent_composition(inv),
        maj=sum(i for i in range(1, len(w)) if w[i - 1] > w[i]),
        depth=composition_depth(alpha),
        inversions=inversions(w),
        charge=_charge(w),
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


@cache
def mask_stats(n: int) -> tuple:
    """Descent mask D of S_n (bit d for d) -> (composition, maj = sum D, depth = n*|D| - sum D),
    or None for a mask with bit 0 or bit n; charge is the depth of the left-descent mask."""
    stats_of = [None] * (1 << n)
    for alpha in compositions(n):
        ds = comp_to_set(alpha).members
        stats_of[sum(1 << d for d in ds)] = alpha, sum(ds), n * len(ds) - sum(ds)
    return tuple(stats_of)


def _halves(n: int):
    """(m, prefixes, tail_table): the halves that each w of S_n joins, in lex order.

    A prefix (rest, split, key, inversions) fills positions 1..m, m = ceil(n/2), and
    leaves the values `rest`; `tail_table(rest)` lists the orderings of `rest` as
    (key, inversions).  A key is D << n | L, D and L masking the descents and the left
    descents (i with i+1 placed before i); the first `split` tails start below the
    prefix's last value: a descent at m.
    """
    values = ((1 << (n + 1)) - 1) ^ 1  # bit v for each value v of [n]
    m = (n + 1) // 2  # prefix length; the tail holds the other t positions
    t = n - m

    def prefixes(i, last, used, key, inv):
        # every way to fill positions i..m after a prefix ending in `last`
        if i > m:
            rest = values ^ used
            yield rest, (rest & ((1 << last) - 1)).bit_count() * block, key, inv
            return
        free = values & ~used
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            placed = used | bit
            yield from prefixes(
                i + 1, v, placed,
                key | (last > v) << (n + i - 1) | (placed >> (v + 1) & 1) << v,
                inv + (used >> (v + 1)).bit_count(),
            )

    # the orderings of range(t), lexicographic: the descents they put at positions
    # m+1..n-1 (shifted into D), their inversions, and each k that comes after k+1
    patterns = []
    for order in _permutations(range(t)):
        steps = [m + j for j in range(1, t) if order[j - 1] > order[j]]
        where = sorted(range(t), key=order.__getitem__)
        patterns.append((sum(1 << d + n for d in steps), inversions(order),
                         [k for k in range(t - 1) if where[k + 1] < where[k]]))
    block = len(patterns) // max(t, 1)  # tails per first value

    def tail_table(rest):
        # every ordering of the values in `rest`, lexicographic, with its statistics;
        # v in `rest` is a left descent when v+1 is placed, never when v is placed
        r = [v for v in range(1, n + 1) if rest >> v & 1]
        placed = values ^ rest
        cross = sum((placed >> (v + 1)).bit_count() for v in r)
        fixed_left = sum(1 << v for v in r if placed >> (v + 1) & 1)
        return [
            (des | fixed_left | sum(1 << r[k] for k in after if r[k + 1] == r[k] + 1), cross + inv)
            for des, inv, after in patterns
        ]

    return m, prefixes(1, 0, 0, 0, 0), tail_table


def perm_table(n: int) -> Iterator[tuple[Word, PermStats]]:
    """Each w of S_n with `perm_stats(w)`, in `all_permutations(n)` order: the reference sweep."""
    return ((w, perm_stats(w)) for w in all_permutations(n))


class RskTally(NamedTuple):
    """S_n counted by descent masks and by inversions (masks as in `mask_stats`)."""

    pairs: Counter  # D << n | L -> number of w with Des(w) = D and Des(w^-1) = L
    inversions: list[int]  # k -> number of w with k inversions
    involutions: Counter  # D -> number of involutions w (for which L = D) with Des(w) = D


@cache
def rsk_tally(n: int) -> RskTally:
    """The `RskTally` of S_n from the halves of `_halves(n)`, without a row per w.

    A prefix and a tail set disjoint bits, so the key of w is the sum of theirs, plus
    the descent at m for the tails below the split: the prefix keys are listed by
    (remaining set, split), and their sums with the tail keys of that table are
    counted in C.  Each table is dropped once joined.
    """
    m, prefixes, tail_table = _halves(n)
    groups = defaultdict(lambda: defaultdict(list))  # remaining set -> split -> prefix keys
    prefix_inversions = defaultdict(Counter)  # remaining set -> inversions -> prefixes
    for rest, split, key, inv in prefixes:
        groups[rest][split].append(key)
        prefix_inversions[rest][inv] += 1
    pairs, counts = Counter(), [0] * (n * (n - 1) // 2 + 1)
    for rest, by_split in groups.items():
        table = tail_table(rest)
        for split, prefix_keys in by_split.items():
            tails = [key | (i < split) << m + n for i, (key, _) in enumerate(table)]
            pairs.update(starmap(add, product(prefix_keys, tails)))
        for t_inv, c in Counter(inv for _, inv in table).items():
            for inv, d in prefix_inversions[rest].items():
                counts[inv + t_inv] += c * d
    involutions = Counter(sum(1 << i for i in range(1, n) if w[i - 1] > w[i])
                          for w in _involutions(n))
    return RskTally(pairs, counts, involutions)
