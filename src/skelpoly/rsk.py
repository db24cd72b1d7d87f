"""Row-insertion RSK for words and permutations, with descent statistics.

Permutations are tuples in one-line notation over {1, ..., n}; words are
tuples of positive integers.  `rsk` returns the insertion and recording
tableaux.  A `PermStats` row holds the descent compositions of w and of its
inverse (its left descents), maj, depth, inversions, charge and whether w is
an involution.  `perm_stats(w)` is the reference, one function per statistic
on one word, and `perm_table(n)` sweeps S_n with it.  `rsk_tally(n)`, kept per
process, counts S_n by the masks of Des(w) and Des(w^-1) and by inversions without
a row per w: it joins the orderings of each set of values that fills the first
ceil(n/2) positions to the orderings of the rest.  `mask_stats(n)` reads the
composition, maj and depth of each descent mask off its bits.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cache
from itertools import combinations, permutations as _permutations, product, starmap
from operator import add, gt, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .compositions import Composition
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
    if n < 0:
        raise ValueError("n must be nonnegative")
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


@cache
def _involution_ends(n: int) -> Counter:
    """The involutions w of S_n counted by (Des(w) mask, w(n)).

    w(n) = n extends an involution of S_(n-1) by no descent.  w(n) = k < n swaps k and n
    around an involution u of the other n - 2 values, relabeled in order: the descents of u
    past k - 1 move up one place and the one at k - 1 is lost, k is a descent, and so is
    n - 1 when u ends at k or above.
    """
    if n < 2:
        return Counter({(0, n): 1})
    ends = Counter()
    for (des, _), c in _involution_ends(n - 1).items():
        ends[des, n] += c
    for (des, last), c in _involution_ends(n - 2).items():
        for k in range(1, n):
            kept = des & (1 << k - 1) - 1 | des >> k << k + 1  # u's descents, around k
            ends[kept | 1 << k | (last >= k) << n - 1, k] += c
    return ends


@cache
def mask_stats(n: int) -> tuple:
    """Descent mask D of S_n (bit d for d) -> (composition, maj = sum D, depth = n*|D| - sum D),
    or None for a mask with bit 0; charge is the depth of the left-descent mask.  The
    composition is the run lengths between the set bits of each even mask below 2^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    stats_of = [None] * (1 << n)
    for mask in range(0, 1 << n, 2):
        ds = [d for d in range(1, n) if mask >> d & 1]
        cuts = [0, *ds, n] if n else [0]
        stats_of[mask] = tuple(map(sub, cuts[1:], cuts)), sum(ds), n * len(ds) - sum(ds)
    return tuple(stats_of)


def _orderings(k: int, shift: int) -> list[tuple[int, int, int, int]]:
    """(descents, after, last, inversions) of each ordering of range(k), lexicographic: its
    descent mask shifted by `shift`, the mask of each j placed after j + 1, its last entry."""
    rows = []
    for order in _permutations(range(k)):
        where = sorted(range(k), key=order.__getitem__)
        rows.append((sum(1 << shift + j for j in range(1, k) if order[j - 1] > order[j]),
                     sum(1 << j for j in range(k - 1) if where[j + 1] < where[j]),
                     order[-1] if k else 0, inversions(order)))
    return rows


def _lefts(members: Sequence[int], placed: int) -> list[int]:
    """The left descents that fall in an ordering of `members` (sorted) placed after the
    values masked by `placed`, indexed by the `after` mask of its pattern: each v whose v+1
    is placed, or is the next member and comes first."""
    lefts = [sum(1 << v for v in members if placed >> v + 1 & 1)]
    for v, next_v in zip(members, members[1:]):
        lefts += [left | (next_v == v + 1) << v for left in lefts]
    return lefts


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
    """The `RskTally` of S_n, joined from the halves of the one-line words, without a row per w.

    A prefix fills positions 1..m, m = ceil(n/2), with a set U of values, and a tail fills
    the rest with the others; each half is an ordering of `_orderings`, its key (D << n | L,
    D and L masking the descents and the left descents) read through the `_lefts` of its
    set.  A prefix and a tail set disjoint bits, so the key of w is the sum of theirs, plus
    the descent at m for the tails (in lex order, `block` per first value) that start below
    the prefix's last value; the sums of each U's prefix and tail keys are counted in C.
    Inversions add up as those of each half plus the pairs of U above the rest.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m, t, values = (n + 1) // 2, n // 2, range(1, n + 1)
    heads, tails = _orderings(m, n), _orderings(t, n + m)
    by_last = [[(des, after) for des, after, last, _ in heads if last == j] for j in range(m)]
    block = len(tails) // max(t, 1)
    pairs, crossings = Counter({0: 1} if n == 0 else {}), Counter()  # S_0: no prefix to join
    for chosen in combinations(values, m):
        used = sum(1 << v for v in chosen)
        rest_lefts = _lefts([v for v in values if not used >> v & 1], used)
        above = [des | rest_lefts[after] for des, after, _, _ in tails]
        below = [key | 1 << m + n for key in above]
        head_lefts = _lefts(chosen, 0)
        for j, (v, rows) in enumerate(zip(chosen, by_last)):
            split = (v - 1 - j) * block  # v - 1 - j values of the rest lie below v
            keys = [des | head_lefts[after] for des, after in rows]
            pairs.update(starmap(add, product(keys, below[:split] + above[split:])))
        # the inversions across the halves: each u of U above a value of the rest
        crossings[sum(chosen) - m * (m + 1) // 2] += 1
    counts = [0] * (n * (n - 1) // 2 + 1)
    by_inversions = (Counter(row[3] for row in half).items() for half in (heads, tails))
    for (a, c), (b, d), (e, f) in product(crossings.items(), *by_inversions):
        counts[a + b + e] += c * d * f
    involutions = Counter()
    for (des, _), c in _involution_ends(n).items():
        involutions[des] += c
    return RskTally(pairs, counts, involutions)
