"""Young tableaux: band parsing, descent compositions, and enumeration.

Tableaux are stored row by row.  An SSYT has weakly increasing rows and
strictly increasing columns; an SYT additionally uses each of 1..n exactly
once.  The *minimal parsing* cuts the cells of an SSYT, traversed by value
(ties by column), into maximal runs in which each cell sits strictly
northeast of the previous one; the run sizes form the descent composition.

The SYT of a shape are enumerated once, by `yamanouchi_table`: a depth-first
walk of the Young lattice over their Yamanouchi words (the row of each of
1..n), which carries the descent composition and maj along the prefix.  The
SYT, their destandardizations (the quasi-Yamanouchi tableaux), the descent
filter and every count by descent or maj are read from that table, with no
tableau parsed.  SSYT are filled in a loop, row by row (`_fill`).  The minimal
parsing, `standardize`, `descent_set` and `tableau_stats` work on one
tableau at a time and are the reference the table is tested against.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import accumulate, chain, repeat
from math import factorial
from typing import Iterable, Iterator, NamedTuple

from .compositions import (
    Composition,
    Partition,
    _Frozen,
    _require_partition,
    depth as composition_depth,
    hook_product,
    is_partition,
    trim,
)


Rows = tuple[tuple[int, ...], ...]  # a tableau's rows, top down


class Tableau(_Frozen):
    """A tableau as its rows, top down; immutable, equal and hashed by its rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Rows) -> None:
        object.__setattr__(self, "rows", rows)

    @classmethod
    def of(cls, rows: Iterable[Iterable[int]]) -> "Tableau":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def max_entry(self) -> int:
        return max((value for row in self.rows for value in row), default=0)

    def entry(self, r: int, c: int) -> int:
        return self.rows[r][c]

    def cells(self) -> Iterator[tuple[int, int]]:
        for r, row in enumerate(self.rows):
            for c in range(len(row)):
                yield r, c

    def is_semistandard(self) -> bool:
        if not is_partition(self.shape):
            return False
        for r, row in enumerate(self.rows):
            for c, value in enumerate(row):
                if value < 1:
                    return False
                if c > 0 and row[c - 1] > value:
                    return False
                if r > 0 and self.rows[r - 1][c] >= value:
                    return False
        return True

    def is_standard(self) -> bool:
        n = self.size
        values = sorted(value for row in self.rows for value in row)
        return self.is_semistandard() and values == list(range(1, n + 1))

    def render(self) -> str:
        """Aligned text grid, one row per line."""
        if not self.rows:
            return "(empty)"
        width = len(str(self.max_entry))
        return "\n".join(
            " ".join(str(v).rjust(width) for v in row) for row in self.rows
        )

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


class Band(NamedTuple):
    """A run of cells going strictly northeast, with weakly increasing entries."""

    cells: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.cells)


def minimal_parsing(t: Tableau) -> list[Band]:
    """Split an SSYT into its maximal horizontal bands, smallest values first."""
    if not t.is_semistandard():
        raise ValueError(f"not a semistandard tableau: {t.rows}")
    bands: list[Band] = []
    cells: list[tuple[int, int]] = []
    # (value, column, row); column breaks ties so equal values chain northeast
    for _, c, r in sorted((t.entry(r, c), c, r) for r, c in t.cells()):
        if cells:
            prev_r, prev_c = cells[-1]
            if not (prev_r >= r and prev_c < c):
                bands.append(Band(tuple(cells)))
                cells = []
        cells.append((r, c))
    if cells:
        bands.append(Band(tuple(cells)))
    return bands


def descent_composition(t: Tableau) -> Composition:
    """Band sizes of the minimal parsing."""
    return tuple(band.size for band in minimal_parsing(t))


def standardize(t: Tableau) -> Tableau:
    """Relabel the cells 1..n in band order; the result is an SYT."""
    cells = (cell for band in minimal_parsing(t) for cell in band.cells)
    label = {cell: k for k, cell in enumerate(cells, start=1)}
    return Tableau.of([label[r, c] for c in range(len(row))] for r, row in enumerate(t.rows))


def weight(t: Tableau) -> Composition:
    """Multiplicity vector of the values 1..max_entry."""
    word = sum(t.rows, ())
    return tuple(map(word.count, range(1, max(word, default=0) + 1)))


def descent_set(t: Tableau) -> tuple[int, ...]:
    """{i : i+1 sits in a strictly lower row than i}, taken on the standardization."""
    u = t if t.is_standard() else standardize(t)
    row_of = {u.entry(r, c): r for r, c in u.cells()}
    n = u.size
    return tuple(i for i in range(1, n) if row_of[i + 1] > row_of[i])


def is_quasi_yamanouchi(t: Tableau) -> bool:
    """True when the weight, trailing zeros trimmed, equals the descent composition."""
    return trim(weight(t)) == descent_composition(t)


class TableauStats(NamedTuple):
    weight: Composition
    descent_composition: Composition
    descent_set: tuple[int, ...]
    maj: int
    depth: int
    is_quasi_yamanouchi: bool


def tableau_stats(t: Tableau) -> TableauStats:
    des = descent_composition(t)  # checks that t is semistandard
    dset = tuple(accumulate(des[:-1]))
    w = weight(t)
    return TableauStats(
        weight=w,
        descent_composition=des,
        descent_set=dset,
        maj=sum(dset),
        depth=composition_depth(des),
        is_quasi_yamanouchi=trim(w) == des,
    )


def _fill(shape: Partition, max_entry: int, counts: tuple[int, ...] | None) -> list[Rows]:
    """The rows of every SSYT of `shape` with entries at most `max_entry`, in lexicographic order.

    Row by row, top down: each row is a weakly increasing word whose entries
    sit strictly below those of the row above and leave room for the rows
    under it, so every partial filling completes.  A row grows one column per
    pass, each prefix extended in order by every value its cell admits, so
    rows come out in lexicographic order with no recursion per cell.  With
    `counts`, a value v fills at most counts[v - 1] cells, and is tried in a
    row only while the values from v up have cells enough left for the rest
    of that row.  The rows that fit under a row are found once per row above
    and counts left.  Every partial filling of the first k rows is extended
    before any of k + 1, in order, so the shape may have any number of rows.
    """
    # caps[k][c]: the largest entry of cell (k, c), one less per cell under it
    caps = [
        [max_entry - sum(lower > c for lower in shape[k + 1 :]) for c in range(length)]
        for k, length in enumerate(shape)
    ]
    under: dict[tuple, list[tuple[int, ...]]] = {}

    def rows_under(
        k: int, above: tuple[int, ...], left: tuple[int, ...] | None
    ) -> list[tuple[int, ...]]:
        """The rows k under `above`, each pass extending every prefix by one column."""
        rows: list[tuple[int, ...]] = [()]
        for c, cap in enumerate(caps[k]):
            rows = [
                row + (value,)
                for row in rows
                for value in range(max(row[-1] if row else 1, above[c] + 1), cap + 1)
                if left is None or (
                    (used := row.count(value)) < left[value - 1]
                    and sum(left[value - 1 :]) - used >= shape[k] - c
                )
            ]
        return rows

    level: list[tuple[Rows, tuple[int, ...] | None]] = [((), counts)]  # rows so far, counts left
    for k in range(len(shape)):
        grown = []
        for rows, left in level:
            above = rows[-1] if rows else (0,) * shape[0]
            fits = under.get((k, above, left))
            if fits is None:
                fits = under[k, above, left] = rows_under(k, above, left)
            for row in fits:
                rest = left and tuple(n - row.count(v) for v, n in enumerate(left, start=1))
                grown.append((rows + (row,), rest))
        level = grown
    return [rows for rows, _ in level]


def semistandard_tableaux(shape: Partition, max_entry: int) -> list[Tableau]:
    """All SSYT of `shape` with entries at most `max_entry`, in row-reading lex order."""
    _require_partition(shape)
    return list(map(Tableau, _fill(shape, max_entry, None)))


def semistandard_with_weight(shape: Partition, weight_vec: Composition) -> list[Tableau]:
    """All SSYT of `shape` whose value multiplicities equal `weight_vec`."""
    _require_partition(shape)
    if any(part < 0 for part in weight_vec):
        raise ValueError(f"weight parts must be nonnegative: {tuple(weight_vec)}")
    if sum(weight_vec) != sum(shape):
        return []
    return list(map(Tableau, _fill(shape, len(weight_vec), tuple(weight_vec))))


def standard_count(shape: Partition) -> int:
    """f^shape, the number of SYT of `shape`, by the hook-length formula (no enumeration)."""
    return factorial(sum(shape)) // hook_product(shape)


class YamanouchiRow(NamedTuple):
    """One SYT of a shape: its Yamanouchi word and the statistics read along it."""

    word: tuple[int, ...]  # word[i - 1] is the row (counted from 0) that holds i
    descent_composition: Composition
    maj: int

    def stats(self, quasi_yamanouchi: bool = False) -> TableauStats:
        """`tableau_stats` of this SYT, or with `quasi_yamanouchi` of its destandardization."""
        des = self.descent_composition
        w = des if quasi_yamanouchi else (1,) * len(self.word)
        return TableauStats(
            weight=w,
            descent_composition=des,
            descent_set=tuple(accumulate(des[:-1])),
            maj=self.maj,
            depth=composition_depth(des),
            is_quasi_yamanouchi=w == des,
        )


@cache
def yamanouchi_table(shape: Partition) -> tuple[YamanouchiRow, ...]:
    """Every SYT of `shape` as its row sequence r_1..r_n, from one walk of the Young lattice.

    Step i adds a cell to a row r that is shorter than both shape[r] and row
    r-1.  i-1 is a descent exactly when r_i > r_(i-1) (i sits in a lower row),
    so the walk carries maj and the runs between descents along the prefix:
    the run lengths are the descent composition, the descent set is their
    proper prefix sums, and the number of runs so far is the label of step i
    in the quasi-Yamanouchi tableau.  Rows come in walk order (words in
    lexicographic order).  The walk recurses once per cell, so a shape with more
    cells than the recursion limit leaves it, past the frames in use, is refused.
    It stays a recursion, as the hot loop of `skeleton` and `tableaux --qy`:
    grown level by level, the words came 1.1 to 2.3 times slower on shapes of
    10 and 11 cells (1.32 ms against 0.88 ms for (5, 3, 2), CPython 3.11).
    """
    _require_partition(shape)
    n = sum(shape)
    frame, in_use = sys._getframe(), 0
    while frame:
        frame, in_use = frame.f_back, in_use + 1
    # the walk takes n + 1 frames and a few more to build each row; every frame in
    # use may count twice, once more for the C call that entered it
    if n > (room := sys.getrecursionlimit() - 2 * in_use - 5):
        raise ValueError(f"shape of {n} cells is above the limit of {room} cells"
                         f" that the recursion limit of {sys.getrecursionlimit()} leaves")
    lengths = [0] * len(shape)
    word = [0] * n
    runs: list[int] = []
    interned: dict[Composition, Composition] = {}
    table: list[YamanouchiRow] = []

    def walk(i: int, prev: int, maj: int) -> None:
        if i == n:
            des = tuple(runs)
            table.append(YamanouchiRow(tuple(word), interned.setdefault(des, des), maj))
            return
        above = n  # no row above the first
        for r, length in enumerate(lengths):
            if length < shape[r] and length < above:
                lengths[r] += 1
                word[i] = r
                if r > prev:  # i is a descent (i + 1 sits lower), or i = 0 opens the first run
                    runs.append(1)
                    walk(i + 1, r, maj + i)
                    runs.pop()
                else:
                    runs[-1] += 1
                    walk(i + 1, r, maj)
                    runs[-1] -= 1
                lengths[r] -= 1
            above = length

    walk(0, -1, 0)
    return tuple(table)


def tableaux_from_table(
    shape: Partition, quasi_yamanouchi: bool = False, descent: Composition | None = None
) -> list[tuple[Tableau, YamanouchiRow]]:
    """The SYT of `shape`, or their destandardizations, with their rows, sorted by rows.

    With `descent`, only the tableaux of that descent composition.  The cell of
    i holds i in the SYT and the label of step i in the quasi-Yamanouchi tableau.
    """
    table = yamanouchi_table(shape)
    if descent is not None:
        descent = tuple(descent)
        table = [row for row in table if row.descent_composition == descent]
    syt = range(1, sum(shape) + 1)
    labels = {row.descent_composition: syt for row in table}  # the entry of each step
    if quasi_yamanouchi:
        # the steps of the k-th run between descents get the label k
        labels = {des: tuple(chain.from_iterable(map(repeat, syt, des))) for des in labels}
    steps = range(len(syt))
    # read row by row, the cells hold the steps in stable order of their rows
    flats = [
        tuple(map(labels[row.descent_composition].__getitem__,
                  sorted(steps, key=row.word.__getitem__)))
        for row in table
    ]
    ends = tuple(accumulate(shape))
    cuts = tuple(map(slice, (0,) + ends, ends))
    return [
        (Tableau(tuple(map(flats[k].__getitem__, cuts))), table[k])
        for k in sorted(range(len(flats)), key=flats.__getitem__)
    ]


def quasi_yamanouchi_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    """All SSYT whose descent composition equals their weight, in row-reading lex order.

    Destandardization is a bijection from the SYT of `shape` onto them.
    """
    return tuple(t for t, _ in tableaux_from_table(shape, quasi_yamanouchi=True))


def standard_with_descent(shape: Partition, alpha: Composition) -> list[Tableau]:
    """The SYT of `shape` with descent composition `alpha`, sorted by rows."""
    return [t for t, _ in tableaux_from_table(shape, descent=alpha)]


@cache
def kostka(shape: Partition, weight_vec: Composition) -> int:
    """Number of SSYT of `shape` with the given weight, counted by horizontal strips.

    The cells holding 1..v form a shape inside `shape`, grown from the one for
    1..v-1 by a horizontal strip of weight_vec[v - 1] cells: the count of each
    such shape is carried, one value at a time, to the shapes grown from it.
    """
    _require_partition(shape)
    if any(part < 0 for part in weight_vec):
        raise ValueError(f"weight parts must be nonnegative: {tuple(weight_vec)}")
    counts = {(0,) * len(shape): 1}  # inner shape, with a row for each row of `shape`
    for part in weight_vec:
        grown: dict[tuple[int, ...], int] = {}
        for inner, count in counts.items():
            outers = [((), part)]  # the rows grown so far, and the cells left to add
            # row r grows at most to shape[r] and, to stay a strip, to inner[r - 1]
            for row, cap in zip(inner, map(min, shape, shape[:1] + inner)):
                outers = [(outer + (row + added,), left - added)
                          for outer, left in outers for added in range(min(left, cap - row) + 1)]
            for outer in (outer for outer, left in outers if left == 0):
                grown[outer] = grown.get(outer, 0) + count
        counts = grown
    return counts.get(tuple(shape), 0)
