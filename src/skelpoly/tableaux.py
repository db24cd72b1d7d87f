"""Young tableaux: band parsing, descent compositions, and enumeration.

Tableaux are stored row by row.  An SSYT has weakly increasing rows and
strictly increasing columns; an SYT additionally uses each of 1..n exactly
once.  The *minimal parsing* cuts the cells of an SSYT, traversed by value
(ties by column), into maximal runs in which each cell sits strictly
northeast of the previous one; the run sizes form the descent composition.

The SYT of a shape are listed by `yamanouchi_table`, a depth-first loop over
the Young lattice by their Yamanouchi words (the row of each of 1..n) that
carries the descent composition along the prefix.  The SYT, their
destandardizations (the quasi-Yamanouchi tableaux), the descent filter and
every count by descent or by maj (the sum of the proper prefix sums of the
descent composition) are read from that table, with no tableau parsed.
With a bound, the same walk lists only the SYT of at most that many runs,
which `crystal.crystal_skeleton` reads.
SSYT with bounded entries are filled row by row (`_fill`); those of a weight,
and their count `kostka`, grow by one horizontal strip per value (`_strips`).
The minimal parsing, `standardize`, `descent_set` and `tableau_stats` work on
one tableau at a time and are the reference the table is tested against.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, repeat
from math import factorial
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .compositions import (
    Composition,
    Partition,
    _Frozen,
    _require_partition,
    conjugate,
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
    return _stats(weight(t), des)


def _stats(w: Composition, des: Composition) -> TableauStats:
    """The statistics of a tableau of weight `w` and descent composition `des`."""
    dset = tuple(accumulate(des[:-1]))
    return TableauStats(
        weight=w,
        descent_composition=des,
        descent_set=dset,
        maj=sum(dset),
        depth=composition_depth(des),
        is_quasi_yamanouchi=trim(w) == des,
    )


def _fill(shape: Partition, max_entry: int) -> list[Rows]:
    """The rows of every SSYT of `shape` with entries at most `max_entry`, in lexicographic order.

    Row by row, top down: each row is a weakly increasing word whose entries
    sit strictly below those of the row above and leave room for the rows
    under it, so every partial filling completes.  The rows under a row are
    found once, a column per pass over their prefixes; all fillings of k rows
    are extended, in order, before any of k + 1, so nothing recurses.
    """
    # caps[k][c]: the largest entry of cell (k, c), one less per cell under it
    caps = [
        [max_entry - sum(lower > c for lower in shape[k + 1 :]) for c in range(length)]
        for k, length in enumerate(shape)
    ]
    under: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    level: list[Rows] = [()]
    for k in range(len(shape)):
        grown = []
        for rows in level:
            above = rows[-1] if rows else (0,) * shape[0]
            if (fits := under.get((k, above))) is None:  # the rows k under `above`
                fits = [()]
                for c, cap in enumerate(caps[k]):
                    fits = [row + (value,) for row in fits
                            for value in range(max(row[-1] if row else 1, above[c] + 1), cap + 1)]
                under[k, above] = fits
            grown.extend(rows + (row,) for row in fits)
        level = grown
    return level


def semistandard_tableaux(shape: Partition, max_entry: int) -> list[Tableau]:
    """All SSYT of `shape` with entries at most `max_entry`, in row-reading lex order."""
    _require_partition(shape)
    return list(map(Tableau, _fill(shape, max_entry)))


def standard_count(shape: Partition) -> int:
    """f^shape, the number of SYT of `shape`, by the hook-length formula (no enumeration)."""
    return factorial(sum(shape)) // hook_product(shape)


class YamanouchiRow(NamedTuple):
    """One SYT of a shape: its Yamanouchi word and the descent composition read along it."""

    word: tuple[int, ...]  # word[i - 1] is the row (counted from 0) that holds i
    descent_composition: Composition

    def stats(self, quasi_yamanouchi: bool = False) -> TableauStats:
        """`tableau_stats` of this SYT, or with `quasi_yamanouchi` of its destandardization."""
        des = self.descent_composition
        return _stats(des if quasi_yamanouchi else (1,) * len(self.word), des)


@cache
def yamanouchi_table(shape: Partition, bound: int | None = None) -> tuple[YamanouchiRow, ...]:
    """Every SYT of `shape` as its row sequence r_1..r_n, from one walk of the Young lattice.

    Step i adds a cell to a row r that is shorter than both shape[r] and row
    r-1.  i-1 is a descent exactly when r_i > r_(i-1) (i sits in a lower row),
    so the walk carries the runs between descents along the prefix: the run
    lengths are the descent composition, the descent set is their proper
    prefix sums, and the number of runs so far is the label of step i in the
    quasi-Yamanouchi tableau.  The walk is a depth-first loop over the step i
    and the next row r to try at it: rows are tried in increasing order, so
    rows come in walk order (words in lexicographic order), and a shape of
    any size is walked without recursion.

    With `bound`, only the SYT with at most `bound` runs, in the same order: a
    run opens only where the runs left can fill every column (`_first_opening`).
    Each run but the first opens below row 0, so a bound above the cells under
    row 0 cuts nothing and reads the unbounded table.
    """
    _require_partition(shape)
    if bound is not None and bound > sum(shape[1:]):
        return yamanouchi_table(shape)
    n = sum(shape)
    height = len(shape)
    columns = conjugate(shape) if bound is not None else ()
    lengths = [0] * height
    word = [0] * n
    runs: list[int] = []
    interned: dict[Composition, Composition] = {}
    table: list[YamanouchiRow] = []
    i = r = 0  # the step, and the first row to try at it
    prev = -1  # the row of step i - 1
    while True:
        if i == n:  # every row is full, so no row takes a cell and the walk backs up
            des = tuple(runs)
            table.append(YamanouchiRow(tuple(word), interned.setdefault(des, des)))
        # a row that is as long as shape[r] or as the row above cannot take the cell
        while r < height and (lengths[r] == shape[r] or r and lengths[r] == lengths[r - 1]):
            r += 1
        if r < height:
            if r <= prev:
                runs[-1] += 1
            elif bound is not None and r < (first := _first_opening(shape, columns, lengths,
                                                                    bound - len(runs))):
                r = first  # a run opening above `first` leaves too few runs for the cells
                continue
            else:  # i is a descent (i + 1 sits lower), or i = 0 opens the first run
                runs.append(1)
            lengths[r] += 1
            word[i] = prev = r
            i, r = i + 1, 0
            continue
        if not i:
            return tuple(table)
        # no row takes the cell: undo step i - 1 and try the rows after its own
        i -= 1
        r = word[i]
        prev = word[i - 1] if i else -1
        lengths[r] -= 1
        runs[-1] -= 1
        if not runs[-1]:
            runs.pop()
        r += 1


def _first_opening(shape: Partition, columns: Partition, lengths: list[int], left: int) -> int:
    """The first row where a run may open with `left` runs to go, this one included, or
    len(lengths): the cells of column lengths[q] from row q down are empty, and a run puts
    at most one cell in a column, none below the row it opens at."""
    first = 0
    for q, end in enumerate(lengths):
        if end < shape[q] and columns[end] - q >= left:
            if columns[end] - q > left:
                return len(lengths)
            first = q
    return first


def tableaux_from_table(
    shape: Partition, quasi_yamanouchi: bool = False, descent: Composition | None = None,
    bound: int | None = None,
) -> list[tuple[Tableau, YamanouchiRow]]:
    """The SYT of `shape`, or their destandardizations, with their rows, sorted by rows.

    With `descent`, only the tableaux of that descent composition; with
    `bound`, only those of at most `bound` runs.  The cell of i holds i in the
    SYT and the label of step i in the quasi-Yamanouchi tableau.
    """
    # (shape,) and (shape, None) would be two keys of the cache, and two walks
    table = yamanouchi_table(shape) if bound is None else yamanouchi_table(shape, bound)
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


def _strips(shape: Partition, inner: tuple[int, ...], part: int) -> list[tuple[int, ...]]:
    """The shapes inside `shape` grown from `inner` by a horizontal strip of `part` cells.

    Row r grows at most to shape[r] and, to stay a strip, to inner[r - 1].  Each
    row, top down, takes at least the cells that the rows under it cannot hold.
    """
    rooms = [cap - start for cap, start in zip(map(min, shape, shape[:1] + inner), inner)]
    outers = [(inner, part)]  # the shape grown so far, and the cells left to add
    for r, room in enumerate(rooms):
        if room:  # only a row with room grows and copies the shape
            under = sum(rooms[r + 1 :])  # the cells that the rows under r can take
            outers = [(o[:r] + (o[r] + k,) + o[r + 1 :], left - k) for o, left in outers
                      for k in range(max(left - under, 0), min(left, room) + 1)]
    return [outer for outer, left in outers if not left]  # none left unless `part` cannot fit


@cache
def kostka(shape: Partition, weight_vec: Composition) -> int:
    """Number of SSYT of `shape` with the given weight, counted by horizontal strips.

    The cells of 1..v form a shape grown from that of 1..v-1 by a strip of
    weight_vec[v - 1] cells (`_strips`); each count passes to the shapes grown from it.
    """
    _require_partition(shape)
    if any(part < 0 for part in weight_vec):
        raise ValueError(f"weight parts must be nonnegative: {tuple(weight_vec)}")
    counts = {(0,) * len(shape): 1}  # inner shape, with a row for each row of `shape`
    for part in weight_vec:
        grown: dict[tuple[int, ...], int] = {}
        for inner, count in counts.items():
            for outer in _strips(shape, inner, part):
                grown[outer] = grown.get(outer, 0) + count
        counts = grown
    return counts.get(tuple(shape), 0)


def semistandard_with_weight(shape: Partition, weight_vec: Composition) -> list[Tableau]:
    """All SSYT of `shape` whose value multiplicities equal `weight_vec`, in row-reading lex order.

    `kostka`'s walk finds the strip of each value, v filling the strip of step v; the
    partial tableaux are then carried back from `shape`, so only strips that reach it are filled.
    """
    if not kostka(shape, weight_vec):  # checks the shape and the weight
        return []
    steps, reached = [], [(0,) * len(shape)]  # the strips of each value, as (inner, outer)
    for part in weight_vec:
        steps.append([(inner, outer) for inner in reached for outer in _strips(shape, inner, part)])
        reached = dict.fromkeys(outer for _, outer in steps[-1])
    level = {tuple(shape): [((),) * len(shape)]}  # the cells of the values past the step
    for value in range(len(steps), 0, -1):
        grown: dict[tuple[int, ...], list[Rows]] = {}
        for inner, outer in steps[value - 1]:
            if outer in level:  # the strip grows into `shape`
                cells = tuple((value,) * (o - i) for o, i in zip(outer, inner))
                grown.setdefault(inner, []).extend(tuple(map(add, cells, t)) for t in level[outer])
        level = grown
    return list(map(Tableau, sorted(level[(0,) * len(shape)])))
