"""Young tableaux: band parsing, descent compositions, and enumeration.

Tableaux are stored row by row.  An SSYT has weakly increasing rows and
strictly increasing columns; an SYT additionally uses each of 1..n exactly
once.  The *minimal parsing* cuts the cells of an SSYT, traversed by value
(ties by column), into maximal runs in which each cell sits strictly
northeast of the previous one; the run sizes form the descent composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

from .compositions import (
    Composition,
    Partition,
    comp_to_set,
    flatten,
    depth as composition_depth,
    is_partition,
    lambda_bar,
    trim,
)


@dataclass(frozen=True)
class Tableau:
    rows: tuple[tuple[int, ...], ...]

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


def _require_ssyt(t: Tableau) -> None:
    if not t.is_semistandard():
        raise ValueError(f"not a semistandard tableau: {t.rows}")


@dataclass(frozen=True)
class Band:
    """A run of cells going strictly northeast, with weakly increasing labels."""

    cells: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.cells)


def _parsing_order(t: Tableau) -> list[tuple[int, int, int]]:
    # (value, column, row); column breaks ties so equal values chain northeast
    return sorted((t.entry(r, c), c, r) for r, c in t.cells())


def minimal_parsing(t: Tableau) -> list[Band]:
    """Split an SSYT into its maximal horizontal bands, smallest values first."""
    _require_ssyt(t)
    bands: list[Band] = []
    cells: list[tuple[int, int]] = []
    labels: list[int] = []
    for value, c, r in _parsing_order(t):
        if cells:
            prev_r, prev_c = cells[-1]
            if not (prev_r >= r and prev_c < c):
                bands.append(Band(tuple(cells), tuple(labels)))
                cells, labels = [], []
        cells.append((r, c))
        labels.append(value)
    if cells:
        bands.append(Band(tuple(cells), tuple(labels)))
    return bands


def descent_composition(t: Tableau) -> Composition:
    """Band sizes of the minimal parsing."""
    return tuple(band.size for band in minimal_parsing(t))


def standardize(t: Tableau) -> Tableau:
    """Relabel the cells 1..n in band order; the result is an SYT."""
    new_label = {}
    k = 0
    for band in minimal_parsing(t):
        for cell in band.cells:
            k += 1
            new_label[cell] = k
    return Tableau.of(
        [new_label[(r, c)] for c in range(len(row))] for r, row in enumerate(t.rows)
    )


def destandardize(t: Tableau) -> Tableau:
    """Replace every entry of the i-th band by i; the result is quasi-Yamanouchi."""
    new_label = {}
    for i, band in enumerate(minimal_parsing(t), start=1):
        for cell in band.cells:
            new_label[cell] = i
    return Tableau.of(
        [new_label[(r, c)] for c in range(len(row))] for r, row in enumerate(t.rows)
    )


def weight(t: Tableau) -> Composition:
    """Multiplicity vector of the values 1..max_entry."""
    counts = [0] * t.max_entry
    for row in t.rows:
        for value in row:
            counts[value - 1] += 1
    return tuple(counts)


def descent_set(t: Tableau) -> tuple[int, ...]:
    """{i : i+1 sits in a strictly lower row than i}, taken on the standardization."""
    u = t if t.is_standard() else standardize(t)
    row_of = {u.entry(r, c): r for r, c in u.cells()}
    n = u.size
    return tuple(i for i in range(1, n) if row_of[i + 1] > row_of[i])


def is_quasi_yamanouchi(t: Tableau) -> bool:
    """True when the weight, trailing zeros trimmed, equals the descent composition."""
    return trim(weight(t)) == descent_composition(t)


@dataclass(frozen=True)
class TableauStats:
    weight: Composition
    descent_composition: Composition
    descent_set: tuple[int, ...]
    maj: int
    depth: int
    is_quasi_yamanouchi: bool


def tableau_stats(t: Tableau) -> TableauStats:
    des = descent_composition(t)  # checks that t is semistandard
    dset = comp_to_set(des).members
    w = weight(t)
    return TableauStats(
        weight=w,
        descent_composition=des,
        descent_set=dset,
        maj=sum(dset),
        depth=composition_depth(des),
        is_quasi_yamanouchi=trim(w) == des,
    )


def _fill(shape: Partition, max_entry: int, counts: list[int] | None) -> list[Tableau]:
    if not shape:
        return [Tableau(())]
    if max_entry < len(shape):
        return []
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    rows = [[0] * length for length in shape]
    out: list[Tableau] = []

    def place(idx: int) -> None:
        if idx == len(cells):
            out.append(Tableau.of(rows))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = rows[r][c - 1]
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for value in range(lo, max_entry + 1):
            if counts is not None and counts[value - 1] == 0:
                continue
            rows[r][c] = value
            if counts is not None:
                counts[value - 1] -= 1
            place(idx + 1)
            if counts is not None:
                counts[value - 1] += 1
        rows[r][c] = 0

    place(0)
    return out


def semistandard_tableaux(shape: Partition, max_entry: int) -> list[Tableau]:
    """All SSYT of `shape` with entries at most `max_entry`, in row-reading lex order."""
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    return _fill(shape, max_entry, None)


def semistandard_with_weight(shape: Partition, weight_vec: Composition) -> list[Tableau]:
    """All SSYT of `shape` whose value multiplicities equal `weight_vec`."""
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    if sum(weight_vec) != sum(shape):
        return []
    return _fill(shape, len(weight_vec), list(weight_vec))


@cache
def standard_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    """All SYT of `shape`."""
    n = sum(shape)
    return tuple(semistandard_with_weight(shape, (1,) * n))


@cache
def quasi_yamanouchi_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    """All SSYT whose descent composition equals their weight, in row-reading lex order.

    Destandardization is a bijection from the SYT of `shape` onto them.
    """
    return tuple(
        sorted((destandardize(t) for t in standard_tableaux(shape)), key=lambda t: t.rows)
    )


def standard_with_descent(shape: Partition, alpha: Composition) -> list[Tableau]:
    return [t for t in standard_tableaux(shape) if descent_composition(t) == alpha]


def kostka(shape: Partition, weight_vec: Composition) -> int:
    """Number of SSYT of `shape` with the given weight."""
    return len(semistandard_with_weight(shape, weight_vec))


def quasi_kostka(shape: Partition, alpha: Composition) -> int:
    """Number of SYT of `shape` with descent composition `alpha`."""
    return len(standard_with_descent(shape, flatten(alpha)))


@dataclass(frozen=True)
class SpecialTableaux:
    superstandard: Tableau
    supersemistandard: Tableau
    anti_supersemistandard: Tableau


def special_tableaux(shape: Partition) -> SpecialTableaux:
    """The distinguished quasi-Yamanouchi fillings of minimal and maximal depth.

    The superstandard tableau fills row i with the value i and realizes the
    descent composition `shape` itself; the anti-supersemistandard tableau is
    the unique quasi-Yamanouchi filling with descent composition lambda_bar.
    """
    if not shape:
        raise ValueError("empty partition")
    superstandard = Tableau.of([i] * length for i, length in enumerate(shape, start=1))
    target = lambda_bar(shape)
    anti = [t for t in quasi_yamanouchi_tableaux(shape) if descent_composition(t) == target]
    if len(anti) != 1:
        raise ValueError(f"expected a unique deepest filling for {shape}, got {len(anti)}")
    return SpecialTableaux(
        superstandard=superstandard,
        supersemistandard=superstandard,
        anti_supersemistandard=anti[0],
    )
