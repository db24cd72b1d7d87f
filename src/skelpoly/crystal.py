"""Type-A crystal operators on SSYT, bounded crystal graphs, and evacuation.

The operators act through the row word (rows read bottom to top, left to
right) by the signature rule: for color i, occurrences of i+1 open a bracket
and occurrences of i close one.  The lowering operator f_i turns the
rightmost unmatched i into i+1; the raising operator e_i turns the leftmost
unmatched i+1 into i.  Vertices standardizing to the same SYT form a
quasi-crystal; the common standardizations make up the crystal skeleton.

The skeleton needs no graph: `crystal_skeleton` builds one class per SYT
whose descent composition alpha has at most `bound` parts, with
F_alpha(1^bound) members, growing the SYT in a loop one run of alpha per
pass, and walks no other SYT.  `vertex_count` and `edge_count` count the
graph by closed forms, so a caller can print or size a crystal without
building it.

`build_crystal` builds each class of `crystal_skeleton` from its SYT S:
its members are v o S for the weakly increasing v that rise at each descent
of S.  A vertex is keyed by its letters, rows top down, packed into one int
with a fixed number of bytes per letter, so one sort puts the vertices in
lexicographic order, and raising the letter at position p adds a fixed step
to the key.  The build finds every f-edge of a vertex in one left-to-right
scan of its row word, all colors at once: a letter x first closes an open
bracket of color x, or else becomes the rightmost unmatched x so far; it
then opens a bracket of color x-1.  The graph keeps the letters of its
vertices and the (from, color, to) of its edges in two flat arrays, which
the exports read; `rows`, `vertices`, `edges` and `QuasiCrystal.members`
build their tuples only when read.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property
from itertools import chain, combinations_with_replacement, islice, product, repeat
from math import comb, factorial, perm, prod
from operator import mul
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .compositions import (
    Composition,
    Partition,
    _Immutable,
    _require_partition,
    format_comp,
    hook_product,
    partitions_within,
    trim,
)
from .rsk import rsk
from .tableaux import Rows, Tableau, kostka

if TYPE_CHECKING:
    from array import array

_BATCH = 4096  # the most edges or vertices an export or the build reads as one block
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # a letter below 10 as its digit


def row_word(t: Tableau) -> tuple[int, ...]:
    """Rows concatenated from the bottom row up."""
    if not t.rows:
        raise ValueError("empty tableau has no row word")
    return _word(t.rows)


def _word(rows: Rows) -> tuple[int, ...]:
    """`row_word` of the rows, and () for the empty tableau, the one vertex of the empty crystal."""
    return sum(reversed(rows), ())


def _word_cells(t: Tableau) -> list[tuple[int, int]]:
    return [(r, c) for r in range(len(t.rows) - 1, -1, -1) for c in range(len(t.rows[r]))]


def _unmatched(word: tuple[int, ...], color: int) -> tuple[list[int], list[int]]:
    """Word positions of the unmatched letters color and color+1."""
    open_stack: list[int] = []
    low: list[int] = []
    for idx, letter in enumerate(word):
        if letter == color + 1:
            open_stack.append(idx)
        elif letter == color:
            if open_stack:
                open_stack.pop()
            else:
                low.append(idx)
    return low, open_stack


def _operate(t: Tableau, color: int, raising: bool) -> Tableau | None:
    """Change the rightmost unmatched `color` to color+1, or with `raising` the
    leftmost unmatched color+1 to `color`; None if there is no such letter."""
    if color < 1:
        raise ValueError(f"color must be >= 1, got {color}")
    if not t.rows:
        return None
    low, high = _unmatched(row_word(t), color)
    if not (high if raising else low):
        return None
    r, c = _word_cells(t)[high[0] if raising else low[-1]]
    rows = [list(row) for row in t.rows]
    rows[r][c] = color if raising else color + 1
    return Tableau.of(rows)


def lowering_operator(t: Tableau, color: int) -> Tableau | None:
    """f_i: change the rightmost unmatched i to i+1, or None if none exists."""
    return _operate(t, color, raising=False)


def raising_operator(t: Tableau, color: int) -> Tableau | None:
    """e_i: change the leftmost unmatched i+1 to i, or None if none exists."""
    return _operate(t, color, raising=True)


class QuasiCrystal(_Immutable):
    """A class of vertices sharing one standardization; compared by identity."""

    def __init__(
        self,
        representative: Tableau,
        descent: Composition,
        letters: array,  # the graph's `letters`
        indices: tuple[int, ...],  # positions of the members among the graph's vertices
    ) -> None:
        vars(self).update(
            representative=representative, descent=descent, letters=letters, indices=indices
        )

    @cached_property
    def members(self) -> tuple[Tableau, ...]:
        """The members as tableaux, built on the first read."""
        shape = self.representative.shape
        return tuple(Tableau(_vertex_rows(self.letters, shape, i)) for i in self.indices)


class CrystalGraph(_Immutable):
    """All SSYT of one shape with bounded entries, with colored f-edges; compared by identity."""

    def __init__(
        self,
        shape: Partition,
        bound: int,
        letters: array,  # each vertex's entries, rows top down, vertex after vertex
        edge_array: array,  # from, color, to of each edge in turn
        classes: tuple[QuasiCrystal, ...],  # by standardization, sorted by representative word
    ) -> None:
        vars(self).update(
            shape=shape, bound=bound, letters=letters, edge_array=edge_array, classes=classes
        )

    @cached_property
    def rows(self) -> tuple[Rows, ...]:
        """The vertices as tuples of rows, in lexicographic order, built on the first read."""
        count = vertex_count(self.shape, self.bound)
        return tuple(_vertex_rows(self.letters, self.shape, i) for i in range(count))

    @cached_property
    def vertices(self) -> tuple[Tableau, ...]:
        """The vertices as tableaux, built on the first read."""
        return tuple(map(Tableau, self.rows))

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The edges as (from, color, to) triples, built on the first read."""
        return tuple(_triples(self.edge_array))


def _vertex_rows(letters: Sequence[int], shape: Partition, i: int) -> Rows:
    """The rows of vertex i, cut from the letters of all vertices."""
    n = sum(shape)
    entries = iter(letters[i * n : i * n + n])
    return tuple(tuple(islice(entries, length)) for length in shape)


def _triples(flat: array) -> Iterator[tuple[int, int, int]]:
    """The items of `flat` three at a time."""
    return zip(*[iter(flat)] * 3)


def vertex_count(shape: Partition, bound: int) -> int:
    """s_shape(1^bound), the number of SSYT of `shape` with entries <= `bound`.

    The hook-content formula: the product over the cells (r, c) of
    (bound + c - r) / hook(r, c).  It needs no enumeration, so a caller can
    size a crystal before building it.
    """
    contents = prod(bound + c - r for r, length in enumerate(shape) for c in range(length))
    return contents // hook_product(shape)


def edge_count(shape: Partition, bound: int) -> int:
    """The number of f-edges of the crystal on SSYT of `shape` with entries <= `bound`.

    Each i-string holds exactly one vertex whose weight mu has mu_i - mu_(i+1)
    in {0, 1}, so color i has s_shape(1^bound) - S edges, S the number of those
    vertices; Kostka numbers are symmetric in mu, so S is the same for every
    color.  S sums K_(shape, mu) over mu = (t + d, t, ...) with d in {0, 1},
    the other bound - 2 entries a rearrangement of a partition nu of
    n - 2t - d, which has perm(bound - 2, len(nu)) / prod(mult!) of them.  An
    entry above shape[0] makes K zero, so no part of mu goes past it.
    """
    if bound < 2:
        return 0
    n = sum(shape)
    top = shape[0] if shape else 0
    strings = 0
    for d in (0, 1):
        for t in range(min(top - d, (n - d) // 2) + 1):
            for nu in partitions_within(n - 2 * t - d, bound - 2, top):
                ways = perm(bound - 2, len(nu)) // prod(map(factorial, Counter(nu).values()))
                strings += ways * kostka(shape, trim(tuple(sorted((t + d, t, *nu), reverse=True))))
    return (bound - 1) * (vertex_count(shape, bound) - strings)


class SkeletonClass(NamedTuple):
    """One quasi-crystal of the crystal skeleton, read off its SYT."""

    representative: Tableau
    descent: Composition
    size: int  # F_descent(1^bound), its number of members


def crystal_skeleton(shape: Partition, bound: int) -> tuple[SkeletonClass, ...]:
    """The quasi-crystals of the crystal on SSYT of `shape` with entries <= `bound`.

    One class per SYT whose descent composition alpha has at most `bound`
    parts, with F_alpha(1^bound) = C(bound + n - len(alpha), n) members;
    sorted by the representative's row word, as `CrystalGraph.classes` are.

    The SYT are grown in a loop, one run of alpha per pass.  A run is a
    horizontal strip numbered left to right, which is bottom row first; the
    next run opens with a descent exactly when its bottom row lies below the
    top row of the last one.  So only the SYT with at most `bound` runs are
    walked, and neither the vertices nor the SYT table is built.
    """
    _require_partition(shape)
    n = sum(shape)
    found = []
    # each SYT so far as its rows, its descent composition and the top row of its last run
    level: list[tuple[Rows, Composition, int]] = [(((),) * len(shape), (), -1)]
    while level:
        grown = []
        for rows, runs, last_top in level:
            filled = sum(runs)
            if filled == n:
                found.append(SkeletonClass(Tableau(rows), runs, comb(bound + n - len(runs), n)))
                continue
            if len(runs) == bound:  # the prune below leaves no cell here unless bound < len(shape)
                continue
            ranges = []  # the cells the run may add to each row
            for r, row in enumerate(rows):
                # a horizontal strip stays under the row above as it was
                end = min(shape[r], len(rows[r - 1]) if r else shape[0])
                # a column with a cell left for each run left takes one in this run
                low = r + bound - len(runs) - 1
                need = max(min(shape[low] if low < len(shape) else 0, end) - len(row), 0)
                ranges.append(range(need, end - len(row) + 1))
            below = product(*ranges[last_top + 1 :])
            if not any(added.start for added in ranges[last_top + 1 :]):
                next(below)  # the run opens below `last_top`, so not with no cell there
            for above, under in product(product(*ranges[: last_top + 1]), below):
                counts = above + under
                label, bottom_up = filled, []
                for row, added in zip(reversed(rows), reversed(counts)):
                    bottom_up.append(row + tuple(range(label + 1, label + added + 1)))
                    label += added
                top = next(r for r, added in enumerate(counts) if added)
                grown.append((tuple(reversed(bottom_up)), runs + (label - filled,), top))
        level = grown
    found.sort(key=lambda qc: _word(qc.representative.rows))
    return tuple(found)


def build_crystal(shape: Partition, bound: int) -> CrystalGraph:
    """The crystal on SSYT of `shape` with entries <= `bound`, with its quasi-crystals.

    Empty when the bound is below the number of rows.  The empty shape has one
    vertex, the empty tableau, and one quasi-crystal, with descent ().
    """
    from array import array  # loaded by a build only, not by every command's import

    skeleton = crystal_skeleton(shape, bound)  # checks the shape
    n = sum(shape)
    top = bound if n else 0  # the largest letter a vertex can hold: none in the empty shape
    # A vertex's key is its letters, rows top down, as one big-endian int of
    # `size` bytes per letter: keys order as the rows do, and raising the
    # letter at position q adds step[q].
    code, size = ("B", 1) if bound < 1 << 8 else ("H", 2) if bound < 1 << 16 else ("Q", 8)
    step = [1 << 8 * size * q for q in range(n - 1, -1, -1)]
    keys: list[int] = []  # class by class
    for qc in skeleton:
        # The members are v o S for S the representative and 1 <= v(1) <= ... <=
        # v(n) <= bound rising at each descent of S: v(e) = w(e) + runs[e], for
        # runs[e] the descents of S below entry e and w weakly increasing from 1
        # to bound - (the descents).  Entry e adds v(e) * scale[e] to the key.
        scale = [0] * n  # the step of the cell holding each entry of S
        for q, entry in enumerate(chain.from_iterable(qc.representative.rows)):
            scale[entry - 1] = step[q]
        runs = (k for k, part in enumerate(qc.descent) for _ in range(part))
        offset = sum(map(mul, runs, scale))
        lower = combinations_with_replacement(range(1, top - len(qc.descent) + 2), n)
        keys.extend(sum(map(mul, w, scale), offset) for w in lower)
    index = dict(zip(sorted(keys), range(len(keys))))  # in lexicographic order
    letters, ordered = array(code), iter(index)
    for _ in range(0, len(index), _BATCH):  # not a bytes object per vertex held at once
        batch = islice(ordered, _BATCH)
        letters.frombytes(b"".join(map(int.to_bytes, batch, repeat(n * size), repeat("big"))))
    if size > 1 and sys.byteorder == "little":
        letters.byteswap()
    generated = iter(keys)
    classes = tuple(
        QuasiCrystal(qc.representative, qc.descent, letters,
                     tuple(sorted(map(index.__getitem__, islice(generated, qc.size)))))
        for qc in skeleton
    )
    del keys, generated
    reading = _reading(letters, shape)
    shift = _word(_vertex_rows(step, shape, 0))  # the steps by position in the row word
    edges = array("I")
    add = edges.append
    # Shared by all words, so the work per word grows with its letters, not with
    # the bound: each word resets the entries it touched.
    opened = [0] * (top + 1)  # unmatched letters x+1 seen so far, by color x
    rightmost = [-1] * (top + 1)  # the rightmost unmatched letter x so far
    for key, u in index.items():
        word = reading[u * n : u * n + n]
        for p, x in enumerate(word):
            if opened[x]:
                opened[x] -= 1
            else:
                rightmost[x] = p
            opened[x - 1] += 1
        for color in sorted(set(word)):
            p = rightmost[color]
            if p >= 0 and color < bound:
                add(u)
                add(color)
                add(index[key + shift[p]])
            rightmost[color] = -1
            opened[color - 1] = 0
    return CrystalGraph(tuple(shape), bound, letters, edges, classes)


def _reading(letters: array, shape: Partition) -> array:
    """The letters of every vertex in row-word order, from the letters rows top down."""
    n = sum(shape)
    reading = letters[:]
    for p, q in enumerate(_word(_vertex_rows(range(n), shape, 0))):
        reading[p::n] = letters[q::n]
    return reading


def inner_crystal(graph: CrystalGraph) -> tuple[QuasiCrystal, ...]:
    """The quasi-crystals whose descent composition is as short as possible.

    With the entry bound at least the maximal descent length, there are as
    many of these as SSYT with entries bounded by the number of rows.
    """
    return inner_classes(graph.classes, graph.shape)


def inner_classes(classes: tuple, shape: Partition) -> tuple:
    """The classes, of a graph or of the skeleton, with one descent part per row of `shape`."""
    return tuple(qc for qc in classes if len(qc.descent) == len(shape))


def evacuation(t: Tableau) -> Tableau:
    """Reverse-complement the row word and reinsert.

    With n the number of boxes, the word w maps to
    (n+1-w_n, ..., n+1-w_1); the result is the insertion tableau of that
    word.  Requires entries at most n so the complement stays positive.
    """
    n = t.size
    if n == 0:
        return t
    if t.max_entry > n:
        raise ValueError(f"entries must be at most the box count {n}: {t.rows}")
    word = row_word(t)
    complemented = tuple(n + 1 - x for x in reversed(word))
    p, _ = rsk(complemented)
    return p


def to_dot(graph: CrystalGraph, inner_only: bool = False) -> Iterator[str]:
    """Graphviz source: quasi-crystal clusters with colored crystal edges.

    Edges inside one cluster are solid; edges joining distinct clusters are
    dotted.  With `inner_only`, only the minimal-descent-length clusters and
    the edges between their members are rendered.  Yields the text in blocks:
    the header, each cluster, then each `_BATCH` edges.  A vertex is
    labelled by its row word, with "-" between the letters when one is above 9.
    """
    classes = inner_crystal(graph) if inner_only else graph.classes
    cluster: list[int | None] = [None] * vertex_count(graph.shape, graph.bound)
    n = sum(graph.shape)
    reading = _reading(graph.letters, graph.shape)
    if graph.bound <= 9:  # a digit per letter, so the labels are slices of one string
        words, spell = reading.tobytes().translate(_DIGITS).decode(), str
    else:
        words, spell = reading, _spelled
    yield "digraph crystal {\n  node [shape=box];\n"
    for k, qc in enumerate(classes):
        for i in qc.indices:
            cluster[i] = k
        yield "".join(
            [f'  subgraph cluster_{k} {{\n    label="des {format_comp(qc.descent)}";\n']
            + [f'    v{i} [label="{spell(words[i * n : i * n + n])}"];\n' for i in qc.indices]
            + ["  }\n"]
        )
    style = ("", ", style=dotted")  # by whether an edge joins two clusters
    edges = _triples(graph.edge_array)
    for _ in range(0, len(graph.edge_array), 3 * _BATCH):
        yield "".join(
            f'  v{u} -> v{v} [label="{color}"{style[cluster[u] != cluster[v]]}];\n'
            for u, color, v in islice(edges, _BATCH)
            if cluster[u] is not None and cluster[v] is not None
        )
    yield "}\n"


def _spelled(word: array) -> str:
    return ("-" if max(word, default=0) > 9 else "").join(map(str, word))


class Records(NamedTuple):
    """`count` records laid end to end in `flat`, for `cli._json_chunks`: each an
    array of `lengths` ints, or an array of int arrays of these lengths."""

    flat: array
    lengths: int | tuple[int, ...]
    count: int


def graph_json(graph: CrystalGraph, inner_only: bool = False) -> dict:
    """The graph fields plus the class partition, for `cli._print_json`.

    The vertices and the edges are `Records` of the graph's flat arrays; the
    weights and the classes are iterators, which `json.dumps` refuses, so the
    payload can be written only once.
    """
    classes = inner_crystal(graph) if inner_only else graph.classes
    count, n, letters = vertex_count(graph.shape, graph.bound), sum(graph.shape), graph.letters
    words = (letters[i * n : i * n + n].tolist() for i in range(count))
    return {
        "shape": graph.shape,
        "bound": graph.bound,
        "vertices": Records(letters, graph.shape, count),
        "weights": (tuple(map(w.count, range(1, max(w, default=0) + 1))) for w in words),
        "edges": Records(graph.edge_array, 3, len(graph.edge_array) // 3),
        "classes": (
            {"representative": qc.representative.rows, "descent": qc.descent, "members": qc.indices}
            for qc in classes
        ),
    }
