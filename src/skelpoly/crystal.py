"""Type-A crystal operators on SSYT, bounded crystal graphs, and evacuation.

The operators act through the row word (rows read bottom to top, left to
right) by the signature rule: for color i, occurrences of i+1 open a bracket
and occurrences of i close one.  The lowering operator f_i turns the
rightmost unmatched i into i+1; the raising operator e_i turns the leftmost
unmatched i+1 into i.  Vertices standardizing to the same SYT form a
quasi-crystal; the common standardizations make up the crystal skeleton.

The skeleton needs no graph: `crystal_skeleton` builds one class per SYT
whose descent composition alpha has at most `bound` parts, with
F_alpha(1^bound) members, and walks no other SYT.  `vertex_count` and
`edge_count` count the graph by closed forms, so a caller can print or size
a crystal without building it.

`build_crystal` takes the vertices as tuples of rows from the row-by-row
SSYT fill of `tableaux`, in lexicographic order of their rows.  It finds
every f-edge of a vertex in one left-to-right scan of its row word, all
colors at once: a letter x first closes an open bracket of color x, or else
becomes the rightmost unmatched x so far; it then opens a bracket of color
x-1.  The same pass sorts each vertex into its class of `crystal_skeleton`
by its standardized row word, so the classes have one route and are stored
on the graph.  The graph keeps each vertex as its tuple of rows: `vertices`
and `QuasiCrystal.members` build `Tableau` objects only when read, and the
exports read the rows.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, product
from math import comb, factorial, perm, prod
from operator import itemgetter
from typing import Iterator, NamedTuple

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
from .tableaux import Rows, Tableau, _fill, kostka, weight

_EDGE_BATCH = 4096  # the most edges written as one block of `to_dot`


def row_word(t: Tableau) -> tuple[int, ...]:
    """Rows concatenated from the bottom row up."""
    if not t.rows:
        raise ValueError("empty tableau has no row word")
    return _word(t.rows)


def _word(rows: Rows) -> tuple[int, ...]:
    """`row_word` of the rows, and () for the empty tableau, the one vertex of the empty crystal."""
    return tuple(chain.from_iterable(reversed(rows)))


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
        member_rows: tuple[Rows, ...],
        descent: Composition,
        indices: tuple[int, ...],  # positions of the members among the graph's vertices
    ) -> None:
        vars(self).update(
            representative=representative, member_rows=member_rows, descent=descent, indices=indices
        )

    @cached_property
    def members(self) -> tuple[Tableau, ...]:
        """The members as tableaux, built on the first read."""
        return tuple(map(Tableau, self.member_rows))


class CrystalGraph(_Immutable):
    """All SSYT of one shape with bounded entries, with colored f-edges; compared by identity."""

    def __init__(
        self,
        shape: Partition,
        bound: int,
        rows: tuple[Rows, ...],  # the vertices, in lexicographic order
        edges: tuple[tuple[int, int, int], ...],  # (from, color, to)
        classes: tuple[QuasiCrystal, ...],  # by standardization, sorted by representative word
    ) -> None:
        vars(self).update(shape=shape, bound=bound, rows=rows, edges=edges, classes=classes)

    @cached_property
    def vertices(self) -> tuple[Tableau, ...]:
        """The vertices as tableaux, built on the first read."""
        return tuple(map(Tableau, self.rows))


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

    The SYT are built one run of alpha at a time.  A run is a horizontal strip
    numbered left to right, which is bottom row first; the next run opens with
    a descent exactly when its bottom row lies below the top row of the last
    one.  So only the SYT with at most `bound` runs are walked, not all of
    them, and neither the vertices nor the SYT table is built.
    """
    _require_partition(shape)
    n = sum(shape)
    rows: list[list[int]] = [[] for _ in shape]  # the SYT so far
    runs: list[int] = []  # its descent composition so far
    found = []

    def next_run(filled: int, last_top: int) -> None:
        """Every way to finish the SYT, the last run having ended in row `last_top`."""
        if filled == n:
            rep = Tableau(tuple(map(tuple, rows)))
            found.append(SkeletonClass(rep, tuple(runs), comb(bound + n - len(runs), n)))
            return
        if len(runs) == bound:  # the prune below leaves no cell here unless bound < len(shape)
            return
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
            label = filled
            for row, added in zip(reversed(rows), reversed(counts)):
                row.extend(range(label + 1, label + added + 1))
                label += added
            runs.append(label - filled)
            next_run(label, next(r for r, added in enumerate(counts) if added))
            runs.pop()
            for row, added in zip(rows, counts):
                del row[len(row) - added :]

    next_run(0, -1)
    found.sort(key=lambda qc: _word(qc.representative.rows))
    return tuple(found)


def _standard_key(word: tuple[int, ...]) -> tuple[int, ...]:
    """The stable argsort of a row word, shared by a vertex and its standardization.

    Equal entries of an SSYT form a horizontal strip, which the row word reads
    left to right, so this order numbers the cells as standardization does.
    """
    return tuple(sorted(range(len(word)), key=word.__getitem__))


def build_crystal(shape: Partition, bound: int) -> CrystalGraph:
    """The crystal on SSYT of `shape` with entries <= `bound`, with its quasi-crystals.

    Empty when the bound is below the number of rows.  The empty shape has one
    vertex, the empty tableau, and one quasi-crystal, with descent ().
    """
    skeleton = crystal_skeleton(shape, bound)  # checks the shape
    position = {_standard_key(_word(qc.representative.rows)): k for k, qc in enumerate(skeleton)}
    members: list[list[int]] = [[] for _ in skeleton]
    vertices = tuple(_fill(shape, bound, None))
    words = list(map(_word, vertices))
    index = {word: i for i, word in enumerate(words)}
    edges = []
    # Shared by all words, so the work per word grows with its letters, not with
    # the bound: each word resets the entries it touched.
    opened = [0] * (bound + 1)  # unmatched letters x+1 seen so far, by color x
    rightmost = [-1] * (bound + 1)  # the rightmost unmatched letter x so far
    for u, word in enumerate(words):
        for p, x in enumerate(word):
            if opened[x]:
                opened[x] -= 1
            else:
                rightmost[x] = p
            opened[x - 1] += 1
        letters = list(word)  # each f-image is this word with one letter raised
        for color in sorted(set(word)):
            p = rightmost[color]
            if p >= 0 and color < bound:
                letters[p] = color + 1
                edges.append((u, color, index[tuple(letters)]))
                letters[p] = color
            rightmost[color] = -1
            opened[color - 1] = 0
        members[position[_standard_key(word)]].append(u)
    classes = tuple(
        QuasiCrystal(qc.representative, tuple(vertices[i] for i in group), qc.descent, tuple(group))
        for qc, group in zip(skeleton, members)
    )
    return CrystalGraph(tuple(shape), bound, vertices, tuple(edges), classes)


def fundamental_system(graph: CrystalGraph, alpha: Composition) -> tuple[QuasiCrystal, ...]:
    """All quasi-crystals with the given descent composition."""
    alpha = tuple(alpha)
    return tuple(qc for qc in graph.classes if qc.descent == alpha)


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


def _word_label(rows: Rows, letters: tuple[str, ...]) -> str:
    """The row word, spelled with `letters`; "-" parts the letters when one is above 9."""
    part = "" if max(map(itemgetter(-1), rows), default=0) <= 9 else "-"
    return part.join(map(letters.__getitem__, chain.from_iterable(reversed(rows))))


def to_dot(graph: CrystalGraph, inner_only: bool = False) -> Iterator[str]:
    """Graphviz source: quasi-crystal clusters with colored crystal edges.

    Edges inside one cluster are solid; edges joining distinct clusters are
    dotted.  With `inner_only`, only the minimal-descent-length clusters and
    the edges between their members are rendered.  Yields the text in blocks:
    the header, each cluster, then each `_EDGE_BATCH` edges.
    """
    classes = inner_crystal(graph) if inner_only else graph.classes
    cluster: list[int | None] = [None] * len(graph.rows)
    letters = tuple(map(str, range(graph.bound + 1)))
    yield "digraph crystal {\n  node [shape=box];\n"
    for k, qc in enumerate(classes):
        for i in qc.indices:
            cluster[i] = k
        yield "".join(
            [f'  subgraph cluster_{k} {{\n    label="des {format_comp(qc.descent)}";\n']
            + [f'    v{i} [label="{_word_label(graph.rows[i], letters)}"];\n' for i in qc.indices]
            + ["  }\n"]
        )
    style = ("", ", style=dotted")  # by whether an edge joins two clusters
    for start in range(0, len(graph.edges), _EDGE_BATCH):
        yield "".join(
            f'  v{u} -> v{v} [label="{color}"{style[cluster[u] != cluster[v]]}];\n'
            for u, color, v in graph.edges[start : start + _EDGE_BATCH]
            if cluster[u] is not None and cluster[v] is not None
        )
    yield "}\n"


def graph_json(graph: CrystalGraph, inner_only: bool = False) -> dict:
    """The graph fields plus the class partition, for `cli._print_json`.

    The vertices and edges are the graph's own tuples, the weights and classes
    iterators (which `json.dumps` refuses), so the payload can be written only once.
    """
    classes = inner_crystal(graph) if inner_only else graph.classes
    return {
        "shape": graph.shape,
        "bound": graph.bound,
        "vertices": graph.rows,
        "weights": map(weight, graph.rows),
        "edges": graph.edges,
        "classes": (
            {"representative": qc.representative.rows, "descent": qc.descent, "members": qc.indices}
            for qc in classes
        ),
    }
