"""Type-A crystal operators on SSYT, bounded crystal graphs, and evacuation.

The operators act through the row word (rows read bottom to top, left to
right) by the signature rule: for color i, occurrences of i+1 open a bracket
and occurrences of i close one.  The lowering operator f_i turns the
rightmost unmatched i into i+1; the raising operator e_i turns the leftmost
unmatched i+1 into i.  Vertices standardizing to the same SYT form a
quasi-crystal; the common standardizations make up the crystal skeleton.

`build_crystal` takes the vertices as tuples of rows from the row-by-row
SSYT fill of `tableaux`, in lexicographic order of their rows.  It finds
every f-edge of a vertex in one left-to-right scan of its row word, all
colors at once: a letter x first closes an open bracket of color x, or else
becomes the rightmost unmatched x so far; it then opens a bracket of color
x-1.  The same pass groups the vertices into quasi-crystals by their
standardized row word, so the classes are computed once, at build time, and
stored on the graph.  The graph keeps each vertex as its tuple of rows:
`vertices` and `QuasiCrystal.members` build `Tableau` objects only when
read, and the exports read the rows.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import prod
from operator import itemgetter

from .compositions import (
    Composition,
    Partition,
    _Immutable,
    _require_partition,
    format_comp,
    hook_product,
)
from .rsk import rsk
from .tableaux import Rows, Tableau, _fill, descent_composition, weight


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


def _replace(t: Tableau, cell: tuple[int, int], value: int) -> Tableau:
    rows = [list(row) for row in t.rows]
    rows[cell[0]][cell[1]] = value
    return Tableau.of(rows)


def lowering_operator(t: Tableau, color: int) -> Tableau | None:
    """f_i: change the rightmost unmatched i to i+1, or None if none exists."""
    if color < 1:
        raise ValueError(f"color must be >= 1, got {color}")
    if not t.rows:
        return None
    low, _ = _unmatched(row_word(t), color)
    if not low:
        return None
    return _replace(t, _word_cells(t)[low[-1]], color + 1)


def raising_operator(t: Tableau, color: int) -> Tableau | None:
    """e_i: change the leftmost unmatched i+1 to i, or None if none exists."""
    if color < 1:
        raise ValueError(f"color must be >= 1, got {color}")
    if not t.rows:
        return None
    _, high = _unmatched(row_word(t), color)
    if not high:
        return None
    return _replace(t, _word_cells(t)[high[0]], color)


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


def _from_row_word(word: tuple[int, ...], shape: Partition) -> Tableau:
    """The tableau of `shape` whose row word is `word`."""
    rows = []
    end = len(word)
    for length in shape:  # the top row closes the word
        rows.append(word[end - length : end])
        end -= length
    return Tableau(tuple(rows))


def build_crystal(shape: Partition, bound: int) -> CrystalGraph:
    """The crystal on SSYT of `shape` with entries <= `bound`, with its quasi-crystals.

    Empty when the bound is below the number of rows.  The empty shape has one
    vertex, the empty tableau, and one quasi-crystal, with descent ().
    """
    _require_partition(shape)
    vertices = tuple(_fill(shape, bound, None))
    words = list(map(_word, vertices))
    index = {word: i for i, word in enumerate(words)}
    edges = []
    # Equal entries of an SSYT form a horizontal strip, which the row word
    # reads left to right, so the stable argsort of the row word orders the
    # cells as standardization numbers them.
    groups: dict[tuple[int, ...], list[int]] = {}
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
        groups.setdefault(tuple(sorted(range(len(word)), key=word.__getitem__)), []).append(u)
    classes = []
    for order, members in groups.items():
        standard = [0] * len(order)
        for label, p in enumerate(order, start=1):
            standard[p] = label
        rep = _from_row_word(tuple(standard), shape)
        classes.append(
            QuasiCrystal(
                rep, tuple(vertices[i] for i in members), descent_composition(rep), tuple(members)
            )
        )
    classes.sort(key=lambda qc: _word(qc.representative.rows))
    return CrystalGraph(tuple(shape), bound, vertices, tuple(edges), tuple(classes))


def fundamental_system(graph: CrystalGraph, alpha: Composition) -> tuple[QuasiCrystal, ...]:
    """All quasi-crystals with the given descent composition."""
    alpha = tuple(alpha)
    return tuple(qc for qc in graph.classes if qc.descent == alpha)


def inner_crystal(graph: CrystalGraph) -> tuple[QuasiCrystal, ...]:
    """The quasi-crystals whose descent composition is as short as possible.

    With the entry bound at least the maximal descent length, there are as
    many of these as SSYT with entries bounded by the number of rows.
    """
    return tuple(qc for qc in graph.classes if len(qc.descent) == len(graph.shape))


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


def to_dot(graph: CrystalGraph, inner_only: bool = False) -> str:
    """Graphviz source: quasi-crystal clusters with colored crystal edges.

    Edges inside one cluster are solid; edges joining distinct clusters are
    dotted.  With `inner_only`, only the minimal-descent-length clusters and
    the edges between their members are rendered.
    """
    classes = inner_crystal(graph) if inner_only else graph.classes
    cluster: list[int | None] = [None] * len(graph.rows)
    letters = tuple(map(str, range(graph.bound + 1)))

    lines = ["digraph crystal {", "  node [shape=box];"]
    for k, qc in enumerate(classes):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="des {format_comp(qc.descent)}";')
        for i in qc.indices:
            cluster[i] = k
            lines.append(f'    v{i} [label="{_word_label(graph.rows[i], letters)}"];')
        lines.append("  }")
    for u, color, v in graph.edges:
        if cluster[u] is None or cluster[v] is None:
            continue
        style = "" if cluster[u] == cluster[v] else ", style=dotted"
        lines.append(f'  v{u} -> v{v} [label="{color}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(graph: CrystalGraph, inner_only: bool = False) -> dict:
    """JSON-ready dict mirroring the graph fields plus the class partition."""
    classes = inner_crystal(graph) if inner_only else graph.classes
    return {
        "shape": list(graph.shape),
        "bound": graph.bound,
        "vertices": [list(map(list, rows)) for rows in graph.rows],
        "weights": [list(weight(rows)) for rows in graph.rows],
        "edges": list(map(list, graph.edges)),
        "classes": [
            {
                "representative": qc.representative.to_json(),
                "descent": list(qc.descent),
                "members": list(qc.indices),
            }
            for qc in classes
        ],
    }
