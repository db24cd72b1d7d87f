"""Command-line front end: compute, enumerate, verify, export.

Subcommands: skeleton, tableaux, rsk, crystal, verify.  Output is fully
deterministic (no timestamps unless --timing is requested), so identical
invocations produce byte-identical output.  `parse_args` reads the command
line from the `_COMMANDS` table as argparse did, without importing argparse:
its import and six parsers took 4-5 ms of every run (CPython 3.11, 2 cores).
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from functools import lru_cache
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterator

from .compositions import Composition, format_comp, is_partition, is_strong, partitions
from .crystal import (
    Records,
    build_crystal,
    crystal_skeleton,
    edge_count,
    graph_json,
    inner_classes,
    to_dot,
    vertex_count,
)
from .poly import deep_skeleton, skeleton_poly, skeleton_poly_i
from .rsk import is_permutation, perm_stats, rsk
from .tableaux import (
    kostka,
    quasi_yamanouchi_tableaux,
    semistandard_tableaux,
    semistandard_with_weight,
    standard_count,
    tableau_stats,
    tableaux_from_table,
)
from .verify import CHECK_NAMES, UNBOUNDED_CHECKS, run_checks

gc.freeze()  # keep the import-time objects out of every collection a command triggers

# The largest crystal `skelpoly crystal` exports, counted before any work by the
# hook-content formula.  `crystal 3,2 100` has 424,957,500 vertices, over a
# thousand times the 365,904 of `crystal 4,4,2 9`.  DOT and JSON build the graph
# and stream from its flat arrays of letters and edges, so they peak as the build
# does: 0.09 GB for that crystal, in 3.1 s as DOT and 4.4 s as JSON (0.13 GB, 4.3 s
# and 5.6 s with a tuple of rows per vertex; CPython 3.11, 2 cores).  The text builds
# no graph and prints it in 0.05 s at 16 MB, but one limit still holds for every
# format.  Library calls to `build_crystal` are not limited.
MAX_CRYSTAL_VERTICES = 1_000_000

# The most weight entries `crystal --format json` writes, counted before any work: a
# vertex's weight is as long as its largest entry, so the output grows as bound squared.
# `crystal 1 4471`, just under the limit, writes 9,997,156 entries, 90 MB in 1.6 s at a
# 68 MB peak (CPython 3.11, 2 cores).
MAX_JSON_WEIGHTS = 10_000_000

# The most tableaux `skeleton` and `tableaux` list, counted before any work: f^lambda,
# summed over the shapes for `--table`, s_lambda(1^N) for `--ssyt N`, and the Kostka
# number for `--weight W`.  `skeleton --table 12` (189,080 SYT) peaks at 78 MB in 5 s as
# text and at 84 MB in 7 s as streamed JSON; `tableaux 5,4,3,2 --syt --format json`
# (48,048 SYT) peaks at 60 MB, as its text listing does (CPython 3.11, 2 cores).
# No export holds its whole document any more, so nothing pins the limit at
# 200,000; it waits on measurements at larger sizes.
MAX_TABLEAUX = 200_000


def parse_parts(text: str) -> Composition:
    """Comma-separated parts (a trailing comma allowed, as in `12,`), or a bare
    digit string when all parts are < 10."""
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            return tuple(int(chunk) for chunk in text.removesuffix(",").split(","))
        if text.isdigit():
            return tuple(int(ch) for ch in text)
        return (int(text),)
    except ValueError:
        raise ValueError(f"cannot parse parts from {text!r}") from None


def _require_partition(shape: Composition) -> Composition:
    if not is_partition(shape):
        digits = "".join(map(str, shape))  # a digit string? 10 reads as the parts (1, 0)
        hint = f" (each digit of {digits} is a part; write {digits}, for one part)"
        hint = hint if len(digits) == len(shape) > 1 else ""
        raise SystemExit(f"error: not a partition: {','.join(map(str, shape))}{hint}")
    _refuse_over(sum(shape), f"shape {format_comp(shape)}", "cells", sys.maxsize)
    return shape


def _refuse_over(count: int, subject: str, noun: str, limit: int = MAX_TABLEAUX) -> None:
    if count > limit:
        if (digits := sys.get_int_max_str_digits()) and count.bit_length() > 3 * digits:
            count = f"more than 10^{(count.bit_length() - 1) * 3010 // 10000}"  # 0.3010 < log10 2
        raise SystemExit(f"error: {subject} has {count} {noun}, above the limit of {limit}")


def _table_count(max_size: int) -> int:
    """SYT with at most `max_size` cells, by RSK the involutions: I(n+1) = I(n) + n I(n-1)."""
    total, count, previous = 0, 1, 0
    for n in range(max_size + 1):
        total += count
        count, previous = count + n * previous, count
    return total


_INTS = frozenset({int})
_ARRAYS = frozenset({list, tuple})
_BATCHED = _INTS | _ARRAYS
_BATCH = 256  # the most array items read, and written as one chunk, at a time


def _print_json(obj) -> None:
    """Write `json.dumps(obj, indent=2)` and a newline to stdout, a chunk at a time."""
    sys.stdout.writelines(_json_chunks(obj))
    sys.stdout.write("\n")


def _json_chunks(obj, pad: str = "") -> Iterator[str]:
    """The text of `json.dumps(obj, indent=2)` in pieces, for a value opening at `pad`.

    An object is written an entry at a time, and an array a batch of items at
    a time, so either may be an iterator, read once.  Array items are written
    by `_batch_text` when they are ints or arrays, else one by one here, and
    `Records` a batch at a time by `_records_text`.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        start = "{\n" + inner
        for key, value in obj.items():
            text = key if isinstance(key, str) else json.dumps(key)
            yield start + encode_basestring_ascii(text) + ": "
            yield from _json_chunks(value, inner)
            start = ",\n" + inner
        yield "\n" + pad + "}" if obj else "{}"
    elif obj is None or isinstance(obj, (str, int, float)):
        yield json.dumps(obj)
    else:
        start = "[\n" + inner
        records = isinstance(obj, Records)
        items = _records_text(obj, inner) if records else iter(obj)
        for item in items:
            yield start
            if records:
                yield item
            elif type(item) in _BATCHED:
                yield _batch_text([item, *islice(items, _BATCH - 1)], inner)
            else:
                yield "".join(_json_chunks(item, inner))
            start = ",\n" + inner
        yield "\n" + pad + "]" if start[0] == "," else "[]"


def _records_text(records: Records, pad: str) -> Iterator[str]:
    """The text of each `_BATCH` records at `pad`, one `%` template filled from a slice."""
    rows = isinstance(records.lengths, tuple)
    template = (_rows_template if rows else _template)(records.lengths, pad)
    size = sum(records.lengths) if rows else records.lengths
    for first in range(0, records.count, _BATCH):
        cells = tuple(records.flat[first * size : (first + _BATCH) * size])
        yield (",\n" + pad).join([template] * min(_BATCH, records.count - first)) % cells


def _batch_text(batch: list, pad: str) -> str:
    """The text, at `pad`, of a batch of array items, with the commas between them.

    A batch of ints, of int arrays or of arrays of int arrays fills one `%`
    template of its items' lengths; any other batch is written item by item.
    Bools are not ints here.
    """
    sep = ",\n" + pad
    kinds = set(map(type, batch))
    if kinds == _INTS:
        return sep.join(map(str, batch))
    if kinds <= _ARRAYS:
        cells = tuple(chain.from_iterable(batch))
        kinds = set(map(type, cells))
        if kinds <= _INTS:
            return sep.join([_template(len(item), pad) for item in batch]) % cells
        if kinds <= _ARRAYS:
            ints = tuple(chain.from_iterable(cells))
            if set(map(type, ints)) <= _INTS:
                templates = [_rows_template(tuple(map(len, item)), pad) for item in batch]
                return sep.join(templates) % ints
    return sep.join("".join(_json_chunks(item, pad)) for item in batch)


def _array(texts: list[str], pad: str) -> str:
    """The array of these texts at `pad`, laid out as `json.dumps(indent=2)` does."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]" if texts else "[]"


# A document needs few templates, but the weights of a crystal with a long bound ask
# for one of every length up to it: the caches keep the recent 64, not all of them.
@lru_cache(maxsize=64)
def _template(length: int, pad: str) -> str:
    """The int array of this length at `pad`, with "%d" for each int."""
    return _array(["%d"] * length, pad)


@lru_cache(maxsize=64)
def _rows_template(lengths: tuple[int, ...], pad: str) -> str:
    """The array of int arrays of these lengths at `pad`, with "%d" for each int."""
    return _array([_template(length, pad + "  ") for length in lengths], pad)


def _cmd_skeleton(args: SimpleNamespace) -> int:
    if args.table is not None:
        if args.shape is not None:
            raise SystemExit("error: give a shape or --table, not both")
        for flag, given in (("--i", args.i is not None), ("--deep", args.deep),
                            ("--eval-ones", args.eval_ones)):
            if given:
                raise SystemExit(f"error: {flag} applies to one shape, not to --table")
        if args.table < 0:
            raise SystemExit(f"error: --table must be at least 0, got {args.table}")
        return _skeleton_table(args.table, args.format)
    if args.shape is None:
        raise SystemExit("error: a shape is required unless --table is given")
    shape = _require_partition(args.shape)
    _refuse_over(standard_count(shape), f"shape {format_comp(shape)}", "SYT")
    if args.i is not None:
        if args.i < 1:
            raise SystemExit(f"error: --i must be at least 1, got {args.i}")
        poly = skeleton_poly_i(shape, args.i)
    elif args.deep:
        poly = deep_skeleton(shape)
    else:
        poly = skeleton_poly(shape)
    if args.eval_ones:
        print(poly.evaluate())
        return 0
    if args.format == "json":
        _print_json(poly.to_json())
    elif args.format == "latex":
        print(poly.latex())
    elif args.format == "csv":
        _skeleton_csv([(shape, poly)])
    else:
        print(poly)
    return 0


def _skeleton_csv(polys) -> None:
    """One line per term of each (shape, polynomial) pair; the empty shape has none."""
    print("lambda,alpha,f_lambda_alpha")
    for shape, poly in polys:
        if not shape:
            continue
        for (exps, _, _), coeff in poly.sorted_terms():
            alpha = tuple(e for e in exps if e)  # skeleton exponents have no gaps
            print(f"{_csv_field(format_comp(shape))},{_csv_field(format_comp(alpha))},{coeff}")


def _csv_field(text: str) -> str:
    """A CSV field, quoted when it holds a comma, as `csv.writer` quotes by default."""
    return f'"{text}"' if "," in text else text


def _compact_tableau(t) -> str:
    # a row of one entry is that entry: the shape gives each row's length
    return "/".join(str(row[0]) if len(row) == 1 else format_comp(row) for row in t.rows)


def _skeleton_table(max_size: int, fmt: str) -> int:
    _refuse_over(_table_count(max_size), f"skeleton --table {max_size}", "SYT")
    shapes = [shape for n in range(max_size + 1) for shape in partitions(n)]
    if fmt == "csv":
        _skeleton_csv((shape, skeleton_poly(shape)) for shape in shapes)
        return 0
    if fmt == "json":
        _print_json(
            {
                "shape": shape,
                "quasi_yamanouchi": [t.rows for t in quasi_yamanouchi_tableaux(shape)],
                "skeleton": skeleton_poly(shape).to_json(),
            }
            for shape in shapes
        )
        return 0
    if fmt == "latex":
        print("\\begin{tabular}{ccc}\\hline")
        print("$\\lambda$ & quasi-Yamanouchi & polynomial \\\\\\hline")
        for shape in shapes:
            label = format_comp(shape) if shape else "\\emptyset"
            fillings = ",\\ ".join(
                _compact_tableau(t) for t in quasi_yamanouchi_tableaux(shape)
            ) or "\\emptyset"
            print(f"${label}$ & ${fillings}$ & ${skeleton_poly(shape).latex()}$ \\\\")
        print("\\hline\\end{tabular}")
        return 0
    for shape in shapes:
        label = format_comp(shape) if shape else "()"
        fillings = ", ".join(
            _compact_tableau(t) for t in quasi_yamanouchi_tableaux(shape)
        )
        print(f"{label}: {skeleton_poly(shape)}   [{fillings}]")
    return 0


def _cmd_tableaux(args: SimpleNamespace) -> int:
    shape = _require_partition(args.shape)
    if args.des is not None and (args.qy or not args.syt):
        raise SystemExit("error: --des applies only to --syt")
    if args.des is not None and not (is_strong(args.des) and sum(args.des) == sum(shape)):
        raise SystemExit(
            f"error: --des {','.join(map(str, args.des))} is not a composition of {sum(shape)}"
        )
    if args.ssyt is not None and args.ssyt < 0:
        raise SystemExit(f"error: --ssyt must be at least 0, got {args.ssyt}")
    modes = [flag for flag, given in (("--qy", args.qy), ("--syt", args.syt),
                                      ("--ssyt", args.ssyt is not None),
                                      ("--weight", args.weight is not None)) if given]
    if len(modes) > 1:
        raise SystemExit(f"error: {' and '.join(modes)} cannot be combined; pick one mode")
    if args.qy or args.syt:
        _refuse_over(standard_count(shape), f"shape {format_comp(shape)}", "SYT")
        pairs = tableaux_from_table(shape, quasi_yamanouchi=args.qy, descent=args.des)
        listing = [t for t, _ in pairs]
        all_stats = (row.stats(args.qy) for _, row in pairs)  # read off the table, no parsing
    elif args.ssyt is not None:
        size = vertex_count(shape, args.ssyt)
        _refuse_over(size, f"tableaux {format_comp(shape)} --ssyt {args.ssyt}", "SSYT")
        listing = semistandard_tableaux(shape, args.ssyt)
        all_stats = map(tableau_stats, listing)
    elif args.weight is not None:
        subject = f"tableaux {format_comp(shape)} --weight {format_comp(args.weight)}"
        _refuse_over(kostka(shape, args.weight), subject, "SSYT")
        listing = semistandard_with_weight(shape, args.weight)
        all_stats = map(tableau_stats, listing)
    else:
        raise SystemExit("error: pick one of --qy, --syt, --ssyt N, --weight W")
    if args.format == "json":
        _print_json(
            {
                "rows": t.rows,
                "descent_composition": stats.descent_composition,
                "weight": stats.weight,
                "maj": stats.maj,
                "depth": stats.depth,
                "quasi_yamanouchi": stats.is_quasi_yamanouchi,
            }
            for t, stats in zip(listing, all_stats)
        )
        return 0
    for t, stats in zip(listing, all_stats):
        print(t.render())
        print(
            f"  des={format_comp(stats.descent_composition)}"
            f" weight={format_comp(stats.weight)}"
            f" maj={stats.maj} depth={stats.depth}"
            f" qy={'yes' if stats.is_quasi_yamanouchi else 'no'}"
        )
    print(f"total: {len(listing)}")
    return 0


def _cmd_rsk(args: SimpleNamespace) -> int:
    word = args.word
    if not word:
        raise SystemExit("error: empty word")
    p, q = rsk(word)
    des_p, des_q = (tableau_stats(t).descent_composition for t in (p, q))
    stats = perm_stats(word) if is_permutation(word) else None
    if args.format == "json":
        payload = {
            "word": word,
            "is_permutation": stats is not None,
            "P": p.rows,
            "Q": q.rows,
            "des_P": des_p,
            "des_Q": des_q,
        }
        if stats is not None:
            keys = ("descent_composition", "maj", "depth", "charge", "inversions", "is_involution")
            payload["stats"] = {key: getattr(stats, key) for key in keys}
        _print_json(payload)
        return 0
    print(f"input ({'word' if stats is None else 'permutation'}): {format_comp(word)}")
    print("P:")
    print(p.render())
    print("Q:")
    print(q.render())
    print(f"des P = {format_comp(des_p)}")
    print(f"des Q = {format_comp(des_q)}")
    if stats is not None:
        print(
            f"maj={stats.maj} depth={stats.depth}"
            f" charge={stats.charge} inversions={stats.inversions}"
        )
    return 0


def _cmd_crystal(args: SimpleNamespace) -> int:
    shape = _require_partition(args.shape)
    if args.bound < len(shape):
        raise SystemExit(f"error: bound {args.bound} is below the number of rows {len(shape)}")
    subject = f"crystal {format_comp(shape)} {args.bound}"
    vertices = vertex_count(shape, args.bound)
    _refuse_over(vertices, subject, "vertices", MAX_CRYSTAL_VERTICES)
    if args.format == "dot":
        sys.stdout.writelines(to_dot(build_crystal(shape, args.bound), inner_only=args.inner))
        return 0
    if args.format == "json":
        # over m < bound, the vertices with an entry above m, summed until past the limit
        above = (vertices - vertex_count(shape, m) for m in range(args.bound if shape else 0))
        entries = next((total for total in accumulate(above) if total > MAX_JSON_WEIGHTS), 0)
        noun = "weight entries or more"
        _refuse_over(entries, f"{subject} --format json", noun, MAX_JSON_WEIGHTS)
        _print_json(graph_json(build_crystal(shape, args.bound), inner_only=args.inner))
        return 0
    # the text needs no graph: its counts are closed forms, its classes the skeleton's
    classes = crystal_skeleton(shape, args.bound)
    if args.inner:
        classes = inner_classes(classes, shape)
    print(
        f"shape {format_comp(shape)} bound {args.bound}:"
        f" {vertices} vertices, {edge_count(shape, args.bound)} edges,"
        f" {len(classes)} quasi-crystals"
    )
    for qc in classes:
        print(
            f"  des={format_comp(qc.descent)} size={qc.size}"
            f" representative={qc.representative.to_json()}"
        )
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    names = list(dict.fromkeys(args.checks or ["all"]))  # a check named twice runs once
    if args.report_support and not {"all", "skeleton-rs"} & set(names):
        raise SystemExit("error: --report-support applies only to skeleton-rs")
    if args.max_n is not None and args.max_n < 1:
        raise SystemExit("error: --max-n must be at least 1")
    if args.max_n is not None and set(names) <= UNBOUNDED_CHECKS:
        raise SystemExit(f"error: --max-n bounds none of: {' '.join(names)}")
    results = run_checks(names, max_n=args.max_n, report_support=args.report_support)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        _print_json(
            {
                "passed": not failed,
                "results": [r.to_json(include_timing=args.timing) for r in results],
            }
        )
        return 1 if failed else 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in r.params.items() if v is not None)
        line = f"{status} {r.name}" + (f" [{params}]" if params else "")
        if args.timing:
            line += f" ({r.elapsed:.3f}s)"
        print(line)
        if r.data is not None:
            print(f"  data: {json.dumps(r.data)}")
        if r.witness is not None:
            print(f"  witness: {json.dumps(r.witness)}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# Each command's help, handler, positionals and flags.  A positional is (dest, count,
# type, help), with count 1, "?" or "*".  A flag maps to (dest, kind, help): a type reads
# the value after it, a tuple lists the values it takes (the first is the default), and
# another kind is the constant it stores (True defaults to False, and None is -h).
_COMMANDS = {
    "skeleton": ("skeleton polynomial of a shape", _cmd_skeleton,
                 [("shape", "?", parse_parts, "partition, e.g. 3,2 or 32")], {
        "--i": ("i", int, "restrict to descent length i"),
        "--deep": ("deep", True, "grade terms by depth in q"),
        "--eval-ones": ("eval_ones", True, "evaluate at all ones"),
        "--table": ("table", int, "emit the table of all shapes of size at most N"),
        "--format": ("format", ("text", "json", "csv", "latex"), None)}),
    "tableaux": ("enumerate tableaux of a shape", _cmd_tableaux,
                 [("shape", 1, parse_parts, None)], {
        "--qy": ("qy", True, "quasi-Yamanouchi tableaux"),
        "--syt": ("syt", True, "standard tableaux"),
        "--ssyt": ("ssyt", int, "semistandard tableaux with entries at most N"),
        "--weight": ("weight", parse_parts, "semistandard with this weight"),
        "--des": ("des", parse_parts, "with --syt: fix the descent composition"),
        "--format": ("format", ("text", "json"), None)}),
    "rsk": ("row insertion of a word or permutation", _cmd_rsk,
            [("word", 1, parse_parts, "e.g. 57841362 or 10,3,4,11")],
            {"--format": ("format", ("text", "json"), None)}),
    "crystal": ("bounded crystal graph of a shape", _cmd_crystal,
                [("shape", 1, parse_parts, None), ("bound", 1, int, None)], {
        "--inner": ("inner", True, "restrict exports to the inner crystal"),
        "--dot": ("format", "dot", "shorthand for --format dot"),  # before --format's default
        "--format": ("format", ("text", "json", "dot"), None)}),
    "verify": ("run identity checks", _cmd_verify,
               [("checks", "*", str, f"any of: all, {', '.join(CHECK_NAMES)}")], {
        "--max-n": ("max_n", int, "override the per-check bound"),
        "--report-support": ("report_support", True,
                             "attach monomial-support data to skeleton-rs results"),
        "--timing": ("timing", True, "include wall times (output is no longer reproducible)"),
        "--format": ("format", ("text", "json"), None)}),
}
_TOP = ("Exact computations with tableaux, crystals, RSK, and skeleton polynomials.", None,
        [("command", 1, tuple(_COMMANDS), None)], {})


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command of `argv`, its handler as `func` and its arguments, as argparse read them.

    A flag takes its value as `--flag value` or `--flag=value` and may be cut to any
    prefix that no other flag of its command shares; a repeated flag's last value wins.
    A negative number is a value, and so is every token after `--`.  `-h` prints the
    help and exits 0; any other misuse prints the usage and an `error:` line to stderr
    and exits 2.  Unlike argparse, the checks of `verify` may come on both sides of flags.
    """
    extras: list[str] = []  # unknown flags, and values past the last positional
    args = _read(None, argv, extras)
    if extras:
        _exit(args.command, f"unrecognized arguments: {' '.join(map(repr, extras))}")
    return args


def _read(command: str | None, tokens: list[str], extras: list[str]) -> SimpleNamespace:
    """The arguments of `command`; at None, of the top level, up to and with the command."""
    _, func, positionals, flags = _COMMANDS[command] if command else _TOP
    values = {dest: [] if count == "*" else None for dest, count, _, _ in positionals} | {
        dest: kind[0] if isinstance(kind, tuple) else None if callable(kind) else False
        for dest, kind, _ in flags.values()}
    flags = {"-h": (None,) * 3, "--help": (None,) * 3, **flags}
    # as argparse, sort out every token before taking any, so an ambiguous flag fails first;
    # a command's first "--" is marked "--", and every token after it is a value
    ends = tokens.index("--") if command and "--" in tokens else len(tokens)
    found = [_classify(token, flags, command) for token in tokens[:ends]] + ["--"]
    pairs = zip(tokens, found + [None] * (len(tokens) - ends))
    took = False  # the token before was a positional's value
    for token, flag in pairs:
        if flag == "--":  # a positional takes it, with the value before or after it
            if not (positionals or took):
                extras.append(token)
            continue
        took = flag is None and bool(positionals)
        if took:  # the next positional's value
            (dest, count, kind, _), name, text = positionals[0], positionals[0][0], token
            positionals = positionals if count == "*" else positionals[1:]
        elif flag is None or flag[0] is None:
            extras.append(token)
            continue
        else:
            (name, text), count = flag, 1
            dest, kind, _ = flags[name]
            if not (callable(kind) or isinstance(kind, tuple)):  # -h, or a flag storing `kind`
                if text is not None:
                    _exit(command, f"argument {name}: ignored explicit argument {text!r}")
                if kind is None:
                    _exit(command)
                values[dest] = kind
                continue
            if text is None:
                text, ahead = next(pairs, (None, "--"))
                if ahead is not None:
                    _exit(command, f"argument {name}: expected one argument")
        if isinstance(kind, tuple) and text not in kind:
            _exit(command, f"argument {name}: invalid choice {text!r} (choose from {kind})")
        try:
            value = text if isinstance(kind, tuple) else kind(text)
        except ValueError as exc:
            _exit(command, f"argument {name}: {exc}")
        if command is None:
            return _read(value, [token for token, _ in pairs], extras)
        values[dest] = [*values[dest], value] if count == "*" else value
    if missing := [dest for dest, count, _, _ in positionals if count == 1]:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **values, func=func)


def _classify(token: str, flags: dict, command: str | None) -> tuple | None:
    """None for a value, else (flag, the value joined to it or None), flag None if unknown."""
    if not token.startswith("-") or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    if name not in flags and token[1] != "-" and token[:2] in flags:  # -h, its value joined
        name, eq, value = token[:2], "=", token[2:]
    if name == "-h" and value.strip("h") == "" != value:  # -hh... is -h -h ...
        eq = ""
    found = [flag for flag in flags if flag == name]
    if not found and token[1] == "-":  # a long flag may be cut to a prefix
        found = [flag for flag in flags if flag.startswith(name)]
    if len(found) > 1:
        _exit(command, f"ambiguous option {token!r} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _exit(command: str | None, error: str | None = None) -> None:
    """Print the help of `command` (None: skelpoly) and exit 0, or its usage and `error`, 2."""
    about, _, positionals, flags = _COMMANDS[command] if command else _TOP
    prog = f"skelpoly {command}" if command else "skelpoly"
    rows = [(flag + (f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else
                     " N" if kind is int else " PARTS" * callable(kind)), text)
            for flag, (_, kind, text) in flags.items()]
    usage = " ".join([f"usage: {prog} [-h]", *(f"[{label}]" for label, _ in rows), *(
        dest if count == 1 else f"[{dest}{' ...' * (count == '*')}]"
        for dest, count, _, _ in positionals)])
    if error is not None:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        raise SystemExit(2)
    rows[:0] = [(dest, text) for dest, _, _, text in positionals] + [
        (name, entry[0]) for name, entry in _COMMANDS.items() if not command] + [
        ("-h, --help", "show this help message and exit")]
    width = max(len(label) for label, text in rows if text)
    lines = [f"  {label:<{width}}  {text or ''}".rstrip() for label, text in rows]
    print(usage, "", about, "", *lines, sep="\n")
    raise SystemExit(0)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  Point stdout at devnull so
        # the interpreter's flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
