"""Command-line front end: compute, enumerate, verify, export.

Subcommands: skeleton, tableaux, rsk, crystal, verify.  Output is fully
deterministic (no timestamps unless --timing is requested), so identical
invocations produce byte-identical output.  The environment variable
SKELETON_MAX_N overrides the default verification bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .compositions import Composition, format_comp, is_partition, partitions
from .crystal import build_crystal, graph_json, quasi_crystals, to_dot
from .poly import deep_skeleton, skeleton_poly, skeleton_poly_i
from .rsk import is_permutation, perm_stats, rsk
from .tableaux import (
    quasi_yamanouchi_tableaux,
    semistandard_tableaux,
    semistandard_with_weight,
    standard_tableaux,
    standard_with_descent,
    tableau_stats,
)
from .verify import CHECK_NAMES, run_checks


def parse_parts(text: str) -> Composition:
    """Comma-separated parts, or a bare digit string when all parts are < 10."""
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            return tuple(int(chunk) for chunk in text.split(","))
        if text.isdigit():
            return tuple(int(ch) for ch in text)
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse parts from {text!r}")


def _require_partition(shape: Composition) -> Composition:
    if not is_partition(shape):
        raise SystemExit(f"error: not a partition: {format_comp(shape)}")
    return shape


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_skeleton(args: argparse.Namespace) -> int:
    if args.table is not None:
        return _skeleton_table(args.table, args.format)
    if args.shape is None:
        raise SystemExit("error: a shape is required unless --table is given")
    shape = _require_partition(args.shape)
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
        _skeleton_csv([shape])
    else:
        print(poly)
    return 0


def _skeleton_csv(shapes) -> None:
    print("lambda,alpha,f_lambda_alpha")
    for shape in shapes:
        if not shape:
            continue
        poly = skeleton_poly(shape)
        for (exps, _, _), coeff in poly.sorted_terms():
            alpha = tuple(e for e in exps if e)  # skeleton exponents have no gaps
            print(f"{format_comp(shape)},{format_comp(alpha)},{coeff}")


def _compact_tableau(t) -> str:
    return "/".join("".join(str(v) for v in row) for row in t.rows)


def _skeleton_table(max_size: int, fmt: str) -> int:
    shapes = [shape for n in range(max_size + 1) for shape in partitions(n)]
    if fmt == "csv":
        _skeleton_csv(shapes)
        return 0
    if fmt == "json":
        _print_json(
            [
                {
                    "shape": list(shape),
                    "quasi_yamanouchi": [
                        t.to_json() for t in quasi_yamanouchi_tableaux(shape)
                    ],
                    "skeleton": skeleton_poly(shape).to_json(),
                }
                for shape in shapes
            ]
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


def _cmd_tableaux(args: argparse.Namespace) -> int:
    shape = _require_partition(args.shape)
    if args.qy:
        listing = list(quasi_yamanouchi_tableaux(shape))
    elif args.syt and args.des is not None:
        listing = standard_with_descent(shape, args.des)
    elif args.syt:
        listing = list(standard_tableaux(shape))
    elif args.ssyt is not None:
        listing = semistandard_tableaux(shape, args.ssyt)
    elif args.weight is not None:
        listing = semistandard_with_weight(shape, args.weight)
    else:
        raise SystemExit("error: pick one of --qy, --syt, --ssyt N, --weight W")
    if args.format == "json":
        payload = []
        for t in listing:
            stats = tableau_stats(t)
            payload.append(
                {
                    "rows": t.to_json(),
                    "descent_composition": list(stats.descent_composition),
                    "weight": list(stats.weight),
                    "maj": stats.maj,
                    "depth": stats.depth,
                    "quasi_yamanouchi": stats.is_quasi_yamanouchi,
                }
            )
        _print_json(payload)
        return 0
    for t in listing:
        stats = tableau_stats(t)
        print(t.render())
        print(
            f"  des={format_comp(stats.descent_composition)}"
            f" weight={format_comp(stats.weight)}"
            f" maj={stats.maj} depth={stats.depth}"
            f" qy={'yes' if stats.is_quasi_yamanouchi else 'no'}"
        )
    print(f"total: {len(listing)}")
    return 0


def _cmd_rsk(args: argparse.Namespace) -> int:
    word = args.word
    if not word:
        raise SystemExit("error: empty word")
    p, q = rsk(word)
    permutation = is_permutation(word)
    if args.format == "json":
        payload = {
            "word": list(word),
            "is_permutation": permutation,
            "P": p.to_json(),
            "Q": q.to_json(),
            "des_P": list(tableau_stats(p).descent_composition),
            "des_Q": list(tableau_stats(q).descent_composition),
        }
        if permutation:
            stats = perm_stats(word)
            payload["stats"] = {
                "descent_composition": list(stats.descent_composition),
                "maj": stats.maj,
                "depth": stats.depth,
                "charge": stats.charge,
                "inversions": stats.inversions,
                "is_involution": stats.is_involution,
            }
        _print_json(payload)
        return 0
    kind = "permutation" if permutation else "word"
    print(f"input ({kind}): {format_comp(word)}")
    print("P:")
    print(p.render())
    print("Q:")
    print(q.render())
    print(f"des P = {format_comp(tableau_stats(p).descent_composition)}")
    print(f"des Q = {format_comp(tableau_stats(q).descent_composition)}")
    if permutation:
        stats = perm_stats(word)
        print(
            f"maj={stats.maj} depth={stats.depth}"
            f" charge={stats.charge} inversions={stats.inversions}"
        )
    return 0


def _cmd_crystal(args: argparse.Namespace) -> int:
    shape = _require_partition(args.shape)
    if args.bound < len(shape):
        raise SystemExit(
            f"error: bound {args.bound} is below the number of rows {len(shape)}"
        )
    graph = build_crystal(shape, args.bound)
    if args.format == "dot":
        sys.stdout.write(to_dot(graph, inner_only=args.inner))
        return 0
    if args.format == "json":
        _print_json(graph_json(graph, inner_only=args.inner))
        return 0
    classes = quasi_crystals(graph)
    if args.inner:
        classes = tuple(qc for qc in classes if len(qc.descent) == len(shape))
    print(
        f"shape {format_comp(shape)} bound {args.bound}:"
        f" {len(graph.vertices)} vertices, {len(graph.edges)} edges,"
        f" {len(classes)} quasi-crystals"
    )
    for qc in classes:
        print(
            f"  des={format_comp(qc.descent)} size={len(qc.members)}"
            f" representative={qc.representative.to_json()}"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = args.checks or ["all"]
    max_n = args.max_n
    if max_n is None:
        env = os.environ.get("SKELETON_MAX_N")
        if env:
            try:
                max_n = int(env)
            except ValueError:
                raise SystemExit(f"error: SKELETON_MAX_N is not an integer: {env!r}")
    if max_n is not None and max_n < 1:
        raise SystemExit("error: --max-n must be at least 1")
    results = run_checks(names, max_n=max_n, report_support=args.report_support)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelpoly",
        description="Exact computations with tableaux, crystals, RSK, and skeleton polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_skeleton = sub.add_parser("skeleton", help="skeleton polynomial of a shape")
    p_skeleton.add_argument("shape", nargs="?", type=parse_parts,
                            help="partition, e.g. 3,2 or 32")
    p_skeleton.add_argument("--i", type=int, default=None, help="restrict to descent length i")
    p_skeleton.add_argument("--deep", action="store_true", help="grade terms by depth in q")
    p_skeleton.add_argument("--eval-ones", action="store_true", help="evaluate at all ones")
    p_skeleton.add_argument("--table", type=int, default=None, metavar="N",
                            help="emit the table of all shapes of size at most N")
    p_skeleton.add_argument("--format", choices=("text", "json", "csv", "latex"), default="text")
    p_skeleton.set_defaults(func=_cmd_skeleton)

    p_tableaux = sub.add_parser("tableaux", help="enumerate tableaux of a shape")
    p_tableaux.add_argument("shape", type=parse_parts)
    p_tableaux.add_argument("--qy", action="store_true", help="quasi-Yamanouchi tableaux")
    p_tableaux.add_argument("--syt", action="store_true", help="standard tableaux")
    p_tableaux.add_argument("--ssyt", type=int, default=None, metavar="N",
                            help="semistandard tableaux with entries at most N")
    p_tableaux.add_argument("--weight", type=parse_parts, default=None,
                            help="semistandard with this weight")
    p_tableaux.add_argument("--des", type=parse_parts, default=None,
                            help="with --syt: fix the descent composition")
    p_tableaux.add_argument("--format", choices=("text", "json"), default="text")
    p_tableaux.set_defaults(func=_cmd_tableaux)

    p_rsk = sub.add_parser("rsk", help="row insertion of a word or permutation")
    p_rsk.add_argument("word", type=parse_parts, help="e.g. 57841362 or 10,3,4,11")
    p_rsk.add_argument("--format", choices=("text", "json"), default="text")
    p_rsk.set_defaults(func=_cmd_rsk)

    p_crystal = sub.add_parser("crystal", help="bounded crystal graph of a shape")
    p_crystal.add_argument("shape", type=parse_parts)
    p_crystal.add_argument("bound", type=int)
    p_crystal.add_argument("--inner", action="store_true",
                           help="restrict exports to the inner crystal")
    p_crystal.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_crystal.add_argument("--dot", dest="format", action="store_const", const="dot",
                           help="shorthand for --format dot")
    p_crystal.set_defaults(func=_cmd_crystal)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("checks", nargs="*", metavar="CHECK",
                          help=f"any of: all, {', '.join(CHECK_NAMES)}")
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="override the per-check bound (env: SKELETON_MAX_N)")
    p_verify.add_argument("--report-support", action="store_true",
                          help="attach monomial-support data to skeleton-rs results")
    p_verify.add_argument("--timing", action="store_true",
                          help="include wall times (output is no longer reproducible)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
