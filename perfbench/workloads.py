"""Workload pools, seeded op lists and closed-form oracles.

An op is one `skelpoly` command line.  `ops_for(workload, seed)` turns a
seed into the op list of one pass; the program only ever sees that argv.
The oracles here are computed from scratch (hook-length and hook-content
formulas, partition counts) and never call skelpoly.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import factorial, prod

WORKLOADS = ("verify", "shapes", "perms", "crystal")

# Default bounds of the twelve `skelpoly verify` checks, in the program's order.
# A bound n means jobs for n = 1..n; a partition-indexed check has one job per
# partition of each n; graded skeleton checks run twice per n.
VERIFY_CHECKS = {
    "skeleton-r": ("graded", 6),
    "skeleton-rs": ("graded", 6),
    "skeleton-rsk": ("graded", 6),
    "counting": ("per_n", 7),
    "hook-sum": ("per_n", 7),
    "mahonian": ("per_n", 8),
    "bks": ("per_shape", 8),
    "schur-family": ("per_shape", 7),
    "charge-depth": ("per_n", 7),
    "s6-inversions": ("single", None),
    "linear-independence": ("per_n", 6),
    "bifactorial": ("per_n", 7),
}

# The S_8 sweep: (check, --max-n).  At n = 9 mahonian alone takes about 9 s,
# which leaves room for only two passes in a run.
PERM_CHECKS = (("mahonian", 8), ("charge-depth", 8), ("bifactorial", 8))

# Non-hook shapes of 10 and 11 with 3-5 rows, two per (size, rows) stratum.
# The two members of a stratum enumerate nearly as many bounded SSYT in the
# quasi-Yamanouchi filter (N = s_lambda(1^m), m the maximal descent length;
# shown after each shape), so every seed gets a comparable load.
SHAPE_STRATA = {
    (10, 3): ((5, 3, 2), (5, 4, 1)),  # N 15750, 16128
    (10, 4): ((4, 2, 2, 2), (5, 3, 1, 1)),  # N 10500, 11907
    (10, 5): ((4, 3, 1, 1, 1), (3, 2, 2, 2, 1)),  # N 14700, 16128
    (11, 3): ((6, 3, 2), (6, 4, 1)),  # N 34650, 38808
    (11, 4): ((6, 3, 1, 1), (5, 2, 2, 2)),  # N 25872, 28875
    (11, 5): ((3, 2, 2, 2, 2), (5, 3, 1, 1, 1)),  # N 41580, 43120
}
SHAPE_VARIANTS = (
    ("skeleton", ()),
    ("skeleton", ("--deep",)),
    ("skeleton", ("--format", "json")),
    ("tableaux", ("--qy",)),
)
# Plus `skeleton --table 8` in every pass (0.3 s); the 9 table takes 2.1 s,
# which would leave room for only four passes in a run.
SHAPE_TABLE_SIZE = 8

# (shape, bound) pairs with |shape| 5-8, 2-4 rows, bound <= 8 and a crystal
# of 3,000-15,000 vertices by the hook-content formula; 38 pairs qualify.
# Cost per vertex differs by up to 1.5x between pairs, so each stratum holds
# two pairs whose four exports took about the same time at the seed commit
# (within 10%), and every seed gets about the same load.  op_s.p50 of a pass
# is the mean of the small pair's json export and the large pair's cheapest
# export; each differs by at most 6% between the two pairs of its stratum,
# so op_s.p50 does not depend on the draw either.  Pairs of 13-15k vertices
# (4.3 s) are left out so that a run holds at least five passes.
CRYSTAL_STRATA = (
    (((5, 3), 6), ((5, 1), 8)),  # 4410 and 4620 vertices
    (((3, 2, 1, 1), 8), ((4, 2, 2), 7)),  # 8400 and 8820 vertices
)
CRYSTAL_FORMATS = ((), ("--format", "json"), ("--dot",), ("--inner",))


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in reverse lexicographic order."""
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    return [
        (first, *rest)
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    ]


def _conjugate(shape: tuple[int, ...]) -> list[int]:
    return [sum(1 for part in shape if part > j) for j in range(shape[0])]


def _hooks(shape: tuple[int, ...]) -> list[int]:
    conj = _conjugate(shape)
    return [shape[i] - j + conj[j] - i - 1 for i in range(len(shape)) for j in range(shape[i])]


def hook_length_count(shape: tuple[int, ...]) -> int:
    """f^lambda, the number of standard tableaux, by the hook-length formula."""
    return factorial(sum(shape)) // prod(_hooks(shape))


def hook_content_count(shape: tuple[int, ...], bound: int) -> int:
    """s_lambda(1^b), the number of SSYT with entries <= b, by the hook-content formula."""
    contents = (bound + j - i for i in range(len(shape)) for j in range(shape[i]))
    return prod(contents) // prod(_hooks(shape))


def crystal_pool() -> list[tuple[tuple[int, ...], int, int]]:
    """All qualifying (shape, bound, vertices), sorted by vertex count."""
    pool = [
        (shape, bound, hook_content_count(shape, bound))
        for n in range(5, 9)
        for shape in partitions(n)
        if 2 <= len(shape) <= 4
        for bound in range(len(shape), 9)
    ]
    return sorted((p for p in pool if 3000 <= p[2] <= 15000), key=lambda p: (p[2], p[0], p[1]))


def crystal_strata() -> list[list[tuple[tuple[int, ...], int, int]]]:
    """CRYSTAL_STRATA with each pair's vertex count."""
    return [[(shape, b, hook_content_count(shape, b)) for shape, b in stratum] for stratum in CRYSTAL_STRATA]


def verify_job_count(check: str, max_n: int | None = None) -> int:
    kind, bound = VERIFY_CHECKS[check]
    if max_n is not None and bound is not None:
        bound = max_n
    if kind == "single":
        return 1
    if kind == "graded":
        return 2 * bound
    if kind == "per_shape":
        return sum(len(partitions(n)) for n in range(1, bound + 1))
    return bound


def fmt(parts: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in parts)


@dataclass(frozen=True)
class Op:
    """One command line and the closed form its output must satisfy."""

    argv: tuple[str, ...]
    oracle: tuple  # (kind, *args), checked by `check_oracle`

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _verify_op(checks: list[str], max_n: int | None = None) -> Op:
    argv = ("verify", *checks) + (("--max-n", str(max_n)) if max_n else ())
    total = sum(verify_job_count(c, max_n) for c in checks)
    return Op(argv, ("verify", total))


def shape_op(shape: tuple[int, ...], variant: int) -> Op:
    command, flags = SHAPE_VARIANTS[variant]
    kind = "qy" if command == "tableaux" else "skeleton"
    return Op((command, fmt(shape), *flags), (kind, shape))


def crystal_op(shape: tuple[int, ...], bound: int, variant: int) -> Op:
    flags = CRYSTAL_FORMATS[variant]
    return Op(("crystal", fmt(shape), str(bound), *flags), ("crystal", shape, bound))


def _table_op() -> Op:
    return Op(("skeleton", "--table", str(SHAPE_TABLE_SIZE)), ("table", SHAPE_TABLE_SIZE))


def _variant(stratum: int) -> int:
    # Fixed per stratum, not drawn: a drawn variant would move the median op
    # between strata from seed to seed.
    return stratum % len(SHAPE_VARIANTS)


def ops_for(workload: str, seed: int) -> list[Op]:
    """The op list of one pass of `workload`, drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        checks = list(VERIFY_CHECKS)
        rng.shuffle(checks)
        return [_verify_op(checks)]
    if workload == "perms":
        ops = [_verify_op([check], max_n) for check, max_n in PERM_CHECKS]
    elif workload == "shapes":
        ops = [shape_op(rng.choice(pool), _variant(i)) for i, pool in enumerate(SHAPE_STRATA.values())]
        ops.append(_table_op())
    elif workload == "crystal":
        ops = []
        for stratum in crystal_strata():
            shape, bound, _ = rng.choice(stratum)
            ops.extend(crystal_op(shape, bound, v) for v in range(len(CRYSTAL_FORMATS)))
    else:
        raise ValueError(f"unknown workload: {workload}")
    rng.shuffle(ops)
    return ops


def pool_ops(workload: str) -> list[Op]:
    """Every op any seed can draw; verify orderings are composed by run.Expected.digest."""
    if workload == "verify":
        return [_verify_op([check]) for check in VERIFY_CHECKS]
    if workload == "perms":
        return [_verify_op([check], max_n) for check, max_n in PERM_CHECKS]
    if workload == "shapes":
        ops = [shape_op(shape, _variant(i)) for i, pool in enumerate(SHAPE_STRATA.values()) for shape in pool]
        return ops + [_table_op()]
    if workload == "crystal":
        return [
            crystal_op(shape, bound, v)
            for stratum in crystal_strata()
            for shape, bound, _ in stratum
            for v in range(len(CRYSTAL_FORMATS))
        ]
    raise ValueError(f"unknown workload: {workload}")


def pool_definitions() -> dict:
    """Human-readable pool of every workload, recorded with the baseline."""
    return {
        "verify": {"checks": list(VERIFY_CHECKS), "seed": "orders the checks of one op"},
        "perms": {"ops": [f"verify {c} --max-n {n}" for c, n in PERM_CHECKS], "seed": "orders the ops"},
        "shapes": {
            "strata": {f"{n}/{r} rows": [fmt(s) for s in pool] for (n, r), pool in SHAPE_STRATA.items()},
            "variants": [" ".join((c, "<shape>", *f)) for c, f in SHAPE_VARIANTS],
            "fixed": _table_op().key,
            "variant_of_stratum": [" ".join(SHAPE_VARIANTS[_variant(i)][1]) or "plain" for i in range(len(SHAPE_STRATA))],
            "seed": "draws one shape per stratum",
        },
        "crystal": {
            "strata": [[f"{fmt(s)} {b} ({v} vertices)" for s, b, v in stratum] for stratum in crystal_strata()],
            "formats": [" ".join(f) or "text" for f in CRYSTAL_FORMATS],
            "seed": "draws one pair per stratum; each pair runs in every format",
        },
    }


# ---- oracles ---------------------------------------------------------------

_COEFF = re.compile(r"^(-?\d+)·")


def _text_coefficient_sum(poly: str) -> int:
    total = 0
    for term in poly.split(" + "):
        m = _COEFF.match(term)
        total += int(m.group(1)) if m else (int(term) if term.isdigit() else 1)
    return total


def check_oracle(op: Op, out: str) -> str | None:
    """None when `out` satisfies the op's closed form, else the reason."""
    kind, *args = op.oracle
    if kind == "verify":
        (total,) = args
        want = f"{total}/{total} checks passed"
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == want else f"last line {last!r}, want {want!r}"
    if kind == "skeleton":
        (shape,) = args
        if "--format" in op.argv:
            got = sum(t["coefficient"] for t in json.loads(out)["terms"])
        else:
            got = _text_coefficient_sum(out.strip())
        want = hook_length_count(shape)
        return None if got == want else f"coefficients sum to {got}, f^lambda is {want}"
    if kind == "qy":
        (shape,) = args
        want = f"total: {hook_length_count(shape)}"
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == want else f"last line {last!r}, want {want!r}"
    if kind == "table":
        (size,) = args
        lines = out.rstrip("\n").split("\n")
        shapes = [s for n in range(size + 1) for s in partitions(n)]
        if len(lines) != len(shapes):
            return f"{len(lines)} table rows, want {len(shapes)}"
        for shape, line in zip(shapes, lines):
            if not shape:
                continue
            poly = line.split(": ", 1)[1].rsplit("   [", 1)[0]
            got = _text_coefficient_sum(poly)
            if got != hook_length_count(shape):
                return f"row {fmt(shape)}: coefficients sum to {got}"
        return None
    if kind == "crystal":
        shape, bound = args
        want = hook_content_count(shape, bound)
        if "json" in op.argv:
            got = len(json.loads(out)["vertices"])
        elif "--dot" in op.argv:
            got = len(re.findall(r"^    v\d+ \[label=", out, re.M))
        else:
            got = int(re.match(r"shape \S+ bound \d+: (\d+) vertices", out).group(1))
        return None if got == want else f"{got} vertices, s_lambda(1^b) is {want}"
    raise ValueError(f"unknown oracle: {kind}")
