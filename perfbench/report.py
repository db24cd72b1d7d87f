"""Run every workload once untraced and once traced and print one table.

    python3 perfbench/report.py [--write]

Uses seed 0 and the run length `run_seconds` of BENCHMARK.json.  Prints
wall_s, cpu_s, op_s.p50, setup_s, peak_rss_mb and fail_ratio for each
workload, then the per-layer table of the traced runs.  With --write the
numbers, the workload pools and the machine are stored in
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from run import END_TO_END, HERE, PER_LAYER, ROOT, Expected, run_workload
from workloads import WORKLOADS, pool_definitions

SEED = 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="store perfbench/baseline.json")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    expected = Expected.load()
    results = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, SEED, seconds, False, expected, log=_quiet)
        traced = run_workload(workload, SEED, seconds, True, expected, log=_quiet)
        results[workload] = {"end_to_end": plain, "per_layer": traced}

    print(f"{'metric':28}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    rows = [(name, unit, "end_to_end") for name, unit in END_TO_END.items()]
    rows.append(("fail_ratio", "failed/attempted", None))
    rows += [(name, unit, "per_layer") for name, unit in PER_LAYER.items()]
    for name, unit, kind in rows:
        cells = []
        for w in WORKLOADS:
            if kind is None:
                runs = results[w].values()
                cells.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
            else:
                cells.append(results[w][kind]["metrics"][name]["value"])
        print(f"{name:28}" + "".join(f"{c:>14.6g}" for c in cells) + f"  {unit}")
    failed = any(r["failed"] for res in results.values() for r in res.values())
    if args.write:
        baseline = {
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "seed": SEED,
            "seconds": seconds,
            "pools": pool_definitions(),
            "results": results,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 1 if failed else 0


def _quiet(line: str) -> None:
    if line.startswith("# FAILED"):
        print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
