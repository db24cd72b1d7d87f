"""Record the expected output of every op any seed can draw.

    python3 perfbench/make_expected.py

Run once on the commit whose output is the reference.  Stores the sha256 of
each op's stdout in perfbench/expected.json, plus the text block each verify
check prints, from which run.py builds the digest of any check order.
Refuses to write if an op fails or breaks its closed-form oracle.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import HERE, OP_TIMEOUT_S, Expected, run_op, spawn
from workloads import WORKLOADS, check_oracle, ops_for, pool_ops


def main() -> int:
    digests: dict[str, str] = {}
    blocks: dict[str, str] = {}
    for workload in WORKLOADS:
        for op in pool_ops(workload):
            _, _, rc, _, stdout, stderr, info, _ = spawn(list(op.argv), "run", OP_TIMEOUT_S)
            text = stdout.decode()
            if rc != 0 or not info or info["error"]:
                problem = f"exit {rc}: {stderr.decode(errors='replace')[-300:]}"
            else:
                problem = check_oracle(op, text)
            if problem:
                print(f"error: {op.key}: {problem}", file=sys.stderr)
                return 1
            if workload == "verify":
                check = op.argv[1]
                blocks[check] = text[: text.rstrip("\n").rfind("\n") + 1]
            else:
                digests[op.key] = hashlib.sha256(stdout).hexdigest()
            print(f"{(info['t_main1'] - info['t_main0']) / 1e9:7.2f}s {op.key}", flush=True)
    expected = Expected(digests, blocks)
    # The composed digest of a multi-check op must match a real run.
    full = ops_for("verify", 0)[0]
    r = run_op(full, expected)
    if r.problem:
        print(f"error: {full.key}: {r.problem}", file=sys.stderr)
        return 1
    (HERE / "expected.json").write_text(
        json.dumps({"digests": digests, "verify_blocks": blocks}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
