"""Tests of the benchmark itself; kept apart from the program's suite.

    python3 -m pytest perfbench/selftest.py

The tiny runs spawn a handful of short op processes (about half a minute).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    SHAPE_STRATA,
    WORKLOADS,
    crystal_op,
    crystal_strata,
    ops_for,
    shape_op,
)

# One cheap op from each workload's pool.
TINY = {
    "verify": [workloads._verify_op(["counting"])],
    "perms": [workloads._verify_op(["bifactorial"], 8)],
    "shapes": [shape_op((4, 2, 2, 2), 1), shape_op((5, 3, 2), 0)],
    "crystal": [crystal_op((5, 3), 6, 0), crystal_op((5, 1), 8, 2)],
}


@pytest.fixture(scope="module")
def expected():
    return run.Expected.load()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes(workload, expected, monkeypatch):
    monkeypatch.setattr(run, "ops_for", lambda w, seed: TINY[w])
    result = run.run_workload(workload, 1, 0, False, expected, log=lambda line: None)
    assert (result["failed"], result["correct"]) == (0, True)
    assert result["attempted"] == len(TINY[workload])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == set(run.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in values.values())


def test_corrupted_digest_counts_as_failed_op(expected, monkeypatch):
    op = TINY["crystal"][0]
    digests = dict(expected.digests)
    digests[op.key] = "0" * 64
    corrupted = run.Expected(digests, expected.verify_blocks)
    monkeypatch.setattr(run, "ops_for", lambda w, seed: [op, TINY["crystal"][1]])
    result = run.run_workload("crystal", 1, 0, False, corrupted, log=lambda line: None)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_timed_out_ops_count_as_failed(expected, monkeypatch):
    monkeypatch.setattr(run, "ops_for", lambda w, seed: TINY[w])
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.01)
    result = run.run_workload("crystal", 1, 0, False, expected, log=lambda line: None)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 2, False)
    assert {m["value"] for m in result["metrics"].values()} == {None}


def test_times_scale_with_the_reference_kernel():
    op = TINY["perms"][0]
    info = {"t_import": 10**8, "t_main0": 0, "t_main1": 10**9, "peak_rss_kb": 2048}

    def metrics(kernel_s):
        result = run.OpResult(op, 0, 2 * 10**9, 1.5, 0, 0, info, kernel_s=kernel_s)
        values = run.end_to_end([([result], [run.Probe(0.1, kernel_s)])])
        return {name: value for name, (value, _) in values.items()}

    # A host twice as slow as the reference halves every time, not the memory.
    assert metrics(2 * run.REF_KERNEL_S) == pytest.approx(
        {"wall_s": 1.0, "cpu_s": 0.75, "op_s.p50": 0.5, "setup_s": 0.05, "peak_rss_mb": 2.0}
    )


def test_oracle_rejects_wrong_count():
    op = shape_op((5, 3, 1, 1), 3)  # tableaux 5,3,1,1 --qy; f^lambda = 567
    assert workloads.check_oracle(op, "total: 567\n") is None
    assert workloads.check_oracle(op, "total: 566\n") is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv(workload):
    assert [op.argv for op in ops_for(workload, 7)] == [op.argv for op in ops_for(workload, 7)]


def _argv_multiset(workload, seed):
    return sorted(arg for op in ops_for(workload, seed) for arg in op.argv)


def test_other_seed_draws_other_inputs_within_strata():
    strata = {workloads.fmt(s): key for key, pool in SHAPE_STRATA.items() for s in pool}
    bands = [{(workloads.fmt(s), str(b)) for s, b, _ in stratum} for stratum in crystal_strata()]
    assert all(len(b) >= 2 for b in bands)
    assert {p for stratum in crystal_strata() for p in stratum} <= set(workloads.crystal_pool())
    for seed in range(20):
        shapes = [op.argv[1] for op in ops_for("shapes", seed) if op.argv[1] != "--table"]
        assert sorted(strata[s] for s in shapes) == sorted(SHAPE_STRATA)
        pairs = {op.argv[1:3] for op in ops_for("crystal", seed)}
        assert all(len(pairs & band) == 1 for band in bands)
        for w in ("verify", "perms"):  # exhaustive: the seed only orders
            assert _argv_multiset(w, seed) == _argv_multiset(w, 0)
    for w in WORKLOADS:
        assert len({tuple(op.argv for op in ops_for(w, seed)) for seed in range(20)}) > 1
    for w in ("shapes", "crystal"):
        assert len({tuple(_argv_multiset(w, seed)) for seed in range(20)}) > 1


def test_two_traced_runs_give_identical_counts(expected):
    ops = [op for tiny in TINY.values() for op in tiny]

    def counts():
        table = run.layer_table(run.run_pass(ops, expected, math.inf, trace=True))
        return {k: v for k, v in table.items() if not k.endswith("_s")}

    first = counts()
    assert first == counts()
    assert first["crystal.vertices"] > 0 and first["tableaux.enumerated"] > 0
    assert first["rsk.perms_enumerated"] > 0 and first["verify.jobs"] == 7 + 8
