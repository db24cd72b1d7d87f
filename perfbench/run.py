"""Cold-process benchmark of the skelpoly command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/skelpoly`).  Each op is
one `skelpoly` command line run in a fresh interpreter (perfbench/child.py),
one at a time from this single parent process: a closed loop with one
client.  A fresh interpreter per op is deliberate, because a command-line
user pays the import and every cache fill on each invocation.

A pass runs the seed's op list once, after PROBES_PER_PASS import-only
probes.  An untraced run repeats passes while another fits in --seconds (at
least one) and reports:

  wall_s       median over passes of the sum of the ops' spawn-to-exit times
  cpu_s        median over passes of the ops' user+system CPU (os.wait4)
  op_s.p50     median over the pass's ops of each op's median time inside
               skelpoly.cli.main (repeats of one argv count once, so the
               median cannot flip between two ops as the pass count changes)
  setup_s      median, over ops and import-only probes, of spawn to
               `import skelpoly.cli` done
  peak_rss_mb  largest peak resident set (VmHWM) of any op process

The times are in reference seconds.  The shared host this benchmark was built
on changes speed by up to 2x within seconds and by 20-25% over minutes, for
its own reasons, so a run's raw medians move with the minute it ran in.  After
every probe and op this process times a fixed pure-Python loop that never
touches skelpoly (`reference_kernel`), and each pass's times are multiplied by
REF_KERNEL_S / (the pass's median loop time) before the medians are taken.
No op is alive while the loop runs, so a change to skelpoly cannot move it: a
slower program still reads slower, a slower host does not.  REF_KERNEL_S is
about the loop's median on that 2-core x86-64 host, so there the figures read
close to measured seconds.  The log lines also show the unscaled medians.

A traced run (--trace 1) runs one untraced and one traced pass and reports
the per-layer table of the traced pass (see child.py) and the overhead.

Every op's stdout is checked against the seed commit's digest for the same
argv (expected.json) and against a closed form (workloads.check_oracle).  A
mismatch, nonzero exit, exception or timeout counts as a failed op.  An op is
killed after OP_TIMEOUT_S, or once the run has lasted RUN_LIMIT_S.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics; a
metric no op could measure has the value null.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Op, check_oracle, ops_for, verify_job_count  # noqa: E402

OP_TIMEOUT_S = 150
RUN_LIMIT_S = 160  # ops still running this long after a run started are killed
PROBES_PER_PASS = 4
KERNEL_LOOPS = 500_000
REF_KERNEL_S = 0.04

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "poly.self_s": "s",
    "poly.add_calls": "count",
    "poly.mul_calls": "count",
    "poly.terms_touched": "count",
    "poly.qsym_calls": "count",
    "poly.qsym_distinct_ratio": "ratio",
    "poly.cache_lookups": "count",
    "poly.cache_hit_ratio": "ratio",
    "tableaux.self_s": "s",
    "tableaux.calls": "count",
    "tableaux.enumerated": "count",
    "tableaux.qy_enumerated": "count",
    "tableaux.qy_yield": "ratio",
    "tableaux.parsings": "count",
    "tableaux.cache_lookups": "count",
    "tableaux.cache_hit_ratio": "ratio",
    "rsk.self_s": "s",
    "rsk.calls": "count",
    "rsk.perms_enumerated": "count",
    "compositions.self_s": "s",
    "compositions.calls": "count",
    "compositions.indexsets": "count",
    "crystal.self_s": "s",
    "crystal.vertices": "count",
    "crystal.edges": "count",
    "crystal.operator_calls": "count",
    "verify.self_s": "s",
    "verify.jobs": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}
LAYERS = ("compositions", "tableaux", "crystal", "rsk", "poly", "verify", "cli")


@dataclass
class OpResult:
    op: Op
    spawn_ns: int
    exit_ns: int
    cpu_s: float
    returncode: int | None
    out_bytes: int  # length of the op's stdout, which is not kept
    info: dict | None
    problem: str | None = None  # why the op failed, None when it passed
    kernel_s: float | None = None  # reference_kernel() timed right after the op

    @property
    def setup_s(self) -> float | None:
        return (self.info["t_import"] - self.spawn_ns) / 1e9 if self.info else None

    @property
    def main_s(self) -> float | None:
        if not self.info or "t_main1" not in self.info:
            return None
        return (self.info["t_main1"] - self.info["t_main0"]) / 1e9

    @property
    def rss_mb(self) -> float | None:
        # The child's own high-water mark.  ru_maxrss from wait4 would also
        # count this parent's size at the time of the spawn.
        return self.info["peak_rss_kb"] / 1024 if self.info and self.info.get("peak_rss_kb") else None


@dataclass
class Expected:
    """Seed-commit output digests, keyed by the op's command line."""

    digests: dict[str, str]
    verify_blocks: dict[str, str]

    @classmethod
    def load(cls, path: Path = HERE / "expected.json") -> "Expected":
        data = json.loads(path.read_text())
        return cls(data["digests"], data["verify_blocks"])

    def digest(self, op: Op) -> str | None:
        if op.key in self.digests:
            return self.digests[op.key]
        checks = op.argv[1:]
        if op.argv[0] == "verify" and all(c in self.verify_blocks for c in checks):
            # A multi-check verify prints each check's block in argv order,
            # then the total.
            total = sum(verify_job_count(c) for c in checks)
            text = "".join(self.verify_blocks[c] for c in checks)
            text += f"{total}/{total} checks passed\n"
            return hashlib.sha256(text.encode()).hexdigest()
        return None


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())
    stream.close()


def spawn(argv: list[str], mode: str, timeout: float) -> tuple:
    """Run one op process to its end; returns (spawn_ns, exit_ns, status, rusage, stdout, stderr, info, timed_out)."""
    read_fd, write_fd = os.pipe()
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(write_fd), mode, str(SRC), *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        pass_fds=(write_fd,),
        cwd=ROOT,
    )
    os.close(write_fd)
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    out: list = []
    err: list = []
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout, out)),
        threading.Thread(target=_drain, args=(proc.stderr, err)),
    ]
    try:
        for t in readers:
            t.start()
        with os.fdopen(read_fd, "rb") as info_pipe:
            raw_info = info_pipe.read()
        for t in readers:
            t.join()
        _, status, usage = os.wait4(proc.pid, 0)
        exit_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    try:
        info = json.loads(raw_info) if raw_info else None
    except ValueError:
        info = None
    return spawn_ns, exit_ns, proc.returncode, usage, out[0], err[0], info, timed_out.is_set()


def run_op(op: Op, expected: Expected, trace: bool = False, timeout: float = OP_TIMEOUT_S) -> OpResult:
    spawn_ns, exit_ns, rc, usage, stdout, stderr, info, timed_out = spawn(
        list(op.argv), "trace" if trace else "run", timeout
    )
    result = OpResult(
        op=op,
        spawn_ns=spawn_ns,
        exit_ns=exit_ns,
        cpu_s=usage.ru_utime + usage.ru_stime,
        returncode=rc,
        out_bytes=len(stdout),
        info=info,
    )
    result.problem = f"timed out after {timeout:.3g} s" if timed_out else _problem(result, stdout, expected, stderr)
    return result


def _problem(r: OpResult, stdout: bytes, expected: Expected, stderr: bytes) -> str | None:
    if r.info is None:
        return f"no report (exit {r.returncode}): {stderr.decode(errors='replace')[-300:]}"
    if r.info.get("error"):
        return "exception: " + r.info["error"].strip().rsplit("\n", 1)[-1]
    if r.returncode != 0:
        return f"exit {r.returncode}: {stderr.decode(errors='replace')[-300:]}"
    want = expected.digest(r.op)
    if want is None:
        return "no expected digest for this argv"
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the seed commit's"
    try:
        return check_oracle(r.op, stdout.decode())
    except (ValueError, KeyError, AttributeError, IndexError) as exc:
        return f"oracle could not read the output: {exc!r}"


def _timeout(deadline: float) -> float:
    """OP_TIMEOUT_S, cut short so that the op ends by `deadline` (time.monotonic)."""
    return max(0.1, min(OP_TIMEOUT_S, deadline - time.monotonic()))


def reference_kernel() -> float:
    """Seconds this process takes for a fixed integer loop: the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def run_pass(ops: list[Op], expected: Expected, deadline: float, trace: bool = False) -> list[OpResult]:
    results = []
    for op in ops:
        result = run_op(op, expected, trace, _timeout(deadline))
        result.kernel_s = reference_kernel()
        results.append(result)
    return results


@dataclass
class Probe:
    setup_s: float | None  # None when the import failed
    kernel_s: float


def probe_setup(n: int, deadline: float) -> list[Probe]:
    """Import-only op processes: spawn to `import skelpoly.cli` done."""
    probes = []
    for _ in range(n):
        spawn_ns, _, rc, _, _, _, info, _ = spawn([], "probe", _timeout(deadline))
        setup = (info["t_import"] - spawn_ns) / 1e9 if rc == 0 and info else None
        probes.append(Probe(setup, reference_kernel()))
    return probes


def pass_wall(results: list[OpResult]) -> float:
    return sum(r.exit_ns - r.spawn_ns for r in results) / 1e9


def speed_scale(results: list[OpResult], probes: list[Probe]) -> float:
    """REF_KERNEL_S over the median reference_kernel() time of one pass."""
    return REF_KERNEL_S / statistics.median([r.kernel_s for r in results] + [p.kernel_s for p in probes])


def end_to_end(passes: list[tuple[list[OpResult], list[Probe]]], scaled: bool = True) -> dict | None:
    """(value, sample count) of each end-to-end metric over (ops, probes)
    passes, in reference seconds unless `scaled` is false; None when no op
    reported back."""
    main_times: dict[str, list[float]] = {}
    setups: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    peaks: list[float] = []
    for results, probes in passes:
        scale = speed_scale(results, probes) if scaled else 1.0
        walls.append(pass_wall(results) * scale)
        cpus.append(sum(r.cpu_s for r in results) * scale)
        for r in results:
            if r.main_s is not None:
                main_times.setdefault(r.op.key, []).append(r.main_s * scale)
            if r.rss_mb is not None:
                peaks.append(r.rss_mb)
        setups += [s * scale for s in [r.setup_s for r in results] + [p.setup_s for p in probes] if s is not None]
    if not main_times or not setups or not peaks:
        return None
    values = {
        "wall_s": (statistics.median(walls), len(walls)),
        "cpu_s": (statistics.median(cpus), len(cpus)),
        "op_s.p50": (
            statistics.median(statistics.median(t) for t in main_times.values()),
            sum(map(len, main_times.values())),
        ),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (max(peaks), len(peaks)),
    }
    return values


def layer_table(results: list[OpResult]) -> dict:
    """Per-layer self time and counters, summed over the ops of one traced pass."""
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    span_calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    caches = {"tableaux": [0, 0], "poly": [0, 0]}
    qsym_distinct = 0
    for r in results:
        trace = (r.info or {}).get("trace")
        if not trace:
            continue
        for name, _parent, n, _total, own in trace["spans"]:
            layer = name.split(".", 1)[0]
            self_ns[layer] += own
            calls[layer] += n
            span_calls[name] = span_calls.get(name, 0) + n
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for layer, (hits, misses) in trace["caches"].items():
            caches[layer][0] += hits
            caches[layer][1] += misses
        qsym_distinct += trace["qsym_distinct"]

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    out.update({f"{layer}.calls": calls[layer] for layer in ("tableaux", "rsk", "compositions")})
    for key in ("poly.add_calls", "poly.mul_calls", "poly.terms_touched", "poly.qsym_calls",
                "tableaux.enumerated", "tableaux.qy_enumerated", "tableaux.parsings",
                "rsk.perms_enumerated", "crystal.vertices", "crystal.edges",
                "crystal.operator_calls", "verify.jobs"):
        out[key] = counts.get(key, 0)
    out["compositions.indexsets"] = span_calls.get("compositions.IndexSet.__init__", 0)
    out["poly.qsym_distinct_ratio"] = ratio(qsym_distinct, counts.get("poly.qsym_calls", 0))
    out["tableaux.qy_yield"] = ratio(counts.get("tableaux.qy_returned", 0), counts.get("tableaux.qy_enumerated", 0))
    for layer, (hits, misses) in caches.items():
        out[f"{layer}.cache_lookups"] = hits + misses
        out[f"{layer}.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["cli.bytes_out"] = sum(r.out_bytes for r in results)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, expected: Expected,
                 log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    ops = ops_for(workload, seed)
    log(f"# {workload} seed={seed}: {len(ops)} ops per pass")
    passes: list[tuple[list[OpResult], list[Probe]]] = []
    deadline = time.monotonic() + RUN_LIMIT_S
    raw: dict = {}
    if trace:
        plain = run_pass(ops, expected, deadline)
        traced = run_pass(ops, expected, deadline, trace=True)
        passes = [(plain, []), (traced, [])]
        metrics = layer_table(traced)
        metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
        units = PER_LAYER
        samples = {name: len(traced) for name in units}
    else:
        started = time.monotonic()
        while True:
            probes = probe_setup(PROBES_PER_PASS, deadline)
            passes.append((run_pass(ops, expected, deadline), probes))
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
        values = end_to_end(passes)
        if values is None:  # every op failed before timing main: no metric exists
            values = dict.fromkeys(END_TO_END, (None, 0))
        else:
            raw = {name: v for name, (v, _) in end_to_end(passes, scaled=False).items()}
            scales = [speed_scale(*p) for p in passes]
            log(f"# host speed scale {statistics.median(scales):.4g} (median over {len(scales)} passes)")
        metrics = {name: v for name, (v, _) in values.items()}
        units = END_TO_END
        samples = {name: n for name, (_, n) in values.items()}
    attempted = sum(len(results) for results, _ in passes)
    failures = [r for results, _ in passes for r in results if r.problem]
    for r in failures:
        log(f"# FAILED {r.op.key}: {r.problem}")
    for name, unit in units.items():
        value = "none" if metrics[name] is None else f"{metrics[name]:.6g}"
        unscaled = f", unscaled {raw[name]:.6g}" if name in raw and unit == "s" else ""
        log(f"{name} {value} {unit} (n={samples[name]}{unscaled})")
    log(f"fail_ratio {len(failures) / attempted:.6g} failed/attempted (n={attempted})")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skelpoly" / "cli.py").is_file():
        print(f"error: no skelpoly sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), Expected.load())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
