"""rapkit benchmark: time, quality and failures of the three solvers.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ear-ladder --seed 1 --seconds 20 --trace 0

Workloads: ear-ladder, lp-small, exact-bnb (see workloads.py for what each
runs and why). The program under test is the ``rapkit`` package in the
checkout's ``src/``; nothing needs to be installed.

With ``--trace 0`` the run sets the workload up at least three times and
for at least two seconds (``setup_s`` is the median), warms up, then
repeats passes over the op list, one call per op, until ``--seconds``
have passed, at least once, and reports the end-to-end metrics. With
``--trace 1`` it sets up once, then alternates untraced and traced passes
for ``--seconds`` and reports per-layer counts and self times. Every
call's output is re-verified by the benchmark's own checker; timings cover
only the call into rapkit.

Host speed. On a shared machine the same code runs up to 1.7 times slower
for minutes at a time. So between timed calls the run times a fixed
kernel that uses no rapkit code: a pure-Python one (the benchmark's own
checker on a fixed graph) or a numpy one (revised-simplex-like steps).
Timings are scaled by the kernel's reference time over its measured time,
so they read as seconds on a host where the kernel takes its reference
time. Each set-up is scaled by the Python kernel runs right after it. Op
times are scaled by the trimmed mean of the kernel runs between the
passes: the Python kernel on ear-ladder and exact-bnb, the numpy one on
lp-small, whose ops spend their time in the dense simplex. Raw times are
printed and recorded beside the scaled ones.

Human-readable lines go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of inputs, outputs and environment is written to
``.perfbench_out/`` in the checkout, with the spans of the first traced
pass beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# set up at least this many times, and until this much time has passed
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Host-speed kernels, timed after timed calls once per KERNEL_EVERY_S gone
# (see HostSpeed.sample). KERNEL_REF_S holds each
# kernel's typical time on the 2-vCPU x86_64 host the baseline was taken
# on, in that host's faster spells.
KERNEL_MAX_RUNS = 20
KERNEL_EVERY_S = 0.25
KERNEL_REF_S = {"python": 0.016, "numpy": 0.023}
# One process, one thread: pin every BLAS pool before numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "top_op_s": "s",
    "cost_ratio_mean": "ratio",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples above it."""
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    while pct > 0 and n - math.ceil(pct / 100 * n) < 10:
        pct -= 1
    return pct or None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def python_kernel() -> Callable[[], None]:
    """check_robust on a 3-regular circulant bipartite graph, all edges chosen."""
    from checker import check_robust

    n = 150
    edges = [(r, (r + j) % n) for r in range(n) for j in range(3)]
    ids = range(len(edges))

    def kernel() -> None:
        for _ in range(2):
            check_robust(n, n, edges, ids, ids)

    return kernel


def numpy_kernel() -> Callable[[], None]:
    """Revised-simplex-like steps on fixed dense arrays, as in a dense LP solve.

    Each step prices a 300 x 600 matrix through a 300 x 300 inverse, solves
    for one column and makes a rank-one update of the inverse.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((300, 600))
    cost = rng.random(600)
    steps = list(zip(rng.integers(0, 600, 60), rng.integers(0, 300, 60)))

    def kernel() -> None:
        b_inv = np.eye(300)
        for col, row in steps:
            reduced = cost - (cost[:300] @ b_inv) @ a
            d = b_inv @ a[:, col]
            b_inv -= np.outer(d, b_inv[row]) * (1e-4 / (1.0 + abs(reduced[col])))

    return kernel


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


class HostSpeed:
    """Times of one fixed kernel, taken between timed calls."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel = KERNELS[kind]()
        self.times: list[float] = []
        self.last = time.perf_counter()

    def sample(self, at_least: int = 0) -> list[float]:
        """Time the kernel once per ``KERNEL_EVERY_S`` gone since it last ran.

        It runs at least ``at_least`` and at most ``KERNEL_MAX_RUNS`` times,
        so a long call is followed by about as many kernel runs as the same
        time spent in short calls. Returns this sample's times.
        """
        since = time.perf_counter() - self.last
        runs = min(KERNEL_MAX_RUNS, max(at_least, math.floor(since / KERNEL_EVERY_S)))
        if not runs:
            return []
        out = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self.kernel()
            out.append(time.perf_counter() - t0)
        self.times += out
        self.last = time.perf_counter()
        return out

    def typical(self) -> float:
        """Mean kernel time without the fastest and slowest tenth.

        A mean, not a median: the host flips between a fast and a slow
        state within seconds, a long op runs at the average of the two,
        and the median of a two-state sample jumps from one to the other.
        """
        ts = sorted(self.times)
        cut = len(ts) // 10
        return statistics.fmean(ts[cut:len(ts) - cut])

    def scale(self, times: list[float] | None = None) -> float:
        """Factor that turns a time into reference seconds.

        Taken from ``times`` (one sample) if given, else from every
        sample so far.
        """
        typical = statistics.fmean(times) if times else self.typical()
        return KERNEL_REF_S[self.kind] / typical


class Bench:
    def __init__(self, workload_name: str, seed: int):
        import workloads

        self.wlmod = workloads
        self.setup_fn = workloads.SETUPS[workload_name]
        self.seed = seed
        self.workdir = OUT_DIR / f"work-{workload_name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}  # op label -> sha256 of its sorted edge ids
        self.costs: dict[str, float] = {}
        self.setup_speed = HostSpeed("python")
        self.op_speed = HostSpeed(workloads.OP_KIND[workload_name])

    def setup(self, repeats: int, seconds: float) -> tuple[list[float], list[float]]:
        """Set the workload up repeatedly; returns raw and scaled times.

        Each set-up is scaled by the kernel runs right after it.
        """
        times: list[float] = []
        scaled: list[float] = []
        while len(times) < repeats or sum(times) < seconds:
            if self.workdir.exists():
                shutil.rmtree(self.workdir)
            self.workdir.mkdir(parents=True)
            self.wl = None
            gc.collect()
            t0 = time.perf_counter()
            self.wl = self.setup_fn(self.seed, self.workdir)
            times.append(time.perf_counter() - t0)
            scaled.append(times[-1] * self.setup_speed.scale(self.setup_speed.sample(1)))
        return times, scaled

    def digests(self) -> dict[str, str]:
        """sha256 of each op's instance text."""
        import rapkit

        return {op.label: self.wlmod.sha256_text(rapkit.format_instance(op.instance))
                for op in self.wl.ops}

    def run_op(self, op) -> tuple[float, bool]:
        """Time one call of ``op``, then check its output; returns (seconds, ok)."""
        self.attempted += 1
        # start every call from an empty collector, so garbage left by set-up,
        # the checks or the previous call is not charged to it
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = op.call()
            elapsed = time.perf_counter() - t0
            self.op_speed.sample()
            cost = self.wlmod.verify(op.instance, res.edge_ids)
            op.quality(res, cost)
        except (AssertionError, RecursionError):
            raise
        except Exception as exc:  # any other failure is counted, not fatal
            elapsed = time.perf_counter() - t0
            self.op_speed.sample()
            self.failed += 1
            first = str(exc).splitlines()[0] if str(exc) else ""
            self.failures.append(f"{op.label}: {type(exc).__name__}: {first}")
            return elapsed, False
        ids = ",".join(map(str, sorted(res.edge_ids)))
        digest = hashlib.sha256(ids.encode()).hexdigest()
        if self.outputs.setdefault(op.label, digest) != digest:
            self.failed += 1
            self.failures.append(f"{op.label}: output changed between calls")
            return elapsed, False
        self.costs[op.label] = cost / op.reference
        return elapsed, True

    def run_pass(self) -> list[tuple[str, float]]:
        """One call of each op; returns (label, seconds) of each call."""
        return [(op.label, self.run_op(op)[0]) for op in self.wl.ops]

    def passes(self, budget: float) -> list[list[tuple[str, float]]]:
        """Repeat passes until ``budget`` seconds have gone, at least one."""
        out = []
        t0 = time.perf_counter()
        while not out or time.perf_counter() - t0 < budget:
            out.append(self.run_pass())
        return out


def op_medians(passes: list[list[tuple[str, float]]]) -> dict[str, float]:
    """Each op's median time over all its calls.

    The time of one pass is the sum of these medians. That keeps a slow
    spell of the machine during one call from counting, which the median
    of whole-pass totals would not do with only two or three passes.
    """
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for label, t in p:
            by_op.setdefault(label, []).append(t)
    return {label: statistics.median(ts) for label, ts in by_op.items()}


def end_to_end(bench: Bench, setup_times, setup_scaled, passes) -> tuple[dict, list[str]]:
    op_times = sorted(t for p in passes for _, t in p)
    medians = op_medians(passes)
    top = [t for p in passes for label, t in p if label == bench.wl.top]
    ratios = list(bench.costs.values())
    raw = {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(medians.values()),
        "top_op_s": statistics.median(top),
    }
    op_scale = bench.op_speed.scale()
    values = {
        "setup_s": statistics.median(setup_scaled),
        "pass_s": raw["pass_s"] * op_scale,
        "top_op_s": raw["top_op_s"] * op_scale,
        "cost_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"{phase} kernel {speed.kind}: {len(speed.times)} runs, trimmed mean "
        f"{speed.typical():.5f} s, reference {KERNEL_REF_S[speed.kind]} s"
        for phase, speed in (("set-up", bench.setup_speed), ("op", bench.op_speed))
    ]
    notes += [
        f"op times scaled by {op_scale:.4f}",
        f"setup: {len(setup_times)} runs, raw median {raw['setup_s']:.4f} s",
        f"passes: {len(passes)}, raw pass time (sum of per-op medians) {raw['pass_s']:.4f} s",
        f"op calls: {len(op_times)} samples, raw p50 {percentile(op_times, 50):.4f} s",
    ]
    tail = tail_percentile(len(op_times))
    notes.append(
        f"op calls: raw p{tail} {percentile(op_times, tail):.4f} s (>=10 samples above it)"
        if tail else "op calls: fewer than 11 samples, no percentile with 10 samples above it"
    )
    notes.append(f"top op {bench.wl.top}: {len(top)} samples, raw median {raw['top_op_s']:.4f} s")
    notes += [f"op {label}: raw median {t:.4f} s" for label, t in medians.items()]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, notes


def per_layer(bench: Bench, untraced, traced_summaries, traced_totals) -> tuple[dict, list[str]]:
    import spans

    first = traced_summaries[0]
    for other in traced_summaries[1:]:
        for key, value in first.items():
            if not key.endswith("_s") and other[key] != value:
                bench.failures.append(f"per-layer count {key} changed between traced passes")
    untraced_pass = statistics.median(untraced)
    traced_pass = statistics.median(traced_totals)
    values = dict(first)
    for name in spans.TRACED_NAMES:
        key = f"{name}.self_s"
        values[key] = statistics.median(s[key] for s in traced_summaries)
    self_total = sum(values[f"{name}.self_s"] for name in spans.TRACED_NAMES)
    values["trace.pass_s"] = traced_pass
    values["trace.unaccounted_s"] = traced_pass - self_total
    values["trace.overhead_frac"] = traced_pass / untraced_pass - 1

    metrics = {}
    for key, value in values.items():
        if key.endswith("_s"):
            unit = "s"
        elif key in spans.OUTCOMES:
            unit = spans.OUTCOMES[key]
        elif key.endswith("_frac"):
            unit = "frac"
        else:
            unit = "count"
        metrics[key] = {"value": value, "unit": unit}
    notes = [f"passes: {len(traced_totals)} traced, each after an untraced one",
             f"traced pass {traced_pass:.4f} s, untraced {untraced_pass:.4f} s"]
    shares = sorted(((values[f"{n}.self_s"], n) for n in spans.TRACED_NAMES), reverse=True)
    for self_s, name in shares[:6]:
        if self_s > 0:
            notes.append(f"self time {name}: {self_s:.4f} s ({self_s / traced_pass:.1%} of the pass)")
    notes.append(f"unaccounted: {values['trace.unaccounted_s']:.4f} s")
    return metrics, notes


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the run's record."""
    import spans
    import workloads

    if workload not in workloads.SETUPS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(workloads.SETUPS)}")
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(workload, seed)
    record = {"workload": workload, "trace": trace, "env": environment(seed)}
    try:
        setup_times, setup_scaled = (bench.setup(1, 0.0) if trace else
                                     bench.setup(SETUP_REPEATS, SETUP_SECONDS))
        record["instances"] = bench.digests()
        if bench.wl.warmup is not None:
            bench.wl.warmup()
        if not trace:
            passes = bench.passes(seconds)
            metrics, notes = end_to_end(bench, setup_times, setup_scaled, passes)
        else:
            # untraced and traced passes alternate, so both see the same host
            tracer = spans.Tracer()
            untraced, summaries, totals = [], [], []
            t0 = time.perf_counter()
            while not totals or time.perf_counter() - t0 < seconds:
                untraced.append(sum(t for _, t in bench.run_pass()))
                tracer.install()
                try:
                    tracer.reset()
                    totals.append(sum(t for _, t in bench.run_pass()))
                finally:
                    tracer.uninstall()
                summaries.append(tracer.summary())
                if len(totals) == 1:
                    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
            metrics, notes = per_layer(bench, untraced, summaries, totals)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    record.update(outputs=bench.outputs, failures=bench.failures, notes=notes,
                  metrics=metrics)
    (OUT_DIR / f"record-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rapkit" / "__init__.py").is_file():
        print(f"error: no rapkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for label, digest in record["instances"].items():
        print(f"instance {label} sha256 {digest}")
    for line in record["notes"]:
        print(line)
    for line in record["failures"]:
        print(f"FAILED {line}")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
