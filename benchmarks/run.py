"""Run one workload of the hcfnet benchmark and print its metrics.

From the repository root:

    python3 benchmarks/run.py --workload train-64 --seed 3 --seconds 30 --trace 0

The benchmark imports hcfnet from ``src/`` of the checkout it sits in and
fails (exit 2, no result) when that tree is missing.  It pins the BLAS
thread count before numpy loads, repeats the workload's set-up, then runs
units of work until ``--seconds`` have passed.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` is a separate run with the tracer installed; it reports the per-layer
metrics, then runs untraced units to measure the tracer's overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full summaries, the environment
and (when traced) the spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train-64", "infer-large", "eval-64")
SETUP_REPEATS = 5
MAX_BLAS_THREADS = 2
TAIL_SAMPLES = 10
DGEMM_N = 1024
DGEMM_REPEATS = 5

# (name, unit); every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_s", "s"),
    ("images_per_s", "1/s"),
)
# Workload-specific figures printed with the end-to-end table.
DETAIL_UNITS = {
    "step_s": "s",
    "epoch_s": "s",
    "loss_final": "loss",
    "latency_256_s": "s",
    "latency_512_s": "s",
}


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)


def summarize(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None}
    if n >= 2 * TAIL_SAMPLES:
        out["tail_pct"] = 100 * (n - TAIL_SAMPLES) // n
        out["tail"] = ordered[n - TAIL_SAMPLES - 1]
    return out


def measure(workload, seconds: float, tracer, ledger: Ledger) -> tuple[dict, list]:
    """Run units until ``seconds`` have passed (at least one unit)."""
    samples: dict[str, list[float]] = {}
    windows: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        ledger.attempted += 1
        try:
            unit = workload.unit(tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            ledger.fail(exc)
        else:
            for name, values in unit.samples.items():
                samples.setdefault(name, []).extend(values)
            windows.extend(unit.windows)
        if time.perf_counter() >= deadline:
            return samples, windows


def timed_setups(workload, ledger: Ledger) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        ledger.attempted += 1
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def dgemm_gflops(np) -> float:
    """Float64 matrix-multiply rate of this process, median of a few runs."""
    rng = np.random.default_rng(0)
    a, b = rng.random((DGEMM_N, DGEMM_N)), rng.random((DGEMM_N, DGEMM_N))
    out = np.empty_like(a)
    np.matmul(a, b, out=out)
    times = []
    for _ in range(DGEMM_REPEATS):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - start)
    return 2.0 * DGEMM_N**3 / statistics.median(times) / 1e9


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def print_table(rows: list[tuple[str, str, dict]]) -> None:
    print(f"{'metric':<16} {'median':>12} {'tail':>18} {'n':>4}  unit")
    for name, unit, s in rows:
        tail = f"p{s['tail_pct']}={s['tail']:.6g}" if s["tail"] is not None else "-"
        print(f"{name:<16} {s['median']:>12.6g} {tail:>18} {s['n']:>4}  {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hcfnet benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hcfnet", "__init__.py")):
        print(f"error: no hcfnet source tree at {SRC}", file=sys.stderr)
        return 2
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    import numpy as np

    import workloads
    from tracer import Tracer, per_layer_metrics

    import_s = time.perf_counter() - start
    hcfnet_file = os.path.abspath(sys.modules["hcfnet"].__file__)
    if not hcfnet_file.startswith(SRC + os.sep):
        print(f"error: imported hcfnet from {hcfnet_file}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    ledger = Ledger()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            dgemm = dgemm_gflops(np)
            with Tracer(skip_inside=workload.skip_inside) as tracer:
                setups = timed_setups(workload, ledger)
                samples, windows = measure(workload, args.seconds, tracer, ledger)
            plain, _ = measure(workload, args.seconds / 4, None, ledger)
        else:
            setups = timed_setups(workload, ledger)
            samples, windows = measure(workload, args.seconds, None, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if "latency_s" not in samples:
        print("error: no operation succeeded, nothing to report", file=sys.stderr)
        return 1
    summaries = {name: summarize(values) for name, values in samples.items()}
    summaries["setup_s"] = summarize([import_s + t for t in setups])
    summaries["peak_rss_mb"] = summarize([peak_rss_mb])
    env = environment(np, threads)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "import_s": import_s,
        "setup_runs_s": setups,
        "summaries": summaries,
        "samples": samples,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        overhead = 0.0
        key = workload.overhead_metric
        if key in samples and key in plain:
            traced, untraced = statistics.median(samples[key]), statistics.median(plain[key])
            overhead = traced / untraced - 1.0
        units = workload.trace_units(tracer)
        values = tracer.per_layer(units, dgemm, tracer.coverage(windows), overhead)
        units_of = {name: unit for name, unit, _ in per_layer_metrics()}
        metrics = {name: {"value": values[name], "unit": units_of[name]} for name in units_of}
        record["trace_units"] = units
        print(f"traced units={units} coverage={values['trace.coverage']:.4f} "
              f"overhead={overhead:.4f} dgemm={dgemm:.2f} GFLOP/s")
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        with open(os.path.join(OUT_DIR, f"spans-{stem}.jsonl"), "w") as fh:
            for name, s_start, s_end, parent in tracer.spans:
                fh.write(json.dumps([name, s_start - origin, s_end - origin, parent]) + "\n")
    else:
        rows = [(name, unit, summaries[name]) for name, unit in END_TO_END]
        rows += [(n, u, summaries[n]) for n, u in DETAIL_UNITS.items() if n in summaries]
        print_table(rows)
        metrics = {
            name: {"value": summaries[name]["median"], "unit": unit} for name, unit in END_TO_END
        }
    record["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
