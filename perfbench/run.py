"""zoocast benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload forecast-wide --seed 1 --seconds 5 --trace 0

Run from the root of a zoocast checkout; zoocast is imported from its
`src/` directory. With `--trace 0` the last stdout line carries the
end-to-end metrics, with `--trace 1` the per-layer ones (see README.md).
The line before it is the run context. Scratch files go to `.perfbench/`
at the checkout root; the full result is also written to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# Set-up runs this many times per untraced run; setup_s is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "forecast_mse": "mse",
    "selection_top1_share": "share",
    "ops_ok_share": "share",
}

PER_LAYER = (
    "fusion.forecast_multivariate.calls", "fusion.forecast_multivariate.total_ms",
    "fusion.forecast_multivariate.self_ms", "fusion.match.calls", "fusion.match.total_ms",
    "fusion.match.self_ms", "fusion.sequential_forecast.calls", "fusion.sequential_forecast.total_ms",
    "fusion.sequential_forecast.self_ms", "fusion.blocks",
    "extractor.encode.calls", "extractor.encode.self_ms", "extractor.cosine.calls", "extractor.cosine.self_ms",
    "extractor.encode_batch.calls", "extractor.encode_batch.self_ms", "extractor.train_extractor.total_ms",
    "extractor.train_extractor.self_ms", "extractor.combined_loss_and_grad.calls",
    "extractor.combined_loss_and_grad.self_ms", "extractor.save.total_ms", "extractor.load.total_ms",
    "core.normalize.calls", "core.normalize.self_ms", "core.load_csv.total_ms", "core.mse.calls",
    "core.mse.self_ms",
    "forecasters.forecast.calls", "forecasters.forecast.self_ms", "forecasters.forecast_batch.calls",
    "forecasters.forecast_batch.self_ms", "forecasters.train.total_ms", "forecasters.loss_and_grad.calls",
    "forecasters.loss_and_grad.self_ms", "forecasters.extract_windows.total_ms", "forecasters.save.total_ms",
    "forecasters.load.total_ms",
    "zoo.load_zoo.total_ms", "zoo.load_zoo.self_ms", "zoo.Zoo.forecaster.calls", "zoo.Zoo.forecaster.miss_share",
    "zoo.compute_transfer_matrix.total_ms", "zoo.compute_transfer_matrix.self_ms",
    "zoo.compute_model_representation.total_ms", "zoo.build_zoo.total_ms", "zoo.build_zoo.self_ms",
    "bench.run_benchmark.total_ms", "bench.run_benchmark.self_ms", "bench.evaluation_windows.total_ms",
    "bench.unique_eval_share",
    "cli.main.calls", "cli.main.total_ms", "cli.main.self_ms", "cli.build_parser.total_ms", "cli.out_bytes",
    "core.errors", "forecasters.errors", "extractor.errors", "zoo.errors", "fusion.errors", "bench.errors",
    "cli.errors", "trace.coverage_share", "trace.overhead_share",
)  # fmt: skip


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "B/op"
    return "count/op"


def import_zoocast():
    """Import zoocast from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import zoocast
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import zoocast from {SRC}: {exc}") from None
    if Path(zoocast.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: zoocast was imported from {zoocast.__file__}, not {SRC}")


# -- run context ----------------------------------------------------------------


def blas_info() -> tuple:
    """(BLAS name and version, BLAS thread count) as numpy reports them."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy builds differ in what show_config knows
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
                if hasattr(handle, symbol):
                    threads = int(getattr(handle, symbol)())
                    break
    except OSError:
        pass
    return name, threads


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zoocast").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_context(args) -> dict:
    blas, threads = blas_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(),
    }


# -- timing ----------------------------------------------------------------------


class Runner:
    """Runs ops of one workload, times each, then checks it untimed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, i: int, tracer=None) -> int:
        """Run op i and return its wall time in ns."""
        result, error = None, None
        if tracer is not None:
            tracer.install()
        try:
            with tracer.request() if tracer is not None else nullcontext():
                t0 = time.perf_counter_ns()
                try:
                    result = self.workload.op(i)
                except Exception as exc:
                    error = exc
                t1 = time.perf_counter_ns()
        finally:
            if tracer is not None:
                tracer.remove()
        if error is None:
            try:
                ok = bool(self.workload.check(i, result))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        self.record(ok, f"op {i}", error)
        return t1 - t0

    def record(self, ok: bool, label: str, error=None):
        """Count one checked output; report the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"perfbench: {label} failed", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)


def measure(args, workload_cls, workdir: Path) -> tuple:
    """Untraced run: returns (metrics, runner, samples).

    Set-up runs SETUP_REPEATS times from scratch. Each set-up is followed
    by an equal share of the timed phase, so the op samples come from three
    stretches of the run instead of one: on a shared machine the speed
    drifts over seconds.
    """
    setup_s, lat = [], []
    budget = args.seconds * 1e9
    runner = Runner(None)
    earlier = None
    for rep in range(1, SETUP_REPEATS + 1):
        workload = workload_cls(args.seed, workdir / f"setup{rep}")
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
        if earlier is not None:
            workload.inherit(earlier)
            earlier.close()
            shutil.rmtree(earlier.workdir)
        runner.workload = earlier = workload
        min_ops = -(-workload.min_ops * rep // SETUP_REPEATS)
        while sum(lat) < budget * rep / SETUP_REPEATS or len(lat) < min_ops:
            lat.append(runner.run(len(lat)))
    quality = workload.quality(runner)
    workload.close()
    ms = np.asarray(lat) / 1e6
    values = {
        "setup_s": statistics.median(setup_s),
        "latency_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "forecast_mse": quality["forecast_mse"],
        "selection_top1_share": quality["selection_top1_share"],
        "ops_ok_share": (runner.attempted - runner.failed) / runner.attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    # Written to the results file only: with the machine's speed states the
    # median and the mean swing across runs by more than any bound allows
    # (see README.md, "Noise").
    ungated = {"latency_ms_p50": float(np.percentile(ms, 50)), "ops_per_s": len(ms) / (ms.sum() / 1e3), "ops": len(ms)}
    return metrics, runner, {"setup_s": setup_s, "op_ms": ms.tolist(), "ungated": ungated}


def measure_traced(args, workload_cls, workdir: Path) -> tuple:
    """Traced run: ops alternate untraced and traced; returns (metrics,
    runner, samples)."""
    workload = workload_cls(args.seed, workdir / "setup0")
    workload.setup()
    runner = Runner(workload)
    tracer = Tracer()
    plain, traced = [], []
    budget = args.seconds * 1e9
    each = max(2, workload.min_ops // 2)
    i = 0
    while sum(plain) + sum(traced) < budget or len(plain) < each or len(traced) < each:
        if i % 2:
            traced.append(runner.run(i, tracer))
        else:
            plain.append(runner.run(i))
        i += 1
    workload.close()
    values = tracer.metrics()
    values["cli.out_bytes"] = 0.0
    values.update(workload.extras())
    values["trace.coverage_share"] = tracer.top_ns / sum(traced)
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = {name: {"value": float(values[name]), "unit": layer_unit(name)} for name in PER_LAYER}
    return metrics, runner, {"plain_ms": [t / 1e6 for t in plain], "traced_ms": [t / 1e6 for t in traced]}


def main(argv=None) -> int:
    import_zoocast()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    context = run_context(args)
    workdir = SCRATCH / f"work-{args.workload}-{os.getpid()}"
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, runner, samples = measure_fn(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    results_dir = SCRATCH / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"context": context, "samples": samples, **result}, indent=1), encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
