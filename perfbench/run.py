"""Benchmark of irs_ssm's Monte Carlo campaign workloads.

    python3 perfbench/run.py --workload precoder-full --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the traced pass and reports the per-layer metrics; its spans go to
``.bench_out/``.  Metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an output
check fails and 2 when the package source is missing.  ``--workload all`` runs
every workload, each in a process of its own.
"""

import os

# pinned before numpy loads, so that two pool workers never oversubscribe two cores
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = tuple(json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))["workloads"])
SETUP_PROBES = 5
UNITS = {"sr_mean_bits": "bits"}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(name: str) -> float:
    """Median wall time of fresh processes that import irs_ssm and finish the first run."""
    walls = []
    for _ in range(SETUP_PROBES):
        tic = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).with_name("probe.py")), name],
                       check=True, cwd=ROOT)
        walls.append(time.perf_counter() - tic)
    return statistics.median(walls)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def untraced_metrics(w, windows, setup_s: float) -> dict:
    """End-to-end metrics of the timed section, given as (runs, wall time) windows.

    runs_per_s is the median over windows of the runs passed per second, so a
    burst of load from outside the benchmark moves it less than a total would.
    """
    import numpy as np

    ok = [r for runs, _ in windows for r in runs if not r.problems]
    if len(ok) * (100 - w.tail_percentile) / 100 < 10:
        raise RuntimeError(f"{len(ok)} runs leave fewer than 10 above p{w.tail_percentile}")
    ms = np.array([r.wall_s * 1e3 for r in ok])
    scored = [r.outcome.sr_bits for r in ok if r.trial < w.min_trials]
    return {
        "setup_s": setup_s,
        "runs_per_s": statistics.median(sum(not r.problems for r in runs) / wall for runs, wall in windows),
        "run_ms_p50": float(np.median(ms)),
        "run_ms_tail": float(np.percentile(ms, w.tail_percentile)),
        "peak_rss_mb": peak_rss_mb(),
        "sr_mean_bits": math.fsum(scored) / len(scored),
    }


def traced_metrics(w, seed: int, out_dir: Path, problems: list) -> tuple[list, dict]:
    """The traced pass, its checks and the per-layer metrics.

    Each trial runs in-process untraced and traced back to back, so that a
    change in machine speed between the two does not read as tracing overhead;
    the order alternates between trials, so that whichever runs second on the
    same data gains nothing.  A pool workload then runs one untraced pool round
    for the pool metrics and for the check that its bits do not depend on the
    worker count.
    """
    from perfbench import checks, layers, tracer, workloads

    spans = tracer.Tracer()
    untraced, traced, untraced_wall = [], [], 0.0
    for trial in range(w.trace_trials):
        for traced_pass in ((False, True) if trial % 2 == 0 else (True, False)):
            if traced_pass:
                with tracer.installed(spans, layers.targets()):
                    traced += workloads.run_trials(w, seed, trial, 1, out_dir, threads=1)
            else:
                tic = time.perf_counter()
                untraced += workloads.run_trials(w, seed, trial, 1, out_dir, threads=1)
                untraced_wall += time.perf_counter() - tic
    pooled, pool_wall = untraced, untraced_wall
    if w.threads > 1:
        tic = time.perf_counter()
        pooled = workloads.run_trials(w, seed, 0, w.round_trials, out_dir)
        pool_wall = time.perf_counter() - tic

    run_ids = [i for i, name in enumerate(spans.names) if name == tracer.RUN_SPAN]
    if len(run_ids) != len(traced):
        raise RuntimeError(f"{len(run_ids)} run spans for {len(traced)} traced runs")
    by_id = dict(zip(run_ids, traced))
    for run_id, name, item in spans.outputs:
        found = [f"{name}: {p}" for p in checks.traced_problems(item)]
        if run_id in by_id:
            by_id[run_id].problems += found
        else:
            problems += found
    # output bits must not depend on the worker count or on tracing
    twins = {r.key: r for r in pooled}
    for run in traced:
        twin = twins[run.key]
        if run.outcome is not None and twin.outcome is not None and \
                float(twin.outcome.sr_bits).hex() != float(run.outcome.sr_bits).hex():
            run.problems.append(f"{run.method}: sr_bits {run.outcome.sr_bits!r} traced in-process, "
                                f"{twin.outcome.sr_bits!r} untraced with {w.threads} worker(s)")

    metrics = layers.span_metrics(spans)
    busy = math.fsum(r.wall_s for r in pooled)
    metrics["harness.pool.busy_frac"] = busy / (w.threads * pool_wall)
    metrics["harness.pool.idle_s"] = w.threads * pool_wall - busy
    metrics["trace.overhead_frac"] = (math.fsum(r.wall_s for r in traced)
                                      / math.fsum(r.wall_s for r in untraced) - 1.0)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{w.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "counts": dict(spans.counts), "spans": spans.dump()}, fh)
    return untraced + traced + (pooled if w.threads > 1 else []), metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import irs_ssm

    from perfbench import workloads

    if not Path(irs_ssm.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"irs_ssm loaded from {irs_ssm.__file__}, not from {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    w = workloads.Workload.from_spec(name)
    env = environment()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  environment {json.dumps(env)}", flush=True)

    setup_s = None if trace else setup_seconds(name)
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out_dir = Path(tmp)
        reference = workloads.reference_check(w, out_dir)
        if trace:
            runs, values = traced_metrics(w, seed, out_dir, problems)
        else:
            windows = workloads.timed_section(w, seed, seconds, out_dir)
            runs = [r for rs, _ in windows for r in rs]
    for run in runs:
        run.check()
    if not trace:
        values = untraced_metrics(w, windows, setup_s)

    checked = runs + reference
    failed = [r for r in checked if r.problems]
    problems += [p for r in failed for p in r.problems]
    correct = not problems
    metrics = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]} for m in declared}
    # printed, not gated: sr_mean_bits follows the seed's channel statistics, and the
    # reference check holds the secrecy rate exactly; failed_frac travels as `failed`
    shown = {**{k: (e["value"], e["unit"]) for k, e in metrics.items()},
             **{k: (v, UNITS[k]) for k, v in values.items()},
             "failed_frac": (len(failed) / len(checked), "ratio")}
    width = max(len(k) for k in shown)
    for key, (value, unit) in shown.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    print(f"  ({len(failed)} of {len(checked)} runs failed, reference trial included)")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    print(json.dumps({"correct": correct, "attempted": len(checked), "failed": len(failed),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if not (SRC / "irs_ssm" / "__init__.py").is_file():
        print(f"irs_ssm source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
