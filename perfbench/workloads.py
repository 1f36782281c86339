"""The campaign workloads and the passes that run them through irs_ssm's public API.

A workload is a grid of (power, IRS size) cells, a list of methods, and a
stream of channel trials drawn from the benchmark seed: trial t of seed s uses
channel seed s * TRIAL_STRIDE + t for every cell, as ``harness.run_experiment``
does with its ``base_seed``.  Each pass is a closed loop: the next method run
starts when the previous one returns.  In-process runs are timed from outside
``run_method``; a workload with more than one thread runs rounds of
``run_experiment`` on its process pool, and its per-run times are the
``wall_ms`` that ``run_method`` records in the workers.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from irs_ssm import harness

from perfbench import checks

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))
TRIAL_STRIDE = SPEC["trial_seed_stride"]
TAIL_PERCENTILES = (99, 90, 75)


def trial_seed(seed: int, trial: int) -> int:
    return seed * TRIAL_STRIDE + trial


def tail_percentile(n_runs: int) -> int | None:
    """The highest of p99, p90 and p75 that leaves at least 10 of n_runs above it."""
    for pct in TAIL_PERCENTILES:
        if n_runs * (100 - pct) / 100 >= 10:
            return pct
    return None


@dataclass
class Run:
    """One method run: where it sat in the workload, its time and what it returned."""

    trial: int
    gp: int
    method: str
    wall_s: float
    n_hyp: int
    outcome: object | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def key(self) -> tuple:
        return (self.trial, self.gp, self.method)

    def check(self) -> None:
        if self.outcome is not None:
            self.problems += checks.outcome_problems(self.method, self.outcome, self.n_hyp)


@dataclass(frozen=True)
class Workload:
    name: str
    system: str  # "desk" or "full"
    powers_dbm: tuple[float, ...]
    n_irs_values: tuple[int, ...]
    methods: tuple[str, ...]
    threads: int  # 1: a loop over run_method; more: rounds of run_experiment on a pool
    min_trials: int
    round_trials: int
    trace_trials: int
    tail_percentile: int
    reference_sr_bits: dict

    @classmethod
    def from_spec(cls, name: str) -> "Workload":
        raw = SPEC["workloads"][name]
        return cls(
            name=name,
            system=raw["system"],
            powers_dbm=tuple(raw["powers_dbm"]),
            n_irs_values=tuple(raw["n_irs_values"]),
            methods=tuple(raw["methods"]),
            threads=raw["threads"],
            min_trials=raw["min_trials"],
            round_trials=raw["round_trials"],
            trace_trials=raw["trace_trials"],
            tail_percentile=raw["tail_percentile"],
            reference_sr_bits=raw["reference_sr_bits"],
        )

    def experiment(self, seed: int, first_trial: int, n_trials: int, threads: int = 1,
                   output_path: str | None = None) -> harness.ExperimentSpec:
        system = harness.desk_config() if self.system == "desk" else harness.full_scale_config()
        return harness.ExperimentSpec(
            kind="sr_vs_power",
            system=system,
            powers_dbm=self.powers_dbm,
            n_irs_values=self.n_irs_values,
            n_channel_trials=n_trials,
            base_seed=trial_seed(seed, first_trial),
            combinations=self.methods,
            output_path=output_path,
            threads=threads,
        )

    @property
    def runs_per_trial(self) -> int:
        return len(self.experiment(0, 0, 1).grid_points()) * len(self.methods)


def in_process_trial(w: Workload, seed: int, trial: int) -> list[Run]:
    """Every cell and method of one trial, each run timed from outside."""
    spec = w.experiment(seed, trial, 1)
    s = spec.base_seed
    runs = []
    for gp_index, gp in enumerate(spec.grid_points()):
        cfg = spec.config_at(gp)
        ch = harness.draw_channels(cfg, s)
        for method in w.methods:
            run = Run(trial, gp_index, method, 0.0, cfg.n_hyp)
            tic = time.perf_counter()
            try:
                run.outcome = harness.run_method(method, cfg, ch, s)
            except Exception as exc:  # a failed run is counted, the workload goes on
                run.problems.append(f"{method}: {type(exc).__name__}: {exc}")
            run.wall_s = time.perf_counter() - tic
            runs.append(run)
    return runs


def campaign_round(w: Workload, seed: int, first_trial: int, n_trials: int, threads: int,
                   out_dir: Path) -> list[Run]:
    """One ``run_experiment`` call; per-run times are the ``wall_ms`` it records."""
    spec = w.experiment(seed, first_trial, n_trials, threads, str(out_dir / f"{w.name}-{first_trial}"))
    records, _ = harness.run_experiment(spec)
    n_hyp = spec.system.n_hyp
    runs = []
    for rec in records:
        for method in w.methods:
            run = Run(first_trial + rec.trial, rec.gp_index, method, 0.0, n_hyp)
            if method in rec.outputs:
                run.outcome = rec.outputs[method]
                run.wall_s = run.outcome.wall_ms / 1e3
            else:
                run.problems.append(f"{method}: {rec.errors.get(method, 'missing output')}")
            runs.append(run)
    return runs


def run_trials(w: Workload, seed: int, first_trial: int, n_trials: int, out_dir: Path,
               threads: int | None = None) -> list[Run]:
    """Trials [first_trial, first_trial + n_trials); campaign workloads go through
    ``run_experiment``, on ``threads`` workers (default: the workload's own)."""
    if w.threads > 1:
        return campaign_round(w, seed, first_trial, n_trials, threads or w.threads, out_dir)
    return [run for t in range(first_trial, first_trial + n_trials) for run in in_process_trial(w, seed, t)]


def timed_section(w: Workload, seed: int, seconds: float, out_dir: Path) -> list[tuple[list[Run], float]]:
    """Windows of ``round_trials`` trials, in order, until ``seconds`` have passed and
    at least ``min_trials`` are done; each window with its wall time, channel draws included.
    """
    windows = []
    trial = 0
    tic = time.perf_counter()
    while trial < w.min_trials or time.perf_counter() - tic < seconds:
        start = time.perf_counter()
        runs = run_trials(w, seed, trial, w.round_trials, out_dir)
        windows.append((runs, time.perf_counter() - start))
        trial += w.round_trials
    return windows


def method_means(runs: list[Run]) -> dict[str, float]:
    by_method: dict[str, list[float]] = {}
    for run in runs:
        if run.outcome is not None:
            by_method.setdefault(run.method, []).append(run.outcome.sr_bits)
    return {m: math.fsum(v) / len(v) for m, v in by_method.items()}


def reference_check(w: Workload, out_dir: Path) -> list[Run]:
    """Run the reference trial in-process and compare per-method means with the record.

    A method whose mean differs fails each of its runs.  The trial also warms
    the process up before anything is timed.
    """
    runs = run_trials(w, SPEC["reference_seed"], 0, 1, out_dir, threads=1)
    bad = checks.reference_problems(method_means(runs), w.reference_sr_bits, SPEC["reference_tolerance_bits"])
    for run in runs:
        if run.method in bad:
            run.problems.append(bad[run.method])
    return runs


def first_run(name: str) -> None:
    """The first method run of a workload, on the reference trial (the set-up probe's work)."""
    w = Workload.from_spec(name)
    spec = w.experiment(SPEC["reference_seed"], 0, 1)
    cfg = spec.config_at(spec.grid_points()[0])
    ch = harness.draw_channels(cfg, spec.base_seed)
    harness.run_method(w.methods[0], cfg, ch, spec.base_seed)
