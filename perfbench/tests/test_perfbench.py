"""Tests of the benchmark's own arithmetic and checks: python3 -m pytest perfbench/tests -q"""

import dataclasses
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irs_ssm import harness, irs_opt, joint
from perfbench import checks, layers, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_script():
    """perfbench/run.py, which is a script and not a module of the package."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_self_time_subtracts_nested_children():
    # parent [0, 10] holds [1, 3] and [4, 6]; [4.5, 5] sits inside the second child
    start = [0.0, 1.0, 4.0, 4.5]
    end = [10.0, 3.0, 6.0, 5.0]
    parent = [-1, 0, 0, 2]
    assert tracer.self_times(start, end, parent) == pytest.approx([6.0, 2.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    assert tracer.self_times([0.0, 1.0, 3.0], [10.0, 4.0, 5.0], [-1, 0, 0])[0] == pytest.approx(6.0)


def test_spans_share_the_run_id_of_their_method_run():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: None)
    run = t.wrap(tracer.RUN_SPAN, lambda: inner())
    outside = t.wrap("outside", lambda: inner())
    run()
    outside()
    assert t.names == [tracer.RUN_SPAN, "inner", "outside", "inner"]
    assert t.parent == [-1, 0, -1, 2]
    assert t.run == [0, 0, -1, -1]
    assert all(e >= s for s, e in zip(t.start, t.end))


def test_installed_wraps_every_binding_and_restores_it():
    original = harness.run_method
    t = tracer.Tracer()
    cfg = harness.desk_config()
    ch = harness.draw_channels(cfg, 0)
    with tracer.installed(t, layers.targets()):
        assert harness.run_method is not original
        harness.run_method("irs_bca", cfg, ch, 0)
    assert harness.run_method is original
    assert joint.link_state is harness.link_state  # the copy joint imported is restored too
    metrics = layers.span_metrics(t)
    assert metrics["harness.run_method.calls"] == 1
    assert metrics["irs_opt.irs_bca.calls"] == 1
    assert metrics["model.link_state.calls"] == 2  # at the start point and at the final v
    assert metrics["irs_opt.irs_bca.iterations"] >= 1
    assert set(t.run) == {0}


def test_tail_percentile_leaves_ten_runs_above_it():
    assert workloads.tail_percentile(1000) == 99
    assert workloads.tail_percentile(999) == 90
    assert workloads.tail_percentile(100) == 90
    assert workloads.tail_percentile(99) == 75
    assert workloads.tail_percentile(40) == 75
    assert workloads.tail_percentile(39) is None


@pytest.mark.parametrize("name", list(workloads.SPEC["workloads"]))
def test_fixed_tail_percentile_follows_the_rule_at_the_minimum_sample(name):
    w = workloads.Workload.from_spec(name)
    assert w.min_trials % w.round_trials == 0
    assert workloads.tail_percentile(w.min_trials * w.runs_per_trial) == w.tail_percentile


def _outcome(sr, trace=None):
    return harness.MethodOutcome(sr_bits=sr, iterations=1, wall_ms=1.0, flops=0.0, trace=trace)


def test_corrupted_outcomes_fail_their_run():
    k = 16  # log2 K = 4 bits
    assert checks.outcome_problems("irs_bca", _outcome(4.0), k) == []
    assert checks.outcome_problems("irs_bca", _outcome(-4.0), k) == []
    for bad in (_outcome(4.0 + 1e-12), _outcome(math.nan), _outcome(math.inf),
                _outcome(2.0, trace=[1.0, 2.0, 2.0 - 1e-12])):
        run = workloads.Run(0, 0, "joint_I", 1e-3, k, outcome=bad)
        run.check()
        assert run.problems


def test_corrupted_traced_outputs_are_found():
    v = np.exp(1j * np.linspace(0.0, 3.0, 8))
    assert checks.traced_problems(("v", v)) == []
    v[3] *= 1.0 + 1e-6
    assert checks.traced_problems(("v", v))
    p = np.full(8, 0.5 + 0.5j)
    assert checks.traced_problems(("p", p, 4)) == []  # norm 2
    assert checks.traced_problems(("p", 3.0 * p, 4))


def test_joint_objective_matches_the_rate_module():
    cfg = harness.desk_config()
    ch = harness.draw_channels(cfg, 3)
    res = joint.joint_optimize(cfg, ch, "II", seed=3)
    assert checks.traced_problems(("joint", cfg, ch, res)) == []
    res.objective += 1e-6
    assert checks.traced_problems(("joint", cfg, ch, res))


def test_corrupted_reflection_vector_fails_its_traced_run(monkeypatch, tmp_path):
    good = irs_opt.irs_bca

    def bent(*args, **kwargs):
        res = good(*args, **kwargs)
        res.v.v[0] *= 1.5
        return res

    for module in (irs_opt, harness, joint):
        monkeypatch.setattr(module, "irs_bca", bent)
    w = dataclasses.replace(workloads.Workload.from_spec("irs-sweep"), powers_dbm=(30,), n_irs_values=(16,),
                            trace_trials=1)
    problems = []
    runs, _ = _run_script().traced_metrics(w, 1, tmp_path, problems)
    assert problems == []
    assert {r.method for r in runs if r.problems} == {"irs_bca"}


def test_reference_mismatch_fails_the_method():
    ref = {"a": 1.0, "b": 2.0}
    assert checks.reference_problems({"a": 1.0, "b": 2.0}, ref, 1e-6) == {}
    assert set(checks.reference_problems({"a": 1.0, "b": 2.0 + 1e-5}, ref, 1e-6)) == {"b"}
    assert set(checks.reference_problems({"a": 1.0}, ref, 1e-6)) == {"b"}


def test_declared_per_layer_metrics_are_the_computed_ones():
    computed = set(layers.span_metrics(tracer.Tracer()))
    computed |= {"harness.pool.busy_frac", "harness.pool.idle_s", "trace.overhead_frac"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == computed


def test_declared_end_to_end_metrics_are_the_computed_ones():
    run = _run_script()
    w = workloads.Workload.from_spec("ga-campaign")
    runs = [workloads.Run(t, 0, "cor_ga", 0.01 * t, 16, outcome=_outcome(1.0)) for t in range(300)]
    windows = [(runs[:100], 1.0), (runs[100:200], 2.0), (runs[200:], 4.0)]
    values = run.untraced_metrics(w, windows, setup_s=0.5)
    assert set(values) - set(run.UNITS) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert values["runs_per_s"] == 50.0  # the median window


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "irs-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
