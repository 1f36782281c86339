"""Path loss, channel drawing, FLOP models, and the campaign runner."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import irs_ssm.harness as harness
from irs_ssm.harness import (
    ExperimentSpec,
    channel_digest,
    desk_config,
    draw_channels,
    experiment_spec_from_dict,
    flop_estimates,
    load_config,
    full_scale_config,
    path_loss_db,
    records_to_csv,
    run_experiment,
    run_method,
    system_config_from_dict,
)
from irs_ssm.joint import joint_optimize
from irs_ssm.model import Geometry, db_to_linear

from _instances import subnormal_beta_config


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_db(1.0, 2.7) == pytest.approx(-30.0)

    def test_printed_examples(self):
        assert path_loss_db(10.0, 2.7) == pytest.approx(-57.0)
        assert path_loss_db(10.0, 2.2) == pytest.approx(-52.0)

    def test_below_reference_raises(self):
        with pytest.raises(ValueError):
            path_loss_db(0.5, 2.7)


class TestDrawChannels:
    def test_deterministic(self):
        cfg = desk_config()
        a = draw_channels(cfg, 12)
        b = draw_channels(cfg, 12)
        for name in "hqfgm":
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert channel_digest(a) == channel_digest(b)
        c = draw_channels(cfg, 13)
        assert not np.array_equal(a.h, c.h)

    def test_entry_variance_matches_path_loss(self):
        cfg = desk_config(n_rf=2, n_k=2, n_irs=4, m_ary=2)
        n_draws = 10_000
        acc_h = 0.0
        acc_f = 0.0
        for seed in range(n_draws):
            ch = draw_channels(cfg, seed)
            acc_h += np.mean(np.abs(ch.h) ** 2)
            acc_f += np.mean(np.abs(ch.f) ** 2)
        d_ab = cfg.geometry.distance("alice", "bob")
        want_h = db_to_linear(path_loss_db(d_ab, cfg.alpha_ab))
        d_ai = cfg.geometry.distance("alice", "irs")
        want_f = db_to_linear(path_loss_db(d_ai, cfg.alpha_ai))
        assert acc_h / n_draws == pytest.approx(want_h, rel=0.03)
        assert acc_f / n_draws == pytest.approx(want_f, rel=0.03)

    def test_swapping_bob_and_eve_swaps_statistics(self):
        cfg = desk_config(n_rf=2, n_k=2, n_irs=4, m_ary=2)
        swapped = replace(cfg, geometry=Geometry(
            alice=cfg.geometry.alice,
            irs=cfg.geometry.irs,
            bob=cfg.geometry.eve,
            eve=cfg.geometry.bob,
        ))
        n_draws = 10_000
        var_h = var_q_swapped = 0.0
        for seed in range(n_draws):
            var_h += np.mean(np.abs(draw_channels(cfg, seed).h) ** 2)
            var_q_swapped += np.mean(np.abs(draw_channels(swapped, seed + n_draws).q) ** 2)
        assert var_h / n_draws == pytest.approx(var_q_swapped / n_draws, rel=0.03)

    def test_geometry_too_close_raises(self):
        cfg = desk_config(geometry=Geometry(alice=(0.0, 0.0, 0.0), irs=(0.5, 0.0, 0.0),
                                            bob=(10.0, 0.0, 0.0), eve=(20.0, 0.0, 0.0)))
        with pytest.raises(ValueError):
            draw_channels(cfg, 0)


class TestFlopModels:
    def test_admm_core_at_n50(self):
        cfg = full_scale_config()  # N = 50
        one = flop_estimates(cfg, "irs_admm", iterations=1).count
        zero = flop_estimates(cfg, "irs_admm", iterations=0).count
        assert one - zero == 184_750

    def test_complexity_ordering(self):
        for n in (25, 50, 100):
            cfg = desk_config(n_irs=n)
            bca = flop_estimates(cfg, "irs_bca", iterations=1).count
            admm = flop_estimates(cfg, "irs_admm", iterations=1).count
            sdr = flop_estimates(cfg, "irs_sdr", iterations=1).count
            assert bca < admm < sdr

    def test_degenerate_single_element(self):
        cfg = desk_config(n_irs=1)
        for method in ("irs_bca", "irs_admm", "irs_sdr", "asr_sca", "cor_ga"):
            est = flop_estimates(cfg, method, iterations=1)
            assert np.isfinite(est.count) and est.count >= 0

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            flop_estimates(desk_config(), "magic")

    def test_big_o_labels(self):
        cfg = desk_config()
        assert flop_estimates(cfg, "irs_bca").big_o == "O(N^2)"
        assert flop_estimates(cfg, "irs_admm").big_o == "O(N^3)"
        assert flop_estimates(cfg, "irs_sdr").big_o == "O(N^4.5)"


def _tiny_spec(tmp_path, threads=1, kind="sr_vs_power", **kw):
    defaults = dict(
        kind=kind,
        system=desk_config(n_irs=6),
        powers_dbm=(10.0, 20.0),
        n_channel_trials=3,
        base_seed=77,
        combinations=("random_phase", "irs_bca"),
        output_path=str(tmp_path / "out"),
        threads=threads,
        deterministic_timing=True,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_structure_and_files(self, tmp_path):
        spec = _tiny_spec(tmp_path)
        records, summary = run_experiment(spec)
        assert len(records) == 2 * 3  # grid points x trials
        assert all(set(r.outputs) == {"random_phase", "irs_bca"} for r in records)
        assert summary["failure_fraction"] == 0.0
        csv_text = (tmp_path / "out.csv").read_text()
        assert csv_text.splitlines()[0] == ",".join(harness.CSV_COLUMNS)
        assert len(csv_text.splitlines()) == 1 + 2 * 3 * 2
        assert "\r" not in csv_text
        summary_loaded = json.loads((tmp_path / "out.json").read_text())
        assert summary_loaded["kind"] == "sr_vs_power"

    def test_trial_seeds_offset_from_base(self, tmp_path):
        spec = _tiny_spec(tmp_path)
        records, _ = run_experiment(spec)
        assert sorted({r.seed for r in records}) == [77, 78, 79]

    def test_byte_identical_across_thread_counts(self, tmp_path):
        spec1 = _tiny_spec(tmp_path / "a" if False else tmp_path, threads=1,
                           output_path=str(tmp_path / "t1"))
        spec2 = replace(spec1, threads=2, output_path=str(tmp_path / "t2"))
        run_experiment(spec1)
        run_experiment(spec2)
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
        assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes()

    def test_results_stable_without_timing_suppression(self, tmp_path):
        # with real timings the scientific columns still reproduce exactly
        spec1 = _tiny_spec(tmp_path, deterministic_timing=False,
                           output_path=str(tmp_path / "r1"))
        spec2 = replace(spec1, output_path=str(tmp_path / "r2"), threads=2)
        rec1, _ = run_experiment(spec1)
        rec2, _ = run_experiment(spec2)
        for a, b in zip(rec1, rec2):
            assert a.channel_digest == b.channel_digest
            for m in a.outputs:
                assert a.outputs[m].sr_bits == b.outputs[m].sr_bits
                assert a.outputs[m].iterations == b.outputs[m].iterations

    def test_failures_recorded_and_campaign_continues(self, tmp_path, monkeypatch):
        real = harness.run_method

        def flaky(method, cfg, ch, seed):
            if method == "irs_bca" and seed == 78:
                raise RuntimeError("injected fault")
            return real(method, cfg, ch, seed)

        monkeypatch.setattr(harness, "run_method", flaky)
        spec = _tiny_spec(tmp_path)
        records, summary = run_experiment(spec)
        failed = [r for r in records if r.errors]
        assert len(failed) == 2  # both grid points at trial seed 78
        assert all("injected fault" in e for r in failed for e in r.errors.values())
        assert 0 < summary["failure_fraction"] < 0.5

    def test_cdf_kind_emits_quantiles(self, tmp_path):
        spec = _tiny_spec(tmp_path, kind="cdf", powers_dbm=(),
                          n_e_values=(2, 4), n_channel_trials=4)
        _, summary = run_experiment(spec)
        assert "cdf" in summary
        key = next(iter(summary["cdf"]))
        assert "0.50" in summary["cdf"][key]["quantiles"]

    def test_convergence_kind_keeps_traces(self, tmp_path):
        spec = _tiny_spec(tmp_path, kind="convergence", powers_dbm=(20.0,),
                          combinations=("joint_II",), n_channel_trials=2)
        _, summary = run_experiment(spec)
        traces = next(iter(summary["convergence"].values()))["traces"]
        assert len(traces) == 2
        assert all(len(t) >= 1 for t in traces)

    def test_position_sweep_moves_the_irs(self, tmp_path):
        spec = _tiny_spec(tmp_path, kind="position_sweep", powers_dbm=(20.0,),
                          irs_y_values=(45.0, 36.0), n_channel_trials=2)
        records, summary = run_experiment(spec)
        assert {r.grid["irs_y"] for r in records} == {45.0, 36.0}
        # different geometry, different channels: digests must differ per trial
        by_trial = {}
        for r in records:
            by_trial.setdefault(r.trial, set()).add(r.channel_digest)
        assert all(len(digests) == 2 for digests in by_trial.values())

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope", combinations=("irs_bca",))
        with pytest.raises(ValueError):
            ExperimentSpec(kind="cdf", combinations=("irs_bca",), n_channel_trials=0)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                ExperimentSpec(kind="cdf", combinations=("irs_bca",), threads=threads)
        with pytest.raises(ValueError):
            ExperimentSpec(kind="cdf", combinations=("who",))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="powers_dbm"):
                ExperimentSpec(kind="cdf", combinations=("irs_bca",), powers_dbm=(10.0, bad))
            with pytest.raises(ValueError, match="irs_y_values"):
                ExperimentSpec(kind="position_sweep", combinations=("irs_bca",), irs_y_values=(bad,))
        # a grid value the system config rejects fails at construction, with its own error,
        # rather than mid-campaign outside the per-cell error capture
        with pytest.raises(ValueError, match="receive antenna counts"):
            ExperimentSpec(kind="sr_vs_power", powers_dbm=(10.0, 20.0), n_e_values=(2, 0),
                           n_channel_trials=2, combinations=("irs_bca",))
        with pytest.raises(ValueError, match="n_irs"):
            ExperimentSpec(kind="sr_vs_elements", n_irs_values=(16, -3), combinations=("irs_bca",))
        # a YAML ``p_total_dbm: .nan`` is rejected at load, naming the field
        with pytest.raises(ValueError, match="p_total"):
            system_config_from_dict({"p_total_dbm": float("nan")})
        # counts and the seed are integers, named when they are not; 16.7 is not truncated to 16
        for bad in ({"n_channel_trials": 2.5}, {"threads": 1.5}, {"base_seed": 0.5},
                    {"n_irs_values": (16, 16.7)}, {"n_e_values": (2.0,)}):
            (name,) = bad
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentSpec(kind="cdf", combinations=("irs_bca",), **bad)
        with pytest.raises(ValueError, match="base_seed must be >= 0"):
            ExperimentSpec(kind="cdf", combinations=("irs_bca",), base_seed=-1)
        for name in ("n_rf", "n_k", "n_b", "n_e", "n_irs", "m_ary"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                desk_config(**{name: 2.0})
        # numpy integers are integers
        spec = ExperimentSpec(kind="sr_vs_elements", combinations=("irs_bca",),
                              n_irs_values=(np.int64(8),), n_channel_trials=np.int32(1),
                              base_seed=np.int64(3), system=desk_config(n_rf=np.int64(2)))
        assert spec.grid_points()[0]["n_irs"] == 8

    def test_csv_deterministic_order(self, tmp_path):
        spec = _tiny_spec(tmp_path)
        records, _ = run_experiment(spec)
        text = records_to_csv(records, spec.combinations)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        keys = [(float(r[1]), int(r[0]), r[5]) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1]))

    def test_csv_round_trips_record_values(self, tmp_path):
        # parsing the emitted rows reproduces the in-memory outcomes exactly
        spec = _tiny_spec(tmp_path, deterministic_timing=False)
        records, _ = run_experiment(spec)
        text = records_to_csv(records, spec.combinations)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        idx = 0
        for r in records:
            for method in spec.combinations:
                row = rows[idx]
                o = r.outputs[method]
                assert int(row[0]) == r.trial
                assert float(row[1]) == r.grid["power_dbm"]
                assert row[5] == method
                assert float(row[6]) == o.sr_bits
                assert int(row[7]) == o.iterations
                assert float(row[8]) == o.wall_ms
                assert float(row[9]) == o.flops
                idx += 1
        assert idx == len(rows)


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        cfg_yaml = """
system:
  n_rf: 2
  n_k: 2
  n_irs: 6
  m_ary: 2
  p_total_dbm: 20.0
  sigma_b2_dbm: -55.0
  sigma_e2_dbm: -55.0
  beta: 0.35
  geometry:
    alice: [10.0, 0.0, 2.0]
    irs: [0.0, 45.0, 2.0]
    bob: [10.0, 45.0, 0.0]
    eve: [10.0, 35.0, 0.0]
experiment:
  kind: sr_vs_power
  powers_dbm: [10.0, 20.0]
  n_channel_trials: 2
  base_seed: 5
  combinations: [random_phase, irs_bca]
  deterministic_timing: true
"""
        path = tmp_path / "campaign.yaml"
        path.write_text(cfg_yaml)
        spec = load_config(str(path))
        assert spec.system.n_irs == 6
        assert spec.system.p_total == pytest.approx(100.0)
        assert spec.system.sigma_b2 == pytest.approx(db_to_linear(-55.0))
        assert spec.powers_dbm == (10.0, 20.0)
        records, summary = run_experiment(spec)
        assert summary["failure_fraction"] == 0.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown system fields"):
            system_config_from_dict({"n_wigs": 3})

    @pytest.mark.parametrize("text, section", [
        ("system:\nexperiment:\n  kind: cdf\n  combinations: [irs_bca]\n", "system"),
        ("experiment:\n", "experiment"),
        ("system: [1, 2]\nexperiment:\n  kind: cdf\n  combinations: [irs_bca]\n", "system"),
    ])
    def test_empty_or_non_mapping_section_is_named(self, tmp_path, text, section):
        path = tmp_path / "campaign.yaml"
        path.write_text(text)
        named = f"campaign.yaml: the '{section}' section is empty or not a mapping"
        with pytest.raises(ValueError, match=named):
            load_config(str(path))

    @pytest.mark.parametrize("system, experiment, named", [
        ("n_irs: 16.5", "", "n_irs must be an integer"),
        ("n_rf: 2.0", "", "n_rf must be an integer"),
        ("m_ary: 4.0", "", "m_ary must be an integer"),
        ("geometry: {alice: [10, 0]}", "", "geometry alice must be 3 finite coordinates"),
        ("geometry: {eve: [10, .nan, 0]}", "", "geometry eve must be 3 finite coordinates"),
        ("geometry: {carol: [1, 2, 3]}", "", r"unknown geometry terminals: \['carol'\]"),
        ("geometry: {alice: 10}", "", "geometry alice must be 3 finite coordinates, got 10"),
        ("geometry: [1, 2]", "", "geometry must be a mapping"),
        ("", "n_channel_trials: 2.5", "n_channel_trials must be an integer"),
        ("", "threads: 1.5", "threads must be an integer"),
        ("", "n_irs_values: [16.7]", "n_irs_values must be an integer"),
        ("", "base_seed: -1", "base_seed must be >= 0"),
        ("", "powers_dbm: [a]", "powers_dbm must be a finite real number, got 'a'"),
        ("", "powers_dbm: [null]", "powers_dbm must be a finite real number, got None"),
        ("", "irs_y_values: [45, .inf]", "irs_y_values must be a finite real number, got inf"),
        ("", "n_channel_trials: true", "n_channel_trials must be an integer, got True"),
        ("beta: '0.3'", "", "beta must be a finite real number, got '0.3'"),
        ("beta: true", "", "beta must be a finite real number, got True"),
        ("p_total_dbm: null", "", "p_total_dbm must be a finite real number, got None"),
        ("sigma_e2_dbm: x", "", "sigma_e2_dbm must be a finite real number, got 'x'"),
        ("p_total_dbm: 4000", "", "p_total_dbm = 4000 dBm is out of range"),
        ("sigma_b2_dbm: 4000", "", "sigma_b2_dbm = 4000 dBm is out of range"),
        ("sigma_e2_dbm: 4000", "", "sigma_e2_dbm = 4000 dBm is out of range"),
        ("", "powers_dbm: [30, 4000]", "powers_dbm = 4000.0 dBm is out of range"),
        ("alpha_ab: .nan", "", "alpha_ab must be a finite real number, got nan"),
        ("pl0_db: x", "", "pl0_db must be a finite real number, got 'x'"),
    ])
    def test_bad_value_is_named_at_load(self, tmp_path, system, experiment, named):
        path = tmp_path / "campaign.yaml"
        path.write_text(f"system:\n  n_b: 2\n  {system}\n"
                        f"experiment:\n  kind: cdf\n  combinations: [irs_bca]\n  {experiment}\n")
        with pytest.raises(ValueError, match=named):
            load_config(str(path))

    @pytest.mark.parametrize("key, value", [
        ("combinations", "irs_bca"), ("powers_dbm", 30), ("n_irs_values", 16),
        ("n_e_values", "2"), ("irs_y_values", 45.0),
    ])
    def test_scalar_for_a_list_is_named(self, key, value):
        data = {"kind": "cdf", "combinations": ["irs_bca"], key: value}
        with pytest.raises(ValueError, match=f"experiment {key} must be a list"):
            experiment_spec_from_dict(data, desk_config())
        # built in code, the same check: a string is never split into characters
        with pytest.raises(ValueError, match=f"experiment {key} must be a list"):
            ExperimentSpec(**data)

    def test_non_bool_deterministic_timing_is_named(self):
        # a YAML "no" is a string, not false; it must not silently zero wall_ms
        named = "deterministic_timing must be true or false, got 'no'"
        with pytest.raises(ValueError, match=named):
            ExperimentSpec(kind="cdf", combinations=("irs_bca",), deterministic_timing="no")
        with pytest.raises(ValueError, match=named):
            experiment_spec_from_dict(
                {"kind": "cdf", "combinations": ["irs_bca"], "deterministic_timing": "no"}, desk_config()
            )

    def test_spec_from_dict_tuplifies(self):
        spec = experiment_spec_from_dict(
            {"kind": "cdf", "n_e_values": [2, 4], "combinations": ["irs_bca"],
             "n_channel_trials": 1},
            desk_config(),
        )
        assert spec.n_e_values == (2, 4)


class TestMethodRunners:
    def test_all_methods_run(self):
        cfg = desk_config(n_irs=6, p_total=db_to_linear(20.0))
        ch = draw_channels(cfg, 3)
        for method in harness.ALL_METHODS:
            out = run_method(method, cfg, ch, 3)
            assert np.isfinite(out.sr_bits)
            assert out.flops >= 0.0

    def test_unknown_method_raises(self):
        cfg = desk_config(n_irs=4)
        with pytest.raises(ValueError):
            run_method("nope", cfg, draw_channels(cfg, 0), 0)

    def test_subnormal_beta_draw_finishes_at_a_unit_modulus_v(self):
        # every BCA numerator is subnormal here; a NaN v from c / |c| would make
        # link_state raise "SVD did not converge", a cause that names nothing
        cfg = subnormal_beta_config()
        ch = draw_channels(cfg, 2)
        for method in ("irs_bca", "cor_ga", "joint_I"):
            assert np.isfinite(run_method(method, cfg, ch, 2).sr_bits)
        v_star = joint_optimize(cfg, ch, "I", seed=2).v_star.v
        assert np.max(np.abs(np.abs(v_star) - 1.0)) <= 1e-9

    def test_extreme_noise_levels_give_a_bounded_rate(self):
        # -150 dBm saturates the links (COR-GA reaches log2 K); +20 dBm drowns
        # them (|sr| near 1e-6 at most); K <= kappa <= K^2 bounds |sr| by log2 K
        methods = ("random_phase", "irs_bca", "irs_admm", "irs_sdr", "cor_ga", "joint_II", "joint_III")
        bad = []
        for make in (desk_config, full_scale_config):
            for noise_dbm in (-150.0, -120.0, 0.0, 20.0):
                for power_dbm in (-30.0, 30.0):
                    sigma2 = db_to_linear(noise_dbm)
                    cfg = make(p_total=db_to_linear(power_dbm), sigma_b2=sigma2, sigma_e2=sigma2)
                    ch = draw_channels(cfg, 0)
                    for method in methods:
                        sr = run_method(method, cfg, ch, 0).sr_bits
                        if not (np.isfinite(sr) and abs(sr) <= np.log2(cfg.n_hyp)):
                            bad.append((make.__name__, noise_dbm, power_dbm, method, sr))
        assert bad == []


# Prints one "scale power seed method sr_bits iterations" line per run, with
# sr_bits as float.hex, so that two runs compare bit for bit.
_THREAD_RUNS = """
from irs_ssm import harness
from irs_ssm.model import db_to_linear
draws = [("desk", power, seed) for power in (10.0, 30.0) for seed in (0, 1)] + [("full", 0.0, 0)]
on_all_draws = ("irs_sdr", "irs_admm", "joint_II")
runs = [(draw, method) for draw in draws for method in on_all_draws]
# every other method on one desk draw
runs += [(("desk", 30.0, 0), method) for method in harness.ALL_METHODS if method not in on_all_draws]
for (scale, power, seed), method in runs:
    make = harness.desk_config if scale == "desk" else harness.full_scale_config
    cfg = make(p_total=db_to_linear(power))
    ch = harness.draw_channels(cfg, seed)
    out = harness.run_method(method, cfg, ch, seed)
    print(scale, power, seed, method, float.hex(out.sr_bits), out.iterations)
"""


def _run_with_blas_threads(n: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _THREAD_RUNS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # irs_sdr picks its argmax among near-equal randomization candidates, so
    # rounding noise from a different BLAS blocking could move its output
    one, two = _run_with_blas_threads(1), _run_with_blas_threads(2)
    assert len(one) == 5 * 3 + 6  # three methods on five draws, the other six on one
    assert one == two
