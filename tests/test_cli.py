"""End-to-end checks of the command-line entry points."""

import json

import pytest

from irs_ssm.cli import main
from irs_ssm.harness import FULL_SCALE


def test_flops_subcommand(capsys):
    assert main(["flops", "--n-irs", "50", "--iterations", "2"]) == 0
    out = capsys.readouterr().out
    assert "irs_sdr" in out and "O(N^4.5)" in out


@pytest.mark.parametrize("n_irs", ["0", "-3"])
def test_flops_rejects_a_non_positive_element_count(n_irs, capsys):
    # 0 is falsy: it must reach the config's check, not fall back to the default N = 16 table
    with pytest.raises(ValueError, match="n_irs must all be >= 1"):
        main(["flops", "--n-irs", n_irs])
    assert "N=16" not in capsys.readouterr().out


def test_flops_rejects_a_negative_iteration_count(capsys):
    # the table must not print D = -1 above counts computed at another D
    with pytest.raises(ValueError, match="iterations must be >= 0, got -1"):
        main(["flops", "--iterations", "-1"])
    assert "D=-1" not in capsys.readouterr().out


def test_run_subcommand(tmp_path, capsys):
    config = tmp_path / "campaign.yaml"
    config.write_text(
        """
system:
  n_irs: 6
  p_total_dbm: 20.0
experiment:
  kind: sr_vs_power
  powers_dbm: [10.0, 20.0]
  n_channel_trials: 2
  base_seed: 3
  combinations: [random_phase, irs_bca]
  deterministic_timing: true
"""
    )
    out_prefix = tmp_path / "results"
    rc = main(["run", str(config), "--out", str(out_prefix), "--trials", "2", "--seed", "9"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "failure fraction 0.0000" in printed
    assert (tmp_path / "results.csv").exists()
    summary = json.loads((tmp_path / "results.json").read_text())
    assert summary["base_seed"] == 9
    assert summary["n_channel_trials"] == 2


def test_run_full_scale_keeps_the_file_system_fields(tmp_path):
    config = tmp_path / "campaign.yaml"
    config.write_text(
        """
system:
  p_total_dbm: 20.0
  n_e: 4
  m_ary: 2
  alpha_ab: 3.0
  beta: 0.5
  geometry:
    eve: [10.0, 30.0, 0.0]
experiment:
  kind: cdf
  n_channel_trials: 1
  combinations: [random_phase]
  deterministic_timing: true
"""
    )
    assert main(["run", str(config), "--full-scale", "--out", str(tmp_path / "results")]) == 0
    echo = json.loads((tmp_path / "results.json").read_text())["system"]
    assert {k: echo[k] for k in FULL_SCALE} == FULL_SCALE
    assert echo["p_total"] == pytest.approx(100.0)
    assert (echo["n_e"], echo["m_ary"], echo["alpha_ab"], echo["beta"]) == (4, 2, 3.0, 0.5)
    assert echo["geometry"]["eve"] == [10.0, 30.0, 0.0]


def test_run_rejects_non_positive_threads(tmp_path):
    config = tmp_path / "campaign.yaml"
    config.write_text("experiment:\n  kind: cdf\n  n_channel_trials: 1\n  combinations: [irs_bca]\n")
    with pytest.raises(ValueError, match="threads must be >= 1"):
        main(["run", str(config), "--threads", "0"])


def test_run_rejects_missing_config(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["run", str(tmp_path / "nope.yaml")])
