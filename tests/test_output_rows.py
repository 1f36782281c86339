"""``output_rows.py``: the row comparison lists moved rates and fails on changed counts; the campaign set's files."""

import json
import subprocess
import sys
from pathlib import Path

import output_rows


def _write(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def _row(method, sr_bits, iterations=3, flops=10.0):
    return {"scale": "desk", "power_dbm": 10.0, "seed": 0, "method": method,
            "sr_bits": float.hex(sr_bits), "iterations": iterations, "flops": flops, "trace": None}


def test_compare_lists_moved_rates_and_fails_on_changed_counts(tmp_path, capsys):
    base = [_row("cor_ga", 1.5), _row("irs_bca", 0.25)]
    a = _write(tmp_path / "a.json", base)
    assert output_rows.compare(a, a) == 0
    assert "0 of 2 rows moved" in capsys.readouterr().out

    moved = _write(tmp_path / "b.json", [_row("cor_ga", 1.5 + 2**-40), _row("irs_bca", 0.25)])
    assert output_rows.compare(a, moved) == 0
    out = capsys.readouterr().out
    assert "desk 10 dBm seed 0 cor_ga: sr_bits +9.095e-13 bit" in out
    assert "1 of 2 rows moved" in out and "cor_ga: 9.095e-13 bit" in out and "irs_bca: 0.000e+00 bit" in out

    recounted = _write(tmp_path / "c.json", [_row("cor_ga", 1.5, iterations=4), _row("irs_bca", 0.25)])
    assert output_rows.compare(a, recounted) == 1
    assert "MISMATCH" in capsys.readouterr().out
    missing = _write(tmp_path / "d.json", base[:1])
    assert output_rows.compare(a, missing) == 1
    assert "is only in" in capsys.readouterr().out


def test_max_bits_fails_on_a_rate_moved_beyond_it(tmp_path, capsys):
    a = _write(tmp_path / "a.json", [_row("cor_ga", 1.5), _row("irs_bca", 0.25)])
    b = _write(tmp_path / "b.json", [_row("cor_ga", 1.5 + 2**-40), _row("irs_bca", 0.25 - 2**-20)])
    assert output_rows.compare(a, b, max_bits=1e-3) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert output_rows.compare(a, b, max_bits=1e-9) == 1
    out = capsys.readouterr().out
    assert "MISMATCH ('desk', 10.0, 0, 'irs_bca'): sr_bits moved -9.537e-07 bit, beyond 1e-09" in out
    assert "cor_ga'): sr_bits moved" not in out
    script = str(Path(output_rows.__file__))
    for max_bits, code in (("1e-3", 0), ("1e-9", 1)):
        run = subprocess.run([sys.executable, script, "--compare", a, b, "--max-bits", max_bits],
                             capture_output=True, text=True)
        assert run.returncode == code, run.stdout + run.stderr


def test_campaigns_writes_the_standard_set(tmp_path, capsys):
    from irs_ssm.harness import CSV_COLUMNS

    paths = output_rows.campaigns(str(tmp_path))
    assert f"wrote 8 files to {tmp_path}" in capsys.readouterr().out
    names = [f"{kind}_{scale}.{ext}" for kind in ("cdf", "convergence") for scale in ("desk", "full")
             for ext in ("csv", "json")]
    assert paths == [str(tmp_path / name) for name in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    # 2 powers x 3 trials, times 2 Eve antenna counts x 8 methods (cdf) or 3 joint methods (convergence)
    for name, n_rows in (("cdf", 96), ("convergence", 18)):
        for scale in ("desk", "full"):
            lines = (tmp_path / f"{name}_{scale}.csv").read_text(encoding="utf-8").splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert len(lines) == 1 + n_rows
            summary = json.loads((tmp_path / f"{name}_{scale}.json").read_text(encoding="utf-8"))
            assert summary["kind"] == name and summary["failure_fraction"] == 0.0
