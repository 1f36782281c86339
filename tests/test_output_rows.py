"""The row comparison of ``output_rows.py``: moved rates listed, changed counts fail."""

import json

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
