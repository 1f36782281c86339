"""Pinned `run_method` outputs: every method on fixed draws, against a stored fixture.

The fixture ``pinned_outputs.json`` holds, for each (scale, power, seed,
method) row, the secrecy rate, iteration count and FLOP estimate that
``harness.run_method`` reported when it was written.  A refactor that is meant
to keep outputs must keep these: iterations and flops exactly, the rate to
1e-12 bit.  Regenerate the fixture (``PYTHONPATH=src python
tests/test_pinned_outputs.py``) only in a change that says which outputs it
moves and why; regeneration prints every row that moved past those
tolerances, with its old and new value, for that change to cite.
"""

import json
from pathlib import Path

import pytest

from irs_ssm import harness
from irs_ssm.model import db_to_linear

FIXTURE = Path(__file__).resolve().parent / "pinned_outputs.json"
SR_TOL = 1e-12  # bits; iterations and flops must match exactly

# (scale, transmit power in dBm, channel seed, methods)
DRAWS = [("desk", power, seed, harness.ALL_METHODS) for power in (10.0, 30.0) for seed in (0, 1)]
DRAWS.append(("full", 0.0, 0, ("cor_ga", "joint_II", "joint_III")))


def _run(scale: str, power_dbm: float, seed: int, method: str) -> dict:
    make = harness.desk_config if scale == "desk" else harness.full_scale_config
    cfg = make(p_total=db_to_linear(power_dbm))
    out = harness.run_method(method, cfg, harness.draw_channels(cfg, seed), seed)
    return {"scale": scale, "power_dbm": power_dbm, "seed": seed, "method": method,
            "sr_bits": out.sr_bits, "iterations": out.iterations, "flops": out.flops}


CASES = [(scale, power, seed, method) for scale, power, seed, methods in DRAWS for method in methods]


def _pinned() -> dict[tuple, dict]:
    rows = json.loads(FIXTURE.read_text(encoding="utf-8"))["rows"]
    return {(r["scale"], r["power_dbm"], r["seed"], r["method"]): r for r in rows}


def test_fixture_covers_every_method_and_draw():
    assert list(_pinned()) == CASES
    assert {case[3] for case in CASES} == set(harness.ALL_METHODS)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]:g}dBm-s{c[2]}-{c[3]}")
def test_run_method_output_is_pinned(case):
    want = _pinned()[case]
    got = _run(*case)
    assert got["iterations"] == want["iterations"]
    assert got["flops"] == want["flops"]
    assert got["sr_bits"] == pytest.approx(want["sr_bits"], abs=SR_TOL, rel=0)


def moved_rows(old: dict[tuple, dict], rows: list[dict]) -> list[str]:
    """One line per row of ``rows`` that is new or moved past the pinned tolerances from ``old``."""
    lines = []
    for row in rows:
        key = (row["scale"], row["power_dbm"], row["seed"], row["method"])
        was = old.get(key)
        if was is None:
            lines.append(f"{key}: new row")
            continue
        for name, tol in (("sr_bits", SR_TOL), ("iterations", 0), ("flops", 0)):
            if abs(row[name] - was[name]) > tol:
                lines.append(f"{key}: {name} {was[name]!r} -> {row[name]!r}")
    return lines


def test_moved_rows_names_each_change_past_its_tolerance():
    def row(scale, method, sr_bits=1.0, iterations=3):
        return {"scale": scale, "power_dbm": 10.0 if scale == "desk" else 0.0, "seed": 0, "method": method,
                "sr_bits": sr_bits, "iterations": iterations, "flops": 5.0}

    old = {("desk", 10.0, 0, m): row("desk", m) for m in ("a", "b", "c")}
    rows = [
        row("desk", "a", sr_bits=1.0 + 0.5 * SR_TOL),
        row("desk", "b", sr_bits=1.0 + 4 * SR_TOL),
        row("desk", "c", iterations=4),
        row("full", "a"),
    ]
    assert moved_rows(old, rows) == [
        f"('desk', 10.0, 0, 'b'): sr_bits 1.0 -> {1.0 + 4 * SR_TOL!r}",
        "('desk', 10.0, 0, 'c'): iterations 3 -> 4",
        "('full', 0.0, 0, 'a'): new row",
    ]


if __name__ == "__main__":
    rows = [_run(*case) for case in CASES]
    moved = moved_rows(_pinned() if FIXTURE.exists() else {}, rows)
    print("\n".join(moved))
    print(f"{len(moved)} change(s) in {len(rows)} rows")
    FIXTURE.write_text(json.dumps({"rows": rows}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {FIXTURE}")
