"""Pinned `run_method` outputs: every method on fixed draws, against a stored fixture.

The fixture ``pinned_outputs.json`` holds, for each (scale, power, seed,
method) row, the secrecy rate, iteration count and FLOP estimate that
``harness.run_method`` reported when it was written.  A refactor that is meant
to keep outputs must keep these: iterations and flops exactly, the rate to
1e-12 bit.  Regenerate the fixture (``PYTHONPATH=src python
tests/test_pinned_outputs.py``) only in a change that says which outputs it
moves and why.
"""

import json
from pathlib import Path

import pytest

from irs_ssm import harness
from irs_ssm.model import db_to_linear

FIXTURE = Path(__file__).resolve().parent / "pinned_outputs.json"

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
    assert got["sr_bits"] == pytest.approx(want["sr_bits"], abs=1e-12, rel=0)


if __name__ == "__main__":
    rows = [_run(*case) for case in CASES]
    FIXTURE.write_text(json.dumps({"rows": rows}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {FIXTURE}")
