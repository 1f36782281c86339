"""Pinned `run_method` outputs: every row of ``pinned_outputs.json``, recomputed.

The fixture is ``output_rows.py``'s output: for each draw in
``output_rows.DRAWS`` (scale, power, seed, method), the secrecy rate, the
iteration count and the FLOP estimate that ``harness.run_method`` reported.
A refactor that is meant to keep outputs must keep these: iterations and
flops exactly, the rate to 1e-12 bit.  Regenerate the fixture
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/output_rows.py
tests/pinned_outputs.json``) only in a change that says which outputs it moves
and why; ``output_rows.py --compare OLD NEW --max-bits 1e-12`` lists every row
that moved past those tolerances.
"""

from pathlib import Path

import pytest

import output_rows
from irs_ssm.harness import ALL_METHODS

PINNED = output_rows.load(Path(__file__).resolve().parent / "pinned_outputs.json")
SR_TOL = 1e-12  # bits; iterations and flops must match exactly


def test_fixture_covers_every_method_and_draw():
    assert list(PINNED) == output_rows.cases()
    assert {case[3] for case in PINNED} == set(ALL_METHODS)


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-{c[1]:g}dBm-s{c[2]}-{c[3]}")
def test_run_method_output_is_pinned(case):
    assert output_rows.mismatches(PINNED[case], output_rows.row(*case), SR_TOL) == []
