"""Write every method's `run_method` output on fixed draws, one JSON row per line.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/output_rows.py OUT.json

Runs every ``harness.ALL_METHODS`` method on desk seeds 0-3 and full-scale
seeds 0-1, at 10 and 30 dBm (108 rows).  Each row holds the scale, power,
seed and method, the secrecy rate as a hex float, the iteration count, the
FLOP estimate and, for the joint methods, the objective trace as hex floats.
Hex floats make any change of bits visible, so running the script once with
one tree's ``src`` on PYTHONPATH and once with another's, then ``diff``-ing
the two files, names the rows a change moves.  The package is imported from
PYTHONPATH, so the same script serves both trees.
"""

import json
import sys

from irs_ssm import harness
from irs_ssm.model import db_to_linear

SCALES = (("desk", harness.desk_config, (0, 1, 2, 3)), ("full", harness.full_scale_config, (0, 1)))
POWERS_DBM = (10.0, 30.0)


def rows():
    for scale, make, seeds in SCALES:
        for power_dbm in POWERS_DBM:
            cfg = make(p_total=db_to_linear(power_dbm))
            for seed in seeds:
                ch = harness.draw_channels(cfg, seed)
                for method in harness.ALL_METHODS:
                    out = harness.run_method(method, cfg, ch, seed)
                    yield {
                        "scale": scale,
                        "power_dbm": power_dbm,
                        "seed": seed,
                        "method": method,
                        "sr_bits": float.hex(float(out.sr_bits)),
                        "iterations": out.iterations,
                        "flops": out.flops,
                        "trace": None if out.trace is None else [float.hex(float(t)) for t in out.trace],
                    }


def main(path: str) -> None:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows():
            fh.write(json.dumps(row) + "\n")
            count += 1
    print(f"wrote {count} rows to {path}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/output_rows.py OUT.json")
    main(sys.argv[1])
