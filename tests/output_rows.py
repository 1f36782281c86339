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

    python tests/output_rows.py --compare A.json B.json [--max-bits X]

lists every row whose ``sr_bits`` moved from A to B with the change in bits,
then the largest change per method, and exits non-zero when any row's
``iterations`` or ``flops`` differ, a row is missing from either file, or,
with ``--max-bits``, any row's ``sr_bits`` moved by more than X bits.
"""

import json
import sys

SCALES = (("desk", "desk_config", (0, 1, 2, 3)), ("full", "full_scale_config", (0, 1)))
POWERS_DBM = (10.0, 30.0)


def rows():
    # imported here, so --compare runs without the package on PYTHONPATH
    from irs_ssm import harness
    from irs_ssm.model import db_to_linear

    for scale, config_name, seeds in SCALES:
        make = getattr(harness, config_name)
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


def _load(path: str) -> dict[tuple, dict]:
    with open(path, encoding="utf-8") as fh:
        return {(r["scale"], r["power_dbm"], r["seed"], r["method"]): r for r in map(json.loads, fh)}


def compare(path_a: str, path_b: str, max_bits: float | None = None) -> int:
    """Print the rows whose rate moved from A to B.

    Returns 1 if any count differs, a row is missing or a rate moved by more
    than ``max_bits``, else 0.
    """
    a, b = _load(path_a), _load(path_b)
    mismatches = [f"row {key} is only in {path_a}" for key in a.keys() - b.keys()]
    mismatches += [f"row {key} is only in {path_b}" for key in b.keys() - a.keys()]
    largest: dict[str, float] = {}
    moved = 0
    for key in (k for k in a if k in b):
        scale, power_dbm, seed, method = key
        ra, rb = a[key], b[key]
        for name in ("iterations", "flops"):
            if ra[name] != rb[name]:
                mismatches.append(f"{key}: {name} {ra[name]} -> {rb[name]}")
        change = float.fromhex(rb["sr_bits"]) - float.fromhex(ra["sr_bits"])
        largest[method] = max(largest.get(method, 0.0), abs(change))
        if ra["sr_bits"] != rb["sr_bits"]:
            moved += 1
            print(f"{scale} {power_dbm:g} dBm seed {seed} {method}: sr_bits {change:+.3e} bit")
        if max_bits is not None and not abs(change) <= max_bits:
            mismatches.append(f"{key}: sr_bits moved {change:+.3e} bit, beyond {max_bits:g}")
    print(f"{moved} of {len(a.keys() & b.keys())} rows moved; largest |change| per method:")
    for method, change in largest.items():
        print(f"  {method}: {change:.3e} bit")
    for line in mismatches:
        print(f"MISMATCH {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(args[1], args[2]))
    if len(args) == 5 and args[0] == "--compare" and args[3] == "--max-bits":
        sys.exit(compare(args[1], args[2], float(args[4])))
    if len(args) != 1:
        sys.exit("usage: python tests/output_rows.py OUT.json | --compare A.json B.json [--max-bits X]")
    main(args[0])
