"""The pinned `run_method` outputs (the fixed draws, the row builder and the row comparator) and the campaign set.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/output_rows.py OUT.json

writes one JSON row per line for every draw in ``DRAWS`` (111 rows): every
``harness.ALL_METHODS`` method on desk seeds 0-3 and full-scale seeds 0-1 at
10 and 30 dBm, then ``cor_ga``, ``joint_II`` and ``joint_III`` on full-scale
seed 0 at 0 dBm.  Each row holds the scale, power, seed and method, the
secrecy rate as a hex float, the iteration count, the FLOP estimate and, for
the joint methods, the objective trace as hex floats.  Hex floats make any
change of bits visible.  The package is imported from PYTHONPATH, so the same
script serves any tree.  ``tests/pinned_outputs.json`` is this script's
output, and ``test_pinned_outputs.py`` recomputes each of its rows.

    python tests/output_rows.py --compare A.json B.json [--max-bits X]

lists every row whose ``sr_bits`` moved from A to B with the change in bits,
then the largest change per method, and exits non-zero when any row's
``iterations`` or ``flops`` differ, a row is missing from either file, or,
with ``--max-bits``, any row's ``sr_bits`` moved by more than X bits.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/output_rows.py --campaigns DIR

writes the standard campaign set, 8 files, into DIR: a ``cdf`` campaign over
n_e in {2, 4} with every method but ``asr_sca`` and a ``convergence``
campaign with the three joint methods, each at desk scale and at full scale
with n_irs = 8, at 10 and 30 dBm, 3 trials from base seed 5, on 2 workers
with ``deterministic_timing``.  Run it once per tree and compare the two
directories with ``diff -r``: any byte that moves is a changed output.
"""

import json
import sys

# (scale, transmit power in dBm, channel seed, methods); None runs every method
DRAWS = [(scale, power_dbm, seed, None)
         for scale, seeds in (("desk", (0, 1, 2, 3)), ("full", (0, 1)))
         for power_dbm in (10.0, 30.0)
         for seed in seeds]
DRAWS.append(("full", 0.0, 0, ("cor_ga", "joint_II", "joint_III")))


def cases() -> list[tuple]:
    """The (scale, power_dbm, seed, method) of every row, in file order."""
    from irs_ssm.harness import ALL_METHODS  # imported here, so --compare runs without the package

    return [(scale, power_dbm, seed, method)
            for scale, power_dbm, seed, methods in DRAWS for method in methods or ALL_METHODS]


def row(scale: str, power_dbm: float, seed: int, method: str) -> dict:
    """One method's `run_method` output on one draw."""
    from irs_ssm import harness
    from irs_ssm.model import db_to_linear

    make = harness.desk_config if scale == "desk" else harness.full_scale_config
    cfg = make(p_total=db_to_linear(power_dbm))
    out = harness.run_method(method, cfg, harness.draw_channels(cfg, seed), seed)
    return {
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
    todo = cases()
    with open(path, "w", encoding="utf-8") as fh:
        for case in todo:
            fh.write(json.dumps(row(*case)) + "\n")
    print(f"wrote {len(todo)} rows to {path}")


def campaigns(out_dir: str) -> list[str]:
    """Run the standard campaign set into ``out_dir``; returns the paths of the files written."""
    from irs_ssm import harness

    sets = {"cdf": (tuple(m for m in harness.ALL_METHODS if m != "asr_sca"), {"n_e_values": (2, 4)}),
            "convergence": (harness.JOINT_METHODS, {})}
    paths = []
    for kind, (methods, axes) in sets.items():
        for scale, system in (("desk", harness.desk_config()), ("full", harness.full_scale_config(n_irs=8))):
            spec = harness.ExperimentSpec(
                kind=kind, system=system, powers_dbm=(10.0, 30.0), n_channel_trials=3, base_seed=5,
                combinations=methods, output_path=f"{out_dir}/{kind}_{scale}", threads=2,
                deterministic_timing=True, **axes)
            harness.run_experiment(spec)
            paths += [f"{spec.output_path}.csv", f"{spec.output_path}.json"]
    print(f"wrote {len(paths)} files to {out_dir}")
    return paths


def load(path) -> dict[tuple, dict]:
    """The rows of a file, keyed by (scale, power_dbm, seed, method), in file order."""
    with open(path, encoding="utf-8") as fh:
        return {(r["scale"], r["power_dbm"], r["seed"], r["method"]): r for r in map(json.loads, fh)}


def mismatches(ra: dict, rb: dict, max_bits: float | None = None) -> list[str]:
    """How row B differs from row A: any change of iterations or flops, and a rate moved past ``max_bits``."""
    key = (ra["scale"], ra["power_dbm"], ra["seed"], ra["method"])
    lines = [f"{key}: {name} {ra[name]} -> {rb[name]}" for name in ("iterations", "flops") if ra[name] != rb[name]]
    change = float.fromhex(rb["sr_bits"]) - float.fromhex(ra["sr_bits"])
    if max_bits is not None and not abs(change) <= max_bits:
        lines.append(f"{key}: sr_bits moved {change:+.3e} bit, beyond {max_bits:g}")
    return lines


def compare(path_a: str, path_b: str, max_bits: float | None = None) -> int:
    """Print the rows whose rate moved from A to B.

    Returns 1 if any count differs, a row is missing or a rate moved by more
    than ``max_bits``, else 0.
    """
    a, b = load(path_a), load(path_b)
    lines = [f"row {key} is only in {path_a}" for key in a.keys() - b.keys()]
    lines += [f"row {key} is only in {path_b}" for key in b.keys() - a.keys()]
    largest: dict[str, float] = {}
    moved = 0
    for key in (k for k in a if k in b):
        scale, power_dbm, seed, method = key
        ra, rb = a[key], b[key]
        lines += mismatches(ra, rb, max_bits)
        change = float.fromhex(rb["sr_bits"]) - float.fromhex(ra["sr_bits"])
        largest[method] = max(largest.get(method, 0.0), abs(change))
        if ra["sr_bits"] != rb["sr_bits"]:
            moved += 1
            print(f"{scale} {power_dbm:g} dBm seed {seed} {method}: sr_bits {change:+.3e} bit")
    print(f"{moved} of {len(a.keys() & b.keys())} rows moved; largest |change| per method:")
    for method, change in largest.items():
        print(f"  {method}: {change:.3e} bit")
    for line in lines:
        print(f"MISMATCH {line}")
    return 1 if lines else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(args[1], args[2]))
    if len(args) == 5 and args[0] == "--compare" and args[3] == "--max-bits":
        sys.exit(compare(args[1], args[2], float(args[4])))
    if len(args) == 2 and args[0] == "--campaigns":
        campaigns(args[1])
    elif len(args) == 1:
        main(args[0])
    else:
        sys.exit("usage: python tests/output_rows.py OUT.json | --compare A.json B.json [--max-bits X]"
                 " | --campaigns DIR")
