"""Monte Carlo experiment harness: channels, FLOP models, campaign runner.

Channels follow the Rayleigh fading model with distance path loss
PL(d) = PL0 - 10 alpha log10(d / 1m); exponents 2.2 (Alice-IRS), 2.7
(Alice-Bob/Eve) and 2.5 (IRS-Bob/Eve).  Campaigns sweep a grid (transmit
power, IRS element count, Eve antenna count, IRS y-position), draw seeded
channels per trial, run the requested methods, and emit one CSV of per-trial
rows plus one JSON summary.  Trial t uses base_seed + t and every random
stream derives from counter-based generators keyed on (seed, purpose), so
results are bit-identical regardless of the worker count.

The default configuration is a desk-scale system (N = 16, four subarrays of
two antennas).  Note the desk noise floor sits at -55 dBm rather than the
full-scale -80 dBm: with the desk antenna counts the -80 dBm floor would be
irrelevant next to the AN power everywhere above 0 dBm transmit power and
every curve over the 10..30 dBm grid would be flat; -55 dBm re-centers the
noise-to-AN-limited transition inside the grid so the power trends are
visible at desk scale.  ``full_scale_config`` keeps the full-scale values.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .irs_opt import SDP_TOL, IrsPhaseVector
from .irs_opt import irs_bca  # noqa: F401  unused; perfbench's tests patch harness.irs_bca (ROADMAP item 3)
from .joint import IRS_SOLVERS, NAMED_COMBINATIONS, PRECODER_SOLVERS, irs_step, joint_optimize, precoder_step
from .model import (
    ChannelSet, Geometry, HybridPrecoder, SystemConfig, check_integer, check_real, db_to_linear, link_state,
)
from .precoder_opt import build_precoder_quadratics
from .rates import approx_secrecy_rate

EXPERIMENT_KINDS = ("sr_vs_power", "cdf", "convergence", "sr_vs_elements", "position_sweep")

JOINT_METHODS = tuple(f"joint_{combination}" for combination in NAMED_COMBINATIONS)
ALL_METHODS = ("random_phase",) + IRS_SOLVERS + PRECODER_SOLVERS + JOINT_METHODS

# campaign runs solve ADMM to research accuracy; 0.01 is the printed
# algorithm default, far coarser than desk-scale objective values
CAMPAIGN_ADMM = {"tol": 1e-6, "max_iters": 200, "inner_max": 300}

CSV_COLUMNS = ("trial", "power_dbm", "n_irs", "n_e", "irs_y", "method",
               "sr_bits", "iterations", "wall_ms", "flops")


def desk_config(**overrides) -> SystemConfig:
    """Desk-scale defaults (see the module docstring for the noise choice)."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


def full_scale_config(**overrides) -> SystemConfig:
    """Full-scale parameter set: N_RF=8, N_k=4, N=50, -80 dBm noise."""
    base = SystemConfig(
        n_rf=8,
        n_k=4,
        n_irs=50,
        sigma_b2=db_to_linear(-80.0),
        sigma_e2=db_to_linear(-80.0),
    )
    return replace(base, **overrides) if overrides else base


def path_loss_db(d: float, alpha: float, pl0_db: float = -30.0, d0: float = 1.0) -> float:
    """Distance path loss in dB; d must be at least the 1 m reference."""
    if d < d0:
        raise ValueError(f"distance {d} m is below the reference distance {d0} m")
    return pl0_db - 10.0 * alpha * math.log10(d / d0)


def _link_std(cfg: SystemConfig, a: str, b: str, alpha: float) -> float:
    pl_lin = db_to_linear(path_loss_db(cfg.geometry.distance(a, b), alpha, cfg.pl0_db))
    return math.sqrt(pl_lin / 2.0)  # per real dimension


def draw_channels(cfg: SystemConfig, seed: int) -> ChannelSet:
    """One i.i.d. Rayleigh fading realization of all five channels.

    Entry variances equal the linear path loss over the 3-D distance between
    the endpoints.  Deterministic per (cfg, seed).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def draw(rows: int, cols: int, std: float) -> np.ndarray:
        return std * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))

    links = {
        "h": (cfg.n_b, cfg.n_tx, _link_std(cfg, "alice", "bob", cfg.alpha_ab)),
        "q": (cfg.n_e, cfg.n_tx, _link_std(cfg, "alice", "eve", cfg.alpha_ab)),
        "f": (cfg.n_irs, cfg.n_tx, _link_std(cfg, "alice", "irs", cfg.alpha_ai)),
        "g": (cfg.n_b, cfg.n_irs, _link_std(cfg, "irs", "bob", cfg.alpha_ib)),
        "m": (cfg.n_e, cfg.n_irs, _link_std(cfg, "irs", "eve", cfg.alpha_ib)),
    }
    ch = ChannelSet(**{name: draw(*args) for name, args in links.items()})
    ch.validate(cfg)
    return ch


def channel_digest(ch: ChannelSet) -> str:
    h = hashlib.sha256()
    for mat in (ch.h, ch.q, ch.f, ch.g, ch.m):
        h.update(np.ascontiguousarray(mat).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class FlopEstimate:
    count: float
    big_o: str


def _shared_pair_flops(cfg: SystemConfig) -> float:
    """Auxiliary-vector plus per-pair assembly counts shared by the IRS methods."""
    n = cfg.n_irs
    k = cfg.n_hyp
    c_a = max(8 * cfg.n_b * cfg.n_k - 2 * cfg.n_b, 0) + max(8 * n * cfg.n_k - 2 * n, 0)

    def per_receiver(nr: int) -> float:
        return (
            max(8 * n * n * nr - 2 * n * n, 0)
            + max(8 * n * n * nr - 2 * n * nr, 0)
            + max(8 * n * nr - 2 * n, 0)
        )

    c_b = per_receiver(cfg.n_b) + per_receiver(cfg.n_e)
    return k * c_a + k * k * c_b


def flop_estimates(cfg: SystemConfig, method: str, iterations: int = 1) -> FlopEstimate:
    """Closed-form FLOP counts per optimizer, iteration counts supplied.

    IRS methods include the shared hypothesis/pair assembly terms; the SDP
    core scales as N^4.5 log(1/tol) at the SDP tolerance ``irs_opt.SDP_TOL``.
    Aggregates clamp at zero.
    """
    n = cfg.n_irs
    nt = cfg.n_tx
    k = cfg.n_hyp
    d = max(int(iterations), 0)
    if method == "irs_admm":
        core = max(n**3 + 24 * n**2 - 5 * n, 0)
        return FlopEstimate(_shared_pair_flops(cfg) + d * core, "O(N^3)")
    if method == "irs_bca":
        return FlopEstimate(_shared_pair_flops(cfg) + d * n, "O(N^2)")
    if method == "irs_sdr":
        core = n**4.5 * math.log(1.0 / SDP_TOL)
        return FlopEstimate(_shared_pair_flops(cfg) + d * core, "O(N^4.5)")
    if method == "asr_sca":
        core = 4 * k**2 * max(8 * nt**2 + 6 * nt - 2, 0) + nt**3
        return FlopEstimate(d * core, "O((N_RF N_k)^3)")
    if method == "cor_ga":
        core = k**2 * max(32 * nt**2 + 4 * nt - 4, 0) + 6 * nt
        return FlopEstimate(d * core, "O((N_RF M)^2 (N_RF N_k)^2)")
    if method == "random_phase":
        return FlopEstimate(0.0, "O(1)")
    raise ValueError(f"no FLOP model for method {method!r}")


@dataclass
class MethodOutcome:
    sr_bits: float
    iterations: int
    wall_ms: float
    flops: float
    trace: list[float] | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """One campaign: an experiment kind, its parameter grid, and bookkeeping.

    Empty grid axes fall back to the corresponding ``system`` value, so every
    kind runs through the same cartesian-product machinery.  The config of
    every grid point is built at construction, so a grid value its
    ``SystemConfig`` rejects fails here, with that config's error.
    """

    kind: str
    system: SystemConfig = field(default_factory=desk_config)
    powers_dbm: tuple[float, ...] = ()
    n_irs_values: tuple[int, ...] = ()
    n_e_values: tuple[int, ...] = ()
    irs_y_values: tuple[float, ...] = ()
    n_channel_trials: int = 100
    base_seed: int = 0
    combinations: tuple[str, ...] = ()
    output_path: str | None = None
    threads: int = 1
    deterministic_timing: bool = False

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("powers_dbm", "n_irs_values", "n_e_values", "irs_y_values", "combinations"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"experiment {name} must be a list, got {values!r}")
            object.__setattr__(self, name, tuple(values))  # a list from YAML is stored as a tuple
        if not isinstance(self.deterministic_timing, (bool, np.bool_)):
            raise ValueError(f"deterministic_timing must be true or false, got {self.deterministic_timing!r}")
        for name in ("n_channel_trials", "threads", "base_seed"):
            check_integer(name, getattr(self, name))
        for name in ("n_irs_values", "n_e_values"):
            check_integer(name, *getattr(self, name))
        for name in ("powers_dbm", "irs_y_values"):
            check_real(name, *getattr(self, name))
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.n_channel_trials < 1:
            raise ValueError("n_channel_trials must be >= 1")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        for m in self.combinations:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {ALL_METHODS}")
        if not self.combinations:
            raise ValueError("combinations must be non-empty")
        for gp in self.grid_points():
            self.config_at(gp)  # SystemConfig's own checks, at load rather than mid-campaign

    def grid_points(self) -> list[dict]:
        cfg = self.system
        powers = self.powers_dbm or (10.0 * math.log10(cfg.p_total),)
        n_irs = self.n_irs_values or (cfg.n_irs,)
        n_e = self.n_e_values or (cfg.n_e,)
        irs_y = self.irs_y_values or (cfg.geometry.irs[1],)
        return [
            {"power_dbm": float(p), "n_irs": int(n), "n_e": int(ne), "irs_y": float(y)}
            for p in powers
            for n in n_irs
            for ne in n_e
            for y in irs_y
        ]

    def config_at(self, gp: dict) -> SystemConfig:
        geo = self.system.geometry
        return replace(
            self.system,
            p_total=_dbm_to_linear("powers_dbm", gp["power_dbm"]),
            n_irs=gp["n_irs"],
            n_e=gp["n_e"],
            geometry=replace(geo, irs=(geo.irs[0], gp["irs_y"], geo.irs[2])),
        )


@dataclass
class ExperimentRecord:
    """Everything needed to reproduce one (grid point, trial) cell."""

    gp_index: int
    trial: int
    seed: int
    grid: dict
    channel_digest: str
    outputs: dict[str, MethodOutcome] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


def _method_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag))))


def run_method(method: str, cfg: SystemConfig, ch: ChannelSet, seed: int) -> MethodOutcome:
    """Run one method on one channel draw and report the achieved secrecy rate.

    Every method starts at v = 1 and the default precoder.  An IRS method
    takes one ``joint.irs_step``; a precoder method takes the BCA IRS step and
    then one ``joint.precoder_step`` at the refreshed link; a joint method
    runs ``joint_optimize``.  The reported rate is always evaluated with the
    whitening refreshed at the final v.  IRS and precoder methods keep their
    IRS step without the joint loop's revert, so an IRS method can report a
    rate below the one at v = 1: on demo 02's draw the three IRS solvers
    report 0.4621 bit against 0.4780 at v = 1, because the surrogate holds
    the whitening fixed.  The joint methods revert such a step.
    """
    tic = time.perf_counter()
    p0 = HybridPrecoder.default_init(cfg)
    if method == "random_phase":
        v = IrsPhaseVector.random(cfg.n_irs, _method_rng(seed, 0x0BA5E)).v
        sr = approx_secrecy_rate(cfg, link_state(cfg, ch, v)[3], v, p0).r_approx
        out = MethodOutcome(sr, 0, 0.0, flop_estimates(cfg, method).count)
    elif method in IRS_SOLVERS + PRECODER_SOLVERS:
        v0 = np.ones(cfg.n_irs, dtype=complex)
        irs_method = method if method in IRS_SOLVERS else "irs_bca"
        res, wch = irs_step(cfg, irs_method, link_state(cfg, ch, v0)[3], v0, p0, ch, seed,
                            admm_settings=CAMPAIGN_ADMM)
        if method in IRS_SOLVERS:
            sr = approx_secrecy_rate(cfg, wch, res.v.v, p0).r_approx
        else:
            res, sr = precoder_step(method, build_precoder_quadratics(cfg, wch, res.v.v), p0)
        out = MethodOutcome(sr, res.iterations, 0.0,
                            flop_estimates(cfg, method, iterations=res.iterations).count)
    elif method in JOINT_METHODS:
        combo = method.split("_", 1)[1]
        res = joint_optimize(cfg, ch, combo, seed=seed)
        irs_name, pre_name = NAMED_COMBINATIONS[combo]
        flops = sum(
            flop_estimates(cfg, irs_name, iterations=t.irs_iterations).count
            + flop_estimates(cfg, pre_name, iterations=t.precoder_iterations).count
            for t in res.trace
        )
        out = MethodOutcome(res.objective, len(res.trace), 0.0,
                            flops, trace=[t.objective for t in res.trace])
    else:
        raise ValueError(f"unknown method {method!r}")
    out.wall_ms = (time.perf_counter() - tic) * 1e3
    return out


def _run_cell(spec: ExperimentSpec, gp_index: int, gp: dict, trial: int) -> ExperimentRecord:
    seed = spec.base_seed + trial
    cfg = spec.config_at(gp)
    ch = draw_channels(cfg, seed)
    record = ExperimentRecord(
        gp_index=gp_index,
        trial=trial,
        seed=seed,
        grid=dict(gp),
        channel_digest=channel_digest(ch),
    )
    for method in spec.combinations:
        try:
            outcome = run_method(method, cfg, ch, seed)
            if spec.deterministic_timing:
                outcome.wall_ms = 0.0
            record.outputs[method] = outcome
        except Exception as exc:  # noqa: BLE001 - campaign must keep going
            record.errors[method] = f"{type(exc).__name__}: {exc}"
    return record


def _cell_worker(args) -> ExperimentRecord:
    return _run_cell(*args)


def run_experiment(spec: ExperimentSpec) -> tuple[list[ExperimentRecord], dict]:
    """Execute the campaign and return (records, summary).

    Trials are independent and may run on a process pool; records are folded
    in sorted (grid point, trial) order so aggregates and emitted files do not
    depend on the worker count.  Per-cell failures are recorded and the
    campaign continues.
    """
    grid = spec.grid_points()
    tasks = [
        (spec, gp_index, gp, trial)
        for gp_index, gp in enumerate(grid)
        for trial in range(spec.n_channel_trials)
    ]
    if spec.threads > 1:
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            records = list(pool.map(_cell_worker, tasks, chunksize=4))
    else:
        records = [_run_cell(*t) for t in tasks]
    records.sort(key=lambda r: (r.gp_index, r.trial))
    summary = summarize(spec, records)
    if spec.output_path:
        write_outputs(spec, records, summary)
    return records, summary


def summarize(spec: ExperimentSpec, records: list[ExperimentRecord]) -> dict:
    grid = spec.grid_points()
    aggregates = []
    cdf = {}
    convergence = {}
    n_cells = 0
    n_failures = 0
    for gp_index, gp in enumerate(grid):
        cell_records = [r for r in records if r.gp_index == gp_index]
        for method in spec.combinations:
            n_cells += len(cell_records)
            srs = np.array([
                r.outputs[method].sr_bits for r in cell_records if method in r.outputs
            ])
            n_failures += sum(1 for r in cell_records if method in r.errors)
            entry = {
                "grid": gp,
                "method": method,
                "n_ok": int(len(srs)),
                "mean_sr": float(np.mean(srs)) if len(srs) else None,
                "std_err": float(np.std(srs, ddof=1) / np.sqrt(len(srs))) if len(srs) > 1 else None,
                "mean_iterations": float(np.mean([
                    r.outputs[method].iterations for r in cell_records if method in r.outputs
                ])) if len(srs) else None,
            }
            aggregates.append(entry)
            if spec.kind == "cdf" and len(srs):
                qs = np.linspace(0.05, 0.95, 19)
                cdf[f"gp{gp_index}:{method}"] = {
                    "grid": gp,
                    "method": method,
                    "quantiles": {f"{q:.2f}": float(np.quantile(srs, q)) for q in qs},
                }
            if spec.kind == "convergence":
                convergence[f"gp{gp_index}:{method}"] = {
                    "grid": gp,
                    "method": method,
                    "traces": [
                        r.outputs[method].trace for r in cell_records
                        if method in r.outputs and r.outputs[method].trace is not None
                    ],
                }
    failure_fraction = n_failures / max(n_cells, 1)
    summary = {
        "kind": spec.kind,
        "base_seed": spec.base_seed,
        "n_channel_trials": spec.n_channel_trials,
        "combinations": list(spec.combinations),
        "grid": grid,
        "system": _config_echo(spec.system),
        "aggregates": aggregates,
        "failure_fraction": failure_fraction,
        "failures": [
            {"gp_index": r.gp_index, "trial": r.trial, "method": m, "error": e}
            for r in records for m, e in r.errors.items()
        ],
    }
    if cdf:
        summary["cdf"] = cdf
    if convergence:
        summary["convergence"] = convergence
    return summary


def _config_echo(cfg: SystemConfig) -> dict:
    echo = asdict(cfg)
    echo["geometry"] = asdict(cfg.geometry)
    return echo


def records_to_csv(records: list[ExperimentRecord], combinations: tuple[str, ...]) -> str:
    """Deterministic CSV text (LF endings, repr-formatted floats)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        for method in combinations:
            if method not in r.outputs:
                continue
            o = r.outputs[method]
            writer.writerow([
                r.trial,
                repr(r.grid["power_dbm"]),
                r.grid["n_irs"],
                r.grid["n_e"],
                repr(r.grid["irs_y"]),
                method,
                repr(float(o.sr_bits)),
                o.iterations,
                repr(float(o.wall_ms)),
                repr(float(o.flops)),
            ])
    return buf.getvalue()


def write_outputs(spec: ExperimentSpec, records: list[ExperimentRecord], summary: dict) -> tuple[str, str]:
    """Write <output_path>.csv and <output_path>.json; returns the two paths."""
    base = spec.output_path
    csv_path, json_path = f"{base}.csv", f"{base}.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records, spec.combinations))
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _geometry_from_dict(geo) -> Geometry:
    """A Geometry from a config-file ``geometry`` section, naming the field a bad entry sits in."""
    if not isinstance(geo, dict):
        raise ValueError(f"geometry must be a mapping of terminal names to coordinates, got {geo!r}")
    terminals = [f.name for f in fields(Geometry)]
    unknown = sorted(set(geo) - set(terminals))
    if unknown:
        raise ValueError(f"unknown geometry terminals: {unknown}; choose from {terminals}")
    coords = {}
    for name, xyz in geo.items():
        try:
            coords[name] = tuple(float(x) for x in xyz)
        except (TypeError, ValueError):
            raise ValueError(f"geometry {name} must be 3 finite coordinates, got {xyz!r}") from None
    return Geometry(**coords)


def _dbm_to_linear(name: str, value) -> float:
    """The linear value of a dBm config entry, with a ValueError naming ``name`` when either is not finite."""
    check_real(name, value)
    try:
        return db_to_linear(value)
    except OverflowError:
        raise ValueError(f"{name} = {value!r} dBm is out of range: its linear value overflows a float") from None


def system_config_from_dict(raw: dict) -> SystemConfig:
    """Build a SystemConfig from a config-file section.

    Powers may be given linear (``p_total``, ``sigma_b2``, ``sigma_e2`` in mW)
    or in dBm via the ``*_dbm`` variants; dBm wins when both are present.
    """
    data = dict(raw)
    for lin_key in ("p_total", "sigma_b2", "sigma_e2"):
        dbm_key = f"{lin_key}_dbm"
        if dbm_key in data:
            data[lin_key] = _dbm_to_linear(dbm_key, data.pop(dbm_key))
    if "geometry" in data:
        data["geometry"] = _geometry_from_dict(data["geometry"])
    defaults = SystemConfig()
    unknown = set(data) - set(asdict(defaults))
    if unknown:
        raise ValueError(f"unknown system fields: {sorted(unknown)}")
    return replace(defaults, **data)


def experiment_spec_from_dict(raw: dict, system: SystemConfig) -> ExperimentSpec:
    return ExperimentSpec(system=system, **raw)


def load_config(path: str) -> ExperimentSpec:
    """Parse a YAML campaign config with ``system`` and ``experiment`` sections."""
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict) or "experiment" not in raw:
        raise ValueError(f"{path}: expected a mapping with an 'experiment' section")
    for section in ("system", "experiment"):
        if section in raw and not isinstance(raw[section], dict):
            raise ValueError(f"{path}: the '{section}' section is empty or not a mapping: "
                             f"{raw[section]!r}")
    system = system_config_from_dict(raw.get("system", {}))
    return experiment_spec_from_dict(raw["experiment"], system)
