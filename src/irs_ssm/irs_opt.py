"""IRS phase-shift optimizers for the secrecy-rate surrogate.

With the precoder held fixed, every pairwise exponent term is a quadratic in
the reflection vector v,

    ||W D p||^2 = v^H B v + 2 Re{A^H C v} + ||A||^2,

so the Jensen-style surrogate of the secrecy objective collapses to

    v^H (Phi_B - Phi_E) v + 2 Re{(D - D') v} + C

with Phi_B, Phi_E positive semidefinite Gram aggregates.  They are sums over
all ordered hypothesis pairs with unit weights, and for row stacks x, y

    sum_{m,n} (x_m - x_n)^H (y_m - y_n) = 2K sum_m x_m^H y_m - 2 (sum_m x_m)^H (sum_m y_m).

Hypothesis (i, j) sends M-PSK symbol s_j on subarray i, so each response is
s_j times a subarray response (``rates.subarray_responses``).  The PSK
symbols sum to zero, sum_j s_j = 0, so the second term vanishes, and
|s_j| = 1 leaves 2KM sum_i x_i^H y_i over the n_rf subarray responses: the
forms are built from those, for Bob and Eve at once on the leading axis of
``rates.receiver_stack``, and no per-hypothesis stack is formed.  The forms
also evaluate the rate at a candidate v: ``rates.approx_secrecy_rate`` with
the whitening held where the forms were built.

Three maximizers of that surrogate over the unit-modulus constraint set live
here: a DC-linearized ADMM, a cyclic per-element block coordinate ascent with
a closed-form update, and a semidefinite relaxation with Gaussian
randomization rounding backed by an in-house unit-diagonal SDP solver
(low-rank factorized ascent).  Each returns v and its surrogate value; the
callers score v with the whitening refreshed at v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import LOG2E, HybridPrecoder, SystemConfig, WhitenedChannels
from .rates import approx_secrecy_rate, receiver_stack, subarray_channels, subarray_responses

# Solver settings no caller varies, read at call time.
BCA_TOL = 1e-7  # stop once a sweep gains at most this, relative to max(1, |value|)
BCA_MAX_SWEEPS = 100
SDP_TOL = 1e-6  # stationarity tolerance of the SDP core, relative to max(1, ||psi||_F)
SDP_RESTARTS = 5
SDP_MAX_SWEEPS = 5000  # row-coordinate sweeps per restart
SDP_SEED = 0
SDR_RANDOMIZATIONS = 200  # Gaussian samples drawn from the SDP solution
# a numerator below the smallest normal float has no usable phase: 1/|z| overflows
TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class IrsPhaseVector:
    """N unit-modulus reflection coefficients."""

    v: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.v)):
            raise ValueError("reflection coefficients contain non-finite entries")
        if not np.max(np.abs(np.abs(self.v) - 1.0)) <= 1e-9:
            raise ValueError("reflection coefficients must have unit modulus")

    def __len__(self) -> int:
        return len(self.v)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The coefficient vector v, so ``np.asarray`` reads a phase vector as its array (NumPy 1 or 2)."""
        return np.array(self.v, dtype=dtype) if copy else np.asarray(self.v, dtype=dtype)

    @classmethod
    def from_phases(cls, theta: np.ndarray) -> "IrsPhaseVector":
        return cls(np.exp(1j * np.asarray(theta, dtype=float)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "IrsPhaseVector":
        return cls.from_phases(rng.uniform(0.0, 2.0 * np.pi, size=n))


def initial_phases(v0: IrsPhaseVector | np.ndarray | None, n_irs: int) -> np.ndarray:
    """A fresh complex copy of v0, all ones when None, read through ``IrsPhaseVector``.

    A v0 of the wrong length, off unit modulus or non-finite fails here,
    naming the cause, before a solver spends any work on it.
    """
    if v0 is None:
        return np.ones(n_irs, dtype=complex)
    v = np.array(v0, dtype=complex)
    if v.shape != (n_irs,):
        raise ValueError(f"v0 has shape {v.shape}, expected (n_irs,) = ({n_irs},)")
    return IrsPhaseVector(v).v


@dataclass(frozen=True)
class QuadraticForms:
    """Quadratic-form reduction of the secrecy objective in v, for a fixed p.

    The surrogate is v^H phi v + 2 Re{delta v} + c_const with
    phi = phi_b - phi_e and delta = D - D'.  Each all-ones pair sum over the
    K = n_rf M hypotheses is 2KM times a sum over the subarray responses
    u_i = W_i p_i alone: sum_j s_j = 0 cancels the cross term and |s_j| = 1
    drops the symbols (see the module docstring).  With f_i the
    IRS-incident and a_i the direct responses, C the cascaded channel and
    s = 2KM tau log2(e), per receiver

        Phi = s (C^H C) .* sum_i conj(f_i) f_i^T,
        D = s sum_i (a_i^H C) .* f_i,
        c = s sum_i ||a_i||^2.

    The config, the whitened channels and p they were built from keep the
    rate evaluable from the same object, through ``rates.approx_secrecy_rate``.
    """

    phi_b: np.ndarray
    phi_e: np.ndarray
    phi: np.ndarray  # Hermitian, phi_b - phi_e
    delta: np.ndarray  # row vector D - D'
    c_const: float
    cfg: SystemConfig = field(repr=False)
    wch: WhitenedChannels = field(repr=False)
    p: np.ndarray = field(repr=False)  # stacked precoder the forms were built at

    @property
    def n_irs(self) -> int:
        return self.cfg.n_irs

    def surrogate_value(self, v: IrsPhaseVector | np.ndarray) -> float:
        vv = np.asarray(v)
        quad = np.vdot(vv, self.phi @ vv).real
        lin = 2.0 * np.real(np.dot(self.delta, vv))
        return float(quad + lin + self.c_const)

    def surrogate_values(self, v_batch: np.ndarray) -> np.ndarray:
        """Surrogate at each row of an (S, N) batch."""
        quad = np.einsum("si,si->s", np.conj(v_batch) @ self.phi, v_batch).real
        lin = 2.0 * np.real(v_batch @ self.delta)
        return quad + lin + self.c_const

    def secrecy_rate(self, v: IrsPhaseVector | np.ndarray) -> float:
        """Approximate secrecy rate log2 kappa_E - log2 kappa_B at v and this p.

        Evaluated on the whitened channels the forms were built from: the
        whitening stays fixed at the v it was computed for, so away from that
        v this is not the rate of the link refreshed at v.
        """
        return approx_secrecy_rate(self.cfg, self.wch, np.asarray(v), self.p).r_approx


def build_quadratic_forms(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    p: HybridPrecoder | np.ndarray,
) -> QuadraticForms:
    """Assemble the aggregate quadratic forms in v from the subarray responses.

    f_i = F_i p_i is the IRS-incident response of subarray i and a_i its
    whitened direct response; ``QuadraticForms`` gives the three sums.  Bob
    and Eve share one expression per quantity: the direct channels (H~, Q~)
    and the cascaded ones (G~, M~) sit on the leading axis of
    ``rates.receiver_stack``, Bob first, the smaller receiver zero-padded,
    as in the precoder layer.  Every IRS solver reads its input from these
    forms, so a non-finite p is rejected here, naming the cause, rather than
    turning into a NaN v or surrogate downstream.
    """
    pvec = np.asarray(p)
    if not np.all(np.isfinite(pvec)):
        raise ValueError("precoder p contains non-finite entries")
    cascade = receiver_stack(wch.g, wch.m)  # (2, n_r, N)
    a = subarray_responses(subarray_channels(receiver_stack(wch.h, wch.q), cfg.n_rf), pvec)  # (2, n_rf, n_r)
    f = subarray_responses(subarray_channels(wch.f, cfg.n_rf), pvec)  # (n_rf, N)

    scale = 2.0 * cfg.n_hyp * cfg.m_ary * cfg.tau * LOG2E
    phi = scale * ((np.conj(np.swapaxes(cascade, -1, -2)) @ cascade) * (f.conj().T @ f))
    phi_b, phi_e = 0.5 * (phi + np.conj(np.swapaxes(phi, -1, -2)))
    d_b, d_e = scale * np.sum((a.conj() @ cascade) * f, axis=-2)
    c_b, c_e = (np.vdot(a_rx, a_rx).real for a_rx in a)

    return QuadraticForms(
        phi_b=phi_b,
        phi_e=phi_e,
        phi=phi_b - phi_e,
        delta=d_b - d_e,
        c_const=scale * float(c_b - c_e),
        cfg=cfg,
        wch=wch,
        p=pvec,
    )


@dataclass
class BeamformerResult:
    """Outcome of one IRS solver run."""

    v: IrsPhaseVector
    converged: bool
    iterations: int
    surrogate_value: float
    trace: list[float]
    extras: dict = field(default_factory=dict)


def project_unit_modulus(z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Elementwise z / |z|, keeping the phase of ``keep`` where |z| < TINY.

    An exact zero has no phase, and below the smallest normal float 1/|z|
    overflows, so both keep the previous phase; every normal z is divided
    as is.
    """
    mag = np.abs(z)
    out = keep.copy()
    nz = mag >= TINY
    out[nz] = z[nz] / mag[nz]
    return out


def irs_bca(
    qf: QuadraticForms,
    v0: IrsPhaseVector | np.ndarray | None = None,
    trace_elements: bool = False,
) -> BeamformerResult:
    """Cyclic block coordinate ascent with the closed-form per-element update.

    Element n maximizes its own term exactly, so the surrogate never decreases
    across updates.  An update numerator below TINY in modulus (zero or
    subnormal, as in ``project_unit_modulus``) keeps the previous phase.  Stops
    when a full sweep improves the surrogate by at most
    BCA_TOL * max(1, |value|), or after BCA_MAX_SWEEPS sweeps.
    """
    phi, delta = qf.phi, qf.delta
    n = qf.n_irs
    v = initial_phases(v0, n)
    w = phi @ v
    value = qf.surrogate_value(v)
    trace = [value]
    converged = False
    sweeps = 0
    for sweeps in range(1, BCA_MAX_SWEEPS + 1):
        prev = value
        for idx in range(n):
            c = w[idx] - phi[idx, idx] * v[idx] + np.conj(delta[idx])
            mag = abs(c)
            if mag < TINY:
                if trace_elements:
                    trace.append(qf.surrogate_value(v))
                continue
            new = c / mag
            if new != v[idx]:
                w += phi[:, idx] * (new - v[idx])
                v[idx] = new
            if trace_elements:
                trace.append(qf.surrogate_value(v))
        value = qf.surrogate_value(v)
        if not trace_elements:
            trace.append(value)
        if value - prev <= BCA_TOL * max(1.0, abs(value)):
            converged = True
            break
    return BeamformerResult(
        v=IrsPhaseVector(v),
        converged=converged,
        iterations=sweeps,
        surrogate_value=value,
        trace=trace,
    )


def irs_admm(
    qf: QuadraticForms,
    v0: IrsPhaseVector | np.ndarray | None = None,
    tol: float = 0.01,
    max_iters: int = 50,
    inner_max: int = 100,
) -> BeamformerResult:
    """DC-linearized ADMM over the unit-modulus set.

    The outer loop re-linearizes the convex Bob term at the current iterate;
    the inner ADMM alternates a linear solve for the slack u, the unit-modulus
    projection for v (``project_unit_modulus``), and the dual update, with the
    scale-aware penalty rho = 2 tr(Phi_E)/N + 1.  The system 2 Phi_E + rho I
    is the same at every step, so its inverse is formed once and each solve
    is one matrix-vector product: with Phi_E >= 0 its eigenvalues lie in
    [rho, 2 tr(Phi_E) + rho] and rho > 2 tr(Phi_E)/N, so its condition number
    is below N + 1 and the explicit inverse is as accurate as a Cholesky
    solve.  Inner stop:
    ||v_k - v_{k-1}|| <= tol.  Outer stop: the change of ``qf.secrecy_rate``,
    the rate at the forms' fixed whitening, is <= tol.  Returns the
    best-surrogate iterate seen, so the result never falls below the
    starting point.
    """
    n = qf.n_irs
    v = initial_phases(v0, n)
    rho = 2.0 * float(np.trace(qf.phi_e).real) / n + 1.0
    lin = 2.0 * np.conj(qf.delta)  # 2 D^H - 2 D'^H
    system_inv = np.linalg.inv(2.0 * qf.phi_e + rho * np.eye(n))
    u = v.copy()
    lam = np.zeros(n, dtype=complex)

    best_v = v.copy()
    best_s = qf.surrogate_value(v)
    trace = [best_s]
    rate_prev = qf.secrecy_rate(v)
    converged = False
    outer = 0
    for outer in range(1, max_iters + 1):
        u_o = v.copy()
        rhs_const = 2.0 * (qf.phi_b.conj().T @ u_o) + lin
        for _ in range(inner_max):
            u = system_inv @ (rhs_const + lam + rho * v)
            v_new = project_unit_modulus(u - lam / rho, v)
            lam = lam - rho * (u - v_new)
            dv = float(np.linalg.norm(v_new - v))
            v = v_new
            if dv <= tol:
                break
        s = qf.surrogate_value(v)
        trace.append(s)
        if s > best_s:
            best_s, best_v = s, v.copy()
        rate = qf.secrecy_rate(v)
        if abs(rate - rate_prev) <= tol:
            converged = True
        rate_prev = rate
        if converged:
            break
    primal = float(np.linalg.norm(u - v))
    converged = converged and primal <= tol
    return BeamformerResult(
        v=IrsPhaseVector(best_v),
        converged=converged,
        iterations=outer,
        surrogate_value=best_s,
        trace=trace,
        extras={"primal_residual": primal},
    )


class SdpNonConvergence(RuntimeError):
    """Raised when no restart meets the stationarity residual; carries the best iterate."""

    def __init__(self, message: str, q: np.ndarray, value: float, residual: float):
        super().__init__(message)
        self.q = q
        self.value = value
        self.residual = residual


@dataclass
class SdpSolution:
    """Low-rank solution of the unit-diagonal SDP; Q = Y Y^H is formed only when read."""

    value: float
    factor: np.ndarray  # Y with Q = Y Y^H, unit-norm rows
    residual: float
    certified: bool
    restarts_used: int

    @property
    def q(self) -> np.ndarray:
        """The Hermitian solution matrix Y Y^H."""
        q = self.factor @ self.factor.conj().T
        return 0.5 * (q + q.conj().T)


def _row_normalize(y: np.ndarray) -> np.ndarray:
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def _bm_ascent(
    psi: np.ndarray, y: np.ndarray, tol_abs: float, max_sweeps: int
) -> tuple[np.ndarray, float, float]:
    """Row-coordinate maximization of tr(Y^H psi Y) over unit-norm rows.

    This is the low-rank "mixing method" (Burer & Monteiro 2003; Wang,
    Chang & Kolter 2017).  Fixing every row but k, the objective is
    2 Re{y_k^H c_k} + const with c_k = sum_{j != k} psi_kj y_j, maximized by
    aligning y_k with c_k; a row with c_k = 0 is left as it is.  Each row
    reads c_k from the current Y through psi with its diagonal zeroed, so no
    copy of psi Y is carried through the sweep.  Each sweep is monotone and
    costs O(K^2 r).  After it, G = psi Y is formed once, for the
    stationarity measure, the Riemannian gradient norm
    ||G - Re diag(Y^H G) Y|| (the diagonal taken row by row), and for the
    value Re tr(Y^H G).  At least one sweep runs; Y is updated in place and
    returned with the value and the norm at it.
    """
    off = psi.copy()
    np.fill_diagonal(off, 0.0)  # row k of off @ Y is c_k
    for _ in range(max_sweeps):
        for k, off_k in enumerate(off):
            c = off_k @ y
            nc = math.sqrt(np.vdot(c, c).real)
            if nc != 0.0:
                y[k] = c / nc
        g = psi @ y
        inner = (y.conj() * g).real.sum(axis=1)
        rnorm = float(np.linalg.norm(g - inner[:, None] * y))
        if rnorm <= tol_abs:
            break
    return y, float(inner.sum()), rnorm


def sdp_unit_diag(psi: np.ndarray) -> SdpSolution:
    """Maximize tr(psi Q) over Hermitian Q >= 0 with unit diagonal.

    Solved through the low-rank factorization Q = Y Y^H with rank
    ceil(sqrt(2K)) and unit-norm rows, driven to a stationary point by
    monotone row-coordinate sweeps (at most SDP_MAX_SWEEPS per restart);
    up to SDP_RESTARTS random restarts, seeded from SDP_SEED, guard against
    spurious stationary points and a dual certificate (Diag(mu) - psi >= 0
    at mu = Re diag(psi Q)) ends the restart loop early when global
    optimality is confirmed.  Raises ``SdpNonConvergence`` when no restart
    reaches the stationarity tolerance SDP_TOL * max(1, ||psi||_F).
    """
    psi = np.asarray(psi)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise ValueError("psi must be square")
    if np.max(np.abs(psi - psi.conj().T)) > 1e-10 * max(1.0, float(np.abs(psi).max())):
        raise ValueError("psi must be Hermitian")
    k = psi.shape[0]
    scale = float(np.linalg.norm(psi, "fro"))
    if scale == 0.0:
        return SdpSolution(value=0.0, factor=np.eye(k, dtype=complex), residual=0.0, certified=True, restarts_used=0)

    rank = math.ceil(math.sqrt(2 * k))
    tol_abs = SDP_TOL * max(1.0, scale)
    best: tuple[float, np.ndarray, float] | None = None  # (value, Y, residual)
    certified = False
    restarts = 0
    for restart in range(SDP_RESTARTS):
        restarts = restart + 1
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((SDP_SEED, restart))))
        y0 = _row_normalize(rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank)))
        y, value, residual = _bm_ascent(psi, y0, tol_abs, SDP_MAX_SWEEPS)
        if best is None or value > best[0]:
            best = (value, y, residual)
        if residual <= tol_abs:
            mu = np.real(np.sum(np.conj(y) * (psi @ y), axis=1))  # Re diag(psi Q)
            dual_gap = float(np.linalg.eigvalsh(np.diag(mu) - psi)[0])
            if dual_gap >= -tol_abs:
                certified = True
                best = (value, y, residual)
                break
    value, y, residual = best
    if residual > tol_abs:
        q = y @ y.conj().T
        raise SdpNonConvergence(
            f"stationarity residual {residual:.3e} above {tol_abs:.3e} after {restarts} restarts",
            q=q,
            value=value,
            residual=residual,
        )
    return SdpSolution(
        value=value,
        factor=y,
        residual=residual,
        certified=certified,
        restarts_used=restarts,
    )


def irs_sdr(qf: QuadraticForms, seed: int = 0) -> BeamformerResult:
    """Semidefinite relaxation with Gaussian randomization rounding.

    Lifts the surrogate to a homogeneous quadratic in (v, t), solves the
    unit-diagonal SDP, then rounds: each of SDR_RANDOMIZATIONS Gaussian
    samples with covariance Q = Y Y^H, drawn through the factor Y, is
    projected elementwise to unit modulus (``project_unit_modulus``, with
    phase 0 below TINY) and de-homogenized by the phase of its last
    coordinate.  The first sample within SDP_TOL * max(1, |best|) of the
    best surrogate wins: when the SDP is tight at rank one every sample
    rounds to the same v up to rounding, and a bare argmax would let noise
    at the level of the last bit in phi pick among them.
    """
    n = qf.n_irs
    psi = np.zeros((n + 1, n + 1), dtype=complex)
    psi[:n, :n] = qf.phi
    psi[:n, n] = np.conj(qf.delta)
    psi[n, :n] = qf.delta
    psi = 0.5 * (psi + psi.conj().T)

    sol = sdp_unit_diag(psi)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xC0FFEE))))
    rank = sol.factor.shape[1]
    shape = (SDR_RANDOMIZATIONS, rank)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    xi = w @ sol.factor.T  # samples with covariance Q
    unit = project_unit_modulus(xi, np.ones_like(xi))
    v_cands = unit[:, :n] * np.conj(unit[:, n])[:, None]
    values = qf.surrogate_values(v_cands)
    top = float(values.max())
    best = int(np.argmax(values >= top - SDP_TOL * max(1.0, abs(top))))
    return BeamformerResult(
        v=IrsPhaseVector(v_cands[best]),
        converged=True,
        iterations=1,
        surrogate_value=float(values[best]),
        trace=[float(values[best])],
        extras={"sdp_bound": sol.value + qf.c_const, "sdp_certified": sol.certified},
    )
