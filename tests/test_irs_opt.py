"""Quadratic forms in v and the three IRS beamformers."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from irs_ssm import irs_opt, joint
from irs_ssm.harness import ExperimentSpec, desk_config, draw_channels, full_scale_config, run_experiment
from irs_ssm.irs_opt import (
    IrsPhaseVector,
    SdpNonConvergence,
    build_quadratic_forms,
    irs_admm,
    irs_bca,
    irs_sdr,
    project_unit_modulus,
    sdp_unit_diag,
)
from irs_ssm.joint import IRS_SOLVERS, irs_step
from irs_ssm.model import HybridPrecoder, db_to_linear, link_state

from _oracles import grid_search_phases, sdp_unit_diag_admm, surrogate_direct
from _instances import make_instance, subnormal_beta_config


def _zero_forms(n_irs: int = 4):
    inst = make_instance(0, n_irs=n_irs)
    wch = dataclasses.replace(
        inst.wch,
        h=np.zeros_like(inst.wch.h),
        g=np.zeros_like(inst.wch.g),
        q=np.zeros_like(inst.wch.q),
        m=np.zeros_like(inst.wch.m),
    )
    return build_quadratic_forms(inst.cfg, wch, inst.p)


def _random_hermitian(rng: np.random.Generator, k: int) -> np.ndarray:
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return 0.5 * (a + a.conj().T)


def _pinned_draw_forms() -> list:
    """The IRS forms at v = 1 and the default precoder on the draws ``test_pinned_outputs`` pins."""
    forms = []
    for make, power_dbm, seed in ((desk_config, 10.0, 0), (desk_config, 10.0, 1), (desk_config, 30.0, 0),
                                  (desk_config, 30.0, 1), (full_scale_config, 0.0, 0)):
        cfg = make(p_total=db_to_linear(power_dbm))
        v = np.ones(cfg.n_irs, dtype=complex)
        wch = link_state(cfg, draw_channels(cfg, seed), v)[3]
        forms.append(build_quadratic_forms(cfg, wch, HybridPrecoder.default_init(cfg)))
    return forms


def _sdr_lifts(monkeypatch, forms: list) -> list:
    """(psi, solution) for each unit-diagonal SDP that ``irs_sdr`` solves on ``forms``."""
    seen = []
    solve = irs_opt.sdp_unit_diag

    def spy(psi):
        seen.append((psi, solve(psi)))
        return seen[-1][1]

    monkeypatch.setattr(irs_opt, "sdp_unit_diag", spy)
    for seed, qf in enumerate(forms):
        irs_sdr(qf, seed=seed)
    monkeypatch.setattr(irs_opt, "sdp_unit_diag", solve)
    return seen


class TestIrsPhaseVector:
    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            IrsPhaseVector(np.array([1.0 + 0j, 0.5 + 0j]))
        v = IrsPhaseVector.from_phases(np.array([0.0, np.pi / 3]))
        assert np.allclose(np.abs(v.v), 1.0)

    def test_non_finite_entry_is_named(self):
        # NaN compares False against any tolerance, so a bare "> tol" check would pass it
        for bad in (np.nan, np.inf, complex(np.nan, 0.0)):
            with pytest.raises(ValueError, match="non-finite"):
                IrsPhaseVector(np.array([1.0 + 0j, bad]))

    def test_reads_as_its_array(self):
        inst = make_instance(0, n_irs=6)
        pv = IrsPhaseVector(inst.v.copy())
        assert np.asarray(pv) is pv.v
        copied = np.array(pv)
        assert np.array_equal(copied, pv.v) and not np.shares_memory(copied, pv.v)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        assert qf.secrecy_rate(pv) == qf.secrecy_rate(pv.v)
        assert np.array_equal(irs_bca(qf, v0=pv).v.v, irs_bca(qf, v0=pv.v).v.v)
        assert np.array_equal(pv.v, inst.v)  # the solvers copied their start

    def test_projection_keeps_previous_phase_at_zero(self):
        keep = np.exp(1j * np.array([0.3, 1.2, 2.5, 0.9, 2.2]))
        tiny = np.finfo(float).tiny
        # a subnormal modulus counts as zero: 1/|z| would overflow into inf+infj and then NaN
        z = np.array([2.0 + 0j, 0.0 + 0j, -1j, 5e-324 + 5e-324j, -tiny + 0j])
        out = project_unit_modulus(z, keep)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == keep[1]
        assert out[2] == pytest.approx(-1j)
        assert out[3] == keep[3]
        assert out[4] == -1.0  # the smallest normal modulus is divided as is


class TestQuadraticForms:
    def test_zero_irs_incident_channel(self):
        inst = make_instance(0, n_irs=5)
        wch = dataclasses.replace(inst.wch, f=np.zeros_like(inst.wch.f))
        qf = build_quadratic_forms(inst.cfg, wch, inst.p)
        assert np.allclose(qf.phi_b, 0) and np.allclose(qf.phi_e, 0)
        assert np.allclose(qf.delta, 0)
        rng = np.random.default_rng(0)
        vals = [
            qf.surrogate_value(np.exp(1j * rng.uniform(0, 2 * np.pi, 5))) for _ in range(5)
        ]
        assert np.ptp(vals) < 1e-9 * max(1.0, abs(vals[0]))  # constant in v

    def test_surrogate_matches_direct_norms(self):
        inst = make_instance(7, n_rf=1, n_k=2, n_irs=2, m_ary=2, power_dbm=15.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            direct = surrogate_direct(inst.cfg, inst.wch, inst.p.p, v)
            assert qf.surrogate_value(v) == pytest.approx(direct, abs=1e-8 * max(1, abs(direct)))

    def test_phi_hermitian_psd(self):
        for seed in range(5):
            inst = make_instance(seed, n_irs=6, power_dbm=20.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            for phi in (qf.phi_b, qf.phi_e):
                assert np.linalg.norm(phi - phi.conj().T) < 1e-10 * max(1, np.linalg.norm(phi))
                assert np.linalg.eigvalsh(phi)[0] > -1e-10 * max(1, np.linalg.norm(phi))

    def test_non_finite_precoder_is_named(self):
        inst = make_instance(0)
        p = inst.p.p.copy()
        p[1] = np.nan
        with pytest.raises(ValueError, match="precoder p contains non-finite"):
            build_quadratic_forms(inst.cfg, inst.wch, p)
        # every IRS solver reads the forms, so none returns a NaN v or surrogate
        for method in IRS_SOLVERS:
            with pytest.raises(ValueError, match="precoder p contains non-finite"):
                irs_step(inst.cfg, method, inst.wch, inst.v, p, inst.ch, 0)

    def test_wrong_length_precoder_is_named(self):
        inst = make_instance(0)
        p = np.full(2 * inst.cfg.n_tx, 0.5, dtype=complex)
        with pytest.raises(ValueError, match=r"expected \(4,\): n_rf \* n_k = 2 \* 2"):
            build_quadratic_forms(inst.cfg, inst.wch, p)


def _no_work(*args, **kwargs):
    raise AssertionError("solver work began before v0 was checked")


@pytest.mark.parametrize(
    "make_v0, cause",
    [
        (lambda n: np.full(n, 0.5 + 0j), "unit modulus"),
        (lambda n: np.full(n, np.nan + 0j), "non-finite"),
        (lambda n: np.ones(n + 1, dtype=complex), r"expected \(n_irs,\) = \(6,\)"),
    ],
    ids=["off-modulus", "non-finite", "wrong-length"],
)
def test_bad_v0_fails_before_any_work(monkeypatch, make_v0, cause):
    inst = make_instance(1)
    qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
    monkeypatch.setattr(irs_opt.QuadraticForms, "surrogate_value", _no_work)
    monkeypatch.setattr(joint, "link_state", _no_work)
    v0 = make_v0(inst.cfg.n_irs)
    for run in (irs_bca, irs_admm):
        with pytest.raises(ValueError, match=cause):
            run(qf, v0=v0)
    with pytest.raises(ValueError, match=cause):
        joint.joint_optimize(inst.cfg, inst.ch, "I", v0=v0)


def test_v0_reads_as_a_phase_vector():
    inst = make_instance(1)
    qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
    for run in (irs_bca, irs_admm):
        got, want = run(qf, v0=IrsPhaseVector(inst.v)), run(qf, v0=inst.v)
        assert got.v.v.tobytes() == want.v.v.tobytes()
        assert got.trace == want.trace


class TestBca:
    def test_single_element_closed_form(self):
        inst = make_instance(3, n_rf=2, n_k=2, n_irs=1, m_ary=2, power_dbm=15.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        delta = qf.delta[0]
        assert abs(delta) > 0
        res = irs_bca(qf, v0=np.ones(1, dtype=complex))
        assert res.v.v[0] == pytest.approx(np.conj(delta) / abs(delta), abs=1e-12)

    def test_degenerate_guard_keeps_phase(self):
        qf = _zero_forms(4)
        v0 = np.exp(1j * np.array([0.1, 0.7, 1.9, 3.0]))
        res = irs_bca(qf, v0=v0)
        assert np.allclose(res.v.v, v0)

    def test_subnormal_numerators_keep_their_phase(self):
        # every update numerator is subnormal here, where c / |c| would overflow into a NaN v
        cfg = subnormal_beta_config()
        ch = draw_channels(cfg, 2)
        v0 = np.ones(cfg.n_irs, dtype=complex)
        p0 = HybridPrecoder.default_init(cfg)
        qf = build_quadratic_forms(cfg, link_state(cfg, ch, v0)[3], p0)
        assert 0.0 < np.max(np.abs(qf.delta)) < np.finfo(float).tiny
        res = irs_bca(qf, v0=v0)
        assert np.array_equal(res.v.v, v0)
        assert np.all(np.isfinite(res.trace))

    def test_monotone_per_element(self):
        for seed in range(6):
            inst = make_instance(seed, n_irs=6, power_dbm=20.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            res = irs_bca(qf, trace_elements=True)
            trace = np.array(res.trace)
            assert np.all(np.diff(trace) >= -1e-10 * np.maximum(1, np.abs(trace[:-1])))

    def test_grid_optimality_n3(self):
        for seed in range(3):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=3, m_ary=2, power_dbm=15.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            opt, _ = grid_search_phases(qf.surrogate_values, 3, n_points=180)
            res = irs_bca(qf)
            assert res.surrogate_value >= opt - 0.05 * abs(opt)


class TestAdmm:
    def test_flat_objective_returns_start(self):
        qf = _zero_forms(4)
        v0 = np.exp(1j * np.array([0.2, 0.9, 1.4, 2.2]))
        res = irs_admm(qf, v0=v0)
        assert np.allclose(res.v.v, v0)
        assert res.converged

    def test_never_below_start(self):
        for seed in range(8):
            inst = make_instance(seed, n_irs=8, power_dbm=20.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            v0 = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, 8))
            res = irs_admm(qf, v0=v0)
            assert res.surrogate_value >= qf.surrogate_value(v0) - 1e-8
            assert np.max(np.abs(np.abs(res.v.v) - 1)) < 1e-9

    def test_primal_residual_small_when_converged(self):
        inst = make_instance(2, n_irs=6, power_dbm=20.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        res = irs_admm(qf, tol=1e-4, max_iters=100, inner_max=300)
        if res.converged:
            assert res.extras["primal_residual"] <= 1e-4

    def test_grid_optimality_n3(self):
        for seed in range(3):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=3, m_ary=2, power_dbm=15.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            opt, _ = grid_search_phases(qf.surrogate_values, 3, n_points=180)
            res = irs_admm(qf, tol=1e-6, max_iters=200, inner_max=300)
            assert res.surrogate_value >= opt - 0.02 * abs(opt)


class TestSdpUnitDiag:
    def test_identity_objective(self):
        sol = sdp_unit_diag(np.eye(5, dtype=complex))
        assert sol.value == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(np.diag(sol.q).real, 1.0, atol=1e-9)

    def test_diagonal_objective_equals_diagonal_sum(self):
        # with a diagonal psi the unit-diagonal constraint fixes the value
        for pattern in ([1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, -1]):
            psi = np.diag(np.array(pattern, dtype=complex))
            sol = sdp_unit_diag(psi)
            assert sol.value == pytest.approx(float(sum(pattern)), abs=1e-8)

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            psi = 0.5 * (a + a.conj().T)
            sol = sdp_unit_diag(psi)
            _, oracle_val = sdp_unit_diag_admm(psi, n_iters=6000)
            assert sol.value == pytest.approx(oracle_val, rel=1e-4)

    def test_feasibility(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        sol = sdp_unit_diag(0.5 * (a + a.conj().T))
        assert np.max(np.abs(np.diag(sol.q).real - 1.0)) < 1e-6
        assert np.linalg.eigvalsh(sol.q)[0] > -1e-6

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            sdp_unit_diag(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))

    def test_zero_matrix(self):
        sol = sdp_unit_diag(np.zeros((4, 4), dtype=complex))
        assert sol.value == 0.0
        assert np.allclose(np.diag(sol.q).real, 1.0)

    def test_sweep_cap_raises_non_convergence(self, monkeypatch):
        monkeypatch.setattr(irs_opt, "SDP_MAX_SWEEPS", 1)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        psi = 0.5 * (a + a.conj().T)
        with pytest.raises(SdpNonConvergence) as info:
            sdp_unit_diag(psi)
        err = info.value
        assert err.residual > irs_opt.SDP_TOL * max(1.0, float(np.linalg.norm(psi, "fro")))
        assert err.q.shape == (8, 8)
        assert np.allclose(np.diag(err.q).real, 1.0)
        assert err.value == pytest.approx(float(np.trace(psi @ err.q).real))

    def test_non_convergence_is_a_recorded_campaign_failure(self, monkeypatch):
        monkeypatch.setattr(irs_opt, "SDP_MAX_SWEEPS", 1)
        spec = ExperimentSpec(kind="sr_vs_power", system=desk_config(), n_channel_trials=1,
                              combinations=("irs_bca", "irs_sdr"), threads=1)
        records, summary = run_experiment(spec)
        assert set(records[0].outputs) == {"irs_bca"}
        assert [f["method"] for f in summary["failures"]] == ["irs_sdr"]
        assert summary["failures"][0]["error"].startswith("SdpNonConvergence: stationarity residual ")
        assert summary["failure_fraction"] == 0.5

    def test_certifies_the_instances_the_suite_solves(self, monkeypatch):
        # the matrices of the tests above and the SDR lifts of the pinned draws:
        # each restart loop ends on a dual certificate of global optimality
        rng12, rng5 = np.random.default_rng(12), np.random.default_rng(5)
        matrices = [np.eye(5, dtype=complex)]
        matrices += [np.diag(np.array(pattern, dtype=complex)) for pattern in ([1, 1, 1, 1], [1, -1, 1, -1])]
        matrices += [_random_hermitian(rng12, 4) for _ in range(3)] + [_random_hermitian(rng5, 8)]
        for psi in matrices:
            assert sdp_unit_diag(psi).certified
        lifts = _sdr_lifts(monkeypatch, _pinned_draw_forms())
        assert len(lifts) == 5
        for psi, sol in lifts:
            assert sol.certified and sol.restarts_used == 1
            assert sol.residual <= irs_opt.SDP_TOL * max(1.0, float(np.linalg.norm(psi, "fro")))


class TestBmAscent:
    """The row sweep of the SDP core, ``irs_opt._bm_ascent``."""

    @staticmethod
    def _instances(monkeypatch) -> list:
        forms = _pinned_draw_forms()
        lifts = [psi for psi, _ in _sdr_lifts(monkeypatch, [forms[2], forms[4]])]  # desk 30 dBm, full 0 dBm
        rng = np.random.default_rng(5)
        return [_random_hermitian(rng, 8), _random_hermitian(rng, 17)] + lifts

    @staticmethod
    def _start(psi: np.ndarray) -> np.ndarray:
        k = len(psi)
        rank = math.ceil(math.sqrt(2 * k))
        rng = np.random.default_rng(k)
        return irs_opt._row_normalize(rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank)))

    def test_the_objective_never_decreases_from_sweep_to_sweep(self, monkeypatch):
        for psi in self._instances(monkeypatch):
            y0 = self._start(psi)
            # with tol_abs = 0 every call runs exactly its sweep cap from the same start
            values = [float(np.trace(y0.conj().T @ psi @ y0).real)]
            values += [irs_opt._bm_ascent(psi, y0.copy(), 0.0, sweeps)[1] for sweeps in range(1, 9)]
            slack = 1e-12 * max(1.0, float(np.linalg.norm(psi, "fro")))
            assert all(b >= a - slack for a, b in zip(values, values[1:]))
            assert values[-1] > values[0]

    def test_returns_the_value_and_residual_of_its_factor(self, monkeypatch):
        for psi in self._instances(monkeypatch):
            scale = max(1.0, float(np.linalg.norm(psi, "fro")))
            tol_abs = irs_opt.SDP_TOL * scale
            for sweeps in (1, 2, irs_opt.SDP_MAX_SWEEPS):
                y, value, residual = irs_opt._bm_ascent(psi, self._start(psi), tol_abs, sweeps)
                assert np.allclose(np.linalg.norm(y, axis=1), 1.0, rtol=0.0, atol=1e-12)
                g = psi @ y
                assert value == pytest.approx(float(np.trace(y.conj().T @ g).real), rel=0.0, abs=1e-12 * scale)
                inner = np.real(np.einsum("kr,kr->k", y.conj(), g))  # Re diag(Y^H psi Y)
                riemannian = float(np.linalg.norm(g - inner[:, None] * y))
                assert residual == pytest.approx(riemannian, rel=1e-9, abs=1e-12 * scale)
            assert residual <= tol_abs  # the uncapped call stops at the tolerance


class TestSdr:
    def test_flat_objective_returns_constant_surrogate(self):
        qf = _zero_forms(4)
        res = irs_sdr(qf, seed=0)
        assert res.surrogate_value == pytest.approx(qf.c_const, abs=1e-9)
        assert np.max(np.abs(np.abs(res.v.v) - 1)) < 1e-9

    def test_relaxation_dominates_random_vectors(self):
        inst = make_instance(4, n_irs=6, power_dbm=20.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        res = irs_sdr(qf, seed=2)
        bound = res.extras["sdp_bound"]
        rng = np.random.default_rng(8)
        vs = np.exp(1j * rng.uniform(0, 2 * np.pi, (1000, 6)))
        values = qf.surrogate_values(vs)
        assert bound >= np.max(values) - 1e-6 * max(1.0, abs(bound))

    def test_grid_optimality_and_bound_n3(self):
        for seed in range(3):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=3, m_ary=2, power_dbm=15.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            opt, _ = grid_search_phases(qf.surrogate_values, 3, n_points=180)
            res = irs_sdr(qf, seed=seed)
            assert res.surrogate_value >= opt - 0.02 * abs(opt)
            assert res.extras["sdp_bound"] >= opt - 1e-6 * max(1.0, abs(opt))

    def test_deterministic_per_seed(self):
        inst = make_instance(5, n_irs=5, power_dbm=20.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        a = irs_sdr(qf, seed=3)
        b = irs_sdr(qf, seed=3)
        assert np.array_equal(a.v.v, b.v.v)

    def test_pick_ignores_rounding_noise_in_phi(self):
        # the SDP is tight at rank one on this draw: all 200 samples round to one v
        # to 1e-9, so a bare argmax picks among them by the last bits of phi
        cfg = desk_config(p_total=db_to_linear(30.0))
        v0 = np.ones(cfg.n_irs, dtype=complex)
        wch = link_state(cfg, draw_channels(cfg, 0), v0)[3]
        qf = build_quadratic_forms(cfg, wch, HybridPrecoder.default_init(cfg))
        ref = irs_sdr(qf, seed=0).v.v
        rng = np.random.default_rng(0)
        for _ in range(5):
            noise = rng.standard_normal(qf.phi.shape) + 1j * rng.standard_normal(qf.phi.shape)
            noise = 0.5 * (noise + noise.conj().T)
            phi = qf.phi + (1e-15 * np.linalg.norm(qf.phi) / np.linalg.norm(noise)) * noise
            got = irs_sdr(dataclasses.replace(qf, phi=phi), seed=0).v.v
            assert np.max(np.abs(got - ref)) <= 1e-12


class TestSurrogateAgainstTruth:
    def test_ranking_correlation(self):
        # surrogate-based ranking must track the true cut-off objective
        for seed in (3, 4):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=8, m_ary=2, power_dbm=20.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            rng = np.random.default_rng(seed)
            vs = np.exp(1j * rng.uniform(0, 2 * np.pi, (200, 8)))
            sur = qf.surrogate_values(vs)
            true = np.array([qf.secrecy_rate(v) for v in vs])
            rho = spearmanr(sur, true).statistic
            assert rho >= 0.8
