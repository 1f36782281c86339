"""Quadratic forms in v and the three IRS beamformers."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from irs_ssm import irs_opt
from irs_ssm.harness import ExperimentSpec, desk_config, run_experiment
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
from irs_ssm.model import LOG2E, HybridPrecoder

from _oracles import grid_search_phases, sdp_unit_diag_admm, surrogate_direct
from _instances import make_instance


def _zero_forms(n_irs: int = 4):
    inst = make_instance(0, n_irs=n_irs)
    import dataclasses

    wch = dataclasses.replace(
        inst.wch,
        h=np.zeros_like(inst.wch.h),
        g=np.zeros_like(inst.wch.g),
        q=np.zeros_like(inst.wch.q),
        m=np.zeros_like(inst.wch.m),
    )
    return build_quadratic_forms(inst.cfg, wch, inst.p)


class TestIrsPhaseVector:
    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            IrsPhaseVector(np.array([1.0 + 0j, 0.5 + 0j]))
        v = IrsPhaseVector.from_phases(np.array([0.0, np.pi / 3]))
        assert np.allclose(np.abs(v.v), 1.0)

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
        keep = np.exp(1j * np.array([0.3, 1.2, 2.5]))
        z = np.array([2.0 + 0j, 0.0 + 0j, -1j])
        out = project_unit_modulus(z, keep)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == keep[1]
        assert out[2] == pytest.approx(-1j)


class TestQuadraticForms:
    def test_zero_irs_incident_channel(self):
        inst = make_instance(0, n_irs=5)
        import dataclasses

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

    def test_diagonal_pairs_contribute_nothing(self):
        inst = make_instance(1, n_irs=4)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        off = ~np.eye(inst.cfg.n_hyp, dtype=bool)
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, inst.cfg.n_irs))
            qb, qe = qf.pair_quadratics(v)
            assert np.all(np.diag(qb) == 0.0) and np.all(np.diag(qe) == 0.0)  # the (m, m) pairs
            expect = inst.cfg.tau * LOG2E * (np.sum(qb[off]) - np.sum(qe[off]))
            assert qf.surrogate_value(v) == pytest.approx(expect, rel=1e-10)

    def test_phi_hermitian_psd(self):
        for seed in range(5):
            inst = make_instance(seed, n_irs=6, power_dbm=20.0)
            qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
            for phi in (qf.phi_b, qf.phi_e):
                assert np.linalg.norm(phi - phi.conj().T) < 1e-10 * max(1, np.linalg.norm(phi))
                assert np.linalg.eigvalsh(phi)[0] > -1e-10 * max(1, np.linalg.norm(phi))

    def test_surrogate_value_is_real_scale(self):
        inst = make_instance(2, n_irs=5, power_dbm=18.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        qb, qe = qf.pair_quadratics(inst.v)
        expect = inst.cfg.tau * LOG2E * (np.sum(qb) - np.sum(qe))
        assert qf.surrogate_value(inst.v) == pytest.approx(expect, rel=1e-10)


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


class TestSdr:
    def test_flat_objective_returns_constant_surrogate(self):
        qf = _zero_forms(4)
        res = irs_sdr(qf, n_randomizations=16, seed=0)
        assert res.surrogate_value == pytest.approx(qf.c_const, abs=1e-9)
        assert np.max(np.abs(np.abs(res.v.v) - 1)) < 1e-9

    def test_requires_randomizations(self):
        qf = _zero_forms(3)
        with pytest.raises(ValueError):
            irs_sdr(qf, n_randomizations=0)

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
