"""Precoder quadratics, the SCA and GA optimizers, and hybrid factorization."""

from dataclasses import replace

import numpy as np
import pytest

from irs_ssm import joint, precoder_opt, rates
from irs_ssm.harness import desk_config, draw_channels, full_scale_config
from irs_ssm.model import HybridPrecoder, db_to_linear, enumerate_hypotheses, link_state
from irs_ssm.precoder_opt import (
    ScaSubproblem,
    asr_sca,
    build_precoder_quadratics,
    cor_ga,
    factorize_hybrid,
    project_ball,
)

from _oracles import dense_pair_matrices, random_search_ball
from _instances import make_instance


def _quadratics(seed: int, power_dbm: float = 10.0, **kw):
    inst = make_instance(seed, n_rf=2, n_k=2, n_irs=6, m_ary=2, power_dbm=power_dbm, **kw)
    return inst, build_precoder_quadratics(inst.cfg, inst.wch, inst.v)


def _rate_batch(pq):
    def fn(points):
        return np.array([pq.secrecy_rate(p) for p in points])

    return fn


class TestPrecoderQuadratics:
    def test_diagonal_pairs_are_zero(self):
        inst, pq = _quadratics(0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx)
            for q in pq.pair_values(p):
                assert np.all(np.diag(q) == 0.0)

    def test_dense_assembly_matches_factored(self):
        inst, pq = _quadratics(1)
        hyps = enumerate_hypotheses(inst.cfg)
        b_mats = dense_pair_matrices(pq.w_b, hyps, inst.cfg.n_rf, inst.cfg.n_k)
        e_mats = dense_pair_matrices(pq.w_e, hyps, inst.cfg.n_rf, inst.cfg.n_k)
        rng = np.random.default_rng(0)
        p = rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx)
        qb, qe = pq.pair_values(p)
        k = inst.cfg.n_hyp
        for idx in (1, 5, 9, 14):
            m, n = divmod(idx, k)
            assert qb[m, n] == pytest.approx(np.vdot(p, b_mats[m, n] @ p).real, rel=1e-10)
            assert qe[m, n] == pytest.approx(np.vdot(p, e_mats[m, n] @ p).real, rel=1e-10)

    def test_hermitian_psd(self):
        inst, pq = _quadratics(2)
        hyps = enumerate_hypotheses(inst.cfg)
        rng = np.random.default_rng(2)
        p = rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx)
        for w_eff, q in zip((pq.w_b, pq.w_e), pq.pair_values(p)):
            mats = dense_pair_matrices(w_eff, hyps, inst.cfg.n_rf, inst.cfg.n_k)
            for m in mats.reshape(-1, inst.cfg.n_tx, inst.cfg.n_tx)[:8]:
                assert np.linalg.norm(m - m.conj().T) < 1e-10 * max(1, np.linalg.norm(m))
                assert np.linalg.eigvalsh(m)[0] > -1e-10 * max(1, np.linalg.norm(m))
            # the factored values are the same nonnegative, pair-symmetric quadratics
            assert np.all(q >= 0.0)
            assert np.allclose(q, q.T, rtol=1e-12, atol=0.0)

    def test_zero_channels_give_zero_rate(self):
        inst = make_instance(0, n_rf=2, n_k=2, n_irs=4, m_ary=2)
        wch = replace(
            inst.wch,
            h=np.zeros_like(inst.wch.h),
            g=np.zeros_like(inst.wch.g),
            q=np.zeros_like(inst.wch.q),
            m=np.zeros_like(inst.wch.m),
        )
        pq = build_precoder_quadratics(inst.cfg, wch, inst.v)
        rng = np.random.default_rng(1)
        for _ in range(3):
            p = rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx)
            assert pq.secrecy_rate(project_ball(p, inst.cfg.n_rf)) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        for seed in range(4):
            _, pq = _quadratics(seed, power_dbm=12.0)
            for _ in range(5):
                p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                p = project_ball(p, 2.0) * 0.9
                g = pq.gradient(p)
                d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                d /= np.linalg.norm(d)
                h = 1e-5
                fd = (pq.secrecy_rate(p + h * d) - pq.secrecy_rate(p - h * d)) / (2 * h)
                assert np.real(np.vdot(g, d)) == pytest.approx(fd, rel=1e-4, abs=1e-10)
                checked += 1
        assert checked == 20

    def test_gradient_exactly_zero_at_origin(self):
        _, pq = _quadratics(3)
        g = pq.gradient(np.zeros(4, dtype=complex))
        assert np.all(g == 0)


class _Uncached:
    """Duck-typed quadratics without the memo: the rate straight from ``rates``
    and each gradient from a new instance."""

    def __init__(self, pq, cfg):
        self.pq = pq
        self.cfg = cfg
        self.n_rf = pq.n_rf

    def secrecy_rate(self, p):
        return rates.rate_from_kappas(*rates.kappas(self.cfg, self.pq.w_b, self.pq.w_e, p))

    def gradient(self, p):
        return replace(self.pq).gradient(p)


def _desk_quadratics(seed: int):
    cfg = desk_config()
    ch = draw_channels(cfg, seed)
    v = np.ones(cfg.n_irs, dtype=complex)
    return cfg, ch, build_precoder_quadratics(cfg, link_state(cfg, ch, v)[3], v)


class TestForwardMemo:
    def test_shuffled_points_match_fresh_instances(self):
        inst, pq = _quadratics(0)
        rng = np.random.default_rng(3)
        p1, p2 = (project_ball(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0) for _ in range(2))

        def fresh():
            return build_precoder_quadratics(inst.cfg, inst.wch, inst.v)

        def same(name, p):
            got, want = getattr(pq, name)(p), getattr(fresh(), name)(p)
            if name == "secrecy_rate":
                assert float.hex(got) == float.hex(want)
            elif name == "gradient":
                assert np.array_equal(got, want)
            else:
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            return got

        names = ("secrecy_rate", "gradient", "pair_values")
        for p in (p1, p2, p1):
            for i in rng.permutation(3):
                same(names[i], p)
        before = same("secrecy_rate", p1)
        p1[0] += 0.25  # the array the memo was last keyed on, edited in place
        for name in ("gradient", "pair_values", "secrecy_rate"):
            same(name, p1)
        assert pq.secrecy_rate(p1) != before
        # a real-valued point reads the pass of its complex128 copy
        same("secrecy_rate", p1.real.astype(complex))
        same("gradient", p1.real.copy())

        pq.gradient(p2)
        direct = rates.rate_from_kappas(*rates.kappas(inst.cfg, pq.w_b, pq.w_e, p1))
        assert float.hex(pq.secrecy_rate(p1)) == float.hex(direct)

    def test_shared_arrays_are_read_only(self):
        _, pq = _quadratics(1)
        fw = pq.forward(np.ones(4, dtype=complex))
        for a in fw:
            with pytest.raises(ValueError):
                a.reshape(-1)[0] = 0.0

    def test_forward_copies_survive_later_passes(self):
        _, pq = _quadratics(2)
        rng = np.random.default_rng(5)
        p1, p2 = (project_ball(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0) for _ in range(2))
        fw, g1 = pq.forward(p1), pq.gradient(p1)
        held = [a.copy() for a in fw] + [g1.copy()]
        pq.secrecy_rate(p2)
        pq.gradient(p2)
        assert not np.array_equal(pq.forward(p2).chi, fw.chi)  # the kernel's buffers did move
        assert all(np.array_equal(a, b) for a, b in zip([*fw, g1], held))

    def test_cor_ga_runs_one_forward_pass_per_scored_point(self, monkeypatch):
        cfg, _, pq = _desk_quadratics(0)
        calls = []
        run = rates.PairKernel.run

        def counted(kernel, p):
            calls.append(kernel.w_blocks.shape)
            return run(kernel, p)

        monkeypatch.setattr(rates.PairKernel, "run", counted)
        res = cor_ga(pq, HybridPrecoder.default_init(cfg))
        accepted = len(res.trace) - 1
        assert accepted > 0 and res.iterations > 0
        # one stacked pass for both receivers at the start point and at each
        # candidate; every gradient is read at a point just scored
        assert calls == [(2, cfg.n_rf, max(cfg.n_b, cfg.n_e), cfg.n_k)] * (res.iterations + 1)

    def test_cor_ga_matches_uncached_quadratics(self):
        for seed in range(2):
            cfg, _, pq = _desk_quadratics(seed)
            p0 = HybridPrecoder.default_init(cfg)
            cached, plain = cor_ga(pq, p0), cor_ga(_Uncached(replace(pq), cfg), p0)
            assert cached.p.p.tobytes() == plain.p.p.tobytes()
            assert [float.hex(r) for r in cached.trace] == [float.hex(r) for r in plain.trace]
            assert cached.iterations == plain.iterations

    def test_cor_ga_matches_uncached_quadratics_at_full_scale(self):
        # full scale at 0 dBm runs to the step cap, so the n_rf = 8 buffers
        # are reused for every one of its steps
        cfg = full_scale_config(p_total=db_to_linear(0.0))
        v = np.ones(cfg.n_irs, dtype=complex)
        pq = build_precoder_quadratics(cfg, link_state(cfg, draw_channels(cfg, 0), v)[3], v)
        p0 = HybridPrecoder.default_init(cfg)
        cached, plain = cor_ga(pq, p0), cor_ga(_Uncached(replace(pq), cfg), p0)
        assert cached.iterations == plain.iterations == precoder_opt.GA_MAX_ITERS
        assert cached.p.p.tobytes() == plain.p.p.tobytes()
        assert [float.hex(r) for r in cached.trace] == [float.hex(r) for r in plain.trace]

    def test_joint_ii_matches_uncached_quadratics(self, monkeypatch):
        cfg, ch, _ = _desk_quadratics(1)
        cached = joint.joint_optimize(cfg, ch, "II", seed=1)
        monkeypatch.setattr(
            joint, "build_precoder_quadratics",
            lambda *args: _Uncached(build_precoder_quadratics(*args), args[0]),
        )
        plain = joint.joint_optimize(cfg, ch, "II", seed=1)
        assert cached.p_star.p.tobytes() == plain.p_star.p.tobytes()
        assert [(t.objective.hex(), t.irs_iterations, t.precoder_iterations) for t in cached.trace] == [
            (t.objective.hex(), t.irs_iterations, t.precoder_iterations) for t in plain.trace
        ]
        assert float.hex(cached.objective) == float.hex(plain.objective)


class TestScaBounds:
    def test_tight_at_expansion_point(self):
        for seed in range(50):
            _, pq = _quadratics(seed, power_dbm=12.0)
            p0 = np.full(4, 1.0, dtype=complex)
            sub = ScaSubproblem(pq, p0)
            kb0, ke0 = pq.forward(p0).kappa
            assert sub.eve_lower(p0) == pytest.approx(np.log2(ke0), abs=1e-10)
            assert sub.bob_upper(p0) == pytest.approx(np.log2(kb0), abs=1e-10)
            assert sub.value(p0) == pytest.approx(pq.secrecy_rate(p0), abs=1e-10)

    def test_bound_directions_near_expansion(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            _, pq = _quadratics(seed, power_dbm=12.0)
            p0 = project_ball(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0)
            sub = ScaSubproblem(pq, p0)
            for _ in range(100):
                step = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                p = p0 + 0.2 * step / np.linalg.norm(step)
                kb, ke = pq.forward(p).kappa
                assert sub.eve_lower(p) <= np.log2(ke) + 1e-9
                assert sub.bob_upper(p) >= np.log2(kb) - 1e-9

    def test_surrogate_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            _, pq = _quadratics(seed, power_dbm=12.0)
            p0 = project_ball(rng.standard_normal(4) + 1j * rng.standard_normal(4), 2.0)
            sub = ScaSubproblem(pq, p0)
            for _ in range(5):
                p = p0 + 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                d /= np.linalg.norm(d)
                fd = (sub.value(p + 1e-6 * d) - sub.value(p - 1e-6 * d)) / 2e-6
                assert np.real(np.vdot(sub.gradient(p), d)) == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestAsrSca:
    def test_reaches_random_search_baseline(self):
        for seed in range(3):
            inst, pq = _quadratics(seed)
            res = asr_sca(pq, HybridPrecoder.default_init(inst.cfg))
            base = random_search_ball(_rate_batch(pq), inst.cfg.n_tx, 2.0, 100_000, seed)
            assert res.secrecy_rate >= base - 0.03 * abs(base)

    def test_monotone_and_feasible(self):
        for seed in range(5):
            inst, pq = _quadratics(seed, power_dbm=15.0)
            res = asr_sca(pq, HybridPrecoder.default_init(inst.cfg))
            trace = np.array(res.trace)
            assert np.all(np.diff(trace) >= -1e-9)
            assert np.linalg.norm(res.p.p) <= inst.cfg.n_rf + 1e-9
            assert res.secrecy_rate >= trace[0] - 1e-6

    def test_rejects_infeasible_start(self):
        inst, pq = _quadratics(0)
        with pytest.raises(ValueError):
            asr_sca(pq, np.full(4, 10.0, dtype=complex))


@pytest.mark.parametrize("solver", [asr_sca, cor_ga])
def test_non_finite_start_is_named(solver):
    # NaN passes a bare "> radius" power check, and asr_sca would return a NaN rate
    _, pq = _quadratics(0)
    p0 = np.full(4, 0.5, dtype=complex)
    p0[2] = np.nan
    with pytest.raises(ValueError, match="precoder p contains non-finite"):
        solver(pq, p0)


@pytest.mark.parametrize("solver", [asr_sca, cor_ga])
def test_wrong_length_start_is_named(solver):
    # length 2 n_tx passes the power check and the multiple-of-n_rf check
    _, pq = _quadratics(0)
    with pytest.raises(ValueError, match=r"expected \(4,\): n_rf \* n_k = 2 \* 2"):
        solver(pq, np.full(8, 0.5, dtype=complex))


class TestCorGa:
    def test_zero_start_is_stationary(self):
        inst, pq = _quadratics(1)
        res = cor_ga(pq, np.zeros(4, dtype=complex))
        assert res.extras.get("stationary")
        assert res.iterations == 0
        assert np.all(res.p.p == 0)

    def test_reaches_random_search_baseline(self):
        for seed in range(3):
            inst, pq = _quadratics(seed)
            res = cor_ga(pq, HybridPrecoder.default_init(inst.cfg))
            base = random_search_ball(_rate_batch(pq), inst.cfg.n_tx, 2.0, 100_000, seed)
            assert res.secrecy_rate >= base - 0.05 * abs(base)

    def test_accepted_steps_monotone(self):
        for seed in range(5):
            inst, pq = _quadratics(seed, power_dbm=15.0)
            res = cor_ga(pq, HybridPrecoder.default_init(inst.cfg))
            trace = np.array(res.trace)
            assert np.all(np.diff(trace) >= 0)
            assert np.linalg.norm(res.p.p) <= inst.cfg.n_rf + 1e-9
            assert res.secrecy_rate >= trace[0]

    def test_improves_on_start(self):
        inst, pq = _quadratics(2)
        p0 = HybridPrecoder.default_init(inst.cfg)
        res = cor_ga(pq, p0)
        assert res.secrecy_rate >= pq.secrecy_rate(p0.p)
        assert res.extras["stalled"] is False

    def test_step_collapse_is_reported_as_stall(self):
        inst, pq = _quadratics(2)
        p0 = HybridPrecoder.default_init(inst.cfg)
        start = pq.secrecy_rate(p0)

        class RejectEveryStep:
            # the true quadratics at p0, and a rate no candidate step can match
            n_rf = pq.n_rf
            gradient = staticmethod(pq.gradient)

            @staticmethod
            def secrecy_rate(p):
                return start if np.array_equal(np.asarray(p), p0.p) else start - 1.0

        res = cor_ga(RejectEveryStep(), p0)
        assert res.converged is False
        assert res.extras["stalled"] is True
        assert res.extras["mu_final"] < 1e-14 * 0.1 * pq.n_rf / np.linalg.norm(pq.gradient(p0.p))
        assert res.trace == [start]
        assert np.array_equal(res.p.p, p0.p)


    def test_non_finite_gradient_is_named(self):
        inst, pq = _quadratics(2)
        p0 = HybridPrecoder.default_init(inst.cfg)

        class BadGradient:
            # the true rate; the gradient turns non-finite at the point given
            n_rf = pq.n_rf
            secrecy_rate = staticmethod(pq.secrecy_rate)

            def __init__(self, bad_at_start):
                self.bad_at_start = bad_at_start

            def gradient(self, p):
                g = pq.gradient(p)
                if self.bad_at_start == np.array_equal(np.asarray(p), p0.p):
                    g[-1] = np.inf if self.bad_at_start else np.nan
                return g

        with pytest.raises(FloatingPointError, match="at the starting point"):
            cor_ga(BadGradient(True), p0)
        with pytest.raises(FloatingPointError, match="during ascent"):
            cor_ga(BadGradient(False), p0)

    def test_finiteness_check_survives_an_overflowing_norm(self):
        # ||x||^2 overflows for entries near 1e200; the entrywise test settles it
        big = np.array([1e200 + 1e200j, -1e200j, 1.0])
        assert precoder_opt._all_finite(big)
        for bad in (np.inf, -np.inf, np.nan, complex(np.nan, 0.0), complex(0.0, np.inf)):
            assert not precoder_opt._all_finite(np.append(big, bad))
            assert not precoder_opt._all_finite(np.array([1.0 + 0j, bad]))


class TestUnderflowContract:
    """exp(-tau d) below the smallest normal float saturates to zero and raises nothing,
    whatever the caller's ``np.errstate``."""

    @staticmethod
    def _case(name: str):
        if name == "saturated":
            # -150 dBm noise at 30 dBm: every off-diagonal Bob term underflows
            cfg = full_scale_config(p_total=db_to_linear(30.0), sigma_b2=db_to_linear(-150.0),
                                    sigma_e2=db_to_linear(-150.0))
            kernel_cfg = cfg
        else:
            cfg = full_scale_config(p_total=db_to_linear(0.0))
            kernel_cfg = replace(cfg, p_total=4e12 / cfg.beta)  # tau = 1e12 on the same links
        v = np.ones(cfg.n_irs, dtype=complex)
        wch = link_state(cfg, draw_channels(cfg, 0), v)[3]
        return kernel_cfg, build_precoder_quadratics(kernel_cfg, wch, v)

    @pytest.mark.parametrize("name", ["saturated", "huge_tau"])
    def test_kernel_rate_gradient_and_ga_raise_nothing(self, name):
        cfg, pq = self._case(name)
        p0 = HybridPrecoder.default_init(cfg)
        k = cfg.n_hyp
        with np.errstate(all="raise"):
            kb, ke = rates.kappas(cfg, pq.w_b, pq.w_e, p0)
            rate = pq.secrecy_rate(p0)
            g = pq.gradient(p0)
            res = cor_ga(replace(pq), p0)
        # the draw does reach the regime: some exponent is below exp's normal range
        assert -pq.tau * pq.forward(p0).dist.max() < np.log(np.finfo(float).tiny)
        assert kb == k
        assert float.hex(rate) == float.hex(rates.rate_from_kappas(kb, ke))
        assert np.all(np.isfinite(g))
        assert np.isfinite(res.secrecy_rate) and abs(res.secrecy_rate) <= np.log2(k)
        if name == "huge_tau":
            # every off-diagonal term is exactly zero and the diagonal ones cancel
            assert ke == k and rate == 0.0
            assert not np.any(g)
            assert res.iterations == 0 and res.secrecy_rate == 0.0


class TestFactorizeHybrid:
    def test_constant_modulus_block_is_exact(self):
        inst = make_instance(0, n_rf=2, n_k=2)
        p = HybridPrecoder.default_init(inst.cfg)
        fac = factorize_hybrid(p, inst.cfg)
        assert fac.infeasible_blocks == ()
        assert fac.skipped_blocks == ()
        assert np.max(fac.recon_errors) < 1e-12
        rebuilt = (fac.f_blocks * fac.d_gains[:, None]).ravel()
        assert np.allclose(rebuilt, p.p)

    def test_single_entry_block_residual(self):
        inst = make_instance(0, n_rf=2, n_k=4)
        p = np.zeros(8, dtype=complex)
        p[0] = 1.5  # block 0 = 1.5 * e_1
        p[4:] = 0.5  # block 1 constant modulus
        fac = factorize_hybrid(p, inst.cfg)
        n_k = inst.cfg.n_k
        expected = np.sqrt(1.0 - 1.0 / n_k) * 1.5
        assert fac.recon_errors[0] == pytest.approx(expected, rel=1e-12)
        assert fac.infeasible_blocks == (0,)
        assert fac.recon_errors[1] < 1e-12

    def test_reads_a_precoder_as_a_copy_of_its_vector(self):
        inst = make_instance(0, n_rf=2, n_k=2)
        p = HybridPrecoder.default_init(inst.cfg)
        fac = factorize_hybrid(p, inst.cfg)
        assert np.array_equal(fac.f_blocks, factorize_hybrid(p.p, inst.cfg).f_blocks)

    @pytest.mark.parametrize("rel, infeasible", [(1e-8, ()), (1e-7, ()), (1e-5, (0,))])
    def test_near_hybrid_precoder_follows_the_residual_rule(self, rel, infeasible):
        # block 0 off constant modulus by rel: flagged only above 1e-6 of its norm, never an error
        cfg = desk_config()
        p = HybridPrecoder.default_init(cfg).p.copy()
        p[1] *= 1 + rel
        p *= 0.99
        fac = factorize_hybrid(p, cfg)
        assert fac.infeasible_blocks == infeasible
        norms = np.linalg.norm(p.reshape(cfg.n_rf, cfg.n_k), axis=1)
        assert (fac.recon_errors[0] < 1e-6 * norms[0]) == (infeasible == ())
        assert np.all(fac.recon_errors[1:] < 1e-6 * norms[1:])

    def test_non_finite_precoder_is_named(self):
        inst = make_instance(0, n_rf=2, n_k=2)
        p = HybridPrecoder.default_init(inst.cfg).p.copy()
        p[1] = np.nan
        with pytest.raises(ValueError, match="precoder p contains non-finite"):
            factorize_hybrid(p, inst.cfg)

    def test_zero_block_skipped(self):
        inst = make_instance(0, n_rf=2, n_k=2)
        p = np.zeros(4, dtype=complex)
        p[2:] = 0.7
        fac = factorize_hybrid(p, inst.cfg)
        assert fac.skipped_blocks == (0,)
        assert fac.d_gains[0] == 0
