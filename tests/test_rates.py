"""Cut-off rates, secrecy-rate report, and the Monte Carlo MI oracle."""

from dataclasses import replace

import numpy as np
import pytest

from irs_ssm.harness import desk_config, draw_channels, full_scale_config
from irs_ssm.model import (
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    effective_channels,
    enumerate_hypotheses,
    hypothesis_matrix,
    link_state,
)
from irs_ssm.rates import (
    approx_secrecy_rate,
    kappas,
    mc_mutual_information,
    pair_distances,
    pair_weights,
    rate_from_kappas,
)

from _oracles import kappa_dense
from _instances import make_instance

# frozen full-scale regression anchor: seed-7 channels, seed-7 random phases,
# default precoder; the value was computed once with the dense per-pair oracle
FULL_SCALE_ANCHOR = 3.99656051113462


def _zero_wch(inst) -> WhitenedChannels:
    return replace(
        inst.wch,
        h=np.zeros_like(inst.wch.h),
        g=np.zeros_like(inst.wch.g),
        q=np.zeros_like(inst.wch.q),
        m=np.zeros_like(inst.wch.m),
    )


class TestKappa:
    def test_zero_channel_hits_upper_bound(self):
        cfg = desk_config(n_rf=8, n_k=4, n_irs=4, m_ary=4)
        x_mat = hypothesis_matrix(cfg)
        w_zero = np.zeros((cfg.n_b, cfg.n_tx), dtype=complex)
        p = HybridPrecoder.default_init(cfg)
        assert pair_weights(w_zero, x_mat, p.p, cfg.tau).kappa == pytest.approx(1024.0)

    def test_huge_tau_hits_lower_bound(self):
        inst = make_instance(0, n_rf=8, n_k=4, n_irs=4, m_ary=4, sigma_dbm=-80.0)
        w_b, _ = effective_channels(inst.wch, inst.v)
        assert pair_weights(w_b, hypothesis_matrix(inst.cfg), inst.p.p, 1e12).kappa == pytest.approx(32.0)

    def test_matches_dense_oracle(self):
        for seed in range(5):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=5, m_ary=2, power_dbm=12.0)
            hyps = enumerate_hypotheses(inst.cfg)
            for w_eff in effective_channels(inst.wch, inst.v):
                fast = pair_weights(w_eff, hypothesis_matrix(inst.cfg), inst.p.p, inst.cfg.tau).kappa
                slow = kappa_dense(w_eff, hyps, inst.p.p, inst.cfg.tau, inst.cfg.n_rf, inst.cfg.n_k)
                assert abs(fast - slow) < 1e-10 * slow

    def test_monotone_in_tau(self):
        inst = make_instance(1, power_dbm=15.0)
        x_mat = hypothesis_matrix(inst.cfg)
        w_b, _ = effective_channels(inst.wch, inst.v)
        values = [pair_weights(w_b, x_mat, inst.p.p, t).kappa for t in (0.0, 0.1, 1.0, 10.0, 1e3, 1e6)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounds_always_hold(self):
        for seed in range(10):
            inst = make_instance(seed, power_dbm=25.0)
            k_hyp = inst.cfg.n_hyp
            x_mat = hypothesis_matrix(inst.cfg)
            w_b, w_e = effective_channels(inst.wch, inst.v)
            for w in (w_b, w_e):
                val = pair_weights(w, x_mat, inst.p.p, inst.cfg.tau).kappa
                assert k_hyp - 1e-9 <= val <= k_hyp**2 + 1e-9

    def test_bounds_hold_when_gram_distances_cancel_below_zero(self):
        # two hypotheses whose responses agree to ~1e-12 relative at norm ~1e6:
        # the raw Gram distance G_mm + G_nn - 2 Re G_mn is rounding noise of
        # order 1e-4, negative for some draws; the kernel must clamp it
        cfg = SystemConfig(n_rf=1, n_k=2, n_b=2, n_e=2, n_irs=2, m_ary=2, p_total=1e6)
        # one subarray of two antennas, two symbols 1e-12 rad apart
        x_mat = np.repeat(np.exp(1j * np.array([0.0, 1e-12]))[:, None], cfg.n_k, axis=1)
        p = HybridPrecoder.default_init(cfg)
        k_hyp = cfg.n_hyp
        negative = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal((cfg.n_e, cfg.n_tx)) + 1j * rng.standard_normal((cfg.n_e, cfg.n_tx))
            wch = WhitenedChannels(
                h=np.zeros((cfg.n_b, cfg.n_tx), dtype=complex),
                g=np.zeros((cfg.n_b, cfg.n_irs), dtype=complex),
                q=q * (1e6 / np.linalg.norm(q @ (x_mat[0] * p.p))),
                m=np.zeros((cfg.n_e, cfg.n_irs), dtype=complex),
                f=np.zeros((cfg.n_irs, cfg.n_tx), dtype=complex),
            )
            v = np.ones(cfg.n_irs, dtype=complex)
            w_b, w_e = effective_channels(wch, v)
            resp = (x_mat * p.p[None, :]) @ w_e.T
            gram = np.conj(resp) @ resp.T
            norms = gram.diagonal().real
            negative += (norms[0] + norms[1] - 2.0 * gram[0, 1].real) < 0.0
            terms = np.exp(-cfg.tau * pair_distances(resp))
            assert np.all((terms >= 0.0) & (terms <= 1.0))
            for w_eff in (w_b, w_e):
                assert k_hyp <= pair_weights(w_eff, x_mat, p.p, cfg.tau).kappa <= k_hyp**2
            assert abs(rate_from_kappas(*kappas(w_b, w_e, x_mat, p, cfg.tau))) <= np.log2(k_hyp)
        assert negative > 0  # the cancellation the clamp guards against did occur


class TestApproxSecrecyRate:
    def test_identical_links_give_zero(self):
        inst = make_instance(3, n_rf=2, n_k=2)
        sym = replace(inst.wch, q=inst.wch.h.copy(), m=inst.wch.g.copy())
        rep = approx_secrecy_rate(inst.cfg, sym, inst.v, inst.p)
        assert rep.r_approx == pytest.approx(0.0, abs=1e-12)

    def test_zero_eve_channel_is_positive(self):
        inst = make_instance(4, power_dbm=20.0)
        blind = replace(
            inst.wch,
            q=np.zeros_like(inst.wch.q),
            m=np.zeros_like(inst.wch.m),
        )
        rep = approx_secrecy_rate(inst.cfg, blind, inst.v, inst.p)
        assert rep.kappa_e == pytest.approx(inst.cfg.n_hyp**2)
        assert rep.r_approx > 0

    def test_accepts_a_precoder_or_its_vector(self):
        inst = make_instance(5, power_dbm=18.0)
        assert np.asarray(inst.p) is inst.p.p
        assert approx_secrecy_rate(inst.cfg, inst.wch, inst.v, inst.p) == approx_secrecy_rate(
            inst.cfg, inst.wch, inst.v, inst.p.p
        )

    def test_report_identities(self):
        inst = make_instance(5, power_dbm=18.0)
        rep = approx_secrecy_rate(inst.cfg, inst.wch, inst.v, inst.p)
        assert rep.r_approx == pytest.approx(rep.i0_bob - rep.i0_eve, abs=1e-12)
        log2k = np.log2(inst.cfg.n_hyp)
        assert -1e-9 <= rep.i0_bob <= log2k + 1e-9
        assert -1e-9 <= rep.i0_eve <= log2k + 1e-9

    def test_full_scale_regression_anchor(self):
        cfg = full_scale_config()
        ch = draw_channels(cfg, 7)
        rng = np.random.default_rng(7)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs))
        p = HybridPrecoder.default_init(cfg)
        wch = link_state(cfg, ch, v)[3]
        rep = approx_secrecy_rate(cfg, wch, v, p)
        assert rep.r_approx == pytest.approx(FULL_SCALE_ANCHOR, rel=1e-9)

    def test_unitary_rotation_invariance(self):
        inst = make_instance(6, power_dbm=15.0)
        rep = approx_secrecy_rate(inst.cfg, inst.wch, inst.v, inst.p)
        rng = np.random.default_rng(11)

        def haar(n):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(z)
            return q * (np.diag(r) / np.abs(np.diag(r)))

        ub, ue = haar(inst.cfg.n_b), haar(inst.cfg.n_e)
        rotated = replace(
            inst.wch,
            h=ub @ inst.wch.h,
            g=ub @ inst.wch.g,
            q=ue @ inst.wch.q,
            m=ue @ inst.wch.m,
        )
        rep_rot = approx_secrecy_rate(inst.cfg, rotated, inst.v, inst.p)
        assert rep_rot.r_approx == pytest.approx(rep.r_approx, abs=1e-10)


class TestMcMutualInformation:
    def test_requires_enough_samples(self):
        inst = make_instance(0)
        with pytest.raises(ValueError):
            mc_mutual_information(inst.cfg, inst.wch, inst.v, inst.p, 10, seed=0)

    def test_zero_channel_gives_zero(self):
        inst = make_instance(0)
        mib, mie, (seb, see) = mc_mutual_information(
            inst.cfg, _zero_wch(inst), inst.v, inst.p, 500, seed=0
        )
        assert abs(mib) <= max(3 * seb, 1e-12)
        assert abs(mie) <= max(3 * see, 1e-12)

    def test_high_snr_limit(self):
        inst = make_instance(1, n_rf=2, n_k=2, m_ary=2)
        boosted = replace(
            inst.wch,
            h=inst.wch.h * 1e4,
            g=inst.wch.g * 1e4,
            q=inst.wch.q * 1e4,
            m=inst.wch.m * 1e4,
        )
        mib, mie, _ = mc_mutual_information(
            inst.cfg, boosted, inst.v, inst.p, 500, seed=0
        )
        target = np.log2(inst.cfg.n_hyp)
        assert mib == pytest.approx(target, abs=0.05)
        assert mie == pytest.approx(target, abs=0.05)

    def test_deterministic_per_seed(self):
        inst = make_instance(2, power_dbm=12.0)
        a = mc_mutual_information(inst.cfg, inst.wch, inst.v, inst.p, 300, seed=4)
        b = mc_mutual_information(inst.cfg, inst.wch, inst.v, inst.p, 300, seed=4)
        assert a == b

    def test_cutoff_rate_lower_bounds_mi(self):
        # the cut-off rate should sit below the MC mutual information on
        # moderate-SNR instances (its role is a tractable conservative proxy)
        for seed in range(20):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=6, m_ary=2, power_dbm=12.0)
            rep = approx_secrecy_rate(inst.cfg, inst.wch, inst.v, inst.p)
            mib, mie, (seb, see) = mc_mutual_information(
                inst.cfg, inst.wch, inst.v, inst.p, 1000, seed=seed
            )
            assert rep.i0_bob <= mib + 3 * seb
            assert rep.i0_eve <= mie + 3 * see

    def test_standard_error_scales_with_samples(self):
        # squared standard error should roughly halve when samples double
        ratios = []
        for seed in range(10):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=6, m_ary=2, power_dbm=12.0)
            _, _, (se1, _) = mc_mutual_information(
                inst.cfg, inst.wch, inst.v, inst.p, 400, seed=seed
            )
            _, _, (se2, _) = mc_mutual_information(
                inst.cfg, inst.wch, inst.v, inst.p, 800, seed=seed + 100
            )
            ratios.append(se1**2 / se2**2)
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.5)
