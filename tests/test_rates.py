"""Cut-off rates, secrecy-rate report, and the Monte Carlo MI oracle."""

import copy
import pickle
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
    link_state,
    psk_symbols,
)
from irs_ssm.rates import (
    PairKernel,
    approx_secrecy_rate,
    link_kernel,
    mc_mutual_information,
    rate_from_kappas,
    receiver_stack,
    subarray_channels,
)

from _oracles import dense_pair_matrices, kappa_dense, precoder_gradient_dense
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


def _kappa(w_eff: np.ndarray, cfg: SystemConfig, p: np.ndarray, tau: float) -> float:
    """kappa of one (n_r, n_tx) channel by the forward pass of the factored kernel."""
    return float(PairKernel(subarray_channels(w_eff, cfg.n_rf), psk_symbols(cfg.m_ary), tau).run(p).kappa)


class TestKappa:
    def test_zero_channel_hits_upper_bound(self):
        cfg = desk_config(n_rf=8, n_k=4, n_irs=4, m_ary=4)
        w_zero = np.zeros((cfg.n_b, cfg.n_tx), dtype=complex)
        p = HybridPrecoder.default_init(cfg)
        assert _kappa(w_zero, cfg, p.p, cfg.tau) == pytest.approx(1024.0)

    def test_huge_tau_hits_lower_bound(self):
        inst = make_instance(0, n_rf=8, n_k=4, n_irs=4, m_ary=4, sigma_dbm=-80.0)
        w_b, _ = effective_channels(inst.wch, inst.v)
        assert _kappa(w_b, inst.cfg, inst.p.p, 1e12) == pytest.approx(32.0)

    def test_matches_dense_oracle(self):
        for seed in range(5):
            inst = make_instance(seed, n_rf=2, n_k=2, n_irs=5, m_ary=2, power_dbm=12.0)
            hyps = enumerate_hypotheses(inst.cfg)
            for w_eff in effective_channels(inst.wch, inst.v):
                fast = _kappa(w_eff, inst.cfg, inst.p.p, inst.cfg.tau)
                slow = kappa_dense(w_eff, hyps, inst.p.p, inst.cfg.tau, inst.cfg.n_rf, inst.cfg.n_k)
                assert abs(fast - slow) < 1e-10 * slow

    def test_monotone_in_tau(self):
        inst = make_instance(1, power_dbm=15.0)
        w_b, _ = effective_channels(inst.wch, inst.v)
        values = [_kappa(w_b, inst.cfg, inst.p.p, t) for t in (0.0, 0.1, 1.0, 10.0, 1e3, 1e6)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounds_always_hold(self):
        for seed in range(10):
            inst = make_instance(seed, power_dbm=25.0)
            k_hyp = inst.cfg.n_hyp
            w_b, w_e = effective_channels(inst.wch, inst.v)
            for w in (w_b, w_e):
                val = _kappa(w, inst.cfg, inst.p.p, inst.cfg.tau)
                assert k_hyp - 1e-9 <= val <= k_hyp**2 + 1e-9

    def test_bounds_hold_when_gram_distances_cancel_below_zero(self):
        # two subarrays whose responses u_0, u_1 agree to ~1e-12 relative at
        # norm ~1e6: the raw Gram distance ||u_0||^2 + ||u_1||^2 - 2 Re<u_0, u_1>
        # is rounding noise of order 1e-4, negative for some draws; the kernel
        # must clamp it
        cfg = SystemConfig(n_rf=2, n_k=2, n_b=2, n_e=2, n_irs=2, m_ary=2, p_total=1e6)
        rot = psk_symbols(cfg.m_ary)
        p = HybridPrecoder.default_init(cfg)
        k_hyp = cfg.n_hyp
        negative = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            block = rng.standard_normal((cfg.n_e, cfg.n_k)) + 1j * rng.standard_normal((cfg.n_e, cfg.n_k))
            # subarray 1 sees subarray 0's channel turned by 1e-12 rad
            q = np.concatenate((block, block * np.exp(1e-12j)), axis=1)
            wch = WhitenedChannels(
                h=np.zeros((cfg.n_b, cfg.n_tx), dtype=complex),
                g=np.zeros((cfg.n_b, cfg.n_irs), dtype=complex),
                q=q * (1e6 / np.linalg.norm(block @ p.p[: cfg.n_k])),
                m=np.zeros((cfg.n_e, cfg.n_irs), dtype=complex),
                f=np.zeros((cfg.n_irs, cfg.n_tx), dtype=complex),
            )
            v = np.ones(cfg.n_irs, dtype=complex)
            w_b, w_e = effective_channels(wch, v)
            fw = PairKernel(subarray_channels(w_e, cfg.n_rf), rot, cfg.tau).run(p.p)
            gram = np.conj(fw.u) @ fw.u.T
            norms = gram.diagonal().real
            negative += (norms[0] + norms[1] - 2.0 * gram[0, 1].real) < 0.0
            terms = fw.chi
            assert np.all((terms >= 0.0) & (terms <= 1.0))
            for w_eff in (w_b, w_e):
                assert k_hyp <= _kappa(w_eff, cfg, p.p, cfg.tau) <= k_hyp**2
            kernel = link_kernel(w_b, w_e, cfg.n_rf, cfg.m_ary, cfg.tau).run(p)
            assert abs(rate_from_kappas(*kernel.kappa.tolist())) <= np.log2(k_hyp)
        assert negative > 0  # the cancellation the clamp guards against did occur


# (make_instance overrides, whether the kernel runs on the receiver stack)
KERNEL_SHAPES = {
    "single receiver, no leading axis": (dict(n_rf=2, n_k=2, m_ary=4), False),
    "stack with n_b != n_e": (dict(n_rf=2, n_k=2, m_ary=4, n_b=2, n_e=3), True),
    "n_rf = 1": (dict(n_rf=1, n_k=3, m_ary=4, n_b=3, n_e=2), True),
    "M = 2": (dict(n_rf=3, n_k=2, m_ary=2), True),
}


def _kernel_case(name: str, seed: int = 0):
    overrides, stacked = KERNEL_SHAPES[name]
    inst = make_instance(seed, n_irs=4, power_dbm=12.0, **overrides)
    cfg = inst.cfg
    receivers = effective_channels(inst.wch, inst.v)
    if not stacked:
        receivers = receivers[:1]
    w_eff = receiver_stack(*receivers) if stacked else receivers[0]
    rng = np.random.default_rng(seed)
    points = [rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx) for _ in range(2)]
    return cfg, receivers, subarray_channels(w_eff, cfg.n_rf), points


def _kernel_bytes(kernel: PairKernel) -> list[bytes]:
    held = (kernel.u, kernel.u_rot, kernel.dist, kernel.chi, kernel.kappa, kernel.pull_back(kernel.chi))
    return [a.tobytes() for a in held]


class TestPairKernel:
    @pytest.mark.parametrize("name", list(KERNEL_SHAPES))
    def test_matches_dense_oracle(self, name):
        cfg, receivers, w_blocks, points = _kernel_case(name)
        hyps = enumerate_hypotheses(cfg)
        i, j = np.divmod(np.arange(cfg.n_hyp), cfg.m_ary)
        kernel = PairKernel(w_blocks, psk_symbols(cfg.m_ary), cfg.tau)
        for p in points:
            kernel.at(p)
            kappa = np.atleast_1d(kernel.kappa)
            dist = kernel.dist.reshape(-1, cfg.n_rf, cfg.m_ary, cfg.n_rf)
            back = kernel.pull_back(kernel.chi).reshape(-1, cfg.n_tx)
            for r, w_eff in enumerate(receivers):
                want = kappa_dense(w_eff, hyps, p, cfg.tau, cfg.n_rf, cfg.n_k)
                assert abs(kappa[r] - want) <= 1e-10 * want
                pairs = dense_pair_matrices(w_eff, hyps, cfg.n_rf, cfg.n_k)
                dense = np.einsum("a,mnab,b->mn", p.conj(), pairs, p).real
                got = dist[r][i[:, None], (j[None, :] - j[:, None]) % cfg.m_ary, i[None, :]]
                assert np.allclose(got, dense, rtol=0.0, atol=1e-10 * dense.max())
                # d log2 kappa = -2 tau / (ln2 kappa) * pull-back of chi
                grad = precoder_gradient_dense(w_eff, w_eff, hyps, p, cfg.tau, cfg.n_rf, cfg.n_k)[0]
                got_grad = (-2.0 * cfg.tau / np.log(2.0)) * back[r] / kappa[r]
                assert np.linalg.norm(got_grad - grad) <= 1e-9 * np.linalg.norm(grad)

    @pytest.mark.parametrize("name", list(KERNEL_SHAPES))
    def test_alternating_points_match_fresh_kernels(self, name):
        # a buffer read after the pass overwrote it (the norms under the
        # distances, say) would make a reused kernel differ from a fresh one
        cfg, _, w_blocks, (p1, p2) = _kernel_case(name, seed=1)
        rot = psk_symbols(cfg.m_ary)
        kernel = PairKernel(w_blocks, rot, cfg.tau)
        for p in (p1, p2, p1, p2, p2):
            assert _kernel_bytes(kernel.at(p)) == _kernel_bytes(PairKernel(w_blocks, rot, cfg.tau).run(p))

    def test_copies_build_their_own_buffers(self):
        cfg, _, w_blocks, (p1, p2) = _kernel_case("M = 2")
        kernel = PairKernel(w_blocks, psk_symbols(cfg.m_ary), cfg.tau).run(p1)
        for twin in (copy.deepcopy(kernel), pickle.loads(pickle.dumps(kernel))):
            assert _kernel_bytes(twin.run(p2)) == _kernel_bytes(kernel.run(p2))
            kernel.run(p1)
            assert not np.array_equal(twin.chi, kernel.chi)

    def test_rejects_a_point_of_the_held_bytes_in_another_shape(self):
        cfg, _, w_blocks, (p, _) = _kernel_case("M = 2")
        kernel = PairKernel(w_blocks, psk_symbols(cfg.m_ary), cfg.tau).run(p)
        with pytest.raises(ValueError, match="precoder p has shape"):
            kernel.at(p.reshape(-1, 1))


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

    @pytest.mark.parametrize("bad, named", [
        ({"n_noise_samples": 150.5}, "n_noise_samples must be an integer, got 150.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["fractional-count", "fractional-seed", "negative-seed"])
    def test_bad_count_or_seed_is_named(self, bad, named):
        inst = make_instance(0)
        args = {"n_noise_samples": 150, "seed": 0, **bad}
        with pytest.raises(ValueError, match=named):
            mc_mutual_information(inst.cfg, inst.wch, inst.v, inst.p, **args)

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
