"""Hypothesis enumeration, the link map (AN shaping, covariances, whitening), and ML detection."""

import numpy as np
import pytest

from irs_ssm.harness import desk_config, draw_channels
from irs_ssm.model import (
    ChannelSet,
    HybridPrecoder,
    SystemConfig,
    effective_channels,
    enumerate_hypotheses,
    inv_sqrt_hermitian,
    link_state,
    ml_detect,
    psk_symbols,
    whiten,
)
from irs_ssm.precoder_opt import PrecoderQuadratics, build_precoder_quadratics
from irs_ssm.rates import approx_secrecy_rate, mc_mutual_information

from _oracles import an_covariances_elementwise, dense_analog_matrix, dense_selection_matrix
from _instances import make_instance


def _pair_distances(cfg: SystemConfig, w_eff: np.ndarray, p: np.ndarray) -> np.ndarray:
    """K x K distances ||W (X_m - X_n) p||^2, gathered from the factored kernel."""
    return PrecoderQuadratics(tau=1.0, n_rf=cfg.n_rf, w_b=w_eff, w_e=w_eff, m_ary=cfg.m_ary).pair_values(p)[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            desk_config(m_ary=3)
        with pytest.raises(ValueError):
            desk_config(beta=0.0)
        with pytest.raises(ValueError):
            desk_config(n_rf=0)
        for name in ("p_total", "sigma_b2", "sigma_e2"):
            for bad in (float("nan"), float("inf"), 0.0, -1.0):
                with pytest.raises(ValueError, match=name):
                    desk_config(**{name: bad})
        cfg = desk_config()
        assert cfg.n_tx == cfg.n_rf * cfg.n_k
        assert cfg.tau == pytest.approx(cfg.beta * cfg.p_total / 4)

    def test_constellation_unit_energy(self):
        for m in (2, 4, 8, 16):
            symbols = psk_symbols(m)
            assert symbols.shape == (m,) and symbols[0] == 1.0
            assert np.max(np.abs(np.abs(symbols) - 1.0)) <= 1e-15  # |s_j| = 1
            assert len(np.unique(np.round(symbols, 12))) == m


class TestHybridPrecoder:
    def test_non_finite_entry_is_named(self):
        # NaN compares False against the power budget, so a bare "> budget" check would pass it
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="precoder p contains non-finite"):
                HybridPrecoder(p=np.full(8, bad, dtype=complex), n_rf=4)
        with pytest.raises(ValueError, match="exceeds the power budget"):
            HybridPrecoder(p=np.full(8, 2.0, dtype=complex), n_rf=4)

    def test_bad_n_rf_or_shape_is_named(self):
        for n_rf in (0, -2):
            with pytest.raises(ValueError, match="n_rf must be >= 1"):
                HybridPrecoder(p=np.zeros(4, dtype=complex), n_rf=n_rf)
        for p in (np.zeros((2, 2), dtype=complex), np.array(0.5 + 0j)):
            with pytest.raises(ValueError, match="precoder p must be 1-D"):
                HybridPrecoder(p=p, n_rf=2)


class TestHypotheses:
    def test_counts_full_scale(self):
        cfg = desk_config(n_rf=8, n_k=4, m_ary=4)
        hyps = enumerate_hypotheses(cfg)
        assert len(hyps) == 32
        dist = _pair_distances(cfg, draw_channels(cfg, 0).h, np.ones(cfg.n_tx, dtype=complex))
        assert dist.shape == (32, 32)  # 1024 ordered pairs

    def test_ordering_and_support(self):
        cfg = desk_config(n_rf=3, n_k=2, m_ary=4)
        hyps = enumerate_hypotheses(cfg)
        keys = [(h.subarray, h.symbol_index) for h in hyps]
        assert keys == sorted(keys)
        for h in hyps:
            lo = (h.subarray - 1) * cfg.n_k
            support = np.nonzero(h.x_vec)[0]
            assert support.tolist() == list(range(lo, lo + cfg.n_k))
            assert np.allclose(h.x_vec[support], h.symbol)

    def test_bpsk_single_subarray(self):
        cfg = desk_config(n_rf=1, n_k=3, m_ary=2)
        hyps = enumerate_hypotheses(cfg)
        assert np.allclose(hyps[0].x_vec, [1, 1, 1])
        assert np.allclose(hyps[1].x_vec, [-1, -1, -1])

    def test_self_difference_is_zero(self):
        cfg = desk_config(n_rf=2, n_k=2, m_ary=2)
        p = np.arange(1, cfg.n_tx + 1).astype(complex)
        assert np.all(np.diag(_pair_distances(cfg, np.eye(cfg.n_tx), p)) == 0.0)

    def test_same_subarray_difference_structure(self):
        cfg = desk_config(n_rf=2, n_k=2, m_ary=4)
        symbols = psk_symbols(4)
        hyps = enumerate_hypotheses(cfg)
        p = np.ones(cfg.n_tx, dtype=complex)
        expected = np.zeros(cfg.n_tx, dtype=complex)
        expected[:2] = symbols[0] - symbols[1]
        # (i=1, j=1) vs (i=1, j=2)
        assert np.allclose((hyps[0].x_vec - hyps[1].x_vec) * p, expected)

    def test_sparse_apply_matches_dense_100_seeds(self):
        cfg = desk_config(n_rf=3, n_k=2, m_ary=2)
        hyps = enumerate_hypotheses(cfg)
        dense = [dense_selection_matrix(h, cfg.n_rf, cfg.n_k) for h in hyps]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
            for h, xm in zip(hyps, dense):
                assert np.linalg.norm(h.x_vec * p - xm @ p) < 1e-12
            dist = _pair_distances(cfg, np.eye(cfg.n_tx), p)
            for m, xm in enumerate(dense):
                for n, xn in enumerate(dense):
                    assert abs(dist[m, n] - np.linalg.norm((xm - xn) @ p) ** 2) < 1e-12


def _an_covariance(cfg: SystemConfig, omega: np.ndarray, sigma2: float) -> np.ndarray:
    """(Y Y^H + (Y Y^H)^H) / 2 read back from Omega = (1 - beta) p_total (...) + sigma^2 I."""
    return (omega - sigma2 * np.eye(len(omega))) / ((1.0 - cfg.beta) * cfg.p_total)


@pytest.mark.parametrize("entry", [
    lambda inst, v: link_state(inst.cfg, inst.ch, v),
    lambda inst, v: approx_secrecy_rate(inst.cfg, inst.wch, v, inst.p),
    lambda inst, v: build_precoder_quadratics(inst.cfg, inst.wch, v),
    lambda inst, v: ml_detect(inst.cfg, inst.ch, v, inst.p, np.zeros(inst.cfg.n_b)),
    lambda inst, v: mc_mutual_information(inst.cfg, inst.wch, v, inst.p, 100, seed=0),
], ids=["link_state", "approx_secrecy_rate", "build_precoder_quadratics", "ml_detect", "mc_mutual_information"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_reflection_vector_of_the_wrong_length_is_named(entry, delta):
    # effective_channels is the one reader of v on every path from v to the link
    inst = make_instance(0, n_irs=16)
    v = np.ones(16 + delta, dtype=complex)
    with pytest.raises(ValueError, match=rf"v has shape \({16 + delta},\), expected \(n_irs,\) = \(16,\)"):
        entry(inst, v)


class TestAnProjection:
    def test_analog_matrix_matches_the_dense_oracle(self):
        # H = I and no IRS path with n_rf <= n_b (T = I): Bob's AN covariance is F_A F_A^H
        cfg = desk_config(n_rf=4, n_k=2, n_b=8, n_irs=4, m_ary=2)
        rng = np.random.default_rng(0)
        ch = ChannelSet(
            h=np.eye(cfg.n_tx, dtype=complex),
            q=np.zeros((cfg.n_e, cfg.n_tx), dtype=complex),
            f=rng.standard_normal((cfg.n_irs, cfg.n_tx)) + 0j,
            g=np.zeros((cfg.n_b, cfg.n_irs), dtype=complex),
            m=np.zeros((cfg.n_e, cfg.n_irs), dtype=complex),
        )
        t_an, omega_b, _, _ = link_state(cfg, ch, np.exp(1j * np.arange(4.0)))
        assert np.array_equal(t_an, np.eye(cfg.n_rf))
        fa = dense_analog_matrix(cfg)
        assert np.linalg.norm(_an_covariance(cfg, omega_b, cfg.sigma_b2) - fa @ fa.conj().T) < 1e-12

    def test_null_space_property(self):
        cfg = desk_config(n_rf=8, n_k=2, n_irs=8, m_ary=2, n_b=2)
        ch = draw_channels(cfg, 0)
        v = np.exp(1j * np.linspace(0, 1, cfg.n_irs))
        t_an = link_state(cfg, ch, v)[0]
        eff_b, _ = effective_channels(ch, v)
        base = eff_b @ dense_analog_matrix(cfg)
        # a scaled orthogonal projector of rank n_rf - n_b: T = T^H and T^2 = c T
        c = np.sqrt(cfg.n_rf / (cfg.n_rf - cfg.n_b))
        assert np.allclose(t_an, t_an.conj().T, atol=1e-12)
        assert np.allclose(t_an @ t_an, c * t_an, atol=1e-12)
        leak = np.linalg.norm(base @ t_an, "fro")
        assert leak < 1e-6 * np.linalg.norm(base, "fro")
        assert np.linalg.norm(t_an, "fro") ** 2 == pytest.approx(cfg.n_rf, rel=1e-9)

    def test_no_null_space_random_unitary(self):
        cfg = desk_config(n_rf=2, n_k=2, n_irs=4, m_ary=2, n_b=2)
        ch = draw_channels(cfg, 1)
        v = np.ones(4, dtype=complex)
        t_an, omega_b, _, _ = link_state(cfg, ch, v)
        assert np.array_equal(t_an, np.eye(2))
        assert np.linalg.norm(t_an, "fro") ** 2 == pytest.approx(2.0, rel=1e-9)
        # any unitary U gives (X U)(X U)^H = X X^H, the covariance a random unitary produced
        x = effective_channels(ch, v)[0] @ dense_analog_matrix(cfg)
        z = np.random.default_rng(5).standard_normal((2, 4)).view(complex)
        u, _ = np.linalg.qr(z)
        xu = x @ u
        an_cov_b = _an_covariance(cfg, omega_b, cfg.sigma_b2)
        for cov in (x @ x.conj().T, xu @ xu.conj().T):
            assert np.linalg.norm(an_cov_b - cov) < 1e-12 * np.linalg.norm(cov)

    def test_zero_irs_path_reduces_to_direct(self):
        cfg = desk_config(n_rf=4, n_k=2, n_irs=4, m_ary=2)
        ch = draw_channels(cfg, 2)
        ch_zero_g = ChannelSet(h=ch.h, q=ch.q, f=ch.f, g=np.zeros_like(ch.g), m=ch.m)
        v1 = np.ones(4, dtype=complex)
        v2 = np.exp(1j * np.arange(4))
        t1 = link_state(cfg, ch_zero_g, v1)[0]
        t2 = link_state(cfg, ch_zero_g, v2)[0]
        assert np.allclose(t1, t2)  # no v dependence without G
        fa = dense_analog_matrix(cfg)
        leak = np.linalg.norm((ch.h @ fa) @ t1)
        assert leak < 1e-6 * np.linalg.norm(ch.h @ fa)

    def test_degenerate_falls_back_to_identity(self):
        cfg = desk_config(n_rf=4, n_k=2, n_irs=4, m_ary=2)
        assert cfg.n_rf > cfg.n_b  # a null space is asked for, and X_B = 0 has rank zero
        zero = ChannelSet(
            h=np.zeros((cfg.n_b, cfg.n_tx), dtype=complex),
            q=np.zeros((cfg.n_e, cfg.n_tx), dtype=complex),
            f=np.zeros((cfg.n_irs, cfg.n_tx), dtype=complex),
            g=np.zeros((cfg.n_b, cfg.n_irs), dtype=complex),
            m=np.zeros((cfg.n_e, cfg.n_irs), dtype=complex),
        )
        t_an = link_state(cfg, zero, np.ones(4, dtype=complex))[0]
        assert np.array_equal(t_an, np.eye(4))


class TestCovariancesAndWhitening:
    def test_beta_one_gives_noise_only(self):
        inst = make_instance(0, beta=1.0)
        assert np.allclose(inst.omega_b, inst.cfg.sigma_b2 * np.eye(inst.cfg.n_b))
        assert np.allclose(inst.omega_e, inst.cfg.sigma_e2 * np.eye(inst.cfg.n_e))

    def test_perfect_projection_gives_noise_only_at_bob(self):
        # n_rf > n_b: the null-space projector nulls Bob's AN covariance entirely
        inst = make_instance(3, n_rf=4, n_k=2)
        t_an, omega_b, _, _ = link_state(inst.cfg, inst.ch, inst.v)
        assert not np.allclose(t_an, np.eye(inst.cfg.n_rf))
        assert np.allclose(omega_b, inst.cfg.sigma_b2 * np.eye(inst.cfg.n_b), atol=1e-12)

    def test_matches_elementwise_oracle(self):
        for seed in range(4):
            inst = make_instance(seed, n_rf=4, n_k=2, n_irs=5, m_ary=2)
            t_an, got_b, got_e, _ = link_state(inst.cfg, inst.ch, inst.v)
            want_t, want_b, want_e = an_covariances_elementwise(inst.cfg, inst.ch, inst.v)
            scale_e = np.linalg.norm(want_e)
            assert np.linalg.norm(t_an - want_t) < 1e-10 * np.linalg.norm(want_t)
            assert np.linalg.norm(got_b - want_b) < 1e-10 * max(1.0, np.linalg.norm(want_b))
            assert np.linalg.norm(got_e - want_e) < 1e-10 * max(1.0, scale_e)

    def test_hermitian_pd_invariants(self):
        for seed in range(6):
            inst = make_instance(seed, n_rf=2, n_k=2)  # no null space: AN hits Bob
            assert np.linalg.norm(inst.omega_b - inst.omega_b.conj().T) < 1e-12
            assert np.linalg.norm(inst.omega_e - inst.omega_e.conj().T) < 1e-12
            assert np.linalg.eigvalsh(inst.omega_b)[0] > 0
            assert np.linalg.eigvalsh(inst.omega_e)[0] > 0

    def test_scalar_whitener(self):
        inst = make_instance(1)
        eye_b = np.eye(inst.cfg.n_b)
        eye_e = np.eye(inst.cfg.n_e)
        wch = whiten(inst.ch, 4.0 * eye_b, eye_e)
        assert np.allclose(wch.h, inst.ch.h / 2.0)
        assert np.allclose(wch.q, inst.ch.q)
        wch_id = whiten(inst.ch, eye_b, eye_e)
        assert np.allclose(wch_id.h, inst.ch.h)

    def test_round_trip(self):
        for seed in range(5):
            inst = make_instance(seed, n_rf=2, n_k=2)
            sqrt_b = np.linalg.inv(inv_sqrt_hermitian(inst.omega_b))
            sqrt_e = np.linalg.inv(inv_sqrt_hermitian(inst.omega_e))
            for tilde, raw, sq in (
                (inst.wch.h, inst.ch.h, sqrt_b),
                (inst.wch.g, inst.ch.g, sqrt_b),
                (inst.wch.q, inst.ch.q, sqrt_e),
                (inst.wch.m, inst.ch.m, sqrt_e),
            ):
                assert np.linalg.norm(sq @ tilde - raw) < 1e-8 * max(1.0, np.linalg.norm(raw))

    def test_ill_conditioned_whitener_raises(self):
        inst = make_instance(0)
        eye_e = np.eye(inst.cfg.n_e)
        bad = np.diag([1.0, 1e-14]).astype(complex)
        with pytest.raises(ValueError, match="ill-conditioned"):
            whiten(inst.ch, bad, eye_e)
        with pytest.raises(ValueError, match="not positive definite"):
            whiten(inst.ch, np.zeros((2, 2), dtype=complex), eye_e)
        with pytest.raises(ValueError, match="non-finite"):
            whiten(inst.ch, np.full((2, 2), np.nan, dtype=complex), eye_e)

    def test_non_pd_covariance_names_eigenvalue(self):
        # an AN covariance of -I under noise of 1e-300 gives an Omega with eigenvalue -(1 - beta) p_total
        inst = make_instance(0)
        an_power = (1.0 - inst.cfg.beta) * inst.cfg.p_total
        eye_b, eye_e = np.eye(inst.cfg.n_b), np.eye(inst.cfg.n_e)
        with pytest.raises(ValueError, match="smallest eigenvalue"):
            whiten(inst.ch, an_power * -eye_b + 1e-300 * eye_b, eye_e)


class TestMlDetection:
    def _signals(self, inst):
        eff_b, _ = effective_channels(inst.ch, inst.v)
        xp = np.stack([h.x_vec for h in enumerate_hypotheses(inst.cfg)]) * inst.p.p[None, :]
        return np.sqrt(inst.cfg.beta * inst.cfg.p_total) * (xp @ eff_b.T)

    def test_noiseless_recovery(self):
        inst = make_instance(2, n_rf=2, n_k=2, m_ary=4)
        hyps = enumerate_hypotheses(inst.cfg)
        signals = self._signals(inst)
        for k, h in enumerate(hyps):
            got = ml_detect(inst.cfg, inst.ch, inst.v, inst.p, signals[k])
            assert got == (h.subarray, h.symbol_index)

    def test_tie_breaks_to_smallest(self):
        # identical subarray channels + zero IRS paths make all signal
        # energies exactly equal, so y = 0 is a perfect tie
        cfg = desk_config(n_rf=2, n_k=2, n_irs=4, m_ary=4)
        rng = np.random.default_rng(5)
        block = rng.standard_normal((cfg.n_b, cfg.n_k)) + 1j * rng.standard_normal((cfg.n_b, cfg.n_k))
        ch = ChannelSet(
            h=np.hstack([block, block]),
            q=np.zeros((cfg.n_e, cfg.n_tx), dtype=complex),
            f=np.zeros((cfg.n_irs, cfg.n_tx), dtype=complex),
            g=np.zeros((cfg.n_b, cfg.n_irs), dtype=complex),
            m=np.zeros((cfg.n_e, cfg.n_irs), dtype=complex),
        )
        got = ml_detect(cfg, ch, np.ones(4, dtype=complex), HybridPrecoder.default_init(cfg),
                        np.zeros(cfg.n_b, dtype=complex))
        assert got == (1, 1)

    def test_error_rate_below_one_percent_at_30db(self):
        inst = make_instance(2, n_rf=2, n_k=2, m_ary=4)
        hyps = enumerate_hypotheses(inst.cfg)
        signals = self._signals(inst)
        sigma_n2 = np.mean(np.sum(np.abs(signals) ** 2, axis=1)) / 1000.0  # 30 dB SNR
        rng = np.random.default_rng(99)
        errors = 0
        for _ in range(1000):
            k = int(rng.integers(len(hyps)))
            w = np.sqrt(sigma_n2 / 2) * (
                rng.standard_normal(inst.cfg.n_b) + 1j * rng.standard_normal(inst.cfg.n_b)
            )
            got = ml_detect(inst.cfg, inst.ch, inst.v, inst.p, signals[k] + w)
            errors += got != (hyps[k].subarray, hyps[k].symbol_index)
        assert errors / 1000.0 < 0.01

    @pytest.mark.parametrize("y, named", [
        ([1.0], r"observation y has shape \(1,\), expected \(n_b,\) = \(2,\)"),
        (np.ones((3, 1)), r"observation y has shape \(3, 1\)"),
        (np.ones((2, 1)), r"observation y has shape \(2, 1\)"),
        ([np.nan, 1.0], "observation y contains non-finite entries"),
        ([1.0, np.inf * 1j], "observation y contains non-finite entries"),
    ])
    def test_bad_observation_is_named(self, y, named):
        inst = make_instance(2, n_rf=2, n_k=2, m_ary=4)
        assert inst.cfg.n_b == 2
        with pytest.raises(ValueError, match=named):
            ml_detect(inst.cfg, inst.ch, inst.v, inst.p, y)
