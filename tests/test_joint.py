"""Alternating joint optimization: guard, convergence, determinism."""

import numpy as np
import pytest

from irs_ssm import joint
from irs_ssm.harness import desk_config, draw_channels
from irs_ssm.joint import joint_optimize, resolve_combination
from irs_ssm.model import ChannelSet, HybridPrecoder, db_to_linear
from irs_ssm.precoder_opt import PrecoderResult


def _zero_channels(cfg) -> ChannelSet:
    return ChannelSet(
        h=np.zeros((cfg.n_b, cfg.n_tx), dtype=complex),
        q=np.zeros((cfg.n_e, cfg.n_tx), dtype=complex),
        f=np.zeros((cfg.n_irs, cfg.n_tx), dtype=complex),
        g=np.zeros((cfg.n_b, cfg.n_irs), dtype=complex),
        m=np.zeros((cfg.n_e, cfg.n_irs), dtype=complex),
    )


class TestCombinations:
    def test_named_combinations(self):
        assert resolve_combination("I") == ("bca", "sca", "I")
        assert resolve_combination("II") == ("sdr", "ga", "II")
        assert resolve_combination("III") == ("admm", "ga", "III")
        assert resolve_combination(("bca", "sca"))[2] == "I"
        assert resolve_combination(("admm", "sca"))[2] == "admm+sca"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_combination("IV")
        with pytest.raises(ValueError):
            resolve_combination(("foo", "ga"))


class TestJointOptimize:
    def test_zero_channels_converges_immediately(self):
        cfg = desk_config(n_rf=2, n_k=2, n_irs=4, m_ary=2)
        res = joint_optimize(cfg, _zero_channels(cfg), "I")
        assert res.converged
        assert len(res.trace) == 1
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_guarded_trace_is_monotone(self):
        cfg = desk_config(p_total=db_to_linear(20.0))
        for trial in range(5):
            ch = draw_channels(cfg, 50 + trial)
            res = joint_optimize(cfg, ch, "I", seed=trial)
            objs = [t.objective for t in res.trace]
            assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
            assert res.converged and len(res.trace) <= 10

    def test_all_combinations_improve_on_start(self):
        cfg = desk_config(p_total=db_to_linear(20.0))
        for combo in ("I", "II", "III"):
            for trial in range(3):
                ch = draw_channels(cfg, 70 + trial)
                res = joint_optimize(cfg, ch, combo, seed=trial)
                from irs_ssm.irs_opt import build_quadratic_forms
                from irs_ssm.model import HybridPrecoder, link_state

                v0 = np.ones(cfg.n_irs, dtype=complex)
                p0 = HybridPrecoder.default_init(cfg)
                wch = link_state(cfg, ch, v0)[3]
                start = build_quadratic_forms(cfg, wch, p0).secrecy_rate(v0)
                assert res.objective >= start - 1e-9

    def test_worse_precoder_step_is_reverted(self, monkeypatch):
        cfg = desk_config(p_total=db_to_linear(20.0))
        ch = draw_channels(cfg, 50)
        p0 = HybridPrecoder.default_init(cfg)
        calls = []

        def worse_then_stationary(method, pq, p, kwargs):
            calls.append(p)
            # zero power gives a secrecy rate of exactly 0, below the start
            zero = HybridPrecoder(p=np.zeros(cfg.n_tx, dtype=complex), n_rf=cfg.n_rf)
            p_out = zero if len(calls) == 1 else p
            return PrecoderResult(p=p_out, converged=True, iterations=1, secrecy_rate=0.0, trace=[0.0])

        monkeypatch.setattr(joint, "_run_precoder", worse_then_stationary)
        res = joint_optimize(cfg, ch, "II", p0=p0, seed=0)
        objs = [t.objective for t in res.trace]
        assert objs[0] > 0.0
        assert all(b >= a for a, b in zip(objs, objs[1:]))
        assert np.array_equal(res.p_star.p, p0.p)
        assert all(p is p0 for p in calls)
        assert res.extras["precoder_rejected"] == 1

    def test_idempotent_at_fixed_point(self):
        cfg = desk_config(p_total=db_to_linear(20.0))
        ch = draw_channels(cfg, 123)
        first = joint_optimize(cfg, ch, "I", seed=0)
        again = joint_optimize(cfg, ch, "I", v0=first.v_star, p0=first.p_star, seed=0)
        assert again.converged
        assert len(again.trace) == 1
        assert again.objective >= first.objective - 1e-9
        assert abs(again.objective - first.objective) <= 0.01

    def test_deterministic_trace(self):
        cfg = desk_config(p_total=db_to_linear(15.0))
        ch = draw_channels(cfg, 321)
        a = joint_optimize(cfg, ch, "II", seed=5)
        b = joint_optimize(cfg, ch, "II", seed=5)
        assert a.signature() == b.signature()
        assert np.array_equal(a.v_star.v, b.v_star.v)
        assert np.array_equal(a.p_star.p, b.p_star.p)

    def test_epsilon_validation(self):
        cfg = desk_config(n_rf=2, n_k=2, n_irs=4, m_ary=2)
        with pytest.raises(ValueError):
            joint_optimize(cfg, _zero_channels(cfg), "I", epsilon=0.0)
