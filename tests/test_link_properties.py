"""Property tests of the link layer over small random configurations.

Each example draws a system (n_rf <= n_b included, so the identity AN
fallback is exercised; beta = 1 included), seeded channels, a random
reflection vector and a random precoder inside the power ball, then checks
the link state and the rate against the brute-force oracles, and that the
three rate entry points (the rate report, the IRS forms and the precoder
quadratics) return the same float.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_ssm.harness import desk_config, draw_channels
from irs_ssm.irs_opt import build_quadratic_forms
from irs_ssm.model import (
    db_to_linear,
    default_analog_blocks,
    enumerate_hypotheses,
    link_state,
)
from irs_ssm.precoder_opt import build_precoder_quadratics
from irs_ssm.rates import approx_secrecy_rate

from _oracles import an_covariances_elementwise, kappa_dense, secrecy_rate_dense

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def link_cases(draw):
    cfg = desk_config(
        n_rf=draw(st.integers(1, 4)),
        n_k=draw(st.integers(1, 2)),
        n_b=draw(st.integers(1, 3)),
        n_e=draw(st.integers(1, 3)),
        m_ary=draw(st.sampled_from((2, 4, 8, 16))),
        n_irs=draw(st.integers(1, 4)),
        beta=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))),
        p_total=db_to_linear(draw(st.floats(0.0, 30.0))),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    ch = draw_channels(cfg, seed)
    rng = np.random.default_rng(seed)
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.n_irs))
    p = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
    p *= cfg.n_rf * rng.uniform(0.05, 1.0) / np.linalg.norm(p)
    return cfg, ch, v, p


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@PROPERTY_SETTINGS
@given(link_cases())
def test_covariances_match_elementwise_oracle(case):
    cfg, ch, v, _ = case
    an, omega_b, omega_e, _ = link_state(cfg, ch, v)
    assert an.strategy_used == ("null_space" if cfg.n_rf > cfg.n_b else "identity")
    want_b, want_e = an_covariances_elementwise(cfg, ch, v, default_analog_blocks(cfg), an.t_an)
    assert _rel(omega_b, want_b) <= 1e-10
    assert _rel(omega_e, want_e) <= 1e-10
    if cfg.n_rf > cfg.n_b:
        # the null-space projector keeps all AN off Bob's effective channel
        assert _rel(omega_b, cfg.sigma_b2 * np.eye(cfg.n_b)) <= 1e-9


@PROPERTY_SETTINGS
@given(link_cases())
def test_rate_matches_dense_oracle_and_kappa_bounds(case):
    cfg, ch, v, p = case
    wch = link_state(cfg, ch, v)[3]
    rep = approx_secrecy_rate(cfg, wch, v, p)
    hyps = enumerate_hypotheses(cfg)
    k = cfg.n_hyp
    for got, w_eff in ((rep.kappa_b, wch.h + wch.g @ (v[:, None] * wch.f)),
                       (rep.kappa_e, wch.q + wch.m @ (v[:, None] * wch.f))):
        want = kappa_dense(w_eff, hyps, p, cfg.tau, cfg.n_rf, cfg.n_k)
        assert abs(got - want) <= 1e-9 * want
        assert k <= got <= k * k
    assert abs(rep.r_approx - secrecy_rate_dense(cfg, wch, v, p)) <= 1e-9


@PROPERTY_SETTINGS
@given(link_cases())
def test_rate_entry_points_return_the_same_float(case):
    cfg, ch, v, p = case
    wch = link_state(cfg, ch, v)[3]
    rate = approx_secrecy_rate(cfg, wch, v, p).r_approx
    assert build_quadratic_forms(cfg, wch, p).secrecy_rate(v) == rate
    assert build_precoder_quadratics(cfg, wch, v).secrecy_rate(p) == rate
