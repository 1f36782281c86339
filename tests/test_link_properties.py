"""Property tests of the link layer and the precoder layer over small random configurations.

Each example draws a system (n_rf <= n_b included, so the identity AN
fallback is exercised; beta = 1, n_irs = 1 and n_b != n_e included, so the
zero-padded receiver stack is exercised), seeded channels, a random
reflection vector and a random precoder inside the power ball, then checks
the link state (the AN shaping T, with ||T||_F^2 = n_rf, X_B T = 0 when
n_rf > n_b and T = I otherwise, and both covariances), the rate and the
precoder gradient (with each receiver's d log2 kappa) against the
brute-force oracles, that the three rate entry
points (the rate report, the IRS forms and the precoder quadratics) return
the same float, that the IRS forms, assembled on the receiver stack, give
the surrogate of the direct pair norms and Hermitian PSD aggregates, that
the ASR-SCA surrogate is tight at its expansion point with the objective's
gradient there and a gradient that matches central differences off it, that
its two forms match the dense pair matrices (Eve's Q Hermitian PSD with
M Q = sum chi_E0 E_mn, Bob's Re(L p) the linearization Re(p0^H B_mn p)), and
the solver invariants: for COR-GA and ASR-SCA a trace that never
decreases, ||p|| <= n_rf and a reported rate equal to a fresh evaluation at
the returned p; for BCA a trace that starts at the surrogate of v0 and
never decreases, a reported surrogate equal to a fresh evaluation at the
returned v, and unit modulus; for ADMM, at its defaults and at the campaign
settings, a result no worse than the surrogate of v0, and unit modulus; for
the joint alternation, an objective equal to the rate on the link refreshed
at (v*, p*), a trace that never decreases, unit modulus and ||p*|| <= n_rf.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irs_ssm.harness import desk_config, draw_channels
from irs_ssm.irs_opt import build_quadratic_forms, irs_admm, irs_bca
from irs_ssm.joint import JOINT_ADMM, joint_optimize
from irs_ssm.model import (
    LN2,
    db_to_linear,
    effective_channels,
    enumerate_hypotheses,
    link_state,
)
from irs_ssm.precoder_opt import ScaSubproblem, asr_sca, build_precoder_quadratics, cor_ga
from irs_ssm.rates import approx_secrecy_rate, link_kernel, rate_from_kappas

from _instances import subnormal_beta_config
from _oracles import (
    an_covariances_elementwise,
    dense_analog_matrix,
    dense_pair_matrices,
    kappa_dense,
    precoder_gradient_dense,
    secrecy_rate_dense,
    surrogate_direct,
)

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# the IRS solvers cost more per example: 1000 BCA and ADMM examples take about 40 s
SOLVER_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=100)
# ASR-SCA runs an inner ascent per outer step: 50 examples take about 20 s
SCA_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=50)
# a joint run alternates up to MAX_OUTER IRS and precoder steps (SCA in
# combination I): 45 examples take about 15 s
JOINT_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=30)


def _case(cfg, seed: int):
    """(cfg, channels, v, p) with the channels, v and p drawn from ``seed``."""
    ch = draw_channels(cfg, seed)
    rng = np.random.default_rng(seed)
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cfg.n_irs))
    p = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
    p *= cfg.n_rf * rng.uniform(0.05, 1.0) / np.linalg.norm(p)
    return cfg, ch, v, p


# every BCA update numerator is subnormal here, where c / |c| would overflow into NaN
SUBNORMAL_CASE = _case(subnormal_beta_config(), 2)


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
    return _case(cfg, draw(st.integers(0, 2**32 - 1)))


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@PROPERTY_SETTINGS
@given(link_cases())
def test_covariances_match_elementwise_oracle(case):
    cfg, ch, v, _ = case
    t_an, omega_b, omega_e, _ = link_state(cfg, ch, v)
    want_t, want_b, want_e = an_covariances_elementwise(cfg, ch, v)
    assert np.linalg.norm(t_an, "fro") ** 2 == pytest.approx(cfg.n_rf, rel=1e-9)
    assert _rel(t_an, want_t) <= 1e-9
    assert _rel(omega_b, want_b) <= 1e-10
    assert _rel(omega_e, want_e) <= 1e-10
    if cfg.n_rf > cfg.n_b:
        # the null-space projector keeps all AN off Bob's effective channel
        xb = effective_channels(ch, v)[0] @ dense_analog_matrix(cfg)
        assert np.linalg.norm(xb @ t_an) <= 1e-9 * np.linalg.norm(xb)
        assert _rel(omega_b, cfg.sigma_b2 * np.eye(cfg.n_b)) <= 1e-9
    else:
        assert np.array_equal(t_an, np.eye(cfg.n_rf))


@PROPERTY_SETTINGS
@given(link_cases())
def test_rate_matches_dense_oracle_and_kappa_bounds(case):
    cfg, ch, v, p = case
    wch = link_state(cfg, ch, v)[3]
    rep = approx_secrecy_rate(cfg, wch, v, p)
    hyps = enumerate_hypotheses(cfg)
    k = cfg.n_hyp
    w_rx = (wch.h + wch.g @ (v[:, None] * wch.f), wch.q + wch.m @ (v[:, None] * wch.f))
    got_rx = link_kernel(*w_rx, cfg.n_rf, cfg.m_ary, cfg.tau).run(p).kappa.tolist()
    assert got_rx == [rep.kappa_b, rep.kappa_e]
    for got, w_eff in zip(got_rx, w_rx):
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


@PROPERTY_SETTINGS
@given(link_cases())
def test_precoder_gradient_matches_dense_oracle(case):
    cfg, ch, v, p = case
    wch = link_state(cfg, ch, v)[3]
    pq = build_precoder_quadratics(cfg, wch, v)
    want_rx = precoder_gradient_dense(pq.w_b, pq.w_e, enumerate_hypotheses(cfg), p, cfg.tau, cfg.n_rf, cfg.n_k)
    want = want_rx[1] - want_rx[0]
    assert np.linalg.norm(pq.gradient(p) - want) <= 1e-9 * np.linalg.norm(want)
    # each receiver's d log2 kappa = -2 tau / (ln2 kappa) * pull-back, Bob first
    k = pq.kernel.at(p)
    got_rx = (-2.0 * cfg.tau / LN2) * k.pull_back(k.chi) / k.kappa[:, None]
    for got, want_r in zip(got_rx, want_rx):
        assert np.linalg.norm(got - want_r) <= 1e-9 * np.linalg.norm(want_r)


@PROPERTY_SETTINGS
@given(link_cases())
def test_cor_ga_invariants(case):
    cfg, ch, v, p0 = case
    wch = link_state(cfg, ch, v)[3]
    pq = build_precoder_quadratics(cfg, wch, v)
    res = cor_ga(pq, p0)
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert np.linalg.norm(res.p.p) <= cfg.n_rf + 1e-9
    fresh = build_precoder_quadratics(cfg, wch, v)
    assert float.hex(res.secrecy_rate) == float.hex(fresh.secrecy_rate(res.p))
    stacked = rate_from_kappas(*link_kernel(pq.w_b, pq.w_e, cfg.n_rf, cfg.m_ary, cfg.tau).run(res.p).kappa.tolist())
    assert float.hex(res.secrecy_rate) == float.hex(stacked)


@PROPERTY_SETTINGS
@given(link_cases(), st.integers(0, 2**32 - 1))
def test_sca_surrogate_is_tight_at_p0_and_its_gradient_matches_differences(case, seed):
    cfg, ch, v, p0 = case
    pq = build_precoder_quadratics(cfg, link_state(cfg, ch, v)[3], v)
    sub = ScaSubproblem(pq, p0)
    kb, ke = pq.kernel.at(p0).kappa
    assert abs(sub.eve_lower(p0) - np.log2(ke)) <= 1e-10
    assert abs(sub.bob_upper(p0) - np.log2(kb)) <= 1e-10
    assert abs(sub.value(p0) - pq.secrecy_rate(p0)) <= 1e-10
    # both bounds are tangent at p0, so the surrogate has the objective's gradient there
    g0 = pq.gradient(p0)
    assert np.linalg.norm(sub.gradient(p0) - g0) <= 1e-9 * np.linalg.norm(g0)
    # central differences at a point off p0, where the surrogate and the objective part
    rng = np.random.default_rng(seed)
    d1, d = (rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx) for _ in range(2))
    d /= np.linalg.norm(d)
    p = p0 + 1e-3 * np.linalg.norm(p0) * d1 / np.linalg.norm(d1)
    h = 1e-6 * np.linalg.norm(p0)
    fd = (sub.value(p + h * d) - sub.value(p - h * d)) / (2.0 * h)
    assert np.real(np.vdot(sub.gradient(p), d)) == pytest.approx(fd, rel=1e-4, abs=1e-8)


@PROPERTY_SETTINGS
@given(link_cases(), st.integers(0, 2**32 - 1))
def test_sca_forms_match_the_dense_pair_matrices(case, seed):
    cfg, ch, v, p0 = case
    pq = build_precoder_quadratics(cfg, link_state(cfg, ch, v)[3], v)
    sub = ScaSubproblem(pq, p0)
    hyps = enumerate_hypotheses(cfg)
    # Eve: Q is Hermitian PSD, and M Q = sum_mn chi_E0,mn E_mn over the ordered pairs
    q = sub.q
    size = np.linalg.norm(q)
    assert np.linalg.norm(q - q.conj().T) <= 1e-12 * size
    assert np.linalg.eigvalsh(0.5 * (q + q.conj().T))[0] >= -1e-12 * size
    e_mn = dense_pair_matrices(pq.w_e, hyps, cfg.n_rf, cfg.n_k)
    chi0 = np.exp(-cfg.tau * np.einsum("i,mnij,j->mn", p0.conj(), e_mn, p0).real)
    want = np.einsum("mn,mnij->ij", chi0, e_mn)
    assert np.linalg.norm(cfg.m_ary * q - want) <= 1e-9 * np.linalg.norm(want)
    # Bob: Re(L p), gathered from the (i, delta, i') rows onto the ordered pairs
    # ((i, j), (i', j + delta)), is the linearization Re(p0^H B_mn p)
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(cfg.n_tx) + 1j * rng.standard_normal(cfg.n_tx)
    i, j = np.divmod(np.arange(cfg.n_hyp), cfg.m_ary)
    lin = (sub.l @ p).real.reshape(cfg.n_rf, cfg.m_ary, cfg.n_rf)
    got = lin[i[:, None], (j[None, :] - j[:, None]) % cfg.m_ary, i[None, :]]
    b_mn = dense_pair_matrices(pq.w_b, hyps, cfg.n_rf, cfg.n_k)
    want = np.einsum("i,mnij,j->mn", p0.conj(), b_mn, p).real
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


@SCA_SETTINGS
@given(link_cases())
def test_sca_invariants(case):
    cfg, ch, v, p0 = case
    wch = link_state(cfg, ch, v)[3]
    res = asr_sca(build_precoder_quadratics(cfg, wch, v), p0)
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert np.linalg.norm(res.p.p) <= cfg.n_rf + 1e-9
    fresh = build_precoder_quadratics(cfg, wch, v)
    assert float.hex(res.secrecy_rate) == float.hex(fresh.secrecy_rate(res.p))


@SOLVER_SETTINGS
@given(link_cases(), st.integers(0, 2**32 - 1))
def test_irs_forms_match_direct_norms(case, seed):
    cfg, ch, v, p = case
    wch = link_state(cfg, ch, v)[3]
    qf = build_quadratic_forms(cfg, wch, p)
    direct = surrogate_direct(cfg, wch, p, v)
    assert abs(qf.surrogate_value(v) - direct) <= 1e-8 * max(1.0, abs(direct))
    # away from the v the whitening was built at, where the forms are used
    points = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (3, cfg.n_irs)))
    for got, point in zip(qf.surrogate_values(points), points):
        direct = surrogate_direct(cfg, wch, p, point)
        assert abs(got - direct) <= 1e-8 * max(1.0, abs(direct))
    for phi in (qf.phi_b, qf.phi_e):
        assert np.linalg.norm(phi - phi.conj().T) < 1e-10 * max(1, np.linalg.norm(phi))
        assert np.linalg.eigvalsh(phi)[0] > -1e-10 * max(1, np.linalg.norm(phi))


def _unit_modulus_error(v: np.ndarray) -> float:
    return float(np.max(np.abs(np.abs(v) - 1.0)))


@SOLVER_SETTINGS
@given(link_cases())
@example(SUBNORMAL_CASE)
def test_bca_invariants(case):
    cfg, ch, v0, p = case
    qf = build_quadratic_forms(cfg, link_state(cfg, ch, v0)[3], p)
    res = irs_bca(qf, v0=v0)
    assert res.trace[0] == qf.surrogate_value(v0)
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert float.hex(res.surrogate_value) == float.hex(qf.surrogate_value(res.v))
    assert _unit_modulus_error(res.v.v) <= 1e-9


@SOLVER_SETTINGS
@given(link_cases())
@example(SUBNORMAL_CASE)
def test_admm_invariants(case):
    cfg, ch, v0, p = case
    qf = build_quadratic_forms(cfg, link_state(cfg, ch, v0)[3], p)
    start = qf.surrogate_value(v0)
    for settings_ in (JOINT_ADMM, {}):
        res = irs_admm(qf, v0=v0, **settings_)
        assert res.trace[0] == start
        assert res.surrogate_value >= start
        assert _unit_modulus_error(res.v.v) <= 1e-9


@JOINT_SETTINGS
@given(link_cases(), st.sampled_from(("I", "II", "III")), st.integers(0, 2**31 - 1))
def test_joint_objective_is_the_refreshed_rate(case, combination, seed):
    cfg, ch, _, _ = case
    res = joint_optimize(cfg, ch, combination, seed=seed)
    v, p = res.v_star.v, res.p_star
    rate = approx_secrecy_rate(cfg, link_state(cfg, ch, v)[3], v, p).r_approx
    assert abs(res.objective - rate) <= 1e-9
    objectives = [t.objective for t in res.trace]
    assert all(b >= a for a, b in zip(objectives, objectives[1:]))
    assert _unit_modulus_error(v) <= 1e-9
    assert np.linalg.norm(p.p) <= cfg.n_rf + 1e-9
