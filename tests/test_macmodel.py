"""Tests for the per-link MAC chain quantities and the coupled fixed point."""

import math

import numpy as np
import pytest
from pytest import approx

import oracles
from topo_helpers import contention_h
from csmafade import channel, macmodel
from csmafade.errors import ConvergenceError, ValidationError
from csmafade.macmodel import (
    ContentionSystem,
    LinkTables,
    MacParams,
    SolverConfig,
    TimingParams,
    arrival_probability,
    cca_probability,
    contention_terms,
    solve_fixed_point,
)
from csmafade.scenarios import build_contention_tables, scenario_from_config

MAC = MacParams()
TIMING = TimingParams()


def test_mac_params_windows_follow_backoff_exponent_cap():
    assert MAC.windows == (8, 16, 32, 32, 32)
    assert MacParams(m0=2, mb=2, m=2).windows == (4, 4, 4)


def test_mac_params_rejects_out_of_range_constants():
    with pytest.raises(ValidationError):
        MacParams(m0=6, mb=5)
    with pytest.raises(ValidationError):
        MacParams(m=6)
    with pytest.raises(ValidationError):
        MacParams(n=8)
    with pytest.raises(ValidationError):
        MacParams(mb=9)


def test_timing_params_transaction_durations():
    assert TIMING.ls == approx(7.0 + 2.7 + 1.1 + 2.0, rel=1e-12)
    assert TIMING.lc == approx(7.0 + 2.1, rel=1e-12)
    with pytest.raises(ValidationError):
        TimingParams(l_pkt=-1.0)
    with pytest.raises(ValidationError):
        TimingParams(sb_seconds=0.0)


def test_arrival_probability_examples():
    assert arrival_probability(0.0, 320e-6) == 0.0
    assert arrival_probability(10.0, 320e-6) == approx(0.0031949, abs=1e-7)
    assert arrival_probability(20.0, 320e-6) > arrival_probability(10.0, 320e-6)
    with pytest.raises(ValidationError):
        arrival_probability(-1.0, 320e-6)


def test_cca_probability_idle_channel_collapses_to_first_terms():
    q = 0.003
    tau, b000 = cca_probability(0.0, 0.0, q, MAC, TIMING)
    assert b000 == approx(1.0 / ((2**3 + 1) / 2 + 12.8 + 1 / q), rel=1e-12)
    assert tau == b000


def test_cca_probability_matches_longhand_cycle_accounting():
    # every term of the renewal cycle written out at alpha=0.3, gamma=0.2
    alpha, gamma, q = 0.3, 0.2, 0.003
    xi = 0.2 * (1.0 - 0.3**5)
    backoff = 4.5 + 0.3 * 8.5 + 0.09 * 16.5 + 0.027 * 16.5 + 0.0081 * 16.5
    service = (12.8 * 0.8 + 9.1 * 0.2) * (1.0 - 0.3**5)
    idle = (0.3**5 + xi + 0.8 * (1.0 - 0.3**5)) / q
    b_expect = 1.0 / (backoff + service + idle)
    geo_alpha = sum(0.3**j for j in range(5))
    tau, b000 = cca_probability(alpha, gamma, q, MAC, TIMING)
    assert b000 == approx(b_expect, rel=1e-12)
    assert tau == approx(geo_alpha * b_expect, rel=1e-12)


def test_cca_probability_matches_two_branch_closed_form():
    # covers both window branches (m <= mb-m0 and m > mb-m0) away from the
    # closed form's removable singularities
    for m, n in ((2, 0), (4, 0), (4, 3), (5, 2)):
        mac = MacParams(m=m, n=n)
        for alpha in (0.05, 0.3, 0.45, 0.55, 0.8):
            for gamma in (0.1, 0.5, 0.9):
                for q in (0.003, 0.2):
                    tau, b000 = cca_probability(alpha, gamma, q, mac, TIMING)
                    tau_ref, b_ref = oracles.cca_closed_form(
                        alpha, gamma, q, m=m, n=n, ls=TIMING.ls, lc=TIMING.lc
                    )
                    assert tau == approx(tau_ref, rel=1e-10)
                    assert b000 == approx(b_ref, rel=1e-10)


def test_cca_probability_finite_at_closed_form_singularities():
    # alpha = 1/2 (the (1-2alpha) pole) equals the two-sided closed-form limit
    tau_mid, b_mid = cca_probability(0.5, 0.2, 0.003, MAC, TIMING)
    tau_lo, b_lo = oracles.cca_closed_form(0.5 - 1e-7, 0.2, 0.003)
    tau_hi, b_hi = oracles.cca_closed_form(0.5 + 1e-7, 0.2, 0.003)
    assert tau_mid == approx((tau_lo + tau_hi) / 2, rel=1e-6)
    assert b_mid == approx((b_lo + b_hi) / 2, rel=1e-6)
    # xi = 1 (alpha=0, gamma=1 with retries): geometric factor becomes n+1
    mac = MacParams(n=3)
    q = 0.003
    tau, b000 = cca_probability(0.0, 1.0, q, mac, TIMING)
    assert b000 == approx(1.0 / (4.5 * 4 + 9.1 * 4 + 1.0 / q), rel=1e-12)
    assert tau == approx(4 * b000, rel=1e-12)


def test_cca_probability_rejects_out_of_range_inputs():
    with pytest.raises(ValidationError):
        cca_probability(1.0, 0.2, 0.003, MAC, TIMING)
    with pytest.raises(ValidationError):
        cca_probability(0.3, 1.2, 0.003, MAC, TIMING)
    with pytest.raises(ValidationError):
        cca_probability(0.3, 0.2, 0.0, MAC, TIMING)


def test_cca_probability_matches_chain_simulation():
    tau, b000 = cca_probability(0.3, 0.2, 0.003, MAC, TIMING)
    sim = oracles.simulate_attempt_process(0.3, 0.2, 0.003, n_packets=10**6, seed=42)
    assert tau == approx(sim["tau"], abs=1e-3)
    assert b000 == approx(sim["b000"], abs=1e-3)
    # outcome split of the same cycle: access failure alpha^(m+1), retry failure xi^(n+1)
    assert sim["p_cf"] == approx(0.3**5, abs=3e-4)
    assert sim["p_cr"] == approx(0.2 * (1.0 - 0.3**5), abs=1.5e-3)


def test_h_functional_single_contender_closed_form():
    for h in contention_h([0.3], [0.4], lambda s: 0.7):
        assert h == approx(0.3 * 0.6 * 0.7, rel=1e-12)


def test_h_functional_vanishes_without_senders():
    assert contention_h([0.0, 0.0, 0.0], [0.2, 0.5, 0.9], lambda s: 1.0) == (0.0, 0.0)
    assert contention_h([], [], lambda s: 1.0) == (0.0, 0.0)


def test_h_functional_two_link_example():
    want = oracles.h_literal([0.1, 0.1], [0.2, 0.2], lambda s: 1.0)
    for h in contention_h([0.1, 0.1], [0.2, 0.2], lambda s: 1.0):
        assert h == approx(0.1536, abs=1e-12)
        assert h == approx(want, rel=1e-12)


def test_h_functional_matches_literal_triple_sum():
    rng = np.random.default_rng(7)
    for k in range(1, 7):
        taus = rng.uniform(0.0, 0.6, k)
        alphas = rng.uniform(0.0, 0.9, k)

        def chi_sum(subset):
            return 1.0 / (1.0 + sum(subset))

        def chi_prod(subset):
            return math.prod(0.3 + 0.05 * z for z in subset)

        for chi in (chi_sum, chi_prod):
            want = oracles.h_literal(taus, alphas, chi)
            for h in contention_h(taus, alphas, chi):
                assert h == approx(want, rel=1e-12, abs=1e-15)


def test_h_functional_of_one_has_product_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = rng.integers(1, 8)
        taus = rng.uniform(0.0, 1.0, k)
        alphas = rng.uniform(0.0, 1.0, k)
        expected = 1.0 - math.prod(1.0 - t * (1.0 - a) for t, a in zip(taus, alphas))
        for h in contention_h(taus, alphas, lambda s: 1.0):
            assert h == approx(expected, rel=1e-12, abs=1e-15)


def test_h_functional_monotone_in_chi():
    rng = np.random.default_rng(13)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        taus = rng.uniform(0.0, 1.0, k)
        alphas = rng.uniform(0.0, 1.0, k)
        lo = rng.uniform(0.0, 0.5)

        h_lo = contention_h(taus, alphas, lambda s: lo)
        h_hi = contention_h(taus, alphas, lambda s: lo + 0.3)
        for a, b in zip(h_lo, h_hi):
            assert a <= b + 1e-15


def test_h_functional_rejects_oversized_topologies(monkeypatch):
    # the enumeration cap is checked before any channel probability is computed
    def no_channel_work(*args, **kwargs):
        raise AssertionError("channel layer called before the cap check")

    monkeypatch.setattr(channel, "outage_probability", no_channel_work)
    monkeypatch.setattr(channel, "outage_probabilities", no_channel_work)
    monkeypatch.setattr(channel, "detection_probabilities", no_channel_work)
    scenario = scenario_from_config({"topology": {"kind": "star", "n_nodes": 17}})
    with pytest.raises(ValidationError, match="cap"):
        build_contention_tables(scenario)


def _toy_system(n_links, p_det_fill, p_out_fill, p_fad, qs, mac=MAC, timing=TIMING):
    """Synthetic contention system with constant per-subset probabilities."""
    k = n_links - 1
    tables = []
    for l in range(n_links):
        others = tuple(z for z in range(n_links) if z != l)
        tables.append(
            LinkTables(
                others=others,
                p_det=np.full(2**k, p_det_fill),
                p_out=np.full(2**k, p_out_fill),
                p_fad=p_fad,
            )
        )
    return ContentionSystem(qs=np.asarray(qs, float), mac=mac, timing=timing, tables=tables)


def test_busy_channel_linear_in_frame_lengths():
    system = _toy_system(2, p_det_fill=1.0, p_out_fill=0.0, p_fad=0.0, qs=[0.003, 0.003])
    taus = np.array([0.0, 0.01])
    alphas = np.zeros(2)
    gammas = np.zeros(2)
    a_pkt, a_ack, _ = contention_terms(system, taus, alphas, gammas)
    assert a_pkt[0] == approx(0.07, rel=1e-12)
    assert a_ack[0] == approx(0.011, rel=1e-12)


def test_busy_channel_zero_without_contenders():
    system = _toy_system(2, 1.0, 0.0, 0.0, [0.003, 0.003])
    a_pkt, a_ack, _ = contention_terms(system, np.zeros(2), np.zeros(2), np.zeros(2))
    assert a_pkt[0] == 0.0 and a_ack[0] == 0.0


def test_busy_channel_ack_component_scales_with_contender_success():
    system = _toy_system(2, 1.0, 0.0, 0.0, [0.003, 0.003])
    taus = np.array([0.0, 0.01])
    _, ack_good, _ = contention_terms(system, taus, np.zeros(2), np.array([0.0, 0.0]))
    _, ack_bad, _ = contention_terms(system, taus, np.zeros(2), np.array([0.0, 0.8]))
    assert ack_bad[0] == approx(0.2 * ack_good[0], rel=1e-12)


def test_packet_loss_reduces_to_fading_when_alone():
    system = _toy_system(2, 1.0, 0.3, 0.05, [0.003, 0.003])
    _, _, gamma = contention_terms(system, np.zeros(2), np.zeros(2), np.zeros(2))
    assert gamma[0] == approx(0.05, rel=1e-12)


def test_packet_loss_longhand_single_contender():
    # p_fad=0.02, contender tau=0.1 alpha=0.2, p_det=0.9, p_out=0.3, L=7
    tables = [
        LinkTables((1,), np.array([0.0, 0.9]), np.array([0.0, 0.3]), 0.02),
        LinkTables((0,), np.zeros(2), np.zeros(2), 0.0),
    ]
    system = ContentionSystem(
        qs=np.array([0.003, 0.003]), mac=MAC, timing=TIMING, tables=tables
    )
    taus = np.array([0.0, 0.1])
    alphas = np.array([0.0, 0.2])
    w1 = 0.1 * 0.8
    expected = (1 - w1) * 0.02 + w1 * 0.3 + 13.0 * w1 * 0.1 * 0.3
    _, _, gamma = contention_terms(system, taus, alphas, np.zeros(2))
    assert gamma[0] == approx(expected, rel=1e-12)


def test_packet_loss_clamps_to_unit_interval():
    # certain contention with poor detection pushes the raw sum past 1
    tables = [
        LinkTables((1,), np.array([0.0, 0.1]), np.array([0.0, 0.9]), 0.0),
        LinkTables((0,), np.zeros(2), np.zeros(2), 0.0),
    ]
    system = ContentionSystem(
        qs=np.array([0.003, 0.003]), mac=MAC, timing=TIMING, tables=tables
    )
    _, _, gamma = contention_terms(system, np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
    assert gamma[0] == 1.0


def test_single_link_fixed_point_is_decoupled():
    tables = [LinkTables((), np.ones(1), np.ones(1), 0.05)]
    system = ContentionSystem(qs=np.array([0.003]), mac=MAC, timing=TIMING, tables=tables)
    result = solve_fixed_point(system)
    state = result.state
    tau_ref, b_ref = cca_probability(0.0, 0.05, 0.003, MAC, TIMING)
    assert state.alpha[0] == 0.0
    assert state.gamma[0] == approx(0.05, abs=1e-12)
    assert state.tau[0] == approx(tau_ref, rel=1e-9)
    assert state.b000[0] == approx(b_ref, rel=1e-9)
    assert result.residual < 1e-8


def _star_system(n_tx=7, radius=1.0, lam=5.0, sigma=0.0):
    """Transmitters on a circle, sink at the center, per-subset tables built
    from the channel layer."""
    chan = channel.ChannelParams()
    fading = channel.FadingParams(sigma=sigma)
    pos = [
        (radius * math.cos(2 * math.pi * i / n_tx), radius * math.sin(2 * math.pi * i / n_tx))
        for i in range(n_tx)
    ]
    k = n_tx - 1
    bits = macmodel._bit_matrix(k)
    noise = channel.PowerTerm(weight=chan.noise_mw)
    useful_w = channel.mean_rx_power(0.0, radius, chan)

    tables = []
    for l in range(n_tx):
        others = tuple(z for z in range(n_tx) if z != l)
        p_det = np.zeros(2**k)
        p_out = np.zeros(2**k)
        useful = channel.PowerTerm(weight=useful_w, sigma=sigma, has_multipath=fading.multipath)
        p_fad = channel.outage_probability(useful, [], noise, chan.sinr_threshold, fading)
        for mask in range(1, 2**k):
            members = [others[z] for z in range(k) if bits[mask, z]]
            det_terms = [
                channel.PowerTerm(
                    weight=channel.mean_rx_power(
                        0.0, math.dist(pos[l], pos[z]), chan
                    ),
                    sigma=sigma,
                    has_multipath=fading.multipath,
                )
                for z in members
            ]
            p_det[mask] = channel.detection_probability(det_terms, chan.cca_threshold_mw, fading)
            int_terms = [
                channel.PowerTerm(weight=useful_w, sigma=sigma, has_multipath=fading.multipath)
                for _ in members
            ]
            p_out[mask] = channel.outage_probability(
                useful, int_terms, noise, chan.sinr_threshold, fading
            )
        tables.append(LinkTables(others=others, p_det=p_det, p_out=p_out, p_fad=p_fad))

    q = arrival_probability(lam, TIMING.sb_seconds)
    return ContentionSystem(qs=np.full(n_tx, q), mac=MAC, timing=TIMING, tables=tables)


def test_star_fixed_point_matches_ideal_contention_benchmark():
    # sigma=0 at close range resolves every threshold, so the coupled model
    # must land on the perfect-sensing, collisions-fatal benchmark
    lam = 5.0
    system = _star_system(lam=lam)
    result = solve_fixed_point(system)
    q = arrival_probability(lam, TIMING.sb_seconds)
    ideal = oracles.ideal_star_fixed_point(6, q)
    state = result.state
    xi = state.gamma * (1.0 - state.alpha**5)
    reliability = 1.0 - state.alpha**5 - xi
    assert reliability == approx(ideal["reliability"], abs=0.02)
    assert state.tau == approx(ideal["tau"], abs=1e-6)
    assert state.gamma == approx(ideal["gamma"], abs=1e-6)


def test_star_fixed_point_symmetry():
    result = solve_fixed_point(_star_system(lam=10.0))
    assert np.ptp(result.state.tau) < 1e-9
    assert np.ptp(result.state.gamma) < 1e-9


def test_fixed_point_independent_of_initialization():
    system = _star_system(lam=10.0)
    a = solve_fixed_point(system, init=(0.0, 0.0))
    b = solve_fixed_point(system, init=(0.5, 0.5))
    for name in ("tau", "alpha", "gamma"):
        assert np.max(np.abs(getattr(a.state, name) - getattr(b.state, name))) < 1e-6


def test_fixed_point_outputs_stay_in_unit_interval_under_shadowing():
    system = _star_system(lam=10.0, sigma=2.0)
    result = solve_fixed_point(system)
    assert result.residual < 1e-8
    state = result.state
    for values in (
        state.tau,
        state.alpha_pkt,
        state.alpha_ack,
        state.alpha,
        state.gamma,
        state.b000,
    ):
        assert np.all((0.0 <= values) & (values <= 1.0))


def test_fixed_point_holds_inactive_links_silent():
    tables = [
        LinkTables((1,), np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.05),
        LinkTables((0,), np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.05),
    ]
    system = ContentionSystem(
        qs=np.array([0.003, 0.0]), mac=MAC, timing=TIMING, tables=tables
    )
    result = solve_fixed_point(system)
    state = result.state
    assert state.tau[1] == 0.0 and state.b000[1] == 0.0
    # with its only contender silent, the active link decouples
    assert state.gamma[0] == approx(0.05, abs=1e-12)
    assert state.alpha[0] == 0.0


def test_fixed_point_nonconvergence_raises_with_residual():
    system = _star_system(lam=10.0)
    with pytest.raises(ConvergenceError, match="residual"):
        solve_fixed_point(system, config=SolverConfig(max_iter=2))


def test_fixed_point_reports_alpha_clamping():
    # long frames at high load overshoot L*H past 1 early in the iteration,
    # which must clamp and warn while still converging to an interior point
    long_frames = TimingParams(l_pkt=30.0)
    system = _toy_system(
        3, p_det_fill=1.0, p_out_fill=1.0, p_fad=0.0, qs=[0.2] * 3, timing=long_frames
    )
    result = solve_fixed_point(system)
    assert any("clamped" in w for w in result.warnings)
    assert np.all(result.state.alpha <= macmodel.ALPHA_CAP)


def test_permissive_thresholds_leave_contention_only_losses():
    # perfect detection with no outage: gamma -> 0, failures only from access
    system = _toy_system(3, p_det_fill=1.0, p_out_fill=0.0, p_fad=0.0, qs=[0.2] * 3)
    result = solve_fixed_point(system)
    assert np.all(result.state.gamma == 0.0)
    assert np.all(result.state.alpha > 0.0)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(damping=1.5)
    with pytest.raises(ValidationError):
        SolverConfig(tol=-1.0)


def test_contention_system_validates_table_sizes():
    tables = [LinkTables((), np.ones(1), np.ones(1), 0.0)]
    with pytest.raises(ValidationError):
        ContentionSystem(qs=np.array([0.1, 0.2]), mac=MAC, timing=TIMING, tables=tables)
    bad = [
        LinkTables((1,), np.ones(3), np.ones(2), 0.0),
        LinkTables((0,), np.ones(2), np.ones(2), 0.0),
    ]
    with pytest.raises(ValidationError):
        ContentionSystem(qs=np.array([0.1, 0.2]), mac=MAC, timing=TIMING, tables=bad)
