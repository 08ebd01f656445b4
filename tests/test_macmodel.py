"""Tests for the per-link MAC chain quantities and the coupled fixed point."""

import math

import numpy as np
import pytest
from pytest import approx

import oracles
from one_point import fixed_point, whole
from topo_helpers import contention_h
from csmafade import channel, macmodel, scenarios, sweep
from csmafade.errors import ConvergenceError, ValidationError
from csmafade.macmodel import (
    SYMBOL_SECONDS,
    SYMBOLS_PER_UNIT,
    UNIT_SECONDS,
    Chain,
    MacParams,
    SolverConfig,
    SubsetList,
    TimingParams,
    arrival_probability,
    cca_probability,
    contention_tables,
    contention_terms,
)
from csmafade.scenarios import build_contention_tables, scenario_from_config

MAC = MacParams()
TIMING = TimingParams()
PAIR = SubsetList(1, 1)  # the whole list of the one contender of each of two links


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
    with pytest.raises(ValidationError, match="t_m_ack = 2.125 backoff units is not a whole"):
        TimingParams(t_m_ack=2.125)


def test_timing_params_count_whole_symbols_on_the_one_clock():
    # the default frames of IEEE 802.15.4-2006 at 2.4 GHz, 20 symbols per unit;
    # the ACK timeout (macAckWaitDuration) is turnaround + ACK + one unit
    assert TIMING.symbols == (140, 22, 8, 12, 54, 116)
    assert UNIT_SECONDS == 320e-6
    assert SYMBOLS_PER_UNIT * SYMBOL_SECONDS == approx(UNIT_SECONDS, rel=1e-15)
    with pytest.raises(ValidationError, match="finite"):
        TimingParams(l_pkt=math.inf)
    with pytest.raises(ValidationError, match="inconsistent"):
        TimingParams(t_ack=0.0, ifs=0.0)


def test_timing_params_frames_and_cca_last_one_symbol_at_least():
    for name in ("l_pkt", "l_ack", "t_sc"):
        with pytest.raises(ValidationError, match=f"{name}=0.0 backoff units is shorter"):
            TimingParams(**{name: 0.0})
        TimingParams(**{name: 1 / SYMBOLS_PER_UNIT})  # one symbol
    # the gaps between them may be empty
    TimingParams(turnaround=0.0, t_m_ack=0.0)


def test_arrival_probability_examples():
    assert arrival_probability(0.0) == 0.0
    assert arrival_probability(10.0) == approx(0.0031949, abs=1e-7)
    assert arrival_probability(20.0) > arrival_probability(10.0)
    with pytest.raises(ValidationError):
        arrival_probability(-1.0)


def test_arrival_probability_works_elementwise_with_each_scalar_value():
    rates = np.array([[0.0, 0.5, 2.0], [10.0, 33.3, 1e4]])
    got = arrival_probability(rates)
    assert got.shape == rates.shape
    assert got.tolist() == [[arrival_probability(rate) for rate in row] for row in rates.tolist()]
    assert got.tolist() == [[1.0 - math.exp(-rate * UNIT_SECONDS) for rate in row]
                            for row in rates.tolist()]
    assert type(arrival_probability(np.float64(2.0))) is float
    with pytest.raises(ValidationError, match="arrival rate -3.0 must be >= 0"):
        arrival_probability(np.array([1.0, -3.0, -4.0]))


def test_cca_probability_idle_channel_collapses_to_first_terms():
    q = 0.003
    tau, b000 = cca_probability(Chain(0.0, 0.0, MAC), q, TIMING)
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
    tau, b000 = cca_probability(Chain(alpha, gamma, MAC), q, TIMING)
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
                    tau, b000 = cca_probability(Chain(alpha, gamma, mac), q, TIMING)
                    tau_ref, b_ref = oracles.cca_closed_form(
                        alpha, gamma, q, m=m, n=n, ls=TIMING.ls, lc=TIMING.lc
                    )
                    assert tau == approx(tau_ref, rel=1e-10)
                    assert b000 == approx(b_ref, rel=1e-10)


def test_cca_probability_finite_at_closed_form_singularities():
    # alpha = 1/2 (the (1-2alpha) pole) equals the two-sided closed-form limit
    tau_mid, b_mid = cca_probability(Chain(0.5, 0.2, MAC), 0.003, TIMING)
    tau_lo, b_lo = oracles.cca_closed_form(0.5 - 1e-7, 0.2, 0.003)
    tau_hi, b_hi = oracles.cca_closed_form(0.5 + 1e-7, 0.2, 0.003)
    assert tau_mid == approx((tau_lo + tau_hi) / 2, rel=1e-6)
    assert b_mid == approx((b_lo + b_hi) / 2, rel=1e-6)
    # xi = 1 (alpha=0, gamma=1 with retries): geometric factor becomes n+1
    mac = MacParams(n=3)
    q = 0.003
    tau, b000 = cca_probability(Chain(0.0, 1.0, mac), q, TIMING)
    assert b000 == approx(1.0 / (4.5 * 4 + 9.1 * 4 + 1.0 / q), rel=1e-12)
    assert tau == approx(4 * b000, rel=1e-12)


def test_cca_probability_rejects_out_of_range_inputs():
    with pytest.raises(ValidationError):
        cca_probability(Chain(1.0, 0.2, MAC), 0.003, TIMING)
    with pytest.raises(ValidationError):
        cca_probability(Chain(0.3, 1.2, MAC), 0.003, TIMING)
    with pytest.raises(ValidationError):
        cca_probability(Chain(0.3, 0.2, MAC), 0.0, TIMING)


def test_cca_probability_matches_chain_simulation():
    tau, b000 = cca_probability(Chain(0.3, 0.2, MAC), 0.003, TIMING)
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
    # the row budget is checked before any channel probability is computed
    def no_channel_work(*args, **kwargs):
        raise AssertionError("channel layer called before the row budget check")

    monkeypatch.setattr(channel, "outage_probability", no_channel_work)
    monkeypatch.setattr(channel, "detection_probability", no_channel_work)
    # a 40-node star at lam = 10 needs subsets of more than 2 of its 38
    # contenders, whose lists would pass the budget
    scenario = scenario_from_config({"topology": {"kind": "star", "n_nodes": 40}, "lam": 10.0})
    [(_, refusal)] = sweep.solve_points([scenario])
    assert isinstance(refusal, ValidationError) and "row budget" in str(refusal)
    # and so would the whole tables of 16 links, 15 contenders each
    scenario = scenario_from_config({"topology": {"kind": "star", "n_nodes": 17}})
    with pytest.raises(ValidationError, match="row budget"):
        build_contention_tables(scenario, whole(scenario))


def test_star_at_the_contender_cap_builds_one_table_and_solves():
    # 16 nodes: 15 links, each with k = 14 contenders, the most that whole
    # tables allow; the lists of subsets of at most 4 contenders keep 1 471
    # of each link's 2^14 rows
    scenario = scenario_from_config(
        {"topology": {"kind": "star", "n_nodes": 16}, "lam": 10.0, "fading": {"sigma": 1.0}}
    )
    [(_, solution)] = sweep.solve_points([scenario])
    tol = scenario.solver.tol
    assert solution.depth == 4 and 0.0 < solution.truncation_bound <= tol
    tables = build_contention_tables(scenario, SubsetList(14, solution.depth))
    assert tables.p_det.shape == tables.p_out.shape == (15, 1471)
    assert not (tables.flags.writeable or tables.p_det.flags.writeable)
    state = solution.state
    assert np.ptp(state.gamma) < 1e-9 and 0.0 < state.gamma[0] < 1.0

    unlisted = build_contention_tables(scenario, SubsetList(14, 14))
    assert unlisted.p_det.shape == (15, 2**14)
    exhaustive = fixed_point(unlisted, np.full(15, arrival_probability(10.0)), MAC, TIMING)
    assert exhaustive.residual < tol
    within = solution.truncation_bound + tol
    assert np.max(np.abs(state.alpha - exhaustive.state.alpha)) <= within
    assert np.max(np.abs(state.gamma - exhaustive.state.gamma)) <= within


def test_a_20_node_star_solves_within_the_row_budget():
    # 19 links with 18 contenders each, past the whole tables' 14: the lists
    # of at most 5 contenders keep 12 616 of each link's 2^18 subsets
    scenario = scenario_from_config(
        {"topology": {"kind": "star", "n_nodes": 20}, "lam": 10.0, "fading": {"sigma": 1.0}}
    )
    [(_, solution)] = sweep.solve_points([scenario])
    assert solution.depth == 5 and 0.0 < solution.truncation_bound <= scenario.solver.tol
    assert 19 * macmodel._list_rows(18)[5] == 239_704 <= scenarios.ROW_BUDGET
    state = solution.state
    assert np.ptp(state.alpha) < 1e-9 and np.ptp(state.gamma) < 1e-9
    assert 0.0 < state.gamma[0] < solution.report.reliability[0] < 1.0


def _toy_tables(n_links, p_det_fill, p_out_fill, p_fad):
    """Synthetic contention tables with constant per-subset probabilities."""
    shape = (n_links, 2 ** (n_links - 1))
    return contention_tables(
        np.full(shape, p_det_fill), np.full(shape, p_out_fill), np.full(n_links, p_fad)
    )


def test_busy_channel_linear_in_frame_lengths():
    tables = _toy_tables(2, p_det_fill=1.0, p_out_fill=0.0, p_fad=0.0)
    taus = np.array([0.0, 0.01])
    alphas = np.zeros(2)
    gammas = np.zeros(2)
    a_pkt, a_ack, _ = contention_terms(tables, PAIR, TIMING, taus, alphas, gammas)
    assert a_pkt[0] == approx(0.07, rel=1e-12)
    assert a_ack[0] == approx(0.011, rel=1e-12)


def test_busy_channel_zero_without_contenders():
    tables = _toy_tables(2, 1.0, 0.0, 0.0)
    a_pkt, a_ack, _ = contention_terms(tables, PAIR, TIMING, np.zeros(2), np.zeros(2), np.zeros(2))
    assert a_pkt[0] == 0.0 and a_ack[0] == 0.0


def test_busy_channel_ack_component_scales_with_contender_success():
    tables = _toy_tables(2, 1.0, 0.0, 0.0)
    taus = np.array([0.0, 0.01])
    _, ack_good, _ = contention_terms(tables, PAIR, TIMING, taus, np.zeros(2), np.array([0.0, 0.0]))
    _, ack_bad, _ = contention_terms(tables, PAIR, TIMING, taus, np.zeros(2), np.array([0.0, 0.8]))
    assert ack_bad[0] == approx(0.2 * ack_good[0], rel=1e-12)


def test_packet_loss_reduces_to_fading_when_alone():
    tables = _toy_tables(2, 1.0, 0.3, 0.05)
    _, _, gamma = contention_terms(tables, PAIR, TIMING, np.zeros(2), np.zeros(2), np.zeros(2))
    assert gamma[0] == approx(0.05, rel=1e-12)


def test_packet_loss_longhand_single_contender():
    # p_fad=0.02, contender tau=0.1 alpha=0.2, p_det=0.9, p_out=0.3, L=7
    tables = contention_tables(
        [[0.0, 0.9], [0.0, 0.0]], [[0.0, 0.3], [0.0, 0.0]], [0.02, 0.0]
    )
    taus = np.array([0.0, 0.1])
    alphas = np.array([0.0, 0.2])
    w1 = 0.1 * 0.8
    expected = (1 - w1) * 0.02 + w1 * 0.3 + 13.0 * w1 * 0.1 * 0.3
    _, _, gamma = contention_terms(tables, PAIR, TIMING, taus, alphas, np.zeros(2))
    assert gamma[0] == approx(expected, rel=1e-12)


def test_packet_loss_clamps_to_unit_interval():
    # certain contention with poor detection pushes the raw sum past 1
    tables = contention_tables(
        [[0.0, 0.1], [0.0, 0.0]], [[0.0, 0.9], [0.0, 0.0]], [0.0, 0.0]
    )
    _, _, gamma = contention_terms(
        tables, PAIR, TIMING, np.array([0.0, 1.0]), np.zeros(2), np.zeros(2)
    )
    assert gamma[0] == 1.0


def test_single_link_fixed_point_is_decoupled():
    tables = contention_tables([[1.0]], [[1.0]], [0.05])
    result = fixed_point(tables, [0.003], MAC, TIMING)
    state = result.state
    tau_ref, b_ref = cca_probability(Chain(0.0, 0.05, MAC), 0.003, TIMING)
    assert state.alpha[0] == 0.0
    assert state.gamma[0] == approx(0.05, abs=1e-12)
    assert state.tau[0] == approx(tau_ref, rel=1e-9)
    assert state.b000[0] == approx(b_ref, rel=1e-9)
    assert result.residual < 1e-8


def _star_system(n_tx=7, radius=1.0, lam=5.0, sigma=0.0):
    """(tables, qs) of transmitters on a circle, sink at the center, with
    per-subset tables built from the channel layer."""
    chan = channel.ChannelParams()
    fading = channel.FadingParams(sigma=sigma)
    pos = [
        (radius * math.cos(2 * math.pi * i / n_tx), radius * math.sin(2 * math.pi * i / n_tx))
        for i in range(n_tx)
    ]
    k = n_tx - 1
    bits = SubsetList(k, k).bits
    useful = channel.mean_rx_power(0.0, radius, chan)

    tables = []  # (p_det, p_out, p_fad) per link
    for l in range(n_tx):
        others = tuple(z for z in range(n_tx) if z != l)
        p_det = np.zeros(2**k)
        p_out = np.zeros(2**k)
        p_fad = channel.outage_probability(
            [useful], [[]], chan.noise_mw, chan.sinr_threshold, fading
        )[0]
        for mask in range(1, 2**k):
            members = [others[z] for z in range(k) if bits[mask, z]]
            det_gains = [
                channel.mean_rx_power(0.0, math.dist(pos[l], pos[z]), chan) for z in members
            ]
            p_det[mask] = channel.detection_probability(
                [det_gains], chan.cca_threshold_mw, fading
            )[0]
            p_out[mask] = channel.outage_probability(
                [useful], [[useful] * len(members)], chan.noise_mw,
                chan.sinr_threshold, fading,
            )[0]
        tables.append((p_det, p_out, p_fad))

    return contention_tables(*zip(*tables)), np.full(n_tx, arrival_probability(lam))


def test_star_fixed_point_matches_ideal_contention_benchmark():
    # sigma=0 at close range resolves every threshold, so the coupled model
    # must land on the perfect-sensing, collisions-fatal benchmark
    lam = 5.0
    result = fixed_point(*_star_system(lam=lam), MAC, TIMING)
    q = arrival_probability(lam)
    ideal = oracles.ideal_star_fixed_point(6, q)
    state = result.state
    xi = state.gamma * (1.0 - state.alpha**5)
    reliability = 1.0 - state.alpha**5 - xi
    assert reliability == approx(ideal["reliability"], abs=0.02)
    assert state.tau == approx(ideal["tau"], abs=1e-6)
    assert state.gamma == approx(ideal["gamma"], abs=1e-6)


def test_star_fixed_point_symmetry():
    result = fixed_point(*_star_system(lam=10.0), MAC, TIMING)
    assert np.ptp(result.state.tau) < 1e-9
    assert np.ptp(result.state.gamma) < 1e-9


def test_constant_arrivals_iterate_exactly_like_fixed_qs():
    tables, qs = _star_system(lam=10.0, sigma=2.0)
    calls = []

    def arrivals(rows, reliability):
        calls.append(rows.tolist())
        return qs[None].copy()

    hooked = fixed_point(tables, qs, MAC, TIMING, arrivals=arrivals)
    plain = fixed_point(tables, qs, MAC, TIMING)
    assert hooked.iterations == plain.iterations
    assert calls == [[0]] * (plain.iterations + 1)  # every sweep and the polish
    for name in ("tau", "alpha_pkt", "alpha_ack", "gamma", "b000"):
        assert np.array_equal(getattr(hooked.state, name), getattr(plain.state, name))


def test_one_chain_per_map_application_feeds_the_arrivals_hook(monkeypatch):
    # the hook gets the reliability of the very chain tau and b000 are read from
    tables, qs = _star_system(lam=10.0, sigma=2.0)
    iterates, received = [], []

    class RecordedChain(Chain):
        def __init__(self, alpha, gamma, mac):
            super().__init__(alpha, gamma, mac)
            iterates.append((alpha.copy(), gamma.copy()))

    def arrivals(rows, reliability):
        received.append(reliability[0].copy())
        return qs[None].copy()

    monkeypatch.setattr(macmodel, "Chain", RecordedChain)
    result = fixed_point(tables, qs, MAC, TIMING, arrivals=arrivals)
    assert len(iterates) == len(received) == result.iterations + 1  # every sweep and the polish
    for (alpha, gamma), reliability in zip(iterates, received):
        assert np.array_equal(reliability, Chain(alpha, gamma, MAC).reliability)
        assert np.array_equal(reliability, oracles.reliability(alpha, gamma, MAC))


def test_fixed_point_independent_of_initialization():
    # the solve starts at (0, 0); the damped reference from (0.5, 0.5) ends there too
    tables, qs = _star_system(lam=10.0)
    a = fixed_point(tables, qs, MAC, TIMING)
    b = oracles.solve_fixed_point_damped(tables, qs, MAC, TIMING, init=(0.5, 0.5))
    for name in ("tau", "alpha", "gamma"):
        assert np.max(np.abs(getattr(a.state, name) - getattr(b.state, name))) < 1e-6


def test_fixed_point_outputs_stay_in_unit_interval_under_shadowing():
    result = fixed_point(*_star_system(lam=10.0, sigma=2.0), MAC, TIMING)
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
    tables = contention_tables([[0.0, 1.0]] * 2, [[0.0, 1.0]] * 2, [0.05, 0.05])
    result = fixed_point(tables, [0.003, 0.0], MAC, TIMING)
    state = result.state
    assert state.tau[1] == 0.0 and state.b000[1] == 0.0
    # with its only contender silent, the active link decouples
    assert state.gamma[0] == approx(0.05, abs=1e-12)
    assert state.alpha[0] == 0.0


def test_fixed_point_nonconvergence_raises_with_residual():
    with pytest.raises(ConvergenceError, match="residual"):
        fixed_point(*_star_system(lam=10.0), MAC, TIMING, config=SolverConfig(max_iter=2))


def _heavy_star_system(n_tx):
    scenario = scenario_from_config(
        {"topology": {"kind": "star", "n_nodes": n_tx + 1}, "lam": 200.0, "fading": {"sigma": 1.0}}
    )
    q = arrival_probability(200.0)
    return (build_contention_tables(scenario, whole(scenario)), np.full(n_tx, q), scenario.mac,
            scenario.timing)


@pytest.mark.parametrize("n_tx", [11, 14])
def test_heavy_load_star_converges_with_default_settings(n_tx):
    # a damping of 0.5 oscillates here without end; the accelerated step needs no tuning
    system = _heavy_star_system(n_tx)
    result = fixed_point(*system)
    reference = oracles.solve_fixed_point_damped(*system, damping=0.1)
    assert result.iterations < reference.iterations
    for name in ("tau", "alpha", "gamma", "b000"):
        got, want = getattr(result.state, name), getattr(reference.state, name)
        assert np.max(np.abs(got - want)) < 1e-7, name


def test_stalled_iteration_gives_up_long_before_max_iter():
    # arrivals that jump between heavy and light load across an alpha threshold
    # leave the map without a fixed point: the residual cannot drop below the jump
    tables = _toy_tables(2, p_det_fill=1.0, p_out_fill=0.0, p_fad=0.0)
    calls = []

    def arrivals(rows, reliability):
        calls.append(1)
        # gamma stays 0, so reliability is 1 - alpha^5: the jump sits at alpha = 0.1
        return np.full((1, 2), 0.2 if reliability[0, 0] > 1.0 - 0.1**5 else 0.001)

    with pytest.raises(ConvergenceError, match="stalled .* residual"):
        fixed_point(tables, [0.2, 0.2], MAC, TIMING,
                    config=SolverConfig(max_iter=10_000), arrivals=arrivals)
    assert len(calls) < 500


def test_transient_alpha_overshoot_does_not_warn():
    # long frames at high load overshoot L*H past 1 early in the iteration;
    # the solution is interior, so the clamped iterates leave no warning
    long_frames = TimingParams(l_pkt=30.0)
    tables = _toy_tables(3, p_det_fill=1.0, p_out_fill=1.0, p_fad=0.0)
    result = fixed_point(tables, [0.2] * 3, MAC, long_frames)
    assert result.warnings == []
    assert np.all(result.state.alpha_pkt + result.state.alpha_ack < macmodel.ALPHA_CAP)


def test_fixed_point_reports_alpha_clamping():
    # a silent link that hears both long-frame senders is busy more than all
    # the time: its alpha stays pinned at the cap in the solution
    long_frames = TimingParams(l_pkt=30.0)
    tables = _toy_tables(3, p_det_fill=1.0, p_out_fill=1.0, p_fad=0.0)
    result = fixed_point(tables, [0.0, 0.2, 0.2], MAC, long_frames)
    assert result.warnings == [f"alpha clamped to {macmodel.ALPHA_CAP} on 1 link(s)"]
    assert result.state.alpha[0] == macmodel.ALPHA_CAP
    assert np.all(result.state.alpha[1:] < macmodel.ALPHA_CAP)


def test_permissive_thresholds_leave_contention_only_losses():
    # perfect detection with no outage: gamma -> 0, failures only from access
    tables = _toy_tables(3, p_det_fill=1.0, p_out_fill=0.0, p_fad=0.0)
    result = fixed_point(tables, [0.2] * 3, MAC, TIMING)
    assert np.all(result.state.gamma == 0.0)
    assert np.all(result.state.alpha > 0.0)


def test_solver_config_validation():
    # the step has no damping knob: a config that sets one names the unknown key
    star = {"topology": {"kind": "star", "n_nodes": 3}}
    with pytest.raises(ValidationError, match="unknown key 'damping' in solver"):
        scenario_from_config({**star, "solver": {"damping": 0.5}})
    with pytest.raises(ValidationError, match="unknown key 'damping' in solver"):
        scenario_from_config({**star, "solver": {"damping": 0.1, "tol": 1e-10}})
    with pytest.raises(ValidationError):
        SolverConfig(tol=-1.0)


def test_contention_tables_validate_table_sizes():
    # L links need (L, rows) p_det and p_out, rows the length of a subset
    # list of L - 1 contenders (1, then 2 for two links), and L values of p_fad
    good = np.ones((2, 2))
    cases = [("p_det", (bad, bad, np.zeros(len(bad))), bad.shape)
             for bad in (np.ones((2, 3)), np.ones((3, 2)), np.ones(2), np.ones((0, 0)))]
    cases += [("p_out", (good, bad, np.zeros(2)), bad.shape)
              for bad in (np.ones((2, 1)), np.ones((1, 2)), np.ones(4))]
    cases += [("p_fad", (good, good, bad), bad.shape)
              for bad in (np.zeros(1), np.zeros(3), np.zeros((2, 1)))]
    for name, args, shape in cases:
        with pytest.raises(ValidationError, match="table sizes") as refused:
            contention_tables(*args)
        assert f"{name} {shape}" in str(refused.value)
    tables = contention_tables(good, 0.5 * good, [0.1, 0.2])
    assert len(tables) == 2 and not tables.flags.writeable
    assert tables.p_out.tolist() == [[0.5, 0.5]] * 2 and tables[1].p_fad == 0.2


def test_solve_fixed_point_refuses_qs_of_another_length():
    # P table sets of L links take (P, L) qs: one point is a stack of one
    tables = [contention_tables([[1.0]], [[1.0]], [0.0])]
    for sets, qs in ((tables, [[0.1, 0.2]]), (tables, []), (tables, [0.1]), (tables, 0.1),
                     (tables, [[0.1], [0.2]]), (tables * 2, [[0.1]]), ([], np.zeros((0, 1)))):
        with pytest.raises(ValidationError, match="qs length must match table count"):
            macmodel.solve_fixed_point(sets, SubsetList(0, 0), qs, MAC, TIMING)
    assert len(macmodel.solve_fixed_point(tables * 2, SubsetList(0, 0), [[0.1], [0.2]], MAC,
                                          TIMING)) == 2


@pytest.mark.parametrize("k", range(14))
def test_subset_weights_match_the_concatenating_loop_bit_for_bit(k):
    # one broadcast product per contender forms the very products of the concatenation
    eff = np.random.default_rng(k).uniform(0.0, 1.0, size=(3, 2, k))
    for stack in (eff, eff[0]):
        got = macmodel._subset_weights(stack, SubsetList(k, k))
        assert got.shape == stack.shape[:-1] + (2**k,)
        assert np.array_equal(got, oracles.subset_weights_concat(stack))


def test_mask_bits_number_the_other_links_ascending():
    # mask bit z of link l's table is the z-th other link, ascending
    assert macmodel._other_links(4).tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    subsets = SubsetList(3, 3)
    bits, sizes = subsets.bits, subsets.sizes
    assert bits[0b101].tolist() == [True, False, True] and sizes.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]


@pytest.mark.parametrize("k, depth", [(3, 3), (7, 2), (10, 4)])
def test_the_float_bits_give_the_products_of_the_bool_bits(k, depth):
    bits = np.array([[m >> z & 1 for z in range(k)] for m in range(2**k)
                     if bin(m).count("1") <= depth], dtype=bool)
    run = sweep._Pass()  # a pass makes each list once
    floats = run.subset_list(k, depth).bits
    assert floats.dtype == float and not floats.flags.writeable
    assert np.array_equal(floats, bits) and run.subset_list(k, depth).bits is floats
    gammas = np.random.default_rng(k).uniform(0.0, 1.0, size=(4, k + 1, k))
    for stack in (gammas, gammas[0]):
        assert np.array_equal(stack @ floats.T, stack @ bits.T)


@pytest.mark.parametrize("k", range(11))
def test_listed_weights_are_the_whole_doublings_at_the_listed_masks(k):
    # a list of depth s holds the masks of at most s members, ascending, and
    # each row's weight is the very product the doubling over all 2^k forms
    eff = np.random.default_rng(k).uniform(0.0, 1.0, size=(3, 2, k))
    whole = oracles.subset_weights_concat(eff)
    for depth in range(k + 1):
        subsets = SubsetList(k, depth)
        masks = subsets.bits.astype(int) @ (1 << np.arange(k))
        assert masks.tolist() == [m for m in range(2**k) if bin(m).count("1") <= depth]
        assert subsets.sizes.tolist() == [bin(m).count("1") for m in masks.tolist()]
        assert len(masks) == macmodel._list_rows(k)[depth]
        got = macmodel._subset_weights(eff, subsets)
        assert np.array_equal(got, whole[..., masks])
        assert np.array_equal(macmodel._subset_weights(eff[0], subsets), got[0])


@pytest.mark.parametrize("k", range(11))
def test_subset_tails_match_the_sum_over_all_subsets(k):
    rng = np.random.default_rng(100 + k)
    eff = rng.uniform(0.0, 0.8, size=(3, k)) ** 3  # tails from near 1 to below 1e-20
    reference = [oracles.subset_size_tails(row.tolist()) for row in eff]
    for top in range(k + 1):
        got = macmodel.subset_tails(eff, top)
        assert got.shape == (3, top + 1)
        np.testing.assert_allclose(got, [ref[: top + 1] for ref in reference], rtol=1e-12, atol=0)
        assert np.array_equal(got[0], macmodel.subset_tails(eff[0], top))


@pytest.mark.parametrize("k", [1, 3, 6, 8])
def test_truncated_tables_move_each_term_by_at_most_its_bound(k):
    # one application of the map on a list of depth s and on the whole
    # tables differs by at most l_pkt T, l_ack T and (1 + |2 l_pkt - 1|) T
    # in alpha_pkt, alpha_ack and gamma, T the tail P[|S| > s] of the link
    rng = np.random.default_rng(200 + k)
    n = k + 1
    p_det, p_out = rng.uniform(size=(2, n, 2**k))
    p_out[:, 0] = 0.0
    p_fad = rng.uniform(size=n)
    whole = contention_tables(p_det, p_out, p_fad)
    taus, alphas, gammas = rng.uniform(0.0, 0.6, size=(3, n))
    eff = taus * (1.0 - alphas)
    others = macmodel._other_links(n)
    for timing in (TIMING, TimingParams(l_pkt=0.25)):
        factors = (timing.l_pkt, timing.l_ack, 1.0 + abs(2.0 * timing.l_pkt - 1.0))
        exact = contention_terms(whole, SubsetList(k, k), timing, taus, alphas, gammas)
        bounds = macmodel.truncation_bounds(eff, timing, k)
        for depth in range(k + 1):
            subsets = SubsetList(k, depth)
            masks = subsets.bits.astype(int) @ (1 << np.arange(k))
            listed = contention_tables(p_det[:, masks], p_out[:, masks], p_fad)
            got = contention_terms(listed, subsets, timing, taus, alphas, gammas)
            tails = np.array([oracles.subset_size_tails(eff[others[l]].tolist())[depth]
                              for l in range(n)])
            assert bounds[depth] == approx(max(factors) * tails.max(), rel=1e-12, abs=1e-300)
            for value, reference, factor in zip(got, exact, factors):
                assert np.all(np.abs(value - reference) <= factor * tails + 1e-15)
            if depth == k:
                assert all(np.array_equal(a, b) for a, b in zip(got, exact))


def test_bounded_depth_is_the_least_bounded_list_that_halves_the_table():
    # k = 10: lists of depth 0..4 keep 1, 11, 56, 176 and 386 of 1 024 rows;
    # from depth 5 (638 rows) on, a list keeps more than half
    bounds = np.array([1.0, 1e-3, 1e-6, 2.4e-7, 8e-10, 1e-13, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert macmodel._list_rows(10)[:6] == (1, 11, 56, 176, 386, 638)
    assert macmodel.bounded_depth(bounds, 1e-8, 10) == 4
    assert macmodel.bounded_depth(bounds, 1e-6, 10) == 2
    assert macmodel.bounded_depth(bounds, 1e-10, 10) == 10
    assert macmodel.bounded_depth(bounds[:4], 1e-8, 10) is None
    assert SubsetList(10, 4).rows == 386
