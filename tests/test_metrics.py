"""Tests for reliability, delay, and energy indicators."""

import math

import numpy as np
import pytest
from pytest import approx

import oracles
from one_point import report
from csmafade import metrics
from csmafade.errors import ValidationError
from csmafade.macmodel import UNIT_SECONDS, Chain, LinkState, MacParams, TimingParams, cca_probability
from csmafade.metrics import EnergyBreakdown, PowerProfile, energy_rate, expected_delay

MAC = MacParams()
MAC_RETRY = MacParams(n=3)
TIMING = TimingParams()


def _state(tau=0.0, alpha=0.0, gamma=0.0, b000=0.0):
    """A LinkState of one link, or of several where lists are given."""
    tau, alpha, gamma, b000 = np.broadcast_arrays(*map(np.atleast_1d, (tau, alpha, gamma, b000)))
    return LinkState(tau, alpha_pkt=alpha, alpha_ack=0.0 * alpha, gamma=gamma, b000=b000)


def reliability(alpha, gamma, mac):
    return Chain(alpha, gamma, mac).reliability


def delay(alpha, gamma, mac):
    return expected_delay(Chain(alpha, gamma, mac), TIMING)


def energy(states, profile, next_link=None):
    return energy_rate(states, Chain(states.alpha, states.gamma, MAC), profile, TIMING, next_link)


def test_power_profile_rejects_negative_draws():
    with pytest.raises(ValidationError):
        PowerProfile(p_tx=-1.0)


def test_reliability_trivial_endpoints():
    assert reliability(0.0, 0.0, MAC) == 1.0
    assert reliability(0.0, 1.0, MAC) == 0.0


def test_reliability_longhand_value():
    expected = 1.0 - 0.3**5 - 0.2 * (1.0 - 0.3**5)
    assert reliability(0.3, 0.2, MAC) == approx(expected, rel=1e-12)


def test_reliability_matches_bernoulli_absorption_simulation():
    # frozen from oracles.simulate_attempt_process(0.3, 0.2, 0.003, n_packets=1e6, seed=7)
    assert reliability(0.3, 0.2, MAC) == approx(0.797412, abs=1e-3)


def test_reliability_monotone_in_alpha_and_gamma():
    grid = np.linspace(0.0, 1.0, 21)
    for gamma in grid:
        values = [reliability(a, gamma, MAC_RETRY) for a in grid]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
    for alpha in grid:
        values = [reliability(alpha, g, MAC_RETRY) for g in grid]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


def test_outcome_probabilities_close_to_one():
    # p_cf + p_cr + p_success is exactly 1 for any (alpha, gamma)
    for mac in (MAC, MAC_RETRY):
        for alpha in (0.0, 0.3, 0.7, 0.999):
            for gamma in (0.0, 0.2, 0.9, 1.0):
                chain = Chain(alpha, gamma, mac)
                p_cf, p_cr = chain.p_cf, chain.p_cr
                xi = gamma * (1.0 - alpha ** (mac.m + 1))
                p_succ = (
                    (1.0 - gamma)
                    * (1.0 - alpha ** (mac.m + 1))
                    * sum(xi**h for h in range(mac.n + 1))
                )
                assert p_cf + p_cr + p_succ == approx(1.0, abs=1e-12)


def test_distributions_are_normalized_everywhere():
    # the round and retry weights, over their sums, are the distributions of
    # the CCA rounds and of the attempts that delay and power average over
    for alpha in (0.0, 0.3, 0.9):
        for gamma in (0.0, 0.5, 1.0):
            chain = Chain(alpha, gamma, MAC_RETRY)
            rounds = np.array(chain.rounds) / chain.round_sum
            retries = np.array(chain.retries) / chain.retry_sum
            for dist, size in ((rounds, MAC_RETRY.m + 1), (retries, MAC_RETRY.n + 1)):
                assert dist.shape == (size,)
                assert np.all(dist >= 0.0)
                assert dist.sum() == approx(1.0, rel=1e-12)


def test_expected_delay_single_attempt_closed_form():
    assert delay(0.0, 0.0, MAC) / UNIT_SECONDS == approx(12.8 + 0.4 + 3.5, rel=1e-12)


def test_mean_access_time_weights_capped_windows():
    # alpha=0.3: rounds distribution over r busy CCAs, cumulative mean backoffs;
    # with gamma = 0 the delay is one successful transaction plus the access time
    rounds = [0.3**r for r in range(5)]
    total = sum(rounds)
    cum = np.cumsum([3.5, 7.5, 15.5, 15.5, 15.5])
    expected = sum(p / total * ((r + 1) * 0.4 + cum[r]) for r, p in enumerate(rounds))
    assert delay(0.3, 0.0, MAC) / UNIT_SECONDS == approx(12.8 + expected, rel=1e-12)


def test_expected_delay_matches_attempt_simulation():
    # frozen from oracles.simulate_attempt_process(0.3, 0.2, 0.003, n=3, n_packets=1e6, seed=7)
    delay_units = delay(0.3, 0.2, MAC_RETRY) / UNIT_SECONDS
    assert delay_units == approx(25.131177, rel=0.01)


def test_expected_delay_undefined_without_success():
    assert math.isnan(delay(0.0, 1.0, MAC))
    assert math.isnan(delay(1.0, 0.0, MAC))


def test_array_inputs_match_scalar_calls():
    # numpy's vectorised pow may differ from the scalar libm pow in the last
    # bit, which the formulas carry through a few dozen roundings at most
    tol = 64 * np.finfo(float).eps
    rng = np.random.default_rng(11)
    alpha = np.concatenate([[0.0, 0.5, 0.999], rng.uniform(0.0, 0.99, 20)])
    gamma = np.concatenate([[1.0, 0.2, 0.0], rng.uniform(0.0, 1.0, 20)])
    q = np.concatenate([[0.003, 1.0, 0.2], rng.uniform(1e-4, 1.0, 20)])
    for mac in (MAC, MAC_RETRY):
        chain = Chain(alpha, gamma, mac)
        tau, b000 = cca_probability(chain, q, TIMING)
        rel = chain.reliability
        delays = expected_delay(chain, TIMING)
        for i, (a, g, qi) in enumerate(zip(alpha.tolist(), gamma.tolist(), q.tolist())):
            scalar = Chain(a, g, mac)
            assert (tau[i], b000[i]) == approx(cca_probability(scalar, qi, TIMING), rel=tol)
            assert rel[i] == approx(scalar.reliability, rel=tol, abs=tol)
            assert delays[i] == approx(expected_delay(scalar, TIMING), rel=tol, nan_ok=True)
        assert math.isnan(delays[0]) and not np.isnan(delays[1:]).any()


def test_expected_delay_increases_with_alpha():
    delays = [delay(a, 0.3, MAC_RETRY) for a in np.linspace(0.0, 0.9, 10)]
    assert all(x < y for x, y in zip(delays, delays[1:]))
    assert all(math.isfinite(d) for d in delays)


def test_energy_idle_only_node_sleeps():
    breakdown = energy(_state(b000=0.9), PowerProfile())
    assert breakdown.total == approx([PowerProfile().p_sleep * 0.9], rel=1e-12)


def test_energy_relay_idles_while_waiting():
    # link 1 (a silent child: no relay traffic cost) is relayed by link 0
    states = _state(b000=[0.9, 0.0])
    breakdown = energy(states, PowerProfile(), next_link=[-1, 0])
    assert breakdown.queue[0] == approx(PowerProfile().p_idle * 0.9, rel=1e-12)
    assert breakdown.relay[0] == 0.0


def test_energy_backoff_collapses_at_alpha_zero():
    breakdown = energy(_state(tau=0.01, b000=0.5), PowerProfile())
    assert breakdown.backoff == approx([PowerProfile().p_idle * 0.005 * (2**3 + 1)], rel=1e-12)


def test_energy_transaction_longhand():
    profile = PowerProfile(p_idle=3.0, p_sense=5.0, p_tx=7.0, p_rx=11.0, p_sleep=0.1)
    breakdown = energy(_state(tau=0.01, alpha=0.2, gamma=0.3, b000=0.4), profile)
    expected = 0.8 * 0.01 * (7.0 * 7.0 + 3.0 + (11.0 * 0.7 + 3.0 * 0.3) * 1.1)
    assert breakdown.transmit == approx([expected], rel=1e-12)
    assert breakdown.sense == approx([5.0 * 0.01], rel=1e-12)


def test_energy_relay_cost_mirrors_child_transaction():
    profile = PowerProfile(p_idle=3.0, p_sense=5.0, p_tx=7.0, p_rx=11.0, p_sleep=0.1)
    # link 0 relays link 1
    states = _state(tau=[0.0, 0.01], alpha=[0.0, 0.2], gamma=[0.0, 0.3], b000=[0.9, 0.4])
    breakdown = energy(states, profile, next_link=[-1, 0])
    assert breakdown.relay[0] == approx(breakdown.transmit[1], rel=1e-12)
    assert breakdown.relay[1] == 0.0


def test_energy_components_nonnegative():
    rng = np.random.default_rng(3)
    states = _state(
        tau=rng.uniform(0, 0.2, 30),
        alpha=rng.uniform(0, 0.9, 30),
        gamma=rng.uniform(0, 1, 30),
        b000=rng.uniform(0, 1, 30),
    )
    b = energy(states, PowerProfile())
    for values in (b.backoff, b.sense, b.transmit, b.queue, b.relay):
        assert np.all(values >= 0.0)


def test_energy_rejects_mismatched_next_link():
    with pytest.raises(ValidationError):
        energy(_state(), PowerProfile(), next_link=[-1, -1])


def test_report_aggregates_and_discard_fractions():
    # link 0 can deliver, link 1 never can
    states = _state(tau=0.004, alpha=[0.3, 0.0], gamma=[0.2, 1.0], b000=0.4)
    rep = report(states, PowerProfile(), MAC, TIMING)
    assert rep.p_cf[0] + rep.p_cr[0] + rep.reliability[0] == approx(1.0, abs=1e-12)
    assert rep.reliability[1] == 0.0
    assert math.isnan(rep.delay_seconds[1])
    # aggregate delay averages only links that can succeed
    assert rep.mean_delay_seconds == approx(rep.delay_seconds[0], rel=1e-12)
    assert rep.mean_reliability == approx((rep.reliability[0] + 0.0) / 2, rel=1e-12)
    assert rep.mean_power_mw > 0.0


def test_energy_breakdown_total_sums_components():
    b = EnergyBreakdown(1.0, 2.0, 3.0, 5.0, 6.0)
    assert b.total == 17.0


# the grid of the oracle comparison: every m and n branch of the sums
GRID_MACS = (
    MacParams(m=0, n=0),
    MacParams(m=1, n=7),
    MAC,
    MacParams(m=4, n=3),
    MacParams(m0=2, mb=4, m=5, n=1),
)


def _grid():
    alpha, gamma = np.meshgrid(np.linspace(0.0, 0.99, 34), np.linspace(0.0, 1.0, 21))
    q = np.resize([0.003, 0.2, 1.0, 1e-5], alpha.size)
    return alpha.ravel(), gamma.ravel(), q


def test_chain_matches_the_per_quantity_references_bitwise():
    # tau, b000 and the discard split equal the one-function-per-quantity forms
    # bit for bit, on arrays as in the solver and on scalars as in the tests
    alpha, gamma, q = _grid()
    for mac in GRID_MACS:
        chain = Chain(alpha, gamma, mac)
        tau, b000 = cca_probability(chain, q, TIMING)
        tau_ref, b000_ref = oracles.cca_reference(alpha, gamma, q, mac, TIMING)
        p_cf, p_cr = oracles.discard_probabilities(alpha, gamma, mac)
        assert np.array_equal(tau, tau_ref) and np.array_equal(b000, b000_ref)
        assert np.array_equal(chain.xi, oracles.xi_value(alpha, gamma, mac))
        assert np.array_equal(chain.p_cf, p_cf) and np.array_equal(chain.p_cr, p_cr)
        assert np.array_equal(chain.reliability, oracles.reliability(alpha, gamma, mac))
        for a, g, qi in list(zip(alpha.tolist(), gamma.tolist(), q.tolist()))[::7]:
            scalar = Chain(a, g, mac)
            assert cca_probability(scalar, qi, TIMING) == oracles.cca_reference(a, g, qi, mac, TIMING)
            assert (scalar.p_cf, scalar.p_cr) == oracles.discard_probabilities(a, g, mac)
            assert scalar.reliability == oracles.reliability(a, g, mac)


def test_report_matches_the_per_quantity_references():
    # delay and the mean backoff window sum the same terms as the references,
    # normalised by the chain's sums, so they may differ in the last bits only
    alpha, gamma, _ = _grid()
    profile = PowerProfile()
    for mac in GRID_MACS:
        states = _state(tau=0.01, alpha=alpha, gamma=gamma, b000=0.2)
        rep = report(states, profile, mac, TIMING)
        p_cf, p_cr = oracles.discard_probabilities(alpha, gamma, mac)
        assert np.array_equal(rep.p_cf, p_cf) and np.array_equal(rep.p_cr, p_cr)
        assert np.array_equal(rep.reliability, oracles.reliability(alpha, gamma, mac))
        delay_ref = oracles.delay_reference(alpha, gamma, mac, TIMING)
        assert np.array_equal(np.isnan(rep.delay_seconds), np.isnan(delay_ref))
        finite = ~np.isnan(delay_ref)
        assert rep.delay_seconds[finite] == approx(delay_ref[finite], rel=1e-15, abs=0.0)
        backoff_ref = profile.p_idle * (0.01 / 2.0) * (oracles.mean_window(alpha, mac) + 1.0)
        assert rep.energy.backoff == approx(backoff_ref, rel=1e-15, abs=0.0)
