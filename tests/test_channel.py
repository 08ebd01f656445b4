"""Channel-layer probability tests: moment matching, detection, outage."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, roots_hermite

import oracles
from oracles import ScalarLognormal, Term, gaussian_tail, linear_to_db, scalar_moment_fit
from csmafade.channel import (
    ChannelParams,
    KAPPA_MAX,
    FadingParams,
    detection_probability,
    lognormal_expectation,
    mean_rx_power,
    mma_fit,
    outage_probability,
    _gamma_cdf_unit_mean,
)
import csmafade
from csmafade import channel
from csmafade.errors import NumericsError, ValidationError
from csmafade.units import dbm_to_mw

PACKAGE_DIR = str(Path(csmafade.__file__).resolve().parents[1])


def faded(weight, fading):
    """A reference term with the fading every production term carries."""
    return Term(weight, fading.sigma, fading.multipath)


# ---------------------------------------------------------------------------
# mean received power


def test_mean_rx_power_reference_distance():
    chan = ChannelParams(c0_db=-40.0, k=2.0)
    assert linear_to_db(mean_rx_power(0.0, 1.0, chan)) == pytest.approx(-40.0)


def test_mean_rx_power_distance_slope():
    chan = ChannelParams(c0_db=-40.0, k=2.0)
    assert linear_to_db(mean_rx_power(0.0, 10.0, chan)) == pytest.approx(-60.0)


def test_mean_rx_power_frozen_value():
    # -10 dBm at 3 m with c0 = -55 dB, k = 3: -10 - 55 - 30*log10(3) dBm
    chan = ChannelParams(c0_db=-55.0, k=3.0)
    p = mean_rx_power(-10.0, 3.0, chan)
    assert linear_to_db(p) == pytest.approx(-79.31363764158988, abs=1e-9)
    assert p == pytest.approx(1.1712139482105095e-08, rel=1e-12)


def test_mean_rx_power_rejects_bad_distance():
    chan = ChannelParams()
    with pytest.raises(ValidationError):
        mean_rx_power(0.0, 0.0, chan)
    with pytest.raises(ValidationError):
        mean_rx_power(0.0, -2.0, chan)


def test_mean_rx_power_rejects_a_level_beyond_the_limit():
    chan = ChannelParams()  # c0 = -55 dB, k = 2: 0 dBm gives -55 - 20 log10(d) dBm
    assert mean_rx_power(0.0, 10.0 ** 12.2, chan) == pytest.approx(dbm_to_mw(-299.0))
    for distance in (1e-300, 10.0 ** 12.3):
        with pytest.raises(ValidationError, match="received level"):
            mean_rx_power(0.0, distance, chan)


def test_channel_params_validation():
    with pytest.raises(ValidationError):
        ChannelParams(c0_db=-85.0)
    with pytest.raises(ValidationError):
        ChannelParams(k=1.0)
    with pytest.warns(UserWarning):
        ChannelParams(c0_db=-70.0)


# ---------------------------------------------------------------------------
# Gaussian tail


def test_q_function_reference_points():
    assert gaussian_tail(0.0) == pytest.approx(0.5)
    assert gaussian_tail(1.6448536) == pytest.approx(0.05, abs=1e-6)
    assert gaussian_tail(-8.0) == pytest.approx(1.0, abs=1e-12)


def test_q_function_symmetry_and_monotonicity():
    zs = np.linspace(-6.0, 6.0, 41)
    vals = [gaussian_tail(z) for z in zs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for z in zs:
        assert gaussian_tail(z) + gaussian_tail(-z) == pytest.approx(1.0, abs=1e-14)


def test_erfc_maps_math_erfc_over_an_array_of_any_shape():
    x = np.linspace(-7.0, 30.0, 24).reshape(2, 3, 4)
    for arg in (x, x[0, 0], np.array(0.75), np.zeros((0, 3))):
        got = channel._erfc(arg)
        assert got.shape == arg.shape and got.dtype == float
        assert got.ravel().tolist() == [math.erfc(v) for v in arg.ravel().tolist()]


# ---------------------------------------------------------------------------
# moment matching


def test_mma_single_term_is_exact():
    fit = scalar_moment_fit([Term(1.0, 0.5)])
    assert fit.eta == pytest.approx(0.0, abs=1e-12)
    assert fit.sigma == pytest.approx(0.5, abs=1e-12)


def test_mma_single_term_cdf_matches_lognormal_everywhere():
    w, s = 2.3, 1.2
    fit = scalar_moment_fit([Term(w, s)])
    for z in np.linspace(-3.0, 3.0, 20):
        t = math.exp(math.log(w) + s * z)
        exact = gaussian_tail((math.log(t) - math.log(w)) / s)
        assert fit.tail_probability(t) == pytest.approx(exact, abs=1e-12)


def test_mma_weight_scaling_shifts_eta_only():
    terms = [Term(1.0, 0.8), Term(0.4, 1.5)]
    base = scalar_moment_fit(terms)
    for c in (0.01, 0.5, 3.0, 250.0):
        scaled = scalar_moment_fit([Term(c * t.weight, t.sigma) for t in terms])
        assert scaled.eta - base.eta == pytest.approx(math.log(c), abs=1e-10)
        assert scaled.sigma == pytest.approx(base.sigma, abs=1e-12)


def _direct_moments(terms, corr, fading):
    """First/second moment of the sum, computed longhand."""
    m1 = 0.0
    for t in terms:
        m1 += t.weight * math.exp(0.5 * t.sigma**2)
    m2 = 0.0
    for i, ti in enumerate(terms):
        for j, tj in enumerate(terms):
            rho = corr[i][j] if corr is not None else (1.0 if i == j else 0.0)
            ea = 1.0
            if i == j and fading is not None and fading.multipath and ti.has_multipath:
                ea = (fading.kappa + 1.0) / fading.kappa
            m2 += (
                ea
                * ti.weight
                * tj.weight
                * math.exp(0.5 * (ti.sigma**2 + tj.sigma**2) + rho * ti.sigma * tj.sigma)
            )
    return m1, m2


def test_mma_reproduces_exact_moments():
    fading = FadingParams(sigma=1.0, kappa=3.0)
    cases = [
        ([Term(1.0, 1.0), Term(1.0, 1.0)], None, None),
        ([Term(2.0, 0.5), Term(0.3, 1.5), Term(0.1, 0.0)], None, None),
        (
            [Term(1.0, 1.0, True), Term(0.5, 0.7, True)],
            [[1.0, 0.4], [0.4, 1.0]],
            fading,
        ),
    ]
    for terms, corr, fad in cases:
        fit = scalar_moment_fit(terms, corr=np.array(corr) if corr else None, fading=fad)
        m1, m2 = _direct_moments(terms, corr, fad)
        assert math.exp(fit.eta + 0.5 * fit.sigma**2) == pytest.approx(m1, rel=1e-12)
        assert math.exp(2.0 * fit.eta + 2.0 * fit.sigma**2) == pytest.approx(m2, rel=1e-12)


def test_mma_two_term_moments_vs_monte_carlo():
    fit = scalar_moment_fit([Term(1.0, 1.0), Term(1.0, 1.0)])
    model_mean = math.exp(fit.eta + 0.5 * fit.sigma**2)
    model_var = (math.exp(fit.sigma**2) - 1.0) * math.exp(2 * fit.eta + fit.sigma**2)
    mc_mean, mc_var, _, _ = oracles.mc_sum_moments(
        [1.0, 1.0], [1.0, 1.0], [False, False], None, n_samples=10**7, seed=11
    )
    assert abs(model_mean - mc_mean) / mc_mean < 0.005
    assert abs(model_var - mc_var) / mc_var < 0.005


def test_mma_rejects_bad_input():
    with pytest.raises(ValidationError):
        scalar_moment_fit([])
    with pytest.raises(ValidationError):
        scalar_moment_fit([Term(0.0, 1.0)])
    with pytest.raises(ValidationError):
        scalar_moment_fit([Term(1.0, 1.0)], corr=np.eye(3))


def test_fading_params_validation():
    for sigma in (-0.1, math.inf, math.nan):
        with pytest.raises(ValidationError, match="sigma"):
            FadingParams(sigma=sigma)
    with pytest.raises(ValidationError):
        FadingParams(kappa=0.2)
    assert FadingParams(kappa=KAPPA_MAX).kappa == KAPPA_MAX
    for kappa in (np.nextafter(KAPPA_MAX, math.inf), 1e6, 1e308, math.inf, math.nan):
        with pytest.raises(ValidationError, match="kappa"):
            FadingParams(kappa=kappa)


# ---------------------------------------------------------------------------
# detection probability


def test_detection_threshold_below_support():
    fading = FadingParams(sigma=0.7)
    assert detection_probability([[1.0]], 1e-300, fading)[0] == pytest.approx(1.0)
    assert detection_probability([[1.0]], 1e-300)[0] == pytest.approx(1.0)


def test_detection_at_median():
    fit = scalar_moment_fit([Term(3.0, 1.1)])
    p = detection_probability([[3.0]], math.exp(fit.eta), FadingParams(sigma=1.1))[0]
    assert p == pytest.approx(0.5)


def test_detection_no_transmitters():
    assert detection_probability([[]], dbm_to_mw(-76.0))[0] == 0.0


def test_detection_star_three_terms_vs_monte_carlo():
    # three contenders of a star of 7 unit-radius nodes, sigma = 2 nepers
    chan = ChannelParams()
    dists = [2.0 * math.sin(math.pi * d / 7.0) for d in (1, 2, 3)]
    weights = [mean_rx_power(0.0, d, chan) for d in dists]
    a_mw = dbm_to_mw(-76.0)
    model = detection_probability([weights], a_mw, FadingParams(sigma=2.0))[0]
    mc = oracles.mc_tail_probability(
        weights, [2.0] * 3, [False] * 3, None, a_mw, n_samples=10**7, seed=12
    )
    assert abs(model - mc) < 0.01


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_detection_multipath_sum_vs_monte_carlo(kappa):
    # every term carries the Gamma factor, so the fit runs through the
    # closed-form Gamma transform; a moment-matched fit misses this tail by
    # up to ~0.021 at the 0.1 probe
    weights = [1.0 / (i + 1) for i in range(8)]
    sigmas, multipath = [1.0] * 8, [True] * 8
    fading = FadingParams(sigma=1.0, kappa=kappa)
    for tail in (0.01, 0.05, 0.1):
        thr = oracles.mc_quantile(weights, sigmas, multipath, kappa, tail, seed=31)
        mc = oracles.mc_tail_probability(
            weights, sigmas, multipath, kappa, thr, n_samples=2 * 10**6, seed=32
        )
        model = detection_probability([weights], thr, fading)[0]
        assert abs(model - mc) <= 0.015, (tail, mc)


def test_detection_refuses_an_unconverged_mgf_fit(monkeypatch):
    monkeypatch.setattr(channel, "MGF_MAX_ITER", 1)
    with pytest.raises(NumericsError, match="MGF matching did not converge"):
        detection_probability([[1.0, 0.5]], 1.0, FadingParams(sigma=1.0))


def test_detection_monotone_in_threshold():
    for fading in (FadingParams(sigma=1.0), FadingParams(sigma=2.0)):
        probs = [
            detection_probability([[1.0, 0.5]], t, fading)[0]
            for t in np.logspace(-4, 2, 25)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))


# ---------------------------------------------------------------------------
# outage probability


def test_outage_rayleigh_closed_form():
    chan = ChannelParams()
    pbar = mean_rx_power(0.0, 1.0, chan)
    b = chan.sinr_threshold
    p = outage_probability(
        [pbar], [[]], chan.noise_mw, b, FadingParams(sigma=0.0, kappa=1.0)
    )[0]
    assert p == pytest.approx(1.0 - math.exp(-b * chan.noise_mw / pbar), abs=1e-10)


def test_outage_large_kappa_approaches_no_multipath():
    chan = ChannelParams()
    pbar = mean_rx_power(0.0, 1.0, chan)
    b = chan.sinr_threshold
    with_mp = outage_probability(
        [pbar], [[]], chan.noise_mw, b, FadingParams(sigma=2.0, kappa=64.0)
    )[0]
    without = outage_probability(
        [pbar], [[]], chan.noise_mw, b, FadingParams(sigma=2.0)
    )[0]
    assert abs(with_mp - without) < 5e-3


def test_outage_kappa2_one_interferer_vs_monte_carlo():
    chan = ChannelParams()
    pbar = mean_rx_power(0.0, 1.0, chan)
    b = chan.sinr_threshold
    n0 = chan.noise_mw
    fading = FadingParams(sigma=1.0, kappa=2.0)

    # the interferer carries the composite fading too: the moment-matched
    # lognormal smooths its Gamma factor and carries a known body-region error
    # (~0.018 measured here), inherent to the approximation rather than a bug.
    model = outage_probability([pbar], [[pbar]], n0, b, fading)[0]
    mc = oracles.mc_sinr_outage(
        pbar, 1.0, True, [pbar], [1.0], [True], n0, b, 2.0, n_samples=10**7, seed=13
    )
    assert abs(model - mc) < 0.03


def test_outage_sigma0_is_exact_step():
    n0 = 1e-9
    # SNR comfortably above threshold: no outage
    assert outage_probability([1.0], [[]], n0, 4.0, FadingParams())[0] == 0.0
    # mean power below threshold*noise: certain outage
    assert outage_probability([1e-10], [[]], n0, 4.0, FadingParams())[0] == 1.0


def test_outage_monotone_in_threshold_and_interference():
    chan = ChannelParams()
    pbar = mean_rx_power(0.0, 2.0, chan)
    n0 = chan.noise_mw
    for fading in (FadingParams(sigma=1.0), FadingParams(sigma=1.0, kappa=2.0)):
        by_b = [
            outage_probability([pbar], [[0.3 * pbar]], n0, b, fading)[0]
            for b in np.logspace(-1.5, 1.5, 9)
        ]
        assert all(x <= y + 1e-12 for x, y in zip(by_b, by_b[1:]))
        by_w = [
            outage_probability([pbar], [[w * pbar]], n0, 3.98, fading)[0]
            for w in (0.0, 0.1, 0.5, 1.0, 2.0)
        ]
        assert all(x <= y + 1e-12 for x, y in zip(by_w, by_w[1:]))


def test_outage_validates_terms():
    fading = FadingParams()
    with pytest.raises(ValidationError):
        outage_probability([0.0], [[]], 1e-9, 4.0, fading)
    with pytest.raises(ValidationError):
        outage_probability([1.0], [[]], 0.0, 4.0, fading)
    with pytest.raises(ValidationError):
        outage_probability([1.0], [[]], 1e-9, -1.0, fading)


def test_fits_reject_a_negative_weight():
    fading = FadingParams(sigma=1.0)
    with pytest.raises(ValidationError, match="must be >= 0"):
        detection_probability([[1.0, -0.1]], 1.0, fading)
    with pytest.raises(ValidationError, match="must be >= 0"):
        outage_probability([1.0], [[-0.1]], 1e-9, 4.0, fading)


@pytest.mark.parametrize("sigma", [20.0, 1e308])
def test_fits_refuse_a_sigma_whose_moments_overflow(sigma):
    # e^(2 sigma^2) leaves the float range from sigma ~ 18.84
    fading = FadingParams(sigma=sigma, kappa=2.0)
    with pytest.raises(NumericsError, match="overflows its moments"):
        detection_probability([[1.0, 0.5]], 1.0, fading)
    with pytest.raises(NumericsError, match="overflows its moments"):
        outage_probability([1.0], [[0.5]], 1e-9, 4.0, fading)


@pytest.mark.parametrize("kappa", [None, 1.5, 2.0])
@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
def test_batched_outage_matches_per_subset_reference(sigma, kappa):
    # closed-form subset moments against the explicit covariance +
    # scalar_moment_fit construction
    chan = ChannelParams()
    b = chan.sinr_threshold
    fading = FadingParams(sigma=sigma, kappa=kappa)
    rng = np.random.default_rng(int(10 * sigma) + (0 if kappa is None else int(10 * kappa)))
    for k in (1, 3, 6):
        useful = mean_rx_power(0.0, rng.uniform(1.0, 6.0), chan)
        weights = [mean_rx_power(0.0, rng.uniform(1.0, 12.0), chan) for _ in range(k)]
        members = np.vstack(
            [np.zeros(k, bool), np.ones(k, bool), rng.integers(0, 2, (12, k)).astype(bool)]
        )
        batch = channel.outage_probability(
            np.full(len(members), useful), np.where(members, weights, 0.0),
            chan.noise_mw, b, fading,
        )
        for row, got in zip(members, batch):
            chosen = [w for w, on in zip(weights, row) if on]
            want = oracles.outage_reference(
                faded(useful, fading), [faded(w, fading) for w in chosen],
                Term(chan.noise_mw), b, fading,
            )
            assert abs(got - want) <= 1e-12, (k, row, got, want)
            # a row comes out of the batch exactly as it does alone
            alone = outage_probability(
                [useful], [chosen], chan.noise_mw, b, fading
            )
            assert got == alone[0]


def test_outage_quadrature_does_not_depend_on_its_block_size(monkeypatch):
    chan = ChannelParams()
    fading = FadingParams(sigma=1.5, kappa=2.0)
    weights = [mean_rx_power(0.0, r, chan) for r in (1.5, 2.0, 3.0, 5.0)]
    members = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(bool)
    args = (np.full(16, mean_rx_power(0.0, 1.0, chan)), np.where(members, weights, 0.0),
            chan.noise_mw, chan.sinr_threshold, fading)
    blocked = channel.outage_probability(*args)
    monkeypatch.setattr(channel, "QUAD_BLOCK", 1)
    assert np.array_equal(channel.outage_probability(*args), blocked)


def test_outage_refuses_an_unconverged_quadrature(monkeypatch):
    monkeypatch.setattr(channel, "QUAD_TOL", -1.0)
    with pytest.raises(NumericsError, match="did not converge"):
        outage_probability(
            [1e-6], [[1e-7]], 1e-9, 4.0, FadingParams(sigma=1.0, kappa=2.0)
        )


@pytest.mark.parametrize(
    "terms, match",
    [
        ([[1.0, math.nan]], ">= 0 and finite"),
        ([[1.0, math.inf]], ">= 0 and finite"),
        ([1.0, 0.5], "not a .rows, places. matrix"),
    ],
    ids=["nan", "inf", "1-d"],
)
def test_fits_reject_terms_that_are_not_a_matrix_of_powers(terms, match):
    fading = FadingParams(sigma=1.0)
    with pytest.raises(ValidationError, match=match):
        detection_probability(terms, 1.0, fading)
    with pytest.raises(ValidationError, match=match):
        outage_probability([1.0] * len(terms), terms, 1e-9, 4.0, fading)


@pytest.mark.parametrize(
    "useful", [[1.0, 0.0], [1.0, -1.0], [1.0, math.nan], [1.0], 1.0],
    ids=["zero", "negative", "nan", "short", "scalar"],
)
def test_outage_rejects_a_useful_row_that_is_not_one_positive_power(useful):
    with pytest.raises(ValidationError, match="useful mean powers"):
        outage_probability(useful, [[0.1], [0.2]], 1e-9, 4.0, FadingParams())


# ---------------------------------------------------------------------------
# quadrature machinery


@pytest.mark.parametrize("kappa", [None, 2.0])
def test_subset_fits_do_not_depend_on_term_order(kappa):
    # every per-row sum runs in one canonical term order, so listing the same
    # terms in another order (ties included) gives the same bits on every row
    chan = ChannelParams()
    fading = FadingParams(sigma=1.5, kappa=kappa)
    rng = np.random.default_rng(7 if kappa is None else 8)
    weights = [mean_rx_power(0.0, rng.uniform(3.0, 12.0), chan) for _ in range(6)]
    weights += [weights[1], weights[4], weights[2]]  # equal weights
    weights = np.array(weights)
    k = len(weights)
    members = np.vstack(
        [np.zeros(k, bool), np.ones(k, bool), rng.integers(0, 2, (40, k)).astype(bool)]
    )
    useful, noise = mean_rx_power(0.0, 1.0, chan), chan.noise_mw
    b, thr = chan.sinr_threshold, 0.5 * weights.sum()

    terms, rows = np.where(members, weights, 0.0), np.full(len(members), useful)

    p_det = channel.detection_probability(terms, thr, fading)
    p_out = channel.outage_probability(rows, terms, noise, b, fading)
    assert np.sum((p_det > 1e-3) & (p_det < 0.999)) > 10
    assert np.sum((p_out > 1e-3) & (p_out < 0.999)) > 10
    for _ in range(5):
        perm = rng.permutation(k)
        assert np.array_equal(channel.detection_probability(terms[:, perm], thr, fading), p_det)
        assert np.array_equal(
            channel.outage_probability(rows, terms[:, perm], noise, b, fading), p_out
        )
    # other rows around it and extra empty places leave a row's bits alone
    padded = np.pad(terms, ((0, 0), (2, 3)))
    assert np.array_equal(channel.detection_probability(padded, thr, fading), p_det)
    assert np.array_equal(channel.outage_probability(rows, padded, noise, b, fading), p_out)
    for row, want_det, want_out in zip(members[2:8], p_det[2:8], p_out[2:8]):
        chosen = [weights[n] for n in rng.permutation(k) if row[n]]
        assert detection_probability([chosen], thr, fading)[0] == want_det
        alone = outage_probability([useful], [chosen], noise, b, fading)
        assert alone[0] == want_out


def test_gamma_cdf_integer_series_matches_gammainc():
    xs = np.logspace(-3, 1.5, 40)
    for kappa in (1.0, 2.0, 3.0, 8.0, 64.0):
        series = _gamma_cdf_unit_mean(kappa, xs)
        direct = gammainc(kappa, kappa * xs)
        assert np.max(np.abs(series - direct)) < 1e-12


@pytest.mark.parametrize("n", sorted(set(channel.QUAD_LADDER) | {channel.MGF_NODES}))
def test_gauss_hermite_rule_matches_scipy(n):
    nodes, weights = channel._gh_nodes(n)
    want_nodes, want_weights = roots_hermite(n)
    assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-13
    assert np.max(np.abs(weights - want_weights)) <= 1e-14
    big = want_weights > 1e-250
    assert np.max(np.abs(weights[big] / want_weights[big] - 1.0)) <= 1e-10
    assert weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_gauss_hermite_rule_rejects_an_odd_count():
    with pytest.raises(ValidationError, match="even"):
        channel._gh_nodes(33)


@pytest.mark.parametrize("kappa", [0.5, 1.5, 2.5, 7.3, 20.5])
def test_incomplete_gamma_matches_scipy(kappa):
    edge = kappa + 1.0  # where the series hands over to the continued fraction
    xs = np.concatenate([
        np.geomspace(1e-6, 1e3, 400),
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf), 0.0, 1e19, math.inf],
    ])
    start = time.monotonic()
    got = channel._gammainc(kappa, xs)
    assert time.monotonic() - start < 1.0
    want = gammainc(kappa, xs)
    err = np.abs(got - want)
    assert np.all((err <= 1e-13 * want) | (err <= 1e-14))
    assert got[-3:].tolist() == [0.0, 1.0, 1.0]


def test_runtime_imports_no_scipy(tmp_path):
    # a fresh interpreter: the tests themselves import scipy as an oracle
    script = (
        "import sys\n"
        "from csmafade import run_sweep, SweepSpec\n"
        "for kappa in (2.0, 1.5):\n"
        "    config = {'topology': {'kind': 'star', 'n_nodes': 3}, 'lam': 5.0,\n"
        "              'fading': {'sigma': 1.0, 'kappa': kappa}}\n"
        "    run_sweep(config, SweepSpec(parameters=(), engine='analytic'),\n"
        "              out_dir=sys.argv[1], out_name=f'k{kappa}.csv', strict=True)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_DIR, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_lognormal_expectation_degenerate_sigma():
    # E[W^2] = exp(2 eta + 2 sigma^2); a sigma-0 row is the point value
    eta, sigma = np.array([0.3, 0.3, -1.0]), np.array([0.0, 0.5, 1e-13])
    val = lognormal_expectation(lambda w: w**2, eta, sigma)
    assert val == pytest.approx(np.exp(2.0 * eta + 2.0 * sigma**2), rel=1e-12)
    assert val[2] == math.exp(-1.0) ** 2
    scalar = oracles.scalar_gh_expectation(lambda w: w**2, eta=0.3, sigma=0.0)
    assert scalar == pytest.approx(math.exp(0.6), rel=1e-12)


@pytest.mark.parametrize("kappa", [None, 2.0])
def test_mma_fit_matches_the_scalar_fit_with_induced_correlation(kappa):
    # the closed-form subset moments against the explicit covariance and the
    # general correlated fit, subset by subset
    chan = ChannelParams()
    fading = FadingParams(sigma=1.5, kappa=kappa)
    rng = np.random.default_rng(5)
    useful = mean_rx_power(0.0, 2.0, chan)
    weights = [mean_rx_power(0.0, rng.uniform(1.0, 12.0), chan) for _ in range(5)]
    members = (np.arange(32)[:, None] >> np.arange(5) & 1).astype(bool)
    eta, sigma = mma_fit(
        np.full(32, useful), np.where(members, weights, 0.0), chan.noise_mw, fading
    )
    for row, e, s in zip(members, eta, sigma):
        chosen = [faded(w, fading) for w, on in zip(weights, row) if on]
        want = oracles.outage_fit_reference(
            faded(useful, fading), chosen, Term(chan.noise_mw), fading
        )
        assert e == pytest.approx(want.eta, abs=1e-12)
        assert s == pytest.approx(want.sigma, abs=1e-12)


def test_outage_quadrature_matches_adaptive_integration():
    # no-interferer composite outage reduces to E[F_Gamma(kappa, kappa*b*S)]
    # with S lognormal(ln(N0/pbar), sigma^2); compare the production ladder
    # against generic adaptive quadrature
    chan = ChannelParams()
    b = chan.sinr_threshold
    n0 = chan.noise_mw
    for kappa in (1.0, 2.0, 3.0, 2.5):
        for sigma in (0.5, 1.0, 2.0):
            for r in (1.0, 3.0, 8.0):
                pbar = mean_rx_power(0.0, r, chan)
                model = outage_probability(
                    [pbar], [[]], n0, b, FadingParams(sigma=sigma, kappa=kappa)
                )[0]
                truth = oracles.quad_outage_truth(kappa, b, math.log(n0 / pbar), sigma)
                assert model == pytest.approx(truth, abs=2e-6)


# ---------------------------------------------------------------------------
# range properties


@settings(max_examples=60, deadline=None)
@given(
    w1=st.floats(0.01, 10.0),
    w2=st.floats(0.0, 10.0),
    sigma=st.floats(0.0, 2.0),
    thr=st.floats(1e-6, 100.0),
)
def test_detection_probability_in_unit_interval(w1, w2, sigma, thr):
    p = detection_probability([[w1, w2]], thr, FadingParams(sigma=sigma))[0]
    assert 0.0 <= p <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    wu=st.floats(0.01, 10.0),
    wi=st.floats(0.0, 10.0),
    sigma=st.floats(0.0, 1.5),
    b=st.floats(0.05, 30.0),
    kappa=st.one_of(st.none(), st.integers(1, 8).map(float)),
)
def test_outage_probability_in_unit_interval(wu, wi, sigma, b, kappa):
    fading = FadingParams(sigma=sigma, kappa=kappa)
    p = outage_probability([wu], [[wi]], 1e-6, b, fading)[0]
    assert 0.0 <= p <= 1.0


def test_lognormal_approx_tail_is_valid_probability():
    fit = ScalarLognormal(eta=-1.0, sigma=0.0)  # point mass at exp(-1) ~ 0.368
    assert fit.tail_probability(0.3) == 1.0
    assert fit.tail_probability(0.5) == 0.0
    assert fit.tail_probability(-3.0) == 1.0
