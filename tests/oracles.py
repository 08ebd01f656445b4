"""Independent reference computations used to check the package's math.

Everything here is deliberately written in the most literal form available --
nested loops, exhaustive enumeration, brute-force sampling, generic adaptive
integration -- so that package code is always compared against a structurally
different implementation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gammainc

import one_point
from csmafade import metrics
from csmafade.channel import (
    QUAD_LADDER,
    QUAD_TOL,
    SIGMA_FLOOR,
    SQRT2,
    SQRTPI,
    FadingParams,
    _gamma_cdf_unit_mean,
    _gh_nodes,
)
from csmafade.errors import ConvergenceError, NumericsError, ValidationError
from csmafade.macmodel import (
    ALPHA_CAP,
    UNIT_SECONDS,
    LinkState,
    MacParams,
    SolveResult,
    SolverConfig,
    TimingParams,
    Values,
    _rowdot,
    arrival_probability,
    contention_terms,
)
from csmafade.multihop import NetworkSolution, end_to_end_reliability, route_links


def linear_to_db(x: float) -> float:
    """A linear power ratio in dB."""
    if x <= 0.0:
        raise ValueError("linear ratio must be positive")
    return 10.0 * math.log10(x)


# ---------------------------------------------------------------------------
# Scalar lognormal fits: one sum at a time, with a general correlation matrix


@dataclass(frozen=True)
class Term:
    """One additive component w * f * exp(y) of a power sum, y ~ N(0, sigma^2).

    Unlike the package's fits, which give every term the scenario's sigma and
    multipath, each term here has its own.
    """

    weight: float
    sigma: float = 0.0
    has_multipath: bool = False


def second_moment_factor(term: Term, fading: FadingParams | None) -> float:
    """E[f^2] of the term's unit-mean Gamma multipath factor: (kappa + 1) / kappa,
    or 1 without multipath."""
    if fading is not None and fading.multipath and term.has_multipath:
        return (fading.kappa + 1.0) / fading.kappa
    return 1.0


@dataclass(frozen=True)
class ScalarLognormal:
    """Lognormal exp(Z), Z ~ N(eta, sigma^2), fitted to a power sum."""

    eta: float
    sigma: float

    def tail_probability(self, threshold: float) -> float:
        """P[exp(Z) > threshold]; degenerates to a step when sigma == 0."""
        if threshold <= 0.0:
            return 1.0
        ln_t = math.log(threshold)
        if self.sigma <= SIGMA_FLOOR:
            return 1.0 if self.eta > ln_t else 0.0
        return gaussian_tail((ln_t - self.eta) / self.sigma)


def gaussian_tail(z: float) -> float:
    """Standard normal tail probability Q(z)."""
    return 0.5 * math.erfc(z / SQRT2)


def scalar_moment_fit(
    terms: Sequence[Term],
    corr: np.ndarray | None = None,
    fading: FadingParams | None = None,
) -> ScalarLognormal:
    """Fit a lognormal to sum_n w_n * f_n * exp(y_n) by matching two moments.

    corr is the correlation matrix of the exponents y_n (independent when
    omitted).  Multipath factors are independent across terms, unit mean,
    with second moment (kappa+1)/kappa.
    """
    if not terms:
        raise ValidationError("scalar_moment_fit requires at least one term")
    n = len(terms)
    w = np.array([t.weight for t in terms], dtype=float)
    s = np.array([t.sigma for t in terms], dtype=float)
    if np.all(w == 0.0):
        raise ValidationError("scalar_moment_fit requires at least one positive weight")
    if corr is None:
        rho = np.eye(n)
    else:
        rho = np.asarray(corr, dtype=float)
        if rho.shape != (n, n):
            raise ValidationError(f"corr shape {rho.shape} != ({n}, {n})")

    m1 = float(np.sum(w * np.exp(0.5 * s**2)))

    # E[A_m A_n] exp((s_m^2 + s_n^2)/2 + rho_mn s_m s_n); the diagonal carries
    # the multipath second moment, cross terms the product of unit means.
    f2 = np.array([second_moment_factor(t, fading) for t in terms])
    cross = np.outer(w, w) * np.exp(
        0.5 * (s**2)[:, None] + 0.5 * (s**2)[None, :] + rho * np.outer(s, s)
    )
    diag_scale = np.ones((n, n))
    np.fill_diagonal(diag_scale, f2)
    m2 = float(np.sum(cross * diag_scale))

    if not (math.isfinite(m1) and math.isfinite(m2)) or m1 <= 0.0 or m2 <= 0.0:
        raise NumericsError(f"moment matching overflowed: M1={m1!r}, M2={m2!r}")
    var = math.log(m2) - 2.0 * math.log(m1)
    if var < -1e-9:
        raise NumericsError(
            f"moment matching produced negative log-variance {var:.3e}; "
            "check the supplied correlation matrix"
        )
    var = max(var, 0.0)
    eta = 2.0 * math.log(m1) - 0.5 * math.log(m2)
    return ScalarLognormal(eta=eta, sigma=math.sqrt(var))


def scalar_gh_expectation(
    fn: Callable[[np.ndarray], np.ndarray],
    eta: float,
    sigma: float,
    nodes: int = QUAD_LADDER[0],
) -> float:
    """E[fn(W)] for W = exp(Z), Z ~ N(eta, sigma^2), by one nodes-point Gauss-Hermite rule."""
    if sigma <= SIGMA_FLOOR:
        return float(fn(np.array([math.exp(eta)]))[0])
    t, wgt = _gh_nodes(nodes)
    x = np.exp(eta + SQRT2 * sigma * t)
    return float(wgt @ np.asarray(fn(x), dtype=float)) / SQRTPI


# ---------------------------------------------------------------------------
# Monte Carlo channel oracles


def sample_power_sum(
    rng: np.random.Generator,
    weights,
    sigmas,
    multipath,
    kappa: float | None,
    n_samples: int,
) -> np.ndarray:
    """Samples of sum_k w_k * f_k * exp(y_k), independent across terms."""
    total = np.zeros(n_samples)
    for w, s, mp in zip(weights, sigmas, multipath):
        factor = np.exp(rng.normal(0.0, s, n_samples)) if s > 0 else np.ones(n_samples)
        if mp:
            factor *= rng.gamma(kappa, 1.0 / kappa, n_samples)
        total += w * factor
    return total


def mc_tail_probability(
    weights, sigmas, multipath, kappa, threshold, n_samples=10**7, seed=0
) -> float:
    """Pr[sum of faded power terms > threshold] by direct sampling."""
    rng = np.random.default_rng(seed)
    total = sample_power_sum(rng, weights, sigmas, multipath, kappa, n_samples)
    return float(np.mean(total > threshold))


def mc_sum_moments(weights, sigmas, multipath, kappa, n_samples=10**7, seed=0):
    """(mean, variance, mc_se_mean, mc_se_var) of the power sum."""
    rng = np.random.default_rng(seed)
    total = sample_power_sum(rng, weights, sigmas, multipath, kappa, n_samples)
    mean = float(np.mean(total))
    var = float(np.var(total))
    se_mean = float(np.std(total) / math.sqrt(n_samples))
    # standard error of the sample variance via the fourth central moment
    m4 = float(np.mean((total - mean) ** 4))
    se_var = math.sqrt(max(m4 - var**2, 0.0) / n_samples)
    return mean, var, se_mean, se_var


def mc_quantile(weights, sigmas, multipath, kappa, prob, n_samples=10**6, seed=0):
    """Upper-tail quantile: threshold t with Pr[sum > t] = prob."""
    rng = np.random.default_rng(seed)
    total = sample_power_sum(rng, weights, sigmas, multipath, kappa, n_samples)
    return float(np.quantile(total, 1.0 - prob))


def mc_sinr_outage(
    useful_weight,
    useful_sigma,
    useful_multipath,
    interferer_weights,
    interferer_sigmas,
    interferer_multipath,
    noise_weight,
    sinr_threshold,
    kappa,
    n_samples=10**7,
    seed=0,
) -> float:
    """Pr[useful / (interference + noise) < b] by direct sampling."""
    rng = np.random.default_rng(seed)
    useful = sample_power_sum(
        rng, [useful_weight], [useful_sigma], [useful_multipath], kappa, n_samples
    )
    denom = np.full(n_samples, noise_weight)
    if interferer_weights:
        denom = denom + sample_power_sum(
            rng, interferer_weights, interferer_sigmas, interferer_multipath, kappa, n_samples
        )
    return float(np.mean(useful < sinr_threshold * denom))


def quad_outage_truth(kappa, sinr_threshold, eta, sigma) -> float:
    """E[F_Gamma(kappa, kappa*b*W)], W ~ LN(eta, sigma^2), adaptive quadrature."""

    def integrand(t: float) -> float:
        w = math.exp(eta + math.sqrt(2.0) * sigma * t)
        return float(gammainc(kappa, kappa * sinr_threshold * w)) * math.exp(-t * t)

    val, _ = integrate.quad(integrand, -12.0, 12.0, limit=400, epsabs=1e-13, epsrel=1e-13)
    return val / math.sqrt(math.pi)


def outage_fit_reference(useful, interferers, noise, fading=None) -> ScalarLognormal:
    """One subset's lognormal fit of the SINR denominator, built the long way round.

    The denominator is normalized by the useful term (weights w_n / w_u,
    exponents y_n - y_u), its exponent covariance is written out entry by
    entry and turned into a correlation matrix, and the general
    scalar_moment_fit matches the two moments.
    """
    s_u = useful.sigma
    base_sigma = [t.sigma for t in interferers] + [0.0]  # (interferers..., noise)
    m = len(base_sigma)
    tilde = [math.sqrt(s * s + s_u * s_u) for s in base_sigma]
    terms = [
        Term(t.weight / useful.weight, tilde[j], t.has_multipath)
        for j, t in enumerate(interferers)
    ]
    terms.append(Term(noise.weight / useful.weight, tilde[-1]))
    cov = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            cov[a, b] = (base_sigma[a] ** 2 if a == b else 0.0) + s_u * s_u
    corr = np.eye(m)
    for a in range(m):
        for b in range(m):
            if a != b and tilde[a] > 0.0 and tilde[b] > 0.0:
                corr[a, b] = cov[a, b] / (tilde[a] * tilde[b])
    return scalar_moment_fit(terms, corr=corr, fading=fading)


def outage_reference(useful, interferers, noise, sinr_threshold, fading=None) -> float:
    """Per-subset SINR outage from outage_fit_reference: its tail, a Q-function, or the
    scalar Gauss-Hermite ladder when the useful link carries multipath."""
    fit = outage_fit_reference(useful, interferers, noise, fading)
    if fading is None or not fading.multipath or not useful.has_multipath:
        if fit.sigma <= 1e-12:
            return 1.0 if -fit.eta < math.log(sinr_threshold) else 0.0
        z = (math.log(sinr_threshold) + fit.eta) / fit.sigma
        return 1.0 - 0.5 * math.erfc(z / math.sqrt(2.0))

    def integrand(w):
        return _gamma_cdf_unit_mean(fading.kappa, sinr_threshold * w)

    prev = scalar_gh_expectation(integrand, fit.eta, fit.sigma, nodes=QUAD_LADDER[0])
    for nodes in QUAD_LADDER[1:]:
        val = scalar_gh_expectation(integrand, fit.eta, fit.sigma, nodes=nodes)
        if abs(val - prev) <= QUAD_TOL:
            return min(max(val, 0.0), 1.0)
        prev = val
    raise AssertionError("reference quadrature did not converge")


# ---------------------------------------------------------------------------
# Contention functional, literal nested-sum form


def h_literal(taus, alphas, chi) -> float:
    """Nested-combination form: v senders sense, x of them find idle and transmit.

    chi receives the transmitting subset as a tuple of indices into taus.
    """
    idx = tuple(range(len(taus)))
    total = 0.0
    for v in range(1, len(idx) + 1):
        for sensing in itertools.combinations(idx, v):
            w_sense = 1.0
            for k in sensing:
                w_sense *= taus[k]
            for h in idx:
                if h not in sensing:
                    w_sense *= 1.0 - taus[h]
            for x in range(1, v + 1):
                for transmit in itertools.combinations(sensing, x):
                    w_tx = 1.0
                    for z in transmit:
                        w_tx *= 1.0 - alphas[z]
                    for r in sensing:
                        if r not in transmit:
                            w_tx *= alphas[r]
                    total += w_sense * w_tx * chi(transmit)
    return total


# ---------------------------------------------------------------------------
# The chain quantities one function each, every one with its own sums and
# range checks: the form the package had before one `Chain` fed them all.
# tau, b000, p_cf, p_cr and reliability of the package must equal these
# bit for bit; delay and the mean window differ only in summation order.


def xi_value(alpha: Values, gamma: Values, mac: MacParams) -> Values:
    """Retry-branch probability: packet lost after a completed transmission."""
    return gamma * (1.0 - alpha ** (mac.m + 1))


def cca_reference(
    alpha: Values, gamma: Values, q: Values, mac: MacParams, timing: TimingParams
) -> tuple[Values, Values]:
    """Per-slot CCA probability tau and idle-state probability b000.

    Renewal-reward over one packet cycle: backoff-and-sense slots per CCA
    round, transaction durations, and the idle wait for the next arrival
    after each outcome (single-packet queue, so the queue is always empty
    when a packet leaves).  Works elementwise on arrays.
    """
    if not np.all((0.0 <= alpha) & (alpha < 1.0)):
        raise ValidationError(f"alpha {alpha} outside [0, 1)")
    if not np.all((0.0 <= gamma) & (gamma <= 1.0)):
        raise ValidationError(f"gamma {gamma} outside [0, 1]")
    if not np.all((0.0 < q) & (q <= 1.0)):
        raise ValidationError(f"arrival probability q {q} outside (0, 1]")

    xi = xi_value(alpha, gamma, mac)
    geo_alpha = sum(alpha**j for j in range(mac.m + 1))
    geo_xi = sum(xi**h for h in range(mac.n + 1))
    p_cf_attempt = alpha ** (mac.m + 1)

    backoff_slots = sum(alpha**j * (w + 1) / 2.0 for j, w in enumerate(mac.windows))
    service = (timing.ls * (1.0 - gamma) + timing.lc * gamma) * (1.0 - p_cf_attempt)
    idle = (
        1.0 / q * p_cf_attempt * geo_xi
        + 1.0 / q * xi ** (mac.n + 1)
        + 1.0 / q * (1.0 - gamma) * (1.0 - p_cf_attempt) * geo_xi
    )
    inv_b000 = backoff_slots * geo_xi + service * geo_xi + idle
    b000 = 1.0 / inv_b000
    tau = geo_alpha * geo_xi * b000
    return tau, b000


def discard_probabilities(alpha: Values, gamma: Values, mac: MacParams) -> tuple[Values, Values]:
    """(p_cf, p_cr): discard by channel-access failure and by retry exhaustion."""
    if not np.all((0.0 <= alpha) & (alpha <= 1.0) & (0.0 <= gamma) & (gamma <= 1.0)):
        raise ValidationError(f"alpha={alpha}, gamma={gamma} must lie in [0, 1]")
    xi = xi_value(alpha, gamma, mac)
    p_cf = alpha ** (mac.m + 1) * sum(xi**j for j in range(mac.n + 1))
    p_cr = xi ** (mac.n + 1)
    return p_cf, p_cr


def reliability(alpha: Values, gamma: Values, mac: MacParams) -> Values:
    """Probability that a packet leaving the queue is eventually delivered."""
    p_cf, p_cr = discard_probabilities(alpha, gamma, mac)
    return 1.0 - p_cf - p_cr


def cca_rounds_distribution(alpha: Values, mac: MacParams) -> np.ndarray:
    """Pr[r busy CCAs before the clear one | access succeeds], r = 0..m, on a last axis."""
    weights = np.stack([alpha**r for r in range(mac.m + 1)], axis=-1)
    return weights / weights.sum(axis=-1, keepdims=True)


def retry_distribution(alpha: Values, gamma: Values, mac: MacParams) -> np.ndarray:
    """Pr[h failed transmissions before the delivered one | success], h = 0..n, on a last axis."""
    xi = xi_value(alpha, gamma, mac)
    weights = np.stack([xi**h for h in range(mac.n + 1)], axis=-1)
    return weights / weights.sum(axis=-1, keepdims=True)


def mean_access_time(alpha: Values, mac: MacParams, timing: TimingParams) -> Values:
    """Mean backoff-and-sense time of one successful channel access, in backoff units."""
    rounds = cca_rounds_distribution(alpha, mac)
    cum_backoff = np.cumsum([(w - 1) / 2.0 for w in mac.windows])
    per_round = np.arange(1, mac.m + 2) * timing.t_sc + cum_backoff
    return _rowdot(rounds, per_round)


def delay_reference(alpha: Values, gamma: Values, mac: MacParams, timing: TimingParams) -> Values:
    """Mean delay of successfully delivered packets, in seconds.

    NaN where the success probability is zero (at most 1e-15).
    """
    retries = retry_distribution(alpha, gamma, mac)
    e_t = mean_access_time(alpha, mac, timing)
    backoff_units = sum(
        retries[..., h] * (timing.ls + h * timing.lc + (h + 1) * e_t)
        for h in range(mac.n + 1)
    )
    success = reliability(alpha, gamma, mac) > 1e-15
    return np.where(success, backoff_units * UNIT_SECONDS, math.nan)[()]


def mean_window(alpha: Values, mac: MacParams) -> Values:
    """Backoff window averaged over CCA rounds, capped at 2^mb."""
    weights = [alpha**j for j in range(mac.m + 1)]
    return sum(w * win for w, win in zip(weights, mac.windows)) / sum(weights)


# ---------------------------------------------------------------------------
# Bernoulli attempt-process simulation (MAC service cycle)


def simulate_attempt_process(
    alpha,
    gamma,
    q,
    m0=3,
    mb=5,
    m=4,
    n=0,
    ls=12.8,
    lc=9.1,
    t_sc=0.4,
    n_packets=10**6,
    seed=0,
):
    """Vectorized Monte Carlo of the per-packet CSMA/CA service cycle.

    Channel busyness and packet loss are i.i.d. Bernoulli(alpha) / Bernoulli
    (gamma) draws; backoffs are uniform over the capped windows.  Returns a
    dict with empirical reliability, mean delay of delivered packets (backoff
    units), per-slot CCA rate tau and idle-state rate b000 (renewal-reward
    over service plus geometric idle), and the outcome split.
    """
    rng = np.random.default_rng(seed)
    active = np.ones(n_packets, dtype=bool)
    delivered = np.zeros(n_packets, dtype=bool)
    access_failed = np.zeros(n_packets, dtype=bool)
    delay = np.zeros(n_packets)  # T_sc-refined accounting (for the delay formula)
    slots = np.zeros(n_packets)  # one-slot-per-CCA accounting (for tau / b000)
    cca_rounds = np.zeros(n_packets, dtype=np.int64)

    for _h in range(n + 1):
        in_backoff = active.copy()
        accessed = np.zeros(n_packets, dtype=bool)
        for j in range(m + 1):
            if not in_backoff.any():
                break
            w = 2 ** min(m0 + j, mb)
            u = rng.integers(0, w, n_packets)
            delay[in_backoff] += u[in_backoff] + t_sc
            slots[in_backoff] += u[in_backoff] + 1.0
            cca_rounds[in_backoff] += 1
            busy = rng.random(n_packets) < alpha
            go = in_backoff & ~busy
            accessed |= go
            in_backoff &= busy
        # packets still in_backoff exhausted every CCA round: channel-access failure
        access_failed |= in_backoff
        active &= ~in_backoff
        lost = rng.random(n_packets) < gamma
        succ = accessed & ~lost
        coll = accessed & lost
        delay[succ] += ls
        slots[succ] += ls
        delay[coll] += lc
        slots[coll] += lc
        delivered |= succ
        active = coll
    retry_failed = active.copy()

    idle = rng.geometric(q, n_packets) if q > 0 else np.zeros(n_packets)
    cycle_slots = float(np.sum(slots) + np.sum(idle))
    return {
        "reliability": float(np.mean(delivered)),
        "mean_delay": float(np.mean(delay[delivered])) if delivered.any() else math.nan,
        "tau": float(np.sum(cca_rounds)) / cycle_slots,
        "b000": n_packets / cycle_slots,
        "p_cf": float(np.mean(access_failed)),
        "p_cr": float(np.mean(retry_failed)),
    }


def cca_closed_form(
    alpha,
    gamma,
    q,
    m0=3,
    mb=5,
    m=4,
    n=0,
    ls=12.8,
    lc=9.1,
    q_succ=0.0,
    q_cf=0.0,
    q_cr=0.0,
):
    """(tau, b000) via the two-branch geometric-series closed form.

    Transcribed literally, including the branch on m <= mb - m0 and the
    (1-2alpha) and (1-xi) denominators, so it is only valid away from
    alpha = 1/2 and xi = 1.
    """
    m_bar = mb - m0
    xi = gamma * (1.0 - alpha ** (m + 1))
    x_geo = (1.0 - xi ** (n + 1)) / (1.0 - xi)
    if m <= m_bar:
        window_part = 0.5 * (
            (1.0 - (2.0 * alpha) ** (m + 1)) / (1.0 - 2.0 * alpha) * 2**m0
            + (1.0 - alpha ** (m + 1)) / (1.0 - alpha)
        )
    else:
        window_part = 0.5 * (
            (1.0 - (2.0 * alpha) ** (m_bar + 1)) / (1.0 - 2.0 * alpha) * 2**m0
            + (1.0 - alpha ** (m_bar + 1)) / (1.0 - alpha)
            + (2**mb + 1) * alpha ** (m_bar + 1) * (1.0 - alpha ** (m - m_bar)) / (1.0 - alpha)
        )
    inv = (
        window_part * x_geo
        + (ls * (1.0 - gamma) + lc * gamma) * (1.0 - alpha ** (m + 1)) * x_geo
        + (1.0 - q_cf) / q * alpha ** (m + 1) * x_geo
        + (1.0 - q_cr) / q * xi ** (n + 1)
        + (1.0 - q_succ) / q * (1.0 - gamma) * (1.0 - alpha ** (m + 1)) * x_geo
    )
    b000 = 1.0 / inv
    tau = (1.0 - alpha ** (m + 1)) / (1.0 - alpha) * x_geo * b000
    return tau, b000


def ideal_star_fixed_point(
    n_contenders,
    q,
    m0=3,
    mb=5,
    m=4,
    n=0,
    l_pkt=7.0,
    l_ack=1.1,
    ls=12.8,
    lc=9.1,
    damping=0.5,
    tol=1e-12,
    max_iter=100000,
):
    """Symmetric ideal-channel benchmark: perfect sensing, collisions fatal.

    Every contender is always detected (so there are no hidden terminals and
    no fading loss) and any concurrent transmission destroys the packet.
    Returns the scalar fixed point (tau, alpha, gamma) and the resulting
    reliability.
    """
    tau = alpha = gamma = 0.0
    for _ in range(max_iter):
        tau, _ = cca_closed_form(alpha, gamma, q, m0=m0, mb=mb, m=m, n=n, ls=ls, lc=lc)
        x = tau * (1.0 - alpha)
        h_one = 1.0 - (1.0 - x) ** n_contenders
        new_gamma = h_one
        new_alpha = l_pkt * h_one + l_ack * (1.0 - gamma) * h_one
        res = max(abs(new_alpha - alpha), abs(new_gamma - gamma))
        alpha = (1.0 - damping) * alpha + damping * new_alpha
        gamma = (1.0 - damping) * gamma + damping * new_gamma
        if res < tol:
            break
    xi = gamma * (1.0 - alpha ** (m + 1))
    reliability = 1.0 - alpha ** (m + 1) * sum(xi**h for h in range(n + 1)) - xi ** (n + 1)
    return {"tau": tau, "alpha": alpha, "gamma": gamma, "reliability": reliability}


def subset_weights_concat(eff: np.ndarray) -> np.ndarray:
    """(..., 2^k) subset weights of k contenders with transmit probabilities eff.

    The doubling loop that `macmodel._subset_weights` runs as one broadcast
    product per contender, written as two products and a concatenation:
    mask m's weight multiplies eff[z] for each bit z set in m and 1 - eff[z]
    for each bit clear.
    """
    weights = np.ones(eff.shape[:-1] + (1,))
    for z in range(eff.shape[-1]):
        e = eff[..., z : z + 1]
        weights = np.concatenate([weights * (1.0 - e), weights * e], axis=-1)
    return weights


def subset_size_tails(eff: Sequence[float]) -> list[float]:
    """P[|S| > s] for s = 0..k, |S| the number of k contenders that transmit,
    contender z alone with probability eff[z]: every one of the 2^k subsets'
    weights, added to the tails of the sizes below it."""
    k = len(eff)
    tails = [0.0] * (k + 1)
    for members in itertools.product((False, True), repeat=k):
        weight = math.prod(e if on else 1.0 - e for e, on in zip(eff, members))
        for s in range(sum(members)):
            tails[s] += weight
    return tails


def solve_fixed_point_damped(
    tables: np.recarray,
    qs: np.ndarray,
    mac: MacParams,
    timing: TimingParams,
    config: SolverConfig = SolverConfig(),
    damping: float = 0.5,
    init: tuple[float, float] = (0.0, 0.0),
) -> SolveResult:
    """Damped Jacobi iteration on (alpha, gamma) across all links.

    The plain form of `solve_fixed_point`: every sweep moves the state a
    fixed fraction `damping` of the way to the map's value, and the same
    undamped polish ends it.  Slow, and at heavy load it converges only
    with a damping tuned by hand.  Each sweep evaluates `cca_reference`.
    """
    n = len(tables)
    subsets = one_point.listed(tables)
    alphas = np.full(n, float(init[0]))
    gammas = np.full(n, float(init[1]))
    warnings: list[str] = []
    d = damping

    def cca(alphas: np.ndarray, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        active = qs > 0.0
        taus = np.zeros(n)
        b000s = np.zeros(n)
        taus[active], b000s[active] = cca_reference(
            alphas[active], gammas[active], qs[active], mac, timing
        )
        return taus, b000s

    residual = math.inf
    for iteration in range(1, config.max_iter + 1):
        taus, b000s = cca(alphas, gammas)
        a_pkts, a_acks, new_gamma = contention_terms(tables, subsets, timing, taus, alphas,
                                                     gammas)
        raw_alpha = a_pkts + a_acks
        new_alpha = np.minimum(raw_alpha, ALPHA_CAP)

        residual = float(
            max(np.max(np.abs(new_alpha - alphas)), np.max(np.abs(new_gamma - gammas)))
        )
        if residual < config.tol:
            # undamped polish: return the update map's own values so that
            # decoupled coordinates land exactly on their closed forms
            alphas = new_alpha
            gammas = new_gamma
            taus, b000s = cca(alphas, gammas)
            break
        alphas = (1.0 - d) * alphas + d * new_alpha
        gammas = (1.0 - d) * gammas + d * new_gamma
    else:
        raise ConvergenceError(
            f"fixed point did not converge after {config.max_iter} iterations "
            f"(last residual {residual:.3e})"
        )

    # iterates may overshoot the cap on the way; only a clamped solution warns
    clamped = int(np.count_nonzero(raw_alpha > ALPHA_CAP))
    if clamped:
        warnings.append(f"alpha clamped to {ALPHA_CAP} on {clamped} link(s)")

    state = LinkState(tau=taus, alpha_pkt=a_pkts, alpha_ack=a_acks, gamma=gammas, b000=b000s)
    return SolveResult(state=state, iterations=iteration, residual=residual, warnings=warnings)


# ---------------------------------------------------------------------------
# multihop traffic oracle


def traffic_neumann(next_hop, lam, reliability) -> np.ndarray:
    """Per-node packet rates Lambda = sum_k (T')^k lam over the dense n x n matrix.

    T[i, next_hop[i]] = reliability[i] for every node i with a next hop, so
    reliability is indexed by node.  The series is summed until a term
    vanishes; ValidationError if it does not within n terms (a cycle).
    """
    n = len(next_hop)
    t = np.zeros((n, n))
    for i, hop in enumerate(next_hop):
        if hop >= 0:
            t[i, hop] = reliability[i]
    total = np.array(lam, dtype=float)
    term = total.copy()
    for _ in range(n):
        term = t.T @ term
        if not term.any():
            break
        total += term
    else:
        raise ValidationError("traffic accumulation did not terminate: routing has a cycle")
    return total


def solve_network_nested(
    tables,
    next_hop,
    lambda_pkt_per_s,
    mac,
    timing,
    profile=None,
    config=SolverConfig(),
    outer_tol: float = 1e-8,
    outer_max: int = 200,
):
    """Outer loop coupling forwarded traffic with per-link fixed points.

    The nested form of `solve_network`: every outer pass solves the whole
    MAC fixed point for fixed arrival rates, then recomputes the per-node
    traffic from its reliabilities by the dense Neumann series, until the
    traffic is stable.
    """
    transmitters, next_link = route_links(next_hop)
    if len(tables) != len(transmitters):
        raise ValidationError(
            f"{len(tables)} link tables for {len(transmitters)} transmitting nodes"
        )
    lam = np.asarray(lambda_pkt_per_s, dtype=float)
    if lam.shape[0] != len(next_hop):
        raise ValidationError("rate vector length must match the node count")
    if outer_max < 1:
        raise ValidationError("outer_max must be >= 1")

    rates = lam.copy()
    warnings: list[str] = []
    result = None
    for outer in range(1, outer_max + 1):
        qs = np.array([arrival_probability(rates[node]) for node in transmitters])
        # only transmitters' rates enter the fixed point: if none moved (a
        # star's second pass changes just the sink's), the last solve stands
        if result is None or not np.array_equal(qs, solved_qs):
            solved_qs = qs
            result = one_point.fixed_point(tables, qs, mac, timing, config=config)
        warnings = result.warnings
        state = result.state
        by_node = dict(zip(transmitters.tolist(),
                           reliability(state.alpha, state.gamma, mac).tolist()))
        new_rates = traffic_neumann(next_hop, lam, by_node)
        residual = float(np.max(np.abs(new_rates - rates)))
        rates = new_rates
        if residual < outer_tol:
            break
    else:
        raise ConvergenceError(
            f"traffic loop did not converge after {outer_max} iterations "
            f"(last residual {residual:.3e})"
        )

    rep = one_point.report(state, profile or metrics.PowerProfile(), mac, timing, next_link)
    k = len(transmitters) - 1
    if tables.p_det.shape[-1] != 2**k:
        raise ValidationError("the nested oracle solves whole tables only")
    return NetworkSolution(
        state=state,
        traffic=rates[transmitters],
        end_to_end={node: end_to_end_reliability(next_hop, by_node, node) for node in by_node},
        report=rep,
        outer_iterations=outer,
        warnings=warnings,
        depth=k,
        truncation_bound=0.0,
    )
