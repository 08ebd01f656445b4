"""Physical-layer probability models: path loss, shadowing, multipath.

Received power on a link is modeled as c0 * P_tx / r^k scaled by a unit-mean
multipath power factor (Gamma with shape kappa) and a lognormal shadowing
factor exp(y), y ~ N(0, sigma^2), independent across transmitters.  Sums of
such terms are approximated by a single lognormal, fitted in one of two ways:

* Aggregate power at a sensing node (carrier detection): MGF matching -- the
  lognormal whose Laplace transform equals the sum's exact one at two points
  (`mgf_fit`), solved for a whole table of subsets at once
  (`detection_probability`).
* Interference-plus-noise at a receiver (outage): matching the first two
  moments of the denominator normalized by the useful power (`mma_fit`,
  closed form in each subset's member sums).  The outage is then the
  fitted lognormal's tail or, with multipath, the expectation of the Gamma
  CDF over it (`lognormal_expectation`, a Gauss-Hermite ladder over the rows
  that have not yet converged).

These two are the only entry points for the probabilities: each takes the
scenario's FadingParams and `terms`, a (rows, places) matrix of mean powers
with one row per subset sum and 0 for a place the row leaves empty; a single
sum is a one-row matrix.  Outage takes each row's useful mean power as well.
Every term, the useful one included, has shadowing spread fading.sigma, and
multipath exactly when fading.kappa is set.  Noise is deterministic.

Both fits sum each row's terms in ascending order of power (see _terms).  A
row's result therefore depends only on the multiset of its powers, bit for
bit: the same sum listed in another order, padded with other empty places,
or fitted among other rows, gives the same probability.  This is what lets
`scenarios.build_contention_tables` fit each distinct subset sum once.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericsError, ValidationError
from .units import db_to_linear, dbm_to_mw

SQRT2 = math.sqrt(2.0)
SQRTPI = math.sqrt(math.pi)

# Degenerate-spread cutoff: below this the fitted lognormal is a point mass.
SIGMA_FLOOR = 1e-12

# Gauss-Hermite node ladder for the outage quadrature: start cheap, double
# until two successive estimates agree to QUAD_TOL.  Steep integrands (large
# kappa against wide shadowing) only resolve at the high end of the ladder.
QUAD_LADDER = (32, 64, 128, 256, 512, 1024, 2048)
QUAD_TOL = 1e-6
# Nodes x rows per quadrature evaluation, which bounds its scratch arrays to 64 kB.
QUAD_BLOCK = 8192
# Newton refinement of the Gauss-Hermite nodes stops once every step is
# within GH_TOL of its node (3 steps from the asymptotic nodes at every rung).
GH_TOL = 1e-15
GH_MAX_ITER = 20
# Incomplete gamma function (non-integer kappa): its series or continued fraction
# stops at a relative change of GAMMAINC_TOL, 4 ulp.  Much tighter never stops:
# at 1e-16 the continued fraction's rounding keeps it going at x = 3e19.
GAMMAINC_TOL = 4.0 * np.finfo(float).eps
GAMMAINC_MAX_ITER = 1000
GAMMAINC_TINY = 1e-300  # Lentz's guard against a zero denominator

# MGF matching of the detection sum: the fitted lognormal's Laplace transform
# equals the sum's at s = MGF_POINTS / E[sum], both by MGF_NODES-point
# Gauss-Hermite.  Newton stops when both log-transform residuals are within
# MGF_TOL, and gives up after MGF_MAX_ITER evaluations.  Below MGF_VAR_FLOOR
# of moment-matched log-variance a sum is a point mass to working precision
# and is not refitted.
MGF_POINTS = np.array([0.2, 1.0])
MGF_NODES = 64
MGF_TOL = 1e-12
MGF_MAX_ITER = 100
MGF_VAR_FLOOR = 1e-12
MGF_BLOCK = 128  # rows per batched solve, which bounds its scratch arrays to ~0.1 MB
# dB and dBm levels (powers, thresholds) must lie within +-LEVEL_LIMIT_DB: no
# radio comes near it, and their linear values and squares stay inside a float
LEVEL_LIMIT_DB = 300.0
# Largest multipath shape accepted.  An integer kappa costs int(kappa) terms per
# Gamma CDF evaluation, and at 100 the unit-mean factor's standard deviation,
# 1/sqrt(kappa), is already down to 0.1.
KAPPA_MAX = 100.0


@dataclass(frozen=True)
class ChannelParams:
    """Deterministic channel constants.

    c0_db: path-loss scale at 1 m, in dB (negative).
    k: path-loss exponent.
    n0_dbm: noise floor.
    a_dbm: carrier-sensing (CCA) threshold.
    b_db: SINR threshold for correct reception.
    """

    c0_db: float = -55.0
    k: float = 2.0
    n0_dbm: float = -91.0
    a_dbm: float = -76.0
    b_db: float = 6.0

    def __post_init__(self) -> None:
        if not -80.0 <= self.c0_db <= -30.0:
            raise ValidationError(f"c0_db={self.c0_db} outside supported [-80, -30] dB")
        if not -60.0 <= self.c0_db <= -40.0:
            warnings.warn(
                f"c0_db={self.c0_db} outside the typical -60..-40 dB range",
                stacklevel=2,
            )
        if not 1.5 <= self.k <= 6.0:
            raise ValidationError(f"path-loss exponent k={self.k} outside [1.5, 6]")
        for name in ("n0_dbm", "a_dbm", "b_db"):
            level = getattr(self, name)
            if not abs(level) <= LEVEL_LIMIT_DB:
                raise ValidationError(f"{name}={level} beyond +-{LEVEL_LIMIT_DB:g} dB")

    @property
    def noise_mw(self) -> float:
        return dbm_to_mw(self.n0_dbm)

    @property
    def cca_threshold_mw(self) -> float:
        return dbm_to_mw(self.a_dbm)

    @property
    def sinr_threshold(self) -> float:
        return db_to_linear(self.b_db)


@dataclass(frozen=True)
class FadingParams:
    """Stochastic channel state.

    One for every link of a scenario, in both engines.

    sigma: shadowing spread of the natural-log power exponent (nepers).
    kappa: multipath shape parameter; None disables the multipath factor.
    """

    sigma: float = 0.0
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValidationError(f"sigma={self.sigma} must be finite and >= 0")
        if self.kappa is not None and not 0.5 <= self.kappa <= KAPPA_MAX:
            raise ValidationError(
                f"kappa={self.kappa} must lie in [0.5, {KAPPA_MAX:g}] (or be None)"
            )

    @property
    def multipath(self) -> bool:
        return self.kappa is not None


def _erfc(x: np.ndarray) -> np.ndarray:
    """math.erfc over an array; numpy has no erfc of its own."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def mean_rx_power(ptx_dbm: float, distance_m: float, chan: ChannelParams) -> float:
    """Mean received power c0 * P_tx / r^k in mW; its level must lie within +-LEVEL_LIMIT_DB."""
    if distance_m <= 0.0:
        raise ValidationError(f"distance {distance_m} must be positive")
    level = ptx_dbm + chan.c0_db - 10.0 * chan.k * math.log10(distance_m)
    if not abs(level) <= LEVEL_LIMIT_DB:
        raise ValidationError(
            f"mean received level {level:.6g} dBm at distance {distance_m!r} m "
            f"beyond +-{LEVEL_LIMIT_DB:g} dBm"
        )
    return dbm_to_mw(level)


def _second_moment_factor(fading: FadingParams) -> float:
    """E[f^2] of the unit-mean multipath factor (1 when disabled)."""
    if fading.multipath:
        kap = fading.kappa
        return (kap + 1.0) / kap
    return 1.0


def _shadowing_moments(fading: FadingParams) -> tuple[float, float, float]:
    """e^{sigma^2/2}, e^{sigma^2} and e^{2 sigma^2}, the moment factors of the shadowing.

    From sigma ~ 18.8 nepers they leave the float range: a NumericsError.
    """
    try:
        s2 = fading.sigma**2
        return math.exp(0.5 * s2), math.exp(s2), math.exp(2.0 * s2)
    except OverflowError:
        raise NumericsError(
            f"shadowing sigma={fading.sigma!r} overflows its moments e^(2 sigma^2)"
        ) from None


def _hermite_ratios(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """r_n(x) and sum_{j<n} ln|r_j(x)| for r_j = psi_j / psi_{j-1}, psi_j the orthonormal
    Hermite functions: r_1 = sqrt2 x, r_{j+1} = sqrt(2/(j+1)) x - sqrt(j/(j+1)) / r_j.

    Ratios of neighbouring functions stay of order x / sqrt(j), so nothing
    underflows however far out x lies.
    """
    r = SQRT2 * x
    log_prod = np.zeros_like(x)
    for j in range(1, n):
        log_prod += np.log(np.abs(r))
        r = math.sqrt(2.0 / (j + 1)) * x - math.sqrt(j / (j + 1)) / r
    return r, log_prod


@functools.lru_cache(maxsize=None)
def _gh_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite rule for the weight e^{-x^2}: ascending nodes, weights; n even.

    Townsend, Trogdon & Olver (IMA J. Numer. Anal. 2016): Tricomi's asymptotic
    nodes, x = sqrt(nu) cos(theta / 2) with theta - sin theta = pi (4m - 4k + 3) / nu,
    nu = 2n + 1, refined by Newton on psi_n, all positive nodes at once.  The
    weight 1 / (n p_{n-1}(x)^2), p the orthonormal polynomials, is
    sqrt(pi) / (n prod_{j<n} r_j^2) in the ratios of _hermite_ratios, where the
    e^{-x^2} of the Hermite functions has cancelled; the weights are then scaled
    to sum to sqrt(pi).  Costs O(n^2) flops and O(n) memory: about 0.1 s at 2048
    nodes, where weights below 1e-308 underflow to 0.
    """
    if n < 2 or n % 2:
        raise ValidationError(f"Gauss-Hermite rule needs an even number of nodes, got {n}")
    m = n // 2
    nu = 2.0 * n + 1.0
    c = math.pi * (4.0 * m - 4.0 * np.arange(1, m + 1) + 3.0) / nu
    theta = np.full(m, 0.5 * math.pi)
    for _ in range(10):  # theta - sin theta = c from pi/2: at rounding level by step 9 at n = 2048
        theta -= (theta - np.sin(theta) - c) / (1.0 - np.cos(theta))
    x = math.sqrt(nu) * np.cos(0.5 * theta)
    root_2n = math.sqrt(2.0 * n)
    for _ in range(GH_MAX_ITER):
        r, _log_prod = _hermite_ratios(x, n)
        step = r / (root_2n - x * r)  # psi_n / psi_n'
        x = x - step
        if np.all(np.abs(step) <= GH_TOL * np.maximum(x, 1.0)):
            break
    else:
        raise NumericsError(f"Gauss-Hermite nodes did not converge at n={n}")
    _r, log_prod = _hermite_ratios(x, n)
    w = np.exp(0.5 * math.log(math.pi) - math.log(n) - 2.0 * log_prod)
    nodes = np.concatenate([-x[::-1], x])
    weights = np.concatenate([w[::-1], w])
    return nodes, weights * (SQRTPI / weights.sum())


@functools.lru_cache(maxsize=None)
def _mgf_rule() -> tuple[np.ndarray, np.ndarray]:
    """MGF_NODES-point Gauss-Hermite rule for E[g(e^y)], y ~ N(0, 1): (sqrt2 * t, weight)."""
    t, wgt = _gh_nodes(MGF_NODES)
    return SQRT2 * t, wgt / SQRTPI


def _lognormal_log_laplace(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln E[exp(-s X)] at s = MGF_POINTS for X = exp(Z), Z ~ N(mu, sigma^2).

    params rows are (mu, ln sigma).  Returns the (rows, 2) transform values and
    their (rows, 2, 2) Jacobian with respect to (mu, ln sigma).
    """
    nodes, wgt = _mgf_rule()
    mu, sigma = params[:, 0], np.exp(params[:, 1])
    x = MGF_POINTS[:, None] * np.exp(mu[:, None, None] + sigma[:, None, None] * nodes)
    # the products are formed in place, so that a block holds two arrays of its size
    e = np.negative(x)
    np.exp(e, out=e)
    e *= wgt
    total = e.sum(axis=-1)
    x *= e
    d_mu = -x.sum(axis=-1) / total
    x *= nodes
    d_log_sigma = -x.sum(axis=-1) / total * sigma[:, None]
    return np.log(total), np.stack([d_mu, d_log_sigma], axis=-1)


def _mgf_newton(target: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Solve _lognormal_log_laplace(params) = target for every row at once.

    Damped Newton from `start`: a trial point is accepted only when it lowers
    the row's squared residual, otherwise its step is halved.  Rows stop
    moving once both residuals are within MGF_TOL, so each row's answer is
    independent of the others in the batch.
    """
    base = start.copy()
    trial = start.copy()
    step = np.zeros_like(start)
    scale = np.ones(len(start))
    merit = np.full(len(start), np.inf)
    active = np.arange(len(start))
    with np.errstate(all="ignore"):
        for _ in range(MGF_MAX_ITER):
            value, jac = _lognormal_log_laplace(trial[active])
            resid = value - target[active]
            phi = np.sum(resid * resid, axis=1)
            better = phi < merit[active]  # False for a non-finite trial
            done = better & np.all(np.abs(resid) <= MGF_TOL, axis=1)
            base[active[better]] = trial[active[better]]
            merit[active[better]] = phi[better]

            renew = better & ~done
            j, r = jac[renew], resid[renew]
            det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
            step[active[renew]] = np.stack(
                [
                    (j[:, 0, 1] * r[:, 1] - j[:, 1, 1] * r[:, 0]) / det,
                    (j[:, 1, 0] * r[:, 0] - j[:, 0, 0] * r[:, 1]) / det,
                ],
                axis=1,
            )
            scale[active[renew]] = 1.0
            scale[active[~better]] *= 0.5

            active = active[~done]
            if active.size == 0:
                return base
            trial[active] = base[active] + scale[active, None] * step[active]
    worst = int(active[np.argmax(merit[active])])
    raise NumericsError(
        f"MGF matching did not converge for {active.size} of {len(start)} sums "
        f"(worst squared residual {merit[worst]:.3e}, tolerance {MGF_TOL:.0e} per point, at "
        f"mu={base[worst, 0]:.4f}, ln sigma={base[worst, 1]:.4f})"
    )


def _terms(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct positive powers of the (rows, places) `terms` matrix, ascending,
    and each row's indices into them, ascending, len(powers) for an empty place."""
    terms = np.asarray(terms, dtype=float)
    if terms.ndim != 2:
        raise ValidationError(f"terms of shape {terms.shape} are not a (rows, places) matrix")
    if not np.all((terms >= 0.0) & (terms < math.inf)):
        raise ValidationError(f"term powers {terms.tolist()} must be >= 0 and finite")
    powers, index = np.unique(np.where(terms > 0.0, terms, math.inf), return_inverse=True)
    if powers.size and powers[-1] == math.inf:  # the empty places' index is len(powers)
        powers = powers[:-1]
    return powers, np.sort(index.reshape(terms.shape), axis=1)


def _sum_log_laplace(
    powers: np.ndarray,
    index: np.ndarray,
    scale: np.ndarray,
    fading: FadingParams,
) -> np.ndarray:
    """ln E[exp(-s S / scale)] at s = MGF_POINTS for each row's sum S of independent
    terms, powers[index[row]] (see _terms)."""
    nodes, wgt = _mgf_rule()
    shadow = np.exp(fading.sigma * nodes)
    kappa = fading.kappa
    total = np.zeros((len(index), len(MGF_POINTS)))
    for place in index.T:
        sel = place < len(powers)
        x = (MGF_POINTS * (powers[place[sel]] / scale[sel])[:, None])[..., None] * shadow
        if fading.multipath:
            g = np.exp(-kappa * np.log1p(x / kappa))
        else:
            g = np.exp(-x)
        total[sel] += np.log((g * wgt).sum(axis=-1))
    return total


def mgf_fit(terms: np.ndarray, fading: FadingParams) -> tuple[np.ndarray, np.ndarray]:
    """Lognormal (eta, sigma) fitted to the power sum S of each row of terms.

    Row r of the (rows, places) `terms` matrix holds the mean powers of the
    independent terms summed in subset r, 0 for an empty place.  The fit
    exp(Z), Z ~ N(eta, sigma^2), has the sum's exact Laplace transform
    E[exp(-s S)] at s = MGF_POINTS / E[S] (MGF matching: Mehta, Wu, Molisch,
    Zhang, IEEE Trans. Wireless Commun. 2007).  Both transforms are MGF_NODES-point
    Gauss-Hermite sums; with multipath a term enters through its closed-form
    Gamma transform E[(1 + s w e^y / kappa)^-kappa].  Rows are solved together,
    MGF_BLOCK at a time, by _mgf_newton started from the moment-matched fit.

    Rows that need no fitting keep closed forms: one term without multipath
    gets its own (ln w, sigma); a sum whose moment-matched log-variance is
    below MGF_VAR_FLOOR (a point mass to working precision, e.g. sigma 0 and
    no multipath) keeps the moment-matched fit; a row with no positive term
    gets eta = -inf, sigma = 0.

    The moments and the transform target are summed over each row's terms
    in ascending order (see _terms), so a row's fit depends only on the
    multiset of its powers, not on their order or on other rows.
    """
    powers, index = _terms(terms)
    e_half, _, e_two = _shadowing_moments(fading)
    f2 = _second_moment_factor(fading)
    # per distinct power, then 0 for an empty place; ** and log as scalars, whose
    # last bit the array versions do not always match
    mean = np.append(powers * e_half, 0.0)
    spread = np.array([w**2 * f2 * e_two - (w * e_half) ** 2 for w in powers] + [0.0])
    rows = len(index)
    m1 = np.zeros(rows)
    excess = np.zeros(rows)  # M2 - M1^2, the variance of the sum
    for place in index.T:
        m1 += mean[place]
        excess += spread[place]
    count = np.sum(index < len(powers), axis=1)

    eta = np.full(rows, -math.inf)
    sigma = np.zeros(rows)
    exact = (count == 1) & (not fading.multipath)  # the term's own parameters
    if exact.any():
        eta[exact] = np.array([math.log(w) for w in powers])[index[exact, 0]]
    sigma[exact] = fading.sigma
    summed = count > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.log1p(excess / m1**2)
    moment = summed & ~exact & (var < MGF_VAR_FLOOR)
    eta[moment] = np.log(m1[moment]) - 0.5 * var[moment]
    sigma[moment] = np.sqrt(np.maximum(var[moment], 0.0))

    fit = np.nonzero(summed & ~exact & ~moment)[0]
    for lo in range(0, len(fit), MGF_BLOCK):
        block = fit[lo : lo + MGF_BLOCK]
        scale = m1[block]
        target = _sum_log_laplace(powers, index[block], scale, fading)
        start = np.stack([-0.5 * var[block], 0.5 * np.log(var[block])], axis=1)
        solved = _mgf_newton(target, start)
        eta[block] = solved[:, 0] + np.log(scale)
        sigma[block] = np.exp(solved[:, 1])
    return eta, sigma


def detection_probability(
    terms: np.ndarray,
    threshold_mw: float,
    fading: FadingParams = FadingParams(),
) -> np.ndarray:
    """P[power sum exceeds threshold_mw] for every row of `terms` (see mgf_fit).

    Independent terms only; each row's sum is fitted by mgf_fit.  An empty
    row never exceeds the (positive) threshold.
    """
    if threshold_mw <= 0.0:
        raise ValidationError(f"threshold {threshold_mw} must be positive")
    eta, sigma = mgf_fit(terms, fading)
    return _lognormal_tails(eta, sigma, math.log(threshold_mw))


def _lognormal_tails(eta: np.ndarray, sigma: np.ndarray, ln_t: float) -> np.ndarray:
    """P[exp(Z) > exp(ln_t)] per row, Z ~ N(eta, sigma^2); a step where sigma is ~0."""
    spread = sigma > SIGMA_FLOOR
    tail = 0.5 * _erfc((ln_t - eta) / np.where(spread, sigma, 1.0) / SQRT2)
    return np.where(spread, tail, (eta > ln_t).astype(float))


def _gamma_cdf_unit_mean(kappa: float, x: np.ndarray) -> np.ndarray:
    """CDF of the unit-mean Gamma multipath factor (shape kappa, scale 1/kappa) at x.

    This is the regularized lower incomplete gamma function P(kappa, kappa x).
    For integer kappa it is the finite series 1 - exp(-k x) sum (k x)^i / i!,
    accumulated as Poisson terms (absolute error below 1e-15, but a large
    relative error where the CDF is tiny); otherwise _gammainc.
    """
    arg = kappa * np.asarray(x, dtype=float)
    if float(kappa).is_integer():
        k_int = int(kappa)
        term = np.exp(-arg)
        total = term.copy()
        for i in range(1, k_int):
            term = term * arg / i
            total += term
        return 1.0 - total
    return _gammainc(kappa, arg)


def _gammainc(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma function P(a, x) elementwise, a > 0.

    Numerical Recipes (Press et al.) section 6.2: the power series for
    x < a + 1 and the continued fraction for Q = 1 - P, by modified Lentz,
    above; both scaled by x^a e^{-x} / Gamma(a).  Each loop drops the elements
    that have converged to GAMMAINC_TOL.  P is 0 for x <= 0 and 1 for x = +inf.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(np.isnan(x), np.nan, (x > 0.0).astype(float))
    inside = (x > 0.0) & (x < math.inf)
    xs = x[inside]
    with np.errstate(under="ignore"):
        scale = np.exp(a * np.log(xs) - xs - math.lgamma(a))
    series = xs < a + 1.0
    val = np.empty_like(xs)
    val[series] = scale[series] * _gammainc_series(a, xs[series])
    val[~series] = 1.0 - scale[~series] * _gammaincc_fraction(a, xs[~series])
    out[inside] = val
    return out


def _gammainc_series(a: float, x: np.ndarray) -> np.ndarray:
    """sum_{n>=0} x^n / (a (a+1) ... (a+n)) per element."""
    out = np.empty_like(x)
    rows = np.arange(len(x))
    term = np.full(len(x), 1.0 / a)
    total = term.copy()
    for n in range(1, GAMMAINC_MAX_ITER + 1):
        term = term * x[rows] / (a + n)
        total += term
        done = np.abs(term) <= total * GAMMAINC_TOL
        out[rows[done]] = total[done]
        rows, term, total = rows[~done], term[~done], total[~done]
        if rows.size == 0:
            return out
    raise NumericsError(
        f"incomplete gamma series did not converge (a={a}, x={float(x[rows[0]])!r})"
    )


def _gammaincc_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))) per element,
    by modified Lentz."""
    out = np.empty_like(x)
    rows = np.arange(len(x))
    b = x + 1.0 - a
    c = np.full(len(x), 1.0 / GAMMAINC_TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, GAMMAINC_MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < GAMMAINC_TINY, GAMMAINC_TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < GAMMAINC_TINY, GAMMAINC_TINY, c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) <= GAMMAINC_TOL
        out[rows[done]] = h[done]
        rows, b, c, d, h = rows[~done], b[~done], c[~done], d[~done], h[~done]
        if rows.size == 0:
            return out
    raise NumericsError(
        f"incomplete gamma continued fraction did not converge (a={a}, x={float(x[rows[0]])!r})"
    )


def mma_fit(
    useful: np.ndarray,
    terms: np.ndarray,
    noise_mw: float,
    fading: FadingParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Lognormal (eta, sigma) fitted to the useful-normalized denominator of every row.

    Row r of the (rows, places) `terms` matrix holds the mean powers of the
    interferers transmitting in subset r, 0 for an empty place, and useful[r]
    the mean power w_u of its useful link; the denominator is those
    interferers plus noise.  Normalized by the useful power and shadowing, it is
    sum_n (w_n / w_u) f_n e^{y_n - y_u} + (N0 / w_u) e^{-y_u}.  The shared
    -y_u makes its terms correlated, but with the term means
    g_n = (w_n / w_u) e^{sigma^2} and g_0 = (N0 / w_u) e^{sigma^2/2}
    the first two moments stay closed form:

        M1 = sum_n g_n + g_0
        M2 = e^{sigma^2} M1^2 + sum_n g_n^2 (f2 e^{2 sigma^2} - e^{sigma^2})

    (f2 the multipath second moment), which is what moment matching
    (Fenton-Wilkinson) gives with the induced exponent correlations.  The
    matched lognormal exp(Z) has var Z = ln(M2 / M1^2) and
    E Z = ln M1 - var Z / 2.

    Each row's sums run over its terms in ascending order (see _terms), so
    its fit depends only on its useful power and the multiset of its
    interferers: not on the other rows, on empty places, or on the order
    the terms are listed in.
    """
    powers, index = _terms(terms)
    useful = np.asarray(useful, dtype=float)
    if useful.shape != (len(index),) or not np.all((useful > 0.0) & (useful < math.inf)):
        raise ValidationError(
            f"useful mean powers {useful.tolist()} must be finite and positive, one per row"
        )
    e_half, e_one, e_two = _shadowing_moments(fading)
    spread = _second_moment_factor(fading) * e_two - e_one
    m1 = np.zeros(len(index))
    excess = np.zeros(len(index))  # M2 - e^{sigma^2} M1^2
    with np.errstate(all="ignore"):  # an overflow leaves var non-finite: refused below
        for place in index.T:
            sel = place < len(powers)
            g = powers[place[sel]] / useful[sel] * e_one
            m1[sel] += g
            excess[sel] += g * g * spread
        m1 += noise_mw / useful * e_half
        var = fading.sigma**2 + np.log1p(excess / (e_one * m1 * m1))
    if not np.all(np.isfinite(var)):
        bad = float(useful[~np.isfinite(var)][0])
        raise NumericsError(f"outage moment matching overflowed (useful power {bad!r})")
    return np.log(m1) - 0.5 * var, np.sqrt(var)


def lognormal_expectation(
    fn: Callable[[np.ndarray], np.ndarray], eta: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """E[fn(W)] per row for W = exp(Z), Z ~ N(eta, sigma^2), by Gauss-Hermite.

    fn maps an array of W values to fn elementwise.  Every row climbs
    QUAD_LADDER until two successive estimates agree to QUAD_TOL, and
    leaves it there; each rung evaluates the remaining rows QUAD_BLOCK
    nodes-times-rows at a time.  A row with sigma ~0 is the point value
    fn(e^eta).
    """
    out = np.empty(len(eta))
    point = sigma <= SIGMA_FLOOR
    out[point] = fn(np.exp(eta[point]))

    def expectation(rows: np.ndarray, nodes: int) -> np.ndarray:
        t, wgt = _gh_nodes(nodes)
        val = np.empty(len(rows))
        step = max(1, QUAD_BLOCK // nodes)
        for lo in range(0, len(rows), step):
            r = rows[lo : lo + step]
            with np.errstate(over="ignore"):  # a W beyond the float range is inf
                w = np.exp(eta[r, None] + (SQRT2 * sigma[r])[:, None] * t)
            f = fn(w)
            # one BLAS dot per row, as a 1-D `wgt @ f`, whatever the block size
            val[lo : lo + step] = np.matmul(f[:, None, :], wgt[:, None])[:, 0, 0] / SQRTPI
        return val

    active = np.nonzero(~point)[0]
    prev = expectation(active, QUAD_LADDER[0])
    for nodes in QUAD_LADDER[1:]:
        if active.size == 0:
            break
        val = expectation(active, nodes)
        diff = np.abs(val - prev)
        done = diff <= QUAD_TOL
        out[active[done]] = val[done]
        active, prev, diff = active[~done], val[~done], diff[~done]
    if active.size:
        worst = int(np.argmax(diff))
        row = active[worst]
        raise NumericsError(
            f"lognormal expectation did not converge at {QUAD_LADDER[-1]} nodes for "
            f"{active.size} of {len(eta)} rows (worst last change {diff[worst]:.3e} > "
            f"{QUAD_TOL}; eta={eta[row]:.4f}, sigma={sigma[row]:.4f})"
        )
    return out


def outage_probability(
    useful: np.ndarray,
    terms: np.ndarray,
    noise_mw: float,
    sinr_threshold: float,
    fading: FadingParams,
) -> np.ndarray:
    """P[SINR < sinr_threshold] of the useful link of every row of `terms` (see mma_fit).

    The denominator over the useful power, interferers plus noise, is fitted
    by mma_fit as exp(Z).  Without multipath the outage is its tail above
    1 / b; with it, the outage is E[F(b exp(Z))] for the unit-mean Gamma CDF
    F, by lognormal_expectation.
    """
    if noise_mw <= 0.0:
        raise ValidationError(f"noise power {noise_mw!r} must be positive")
    if sinr_threshold <= 0.0:
        raise ValidationError(f"SINR threshold {sinr_threshold} must be positive")
    eta, sigma = mma_fit(useful, terms, noise_mw, fading)
    if fading.multipath:
        kappa = fading.kappa

        def outage(w: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):  # an infinite b W has F = 1
                return _gamma_cdf_unit_mean(kappa, sinr_threshold * w)

        return np.clip(lognormal_expectation(outage, eta, sigma), 0.0, 1.0)
    return _lognormal_tails(eta, sigma, -math.log(sinr_threshold))
