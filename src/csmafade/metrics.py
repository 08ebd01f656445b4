"""Closed-form performance indicators from solved per-link MAC states.

Reliability, mean delay of successfully delivered packets, and average power
draw all follow from (tau, alpha, gamma, b000) of each link.  Geometric
factors are evaluated as finite sums over backoff rounds and retry attempts,
so the expressions stay defined at the usual removable singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .macmodel import LinkState, MacParams, TimingParams, Values, _rowdot, xi_value


@dataclass(frozen=True)
class PowerProfile:
    """Average radio power draw per state, in mW (CC2420-class defaults)."""

    p_idle: float = 56.4
    p_sense: float = 56.4
    p_tx: float = 52.2
    p_rx: float = 56.4
    p_sleep: float = 0.06

    def __post_init__(self) -> None:
        for name in ("p_idle", "p_sense", "p_tx", "p_rx", "p_sleep"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"power draw {name} must be >= 0")


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


def expected_delay(alpha: Values, gamma: Values, mac: MacParams, timing: TimingParams) -> Values:
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
    return np.where(success, backoff_units * timing.sb_seconds, math.nan)[()]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Average power in mW split by radio activity, one entry per link."""

    backoff: np.ndarray
    sense: np.ndarray
    transmit: np.ndarray
    queue: np.ndarray
    relay: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.backoff + self.sense + self.transmit + self.queue + self.relay


def _mean_window(alpha: Values, mac: MacParams) -> Values:
    """Backoff window averaged over CCA rounds, capped at 2^mb."""
    weights = [alpha**j for j in range(mac.m + 1)]
    return sum(w * win for w, win in zip(weights, mac.windows)) / sum(weights)


def _transaction_power(
    alpha: Values, gamma: Values, tau: Values, profile: PowerProfile, timing: TimingParams
) -> Values:
    """Average power of the transmit stage including the ACK window."""
    return (
        (1.0 - alpha)
        * tau
        * (
            profile.p_tx * timing.l_pkt
            + profile.p_idle
            + (profile.p_rx * (1.0 - gamma) + profile.p_idle * gamma) * timing.l_ack
        )
    )


def energy_rate(
    state: LinkState,
    profile: PowerProfile,
    mac: MacParams,
    timing: TimingParams,
    next_link: np.ndarray | None = None,
) -> EnergyBreakdown:
    """Average power of every transmitting node, split by activity.

    next_link[l] is the index of the link whose transmitter relays link l's
    packets, or -1 where l delivers to a node that does not transmit.
    Transmitters that relay idle-listen while waiting, the others sleep.
    """
    n = len(state.tau)
    next_link = np.full(n, -1) if next_link is None else np.asarray(next_link, dtype=int)
    if next_link.shape != (n,):
        raise ValidationError("next_link must have one entry per link")
    relayed = next_link >= 0
    alpha = state.alpha
    e_t = _transaction_power(alpha, state.gamma, state.tau, profile, timing)
    is_relay = np.isin(np.arange(n), next_link)
    e_x = np.zeros(n)
    np.add.at(e_x, next_link[relayed], e_t[relayed])  # adds children in link order
    return EnergyBreakdown(
        backoff=profile.p_idle * (state.tau / 2.0) * (_mean_window(alpha, mac) + 1.0),
        sense=profile.p_sense * state.tau,
        transmit=e_t,
        queue=np.where(is_relay, profile.p_idle, profile.p_sleep) * state.b000,
        relay=e_x,
    )


@dataclass
class MetricsReport:
    """Per-link metrics as arrays in link order, plus aggregate means."""

    reliability: np.ndarray
    p_cf: np.ndarray
    p_cr: np.ndarray
    delay_seconds: np.ndarray  # NaN where no packet can succeed
    energy: EnergyBreakdown
    mean_reliability: float = field(init=False)
    mean_delay_seconds: float = field(init=False)
    mean_power_mw: float = field(init=False)

    def __post_init__(self) -> None:
        self.mean_reliability = float(np.mean(self.reliability))
        delays = self.delay_seconds[np.isfinite(self.delay_seconds)]
        self.mean_delay_seconds = float(np.mean(delays)) if delays.size else math.nan
        self.mean_power_mw = float(np.mean(self.power_mw))

    @property
    def power_mw(self) -> np.ndarray:
        return self.energy.total


def report(
    state: LinkState,
    profile: PowerProfile,
    mac: MacParams,
    timing: TimingParams,
    next_link: np.ndarray | None = None,
) -> MetricsReport:
    """Assemble per-link reliability, delay, and power into one report."""
    p_cf, p_cr = discard_probabilities(state.alpha, state.gamma, mac)
    return MetricsReport(
        reliability=1.0 - p_cf - p_cr,
        p_cf=p_cf,
        p_cr=p_cr,
        delay_seconds=expected_delay(state.alpha, state.gamma, mac, timing),
        energy=energy_rate(state, profile, mac, timing, next_link),
    )
