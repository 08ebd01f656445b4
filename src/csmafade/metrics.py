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

from .errors import NumericsError, ValidationError
from .macmodel import LinkState, MacParams, TimingParams, xi_value


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


def discard_probabilities(alpha: float, gamma: float, mac: MacParams) -> tuple[float, float]:
    """(p_cf, p_cr): discard by channel-access failure and by retry exhaustion."""
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"alpha={alpha}, gamma={gamma} must lie in [0, 1]")
    xi = xi_value(alpha, gamma, mac)
    p_cf = alpha ** (mac.m + 1) * sum(xi**j for j in range(mac.n + 1))
    p_cr = xi ** (mac.n + 1)
    return p_cf, p_cr


def reliability(alpha: float, gamma: float, mac: MacParams) -> float:
    """Probability that a packet leaving the queue is eventually delivered."""
    p_cf, p_cr = discard_probabilities(alpha, gamma, mac)
    return 1.0 - p_cf - p_cr


def cca_rounds_distribution(alpha: float, mac: MacParams) -> np.ndarray:
    """Pr[r busy CCAs before the clear one | access succeeds], r = 0..m."""
    weights = np.array([alpha**r for r in range(mac.m + 1)])
    return weights / weights.sum()


def retry_distribution(alpha: float, gamma: float, mac: MacParams) -> np.ndarray:
    """Pr[h failed transmissions before the delivered one | success], h = 0..n."""
    xi = xi_value(alpha, gamma, mac)
    weights = np.array([xi**h for h in range(mac.n + 1)])
    return weights / weights.sum()


def mean_access_time(alpha: float, mac: MacParams, timing: TimingParams) -> float:
    """Mean backoff-and-sense time of one successful channel access, in backoff units."""
    rounds = cca_rounds_distribution(alpha, mac)
    cum_backoff = np.cumsum([(w - 1) / 2.0 for w in mac.windows])
    per_round = np.array(
        [(r + 1) * timing.t_sc + cum_backoff[r] for r in range(mac.m + 1)]
    )
    return float(rounds @ per_round)


def expected_delay(
    alpha: float, gamma: float, mac: MacParams, timing: TimingParams
) -> float:
    """Mean delay of successfully delivered packets, in seconds."""
    if reliability(alpha, gamma, mac) <= 1e-15:
        raise NumericsError(
            f"delay undefined: success probability is zero at alpha={alpha}, gamma={gamma}"
        )
    retries = retry_distribution(alpha, gamma, mac)
    e_t = mean_access_time(alpha, mac, timing)
    backoff_units = float(
        sum(
            retries[h] * (timing.ls + h * timing.lc + (h + 1) * e_t)
            for h in range(mac.n + 1)
        )
    )
    return backoff_units * timing.sb_seconds


@dataclass(frozen=True)
class EnergyBreakdown:
    """Average power in mW split by radio activity."""

    backoff: float
    sense: float
    transmit: float
    queue: float
    relay: float

    @property
    def total(self) -> float:
        return self.backoff + self.sense + self.transmit + self.queue + self.relay


def _mean_window(alpha: float, mac: MacParams) -> float:
    """Backoff window averaged over CCA rounds, capped at 2^mb."""
    weights = [alpha**j for j in range(mac.m + 1)]
    return sum(w * win for w, win in zip(weights, mac.windows)) / sum(weights)


def _transaction_power(
    alpha: float, gamma: float, tau: float, profile: PowerProfile, timing: TimingParams
) -> float:
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
    states: list[LinkState],
    profile: PowerProfile,
    mac: MacParams,
    timing: TimingParams,
    children: list[list[int]] | None = None,
) -> list[EnergyBreakdown]:
    """Average power per transmitting node, split by activity.

    children[i] lists the state indices of links relayed through node i.
    Nodes with children idle-listen while waiting (relays), others sleep.
    """
    if children is None:
        children = [[] for _ in states]
    if len(children) != len(states):
        raise ValidationError("children list must match the state count")
    out = []
    for i, s in enumerate(states):
        e_b = profile.p_idle * (s.tau / 2.0) * (_mean_window(s.alpha, mac) + 1.0)
        e_s = profile.p_sense * s.tau
        e_t = _transaction_power(s.alpha, s.gamma, s.tau, profile, timing)
        is_relay = bool(children[i])
        e_q = (profile.p_idle if is_relay else profile.p_sleep) * s.b000
        e_x = 0.0
        for c in children[i]:
            cs = states[c]
            e_x += _transaction_power(cs.alpha, cs.gamma, cs.tau, profile, timing)
        out.append(EnergyBreakdown(backoff=e_b, sense=e_s, transmit=e_t, queue=e_q, relay=e_x))
    return out


@dataclass
class LinkMetrics:
    """Solved indicators for one link."""

    reliability: float
    p_cf: float
    p_cr: float
    delay_seconds: float  # NaN when no packet can succeed
    power_mw: float
    energy: EnergyBreakdown


@dataclass
class MetricsReport:
    """Per-link metrics plus aggregate means."""

    links: list[LinkMetrics]
    mean_reliability: float = field(init=False)
    mean_delay_seconds: float = field(init=False)
    mean_power_mw: float = field(init=False)

    def __post_init__(self) -> None:
        self.mean_reliability = float(np.mean([m.reliability for m in self.links]))
        delays = [m.delay_seconds for m in self.links if math.isfinite(m.delay_seconds)]
        self.mean_delay_seconds = float(np.mean(delays)) if delays else math.nan
        self.mean_power_mw = float(np.mean([m.power_mw for m in self.links]))


def report(
    states: list[LinkState],
    profile: PowerProfile,
    mac: MacParams,
    timing: TimingParams,
    children: list[list[int]] | None = None,
) -> MetricsReport:
    """Assemble per-link reliability, delay, and power into one report."""
    energies = energy_rate(states, profile, mac, timing, children)
    links = []
    for s, e in zip(states, energies):
        p_cf, p_cr = discard_probabilities(s.alpha, s.gamma, mac)
        rel = 1.0 - p_cf - p_cr
        try:
            delay = expected_delay(s.alpha, s.gamma, mac, timing)
        except NumericsError:
            delay = math.nan
        links.append(
            LinkMetrics(
                reliability=rel,
                p_cf=p_cf,
                p_cr=p_cr,
                delay_seconds=delay,
                power_mw=e.total,
                energy=e,
            )
        )
    return MetricsReport(links=links)
