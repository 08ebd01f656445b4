"""Closed-form performance indicators from solved per-link MAC states.

Reliability, mean delay of successfully delivered packets, and average power
draw all follow from (tau, alpha, gamma, b000) of each link.  The sums over
backoff rounds and retry attempts they need are read from one `Chain`
evaluation per state (see macmodel), so the expressions stay defined at the
usual removable singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError
from .macmodel import UNIT_SECONDS, Chain, LinkState, MacParams, TimingParams, Values


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


def expected_delay(chain: Chain, timing: TimingParams) -> Values:
    """Mean delay of successfully delivered packets, in seconds.

    NaN where the success probability is zero (at most 1e-15).
    """
    cum_backoff = np.cumsum([(w - 1) / 2.0 for w in chain.mac.windows])
    per_round = (np.arange(1, chain.mac.m + 2) * timing.t_sc + cum_backoff).tolist()
    e_t = sum(r / chain.round_sum * t for r, t in zip(chain.rounds, per_round))
    backoff_units = sum(
        x / chain.retry_sum * (timing.ls + h * timing.lc + (h + 1) * e_t)
        for h, x in enumerate(chain.retries)
    )
    success = chain.reliability > 1e-15
    return np.where(success, backoff_units * UNIT_SECONDS, math.nan)[()]


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
    chain: Chain,
    profile: PowerProfile,
    timing: TimingParams,
    next_link: np.ndarray | None = None,
) -> EnergyBreakdown:
    """Average power of every transmitting node, split by activity.

    next_link[l] is the index of the link whose transmitter relays link l's
    packets, or -1 where l delivers to a node that does not transmit.
    Transmitters that relay idle-listen while waiting, the others sleep.
    chain is the chain of the state's (alpha, gamma).  The state is one
    point's (L,) arrays or a (P, L) stack of points on the same links.
    """
    n = state.tau.shape[-1]
    next_link = np.full(n, -1) if next_link is None else np.asarray(next_link, dtype=int)
    if next_link.shape != (n,):
        raise ValidationError("next_link must have one entry per link")
    relayed = next_link >= 0
    e_t = _transaction_power(chain.alpha, chain.gamma, state.tau, profile, timing)
    is_relay = np.isin(np.arange(n), next_link)
    e_x = np.zeros_like(e_t)
    np.add.at(e_x, (..., next_link[relayed]), e_t[..., relayed])  # adds children in link order
    # the backoff window averaged over the CCA rounds reached
    mean_window = sum(r * w for r, w in zip(chain.rounds, chain.mac.windows)) / chain.round_sum
    return EnergyBreakdown(
        backoff=profile.p_idle * (state.tau / 2.0) * (mean_window + 1.0),
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
) -> list[MetricsReport]:
    """Per-link reliability, delay, and power of a (P, L) stack of states on
    the same links, evaluated at once: one report per point, in stack order.
    """
    chain = Chain(state.alpha, state.gamma, mac)
    energy = energy_rate(state, chain, profile, timing, next_link)
    columns = (chain.reliability, chain.p_cf, chain.p_cr, expected_delay(chain, timing))
    parts = [getattr(energy, part.name) for part in fields(EnergyBreakdown)]
    return [MetricsReport(*(column[p] for column in columns),
                          EnergyBreakdown(*(part[p] for part in parts)))
            for p in range(len(state.tau))]
