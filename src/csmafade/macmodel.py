"""Per-link CSMA/CA Markov quantities and the coupled MAC-PHY fixed point.

Each transmitting link carries unknowns (tau, alpha, gamma): the per-slot CCA
probability, the busy-channel probability seen by the transmitter, and the
packet-loss probability at the receiver.  They are coupled across links
through a contention functional that enumerates which subsets of the other
nodes transmit concurrently, weighting per-subset channel probabilities that
are precomputed once per scenario.  A damped Jacobi iteration closes the
system.

All chain formulas are evaluated as direct finite sums over backoff stages
and retry attempts (windows capped at 2^mb), which is algebraically identical
to the usual two-branch closed forms but free of their removable
singularities at alpha = 1/2 and xi = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError

# Busy-channel probability is a duration-weighted rate and can exceed 1 at
# high traffic; it is capped just below 1 to keep the chain formulas valid.
ALPHA_CAP = 1.0 - 1e-9

# One value or an array of per-link values: the chain formulas work elementwise.
Values = float | np.ndarray


@dataclass(frozen=True)
class MacParams:
    """CSMA/CA constants: macMinBE, macMaxBE, macMaxCSMABackoffs, macMaxFrameRetries."""

    m0: int = 3
    mb: int = 5
    m: int = 4
    n: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.m0 <= self.mb <= 8:
            raise ValidationError(f"require 0 <= m0 <= mb <= 8, got m0={self.m0}, mb={self.mb}")
        if not 0 <= self.m <= 5:
            raise ValidationError(f"macMaxCSMABackoffs m={self.m} outside [0, 5]")
        if not 0 <= self.n <= 7:
            raise ValidationError(f"macMaxFrameRetries n={self.n} outside [0, 7]")

    @property
    def windows(self) -> tuple[int, ...]:
        """Backoff window W_j = 2^min(m0+j, mb) for each CCA round j."""
        return tuple(2 ** min(self.m0 + j, self.mb) for j in range(self.m + 1))


@dataclass(frozen=True)
class TimingParams:
    """Frame and MAC durations in backoff units (one unit = sb_seconds)."""

    sb_seconds: float = 320e-6
    l_pkt: float = 7.0
    l_ack: float = 1.1
    t_ack: float = 2.7
    t_m_ack: float = 2.1
    ifs: float = 2.0
    turnaround: float = 0.6
    t_sc: float = 0.4

    def __post_init__(self) -> None:
        for name in ("sb_seconds", "l_pkt", "l_ack", "t_ack", "t_m_ack", "ifs", "turnaround", "t_sc"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"timing field {name} must be >= 0")
        if self.sb_seconds == 0.0:
            raise ValidationError("sb_seconds must be positive")

    @property
    def ls(self) -> float:
        """Duration of a successful transaction: data, ACK wait, ACK, IFS."""
        return self.l_pkt + self.t_ack + self.l_ack + self.ifs

    @property
    def lc(self) -> float:
        """Duration of a failed transaction: data plus ACK timeout."""
        return self.l_pkt + self.t_m_ack


@dataclass(frozen=True)
class LinkState:
    """Solved MAC unknowns, one entry per link in each array."""

    tau: np.ndarray
    alpha_pkt: np.ndarray
    alpha_ack: np.ndarray
    gamma: np.ndarray
    b000: np.ndarray

    @property
    def alpha(self) -> np.ndarray:
        return np.minimum(self.alpha_pkt + self.alpha_ack, ALPHA_CAP)


@dataclass(frozen=True)
class SolverConfig:
    """Damped Jacobi iteration settings."""

    damping: float = 0.5
    tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError(f"damping {self.damping} outside (0, 1]")
        if self.tol <= 0.0 or self.max_iter < 1:
            raise ValidationError("tol must be positive and max_iter >= 1")


def arrival_probability(lambda_pkt_per_s: float, sb_seconds: float) -> float:
    """Per-backoff-unit probability of at least one Poisson arrival."""
    if lambda_pkt_per_s < 0.0:
        raise ValidationError(f"arrival rate {lambda_pkt_per_s} must be >= 0")
    return 1.0 - math.exp(-lambda_pkt_per_s * sb_seconds)


def xi_value(alpha: Values, gamma: Values, mac: MacParams) -> Values:
    """Retry-branch probability: packet lost after a completed transmission."""
    return gamma * (1.0 - alpha ** (mac.m + 1))


def cca_probability(
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


# ---------------------------------------------------------------------------
# contention functional


def _bit_matrix(k: int) -> np.ndarray:
    """(2^k, k) bool matrix: row mask, column z -> link z in the subset."""
    masks = np.arange(2**k, dtype=np.uint32)
    return (masks[:, None] >> np.arange(k)[None, :]) & 1 == 1


@dataclass
class LinkTables:
    """Per-subset channel probabilities for one link, precomputed per scenario.

    others: contending link indices in mask-bit order.
    p_det: detection probability of each subset's aggregate power at this
        link's transmitter (index = subset mask over `others`).
    p_out: SINR outage probability at this link's receiver under each subset.
    p_fad: no-interferer outage probability of the link itself.
    """

    others: tuple[int, ...]
    p_det: np.ndarray
    p_out: np.ndarray
    p_fad: float


@dataclass
class ContentionSystem:
    """Everything the fixed point needs: per-link arrivals, timing, tables.

    The tables are stacked once into arrays with one row per link: `others`
    (L, k), `p_det` and `p_out` (L, 2^k) indexed by subset mask, `p_fad` (L,).
    """

    qs: np.ndarray
    mac: MacParams
    timing: TimingParams
    tables: list[LinkTables]
    others: np.ndarray = field(init=False)
    p_det: np.ndarray = field(init=False)
    p_out: np.ndarray = field(init=False)
    p_fad: np.ndarray = field(init=False)
    bits: np.ndarray = field(init=False)
    _counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.tables)
        self.qs = np.asarray(self.qs, dtype=float)
        if self.qs.shape != (n,):
            raise ValidationError("qs length must match table count")
        k = n - 1
        for t in self.tables:
            if len(t.others) != k or len(t.p_det) != 2**k or len(t.p_out) != 2**k:
                raise ValidationError("table sizes inconsistent with link count")
        self.others = np.array([t.others for t in self.tables], dtype=np.intp).reshape(n, k)
        self.p_det = np.array([t.p_det for t in self.tables], dtype=float)
        self.p_out = np.array([t.p_out for t in self.tables], dtype=float)
        self.p_fad = np.array([t.p_fad for t in self.tables], dtype=float)
        self.bits = _bit_matrix(k)
        counts = self.bits.sum(axis=1).astype(float)
        counts[0] = 1.0  # unused empty-set slot, avoids divide-by-zero
        self._counts = counts


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading ones.

    A stack of (1, m) @ (m, 1) products runs the same BLAS dot as a 1-D `@`,
    so each row is summed in the same order as `a[i] @ b[i]`; an elementwise
    product summed by numpy, or a matrix-vector `@`, would round differently
    in the last bits.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def contention_terms(
    system: ContentionSystem,
    taus: np.ndarray,
    alphas: np.ndarray,
    gammas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Busy-channel components and packet loss of every link: (alpha_pkt, alpha_ack, gamma).

    A contender is in the transmitting subset when it senses (tau) and finds
    the channel idle (1 - alpha); the subset weights of all links form one
    (L, 2^k) array, built by doubling over the contender columns.  alpha_pkt
    weighs subset detection by the data duration; alpha_ack by the ACK
    duration and the subset's mean transmission success.  gamma (clamped to
    [0, 1]) adds fading-only loss when nobody else transmits, outage under
    concurrent transmitters, and the hidden-terminal window where the
    transmitter failed to detect them.
    """
    timing = system.timing
    eff = (taus * (1.0 - alphas))[system.others]
    weights = np.ones((len(eff), 1))
    for z in range(eff.shape[1]):
        e = eff[:, z : z + 1]
        weights = np.concatenate([weights * (1.0 - e), weights * e], axis=1)
    w = weights[:, 1:]
    p_det = system.p_det[:, 1:]
    p_out = system.p_out[:, 1:]

    gamma_bar = (gammas[system.others] @ system.bits.T)[:, 1:] / system._counts[1:]
    a_pkt = timing.l_pkt * _rowdot(w, p_det)
    a_ack = timing.l_ack * _rowdot(w, (1.0 - gamma_bar) * p_det)

    h_one = 1.0 - weights[:, 0]
    h_out = _rowdot(w, p_out)
    h_hidden = _rowdot(w, (1.0 - p_det) * p_out)
    raw = (1.0 - h_one) * system.p_fad + h_out + (2.0 * timing.l_pkt - 1.0) * h_hidden
    return a_pkt, a_ack, np.clip(raw, 0.0, 1.0)


@dataclass
class SolveResult:
    """Fixed-point solution with diagnostics."""

    state: LinkState
    iterations: int
    residual: float
    warnings: list[str]


def solve_fixed_point(
    system: ContentionSystem,
    config: SolverConfig = SolverConfig(),
    init: tuple[float, float] = (0.0, 0.0),
) -> SolveResult:
    """Damped Jacobi iteration on (alpha, gamma) across all links.

    tau and b000 follow directly from (alpha, gamma, q) each sweep.  Links
    with q = 0 never transmit and are held at tau = b000 = 0.
    """
    n = len(system.tables)
    alphas = np.full(n, float(init[0]))
    gammas = np.full(n, float(init[1]))
    taus = np.zeros(n)
    b000s = np.zeros(n)
    active = system.qs > 0.0
    qs = system.qs[active]
    warnings: list[str] = []
    clamp_count = 0
    d = config.damping

    residual = math.inf
    for iteration in range(1, config.max_iter + 1):
        taus[active], b000s[active] = cca_probability(
            alphas[active], gammas[active], qs, system.mac, system.timing
        )
        a_pkts, a_acks, new_gamma = contention_terms(system, taus, alphas, gammas)
        raw_alpha = a_pkts + a_acks
        clamp_count += int(np.count_nonzero(raw_alpha > ALPHA_CAP))
        new_alpha = np.minimum(raw_alpha, ALPHA_CAP)

        residual = float(
            max(np.max(np.abs(new_alpha - alphas)), np.max(np.abs(new_gamma - gammas)))
        )
        if residual < config.tol:
            # undamped polish: return the update map's own values so that
            # decoupled coordinates land exactly on their closed forms
            alphas = new_alpha
            gammas = new_gamma
            taus[active], b000s[active] = cca_probability(
                alphas[active], gammas[active], qs, system.mac, system.timing
            )
            break
        alphas = (1.0 - d) * alphas + d * new_alpha
        gammas = (1.0 - d) * gammas + d * new_gamma
    else:
        raise ConvergenceError(
            f"fixed point did not converge after {config.max_iter} iterations "
            f"(last residual {residual:.3e})"
        )

    if clamp_count:
        warnings.append(f"alpha clamped to {ALPHA_CAP} in {clamp_count} update(s)")

    state = LinkState(tau=taus, alpha_pkt=a_pkts, alpha_ack=a_acks, gamma=gammas, b000=b000s)
    return SolveResult(state=state, iterations=iteration, residual=residual, warnings=warnings)
