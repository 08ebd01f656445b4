"""Per-link CSMA/CA Markov quantities and the coupled MAC-PHY fixed point.

Each transmitting link carries unknowns (tau, alpha, gamma): the per-slot CCA
probability, the busy-channel probability seen by the transmitter, and the
packet-loss probability at the receiver.  They are coupled across links
through a contention functional that enumerates which subsets of the other
nodes transmit concurrently, weighting per-subset channel probabilities that
are precomputed once per scenario.  Anderson acceleration of the Jacobi
map (Walker & Ni, "Anderson acceleration for fixed-point iterations", SIAM
J. Numer. Anal. 2011) closes the system.

The chain's sums over CCA rounds and retry attempts live in one place,
`Chain`, which the fixed point, the relay traffic and the metrics all read.
They are direct finite sums (windows capped at 2^mb), algebraically
identical to the usual two-branch closed forms but free of their removable
singularities at alpha = 1/2 and xi = 1.

Durations count backoff units of the one symbol clock both engines run on,
defined here next to TimingParams.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

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


# IEEE 802.15.4-2006 at 2.4 GHz: 16 us symbols of 4 bits, and a backoff unit
# (aUnitBackoffPeriod) of 20 symbols.  UNIT_SECONDS is written out: the
# product 20 * 16e-6 rounds to 0.00031999999999999997 in binary64, which
# would move every analytic result in its last bits.
SYMBOL_SECONDS = 16e-6
SYMBOLS_PER_UNIT = 20
SYMBOLS_PER_BYTE = 2
UNIT_SECONDS = 320e-6


@dataclass(frozen=True)
class TimingParams:
    """Frame and MAC durations in backoff units, each a whole number of symbols."""

    l_pkt: float = 7.0
    l_ack: float = 1.1
    t_ack: float = 2.7
    t_m_ack: float = 2.1
    ifs: float = 2.0
    turnaround: float = 0.6
    t_sc: float = 0.4

    def __post_init__(self) -> None:
        for name in ("l_pkt", "l_ack", "t_ack", "t_m_ack", "ifs", "turnaround", "t_sc"):
            units = getattr(self, name)
            if not 0.0 <= units < math.inf:
                raise ValidationError(f"timing field {name} must be finite and >= 0")
            if abs(units * SYMBOLS_PER_UNIT - round(units * SYMBOLS_PER_UNIT)) > 1e-9:
                raise ValidationError(
                    f"timing field {name} = {units} backoff units is not a whole number of symbols"
                )
        ack_wait, success_tail = self.symbols[4:]
        if ack_wait > success_tail:
            raise ValidationError("ACK timing is inconsistent with the transaction tail")

    @property
    def symbols(self) -> tuple[int, int, int, int, int, int]:
        """(data, ACK, CCA, turnaround, ACK timeout, success tail) in whole symbols;
        the ACK timeout (macAckWaitDuration) is turnaround, ACK and one unit."""
        data, ack, cca, turn, tail = (round(units * SYMBOLS_PER_UNIT) for units in (
            self.l_pkt, self.l_ack, self.t_sc, self.turnaround, self.t_ack + self.l_ack + self.ifs))
        return data, ack, cca, turn, turn + ack + SYMBOLS_PER_UNIT, tail

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
    """Fixed-point settings: tol bounds the largest alpha or gamma change of
    one application of the map at the solution; max_iter caps the map's
    applications.  The step needs no tuning (see solve_fixed_point)."""

    tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if self.tol <= 0.0 or self.max_iter < 1:
            raise ValidationError("tol must be positive and max_iter >= 1")


def arrival_probability(lambda_pkt_per_s: Values) -> Values:
    """Per-backoff-unit probability of at least one Poisson arrival.

    Works elementwise on an array of rates, with one math.exp per entry, so
    each entry is the value of its scalar call.
    """
    rates = np.asarray(lambda_pkt_per_s, dtype=float)
    if (rates < 0.0).any():
        raise ValidationError(f"arrival rate {rates[rates < 0.0].flat[0]} must be >= 0")
    exps = np.fromiter(map(math.exp, (-rates * UNIT_SECONDS).ravel().tolist()), float, rates.size)
    q = 1.0 - exps.reshape(rates.shape)
    return q if rates.ndim else float(q)


class Chain:
    """One evaluation of the CSMA/CA chain of CCA rounds and retries at (alpha, gamma).

    CCA round j is reached with weight rounds[j] = alpha^j, and all m + 1
    rounds find the channel busy with probability busy = alpha^(m+1).  An
    attempt that gets the channel is lost with probability xi = gamma (1 - busy),
    and attempt h is reached with weight retries[h] = xi^h.  Each sum is taken
    in index order.  Works elementwise on arrays.
    """

    def __init__(self, alpha: Values, gamma: Values, mac: MacParams) -> None:
        if not np.all((0.0 <= alpha) & (alpha <= 1.0) & (0.0 <= gamma) & (gamma <= 1.0)):
            raise ValidationError(f"alpha={alpha}, gamma={gamma} must lie in [0, 1]")
        self.alpha, self.gamma, self.mac = alpha, gamma, mac
        self.rounds = [alpha**j for j in range(mac.m + 1)]
        self.busy = alpha ** (mac.m + 1)
        self.xi = gamma * (1.0 - self.busy)
        self.retries = [self.xi**h for h in range(mac.n + 1)]
        self.round_sum = sum(self.rounds)
        self.retry_sum = sum(self.retries)
        # discard by channel-access failure, and by retry exhaustion
        self.p_cf = self.busy * self.retry_sum
        self.p_cr = self.xi ** (mac.n + 1)
        self.reliability = 1.0 - self.p_cf - self.p_cr


def cca_probability(chain: Chain, q: Values, timing: TimingParams) -> tuple[Values, Values]:
    """Per-slot CCA probability tau and idle-state probability b000.

    Renewal-reward over one packet cycle: backoff-and-sense slots per CCA
    round, transaction durations, and the idle wait for the next arrival
    after each outcome (single-packet queue, so the queue is always empty
    when a packet leaves).  Works elementwise on arrays.
    """
    if not np.all(chain.alpha < 1.0):
        raise ValidationError(f"alpha {chain.alpha} outside [0, 1)")
    if not np.all((0.0 < q) & (q <= 1.0)):
        raise ValidationError(f"arrival probability q {q} outside (0, 1]")

    gamma, busy, geo_xi = chain.gamma, chain.busy, chain.retry_sum
    backoff_slots = sum(r * (w + 1) / 2.0 for r, w in zip(chain.rounds, chain.mac.windows))
    service = (timing.ls * (1.0 - gamma) + timing.lc * gamma) * (1.0 - busy)
    idle = (
        1.0 / q * busy * geo_xi
        + 1.0 / q * chain.p_cr
        + 1.0 / q * (1.0 - gamma) * (1.0 - busy) * geo_xi
    )
    inv_b000 = backoff_slots * geo_xi + service * geo_xi + idle
    b000 = 1.0 / inv_b000
    tau = chain.round_sum * geo_xi * b000
    return tau, b000


# ---------------------------------------------------------------------------
# contention functional


class SubsetList:
    """The subset list of k contenders at depth s = `depth`: every subset of
    at most s members, by ascending mask, so the empty subset comes first
    and depth k lists all 2^k masks.  The list over contenders 0..z - 1 is
    the list's head, the rows whose masks are below 2^z; contender z extends
    it by the head rows that have room for one more member (growth[z]), with
    its bit set.  Read-only: bits (rows, k) holds 1.0 at row r, column z when
    contender z is in the r-th subset, the float operand of contention_terms'
    products; sizes (rows,) counts each subset's members; members (rows, s)
    lists them ascending, then k for each place left empty.  sizes and
    members are int8, or int16 from k = 128 on (scenarios.MAX_NODES bounds k).
    """

    def __init__(self, k: int, depth: int) -> None:
        self.k, self.depth = k, depth
        small = np.int8 if k < 128 else np.int16
        sizes = np.zeros(1, dtype=small)
        growth = []
        for _ in range(k):
            growth.append(np.flatnonzero(sizes < depth))
            sizes = np.concatenate([sizes, sizes[growth[-1]] + 1])
        bits = np.zeros((len(sizes), k))
        members = np.full((len(sizes), depth), k, dtype=small)
        head = 1
        for z, grow in enumerate(growth):
            new = slice(head, head + len(grow))
            bits[new] = bits[grow]
            bits[new, z] = 1.0
            members[new] = members[grow]
            members[new][np.arange(len(grow)), sizes[grow]] = z
            head += len(grow)
        for array in (bits, sizes, members, *growth):
            array.flags.writeable = False
        self.bits, self.sizes, self.growth, self.members = bits, sizes, tuple(growth), members
        self.rows = len(sizes)


@functools.cache
def _list_rows(k: int) -> tuple[int, ...]:
    """The row count of the subset list of k contenders at each depth 0..k."""
    return tuple(itertools.accumulate(math.comb(k, j) for j in range(k + 1)))


@functools.cache
def _other_links(n: int) -> np.ndarray:
    """(n, n - 1) read-only array: row l lists the links other than l, ascending."""
    z = np.arange(n - 1)
    others = z + (z >= np.arange(n)[:, None])
    others.flags.writeable = False
    return others


def contention_tables(p_det, p_out, p_fad) -> np.recarray:
    """The per-subset channel probabilities of L links, as one read-only record array.

    Record l holds link l's tables, indexed by the rows of one subset list
    of its k = L - 1 contenders (SubsetList): bit z of a row is link z for
    z < l, and link z + 1 otherwise (see _other_links).  All 2^k rows are
    the whole table.

    p_det: (L, rows) detection probability of each subset's aggregate
        power at the link's transmitter.
    p_out: (L, rows) SINR outage probability at the link's receiver
        under each subset.
    p_fad: (L,) no-interferer outage probability of the link itself.

    `tables.p_det` is the (L, rows) stack; `tables[l].p_det` is link l's row.
    """
    p_det, p_out, p_fad = (np.asarray(a, dtype=float) for a in (p_det, p_out, p_fad))
    n = len(p_det) if p_det.ndim else 0
    if (p_det.ndim != 2 or n < 1 or p_det.shape[1] not in _list_rows(n - 1)
            or p_out.shape != p_det.shape or p_fad.shape != (n,)):
        raise ValidationError(
            f"table sizes p_det {p_det.shape}, p_out {p_out.shape}, p_fad {p_fad.shape}: "
            "L links need (L, rows), (L, rows) and (L,), rows the length of a "
            "subset list of L - 1 contenders"
        )
    row = p_det.shape[1:]
    tables = np.rec.fromarrays(
        (p_det, p_out, p_fad), dtype=[("p_det", float, row), ("p_out", float, row), ("p_fad", float)]
    )
    tables.flags.writeable = False
    return tables


TABLE_FIELDS = ("p_det", "p_out", "p_fad")


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading ones.

    A stack of (1, m) @ (m, 1) products runs the same BLAS dot as a 1-D `@`,
    so each row is summed in the same order as `a[i] @ b[i]`; an elementwise
    product summed by numpy, or a matrix-vector `@`, would round differently
    in the last bits.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _subset_weights(eff: np.ndarray, subsets: SubsetList) -> np.ndarray:
    """(..., rows) probabilities that each subset of the list of k
    contenders transmits.

    A row's weight multiplies, contender by contender, eff[..., z] where it
    holds contender z and 1 - eff[..., z] where not.  The weights double
    the way the list grows (SubsetList): each contender multiplies the head
    rows by 1 - eff and the rows it extends by eff, in one broadcast
    product while every row has room for it, and drops the rows that have
    none.  So each weight is the product, in the same order, of the
    doubling over all 2^k masks.
    """
    lead = eff.shape[:-1]
    factors = np.stack([1.0 - eff, eff], axis=-1)[..., None]
    weights = np.ones(lead + (1, 1))
    for z, grow in enumerate(subsets.growth):
        if len(grow) == weights.shape[-1]:
            weights = (weights * factors[..., z, :, :]).reshape(lead + (1, -1))
        else:
            weights = np.concatenate([weights * factors[..., z, :1, :],
                                      weights[..., grow] * factors[..., z, 1:, :]], axis=-1)
    return weights.reshape(lead + (-1,))


def contention_terms(
    tables,
    subsets: SubsetList,
    timing: TimingParams,
    taus: np.ndarray,
    alphas: np.ndarray,
    gammas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Busy-channel components and packet loss of every link: (alpha_pkt, alpha_ack, gamma).

    taus, alphas and gammas are (L,) per-link values, or a (P, L) stack of
    P points, on one table set (L,) or on (P, L) tables of each point's own,
    read by field name on the rows of `subsets`; the results have the shape
    of taus.  A contender is in the transmitting subset when it senses (tau)
    and finds the channel idle (1 - alpha); the list's weights of all links
    form one (..., L, rows) array (_subset_weights).  A list that leaves out
    the subsets of more than s members leaves their weight, the tail
    P[|S| > s], out of each sum (see truncation_bounds).  alpha_pkt weighs
    subset detection by the data duration; alpha_ack by the ACK duration
    and the subset's mean transmission success.  gamma (clamped to [0, 1]) adds fading-only loss
    when nobody else transmits, outage under concurrent transmitters, and
    the hidden-terminal window where the transmitter failed to detect them.
    """
    others = _other_links(taus.shape[-1])
    weights = _subset_weights((taus * (1.0 - alphas))[..., others], subsets)
    w = weights[..., 1:]
    p_det = tables["p_det"][..., 1:]
    p_out = tables["p_out"][..., 1:]

    # the subsets' mean transmission success 1 - gamma_bar, times p_det, and
    # then the hidden-terminal product (1 - p_det) p_out, worked out in one
    # buffer in place over whole rows (so without numpy's buffers for
    # strided views); the empty subset's column is not read
    product = gammas[..., others] @ subsets.bits.T
    product /= np.maximum(subsets.sizes, 1.0, dtype=float)
    np.subtract(1.0, product, out=product)
    product *= tables["p_det"]
    a_pkt = timing.l_pkt * _rowdot(w, p_det)
    a_ack = timing.l_ack * _rowdot(w, product[..., 1:])
    np.subtract(1.0, tables["p_det"], out=product)
    product *= tables["p_out"]

    h_one = 1.0 - weights[..., 0]
    h_out = _rowdot(w, p_out)
    h_hidden = _rowdot(w, product[..., 1:])
    raw = (1.0 - h_one) * tables["p_fad"] + h_out + (2.0 * timing.l_pkt - 1.0) * h_hidden
    return a_pkt, a_ack, np.clip(raw, 0.0, 1.0)


def subset_tails(eff: np.ndarray, top: int) -> np.ndarray:
    """(..., top + 1) tails P[|S| > s], s = 0..top, of the number |S| of k
    contenders that transmit, contender z alone with probability eff[..., z].

    |S| is Poisson-binomial, and the recursion over contenders gives its
    point masses in O(k top) (Chen & Liu, "Statistical applications of the
    Poisson-binomial and conditional Bernoulli distributions", Statistica
    Sinica 1997), here those of 0..top members and one more mass for all
    counts above top.  Each tail is summed from the masses above s, so a
    small tail keeps its relative precision.
    """
    mass = np.zeros(eff.shape[:-1] + (top + 2,))
    mass[..., 0] = 1.0
    by_contender = np.moveaxis(eff, -1, 0)[..., None]
    for e, stay in zip(by_contender, 1.0 - by_contender):
        moved = mass * e  # one member more
        mass *= stay
        mass[..., 1:] += moved[..., :-1]
        mass[..., -1] += moved[..., -1]  # above top stays above top
    return np.cumsum(mass[..., :0:-1], axis=-1)[..., ::-1]


def truncation_bounds(eff: np.ndarray, timing: TimingParams, top: int) -> np.ndarray:
    """(..., top + 1) bounds B(s), s = 0..top, on how far a subset list of
    depth s moves alpha_pkt, alpha_ack or gamma of any of the links from the
    whole table, at per-link e = tau (1 - alpha) of eff, (L,) or a (P, L)
    stack of P points.

    The list leaves out the subsets of more than s members, whose weights
    sum to a link's tail T = P[|S| > s] (subset_tails of its contenders).
    Each left-out subset adds at most l_pkt times its weight to alpha_pkt,
    l_ack times it to alpha_ack, and 1 + |2 l_pkt - 1| times it to gamma
    (contention_terms), so B(s) is the largest factor times the largest T.
    """
    tails = subset_tails(eff[..., _other_links(eff.shape[-1])], top)
    factor = max(timing.l_pkt, timing.l_ack, 1.0 + abs(2.0 * timing.l_pkt - 1.0))
    return factor * tails.max(axis=-2)


def bounded_depth(bounds: np.ndarray, tol: float, k: int) -> int | None:
    """The depth of k contenders' subset lists for bounds B(0..top): the
    smallest s with B(s) <= tol, or None if there is none.  A list that
    keeps half the 2^k masks or more saves too little to pay, so the whole
    table (depth k) replaces it.
    """
    fits = np.flatnonzero(bounds <= tol)
    if not fits.size:
        return None
    depth = int(fits[0])
    return depth if 2 * _list_rows(k)[depth] < 2**k else k


@dataclass
class SolveResult:
    """Fixed-point solution with diagnostics."""

    state: LinkState
    iterations: int
    residual: float
    warnings: list[str]


class SolveResults(list):
    """The SolveResult of each point of a stacked solve, in stack order."""

    @property
    def iterations(self) -> int:
        """Applications of the map, summed over the points."""
        return sum(result.iterations for result in self)

    @property
    def warnings(self) -> list[str]:
        return [warning for result in self for warning in result.warnings]


# Anderson acceleration: how many past iterates a step mixes, and the
# mixing of the plain step it starts from.  A residual that sets no new low
# for STALL iterations halves the mixing and restarts from the best iterate;
# a stall below MIN_MIXING gives the point up.
ANDERSON_DEPTH = 5
MIXING = 0.5
STALL = 20
MIN_MIXING = MIXING / 2**6


class _Anderson:
    """One point's iterate x = (alpha, gamma) and the state of its step (see solve_fixed_point)."""

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.mixing = MIXING
        self.xs: list[np.ndarray] = []  # the last iterates and their residuals, oldest first
        self.fs: list[np.ndarray] = []
        self.best, self.best_x, self.best_f, self.since_best = math.inf, x, np.zeros_like(x), 0

    def step(self, f: np.ndarray, residual: float, iteration: int, upper: np.ndarray) -> None:
        """Move x by the accelerated step from its residual f = g(x) - x."""
        x = self.x
        if residual < self.best:
            self.best, self.best_x, self.best_f, self.since_best = residual, x, f, 0
        else:
            self.since_best += 1
        if self.since_best >= STALL:
            self.mixing /= 2.0
            if self.mixing < MIN_MIXING:
                raise ConvergenceError(
                    f"fixed point stalled after {iteration} iterations "
                    f"(best residual {self.best:.3e}, last residual {residual:.3e})"
                )
            x, f, self.since_best = self.best_x, self.best_f, 0
            self.xs.clear()
            self.fs.clear()
        self.xs.append(x)
        self.fs.append(f)
        step = x + self.mixing * f
        if len(self.xs) > 1:
            del self.xs[: -ANDERSON_DEPTH - 1], self.fs[: -ANDERSON_DEPTH - 1]
            xs, fs = np.array(self.xs), np.array(self.fs)
            d_x, d_f = (xs[1:] - xs[:-1]).T, (fs[1:] - fs[:-1]).T
            coef = np.linalg.lstsq(d_f, f, rcond=None)[0]
            step -= (d_x + self.mixing * d_f) @ coef
        self.x = np.clip(step, 0.0, upper)


def solve_fixed_point(
    tables,
    subsets: SubsetList,
    qs: np.ndarray,
    mac: MacParams,
    timing: TimingParams,
    config: SolverConfig = SolverConfig(),
    init: tuple[float, float] = (0.0, 0.0),
    arrivals: Callable | None = None,
) -> SolveResults:
    """Anderson-accelerated iteration of the (alpha, gamma) map of all links
    of each of P points.

    One application of the map takes x = (alpha, gamma) to g(x): one Chain
    of x, tau and b000 from the chain and q, then the contention terms.
    The arrival probabilities q are `qs` throughout, or, when `arrivals` is
    given, arrivals(rows, reliability) of the chain's (A, L) per-link
    reliability at stack rows `rows` (forwarded traffic).  Links with q = 0
    never transmit and are held at tau = b000 = 0.

    The first step is x + MIXING * f with residual f = g(x) - x; each later
    step mixes the last ANDERSON_DEPTH + 1 iterates and residuals by a
    least-squares fit of the residual differences (Walker & Ni 2011), and
    is clipped into the map's domain.  Converged when max |f| < config.tol;
    the returned state is then g(x) itself.

    tables is a sequence of P table sets, one per point, on the rows of
    `subsets`, and qs their (P, L) arrival probabilities; the result is a
    SolveResults list in stack order, and one point is a stack of one.  The
    points still iterating share each application of the map, each on its
    own tables: they are gathered here field by field, into (P, L, rows)
    p_det and p_out and (P, L) p_fad, and moved up in place as points leave.
    Each point keeps its own step (_Anderson) and polish, so its result does
    not depend on the others; if one of them fails, the whole solve raises.
    """
    sets = list(tables)
    n = len(sets[0]) if sets else 0
    qs = np.asarray(qs, dtype=float)
    if qs.shape != (len(sets), n) or not qs.size:
        raise ValidationError("qs length must match table count")
    if (subsets.k, subsets.rows) != (n - 1, sets[0].p_det.shape[-1]):
        raise ValidationError(f"tables of {n} links are not on the list of "
                              f"{subsets.k} contenders at depth {subsets.depth}")
    if len(sets) == 1:  # read where it lies: a point that leaves ends the solve
        fields = {name: sets[0][name][None] for name in TABLE_FIELDS}
    else:
        fields = {name: np.stack([t[name] for t in sets]) for name in TABLE_FIELDS}
    upper = np.concatenate([np.full(n, ALPHA_CAP), np.ones(n)])
    init_x = np.concatenate([np.full(n, float(init[0])), np.full(n, float(init[1]))])
    points = [_Anderson(init_x) for _ in qs]
    results = SolveResults([None] * len(qs))

    def cca(rows, alphas: np.ndarray, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        chain = Chain(alphas.ravel(), gammas.ravel(), mac)
        q = (qs[rows] if arrivals is None
             else arrivals(rows, chain.reliability.reshape(alphas.shape)))
        active = q.ravel() > 0.0
        # a silent link's chain is evaluated at q = 1 and its result dropped
        taus, b000s = cca_probability(chain, np.where(active, q.ravel(), 1.0), timing)
        return (np.where(active, taus, 0.0).reshape(alphas.shape),
                np.where(active, b000s, 0.0).reshape(alphas.shape))

    rows = np.arange(len(qs))
    for iteration in range(1, config.max_iter + 1):
        x = np.array([points[p].x for p in rows])
        alphas, gammas = x[:, :n], x[:, n:]
        taus, b000s = cca(rows, alphas, gammas)
        a_pkts, a_acks, new_gamma = contention_terms(fields, subsets, timing, taus, alphas,
                                                     gammas)
        raw_alpha = a_pkts + a_acks
        new_alpha = np.minimum(raw_alpha, ALPHA_CAP)
        f = np.concatenate([new_alpha, new_gamma], axis=1) - x
        residuals = np.max(np.abs(f), axis=1)
        done = residuals < config.tol
        if done.any():
            # undamped polish: return the update map's own values so that
            # decoupled coordinates land exactly on their closed forms
            polished = cca(rows[done], new_alpha[done], new_gamma[done])
            for i, tau, b000 in zip(np.flatnonzero(done), *polished):
                # iterates may overshoot the cap on the way; only a clamped solution warns
                clamped = int(np.count_nonzero(raw_alpha[i] > ALPHA_CAP))
                warnings = [f"alpha clamped to {ALPHA_CAP} on {clamped} link(s)"] if clamped else []
                state = LinkState(tau=tau, alpha_pkt=a_pkts[i], alpha_ack=a_acks[i],
                                  gamma=new_gamma[i], b000=b000)
                results[rows[i]] = SolveResult(state=state, iterations=iteration,
                                               residual=float(residuals[i]), warnings=warnings)
            keep = ~done
            rows, f, residuals = rows[keep], f[keep], residuals[keep]
            if not rows.size:
                break
            kept = np.flatnonzero(keep).tolist()
            for array in fields.values():  # the kept points' tables move up
                for i, j in enumerate(kept):
                    array[i] = array[j]
            fields = {name: table[:len(rows)] for name, table in fields.items()}
        for p, f_p, residual in zip(rows.tolist(), f, residuals.tolist()):
            points[p].step(f_p, residual, iteration, upper)
    else:
        raise ConvergenceError(
            f"fixed point did not converge after {config.max_iter} iterations "
            f"(last residual {residuals.max():.3e})"
        )
    return results
