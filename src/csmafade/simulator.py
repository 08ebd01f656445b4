"""Discrete-event Monte Carlo of unslotted CSMA/CA over the fading channel.

Time advances in integer PHY symbols (16 us).  Each node runs the standard
backoff/CCA/transmit/ACK cycle; the channel applies distance-dependent mean
power with per-packet shadowing and multipath draws toward every listener.
A CCA samples the aggregate power of everything on air over the last symbol
of its window; a reception fails if the instantaneous SINR dips below the
capture threshold at any point during the frame, if the destination itself
transmits meanwhile, or (optionally) if the returning ACK fails the same
SINR test.

Replications use independent, reproducible RNG streams and return per-link
counters, delay samples, and tick-exact radio-state residencies.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .macmodel import MacParams, TimingParams
from .metrics import PowerProfile

SYMBOL_SECONDS = 16e-6
SYMBOLS_PER_UNIT = 20  # one backoff unit

# radio-state indices in the residency table
SLEEP, IDLE, SENSE, TX, RX = range(5)
STATE_NAMES = ("sleep", "idle", "sense", "tx", "rx")


def _unit_symbols(units: float, what: str) -> int:
    """Convert backoff units to symbols, requiring an exact tick count."""
    symbols = units * SYMBOLS_PER_UNIT
    rounded = round(symbols)
    if abs(symbols - rounded) > 1e-9:
        raise ValidationError(
            f"{what} = {units} backoff units is not a whole number of symbols"
        )
    return int(rounded)


def symbol_timing(timing: TimingParams) -> tuple[int, int, int, int, int, int]:
    """(data, ACK, CCA, turnaround, ACK timeout, success tail) in whole symbols.

    Scenario validation calls this too, so both engines reject timing that
    the symbol clock cannot represent.
    """
    data_sym = _unit_symbols(timing.l_pkt, "packet length")
    ack_sym = _unit_symbols(timing.l_ack, "ACK length")
    cca_sym = _unit_symbols(timing.t_sc, "CCA duration")
    turn_sym = _unit_symbols(timing.turnaround, "turnaround")
    ack_wait = turn_sym + ack_sym + SYMBOLS_PER_UNIT  # ACK timeout after data end
    success_tail = _unit_symbols(
        timing.t_ack + timing.l_ack + timing.ifs, "success tail"
    )
    if turn_sym + ack_sym > ack_wait or ack_wait > success_tail:
        raise ValidationError("ACK timing is inconsistent with the transaction tail")
    return data_sym, ack_sym, cca_sym, turn_sym, ack_wait, success_tail


@dataclass(frozen=True)
class SimConfig:
    """Execution settings for the event-driven engine."""

    horizon_seconds: float = 200.0
    replications: int = 20
    master_seed: int = 1
    ack_loss: bool = True  # ACK reception subject to the SINR rule

    def __post_init__(self) -> None:
        if not self.horizon_seconds >= SYMBOL_SECONDS:
            raise ValidationError(f"horizon must be at least one symbol ({SYMBOL_SECONDS:g} s)")
        if self.replications < 1:
            raise ValidationError("need at least one replication")


@dataclass(frozen=True)
class SimNetwork:
    """A scenario compiled to plain arrays for the simulator.

    mean_gain_mw[i, j] is the mean received power at node j when node i
    transmits; next_hop[i] is -1 for nodes that never send data (the sink).
    """

    mean_gain_mw: np.ndarray
    lam: np.ndarray
    next_hop: np.ndarray
    sigma: float
    kappa: float | None
    cca_threshold_mw: float
    noise_mw: float
    sinr_threshold: float
    mac: MacParams
    timing: TimingParams

    def __post_init__(self) -> None:
        n = self.mean_gain_mw.shape[0]
        if self.mean_gain_mw.shape != (n, n):
            raise ValidationError("gain matrix must be square")
        if self.lam.shape != (n,) or self.next_hop.shape != (n,):
            raise ValidationError("lam and next_hop must have one entry per node")
        if (self.lam < 0).any():
            raise ValidationError("generation rates must be >= 0")
        for i, hop in enumerate(self.next_hop):
            if hop >= 0 and (hop >= n or hop == i):
                raise ValidationError(f"node {i} has invalid next hop {hop}")
        if self.sigma < 0:
            raise ValidationError("sigma must be >= 0")
        if self.kappa is not None and self.kappa <= 0:
            raise ValidationError("kappa must be positive")

    @property
    def n_nodes(self) -> int:
        return self.mean_gain_mw.shape[0]

    @property
    def transmitters(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.next_hop >= 0)[0])

    @property
    def has_children(self) -> np.ndarray:
        flags = np.zeros(self.n_nodes, dtype=bool)
        for hop in self.next_hop:
            if hop >= 0:
                flags[hop] = True
        return flags


@dataclass
class SimStats:
    """Per-replication counters, delays, and radio-state residencies."""

    transmitters: tuple[int, ...]
    horizon_symbols: int
    generated: np.ndarray
    success: np.ndarray
    discard_cf: np.ndarray
    discard_cr: np.ndarray
    queue_dropped: np.ndarray
    in_flight: np.ndarray
    cca_attempts: np.ndarray
    cca_busy: np.ndarray
    data_attempts: np.ndarray
    data_lost: np.ndarray
    ack_failed: np.ndarray
    delay_symbols_sum: np.ndarray
    delay_count: np.ndarray
    residency: np.ndarray  # (n_nodes, 5) symbols per radio state

    def conservation_gap(self) -> np.ndarray:
        """generated - (success + discards + drops + in flight), per link."""
        return self.generated - (
            self.success
            + self.discard_cf
            + self.discard_cr
            + self.queue_dropped
            + self.in_flight
        )

    def reliability(self) -> np.ndarray:
        completed = self.success + self.discard_cf + self.discard_cr
        with np.errstate(invalid="ignore"):
            return np.where(completed > 0, self.success / completed, np.nan)

    def mean_delay_seconds(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            mean = np.where(
                self.delay_count > 0, self.delay_symbols_sum / self.delay_count, np.nan
            )
        return mean * SYMBOL_SECONDS

    def busy_cca_fraction(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(
                self.cca_attempts > 0, self.cca_busy / self.cca_attempts, np.nan
            )

    def data_loss_fraction(self) -> np.ndarray:
        """Fraction of transmitted frames the destination failed to receive."""
        with np.errstate(invalid="ignore"):
            return np.where(
                self.data_attempts > 0, self.data_lost / self.data_attempts, np.nan
            )


def measure_energy(stats: SimStats, profile: PowerProfile) -> np.ndarray:
    """Time-weighted average power per node in mW, tick-exact."""
    sums = stats.residency.sum(axis=1)
    if (sums != stats.horizon_symbols).any():
        gaps = sums - stats.horizon_symbols
        raise NumericsError(f"radio-state accounting gap (symbols): {gaps.tolist()}")
    draws = np.array(
        [profile.p_sleep, profile.p_idle, profile.p_sense, profile.p_tx, profile.p_rx]
    )
    return stats.residency @ draws / stats.horizon_symbols


@dataclass
class _Transmission:
    owner: int
    start: int
    end: int
    gains: np.ndarray  # drawn received power at every node, mW


class _Node:
    __slots__ = (
        "index",
        "link",
        "baseline",
        "radio",
        "radio_since",
        "serving",
        "service_start",
        "nb",
        "be",
        "rt",
        "rx_until",
        "ack_busy_until",
    )

    def __init__(self, index: int, link: int | None, baseline: int):
        self.index = index
        self.link = link  # row in the per-link counters, None for pure receivers
        self.baseline = baseline
        self.radio = baseline
        self.radio_since = 0
        self.serving = False
        self.service_start = 0
        self.nb = 0
        self.be = 0
        self.rt = 0
        self.rx_until = 0
        self.ack_busy_until = 0


def run_replication(
    net: SimNetwork, config: SimConfig, rep_index: int, trace=None
) -> SimStats:
    """One independent replication; deterministic for (master_seed, rep_index)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(config.master_seed, rep_index))
    )
    mac = net.mac
    horizon = int(round(config.horizon_seconds / SYMBOL_SECONDS))
    data_sym, ack_sym, cca_sym, turn_sym, ack_wait, success_tail = symbol_timing(net.timing)

    transmitters = net.transmitters
    link_of = {node: l for l, node in enumerate(transmitters)}
    n_links = len(transmitters)
    n_nodes = net.n_nodes
    relay_like = net.has_children

    stats = SimStats(
        transmitters=transmitters,
        horizon_symbols=horizon,
        generated=np.zeros(n_links, dtype=np.int64),
        success=np.zeros(n_links, dtype=np.int64),
        discard_cf=np.zeros(n_links, dtype=np.int64),
        discard_cr=np.zeros(n_links, dtype=np.int64),
        queue_dropped=np.zeros(n_links, dtype=np.int64),
        in_flight=np.zeros(n_links, dtype=np.int64),
        cca_attempts=np.zeros(n_links, dtype=np.int64),
        cca_busy=np.zeros(n_links, dtype=np.int64),
        data_attempts=np.zeros(n_links, dtype=np.int64),
        data_lost=np.zeros(n_links, dtype=np.int64),
        ack_failed=np.zeros(n_links, dtype=np.int64),
        delay_symbols_sum=np.zeros(n_links, dtype=np.int64),
        delay_count=np.zeros(n_links, dtype=np.int64),
        residency=np.zeros((n_nodes, 5), dtype=np.int64),
    )

    nodes = [
        _Node(i, link_of.get(i), IDLE if relay_like[i] else SLEEP)
        for i in range(n_nodes)
    ]
    active: list[_Transmission] = []
    heap: list[tuple[int, int, str, tuple]] = []
    seq = 0

    def push(time: int, kind: str, payload: tuple) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, payload))
        seq += 1

    def set_radio(node: _Node, state: int, now: int) -> None:
        if now > node.radio_since:
            stats.residency[node.index, node.radio] += now - node.radio_since
        node.radio = state
        node.radio_since = now

    def emit(now: int, node: int, event: str, detail: str = "") -> None:
        if trace is not None:
            trace.write(f"{now}\t{node}\t{event}\t{detail}\n")

    def draw_gains(tx: int) -> np.ndarray:
        gains = net.mean_gain_mw[tx]
        if net.sigma > 0.0:
            gains = gains * np.exp(rng.normal(0.0, net.sigma, n_nodes))
        if net.kappa is not None:
            gains = gains * rng.gamma(net.kappa, 1.0 / net.kappa, n_nodes)
        return gains

    def overlapping(window_start: int, window_end: int, skip):
        return [
            t
            for t in active
            if t is not skip and t.start < window_end and t.end > window_start
        ]

    def reception_ok(rx_node: int, frame: _Transmission) -> bool:
        others = overlapping(frame.start, frame.end, frame)
        if any(t.owner == rx_node for t in others):
            return False  # a transmitting destination cannot hear anything
        useful = frame.gains[rx_node]
        floor = net.sinr_threshold
        # sweep interferer start boundaries for the worst aggregate power
        if others:
            bounds = {frame.start}
            bounds.update(
                t.start for t in others if frame.start < t.start < frame.end
            )
            for b in bounds:
                total = 0.0
                for t in others:
                    if t.start <= b < t.end:
                        total += t.gains[rx_node]
                if useful < floor * (total + net.noise_mw):
                    return False
            return True
        return useful >= floor * net.noise_mw

    def schedule_arrival(node_idx: int, now: float) -> None:
        gap = rng.exponential(1.0 / net.lam[node_idx]) / SYMBOL_SECONDS
        push(int(math.ceil(now + gap)), "arrival", (node_idx,))

    def start_backoff(node: _Node, now: int) -> None:
        slots = int(rng.integers(0, 2**node.be))
        set_radio(node, IDLE, now)
        push(now + slots * SYMBOLS_PER_UNIT, "cca_start", (node.index,))
        emit(now, node.index, "backoff", f"{slots} slots")

    def start_service(node: _Node, now: int) -> None:
        node.serving = True
        node.service_start = now
        node.nb = 0
        node.be = mac.m0
        node.rt = 0
        start_backoff(node, now)

    def finish_service(node: _Node, now: int, outcome: str) -> None:
        link = node.link
        if outcome == "success":
            stats.success[link] += 1
            stats.delay_symbols_sum[link] += now - node.service_start
            stats.delay_count[link] += 1
        elif outcome == "cf":
            stats.discard_cf[link] += 1
        else:
            stats.discard_cr[link] += 1
        node.serving = False
        set_radio(node, node.baseline, now)
        emit(now, node.index, "service_end", outcome)

    def offer_packet(node: _Node, now: int) -> None:
        """A packet (generated or forwarded) arrives at the node's queue."""
        if node.link is None:
            return  # nodes without a route consume packets
        stats.generated[node.link] += 1
        if node.serving:
            stats.queue_dropped[node.link] += 1
            emit(now, node.index, "drop", "queue busy")
        else:
            start_service(node, now)

    def retry_or_discard(node: _Node, now: int) -> None:
        node.rt += 1
        if node.rt > mac.n:
            finish_service(node, now, "cr")
        else:
            node.nb = 0
            node.be = mac.m0
            start_backoff(node, now)

    def start_data(node: _Node, now: int) -> None:
        frame = _Transmission(node.index, now, now + data_sym, draw_gains(node.index))
        active.append(frame)
        stats.data_attempts[node.link] += 1
        set_radio(node, TX, now)
        push(frame.end, "data_end", (node.index, frame))
        emit(now, node.index, "data_tx")
        dest = nodes[int(net.next_hop[node.index])]
        if not dest.serving and dest.radio in (IDLE, SLEEP, RX):
            if dest.radio != RX:
                set_radio(dest, RX, now)
            dest.rx_until = max(dest.rx_until, frame.end)
            push(frame.end, "radio_restore", (dest.index,))

    def handle_data_end(node: _Node, now: int, frame: _Transmission) -> None:
        dest = nodes[int(net.next_hop[node.index])]
        ok = reception_ok(dest.index, frame)
        if ok and dest.ack_busy_until > now + turn_sym:
            ok = False  # destination radio still busy with a previous ACK
        set_radio(node, IDLE, now)  # turnaround, then listen for the ACK
        if ok:
            ack = _Transmission(
                dest.index,
                now + turn_sym,
                now + turn_sym + ack_sym,
                draw_gains(dest.index),
            )
            active.append(ack)
            dest.ack_busy_until = ack.end
            push(ack.start, "ack_tx_start", (dest.index,))
            push(ack.start, "sender_rx", (node.index,))
            push(ack.end, "ack_eval", (node.index, now, ack))
            push(ack.end, "forward", (dest.index,))
        else:
            stats.data_lost[node.link] += 1
            push(now + ack_wait, "tx_fail", (node.index,))
        emit(now, node.index, "data_end", "ok" if ok else "lost")

    def handle_ack_eval(node: _Node, now: int, data_end: int, ack: _Transmission) -> None:
        ok = reception_ok(node.index, ack) if config.ack_loss else True
        set_radio(node, IDLE, now)
        if ok:
            # hold the post-ACK spacing, then the transaction is complete
            push(data_end + success_tail, "service_done", (node.index,))
        else:
            stats.ack_failed[node.link] += 1
            push(data_end + ack_wait, "tx_fail", (node.index,))
        emit(now, node.index, "ack", "ok" if ok else "lost")

    # prime the generation processes
    for i in range(n_nodes):
        if net.lam[i] > 0.0 and net.next_hop[i] >= 0:
            schedule_arrival(i, 0.0)

    while heap and heap[0][0] < horizon:
        now, _, kind, payload = heapq.heappop(heap)

        if kind == "arrival":
            (node_idx,) = payload
            offer_packet(nodes[node_idx], now)
            schedule_arrival(node_idx, now)

        elif kind == "cca_start":
            (node_idx,) = payload
            node = nodes[node_idx]
            set_radio(node, SENSE, now)
            push(now + cca_sym, "cca_end", (node_idx,))

        elif kind == "cca_end":
            (node_idx,) = payload
            node = nodes[node_idx]
            stats.cca_attempts[node.link] += 1
            sample_at = now - 1  # aggregate power over the last sensing symbol
            sensed = 0.0
            for t in active:
                if t.start <= sample_at < t.end and t.owner != node_idx:
                    sensed += t.gains[node_idx]
            if sensed > net.cca_threshold_mw:
                stats.cca_busy[node.link] += 1
                node.nb += 1
                node.be = min(node.be + 1, mac.mb)
                if node.nb > mac.m:
                    finish_service(node, now, "cf")
                else:
                    start_backoff(node, now)
                emit(now, node_idx, "cca", "busy")
            else:
                start_data(node, now)

        elif kind == "data_end":
            node_idx, frame = payload
            handle_data_end(nodes[node_idx], now, frame)

        elif kind == "sender_rx":
            (node_idx,) = payload
            set_radio(nodes[node_idx], RX, now)

        elif kind == "ack_tx_start":
            (node_idx,) = payload
            node = nodes[node_idx]
            if not node.serving:
                set_radio(node, TX, now)

        elif kind == "ack_eval":
            node_idx, data_end, ack = payload
            handle_ack_eval(nodes[node_idx], now, data_end, ack)
            acker = nodes[ack.owner]
            if not acker.serving and acker.radio == TX:
                set_radio(acker, acker.baseline, now)

        elif kind == "forward":
            (node_idx,) = payload
            offer_packet(nodes[node_idx], now)

        elif kind == "tx_fail":
            (node_idx,) = payload
            retry_or_discard(nodes[node_idx], now)

        elif kind == "service_done":
            (node_idx,) = payload
            finish_service(nodes[node_idx], now, "success")

        elif kind == "radio_restore":
            (node_idx,) = payload
            node = nodes[node_idx]
            if node.radio == RX and not node.serving and now >= node.rx_until:
                set_radio(node, node.baseline, now)

        if len(active) > 16:
            watermark = now - 2 * data_sym
            active[:] = [t for t in active if t.end > watermark]

    for node in nodes:
        set_radio(node, node.radio, horizon)
        if node.serving and node.link is not None:
            stats.in_flight[node.link] += 1
    return stats


def _rep_task(args) -> SimStats:
    net, config, rep = args
    return run_replication(net, config, rep)


@dataclass
class ExperimentResult:
    """Replication ensemble with per-link means and normal 95% intervals."""

    stats: list[SimStats]
    reliability_mean: np.ndarray
    reliability_ci95: np.ndarray
    delay_mean_seconds: np.ndarray
    delay_ci95_seconds: np.ndarray
    power_mean_mw: np.ndarray
    power_ci95_mw: np.ndarray
    busy_cca_mean: np.ndarray
    data_loss_mean: np.ndarray

    @property
    def transmitters(self) -> tuple[int, ...]:
        return self.stats[0].transmitters


def _mean_ci(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = np.nanmean(samples, axis=0)
    n = samples.shape[0]
    if n < 2:
        return mean, np.full_like(mean, np.nan)
    half = 1.96 * np.nanstd(samples, axis=0, ddof=1) / math.sqrt(n)
    return mean, half


def run_experiment(
    net: SimNetwork,
    config: SimConfig,
    profile: PowerProfile | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Run all replications (optionally in parallel) and aggregate them."""
    profile = profile or PowerProfile()
    reps = config.replications
    if workers > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(_rep_task, [(net, config, r) for r in range(reps)]))
    else:
        stats = [run_replication(net, config, r) for r in range(reps)]

    for r, s in enumerate(stats):
        gap = s.conservation_gap()
        if (gap != 0).any():
            raise NumericsError(
                f"packet conservation violated in replication {r}: {gap.tolist()}"
            )

    with np.errstate(invalid="ignore"):
        rel = np.stack([s.reliability() for s in stats])
        delay = np.stack([s.mean_delay_seconds() for s in stats])
        power = np.stack([measure_energy(s, profile) for s in stats])
        busy = np.stack([s.busy_cca_fraction() for s in stats])
        loss = np.stack([s.data_loss_fraction() for s in stats])

    rel_m, rel_h = _mean_ci(rel)
    del_m, del_h = _mean_ci(delay)
    pow_m, pow_h = _mean_ci(power)
    busy_m, _ = _mean_ci(busy)
    loss_m, _ = _mean_ci(loss)
    return ExperimentResult(
        stats=stats,
        reliability_mean=rel_m,
        reliability_ci95=rel_h,
        delay_mean_seconds=del_m,
        delay_ci95_seconds=del_h,
        power_mean_mw=pow_m,
        power_ci95_mw=pow_h,
        busy_cca_mean=busy_m,
        data_loss_mean=loss_m,
    )
