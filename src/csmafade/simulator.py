"""Discrete-event Monte Carlo of unslotted CSMA/CA over the fading channel.

Time advances in integer PHY symbols of 16 us, on the clock that macmodel
defines for both engines; frame and MAC durations are the symbol counts of
TimingParams.symbols.  Each node runs the standard backoff/CCA/transmit/ACK
cycle; the channel applies distance-dependent mean power with per-packet
shadowing and multipath draws toward every listener.  A CCA samples the
aggregate power of everything on air over the last symbol of its window; a
reception fails if the instantaneous SINR dips below the capture threshold
at any point during the frame, if the destination itself transmits
meanwhile, or (optionally) if the returning ACK fails the same SINR test.

Replications use independent, reproducible RNG streams and return per-link
counters, delay samples, and tick-exact radio-state residencies.  A stream
is NumPy's PCG64 with its normal, gamma and exponential draws; the backoff
slot is read from the generator's raw 64-bit outputs (backoff_slots) as the
exact value Generator.integers would return, which ties the stream to PCG64
and NumPy's bounded-integer method as well.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, FadingParams
from .errors import NumericsError, ValidationError
from .macmodel import SYMBOL_SECONDS, SYMBOLS_PER_UNIT, MacParams, TimingParams
from .metrics import PowerProfile
from .multihop import route_links

# radio-state indices in the residency table
SLEEP, IDLE, SENSE, TX, RX = range(5)
STATE_NAMES = ("sleep", "idle", "sense", "tx", "rx")


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
        if self.master_seed < 0:
            raise ValidationError(f"master_seed={self.master_seed} must be >= 0")


@dataclass(frozen=True)
class SimNetwork:
    """A scenario compiled to plain arrays for the simulator.

    mean_gain_mw[i, j] is the mean received power at node j when node i
    transmits; next_hop[i] is -1 for nodes that never send data (the sink).
    channel (noise, CCA and SINR thresholds) and fading (shadowing sigma and
    multipath kappa of every drawn gain) are the scenario's own, as the
    analytic engine reads them.
    """

    mean_gain_mw: np.ndarray
    lam: np.ndarray
    next_hop: np.ndarray
    channel: ChannelParams
    fading: FadingParams
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
        route_links(self.next_hop)

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
        return _ratio(self.success, self.success + self.discard_cf + self.discard_cr)

    def mean_delay_seconds(self) -> np.ndarray:
        return _ratio(self.delay_symbols_sum, self.delay_count) * SYMBOL_SECONDS

    def busy_cca_fraction(self) -> np.ndarray:
        return _ratio(self.cca_busy, self.cca_attempts)

    def data_loss_fraction(self) -> np.ndarray:
        """Fraction of transmitted frames the destination failed to receive."""
        return _ratio(self.data_lost, self.data_attempts)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per link where den > 0, else NaN."""
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=den > 0)


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


class _Node:
    __slots__ = (
        "index",
        "link",
        "dest",
        "baseline",
        "radio",
        "radio_since",
        "residency",
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
        self.dest = None  # next-hop node, None for pure receivers
        self.baseline = baseline
        self.radio = baseline
        self.radio_since = 0
        self.residency = [0] * len(STATE_NAMES)  # symbols spent in each radio state
        self.serving = False
        self.service_start = 0
        self.nb = 0
        self.be = 0
        self.rt = 0
        self.rx_until = 0
        self.ack_busy_until = 0


# per-link counters of SimStats, kept as int lists while a replication runs
_LINK_COUNTERS = (
    "generated",
    "success",
    "discard_cf",
    "discard_cr",
    "queue_dropped",
    "in_flight",
    "cca_attempts",
    "cca_busy",
    "data_attempts",
    "data_lost",
    "ack_failed",
    "delay_symbols_sum",
    "delay_count",
)

# Event kinds, roughly most frequent first (the dispatch tests them in order).
# DATA_END also restores the receiver's radio, ACK_START switches both ends
# of the ACK, and ACK_END evaluates the ACK then forwards the packet.  Each
# of those steps pushes nothing and was scheduled right after the event it
# now ends, at the same tick, so no other event ever ran between the two and
# the pop order and random stream are what separate events would give.
# CCA_START stays separate: sensing from the backoff's end directly would
# schedule CCA_END earlier in push order and reorder same-tick events.
CCA_END, CCA_START, DATA_END, ACK_START, ACK_END, ARRIVAL, SERVICE_DONE, TX_FAIL = range(8)


def backoff_slots(rng: np.random.Generator):
    """Return draw(be), which equals int(rng.integers(0, 2**be)) for 0 <= be <= 32.

    For a window that fits in 32 bits, NumPy's bounded integers take one
    32-bit output per draw, and Lemire's method never rejects when the
    window is a power of two: the result is the output's top be bits.  PCG64
    serves 32-bit outputs as the low, then the high half of one 64-bit
    output, so draw keeps the high half for the next call.  This holds while
    nothing else draws 32-bit values from rng; NumPy's float64 normal,
    exponential and gamma draws read whole 64-bit outputs.
    """
    raw = rng.bit_generator.random_raw
    spare = -1  # the unused high half of the last 64-bit output, if any

    def draw(be: int) -> int:
        nonlocal spare
        if not be:
            return 0  # a window of one slot draws nothing
        if spare < 0:
            word = raw()
            half, spare = word & 0xFFFFFFFF, word >> 32
        else:
            half, spare = spare, -1
        return half >> (32 - be)

    return draw


def run_replication(
    net: SimNetwork, config: SimConfig, rep_index: int, trace=None
) -> SimStats:
    """One independent replication; deterministic for (master_seed, rep_index).

    The event heap holds (time, seq, kind, node, data) entries; seq rises in
    push order, so events at the same tick run in the order they were
    scheduled.  A transmission is the tuple (owner, start, end, gains), with
    gains the drawn received power at every node in mW.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(config.master_seed, rep_index))
    )
    draw_slots = backoff_slots(rng)
    draw_exponential = rng.standard_exponential
    horizon = int(round(config.horizon_seconds / SYMBOL_SECONDS))
    data_sym, ack_sym, cca_sym, turn_sym, ack_wait, success_tail = net.timing.symbols
    # No frame still to be judged or sensed overlaps one that ended frame_life
    # symbols ago, so such a frame leaves `active`: it is in no sum any more.
    frame_life = max(data_sym, ack_sym)
    m0, mb, max_nb, max_rt = net.mac.m0, net.mac.mb, net.mac.m, net.mac.n
    sigma, kappa, n_nodes, chan = net.fading.sigma, net.fading.kappa, net.n_nodes, net.channel
    floor, noise, cca_threshold = chan.sinr_threshold, chan.noise_mw, chan.cca_threshold_mw
    ack_loss = config.ack_loss
    lam = net.lam.tolist()
    next_hop = net.next_hop.tolist()

    transmitters = net.transmitters
    link_of = {node: l for l, node in enumerate(transmitters)}
    counters = {name: [0] * len(transmitters) for name in _LINK_COUNTERS}
    cca_attempts, cca_busy = counters["cca_attempts"], counters["cca_busy"]
    data_attempts, data_lost = counters["data_attempts"], counters["data_lost"]
    generated, queue_dropped = counters["generated"], counters["queue_dropped"]
    success, delay_sum, delay_count = (
        counters["success"], counters["delay_symbols_sum"], counters["delay_count"])

    relay_like = net.has_children
    nodes = [
        _Node(i, link_of.get(i), IDLE if relay_like[i] else SLEEP)
        for i in range(n_nodes)
    ]
    for node, hop in zip(nodes, next_hop):
        if hop >= 0:
            node.dest = nodes[hop]
    active: list[tuple] = []
    heap: list[tuple] = []
    seq = itertools.count()
    push, pop = heapq.heappush, heapq.heappop

    if sigma == 0.0 and kappa is None:  # no fading: every frame has the mean gains
        draw_gains = [row.tolist() for row in net.mean_gain_mw].__getitem__
    else:

        def draw_gains(tx: int) -> list[float]:
            gains = net.mean_gain_mw[tx]
            if sigma > 0.0:
                gains = gains * np.exp(rng.normal(0.0, sigma, n_nodes))
            if kappa is not None:
                gains = gains * rng.gamma(kappa, 1.0 / kappa, n_nodes)
            return gains.tolist()

    def reception_ok(rx: int, frame: tuple) -> bool:
        _, start, end, gains = frame
        others = [t for t in active if t is not frame and t[1] < end and t[2] > start]
        if not others:
            return gains[rx] >= floor * noise
        if any(t[0] == rx for t in others):
            return False  # a transmitting destination cannot hear anything
        useful = gains[rx]
        # sweep interferer start boundaries for the worst aggregate power
        bounds = {start}
        bounds.update(t[1] for t in others if start < t[1] < end)
        for b in bounds:
            total = 0.0
            for _, t_start, t_end, t_gains in others:
                if t_start <= b < t_end:
                    total += t_gains[rx]
            if useful < floor * (total + noise):
                return False
        return True

    def schedule_arrival(node: _Node, now: int) -> None:
        gap = (1.0 / lam[node.index]) * draw_exponential() / SYMBOL_SECONDS
        # at least a tick on: a gap below the float spacing at `now` would stop the clock
        push(heap, (max(math.ceil(now + gap), now + 1), next(seq), ARRIVAL, node, None))

    def start_backoff(node: _Node, now: int) -> None:
        slots = draw_slots(node.be)
        node.residency[node.radio] += now - node.radio_since
        node.radio, node.radio_since = IDLE, now
        push(heap, (now + slots * SYMBOLS_PER_UNIT, next(seq), CCA_START, node, None))
        if trace is not None:
            trace.write(f"{now}\t{node.index}\tbackoff\t{slots} slots\n")

    def end_service(node: _Node, now: int, outcome: str) -> None:
        node.serving = False
        node.residency[node.radio] += now - node.radio_since
        node.radio, node.radio_since = node.baseline, now
        if trace is not None:
            trace.write(f"{now}\t{node.index}\tservice_end\t{outcome}\n")

    def offer_packet(node: _Node, now: int) -> None:
        """A packet (generated or forwarded) arrives at the node's queue."""
        link = node.link
        if link is None:
            return  # nodes without a route consume packets
        generated[link] += 1
        if node.serving:
            queue_dropped[link] += 1
            if trace is not None:
                trace.write(f"{now}\t{node.index}\tdrop\tqueue busy\n")
        else:
            node.serving = True
            node.service_start = now
            node.nb = 0
            node.be = m0
            node.rt = 0
            start_backoff(node, now)

    # prime the generation processes
    for node, rate in zip(nodes, lam):
        if rate > 0.0 and node.dest is not None:
            schedule_arrival(node, 0)

    while heap and heap[0][0] < horizon:
        now, _, kind, node, data = pop(heap)

        if kind == CCA_END:
            link = node.link
            cca_attempts[link] += 1
            sample_at = now - 1  # aggregate power over the last sensing symbol
            idx = node.index
            sensed = 0.0
            for owner, start, end, gains in active:
                if start <= sample_at < end and owner != idx:
                    sensed += gains[idx]
            if sensed > cca_threshold:
                cca_busy[link] += 1
                node.nb += 1
                node.be = min(node.be + 1, mb)
                if node.nb > max_nb:
                    counters["discard_cf"][link] += 1
                    end_service(node, now, "cf")
                else:
                    start_backoff(node, now)
                if trace is not None:
                    trace.write(f"{now}\t{idx}\tcca\tbusy\n")
            else:  # channel clear: transmit the data frame
                watermark = now - frame_life
                active[:] = [t for t in active if t[2] > watermark]
                frame = (idx, now, now + data_sym, draw_gains(idx))
                active.append(frame)
                data_attempts[link] += 1
                node.residency[node.radio] += now - node.radio_since
                node.radio, node.radio_since = TX, now
                dest = node.dest
                # an idle destination listens until the frame ends
                restore = not dest.serving and dest.radio in (IDLE, SLEEP, RX)
                if restore:
                    if dest.radio != RX:
                        dest.residency[dest.radio] += now - dest.radio_since
                        dest.radio, dest.radio_since = RX, now
                    dest.rx_until = max(dest.rx_until, frame[2])
                push(heap, (frame[2], next(seq), DATA_END, node, (frame, restore)))
                if trace is not None:
                    trace.write(f"{now}\t{idx}\tdata_tx\t\n")

        elif kind == CCA_START:
            node.residency[node.radio] += now - node.radio_since
            node.radio, node.radio_since = SENSE, now
            push(heap, (now + cca_sym, next(seq), CCA_END, node, None))

        elif kind == DATA_END:
            frame, restore = data
            dest = node.dest
            ok = reception_ok(dest.index, frame)
            if ok and dest.ack_busy_until > now + turn_sym:
                ok = False  # destination radio still busy with a previous ACK
            # turnaround, then listen for the ACK
            node.residency[node.radio] += now - node.radio_since
            node.radio, node.radio_since = IDLE, now
            if ok:
                ack_start = now + turn_sym
                ack = (dest.index, ack_start, ack_start + ack_sym, draw_gains(dest.index))
                active.append(ack)
                dest.ack_busy_until = ack[2]
                push(heap, (ack_start, next(seq), ACK_START, dest, node))
                push(heap, (ack[2], next(seq), ACK_END, node, (now, ack)))
            else:
                data_lost[node.link] += 1
                push(heap, (now + ack_wait, next(seq), TX_FAIL, node, None))
            if trace is not None:
                trace.write(f"{now}\t{node.index}\tdata_end\t{'ok' if ok else 'lost'}\n")
            if restore and dest.radio == RX and not dest.serving and now >= dest.rx_until:
                dest.residency[RX] += now - dest.radio_since
                dest.radio, dest.radio_since = dest.baseline, now

        elif kind == ACK_START:  # node sends the ACK, data is the sender
            if not node.serving:
                node.residency[node.radio] += now - node.radio_since
                node.radio, node.radio_since = TX, now
            data.residency[data.radio] += now - data.radio_since
            data.radio, data.radio_since = RX, now

        elif kind == ACK_END:
            data_end, ack = data
            ok = reception_ok(node.index, ack) if ack_loss else True
            node.residency[node.radio] += now - node.radio_since
            node.radio, node.radio_since = IDLE, now
            if ok:
                # hold the post-ACK spacing, then the transaction is complete
                push(heap, (data_end + success_tail, next(seq), SERVICE_DONE, node, None))
            else:
                counters["ack_failed"][node.link] += 1
                push(heap, (data_end + ack_wait, next(seq), TX_FAIL, node, None))
            if trace is not None:
                trace.write(f"{now}\t{node.index}\tack\t{'ok' if ok else 'lost'}\n")
            acker = node.dest
            if not acker.serving and acker.radio == TX:
                acker.residency[TX] += now - acker.radio_since
                acker.radio, acker.radio_since = acker.baseline, now
            offer_packet(acker, now)  # the receiver forwards the packet

        elif kind == ARRIVAL:
            offer_packet(node, now)
            schedule_arrival(node, now)

        elif kind == SERVICE_DONE:
            link = node.link
            success[link] += 1
            delay_sum[link] += now - node.service_start
            delay_count[link] += 1
            end_service(node, now, "success")

        else:  # TX_FAIL
            node.rt += 1
            if node.rt > max_rt:
                counters["discard_cr"][node.link] += 1
                end_service(node, now, "cr")
            else:
                node.nb = 0
                node.be = m0
                start_backoff(node, now)

    for node in nodes:
        node.residency[node.radio] += horizon - node.radio_since
        if node.serving and node.link is not None:
            counters["in_flight"][node.link] += 1
    return SimStats(
        transmitters=transmitters,
        horizon_symbols=horizon,
        **{name: np.array(values, dtype=np.int64) for name, values in counters.items()},
        residency=np.array([node.residency for node in nodes], dtype=np.int64),
    )


def pool_size(workers: int, tasks: int) -> int:
    """Processes for a pool of `tasks` tasks: at most one per task and per CPU
    this process may run on.  A fork pool starts all of them at once."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, tasks, cpus or 1)


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
    with warnings.catch_warnings():  # a link with no sample gets NaN, and no warning
        warnings.simplefilter("ignore", RuntimeWarning)
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
    """Run all replications, in a pool of pool_size processes if
    workers > 1, and aggregate them."""
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    profile = profile or PowerProfile()
    reps = config.replications
    if workers > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=pool_size(workers, reps)) as pool:
            stats = list(pool.map(_rep_task, [(net, config, r) for r in range(reps)]))
    else:
        stats = [run_replication(net, config, r) for r in range(reps)]

    for r, s in enumerate(stats):
        gap = s.conservation_gap()
        if (gap != 0).any():
            raise NumericsError(
                f"packet conservation violated in replication {r}: {gap.tolist()}"
            )

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
