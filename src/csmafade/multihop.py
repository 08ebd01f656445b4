"""Routing and traffic coupling for multi-hop networks.

Forwarded traffic raises the arrival rate of relay nodes, which changes
their MAC operating point, which changes per-link reliabilities, which
changes the forwarded traffic.  That cycle is closed inside the MAC fixed
point: each iteration maps its current state to reliabilities, then to the
traffic vector and the arrival probabilities it uses.  Only successfully
received packets are forwarded, so the traffic recursion is
Lambda = lambda + T' Lambda with T = M * R; acyclic routing makes T'
nilpotent and the Neumann series exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import ValidationError
from .macmodel import (
    ContentionSystem,
    LinkState,
    LinkTables,
    MacParams,
    SolverConfig,
    TimingParams,
    arrival_probability,
    solve_fixed_point,
)


@dataclass(frozen=True)
class RoutingMatrix:
    """Next-hop relation over all nodes: entry (i, j) = 1 iff j is i's next hop."""

    matrix: np.ndarray
    sink: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"routing matrix must be square, got shape {m.shape}")
        n = m.shape[0]
        if not 0 <= self.sink < n:
            raise ValidationError(f"sink index {self.sink} outside node range")
        if not np.isin(m, (0, 1)).all():
            raise ValidationError("routing matrix entries must be 0 or 1")
        if (m.sum(axis=1) > 1).any():
            raise ValidationError("each node may have at most one next hop")
        if m[self.sink].any():
            raise ValidationError("the sink must not have a next hop")
        power = m.astype(bool)
        for _ in range(n):
            power = power @ m.astype(bool)
        if power.any():
            raise ValidationError("routing contains a cycle")
        object.__setattr__(self, "matrix", m.astype(np.int64))

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def transmitters(self) -> tuple[int, ...]:
        """Nodes with a next hop, in index order: one link each."""
        return tuple(int(i) for i in np.nonzero(self.matrix.sum(axis=1))[0])

    def next_hop(self, node: int) -> int | None:
        hops = np.nonzero(self.matrix[node])[0]
        return int(hops[0]) if hops.size else None

    def children(self, node: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.matrix[:, node])[0])

    def path(self, node: int) -> list[tuple[int, int]]:
        """Hop sequence from node to the sink as (tx, rx) pairs."""
        hops = []
        current = node
        while (nxt := self.next_hop(current)) is not None:
            hops.append((current, nxt))
            current = nxt
        return hops


def traffic_matrix(
    routing: RoutingMatrix, link_reliability: dict[tuple[int, int], float]
) -> np.ndarray:
    """T = M * R: per-hop forwarding probabilities."""
    t = np.zeros_like(routing.matrix, dtype=float)
    for i in routing.transmitters:
        j = routing.next_hop(i)
        if (i, j) not in link_reliability:
            raise ValidationError(f"missing reliability for routed link {i}->{j}")
        r = link_reliability[(i, j)]
        if not 0.0 <= r <= 1.0:
            raise ValidationError(f"reliability {r} for link {i}->{j} outside [0, 1]")
        t[i, j] = r
    return t


@dataclass(frozen=True)
class TrafficVector:
    """Aggregate per-node packet rates and the derived arrival probabilities."""

    rates: np.ndarray
    qs: np.ndarray
    sb_seconds: float


def traffic_vector(
    lambda_pkt_per_s: np.ndarray, t_matrix: np.ndarray, sb_seconds: float
) -> TrafficVector:
    """Lambda = sum_k (T')^k lambda, exact for nilpotent T' (acyclic routing)."""
    lam = np.asarray(lambda_pkt_per_s, dtype=float)
    if (lam < 0).any():
        raise ValidationError("generation rates must be >= 0")
    n = lam.shape[0]
    if t_matrix.shape != (n, n):
        raise ValidationError("traffic matrix shape must match the rate vector")
    total = lam.copy()
    term = lam.copy()
    for _ in range(n):
        term = t_matrix.T @ term
        if not term.any():
            break
        total += term
    else:
        raise ValidationError("traffic accumulation did not terminate: routing has a cycle")
    qs = np.array([arrival_probability(rate, sb_seconds) for rate in total])
    return TrafficVector(rates=total, qs=qs, sb_seconds=sb_seconds)


@dataclass
class NetworkSolution:
    """Converged network state: per-link MAC state arrays, traffic, and metrics.

    outer_iterations counts the fixed-point iterations in which forwarded
    traffic moved a transmitter's arrival probability; it is 0 for a star,
    whose transmitters carry only their own traffic.
    """

    state: LinkState
    traffic: TrafficVector
    link_reliability: dict[tuple[int, int], float]
    end_to_end: dict[int, float]
    report: metrics.MetricsReport
    outer_iterations: int
    warnings: list[str]


def solve_network(
    tables: list[LinkTables],
    routing: RoutingMatrix,
    lambda_pkt_per_s: np.ndarray,
    mac: MacParams,
    timing: TimingParams,
    profile: metrics.PowerProfile | None = None,
    config: SolverConfig = SolverConfig(),
) -> NetworkSolution:
    """Per-link fixed points and forwarded traffic, solved as one fixed point.

    When some transmitter relays, every iteration of the MAC fixed point
    takes its arrival probabilities from the traffic vector of its current
    (alpha, gamma), so config.tol bounds the residual of the joint map.
    tables[l] must describe the link of routing.transmitters[l]; contending
    link indices inside each table refer to positions in that same order.
    """
    transmitters = routing.transmitters
    if len(tables) != len(transmitters):
        raise ValidationError(
            f"{len(tables)} link tables for {len(transmitters)} transmitting nodes"
        )
    lam = np.asarray(lambda_pkt_per_s, dtype=float)
    if lam.shape[0] != routing.n_nodes:
        raise ValidationError("rate vector length must match the node count")

    links = [(node, routing.next_hop(node)) for node in transmitters]
    tx = list(transmitters)

    def traffic(alpha, gamma) -> tuple[dict[tuple[int, int], float], TrafficVector]:
        link_r = dict(zip(links, metrics.reliability(alpha, gamma, mac).tolist()))
        return link_r, traffic_vector(lam, traffic_matrix(routing, link_r), timing.sb_seconds)

    qs = np.array([arrival_probability(lam[node], timing.sb_seconds) for node in tx])
    system = ContentionSystem(qs=qs, mac=mac, timing=timing, tables=tables)
    moved = 0

    def arrivals(alpha, gamma):
        nonlocal qs, moved
        new_qs = traffic(alpha, gamma)[1].qs[tx]
        moved += not np.array_equal(new_qs, qs)
        qs = new_qs
        return qs

    # without a relay, no transmitter's traffic depends on the state
    relays = bool(routing.matrix[:, tx].any())
    result = solve_fixed_point(system, config=config, arrivals=arrivals if relays else None)
    state = result.state
    link_r, tv = traffic(state.alpha, state.gamma)

    end_to_end = {
        node: end_to_end_reliability(routing, link_r, node) for node in transmitters
    }
    # link l's packets go on over the link whose transmitter is l's receiver
    link_of = np.full(routing.n_nodes, -1)
    link_of[tx] = np.arange(len(tx))
    next_link = link_of[[rx for _, rx in links]]
    rep = metrics.report(state, profile or metrics.PowerProfile(), mac, timing, next_link)
    return NetworkSolution(
        state=state,
        traffic=tv,
        link_reliability=link_r,
        end_to_end=end_to_end,
        report=rep,
        outer_iterations=moved,
        warnings=result.warnings,
    )


def end_to_end_reliability(
    routing: RoutingMatrix, link_reliability: dict[tuple[int, int], float], node: int
) -> float:
    """Product of per-hop reliabilities along the node's path to the sink."""
    return math.prod(link_reliability[hop] for hop in routing.path(node))
