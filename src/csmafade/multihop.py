"""Routing and traffic coupling for multi-hop networks.

Forwarded traffic raises the arrival rate of relay nodes, which changes
their MAC operating point, which changes per-link reliabilities, which
changes the forwarded traffic.  The outer loop here iterates that cycle:
traffic vector -> per-link fixed point -> reliabilities -> traffic vector,
until the traffic vector is stable.  Only successfully received packets are
forwarded, so the traffic recursion is Lambda = lambda + T' Lambda with
T = M * R; acyclic routing makes T' nilpotent and the Neumann series exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import ConvergenceError, ValidationError
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
    """Converged network state: per-link MAC state arrays, traffic, and metrics."""

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
    outer_tol: float = 1e-8,
    outer_max: int = 200,
) -> NetworkSolution:
    """Outer loop coupling forwarded traffic with per-link fixed points.

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
    if outer_max < 1:
        raise ValidationError("outer_max must be >= 1")

    links = [(node, routing.next_hop(node)) for node in transmitters]
    rates = lam.copy()
    warnings: list[str] = []
    result = None
    tv = None
    for outer in range(1, outer_max + 1):
        qs = np.array([arrival_probability(rates[node], timing.sb_seconds) for node in transmitters])
        # only transmitters' rates enter the fixed point: if none moved (a
        # star's second pass changes just the sink's), the last solve stands
        if result is None or not np.array_equal(qs, system.qs):
            system = ContentionSystem(qs=qs, mac=mac, timing=timing, tables=tables)
            result = solve_fixed_point(system, config=config)
        warnings = result.warnings
        state = result.state
        link_r = dict(zip(links, metrics.reliability(state.alpha, state.gamma, mac).tolist()))
        tv = traffic_vector(lam, traffic_matrix(routing, link_r), timing.sb_seconds)
        residual = float(np.max(np.abs(tv.rates - rates)))
        rates = tv.rates
        if residual < outer_tol:
            break
    else:
        raise ConvergenceError(
            f"traffic loop did not converge after {outer_max} iterations "
            f"(last residual {residual:.3e})"
        )

    end_to_end = {
        node: end_to_end_reliability(routing, link_r, node) for node in transmitters
    }
    # link l's packets go on over the link whose transmitter is l's receiver
    link_of = np.full(routing.n_nodes, -1)
    link_of[list(transmitters)] = np.arange(len(transmitters))
    next_link = link_of[[rx for _, rx in links]]
    rep = metrics.report(state, profile or metrics.PowerProfile(), mac, timing, next_link)
    return NetworkSolution(
        state=state,
        traffic=tv,
        link_reliability=link_r,
        end_to_end=end_to_end,
        report=rep,
        outer_iterations=outer,
        warnings=warnings,
    )


def end_to_end_reliability(
    routing: RoutingMatrix, link_reliability: dict[tuple[int, int], float], node: int
) -> float:
    """Product of per-hop reliabilities along the node's path to the sink."""
    return math.prod(link_reliability[hop] for hop in routing.path(node))
