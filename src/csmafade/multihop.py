"""Routing and traffic coupling for multi-hop networks.

Routes are one next-hop array over the nodes: next_hop[i] is the node that
node i sends to, or negative where i's packets end (a sink).  Each node with
a next hop transmits over one link; links are numbered in node order, and
next_link[l] is the link that carries link l's packets on (the one whose
transmitter is l's receiver), or -1 where they reach a sink.

Forwarded traffic raises the arrival rate of relay nodes, which changes
their MAC operating point, which changes per-link reliabilities, which
changes the forwarded traffic.  That cycle is closed inside the MAC fixed
point: each iteration maps its current state to reliabilities, then to the
link traffic and the arrival probabilities it uses.  Only successfully
received packets are forwarded, so link l carries
Lambda_l = lambda_l + sum of R_c Lambda_c over the links c with
next_link[c] = l; acyclic routes make this Neumann series finite and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import ValidationError
from .macmodel import (
    LinkState,
    MacParams,
    SolverConfig,
    TimingParams,
    arrival_probability,
    list_depth,
    solve_fixed_point,
    truncation_bounds,
)


def route_links(next_hop) -> tuple[np.ndarray, np.ndarray]:
    """(transmitters, next_link) of a next-hop array, which it checks.

    transmitters are the nodes with a next hop, in index order: one link
    each.  Hops to a missing node or to the node itself, cycles, and routes
    without any link raise ValidationError.
    """
    hops = np.asarray(next_hop, dtype=int)
    succ = hops.tolist()
    n = len(succ)
    for i, hop in enumerate(succ):
        if hop >= n or hop == i:
            raise ValidationError(f"node {i} has invalid next hop {hop}")
    # 0: not yet seen, 1: on the current walk, 2: known to reach a sink
    seen = [0] * n
    for start in range(n):
        walk = []
        node = start
        while node >= 0 and not seen[node]:
            seen[node] = 1
            walk.append(node)
            node = succ[node]
        if node >= 0 and seen[node] == 1:
            raise ValidationError(
                f"routing has a cycle through node {node}: its packets never reach a sink"
            )
        for node in walk:
            seen[node] = 2
    transmitters = np.flatnonzero(hops >= 0)
    if not transmitters.size:
        raise ValidationError("the topology has no link: no node has a next hop")
    link_of = np.full(n, -1)
    link_of[transmitters] = np.arange(len(transmitters))
    return transmitters, link_of[hops[transmitters]]


def route(next_hop, node: int) -> list[int]:
    """Nodes from node to the sink its packets reach, both included.

    next_hop must have passed route_links.
    """
    nodes = [int(node)]
    while next_hop[nodes[-1]] >= 0:
        nodes.append(int(next_hop[nodes[-1]]))
    return nodes


def link_traffic(lam: np.ndarray, next_link: np.ndarray, reliability: np.ndarray) -> np.ndarray:
    """Packet rate per link: own generation plus the delivered rate of its children.

    Lambda = sum_k (T')^k lam with T[c, next_link[c]] = reliability[c]; each
    term adds a link's children in link order.  lam and reliability are per
    link, (L,) or a (P, L) stack of P points on the same routes; next_link
    must come from route_links.
    """
    n = lam.shape[-1]
    children = np.flatnonzero(next_link >= 0)
    # point p's links are entries p * n ... p * n + n - 1 of the flat arrays
    offsets = np.arange(0, lam.size, n)[:, None]
    sources = (offsets + children).ravel()
    parents = (offsets + next_link[children]).ravel()
    forwarded = reliability.ravel()[sources]
    total = lam.flatten()
    term = total
    for _ in range(n):
        term = np.bincount(parents, weights=forwarded * term[sources], minlength=lam.size)
        if not term.any():
            break
        total += term
    return total.reshape(lam.shape)


@dataclass
class NetworkSolution:
    """Converged network state: per-link MAC state arrays, traffic, and metrics.

    traffic[l] is the packet rate link l carries, its own and forwarded.
    outer_iterations counts the fixed-point iterations in which forwarded
    traffic moved a transmitter's arrival probability; it is 0 for a star,
    whose transmitters carry only their own traffic.  depth is the depth of
    the subset lists the tables hold, and truncation_bound the bound, at
    the solved state, on how far the left-out subsets could move any
    alpha or gamma (macmodel.truncation_bounds); 0 for whole tables.
    """

    state: LinkState
    traffic: np.ndarray
    end_to_end: dict[int, float]
    report: metrics.MetricsReport
    outer_iterations: int
    warnings: list[str]
    depth: int
    truncation_bound: float


class NetworkSolutions(list):
    """The NetworkSolution of each point of a stacked solve_network, in stack order."""

    @property
    def outer_iterations(self) -> int:
        """Iterations that moved a transmitter's arrival probability, summed over the points."""
        return sum(solution.outer_iterations for solution in self)


def solve_network(
    tables,
    next_hop: np.ndarray,
    lambda_pkt_per_s: np.ndarray,
    mac: MacParams,
    timing: TimingParams,
    profile: metrics.PowerProfile | None = None,
    config: SolverConfig = SolverConfig(),
) -> NetworkSolution | NetworkSolutions:
    """Per-link fixed points and forwarded traffic, solved as one fixed point.

    When some transmitter relays, every iteration of the MAC fixed point
    takes its arrival probabilities from the link traffic of its current
    per-link reliability, so config.tol bounds the residual of the joint map.
    tables come from macmodel.contention_tables, which gives their row
    layout: tables[l] must describe the link of the l-th node with a next
    hop, and the contending links of each row are numbered in that order.

    lambda_pkt_per_s is one point's per-node rates, the stack of one, or a
    (P, n) stack of points that share everything else but their tables,
    solved as one stacked fixed point into a NetworkSolutions list.  Such a
    stack takes one table set that all its points share, or a sequence of
    each point's own.
    """
    transmitters, next_link = route_links(next_hop)
    lam = np.asarray(lambda_pkt_per_s, dtype=float)
    if lam.ndim not in (1, 2) or lam.shape[-1] != len(next_hop):
        raise ValidationError("rate vector length must match the node count")
    stack = np.atleast_2d(lam)[:, transmitters]
    if isinstance(tables, np.ndarray) and tables.ndim == 1:
        tables = [tables] * len(stack)
    for point_tables in tables:
        if len(point_tables) != len(transmitters):
            raise ValidationError(
                f"{len(point_tables)} link tables for {len(transmitters)} transmitting nodes"
            )

    def probabilities(rates: np.ndarray) -> np.ndarray:
        return np.reshape([arrival_probability(rate) for rate in rates.ravel().tolist()],
                          rates.shape)

    qs = probabilities(stack)
    moved = np.zeros(len(stack), dtype=int)

    def arrivals(rows, reliability):
        new_qs = probabilities(link_traffic(stack[rows], next_link, reliability))
        moved[rows] += (new_qs != qs[rows]).any(axis=1)
        qs[rows] = new_qs
        return new_qs

    # without a relay, no transmitter's traffic depends on the state
    relays = bool((next_link >= 0).any())
    results = solve_fixed_point(tables, qs.copy(), mac, timing, config=config,
                                arrivals=arrivals if relays else None)
    states = LinkState(*(np.array([getattr(result.state, name) for result in results])
                         for name in ("tau", "alpha_pkt", "alpha_ack", "gamma", "b000")))
    reports = metrics.report(states, profile or metrics.PowerProfile(), mac, timing, next_link)
    reliability = np.array([rep.reliability for rep in reports])
    traffic = link_traffic(stack, next_link, reliability)
    paths = [route(next_hop, node) for node in transmitters.tolist()]
    solutions = NetworkSolutions()
    for result, point_tables, rep, point_traffic, by_link, outer in zip(
            results, tables, reports, traffic, reliability.tolist(), moved.tolist()):
        by_node = dict(zip(transmitters.tolist(), by_link))
        depth = list_depth(len(transmitters) - 1, point_tables.p_det.shape[-1])
        solutions.append(NetworkSolution(
            state=result.state,
            traffic=point_traffic,
            end_to_end={path[0]: end_to_end_reliability(next_hop, by_node, path[0], path)
                        for path in paths},
            report=rep,
            outer_iterations=outer,
            warnings=result.warnings,
            depth=depth,
            truncation_bound=_truncation_bound(result.state, timing, depth),
        ))
    return solutions if lam.ndim == 2 else solutions[0]


def _truncation_bound(state: LinkState, timing: TimingParams, depth: int) -> float:
    """The truncation bound of subset lists of depth `depth` at the state;
    0 for whole tables, which leave nothing out."""
    if depth == len(state.tau) - 1:
        return 0.0
    return float(truncation_bounds(state.tau * (1.0 - state.alpha), timing, depth)[depth])


def end_to_end_reliability(next_hop, reliability, node: int, path=None) -> float:
    """Product of per-hop reliabilities along the node's route, first hop first.

    reliability[t] is the reliability of the link that node t transmits on;
    path is the node's route, route(next_hop, node), where already walked.
    """
    path = route(next_hop, node) if path is None else path
    return math.prod(reliability[t] for t in path[:-1])
