"""Tests for routing, traffic accumulation, and the joint network fixed point."""

import numpy as np
import pytest
from pytest import approx

from oracles import solve_network_nested
from topo_helpers import build_tables, line_positions, star_positions
from csmafade import channel, multihop
from csmafade.errors import ConvergenceError, ValidationError
from csmafade.macmodel import (
    ContentionSystem,
    MacParams,
    SolverConfig,
    TimingParams,
    arrival_probability,
    solve_fixed_point,
)
from csmafade.metrics import reliability
from csmafade.multihop import (
    RoutingMatrix,
    end_to_end_reliability,
    solve_network,
    traffic_matrix,
    traffic_vector,
)
from csmafade.scenarios import build_contention_tables, parse_config, scenario_from_config

MAC = MacParams()
TIMING = TimingParams()


def _chain_routing(n_nodes):
    m = np.zeros((n_nodes, n_nodes), dtype=int)
    for h in range(1, n_nodes):
        m[h, h - 1] = 1
    return RoutingMatrix(matrix=m, sink=0)


def test_routing_matrix_validation():
    good = _chain_routing(3)
    assert good.transmitters == (1, 2)
    with pytest.raises(ValidationError, match="at most one"):
        RoutingMatrix(matrix=np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0]]), sink=0)
    with pytest.raises(ValidationError, match="sink"):
        RoutingMatrix(matrix=np.array([[0, 1], [0, 0]]), sink=0)
    with pytest.raises(ValidationError, match="cycle"):
        RoutingMatrix(matrix=np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]), sink=0)
    with pytest.raises(ValidationError, match="0 or 1"):
        RoutingMatrix(matrix=np.array([[0.0, 0.0], [0.5, 0.0]]), sink=0)
    with pytest.raises(ValidationError, match="square"):
        RoutingMatrix(matrix=np.zeros((2, 3)), sink=0)


def test_routing_matrix_navigation():
    routing = _chain_routing(5)
    assert routing.next_hop(4) == 3
    assert routing.next_hop(0) is None
    assert routing.children(0) == (1,)
    assert routing.children(3) == (4,)
    assert routing.path(4) == [(4, 3), (3, 2), (2, 1), (1, 0)]
    assert routing.path(0) == []


def test_traffic_matrix_construction():
    routing = _chain_routing(3)
    t = traffic_matrix(routing, {(1, 0): 1.0, (2, 1): 1.0})
    assert np.array_equal(t, routing.matrix.astype(float))
    t = traffic_matrix(routing, {(1, 0): 0.0, (2, 1): 0.0})
    assert not t.any()
    t = traffic_matrix(routing, {(1, 0): 1.0, (2, 1): 0.5})
    assert t[2, 1] == 0.5 and t[1, 0] == 1.0
    with pytest.raises(ValidationError, match="missing reliability"):
        traffic_matrix(routing, {(1, 0): 1.0})
    with pytest.raises(ValidationError, match="outside"):
        traffic_matrix(routing, {(1, 0): 1.0, (2, 1): 1.5})


def test_traffic_vector_trivials():
    lam = np.array([0.0, 1.0, 1.0])
    tv = traffic_vector(lam, np.zeros((3, 3)), 320e-6)
    assert np.array_equal(tv.rates, lam)

    routing = _chain_routing(3)
    t = traffic_matrix(routing, {(1, 0): 1.0, (2, 1): 1.0})
    tv = traffic_vector(lam, t, 320e-6)
    assert tv.rates[1] == approx(2.0, rel=1e-12)
    assert tv.rates[2] == approx(1.0, rel=1e-12)

    t = traffic_matrix(routing, {(1, 0): 1.0, (2, 1): 0.5})
    tv = traffic_vector(lam, t, 320e-6)
    assert tv.rates[1] == approx(1.5, rel=1e-12)
    assert tv.qs[1] == approx(arrival_probability(1.5, 320e-6), rel=1e-12)


def _random_dag(n_nodes, seed):
    rng = np.random.default_rng(seed)
    m = np.zeros((n_nodes, n_nodes), dtype=int)
    for i in range(1, n_nodes):
        m[i, rng.integers(0, i)] = 1  # next hop always lower-indexed: acyclic
    routing = RoutingMatrix(matrix=m, sink=0)
    rel = {
        (i, routing.next_hop(i)): float(rng.uniform(0.3, 1.0)) for i in routing.transmitters
    }
    lam = rng.uniform(0.0, 5.0, n_nodes)
    lam[0] = 0.0
    return routing, rel, lam


def test_traffic_vector_matches_direct_linear_solve():
    for seed in (1, 2, 3):
        routing, rel, lam = _random_dag(8, seed)
        t = traffic_matrix(routing, rel)
        tv = traffic_vector(lam, t, 320e-6)
        direct = np.linalg.solve(np.eye(8) - t.T, lam)
        assert tv.rates == approx(direct, rel=1e-12)


def test_traffic_matrix_transpose_is_nilpotent():
    routing, rel, _ = _random_dag(8, 4)
    t = traffic_matrix(routing, rel)
    assert not np.linalg.matrix_power(t.T, 8).any()


def test_traffic_vector_dominates_generation_and_grows_with_reliability():
    routing, rel, lam = _random_dag(8, 5)
    base = traffic_vector(lam, traffic_matrix(routing, rel), 320e-6)
    assert np.all(base.rates >= lam - 1e-15)
    bumped = dict(rel)
    key = next(iter(bumped))
    bumped[key] = 1.0
    higher = traffic_vector(lam, traffic_matrix(routing, bumped), 320e-6)
    assert np.all(higher.rates >= base.rates - 1e-15)


def test_traffic_vector_rejects_cycles():
    t = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValidationError, match="cycle"):
        traffic_vector(np.array([1.0, 1.0]), t, 320e-6)


def test_end_to_end_products_match_hand_computation():
    routing = _chain_routing(3)
    rel = {(2, 1): 0.6, (1, 0): 0.8}
    assert end_to_end_reliability(routing, rel, 2) == approx(0.48, rel=1e-12)
    assert end_to_end_reliability(routing, rel, 1) == approx(0.8, rel=1e-12)


def _star_setup(n_tx=7, radius=1.0, lam_rate=5.0, sigma=0.0):
    chan = channel.ChannelParams()
    fading = channel.FadingParams(sigma=sigma)
    positions, links = star_positions(n_tx, radius)
    tables = build_tables(positions, links, chan, fading)
    m = np.zeros((n_tx + 1, n_tx + 1), dtype=int)
    for i in range(1, n_tx + 1):
        m[i, 0] = 1
    routing = RoutingMatrix(matrix=m, sink=0)
    lam = np.full(n_tx + 1, lam_rate)
    lam[0] = 0.0
    return tables, routing, lam


def test_single_hop_network_reduces_to_link_fixed_point():
    tables, routing, lam = _star_setup()
    solution = solve_network(tables, routing, lam, MAC, TIMING)
    q = arrival_probability(5.0, TIMING.sb_seconds)
    system = ContentionSystem(
        qs=np.full(7, q), mac=MAC, timing=TIMING, tables=tables
    )
    direct = solve_fixed_point(system)
    # a star's arrival probabilities never move, so neither do its iterates
    for name in ("tau", "alpha_pkt", "alpha_ack", "gamma", "b000"):
        assert np.array_equal(getattr(solution.state, name), getattr(direct.state, name))
    # end-to-end over one hop is just the link reliability
    for node in routing.transmitters:
        assert solution.end_to_end[node] == approx(
            solution.link_reliability[(node, 0)], rel=1e-12
        )
    assert np.array_equal(solution.traffic.rates[1:], lam[1:])


def test_star_solves_its_fixed_point_once(monkeypatch):
    # forwarded traffic is part of the fixed-point map, so every network
    # makes one solve; only a relay's arrival probability ever moves
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_fixed_point(*args, **kwargs)

    monkeypatch.setattr(multihop, "solve_fixed_point", counting)
    solution = solve_network(*_star_setup(), MAC, TIMING)
    assert (len(calls), solution.outer_iterations) == (1, 0)
    calls.clear()
    solution = solve_network(*_line_setup(), MAC, TIMING)
    assert len(calls) == 1 and solution.outer_iterations > 0


def _line_setup(n_nodes=5, spacing=1.0, lam_rate=2.0, sigma=0.0):
    chan = channel.ChannelParams()
    fading = channel.FadingParams(sigma=sigma)
    positions, links = line_positions(n_nodes, spacing)
    tables = build_tables(positions, links, chan, fading)
    routing = _chain_routing(n_nodes)
    lam = np.full(n_nodes, lam_rate)
    lam[0] = 0.0
    return tables, routing, lam


def test_line_end_to_end_reliability_decreases_with_hops():
    for sigma in (0.0, 2.0):
        tables, routing, lam = _line_setup(sigma=sigma)
        solution = solve_network(tables, routing, lam, MAC, TIMING)
        e2e = [solution.end_to_end[node] for node in (1, 2, 3, 4)]
        assert e2e[0] < 1.0
        for nearer, farther in zip(e2e, e2e[1:]):
            assert farther < nearer


def test_line_relays_accumulate_forwarded_traffic():
    tables, routing, lam = _line_setup()
    solution = solve_network(tables, routing, lam, MAC, TIMING)
    rates = solution.traffic.rates
    assert rates[1] > rates[2] > rates[3] > rates[4]
    assert rates[4] == approx(2.0, rel=1e-12)
    # node 3 carries its own traffic plus node 4's delivered share
    r43 = solution.link_reliability[(4, 3)]
    assert rates[3] == approx(2.0 + r43 * 2.0, rel=1e-9)


def test_network_solution_is_outer_fixed_point():
    tables, routing, lam = _line_setup()
    solution = solve_network(tables, routing, lam, MAC, TIMING)
    qs = np.array(
        [
            arrival_probability(solution.traffic.rates[node], TIMING.sb_seconds)
            for node in routing.transmitters
        ]
    )
    system = ContentionSystem(qs=qs, mac=MAC, timing=TIMING, tables=tables)
    re_solved = solve_fixed_point(system)
    rel = reliability(re_solved.state.alpha, re_solved.state.gamma, MAC)
    link_r = {
        (node, routing.next_hop(node)): r for node, r in zip(routing.transmitters, rel)
    }
    tv = traffic_vector(lam, traffic_matrix(routing, link_r), TIMING.sb_seconds)
    assert float(np.max(np.abs(tv.rates - solution.traffic.rates))) < 1e-10


def test_network_relay_energy_profile():
    tables, routing, lam = _line_setup()
    solution = solve_network(tables, routing, lam, MAC, TIMING)
    energy = solution.report.energy  # transmitter order (1, 2, 3, 4)
    assert np.all(energy.relay[:3] > 0.0)
    assert energy.relay[3] == 0.0
    b000 = solution.state.b000
    assert energy.queue[0] == approx(56.4 * b000[0], rel=1e-9)
    assert energy.queue[3] == approx(0.06 * b000[3], rel=1e-9)


def test_relay_power_sums_its_childrens_transmit_power():
    # 10-node tree, branching 3: node 1 relays nodes 4, 5 and 6
    s = scenario_from_config(parse_config(
        "topology: {kind: tree, n_nodes: 10, branching: 3}\nlam: 7.0\nfading: {sigma: 1.0}"
    ))
    solution = solve_network(build_contention_tables(s), s.routing, s.lam, s.mac, s.timing)
    link = {src: l for l, (src, _) in enumerate(s.links)}
    energy = solution.report.energy
    children = [link[c] for c in s.routing.children(1)]
    assert [s.links[c][0] for c in children] == [4, 5, 6]
    assert energy.relay[link[1]] == approx(energy.transmit[children].sum(), rel=1e-12)
    assert energy.relay[link[4]] == 0.0


def _tree_setup(n_nodes, lam_rate):
    s = scenario_from_config(parse_config(
        f"topology: {{kind: tree, n_nodes: {n_nodes}, branching: 3}}\n"
        f"lam: {lam_rate}\nfading: {{sigma: 1.0}}"
    ))
    return build_contention_tables(s), s.routing, s.lam


@pytest.mark.parametrize(
    "setup",
    [
        lambda: _line_setup(sigma=0.0),
        lambda: _line_setup(sigma=2.0),
        lambda: _line_setup(n_nodes=9, lam_rate=30.0),
        lambda: _line_setup(n_nodes=9, lam_rate=50.0),
        lambda: _line_setup(n_nodes=9, lam_rate=100.0),
        lambda: _tree_setup(10, 7.0),
        lambda: _tree_setup(13, 30.0),
    ],
    ids=["line5-s0", "line5-s2", "line9-l30", "line9-l50", "line9-l100", "tree10", "tree13"],
)
def test_joint_solve_matches_nested_traffic_loop(setup):
    tables, routing, lam = setup()
    joint = solve_network(tables, routing, lam, MAC, TIMING)
    nested = solve_network_nested(tables, routing, lam, MAC, TIMING)
    assert joint.state.alpha == approx(nested.state.alpha, rel=0, abs=1e-7)
    assert joint.state.gamma == approx(nested.state.gamma, rel=0, abs=1e-7)
    assert joint.link_reliability.keys() == nested.link_reliability.keys()
    for link, r in nested.link_reliability.items():
        assert joint.link_reliability[link] == approx(r, rel=0, abs=1e-7)


def test_reported_traffic_solves_the_traffic_recursion():
    for tables, routing, lam in (_line_setup(n_nodes=9, lam_rate=30.0), _tree_setup(13, 30.0)):
        solution = solve_network(tables, routing, lam, MAC, TIMING)
        t = traffic_matrix(routing, solution.link_reliability)
        rates = solution.traffic.rates
        assert rates == approx(lam + t.T @ rates, rel=1e-12)


def test_network_nonconvergence_raises():
    tables, routing, lam = _line_setup()
    with pytest.raises(ConvergenceError, match="fixed point did not converge"):
        solve_network(tables, routing, lam, MAC, TIMING, config=SolverConfig(max_iter=5))


def test_network_input_validation():
    tables, routing, lam = _line_setup()
    with pytest.raises(ValidationError, match="link tables"):
        solve_network(tables[:-1], routing, lam, MAC, TIMING)
    with pytest.raises(ValidationError, match="rate vector"):
        solve_network(tables, routing, lam[:-1], MAC, TIMING)
