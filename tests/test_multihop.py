"""Tests for routing, traffic accumulation, and the joint network fixed point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from oracles import solve_network_nested, traffic_neumann
from topo_helpers import build_tables, line_positions, star_positions
from csmafade import channel, multihop
from csmafade.errors import ConvergenceError, ValidationError
from csmafade.macmodel import (
    Chain,
    MacParams,
    SolverConfig,
    TimingParams,
    arrival_probability,
    solve_fixed_point,
)
from csmafade.multihop import (
    end_to_end_reliability,
    link_traffic,
    route,
    route_links,
    solve_network,
)
from csmafade.scenarios import build_contention_tables, parse_config, scenario_from_config

MAC = MacParams()
TIMING = TimingParams()


def _chain_hops(n_nodes):
    return np.arange(-1, n_nodes - 1)


def test_route_links_validation():
    transmitters, next_link = route_links(_chain_hops(3))
    assert transmitters.tolist() == [1, 2] and next_link.tolist() == [-1, 0]
    with pytest.raises(ValidationError, match="invalid next hop 5"):
        route_links([-1, 5, 0])
    with pytest.raises(ValidationError, match="node 1 has invalid next hop 1"):
        route_links([-1, 1])
    with pytest.raises(ValidationError, match="cycle"):
        route_links([-1, 2, 1])  # node 0 is a sink, nodes 1 and 2 send to each other
    with pytest.raises(ValidationError, match="sink"):
        route_links([1, 0])
    with pytest.raises(ValidationError, match="no link"):
        route_links([-1, -1])


def test_route_and_next_link_navigation():
    hops = _chain_hops(5)
    assert route(hops, 4) == [4, 3, 2, 1, 0]
    assert route(hops, 0) == [0]
    # links are numbered in node order; each forwards to its receiver's link
    tree = [-1, 0, 0, 1, 1, 2, 2]
    transmitters, next_link = route_links(tree)
    assert transmitters.tolist() == [1, 2, 3, 4, 5, 6]
    assert next_link.tolist() == [-1, -1, 0, 0, 1, 1]
    assert route(tree, 5) == [5, 2, 0]
    # the sink in the middle: links (0, 1) and (2, 1) both end there
    assert route_links([1, -1, 1])[1].tolist() == [-1, -1]


def test_traffic_vector_trivials():
    lam = np.array([1.0, 1.0])  # links 2->1 and 1->0 of a 3-node chain, in link order
    next_link = route_links(_chain_hops(3))[1]
    assert np.array_equal(link_traffic(lam, next_link, np.zeros(2)), lam)
    assert link_traffic(lam, next_link, np.ones(2)) == approx([2.0, 1.0], rel=1e-12)
    assert link_traffic(lam, next_link, np.array([1.0, 0.5])) == approx([1.5, 1.0], rel=1e-12)


def _random_dag(n_nodes, seed):
    rng = np.random.default_rng(seed)
    hops = np.full(n_nodes, -1)
    for i in range(1, n_nodes):
        hops[i] = rng.integers(0, i)  # next hop always lower-indexed: acyclic
    rel = rng.uniform(0.3, 1.0, n_nodes)  # per node; only transmitters' entries count
    lam = rng.uniform(0.0, 5.0, n_nodes)
    lam[0] = 0.0
    return hops, rel, lam


def _link_matrix(next_link, rel):
    """T over the links: T[c, next_link[c]] = rel[c]."""
    t = np.zeros((len(next_link), len(next_link)))
    for c, parent in enumerate(next_link):
        if parent >= 0:
            t[c, parent] = rel[c]
    return t


def test_traffic_vector_matches_direct_linear_solve():
    for seed in (1, 2, 3):
        hops, rel, lam = _random_dag(8, seed)
        tx, next_link = route_links(hops)
        got = link_traffic(lam[tx], next_link, rel[tx])
        direct = np.linalg.solve(np.eye(len(tx)) - _link_matrix(next_link, rel[tx]).T, lam[tx])
        assert got == approx(direct, rel=1e-12)


def test_traffic_matrix_transpose_is_nilpotent():
    # acyclic routes end every link's chain of next links, so the series is finite
    hops, rel, _ = _random_dag(8, 4)
    tx, next_link = route_links(hops)
    t = _link_matrix(next_link, rel[tx])
    assert not np.linalg.matrix_power(t.T, len(tx)).any()


def test_traffic_vector_dominates_generation_and_grows_with_reliability():
    hops, rel, lam = _random_dag(8, 5)
    tx, next_link = route_links(hops)
    base = link_traffic(lam[tx], next_link, rel[tx])
    assert np.all(base >= lam[tx] - 1e-15)
    bumped = rel[tx].copy()
    bumped[-1] = 1.0
    higher = link_traffic(lam[tx], next_link, bumped)
    assert np.all(higher >= base - 1e-15)


def test_traffic_vector_rejects_cycles():
    with pytest.raises(ValidationError, match="cycle"):
        traffic_neumann([1, 0], [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError, match="cycle"):
        solve_network([], [1, 0], [1.0, 1.0], MAC, TIMING)


def test_end_to_end_products_match_hand_computation():
    hops = _chain_hops(3)
    rel = {2: 0.6, 1: 0.8}  # per transmitting node
    assert end_to_end_reliability(hops, rel, 2) == approx(0.48, rel=1e-12)
    assert end_to_end_reliability(hops, rel, 1) == approx(0.8, rel=1e-12)


@st.composite
def _forests(draw):
    """A random next-hop forest of 2-12 nodes with at least one link.

    Nodes are visited in a random order and each sends to an earlier node
    or to none, so every route ends at a sink.
    """
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    hops = [-1] * n
    for k in range(1, n):
        hops[order[k]] = draw(st.sampled_from([-1, *order[:k]]))
    if all(h < 0 for h in hops):
        hops[order[1]] = order[0]
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    rel = draw(st.lists(unit, min_size=n, max_size=n))
    lam = draw(st.lists(st.floats(0.0, 100.0, allow_subnormal=False), min_size=n, max_size=n))
    return np.array(hops), np.array(rel), np.array(lam)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(forest=_forests(), data=st.data())
def test_random_forests_match_the_dense_traffic_oracle(forest, data):
    hops, rel, lam = forest
    tx, next_link = route_links(hops)
    got = link_traffic(lam[tx], next_link, rel[tx])
    assert got == approx(traffic_neumann(hops, lam, rel)[tx], rel=1e-12)

    by_node = dict(zip(tx.tolist(), rel[tx].tolist()))
    for l, node in enumerate(tx.tolist()):
        product, link = 1, l
        while link >= 0:
            product *= rel[tx][link]
            link = next_link[link]
        assert end_to_end_reliability(hops, by_node, node) == product

    # send a transmitter to itself or to a node routed through it: its
    # tree's sink is still a sink, but the routes now hold a cycle
    node = data.draw(st.sampled_from(tx.tolist()))
    upstream = [i for i in range(len(hops)) if node in route(hops, i)]
    bad = hops.copy()
    bad[node] = data.draw(st.sampled_from(upstream))
    assert (bad < 0).any()
    with pytest.raises(ValidationError, match="invalid next hop|cycle"):
        route_links(bad)


def _star_setup(n_tx=7, radius=1.0, lam_rate=5.0, sigma=0.0):
    chan = channel.ChannelParams()
    fading = channel.FadingParams(sigma=sigma)
    positions, links = star_positions(n_tx, radius)
    tables = build_tables(positions, links, chan, fading)
    hops = np.array([-1] + [0] * n_tx)
    lam = np.full(n_tx + 1, lam_rate)
    lam[0] = 0.0
    return tables, hops, lam


def test_single_hop_network_reduces_to_link_fixed_point():
    tables, hops, lam = _star_setup()
    solution = solve_network(tables, hops, lam, MAC, TIMING)
    q = arrival_probability(5.0)
    direct = solve_fixed_point(tables, np.full(7, q), MAC, TIMING)
    # a star's arrival probabilities never move, so neither do its iterates
    for name in ("tau", "alpha_pkt", "alpha_ack", "gamma", "b000"):
        assert np.array_equal(getattr(solution.state, name), getattr(direct.state, name))
    # end-to-end over one hop is just the link reliability
    for l, node in enumerate(range(1, 8)):
        assert solution.end_to_end[node] == approx(solution.report.reliability[l], rel=1e-12)
    assert np.array_equal(solution.traffic, lam[1:])


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
    lam = np.full(n_nodes, lam_rate)
    lam[0] = 0.0
    return tables, _chain_hops(n_nodes), lam


def test_line_end_to_end_reliability_decreases_with_hops():
    for sigma in (0.0, 2.0):
        tables, hops, lam = _line_setup(sigma=sigma)
        solution = solve_network(tables, hops, lam, MAC, TIMING)
        e2e = [solution.end_to_end[node] for node in (1, 2, 3, 4)]
        assert e2e[0] < 1.0
        for nearer, farther in zip(e2e, e2e[1:]):
            assert farther < nearer


def test_line_relays_accumulate_forwarded_traffic():
    tables, hops, lam = _line_setup()
    solution = solve_network(tables, hops, lam, MAC, TIMING)
    rates = solution.traffic  # links of nodes 1, 2, 3, 4
    assert rates[0] > rates[1] > rates[2] > rates[3]
    assert rates[3] == approx(2.0, rel=1e-12)
    # node 3 carries its own traffic plus node 4's delivered share
    r43 = solution.report.reliability[3]
    assert rates[2] == approx(2.0 + r43 * 2.0, rel=1e-9)


def test_network_solution_is_outer_fixed_point():
    tables, hops, lam = _line_setup()
    solution = solve_network(tables, hops, lam, MAC, TIMING)
    qs = np.array([arrival_probability(rate) for rate in solution.traffic])
    re_solved = solve_fixed_point(tables, qs, MAC, TIMING)
    rel = Chain(re_solved.state.alpha, re_solved.state.gamma, MAC).reliability
    rates = traffic_neumann(hops, lam, dict(zip(range(1, len(hops)), rel)))
    assert float(np.max(np.abs(rates[1:] - solution.traffic))) < 1e-10


def test_network_relay_energy_profile():
    tables, hops, lam = _line_setup()
    solution = solve_network(tables, hops, lam, MAC, TIMING)
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
    solution = solve_network(build_contention_tables(s), s.hops, s.lam, s.mac, s.timing)
    link = {src: l for l, (src, _) in enumerate(s.links)}
    energy = solution.report.energy
    children = [link[c] for c, hop in enumerate(s.hops) if hop == 1]
    assert [s.links[c][0] for c in children] == [4, 5, 6]
    assert energy.relay[link[1]] == approx(energy.transmit[children].sum(), rel=1e-12)
    assert energy.relay[link[4]] == 0.0


def _tree_setup(n_nodes, lam_rate):
    s = scenario_from_config(parse_config(
        f"topology: {{kind: tree, n_nodes: {n_nodes}, branching: 3}}\n"
        f"lam: {lam_rate}\nfading: {{sigma: 1.0}}"
    ))
    return build_contention_tables(s), s.hops, s.lam


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
    tables, hops, lam = setup()
    joint = solve_network(tables, hops, lam, MAC, TIMING)
    nested = solve_network_nested(tables, hops, lam, MAC, TIMING)
    assert joint.state.alpha == approx(nested.state.alpha, rel=0, abs=1e-7)
    assert joint.state.gamma == approx(nested.state.gamma, rel=0, abs=1e-7)
    assert joint.report.reliability.shape == nested.report.reliability.shape
    assert joint.report.reliability == approx(nested.report.reliability, rel=0, abs=1e-7)
    assert joint.end_to_end.keys() == nested.end_to_end.keys()


def test_reported_traffic_solves_the_traffic_recursion():
    for tables, hops, lam in (_line_setup(n_nodes=9, lam_rate=30.0), _tree_setup(13, 30.0)):
        solution = solve_network(tables, hops, lam, MAC, TIMING)
        tx, next_link = route_links(hops)
        t = _link_matrix(next_link, solution.report.reliability)
        rates = solution.traffic
        assert rates == approx(np.asarray(lam)[tx] + t.T @ rates, rel=1e-12)


def test_network_nonconvergence_raises():
    tables, hops, lam = _line_setup()
    with pytest.raises(ConvergenceError, match="fixed point did not converge"):
        solve_network(tables, hops, lam, MAC, TIMING, config=SolverConfig(max_iter=5))


def test_network_input_validation():
    tables, hops, lam = _line_setup()
    with pytest.raises(ValidationError, match="link tables"):
        solve_network(tables[:-1], hops, lam, MAC, TIMING)
    with pytest.raises(ValidationError, match="rate vector"):
        solve_network(tables, hops, lam[:-1], MAC, TIMING)
    with pytest.raises(ValidationError, match="invalid next hop"):
        solve_network(tables, [-1, 0, 1, 2, 4], lam, MAC, TIMING)


def _scenario_setup(text):
    s = scenario_from_config(parse_config(text))
    return build_contention_tables(s), s.hops, np.asarray(s.lam)


STACKS = {
    "star": lambda: _star_setup(sigma=1.0),
    "line": lambda: _line_setup(n_nodes=6, sigma=1.0),
    # node 1 relays nodes 4 and 5: two children add into one bin
    "tree": lambda: _scenario_setup(
        "topology: {kind: tree, n_nodes: 6, branching: 3}\nlam: 5.0\nfading: {sigma: 1.0}"),
    "kappa2": lambda: _scenario_setup(
        "topology: {kind: star, n_nodes: 6}\nlam: 5.0\nfading: {sigma: 1.0, kappa: 2.0}"),
    # 15 links: 2^14 subsets each, the most that whole tables allow
    "star16": lambda: _scenario_setup(
        "topology: {kind: star, n_nodes: 16}\nlam: 5.0\nfading: {sigma: 1.0}"),
}


@pytest.mark.parametrize("name", STACKS)
def test_a_point_solves_alike_alone_and_in_any_stack(name, monkeypatch):
    tables, hops, lam = STACKS[name]()
    rates = (2.0, 30.0) if name == "star16" else (2.0, 10.0, 30.0, 5.0)
    lams = np.array([np.where(lam > 0.0, rate, 0.0) for rate in rates])
    fixed_points = []

    def recording(*args, **kwargs):
        fixed_points.append(solve_fixed_point(*args, **kwargs))
        return fixed_points[-1]

    monkeypatch.setattr(multihop, "solve_fixed_point", recording)
    stacks = [solve_network(tables, hops, lams, MAC, TIMING),
              solve_network(tables, hops, lams[::-1], MAC, TIMING)[::-1]]
    alone = [solve_network(tables, hops, row, MAC, TIMING) for row in lams]
    assert [len(results) for results in fixed_points] == [len(rates)] * 2 + [1] * len(rates)
    results = [fixed_points[0], fixed_points[1][::-1], [r for [r] in fixed_points[2:]]]
    assert stacks[0].outer_iterations == sum(s.outer_iterations for s in alone)
    for solutions, solves in zip(stacks, results):
        for p, (solution, single) in enumerate(zip(solutions, alone)):
            for field in ("tau", "alpha_pkt", "alpha_ack", "gamma", "b000"):
                assert np.array_equal(getattr(solution.state, field),
                                      getattr(single.state, field)), (p, field)
            assert np.array_equal(solution.traffic, single.traffic)
            assert np.array_equal(solution.report.delay_seconds, single.report.delay_seconds,
                                  equal_nan=True)
            assert np.array_equal(solution.report.power_mw, single.report.power_mw)
            assert solution.end_to_end == single.end_to_end
            assert solution.outer_iterations == single.outer_iterations
            assert solution.warnings == single.warnings
            assert solves[p].iterations == results[2][p].iterations
            assert solves[p].residual == results[2][p].residual
    if name in ("line", "tree"):
        assert all(s.outer_iterations > 0 for s in alone)


# points of one geometry whose tables differ: shadowing, multipath, the SINR
# threshold and the transmit power, at light and heavy rates
OWN_TABLES = (
    ("fading: {sigma: 0.0}", 2.0),
    ("fading: {sigma: 2.0}", 10.0),
    ("fading: {sigma: 1.0, kappa: 2.0}", 5.0),
    ("channel: {b_db: 10.0}\nfading: {sigma: 1.0}", 2.0),
    ("tx_power_dbm: -5.0\nfading: {sigma: 1.0}", 30.0),
    ("fading: {sigma: 1.0}", 50.0),
)


@pytest.mark.parametrize("topology, timing", [
    # long frames on the 8-hop line: the two heaviest points clamp alpha
    ("{kind: line, n_nodes: 9}", TimingParams(l_pkt=30.0)),
    ("{kind: star, n_nodes: 6}", TIMING),
    ("{kind: tree, n_nodes: 6, branching: 3}", TIMING),
])
def test_a_point_solves_alike_alone_and_in_a_stack_of_other_tables(topology, timing,
                                                                    monkeypatch):
    scenarios = [scenario_from_config(parse_config(f"topology: {topology}\nlam: {rate}\n{text}"))
                 for text, rate in OWN_TABLES]
    tables = [build_contention_tables(s) for s in scenarios]
    hops, lams = scenarios[0].hops, np.array([s.lam for s in scenarios])
    assert len({t.tobytes() for t in tables}) == len(tables)
    fixed_points = []

    def recording(*args, **kwargs):
        fixed_points.append(solve_fixed_point(*args, **kwargs))
        return fixed_points[-1]

    monkeypatch.setattr(multihop, "solve_fixed_point", recording)
    stacked = solve_network(tables, hops, lams, MAC, timing)
    alone = [solve_network(t, hops, lam, MAC, timing) for t, lam in zip(tables, lams)]
    assert [len(results) for results in fixed_points] == [len(tables)] + [1] * len(tables)
    if timing is not TIMING:
        assert [bool(s.warnings) for s in alone] == [False] * 4 + [True] * 2
    for p, (solution, single) in enumerate(zip(stacked, alone)):
        for field in ("tau", "alpha_pkt", "alpha_ack", "gamma", "b000"):
            assert np.array_equal(getattr(solution.state, field),
                                  getattr(single.state, field)), (p, field)
        assert np.array_equal(solution.traffic, single.traffic)
        for field in ("reliability", "p_cf", "p_cr", "delay_seconds", "power_mw"):
            assert np.array_equal(getattr(solution.report, field), getattr(single.report, field),
                                  equal_nan=True), (p, field)
        assert solution.end_to_end == single.end_to_end
        assert (solution.outer_iterations, solution.warnings) == (
            single.outer_iterations, single.warnings)
        [lone] = fixed_points[1 + p]
        assert fixed_points[0][p].iterations == lone.iterations
        assert fixed_points[0][p].residual == lone.residual


def test_a_stack_raises_when_one_of_its_points_fails(monkeypatch):
    # the cap that the light point meets alone stops the heavy one, and so the stack
    tables, hops, lam = _line_setup()
    light, heavy = lam, lam * 15.0
    solves = []

    def recording(*args, **kwargs):
        solves.append(solve_fixed_point(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(multihop, "solve_fixed_point", recording)
    solve_network(tables, hops, [light, heavy], MAC, TIMING)
    counts = [result.iterations for result in solves[0]]
    assert counts[0] < counts[1]
    config = SolverConfig(max_iter=counts[0])
    assert solve_network(tables, hops, light, MAC, TIMING, config=config).warnings == []
    with pytest.raises(ConvergenceError, match=f"did not converge after {counts[0]} iterations"):
        solve_network(tables, hops, [light, heavy], MAC, TIMING, config=config)
    with pytest.raises(ValidationError, match="rate vector"):
        solve_network(tables, hops, [[lam]], MAC, TIMING)
    with pytest.raises(ValidationError, match="qs length"):
        solve_fixed_point(np.broadcast_to(tables, (2, len(tables))), lam[1:], MAC, TIMING)
    with pytest.raises(ValidationError, match="qs length"):  # a stack of no points
        solve_network(tables, hops, np.zeros((0, len(hops))), MAC, TIMING)
