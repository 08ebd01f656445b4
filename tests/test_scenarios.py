"""Config parsing, topology construction, and compilation to both engines."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from csmafade import channel, scenarios
from csmafade.errors import ValidationError
from csmafade.macmodel import SubsetList
from csmafade.scenarios import (
    Topology,
    apply_override,
    build_contention_tables,
    compile_sim_network,
    load_config,
    parse_config,
    scenario_from_config,
)

import topo_helpers
from one_point import whole


MINIMAL_STAR = """
topology:
  kind: star
  n_nodes: 3
lam: 5.0
"""


def scenario_of(text, **overrides):
    config = parse_config(text, "inline.yaml")
    for assignment in overrides.pop("set", ()):
        apply_override(config, assignment)
    return scenario_from_config(config, default_id="inline")


def test_minimal_config_fills_documented_defaults():
    s = scenario_of(MINIMAL_STAR)
    assert (s.mac.m0, s.mac.mb, s.mac.m, s.mac.n) == (3, 5, 4, 0)
    assert s.timing.l_pkt == pytest.approx(7.0)
    assert s.timing.l_ack == pytest.approx(1.1)
    assert s.channel.c0_db == -55.0 and s.channel.k == 2.0
    assert s.channel.a_dbm == -76.0 and s.channel.b_db == 6.0
    assert s.fading.sigma == 0.0 and s.fading.kappa is None
    assert s.sim.horizon_seconds == 200.0 and s.sim.replications == 20


def test_scalar_rate_expands_to_transmitters_only():
    s = scenario_of(MINIMAL_STAR)
    assert s.lam == (0.0, 5.0, 5.0)


def test_string_rate_is_one_scalar():
    # YAML 1.1 reads 1e-3 (no dot) as a string; it must not be split per character
    assert scenario_of(MINIMAL_STAR, set=["lam=1e-3"]).lam == (0.0, 0.001, 0.001)
    assert scenario_of(MINIMAL_STAR.replace("5.0", "'055'")).lam == (0.0, 55.0, 55.0)


def test_unparseable_string_rate_names_lam():
    with pytest.raises(ValidationError, match="lam='abc'"):
        scenario_of(MINIMAL_STAR, set=["lam=abc"])
    for value in ("nan", ".inf", "-1"):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            scenario_of(MINIMAL_STAR, set=[f"lam={value}"])


def test_fading_rho_is_rejected_as_unknown_key():
    text = MINIMAL_STAR + "fading: {sigma: 1, rho: [[1, .9, .9], [.9, 1, .9], [.9, .9, 1]]}\n"
    with pytest.raises(ValidationError, match="unknown key 'rho'"):
        scenario_of(text)


def test_mac_fields_must_be_integers():
    s = scenario_of(MINIMAL_STAR, set=["mac.m0=2.0", "mac.n=3"])
    assert s.mac.m0 == 2 and type(s.mac.m0) is int
    for bad in ("mac.m0=2.5", "mac.mb=x", "mac.m=true", "mac.n=1.5"):
        with pytest.raises(ValidationError, match=r"mac\.\w+ must be an integer"):
            scenario_of(MINIMAL_STAR, set=[bad])


def test_sigma_db_uses_the_power_convention():
    s = scenario_of(MINIMAL_STAR, set=["fading.sigma_db=8.686"])
    assert s.fading.sigma == pytest.approx(2.0, rel=1e-4)


def test_numeric_string_in_a_float_field_is_parsed():
    # YAML 1.1 reads 1e-3 (no decimal point) as a string
    s = scenario_of(MINIMAL_STAR, set=["fading.sigma=1e-3"])
    assert s.fading.sigma == 0.001


def test_sigma_and_sigma_db_together_are_rejected():
    text = MINIMAL_STAR + "fading: {sigma: 1.0, sigma_db: 8.686}\n"
    with pytest.raises(ValidationError, match="sigma"):
        scenario_of(text)


def test_packet_bytes_convert_to_backoff_units():
    s = scenario_of(MINIMAL_STAR + "timing: {packet_bytes: 50, ack_bytes: 22}\n")
    assert s.timing.l_pkt == pytest.approx(5.0)
    assert s.timing.l_ack == pytest.approx(2.2)


def test_bytes_and_units_together_are_rejected():
    text = MINIMAL_STAR + "timing: {packet_bytes: 50, l_pkt: 5.0}\n"
    with pytest.raises(ValidationError, match="l_pkt"):
        scenario_of(text)


def test_unknown_keys_are_rejected_everywhere():
    with pytest.raises(ValidationError, match="unknown top-level"):
        scenario_of(MINIMAL_STAR + "lambda: 3\n")
    with pytest.raises(ValidationError, match="unknown key"):
        scenario_of(MINIMAL_STAR + "mac: {backoffs: 9}\n")


def test_parse_error_carries_source_and_line():
    with pytest.raises(ValidationError, match=r"broken\.yaml:"):
        parse_config("topology: [unclosed", "broken.yaml")


def test_override_parses_yaml_scalars():
    config = parse_config(MINIMAL_STAR, "inline.yaml")
    apply_override(config, "sim.replications=5")
    apply_override(config, "scenario_id=night-run")
    assert config["sim"]["replications"] == 5
    assert config["scenario_id"] == "night-run"
    with pytest.raises(ValidationError, match="key=value"):
        apply_override(config, "no-equals-sign")


def test_override_keeps_scalars_and_fills_empty_levels():
    config = parse_config(MINIMAL_STAR + "fading:\n", "inline.yaml")
    with pytest.raises(ValidationError, match="'lam'"):
        apply_override(config, "lam.x=1")
    assert config["lam"] == 5.0
    apply_override(config, " fading . sigma =2")
    assert config["fading"] == {"sigma": 2}
    with pytest.raises(ValidationError, match="empty key"):
        apply_override(config, "fading..sigma=1")


def test_explicit_positions_must_be_finite_pairs():
    with pytest.raises(ValidationError, match=r"\(x, y\) pairs"):
        Topology(kind="explicit", positions_m=((0.0, 0.0), (1.0, 0.0, 0.0)), next_hop=(-1, 0))
    with pytest.raises(ValidationError, match=r"\(x, y\) pairs"):
        Topology(kind="explicit", positions_m=((0.0, 0.0), (math.inf, 0.0)), next_hop=(-1, 0))
    with pytest.raises(ValidationError, match="positions_m"):
        scenario_of("topology: {kind: explicit, positions_m: [[0, 0], 5], next_hop: [-1, 0]}")


@pytest.mark.parametrize("kind", ["star", "line", "tree"])
def test_generated_topologies_refuse_explicit_routing_and_placement(kind):
    with pytest.raises(ValidationError, match=f"next_hop .* only, not '{kind}'"):
        Topology(kind=kind, n_nodes=3, next_hop=(-1, -1, 0))
    with pytest.raises(ValidationError, match=r"invalid config value in topology: positions_m"):
        scenario_of(f"topology: {{kind: {kind}, n_nodes: 2, positions_m: [[0, 0], [1, 0]]}}")


def test_coincident_nodes_are_a_config_error():
    with pytest.raises(ValidationError, match="distance"):
        scenario_of("topology: {kind: explicit, positions_m: [[1, 2], [1, 2]], next_hop: [-1, 0]}")
    with pytest.raises(ValidationError, match=r"topology\.positions_m: nodes 1 and 3 coincide"):
        scenario_of(
            "topology: {kind: explicit, positions_m: [[0, 0], [1, 2], [3, 0], [1, 2]], "
            "next_hop: [-1, 0, 0, 0]}"
        )


def test_line_topology_hops_and_spacing():
    topo = Topology(kind="line", n_nodes=4, spacing_m=2.0)
    assert list(topo.hops()) == [-1, 0, 1, 2]
    pos = topo.positions()
    for h in range(1, 4):
        assert math.dist(pos[h], pos[h - 1]) == pytest.approx(2.0)


def test_star_topology_is_a_sink_plus_a_ring():
    topo = Topology(kind="star", n_nodes=5, spacing_m=3.0)
    assert list(topo.hops()) == [-1, 0, 0, 0, 0]
    pos = topo.positions()
    assert tuple(pos[0]) == (0.0, 0.0)
    for p in pos[1:]:
        assert math.hypot(*p) == pytest.approx(3.0)


@pytest.mark.parametrize("n_tx", [2, 7, 11, 14])
def test_star_gains_are_exactly_symmetric(n_tx):
    # equal distances give bit-equal gains, so equal contention rows match exactly
    s = scenario_of(f"topology: {{kind: star, n_nodes: {n_tx + 1}, spacing_m: 1.5}}\nlam: 1.0\n")
    gain = s.mean_gain_mw
    ring = gain[1:, 1:]
    np.testing.assert_array_equal(np.roll(ring, 1, axis=(0, 1)), ring)
    np.testing.assert_array_equal(ring, ring.T)
    assert len(set(ring[~np.eye(n_tx, dtype=bool)])) == n_tx // 2
    assert len(set(gain[0, 1:])) == len(set(gain[1:, 0])) == 1
    positions = s.topology.positions()
    for i, j in [(0, 1), (1, 2), (1, n_tx // 2 + 1), (n_tx, 1)]:
        d = math.dist(positions[i], positions[j])
        assert gain[i, j] == pytest.approx(channel.mean_rx_power(0.0, d, s.channel), rel=1e-12)


def test_tree_topology_parents_follow_breadth_first_order():
    topo = Topology(kind="tree", n_nodes=7, branching=2)
    assert list(topo.hops()) == [-1, 0, 0, 1, 1, 2, 2]


def test_timing_off_the_symbol_grid_is_rejected_for_both_engines():
    with pytest.raises(ValidationError, match="whole number of symbols"):
        scenario_of(MINIMAL_STAR + "timing: {packet_bytes: 7.3}\n")


def test_geometry_is_derived_once_and_shared_by_both_engines():
    s = scenario_of("topology: {kind: tree, n_nodes: 7, branching: 2}\nlam: 1.0\n")
    assert s.hops is s.hops and s.links is s.links
    assert compile_sim_network(s).mean_gain_mw is s.mean_gain_mw
    assert not s.mean_gain_mw.flags.writeable
    positions = s.topology.positions()
    for i, j in [(1, 0), (0, 6), (3, 4)]:
        d = math.dist(positions[i], positions[j])
        assert s.mean_gain_mw[i, j] == channel.mean_rx_power(0.0, d, s.channel)
    assert (np.diag(s.mean_gain_mw) == 0.0).all()


def test_cyclic_explicit_routing_is_rejected():
    text = """
topology:
  kind: explicit
  positions_m: [[0, 0], [1, 0], [2, 0]]
  next_hop: [1, 2, 0]
lam: [1.0, 1.0, 1.0]
"""
    with pytest.raises(ValidationError, match="sink"):
        scenario_of(text)


def test_generating_node_without_route_is_rejected():
    text = """
topology:
  kind: explicit
  positions_m: [[0, 0], [1, 0], [2, 0]]
  next_hop: [-1, 0, -1]
lam: [0.0, 1.0, 1.0]
"""
    with pytest.raises(ValidationError, match="no route"):
        scenario_of(text)


def _tables_equal(a, b):
    np.testing.assert_allclose(a.p_det, b.p_det, rtol=0, atol=0)
    np.testing.assert_allclose(a.p_out, b.p_out, rtol=0, atol=0)
    assert a.p_fad == b.p_fad


def test_contention_tables_match_reference_construction():
    s = scenario_of(MINIMAL_STAR + "fading: {sigma: 1.5}\n")
    positions = s.topology.positions()
    links = s.links
    reference = topo_helpers.build_tables(positions, links, s.channel, s.fading)
    built = build_contention_tables(s, whole(s))
    assert len(built) == len(reference) == 2
    for mine, ref in zip(built, reference):
        _tables_equal(mine, ref)


@pytest.mark.parametrize("kappa", [None, 2.0])
def test_batched_detection_table_equals_per_subset_detection(kappa):
    # build_contention_tables fits every subset of a link in one batch; the
    # reference fits each subset alone, as a one-row batch, so each row must
    # come out of the batch exactly as it does alone
    s = scenario_of(
        "topology: {kind: star, n_nodes: 6}\nlam: 5.0\nfading: {sigma: 1.5}\n",
        set=[f"fading.kappa={'null' if kappa is None else kappa}"],
    )
    assert s.fading.kappa == kappa
    reference = topo_helpers.build_tables(s.topology.positions(), s.links, s.channel, s.fading)
    built = build_contention_tables(s, whole(s))
    assert len(built) == len(reference) == 5
    for mine, ref in zip(built, reference):
        assert len(mine.p_det) == 2**4
        _tables_equal(mine, ref)


@pytest.mark.parametrize("kappa", [None, 2.0])
@pytest.mark.parametrize(
    "topology",
    [
        "{kind: star, n_nodes: 2}",
        "{kind: star, n_nodes: 8}",
        "{kind: line, n_nodes: 7}",
        "{kind: tree, n_nodes: 10, branching: 3}",
    ],
)
def test_shared_rows_equal_the_per_link_construction(topology, kappa):
    # a row fitted once and copied to its repeats, on whichever link it first
    # occurs, must carry the bits each link's own batched call gives it
    s = scenario_of(
        f"topology: {topology}\nlam: 5.0\nfading: {{sigma: 1.5}}\n",
        set=[f"fading.kappa={'null' if kappa is None else kappa}"],
    )
    reference = topo_helpers.build_tables_per_link(s.mean_gain_mw, s.links, s.channel, s.fading)
    built = build_contention_tables(s, whole(s))
    assert len(built) == len(reference) == len(s.links)
    for mine, ref in zip(built, reference):
        _tables_equal(mine, ref)


def test_tables_fit_each_distinct_subset_sum_once(monkeypatch):
    # one detection and one outage call per build, on a star, a line and a
    # tree, which see each distinct subset sum once; the outage call makes one
    # moment fit and, the useful link carrying multipath, one quadrature pass
    fitted = {"detection_probability": [], "outage_probability": []}
    calls = {name: 0 for name in (*fitted, "mma_fit", "lognormal_expectation")}

    def chosen(terms):
        return [tuple(sorted(w for w in row if w > 0.0)) for row in terms]

    def detection(terms, *args, _fn=channel.detection_probability):
        calls["detection_probability"] += 1
        fitted["detection_probability"] += chosen(terms)
        return _fn(terms, *args)

    def outage(useful, terms, *args, _fn=channel.outage_probability):
        calls["outage_probability"] += 1
        fitted["outage_probability"] += [(u, *c) for u, c in zip(useful, chosen(terms))]
        return _fn(useful, terms, *args)

    def counted(name):
        fn = getattr(channel, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("mma_fit", "lognormal_expectation"):
        monkeypatch.setattr(channel, name, counted(name))
    monkeypatch.setattr(channel, "detection_probability", detection)
    monkeypatch.setattr(channel, "outage_probability", outage)
    for topology in ("{kind: star, n_nodes: 10}", "{kind: line, n_nodes: 9}",
                     "{kind: tree, n_nodes: 15}"):
        for record in (calls, fitted):
            record.update((name, type(value)()) for name, value in record.items())
        s = scenario_of(f"topology: {topology}\nlam: 5.0\nfading: {{sigma: 1.5, kappa: 2}}\n")
        tables = build_contention_tables(s, whole(s))
        n_links, k = len(s.links), len(s.links) - 1
        assert len(tables) == n_links and len(tables[0].p_out) == 2**k
        assert calls == {name: 1 for name in calls}, topology

        # the distinct multisets of gains over all links' subsets, counted the long way
        gain, bits = s.mean_gain_mw, SubsetList(k, k).bits
        det, out = set(), set()
        for l, (tx, rx) in enumerate(s.links):
            senders = [s.links[o][0] for o in range(n_links) if o != l]
            for row in bits:
                on = [z for z in range(k) if row[z]]
                det.add(tuple(sorted(gain[senders[z], tx] for z in on)))
                if rx not in [senders[z] for z in on]:
                    out.add((gain[tx, rx], *sorted(gain[senders[z], rx] for z in on)))
        assert sorted(fitted["detection_probability"]) == sorted(det)
        assert sorted(fitted["outage_probability"]) == sorted(out)
        if s.topology.kind == "star":
            assert len(det) < n_links * 2**k // 10 and len(out) == k + 1


# sha256 of the p_det, p_out and p_fad bytes of ten table sets, recorded
# before the channel fits took rows of terms.  The sets cover one detection
# call joined over all links (the stars and the 9-node line) and one per link
# (the trees and the 12-node line), kappa None, 0.7 (_gammainc), integer and
# 1.5.  Depths are the sets' start depths at lam = 5 (start_depths), except
# the 20-node star's 5, or the whole table (None).  A mismatch means the fit
# moved: fix the code, never re-record.
TABLE_FINGERPRINTS = {
    "star12-s1": ("{kind: star, n_nodes: 12}", "{sigma: 1.0}", 4,
                  "c97a867d1bb7021d1b34fabdb52290e19eb82960c28b324259d511ce7aa2b6cd"),
    "star12-s2-k2": ("{kind: star, n_nodes: 12}", "{sigma: 2.0, kappa: 2}", 4,
                     "8750a0d96c67961f7dee3a7129b891c7b3d44e913f950eeab3e93aae7475eb7a"),
    "star12-k1.5-whole": ("{kind: star, n_nodes: 12}", "{sigma: 1.0, kappa: 1.5}", None,
                          "94d3a103a4ee2cd3332f6aa52b1c0e098dd8f1e89711a876277d692352786b52"),
    "star8-s0": ("{kind: star, n_nodes: 8}", "{sigma: 0.0}", None,
                 "6d46320c5ed6cbafd66ab7b882bbdbe2ab4fc9a0ef828e9f086b888ee7fe1ec7"),
    "line9": ("{kind: line, n_nodes: 9}", "{sigma: 2.0}", None,
              "f17593966dda057b20909e9b728be3b4e1ded39c20d9bd530f27e28d5d1d50bd"),
    "tree9-k3": ("{kind: tree, n_nodes: 9}", "{sigma: 1.5, kappa: 3}", None,
                 "9a3668a3dd633b47f83785e83dbda094f7f954ffb7da8e244b83b0b29c27899b"),
    "star20-depth5": ("{kind: star, n_nodes: 20}", "{sigma: 1.0}", 5,
                      "c2ac723715ab49a6462026cd0c918cd6888e28fe795946ae9b6d47335ac067ff"),
    "tree15": ("{kind: tree, n_nodes: 15}", "{sigma: 2.0}", 4,
               "5f40926e3689c30c1976701422720029f13c3644de8d5e3f543c45d41fad5f5d"),
    "line12-k2": ("{kind: line, n_nodes: 12}", "{sigma: 1.5, kappa: 2}", 10,
                  "9a8d88039bee4c31ab578e61518aee9ae3db036646fd96e9b0bdbbd2cc939264"),
    "tree13-ternary-k0.7": ("{kind: tree, n_nodes: 13, branching: 3}",
                            "{sigma: 1.0, kappa: 0.7}", 4,
                            "3f67a06ad9266a19b077bbe1e8b47ad4b8fdfa0d3bc673017524b078772ed8c2"),
}


@pytest.mark.parametrize("case", sorted(TABLE_FINGERPRINTS))
def test_tables_match_recorded_fingerprint(case):
    topology, fading, depth, digest = TABLE_FINGERPRINTS[case]
    s = scenario_of(f"topology: {topology}\nlam: 5.0\nfading: {fading}\n")
    k = len(s.links) - 1
    tables = build_contention_tables(s, SubsetList(k, k if depth is None else depth))
    h = hashlib.sha256()
    for field in ("p_det", "p_out", "p_fad"):
        h.update(np.ascontiguousarray(tables[field]).tobytes())
    assert h.hexdigest() == digest


def test_sim_network_matches_reference_construction():
    s = scenario_of(MINIMAL_STAR + "fading: {sigma: 0.5}\n")
    positions = s.topology.positions()
    links = s.links
    ref = topo_helpers.build_sim_network(
        positions, links, list(s.lam), s.channel, s.fading
    )
    net = compile_sim_network(s)
    np.testing.assert_allclose(net.mean_gain_mw, ref.mean_gain_mw)
    np.testing.assert_array_equal(net.next_hop, ref.next_hop)
    np.testing.assert_allclose(net.lam, ref.lam)
    assert net.channel == ref.channel and net.fading == ref.fading


def test_bundled_configs_all_validate():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    names = sorted(p.name for p in root.glob("*.yaml"))
    assert names, "no bundled configs found"
    for name in names:
        scenario_from_config(load_config(root / name))
