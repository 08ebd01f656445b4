"""Event-driven simulator: determinism, physics, and agreement checks."""

import dataclasses
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from pytest import approx

from one_point import fixed_point
from topo_helpers import build_sim_network, build_tables, line_positions, star_positions

from csmafade.channel import ChannelParams, FadingParams
from csmafade.errors import NumericsError, ValidationError
from csmafade.macmodel import (
    Chain,
    MacParams,
    TimingParams,
    arrival_probability,
)
from csmafade.metrics import PowerProfile
from csmafade.scenarios import compile_sim_network, load_config, scenario_from_config
from csmafade.simulator import (
    IDLE,
    SLEEP,
    TX,
    ExperimentResult,
    SimConfig,
    SimNetwork,
    SimStats,
    backoff_slots,
    measure_energy,
    run_experiment,
    run_replication,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHAN = ChannelParams()
NO_FADING = FadingParams()


def single_link_net(lam, sigma=0.0):
    positions, links = star_positions(1, 1.0)
    return build_sim_network(positions, links, [0.0, lam], CHAN, FadingParams(sigma=sigma))


def star_net(lam, sigma=0.0, n_tx=7, radius=1.0):
    positions, links = star_positions(n_tx, radius)
    return build_sim_network(
        positions, links, [0.0] + [lam] * n_tx, CHAN, FadingParams(sigma=sigma)
    )


def analytic_star(lam, sigma=0.0, n_tx=7, radius=1.0):
    positions, links = star_positions(n_tx, radius)
    tables = build_tables(positions, links, CHAN, FadingParams(sigma=sigma))
    q = arrival_probability(lam)
    return fixed_point(tables, (q,) * n_tx, MacParams(), TimingParams()).state


def test_replications_are_reproducible():
    net = star_net(10.0, sigma=1.0)
    config = SimConfig(horizon_seconds=20.0, replications=1, master_seed=17)
    a = run_replication(net, config, 0)
    b = run_replication(net, config, 0)
    assert np.array_equal(a.generated, b.generated)
    assert np.array_equal(a.success, b.success)
    assert np.array_equal(a.delay_symbols_sum, b.delay_symbols_sum)
    assert np.array_equal(a.residency, b.residency)


def test_replication_streams_are_independent():
    net = star_net(10.0)
    config = SimConfig(horizon_seconds=20.0, replications=1, master_seed=17)
    a = run_replication(net, config, 0)
    b = run_replication(net, config, 1)
    assert not np.array_equal(a.delay_symbols_sum, b.delay_symbols_sum)


def test_generation_matches_poisson_rate():
    # lam=5 over 200 s: 1000 expected, allow 3 standard deviations
    s = run_replication(
        single_link_net(5.0),
        SimConfig(horizon_seconds=200.0, replications=1, master_seed=5),
        0,
    )
    assert abs(s.generated[0] - 1000) < 3 * np.sqrt(1000)


def test_generation_scales_with_horizon():
    net = single_link_net(5.0)
    short = run_replication(net, SimConfig(horizon_seconds=100.0, master_seed=8), 0)
    long = run_replication(net, SimConfig(horizon_seconds=200.0, master_seed=8), 0)
    assert long.generated[0] / short.generated[0] == approx(2.0, abs=0.25)


def test_packet_conservation_under_load():
    net = star_net(10.0, sigma=2.0)
    for rep in range(3):
        s = run_replication(
            net, SimConfig(horizon_seconds=50.0, replications=1, master_seed=7), rep
        )
        assert (s.conservation_gap() == 0).all()


def test_conservation_with_drops_and_in_flight():
    # overload a single node so the horizon cuts a service mid-flight
    s = run_replication(
        single_link_net(300.0),
        SimConfig(horizon_seconds=0.02, replications=1, master_seed=2),
        0,
    )
    assert s.queue_dropped[0] > 0
    assert s.in_flight[0] == 1
    assert (s.conservation_gap() == 0).all()


def test_clean_channel_is_lossless():
    # one transmitter, 37 dB of SNR margin: every completed packet succeeds
    result = run_experiment(
        single_link_net(2.0), SimConfig(horizon_seconds=100.0, replications=4, master_seed=3)
    )
    assert result.reliability_mean[0] == 1.0
    assert result.busy_cca_mean[0] == 0.0
    assert result.data_loss_mean[0] == 0.0


def test_uncontended_delay_is_backoff_plus_transaction():
    # mean 3.5 backoff slots + sensing + frame + ACK exchange = 16.7 units
    result = run_experiment(
        single_link_net(2.0), SimConfig(horizon_seconds=100.0, replications=4, master_seed=3)
    )
    expected = 16.7 * 320e-6
    assert result.delay_mean_seconds[0] == approx(expected, abs=3 * result.delay_ci95_seconds[0])
    assert result.delay_ci95_seconds[0] < 0.1e-3


def test_hidden_pair_collides_without_sensing():
    # two transmitters out of carrier range of each other, sink in between
    positions = [(0.0, 0.0), (-6.0, 0.0), (6.0, 0.0)]
    links = [(1, 0), (2, 0)]
    net = build_sim_network(positions, links, [0.0, 50.0, 50.0], CHAN, NO_FADING)
    result = run_experiment(net, SimConfig(horizon_seconds=100.0, replications=4, master_seed=9))
    assert (result.busy_cca_mean < 0.03).all()
    assert (result.data_loss_mean > 0.10).all()


def test_exposed_pair_senses_instead_of_colliding():
    positions = [(0.0, 0.0), (-1.0, 0.0), (1.0, 0.0)]
    links = [(1, 0), (2, 0)]
    net = build_sim_network(positions, links, [0.0, 50.0, 50.0], CHAN, NO_FADING)
    result = run_experiment(net, SimConfig(horizon_seconds=100.0, replications=4, master_seed=9))
    assert (result.busy_cca_mean > 0.08).all()
    assert (result.data_loss_mean < 0.05).all()


def test_busy_cca_rate_matches_model():
    result = run_experiment(
        star_net(1.0), SimConfig(horizon_seconds=200.0, replications=4, master_seed=41)
    )
    alpha = analytic_star(1.0).alpha[0]
    assert np.mean(result.busy_cca_mean) == approx(alpha, abs=0.02)


def test_frame_loss_rate_matches_model_under_shadowing():
    result = run_experiment(
        star_net(10.0, sigma=3.0),
        SimConfig(horizon_seconds=100.0, replications=6, master_seed=51),
    )
    gamma = analytic_star(10.0, sigma=3.0).gamma[0]
    assert np.mean(result.data_loss_mean) == approx(gamma, abs=0.03)


def test_transmit_airtime_matches_model():
    result = run_experiment(
        star_net(2.0), SimConfig(horizon_seconds=100.0, replications=4, master_seed=21)
    )
    state = analytic_star(2.0)
    predicted = (1.0 - state.alpha[0]) * state.tau[0] * TimingParams().l_pkt
    fraction = np.mean(
        [s.residency[1:, TX] / s.horizon_symbols for s in result.stats]
    )
    assert fraction == approx(predicted, rel=0.10)


def test_relay_forwards_every_reception():
    positions, links = line_positions(3, 1.0)
    net = build_sim_network(positions, links, [0.0, 0.0, 2.0], CHAN, NO_FADING)
    s = run_replication(net, SimConfig(horizon_seconds=100.0, master_seed=61), 0)
    assert s.transmitters == (1, 2)
    # every frame delivered on 2->1 is offered to node 1's queue
    assert abs(s.generated[0] - s.success[1]) <= 1
    assert s.success[0] > 0


def test_idle_network_sleeps_or_listens():
    positions, links = line_positions(3, 1.0)
    net = build_sim_network(positions, links, [0.0, 0.0, 0.0], CHAN, NO_FADING)
    s = run_replication(net, SimConfig(horizon_seconds=10.0, master_seed=1), 0)
    profile = PowerProfile()
    power = measure_energy(s, profile)
    assert power[0] == approx(profile.p_idle)   # sink keeps its receiver on
    assert power[1] == approx(profile.p_idle)   # relay likewise
    assert power[2] == approx(profile.p_sleep)  # leaf sleeps
    assert s.residency[2, SLEEP] == s.horizon_symbols


def test_energy_accounting_gap_is_an_error():
    s = run_replication(
        single_link_net(2.0), SimConfig(horizon_seconds=10.0, master_seed=1), 0
    )
    s.residency[0, IDLE] -= 1
    with pytest.raises(NumericsError):
        measure_energy(s, PowerProfile())


def test_links_without_a_completed_packet_raise_no_numpy_warning():
    # at 0.5 packets/s for 1 s some of star7's links complete nothing
    scenario = scenario_from_config(load_config(
        ROOT / "configs" / "star7.yaml", ["lam=0.5", "sim.horizon_seconds=1", "sim.replications=2"]
    ))
    net = compile_sim_network(scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(net, scenario.sim, scenario.power)
    assert np.isnan(result.reliability_mean).any()
    assert np.isnan(result.delay_ci95_seconds).any()


def test_ack_loss_toggle_only_adds_failures():
    net = star_net(10.0, sigma=2.0)
    on = run_experiment(net, SimConfig(horizon_seconds=50.0, replications=3, master_seed=13))
    off = run_experiment(
        net,
        SimConfig(horizon_seconds=50.0, replications=3, master_seed=13, ack_loss=False),
    )
    assert all((s.ack_failed == 0).all() for s in off.stats)
    assert sum(s.ack_failed.sum() for s in on.stats) > 0
    assert (off.reliability_mean >= on.reliability_mean - 1e-12).all()


def test_interval_halves_as_replications_quadruple():
    net = single_link_net(10.0, sigma=1.0)
    ten = run_experiment(net, SimConfig(horizon_seconds=20.0, replications=10, master_seed=31))
    forty = run_experiment(net, SimConfig(horizon_seconds=20.0, replications=40, master_seed=31))
    ratio = forty.delay_ci95_seconds[0] / ten.delay_ci95_seconds[0]
    assert 0.3 < ratio < 0.8


def test_parallel_workers_reproduce_serial_run():
    net = star_net(5.0, n_tx=3)
    config = SimConfig(horizon_seconds=10.0, replications=3, master_seed=23)
    serial = run_experiment(net, config, workers=1)
    parallel = run_experiment(net, config, workers=2)
    for a, b in zip(serial.stats, parallel.stats):
        assert np.array_equal(a.generated, b.generated)
        assert np.array_equal(a.delay_symbols_sum, b.delay_symbols_sum)
        assert np.array_equal(a.residency, b.residency)


def test_backoff_slots_match_generator_integers():
    emulated = np.random.default_rng(np.random.SeedSequence(entropy=(11, 3)))
    reference = np.random.default_rng(np.random.SeedSequence(entropy=(11, 3)))
    draw = backoff_slots(emulated)
    for i in range(4000):
        be = i % 9
        assert draw(be) == reference.integers(0, 2**be), (i, be)
        # the simulator's other draws, interleaved in varying patterns
        if i % 2:
            assert emulated.normal(0.0, 1.5, 8).tolist() == reference.normal(0.0, 1.5, 8).tolist()
        if i % 3:
            assert emulated.standard_exponential() == reference.exponential(1.0)
        if i % 5 < 2:
            kappa = 0.5 if i % 5 else 2.0
            assert (emulated.gamma(kappa, 1.0 / kappa, 8).tolist()
                    == reference.gamma(kappa, 1.0 / kappa, 8).tolist())
    # both consumed the same 64-bit outputs (the generator's own buffered
    # 32-bit half differs: the emulation keeps that half itself)
    assert emulated.bit_generator.state["state"] == reference.bit_generator.state["state"]


def test_workers_below_one_are_rejected():
    net = star_net(5.0, n_tx=2)
    with pytest.raises(ValidationError, match="workers"):
        run_experiment(net, SimConfig(horizon_seconds=1.0, replications=2), workers=0)


def test_event_trace_is_well_formed():
    buffer = io.StringIO()
    run_replication(
        single_link_net(20.0),
        SimConfig(horizon_seconds=1.0, master_seed=1),
        0,
        trace=buffer,
    )
    lines = buffer.getvalue().strip().splitlines()
    assert len(lines) > 10
    times = []
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 4
        times.append(int(fields[0]))
        assert fields[2] in {
            "backoff", "cca", "data_tx", "data_end", "ack", "drop", "service_end",
        }
    assert times == sorted(times)


def test_rejects_timing_not_on_the_symbol_grid():
    # the timing itself refuses durations the symbol clock cannot run
    with pytest.raises(ValidationError, match="whole number of symbols"):
        TimingParams(l_pkt=7.015)


def test_an_absurd_rate_does_not_stop_the_clock():
    # At 1e18 packets/s an arrival gap is below the float spacing at `now` after
    # a few hundred ticks; it once rounded back onto `now` and the replication
    # never ended.  Run in a subprocess, so that a regression fails, not hangs.
    script = (
        "import json, sys\n"
        "from csmafade.scenarios import compile_sim_network, load_config, scenario_from_config\n"
        "from csmafade.simulator import run_replication\n"
        "config = load_config(sys.argv[1], ['lam=1e18', 'sim.horizon_seconds=1'])\n"
        "s = scenario_from_config(config)\n"
        "stats = run_replication(compile_sim_network(s), s.sim, 0)\n"
        "print(json.dumps([stats.horizon_symbols, stats.generated.tolist(),\n"
        "                  stats.conservation_gap().tolist()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "configs" / "tiny3.yaml")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    horizon, generated, gap = json.loads(proc.stdout)
    # one arrival a tick on each sender, from tick 1 to the horizon's last
    assert generated == [horizon - 1, horizon - 1]
    assert gap == [0, 0]


def test_network_and_config_validation():
    net = single_link_net(2.0)
    with pytest.raises(ValidationError):
        SimConfig(horizon_seconds=0.0)
    with pytest.raises(ValidationError):
        SimConfig(replications=0)
    # single-value knobs do not exist: a config that sets one is rejected
    for knob, value in (("queue_capacity", 1), ("fading_redraw", "per_packet")):
        config = {"topology": {"kind": "star", "n_nodes": 3}, "sim": {knob: value}}
        with pytest.raises(ValidationError, match="unknown key"):
            scenario_from_config(config)
    with pytest.raises(ValidationError):
        SimNetwork(
            mean_gain_mw=np.zeros((2, 3)),
            lam=np.zeros(2),
            next_hop=np.array([-1, 0]),
            channel=ChannelParams(),
            fading=FadingParams(),
            mac=MacParams(),
            timing=TimingParams(),
        )
    # node 1 routes to itself; nodes 1 and 2 route to each other beside a sink
    for next_hop in ([1, 1], [-1, 2, 1]):
        n = len(next_hop)
        with pytest.raises(ValidationError, match="invalid next hop|cycle"):
            SimNetwork(
                mean_gain_mw=np.zeros((n, n)),
                lam=np.zeros(n),
                next_hop=np.array(next_hop),
                channel=ChannelParams(),
                fading=FadingParams(),
                mac=MacParams(),
                timing=TimingParams(),
            )


def test_reliability_against_model_at_moderate_load():
    result = run_experiment(
        star_net(5.0, sigma=1.0),
        SimConfig(horizon_seconds=100.0, replications=6, master_seed=77),
    )
    state = analytic_star(5.0, sigma=1.0)
    predicted = Chain(state.alpha[0], state.gamma[0], MacParams()).reliability
    assert np.mean(result.reliability_mean) == approx(predicted, abs=0.02)


# Exactness oracle for the event loop.  Each case is one short replication
# built through the production config path; the digests cover every SimStats
# array (name, dtype, shape, bytes) and, separately, the full event trace.
# They were recorded at commit 8dbc3c69c05fc9eb637cd4b5a7d4c8d1ae69160f,
# before the loop was restructured.  A mismatch means the random stream or
# the event order moved: fix the simulator, never re-record the digests.
FINGERPRINT_CASES = {
    "star7-lam10-sigma1-kappa2": (
        {"topology": {"kind": "star", "n_nodes": 8}, "lam": 10.0,
         "fading": {"sigma": 1.0, "kappa": 2.0},
         "sim": {"horizon_seconds": 20.0, "master_seed": 1}},
        "4887e8398aa507285cb44d7610eaa638ef71ad41d26cee07de9a14129f926898",
        "22902bfcea6373151a76be5bf2ae126ac49b690ad0531b3ac3f16a39b4b0695e",
    ),
    "line5-relay-sigma1": (
        {"topology": {"kind": "line", "n_nodes": 6}, "lam": [0, 2.0, 2.0, 2.0, 2.0, 2.0],
         "fading": {"sigma": 1.0},
         "sim": {"horizon_seconds": 20.0, "master_seed": 1}},
        "1d5e352edc7b731593519cfefe4a08a3e7997c80974596c7dfb9a08eec994e30",
        "fbec8f511cb3cdedf4bf9825a66e099279b8dc59087d0f94d7c597bc341b0266",
    ),
    "tiny3-ack-loss": (
        {"topology": {"kind": "star", "n_nodes": 3}, "lam": 20.0,
         "fading": {"sigma": 3.0},
         "sim": {"horizon_seconds": 10.0, "master_seed": 7, "ack_loss": True}},
        "cd81864a83257f3af26b5c70568f9fe93fabde07fbfb776769bfb938b52fb41a",
        "f2b48a49149295249f0e63bb30ee3bc2a6b4510913a2ae7134e6d5c4ecafa74b",
    ),
    "tiny3-no-ack-loss": (
        {"topology": {"kind": "star", "n_nodes": 3}, "lam": 20.0,
         "fading": {"sigma": 3.0},
         "sim": {"horizon_seconds": 10.0, "master_seed": 7, "ack_loss": False}},
        "d0ca6556b0945a01ce946ddca3c521fb3020866b11659327f0c410ad2d8a5ad6",
        "abd815f42b36195ca923c5518778aee3adeba47271c7b16909537422e877a55d",
    ),
}


def _stats_digest(stats):
    h = hashlib.sha256()
    h.update(repr((stats.transmitters, stats.horizon_symbols)).encode())
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, np.ndarray):
            h.update(f"{field.name}:{value.dtype.str}:{value.shape}:".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(FINGERPRINT_CASES))
def test_replication_matches_recorded_fingerprint(case):
    config, stats_sha, trace_sha = FINGERPRINT_CASES[case]
    scenario = scenario_from_config(config)
    net = compile_sim_network(scenario)
    plain = run_replication(net, scenario.sim, 0)
    buffer = io.StringIO()
    traced = run_replication(net, scenario.sim, 0, trace=buffer)
    assert _stats_digest(plain) == _stats_digest(traced)
    assert _stats_digest(plain) == stats_sha
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == trace_sha
