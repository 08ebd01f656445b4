"""Scenario files: topology generators, config parsing, and engine inputs.

A scenario is a YAML (or JSON) mapping with these sections, all optional
except the topology:

    scenario_id: star7
    topology: {kind: star, n_nodes: 8, spacing_m: 1.0}
    lam: 5.0                  # scalar for all transmitters, or per-node list
    channel: {c0_db: -55, k: 2, n0_dbm: -91, a_dbm: -76, b_db: 6}
    fading: {sigma: 2.0, kappa: null}        # or sigma_db instead of sigma
    mac: {m0: 3, mb: 5, m: 4, n: 0}
    timing: {packet_bytes: 70, ack_bytes: 11}
    power: {p_idle: 56.4, p_sense: 56.4, p_tx: 52.2, p_rx: 56.4, p_sleep: 0.06}
    solver: {damping: 0.5, tol: 1.0e-8, max_iter: 10000}
    sim: {horizon_seconds: 200.0, replications: 20, master_seed: 1, ack_loss: true}
    tx_power_dbm: 0.0
    sweep: {engine: compare, parameters: [{path: lam, values: [0.5, 2]}]}

Dotted overrides ("fading.sigma=2") are applied after parsing and before
any validation.  Unknown keys are rejected so typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelParams, FadingParams, PowerTerm, mean_rx_power
from . import channel
from .errors import ValidationError
from .macmodel import LinkTables, MacParams, SolverConfig, TimingParams, _bit_matrix
from .metrics import PowerProfile
from .multihop import RoutingMatrix
from .simulator import SimConfig, SimNetwork
from .units import db_to_neper

SYMBOLS_PER_BYTE = 2  # 4 bits per symbol at the 2.4 GHz PHY

# Contention subsets are enumerated exhaustively; 2^14 tables per link is the
# supported ceiling.
MAX_CONTENDERS = 14


@dataclass(frozen=True)
class Topology:
    """Node placement plus routing, generated or explicit."""

    kind: str = "star"
    n_nodes: int = 8
    spacing_m: float = 1.0  # star radius, or hop distance for line/tree
    branching: int = 2
    positions_m: tuple[tuple[float, float], ...] | None = None
    next_hop: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("star", "line", "tree", "explicit"):
            raise ValidationError(f"unknown topology kind {self.kind!r}")
        if self.kind == "explicit":
            if self.positions_m is None or self.next_hop is None:
                raise ValidationError(
                    "explicit topology needs positions_m and next_hop"
                )
            if len(self.positions_m) != len(self.next_hop):
                raise ValidationError("positions_m and next_hop lengths differ")
        else:
            if self.n_nodes < 2:
                raise ValidationError("need at least one transmitter and a sink")
            if self.spacing_m <= 0.0:
                raise ValidationError("spacing_m must be positive")
            if self.kind == "tree" and self.branching < 1:
                raise ValidationError("tree branching must be >= 1")

    @property
    def size(self) -> int:
        if self.kind == "explicit":
            return len(self.positions_m)
        return self.n_nodes

    def positions(self) -> list[tuple[float, float]]:
        """Node coordinates in meters; node 0 is the sink for generated kinds."""
        if self.kind == "explicit":
            return [tuple(p) for p in self.positions_m]
        if self.kind == "star":
            n_tx = self.n_nodes - 1
            out = [(0.0, 0.0)]
            for i in range(n_tx):
                angle = 2.0 * math.pi * i / n_tx
                out.append(
                    (self.spacing_m * math.cos(angle), self.spacing_m * math.sin(angle))
                )
            return out
        if self.kind == "line":
            return [(h * self.spacing_m, 0.0) for h in range(self.n_nodes)]
        # tree: breadth-first levels on concentric circles, children fanned
        # inside their parent's angular sector
        out = [(0.0, 0.0)]
        sectors = {0: (0.0, 2.0 * math.pi)}
        level = {0: 0}
        parent_queue = [0]
        next_index = 1
        while next_index < self.n_nodes:
            parent = parent_queue.pop(0)
            lo, hi = sectors[parent]
            kids = min(self.branching, self.n_nodes - next_index)
            for c in range(kids):
                a = lo + (hi - lo) * c / self.branching
                b = lo + (hi - lo) * (c + 1) / self.branching
                mid = 0.5 * (a + b)
                radius = (level[parent] + 1) * self.spacing_m
                out.append((radius * math.cos(mid), radius * math.sin(mid)))
                sectors[next_index] = (a, b)
                level[next_index] = level[parent] + 1
                parent_queue.append(next_index)
                next_index += 1
        return out

    def hops(self) -> np.ndarray:
        """next_hop per node, -1 where the node terminates traffic."""
        if self.kind == "explicit":
            return np.asarray(self.next_hop, dtype=int)
        if self.kind == "star":
            return np.array([-1] + [0] * (self.n_nodes - 1))
        if self.kind == "line":
            return np.array([-1] + list(range(self.n_nodes - 1)))
        hops = np.full(self.n_nodes, -1)
        parent_queue = [0]
        assigned = 1
        while assigned < self.n_nodes:
            parent = parent_queue.pop(0)
            kids = min(self.branching, self.n_nodes - assigned)
            for _ in range(kids):
                hops[assigned] = parent
                parent_queue.append(assigned)
                assigned += 1
        return hops


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description."""

    scenario_id: str
    topology: Topology
    lam: tuple[float, ...]
    channel: ChannelParams
    fading: FadingParams
    mac: MacParams
    timing: TimingParams
    power: PowerProfile
    solver: SolverConfig
    sim: SimConfig
    tx_power_dbm: float = 0.0

    def __post_init__(self) -> None:
        n = self.topology.size
        if len(self.lam) != n:
            raise ValidationError(
                f"lam has {len(self.lam)} entries for {n} nodes"
            )
        hops = self.topology.hops()
        for i, rate in enumerate(self.lam):
            if not 0.0 <= rate < math.inf:
                raise ValidationError(f"generation rates must be finite and >= 0, got {rate}")
            if rate > 0.0 and hops[i] < 0:
                raise ValidationError(
                    f"node {i} generates traffic but has no route"
                )
        self.routing()  # validates hop indices and acyclicity

    def routing(self) -> RoutingMatrix:
        hops = self.topology.hops()
        n = len(hops)
        sinks = [i for i, h in enumerate(hops) if h < 0]
        if not sinks:
            raise ValidationError("routing has no sink")
        matrix = np.zeros((n, n), dtype=int)
        for i, h in enumerate(hops):
            if h >= 0:
                if h >= n:
                    raise ValidationError(f"node {i} routes to missing node {h}")
                matrix[i, h] = 1
        return RoutingMatrix(matrix=matrix, sink=sinks[0])

    def links(self) -> list[tuple[int, int]]:
        hops = self.topology.hops()
        return [(i, int(h)) for i, h in enumerate(hops) if h >= 0]


def build_contention_tables(scenario: Scenario) -> list[LinkTables]:
    """Geometry-dependent probability tables for the analytic engine.

    For every link and every subset of concurrently transmitting other
    links: the probability the transmitter's CCA detects them, and the
    probability the receiver suffers outage.  A subset containing the
    link's own receiver pins outage to 1 (a transmitting radio hears
    nothing).  Each table is one batched channel call over all subsets.
    """
    links = scenario.links()
    n_links = len(links)
    k = n_links - 1
    if k > MAX_CONTENDERS:
        raise ValidationError(
            f"{k} contending links exceeds the enumeration cap {MAX_CONTENDERS}; "
            "reduce the topology or split the scenario"
        )
    chan, fading = scenario.channel, scenario.fading
    positions = scenario.topology.positions()
    bits = _bit_matrix(k)
    noise = PowerTerm(weight=chan.noise_mw)

    def faded(weight: float) -> PowerTerm:
        return PowerTerm(
            weight=weight, sigma=fading.sigma, has_multipath=fading.multipath
        )

    def mean_w(src: int, dst: int) -> float:
        return mean_rx_power(
            scenario.tx_power_dbm, math.dist(positions[src], positions[dst]), chan
        )

    tables = []
    for l, (tx, rx) in enumerate(links):
        others = tuple(i for i in range(n_links) if i != l)
        senders = [links[o][0] for o in others]
        p_det = channel.detection_probabilities(
            [faded(mean_w(s, tx)) for s in senders], bits, chan.cca_threshold_mw, fading
        )
        own = [z for z, s in enumerate(senders) if s == rx]  # the receiver transmits
        heard = [z for z, s in enumerate(senders) if s != rx]
        free = ~bits[:, own].any(axis=1)
        p_out = np.ones(2**k)
        p_out[free] = channel.outage_probabilities(
            faded(mean_w(tx, rx)),
            [faded(mean_w(senders[z], rx)) for z in heard],
            bits[free][:, heard],
            noise,
            chan.sinr_threshold,
            fading,
        )
        p_fad = float(p_out[0])  # the empty subset: noise-only outage
        p_out[0] = 0.0
        tables.append(LinkTables(others=others, p_det=p_det, p_out=p_out, p_fad=p_fad))
    return tables


def compile_sim_network(scenario: Scenario) -> SimNetwork:
    """Mean-gain matrix plus routing arrays for the event-driven engine."""
    chan = scenario.channel
    positions = scenario.topology.positions()
    n = len(positions)
    gain = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                gain[i, j] = mean_rx_power(
                    scenario.tx_power_dbm, math.dist(positions[i], positions[j]), chan
                )
    return SimNetwork(
        mean_gain_mw=gain,
        lam=np.asarray(scenario.lam, dtype=float),
        next_hop=scenario.topology.hops(),
        sigma=scenario.fading.sigma,
        kappa=scenario.fading.kappa,
        cca_threshold_mw=chan.cca_threshold_mw,
        noise_mw=chan.noise_mw,
        sinr_threshold=chan.sinr_threshold,
        mac=scenario.mac,
        timing=scenario.timing,
    )


# ---------------------------------------------------------------------------
# configuration parsing


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a mapping")
    return dict(value)


def _take(section: dict, cls, where: str):
    """Build a dataclass from a config section, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    for key in section:
        if key not in known:
            raise ValidationError(f"unknown key {key!r} in {where}")
    return cls(**section)


def parse_config(text: str, source: str = "<config>") -> dict:
    """Parse YAML/JSON text into a mapping, with line info on errors."""
    try:
        data = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = mark.line + 1 if mark is not None else "?"
        raise ValidationError(
            f"{source}:{line}: {exc.problem or 'parse error'}"
        ) from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"{source}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be a mapping")
    return data


def apply_override(config: dict, assignment: str) -> None:
    """Apply one dotted-path override, e.g. "fading.sigma=2"."""
    if "=" not in assignment:
        raise ValidationError(f"override {assignment!r} is not key=value")
    path, raw = assignment.split("=", 1)
    keys = [k.strip() for k in path.strip().split(".")]
    if not all(keys):
        raise ValidationError(f"override {assignment!r} has an empty key")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError:
        value = raw
    node = config
    for key in keys[:-1]:
        child = node.get(key)
        if not isinstance(child, dict):
            child = {}
            node[key] = child
        node = child
    node[keys[-1]] = value


def scenario_from_config(config: dict, default_id: str = "scenario") -> Scenario:
    """Validate a parsed config mapping into a Scenario with defaults.

    A value of the wrong type or form (say `lam: abc`, or a YAML 1.1 string
    such as `1e-9` where a number belongs) is reported as ValidationError.
    """
    try:
        return _build_scenario(config, default_id)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config value: {exc}") from exc


def _build_scenario(config: dict, default_id: str) -> Scenario:
    config = dict(config)
    config.pop("sweep", None)  # owned by the sweep layer

    allowed = {
        "scenario_id", "topology", "lam", "channel", "fading", "mac",
        "timing", "power", "solver", "sim", "tx_power_dbm",
    }
    unknown = set(config) - allowed
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")

    topo_section = _require_mapping(config.get("topology"), "topology")
    if "positions_m" in topo_section:
        topo_section["positions_m"] = tuple(
            tuple(float(c) for c in p) for p in topo_section["positions_m"]
        )
    if "next_hop" in topo_section:
        topo_section["next_hop"] = tuple(int(h) for h in topo_section["next_hop"])
    topology = _take(topo_section, Topology, "topology")

    fading_section = _require_mapping(config.get("fading"), "fading")
    if "sigma_db" in fading_section:
        if "sigma" in fading_section:
            raise ValidationError("give fading.sigma or fading.sigma_db, not both")
        fading_section["sigma"] = db_to_neper(float(fading_section.pop("sigma_db")))

    timing_section = _require_mapping(config.get("timing"), "timing")
    unit_symbols = 20.0  # symbols per backoff unit
    for byte_key, field_name in (("packet_bytes", "l_pkt"), ("ack_bytes", "l_ack")):
        if byte_key in timing_section:
            if field_name in timing_section:
                raise ValidationError(
                    f"give timing.{byte_key} or timing.{field_name}, not both"
                )
            nbytes = float(timing_section.pop(byte_key))
            timing_section[field_name] = nbytes * SYMBOLS_PER_BYTE / unit_symbols

    n = topology.size
    hops = topology.hops()
    lam_value = config.get("lam", 0.0)
    if isinstance(lam_value, str):  # one scalar, e.g. YAML 1.1 reads 1e-3 as a string
        try:
            lam_value = float(lam_value)
        except ValueError:
            raise ValueError(f"lam={lam_value!r} is not a number") from None
    if isinstance(lam_value, (int, float)):
        lam = tuple(
            float(lam_value) if hops[i] >= 0 else 0.0 for i in range(n)
        )
    else:
        lam = tuple(float(v) for v in lam_value)

    return Scenario(
        scenario_id=str(config.get("scenario_id", default_id)),
        topology=topology,
        lam=lam,
        channel=_take(_require_mapping(config.get("channel"), "channel"),
                      ChannelParams, "channel"),
        fading=_take(fading_section, FadingParams, "fading"),
        mac=_take(_require_mapping(config.get("mac"), "mac"), MacParams, "mac"),
        timing=_take(timing_section, TimingParams, "timing"),
        power=_take(_require_mapping(config.get("power"), "power"),
                    PowerProfile, "power"),
        solver=_take(_require_mapping(config.get("solver"), "solver"),
                     SolverConfig, "solver"),
        sim=_take(_require_mapping(config.get("sim"), "sim"), SimConfig, "sim"),
        tx_power_dbm=float(config.get("tx_power_dbm", 0.0)),
    )


def load_config(path, overrides=()) -> dict:
    """Read and parse a config file, then apply dotted overrides."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {p}: {exc}") from exc
    config = parse_config(text, source=str(p))
    for assignment in overrides:
        apply_override(config, assignment)
    return config


def load_scenario(path, overrides=()) -> Scenario:
    """Parse, override, validate: the one-call entry point."""
    config = load_config(path, overrides)
    return scenario_from_config(config, default_id=Path(path).stem)
