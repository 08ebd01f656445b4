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

import itertools
import math
import typing
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelParams, FadingParams, PowerTerm, mean_rx_power
from . import channel
from .errors import ValidationError
from .macmodel import LinkTables, MacParams, SolverConfig, TimingParams, _bit_matrix
from .metrics import PowerProfile
from .multihop import RoutingMatrix
from .simulator import SimConfig, SimNetwork, symbol_timing
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
            for p in self.positions_m:
                if len(p) != 2 or not all(math.isfinite(c) for c in p):
                    raise ValidationError(
                        f"positions_m entries must be (x, y) pairs of finite numbers, got {p}"
                    )
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
        return self._tree()[0]

    def hops(self) -> np.ndarray:
        """next_hop per node, -1 where the node terminates traffic."""
        if self.kind == "explicit":
            return np.asarray(self.next_hop, dtype=int)
        if self.kind == "star":
            return np.array([-1] + [0] * (self.n_nodes - 1))
        if self.kind == "line":
            return np.array([-1] + list(range(self.n_nodes - 1)))
        return self._tree()[1]

    def _tree(self) -> tuple[list[tuple[float, float]], np.ndarray]:
        """Positions and next hops from one breadth-first walk: levels on
        concentric circles, children fanned inside their parent's sector."""
        out = [(0.0, 0.0)]
        hops = np.full(self.n_nodes, -1)
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
                hops[next_index] = parent
                sectors[next_index] = (a, b)
                level[next_index] = level[parent] + 1
                parent_queue.append(next_index)
                next_index += 1
        return out, hops


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
        if not math.isfinite(self.tx_power_dbm):
            raise ValidationError(f"tx_power_dbm must be finite, got {self.tx_power_dbm}")
        for i, rate in enumerate(self.lam):
            if not 0.0 <= rate < math.inf:
                raise ValidationError(f"generation rates must be finite and >= 0, got {rate}")
            if rate > 0.0 and self.hops[i] < 0:
                raise ValidationError(
                    f"node {i} generates traffic but has no route"
                )
        if not self.links:
            raise ValidationError("the topology has no link: no node has a next hop")
        self.routing  # validates hop indices and acyclicity
        self.mean_gain_mw  # rejects coincident nodes
        symbol_timing(self.timing)  # both engines take only whole-symbol timing

    # the geometry both engines share, derived once per scenario
    @cached_property
    def hops(self) -> np.ndarray:
        """next_hop per node, -1 where the node terminates traffic."""
        hops = self.topology.hops()
        hops.flags.writeable = False
        return hops

    @cached_property
    def routing(self) -> RoutingMatrix:
        n = len(self.hops)
        sinks = [i for i, h in enumerate(self.hops) if h < 0]
        if not sinks:
            raise ValidationError("routing has no sink")
        matrix = np.zeros((n, n), dtype=int)
        for i, h in self.links:
            if h >= n:
                raise ValidationError(f"node {i} routes to missing node {h}")
            matrix[i, h] = 1
        return RoutingMatrix(matrix=matrix, sink=sinks[0])

    @cached_property
    def links(self) -> tuple[tuple[int, int], ...]:
        """(transmitter, next hop) per link, in transmitter order."""
        return tuple((i, int(h)) for i, h in enumerate(self.hops) if h >= 0)

    @cached_property
    def mean_gain_mw(self) -> np.ndarray:
        """Mean power (mW) node j receives when node i transmits; 0 for i == j."""
        pos = self.topology.positions()
        gain = np.zeros((len(pos), len(pos)))
        for i, j in itertools.permutations(range(len(pos)), 2):
            gain[i, j] = mean_rx_power(self.tx_power_dbm, math.dist(pos[i], pos[j]), self.channel)
        gain.flags.writeable = False
        return gain


def build_contention_tables(scenario: Scenario) -> list[LinkTables]:
    """Geometry-dependent probability tables for the analytic engine.

    For every link and every subset of concurrently transmitting other
    links: the probability the transmitter's CCA detects them, and the
    probability the receiver suffers outage.  A subset containing the
    link's own receiver pins outage to 1 (a transmitting radio hears
    nothing).  Each table is one batched channel call over all subsets.
    """
    links = scenario.links
    n_links = len(links)
    k = n_links - 1
    if k > MAX_CONTENDERS:
        raise ValidationError(
            f"{k} contending links exceeds the enumeration cap {MAX_CONTENDERS}; "
            "reduce the topology or split the scenario"
        )
    chan, fading = scenario.channel, scenario.fading
    gain = scenario.mean_gain_mw
    bits = _bit_matrix(k)
    noise = PowerTerm(weight=chan.noise_mw)

    def faded(weight: float) -> PowerTerm:
        return PowerTerm(
            weight=weight, sigma=fading.sigma, has_multipath=fading.multipath
        )

    tables = []
    for l, (tx, rx) in enumerate(links):
        others = tuple(i for i in range(n_links) if i != l)
        senders = [links[o][0] for o in others]
        p_det = channel.detection_probabilities(
            [faded(gain[s, tx]) for s in senders], bits, chan.cca_threshold_mw, fading
        )
        own = [z for z, s in enumerate(senders) if s == rx]  # the receiver transmits
        heard = [z for z, s in enumerate(senders) if s != rx]
        free = ~bits[:, own].any(axis=1)
        p_out = np.ones(2**k)
        p_out[free] = channel.outage_probabilities(
            faded(gain[tx, rx]),
            [faded(gain[senders[z], rx]) for z in heard],
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
    return SimNetwork(
        mean_gain_mw=scenario.mean_gain_mw,
        lam=np.asarray(scenario.lam, dtype=float),
        next_hop=scenario.hops,
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
    """Build a dataclass from a config section, rejecting unknown keys.

    Numeric fields are checked against their annotations first, so a bad
    value is reported under its dotted name.
    """
    types = _field_types(cls)
    values = {}
    for key, value in section.items():
        if key not in types:
            raise ValidationError(f"unknown key {key!r} in {where}")
        values[key] = _coerce(value, types[key], f"{where}.{key}")
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"invalid config value in {where}: {exc}") from exc


@cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _coerce(value, annotation, name: str):
    """Check a value for an int or float (or float | None) field.

    A string in a float field is parsed with float(), since YAML 1.1 reads
    1e-3 as a string; an int field takes integral numbers only.
    """
    if annotation is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif annotation in (float, float | None):
        if value is None and annotation is not float:
            return None
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                pass
        if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
    return value


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


def assign(config: dict, path: str, value) -> None:
    """Set a dotted path inside a nested config mapping, creating levels.

    A missing or empty level becomes a mapping; a level holding anything
    else (say the scalar `lam` in `lam.x`) is an error, not overwritten.
    """
    keys = path.split(".")
    if not all(keys):
        raise ValidationError(f"config path {path!r} has an empty key")
    node = config
    for key in keys[:-1]:
        if node.get(key) is None:
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            raise ValidationError(f"cannot descend into {key!r} in {path!r}: not a mapping")
    node[keys[-1]] = value


def apply_override(config: dict, assignment: str) -> None:
    """Apply one dotted-path override, e.g. "fading.sigma=2"."""
    if "=" not in assignment:
        raise ValidationError(f"override {assignment!r} is not key=value")
    path, raw = assignment.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError:
        value = raw
    assign(config, ".".join(key.strip() for key in path.split(".")), value)


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
        try:
            topo_section["positions_m"] = tuple(
                tuple(float(c) for c in p) for p in topo_section["positions_m"]
            )
        except (TypeError, ValueError):
            raise ValidationError(
                "topology.positions_m must be a list of (x, y) pairs of numbers"
            ) from None
    if "next_hop" in topo_section:
        topo_section["next_hop"] = tuple(int(h) for h in topo_section["next_hop"])
    topology = _take(topo_section, Topology, "topology")

    fading_section = _require_mapping(config.get("fading"), "fading")
    if "sigma_db" in fading_section:
        if "sigma" in fading_section:
            raise ValidationError("give fading.sigma or fading.sigma_db, not both")
        sigma_db = _coerce(fading_section.pop("sigma_db"), float, "fading.sigma_db")
        fading_section["sigma"] = db_to_neper(sigma_db)

    timing_section = _require_mapping(config.get("timing"), "timing")
    unit_symbols = 20.0  # symbols per backoff unit
    for byte_key, field_name in (("packet_bytes", "l_pkt"), ("ack_bytes", "l_ack")):
        if byte_key in timing_section:
            if field_name in timing_section:
                raise ValidationError(
                    f"give timing.{byte_key} or timing.{field_name}, not both"
                )
            nbytes = _coerce(timing_section.pop(byte_key), float, f"timing.{byte_key}")
            timing_section[field_name] = nbytes * SYMBOLS_PER_BYTE / unit_symbols

    lam_value = config.get("lam", 0.0)
    if isinstance(lam_value, str):  # one scalar, e.g. YAML 1.1 reads 1e-3 as a string
        try:
            lam_value = float(lam_value)
        except ValueError:
            raise ValueError(f"lam={lam_value!r} is not a number") from None
    if isinstance(lam_value, (int, float)):
        lam = tuple(float(lam_value) if h >= 0 else 0.0 for h in topology.hops())
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
        tx_power_dbm=float(_coerce(config.get("tx_power_dbm", 0.0), float, "tx_power_dbm")),
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
