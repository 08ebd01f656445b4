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
    solver: {tol: 1.0e-8, max_iter: 10000}
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
import sys
import typing
from dataclasses import InitVar, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path

import numpy as np
import yaml

from .channel import LEVEL_LIMIT_DB, ChannelParams, FadingParams, mean_rx_power
from . import channel
from .errors import ValidationError
from .macmodel import SYMBOLS_PER_BYTE, SYMBOLS_PER_UNIT, MacParams, SolverConfig, TimingParams
from .macmodel import (Chain, SubsetList, _list_rows, _other_links, arrival_probability,
                       bounded_depth, cca_probability, contention_tables, truncation_bounds)
from .metrics import PowerProfile
from .multihop import link_traffic, route_links
from .simulator import SimConfig, SimNetwork
from .units import db_to_neper

# The most rows, links x subset-list rows, of one table set: the whole
# tables of 15 links, 14 contenders each.  Checked before any channel call.
ROW_BUDGET = 15 * 2**14
# Every scenario derives distances and mean gains of all node pairs when it
# is built; the node count is checked before that O(n^2) work starts.
MAX_NODES = 1024


# The Topology fields each kind reads besides its kind; a field that its kind
# does not read must keep its default.
KIND_KEYS = {
    "star": ("n_nodes", "spacing_m"),
    "line": ("n_nodes", "spacing_m"),
    "tree": ("n_nodes", "spacing_m", "branching"),
    "explicit": ("positions_m", "next_hop"),
}


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
        if self.kind not in KIND_KEYS:
            raise ValidationError(f"unknown topology kind {self.kind!r}")
        for f in fields(self)[1:]:  # the fields after kind
            if f.name not in KIND_KEYS[self.kind] and getattr(self, f.name) != f.default:
                kinds = [kind for kind, keys in KIND_KEYS.items() if f.name in keys]
                raise ValidationError(
                    f"{f.name} is read by kind{'s' * (len(kinds) > 1)} "
                    f"{', '.join(map(repr, kinds))} only, not {self.kind!r}"
                )
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
        if self.size > MAX_NODES:
            raise ValidationError(f"{self.size} topology nodes, beyond the limit of {MAX_NODES}")

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

    def distances(self) -> list[list[float]]:
        """Node-to-node distances in meters.

        A generated star takes them from its geometry, not its rounded
        coordinates: the sink is spacing_m from every ring node, and ring
        nodes d steps apart (the shorter way round) are the chord
        2 R sin(pi d / n) apart.  So equal distances are bit-equal, and so
        are the gains and the contention rows they key.
        """
        if self.kind != "star":
            pos = self.positions()
            return [[math.dist(p, q) for q in pos] for p in pos]
        n_tx = self.n_nodes - 1
        chord = [2.0 * self.spacing_m * math.sin(math.pi * d / n_tx) for d in range(n_tx)]
        ring = [[chord[min(abs(i - j), n_tx - abs(i - j))] for j in range(n_tx)]
                for i in range(n_tx)]
        return [[0.0] + [self.spacing_m] * n_tx] + [[self.spacing_m] + row for row in ring]

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
    """A fully validated experiment description.

    hops (next hop per node, -1 where the node terminates traffic) and
    mean_gain_mw (mean power in mW that node j receives when node i
    transmits, 0 for i == j) are the geometry both engines share, read-only,
    taken from the memo `geometry` or worked out into it: scenarios parsed
    with one memo share one array per geometry.  The memo keys hops by the
    topology, and gains by what mean_rx_power reads: the topology,
    tx_power_dbm, channel.c0_db and channel.k.  links holds (transmitter,
    next hop) per link, in transmitter order.
    """

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
    geometry: InitVar[dict | None] = None
    hops: np.ndarray = field(init=False, repr=False, compare=False)
    mean_gain_mw: np.ndarray = field(init=False, repr=False, compare=False)
    links: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, geometry: dict | None) -> None:
        geometry = {} if geometry is None else geometry
        object.__setattr__(self, "hops", _shared(geometry, self.topology, self.topology.hops))
        n = self.topology.size
        if len(self.lam) != n:
            raise ValidationError(
                f"lam has {len(self.lam)} entries for {n} nodes"
            )
        if not abs(self.tx_power_dbm) <= LEVEL_LIMIT_DB:
            raise ValidationError(f"tx_power_dbm={self.tx_power_dbm} beyond +-{LEVEL_LIMIT_DB:g} dBm")
        for i, rate in enumerate(self.lam):
            if not 0.0 <= rate < math.inf:
                raise ValidationError(f"generation rates must be finite and >= 0, got {rate}")
            if rate > 0.0 and self.hops[i] < 0:
                raise ValidationError(
                    f"node {i} generates traffic but has no route"
                )
        route_links(self.hops)  # rejects bad hops, cycles and a topology with no link
        object.__setattr__(self, "links",
                           tuple((i, int(h)) for i, h in enumerate(self.hops) if h >= 0))
        key = (self.topology, self.tx_power_dbm, self.channel.c0_db, self.channel.k)
        object.__setattr__(self, "mean_gain_mw", _shared(  # rejects coincident nodes
            geometry, key, lambda: _mean_gains(self.topology, self.tx_power_dbm, self.channel)))


def _shared(geometry: dict, key, make) -> np.ndarray:
    """geometry[key], or make() made read-only and stored there."""
    if key not in geometry:
        geometry[key] = make()
        geometry[key].flags.writeable = False
    return geometry[key]


def _mean_gains(topology: Topology, tx_power_dbm: float, chan: ChannelParams) -> np.ndarray:
    dist = topology.distances()
    gain = np.zeros((len(dist), len(dist)))
    for i, j in itertools.permutations(range(len(dist)), 2):
        distance = dist[i][j]
        if distance == 0.0:
            raise ValidationError(
                f"topology.positions_m: nodes {i} and {j} coincide at "
                f"{topology.positions()[i]} (distance 0.0)"
            )
        try:
            gain[i, j] = mean_rx_power(tx_power_dbm, distance, chan)
        except ValidationError as exc:
            field = "positions_m" if topology.kind == "explicit" else "spacing_m"
            raise ValidationError(
                f"invalid config value in topology.{field}: nodes {i} and {j}: {exc}"
            ) from None
    return gain


def build_contention_tables(scenario: Scenario, subsets: SubsetList,
                            plans: dict | None = None) -> np.recarray:
    """Geometry-dependent probability tables for the analytic engine (see
    macmodel.contention_tables for their layout).

    For every link and every subset of concurrently transmitting other
    links in the subset list `subsets` of the scenario's L - 1 contenders:
    the probability the transmitter's CCA detects them, and the
    probability the receiver suffers outage.  A subset containing the
    link's own receiver pins outage to 1 (a transmitting radio hears
    nothing).  A table set of more than ROW_BUDGET rows is refused before
    any channel call.

    The channel fits a row from the multiset of its terms alone (see the
    channel module), and most rows repeat another's: in a star every
    subset of equally distant interferers is one outage sum.  So each
    distinct row of the whole table set is fitted once -- a detection row
    keyed by its sorted gains, an outage row by its useful gain and sorted
    interferer gains -- on the link where the row first occurs, and copied
    to its repeats.  The detection rows of all links are fitted in one
    `channel.detection_probability` call, and the outage rows in one
    `channel.outage_probability` call.

    Which rows those are (the RowPlan) depends on the links, the depth and
    which gains are equal, not on their values, the fading or the
    thresholds.  `plans` maps (links, depth, gain ranks) to a plan; the
    plan is looked up there, or worked out and stored there.
    """
    links = scenario.links
    n_links = len(links)
    k, depth, rows = subsets.k, subsets.depth, subsets.rows
    if k != n_links - 1:
        raise ValidationError(f"{n_links} links need a list of {n_links - 1} contenders, not {k}")
    if n_links * rows > ROW_BUDGET:
        raise ValidationError(
            f"{n_links} links with subset lists of depth {depth} need {n_links * rows} "
            f"table rows, beyond the row budget {ROW_BUDGET}; reduce the topology or "
            "split the scenario"
        )
    chan, fading = scenario.channel, scenario.fading
    gain = scenario.mean_gain_mw
    tx, rx = np.array(links).T
    senders = tx[_other_links(n_links)]
    det_gain = gain[senders, tx[:, None]]  # (L, k): power at each transmitter
    out_gain = gain[senders, rx[:, None]]  # at each receiver; 0 where the receiver sends
    useful = gain[tx, rx]
    # every term shares the scenario's fading, so its gain identifies it;
    # keys hold gains as ranks from 1 up, 0 marking an unselected column
    _, rank = np.unique(np.hstack([det_gain, out_gain, useful[:, None]]), return_inverse=True)
    rank = (rank.reshape(n_links, 2 * k + 1) + 1).astype(np.min_scalar_type(rank.size + 1))
    plans = {} if plans is None else plans
    key = (links, depth, rank.tobytes())
    plan = plans.get(key) or _row_plan(rank, senders, rx, subsets.members)

    p_det = plan.det.fit(
        lambda l, terms: channel.detection_probability(terms, chan.cca_threshold_mw, fading),
        det_gain,
    ).reshape(n_links, rows)
    p_out = np.ones((n_links, rows))
    p_out[plan.free] = plan.out.fit(
        lambda l, terms: channel.outage_probability(
            useful[l], terms, chan.noise_mw, chan.sinr_threshold, fading
        ),
        out_gain,
    )
    p_fad = p_out[:, 0].copy()  # the empty subset: noise-only outage
    p_out[:, 0] = 0.0
    plans[key] = plan  # stored once its fits have run
    return contention_tables(p_det, p_out, p_fad)


def start_depths(points) -> list[int]:
    """The depth of each point's subset lists before any solve (depths_at):
    at the chain's start, (alpha, gamma) = (0, 0), with the link traffic
    that forwards every packet, which bounds the traffic from above.  The
    points share their routes, MAC, timing and solver; their rates may
    differ."""
    first = points[0]
    transmitters, next_link = route_links(first.hops)
    lam = np.array([point.lam for point in points])[:, transmitters]
    traffic = link_traffic(lam, next_link, np.ones(lam.shape))
    q = arrival_probability(traffic)
    tau, _ = cca_probability(Chain(0.0, 0.0, first.mac), np.where(q > 0.0, q, 1.0), first.timing)
    return depths_at(np.where(q > 0.0, tau, 0.0), first.timing, first.solver.tol)


def depths_at(eff: np.ndarray, timing: TimingParams, tol: float) -> list[int]:
    """The depth of the subset lists of each point's links at per-link
    e = tau (1 - alpha) of eff, (P, L): the smallest whose truncation bound
    is at most tol (macmodel.bounded_depth).  Only depths within ROW_BUDGET
    are tried, and points that need a deeper one are refused."""
    n_links = eff.shape[-1]
    k = n_links - 1
    rows = _list_rows(k)
    top = max(s for s in range(k + 1) if n_links * rows[s] <= ROW_BUDGET)
    depths = [bounded_depth(bounds, tol, k) for bounds in truncation_bounds(eff, timing, top)]
    if None in depths or n_links * rows[max(depths)] > ROW_BUDGET:
        raise ValidationError(
            f"{n_links} links need lists of subsets larger than {top} to bound the "
            f"truncation by solver.tol = {tol:g}, beyond the row budget {ROW_BUDGET}; "
            "reduce the topology or the traffic"
        )
    return depths


@dataclass(frozen=True)
class DistinctRows:
    """The distinct rows of a table's selected rows, and where each row's value lands.

    Distinct row d is fitted on link links[d], over the contenders
    members[d] (a SubsetList.members row, k marking an empty place).  group gives,
    for each selected row in C order, its distinct row.
    """

    links: np.ndarray
    members: np.ndarray
    group: np.ndarray

    def fit(self, probability, gains: np.ndarray) -> np.ndarray:
        """The selected rows' values from one probability(links, terms) call, where
        terms holds each distinct row's gains, gains[link] of its members, 0 for
        an empty place."""
        terms = np.pad(gains, ((0, 0), (0, 1)))[self.links[:, None], self.members]
        return probability(self.links, terms)[self.group]


@dataclass(frozen=True)
class RowPlan:
    """The geometry stage of a table build: detection rows, outage rows, and
    `free`, the (L, rows) mask of rows whose receiver is silent (the outage
    rows that are fitted; the others are 1)."""

    det: DistinctRows
    out: DistinctRows
    free: np.ndarray


def _row_plan(rank: np.ndarray, senders: np.ndarray, rx: np.ndarray,
              members: np.ndarray) -> RowPlan:
    """The RowPlan of links whose det/out/useful gains have ranks `rank`
    ((L, 2k + 1), from 1 up), over the subset list whose rows hold the
    contenders `members` (SubsetList.members); senders is (L, k), each
    link's contenders.

    A row's key holds the ranks of its members, sorted, with 0 for each of
    the depth's places it leaves empty: the key over all k contenders
    without its k - depth leading columns, which are 0 in every row of the
    list.
    """
    n_links, k = senders.shape
    # column k of each (L, k + 1) array is the empty place
    det_rank, out_rank = (np.pad(rank[:, part], ((0, 0), (0, 1)))
                          for part in (slice(0, k), slice(k, 2 * k)))
    det_keys = np.sort(det_rank[:, members], axis=-1)
    out_keys = np.concatenate(
        [
            np.broadcast_to(rank[:, 2 * k :, None], (n_links, len(members), 1)),
            np.sort(out_rank[:, members], axis=-1),
        ],
        axis=-1,
    )
    receiver_sends = np.pad(senders == rx[:, None], ((0, 0), (0, 1)))
    free = ~receiver_sends[:, members].any(axis=-1)
    return RowPlan(
        det=_distinct(det_keys, np.ones((n_links, len(members)), dtype=bool), members),
        out=_distinct(out_keys, free, members),
        free=free,
    )


def _distinct(keys: np.ndarray, rows: np.ndarray, members: np.ndarray) -> DistinctRows:
    """DistinctRows of the rows selected by the (links, list rows) mask
    `rows`, keyed by keys, (links, list rows, width); members are the list's
    SubsetList.members.  Each distinct key is fitted on the link holding its first
    occurrence."""
    at = np.flatnonzero(rows)
    first, group = _distinct_rows(keys.reshape(rows.size, keys.shape[-1])[at])
    link, row = np.divmod(at[first], rows.shape[1])
    return DistinctRows(link, members[row], group)


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first occurrence of each distinct row of `keys`, and
    the position in that index array of every row's distinct row."""
    order = np.lexsort(keys.T) if keys.shape[1] else np.arange(len(keys))
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    group = np.empty(len(keys), dtype=int)
    group[order] = np.cumsum(new) - 1
    return order[new], group  # lexsort is stable: each group's earliest row


def compile_sim_network(scenario: Scenario) -> SimNetwork:
    """Mean-gain matrix plus routing arrays for the event-driven engine."""
    return SimNetwork(
        mean_gain_mw=scenario.mean_gain_mw,
        lam=np.asarray(scenario.lam, dtype=float),
        next_hop=scenario.hops,
        channel=scenario.channel,
        fading=scenario.fading,
        mac=scenario.mac,
        timing=scenario.timing,
    )


# ---------------------------------------------------------------------------
# configuration parsing


def _take(section: dict, cls, where: str):
    """Build a dataclass from a config section, rejecting unknown keys.

    Numeric fields are checked against their annotations first, so a bad
    value is reported under its dotted name; so is a value the class refuses
    with a message that starts "field=".
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
        field = str(exc).partition("=")[0]
        path = f"{where}.{field}" if field in types else where
        raise ValidationError(f"invalid config value in {path}: {exc}") from exc


@cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _coerce(value, annotation, name: str):
    """Check a value for a bool, int or float (or float | None) field.

    A string in a float field is parsed with float(), since YAML 1.1 reads
    1e-3 as a string; a float field takes finite numbers only, an int field
    integral numbers only, and a bool field true or false only.
    """
    if annotation is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
    elif annotation is int:
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
        # abs() <= max fails for NaN, +-inf and ints beyond the float range
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _rate(value, name: str) -> float:
    """A generation rate read by _coerce, its error naming the rate."""
    try:
        return float(_coerce(value, float, name))
    except ValueError:
        raise ValueError(f"{name}={value!r}: rates must be numbers, finite and >= 0") from None


def scenario_id(config: dict, default: str = "scenario") -> str:
    """The config's scenario_id as text.  It names the output CSV, so it
    must be a string or a number."""
    value = config.get("scenario_id", default)
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"scenario_id must be a string or a number, got {value!r}")
    return str(value)


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


def scenario_from_config(config: dict, default_id: str = "scenario",
                         geometry: dict | None = None) -> Scenario:
    """Validate a parsed config mapping into a Scenario with defaults.

    A value of the wrong type or form (say `lam: abc`, or a YAML 1.1 string
    such as `1e-9` where a number belongs), or one that overflows a float on
    the way in, is reported as ValidationError.  Scenarios parsed with one
    `geometry` memo share its arrays (see Scenario).
    """
    try:
        return _build_scenario(config, default_id, {} if geometry is None else geometry)
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"invalid config value: {exc}") from exc


def _build_scenario(config: dict, default_id: str, geometry: dict) -> Scenario:
    """The Scenario of a config.  Its top-level keys are Scenario's init
    fields, each field annotated with a dataclass is a section (_section,
    _take), and the fields are checked in their order."""
    config = dict(config)
    config.pop("sweep", None)  # owned by the sweep layer
    unknown = set(config) - {f.name for f in fields(Scenario) if f.init}
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")

    values = {"scenario_id": scenario_id(config, default_id)}
    for name, cls in _field_types(Scenario).items():
        if is_dataclass(cls):
            values[name] = _take(_section(config.get(name), name), cls, name)
        elif name == "lam":
            values[name] = _rates(config.get(name, 0.0), values["topology"], geometry)
    tx_power = float(_coerce(config.get("tx_power_dbm", 0.0), float, "tx_power_dbm"))
    return Scenario(**values, tx_power_dbm=tx_power, geometry=geometry)


def _section(value, where: str) -> dict:
    """A config section (a mapping, or None for all defaults) as a mapping of
    its class's fields: the topology's positions and next hops as tuples,
    fading.sigma_db as fading.sigma, and the timing's packet_bytes and
    ack_bytes as l_pkt and l_ack."""
    if value is not None and not isinstance(value, dict):
        raise ValidationError(f"{where} must be a mapping")
    section = dict(value or {})
    if where == "topology":
        if "positions_m" in section:
            points = section["positions_m"]
            try:
                if not isinstance(points, (list, tuple)):
                    raise ValueError(f"got {points!r}")
                for i, p in enumerate(points):
                    if not isinstance(p, (list, tuple)) or len(p) != 2:
                        raise ValueError(f"topology.positions_m[{i}] is {p!r}")
                section["positions_m"] = tuple(
                    tuple(float(_coerce(c, float, f"topology.positions_m[{i}]")) for c in p)
                    for i, p in enumerate(points)
                )
            except ValueError as exc:
                raise ValidationError(
                    f"topology.positions_m must be a list of (x, y) pairs of numbers: {exc}"
                ) from None
        if "next_hop" in section:
            hops = section["next_hop"]
            if not isinstance(hops, (list, tuple)):
                raise ValidationError(f"topology.next_hop must be a list of integers, got {hops!r}")
            section["next_hop"] = tuple(_coerce(h, int, "topology.next_hop") for h in hops)
    if where == "fading" and "sigma_db" in section:
        if "sigma" in section:
            raise ValidationError("give fading.sigma or fading.sigma_db, not both")
        section["sigma"] = db_to_neper(_coerce(section.pop("sigma_db"), float, "fading.sigma_db"))
    if where == "timing":
        for byte_key, field_name in (("packet_bytes", "l_pkt"), ("ack_bytes", "l_ack")):
            if byte_key in section:
                if field_name in section:
                    raise ValidationError(
                        f"give timing.{byte_key} or timing.{field_name}, not both"
                    )
                nbytes = _coerce(section.pop(byte_key), float, f"timing.{byte_key}")
                section[field_name] = nbytes * SYMBOLS_PER_BYTE / SYMBOLS_PER_UNIT
    return section


def _rates(value, topology: Topology, geometry: dict) -> tuple[float, ...]:
    """The config's lam: a rate per node, or one rate for every node with a route."""
    if isinstance(value, (list, tuple)):
        return tuple(_rate(v, f"lam[{i}]") for i, v in enumerate(value))
    rate = _rate(value, "lam")
    return tuple(rate if h >= 0 else 0.0 for h in _shared(geometry, topology, topology.hops))


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
