"""Table construction shared by network-level tests.

Kept in the test tree, separate from the package's own scenario builder, so
the two constructions can be checked against each other.  `contention_h`
feeds synthetic subset tables to the production contention functional.
"""

import math

import numpy as np

from csmafade import channel
from csmafade.macmodel import SubsetList, TimingParams, contention_tables, contention_terms


def build_tables(positions, links, chan, fading, tx_power_dbm=0.0):
    """Per-link subset tables for nodes at the given (x, y) positions.

    links is a list of (tx, rx) node pairs, one per transmitting node.  A
    subset that includes a link's receiver means the receiver is itself
    transmitting (half-duplex), which makes reception impossible: that
    subset's outage probability is pinned to 1.
    """
    n_links = len(links)
    k = n_links - 1
    bits = SubsetList(k, k).bits == 1.0
    noise = chan.noise_mw

    def mean_w(src, dst):
        return channel.mean_rx_power(tx_power_dbm, math.dist(positions[src], dst), chan)

    tables = []  # (p_det, p_out, p_fad) per link
    for l, (tx, rx) in enumerate(links):
        others = tuple(i for i in range(n_links) if i != l)
        p_det = np.zeros(2**k)
        p_out = np.zeros(2**k)
        useful = mean_w(tx, positions[rx])
        p_fad = channel.outage_probability(
            [useful], [[]], noise, chan.sinr_threshold, fading
        )[0]
        for mask in range(1, 2**k):
            senders = [links[others[z]][0] for z in range(k) if bits[mask, z]]
            det_gains = [mean_w(src, positions[tx]) for src in senders]
            p_det[mask] = channel.detection_probability(
                [det_gains], chan.cca_threshold_mw, fading
            )[0]
            if rx in senders:
                p_out[mask] = 1.0
            else:
                int_gains = [mean_w(src, positions[rx]) for src in senders]
                p_out[mask] = channel.outage_probability(
                    [useful], [int_gains], noise, chan.sinr_threshold, fading
                )[0]
        tables.append((p_det, p_out, p_fad))
    return contention_tables(*zip(*tables))


def build_tables_per_link(gain, links, chan, fading):
    """Per-link subset tables without sharing rows across links or within one.

    One batched detection and one batched outage call per link over all of
    its subsets, from the mean-gain matrix `gain`: the construction the
    package's row de-duplication must reproduce bit for bit.
    """
    n_links = len(links)
    k = n_links - 1
    bits = SubsetList(k, k).bits == 1.0

    tables = []  # (p_det, p_out, p_fad) per link
    for l, (tx, rx) in enumerate(links):
        others = tuple(i for i in range(n_links) if i != l)
        senders = [links[o][0] for o in others]
        p_det = channel.detection_probability(
            np.where(bits, gain[senders, tx], 0.0), chan.cca_threshold_mw, fading
        )
        free = ~bits[:, [z for z, s in enumerate(senders) if s == rx]].any(axis=1)
        p_out = np.ones(2**k)
        p_out[free] = channel.outage_probability(
            np.full(free.sum(), gain[tx, rx]), np.where(bits[free], gain[senders, rx], 0.0),
            chan.noise_mw, chan.sinr_threshold, fading,
        )
        p_fad = float(p_out[0])
        p_out[0] = 0.0
        tables.append((p_det, p_out, p_fad))
    return contention_tables(*zip(*tables))


def star_positions(n_tx, radius):
    """n_tx transmitters on a circle around a sink at the origin (index 0)."""
    positions = [(0.0, 0.0)]
    for i in range(n_tx):
        angle = 2 * math.pi * i / n_tx
        positions.append((radius * math.cos(angle), radius * math.sin(angle)))
    links = [(i, 0) for i in range(1, n_tx + 1)]
    return positions, links


def line_positions(n_nodes, spacing):
    """Chain sink=0 at the origin, node h at x = h*spacing forwarding to h-1."""
    positions = [(h * spacing, 0.0) for h in range(n_nodes)]
    links = [(h, h - 1) for h in range(1, n_nodes)]
    return positions, links


def build_sim_network(positions, links, lam, chan, fading, mac=None, timing=None,
                      tx_power_dbm=0.0):
    """Compile positions and a routing list into simulator arrays."""
    from csmafade.macmodel import MacParams, TimingParams
    from csmafade.simulator import SimNetwork

    n = len(positions)
    gain = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                gain[i, j] = channel.mean_rx_power(
                    tx_power_dbm, math.dist(positions[i], positions[j]), chan
                )
    next_hop = np.full(n, -1)
    for tx, rx in links:
        next_hop[tx] = rx
    return SimNetwork(
        mean_gain_mw=gain,
        lam=np.asarray(lam, dtype=float),
        next_hop=next_hop,
        channel=chan,
        fading=fading,
        mac=mac or MacParams(),
        timing=timing or TimingParams(),
    )


def contention_h(taus, alphas, chi):
    """H(chi) over contenders (taus, alphas), as two outputs of contention_terms.

    Link 0 hears links 1..k, whose subset tables p_det and p_out both hold
    chi of the subset.  l_pkt = 1/2 zeroes the hidden-terminal factor
    2*l_pkt - 1 and p_fad = 0 drops fading-only loss, so alpha_pkt = H/2
    and gamma = H (chi <= 1 keeps gamma below its clamp).
    """
    k = len(taus)
    chi_table = np.zeros(2**k)
    for mask in range(1, 2**k):
        chi_table[mask] = chi(tuple(z for z in range(k) if mask >> z & 1))
    rows = np.zeros((k + 1, 2**k))
    rows[0] = chi_table
    tables = contention_tables(rows, rows, np.zeros(k + 1))
    full_taus = np.concatenate([[0.0], taus])
    full_alphas = np.concatenate([[0.0], alphas])
    a_pkt, _, gamma = contention_terms(
        tables, SubsetList(k, k), TimingParams(l_pkt=0.5), full_taus, full_alphas,
        np.zeros(k + 1)
    )
    return 2.0 * a_pkt[0], gamma[0]
