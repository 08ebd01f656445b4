"""One point through the analytic engine's stacked entry points.

`macmodel.solve_fixed_point`, `multihop.solve_network` and `metrics.report`
take a stack of P points and give one result per point.  Each function here
passes its one point as a stack of one and returns that point's result.
The solves take the subset list that a table set's row count gives
(`listed`), and `whole` is the list of a scenario's whole tables.
"""

from dataclasses import fields

import numpy as np

from csmafade import macmodel, metrics, multihop


def listed(tables, k=None) -> macmodel.SubsetList:
    """The subset list of k contenders (one fewer than the table set's
    links by default) whose row count the table set holds."""
    k = len(tables) - 1 if k is None else k
    return macmodel.SubsetList(k, macmodel._list_rows(k).index(tables.p_det.shape[-1]))


def whole(scenario) -> macmodel.SubsetList:
    """The list of all 2^k subsets of the scenario's k = L - 1 contenders."""
    k = len(scenario.links) - 1
    return macmodel.SubsetList(k, k)


def fixed_point(tables, qs, *args, **kwargs) -> macmodel.SolveResult:
    """solve_fixed_point of one table set and its (L,) qs; an arrivals
    hook still takes (rows, reliability) of the stack of one."""
    [result] = macmodel.solve_fixed_point([tables], listed(tables), [qs], *args, **kwargs)
    return result


def network(tables, next_hop, lam, *args, **kwargs) -> multihop.NetworkSolution:
    """solve_network of one table set and its (n,) per-node rates, on the
    list of the next hops' links."""
    subsets = listed(tables, int(np.count_nonzero(np.asarray(next_hop) >= 0)) - 1)
    [solution] = multihop.solve_network([tables], subsets, next_hop, [lam], *args, **kwargs)
    return solution


def report(state, *args, **kwargs) -> metrics.MetricsReport:
    """metrics.report of one point's (L,) state."""
    stack = macmodel.LinkState(*(np.asarray(getattr(state, f.name))[None] for f in fields(state)))
    [rep] = metrics.report(stack, *args, **kwargs)
    return rep
