"""One point through the analytic engine's stacked entry points.

`macmodel.solve_fixed_point`, `multihop.solve_network` and `metrics.report`
take a stack of P points and give one result per point.  Each function here
passes its one point as a stack of one and returns that point's result.
"""

from dataclasses import fields

import numpy as np

from csmafade import macmodel, metrics, multihop


def fixed_point(tables, qs, *args, **kwargs) -> macmodel.SolveResult:
    """solve_fixed_point of one table set and its (L,) qs; an arrivals
    hook still takes (rows, reliability) of the stack of one."""
    [result] = macmodel.solve_fixed_point([tables], [qs], *args, **kwargs)
    return result


def network(tables, next_hop, lam, *args, **kwargs) -> multihop.NetworkSolution:
    """solve_network of one table set and its (n,) per-node rates."""
    [solution] = multihop.solve_network([tables], next_hop, [lam], *args, **kwargs)
    return solution


def report(state, *args, **kwargs) -> metrics.MetricsReport:
    """metrics.report of one point's (L,) state."""
    stack = macmodel.LinkState(*(np.asarray(getattr(state, f.name))[None] for f in fields(state)))
    [rep] = metrics.report(stack, *args, **kwargs)
    return rep
