"""The polynomial min-max regret algorithm for multi-representative
selection without a balancing stage (gamma_prime = 0), which the CLI's
``regret-poly`` method, ``crosscheck`` and the criteria matrix call.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    BinarySolution,
    Instance,
    InputError,
    MultiRepSelection,
)
from .master import SolveReport


def _require_mrs(inst: Instance) -> MultiRepSelection:
    if not isinstance(inst.feasible, MultiRepSelection):
        raise InputError("multi-representative selection required")
    return inst.feasible


def _partition_values(c: np.ndarray, d: np.ndarray, quota: int,
                      pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best dual value of one partition for each ``pi`` in a batch.

    For a fixed ``(pi, kappa)`` pair the items contribute
    ``max(kappa - c_i, 0)`` when left out and
    ``c_i + max(d_i - pi, kappa - c_i, 0)`` when packed, so the quota is
    filled with the items of smallest difference between the two.  The
    kappa candidates per pi are the kinks {0, c_i, c_i - pi, c_i + d_i - pi}
    clamped at zero; first candidate wins ties.  Returns the per-pi minima
    and the kappas attaining them.
    """
    P, T = len(pis), len(c)
    kap = np.empty((P, 3 * T + 1))
    kap[:, 0] = 0.0
    kap[:, 1:T + 1] = c[None, :]
    kap[:, T + 1:2 * T + 1] = c[None, :] - pis[:, None]
    kap[:, 2 * T + 1:] = c[None, :] + d[None, :] - pis[:, None]
    np.maximum(kap, 0.0, out=kap)
    slack = np.maximum(kap[:, :, None] - c[None, None, :], 0.0)
    delta = c[None, None, :] + np.maximum(d[None, None, :] - pis[:, None, None],
                                          slack) - slack
    take = np.partition(delta, quota - 1, axis=2)[:, :, :quota].sum(axis=2)
    totals = slack.sum(axis=2) + take - quota * kap
    best = np.argmin(totals, axis=1)
    rows = np.arange(P)
    return totals[rows, best], kap[rows, best]


def _partition_pick(c: np.ndarray, d: np.ndarray, quota: int, pi: float,
                    kappa: float) -> list[int]:
    """Quota-many item indices minimizing the packing delta, lowest index
    winning ties."""
    slack = np.maximum(kappa - c, 0.0)
    packed = c + np.maximum(np.maximum(d - pi, kappa - c), 0.0)
    order = np.argsort(packed - slack, kind="stable")
    return sorted(int(j) for j in order[:quota])


def solve_regret_budgeted_mrs(inst: Instance) -> SolveReport:
    """Exact min-max regret (no balancing stage) for selection variants.

    Enumerates the kink points of the piecewise-linear dual: a grid of
    ``pi`` values plus anchor pairs that tie ``pi`` to one partition's
    ``kappa``.  Every candidate pair is feasible for the dual, so each
    evaluation is an upper bound and the true optimum is in the grid.
    """
    f = _require_mrs(inst)
    if inst.budgets.gamma_prime != 0:
        raise InputError("regret algorithm requires gamma_prime = 0")
    start = time.monotonic()
    n = inst.n
    gamma = inst.budgets.gamma
    c_all = np.asarray(inst.costs.c_hat, dtype=float)
    d_all = np.asarray(inst.costs.d, dtype=float)
    parts = [np.array(p, dtype=int) for p in f.partitions]
    cs = [c_all[p] for p in parts]
    ds = [d_all[p] for p in parts]

    # Grid of pi values, the breakpoint argument of Bertsimas and Sim
    # (2004): the optimum sits at pi = 0 or where pi ties some item k's
    # deviation to its partition's kappa, d_k - pi = kappa - c_k, that is
    # pi = c_k + d_k - kappa.  Only kappa's pi-free candidates, 0 and the
    # c_j, give points; in a pi-dependent one, c_j - pi or c_j + d_j - pi,
    # pi cancels from the tie.  kappa = c_k gives the plain kink d_k.
    kinks = np.concatenate(([0.0], c_all))
    grid = np.concatenate(
        ([0.0], (c_all + d_all)[:, None] - kinks[None, :]), axis=None)
    grid = np.unique(grid[grid >= 0.0])

    totals = np.full(len(grid), gamma, dtype=float) * grid
    kappas = np.empty((f.num_partitions, len(grid)))
    chunk = 256
    for lo in range(0, len(grid), chunk):
        pis = grid[lo:lo + chunk]
        for l, quota in enumerate(f.quotas):
            vals, kaps = _partition_values(cs[l], ds[l], quota, pis)
            totals[lo:lo + len(pis)] += vals
            kappas[l, lo:lo + len(pis)] = kaps

    at = int(np.argmin(totals))
    best_val = float(totals[at])
    best_pi = float(grid[at])
    best_kappa = [float(kappas[l, at]) for l in range(f.num_partitions)]

    picked: list[int] = []
    for l, quota in enumerate(f.quotas):
        local = _partition_pick(cs[l], ds[l], quota, best_pi, best_kappa[l])
        picked.extend(int(parts[l][j]) for j in local)
    x = BinarySolution.from_indices(picked, n)
    return SolveReport.exact(
        x, int(round(best_val)), "regret-poly", time.monotonic() - start
    )
