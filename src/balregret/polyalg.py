"""The polynomial min-max regret algorithm for multi-representative
selection without a balancing stage (gamma_prime = 0), which the CLI's
``regret-poly`` method, ``crosscheck`` and the criteria matrix call.

It computes in int64, exactly: with ``M = max(c_i + d_i)`` every ``pi``,
``kappa`` and slack lies in [0, M], every packing delta in [0, 2 M], and
every dual total in [-n M, (gamma + 3 n) M], inside int64 while
``n * M < 2**61`` (``_POLY_LIMIT``); larger data raises ``ScaleError``.
"""

from __future__ import annotations

import time

import numpy as np

from .adversarial import _check_scale
from .core import (
    BinarySolution,
    Instance,
    InputError,
    ScaleError,
    _require_selection,
)
from .master import SolveReport

_POLY_LIMIT = 2**61


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
    kap = np.empty((P, 3 * T + 1), dtype=np.int64)
    kap[:, 0] = 0
    kap[:, 1:T + 1] = c[None, :]
    kap[:, T + 1:2 * T + 1] = c[None, :] - pis[:, None]
    kap[:, 2 * T + 1:] = c[None, :] + d[None, :] - pis[:, None]
    np.maximum(kap, 0, out=kap)
    slack = np.maximum(kap[:, :, None] - c[None, None, :], 0)
    delta = c[None, None, :] + np.maximum(d[None, None, :] - pis[:, None, None],
                                          slack) - slack
    take = np.partition(delta, quota - 1, axis=2)[:, :, :quota].sum(axis=2)
    totals = slack.sum(axis=2) + take - quota * kap
    best = np.argmin(totals, axis=1)
    rows = np.arange(P)
    return totals[rows, best], kap[rows, best]


def _partition_pick(c: np.ndarray, d: np.ndarray, quota: int, pi: int,
                    kappa: int) -> list[int]:
    """Quota-many item indices minimizing the packing delta, lowest index
    winning ties."""
    slack = np.maximum(kappa - c, 0)
    packed = c + np.maximum(np.maximum(d - pi, kappa - c), 0)
    order = np.argsort(packed - slack, kind="stable")
    return sorted(int(j) for j in order[:quota])


def solve_regret_budgeted_mrs(inst: Instance) -> SolveReport:
    """Exact min-max regret (no balancing stage) for selection variants.

    Enumerates the kink points of the piecewise-linear dual: a grid of
    ``pi`` values plus anchor pairs that tie ``pi`` to one partition's
    ``kappa``.  Every candidate pair is feasible for the dual, so each
    evaluation is an upper bound and the true optimum is in the grid.
    """
    f = _require_selection(inst, "regret algorithm")
    if inst.budgets.gamma_prime != 0:
        raise InputError("regret algorithm requires gamma_prime = 0")
    _check_scale(inst)
    if inst.n * max(inst.costs.worst()) >= _POLY_LIMIT:
        raise ScaleError("instance data too large for the regret algorithm's "
                         "int64 arithmetic")
    start = time.monotonic()
    n = inst.n
    gamma = inst.budgets.gamma
    c_all = np.asarray(inst.costs.c_hat, dtype=np.int64)
    d_all = np.asarray(inst.costs.d, dtype=np.int64)
    parts = [np.array(p, dtype=int) for p in f.partitions]
    cs = [c_all[p] for p in parts]
    ds = [d_all[p] for p in parts]

    # Grid of pi values, the breakpoint argument of Bertsimas and Sim
    # (2004): the optimum sits at pi = 0 or where pi ties some item k's
    # deviation to its partition's kappa, d_k - pi = kappa - c_k, that is
    # pi = c_k + d_k - kappa.  Only kappa's pi-free candidates, 0 and the
    # c_j, give points; in a pi-dependent one, c_j - pi or c_j + d_j - pi,
    # pi cancels from the tie.  kappa = c_k gives the plain kink d_k.
    kinks = np.concatenate(([0], c_all))
    grid = np.concatenate(
        ([0], (c_all + d_all)[:, None] - kinks[None, :]), axis=None)
    # Sorted and without repeats; np.unique would import numpy.ma.
    grid = np.sort(grid[grid >= 0])
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]

    totals = gamma * grid
    kappas = np.empty((f.num_partitions, len(grid)), dtype=np.int64)
    chunk = 256
    for lo in range(0, len(grid), chunk):
        pis = grid[lo:lo + chunk]
        for l, quota in enumerate(f.quotas):
            vals, kaps = _partition_values(cs[l], ds[l], quota, pis)
            totals[lo:lo + len(pis)] += vals
            kappas[l, lo:lo + len(pis)] = kaps

    at = int(np.argmin(totals))
    best_val = int(totals[at])
    best_pi = int(grid[at])
    best_kappa = [int(kappas[l, at]) for l in range(f.num_partitions)]

    picked: list[int] = []
    for l, quota in enumerate(f.quotas):
        local = _partition_pick(cs[l], ds[l], quota, best_pi, best_kappa[l])
        picked.extend(int(parts[l][j]) for j in local)
    x = BinarySolution.from_indices(picked, n)
    return SolveReport.exact(
        x, best_val, "regret-poly", time.monotonic() - start
    )
