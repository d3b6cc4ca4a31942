"""Polynomial special cases for multi-representative selection.

Covers the regret problem without a balancing stage (gamma_prime = 0),
detection of zero-value solutions, and dominance preprocessing.

``solve_regret_budgeted_mrs`` is called by the CLI's ``regret-poly``
method, ``crosscheck`` and the criteria matrix.  The zero check's body is
``master.zero_solution``, which ``solve_compact_mrs`` and
``solve_enumeration`` call before building a model; ``check_zero_solution``
is its entry point with the theorem's budget precondition.
The dominance order, ``dominance_reduce`` and ``DominanceResult``, lives
in ``master`` too: ``master._first_stage_model`` applies it to every
selection model (the masters of ``solve_iterative`` and
``solve_enumeration``, and ``solve_compact_mrs``'s MILP); it is
re-exported here.
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
from .master import (
    DominanceResult,
    SolveReport,
    dominance_reduce,
    zero_solution,
)


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

    # Grid of pi values.  Besides the plain kinks {0, d_i}, the optimum may
    # sit where pi ties with one partition's kappa_j as c_k + d_k - kappa_j;
    # substituting the explicit kappa_j candidate superset for every anchor
    # item k turns that case into extra grid points, because the anchor's
    # own kappa_j = c_k + d_k - pi reappears among the per-partition kink
    # candidates once pi is fixed.
    anchors = c_all + d_all
    pair_diffs = np.concatenate(
        [(cs[l][:, None] - cs[l][None, :] - ds[l][None, :]).ravel()
         for l in range(f.num_partitions)]
    )
    grid = np.concatenate((
        [0.0], d_all, anchors, -pair_diffs,
        (anchors[:, None] - c_all[None, :]).ravel(),
    ))
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


def check_zero_solution(inst: Instance) -> BinarySolution | None:
    """Return a first-stage solution of value zero if one exists
    (``master.zero_solution``).  Requires attack budgets of at least one
    on both sides, where the theorem says that its one candidate is the
    only one that needs checking."""
    _require_mrs(inst)
    if inst.budgets.gamma < 1 or inst.budgets.gamma_prime < 1:
        raise InputError("zero check requires gamma >= 1 and gamma_prime >= 1")
    return zero_solution(inst)
