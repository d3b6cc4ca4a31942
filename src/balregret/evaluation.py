"""Six evaluation criteria and cross-criteria comparison matrices.

Criteria: nominal cost (BC), worst case under interval and budgeted
uncertainty (WC-I, WC-G), regret under interval and budgeted uncertainty
(R-I, R-G), and the budgeted regret with a balancing stage (BR).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

from . import master
from .core import (
    BinarySolution,
    Budgets,
    InputError,
    Instance,
    MultiRepSelection,
    nominal_solve,
)
from .master import SolveReport
from .polyalg import solve_regret_budgeted_mrs

CRITERIA = ("BC", "WC-I", "WC-G", "R-I", "R-G", "BR")


def _with_budgets(inst: Instance, gamma: int | None = None,
                  gamma_prime: int | None = None) -> Instance:
    """inst at the given budgets, and inst itself when they are its own."""
    b = inst.budgets
    g = b.gamma if gamma is None else gamma
    gp = b.gamma_prime if gamma_prime is None else gamma_prime
    if g == b.gamma and gp == b.gamma_prime:
        return inst
    return replace(inst, budgets=Budgets(g, gp))


def _regret_budgets(inst: Instance, criterion: str) -> tuple[int, int]:
    """The budgets (gamma, gamma_prime) of the balanced-regret problem that
    a regret criterion poses on inst: R-I attacks every item, R-G up to
    gamma items, and neither balances; BR is inst's own problem."""
    if criterion == "R-I":
        return inst.n, 0
    if criterion == "R-G":
        return inst.budgets.gamma, 0
    return inst.budgets.gamma, inst.budgets.gamma_prime


def eval_criterion(inst: Instance, x: BinarySolution, criterion: str) -> int:
    """Objective value of a fixed solution under one criterion."""
    if criterion not in CRITERIA:
        raise InputError(f"unknown criterion {criterion!r}")
    if not inst.feasible.is_feasible(x):
        raise InputError("solution is infeasible for the instance")
    c, d = inst.costs.c_hat, inst.costs.d
    if criterion == "BC":
        return sum(ci * xi for ci, xi in zip(c, x.x))
    if criterion == "WC-I":
        return sum((ci + di) * xi for ci, di, xi in zip(c, d, x.x))
    if criterion == "WC-G":
        attacked = inst.costs.top_deviations(x.x, inst.budgets.gamma)
        return (sum(ci * xi for ci, xi in zip(c, x.x))
                + sum(d[i] for i in attacked))
    if criterion == "R-I":
        worst = sum((ci + di) * xi for ci, di, xi in zip(c, d, x.x))
        hindsight = [ci + di * xi for ci, di, xi in zip(c, d, x.x)]
        y = nominal_solve(inst.feasible, hindsight)
        return worst - sum(hi * yi for hi, yi in zip(hindsight, y.x))
    sub = _with_budgets(inst, *_regret_budgets(inst, criterion))
    return master._adversarial_value(sub, x)


def optimize_criterion(inst: Instance, criterion: str) -> SolveReport:
    """Optimal solution and value for one criterion."""
    if criterion not in CRITERIA:
        raise InputError(f"unknown criterion {criterion!r}")
    c, d = inst.costs.c_hat, inst.costs.d
    if criterion in ("BC", "WC-I"):
        costs = list(c) if criterion == "BC" else [ci + di for ci, di in zip(c, d)]
        x = nominal_solve(inst.feasible, costs)
        value = sum(ci * xi for ci, xi in zip(costs, x.x))
        return SolveReport.exact(x, value, criterion, 0.0)
    if criterion == "WC-G":
        gamma = inst.budgets.gamma
        best = None
        for s in inst.costs.break_points(gamma):
            adj = [ci + max(di - s, 0) for ci, di in zip(c, d)]
            x = nominal_solve(inst.feasible, adj)
            value = gamma * s + sum(ai * xi for ai, xi in zip(adj, x.x))
            if best is None or value < best[0]:
                best = (value, x)
        return SolveReport.exact(best[1], best[0], criterion, 0.0)
    sub = _with_budgets(inst, *_regret_budgets(inst, criterion))
    if sub.budgets.gamma_prime == 0 and isinstance(sub.feasible,
                                                   MultiRepSelection):
        rep = solve_regret_budgeted_mrs(sub)
    else:
        rep = master.solve_iterative(sub)
    return replace(rep, method=f"{criterion}:{rep.method}")


@dataclass
class CriteriaMatrix:
    """Mean relative differences of per-criterion optimal solutions.

    Rows are the solutions (one optimizer per criterion, plus optional
    extra BR rows over a balancing-budget range); columns are the
    criteria they are re-evaluated under.  ``excluded`` counts
    (instance, cell) pairs skipped because the column optimum was 0 while
    the row solution was not.
    """

    rows: list[str]
    cols: list[str]
    mean: list[list[float]]
    excluded: list[list[int]]
    instances: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("solution,criterion,mean_rel_diff,excluded\n")
        for i, r in enumerate(self.rows):
            for j, col in enumerate(self.cols):
                m = self.mean[i][j]
                cell = "" if math.isnan(m) else f"{m:.6f}"
                buf.write(f"{r},{col},{cell},{self.excluded[i][j]}\n")
        return buf.getvalue()


def criteria_matrix(batch: list[Instance],
                    gamma_prime_range: range | None = None) -> CriteriaMatrix:
    """Cross-evaluate every criterion's optimizer under every criterion.

    Relative difference per cell is (f(x) - f*) / f* against the column's
    optimum f*; zero optima contribute 0 when matched exactly and are
    excluded (and counted) otherwise.  Cell means are taken over the batch.
    """
    if not batch:
        raise InputError("batch must be non-empty")
    rows = list(CRITERIA) + [f"BR({gp})" for gp in gamma_prime_range or ()]
    cols = list(CRITERIA)
    sums = [[0.0] * len(cols) for _ in rows]
    counts = [[0] * len(cols) for _ in rows]
    excluded = [[0] * len(cols) for _ in rows]

    for inst in batch:
        # Each column's optimizer, then BR at each gamma_prime of the range.
        # R-G and BR are keyed by their problem's budgets, which fix their
        # optimum and every x's value, the others by name: each key is
        # solved once, and each distinct x evaluated once per column key.
        tasks = [(c, inst) for c in cols] + [
            ("BR", _with_budgets(inst, gamma_prime=gp))
            for gp in gamma_prime_range or ()]
        keys = [_regret_budgets(sub, c) if c in ("R-G", "BR") else c
                for c, sub in tasks]
        reports: dict[object, SolveReport] = {}
        for (c, sub), key in zip(tasks, keys):
            if key not in reports:
                reports[key] = optimize_criterion(sub, c)
        col_keys = keys[:len(cols)]
        optima = [reports[key].value for key in col_keys]
        solutions = [reports[key].x for key in keys]
        evaluated: dict[BinarySolution, list[int]] = {}
        for x in solutions:
            if x not in evaluated:
                vals: dict[object, int] = {}
                for c, key in zip(cols, col_keys):
                    if key not in vals:
                        vals[key] = eval_criterion(inst, x, c)
                evaluated[x] = [vals[key] for key in col_keys]
        for i, x in enumerate(solutions):
            for j, (f, f_star) in enumerate(zip(evaluated[x], optima)):
                if f_star == 0:
                    if f == 0:
                        counts[i][j] += 1
                    else:
                        excluded[i][j] += 1
                else:
                    sums[i][j] += (f - f_star) / f_star
                    counts[i][j] += 1

    mean = [
        [sums[i][j] / counts[i][j] if counts[i][j] else math.nan
         for j in range(len(cols))]
        for i in range(len(rows))
    ]
    return CriteriaMatrix(rows=rows, cols=cols, mean=mean, excluded=excluded,
                          instances=len(batch))
