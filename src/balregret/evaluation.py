"""Six evaluation criteria and cross-criteria comparison matrices.

Criteria: nominal cost (BC), worst case under interval and budgeted
uncertainty (WC-I, WC-G), regret under interval and budgeted uncertainty
(R-I, R-G), and the budgeted regret with a balancing stage (BR).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

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
    g = inst.budgets.gamma if gamma is None else gamma
    gp = inst.budgets.gamma_prime if gamma_prime is None else gamma_prime
    return replace(inst, budgets=Budgets(g, gp))


def _adversarial_value(inst: Instance, x: BinarySolution) -> int:
    """Value of x under the solvers' default adversary for the instance."""
    return master._pick_adversary(inst, None)[1](inst, x).value


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
    if criterion == "R-G":
        return _adversarial_value(_with_budgets(inst, gamma_prime=0), x)
    return _adversarial_value(inst, x)


def optimize_criterion(inst: Instance, criterion: str) -> SolveReport:
    """Optimal solution and value for one criterion."""
    if criterion not in CRITERIA:
        raise InputError(f"unknown criterion {criterion!r}")
    c, d = inst.costs.c_hat, inst.costs.d
    n = inst.n
    if criterion in ("BC", "WC-I"):
        costs = list(c) if criterion == "BC" else [ci + di for ci, di in zip(c, d)]
        x = nominal_solve(inst.feasible, costs)
        value = sum(ci * xi for ci, xi in zip(costs, x.x))
        return SolveReport.exact(x, value, criterion, 0.0)
    if criterion == "WC-G":
        gamma = inst.budgets.gamma
        best = None
        for s in inst.costs.break_points():
            adj = [ci + max(di - s, 0) for ci, di in zip(c, d)]
            x = nominal_solve(inst.feasible, adj)
            value = gamma * s + sum(ai * xi for ai, xi in zip(adj, x.x))
            if best is None or value < best[0]:
                best = (value, x)
        return SolveReport.exact(best[1], best[0], criterion, 0.0)
    if criterion == "R-I":
        sub = _with_budgets(inst, gamma=n, gamma_prime=0)
    elif criterion == "R-G":
        sub = _with_budgets(inst, gamma_prime=0)
    else:
        sub = inst
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
    values: dict[str, list[list[int]]] = field(default_factory=dict)

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
    rows = list(CRITERIA)
    if gamma_prime_range is not None:
        rows += [f"BR({gp})" for gp in gamma_prime_range]
    cols = list(CRITERIA)
    sums = [[0.0] * len(cols) for _ in rows]
    counts = [[0] * len(cols) for _ in rows]
    excluded = [[0] * len(cols) for _ in rows]
    per_instance: dict[str, list[list[int]]] = {}

    for inst in batch:
        reports: dict[str, SolveReport] = {}
        for c in cols:
            # At gamma_prime 0 the BR problem is R-G's: reuse its solve.
            if c == "BR" and inst.budgets.gamma_prime == 0:
                reports[c] = reports["R-G"]
            else:
                reports[c] = optimize_criterion(inst, c)
        optima = [reports[c].value for c in cols]
        solutions = [reports[c].x for c in cols]
        if gamma_prime_range is not None:
            # BR at gamma_prime 0 takes R-G's path, and BR at the
            # instance's own gamma_prime is the BR column: reuse both.
            known = {0: reports["R-G"].x,
                     inst.budgets.gamma_prime: reports["BR"].x}
            for gp in gamma_prime_range:
                if gp not in known:
                    sub = _with_budgets(inst, gamma_prime=gp)
                    known[gp] = optimize_criterion(sub, "BR").x
                solutions.append(known[gp])
        # Criteria often share an optimizer: evaluate each distinct x once.
        # At gamma_prime 0 the BR value of x is its R-G value.
        same = {"BR": "R-G"} if inst.budgets.gamma_prime == 0 else {}
        evaluated: dict[BinarySolution, list[int]] = {}
        table = []
        for x in solutions:
            if x not in evaluated:
                vals = {c: eval_criterion(inst, x, c)
                        for c in cols if c not in same}
                evaluated[x] = [vals[same.get(c, c)] for c in cols]
            table.append(list(evaluated[x]))
        per_instance[inst.name or f"instance-{len(per_instance)}"] = table
        for i, vals in enumerate(table):
            for j, f_star in enumerate(optima):
                f = vals[j]
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
                          instances=len(batch), values=per_instance)
