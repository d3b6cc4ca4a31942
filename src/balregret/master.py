"""Optimize the first-stage solution.

Three routes: full scenario enumeration, iterative scenario generation
(master relaxation gives lower bounds, the adversarial problem gives upper
bounds), and a compact MILP for multi-representative selection obtained by
enumerating the balancing dual's break points. On selection, the compact
MILP and enumeration first try the zero-value theorem's candidate
(``zero_solution``), and every first-stage model (the masters of iterative
and enumeration, and the compact MILP) carries the dominance order
(``dominance_reduce``): bounds on the items it forces in or out, and a
precedence row per cover pair that those bounds leave open.  This module
holds the one implementation of both theorems; ``polyalg`` holds the
gamma_prime = 0 algorithm.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import milp
from .adversarial import (
    adversarial_bruteforce,
    adversarial_milp,
    adversarial_selection_dp,
    evaluate_against,
)
from .core import (
    ENUMERATION_GUARD,
    BinarySolution,
    Instance,
    InputError,
    InternalError,
    MultiRepSelection,
    Scenario,
    ScaleError,
    _read_solution,
    enumerate_solutions,
    nominal_solve,
)

DEFAULT_TIME_LIMIT = 1800.0

AdversaryFn = Callable[[Instance, BinarySolution], "object"]

ADVERSARY_METHODS: dict[str, AdversaryFn] = {
    "bruteforce": adversarial_bruteforce,
    "milp": adversarial_milp,
    "dp": adversarial_selection_dp,
}


# A growing subset of the adversary's (solution, attack) pairs, kept in
# insertion order.
ScenarioPool = dict[tuple[BinarySolution, Scenario], None]


@dataclass
class SolveReport:
    x: BinarySolution
    value: int
    iterations: int
    lower_bounds: list[float]
    upper_bounds: list[float]
    wall_time: float
    method: str
    optimal: bool = True

    @classmethod
    def exact(
        cls,
        x: BinarySolution,
        value: int,
        method: str,
        wall_time: float,
        iterations: int = 1,
        optimal: bool = True,
    ) -> "SolveReport":
        """A one-shot report whose lower and upper bounds are both the
        value."""
        return cls(
            x=x,
            value=value,
            iterations=iterations,
            lower_bounds=[float(value)],
            upper_bounds=[float(value)],
            wall_time=wall_time,
            method=method,
            optimal=optimal,
        )

    @property
    def gap(self) -> float:
        if not self.lower_bounds or not self.upper_bounds:
            return math.inf
        return self.upper_bounds[-1] - self.lower_bounds[-1]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "x": list(self.x.indices()),
            "iterations": self.iterations,
            "lower_bounds": self.lower_bounds,
            "upper_bounds": self.upper_bounds,
            "time": self.wall_time,
            "method": self.method,
            "optimal": self.optimal,
        }


def _first_stage_model(
    inst: Instance,
) -> tuple[milp.MilpModel, int, list[int]]:
    """Minimize a free value variable (index 0) over n binaries x (indices
    1..n) held to the feasible set's rows; the caller bounds the value.

    On selection the binaries also follow ``dominance_reduce``: the bound
    lb = 1 or ub = 0 on each forced item, and a row x_i - x_j >= 0 per
    cover pair with neither end forced.  A pair with a forced end holds
    under the bounds alone: i forced in or j forced out meets it, and the
    order forces j out with i, and i in with j.
    """
    model = milp.MilpModel()
    value_var = model.add_continuous(-milp.INF)
    x_vars = [model.add_binary() for _ in range(inst.n)]
    model.set_objective("min", {value_var: 1.0})
    for coefs, sense, rhs in inst.feasible.linear_rows():
        model.add_constraint({x_vars[j]: a for j, a in coefs.items()}, sense, rhs)
    if isinstance(inst.feasible, MultiRepSelection):
        order = dominance_reduce(inst)
        forced = order.forced_in | order.forced_out
        for i, j in order.precedences:
            if i not in forced and j not in forced:
                model.add_constraint({x_vars[i]: 1.0, x_vars[j]: -1.0},
                                     ">=", 0.0)
        for i in order.forced_in:
            model.variables[x_vars[i]].lb = 1.0
        for i in order.forced_out:
            model.variables[x_vars[i]].ub = 0.0
    return model, value_var, x_vars


def _first_stage_x(inst: Instance, res: milp.MilpResult) -> BinarySolution:
    """The first-stage solution a ``_first_stage_model`` optimum encodes."""
    return _read_solution(inst.feasible, res.assignment[1:1 + inst.n])


def build_master(inst: Instance, pool: ScenarioPool) -> milp.MilpModel:
    """Master model over the current pool: one value variable, n binaries
    for x, and one balancing attack vector per scenario."""
    if not pool:
        raise InputError("scenario pool must be non-empty")
    n = inst.n
    c, d = inst.costs.c_hat, inst.costs.d
    gp = inst.budgets.gamma_prime
    model, z, x_vars = _first_stage_model(inst)

    for y, delta in pool:
        # Balancing variables only pay off on the adversary's items. Once
        # x is integral their relaxation is integral, so they stay
        # continuous and branch and bound runs over x alone. Their rows
        # eps_i + x_i <= 1 cap them at 1, so they carry no upper bound.
        # At gamma_prime = 0 the budget row would pin them to 0, so the
        # scenario keeps only its value row.
        eps_vars = ({i: model.add_continuous(0.0) for i in range(n) if y.x[i]}
                    if gp else {})
        coefs: dict[int, float] = {z: 1.0}
        rhs = 0.0
        for i in range(n):
            coefs[x_vars[i]] = -float(c[i] + d[i] * delta.delta[i])
            if y.x[i]:
                rhs -= c[i] + d[i] * delta.delta[i]
        for i, v in eps_vars.items():
            coefs[v] = float(d[i])
        model.add_constraint(coefs, ">=", rhs)
        for i, v in eps_vars.items():
            model.add_constraint({v: 1.0, x_vars[i]: 1.0}, "<=", 1.0)
        if gp:
            model.add_constraint(
                {v: 1.0 for v in eps_vars.values()}, "<=", float(gp)
            )
    return model


def zero_solution(inst: Instance) -> Optional[BinarySolution]:
    """The zero-value theorem's candidate on multi-representative
    selection, the per-partition cheapest items under c + d, if its exact
    DP value is 0; None otherwise.

    A returned candidate is optimal at any budgets: no value is below 0,
    because the adversary may copy x.  None means that the optimum is
    positive only when gamma and gamma_prime are both at least 1, where
    no other solution can reach 0; ``_zero_report`` applies that
    condition.
    """
    f = inst.feasible
    if not isinstance(f, MultiRepSelection):
        raise InputError("zero check requires multi-representative selection")
    c, d = inst.costs.c_hat, inst.costs.d
    picked: list[int] = []
    for part, quota in zip(f.partitions, f.quotas):
        order = sorted(part, key=lambda i: (c[i] + d[i], c[i], i))
        picked.extend(order[:quota])
    candidate = BinarySolution.from_indices(picked, inst.n)
    cert = adversarial_selection_dp(inst, candidate)
    return candidate if cert.value == 0 else None


@dataclass
class DominanceResult:
    """Item-precedence cuts x_i >= x_j plus the memberships they force."""

    precedences: list[tuple[int, int]] = field(default_factory=list)
    forced_in: set[int] = field(default_factory=set)
    forced_out: set[int] = field(default_factory=set)


def dominance_reduce(inst: Instance) -> DominanceResult:
    """The dominance order on multi-representative selection: item i
    dominates j in its partition when it is no worse under both the
    nominal and the fully attacked cost (ties keep the lower index as
    dominator), and some optimum then takes i whenever it takes j.

    ``precedences`` holds only the cover pairs, those (i, j) with no k
    between them (i dominates k, k dominates j); the relation is
    transitive, so every other pair's row is a sum of theirs.  The forced
    items are counted on the full relation: i is forced in when fewer
    than the quota of its partition's other items are left once i's
    dominated items go, and forced out when i and its dominators exceed
    the quota.
    """
    f = inst.feasible
    if not isinstance(f, MultiRepSelection):
        raise InputError("dominance order requires multi-representative "
                         "selection")
    c, d = inst.costs.c_hat, inst.costs.d
    out = DominanceResult()

    def dominates(i: int, j: int) -> bool:
        if c[i] > c[j] or c[i] + d[i] > c[j] + d[j]:
            return False
        if c[i] < c[j] or c[i] + d[i] < c[j] + d[j]:
            return True
        return i < j

    for part, quota in zip(f.partitions, f.quotas):
        below = {i: {j for j in part if i != j and dominates(i, j)}
                 for i in part}
        above = {j: sum(j in below[i] for i in part) for j in part}
        for i in part:
            out.precedences.extend(
                (i, j) for j in part
                if j in below[i] and not any(j in below[k] for k in below[i]))
            if len(part) - 1 - len(below[i]) < quota:
                out.forced_in.add(i)
            if above[i] + 1 > quota:
                out.forced_out.add(i)
    return out


def _zero_report(inst: Instance, method: str,
                 start: float) -> Optional[SolveReport]:
    """The exact report of value 0 when ``zero_solution`` finds one on a
    selection instance with both budgets at least one; None otherwise,
    and the caller solves its model."""
    b = inst.budgets
    if (not isinstance(inst.feasible, MultiRepSelection)
            or b.gamma < 1 or b.gamma_prime < 1):
        return None
    x0 = zero_solution(inst)
    if x0 is None:
        return None
    return SolveReport.exact(x0, 0, method, time.monotonic() - start)


def _initial_scenario(inst: Instance) -> tuple[BinarySolution, Scenario]:
    """Warm start: the robust nominal solution and a greedy attack on the
    largest deviations it leaves unpacked."""
    y0 = nominal_solve(inst.feasible, inst.costs.worst())
    mask = [1 - yi for yi in y0.x]
    picked = inst.costs.top_deviations(mask, inst.budgets.gamma)
    return y0, Scenario.from_indices(picked, inst.n)


def _pick_adversary(inst: Instance, adversary: Optional[str]) -> tuple[str, AdversaryFn]:
    if adversary is None:
        adversary = "dp" if isinstance(inst.feasible, MultiRepSelection) else "milp"
    if adversary not in ADVERSARY_METHODS:
        raise InputError(f"unknown adversary method {adversary!r}")
    return adversary, ADVERSARY_METHODS[adversary]


def solve_iterative(
    inst: Instance,
    adversary: Optional[str] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> SolveReport:
    """Scenario generation: alternate the pool master (lower bound) with the
    adversarial evaluation of its solution (upper bound) until they meet.

    Each master is solved with the best adversary value so far as its
    cutoff; a master that cannot beat it closes the gap without another
    adversary call.
    """
    name, adv = _pick_adversary(inst, adversary)
    start = time.monotonic()
    y0, delta0 = _initial_scenario(inst)
    pool: ScenarioPool = {(y0, delta0): None}

    lower: list[float] = []
    upper: list[float] = []

    # The adversary may copy the first stage, so zero bounds every value
    # from below; when the robust nominal solution already attains it the
    # loop is unnecessary.
    cert0 = adv(inst, y0)
    if cert0.value <= 0:
        return SolveReport.exact(
            y0, 0, f"iterative/{name}", time.monotonic() - start, iterations=0
        )
    best_x, best_value = y0, cert0.value
    pool[(cert0.y, cert0.delta)] = None

    iterations = 0
    optimal = False
    while True:
        iterations += 1
        model = build_master(inst, pool)
        res = milp.solve_milp(model, cutoff=best_value)
        if res.status == "cutoff":
            # No x beats the incumbent on this pool: the master's bound
            # has met it, and the adversary could only confirm it.
            lower.append(float(best_value))
            upper.append(float(best_value))
            optimal = True
            break
        if res.status != "optimal":
            raise ScaleError(f"master solve failed with status {res.status}")
        lb = res.value
        x = _first_stage_x(inst, res)
        cert = adv(inst, x)
        if cert.value < best_value:
            best_value = cert.value
            best_x = x
        lower.append(lb)
        upper.append(float(best_value))
        if best_value - lb <= 1e-6:
            optimal = True
            break
        if time.monotonic() - start > time_limit:
            break
        if (cert.y, cert.delta) in pool:
            raise InternalError("regenerated a pooled scenario without "
                                "convergence")
        pool[(cert.y, cert.delta)] = None
    return SolveReport(
        x=best_x,
        value=int(round(best_value)),
        iterations=iterations,
        lower_bounds=lower,
        upper_bounds=upper,
        wall_time=time.monotonic() - start,
        method=f"iterative/{name}",
        optimal=optimal,
    )


def _full_pool(inst: Instance) -> ScenarioPool:
    """Every adversary solution paired with its undominated attacks.

    Attacks on items the adversary packed are dropped (never helpful), as
    are attacks on zero-deviation items; among the rest only inclusion-
    maximal attack sets are kept, since a superset attack dominates its
    subsets for every first-stage solution.
    """
    d = inst.costs.d
    gamma = inst.budgets.gamma
    pool: ScenarioPool = {}
    for y in enumerate_solutions(inst.feasible):
        targets = [i for i in range(inst.n) if y.x[i] == 0 and d[i] > 0]
        k = min(gamma, len(targets))
        for combo in itertools.combinations(targets, k):
            pool[(y, Scenario.from_indices(combo, inst.n))] = None
            if len(pool) > ENUMERATION_GUARD:
                raise ScaleError("scenario set too large to enumerate")
    return pool


def solve_enumeration(inst: Instance) -> SolveReport:
    """One-shot master over the full scenario set."""
    start = time.monotonic()
    zero = _zero_report(inst, "enumeration", start)
    if zero is not None:
        return zero
    pool = _full_pool(inst)
    model = build_master(inst, pool)
    res = milp.solve_milp(model)
    if res.status != "optimal":
        raise ScaleError(f"enumeration master failed with status {res.status}")
    return SolveReport.exact(_first_stage_x(inst, res), int(round(res.value)),
                             "enumeration", time.monotonic() - start)


def build_compact(inst: Instance) -> milp.MilpModel:
    """Compact MILP for multi-representative selection: one dualized
    adversary block per break point that can bind."""
    f = inst.feasible
    if not isinstance(f, MultiRepSelection):
        raise InputError("compact formulation requires multi-representative selection")
    n, L = inst.n, f.num_partitions
    c, d = inst.costs.c_hat, inst.costs.d
    gamma, gp = inst.budgets.gamma, inst.budgets.gamma_prime

    model, t, x_vars = _first_stage_model(inst)

    part_of = {}
    for l, part in enumerate(f.partitions):
        for i in part:
            part_of[i] = l

    for s in inst.break_points():
        pi = model.add_continuous(0.0)
        rho = [model.add_continuous(0.0) for _ in range(n)]
        kappa = [model.add_continuous(-milp.INF) for _ in range(L)]
        # t >= sum c_i x_i + gamma*pi + sum rho_i - gp*s - sum p_l kappa_l
        coefs: dict[int, float] = {t: 1.0, pi: -float(gamma)}
        for i in range(n):
            coefs[x_vars[i]] = -float(c[i])
            coefs[rho[i]] = -1.0
        for l, quota in enumerate(f.quotas):
            coefs[kappa[l]] = float(quota)
        model.add_constraint(coefs, ">=", -float(gp * s))
        for i in range(n):
            model.add_constraint(
                {pi: 1.0, rho[i]: 1.0, x_vars[i]: -float(d[i])}, ">=", 0.0
            )
            bump = max(d[i] - s, 0)
            model.add_constraint(
                {
                    rho[i]: 1.0,
                    x_vars[i]: -float(bump),
                    kappa[part_of[i]]: -1.0,
                },
                ">=",
                -float(c[i] + bump),
            )
    return model


def solve_compact_mrs(inst: Instance) -> SolveReport:
    """Solve ``build_compact``'s MILP, unless the zero check settles the
    instance first."""
    start = time.monotonic()
    zero = _zero_report(inst, "compact", start)
    if zero is not None:
        return zero
    res = milp.solve_milp(build_compact(inst))
    if res.status not in ("optimal", "node_limit") or not res.assignment:
        raise ScaleError(f"compact solve failed with status {res.status}")
    return SolveReport.exact(
        _first_stage_x(inst, res),
        int(round(res.value)),
        "compact",
        time.monotonic() - start,
        optimal=res.status == "optimal",
    )


def solve_bruteforce(inst: Instance) -> SolveReport:
    """Double loop: evaluate every feasible first-stage solution exactly."""
    start = time.monotonic()
    candidates = enumerate_solutions(inst.feasible)
    ys = np.array([y.x for y in candidates], dtype=np.int64)
    worst = [int(evaluate_against(inst, x, ys).max()) for x in candidates]
    best = min(range(len(candidates)), key=worst.__getitem__)
    return SolveReport.exact(
        candidates[best],
        worst[best],
        "bruteforce",
        time.monotonic() - start,
        iterations=len(candidates),
    )
