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

from . import milp
from .adversarial import (
    _certificate_for,
    adversarial_bruteforce,
    adversarial_milp,
    adversarial_selection_dp,
    adversary_model,
    evaluate_against,
    pick_matrix,
)
from .core import (
    ENUMERATION_GUARD,
    AdversaryCertificate,
    BinarySolution,
    Instance,
    InputError,
    InternalError,
    MultiRepSelection,
    Scenario,
    ScaleError,
    _read_solution,
    _require_selection,
    enumerate_solutions,
    nominal_solve,
)

DEFAULT_TIME_LIMIT = 1800.0

AdversaryFn = Callable[..., AdversaryCertificate]
# A per-solve adversary: x -> the certificate of its worst case.
Evaluator = Callable[[BinarySolution], AdversaryCertificate]

ADVERSARY_METHODS: dict[str, AdversaryFn] = {
    "bruteforce": adversarial_bruteforce,
    "milp": adversarial_milp,
    "dp": adversarial_selection_dp,
}


# A growing set of the adversary's (solution, attack, break point) triples,
# kept in insertion order: one master row each (``_cut_row``).
ScenarioPool = dict[tuple[BinarySolution, Scenario, int], None]

# Largest block of first-stage rows ``solve_bruteforce`` scores at once,
# counted in (row, adversary solution, item) entries.
_BRUTEFORCE_BLOCK = 2**22
# Most feasible solutions ``solve_bruteforce`` scores against each other.
_BRUTEFORCE_CAP = 100_000


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
    model.set_objective({value_var: 1.0})
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


def _best_point(inst: Instance, y: BinarySolution, x: BinarySolution) -> int:
    """The break point of y's balancing dual at which its cut is tight at
    x: the smallest minimizer of gamma_prime * s + sum_{i in y, x_i = 0}
    (d_i - s)^+."""
    d, gp = inst.costs.d, inst.budgets.gamma_prime
    open_d = [d[i] for i in range(inst.n) if y.x[i] and not x.x[i]]
    return min(inst.break_points(y.indices()),
               key=lambda s: gp * s + sum(max(di - s, 0) for di in open_d))


def _cut(inst: Instance, y: BinarySolution, delta: Scenario,
         s: int) -> tuple[list[int], int]:
    """The cut of a pooled triple (y, delta, s) as integer coefficients a
    and a constant: the master row is z >= sum_i a_i x_i + const."""
    c, d, attacked = inst.costs.c_hat, inst.costs.d, delta.delta
    a = [c[i] + d[i] * attacked[i] + (max(d[i] - s, 0) if y.x[i] else 0)
         for i in range(inst.n)]
    const = -sum(ai for ai, yi in zip(a, y.x) if yi)
    return a, const - inst.budgets.gamma_prime * s


def _cut_row(a: list[int], const: int) -> milp.Row:
    """The master row z - a·x >= const of a ``_cut``, with z and x at the
    indices ``_first_stage_model`` gives them."""
    coefs = {0: 1.0}
    coefs.update((1 + i, -float(ai)) for i, ai in enumerate(a))
    return coefs, ">=", float(const)


def build_master(inst: Instance, pool: ScenarioPool) -> milp.MilpModel:
    """Master model over the current pool: one value variable z, n binaries
    for x, and one cut per pooled triple (y, delta, s), linear in x.

    Fix the adversary's pick y and attack delta.  The balancing stage
    solves max {sum_{i in y} d_i eps_i : 0 <= eps_i <= 1 - x_i, sum eps <=
    gamma_prime}, whose LP dual is min_{s >= 0} gamma_prime * s + sum_{i in
    y} (d_i - s)^+ (1 - x_i) (Bertsimas & Sim 2004).  Each s therefore
    gives a valid row
        z >= sum_i (c_i + d_i delta_i) (x_i - y_i) - gamma_prime * s
             - sum_{i in y} (d_i - s)^+ (1 - x_i),
    and the maximum of these rows over s is the scenario's value at x.
    For any x in [0, 1]^n that maximum is attained at one of
    ``Instance.break_points`` over y's items: 0 and their deviations less
    the gamma_prime largest (the proof is in ``ItemCosts.break_points``).
    The rows at those points thus give the same LP relaxation as a
    balancing vector eps per scenario with its caps and budget row, and
    no extra column.  At gamma_prime = 0 the point max {d_i : i in y}
    alone suffices: its row has no balancing term, and every other
    point's row is weaker.
    """
    if not pool:
        raise InputError("scenario pool must be non-empty")
    model = _first_stage_model(inst)[0]
    for key in pool:
        model.add_constraint(*_cut_row(*_cut(inst, *key)))
    return model


def zero_solution(inst: Instance) -> Optional[BinarySolution]:
    """The zero-value theorem's candidate on multi-representative
    selection, the per-partition cheapest items under c + d, if its exact
    DP value is 0; None otherwise.

    A returned candidate is optimal at any budgets: no value is below 0,
    because the adversary may copy x.  None means that the optimum is
    positive only when gamma and gamma_prime are both at least 1, where
    no other solution can reach 0; ``_solve_model`` applies that
    condition.
    """
    f = _require_selection(inst, "zero check")
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
    f = _require_selection(inst, "dominance order")
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


def _initial_scenario(inst: Instance) -> tuple[BinarySolution, Scenario]:
    """Warm start: the robust nominal solution and a greedy attack on the
    largest deviations it leaves unpacked."""
    y0 = nominal_solve(inst.feasible, inst.costs.worst())
    mask = [1 - yi for yi in y0.x]
    picked = inst.costs.top_deviations(mask, inst.budgets.gamma)
    return y0, Scenario.from_indices(picked, inst.n)


def _pick_adversary(inst: Instance,
                    adversary: Optional[str]) -> tuple[str, Evaluator]:
    """The adversary method's name, the instance's default for None, and
    an evaluator for the calls of one solve.  It looks the method up in
    ``ADVERSARY_METHODS`` at each call and passes what those calls share:
    the brute force one enumeration of the feasible set, and the MILP
    one ``milp.HeldRows`` of its model, whose rows are the same for every
    x, with the root LP of its last call."""
    if adversary is None:
        adversary = "dp" if isinstance(inst.feasible, MultiRepSelection) else "milp"
    if adversary not in ADVERSARY_METHODS:
        raise InputError(f"unknown adversary method {adversary!r}")
    shared: tuple = ()
    if adversary == "bruteforce":
        shared = (enumerate_solutions(inst.feasible),)
    elif adversary == "milp":
        shared = (milp.HeldRows(adversary_model(inst)),)
    return adversary, lambda x: ADVERSARY_METHODS[adversary](inst, x, *shared)


def _adversarial_value(inst: Instance, x: BinarySolution) -> int:
    """Value of x under the instance's default adversary."""
    return _pick_adversary(inst, None)[1](x).value


def solve_iterative(
    inst: Instance,
    adversary: Optional[str] = None,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> SolveReport:
    """Scenario generation in one branch-and-cut tree: the master's bound
    is the lower bound, the adversary's value of each integral point the
    upper bound.

    The master is built once, on the warm start's scenario at every break
    point and the adversary's scenario against it, and solved once, with
    the adversary as its lazy-row callback (``milp.solve_milp``'s
    ``lazy``).  At each integral point x the search reaches, the
    adversary values x; unless the master's value variable already meets
    that value, the callback returns one cut, the adversary's scenario at
    the break point whose cut is tight at x, and the tree goes on with it.

    Under the MILP adversary, x is first valued exactly against each
    pick so far: the warm start, the adversary's pick against it, and
    every pick the adversary has returned since.  When the best of them
    already scores x at the best value or above, x cannot improve it:
    that pick's scenario answers the round in the adversary's place, and
    the callback returns its value, a lower bound on x's that is at least
    the incumbent's, as ``milp.solve_milp``'s ``lazy`` allows.  Each MILP
    adversary call starts from the last one's root LP.  The DP and the
    brute force value every x: with the DP, the scan gave
    ``gen_selection(200, 1, gamma=3, gamma_prime=3)`` 2,159 rounds in
    place of 1,918 and about 1.4 times the CPU time.

    ``iterations`` counts the separation rounds, one per integral point
    the tree values, whether the adversary or a pooled pick answers it,
    and the bounds get one entry per round: the tree's bound and the best
    value so far.  A last entry has both at the optimum when the tree
    closes; when the tree pops a node after ``time_limit`` seconds, the
    report keeps the best x, is not optimal, and its last lower bound is
    the tree's (or 0, which bounds every value, if that is higher).
    """
    start = time.monotonic()
    name, adv = _pick_adversary(inst, adversary)
    y0, delta0 = _initial_scenario(inst)
    lower: list[float] = []
    upper: list[float] = []

    # The adversary may copy the first stage, so zero bounds every value
    # from below; when the robust nominal solution already attains it the
    # tree is unnecessary.
    cert0 = adv(y0)
    if cert0.value <= 0:
        return SolveReport.exact(
            y0, 0, f"iterative/{name}", time.monotonic() - start, iterations=0
        )
    best_x, best_value = y0, cert0.value
    pool: ScenarioPool = {(y0, delta0, s): None
                          for s in inst.break_points(y0.indices())}
    pool[(cert0.y, cert0.delta, _best_point(inst, cert0.y, y0))] = None

    # The picks that may answer a round in place of the MILP adversary.
    # A pick's cut meets the same checks as the adversary's: had its
    # scenario been pooled, the master's point would meet its cut, and
    # the round would return with no row.
    picks = {y0: None, cert0.y: None} if name == "milp" else None

    def separate(point, bound: float) -> tuple[int, list[milp.Row]]:
        nonlocal best_x, best_value
        x = _read_solution(inst.feasible, point[1:1 + inst.n])
        cert = None
        if picks is not None:
            cert = max((_certificate_for(inst, x, y) for y in picks),
                       key=lambda pooled: pooled.value)
        if cert is None or cert.value < best_value:
            cert = adv(x)
            if picks is not None:
                picks[cert.y] = None
        if cert.value < best_value:
            best_x, best_value = x, cert.value
        lower.append(bound)
        upper.append(float(best_value))
        if cert.value <= point[0] + 1e-6:  # the master's value is exact
            return cert.value, []
        key = (cert.y, cert.delta, _best_point(inst, cert.y, x))
        if key in pool:
            raise InternalError("regenerated a pooled scenario without "
                                "convergence")
        a, const = _cut(inst, *key)
        if sum(ai for ai, xi in zip(a, x.x) if xi) + const != cert.value:
            raise InternalError(f"cut of the adversary's scenario misses "
                                f"its value {cert.value} at the master's x")
        pool[key] = None
        return cert.value, [_cut_row(a, const)]

    # Values are integers, so an x that beats the warm start is worth at
    # most one less: the tree looks only for those, and a tree with no
    # such point proves the warm start optimal.
    model = build_master(inst, pool)
    model.variables[0].ub = best_value - 1.0
    res = milp.solve_milp(model, lazy=separate, deadline=start + time_limit)
    calls = len(lower)
    if res.status == "time_limit":
        lower.append(max(min(res.bound, best_value), 0.0))
    else:
        lower.append(float(best_value))
    upper.append(float(best_value))
    return SolveReport(
        x=best_x,
        value=best_value,
        iterations=calls,
        lower_bounds=lower,
        upper_bounds=upper,
        wall_time=time.monotonic() - start,
        method=f"iterative/{name}",
        optimal=res.status != "time_limit",
    )


def _full_pool(inst: Instance) -> ScenarioPool:
    """Every adversary solution paired with its undominated attacks, each
    pair at every break point of its balancing dual.

    Attacks on items the adversary packed are dropped (never helpful), as
    are attacks on zero-deviation items; among the rest only inclusion-
    maximal attack sets are kept, since a superset attack dominates its
    subsets for every first-stage solution.
    """
    d = inst.costs.d
    gamma = inst.budgets.gamma
    pool: ScenarioPool = {}
    pairs = 0
    for pick in enumerate_solutions(inst.feasible):
        y = BinarySolution.from_indices(pick, inst.n)
        targets = [i for i in range(inst.n) if y.x[i] == 0 and d[i] > 0]
        k = min(gamma, len(targets))
        points = inst.break_points(pick)
        for combo in itertools.combinations(targets, k):
            delta = Scenario.from_indices(combo, inst.n)
            pool.update(((y, delta, s), None) for s in points)
            pairs += 1
            if pairs > ENUMERATION_GUARD:
                raise ScaleError("scenario set too large to enumerate")
    return pool


def _solve_model(inst: Instance, method: str,
                 build: Callable[[], milp.MilpModel],
                 time_limit: float) -> SolveReport:
    """The report of ``method``: solve the first-stage model ``build()``
    returns, laid out as ``_first_stage_model``'s, unless the zero check
    settles the instance first.

    The check applies on selection with both budgets at least one, where
    ``zero_solution``'s candidate, when it finds one, is optimal, and its
    None proves the optimum positive.  A solve that pops a node after
    ``time_limit`` seconds stops: the report then holds the search's
    incumbent, or the robust nominal solution without one, at its exact
    value by the instance's default adversary, is not optimal, and its
    lower bound is the search's (or 0, which bounds every value, if that
    is higher).  A solve that ends infeasible raises ScaleError.
    """
    start = time.monotonic()
    b = inst.budgets
    if (isinstance(inst.feasible, MultiRepSelection)
            and b.gamma >= 1 and b.gamma_prime >= 1):
        x0 = zero_solution(inst)
        if x0 is not None:
            return SolveReport.exact(x0, 0, method, time.monotonic() - start)
    res = milp.solve_milp(build(), deadline=start + time_limit)
    if res.status == "infeasible":
        raise ScaleError(f"{method} solve failed with status {res.status}")
    if res.assignment:
        x = _read_solution(inst.feasible, res.assignment[1:1 + inst.n])
    else:
        x = _initial_scenario(inst)[0]
    if res.status == "optimal":
        return SolveReport.exact(x, int(round(res.value)), method,
                                 time.monotonic() - start)
    value = _adversarial_value(inst, x)
    return SolveReport(
        x=x,
        value=value,
        iterations=1,
        lower_bounds=[max(min(res.bound, value), 0.0)],
        upper_bounds=[float(value)],
        wall_time=time.monotonic() - start,
        method=method,
        optimal=False,
    )


def solve_enumeration(inst: Instance,
                      time_limit: float = DEFAULT_TIME_LIMIT) -> SolveReport:
    """One-shot master over the full scenario set."""
    return _solve_model(inst, "enumeration",
                        lambda: build_master(inst, _full_pool(inst)),
                        time_limit)


def build_compact(inst: Instance) -> milp.MilpModel:
    """Compact MILP for multi-representative selection: one dualized
    adversary block per break point that can bind.

    The points are ``Instance.break_points`` over the items that the
    dominance order does not fix at x_i = 1, since a fixed item's weight
    y_i (1 - x_i) in the balancing stage is 0.  By the proof in
    ``ItemCosts.break_points`` their blocks give the LP relaxation that
    a block at every point of {0} | {d_i} gives, fractional y included.
    """
    f = _require_selection(inst, "compact formulation")
    n, L = inst.n, f.num_partitions
    c, d = inst.costs.c_hat, inst.costs.d
    gamma, gp = inst.budgets.gamma, inst.budgets.gamma_prime

    model, t, x_vars = _first_stage_model(inst)

    part_of = {}
    for l, part in enumerate(f.partitions):
        for i in part:
            part_of[i] = l

    open_items = [i for i in range(n) if model.variables[x_vars[i]].lb < 1]
    for s in inst.break_points(open_items):
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


def solve_compact_mrs(inst: Instance,
                      time_limit: float = DEFAULT_TIME_LIMIT) -> SolveReport:
    """Solve ``build_compact``'s MILP."""
    return _solve_model(inst, "compact", lambda: build_compact(inst),
                        time_limit)


def solve_bruteforce(inst: Instance) -> SolveReport:
    """Double loop: evaluate every feasible first-stage solution exactly.
    More than ``_BRUTEFORCE_CAP`` solutions, whose pairs would take hours,
    raise ScaleError."""
    start = time.monotonic()
    candidates = enumerate_solutions(inst.feasible)
    if len(candidates) > _BRUTEFORCE_CAP:
        raise ScaleError(f"more than {_BRUTEFORCE_CAP} solutions")
    ys = pick_matrix(inst.n, candidates)
    step = max(1, _BRUTEFORCE_BLOCK // ys.size)
    worst: list[int] = []
    for k in range(0, len(ys), step):
        worst += evaluate_against(inst, ys[k:k + step], ys).max(1).tolist()
    best = min(range(len(candidates)), key=worst.__getitem__)
    return SolveReport.exact(
        BinarySolution.from_indices(candidates[best], inst.n),
        worst[best],
        "bruteforce",
        time.monotonic() - start,
        iterations=len(candidates),
    )
