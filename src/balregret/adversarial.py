"""Evaluate a fixed first-stage solution: the adversarial problem.

Three interchangeable exact methods: full enumeration over the adversary's
solutions, a generic dualized MILP, and a combinatorial dynamic program for
multi-representative selection.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from . import milp
from .balancing import solve_balancing
from .core import (
    AdversaryCertificate,
    BinarySolution,
    Instance,
    InternalError,
    Scenario,
    ScaleError,
    _read_solution,
    _require_selection,
    enumerate_solutions,
)

_OVERFLOW_LIMIT = 2**60


def _check_scale(inst: Instance) -> None:
    if sum(inst.costs.c_hat) + sum(inst.costs.d) > _OVERFLOW_LIMIT:
        raise ScaleError("instance data too large for exact integer arithmetic")


def _certificate_for(
    inst: Instance, x: BinarySolution, y: BinarySolution, optimal: bool = True
) -> AdversaryCertificate:
    """Worst case of x against the adversary's pick y. For fixed (x, y) the
    optimal attack takes the largest deviations among items we packed and
    the adversary did not."""
    mask = [xi and not yi for xi, yi in zip(x.x, y.x)]
    picked = inst.costs.top_deviations(mask, inst.budgets.gamma)
    delta = Scenario.from_indices(picked, inst.n)
    eps, value = solve_balancing(
        inst.costs, inst.budgets.gamma_prime, x, delta, y
    )
    return AdversaryCertificate(
        value=value, y=y, delta=delta, epsilon=eps, optimal=optimal
    )


def _topk_masked(d_sorted: np.ndarray, masks: np.ndarray, k: int) -> np.ndarray:
    """Row-wise sum of the k largest d-values selected by each mask.

    ``d_sorted`` must be non-increasing and ``masks`` already permuted into
    the same order.
    """
    if k <= 0:
        return np.zeros(masks.shape[0], dtype=np.int64)
    ranks = np.cumsum(masks, axis=1)
    return ((ranks <= k) & masks) @ d_sorted


def pick_matrix(n: int, picks: Sequence[Sequence[int]]) -> np.ndarray:
    """The 0/1 rows of the n-item solutions whose items ``picks`` lists,
    one int8 row per pick, set by one scatter."""
    rows = np.repeat(np.arange(len(picks)), [len(p) for p in picks])
    ys = np.zeros((len(picks), n), dtype=np.int8)
    ys[rows, np.fromiter(itertools.chain.from_iterable(picks), np.intp)] = 1
    return ys


def evaluate_against(
    inst: Instance, x: Sequence[int], ys: np.ndarray
) -> np.ndarray:
    """Adversarial value of the 0/1 row x against each row of ``ys``."""
    c = np.asarray(inst.costs.c_hat, dtype=np.int64)
    d = np.asarray(inst.costs.d, dtype=np.int64)
    xv = np.asarray(x, dtype=np.int64)
    order = np.lexsort((np.arange(inst.n), -d))
    d_sorted = d[order]
    ys_o = ys[:, order].astype(bool)
    x_o = xv[order].astype(bool)
    base = (xv - ys) @ c
    attack = _topk_masked(d_sorted, x_o & ~ys_o, inst.budgets.gamma)
    balance = _topk_masked(d_sorted, ~x_o & ys_o, inst.budgets.gamma_prime)
    return base + attack - balance


def adversarial_bruteforce(
    inst: Instance,
    x: BinarySolution,
    candidates: Optional[Sequence[Sequence[int]]] = None,
) -> AdversaryCertificate:
    """Exact adversarial value by enumerating every adversary solution.

    The attack is restricted, without loss, to items we packed that the
    adversary skipped; the balancing stage is solved greedily.
    ``candidates`` lets batch callers reuse one enumeration of the
    feasible set.
    """
    _check_scale(inst)
    if candidates is None:
        candidates = enumerate_solutions(inst.feasible)
    values = evaluate_against(inst, x.x, pick_matrix(inst.n, candidates))
    best = int(np.argmax(values))
    y = BinarySolution.from_indices(candidates[best], inst.n)
    cert = _certificate_for(inst, x, y)
    if cert.value != int(values[best]):
        raise InternalError(f"bruteforce certificate {cert.value} != "
                            f"evaluation {int(values[best])}")
    return cert


def adversarial_milp(inst: Instance, x: BinarySolution) -> AdversaryCertificate:
    """Exact adversarial value via the dualized mixed-integer program."""
    _check_scale(inst)
    n = inst.n
    c, d = inst.costs.c_hat, inst.costs.d
    gamma, gamma_prime = inst.budgets.gamma, inst.budgets.gamma_prime

    model = milp.MilpModel()
    y_vars = [model.add_binary() for _ in range(n)]
    # For fixed integral y the attack relaxation has an integral optimum,
    # so only the adversary's packing variables are binary. The rows
    # y_i + delta_i <= 1 cap the attack at 1, so it carries no upper bound.
    delta_vars = [model.add_continuous(0.0) for _ in range(n)]
    s_var = model.add_continuous(0.0)
    t_vars = [model.add_continuous(0.0) for _ in range(n)]

    obj: dict[int, float] = {s_var: -float(gamma_prime)}
    for i in range(n):
        obj[y_vars[i]] = -float(c[i])
        obj[delta_vars[i]] = float(d[i] * x.x[i])
        obj[t_vars[i]] = -1.0
    model.set_objective("max", obj)

    for i in range(n):
        # s + t_i >= d_i (y_i - x_i)
        model.add_constraint(
            {s_var: 1.0, t_vars[i]: 1.0, y_vars[i]: -float(d[i])},
            ">=",
            -float(d[i] * x.x[i]),
        )
        model.add_constraint({y_vars[i]: 1.0, delta_vars[i]: 1.0}, "<=", 1.0)
    model.add_constraint({delta_vars[i]: 1.0 for i in range(n)}, "<=", float(gamma))
    for coefs, sense, rhs in inst.feasible.linear_rows():
        model.add_constraint({y_vars[j]: a for j, a in coefs.items()}, sense, rhs)

    res = milp.solve_milp(model)
    if res.status == "node_limit" and not res.assignment:
        raise ScaleError("adversarial MILP hit the node limit with no incumbent")
    optimal = res.status == "optimal"
    y = _read_solution(inst.feasible, res.assignment[:n])
    const = sum(ci * xi for ci, xi in zip(c, x.x))
    cert = _certificate_for(inst, x, y, optimal=optimal)
    if optimal and abs(cert.value - (const + res.value)) >= 1e-5:
        raise InternalError(f"MILP certificate {cert.value} != optimum "
                            f"{const + res.value}")
    return cert


def adversarial_selection_dp(
    inst: Instance, x: BinarySolution
) -> AdversaryCertificate:
    """Exact adversarial value for multi-representative selection.

    Loops over the break points that can bind (``Instance.break_points``);
    for each, one dynamic program over the items chooses, per item, to skip
    it, pick it for the adversary, or attack it. The first point of best
    value wins.

    At ``gamma_prime >= 1`` only 0 and the deviations of items outside x
    are tried. For a fixed (y, delta) the balancing term is
    ``g_y(s) = gamma_prime * s + sum(max(d_i - s, 0) for i in y, x_i = 0)``,
    whose kinks are deviations of items outside x. Let s0 be the first
    maximizer over all of ``break_points()`` and y0 its pick. The discrete
    maximum equals the continuous one, so s0 minimizes ``g_y0``. Were s0
    neither 0 nor such a kink, ``g_y0`` would be flat around s0, and the
    previous kink of ``g_y0``, or 0, would be an earlier point of the same
    value, so s0 would not be first. Hence s0 and its y are kept.
    """
    _require_selection(inst, "selection DP")
    _check_scale(inst)
    c, d = inst.costs.c_hat, inst.costs.d
    gamma, gamma_prime = inst.budgets.gamma, inst.budgets.gamma_prime
    base = sum(ci * xi for ci, xi in zip(c, x.x))

    points = inst.break_points()
    if gamma_prime:
        kinks = {0, *(di for di, xi in zip(d, x.x) if not xi)}
        points = [s for s in points if s in kinks]
    candidates = []
    for s in points:
        total, y_idx = _dp_for_s(inst, x, s)
        candidates.append((base + total - gamma_prime * s, y_idx))
    best_value, y_idx = max(candidates, key=lambda vy: vy[0])
    y = BinarySolution.from_indices(y_idx, inst.n)
    cert = _certificate_for(inst, x, y)
    if cert.value != best_value:
        raise InternalError(f"DP certificate {cert.value} != {best_value}")
    return cert


def _dp_for_s(
    inst: Instance, x: BinarySolution, s: int
) -> tuple[int, list[int]]:
    """Best adversary gain for a fixed break point.

    Returns ``max over (y, delta)`` of attack gains minus discounted
    adversary costs, plus the maximizing pick ``y``'s items. One DP runs
    over the items in partition order; its state is (picks in the current
    partition, attacks so far), and each partition's row with the quota
    met seeds the next partition, so the attack budget is shared.
    """
    f = inst.feasible
    c, d = inst.costs.c_hat, inst.costs.d
    attackable = [x.x[i] == 1 and d[i] > 0 for i in range(inst.n)]
    width = min(inst.budgets.gamma, sum(attackable))

    NEG = float("-inf")
    done = [0] + [NEG] * width  # done[ac]: best value with every quota met
    # moves[j][yc][ac] records the choice at the j-th item in order.
    moves: list[list[list[int]]] = []
    for part, quota in zip(f.partitions, f.quotas):
        dp = [done] + [[NEG] * (width + 1) for _ in range(quota)]
        for i in part:
            cost = c[i] + max(d[i] * (1 - x.x[i]) - s, 0)
            hit = attackable[i]
            nxt = [[NEG] * (width + 1) for _ in range(quota + 1)]
            mv = [[-1] * (width + 1) for _ in range(quota + 1)]
            for yc in range(quota + 1):
                for ac in range(width + 1):
                    cur = dp[yc][ac]
                    if cur == NEG:
                        continue
                    if cur > nxt[yc][ac]:  # skip
                        nxt[yc][ac] = cur
                        mv[yc][ac] = 0
                    if yc < quota and cur - cost > nxt[yc + 1][ac]:
                        nxt[yc + 1][ac] = cur - cost
                        mv[yc + 1][ac] = 1
                    if hit and ac < width and cur + d[i] > nxt[yc][ac + 1]:
                        nxt[yc][ac + 1] = cur + d[i]
                        mv[yc][ac + 1] = 2
            dp = nxt
            moves.append(mv)
        done = dp[quota]

    best_a = max(range(width + 1), key=done.__getitem__)  # smallest on ties

    # Backtrack over the items in reverse, the pick count starting at the
    # quota at each partition's end.
    y_idx: list[int] = []
    ac = best_a
    for part, quota in zip(reversed(f.partitions), reversed(f.quotas)):
        yc = quota
        for i in reversed(part):
            choice = moves.pop()[yc][ac]
            if choice == 1:
                y_idx.append(i)
                yc -= 1
            elif choice == 2:
                ac -= 1
    return int(done[best_a]), sorted(y_idx)
