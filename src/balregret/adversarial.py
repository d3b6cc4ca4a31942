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


def _topk_shared(d_sorted: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 k: int) -> np.ndarray:
    """For each column r of ``rows`` and c of ``cols``, the sum of the k
    largest d-values over the items both set; one 0/1 row per item, in the
    order of the non-increasing ``d_sorted``."""
    total = np.zeros((rows.shape[1], cols.shape[1]), dtype=np.int64)
    taken = np.zeros(total.shape, dtype=np.int32)
    for dj, r, c in zip(d_sorted.tolist(), rows, cols):
        if k > 0 and r.any():
            take = r[:, None] & c & (taken < k)
            total += take * dj
            taken += take
    return total


def pick_matrix(n: int, picks: Sequence[Sequence[int]]) -> np.ndarray:
    """The 0/1 rows of the n-item solutions whose items ``picks`` lists,
    one int8 row per pick, set by one scatter."""
    rows = np.repeat(np.arange(len(picks)), [len(p) for p in picks])
    ys = np.zeros((len(picks), n), dtype=np.int8)
    ys[rows, np.fromiter(itertools.chain.from_iterable(picks), np.intp)] = 1
    return ys


def evaluate_against(
    inst: Instance, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Adversarial value of each 0/1 row of ``xs`` against each row of
    ``ys``: one row of values per x."""
    c = np.asarray(inst.costs.c_hat, dtype=np.int64)
    d = np.asarray(inst.costs.d, dtype=np.int64)
    xs = np.asarray(xs)
    order = np.lexsort((np.arange(inst.n), -d))
    d_sorted = d[order]
    xs_o = xs[:, order].T.astype(bool)
    ys_o = ys[:, order].T.astype(bool)
    base = (xs @ c)[:, None] - ys @ c
    attack = _topk_shared(d_sorted, xs_o, ~ys_o, inst.budgets.gamma)
    balance = _topk_shared(d_sorted, ~xs_o, ys_o, inst.budgets.gamma_prime)
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
    values = evaluate_against(inst, [x.x], pick_matrix(inst.n, candidates))[0]
    best = int(np.argmax(values))
    y = BinarySolution.from_indices(candidates[best], inst.n)
    cert = _certificate_for(inst, x, y)
    if cert.value != int(values[best]):
        raise InternalError(f"bruteforce certificate {cert.value} != "
                            f"evaluation {int(values[best])}")
    return cert


def adversarial_milp(
    inst: Instance,
    x: BinarySolution,
    warm: Optional[list[Optional[milp._Root]]] = None,
) -> AdversaryCertificate:
    """Exact adversarial value via the dualized mixed-integer program.

    Its rows do not depend on x, only its objective does, so a caller
    that evaluates several x on one instance may pass ``warm``: a list
    that is empty or holds the root LP of the last call on the instance.
    The root LP then starts from that one's final tableau
    (``milp.solve_milp``'s ``root``), and the call leaves its own there.
    """
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

    # t_i, the dual of the balancing cap eps_i <= 1 - x_i, costs 1 - x_i:
    # where x_i = 1 it is free, and its row never binds.
    obj: dict[int, float] = {s_var: -float(gamma_prime)}
    for i in range(n):
        obj[y_vars[i]] = -float(c[i])
        obj[delta_vars[i]] = float(d[i] * x.x[i])
        obj[t_vars[i]] = -float(1 - x.x[i])
    model.set_objective("max", obj)

    for i in range(n):
        # s + t_i >= d_i y_i
        model.add_constraint(
            {s_var: 1.0, t_vars[i]: 1.0, y_vars[i]: -float(d[i])}, ">=", 0.0
        )
        model.add_constraint({y_vars[i]: 1.0, delta_vars[i]: 1.0}, "<=", 1.0)
    model.add_constraint({delta_vars[i]: 1.0 for i in range(n)}, "<=", float(gamma))
    for coefs, sense, rhs in inst.feasible.linear_rows():
        model.add_constraint({y_vars[j]: a for j, a in coefs.items()}, sense, rhs)

    res = milp.solve_milp(model, root=warm[0] if warm else None)
    if warm is not None:
        warm[:] = [res.root]
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

    Loops over the break points of the balancing dual over the items
    outside x (``Instance.break_points``); for each, one dynamic program
    over the items chooses, per item, to skip it, pick it for the
    adversary, or attack it. The first point of best value wins, and it
    is the first over every item's break points too: for a fixed (y,
    delta) the balancing term ``gamma_prime * s + sum(max(d_i - s, 0)
    for i in y, x_i = 0)`` is convex in s with kinks only at deviations
    of items outside x, so at ``gamma_prime >= 1`` its first minimizer
    is 0 or such a kink; at ``gamma_prime = 0`` every ``max(d_i (1 - x_i)
    - s, 0)`` is 0 at the one point, as it is at max d.
    """
    _require_selection(inst, "selection DP")
    _check_scale(inst)
    gamma_prime = inst.budgets.gamma_prime
    base = sum(ci * xi for ci, xi in zip(inst.costs.c_hat, x.x))

    points = inst.break_points(i for i, xi in enumerate(x.x) if not xi)
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
