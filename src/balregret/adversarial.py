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
    MultiRepSelection,
    Scenario,
    ScaleError,
    _read_solution,
    _require_selection,
    enumerate_solutions,
)

# The selection DP's start value of a state no move reaches, and the most
# int64 states one of its passes holds (32 MB).
_UNREACHED = -(2**62)
_DP_STATES = 2**22


def _certificate_for(
    inst: Instance, x: BinarySolution, y: BinarySolution
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
    return AdversaryCertificate(value=value, y=y, delta=delta, epsilon=eps)


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


def adversary_model(inst: Instance) -> milp.MilpModel:
    """The rows of the dualized adversary MILP of one instance.  They do
    not depend on x, only the objective does (``adversarial_milp``), so
    the calls of one solve share one ``milp.HeldRows`` of them.

    Variables: the adversary's packing y (binary), the attack delta, the
    balancing dual s and the caps' duals t, n each but s.  For fixed
    integral y the attack relaxation has an integral optimum, so only y is
    binary; the rows y_i + delta_i <= 1 cap the attack at 1, so it carries
    no upper bound.
    """
    n, d = inst.n, inst.costs.d
    model = milp.MilpModel()
    y_vars = [model.add_binary() for _ in range(n)]
    delta_vars = [model.add_continuous(0.0) for _ in range(n)]
    s_var = model.add_continuous(0.0)
    t_vars = [model.add_continuous(0.0) for _ in range(n)]
    for i in range(n):
        # s + t_i >= d_i y_i
        model.add_constraint(
            {s_var: 1.0, t_vars[i]: 1.0, y_vars[i]: -float(d[i])}, ">=", 0.0)
        model.add_constraint({y_vars[i]: 1.0, delta_vars[i]: 1.0}, "<=", 1.0)
    model.add_constraint({v: 1.0 for v in delta_vars}, "<=",
                         float(inst.budgets.gamma))
    for coefs, sense, rhs in inst.feasible.linear_rows():
        model.add_constraint({y_vars[j]: a for j, a in coefs.items()},
                             sense, rhs)
    return model


def adversarial_milp(
    inst: Instance,
    x: BinarySolution,
    held: Optional[milp.HeldRows] = None,
) -> AdversaryCertificate:
    """Exact adversarial value via the dualized mixed-integer program.
    A solve that ends without an optimum raises ScaleError, so every
    certificate returned is exact.

    A caller that evaluates several x on one instance may pass ``held``,
    the ``milp.HeldRows`` of its ``adversary_model``: the call's root LP
    then starts from the last call's final tableau
    (``milp.solve_repriced``), and leaves its own there.
    """
    c, d, xs = (np.asarray(v, dtype=np.int64)
                for v in (inst.costs.c_hat, inst.costs.d, x.x))
    if held is None:
        held = milp.HeldRows(adversary_model(inst))

    # The adversary maximizes -c·y + (d·x)·delta - gamma_prime s
    # - (1 - x)·t; the engine minimizes its negation, in
    # ``adversary_model``'s variable order: y, delta, s, t.  t_i, the dual
    # of the balancing cap eps_i <= 1 - x_i, costs 1 - x_i: where x_i = 1
    # it is free, and its row never binds.
    cost = np.concatenate((c, -d * xs, [inst.budgets.gamma_prime], 1 - xs))
    res = milp.solve_repriced(held, cost)
    if res.status != "optimal":
        raise ScaleError(f"adversarial MILP ended {res.status} with no "
                         "solution")
    y = _read_solution(inst.feasible, res.assignment[:inst.n])
    optimum = int(c @ xs) - res.value
    cert = _certificate_for(inst, x, y)
    if abs(cert.value - optimum) >= 1e-5:
        raise InternalError(f"MILP certificate {cert.value} != optimum "
                            f"{optimum}")
    return cert


def adversarial_selection_dp(
    inst: Instance, x: BinarySolution
) -> AdversaryCertificate:
    """Exact adversarial value for multi-representative selection.

    Runs the balancing dual at every break point over the items outside
    x (``Instance.break_points``) in one dynamic program over the items
    in partition order, which chooses, per item, to skip it, pick it for
    the adversary, or attack it. Its state is (picks in the current
    partition, attacks so far, break point); each partition's states
    with the quota met seed the next partition, so the attack budget is
    shared. The points share every skip and attack move and differ only
    in the pick cost ``c_i + max(d_i (1 - x_i) - s, 0)``. They run in
    passes of at most ``_DP_STATES`` states, in order, and only one pass's
    states are held at once, besides a copy of the best point's.

    The first point of best value wins, across passes as within one, and
    it is the first over every item's break points too: at
    ``gamma_prime >= 1`` the points are 0 and the deviations of the
    items outside x less their gamma_prime largest, which keep the first
    optimum of this search (the proof is in ``ItemCosts.break_points``);
    at ``gamma_prime = 0`` every ``max(d_i (1 - x_i) - s, 0)`` is 0 at
    the one point, as it is at max d.

    The states are int64, and a state no move reaches holds
    ``_UNREACHED`` plus the moves applied to it since. That is exact:
    the scale guard (``ItemCosts``) bounds the sum of every cost and
    deviation by 2^60, so every reachable value lies in [-2^60, 2^60],
    and every other one below -2^61 and above -2^63.
    """
    _require_selection(inst, "selection DP")
    f = inst.feasible
    c, d = inst.costs.c_hat, inst.costs.d
    points = inst.break_points(i for i, xi in enumerate(x.x) if not xi)
    attackable = [xi == 1 and di > 0 for xi, di in zip(x.x, d)]
    width = min(inst.budgets.gamma, sum(attackable))

    # cost[i, k]: item i's pick cost at the k-th point,
    # max(c_i + d_i (1 - x_i) - s, c_i); gain[i]: its attack's.
    columns = np.array(
        [*c, *(ci + di * (1 - xi) for ci, di, xi in zip(c, d, x.x)), *d],
        dtype=np.int64).reshape(3, inst.n, 1)
    cost = np.maximum(columns[1] - np.array(points, dtype=np.int64),
                      columns[0])
    gain = columns[2]

    # done[k][ac]: the best value with every quota met, ac attacks, at the
    # k-th point of a pass. gamma_prime * s stays a Python int: it can
    # pass int64 from n = 8.
    base = sum(ci * xi for ci, xi in zip(c, x.x))
    gamma_prime = inst.budgets.gamma_prime
    span = max(1, _DP_STATES // ((inst.n + 1) * (max(f.quotas) + 1)
                                 * (width + 1)))
    best = None
    for lo in range(0, len(points), span):
        states = _dp_states(f, cost[:, lo:lo + span], gain, attackable, width)
        done = states[-1, f.quotas[-1]].T.tolist()
        values = [base + max(by_ac) - gamma_prime * s
                  for by_ac, s in zip(done, points[lo:lo + span])]
        k = max(range(len(values)), key=values.__getitem__)  # first on ties
        if best is None or values[k] > best[0]:
            best = values[k], lo + k, states[..., k].copy(), done[k]
        del states  # freed before the next pass allocates its own
    best_value, k, trail, by_ac = best
    value = max(by_ac)
    ac = by_ac.index(value)  # smallest on ties

    # Backtrack the k-th point from the end, starting each partition at
    # its quota. Each state replays the tie rule of a forward pass that
    # offers it pick, then attack, then skip, and keeps the first best
    # offer.
    j = inst.n
    y_idx: list[int] = []
    for part, quota in zip(reversed(f.partitions), reversed(f.quotas)):
        yc = quota
        for i in reversed(part):
            j -= 1
            if yc and trail.item(j, yc - 1, ac) - cost.item(i, k) == value:
                y_idx.append(i)
                yc -= 1
            elif (ac and attackable[i]
                  and trail.item(j, yc, ac - 1) + d[i] == value):
                ac -= 1
            value = trail.item(j, yc, ac)
    y = BinarySolution.from_indices(y_idx, inst.n)
    cert = _certificate_for(inst, x, y)
    if cert.value != best_value:
        raise InternalError(f"DP certificate {cert.value} != {best_value}")
    return cert


def _dp_states(f: MultiRepSelection, cost: np.ndarray, gain: np.ndarray,
               attackable: list[bool], width: int) -> np.ndarray:
    """The selection DP's pass over the points of ``cost``'s columns.

    Returns ``states[j, yc, ac, k]``: the best value at the k-th point
    after the first j items in partition order, with yc picks in the
    current partition and ac of at most ``width`` attacks so far. After a
    partition's last item its states with the quota met move to yc = 0,
    where the next partition starts. A pick shifts the yc axis and an
    attack the ac axis; no pick reaches yc = 0, which starts unreached.
    """
    states = np.empty((len(cost) + 1, max(f.quotas) + 1, width + 1,
                       cost.shape[1]), dtype=np.int64)
    states[:, 0] = _UNREACHED
    states[0] = _UNREACHED
    states[0, 0, 0] = 0
    j = 0
    for l, part in enumerate(f.partitions):
        if l:
            states[j, 0] = states[j, f.quotas[l - 1]]
            states[j, 1:] = _UNREACHED
        for i, cur, nxt in zip(part, states[j:], states[j + 1:]):
            np.subtract(cur[:-1], cost[i], out=nxt[1:])  # pick
            if attackable[i]:
                np.maximum(nxt[:, 1:], cur[:, :-1] + gain[i], out=nxt[:, 1:])
            np.maximum(nxt, cur, out=nxt)  # skip
        j += len(part)
    return states
