"""Shared fixtures: bundled worked examples and random instance builders."""

import importlib.resources

import pytest

from balregret.core import (
    BinarySolution,
    Budgets,
    FeasibleSet,
    InputError,
    Instance,
    ItemCosts,
    MultiRepSelection,
    ShortestPath,
    enumerate_solutions,
)
from balregret.instances import SplitMix64, load_instance
from balregret import milp


def _bundled(name: str) -> Instance:
    path = importlib.resources.files("balregret") / "data" / name
    return load_instance(str(path))


@pytest.fixture(scope="session")
def example_one() -> Instance:
    """Five items, pick two, one attack and one balancing raise."""
    return _bundled("example_one.json")


@pytest.fixture(scope="session")
def example_two() -> Instance:
    """Six items, pick three, two attacks and one balancing raise."""
    return _bundled("example_two.json")


def solutions(f: FeasibleSet) -> list[BinarySolution]:
    """Every feasible solution of f, in ``enumerate_solutions`` order."""
    return [BinarySolution.from_indices(p, f.n)
            for p in enumerate_solutions(f)]


def lp_relaxation(model: milp.MilpModel) -> tuple[str, float, list[float]]:
    """Status, value and point of the model's continuous relaxation
    (binaries relaxed to [0, 1]), solved cold by the engine's own LP
    (``milp._relax``); the point is [] unless optimal.  The engine's
    solves are all branch and bound, which refuses an unbounded LP, so
    this is how the tests read one."""
    lp = milp._relax(milp._form(model))
    return lp.status, lp.value, [] if lp.x is None else lp.x.tolist()


def rand_mrs(rng: SplitMix64, n_lo: int = 3, n_hi: int = 6,
             max_parts: int = 2, cost_hi: int = 30, dev_hi: int = 30,
             gamma_hi: int = 3, gp_hi: int = 3,
             name: str = "rand") -> Instance:
    """A random multi-representative selection instance.

    Partitions are contiguous index blocks; every quota is at least one and
    strictly feasible.  Budgets are drawn independently from [0, the caps].
    """
    n = n_lo + rng.randint(0, n_hi - n_lo)
    num_parts = 1 + rng.randint(0, max_parts - 1)
    num_parts = min(num_parts, n)
    cuts = sorted({1 + rng.randint(0, n - 2) for _ in range(num_parts - 1)}
                  if n >= 2 else set())
    bounds = [0, *cuts, n]
    parts = [tuple(range(bounds[k], bounds[k + 1]))
             for k in range(len(bounds) - 1)]
    quotas = tuple(1 + rng.randint(0, len(p) - 1) for p in parts)
    c = tuple(rng.randint(0, cost_hi) for _ in range(n))
    d = tuple(rng.randint(0, dev_hi) for _ in range(n))
    gamma = rng.randint(0, min(gamma_hi, n))
    gp = rng.randint(0, min(gp_hi, n))
    return Instance(ItemCosts(c, d), Budgets(gamma, gp),
                    MultiRepSelection(parts, quotas), name=name)


def dp_for_s(inst: Instance, x: BinarySolution,
             s: int) -> tuple[int, list[int]]:
    """The selection DP at one break point s, in pure Python: the test
    oracle for ``adversarial_selection_dp``, which runs every point at once.

    Returns ``max over (y, delta)`` of attack gains minus discounted
    adversary costs, plus the maximizing pick ``y``'s items. One DP runs
    over the items in partition order; its state is (picks in the current
    partition, attacks so far), and each partition's row with the quota
    met seeds the next partition, so the attack budget is shared. Each
    state keeps the first best of the offers pick, attack, skip.
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


def selection_dp_oracle(inst: Instance, x: BinarySolution,
                        points=None) -> tuple[int, list[int]]:
    """The adversarial value of x and the adversary's pick, from one
    ``dp_for_s`` per break point: the first point of best value wins.
    ``points`` defaults to ``Instance.break_points`` over the items
    outside x, the points ``adversarial_selection_dp`` runs."""
    if points is None:
        points = inst.break_points(i for i, xi in enumerate(x.x) if not xi)
    base = sum(ci * xi for ci, xi in zip(inst.costs.c_hat, x.x))
    gp = inst.budgets.gamma_prime
    best = None
    for s in points:
        total, y_idx = dp_for_s(inst, x, s)
        if best is None or base + total - gp * s > best[0]:
            best = (base + total - gp * s, y_idx)
    return best


def layered_graph(rng: SplitMix64) -> ShortestPath:
    """An s-t graph of 3-4 layers of width 3: every arc from s and into t,
    and each arc between adjacent layers with probability 2/3, the first
    30 arcs kept.  The constructor rejects some draws."""
    layers, width = 3 + rng.randint(0, 1), 3
    nodes = 2 + layers * width
    edges = [(0, 1 + w) for w in range(width)]
    for layer in range(layers - 1):
        for w1 in range(width):
            for w2 in range(width):
                if rng.randint(0, 2):
                    edges.append((1 + layer * width + w1,
                                  1 + (layer + 1) * width + w2))
    edges.extend((1 + (layers - 1) * width + w, nodes - 1)
                 for w in range(width))
    return ShortestPath(nodes, edges[:30], 0, nodes - 1)


def layered_instances(rng: SplitMix64, count: int,
                      first: int = 0) -> list[Instance]:
    """``count`` instances on ``layered_graph`` draws, rejected draws
    skipped: costs in 1..50, deviations in 0..40, and the k-th instance,
    counted from ``first``, at budgets (1 + k % 3, k % 4)."""
    instances: list[Instance] = []
    while len(instances) < count:
        try:
            f = layered_graph(rng)
        except InputError:
            continue
        k = first + len(instances)
        instances.append(Instance(
            ItemCosts(tuple(rng.randint(1, 50) for _ in range(f.n)),
                      tuple(rng.randint(0, 40) for _ in range(f.n))),
            Budgets(1 + k % 3, k % 4), f, name=f"layered{k}"))
    return instances
