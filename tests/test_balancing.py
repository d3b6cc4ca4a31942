"""Greedy balancing stage versus exhaustive search over raise sets."""

import itertools

from balregret.balancing import solve_balancing
from balregret.core import BinarySolution, ItemCosts, Scenario
from balregret.instances import SplitMix64


def _value(costs, x, delta, eps, y):
    return sum(
        (costs.c_hat[i] + costs.d[i] * delta.delta[i]
         + costs.d[i] * eps.delta[i]) * (x.x[i] - y.x[i])
        for i in range(costs.n)
    )


def _exhaustive(costs, gamma_prime, x, delta, y):
    n = costs.n
    free = [i for i in range(n) if x.x[i] == 0]
    best = None
    for k in range(min(gamma_prime, len(free)) + 1):
        for combo in itertools.combinations(free, k):
            eps = Scenario.from_indices(combo, n)
            v = _value(costs, x, delta, eps, y)
            if best is None or v < best:
                best = v
    return best


def test_hand_case():
    costs = ItemCosts((8, 5, 2, 17, 15), (9, 14, 15, 12, 1))
    x = BinarySolution((1, 0, 1, 0, 0))
    y = BinarySolution((0, 1, 0, 0, 1))
    delta = Scenario((1, 0, 0, 0, 0))
    eps, value = solve_balancing(costs, 1, x, delta, y)
    # raise item 1, the adversary's largest exposed deviation
    assert eps.indices() == (1,)
    assert value == (8 + 9 + 2) - (5 + 14 + 15)


def test_zero_budget_changes_nothing():
    costs = ItemCosts((3, 4), (5, 6))
    x = BinarySolution((1, 0))
    y = BinarySolution((0, 1))
    eps, value = solve_balancing(costs, 0, x, Scenario((0, 0)), y)
    assert sum(eps.delta) == 0
    assert value == 3 - 4


def test_greedy_matches_exhaustive():
    rng = SplitMix64(42)
    for _ in range(300):
        n = 2 + rng.randint(0, 4)
        costs = ItemCosts(
            tuple(rng.randint(0, 15) for _ in range(n)),
            tuple(rng.randint(0, 15) for _ in range(n)),
        )
        x = BinarySolution(tuple(rng.randint(0, 1) for _ in range(n)))
        y = BinarySolution(tuple(rng.randint(0, 1) for _ in range(n)))
        delta_bits = tuple(
            rng.randint(0, 1) if x.x[i] else 0 for i in range(n)
        )
        delta = Scenario(delta_bits)
        gp = rng.randint(0, n)
        eps, value = solve_balancing(costs, gp, x, delta, y)
        assert value == _exhaustive(costs, gp, x, delta, y)
        # the raise set stays on the adversary's side and within budget
        assert sum(eps.delta) <= gp
        assert all(x.x[i] == 0 and y.x[i] == 1 for i in eps.indices())
