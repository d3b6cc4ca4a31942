"""The innermost balancing stage: raise the adversary's item costs.

For fixed (x, delta, y) the stage picks up to ``gamma_prime`` items to make
more expensive for the adversary. The relaxation of this subproblem is
integral, so the greedy choice below is exactly optimal.
"""

from __future__ import annotations

from .core import BinarySolution, ItemCosts, Scenario, _check_dim


def solve_balancing(
    costs: ItemCosts,
    gamma_prime: int,
    x: BinarySolution,
    delta: Scenario,
    y: BinarySolution,
) -> tuple[Scenario, int]:
    """Optimal balancing attack and the resulting objective value.

    Attacks the up-to-``gamma_prime`` indices with the most negative
    coefficient ``d_i * (x_i - y_i)``, i.e. items packed by the adversary
    but not by us, largest deviation first. Value-neutral attacks are
    omitted so certificates stay minimal; ties break toward lower indices.
    """
    n = costs.n
    _check_dim(x.n, n)
    _check_dim(delta.n, n)
    _check_dim(y.n, n)

    mask = [yi and not xi for xi, yi in zip(x.x, y.x)]
    eps = Scenario.from_indices(costs.top_deviations(mask, gamma_prime), n)

    value = sum(
        (costs.c_hat[i] + costs.d[i] * delta.delta[i] + costs.d[i] * eps.delta[i])
        * (x.x[i] - y.x[i])
        for i in range(n)
    )
    return eps, value
