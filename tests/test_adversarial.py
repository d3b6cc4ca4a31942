"""The three adversarial solvers agree and their certificates check out."""

import numpy as np
import pytest

from balregret.adversarial import (
    _dp_for_s,
    adversarial_bruteforce,
    adversarial_milp,
    adversarial_selection_dp,
    evaluate_against,
)
from balregret.balancing import solve_balancing
from balregret.core import (
    BinarySolution,
    Budgets,
    InputError,
    Instance,
    ItemCosts,
    Knapsack,
    enumerate_solutions,
)
from balregret.instances import SplitMix64
from conftest import rand_mrs


def _certificate_value(inst, x, cert):
    """Recompute the certificate value from (y, delta, epsilon) directly."""
    c, d = inst.costs.c_hat, inst.costs.d
    return sum(
        (c[i] + d[i] * cert.delta.delta[i] + d[i] * cert.epsilon.delta[i])
        * (x.x[i] - cert.y.x[i])
        for i in range(inst.n)
    )


def test_sgrid_is_sorted_deviation_set(example_one):
    grid = example_one.costs.break_points()
    assert grid == (0, 1, 9, 12, 14, 15)


def test_example_one_value(example_one):
    x = BinarySolution.from_indices([0, 2], 5)
    for solver in (adversarial_bruteforce, adversarial_milp,
                   adversarial_selection_dp):
        cert = solver(example_one, x)
        assert cert.value == 1
        assert _certificate_value(example_one, x, cert) == 1


def _agreement_instances():
    rng = SplitMix64(7001)
    for trial in range(60):
        yield rand_mrs(rng, n_lo=3, n_hi=8, name=f"adv{trial}")
    # Small costs and large attack budgets over up to three partitions:
    # ties across partitions, where the DP's choice of y is made.
    rng = SplitMix64(7004)
    for trial in range(60):
        yield rand_mrs(rng, n_lo=3, n_hi=8, max_parts=3, cost_hi=3,
                       dev_hi=3, gamma_hi=8, name=f"tie{trial}")


def test_methods_agree_on_random_selection():
    for inst in _agreement_instances():
        candidates = enumerate_solutions(inst.feasible)
        for x in candidates[:: max(1, len(candidates) // 4)]:
            a = adversarial_bruteforce(inst, x, candidates)
            b = adversarial_milp(inst, x)
            c = adversarial_selection_dp(inst, x)
            assert a.value == b.value == c.value
            for cert in (a, b, c):
                assert inst.feasible.is_feasible(cert.y)
                assert sum(cert.delta.delta) <= inst.budgets.gamma
                # certificate arithmetic must reproduce the claimed value
                assert _certificate_value(inst, x, cert) == cert.value
                # the balancing response is the inner optimum for (y, delta)
                _, inner = solve_balancing(
                    inst.costs, inst.budgets.gamma_prime, x, cert.delta,
                    cert.y,
                )
                assert inner == cert.value


def test_pruned_break_points_keep_first_maximizer():
    # At gamma_prime >= 1 the DP tries only 0 and the deviations of items
    # outside x; it must return the first maximizer over every break point,
    # its value and its pick. Tiny costs make ties everywhere; on odd
    # trials wider deviations make the items outside x own distinct points.
    rng = SplitMix64(7005)
    for trial in range(300):
        inst = rand_mrs(rng, n_lo=3, n_hi=9, max_parts=3, cost_hi=3,
                        dev_hi=(3, 30)[trial % 2], gamma_hi=9,
                        name=f"prune{trial}")
        gp = 1 + rng.randint(0, inst.n - 1)
        inst = Instance(inst.costs, Budgets(inst.budgets.gamma, gp),
                        inst.feasible)
        xs = enumerate_solutions(inst.feasible)
        x = xs[rng.randint(0, len(xs) - 1)]
        base = sum(ci * xi for ci, xi in zip(inst.costs.c_hat, x.x))
        best = None
        for s in inst.break_points():
            total, y_idx = _dp_for_s(inst, x, s)
            if best is None or base + total - gp * s > best[0]:
                best = (base + total - gp * s, y_idx)
        cert = adversarial_selection_dp(inst, x)
        assert (cert.value, list(cert.y.indices())) == best, inst


def test_value_is_nonnegative_and_certificates_are_lower_bounds():
    rng = SplitMix64(7002)
    for trial in range(40):
        inst = rand_mrs(rng, n_lo=3, n_hi=7, name=f"lb{trial}")
        candidates = enumerate_solutions(inst.feasible)
        x = candidates[rng.randint(0, len(candidates) - 1)]
        cert = adversarial_selection_dp(inst, x)
        assert cert.value >= 0
        values = evaluate_against(
            inst, x, np.array([y.x for y in candidates], dtype=np.int64)
        )
        assert cert.value == int(values.max())


def test_dp_requires_multirep(example_one):
    inst = Instance(example_one.costs, example_one.budgets,
                    Knapsack((1, 1, 1, 1, 1), 2))
    with pytest.raises(InputError):
        adversarial_selection_dp(inst, BinarySolution((1, 1, 0, 0, 0)))


def test_milp_handles_knapsack():
    inst = Instance(ItemCosts((4, 6, 3), (5, 0, 7)), Budgets(1, 1),
                    Knapsack((2, 2, 3), 4))
    x = BinarySolution((1, 1, 0))
    cand = enumerate_solutions(inst.feasible)
    assert (adversarial_milp(inst, x).value
            == adversarial_bruteforce(inst, x, cand).value)


def test_budget_monotonicity():
    rng = SplitMix64(7003)
    for trial in range(25):
        inst = rand_mrs(rng, n_lo=3, n_hi=6, gamma_hi=0, gp_hi=0,
                        name=f"mono{trial}")
        x = enumerate_solutions(inst.feasible)[0]
        prev = None
        for g in range(inst.n + 1):
            v = adversarial_selection_dp(
                Instance(inst.costs, Budgets(g, 1), inst.feasible), x
            ).value
            if prev is not None:
                assert v >= prev  # more attack budget never hurts
            prev = v
        prev = None
        for gp in range(inst.n + 1):
            v = adversarial_selection_dp(
                Instance(inst.costs, Budgets(2, gp), inst.feasible), x
            ).value
            if prev is not None:
                assert v <= prev  # more balancing budget never hurts us
            prev = v
