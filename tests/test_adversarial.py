"""The three adversarial solvers agree and their certificates check out."""

import math
import tracemalloc

import numpy as np
import pytest

from balregret import adversarial, master, milp
from balregret.adversarial import (
    _certificate_for,
    adversarial_bruteforce,
    adversarial_milp,
    adversarial_selection_dp,
    evaluate_against,
)
from balregret.balancing import solve_balancing
from balregret.core import (
    _OVERFLOW_LIMIT,
    BinarySolution,
    Budgets,
    InputError,
    Instance,
    ItemCosts,
    Knapsack,
    MultiRepSelection,
    ScaleError,
    enumerate_solutions,
    nominal_solve,
)
from balregret.instances import SplitMix64, gen_knapsack, gen_selection
from conftest import (
    layered_instances,
    rand_mrs,
    selection_dp_oracle,
    solutions,
)


def _certificate_value(inst, x, cert):
    """Recompute the certificate value from (y, delta, epsilon) directly."""
    c, d = inst.costs.c_hat, inst.costs.d
    return sum(
        (c[i] + d[i] * cert.delta.delta[i] + d[i] * cert.epsilon.delta[i])
        * (x.x[i] - cert.y.x[i])
        for i in range(inst.n)
    )


def test_sgrid_is_sorted_deviation_set(example_one):
    grid = example_one.costs.break_points(0)
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
        for x in solutions(inst.feasible)[:: max(1, len(candidates) // 4)]:
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


def test_milp_evaluator_matches_cold_solves_along_a_sequence_of_x():
    # A solve's MILP evaluator starts each root LP from the last call's;
    # along any sequence of x its values must be the cold solves'.
    rng = SplitMix64(7006)
    instances = layered_instances(rng, 30)
    instances += [gen_knapsack(6 + k % 5, 7006 + k, gamma=1 + k % 3,
                               gamma_prime=k % 4) for k in range(30)]
    instances += [rand_mrs(rng, n_lo=4, n_hi=8, max_parts=3, name=f"seq{k}")
                  for k in range(30)]
    for inst in instances:
        adversary = master._pick_adversary(inst, "milp")[1]
        candidates = enumerate_solutions(inst.feasible)
        xs = solutions(inst.feasible)
        for _ in range(5):
            x = xs[rng.randint(0, len(xs) - 1)]
            cert = adversary(x)
            want = adversarial_bruteforce(inst, x, candidates).value
            assert cert.value == adversarial_milp(inst, x).value == want
            if isinstance(inst.feasible, MultiRepSelection):
                assert want == adversarial_selection_dp(inst, x).value
            assert inst.feasible.is_feasible(cert.y)
            assert cert == _certificate_for(inst, x, cert.y)
            assert _certificate_value(inst, x, cert) == cert.value


def test_pruned_break_points_keep_first_maximizer():
    # At gamma_prime >= 1 the DP tries only 0 and the deviations of items
    # outside x less their gamma_prime largest; it must return the first
    # maximizer over every candidate point, 0 and every deviation, its
    # value and its pick. Tiny costs make ties everywhere; on odd trials
    # wider deviations make the items outside x own distinct points.
    rng = SplitMix64(7005)
    pruned = 0
    for trial in range(300):
        inst = rand_mrs(rng, n_lo=3, n_hi=9, max_parts=3, cost_hi=3,
                        dev_hi=(3, 30)[trial % 2], gamma_hi=9,
                        name=f"prune{trial}")
        gp = 1 + rng.randint(0, inst.n - 1)
        inst = Instance(inst.costs, Budgets(inst.budgets.gamma, gp),
                        inst.feasible)
        xs = solutions(inst.feasible)
        x = xs[rng.randint(0, len(xs) - 1)]
        every = inst.costs.break_points(0)
        best = selection_dp_oracle(inst, x, every)
        cert = adversarial_selection_dp(inst, x)
        assert (cert.value, list(cert.y.indices())) == best, inst
        pruned += len(inst.break_points(
            i for i, xi in enumerate(x.x) if not xi)) < len(every)
    assert pruned > 250  # most trials drop some point


@pytest.mark.parametrize("states", [adversarial._DP_STATES, 1],
                         ids=["one-pass", "one-point-per-pass"])
def test_dp_matches_the_per_point_oracle(monkeypatch, states):
    # All break points in one DP must give the value and the pick of one
    # DP per point, the first point of best value winning, also when the
    # points run in several passes. Tiny costs make ties everywhere;
    # gamma runs over 0..n.
    monkeypatch.setattr(adversarial, "_DP_STATES", states)
    rng = SplitMix64(7007)
    for trial in range(1200):
        inst = rand_mrs(rng, n_lo=2, n_hi=9, max_parts=3, cost_hi=3,
                        dev_hi=(3, 12)[trial % 2], gamma_hi=9,
                        name=f"oracle{trial}")
        xs = solutions(inst.feasible)
        x = xs[rng.randint(0, len(xs) - 1)]
        cert = adversarial_selection_dp(inst, x)
        want = selection_dp_oracle(inst, x)
        assert (cert.value, list(cert.y.indices())) == want, inst


def test_dp_holds_one_pass_at_a_time(monkeypatch):
    # Split into three passes, the DP must free each pass's states before
    # the next one allocates its own: its peak stays near one pass's
    # bytes, where a view of the best point kept a whole pass alive into
    # the next one and the peak read about two passes.
    inst = gen_selection(60, 1, gamma=3, gamma_prime=1)
    x = nominal_solve(inst.feasible, inst.costs.worst())
    points = inst.break_points(i for i, xi in enumerate(x.x) if not xi)
    width = min(inst.budgets.gamma,
                sum(xi and di > 0 for xi, di in zip(x.x, inst.costs.d)))
    per_point = (inst.n + 1) * (max(inst.feasible.quotas) + 1) * (width + 1)
    span = -(-len(points) // 3)
    one_pass = adversarial_selection_dp(inst, x)
    monkeypatch.setattr(adversarial, "_DP_STATES", per_point * span)
    tracemalloc.start()
    try:
        cert = adversarial_selection_dp(inst, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert == one_pass
    assert peak < 1.5 * 8 * per_point * span


def _near_limit(rng: SplitMix64, inst: Instance, skew: bool) -> Instance:
    """``inst`` with costs scaled, plus a little noise, so that the sum of
    every cost and deviation lies in (2^59, 2^60]; with ``skew``, item 0's
    deviation then takes what the others leave below 2^60."""
    c, d = inst.costs.c_hat, inst.costs.d
    k = (_OVERFLOW_LIMIT - 8 * inst.n) // (sum(c) + sum(d) + 1)
    c = [k * v + rng.randint(0, 3) for v in c]
    d = [k * v + rng.randint(0, 3) for v in d]
    if skew:
        c = [v // inst.n for v in c]
        d = [v // inst.n for v in d]
        d[0] = _OVERFLOW_LIMIT - sum(c) - sum(d[1:])
    return Instance(ItemCosts(c, d), inst.budgets, inst.feasible,
                    name=inst.name)


def test_dp_exact_near_the_scale_limit():
    # On odd trials one deviation is nearly 2^60 and gamma_prime is 8 or
    # more, so gamma_prime * s at that break point passes int64.
    rng = SplitMix64(7008)
    for trial in range(120):
        skew = trial % 2 == 1
        inst = rand_mrs(rng, n_lo=(3, 8)[skew], n_hi=9, max_parts=3,
                        gamma_hi=9, gp_hi=9, name=f"limit{trial}")
        if skew:
            inst = Instance(inst.costs, Budgets(
                inst.budgets.gamma, rng.randint(8, inst.n)), inst.feasible)
        inst = _near_limit(rng, inst, skew)
        total = sum(inst.costs.c_hat) + sum(inst.costs.d)
        assert _OVERFLOW_LIMIT // 2 < total <= _OVERFLOW_LIMIT
        xs = solutions(inst.feasible)
        ys = np.array([y.x for y in xs], dtype=np.int64)
        for x in (xs[rng.randint(0, len(xs) - 1)],
                  xs[rng.randint(0, len(xs) - 1)]):
            cert = adversarial_selection_dp(inst, x)
            assert (cert.value, list(cert.y.indices())) \
                == selection_dp_oracle(inst, x), inst
            assert cert.value == int(evaluate_against(inst, [x.x], ys).max())


def test_dp_rejects_data_over_the_scale_limit():
    # The scale guard refuses the costs where they are made, so no
    # adversary ever sees them.
    with pytest.raises(ScaleError):
        inst = Instance(ItemCosts((_OVERFLOW_LIMIT // 2, 0, 0),
                                  (0, 0, _OVERFLOW_LIMIT // 2 + 1)),
                        Budgets(1, 3), MultiRepSelection([(0, 1, 2)], [1]))
        adversarial_selection_dp(inst, BinarySolution((1, 0, 0)))


def test_value_is_nonnegative_and_certificates_are_lower_bounds():
    rng = SplitMix64(7002)
    for trial in range(40):
        inst = rand_mrs(rng, n_lo=3, n_hi=7, name=f"lb{trial}")
        candidates = solutions(inst.feasible)
        x = candidates[rng.randint(0, len(candidates) - 1)]
        cert = adversarial_selection_dp(inst, x)
        assert cert.value >= 0
        values = evaluate_against(
            inst, [x.x], np.array([y.x for y in candidates], dtype=np.int64)
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


def _scaled_selection(seed: int, k: int) -> Instance:
    """``gen_selection(8, seed, gamma=2, gamma_prime=1)`` with every cost
    and deviation multiplied by k."""
    base = gen_selection(8, seed, gamma=2, gamma_prime=1)
    return Instance(ItemCosts(tuple(v * k for v in base.costs.c_hat),
                              tuple(v * k for v in base.costs.d)),
                    base.budgets, base.feasible)


def test_milp_adversary_without_a_solution_raises_scale_error(monkeypatch,
                                                              example_one):
    # An engine result with no assignment is a failed solve, whatever its
    # status, not a solution of the wrong length.
    monkeypatch.setattr(milp, "solve_repriced", lambda held, cost:
                        milp.MilpResult("infeasible", math.nan, []))
    with pytest.raises(ScaleError, match="infeasible"):
        adversarial_milp(example_one, BinarySolution.from_indices([0, 2], 5))


def test_milp_adversary_at_the_node_limit_raises_scale_error(monkeypatch):
    # A search cut short by the node limit has no exact value: the MILP
    # adversary raises rather than return its incumbent.  With room for
    # two nodes, every path instance whose search takes more raises, and
    # the others return the certificate of an unlimited search; some of
    # those cut short had incumbents below the brute-force value.
    solve = milp.solve_repriced
    nodes = []

    def counting(held, cost):
        res = solve(held, cost)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(milp, "solve_repriced", counting)
    raised = 0
    for inst in layered_instances(SplitMix64(2026), 20):
        x = nominal_solve(inst.feasible, inst.costs.c_hat)
        full = adversarial_milp(inst, x)
        with monkeypatch.context() as limited:
            limited.setattr(milp, "NODE_LIMIT", 2)
            if nodes[-1] > 2:
                with pytest.raises(ScaleError, match=r"node limit \(2\)"):
                    adversarial_milp(inst, x)
                raised += 1
            else:
                assert adversarial_milp(inst, x) == full, inst.name
    assert 5 <= raised < 20


@pytest.mark.parametrize("seed, picks", [(10, (0, 1, 4, 6)),
                                         (13, (0, 3, 4, 5))])
def test_milp_adversary_is_exact_or_raises_scale_error_at_x_10_5(seed, picks):
    # The float64 simplex reads these root LPs as unbounded, although the
    # model is bounded: a ScaleError (exit 2), never a usage error.
    inst = _scaled_selection(seed, 10**5)
    x = BinarySolution.from_indices(picks, inst.n)
    try:
        value = adversarial_milp(inst, x).value
    except ScaleError:
        return
    assert value == adversarial_selection_dp(inst, x).value


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
@pytest.mark.parametrize("seed, picks", [
    (7, (0, 1, 5, 7)), (26, (1, 4, 5, 6)), (28, (1, 3, 5, 7)),
    (32, (1, 2, 3, 7)), (36, (2, 3, 4, 5))])
def test_milp_adversary_equals_the_selection_dp(seed, picks):
    # At costs x 10^5 the float64 simplex reports these wrong values as
    # optimal; seed 7's is 16,700,000 where the DP gives 20,200,000.
    inst = _scaled_selection(seed, 10**5)
    x = BinarySolution.from_indices(picks, inst.n)
    assert (adversarial_milp(inst, x).value
            == adversarial_selection_dp(inst, x).value)


def _scaled_path(name: str, k: int) -> Instance:
    """The instance ``name`` of ``layered_instances(SplitMix64(2026), 20)``
    with every cost and deviation multiplied by k."""
    base = {inst.name: inst
            for inst in layered_instances(SplitMix64(2026), 20)}[name]
    return Instance(ItemCosts(tuple(v * k for v in base.costs.c_hat),
                              tuple(v * k for v in base.costs.d)),
                    base.budgets, base.feasible, name=name)


def _path_case(name: str, k: int, picks: tuple[int, ...]):
    """The scaled path instance, the first-stage path ``picks`` and its
    brute-force value."""
    inst = _scaled_path(name, k)
    x = BinarySolution.from_indices(picks, inst.n)
    return inst, x, adversarial_bruteforce(
        inst, x, enumerate_solutions(inst.feasible)).value


@pytest.mark.parametrize("name, picks", [
    ("layered12", (1, 5, 10, 13)), ("layered12", (2, 8, 12, 15)),
    ("layered10", (2, 8, 12, 15, 22))])
def test_milp_adversary_is_exact_or_raises_scale_error_on_paths(name, picks):
    # At costs x 10^6 the float64 simplex breaks down on these path models
    # (a phase-1 LP that reads unbounded, a binary fractional below its own
    # branch): a ScaleError (exit 2), never an internal error.
    inst, x, expect = _path_case(name, 10**6, picks)
    try:
        value = adversarial_milp(inst, x).value
    except ScaleError:
        return
    assert value == expect


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
@pytest.mark.parametrize("picks", [(2, 7, 14, 23, 25), (2, 8, 15, 19, 24)])
def test_milp_adversary_equals_bruteforce_on_scaled_paths(picks):
    # At costs x 10^5 the float64 simplex reports these wrong values as
    # optimal: 7,500,000 where brute force gives 9,900,000, and 5,900,000
    # for 8,000,000.
    inst, x, expect = _path_case("layered1", 10**5, picks)
    assert adversarial_milp(inst, x).value == expect


def test_budget_monotonicity():
    rng = SplitMix64(7003)
    for trial in range(25):
        inst = rand_mrs(rng, n_lo=3, n_hi=6, gamma_hi=0, gp_hi=0,
                        name=f"mono{trial}")
        x = solutions(inst.feasible)[0]
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
