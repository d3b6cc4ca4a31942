"""First-stage solvers: agreement, reports, bound traces, guards."""

import pytest

from balregret.adversarial import adversarial_bruteforce
from balregret.core import (
    AdversaryCertificate,
    Budgets,
    InputError,
    Instance,
    InternalError,
    ItemCosts,
    Knapsack,
    Scenario,
    ShortestPath,
)
from balregret.instances import SplitMix64, gen_selection
from balregret import master, polyalg
from conftest import rand_mrs


def _with_gamma_prime(inst: Instance, gamma_prime: int) -> Instance:
    return Instance(inst.costs, Budgets(inst.budgets.gamma, gamma_prime),
                    inst.feasible, name=inst.name)


def test_example_one_all_methods(example_one):
    for solve in (master.solve_iterative, master.solve_enumeration,
                  master.solve_compact_mrs, master.solve_bruteforce):
        rep = solve(example_one)
        assert rep.value == 1
        assert rep.optimal
        assert example_one.feasible.is_feasible(rep.x)


def test_methods_agree_on_random_selection():
    rng = SplitMix64(31337)
    for trial in range(40):
        inst = rand_mrs(rng, n_lo=3, n_hi=6, name=f"agree{trial}")
        vals = {
            solve(inst).value
            for solve in (master.solve_iterative, master.solve_enumeration,
                          master.solve_compact_mrs, master.solve_bruteforce)
        }
        assert len(vals) == 1, (inst, vals)
    # Tie-heavy costs over 2-3 partitions, where the dominance order's
    # index rule decides between equal items.  Both attack budgets of
    # rand_mrs make most such instances worth 0; gamma >= 1 and
    # gamma_prime <= 1 leave about a fifth positive.
    ties = 0
    while ties < 150:
        inst = rand_mrs(rng, n_lo=4, n_hi=7, max_parts=3, cost_hi=3,
                        dev_hi=3, name=f"ties{ties}")
        if inst.feasible.num_partitions < 2:
            continue
        inst = Instance(inst.costs, Budgets(1 + ties % 3, ties % 2),
                        inst.feasible, name=inst.name)
        ties += 1
        want = master.solve_bruteforce(inst).value
        solvers = [master.solve_iterative, master.solve_compact_mrs]
        if inst.n <= 6:
            solvers.append(master.solve_enumeration)
        for solve in solvers:
            rep = solve(inst)
            assert rep.value == want, (solve.__name__, inst)
            assert adversarial_bruteforce(inst, rep.x).value == want, (
                solve.__name__, inst)


def test_iterative_bound_traces():
    rng = SplitMix64(31338)
    for trial in range(25):
        inst = rand_mrs(rng, n_lo=4, n_hi=7, name=f"trace{trial}")
        rep = master.solve_iterative(inst)
        assert rep.optimal
        lbs, ubs = rep.lower_bounds, rep.upper_bounds
        assert lbs and ubs and len(lbs) == len(ubs)
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(lb <= ub + 1e-9 for lb, ub in zip(lbs, ubs))
        assert ubs[-1] - lbs[-1] <= 1e-6
        assert rep.gap <= 1e-6
        assert rep.value == int(round(ubs[-1]))


def test_iterative_adversary_choices_agree(example_one):
    values = {
        master.solve_iterative(example_one, adversary=a).value
        for a in ("dp", "milp", "bruteforce")
    }
    assert values == {1}
    with pytest.raises(InputError):
        master.solve_iterative(example_one, adversary="oracle")


def test_zero_shortcut_short_report():
    # with a full balancing budget the robust nominal choice is unbeatable
    inst = rand_mrs(SplitMix64(5), n_lo=12, n_hi=12, gamma_hi=5)
    inst = Instance(inst.costs, Budgets(inst.budgets.gamma, inst.n),
                    inst.feasible)
    rep = master.solve_iterative(inst)
    assert rep.value == 0
    assert rep.iterations == 0
    assert rep.lower_bounds == [0.0] and rep.upper_bounds == [0.0]


def test_compact_requires_multirep():
    inst = Instance(ItemCosts((1, 2), (1, 1)), Budgets(1, 1),
                    Knapsack((1, 1), 1))
    with pytest.raises(InputError):
        master.solve_compact_mrs(inst)


def test_report_to_dict(example_one):
    rep = master.solve_iterative(example_one)
    payload = rep.to_dict()
    assert payload["value"] == 1
    assert sorted(payload["x"]) == list(rep.x.indices())
    assert payload["optimal"] is True


def test_shortest_path_instance():
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]
    f = ShortestPath(4, edges, 0, 3)
    inst = Instance(ItemCosts((4, 3, 6, 7, 1), (8, 2, 0, 5, 9)),
                    Budgets(1, 1), f, name="diamond")
    it = master.solve_iterative(inst)
    bf = master.solve_bruteforce(inst)
    assert it.value == bf.value
    assert f.is_feasible(it.x)


def test_stuck_adversary_raises_internal_error(example_one, monkeypatch):
    # An adversary that keeps answering with the pooled warm-start scenario
    # and a value no master reaches can never close the gap.
    y, delta = master._initial_scenario(example_one)
    stuck = AdversaryCertificate(10**6, y, delta, Scenario((0,) * y.n))
    monkeypatch.setitem(master.ADVERSARY_METHODS, "dp",
                        lambda inst, x: stuck)
    # Without the check the loop would spin to the time limit instead.
    with pytest.raises(InternalError, match="pooled scenario"):
        master.solve_iterative(example_one, time_limit=10.0)


@pytest.mark.xfail(reason="float64 simplex tolerances at costs x 10^5; "
                          "ROADMAP item 2's integer certificate")
def test_compact_exact_on_scaled_selection():
    base = gen_selection(6, 10, gamma=2, gamma_prime=1)
    k = 10**5
    inst = Instance(ItemCosts(tuple(v * k for v in base.costs.c_hat),
                              tuple(v * k for v in base.costs.d)),
                    base.budgets, base.feasible)
    assert master.solve_bruteforce(inst).value == 600000
    assert master.solve_compact_mrs(inst).value == 600000


def test_gamma_prime_zero_methods_agree_with_regret_algorithm():
    # At gamma_prime = 0 the compact model keeps one break-point block, the
    # masters keep no balancing variables and the DP runs once; the
    # polynomial regret algorithm and brute force check all three.
    rng = SplitMix64(41017)
    for trial in range(40):
        inst = _with_gamma_prime(
            rand_mrs(rng, n_lo=3, n_hi=7, max_parts=3, name=f"gp0-{trial}"),
            0)
        want = master.solve_bruteforce(inst).value
        assert polyalg.solve_regret_budgeted_mrs(inst).value == want, inst
        for solve in (master.solve_compact_mrs, master.solve_enumeration,
                      master.solve_iterative):
            rep = solve(inst)
            assert rep.value == want, (solve.__name__, inst)
            assert inst.feasible.is_feasible(rep.x)


def _open_pairs(order):
    """The cover pairs with neither end forced in or out."""
    forced = order.forced_in | order.forced_out
    return [(i, j) for i, j in order.precedences
            if i not in forced and j not in forced]


def test_gamma_prime_zero_models_drop_balancing_structure():
    inst = gen_selection(7, 2, gamma=3, gamma_prime=1)
    n, parts = inst.n, inst.feasible.num_partitions
    zero = _with_gamma_prime(inst, 0)
    pool = master._full_pool(zero)
    # Every selection model starts with the partition rows and one row per
    # cover pair of the dominance order that its bounds leave open.
    first = parts + len(_open_pairs(master.dominance_reduce(inst)))
    assert first > parts
    # Master: the value variable, x, and one value row per scenario.
    model = master.build_master(zero, pool)
    assert len(model.variables) == 1 + n
    assert len(model.constraints) == first + len(pool)
    balanced = master.build_master(inst, pool)
    assert len(balanced.variables) > 1 + n
    # Compact: one block (pi, rho, kappa; a value row and two rows per item)
    # for the largest break point only.
    block_vars, block_rows = 1 + n + parts, 1 + 2 * n
    model = master.build_compact(zero)
    assert len(model.variables) == 1 + n + block_vars
    assert len(model.constraints) == first + block_rows
    blocks = len(inst.costs.break_points())
    assert blocks > 1
    model = master.build_compact(inst)
    assert len(model.variables) == 1 + n + blocks * block_vars
    assert len(model.constraints) == first + blocks * block_rows
    assert zero.break_points() == (max(inst.costs.d),)


def test_first_stage_models_carry_the_dominance_order():
    inst = gen_selection(7, 2, gamma=3, gamma_prime=1)
    order = master.dominance_reduce(inst)
    assert order.forced_in and order.forced_out
    # A pair with a forced end holds under the bounds and gets no row.
    pairs = _open_pairs(order)
    assert 0 < len(pairs) < len(order.precedences)
    model, _, x_vars = master._first_stage_model(inst)
    rows = inst.feasible.linear_rows()
    assert model.constraints[len(rows):] == [
        ({x_vars[i]: 1.0, x_vars[j]: -1.0}, ">=", 0.0) for i, j in pairs]
    for i, v in enumerate(x_vars):
        bounds = (model.variables[v].lb, model.variables[v].ub)
        want = ((1.0, 1.0) if i in order.forced_in
                else (0.0, 0.0) if i in order.forced_out else (0.0, 1.0))
        assert bounds == want, i
    # Knapsack and path models get the feasible set's rows and free
    # binaries only.
    for f in (Knapsack((3, 2, 4), 5),
              ShortestPath(3, [(0, 1), (1, 2), (0, 2)], 0, 2)):
        other = Instance(ItemCosts((1, 2, 3), (3, 2, 1)), Budgets(1, 1), f)
        model, _, x_vars = master._first_stage_model(other)
        assert len(model.constraints) == len(f.linear_rows())
        assert all((model.variables[v].lb, model.variables[v].ub) == (0.0, 1.0)
                   for v in x_vars)


def test_zero_value_instances_build_no_model(monkeypatch):
    calls = []
    solve_milp = master.milp.solve_milp
    monkeypatch.setattr(master.milp, "solve_milp",
                        lambda model: calls.append(1) or solve_milp(model))
    rng = SplitMix64(41018)
    zeros = positives = 0
    for trial in range(100):
        inst = rand_mrs(rng, n_lo=5, n_hi=8, max_parts=3, name=f"z{trial}")
        inst = Instance(inst.costs, Budgets(3, 1 + trial % 2), inst.feasible,
                        name=inst.name)
        want = master.solve_bruteforce(inst).value
        solvers = [(master.solve_compact_mrs, "compact")]
        if inst.n <= 6:
            solvers.append((master.solve_enumeration, "enumeration"))
        for solve, method in solvers:
            del calls[:]
            rep = solve(inst)
            assert rep.value == want and rep.method == method
            assert rep.optimal and rep.iterations == 1
            if want == 0:
                assert not calls, (method, inst)
                assert rep.x == master.zero_solution(inst)
            else:
                assert calls, (method, inst)
        zeros += want == 0
        positives += want > 0
    assert zeros >= 20 and positives >= 5


def test_huge_declared_node_count_solves_like_two_nodes():
    def path_instance(nodes: int) -> Instance:
        return Instance(ItemCosts((3,), (2,)), Budgets(1, 0),
                        ShortestPath(nodes, [(0, 1)], 0, 1))

    small, huge = path_instance(2), path_instance(10**9)
    assert huge.feasible.linear_rows() == small.feasible.linear_rows()
    for solve in (master.solve_iterative, master.solve_enumeration,
                  master.solve_bruteforce):
        want, got = solve(small).to_dict(), solve(huge).to_dict()
        del want["time"], got["time"]
        assert got == want
