"""First-stage solvers: agreement, reports, bound traces, guards."""

import pytest

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
from balregret import master
from conftest import rand_mrs


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
    stuck = AdversaryCertificate(10**6, y, delta, Scenario.empty(y.n))
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
