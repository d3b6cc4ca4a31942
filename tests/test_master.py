"""First-stage solvers: agreement, reports, bound traces, guards."""

import dataclasses
import itertools
import math
import time
import types

import pytest

from balregret.adversarial import (
    adversarial_bruteforce,
    adversarial_selection_dp,
)
from balregret.core import (
    AdversaryCertificate,
    BinarySolution,
    Budgets,
    InputError,
    Instance,
    InternalError,
    ItemCosts,
    Knapsack,
    MultiRepSelection,
    ScaleError,
    Scenario,
    ShortestPath,
)
from balregret.instances import SplitMix64, gen_knapsack, gen_selection
from balregret import master, milp, polyalg
from conftest import layered_instances, lp_relaxation, rand_mrs


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


def _tied_selection(rng: SplitMix64, name: str) -> Instance:
    """Two partitions of 3-4 items, each with a quota of about half, so
    that the adversary's pick can differ from x in several items; costs
    in 1..20 and deviations in {0, 12, 24, 36, 48}, which tie often."""
    sizes = [3 + rng.randint(0, 1) for _ in range(2)]
    n = sum(sizes)
    parts = [tuple(range(sizes[0])), tuple(range(sizes[0], n))]
    return Instance(
        ItemCosts(tuple(rng.randint(1, 20) for _ in range(n)),
                  tuple(12 * rng.randint(0, 4) for _ in range(n))),
        Budgets(1 + rng.randint(0, 2), 0),
        MultiRepSelection(parts, tuple(size // 2 + rng.randint(0, 1)
                                       for size in sizes)),
        name=name)


def test_pruned_break_points_keep_every_method_exact():
    # Each model takes break points only where they can bind: over a
    # pick's items less its gamma_prime largest deviations, and in the
    # compact MILP over the items not forced in.  Of every four trials,
    # one sets gamma_prime = 0 and gamma >= sum(quotas), where the regret
    # algorithm's pi grid is {0} alone; one draws gamma_prime from 0..n,
    # which makes every kind of point set, 0 alone too; two draw it from
    # 1..2, where most positive values lie.
    rng = SplitMix64(41023)
    seen = dict.fromkeys(("positive", "forced", "zero only", "poly"), 0)
    for trial in range(320):
        inst = _tied_selection(rng, f"points{trial}")
        n, quotas = inst.n, sum(inst.feasible.quotas)
        if trial % 4 == 0:
            budgets = Budgets(quotas + rng.randint(0, n - quotas), 0)
        else:
            budgets = Budgets(inst.budgets.gamma, rng.randint(0, n)
                              if trial % 4 == 1 else 1 + rng.randint(0, 1))
        inst = Instance(inst.costs, budgets, inst.feasible, name=inst.name)
        want = master.solve_bruteforce(inst).value
        solvers = [master.solve_compact_mrs, master.solve_enumeration,
                   master.solve_iterative]
        if trial % 4 == 0:
            solvers.append(polyalg.solve_regret_budgeted_mrs)
            seen["poly"] += 1
        for solve in solvers:
            rep = solve(inst)
            assert rep.value == want, (solve.__name__, inst)
            assert adversarial_bruteforce(inst, rep.x).value == want, (
                solve.__name__, inst)
        seen["positive"] += want > 0 and budgets.gamma_prime > 0
        seen["forced"] += bool(master.dominance_reduce(inst).forced_in)
        seen["zero only"] += (budgets.gamma_prime > 0
                              and inst.break_points() == (0,))
    assert min(seen.values()) >= 20, seen


def _spy_lazy(monkeypatch) -> list:
    """Record every ``milp.solve_milp`` call that passes a lazy callback:
    its model and, per callback call, the point, the tree's bound, and
    the value and rows returned."""
    solves = []
    solve = milp.solve_milp

    def spy(model, *args, lazy=None, **kwargs):
        if lazy is None:
            return solve(model, *args, **kwargs)
        calls = []
        solves.append((model, calls))

        def wrapped(x, bound):
            value, rows = lazy(x, bound)
            calls.append((x, bound, value, rows))
            return value, rows

        return solve(model, *args, lazy=wrapped, **kwargs)

    monkeypatch.setattr(milp, "solve_milp", spy)
    return solves


def _appended(solves) -> bool:
    """Whether some recorded solve appended a lazy row."""
    return any(rows for _, calls in solves for *_, rows in calls)


def test_iterative_bound_traces():
    # One entry per adversary call of the tree and one for the closed
    # tree: the lower bounds rise, the upper bounds fall, and both meet
    # at the value.
    rng = SplitMix64(31338)
    for trial in range(25):
        inst = rand_mrs(rng, n_lo=4, n_hi=7, name=f"trace{trial}")
        rep = master.solve_iterative(inst)
        assert rep.optimal
        lbs, ubs = rep.lower_bounds, rep.upper_bounds
        assert lbs and ubs and len(lbs) == len(ubs)
        if rep.value:
            assert len(lbs) == rep.iterations + 1
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(lb <= ub + 1e-9 for lb, ub in zip(lbs, ubs))
        assert lbs[-1] == ubs[-1] == float(rep.value)
        assert rep.gap == 0.0


def test_iterative_calls_the_adversary_once_per_integral_point(monkeypatch):
    # One tree per solve.  The adversary runs once on the warm start and
    # once on the x of each integral point the tree evaluates; each of
    # those calls adds the tree's bound to the lower bounds.
    solves = _spy_lazy(monkeypatch)
    calls = []
    dp = master.ADVERSARY_METHODS["dp"]
    monkeypatch.setitem(master.ADVERSARY_METHODS, "dp",
                        lambda inst, x: calls.append(x) or dp(inst, x))
    points = 0
    for k in range(30):
        inst = gen_selection(8 + k % 5, 31339 + k, gamma=1 + k % 3,
                             gamma_prime=k % 3)
        del solves[:], calls[:]
        rep = master.solve_iterative(inst)
        assert rep.optimal and rep.value == master.solve_bruteforce(inst).value
        if not solves:  # the warm start is worth 0
            assert len(calls) == 1 and rep.iterations == 0
            continue
        [(_, evaluated)] = solves
        assert len(calls) == 1 + len(evaluated) == 1 + rep.iterations, inst
        assert calls[1:] == [
            BinarySolution([int(round(v)) for v in x[1:1 + inst.n]])
            for x, *_ in evaluated]
        assert [bound for _, bound, *_ in evaluated] == rep.lower_bounds[:-1]
        points += len(evaluated)
    assert points >= 20


def test_adversary_points_meet_every_earlier_lazy_row(monkeypatch):
    # Every point the tree passes to the adversary meets every cut the
    # adversary returned before it, on selection (DP) and on paths and
    # knapsacks (MILP).
    solves = _spy_lazy(monkeypatch)
    rng = SplitMix64(31340)
    instances = [(gen_selection(n, seed, gamma=3, gamma_prime=1), "dp")
                 for n, seed in ((30, 7), (40, 3), (60, 1))]
    instances += [(inst, "milp") for inst in layered_instances(rng, 15)]
    instances += [(gen_knapsack(6 + k % 5, 31340 + k, gamma=1 + k % 3,
                                gamma_prime=k % 4), "milp") for k in range(15)]
    checked = 0
    for inst, adversary in instances:
        del solves[:]
        rep = master.solve_iterative(inst, adversary=adversary)
        assert rep.optimal
        for _, evaluated in solves:
            rows = []
            for x, _, _, new in evaluated:
                for coefs, sense, rhs in rows:
                    assert sense == ">="
                    assert (sum(a * x[j] for j, a in coefs.items())
                            >= rhs - milp.FEAS_TOL), inst
                    checked += 1
                rows += new
    assert checked >= 200


def test_iterative_deadline_keeps_the_best_x_and_the_tree_bound(
        monkeypatch):
    # A deadline that passes after the tree's k-th adversary call stops
    # the tree at its next node: the report keeps the best x found, is
    # not optimal, and ends on the tree's bound, which no earlier bound
    # passes and which does not pass the value.
    inst = gen_selection(30, 7, gamma=3, gamma_prime=1)
    full = master.solve_iterative(inst)
    assert full.iterations > 3
    calls = []
    dp = master.ADVERSARY_METHODS["dp"]
    monkeypatch.setitem(master.ADVERSARY_METHODS, "dp",
                        lambda inst, x: calls.append(x) or dp(inst, x))
    clock = time.monotonic
    for k in range(1, full.iterations):
        monkeypatch.setattr(milp, "time", types.SimpleNamespace(
            monotonic=lambda: math.inf if len(calls) > k else clock()))
        del calls[:]
        rep = master.solve_iterative(inst)
        assert not rep.optimal and rep.iterations == k
        assert len(rep.lower_bounds) == len(rep.upper_bounds) == k + 1
        assert rep.lower_bounds[-2] <= rep.lower_bounds[-1] <= rep.value
        assert rep.upper_bounds[-1] == rep.value >= full.value
        assert rep.value == min(dp(inst, x).value for x in calls)
        assert dp(inst, rep.x).value == rep.value


def test_milp_adversary_skips_points_a_pooled_pick_settles(monkeypatch):
    # On paths the MILP adversary values the warm start and only those
    # integral points that no pick so far scores at the incumbent or
    # above; the values stay exact.
    calls = []
    adv = master.ADVERSARY_METHODS["milp"]
    monkeypatch.setitem(master.ADVERSARY_METHODS, "milp",
                        lambda inst, x, held: calls.append(x)
                        or adv(inst, x, held))
    rounds = 0
    for inst in layered_instances(SplitMix64(31341), 30):
        rep = master.solve_iterative(inst, adversary="milp")
        want = master.solve_bruteforce(inst).value
        assert rep.optimal and rep.value == want, inst.name
        assert adversarial_bruteforce(inst, rep.x).value == want, inst.name
        rounds += 1 + rep.iterations
    assert len(calls) < rounds


def test_iterative_adversary_choices_agree(example_one):
    values = {
        master.solve_iterative(example_one, adversary=a).value
        for a in ("dp", "milp", "bruteforce")
    }
    assert values == {1}
    with pytest.raises(InputError):
        master.solve_iterative(example_one, adversary="oracle")


def test_iterative_bruteforce_adversary_enumerates_once(monkeypatch):
    # The brute-force adversary's calls in one solve share one enumeration
    # of the feasible set, and each call is the table's entry.
    enumerations, calls = [], []
    enumerate_solutions = master.enumerate_solutions
    bruteforce = master.ADVERSARY_METHODS["bruteforce"]
    monkeypatch.setattr(master, "enumerate_solutions",
                        lambda f: enumerations.append(f)
                        or enumerate_solutions(f))
    monkeypatch.setitem(master.ADVERSARY_METHODS, "bruteforce",
                        lambda inst, x, candidates: calls.append(x)
                        or bruteforce(inst, x, candidates))
    inst = gen_selection(12, 2, gamma=3, gamma_prime=1)
    rep = master.solve_iterative(inst, adversary="bruteforce")
    assert rep.value == master.solve_iterative(inst, adversary="dp").value
    assert len(enumerations) == 1 and len(calls) >= 3


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


@pytest.mark.parametrize("entry", [
    polyalg.solve_regret_budgeted_mrs,
    lambda inst: adversarial_selection_dp(inst, BinarySolution((1, 0))),
    master.zero_solution,
    master.dominance_reduce,
    master.build_compact,
], ids=["regret_poly", "selection_dp", "zero_solution", "dominance_reduce",
        "build_compact"])
def test_selection_entry_points_reject_knapsack(entry):
    inst = Instance(ItemCosts((1, 2), (1, 1)), Budgets(1, 0),
                    Knapsack((1, 1), 1))
    with pytest.raises(InputError,
                       match="requires multi-representative selection"):
        entry(inst)


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


@pytest.mark.parametrize("solve", [master.solve_compact_mrs,
                                   master.solve_enumeration])
def test_stopped_solve_reports_its_incumbent(monkeypatch, solve):
    # On a clock that ticks once per node the search pops, a deadline of
    # 1.5 s stops it after two nodes, with an incumbent but no proof.  The
    # report holds that incumbent at its exact value, is not optimal, and
    # its lower bound is the search's.
    inst = gen_selection(6, 2, gamma=2, gamma_prime=1)
    results = []
    solve_milp = milp.solve_milp

    def spy(*args, **kwargs):
        results.append(solve_milp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(milp, "solve_milp", spy)
    monkeypatch.setattr(master, "time",
                        types.SimpleNamespace(monotonic=lambda: 0.0))
    monkeypatch.setattr(milp, "time", types.SimpleNamespace(
        monotonic=itertools.count().__next__))
    rep = solve(inst, time_limit=1.5)
    [res] = results
    assert (res.status, res.nodes) == ("time_limit", 2)
    assert rep.x.x == tuple(round(v) for v in res.assignment[1:1 + inst.n])
    assert rep.optimal is False
    assert rep.value == adversarial_bruteforce(inst, rep.x).value
    assert rep.upper_bounds == [rep.value]
    assert rep.lower_bounds == [res.bound] and 0 < res.bound < rep.value


def _scaled_selection(seed: int, k: int) -> Instance:
    """``gen_selection(6, seed, gamma=2, gamma_prime=1)`` with its costs
    and deviations times k."""
    base = gen_selection(6, seed, gamma=2, gamma_prime=1)
    return Instance(ItemCosts(tuple(v * k for v in base.costs.c_hat),
                              tuple(v * k for v in base.costs.d)),
                    base.budgets, base.feasible)


@pytest.mark.xfail(reason="float64 simplex tolerances at costs x 10^5; "
                          "ROADMAP item 4's integer certificate")
def test_compact_exact_on_scaled_selection():
    inst = _scaled_selection(10, 10**5)
    assert master.solve_bruteforce(inst).value == 600000
    assert master.solve_compact_mrs(inst).value == 600000


@pytest.mark.xfail(raises=ScaleError, strict=True, reason="ROADMAP item 4")
@pytest.mark.parametrize("method, seed", [
    ("iterative", 10), ("compact", 2), ("compact", 10),
    ("enumeration", 2), ("enumeration", 10)])
def test_methods_exact_on_selection_at_costs_x_10_6(method, seed):
    # The root LP of iterative's master reads unbounded, and compact's and
    # enumeration's models read infeasible: float roundoff in both cases.
    inst = _scaled_selection(seed, 10**6)
    solve = {"iterative": master.solve_iterative,
             "compact": master.solve_compact_mrs,
             "enumeration": master.solve_enumeration}[method]
    assert solve(inst).value == master.solve_bruteforce(inst).value


@pytest.mark.parametrize("method", [
    "solve_bruteforce",
    pytest.param("solve_iterative", marks=pytest.mark.xfail(
        raises=InternalError, strict=True,
        reason="ROADMAP item 4: a lazy row holds at the point it was "
               "returned for")),
    pytest.param("solve_enumeration", marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP item 4: reports 0 as optimal")),
])
def test_methods_exact_inside_the_scale_guard(method):
    # Costs and deviations sum to less than 2^60, yet float tolerances
    # read them wrong.  Compact refuses with ScaleError, which is honest.
    inst = Instance(ItemCosts((2**59, 1, 0, 2**57), (1, 2**57, 0, 0)),
                    Budgets(2, 0), MultiRepSelection([(0, 1, 2, 3)], [2]))
    rep = getattr(master, method)(inst)
    assert (rep.value, rep.optimal) == (1, True)


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
    # Master: the value variable, x, and one cut per pooled triple at every
    # gamma_prime; from 1 on, each scenario is pooled at several points.
    for gamma_prime in range(3):
        at = _with_gamma_prime(inst, gamma_prime)
        at_pool = master._full_pool(at)
        model = master.build_master(at, at_pool)
        assert len(model.variables) == 1 + n
        assert len(model.constraints) == first + len(at_pool)
        assert (len(at_pool) == len(pool)) == (gamma_prime == 0)
    # Compact: one block (pi, rho, kappa; a value row and two rows per item)
    # for the largest break point only; from gamma_prime = 1 on, one per
    # break point over the items the dominance order does not force in.
    block_vars, block_rows = 1 + n + parts, 1 + 2 * n
    model = master.build_compact(zero)
    assert len(model.variables) == 1 + n + block_vars
    assert len(model.constraints) == first + block_rows
    forced_in = master.dominance_reduce(inst).forced_in
    blocks = len(inst.break_points(i for i in range(n)
                                   if i not in forced_in))
    assert blocks > 1
    model = master.build_compact(inst)
    assert len(model.variables) == 1 + n + blocks * block_vars
    assert len(model.constraints) == first + blocks * block_rows
    assert zero.break_points() == (max(inst.costs.d),)


def test_compact_blocks_only_at_points_that_can_bind():
    # 21 points make up {0} | {d_i}.  The dominance order forces 7 items
    # in, and the largest deviation of the 13 others goes at gamma_prime
    # = 1: 13 blocks of 1 + 2n rows, 540 rows in all (868 with every
    # point).
    inst = gen_selection(20, 1, gamma=3, gamma_prime=1)
    assert len(inst.costs.break_points(0)) == 21
    assert len(master.dominance_reduce(inst).forced_in) == 7
    first = len(master._first_stage_model(inst)[0].constraints)
    model = master.build_compact(inst)
    assert len(model.constraints) == first + 13 * (1 + 2 * inst.n) == 540


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
                        lambda model, **kw: calls.append(1)
                        or solve_milp(model, **kw))
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


def test_iterative_matches_bruteforce_on_selection(monkeypatch):
    # Both adversaries at gamma_prime 0-3, the range over which a cut
    # moves between break points.  A value of 0 that both adversaries
    # certify is optimal, since no value lies below it; the draws go on
    # until 300 instances are positive.  ``rounds`` counts the solves
    # whose tree appended at least one lazy row.
    solves = _spy_lazy(monkeypatch)
    rng = SplitMix64(41019)
    positive = rounds = 0
    while positive < 300:
        inst = rand_mrs(rng, n_lo=5, n_hi=12, max_parts=2, cost_hi=60,
                        dev_hi=99, name=f"bp{positive}")
        inst = Instance(inst.costs, Budgets(1 + rng.randint(0, 2),
                                            rng.randint(0, 3)),
                        inst.feasible, name=inst.name)
        reps, appended = [], []
        for adversary in ("dp", "milp"):
            del solves[:]
            reps.append(master.solve_iterative(inst, adversary=adversary))
            appended.append(_appended(solves))
        if all(rep.optimal and rep.value == 0 for rep in reps):
            continue
        want = master.solve_bruteforce(inst).value
        for rep in reps:
            assert rep.optimal and rep.value == want, (rep.method, inst)
            assert adversarial_bruteforce(inst, rep.x).value == want
        rounds += sum(appended)
        positive += 1
    assert rounds >= 300


def test_iterative_matches_bruteforce_on_paths_and_knapsacks(monkeypatch):
    solves = _spy_lazy(monkeypatch)
    rng = SplitMix64(41020)
    instances = [gen_knapsack(6 + k % 5, 41020 + k, gamma=1 + k % 3,
                              gamma_prime=k % 4) for k in range(40)]
    instances += layered_instances(rng, 40, first=40)
    rounds = 0
    for inst in instances:
        del solves[:]
        rep = master.solve_iterative(inst, adversary="milp")
        assert rep.optimal, inst
        assert rep.value == master.solve_bruteforce(inst).value, inst
        rounds += _appended(solves)
    assert rounds >= 10


def test_iterative_milp_adversary_solves_one_root_cold(monkeypatch):
    # Every adversary call of a solve reprices the rows of one model, read
    # into arrays once, so only its first root LP is solved cold; the
    # others start from the last one's.  The adversary's model has 3n + 1
    # columns, the master's n + 1.
    solves = _spy_lazy(monkeypatch)
    cold_columns, read_columns = [], []
    relax, form = milp._relax, milp._form

    def spy_relax(f):
        cold_columns.append(f.A.shape[1])
        return relax(f)

    def spy_form(model):
        read_columns.append(len(model.variables))
        return form(model)

    monkeypatch.setattr(milp, "_relax", spy_relax)
    monkeypatch.setattr(milp, "_form", spy_form)
    rounds = 0
    for inst in layered_instances(SplitMix64(41021), 20):
        del cold_columns[:], read_columns[:], solves[:]
        master.solve_iterative(inst, adversary="milp")
        assert cold_columns.count(3 * inst.n + 1) == 1, inst
        assert read_columns.count(3 * inst.n + 1) == 1, inst
        rounds += _appended(solves)
    assert rounds >= 3


def _eps_block_master(inst: Instance, pairs) -> milp.MilpModel:
    """The reference master: per scenario (y, delta), a balancing vector
    eps over y with caps eps_i + x_i <= 1 and the budget sum eps <=
    gamma_prime, in the row z + sum d_i eps_i >= sum_i (c_i + d_i delta_i)
    (x_i - y_i)."""
    c, d, gp = inst.costs.c_hat, inst.costs.d, inst.budgets.gamma_prime
    model, z, x_vars = master._first_stage_model(inst)
    for y, delta in pairs:
        eps = {i: model.add_continuous(0.0) for i in y.indices()}
        coefs = {z: 1.0}
        coefs.update((x_vars[i], -float(c[i] + d[i] * delta.delta[i]))
                     for i in range(inst.n))
        coefs.update((v, float(d[i])) for i, v in eps.items())
        model.add_constraint(coefs, ">=", -float(sum(
            c[i] + d[i] * delta.delta[i] for i in y.indices())))
        for i, v in eps.items():
            model.add_constraint({v: 1.0, x_vars[i]: 1.0}, "<=", 1.0)
        model.add_constraint({v: 1.0 for v in eps.values()}, "<=", float(gp))
    return model


def test_break_point_cuts_keep_the_balancing_lp_relaxation():
    # Over the full pool and over sub-pools of a few scenarios, each at
    # every break point, the cut master's LP relaxation equals the eps
    # master's.
    rng = SplitMix64(41021)
    compared = 0
    for trial in range(30):
        inst = rand_mrs(rng, n_lo=4, n_hi=6, max_parts=2, name=f"lp{trial}")
        inst = Instance(inst.costs, Budgets(1 + trial % 3, trial % 4),
                        inst.feasible, name=inst.name)
        pool = master._full_pool(inst)
        pairs = list(dict.fromkeys((y, delta) for y, delta, _ in pool))
        subsets = [pairs] + [
            [pairs[rng.randint(0, len(pairs) - 1)] for _ in range(k)]
            for k in (1, 2, 4)]
        for chosen in subsets:
            chosen = list(dict.fromkeys(chosen))
            sub = {key: None for key in pool if key[:2] in set(chosen)}
            cut = lp_relaxation(master.build_master(inst, sub))
            ref = lp_relaxation(_eps_block_master(inst, chosen))
            assert cut[0] == ref[0] == "optimal"
            assert cut[1] == pytest.approx(ref[1], abs=1e-6), inst
            compared += 1
    assert compared == 120


def test_paper_scale_selection_converges_in_few_rounds():
    # Before the break-point cuts this instance took 25 rounds over
    # masters whose balancing columns made it about 20 times slower; the
    # guard is a count, not a timing.
    rep = master.solve_iterative(gen_selection(60, 1, gamma=3,
                                               gamma_prime=1))
    assert rep.optimal and rep.value == 161
    assert rep.iterations <= 30


def test_iterative_builds_one_master_and_grows_it(monkeypatch):
    # One build and one tree per solve: the master is solved once, and
    # the cuts the adversary returns, one per call at most, join that
    # tree as lazy rows.  The model itself is left as built.
    builds = []
    build = master.build_master

    def spy_build(inst, pool):
        builds.append(build(inst, pool))
        return builds[-1]

    monkeypatch.setattr(master, "build_master", spy_build)
    solves = _spy_lazy(monkeypatch)
    inst = gen_selection(30, 7, gamma=3, gamma_prime=1)
    rep = master.solve_iterative(inst)
    assert rep.optimal and rep.value == 81 and rep.iterations > 2
    assert len(builds) == 1
    [(model, evaluated)] = solves
    assert model is builds[0]
    assert all(len(rows) <= 1 for *_, rows in evaluated)
    appended = sum(len(rows) for *_, rows in evaluated)
    assert appended > 2
    assert len(model.constraints) == len(
        master._first_stage_model(inst)[0].constraints) + len(
        inst.break_points(master._initial_scenario(inst)[0].indices())) + 1


def test_cut_that_misses_the_adversary_value_raises(monkeypatch):
    # Each pooled cut, evaluated at the master's x, must equal the value
    # the adversary reported there.
    dp = master.ADVERSARY_METHODS["dp"]
    monkeypatch.setitem(
        master.ADVERSARY_METHODS, "dp",
        lambda inst, x: dataclasses.replace(dp(inst, x),
                                            value=dp(inst, x).value + 1))
    with pytest.raises(InternalError, match="misses"):
        master.solve_iterative(gen_selection(30, 7, gamma=3, gamma_prime=1))
