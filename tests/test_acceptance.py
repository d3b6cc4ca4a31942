"""Acceptance gate: eleven exactness and property criteria.

Each test prints a single summary line; run this file with ``-v`` (and
``-s`` to see the lines inline) for the one-line-per-criterion report.
All checks are exact integer comparisons; no tolerances.
"""

import itertools
from dataclasses import replace

from balregret.adversarial import (
    adversarial_bruteforce,
    adversarial_milp,
    adversarial_selection_dp,
)
from balregret.core import (
    BinarySolution,
    Budgets,
    Instance,
    ItemCosts,
    MultiRepSelection,
    enumerate_solutions,
    nominal_solve,
)
from balregret.instances import (
    SplitMix64,
    build_equipartition_reduction,
    build_partition_reduction,
    gen_knapsack,
    gen_selection,
)
from balregret import evaluation, master, polyalg
from conftest import layered_graph, solutions


def _passed(tag: str, detail: str) -> None:
    print(f"\n[acceptance] {tag} PASS: {detail}")


def _with_budgets(inst: Instance, gamma=None, gamma_prime=None) -> Instance:
    g = inst.budgets.gamma if gamma is None else gamma
    gp = inst.budgets.gamma_prime if gamma_prime is None else gamma_prime
    return replace(inst, budgets=Budgets(g, gp))


def _selection(n: int, seed: int, gamma: int, gamma_prime: int) -> Instance:
    base = gen_selection(n, seed)
    return _with_budgets(base, gamma, gamma_prime)


def _canonical_solutions(inst: Instance):
    """Feasible solutions up to permutations of identical items.

    Items with equal (nominal cost, deviation) in the same partition are
    interchangeable: swapping them is an instance automorphism, so some
    optimum survives restriction to lowest-index representatives.
    """
    f = inst.feasible
    c, d = inst.costs.c_hat, inst.costs.d
    per_part = []
    for part, q in zip(f.partitions, f.quotas):
        groups: dict[tuple[int, int], list[int]] = {}
        for i in part:
            groups.setdefault((c[i], d[i]), []).append(i)
        glist = list(groups.values())
        choices: list[list[int]] = []

        def rec(k: int, left: int, picked: list[int]) -> None:
            if k == len(glist):
                if left == 0:
                    choices.append(
                        [i for g, t in zip(glist, picked) for i in g[:t]]
                    )
                return
            for t in range(min(len(glist[k]), left) + 1):
                rec(k + 1, left - t, picked + [t])

        rec(0, q, [])
        per_part.append(choices)
    for combo in itertools.product(*per_part):
        idx = [i for group in combo for i in group]
        yield BinarySolution.from_indices(idx, inst.n)


def _symmetry_optimum(inst: Instance) -> int:
    return min(adversarial_selection_dp(inst, x).value
               for x in _canonical_solutions(inst))


def test_c01_worked_example_one_exact(example_one):
    values = {}
    for solve in (master.solve_iterative, master.solve_enumeration,
                  master.solve_compact_mrs, master.solve_bruteforce):
        rep = solve(example_one)
        values[rep.method] = rep.value
    assert set(values.values()) == {1}, values
    x = BinarySolution.from_indices([0, 2], 5)
    assert master.solve_bruteforce(example_one).x == x
    cert = adversarial_selection_dp(example_one, x)
    assert cert.value == 1
    # enumerate every optimal adversarial certificate against x and record
    # the scenario cost split (our selection, the adversary's selection)
    c, d = example_one.costs.c_hat, example_one.costs.d
    n = example_one.n
    gamma = example_one.budgets.gamma
    gamma_prime = example_one.budgets.gamma_prime
    splits = set()
    for delta in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(gamma + 1)):
        for y in solutions(example_one.feasible):
            best = None
            free = [i for i in range(n) if not x.x[i]]
            for eps in itertools.chain.from_iterable(
                    itertools.combinations(free, k)
                    for k in range(gamma_prime + 1)):
                cost = [c[i] + d[i] * (i in delta) + d[i] * (i in eps)
                        for i in range(n)]
                ours = sum(cost[i] for i in x.indices())
                theirs = sum(cost[i] for i in y.indices())
                if best is None or ours - theirs < best[0]:
                    best = (ours - theirs, ours, theirs)
            if best[0] == cert.value:
                splits.add((best[1], best[2]))
    assert (25, 24) in splits, splits
    _passed("criterion 1",
            "all four methods value 1; certificate decomposes 25 vs 24")


def test_c02_worked_example_two_matrix(example_two):
    rows = {
        "WC": BinarySolution.from_indices([3, 4, 5], 6),
        "R": BinarySolution.from_indices([0, 1, 2], 6),
        "BR": BinarySolution.from_indices([2, 3, 4], 6),
    }
    expect = {
        "WC": (12, 6, 2),
        "R": (14, 3, 3),
        "BR": (13, 4, 1),
    }
    for row, x in rows.items():
        got = tuple(evaluation.eval_criterion(example_two, x, crit)
                    for crit in ("WC-G", "R-G", "BR"))
        assert got == expect[row], (row, got)
    assert sorted(evaluation.optimize_criterion(example_two, "WC-G").x
                  .indices()) == [3, 4, 5]
    assert sorted(evaluation.optimize_criterion(example_two, "R-G").x
                  .indices()) == [0, 1, 2]
    assert sorted(evaluation.optimize_criterion(example_two, "BR").x
                  .indices()) == [2, 3, 4]
    _passed("criterion 2",
            "3x3 matrix (12,6,2)/(14,3,3)/(13,4,1) and all three row optima")


def test_c03_first_stage_solver_agreement():
    rng = SplitMix64(30001)
    checked = 0
    for k in range(200):
        n = 3 + k % 4
        inst = _selection(n, 30100 + k, rng.randint(0, 3), rng.randint(0, 3))
        values = {
            "enumeration": master.solve_enumeration(inst).value,
            "iterative": master.solve_iterative(inst).value,
            "compact": master.solve_compact_mrs(inst).value,
            "bruteforce": master.solve_bruteforce(inst).value,
        }
        assert len(set(values.values())) == 1, (inst.name, values)
        checked += 1
    _passed("criterion 3",
            f"{checked} instances, four methods in exact agreement")


def test_c04_adversarial_solver_agreement():
    rng = SplitMix64(30002)
    checked = brute_checked = 0
    for k in range(500):
        n = 4 + k % 17
        inst = _selection(n, 30600 + k, min(rng.randint(0, 5), n),
                          min(rng.randint(0, 5), n))
        xs = [nominal_solve(inst.feasible, inst.costs.c_hat)]
        if n <= 12:
            pool = solutions(inst.feasible)
            xs.append(pool[rng.randint(0, len(pool) - 1)])
        for x in xs:
            dp = adversarial_selection_dp(inst, x).value
            mip = adversarial_milp(inst, x).value
            assert dp == mip, (inst.name, dp, mip)
            checked += 1
            if inst.feasible.solution_count() <= 100_000:
                bf = adversarial_bruteforce(inst, x).value
                assert bf == dp, (inst.name, bf, dp)
                brute_checked += 1
    _passed("criterion 4",
            f"{checked} (instance, x) pairs dp == milp; "
            f"{brute_checked} also == bruteforce")


def test_c05_zero_balancing_polynomial_algorithm():
    rng = SplitMix64(30003)
    checked = 0
    for k in range(500):
        n = 3 + k % 6 if k % 25 else 9 + (k // 25) % 2
        num_parts = (1, 2, 4)[k % 3]
        num_parts = min(num_parts, n)
        cuts = sorted(rng.randint(1, n - 1) for _ in range(num_parts - 1))
        bounds = sorted({0, *cuts, n})
        parts = [tuple(range(bounds[i], bounds[i + 1]))
                 for i in range(len(bounds) - 1)]
        quotas = tuple(1 + rng.randint(0, len(p) - 1) for p in parts)
        inst = Instance(
            ItemCosts(tuple(rng.randint(1, 100) for _ in range(n)),
                      tuple(rng.randint(0, 99) for _ in range(n))),
            Budgets(rng.randint(0, n), 0),
            MultiRepSelection(parts, quotas),
            name=f"poly{k}",
        )
        poly = polyalg.solve_regret_budgeted_mrs(inst)
        compact = master.solve_compact_mrs(inst)
        assert poly.value == compact.value, (inst.name, poly.value,
                                             compact.value)
        assert adversarial_selection_dp(inst, poly.x).value == poly.value
        checked += 1
    _passed("criterion 5",
            f"{checked} instances, polynomial == compact at zero "
            "balancing budget")


def test_c06_full_balancing_budget_theorem():
    rng = SplitMix64(30004)
    for k in range(100):
        n = 6 + k % 10
        inst = _selection(n, 31800 + k, rng.randint(0, n), n)
        rep = master.solve_iterative(inst)
        assert rep.value == 0, inst.name
        x = nominal_solve(inst.feasible, inst.costs.worst())
        assert adversarial_selection_dp(inst, x).value == 0, inst.name
    _passed("criterion 6",
            "100 instances: optimum 0, attained by the robust nominal "
            "minimizer")


def _equipartition_exists(weights) -> bool:
    n = len(weights)
    total = sum(weights)
    if total % 2:
        return False
    return any(sum(combo) * 2 == total
               for combo in itertools.combinations(weights, n // 2))


def _partition_exists(weights) -> bool:
    total = sum(weights)
    if total % 2:
        return False
    half = total // 2
    reachable = {0}
    for w in weights:
        reachable |= {r + w for r in reachable}
    return half in reachable


def test_c07_reduction_theorems():
    cases = 0
    for n in (4, 6):
        for weights in itertools.combinations_with_replacement((1, 2, 3), n):
            inst, threshold = build_equipartition_reduction(weights)
            optimum = _symmetry_optimum(inst)
            if inst.feasible.solution_count() <= 1000:
                assert optimum == master.solve_bruteforce(inst).value
            exists = _equipartition_exists(weights)
            assert optimum >= threshold, (weights, optimum, threshold)
            assert (optimum == threshold) == exists, (weights, optimum,
                                                      threshold, exists)
            cases += 1
    for n in (3, 4):
        for weights in itertools.combinations_with_replacement((1, 2, 3), n):
            inst, threshold = build_partition_reduction(weights)
            padded = list(weights)
            if 3 * max(padded) > sum(padded):
                padded += [sum(padded), sum(padded)]
            optimum = _symmetry_optimum(inst)
            if inst.feasible.solution_count() <= 1000:
                assert optimum == master.solve_bruteforce(inst).value
            exists = _partition_exists(padded)
            assert optimum >= threshold, (weights, optimum, threshold)
            assert (optimum == threshold) == exists, (weights, optimum,
                                                      threshold, exists)
            cases += 1
    _passed("criterion 7",
            f"{cases} weight vectors: optimum == threshold iff a "
            "partition exists")


def test_c08_zero_value_characterization():
    rng = SplitMix64(30005)
    zeros = 0
    for k in range(200):
        n = 3 + k % 8
        inst = Instance(
            ItemCosts(tuple(rng.randint(0, 5) for _ in range(n)),
                      tuple(rng.randint(0, 4) for _ in range(n))),
            Budgets(1 + rng.randint(0, n - 1), 1 + rng.randint(0, n - 1)),
            MultiRepSelection((tuple(range(n)),),
                              (1 + rng.randint(0, n - 1),)),
            name=f"zero{k}",
        )
        x = master.zero_solution(inst)
        optimum = master.solve_bruteforce(inst).value
        if x is None:
            assert optimum > 0, inst.name
        else:
            assert optimum == 0, inst.name
            assert adversarial_selection_dp(inst, x).value == 0
            zeros += 1
    assert zeros >= 20
    # The same property with two or three partitions, where the compact
    # solver answers value-0 instances through the check alone.
    multi_zeros = 0
    for k in range(120):
        n = 6 + k % 3
        cuts: set[int] = set()
        while len(cuts) < 1 + k % 2:  # two or three contiguous partitions
            cuts.add(1 + rng.randint(0, n - 2))
        bounds = [0, *sorted(cuts), n]
        parts = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
        # Wider costs, half quotas and gamma_prime = 1 keep about a fifth
        # of these instances above zero.
        inst = Instance(
            ItemCosts(tuple(rng.randint(0, 20) for _ in range(n)),
                      tuple(rng.randint(0, 20) for _ in range(n))),
            Budgets(1 + rng.randint(0, n - 1), 1),
            MultiRepSelection(parts, tuple(max(1, len(p) // 2)
                                           for p in parts)),
            name=f"zero-multi{k}",
        )
        x = master.zero_solution(inst)
        optimum = master.solve_bruteforce(inst).value
        assert (x is None) == (optimum > 0), inst.name
        assert master.solve_compact_mrs(inst).value == optimum, inst.name
        if x is not None:
            assert adversarial_selection_dp(inst, x).value == 0
            multi_zeros += 1
    assert 20 <= multi_zeros <= 110
    _passed("criterion 8",
            f"200 instances: zero detected iff optimum 0 ({zeros} zeros); "
            f"120 with 2-3 partitions ({multi_zeros} zeros)")


def test_c09_structural_properties():
    rng = SplitMix64(30006)
    pairs = 0
    for k in range(30):
        n = 4 + k % 7
        inst = _selection(n, 32600 + k, rng.randint(0, 4), rng.randint(0, 4))
        pool = solutions(inst.feasible)
        for x in (nominal_solve(inst.feasible, inst.costs.c_hat),
                  pool[rng.randint(0, len(pool) - 1)]):
            base = adversarial_selection_dp(inst, x).value
            assert base >= 0
            prev = None
            for g in range(n + 1):
                v = adversarial_selection_dp(_with_budgets(inst, gamma=g),
                                             x).value
                assert prev is None or v >= prev
                prev = v
            prev = None
            for gp in range(n + 1):
                v = adversarial_selection_dp(
                    _with_budgets(inst, gamma_prime=gp), x).value
                assert prev is None or v <= prev
                prev = v
            no_balance = adversarial_selection_dp(
                _with_budgets(inst, gamma_prime=0), x).value
            assert no_balance >= base
            pairs += 1
        rep = master.solve_iterative(inst)
        lbs, ubs = rep.lower_bounds, rep.upper_bounds
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert abs(lbs[-1] - ubs[-1]) <= 1e-6
    _passed("criterion 9",
            f"{pairs} (instance, x) pairs: nonnegative, budget-monotone, "
            "and bound traces close")


def test_c10_knapsack_and_shortest_path():
    rng = SplitMix64(30007)
    solved = 0
    for k, n in enumerate((6, 8, 10, 12, 12, 14)):
        inst = gen_knapsack(n, 33000 + k, gamma=2, gamma_prime=1)
        rep = master.solve_iterative(inst, adversary="milp")
        if n <= 12:
            assert rep.value == master.solve_bruteforce(inst).value
        pool = enumerate_solutions(inst.feasible)
        for _ in range(4):
            x = BinarySolution.from_indices(
                pool[rng.randint(0, len(pool) - 1)], inst.n)
            assert (adversarial_milp(inst, x).value
                    == adversarial_bruteforce(inst, x, pool).value)
        solved += 1
    graphs = 0
    while graphs < 8:
        try:
            f = layered_graph(rng)
        except Exception:
            continue
        m = f.n
        inst = Instance(
            ItemCosts(tuple(rng.randint(1, 50) for _ in range(m)),
                      tuple(rng.randint(0, 40) for _ in range(m))),
            Budgets(2, 1), f, name=f"layered{graphs}",
        )
        assert (master.solve_iterative(inst, adversary="milp").value
                == master.solve_bruteforce(inst).value)
        graphs += 1
    _passed("criterion 10",
            f"{solved} knapsack sizes and {graphs} layered graphs match "
            "brute force")


def test_c11_tradeoff_endpoints():
    checked = 0
    for s in range(100):
        inst = _with_budgets(gen_selection(20, 34000 + s), 5, 0)
        low = polyalg.solve_regret_budgeted_mrs(inst)
        opt_rg = evaluation.optimize_criterion(inst, "R-G").value
        assert evaluation.eval_criterion(inst, low.x, "R-G") == opt_rg
        high_inst = _with_budgets(inst, gamma_prime=10)
        high = master.solve_iterative(high_inst)
        assert high.value == 0
        opt_wci = evaluation.optimize_criterion(high_inst, "WC-I").value
        assert evaluation.eval_criterion(high_inst, high.x,
                                         "WC-I") == opt_wci
        checked += 1
    _passed("criterion 11",
            f"{checked} instances: zero criterion gaps at both balancing "
            "budget endpoints")
