"""Polynomial special cases: the zero-balancing solver (``polyalg``), the
zero-value check and dominance order (``master``), and constant-vector
instances."""

import math

import numpy as np
import pytest

from balregret.adversarial import (
    adversarial_bruteforce,
    adversarial_selection_dp,
    evaluate_against,
    pick_matrix,
)
from balregret.core import (
    Budgets,
    InputError,
    Instance,
    ItemCosts,
    Knapsack,
    MultiRepSelection,
    ScaleError,
    enumerate_solutions,
)
from balregret.instances import SplitMix64, gen_selection
from balregret import master, polyalg
from conftest import rand_mrs, solutions


def _zero_balancing(inst: Instance) -> Instance:
    return Instance(inst.costs, Budgets(inst.budgets.gamma, 0),
                    inst.feasible, name=inst.name)


class TestRegretBudgetedMrs:
    def test_requires_multirep(self):
        inst = Instance(ItemCosts((1, 2), (1, 1)), Budgets(1, 0),
                        Knapsack((1, 1), 1))
        with pytest.raises(InputError):
            polyalg.solve_regret_budgeted_mrs(inst)

    def test_requires_zero_balancing_budget(self, example_one):
        with pytest.raises(InputError):
            polyalg.solve_regret_budgeted_mrs(example_one)

    def test_matches_bruteforce_on_random_instances(self):
        rng = SplitMix64(8101)
        for trial in range(120):
            inst = _zero_balancing(
                rand_mrs(rng, n_lo=3, n_hi=8, max_parts=3, name=f"p{trial}")
            )
            rep = polyalg.solve_regret_budgeted_mrs(inst)
            bf = master.solve_bruteforce(inst)
            assert rep.value == bf.value, inst
            assert inst.feasible.is_feasible(rep.x)
            # the returned solution really attains the claimed value
            assert adversarial_selection_dp(inst, rep.x).value == rep.value

    def test_exact_at_costs_past_float64(self):
        # Past 2^53 float64 drops the low digits of these values; the
        # algorithm must match the minimax over every pair of selections.
        for k in (10**14 + 7, 10**15 + 3):
            for seed in range(1, 41):
                base = gen_selection(6, seed, gamma=2, gamma_prime=0)
                inst = Instance(
                    ItemCosts([k * v for v in base.costs.c_hat],
                              [k * v for v in base.costs.d]),
                    base.budgets, base.feasible)
                ys = pick_matrix(inst.n, enumerate_solutions(inst.feasible))
                want = int(evaluate_against(inst, ys, ys).max(axis=1).min())
                rep = polyalg.solve_regret_budgeted_mrs(inst)
                assert rep.value == want, (k, seed)
                assert adversarial_selection_dp(inst, rep.x).value == want
                if (k, seed) == (10**15 + 3, 32):
                    assert want == 12000000000000036

    def test_rejects_data_past_its_int64_bound(self):
        # The scale guard admits these sums, but n * max(c_i + d_i)
        # passes 2^61.
        big = 2**58
        inst = Instance(ItemCosts((big, 1, 1, 1, 1, 1, 1, 1),
                                  (big, 1, 1, 1, 1, 1, 1, 1)),
                        Budgets(2, 0),
                        MultiRepSelection([tuple(range(8))], [3]))
        with pytest.raises(ScaleError):
            polyalg.solve_regret_budgeted_mrs(inst)

    def test_scales_well(self):
        rng = SplitMix64(8102)
        inst = _zero_balancing(
            rand_mrs(rng, n_lo=40, n_hi=40, max_parts=4, cost_hi=100,
                     dev_hi=99, gamma_hi=10, name="big")
        )
        rep = polyalg.solve_regret_budgeted_mrs(inst)
        assert rep.value == adversarial_selection_dp(inst, rep.x).value


class TestZeroSolution:
    def test_sound_below_budget_one(self):
        # With gamma or gamma_prime at 0 a None proves nothing, but a
        # returned candidate still has value 0, so it is optimal.
        rng = SplitMix64(8109)
        hits = 0
        for trial in range(150):
            inst = rand_mrs(rng, n_lo=3, n_hi=7, max_parts=2, cost_hi=4,
                            dev_hi=3, name=f"b{trial}")
            budgets = ((0, inst.budgets.gamma_prime), (inst.budgets.gamma, 0),
                       (0, 0))[trial % 3]
            inst = Instance(inst.costs, Budgets(*budgets), inst.feasible)
            x = master.zero_solution(inst)
            if x is not None:
                hits += 1
                assert inst.feasible.is_feasible(x)
                assert adversarial_bruteforce(inst, x).value == 0
                assert master.solve_bruteforce(inst).value == 0
        assert hits > 10

    def test_sound_and_complete(self):
        rng = SplitMix64(8103)
        hits = 0
        for trial in range(150):
            inst = rand_mrs(rng, n_lo=3, n_hi=7, max_parts=2, cost_hi=4,
                            dev_hi=3, name=f"z{trial}")
            if inst.budgets.gamma == 0 or inst.budgets.gamma_prime == 0:
                inst = Instance(inst.costs, Budgets(
                    max(1, inst.budgets.gamma),
                    max(1, inst.budgets.gamma_prime)), inst.feasible)
            x = master.zero_solution(inst)
            optimum = master.solve_bruteforce(inst).value
            if x is None:
                assert optimum > 0
            else:
                hits += 1
                assert inst.feasible.is_feasible(x)
                assert adversarial_selection_dp(inst, x).value == 0
                assert optimum == 0
        assert hits > 10  # small cost ranges must produce zero instances


class TestDominance:
    def test_example_pair(self, example_two):
        res = master.dominance_reduce(example_two)
        # item 2 costs no more nominally and no more under full deviation
        # than item 1, so some optimum prefers it
        assert (2, 1) in res.precedences

    def test_precedence_definition_holds(self):
        rng = SplitMix64(8104)
        for trial in range(40):
            inst = rand_mrs(rng, n_lo=4, n_hi=8, max_parts=2,
                            cost_hi=6, dev_hi=6, name=f"d{trial}")
            res = master.dominance_reduce(inst)
            c, d = inst.costs.c_hat, inst.costs.d
            part_of = {}
            for l, part in enumerate(inst.feasible.partitions):
                for i in part:
                    part_of[i] = l
            for i, j in res.precedences:
                assert part_of[i] == part_of[j]
                assert c[i] <= c[j] and c[i] + d[i] <= c[j] + d[j]

    def test_forced_items_preserve_the_optimum(self):
        rng = SplitMix64(8105)
        for trial in range(40):
            inst = rand_mrs(rng, n_lo=4, n_hi=7, max_parts=2,
                            cost_hi=5, dev_hi=5, name=f"f{trial}")
            res = master.dominance_reduce(inst)
            assert not (set(res.forced_in) & set(res.forced_out))
            optimum = master.solve_bruteforce(inst).value
            best = math.inf
            for x in solutions(inst.feasible):
                if any(x.x[i] == 0 for i in res.forced_in):
                    continue
                if any(x.x[i] == 1 for i in res.forced_out):
                    continue
                best = min(best,
                           adversarial_selection_dp(inst, x).value)
            assert best == optimum

    @staticmethod
    def _full_relation(inst: Instance) -> set[tuple[int, int]]:
        """Every (i, j) in one partition with i no worse than j nominally
        and fully attacked, the lower index winning exact ties."""
        c, d = inst.costs.c_hat, inst.costs.d
        pairs = set()
        for part in inst.feasible.partitions:
            for i in part:
                for j in part:
                    a, b = (c[i], c[i] + d[i]), (c[j], c[j] + d[j])
                    if i != j and a[0] <= b[0] and a[1] <= b[1] and (
                            a != b or i < j):
                        pairs.add((i, j))
        return pairs

    @staticmethod
    def _closure(pairs) -> set[tuple[int, int]]:
        closed = set(pairs)
        while True:
            more = {(i, k) for i, j in closed for j2, k in closed if j == j2}
            if more <= closed:
                return closed
            closed |= more

    def test_cover_pairs_preserve_the_optimum(self):
        # Wide costs, tie-heavy costs, and small costs under large budgets.
        ranges = [(30, 30, 3, 3), (3, 3, 3, 3), (2, 5, 8, 8)]
        rng = SplitMix64(8108)
        for cost_hi, dev_hi, gamma_hi, gp_hi in ranges:
            for trial in range(200):
                inst = rand_mrs(rng, n_lo=3, n_hi=8, max_parts=3,
                                cost_hi=cost_hi, dev_hi=dev_hi,
                                gamma_hi=gamma_hi, gp_hi=gp_hi,
                                name=f"cover{cost_hi}-{trial}")
                res = master.dominance_reduce(inst)
                assert self._closure(res.precedences) == \
                    self._full_relation(inst), inst
                best = math.inf
                for x in solutions(inst.feasible):
                    if (any(x.x[i] < x.x[j] for i, j in res.precedences)
                            or any(x.x[i] == 0 for i in res.forced_in)
                            or any(x.x[i] == 1 for i in res.forced_out)):
                        continue
                    best = min(best,
                               adversarial_selection_dp(inst, x).value)
                assert best == master.solve_bruteforce(inst).value, inst


class TestConstantCase:
    """With one cost vector constant, the nominal optimum under the other
    vector is an optimal first stage."""

    def test_constant_nominal_vector(self):
        rng = SplitMix64(8106)
        for trial in range(25):
            base = rand_mrs(rng, n_lo=3, n_hi=6, name=f"cn{trial}")
            costs = ItemCosts((7,) * base.n, base.costs.d)
            inst = Instance(costs, base.budgets, base.feasible)
            x = inst.feasible.nominal_solve(inst.costs.d)
            assert (adversarial_selection_dp(inst, x).value
                    == master.solve_bruteforce(inst).value)

    def test_constant_deviation_vector(self):
        rng = SplitMix64(8107)
        for trial in range(25):
            base = rand_mrs(rng, n_lo=3, n_hi=6, name=f"cd{trial}")
            costs = ItemCosts(base.costs.c_hat, (5,) * base.n)
            inst = Instance(costs, base.budgets, base.feasible)
            x = inst.feasible.nominal_solve(inst.costs.c_hat)
            assert (adversarial_selection_dp(inst, x).value
                    == master.solve_bruteforce(inst).value)
