"""Domain types: validation, feasibility, enumeration, nominal solves."""

import itertools

import numpy as np
import pytest

from balregret.core import (
    BinarySolution,
    Budgets,
    InfeasibleError,
    InputError,
    Instance,
    ItemCosts,
    Knapsack,
    MultiRepSelection,
    ScaleError,
    Scenario,
    ShortestPath,
    enumerate_solutions,
    nominal_solve,
    _read_solution,
)
from balregret.instances import gen_selection


class TestItemCosts:
    def test_lengths_must_match(self):
        with pytest.raises(InputError):
            ItemCosts((1, 2), (1,))

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            ItemCosts((1, -2), (0, 0))
        with pytest.raises(InputError):
            ItemCosts((1, 2), (0, -1))

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            ItemCosts((1.5, 2), (0, 0))

    def test_worst(self):
        assert ItemCosts((8, 5), (9, 14)).worst() == (17, 19)

    def test_top_deviations(self):
        costs = ItemCosts((0,) * 6, (5, 9, 0, 9, 5, 7))
        every = (1,) * 6
        # ties go to the lower index; the zero deviation never enters
        assert costs.top_deviations(every, 5) == [1, 3, 5, 0, 4]
        # unmasked items are skipped even when their deviation is larger
        assert costs.top_deviations((1, 0, 1, 0, 1, 1), 2) == [5, 0]
        assert costs.top_deviations(every, 0) == []
        # k beyond the mask returns the whole (positive) mask
        assert costs.top_deviations((0, 0, 1, 1, 1, 0), 6) == [3, 4]


class TestBinarySolution:
    def test_from_indices(self):
        x = BinarySolution.from_indices([0, 2], 5)
        assert x.x == (1, 0, 1, 0, 0)
        assert x.indices() == (0, 2)

    def test_non_binary_rejected(self):
        with pytest.raises(InputError):
            BinarySolution((0, 2))

    @pytest.mark.parametrize("kind", [BinarySolution, Scenario])
    def test_non_integral_rejected_not_truncated(self, kind):
        for bad in ([0.7, 1], [1.5, 0], [1, "1"], [0, None]):
            with pytest.raises(InputError):
                kind(bad)
        assert kind([1.0, 0.0]) == kind([1, 0])
        assert kind(np.array([0, 1], dtype=np.int64)) == kind([0, 1])
        assert kind([np.int32(1), np.uint8(0)]) == kind([1, 0])


class TestBudgets:
    def test_range_checked(self):
        Budgets(0, 3).validate(3)
        with pytest.raises(InputError):
            Budgets(-1, 0).validate(3)
        with pytest.raises(InputError):
            Budgets(0, 4).validate(3)


class TestMultiRepSelection:
    def test_partitions_must_cover(self):
        with pytest.raises(InputError):
            MultiRepSelection([(0, 1), (3,)], (1, 1))

    def test_partitions_must_be_disjoint(self):
        with pytest.raises(InputError):
            MultiRepSelection([(0, 1), (1, 2)], (1, 1))

    def test_quota_in_range(self):
        with pytest.raises(InputError):
            MultiRepSelection([(0, 1)], (3,))
        with pytest.raises(InputError):
            MultiRepSelection([(0, 1)], (0,))

    def test_feasibility_and_count(self):
        f = MultiRepSelection([(0, 1, 2), (3, 4)], (2, 1))
        assert f.solution_count() == 6
        sols = list(f.enumerate_solutions())
        assert len(sols) == 6
        assert len(set(sols)) == 6
        assert all(f.is_feasible(x) for x in sols)
        assert not f.is_feasible(BinarySolution((1, 1, 1, 0, 0)))

    def test_nominal_solve_matches_enumeration(self):
        f = MultiRepSelection([(0, 1, 2, 3), (4, 5)], (2, 1))
        costs = [7, 3, 9, 3, 5, 5]
        x = f.nominal_solve(costs)
        best = min(sum(costs[i] for i in y.indices())
                   for y in f.enumerate_solutions())
        assert sum(costs[i] for i in x.indices()) == best
        # ties break toward the lower index
        assert x.indices() == (1, 3, 4)


class TestKnapsack:
    def test_weights_positive(self):
        with pytest.raises(InputError):
            Knapsack((0, 2), 3)

    def test_enumeration_respects_capacity(self):
        f = Knapsack((3, 4, 5), 7)
        sols = list(f.enumerate_solutions())
        assert all(f.is_feasible(x) for x in sols)
        assert len(sols) == f.solution_count()
        weights = {x.indices() for x in sols}
        assert (0, 1) in weights and (1, 2) not in weights

    def test_nominal_solve_vs_bruteforce(self):
        f = Knapsack((2, 3, 4, 5, 7), 9)
        for costs in itertools.product((-4, -1, 0, 2), repeat=5):
            x = f.nominal_solve(list(costs))
            assert f.is_feasible(x)
            best = min(sum(c * v for c, v in zip(costs, y.x))
                       for y in f.enumerate_solutions())
            assert sum(c * v for c, v in zip(costs, x.x)) == best


def diamond_graph() -> ShortestPath:
    #      1
    #    /   \
    #  0       3
    #    \   /
    #      2
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]
    return ShortestPath(4, edges, 0, 3)


class TestShortestPath:
    def test_unreachable_target_rejected(self):
        with pytest.raises(InfeasibleError):
            ShortestPath(3, [(0, 1)], 0, 2)

    def test_source_and_target_must_be_nodes(self):
        for s, t in ((0, 3), (-1, 1), (3, 0)):
            with pytest.raises(InputError):
                ShortestPath(3, [(0, 1), (1, 2)], s, t)

    def test_declared_nodes_are_not_allocated(self):
        # Only the nodes of edges, the source and the target get rows; a
        # list per declared node would need tens of GB here.
        f = ShortestPath(10**9, [(0, 5), (5, 999_999_999)], 0, 999_999_999)
        assert [rhs for _, _, rhs in f.linear_rows()] == [1.0, 0.0, -1.0]
        assert [x.indices() for x in f.enumerate_solutions()] == [(0, 1)]
        assert f.nominal_solve((1, 1)).indices() == (0, 1)

    def test_enumeration(self):
        f = diamond_graph()
        sols = {x.indices() for x in f.enumerate_solutions()}
        assert sols == {(0, 2), (1, 3), (0, 3, 4)}

    def test_is_feasible_rejects_cycles_and_fragments(self):
        f = diamond_graph()
        assert not f.is_feasible(BinarySolution((1, 0, 0, 0, 0)))
        assert not f.is_feasible(BinarySolution((1, 1, 1, 1, 0)))

    def test_repair_strips_disjoint_zero_cost_cycle(self):
        # s=0 -> 1 -> t=2, plus the 2-cycle 3 <-> 4 that no path touches;
        # the flow rows admit the path with the cycle added at no cost.
        f = ShortestPath(5, [(0, 1), (3, 4), (1, 2), (4, 3), (0, 2)], 0, 2)
        with_cycle = BinarySolution((1, 1, 1, 1, 0))
        for coefs, _, rhs in f.linear_rows():
            assert sum(a * with_cycle.x[e] for e, a in coefs.items()) == rhs
        assert not f.is_feasible(with_cycle)
        assert f.repair(with_cycle).indices() == (0, 2)
        path = BinarySolution((0, 0, 0, 0, 1))
        assert f.repair(path) is path
        with pytest.raises(InputError):
            f.repair(BinarySolution((0, 1, 0, 1, 0)))

    @pytest.mark.parametrize("edges", [
        # parallel 0->1, self-loop at 1, cycle 1 <-> 2, an arc out of t=3
        [(0, 1), (0, 1), (1, 1), (1, 2), (2, 1), (2, 3), (1, 3), (3, 2)],
        # cycle back into s=0, self-loop at 2, parallel arcs into t=3
        [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (0, 2), (2, 3)],
    ])
    def test_feasibility_and_repair_on_every_edge_subset(self, edges):
        f = ShortestPath(4, edges, 0, 3)
        paths = {x.x for x in f.enumerate_solutions()}

        def order(bits):  # a simple path's edges from the source on
            succ = {edges[e][0]: e for e in BinarySolution(bits).indices()}
            seq, node = [], 0
            while node != 3:
                seq.append(succ[node])
                node = edges[succ[node]][1]
            return seq

        for bits in itertools.product((0, 1), repeat=f.n):
            x = BinarySolution(bits)
            chosen = set(x.indices())
            assert f.is_feasible(x) == (bits in paths)
            if bits in paths:
                assert f.repair(x) is x
                continue
            inside = [order(p) for p in paths
                      if set(BinarySolution(p).indices()) <= chosen]
            if not inside:
                with pytest.raises(InputError):
                    f.repair(x)
                continue
            # Depth-first, lowest-indexed out-edge first, the search meets
            # the lexicographically first of the simple paths inside x.
            assert order(f.repair(x).x) == min(inside)

    def test_repair_keeps_path_beside_cycle_leaving_by_lower_edge(self):
        # The chosen cycle 1 -> 3 -> 1 leaves node 1 by edge 1, below the
        # path's edge 3 out of node 1; the path 0 -> 1 -> 2 is still found.
        f = ShortestPath(4, [(0, 1), (1, 3), (3, 1), (1, 2)], 0, 2)
        assert _read_solution(f, [1, 1, 1, 1]).indices() == (0, 3)

    def test_nominal_solve(self):
        f = diamond_graph()
        x = f.nominal_solve([1, 10, 1, 10, 1])
        assert x.indices() == (0, 2)
        assert f.nominal_solve([9, 1, 9, 1, 9]).indices() == (1, 3)


class TestInstance:
    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            Instance(ItemCosts((1,), (0,)), Budgets(0, 0),
                     MultiRepSelection([(0, 1)], (1,)))

    def test_budget_validation_runs(self):
        with pytest.raises(InputError):
            Instance(ItemCosts((1, 2), (0, 0)), Budgets(3, 0),
                     MultiRepSelection([(0, 1)], (1,)))

    def test_dispatch_helpers(self, example_one):
        f = example_one.feasible
        xs = enumerate_solutions(f)
        assert len(xs) == f.solution_count() == 10
        assert all(f.is_feasible(x) for x in xs)
        x = nominal_solve(f, example_one.costs.c_hat)
        assert x.indices() == (1, 2)

    def test_enumeration_guards(self, monkeypatch):
        # C(24, 12) = 2.7e6 selections exceed the guard of 10^6: the count
        # alone refuses them, before any solution is built.
        f = gen_selection(24, 1).feasible
        assert f.solution_count() > 10**6
        monkeypatch.setattr(MultiRepSelection, "enumerate_solutions",
                            lambda self: pytest.fail("enumerated"))
        with pytest.raises(ScaleError):
            enumerate_solutions(f)
        # 2^22 bit vectors are too many to filter by capacity.
        with pytest.raises(ScaleError):
            enumerate_solutions(Knapsack((1,) * 22, 5))


class TestScenario:
    def test_empty(self):
        s = Scenario((0,) * 4)
        assert s.indices() == () and s.n == 4

    def test_indices_roundtrip(self):
        s = Scenario.from_indices([1, 3], 4)
        assert s.indices() == (1, 3)
