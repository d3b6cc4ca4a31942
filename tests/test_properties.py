"""Property tests: the optimum scales with the costs, ignores item order,
and moves with the budgets in the direction each budget favours."""

from hypothesis import given, settings, strategies as st

from balregret import master
from balregret.core import Budgets, Instance, ItemCosts, MultiRepSelection

SOLVERS = (master.solve_iterative, master.solve_compact_mrs)


@st.composite
def selections(draw) -> Instance:
    """Multi-representative selection with n <= 6 and one or two
    partitions."""
    n = draw(st.integers(2, 6))
    # Every partition holds at least two items and leaves one unpicked, so
    # the adversary always has an alternative.
    cut = draw(st.sampled_from([n, *range(2, n - 1)]))
    parts = [p for p in (range(cut), range(cut, n)) if p]
    quotas = [draw(st.integers(1, len(p) - 1)) for p in parts]
    c = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    d = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    # An attack and a balancing budget below it, so most values are
    # positive rather than zero.
    gamma = draw(st.integers(1, n))
    budgets = Budgets(gamma, draw(st.integers(0, gamma - 1)))
    return Instance(ItemCosts(c, d), budgets, MultiRepSelection(parts, quotas))


PROPERTY = settings(max_examples=80, derandomize=True, deadline=None)


@PROPERTY
@given(selections(), st.integers(2, 1000))
def test_value_scales_with_costs(inst, k):
    scaled = Instance(
        ItemCosts([k * v for v in inst.costs.c_hat],
                  [k * v for v in inst.costs.d]),
        inst.budgets, inst.feasible)
    for solve in SOLVERS:
        assert solve(scaled).value == k * solve(inst).value


@PROPERTY
@given(selections(), st.randoms(use_true_random=False))
def test_value_ignores_item_order(inst, rnd):
    perm = list(range(inst.n))  # item i becomes item perm[i]
    rnd.shuffle(perm)
    c, d = [0] * inst.n, [0] * inst.n
    for i, j in enumerate(perm):
        c[j], d[j] = inst.costs.c_hat[i], inst.costs.d[i]
    f = inst.feasible
    moved = Instance(
        ItemCosts(c, d), inst.budgets,
        MultiRepSelection([[perm[i] for i in p] for p in f.partitions],
                          f.quotas))
    for solve in SOLVERS:
        assert solve(moved).value == solve(inst).value


@PROPERTY
@given(selections())
def test_value_monotone_in_budgets(inst):
    # A larger attack budget can only raise the value; a larger balancing
    # budget can only lower it.
    def value(solve, gamma, gamma_prime):
        return solve(Instance(inst.costs, Budgets(gamma, gamma_prime),
                              inst.feasible)).value

    g, gp = inst.budgets.gamma, inst.budgets.gamma_prime
    for solve in SOLVERS:
        base = value(solve, g, gp)
        if g < inst.n:
            assert value(solve, g + 1, gp) >= base
        assert value(solve, g, gp + 1) <= base
