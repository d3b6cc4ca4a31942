"""Shared fixtures: bundled worked examples and random instance builders."""

import importlib.resources

import pytest

from balregret.core import (
    BinarySolution,
    Budgets,
    FeasibleSet,
    InputError,
    Instance,
    ItemCosts,
    MultiRepSelection,
    ShortestPath,
    enumerate_solutions,
)
from balregret.instances import SplitMix64, load_instance


def _bundled(name: str) -> Instance:
    path = importlib.resources.files("balregret") / "data" / name
    return load_instance(str(path))


@pytest.fixture(scope="session")
def example_one() -> Instance:
    """Five items, pick two, one attack and one balancing raise."""
    return _bundled("example_one.json")


@pytest.fixture(scope="session")
def example_two() -> Instance:
    """Six items, pick three, two attacks and one balancing raise."""
    return _bundled("example_two.json")


def solutions(f: FeasibleSet) -> list[BinarySolution]:
    """Every feasible solution of f, in ``enumerate_solutions`` order."""
    return [BinarySolution.from_indices(p, f.n)
            for p in enumerate_solutions(f)]


def rand_mrs(rng: SplitMix64, n_lo: int = 3, n_hi: int = 6,
             max_parts: int = 2, cost_hi: int = 30, dev_hi: int = 30,
             gamma_hi: int = 3, gp_hi: int = 3,
             name: str = "rand") -> Instance:
    """A random multi-representative selection instance.

    Partitions are contiguous index blocks; every quota is at least one and
    strictly feasible.  Budgets are drawn independently from [0, the caps].
    """
    n = n_lo + rng.randint(0, n_hi - n_lo)
    num_parts = 1 + rng.randint(0, max_parts - 1)
    num_parts = min(num_parts, n)
    cuts = sorted({1 + rng.randint(0, n - 2) for _ in range(num_parts - 1)}
                  if n >= 2 else set())
    bounds = [0, *cuts, n]
    parts = [tuple(range(bounds[k], bounds[k + 1]))
             for k in range(len(bounds) - 1)]
    quotas = tuple(1 + rng.randint(0, len(p) - 1) for p in parts)
    c = tuple(rng.randint(0, cost_hi) for _ in range(n))
    d = tuple(rng.randint(0, dev_hi) for _ in range(n))
    gamma = rng.randint(0, min(gamma_hi, n))
    gp = rng.randint(0, min(gp_hi, n))
    return Instance(ItemCosts(c, d), Budgets(gamma, gp),
                    MultiRepSelection(parts, quotas), name=name)


def layered_graph(rng: SplitMix64) -> ShortestPath:
    """An s-t graph of 3-4 layers of width 3: every arc from s and into t,
    and each arc between adjacent layers with probability 2/3, the first
    30 arcs kept.  The constructor rejects some draws."""
    layers, width = 3 + rng.randint(0, 1), 3
    nodes = 2 + layers * width
    edges = [(0, 1 + w) for w in range(width)]
    for layer in range(layers - 1):
        for w1 in range(width):
            for w2 in range(width):
                if rng.randint(0, 2):
                    edges.append((1 + layer * width + w1,
                                  1 + (layer + 1) * width + w2))
    edges.extend((1 + (layers - 1) * width + w, nodes - 1)
                 for w in range(width))
    return ShortestPath(nodes, edges[:30], 0, nodes - 1)


def layered_instances(rng: SplitMix64, count: int,
                      first: int = 0) -> list[Instance]:
    """``count`` instances on ``layered_graph`` draws, rejected draws
    skipped: costs in 1..50, deviations in 0..40, and the k-th instance,
    counted from ``first``, at budgets (1 + k % 3, k % 4)."""
    instances: list[Instance] = []
    while len(instances) < count:
        try:
            f = layered_graph(rng)
        except InputError:
            continue
        k = first + len(instances)
        instances.append(Instance(
            ItemCosts(tuple(rng.randint(1, 50) for _ in range(f.n)),
                      tuple(rng.randint(0, 40) for _ in range(f.n))),
            Budgets(1 + k % 3, k % 4), f, name=f"layered{k}"))
    return instances
