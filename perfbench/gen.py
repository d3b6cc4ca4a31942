"""Seeded instance generators for the benchmark workloads.

The library generates single-partition selection and knapsack instances.
This module adds what it lacks, drawn from the same SplitMix64 stream:
multi-partition selection, layered s-t graphs, scaled costs and seeded
renumbering of items.
"""

from __future__ import annotations

from balregret.core import (
    BinarySolution,
    Budgets,
    InfeasibleError,
    Instance,
    ItemCosts,
    Knapsack,
    MultiRepSelection,
    ShortestPath,
)
from balregret.instances import SplitMix64


def draw_seed(rng: SplitMix64) -> int:
    """A generator seed for one instance."""
    return rng.randint(0, 2**31 - 1)


def shuffle(rng: SplitMix64, items: list) -> list:
    """Fisher-Yates shuffle driven by ``rng``."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randint(0, i)
        out[i], out[j] = out[j], out[i]
    return out


def gen_multi_selection(n: int, parts: int, seed: int, *, gamma: int,
                        gamma_prime: int) -> Instance:
    """Selection with ``parts`` contiguous blocks, each picking half of its
    items (at least one).  Costs are drawn as in ``gen_selection``: nominal
    costs uniform on {1..100}, then deviations uniform on {0..99}."""
    rng = SplitMix64(seed)
    bounds = [round(k * n / parts) for k in range(parts + 1)]
    blocks = [tuple(range(bounds[k], bounds[k + 1])) for k in range(parts)]
    quotas = tuple(max(1, len(b) // 2) for b in blocks)
    c = tuple(rng.randint(1, 100) for _ in range(n))
    d = tuple(rng.randint(0, 99) for _ in range(n))
    return Instance(ItemCosts(c, d), Budgets(gamma, gamma_prime),
                    MultiRepSelection(blocks, quotas),
                    name=f"selection-n{n}-p{parts}-seed{seed}")


def gen_layered_path(seed: int, *, gamma: int = 2,
                     gamma_prime: int = 1) -> Instance:
    """Shortest path through 3 layers of width 3; each arc between
    consecutive layers is kept with probability 2/3, capped at 30 arcs.
    Draws with fewer than 18 arcs or an unreachable target are redrawn
    from the same stream, so the result depends on the seed alone."""
    rng = SplitMix64(seed)
    while True:
        layers, width = 3, 3
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
        edges = edges[:30]
        if len(edges) < 18:
            continue
        try:
            feas = ShortestPath(nodes, edges, 0, nodes - 1)
        except InfeasibleError:
            continue
        m = feas.n
        c = tuple(rng.randint(1, 50) for _ in range(m))
        d = tuple(rng.randint(0, 40) for _ in range(m))
        return Instance(ItemCosts(c, d), Budgets(gamma, gamma_prime), feas,
                        name=f"layered-m{m}-seed{seed}")


def scaled(inst: Instance, factor: int) -> Instance:
    """The same instance with every cost multiplied by ``factor``."""
    costs = ItemCosts(tuple(v * factor for v in inst.costs.c_hat),
                      tuple(v * factor for v in inst.costs.d))
    return Instance(costs, inst.budgets, inst.feasible,
                    name=f"{inst.name}-x{factor}")


def relabel(rng: SplitMix64, inst: Instance,
            solutions: tuple[BinarySolution, ...] = ()
            ) -> tuple[Instance, list[BinarySolution]]:
    """The same instance, and solutions of it, with the items (arcs, for
    paths) renumbered by a seeded permutation.  Values are unchanged;
    index-order tie-breaking in the solvers, and so the search they run,
    is not."""
    n = inst.n
    perm = shuffle(rng, list(range(n)))  # old index i becomes perm[i]
    c, d = [0] * n, [0] * n
    for i in range(n):
        c[perm[i]], d[perm[i]] = inst.costs.c_hat[i], inst.costs.d[i]
    f = inst.feasible
    if isinstance(f, MultiRepSelection):
        feas = MultiRepSelection(
            [sorted(perm[i] for i in part) for part in f.partitions], f.quotas)
    elif isinstance(f, ShortestPath):
        edges = [None] * n
        for e in range(n):
            edges[perm[e]] = f.edges[e]
        feas = ShortestPath(f.node_count, edges, f.source, f.target)
    else:
        weights = [0] * n
        for i in range(n):
            weights[perm[i]] = f.weights[i]
        feas = Knapsack(weights, f.capacity)
    moved = []
    for x in solutions:
        bits = [0] * n
        for i in range(n):
            bits[perm[i]] = x.x[i]
        moved.append(BinarySolution(bits))
    return (Instance(ItemCosts(tuple(c), tuple(d)), inst.budgets, feas,
                     name=inst.name), moved)
