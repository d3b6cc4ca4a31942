"""Instance generation and I/O.

Random selection and knapsack families, the two hardness-reduction
builders, JSON save/load, and CSV graph ingestion for shortest-path
instances.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from typing import Sequence
from pathlib import Path

from .core import (
    Budgets,
    InfeasibleError,
    InputError,
    Instance,
    ItemCosts,
    Knapsack,
    MultiRepSelection,
    ShortestPath,
)

log = logging.getLogger(__name__)

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator used for all random instances.

    State advances by the golden-ratio increment 0x9E3779B97F4A7C15; each
    output mixes the state with two xor-shift-multiply rounds (constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31).  Bounded
    draws use rejection sampling on the top multiple of the range, so every
    value is exactly equally likely and the stream is platform independent.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        if hi < lo:
            raise InputError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            v = self.next_u64()
            if v < limit:
                return lo + v % span


def gen_selection(n: int, seed: int, *, gamma: int = 2,
                  gamma_prime: int = 1) -> Instance:
    """Random selection instance: choose p = n//2 of n items, nominal costs
    uniform on {1..100} and deviations uniform on {0..99}.

    Draw order is all nominal costs, then all deviations, one call each.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    rng = SplitMix64(seed)
    c = tuple(rng.randint(1, 100) for _ in range(n))
    d = tuple(rng.randint(0, 99) for _ in range(n))
    return Instance(
        costs=ItemCosts(c, d),
        budgets=Budgets(gamma, gamma_prime),
        feasible=MultiRepSelection((tuple(range(n)),), (n // 2,)),
        name=f"selection-n{n}-seed{seed}",
    )


def gen_knapsack(n: int, seed: int, *, gamma: int = 2, gamma_prime: int = 1,
                 capacity: int | None = None) -> Instance:
    """Almost strongly correlated knapsack instance.

    With R = 1000: weights uniform {1..R}; per item a profit anchor p_i
    uniform {w_i + R/10 - R/500 .. w_i + R/10 + R/500}, nominal cost
    uniform {ceil(0.8 p_i) .. p_i} and deviation uniform
    {p_i - c_i .. ceil(1.2 p_i) - c_i}.  Draw order is all weights, then
    (anchor, cost, deviation) per item.  Capacity defaults to half the
    total weight.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    rng = SplitMix64(seed)
    r_bar = 1000
    w = tuple(rng.randint(1, r_bar) for _ in range(n))
    c, d = [], []
    for i in range(n):
        p = rng.randint(w[i] + r_bar // 10 - r_bar // 500,
                        w[i] + r_bar // 10 + r_bar // 500)
        ci = rng.randint(math.ceil(0.8 * p), p)
        c.append(ci)
        d.append(rng.randint(p - ci, math.ceil(1.2 * p) - ci))
    if capacity is None:
        capacity = sum(w) // 2
    return Instance(
        costs=ItemCosts(tuple(c), tuple(d)),
        budgets=Budgets(gamma, gamma_prime),
        feasible=Knapsack(w, capacity),
        name=f"knapsack-n{n}-seed{seed}",
    )


def _positive_weights(weights: Sequence[int]) -> tuple[int, ...]:
    if not weights or any(int(a) <= 0 for a in weights):
        raise InputError("weights must be positive integers")
    return tuple(int(a) for a in weights)


def build_equipartition_reduction(
    weights: Sequence[int],
) -> tuple[Instance, int]:
    """Selection instance whose optimum hits the returned threshold exactly
    when the weights split into two equal-sum halves of equal cardinality.

    All costs are scaled by 4 to stay integral; the threshold (2n-3)A is
    already in the scaled units.
    """
    a = _positive_weights(weights)
    n = len(a)
    if n % 2:
        raise InputError("equipartition requires an even number of weights")
    A = sum(a)
    c = list(4 * ai for ai in a) + [0] * (2 * n + 2) + [0, 0]
    d = (
        [4 * A - 6 * ai for ai in a]
        + [6 * A - 1] * (2 * n + 2)
        + [4 * A - 1] * 2
    )
    if any(v < 0 for v in d):
        raise InputError("weight vector yields a negative deviation")
    m = 3 * n + 4
    inst = Instance(
        costs=ItemCosts(tuple(c), tuple(d)),
        budgets=Budgets(n // 2 + 1, 1),
        feasible=MultiRepSelection((tuple(range(m)),), (n // 2 + 1,)),
        name=f"equipartition-n{n}-x4",
    )
    return inst, (2 * n - 3) * A


def build_partition_reduction(weights: Sequence[int]) -> tuple[Instance, int]:
    """Representative selection instance (one pick per 4-item partition)
    whose optimum hits the returned threshold exactly when the weights
    split into two equal-sum halves.

    Weight vectors with one dominant weight are first padded with two
    items of the old total so that max(a) <= sum(a)/3 holds.
    """
    a = list(_positive_weights(weights))
    if 3 * max(a) > sum(a):
        a = a + [sum(a), sum(a)]
    n = len(a)
    A = sum(a)
    a_max = max(a)
    c: list[int] = []
    d: list[int] = []
    parts: list[tuple[int, ...]] = []
    for i, ai in enumerate(a):
        c.extend((A + 2 * ai, 0, 0, A - 2 * ai))
        d.extend((2 * A - 3 * ai, (n + 2) * A + 3 * a_max,
                  (n + 2) * A + 3 * a_max, 2 * A + 3 * ai))
        parts.append((4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3))
    inst = Instance(
        costs=ItemCosts(tuple(c), tuple(d)),
        budgets=Budgets(n, 1),
        feasible=MultiRepSelection(tuple(parts), (1,) * n),
        name=f"partition-n{n}",
    )
    return inst, (2 * n - 2) * A - 3 * a_max


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(inst.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def load_instance(path: str | Path) -> Instance:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    return Instance.from_dict(data)


def _nearest_rank(sorted_vals: list[float], q: float) -> float:
    """Value at the 1-based rank ceil(q*m) of the sorted sample."""
    m = len(sorted_vals)
    return sorted_vals[max(math.ceil(q * m), 1) - 1]


def _round(v: float) -> int:
    return math.floor(v + 0.5)


def ingest_graph(edges_path: str | Path,
                 pairs_path: str | Path) -> list[Instance]:
    """Shortest-path instances from scenario travel times.

    The edge CSV holds edge_id, tail, head and at least ten scenario
    columns; per edge the nominal cost is the 10th percentile of the
    scenarios and the deviation spans up to the 90th (nearest-rank,
    rounded).  The pairs CSV holds source,target rows; unreachable pairs
    are skipped with a warning.  Budgets default to 0 and are set by the
    caller.
    """
    edges_rows = _read_csv(edges_path)
    pairs_rows = _read_csv(pairs_path, header_tokens=("source", "target"))

    labels: set[str] = set()
    arcs: list[tuple[str, str]] = []
    c: list[int] = []
    d: list[int] = []
    for row in edges_rows:
        if len(row) < 13:
            raise InputError("edge rows need id, tail, head and 10+ scenarios")
        _, tail, head = row[0], row[1], row[2]
        try:
            vals = sorted(float(v) for v in row[3:])
        except ValueError as exc:
            raise InputError(f"non-numeric scenario value: {exc}") from exc
        labels.update((tail, head))
        arcs.append((tail, head))
        lo = _round(_nearest_rank(vals, 0.1))
        hi = _round(_nearest_rank(vals, 0.9))
        c.append(lo)
        d.append(hi - lo)

    index = {lab: i for i, lab in enumerate(sorted(labels))}
    edge_list = [(index[t], index[h]) for t, h in arcs]

    out: list[Instance] = []
    for row in pairs_rows:
        if len(row) != 2:
            raise InputError("pair rows must be source,target")
        s, t = row
        if s not in index or t not in index:
            log.warning("pair (%s, %s) references unknown nodes; skipped", s, t)
            continue
        try:
            feas = ShortestPath(len(index), edge_list, index[s], index[t])
        except (InputError, InfeasibleError) as exc:
            log.warning("pair (%s, %s) skipped: %s", s, t, exc)
            continue
        out.append(Instance(
            costs=ItemCosts(tuple(c), tuple(d)),
            budgets=Budgets(0, 0),
            feasible=feas,
            name=f"path-{s}-{t}",
        ))
    return out


def _read_csv(path: str | Path,
              header_tokens: tuple[str, ...] | None = None) -> list[list[str]]:
    """Rows of a CSV file with an optional header stripped.

    Data rows ending in a number (the edges file) drop any first row that
    does not; label-only files instead name their expected header tokens.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        return rows
    if header_tokens is not None:
        head = tuple(v.strip().lower() for v in rows[0])
        if head == header_tokens:
            rows = rows[1:]
    elif rows[0] and not _numeric_tail(rows[0]):
        rows = rows[1:]
    return rows


def _numeric_tail(row: list[str]) -> bool:
    try:
        float(row[-1])
    except ValueError:
        return False
    return True
