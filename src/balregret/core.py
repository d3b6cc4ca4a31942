"""Domain types shared by all solvers: instances, budgets, solutions, scenarios.

All types are immutable after construction and all operations are pure, so
shared instances are safe to use concurrently.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union


class InputError(ValueError):
    """Raised on malformed or dimension-mismatched inputs."""


class InfeasibleError(RuntimeError):
    """Raised when a feasible set admits no solution for a request."""


class ScaleError(RuntimeError):
    """Raised when an enumeration guard is exceeded."""


class InternalError(RuntimeError):
    """Raised when a solver invariant fails: a defect, not bad input."""


ENUMERATION_GUARD = 10**6


def _as_int_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    """``values`` as ints; InputError unless it is a sequence of integral
    numbers (bools, strings and fractions are rejected, not truncated)."""
    try:
        items = iter(values)
    except TypeError:
        raise InputError(f"{what} must be a list of integers, "
                         f"got {values!r}") from None
    out = []
    for v in items:
        if type(v) is int:
            out.append(v)
            continue
        try:
            iv = int(v)
        except (TypeError, ValueError, OverflowError):
            iv = None
        if iv is None or isinstance(v, bool) or iv != v:
            raise InputError(f"{what} must be integers, got {v!r}")
        out.append(iv)
    return tuple(out)


def _as_bit_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    """``values`` read by ``_as_int_tuple``; InputError unless each is 0
    or 1."""
    vals = _as_int_tuple(values, what)
    if any(v not in (0, 1) for v in vals):
        raise InputError(f"{what} entries must be 0 or 1")
    return vals


def _as_int(value: int, what: str) -> int:
    return _as_int_tuple((value,), what)[0]


def _as_int_rows(rows: Sequence[Sequence[int]],
                 what: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples of ints, each read by ``_as_int_tuple``."""
    try:
        return tuple(_as_int_tuple(row, what) for row in rows)
    except TypeError:
        raise InputError(f"{what} must be a list of integer lists, "
                         f"got {rows!r}") from None


@dataclass(frozen=True)
class ItemCosts:
    """Per-item nominal cost and worst-case deviation."""

    c_hat: tuple[int, ...]
    d: tuple[int, ...]

    def __init__(self, c_hat: Sequence[int], d: Sequence[int]):
        object.__setattr__(self, "c_hat", _as_int_tuple(c_hat, "c_hat"))
        object.__setattr__(self, "d", _as_int_tuple(d, "d"))
        if len(self.c_hat) != len(self.d):
            raise InputError("c_hat and d must have equal length")
        if not self.c_hat:
            raise InputError("need at least one item")
        if any(v < 0 for v in self.c_hat) or any(v < 0 for v in self.d):
            raise InputError("costs and deviations must be non-negative")

    @property
    def n(self) -> int:
        return len(self.c_hat)

    def worst(self) -> tuple[int, ...]:
        """Nominal-plus-deviation cost of every item."""
        return tuple(c + dv for c, dv in zip(self.c_hat, self.d))

    def top_deviations(self, mask: Sequence[int], k: int) -> list[int]:
        """The up-to-``k`` masked items of largest positive deviation,
        largest first; ties go to the lower index."""
        items = [i for i, m in enumerate(mask) if m and self.d[i] > 0]
        items.sort(key=lambda i: (-self.d[i], i))
        return items[: max(0, k)]

    def break_points(self) -> tuple[int, ...]:
        """Sorted candidate values {0} | {d_i} for the break point of the
        balancing dual."""
        return tuple(sorted({0, *self.d}))


@dataclass(frozen=True)
class Budgets:
    """Attack budgets: ``gamma`` for the adversary, ``gamma_prime`` for the
    balancing stage."""

    gamma: int
    gamma_prime: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _as_int(self.gamma, "gamma"))
        object.__setattr__(self, "gamma_prime",
                           _as_int(self.gamma_prime, "gamma_prime"))

    def validate(self, n: int) -> None:
        if not (0 <= self.gamma <= n):
            raise InputError(f"gamma must be in [0, {n}], got {self.gamma}")
        if not (0 <= self.gamma_prime <= n):
            raise InputError(
                f"gamma_prime must be in [0, {n}], got {self.gamma_prime}"
            )


@dataclass(frozen=True)
class BinarySolution:
    """A 0/1 item vector."""

    x: tuple[int, ...]

    def __init__(self, x: Sequence[int]):
        object.__setattr__(self, "x", _as_bit_tuple(x, "solution"))

    @classmethod
    def from_indices(cls, indices: Sequence[int], n: int) -> "BinarySolution":
        x = [0] * n
        for i in indices:
            x[i] = 1
        return cls(x)

    @property
    def n(self) -> int:
        return len(self.x)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.x) if v)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class Scenario:
    """A 0/1 attack-indicator vector."""

    delta: tuple[int, ...]

    def __init__(self, delta: Sequence[int]):
        object.__setattr__(self, "delta", _as_bit_tuple(delta, "scenario"))

    @classmethod
    def from_indices(cls, indices: Sequence[int], n: int) -> "Scenario":
        d = [0] * n
        for i in indices:
            d[i] = 1
        return cls(d)

    @property
    def n(self) -> int:
        return len(self.delta)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.delta) if v)


@dataclass(frozen=True)
class MultiRepSelection:
    """Pick exactly ``quotas[l]`` items from each partition ``partitions[l]``.

    The partitions must be pairwise disjoint and cover all items.
    """

    partitions: tuple[tuple[int, ...], ...]
    quotas: tuple[int, ...]

    def __init__(
        self, partitions: Sequence[Sequence[int]], quotas: Sequence[int]
    ):
        parts = _as_int_rows(partitions, "partitions")
        qs = _as_int_tuple(quotas, "quotas")
        if len(parts) != len(qs):
            raise InputError("one quota per partition required")
        seen: set[int] = set()
        for p, q in zip(parts, qs):
            if not p:
                raise InputError("empty partition")
            if not (1 <= q <= len(p)):
                raise InputError(f"quota {q} out of range for partition {p}")
            if seen & set(p):
                raise InputError("partitions must be disjoint")
            seen |= set(p)
        n = sum(len(p) for p in parts)
        if seen != set(range(n)):
            raise InputError("partitions must cover 0..n-1 exactly")
        object.__setattr__(self, "partitions", parts)
        object.__setattr__(self, "quotas", qs)

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def is_feasible(self, x: BinarySolution) -> bool:
        _check_dim(x.n, self.n)
        return all(
            sum(x.x[i] for i in part) == q
            for part, q in zip(self.partitions, self.quotas)
        )

    def nominal_solve(self, costs: Sequence[int]) -> BinarySolution:
        _check_dim(len(costs), self.n)
        chosen: list[int] = []
        for part, q in zip(self.partitions, self.quotas):
            ranked = sorted(part, key=lambda i: (costs[i], i))
            chosen.extend(ranked[:q])
        return BinarySolution.from_indices(chosen, self.n)

    def solution_count(self) -> int:
        count = 1
        for part, q in zip(self.partitions, self.quotas):
            count *= math.comb(len(part), q)
        return count

    def enumerate_solutions(self) -> Iterator[BinarySolution]:
        pools = [
            itertools.combinations(part, q)
            for part, q in zip(self.partitions, self.quotas)
        ]
        for combo in itertools.product(*pools):
            idx = [i for group in combo for i in group]
            yield BinarySolution.from_indices(idx, self.n)

    def linear_rows(self) -> list[tuple[dict[int, float], str, float]]:
        """Linear encoding of the feasible set over the n item variables."""
        return [
            ({i: 1.0 for i in part}, "=", float(q))
            for part, q in zip(self.partitions, self.quotas)
        ]


@dataclass(frozen=True)
class Knapsack:
    """All packings with total weight at most ``capacity``.

    Costs are non-negative, so the empty packing makes every first-stage
    knapsack solve worth 0: the family serves as adversary traffic, the
    value of a given packing, only.
    """

    weights: tuple[int, ...]
    capacity: int

    def __init__(self, weights: Sequence[int], capacity: int):
        w = _as_int_tuple(weights, "weights")
        if any(v <= 0 for v in w):
            raise InputError("weights must be positive")
        capacity = _as_int(capacity, "capacity")
        if capacity <= 0:
            raise InputError("capacity must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "capacity", capacity)

    @property
    def n(self) -> int:
        return len(self.weights)

    def is_feasible(self, x: BinarySolution) -> bool:
        _check_dim(x.n, self.n)
        return sum(w * v for w, v in zip(self.weights, x.x)) <= self.capacity

    def nominal_solve(self, costs: Sequence[int]) -> BinarySolution:
        """Minimize total cost subject to the capacity.

        Items with non-negative cost are never worth packing, so only
        negative-cost items enter the capacity DP (maximizing forgone cost).
        On value ties the DP prefers excluding the higher-indexed item.
        """
        _check_dim(len(costs), self.n)
        gains = [(-c, i) for i, c in enumerate(costs) if c < 0]
        if not gains:
            return BinarySolution((0,) * self.n)
        cap = self.capacity
        best = [0] * (cap + 1)
        take = []
        for gain, i in gains:
            w = self.weights[i]
            row = bytearray(cap + 1)
            for c in range(cap, w - 1, -1):
                cand = best[c - w] + gain
                if cand > best[c]:
                    best[c] = cand
                    row[c] = 1
            take.append((i, w, row))
        chosen = []
        c = cap
        for i, w, row in reversed(take):
            if row[c]:
                chosen.append(i)
                c -= w
        return BinarySolution.from_indices(chosen, self.n)

    def solution_count(self) -> int:
        return sum(1 for _ in self.enumerate_solutions())

    def enumerate_solutions(self) -> Iterator[BinarySolution]:
        if self.n > 21:
            raise ScaleError(f"knapsack enumeration with n={self.n} too large")
        for bits in range(1 << self.n):
            x = [(bits >> i) & 1 for i in range(self.n)]
            if sum(w * v for w, v in zip(self.weights, x)) <= self.capacity:
                yield BinarySolution(x)

    def linear_rows(self) -> list[tuple[dict[int, float], str, float]]:
        return [
            (
                {i: float(w) for i, w in enumerate(self.weights)},
                "<=",
                float(self.capacity),
            )
        ]


@dataclass(frozen=True)
class ShortestPath:
    """Edge-indicator vectors of simple source-target paths in a digraph."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    source: int
    target: int

    def __init__(
        self,
        node_count: int,
        edges: Sequence[Sequence[int]],
        source: int,
        target: int,
    ):
        es = _as_int_rows(edges, "edges")
        if any(len(e) != 2 for e in es):
            raise InputError("edges must be [tail, head] pairs")
        nc = _as_int(node_count, "nodes")
        s, t = _as_int(source, "source"), _as_int(target, "target")
        if s == t:
            raise InputError("source and target must differ")
        if not (0 <= s < nc and 0 <= t < nc):
            raise InputError("source or target out of range")
        for tail, head in es:
            if not (0 <= tail < nc and 0 <= head < nc):
                raise InputError("edge endpoint out of range")
        object.__setattr__(self, "node_count", nc)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "source", s)
        object.__setattr__(self, "target", t)
        if self._walk(BinarySolution((1,) * self.n)) is None:
            raise InfeasibleError("target unreachable from source")

    @property
    def n(self) -> int:
        return len(self.edges)

    def _nodes(self) -> list[int]:
        """The nodes that occur in an edge, plus the source and the target,
        in increasing order; ``node_count`` may declare many more."""
        return sorted({self.source, self.target,
                       *itertools.chain.from_iterable(self.edges)})

    def _out_edges(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in self._nodes()}
        for e, (tail, _) in enumerate(self.edges):
            out[tail].append(e)
        return out

    def _walk(self, x: BinarySolution) -> Optional[list[int]]:
        """The first source-target path of a depth-first search over x's
        edges, trying each node's out-edges lowest index first and skipping
        edges into visited nodes; None if x holds no such path."""
        _check_dim(x.n, self.n)
        out: dict[int, list[int]] = {}
        for e in x.indices():
            out.setdefault(self.edges[e][0], []).append(e)
        path: list[int] = []
        seen = {self.source}
        stack = [iter(out.get(self.source, ()))]
        while stack:
            for e in stack[-1]:
                head = self.edges[e][1]
                if head in seen:
                    continue
                path.append(e)
                if head == self.target:
                    return path
                seen.add(head)
                stack.append(iter(out.get(head, ())))
                break
            else:  # every out-edge of this node is tried: backtrack
                stack.pop()
                if path:
                    path.pop()
        return None

    def is_feasible(self, x: BinarySolution) -> bool:
        """True iff x encodes a simple source-target path (no spare cycles)."""
        path = self._walk(x)
        return path is not None and len(path) == sum(x.x)

    def repair(self, x: BinarySolution) -> BinarySolution:
        """The simple source-target path inside x's edge set.

        The flow rows of ``linear_rows`` also admit x plus value-neutral
        cycles; ``_walk`` strips them, wherever they touch the path. x is
        returned as is when it already is a simple path.
        """
        path = self._walk(x)
        if path is None:
            raise InputError("edge set holds no simple source-target path")
        if len(path) == sum(x.x):
            return x
        return BinarySolution.from_indices(path, self.n)

    def _shortest(self, costs: Sequence[float]) -> Optional[list[int]]:
        """Deterministic Dijkstra returning the edge list of a minimum path."""
        out = self._out_edges()
        dist: dict[int, float] = {self.source: 0.0}
        pred: dict[int, int] = {}
        heap: list[tuple[float, int]] = [(0.0, self.source)]
        done: set[int] = set()
        while heap:
            dv, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for e in out[v]:
                _, head = self.edges[e]
                nd = dv + float(costs[e])
                if head not in dist or nd < dist[head] - 1e-12:
                    dist[head] = nd
                    pred[head] = e
                    heapq.heappush(heap, (nd, head))
        if self.target not in dist:
            return None
        path = []
        node = self.target
        while node != self.source:
            e = pred[node]
            path.append(e)
            node = self.edges[e][0]
        return path[::-1]

    def nominal_solve(self, costs: Sequence[int]) -> BinarySolution:
        _check_dim(len(costs), self.n)
        if any(c < 0 for c in costs):
            raise InputError("shortest path requires non-negative costs")
        path = self._shortest(costs)
        if path is None:
            raise InfeasibleError("target unreachable from source")
        return BinarySolution.from_indices(path, self.n)

    def solution_count(self) -> int:
        return sum(1 for _ in self.enumerate_solutions())

    def enumerate_solutions(self) -> Iterator[BinarySolution]:
        out = self._out_edges()
        stack: list[tuple[int, list[int], set[int]]] = [
            (self.source, [], {self.source})
        ]
        while stack:
            node, path, visited = stack.pop()
            if node == self.target:
                yield BinarySolution.from_indices(path, self.n)
                continue
            for e in reversed(out[node]):
                head = self.edges[e][1]
                if head not in visited:
                    stack.append((head, path + [e], visited | {head}))

    def linear_rows(self) -> list[tuple[dict[int, float], str, float]]:
        """Flow-conservation rows; solvers strip value-neutral cycles."""
        coefs: dict[int, dict[int, float]] = {v: {} for v in self._nodes()}
        for e, (tail, head) in enumerate(self.edges):
            coefs[tail][e] = coefs[tail].get(e, 0.0) + 1.0
            coefs[head][e] = coefs[head].get(e, 0.0) - 1.0
        rows = []
        for v, row in coefs.items():
            if v == self.source:
                rhs = 1.0
            elif v == self.target:
                rhs = -1.0
            else:
                rhs = 0.0
            if row or rhs:
                rows.append((row, "=", rhs))
        return rows


FeasibleSet = Union[MultiRepSelection, Knapsack, ShortestPath]


@dataclass(frozen=True)
class Instance:
    """A full problem instance: costs, budgets, and a feasible set."""

    costs: ItemCosts
    budgets: Budgets
    feasible: FeasibleSet
    name: str = ""

    def __post_init__(self) -> None:
        if self.costs.n != self.feasible.n:
            raise InputError("costs and feasible set disagree on n")
        self.budgets.validate(self.costs.n)

    @property
    def n(self) -> int:
        return self.costs.n

    def break_points(self) -> tuple[int, ...]:
        """The break points of the balancing dual that can bind: all of
        ``costs.break_points()``, or only the largest, max d, when
        gamma_prime = 0.  There every ``max(d_i - s, 0)`` is 0, and with no
        ``-gamma_prime * s`` term each point's value is non-decreasing in
        s."""
        points = self.costs.break_points()
        return points if self.budgets.gamma_prime else points[-1:]

    def to_dict(self) -> dict:
        f = self.feasible
        if isinstance(f, MultiRepSelection):
            fs = {
                "type": "multirep_selection",
                "partitions": [list(p) for p in f.partitions],
                "p": list(f.quotas),
            }
        elif isinstance(f, Knapsack):
            fs = {
                "type": "knapsack",
                "weights": list(f.weights),
                "capacity": f.capacity,
            }
        else:
            fs = {
                "type": "shortest_path",
                "nodes": f.node_count,
                "edges": [list(e) for e in f.edges],
                "source": f.source,
                "target": f.target,
            }
        return {
            "name": self.name,
            "c_hat": list(self.costs.c_hat),
            "d": list(self.costs.d),
            "gamma": self.budgets.gamma,
            "gamma_prime": self.budgets.gamma_prime,
            "feasible_set": fs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        """The instance an instance file's JSON object describes.  A missing
        field, or one of the wrong type or value, raises InputError naming
        it."""

        def field(obj, key: str):
            try:
                return obj[key]
            except (KeyError, TypeError):  # TypeError: obj is no JSON object
                raise InputError(f"instance file lacks field {key!r}") from None

        fs = field(data, "feasible_set")
        kind = field(fs, "type")
        feasible: FeasibleSet
        if kind == "multirep_selection":
            feasible = MultiRepSelection(field(fs, "partitions"),
                                         field(fs, "p"))
        elif kind == "knapsack":
            feasible = Knapsack(field(fs, "weights"), field(fs, "capacity"))
        elif kind == "shortest_path":
            feasible = ShortestPath(field(fs, "nodes"), field(fs, "edges"),
                                    field(fs, "source"), field(fs, "target"))
        else:
            raise InputError(f"unknown feasible_set type {kind!r}")
        return cls(
            costs=ItemCosts(field(data, "c_hat"), field(data, "d")),
            budgets=Budgets(field(data, "gamma"), field(data, "gamma_prime")),
            feasible=feasible,
            name=str(data.get("name", "")),
        )


@dataclass(frozen=True)
class AdversaryCertificate:
    """Worst case for a fixed first-stage solution: the adversary's pick
    ``y`` and attack ``delta``, the balancing response ``epsilon``, and the
    attained value."""

    value: int
    y: BinarySolution
    delta: Scenario
    epsilon: Scenario
    optimal: bool = True


def _check_dim(got: int, want: int) -> None:
    if got != want:
        raise InputError(f"dimension mismatch: got {got}, expected {want}")


def _read_solution(f: FeasibleSet, values: Sequence[float]) -> BinarySolution:
    """The 0/1 solution of f that a MILP's values encode, rounded.

    For path sets, value-neutral cycles the flow encoding admits are
    stripped; any other set must accept the rounded values as they are.
    """
    x = BinarySolution([int(round(v)) for v in values])
    if isinstance(f, ShortestPath):
        return f.repair(x)
    if not f.is_feasible(x):
        raise InputError("MILP returned an infeasible solution")
    return x


def nominal_solve(f: FeasibleSet, costs: Sequence[int]) -> BinarySolution:
    """A deterministic minimizer of ``costs @ x`` over the feasible set.

    Ties are broken toward lower item indices.
    """
    return f.nominal_solve(costs)


def enumerate_solutions(f: FeasibleSet) -> list[BinarySolution]:
    """All feasible solutions, guarded against combinatorial blowup."""
    if (isinstance(f, MultiRepSelection)
            and f.solution_count() > ENUMERATION_GUARD):
        raise ScaleError("feasible set too large to enumerate")
    out = []
    for x in f.enumerate_solutions():
        out.append(x)
        if len(out) > ENUMERATION_GUARD:
            raise ScaleError("feasible set too large to enumerate")
    return out
