"""Generators, reductions, serialization, and CSV graph ingestion."""

import json

import pytest

from balregret.core import (
    InputError,
    Instance,
    Knapsack,
    MultiRepSelection,
    ShortestPath,
)
from balregret.instances import (
    SplitMix64,
    build_equipartition_reduction,
    build_partition_reduction,
    gen_knapsack,
    gen_selection,
    ingest_graph,
    load_instance,
    save_instance,
)


class TestSplitMix64:
    def test_known_stream(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_randint_bounds_and_determinism(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        draws = [a.randint(5, 17) for _ in range(500)]
        assert draws == [b.randint(5, 17) for _ in range(500)]
        assert min(draws) >= 5 and max(draws) <= 17
        assert len(set(draws)) == 13  # all values hit at this sample size

    def test_seed_changes_stream(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


class TestGenerators:
    def test_selection_shape(self):
        inst = gen_selection(10, 7, gamma=3, gamma_prime=2)
        assert isinstance(inst.feasible, MultiRepSelection)
        assert inst.feasible.quotas == (5,)
        assert inst.budgets.gamma == 3 and inst.budgets.gamma_prime == 2
        assert all(1 <= ci <= 100 for ci in inst.costs.c_hat)
        assert all(0 <= di <= 99 for di in inst.costs.d)
        assert inst.name == "selection-n10-seed7"

    def test_selection_deterministic(self):
        assert gen_selection(8, 3) == gen_selection(8, 3)
        assert gen_selection(8, 3) != gen_selection(8, 4)

    def test_knapsack_shape(self):
        inst = gen_knapsack(9, 11)
        f = inst.feasible
        assert isinstance(f, Knapsack)
        assert f.capacity == sum(f.weights) // 2
        assert gen_knapsack(9, 11, capacity=30).feasible.capacity == 30


class TestReductions:
    def test_spec_validation(self):
        with pytest.raises(InputError):
            build_partition_reduction((1, 0))
        with pytest.raises(InputError):
            build_equipartition_reduction((2, -1))

    def test_equipartition_layout(self):
        inst, threshold = build_equipartition_reduction((1, 1, 1, 1))
        n = 4
        assert inst.n == 3 * n + 4
        assert inst.feasible.quotas == (n // 2 + 1,)
        assert inst.budgets.gamma == n // 2 + 1
        assert inst.budgets.gamma_prime == 1
        assert threshold == (2 * n - 3) * 4
        assert inst.costs.c_hat[:4] == (4, 4, 4, 4)
        assert all(v >= 0 for v in inst.costs.d)

    def test_equipartition_rejects_odd_count(self):
        with pytest.raises(InputError):
            build_equipartition_reduction((1, 2, 3))

    def test_partition_layout(self):
        inst, threshold = build_partition_reduction((1, 1, 2, 2))
        n, total = 4, 6
        assert inst.n == 4 * n
        assert inst.feasible.quotas == (1,) * n
        assert inst.budgets.gamma == n
        assert threshold == (2 * n - 2) * total - 3 * 2

    def test_partition_pads_dominant_weight(self):
        inst, _ = build_partition_reduction((5, 1))
        # 3 * 5 > 6, so two padding weights of 6 are appended
        assert inst.n == 4 * 4


class TestSerialization:
    @pytest.mark.parametrize("build", [
        lambda: gen_selection(6, 2, gamma=2, gamma_prime=1),
        lambda: gen_knapsack(5, 4),
    ])
    def test_roundtrip(self, tmp_path, build):
        inst = build()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst
        # byte-identical re-save
        text = path.read_text()
        save_instance(load_instance(path), path)
        assert path.read_text() == text

    def test_shortest_path_roundtrip(self, tmp_path):
        from balregret.core import Budgets, ItemCosts

        f = ShortestPath(3, [(0, 1), (1, 2), (0, 2)], 0, 2)
        inst = Instance(ItemCosts((1, 2, 3), (1, 0, 2)), Budgets(1, 1), f,
                        name="tri")
        path = tmp_path / "tri.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_bad_file_rejected(self, tmp_path):
        selection = gen_selection(6, 2).to_dict()
        knapsack = gen_knapsack(5, 4).to_dict()
        path = {**selection, "c_hat": [1, 1], "d": [1, 1], "gamma": 1,
                "feasible_set": {"type": "shortest_path", "nodes": 3,
                                 "edges": [[0, 1], [1, 2]], "source": 0,
                                 "target": 2}}

        def edit(data, key, value, fs=False):
            data = json.loads(json.dumps(data))
            target = data["feasible_set"] if fs else data
            if value is None:
                del target[key]
            else:
                target[key] = value
            return json.dumps(data)

        # Bad JSON, a missing key, a mistyped value, a top-level list, a
        # short edge, and non-integers that int() would truncate.
        texts = [
            "{nope",
            edit(selection, "gamma", None),
            edit(selection, "gamma", "two"),
            json.dumps([selection]),
            edit(path, "edges", [[0, 1], [1]], fs=True),
            edit(selection, "gamma", 1.5),
            edit(selection, "p", [1.5], fs=True),
            edit({**selection, "c_hat": [1, 2], "d": [0, 0]},
                 "feasible_set", {"type": "multirep_selection",
                                  "partitions": [[0.0, 1.9]], "p": [1]}),
            edit(knapsack, "capacity", 2.7, fs=True),
            edit(selection, "partitions", 5, fs=True),
            edit(selection, "feasible_set", [1, 2]),
        ]
        for text in texts:
            broken = tmp_path / "broken.json"
            broken.write_text(text)
            with pytest.raises(InputError):
                load_instance(broken)


class TestIngestGraph:
    def _write(self, tmp_path, edge_rows, pair_rows):
        edges = tmp_path / "edges.csv"
        pairs = tmp_path / "pairs.csv"
        edges.write_text("\n".join(",".join(map(str, r)) for r in edge_rows)
                         + "\n")
        pairs.write_text("\n".join(",".join(map(str, r)) for r in pair_rows)
                         + "\n")
        return edges, pairs

    def test_percentile_costs(self, tmp_path):
        scenarios = list(range(1, 11))  #10th pct -> 1, 90th pct -> 9
        edges, pairs = self._write(
            tmp_path,
            [["e0", "a", "b", *scenarios]],
            [["a", "b"]],
        )
        batch = ingest_graph(edges, pairs)
        assert len(batch) == 1
        inst = batch[0]
        assert inst.costs.c_hat == (1,)
        assert inst.costs.d == (8,)
        assert inst.name == "path-a-b"

    def test_header_and_unreachable_pairs(self, tmp_path):
        scenarios = [5.4] * 10
        edges, pairs = self._write(
            tmp_path,
            [["edge", "tail", "head", *(["s"] * 9 + ["scenario"])],
             ["e0", "a", "b", *scenarios]],
            [["source", "target"], ["b", "a"], ["a", "zzz"], ["a", "b"]],
        )
        batch = ingest_graph(edges, pairs)
        assert [inst.name for inst in batch] == ["path-a-b"]
        assert batch[0].costs.c_hat == (5,)

    def test_short_rows_rejected(self, tmp_path):
        edges, pairs = self._write(tmp_path, [["e0", "a", "b", 1, 2]],
                                   [["a", "b"]])
        with pytest.raises(InputError):
            ingest_graph(edges, pairs)
