"""End-to-end command-line runs against temporary files."""

import json
import logging

import pytest

from balregret import cli, master
from balregret.cli import main
from balregret.core import InternalError
from balregret.instances import load_instance, save_instance, gen_selection


def _error_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]


@pytest.fixture()
def example_one_file(tmp_path, example_one):
    path = tmp_path / "example_one.json"
    save_instance(example_one, path)
    return str(path)


@pytest.fixture()
def example_two_file(tmp_path, example_two):
    path = tmp_path / "example_two.json"
    save_instance(example_two, path)
    return str(path)


class TestGenerate:
    def test_selection(self, tmp_path):
        out = tmp_path / "sel.json"
        code = main(["generate", "--family", "selection", "--n", "8",
                     "--seed", "3", "--gamma", "2", "--gamma-prime", "1",
                     "--out", str(out)])
        assert code == 0
        assert load_instance(out) == gen_selection(8, 3, gamma=2,
                                                   gamma_prime=1)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["generate", "--family", "knapsack", "--n", "6", "--seed",
                "9", "--out", ""]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args[:-1] + [str(out1)]) == 0
        assert main(args[:-1] + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_capacity_rule(self, tmp_path, caplog):
        out = tmp_path / "k.json"
        assert main(["generate", "--family", "knapsack", "--n", "5",
                     "--seed", "1", "--capacity-rule", "value:12",
                     "--out", str(out)]) == 0
        assert load_instance(out).feasible.capacity == 12
        # A malformed rule exits 1 with one ERROR line, not a traceback.
        for rule in ("third", "value:abc", "value:"):
            caplog.clear()
            assert main(["generate", "--family", "knapsack", "--n", "5",
                         "--seed", "1", "--capacity-rule", rule,
                         "--out", str(out)]) == 1
            assert _error_lines(caplog) == [
                "usage: capacity rule must be half or value:C"]

    def test_reduction_families(self, tmp_path):
        for family in ("equipartition", "partition"):
            out = tmp_path / f"{family}.json"
            assert main(["generate", "--family", family, "--n", "4",
                         "--seed", "2", "--out", str(out)]) == 0
            inst = load_instance(out)
            assert inst.name.startswith(family)


class TestSolve:
    @pytest.mark.parametrize("method,expected_tag", [
        ("iterative", "iterative/dp"),
        ("enumeration", "enumeration"),
        ("compact", "compact"),
        ("bruteforce", "bruteforce"),
    ])
    def test_example_one_methods(self, tmp_path, example_one_file, method,
                                 expected_tag):
        out = tmp_path / "report.json"
        code = main(["solve", "--instance", example_one_file, "--method",
                     method, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 1
        assert payload["instance"] == "example-one"
        assert payload["method"] == expected_tag
        assert payload["optimal"] is True
        assert "version" in payload

    def test_example_two_compact(self, tmp_path, example_two_file):
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", example_two_file, "--method",
                     "compact", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 1

    def test_missing_instance(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(tmp_path / "nope.json"),
                     "--method", "iterative", "--out", str(out)]) == 1

    def test_usage_error(self):
        assert main(["solve", "--method", "iterative"]) == 1

    def test_malformed_instance(self, tmp_path, example_one, caplog):
        # A missing budget: one ERROR line and exit 1, no traceback.
        data = example_one.to_dict()
        del data["gamma"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--instance", str(path), "--method",
                     "iterative", "--out", str(tmp_path / "r.json")]) == 1
        assert "lacks field 'gamma'" in caplog.text

    def test_enumeration_guard_exits_two(self, tmp_path, caplog):
        # C(24, 12) = 2.7e6 first-stage solutions exceed the guard.
        path = tmp_path / "big.json"
        save_instance(gen_selection(24, 1), path)
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(path), "--method",
                     "bruteforce", "--out", str(out)]) == 2
        assert _error_lines(caplog) == [
            "feasible set too large to enumerate"]
        assert not out.exists()

    def test_internal_error_exits_two(self, tmp_path, example_one_file,
                                      monkeypatch, caplog):
        def broken(inst):
            raise InternalError("certificate disagrees")

        monkeypatch.setattr(master, "solve_compact_mrs", broken)
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", example_one_file, "--method",
                     "compact", "--out", str(out)]) == 2
        assert "internal error: certificate disagrees" in caplog.text
        assert not out.exists()


class TestEvaluate:
    def test_matrix_csv(self, tmp_path, example_two_file):
        out = tmp_path / "matrix.csv"
        assert main(["evaluate", "--instances", example_two_file,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "solution,criterion,mean_rel_diff,excluded"
        assert len(lines) == 37  # 6x6 cells plus header

    def test_gamma_prime_range(self, tmp_path, example_two_file,
                               monkeypatch):
        out = tmp_path / "matrix.csv"
        assert main(["evaluate", "--instances", example_two_file,
                     "--gamma-prime-range", "0..2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "BR(0)," in text and "BR(2)," in text

        def no_solve(*args):
            raise AssertionError("a malformed range reached the solvers")

        # An empty or negative range is rejected before any solve.
        monkeypatch.setattr(cli, "criteria_matrix", no_solve)
        for bad in ("0--2", "2..0", "-1..0"):
            assert main(["evaluate", "--instances", example_two_file,
                         "--gamma-prime-range", bad, "--out", str(out)]) == 1

    def test_empty_glob(self, tmp_path):
        assert main(["evaluate", "--instances",
                     str(tmp_path / "none-*.json"),
                     "--out", str(tmp_path / "m.csv")]) == 1


    def test_reused_parser_keeps_no_state(self, tmp_path, example_two_file):
        # One parser serves every call in the process.
        assert cli._build_parser() is cli._build_parser()
        out = tmp_path / "matrix.csv"
        assert main(["evaluate", "--instances", example_two_file,
                     "--gamma-prime-range", "0..2", "--out", str(out)]) == 0
        assert "BR(2)," in out.read_text()
        assert main(["solve", "--method", "nope"]) == 1
        assert main(["evaluate", "--instances", example_two_file,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 37 and not any("BR(" in ln for ln in lines)


class TestCrosscheck:
    def test_agreement_exit_zero(self, tmp_path):
        for s in range(3):
            save_instance(gen_selection(6, s, gamma=2, gamma_prime=1),
                          tmp_path / f"sel{s}.json")
        assert main(["crosscheck", "--instances",
                     str(tmp_path / "sel*.json")]) == 0

    def test_max_n_skips_large(self, tmp_path):
        save_instance(gen_selection(16, 0), tmp_path / "big.json")
        assert main(["crosscheck", "--instances",
                     str(tmp_path / "big.json"), "--max-n", "12"]) == 0


    def test_knapsack_too_large_to_enumerate(self, tmp_path, caplog):
        # Knapsack enumeration stops at n = 21: the two enumerating methods
        # are skipped, and the batch goes on to the next file.
        for family, n in (("knapsack", "22"), ("selection", "6")):
            assert main(["generate", "--family", family, "--n", n,
                         "--seed", "1",
                         "--out", str(tmp_path / f"{family}.json")]) == 0
        caplog.clear()
        caplog.set_level(logging.INFO)
        assert main(["crosscheck", "--instances", str(tmp_path / "*.json"),
                     "--max-n", "30"]) == 0
        lines = [r.getMessage() for r in caplog.records]
        too_large = "knapsack enumeration with n=22 too large"
        assert (f"knapsack-n22-seed1 enumeration skipped: {too_large}"
                in lines)
        assert f"knapsack-n22-seed1 bruteforce skipped: {too_large}" in lines
        assert "knapsack-n22-seed1 ok: value 0 across ['iterative']" in lines
        assert any(ln.startswith("selection-n6-seed1 ok:") for ln in lines)
        assert not _error_lines(caplog)


class TestIngestGraph:
    def test_writes_instances(self, tmp_path):
        edges = tmp_path / "edges.csv"
        pairs = tmp_path / "pairs.csv"
        rows = [
            ["e0", "s", "m", *range(10, 20)],
            ["e1", "m", "t", *range(30, 40)],
            ["e2", "s", "t", *range(45, 55)],
        ]
        edges.write_text("\n".join(",".join(map(str, r)) for r in rows)
                         + "\n")
        pairs.write_text("source,target\ns,t\n")
        out = tmp_path / "instances"
        assert main(["ingest-graph", "--edges", str(edges), "--pairs",
                     str(pairs), "--out", str(out)]) == 0
        inst = load_instance(out / "path-s-t.json")
        assert inst.n == 3
        assert inst.feasible.solution_count() == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["fold"]) == 1
