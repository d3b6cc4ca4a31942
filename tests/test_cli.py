"""End-to-end command-line runs against temporary files."""

import json
import logging

import pytest

from balregret import cli, master, milp
from balregret.cli import main
from balregret.adversarial import adversarial_bruteforce
from balregret.core import (
    BinarySolution,
    Budgets,
    InternalError,
    enumerate_solutions,
)
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

    def test_bruteforce_cap_exits_two(self, tmp_path, example_one_file,
                                      monkeypatch, caplog):
        # example_one has 10 solutions: brute force refuses them above a
        # cap of 9, before scoring any pair.
        monkeypatch.setattr(master, "_BRUTEFORCE_CAP", 9)
        monkeypatch.setattr(master, "evaluate_against",
                            lambda *a: pytest.fail("scored"))
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", example_one_file, "--method",
                     "bruteforce", "--out", str(out)]) == 2
        assert _error_lines(caplog) == ["more than 9 solutions"]
        assert not out.exists()

    def test_internal_error_exits_two(self, tmp_path, example_one_file,
                                      monkeypatch, caplog):
        def broken(inst, time_limit):
            raise InternalError("certificate disagrees")

        monkeypatch.setattr(master, "solve_compact_mrs", broken)
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", example_one_file, "--method",
                     "compact", "--out", str(out)]) == 2
        assert "internal error: certificate disagrees" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("method", ["iterative", "enumeration",
                                        "compact", "bruteforce",
                                        "regret-poly"])
    def test_data_past_the_scale_guard_exits_two(self, tmp_path, caplog,
                                                 example_two, method):
        # Brute force read 2^60 on these costs through int64 overflow, and
        # compact and enumeration returned wrong values on such data; the
        # exact value is 0.  The file is refused at load, by every method.
        data = example_two.to_dict()
        data.update(c_hat=[2**60, 2**58, 2**62, 1, 2**62, 2**55],
                    d=[2**58, 1, 0, 0, 0, 1], gamma=5, gamma_prime=0)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(path), "--method", method,
                     "--out", str(out)]) == cli.EXIT_INFEASIBLE
        assert _error_lines(caplog) == [
            "instance data too large for exact integer arithmetic"]
        assert not out.exists()

    @pytest.mark.parametrize("options, message", [
        (["--method", "compact", "--adversary", "milp"],
         "--adversary applies to --method iterative only"),
        (["--method", "iterative", "--time-limit", "nan"],
         "--time-limit must be at least 0, got nan"),
        (["--method", "iterative", "--time-limit", "-1"],
         "--time-limit must be at least 0, got -1.0"),
    ])
    def test_options_it_would_ignore_are_usage_errors(
            self, tmp_path, example_two_file, caplog, options, message):
        # Only iterative takes an adversary, and a nan limit would never
        # stop a solve.
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", example_two_file, *options,
                     "--out", str(out)]) == cli.EXIT_USAGE
        assert _error_lines(caplog) == [f"usage: {message}"]
        assert not out.exists()

    def test_adversary_reaches_iterative(self, tmp_path, example_two_file):
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", example_two_file, "--method",
                     "iterative", "--adversary", "milp", "--time-limit",
                     "inf", "--out", str(out)]) == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert (payload["method"], payload["value"]) == ("iterative/milp", 1)

    def test_node_limit_exits_two(self, tmp_path, monkeypatch, caplog):
        # Two nodes find an incumbent but do not close this compact tree:
        # a search cut short by its node limit proves no optimum, so the
        # solve exits 2 and writes no report, never the time limit's 3.
        path = tmp_path / "sel.json"
        save_instance(gen_selection(6, 2, gamma=2, gamma_prime=1), path)
        out = tmp_path / "report.json"
        monkeypatch.setattr(milp, "NODE_LIMIT", 2)
        assert main(["solve", "--instance", str(path), "--method",
                     "compact", "--out", str(out)]) == cli.EXIT_INFEASIBLE
        assert _error_lines(caplog) == [
            "branch and bound reached its node limit (2)"]
        assert not out.exists()

    def test_time_limit_exits_three_with_a_valid_bound(self, tmp_path):
        # The deadline stops the master's tree at its first node: the
        # report keeps the warm start's x, is not optimal, and its last
        # lower bound does not pass its value.
        path = tmp_path / "paper60.json"
        save_instance(gen_selection(60, 1, gamma=3, gamma_prime=1), path)
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(path), "--method",
                     "iterative", "--time-limit", "0",
                     "--out", str(out)]) == cli.EXIT_TIME_LIMIT
        payload = json.loads(out.read_text())
        assert payload["optimal"] is False
        assert payload["lower_bounds"][-1] <= payload["value"]
        assert payload["upper_bounds"][-1] == payload["value"]

    @pytest.mark.parametrize("method", ["compact", "enumeration"])
    def test_time_limit_stops_compact_and_enumeration(self, tmp_path,
                                                      method):
        # The zero check does not settle this instance, and the deadline
        # stops the search before its root: the report holds the robust
        # nominal solution at its exact value, is not optimal, and its
        # lower bound is 0.
        inst = gen_selection(6, 2, gamma=2, gamma_prime=1)
        assert master.zero_solution(inst) is None
        path = tmp_path / "sel.json"
        save_instance(inst, path)
        out = tmp_path / "report.json"
        assert main(["solve", "--instance", str(path), "--method", method,
                     "--time-limit", "0",
                     "--out", str(out)]) == cli.EXIT_TIME_LIMIT
        payload = json.loads(out.read_text())
        x = BinarySolution.from_indices(payload["x"], inst.n)
        assert x == master._initial_scenario(inst)[0]
        assert payload["optimal"] is False
        assert payload["value"] == adversarial_bruteforce(inst, x).value
        assert payload["lower_bounds"] == [0.0]
        assert payload["upper_bounds"] == [payload["value"]]


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


    def test_bruteforce_cap_skip_is_logged(self, tmp_path, caplog,
                                           monkeypatch):
        # Above the cap, brute force is skipped with one INFO line, as an
        # instance too large to enumerate is, and the others still agree.
        inst = gen_selection(6, 1, gamma=2, gamma_prime=1)
        save_instance(inst, tmp_path / "sel.json")
        cap = inst.feasible.solution_count() - 1
        monkeypatch.setattr(master, "_BRUTEFORCE_CAP", cap)
        caplog.set_level(logging.INFO)
        assert main(["crosscheck", "--instances",
                     str(tmp_path / "sel.json")]) == 0
        lines = [r.getMessage() for r in caplog.records]
        assert (f"{inst.name} bruteforce skipped: more than {cap} solutions"
                in lines)
        ok = [ln for ln in lines if ln.startswith(f"{inst.name} ok:")]
        assert len(ok) == 1 and "bruteforce" not in ok[0]

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


def _write_csvs(tmp_path, edge_rows, pairs_text):
    edges = tmp_path / "edges.csv"
    pairs = tmp_path / "pairs.csv"
    edges.write_text("\n".join(",".join(map(str, r)) for r in edge_rows)
                     + "\n")
    pairs.write_text(pairs_text)
    return str(edges), str(pairs)


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
        assert len(enumerate_solutions(inst.feasible)) == 2
        assert inst.budgets == Budgets(0, 0)

    def test_budgets(self, tmp_path, caplog):
        # The budgets reach every file; one past the edge count exits 1
        # before any file is written.
        edges, pairs = _write_csvs(
            tmp_path, [["e0", "s", "m", *range(10, 20)],
                       ["e1", "m", "t", *range(30, 40)],
                       ["e2", "s", "t", *range(45, 55)]], "s,t\n")
        out = tmp_path / "instances"
        assert main(["ingest-graph", "--edges", edges, "--pairs", pairs,
                     "--gamma", "1", "--gamma-prime", "2",
                     "--out", str(out)]) == 0
        assert load_instance(out / "path-s-t.json").budgets == Budgets(1, 2)
        late = tmp_path / "late"
        assert main(["ingest-graph", "--edges", edges, "--pairs", pairs,
                     "--gamma", "4", "--out", str(late)]) == 1
        assert _error_lines(caplog) == ["gamma must be in [0, 3], got 4"]
        assert not late.exists()


    def test_label_with_a_path_separator_writes_nothing(self, tmp_path,
                                                        caplog):
        # The pair (s, A/B) would name path-s-A/B.json, a file under a
        # directory that does not exist.
        edges, pairs = _write_csvs(
            tmp_path, [["e0", "s", "A/B", *range(10, 20)]], "s,A/B\n")
        out = tmp_path / "instances"
        assert main(["ingest-graph", "--edges", edges, "--pairs", pairs,
                     "--out", str(out)]) == 1
        assert _error_lines(caplog) == [
            "pair 'path-s-A/B': file name 'path-s-A/B.json' holds a path "
            "separator"]
        assert not out.exists()

    def test_pairs_sharing_a_file_name_write_nothing(self, tmp_path,
                                                      caplog):
        # (a-b, c) and (a, b-c) both name path-a-b-c.json.
        edges, pairs = _write_csvs(
            tmp_path, [["e0", "a-b", "c", *range(10, 20)],
                       ["e1", "a", "b-c", *range(10, 20)]],
            "a-b,c\na,b-c\n")
        out = tmp_path / "instances"
        assert main(["ingest-graph", "--edges", edges, "--pairs", pairs,
                     "--out", str(out)]) == 1
        assert _error_lines(caplog) == [
            "pair 'path-a-b-c': file name 'path-a-b-c.json' repeats an "
            "earlier pair's"]
        assert not out.exists()


class TestUnwritableOutput:
    """A file the command cannot write exits 1 with one ERROR line."""

    def _assert_one_error(self, caplog, argv):
        assert main(argv) == 1
        assert len(_error_lines(caplog)) == 1

    def test_generate(self, tmp_path, caplog):
        self._assert_one_error(caplog, [
            "generate", "--family", "selection", "--n", "6", "--seed", "1",
            "--out", str(tmp_path / "missing" / "sel.json")])

    def test_solve(self, tmp_path, caplog, example_one_file):
        self._assert_one_error(caplog, [
            "solve", "--instance", example_one_file, "--method", "iterative",
            "--out", str(tmp_path / "missing" / "report.json")])

    def test_evaluate(self, tmp_path, caplog, example_two_file):
        self._assert_one_error(caplog, [
            "evaluate", "--instances", example_two_file,
            "--out", str(tmp_path / "missing" / "matrix.csv")])

    def test_ingest_graph(self, tmp_path, caplog):
        # The output directory is an existing file.
        edges, pairs = _write_csvs(
            tmp_path, [["e0", "s", "t", *range(10, 20)]], "s,t\n")
        self._assert_one_error(caplog, [
            "ingest-graph", "--edges", edges, "--pairs", pairs,
            "--out", edges])


def test_unknown_subcommand_is_usage_error():
    assert main(["fold"]) == 1
