"""Evaluation criteria: single values, per-criterion optima, the matrix."""

import math

import pytest

from balregret.core import (
    BinarySolution,
    Budgets,
    InputError,
    Instance,
    enumerate_solutions,
)
from balregret.instances import SplitMix64, gen_selection
from balregret import evaluation
from conftest import rand_mrs


def _pick(indices, n=6):
    return BinarySolution.from_indices(indices, n)


class TestEvalCriterion:
    def test_unknown_criterion(self, example_two):
        with pytest.raises(InputError):
            evaluation.eval_criterion(example_two, _pick([0, 1, 2]), "XX")

    def test_infeasible_solution(self, example_two):
        with pytest.raises(InputError):
            evaluation.eval_criterion(example_two, _pick([0, 1]), "BC")

    def test_worked_example_values(self, example_two):
        # rows: the worst-case, regret, and balanced-regret optimizers
        rows = {
            "wc": _pick([3, 4, 5]),
            "reg": _pick([0, 1, 2]),
            "bal": _pick([2, 3, 4]),
        }
        table = {
            ("wc", "WC-G"): 12, ("wc", "R-G"): 6, ("wc", "BR"): 2,
            ("reg", "WC-G"): 14, ("reg", "R-G"): 3, ("reg", "BR"): 3,
            ("bal", "WC-G"): 13, ("bal", "R-G"): 4, ("bal", "BR"): 1,
        }
        for (row, crit), expect in table.items():
            got = evaluation.eval_criterion(example_two, rows[row], crit)
            assert got == expect, (row, crit, got)

    def test_criterion_orderings(self):
        rng = SplitMix64(9201)
        for trial in range(40):
            inst = rand_mrs(rng, n_lo=3, n_hi=7, name=f"ord{trial}")
            xs = enumerate_solutions(inst.feasible)
            x = xs[rng.randint(0, len(xs) - 1)]
            vals = {c: evaluation.eval_criterion(inst, x, c)
                    for c in evaluation.CRITERIA}
            assert vals["BC"] <= vals["WC-G"] <= vals["WC-I"]
            assert vals["BR"] <= vals["R-G"]  # balancing can only help
            assert vals["R-G"] >= 0 and vals["BR"] >= 0
            assert vals["R-I"] >= 0


class TestOptimizeCriterion:
    def test_worked_example_rows(self, example_two):
        assert (sorted(evaluation.optimize_criterion(example_two, "WC-I").x
                       .indices()) == [3, 4, 5])
        assert (sorted(evaluation.optimize_criterion(example_two, "WC-G").x
                       .indices()) == [3, 4, 5])
        rg = evaluation.optimize_criterion(example_two, "R-G")
        assert sorted(rg.x.indices()) == [0, 1, 2] and rg.value == 3
        br = evaluation.optimize_criterion(example_two, "BR")
        assert sorted(br.x.indices()) == [2, 3, 4] and br.value == 1

    def test_optimum_beats_every_solution(self):
        rng = SplitMix64(9202)
        for trial in range(15):
            inst = rand_mrs(rng, n_lo=3, n_hi=6, name=f"opt{trial}")
            xs = enumerate_solutions(inst.feasible)
            for crit in evaluation.CRITERIA:
                rep = evaluation.optimize_criterion(inst, crit)
                assert inst.feasible.is_feasible(rep.x)
                values = [evaluation.eval_criterion(inst, x, crit)
                          for x in xs]
                assert rep.value == min(values), (crit, inst)
                assert (evaluation.eval_criterion(inst, rep.x, crit)
                        == rep.value)


class TestCriteriaMatrix:
    def test_zero_diagonal_and_shape(self):
        batch = [gen_selection(6, s, gamma=2, gamma_prime=1)
                 for s in range(3)]
        matrix = evaluation.criteria_matrix(batch)
        assert matrix.rows == list(evaluation.CRITERIA)
        assert matrix.cols == list(evaluation.CRITERIA)
        assert matrix.instances == 3
        for i, crit in enumerate(matrix.rows):
            j = matrix.cols.index(crit)
            cell = matrix.mean[i][j]
            assert cell == pytest.approx(0.0) or math.isnan(cell)
            assert all(m >= -1e-12 for m in matrix.mean[i]
                       if not math.isnan(m))

    def test_gamma_prime_range_rows(self):
        batch = [gen_selection(6, 5, gamma=2, gamma_prime=1)]
        matrix = evaluation.criteria_matrix(batch, range(0, 3))
        assert matrix.rows[-3:] == ["BR(0)", "BR(1)", "BR(2)"]
        # the BR row at the instance budget matches the plain BR row
        i_br = matrix.rows.index("BR")
        i_gp = matrix.rows.index("BR(1)")
        assert matrix.mean[i_br] == pytest.approx(matrix.mean[i_gp])

    def test_br_rows_reuse_column_solves(self, monkeypatch):
        # BR(0) is the R-G column's solve and BR(1) the BR column's, at
        # the instance's own gamma_prime; only BR(2) is solved again.
        inst = gen_selection(6, 5, gamma=2, gamma_prime=1)
        optimize = evaluation.optimize_criterion
        calls = []

        def counting(sub, criterion):
            calls.append((criterion, sub.budgets.gamma_prime))
            return optimize(sub, criterion)

        monkeypatch.setattr(evaluation, "optimize_criterion", counting)
        matrix = evaluation.criteria_matrix([inst], range(0, 3))
        assert calls == [(c, 1) for c in evaluation.CRITERIA] + [("BR", 2)]
        (table,) = matrix.values.values()
        for gp in range(3):
            sub = evaluation._with_budgets(inst, gamma_prime=gp)
            x = optimize(sub, "BR").x
            assert table[len(evaluation.CRITERIA) + gp] == [
                evaluation.eval_criterion(inst, x, c)
                for c in evaluation.CRITERIA
            ]

    @pytest.mark.parametrize("gamma_prime", [1, 0])
    def test_each_distinct_solution_evaluated_once(self, example_two,
                                                   gamma_prime, monkeypatch):
        inst = evaluation._with_budgets(example_two, gamma_prime=gamma_prime)
        cols = list(evaluation.CRITERIA)
        optimize, direct = (evaluation.optimize_criterion,
                            evaluation.eval_criterion)
        solves, evals = [], []

        def counting_optimize(sub, criterion):
            solves.append((criterion, sub.budgets.gamma_prime))
            return optimize(sub, criterion)

        def counting_eval(inst, x, criterion):
            evals.append(x)
            return direct(inst, x, criterion)

        monkeypatch.setattr(evaluation, "optimize_criterion",
                            counting_optimize)
        monkeypatch.setattr(evaluation, "eval_criterion", counting_eval)
        csv = evaluation.criteria_matrix([inst], range(0, 3)).to_csv()

        # At gamma_prime 0, BR shares R-G's solve.
        own = [(c, gamma_prime) for c in cols
               if not (c == "BR" and gamma_prime == 0)]
        assert solves == own + [("BR", gp) for gp in range(3)
                                if gp not in (0, gamma_prime)]
        reports = {c: optimize(inst, c) for c in cols}
        rows = [reports[c].x for c in cols] + [
            optimize(evaluation._with_budgets(inst, gamma_prime=gp), "BR").x
            for gp in range(3)]
        # At gamma_prime 0 the BR value of each x is its R-G value.
        per_x = len(cols) - (gamma_prime == 0)
        assert len(evals) == per_x * len(set(rows))
        assert set(evals) == set(rows)

        # The same CSV from a 9 x 6 table of direct evaluations.
        table = [[direct(inst, x, c) for c in cols] for x in rows]
        optima = [reports[c].value for c in cols]
        mean = [[(f - f_star) / f_star if f_star else
                 (0.0 if f == 0 else math.nan)
                 for f, f_star in zip(vals, optima)] for vals in table]
        excluded = [[int(f_star == 0 and f != 0)
                     for f, f_star in zip(vals, optima)] for vals in table]
        expect = evaluation.CriteriaMatrix(
            rows=cols + [f"BR({gp})" for gp in range(3)], cols=cols,
            mean=mean, excluded=excluded)
        assert csv == expect.to_csv()

    def test_csv_format(self):
        batch = [gen_selection(5, 1, gamma=1, gamma_prime=1)]
        text = evaluation.criteria_matrix(batch).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "solution,criterion,mean_rel_diff,excluded"
        assert len(lines) == 1 + len(evaluation.CRITERIA) ** 2

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            evaluation.criteria_matrix([])


def test_zero_optimum_handling():
    # with d == 0 every regret criterion collapses to zero
    inst = gen_selection(5, 3, gamma=2, gamma_prime=1)
    from balregret.core import ItemCosts

    flat = Instance(ItemCosts(inst.costs.c_hat, (0,) * inst.n),
                    Budgets(2, 1), inst.feasible)
    matrix = evaluation.criteria_matrix([flat])
    i_bc = matrix.rows.index("BC")
    j_br = matrix.cols.index("BR")
    assert matrix.mean[i_bc][j_br] == pytest.approx(0.0)
    assert matrix.excluded[i_bc][j_br] == 0
