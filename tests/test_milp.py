"""The bundled LP/MILP solver against hand solutions and exhaustion."""

import copy
import itertools
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from balregret.core import InputError, InternalError, ScaleError
from balregret.instances import SplitMix64
from balregret import milp
from conftest import lp_relaxation


def test_lp_known_optimum():
    # max 3a + 2b s.t. a + b <= 4, a <= 2, as min -3a - 2b
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    b = m.add_continuous(0.0)
    m.add_constraint({a: 1.0, b: 1.0}, "<=", 4.0)
    m.add_constraint({a: 1.0}, "<=", 2.0)
    m.set_objective({a: -3.0, b: -2.0})
    status, value, x = lp_relaxation(m)
    assert status == "optimal"
    assert -value == pytest.approx(10.0)
    assert x == pytest.approx([2.0, 2.0])


def test_lp_equality_and_lower_bounds():
    m = milp.MilpModel()
    a = m.add_continuous(1.0, 5.0)
    b = m.add_continuous(-milp.INF)
    m.add_constraint({a: 1.0, b: 1.0}, "=", 3.0)
    m.set_objective({a: 1.0, b: 2.0})
    status, value, _ = lp_relaxation(m)
    # push a to its upper bound, b picks up the slack
    assert status == "optimal"
    assert value == pytest.approx(5.0 + 2.0 * (-2.0))


def test_free_variable_with_finite_upper_bound():
    # a = a+ - a- is free with a <= -2, so its bound row must hold both
    # parts: with a+ <= -2 alone, a+ >= 0 would make the model infeasible.
    m = milp.MilpModel()
    a = m.add_continuous(-milp.INF, -2.0)
    m.add_constraint({a: 1.0}, ">=", -5.0)
    m.set_objective({a: -1.0})  # max a
    status, value, x = lp_relaxation(m)
    assert status == "optimal"
    assert -value == pytest.approx(-2.0)
    assert x == pytest.approx([-2.0])


@pytest.mark.parametrize("ub", [3.0, -3.0])
def test_milp_free_variable_with_finite_upper_bound(ub):
    # max a + b with a free, a <= ub and b binary is ub + 1.
    m = milp.MilpModel()
    a = m.add_continuous(-milp.INF, ub)
    b = m.add_binary()
    m.set_objective({a: -1.0, b: -1.0})
    res = milp.solve_milp(m)
    assert res.status == "optimal"
    assert -res.value == pytest.approx(ub + 1.0)
    assert res.assignment == pytest.approx([ub, 1.0])


def test_lp_infeasible():
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    m.add_constraint({a: 1.0}, ">=", 2.0)
    m.add_constraint({a: 1.0}, "<=", 1.0)
    m.set_objective({a: 1.0})
    assert lp_relaxation(m)[0] == "infeasible"


def test_lp_unbounded(monkeypatch):
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    b = m.add_continuous(0.0)
    m.add_constraint({a: 1.0, b: -1.0}, "<=", 1.0)
    m.set_objective({b: -1.0})  # max b
    assert lp_relaxation(m)[0] == "unbounded"
    with pytest.raises(ScaleError, match="unbounded"):
        milp.solve_milp(m)
    # A binary held to [0.4, hi] by two rows and a free variable the
    # objective pushes without limit: every relaxation is unbounded, so
    # branch and bound refuses the model whether or not the binary can be
    # integral, at its root LP, within any node limit.
    for hi in (0.6, 1.0):
        m = milp.MilpModel()
        x = m.add_binary()
        free = m.add_continuous(-milp.INF)
        m.add_constraint({x: 1.0}, ">=", 0.4)
        m.add_constraint({x: 1.0}, "<=", hi)
        m.set_objective({free: 1.0})
        assert lp_relaxation(m)[0] == "unbounded"
        with pytest.raises(ScaleError, match="unbounded at node 1"):
            milp.solve_milp(m)
        with monkeypatch.context() as limited:
            limited.setattr(milp, "NODE_LIMIT", 1)
            with pytest.raises(ScaleError, match="unbounded at node 1"):
                milp.solve_milp(m)


def test_lp_without_rows():
    # Lower bounds are shifted into the objective constant, and no upper
    # bound is finite, so the standard form has columns but no rows.
    m = milp.MilpModel()
    a = m.add_continuous(1.5)
    b = m.add_continuous(-2.0)
    m.set_objective({a: 1.0, b: 2.0})
    assert lp_relaxation(m) == ("optimal", -2.5, [1.5, -2.0])
    # A free variable the objective pushes down has no bound at all.
    free = m.add_continuous(-milp.INF)
    m.set_objective({a: 1.0, free: 1.0})
    status, value, _ = lp_relaxation(m)
    assert status == "unbounded" and value == -math.inf
    m.set_objective({free: -1.0})  # max free
    status, value, _ = lp_relaxation(m)
    assert status == "unbounded" and -value == math.inf
    with pytest.raises(ScaleError, match="unbounded"):
        milp.solve_milp(m)
    # No variables at all: the tableau is its rhs column alone.
    empty = milp.MilpModel()
    assert lp_relaxation(empty) == ("optimal", 0.0, [])
    res = milp.solve_milp(empty)
    assert (res.status, res.value, res.assignment) == ("optimal", 0.0, [])


def test_tableau_guard_raises_before_allocating():
    # 7,100 variables in [0, 1] under one "<=" row: each upper bound is a
    # row that starts from its slack, which is basic and has no column, so
    # the phase-1 dictionary is 7,101 x 7,101, about 5.04 * 10^7 float64
    # entries (403 MB), just above the guard.
    wide = milp.MilpModel()
    for k in range(7100):
        wide.add_continuous(0.0, 1.0)
    wide.add_constraint({j: 1.0 for j in range(7100)}, "<=", 1.0)
    wide.set_objective({0: -1.0})
    assert 7101 * 7101 > milp.MAX_TABLEAU_ENTRIES
    # 7,100 "<=" rows over 7,100 variables, row k holding variable k only:
    # the dense model alone has 7,100 x 7,100 entries, also above it.
    square = milp.MilpModel()
    for k in range(7100):
        x = square.add_continuous(0.0)
        square.add_constraint({x: 1.0}, "<=", 1.0)
    square.set_objective({0: -1.0})
    assert 7100 * 7100 > milp.MAX_TABLEAU_ENTRIES
    # 7,100 "<=" rows over one variable: the basic slacks have no columns,
    # so its dictionary is 7,100 x 2, and it solves.
    narrow = milp.MilpModel()
    a = narrow.add_continuous(0.0)
    for k in range(7100):
        narrow.add_constraint({a: 1.0}, "<=", float(k + 1))
    narrow.set_objective({a: -1.0})
    for m in (wide, square, narrow):
        tracemalloc.start()
        try:
            if m is narrow:
                assert -milp.solve_milp(m).value == 1.0
            else:
                with pytest.raises(ScaleError):
                    milp.solve_milp(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def test_crash_basis_puts_artificials_only_where_needed():
    # One row of each sense with positive, zero and negative rhs, plus the
    # upper-bound row of a. Feasible points: a = 3 - 2d, b = d, c = 2 - d
    # for d in [0, 1]; max 2b + c = 2 + d is 3 at d = 1, as min -2b - c.
    m = milp.MilpModel()
    a = m.add_continuous(0.0, 4.0)
    b, c, d = (m.add_continuous(0.0) for _ in range(3))
    rows = [
        ({a: 1, b: 1, c: 1}, "<=", 6),  # slack
        ({b: 1, c: -1}, "<=", 0),  # slack
        ({a: -1, d: -1}, "<=", -1),  # negated: surplus, artificial
        ({a: 1, b: 1, d: 1}, "=", 3),  # artificial
        ({b: 1, d: -1}, "=", 0),  # artificial
        ({c: -1, d: -1}, "=", -2),  # artificial
        ({a: 1, c: 1}, ">=", 1),  # surplus, artificial
        ({c: 1, b: -1}, ">=", 0),  # negated: slack
        ({a: -1, b: -1}, ">=", -5),  # negated: slack
    ]
    for coefs, sense, rhs in rows:
        m.add_constraint(coefs, sense, rhs)
    m.set_objective({b: -2.0, c: -1.0})
    N, basis, nb, art, _ = milp._standardize(milp._form(m))
    assert art == 4 + 7
    assert [i for i in range(10) if basis[i] >= art] == [2, 3, 4, 5, 6]
    # The dictionary's columns are the non-basic ones: the structural
    # columns and the surplus slacks of rows 2 and 6 (columns 6 and 7);
    # every artificial and every other slack is basic.
    assert N.shape == (10, 4 + 2 + 1) and nb.tolist() == [0, 1, 2, 3, 6, 7]
    assert (N[:, -1] >= 0).all()
    status, value, x = lp_relaxation(m)
    assert status == "optimal"
    assert -value == pytest.approx(3.0)
    assert x == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_form_makes_a_row_of_each_finite_upper_bound():
    # After the model's rows, one row x_j <= ub_j per variable with lb <
    # ub < inf, in variable order: a split variable gets one, a fixed or
    # unbounded variable none.
    m = milp.MilpModel()
    a = m.add_binary()
    b = m.add_continuous(-milp.INF, 4.0)  # split
    m.add_continuous(2.0, 2.0)  # fixed
    d = m.add_continuous(0.0)  # unbounded
    e = m.add_continuous(-1.0, 3.0)
    m.add_constraint({a: 1.0, d: 2.0}, ">=", 1.0)
    form = milp._form(m)
    assert form.A.tolist() == [[1, 0, 0, 2, 0], [1, 0, 0, 0, 0],
                               [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
    assert form.b.tolist() == [1.0, 1.0, 4.0, 3.0]
    assert form.slack.tolist() == [-1.0, 1.0, 1.0, 1.0]
    # A point above one bound meets the model's row, but not the form.
    x = np.array([1.0, 4.0, 2.0, 0.0, 3.0])
    assert milp._feasible(form, x)
    for j in (a, b, e):
        above = x.copy()
        above[j] += 0.5
        assert not milp._feasible(form, above), j


def test_model_validation():
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    with pytest.raises(InputError):
        m.add_constraint({a + 7: 1.0}, "<=", 1.0)
    with pytest.raises(InputError):
        m.add_constraint({a: 1.0}, "<", 1.0)
    with pytest.raises(InputError):
        m.set_objective({a + 7: 1.0})
    with pytest.raises(InputError):
        m.add_continuous(2.0, 1.0)
    # A variable fixed at an infinite value would leave the tableau with
    # an infinite shift.
    for lb, ub in ((-milp.INF, -milp.INF), (milp.INF, milp.INF)):
        with pytest.raises(InputError):
            m.add_continuous(lb, ub)
    assert len(m.variables) == 1


def _random_binary_model(rng: SplitMix64):
    """A random pure-binary model with <= rows; may be infeasible.  Its
    drawn objective is minimized (sign 1) or maximized (sign -1), as the
    minimum of its negation; returns the model, its binaries and the
    sign."""
    n = 2 + rng.randint(0, 4)
    rows = 1 + rng.randint(0, 3)
    m = milp.MilpModel()
    xs = [m.add_binary() for _ in range(n)]
    sign = (1, -1)[rng.randint(0, 1)]
    m.set_objective({x: sign * (rng.randint(0, 20) - 10) for x in xs})
    for _ in range(rows):
        coefs = {x: rng.randint(0, 12) - 4 for x in xs}
        m.add_constraint(coefs, "<=" if rng.randint(0, 1) else ">=",
                         rng.randint(0, 10) - 2)
    return m, xs, sign


def _brute_binary(model, xs):
    """The least objective value of a feasible point, or None."""
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(xs)):
        assign = dict(zip(xs, bits))
        ok = True
        for coefs, s, rhs in model.constraints:
            lhs = sum(a * assign[j] for j, a in coefs.items())
            if s == "<=" and lhs > rhs + 1e-9:
                ok = False
            if s == ">=" and lhs < rhs - 1e-9:
                ok = False
        if not ok:
            continue
        val = sum(a * assign[j] for j, a in model.objective.items())
        best = val if best is None else min(best, val)
    return best


def test_milp_matches_exhaustive_search():
    rng = SplitMix64(1701)
    solved = 0
    for _ in range(150):
        model, xs, _ = _random_binary_model(rng)
        res = milp.solve_milp(model)
        expect = _brute_binary(model, xs)
        if expect is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.value == pytest.approx(expect)
            solved += 1
    assert solved > 50


def test_milp_mixed_integrality():
    # min y - 3 x1 - 2 x2 with y >= 2 x1 + 2 x2 - 1, binaries x
    m = milp.MilpModel()
    y = m.add_continuous(0.0)
    x1 = m.add_binary()
    x2 = m.add_binary()
    m.add_constraint({y: 1.0, x1: -2.0, x2: -2.0}, ">=", -1.0)
    m.set_objective({y: 1.0, x1: -3.0, x2: -2.0})
    res = milp.solve_milp(m)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-2.0)
    got_y = res.assignment[y]
    assert got_y == pytest.approx(
        max(0.0, 2 * res.assignment[x1] + 2 * res.assignment[x2] - 1)
    )


def test_unit_interval_continuous_reaches_binary_optimum():
    # Two coupled halves; the second half is integral automatically once
    # the first is fixed (an interval constraint with unit coefficients),
    # so e1 and e2 may be declared continuous in [0, 1] and branch and
    # bound runs over x alone. The master and adversary models rely on
    # this for their balancing and attack variables.
    def solve(add_e):
        m = milp.MilpModel()
        x = m.add_binary()
        e1 = add_e(m)
        e2 = add_e(m)
        m.add_constraint({e1: 1.0, e2: 1.0}, "<=", 1.0)
        m.add_constraint({x: 1.0, e1: 1.0}, "<=", 1.0)
        m.set_objective({x: -1.0, e1: -2.0, e2: -1.0})  # max x + 2 e1 + e2
        return m, milp.solve_milp(m)

    _, full = solve(lambda m: m.add_binary())
    mixed_model, mixed = solve(lambda m: m.add_continuous(0.0, 1.0))
    assert [v.kind for v in mixed_model.variables] == [
        "binary", "continuous", "continuous"]
    assert full.status == mixed.status == "optimal"
    assert -mixed.value == pytest.approx(-full.value) == pytest.approx(2.0)
    assert mixed.assignment[0] in (0.0, 1.0)


def test_node_limit_reports_status(monkeypatch):
    # A search that needs more LPs than NODE_LIMIT raises; one that needs
    # no more ends as it would without the limit.
    rng = SplitMix64(99)
    raised = 0
    for _ in range(20):
        model, _, _ = _random_binary_model(rng)
        full = milp.solve_milp(model)
        with monkeypatch.context() as limited:
            limited.setattr(milp, "NODE_LIMIT", 1)
            if full.nodes > 1:
                with pytest.raises(ScaleError, match=r"node limit \(1\)"):
                    milp.solve_milp(model)
                raised += 1
            else:
                res = milp.solve_milp(model)
                assert (res.status, res.assignment) == (full.status,
                                                        full.assignment)
    assert 0 < raised < 20


def _random_mixed_model(rng: SplitMix64):
    """A random model over binaries, free variables and shifted, possibly
    bounded continuous variables, with rows of every sense and rhs sign.
    Its drawn objective is minimized (sign 1) or maximized (sign -1), as
    the minimum of its negation; returns the model and the sign."""
    m = milp.MilpModel()
    for _ in range(rng.randint(2, 5)):
        kind = rng.randint(0, 3)
        if kind == 0:
            m.add_binary()
        elif kind == 1:
            m.add_continuous(-milp.INF)
        else:
            lb = float(rng.randint(-2, 3))
            ub = lb + rng.randint(1, 5) if kind == 2 else milp.INF
            m.add_continuous(lb, ub)
    nv = len(m.variables)
    for _ in range(rng.randint(1, 4)):
        coefs = {j: rng.randint(-3, 3) for j in range(nv) if rng.randint(0, 2)}
        m.add_constraint(coefs, ("<=", "=", ">=")[rng.randint(0, 2)],
                         rng.randint(-5, 5))
    sign = (1, -1)[rng.randint(0, 1)]
    m.set_objective({j: sign * rng.randint(-3, 3) for j in range(nv)})
    return m, sign


def _highs(model, relax):
    """Status and value of the model by HiGHS (scipy.optimize.milp).

    HiGHS may report an unbounded model as infeasible (status 2) or with
    status 3 or 4; those are settled by solving the model again with a
    zero objective, which only asks for feasibility. Any other status,
    such as a time or iteration limit, is the oracle's own failure.
    """
    scipy_optimize = pytest.importorskip("scipy.optimize")
    nv = len(model.variables)
    cost = np.zeros(nv)
    for j, v in model.objective.items():
        cost[j] = v
    A = np.zeros((len(model.constraints), nv))
    lo, hi = [], []
    for i, (coefs, sense, rhs) in enumerate(model.constraints):
        for j, v in coefs.items():
            A[i, j] = v
        lo.append(-np.inf if sense == "<=" else rhs)
        hi.append(np.inf if sense == ">=" else rhs)
    kwargs = dict(
        integrality=[0 if relax else int(v.kind == "binary")
                     for v in model.variables],
        bounds=scipy_optimize.Bounds([v.lb for v in model.variables],
                                     [v.ub for v in model.variables]),
        constraints=scipy_optimize.LinearConstraint(A, lo, hi),
    )
    res = scipy_optimize.milp(cost, **kwargs)
    if res.status == 0:
        return "optimal", res.fun
    if res.status not in (2, 3, 4):
        pytest.fail(f"HiGHS status {res.status}: {res.message}")
    res = scipy_optimize.milp(np.zeros(nv), **kwargs)
    if res.status not in (0, 2):
        pytest.fail(f"HiGHS feasibility status {res.status}: {res.message}")
    return ("unbounded" if res.status == 0 else "infeasible"), None


def _pinned(model, rng: SplitMix64):
    """The model with a random subset of its binaries pinned to 0 or 1 by
    lb = ub."""
    for v in model.variables:
        if v.kind == "binary" and rng.randint(0, 1):
            v.lb = v.ub = float(rng.randint(0, 1))
    return model


def test_highs_agrees_on_random_mixed_models():
    # Branch and bound refuses a model whose relaxation is unbounded; its
    # "unbounded" count is of those refusals.
    rng = SplitMix64(2024)
    seen = {}
    for _ in range(200):
        # Both legs pin a random subset of the binaries with lb = ub, so
        # fixed variables, which have no tableau column, meet warm-started
        # nodes and the incumbent rule.
        model = _pinned(_random_mixed_model(rng)[0], rng)
        relaxed = _highs(model, True)
        legs = [("lp", lp_relaxation(model)[:2], relaxed)]
        if relaxed[0] == "unbounded":
            with pytest.raises(ScaleError, match="unbounded"):
                milp.solve_milp(model)
            seen["milp", "unbounded"] = seen.get(("milp", "unbounded"), 0) + 1
        else:
            res = milp.solve_milp(model)
            legs.append(("milp", (res.status, res.value),
                         _highs(model, False)))
        for kind, (status, value), theirs in legs:
            assert status == theirs[0]
            seen[kind, status] = seen.get((kind, status), 0) + 1
            if status == "optimal":
                assert value == pytest.approx(theirs[1], rel=1e-6, abs=1e-6)
    for kind in ("lp", "milp"):
        for status in ("optimal", "infeasible", "unbounded"):
            assert seen.get((kind, status), 0) >= 20
    # The mixed stream seldom branches; pinned knapsacks branch several
    # levels deep below their fixed binaries.
    warm = 0
    for k in range(40):
        model = _pinned(_seeded_knapsack_model(rng, 8 + k % 5), rng)
        res, theirs = milp.solve_milp(model), _highs(model, False)
        assert res.status == theirs[0]
        if res.status == "optimal":
            assert res.value == pytest.approx(theirs[1], abs=1e-6)
            warm += res.nodes > 1 and any(v.lb == v.ub
                                          for v in model.variables)
    assert warm >= 20


def _loop_standardize(model):
    """Tableau, starting basis, phase-2 costs over the structural and slack
    columns, and objective constant of ``_standardize`` and the pricing
    that follows phase 1 (``_priced``), built by a loop over the model's
    rows and variables: the reference for their array form.  A fixed
    variable (lb = ub) has no column and no bound row; its value enters
    through the shift."""
    cols, ncols, rows = {}, 0, list(model.constraints)
    for j, v in enumerate(model.variables):
        if v.lb == v.ub:
            continue
        free = v.lb == -milp.INF
        cols[j] = (ncols, ncols + 1 if free else None)
        ncols += 2 if free else 1
        if v.ub < milp.INF:
            rows.append(({j: 1.0}, "<=", v.ub))
    shift = [0.0 if v.lb == -milp.INF else v.lb for v in model.variables]

    def expand(coefs, out):
        for j, a in coefs.items():
            if j not in cols:
                continue
            out[cols[j][0]] += a
            if cols[j][1] is not None:
                out[cols[j][1]] -= a

    signed = []
    for coefs, sense, b in rows:
        rhs = b - sum(a * shift[j] for j, a in coefs.items())
        s = -1.0 if rhs < 0 or (rhs == 0 and sense == ">=") else 1.0
        signed.append((s, s * {"<=": 1.0, "=": 0.0, ">=": -1.0}[sense],
                       abs(rhs)))
    art = ncols + sum(sc != 0 for _, sc, _ in signed)
    T = np.zeros((len(rows), art + sum(sc <= 0 for _, sc, _ in signed) + 1))
    basis, slack, artcol = [], ncols, art
    for i, ((coefs, _, _), (s, sc, rhs)) in enumerate(zip(rows, signed)):
        expand(coefs, T[i])
        T[i, :ncols] *= s
        if sc != 0:
            T[i, slack] = sc
            slack += 1
        if sc > 0:
            basis.append(slack - 1)
        else:
            T[i, artcol] = 1.0
            basis.append(artcol)
            artcol += 1
        T[i, -1] = rhs
    objective = model.objective
    c = np.zeros(art)
    expand(objective, c)
    return T, basis, c, sum(a * shift[j] for j, a in objective.items())


def test_standardize_matches_loop_reference():
    # Random mixed models whose free variables may also carry a finite
    # upper bound, with a random third of the variables pinned by lb = ub;
    # integer data, so the array form must agree exactly. Integral points
    # are checked against the rows too.
    rng = SplitMix64(77)
    seen = {True: 0, False: 0}
    for _ in range(300):
        model, _ = _random_mixed_model(rng)
        for v in model.variables:
            if v.lb == -milp.INF and rng.randint(0, 1):
                v.ub = float(rng.randint(-3, 3))
        for v in model.variables:
            if rng.randint(0, 2) == 0:
                v.lb = v.ub = float(rng.randint(-2, 2))
        form = milp._form(model)
        N, basis, nb, art, decode = milp._standardize(form)
        ref = _loop_standardize(model)
        # The dictionary is the reference's non-basic columns and rhs; the
        # basic ones it leaves out are unit vectors.
        other = [j for j in range(ref[0].shape[1] - 1) if j not in ref[1]]
        assert basis.tolist() == ref[1] and nb.tolist() == other
        assert np.array_equal(N, ref[0][:, other + [-1]])
        assert np.array_equal(ref[0][:, ref[1]], np.eye(len(ref[1])))
        assert art == len(ref[2])
        c = decode.columns(form.cost[None], art)[0]
        assert np.array_equal(c, ref[2])
        assert float(form.cost @ decode.val) == ref[3]
        # A point, and the point cut down to the upper bounds, which are
        # rows too.
        x = np.array([float(rng.randint(-1, 2)) for _ in model.variables])
        bounds = [({j: 1.0}, "<=", v.ub)
                  for j, v in enumerate(model.variables)
                  if v.lb < v.ub < milp.INF]
        for point in (x, np.minimum(x, form.ub)):
            worst = 0.0
            for coefs, sense, b in model.constraints + bounds:
                lhs = sum(a * point[j] for j, a in coefs.items())
                worst = max(worst, {"<=": lhs - b, ">=": b - lhs}.get(
                    sense, abs(lhs - b)))
            feasible = milp._feasible(form, point)
            assert feasible == (worst <= milp.FEAS_TOL)
            seen[feasible] += 1
    assert min(seen.values()) >= 30


def _cold_branch_and_bound(model):
    """Status and value of the model by a depth-first branch-and-bound
    whose every node is solved cold by ``milp._relax``, its fixings pinned
    as lb = ub, and which stops as "unbounded" at an unbounded node: the
    reference for the warm-started nodes of ``solve_milp``."""
    form = milp._form(model)
    bins = form.binaries.tolist()
    best = math.inf
    stack = [{}]
    while stack:
        fixed = stack.pop()
        lb, ub = form.lb.copy(), form.ub.copy()
        lb[list(fixed)] = ub[list(fixed)] = list(fixed.values())
        lp = milp._relax(form._replace(lb=lb, ub=ub))
        if lp.status == "infeasible":
            continue
        if lp.status == "unbounded":
            return "unbounded", None
        if lp.value >= best - milp.FEAS_TOL:
            continue
        frac = [j for j in bins
                if abs(lp.x[j] - round(lp.x[j])) > milp.INT_TOL]
        if frac:
            stack += [{**fixed, frac[0]: v} for v in (0.0, 1.0)]
            continue
        x = lp.x.copy()
        x[bins] = np.round(x[bins])
        if milp._feasible(form, x):
            best = lp.value
    if best == math.inf:
        return "infeasible", None
    return "optimal", best


def _seeded_knapsack_model(rng: SplitMix64, n: int):
    """max v x over n binaries under two random weight rows at half
    their total weight, as min -v x."""
    m = milp.MilpModel()
    xs = [m.add_binary() for _ in range(n)]
    for _ in range(2):
        w = {x: rng.randint(1, 30) for x in xs}
        m.add_constraint(w, "<=", sum(w.values()) // 2)
    m.set_objective({x: -rng.randint(1, 40) for x in xs})
    return m


def _stopped_after(monkeypatch, model, limit: int):
    """``solve_milp`` of the model on a clock that reads 0, 1, 2, ... at
    the nodes it pops, with the deadline that stops it after ``limit``
    nodes."""
    with monkeypatch.context() as clock:
        clock.setattr(milp, "time",
                      SimpleNamespace(monotonic=itertools.count().__next__))
        return milp.solve_milp(model, deadline=limit - 0.5)


def test_engine_counters_repeat_and_respect_node_limit(monkeypatch):
    model = _seeded_knapsack_model(SplitMix64(8), 14)
    first, again = milp.solve_milp(model), milp.solve_milp(model)
    # The pivot path is pinned: a kernel change that picks another
    # entering column or leaving row moves these counts.
    assert (first.status, -first.value) == ("optimal", 185.0)
    assert (first.nodes, first.pivots) == (17, 31)
    assert (first.nodes, first.pivots) == (again.nodes, again.pivots)
    limited = _stopped_after(monkeypatch, model, 3)
    assert limited.status == "time_limit" and limited.nodes == 3
    assert 0 < limited.pivots < first.pivots
    monkeypatch.setattr(milp, "NODE_LIMIT", 3)
    with pytest.raises(ScaleError, match=r"node limit \(3\)"):
        milp.solve_milp(model)
    assert milp._relax(milp._form(model)).pivots > 0


def _milp_outcome(model):
    """``solve_milp``'s result, or None when it refuses an unbounded
    relaxation."""
    try:
        return milp.solve_milp(model)
    except ScaleError:
        return None


def _seeded_models():
    """Models, each with the sign of its drawn objective (-1 where it is
    maximized, as the minimum of its negation).  The mixed stream covers
    free, shifted and bounded continuous variables and unbounded nodes but
    seldom branches; the pure-binary and knapsack streams branch several
    levels deep."""
    mixed, binary = SplitMix64(4711), SplitMix64(4712)
    models = [_random_mixed_model(mixed) for _ in range(400)]
    models += [(m, sign) for m, _, sign in
               (_random_binary_model(binary) for _ in range(300))]
    models += [(_seeded_knapsack_model(binary, 6 + k % 7), -1)
               for k in range(40)]
    return models


def test_warm_started_nodes_match_cold_reference():
    seen, warm = {}, 0
    for model, _ in _seeded_models():
        status, value = _cold_branch_and_bound(model)
        seen[status] = seen.get(status, 0) + 1
        if status == "unbounded":
            with pytest.raises(ScaleError, match="unbounded"):
                milp.solve_milp(model)
            continue
        res = milp.solve_milp(model)
        assert res.status == status
        if status == "optimal":
            assert res.value == pytest.approx(value, rel=1e-6, abs=1e-6)
            assert milp._feasible(milp._form(model),
                                  np.array(res.assignment))
            warm += res.nodes > 1
    assert min(seen.values()) >= 30 and warm >= 100


def _with_rows(model, rows):
    """A copy of the model with the given rows appended."""
    more = copy.deepcopy(model)
    for row in rows:
        more.add_constraint(*row)
    return more


def _hidden_rows(model, rng: SplitMix64, k: int):
    """k random integer rows over the model's variables."""
    return [({j: float(rng.randint(-3, 3)) for j in range(len(model.variables))
              if rng.randint(0, 1)}, "<=" if rng.randint(0, 1) else ">=",
             float(rng.randint(-4, 4))) for _ in range(k)]


def _excess(row, x) -> float:
    """How far x violates the row (<= 0 when it holds)."""
    coefs, sense, rhs = row
    lhs = sum(a * x[j] for j, a in coefs.items())
    return lhs - rhs if sense == "<=" else rhs - lhs


def test_lazy_rows_match_cold_solve_of_the_whole_model():
    # A pure-binary model keeps some random rows hidden from the engine; a
    # callback returns those its integral points violate.  The search must
    # end where a cold solve of the model with every row ends.  Each point
    # meets every row returned before it, and each tree bound is a bound
    # on the optimum.  Every second model pins some binaries, which have
    # no tableau column, so lazy rows over them put their coefficients in
    # the rhs.
    rng, pins = SplitMix64(4714), SplitMix64(4716)
    binary = SplitMix64(4712)
    models = [_random_binary_model(binary)[0] for _ in range(150)]
    models += [_seeded_knapsack_model(binary, 6 + k % 7) for k in range(40)]
    models = [_pinned(m, pins) if k % 2 else m for k, m in enumerate(models)]
    seen, appended, on_pinned = {}, 0, 0
    for model in models:
        hidden = _hidden_rows(model, rng, 1 + rng.randint(0, 3))
        whole = milp.solve_milp(_with_rows(model, hidden))
        returned, bounds = [], []

        def lazy(x, bound):
            assert all(_excess(row, x) <= milp.FEAS_TOL for row in returned)
            bounds.append(bound)
            rows = [row for row in hidden if _excess(row, x) > 0.5]
            returned.extend(rows)
            value = sum(a * x[j] for j, a in model.objective.items())
            return (math.inf if rows else value), rows

        res = milp.solve_milp(model, lazy=lazy)
        assert res.status == whole.status, model
        seen[res.status] = seen.get(res.status, 0) + 1
        appended += bool(returned)
        on_pinned += any(model.variables[j].lb == model.variables[j].ub
                         for coefs, _, _ in returned for j in coefs)
        if res.status == "optimal":
            assert res.value == pytest.approx(whole.value, abs=1e-6)
            assert res.bound == res.value
            assert milp._feasible(milp._form(_with_rows(model, hidden)),
                                  np.array(res.assignment))
            assert all(b <= res.value + 1e-6 for b in bounds)
    assert appended >= 50 and on_pinned >= 20
    assert min(seen.get(s, 0) for s in ("optimal", "infeasible")) >= 20


def test_lazy_row_that_holds_at_its_point_raises():
    # A row the point already meets would be appended again and again.
    model = _seeded_knapsack_model(SplitMix64(8), 8)
    holds = ({0: 1.0}, "<=", 1.0)
    with pytest.raises(InternalError, match="lazy row"):
        milp.solve_milp(model, lazy=lambda x, bound: (0.0, [holds]))


def test_lazy_values_in_ints_read_as_floats():
    # Scenario generation's callback values its points in Python ints; the
    # result's value and bound are floats all the same, as a report's JSON
    # writes them.
    model = _seeded_knapsack_model(SplitMix64(8), 8)

    def lazy(x, bound):
        return round(sum(a * x[j] for j, a in model.objective.items())), []

    res = milp.solve_milp(model, lazy=lazy)
    assert res.status == "optimal" and res.value == res.bound
    assert type(res.value) is float and type(res.bound) is float


def test_limits_stop_with_a_bound_on_the_optimum(monkeypatch):
    # A search stopped by its deadline reports the better of its incumbent
    # and the weakest open node as its bound; a clock that ticks once per
    # node stops it after each number of nodes short of the full search.
    # Held to that number of nodes by NODE_LIMIT instead, it raises.
    checked = 0
    for model, _ in _seeded_models()[400::3]:
        res = milp.solve_milp(model)
        assert res.status in ("optimal", "infeasible")
        if res.status == "optimal":
            assert res.bound == res.value
        for limit in range(1, res.nodes):
            limited = _stopped_after(monkeypatch, model, limit)
            assert limited.status == "time_limit" and limited.nodes == limit
            with monkeypatch.context() as limits:
                limits.setattr(milp, "NODE_LIMIT", limit)
                with pytest.raises(ScaleError, match="node limit"):
                    milp.solve_milp(model)
            if res.status == "optimal":
                assert limited.bound <= res.value + 1e-6
                if limited.assignment:
                    assert limited.value >= res.value - 1e-6
                    assert limited.bound <= limited.value
            checked += 1
        stopped = milp.solve_milp(model, deadline=0.0)
        assert (stopped.status, stopped.nodes) == ("time_limit", 0)
        assert stopped.bound == -math.inf
        late = milp.solve_milp(model, deadline=time.monotonic() + 3600.0)
        assert (late.status, late.assignment, late.nodes) == (
            res.status, res.assignment, res.nodes)
    assert checked >= 100


def _dense_objective(model) -> list[float]:
    """The model's objective coefficients, one per variable."""
    return [model.objective.get(j, 0.0) for j in range(len(model.variables))]


def test_warm_root_with_new_objective_matches_cold_solve():
    # One held model per chain; each step gives it new random costs, whose
    # sign flips every third step (a maximized model minimizes the negated
    # costs), and its solve starts from the last solve's root LP, which
    # prices the new objective.  A chain ends at a model whose relaxation
    # is unbounded, which both solves refuse.
    rng = SplitMix64(4715)
    seen, warm = {}, 0
    for model, sign in _seeded_models()[::4]:
        held = milp.HeldRows(model)
        try:
            cold = milp.solve_milp(model)
        except ScaleError:  # an unbounded relaxation: no root LP to start from
            continue
        res = milp.solve_repriced(held, _dense_objective(model))
        assert (res.status, res.assignment) == (cold.status, cold.assignment)
        for step in range(6):
            if held.root is None:
                break
            model = copy.deepcopy(model)
            if step % 3 == 2:
                sign = -sign
            cost = [sign * rng.randint(-5, 5) for _ in model.variables]
            model.set_objective(dict(enumerate(cost)))
            warm += 1
            try:
                cold = milp.solve_milp(model)
            except ScaleError:
                with pytest.raises(ScaleError, match="unbounded"):
                    milp.solve_repriced(held, cost)
                seen["unbounded"] = seen.get("unbounded", 0) + 1
                break
            res = milp.solve_repriced(held, cost)
            assert res.status == cold.status, model
            seen[res.status] = seen.get(res.status, 0) + 1
            if res.status == "optimal":
                assert res.value == pytest.approx(cold.value, abs=1e-6)
                assert milp._feasible(milp._form(model),
                                      np.array(res.assignment))
        # An objective has one coefficient per variable.
        with pytest.raises(InputError):
            milp.solve_repriced(held, _dense_objective(model) + [1.0])
    assert warm >= 300
    assert min(seen.get(s, 0) for s in ("optimal", "infeasible")) >= 20
    assert seen.get("unbounded", 0) >= 5


def test_entering_column_falls_back_past_a_column_without_pivot():
    # A dictionary over model columns 0-2, with 3 and 4 basic.  Column 0
    # has the most negative reduced cost but no positive entry.  The next
    # candidate by reduced cost is column 2 (-2), not column 1 (-1, the
    # next by index).  Its pivot on row 1 makes 2 basic and gives its
    # dictionary column to 4, and it leaves column 0 with no positive
    # entry and no other candidate: the ray is unbounded.
    N = np.array([[-1.0, 1.0, 1.0, 4.0],
                  [0.0, 1.0, 1.0, 2.0]])
    z = np.array([-3.0, -1.0, -2.0, 0.0])
    basis, nb = np.array([3, 4]), np.array([0, 1, 2])
    assert milp._run_simplex(N, z, basis, nb) == ("unbounded", 1)
    assert basis.tolist() == [3, 2] and nb.tolist() == [0, 1, 4]
    assert N.tolist() == [[-1.0, 0.0, -1.0, 2.0], [0.0, 1.0, 1.0, 2.0]]
    assert z.tolist() == [-3.0, 1.0, 2.0, 4.0]


def test_ratio_test_tie_rules_and_empty_lines():
    # Ratios 2, 2, 2 + 2e-9 and 2 + 1e-8: the first three tie within 1e-9
    # relative (3e-9 here), the last does not.
    num = np.array([2.0, 4.0, 3 * (2 + 2e-9), 4 * (2 + 1e-8)])
    den = np.array([1.0, 2.0, 3.0, 4.0])
    keys = np.array([7, 3, 5, 1])
    # The largest den among the ties, else the lowest key among them.
    assert milp._ratio_test(num, den, keys, False) == (2, 2.0)
    assert milp._ratio_test(num, den, keys, True) == (1, 2.0)
    # A negative num reads as 0; an entry at or below MIN_PIVOT has no
    # ratio, whatever its num.
    num = np.array([-1e-12, 5.0, -3.0])
    den = np.array([1e-3, 1.0, milp.MIN_PIVOT])
    assert milp._ratio_test(num, den, keys[:3], False) == (0, 0.0)
    none = (-1, math.inf)
    for bland in (False, True):
        assert milp._ratio_test(np.zeros(0), np.zeros(0),
                                np.zeros(0, int), bland) == none
        assert milp._ratio_test(np.ones(4), np.array(
            [milp.MIN_PIVOT, -1.0, 0.0, 5e-8]), keys, bland) == none


def test_entering_orders_candidates_by_keys():
    # Columns 0 and 2 tie on the reduced cost, column 3 has no positive
    # entry, and column 1's reduced cost is below -PIVOT_TOL but not
    # below -FEAS_TOL.
    N = np.array([[1.0, 0.0, 1.0, -1.0, 1.0],
                  [0.0, 2.0, 1.0, 0.0, 1.0]])
    red = np.array([-3.0, -1e-8, -3.0, -5.0])
    nb = np.array([4, 0, 2, 1])
    # By reduced cost, stable: 3 (no pivot), then 0 before 2.
    assert milp._entering(N, red, red, milp.FEAS_TOL) == 0
    N[0, 0] = 0.0
    assert milp._entering(N, red, red, milp.FEAS_TOL) == 2
    # By model column (Bland's rule): 1 first, at the smaller tolerance.
    assert milp._entering(N, red, nb, milp.PIVOT_TOL) == 1
    N[:, :3] = -1.0
    assert milp._entering(N, red, nb, milp.PIVOT_TOL) == -1
    assert milp._entering(N, red, red, milp.FEAS_TOL) == -1


def test_stall_switches_blands_rule_on_for_good(monkeypatch):
    # A ratio above FEAS_TOL resets the count of degenerate pivots; the
    # second in a row switches Bland's rule on, and no reset turns it off.
    monkeypatch.setattr(milp, "BLAND_AFTER", 2)
    state = (0, False)
    for ratio, want in ((0.0, (1, False)), (1.0, (0, False)),
                        (0.0, (1, False)), (milp.FEAS_TOL, (2, True)),
                        (1.0, (0, True)), (0.0, (1, True))):
        state = milp._stall(*state, ratio)
        assert state == want


def _whole_pivot(T, z, basis, r, c):
    """The pivot of a whole tableau ``[columns | rhs]`` on row r and
    column c, basic columns included: the reference for the dictionary's
    ``milp._pivot``."""
    row = T[r] / T[r, c]
    T -= np.outer(T[:, c], row)
    T[r] = row
    z -= z[c] * row
    basis[r] = c


def _bland_pivot(T, z, basis):
    """Bland's rule on a whole tableau: the lowest column with a reduced
    cost below -PIVOT_TOL and an entry above MIN_PIVOT, and the row of
    the lowest basic column among the ratio test's ties; None if no
    column has both."""
    for c in range(T.shape[1] - 1):
        col = T[:, c]
        if z[c] < -milp.PIVOT_TOL and (col > milp.MIN_PIVOT).any():
            pos = col > milp.MIN_PIVOT
            ratios = np.where(pos, np.maximum(T[:, -1], 0.0)
                              / np.where(pos, col, 1.0), np.inf)
            best = ratios.min()
            rows = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + best))
            return int(rows[np.argmin(basis[rows])]), c
    return None


def test_dictionary_pivots_match_the_whole_tableau():
    # A random tableau and its dictionary take the same seeded sequence of
    # pivots, each on a random entry or by Bland's rule, whose entering
    # candidates the dictionary orders by ``nb``.  After every step the
    # tableau rebuilt from N, ``basis`` and ``nb`` equals the whole one,
    # bit for bit.
    rng = SplitMix64(2718)
    steps, bland, reordered = 0, 0, 0
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        order = list(range(m + n))
        for i in range(len(order) - 1, 0, -1):
            k = rng.randint(0, i)
            order[i], order[k] = order[k], order[i]
        basis, nb = np.array(order[:m]), np.array(sorted(order[m:]))
        N = np.array([[rng.randint(-999, 999) / 7.0 for _ in range(n)]
                      + [rng.randint(0, 999) / 3.0] for _ in range(m)])
        z = np.array([rng.randint(-999, 999) / 11.0 for _ in range(n + 1)])
        T = np.zeros((m, m + n + 1))
        T[:, nb], T[:, -1] = N[:, :-1], N[:, -1]
        T[np.arange(m), basis] = 1.0
        zt = np.zeros(m + n + 1)
        zt[nb], zt[-1] = z[:-1], z[-1]
        tbasis = basis.copy()
        for _ in range(10):
            if rng.randint(0, 1):
                step = _bland_pivot(T, zt, tbasis)
                p = milp._entering(N, z[:-1], nb, milp.PIVOT_TOL)
                if step is None:
                    assert p == -1
                    continue
                r, c = step
                assert nb[p] == c
                first = int(np.flatnonzero((z[:-1] < -milp.PIVOT_TOL) & (
                    N[:, :-1] > milp.MIN_PIVOT).any(0))[0])
                reordered += first != p
                bland += 1
            else:
                r = rng.randint(0, m - 1)
                big = np.flatnonzero(np.abs(N[r, :-1]) > 0.5)
                if not big.size:
                    continue
                p = int(big[rng.randint(0, len(big) - 1)])
                c = nb[p]
            _whole_pivot(T, zt, tbasis, r, c)
            milp._pivot(N, z, basis, nb, r, p)
            steps += 1
            rebuilt = np.zeros_like(T)
            rebuilt[:, nb], rebuilt[:, -1] = N[:, :-1], N[:, -1]
            rebuilt[np.arange(m), basis] = 1.0
            zr = np.zeros_like(zt)
            zr[nb], zr[-1] = z[:-1], z[-1]
            assert basis.tolist() == tbasis.tolist()
            assert np.array_equal(rebuilt, T) and np.array_equal(zr, zt)
    assert steps >= 300 and bland >= 100 and reordered >= 10


@pytest.mark.parametrize("entries", [1, 24])
def test_pivot_blocks_match_one_whole_update(monkeypatch, entries):
    # Every model here fits one pivot block by default.  Blocks of one row
    # (a row wider than the budget still makes a block), or of a few, give
    # the same pivots and the same bits.
    # A model whose relaxation is unbounded raises either way.
    models = [model for model, _ in _seeded_models()[::7]]
    whole = [_milp_outcome(m) for m in models]
    monkeypatch.setattr(milp, "_PIVOT_ENTRIES", entries)
    for model, res in zip(models, whole):
        if res is None:
            with pytest.raises(ScaleError, match="unbounded"):
                milp.solve_milp(model)
            continue
        blocked = milp.solve_milp(model)
        assert (blocked.status, blocked.assignment, blocked.nodes,
                blocked.pivots) == (res.status, res.assignment, res.nodes,
                                    res.pivots)
        assert blocked.value == res.value or math.isnan(res.value)


@pytest.mark.parametrize("check", [test_highs_agrees_on_random_mixed_models,
                                   test_warm_started_nodes_match_cold_reference])
def test_blands_rule_keeps_the_answers(monkeypatch, check):
    # With BLAND_AFTER at 0 both simplex loops switch to Bland's rule at
    # their first degenerate pivot; the default never reaches it on these
    # models.
    monkeypatch.setattr(milp, "BLAND_AFTER", 0)
    check()
