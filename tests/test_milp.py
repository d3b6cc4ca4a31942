"""The bundled LP/MILP solver against hand solutions and exhaustion."""

import copy
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from balregret.core import InputError, InternalError, ScaleError
from balregret.instances import SplitMix64
from balregret import milp


def test_lp_known_optimum():
    # max 3a + 2b s.t. a + b <= 4, a <= 2
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    b = m.add_continuous(0.0)
    m.add_constraint({a: 1.0, b: 1.0}, "<=", 4.0)
    m.add_constraint({a: 1.0}, "<=", 2.0)
    m.set_objective("max", {a: 3.0, b: 2.0})
    res = milp.solve_lp(m)
    assert res.status == "optimal"
    assert res.value == pytest.approx(10.0)
    assert res.assignment == pytest.approx([2.0, 2.0])


def test_lp_equality_and_lower_bounds():
    m = milp.MilpModel()
    a = m.add_continuous(1.0, 5.0)
    b = m.add_continuous(-milp.INF)
    m.add_constraint({a: 1.0, b: 1.0}, "=", 3.0)
    m.set_objective("min", {a: 1.0, b: 2.0})
    res = milp.solve_lp(m)
    # push a to its upper bound, b picks up the slack
    assert res.status == "optimal"
    assert res.value == pytest.approx(5.0 + 2.0 * (-2.0))


def test_free_variable_with_finite_upper_bound():
    # a = a+ - a- is free with a <= -2, so its bound row must hold both
    # parts: with a+ <= -2 alone, a+ >= 0 would make the model infeasible.
    m = milp.MilpModel()
    a = m.add_continuous(-milp.INF, -2.0)
    m.add_constraint({a: 1.0}, ">=", -5.0)
    m.set_objective("max", {a: 1.0})
    res = milp.solve_lp(m)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-2.0)
    assert res.assignment == pytest.approx([-2.0])


@pytest.mark.parametrize("ub", [3.0, -3.0])
def test_milp_free_variable_with_finite_upper_bound(ub):
    # max a + b with a free, a <= ub and b binary is ub + 1.
    m = milp.MilpModel()
    a = m.add_continuous(-milp.INF, ub)
    b = m.add_binary()
    m.set_objective("max", {a: 1.0, b: 1.0})
    res = milp.solve_milp(m)
    assert res.status == "optimal"
    assert res.value == pytest.approx(ub + 1.0)
    assert res.assignment == pytest.approx([ub, 1.0])


def test_lp_infeasible():
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    m.add_constraint({a: 1.0}, ">=", 2.0)
    m.add_constraint({a: 1.0}, "<=", 1.0)
    m.set_objective("min", {a: 1.0})
    assert milp.solve_lp(m).status == "infeasible"


def test_lp_unbounded(monkeypatch):
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    b = m.add_continuous(0.0)
    m.add_constraint({a: 1.0, b: -1.0}, "<=", 1.0)
    m.set_objective("max", {b: 1.0})
    assert milp.solve_lp(m).status == "unbounded"
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
        m.set_objective("min", {free: 1.0})
        assert milp.solve_lp(m).status == "unbounded"
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
    m.set_objective("min", {a: 1.0, b: 2.0})
    res = milp.solve_lp(m)
    assert res.status == "optimal"
    assert res.value == -2.5
    assert res.assignment == [1.5, -2.0]
    m.set_objective("max", {a: -1.0, b: -2.0})
    assert milp.solve_lp(m).value == 2.5
    # A free variable the objective pushes down has no bound at all.
    free = m.add_continuous(-milp.INF)
    m.set_objective("min", {a: 1.0, free: 1.0})
    res = milp.solve_lp(m)
    assert res.status == "unbounded" and res.value == -math.inf
    m.set_objective("max", {free: 1.0})
    res = milp.solve_lp(m)
    assert res.status == "unbounded" and res.value == math.inf
    with pytest.raises(ScaleError, match="unbounded"):
        milp.solve_milp(m)
    # No variables at all: the tableau is its rhs column alone.
    empty = milp.MilpModel()
    for solve in (milp.solve_lp, milp.solve_milp):
        res = solve(empty)
        assert (res.status, res.value, res.assignment) == ("optimal", 0.0, [])


def test_tableau_guard_raises_before_allocating():
    # 7,100 "<=" rows over one variable, each starting from its slack: a
    # 7,100 x 7,102 phase-1 tableau of about 5.04 * 10^7 float64 entries
    # (403 MB), just above the guard.
    narrow = milp.MilpModel()
    a = narrow.add_continuous(0.0)
    for k in range(7100):
        narrow.add_constraint({a: 1.0}, "<=", float(k + 1))
    narrow.set_objective("max", {a: 1.0})
    assert 7100 * 7102 > milp.MAX_TABLEAU_ENTRIES
    # 7,100 "<=" rows over 7,100 variables, row k holding variable k only:
    # the dense model alone has 7,100 x 7,100 entries, also above it.
    square = milp.MilpModel()
    for k in range(7100):
        x = square.add_continuous(0.0)
        square.add_constraint({x: 1.0}, "<=", 1.0)
    square.set_objective("max", {0: 1.0})
    assert 7100 * 7100 > milp.MAX_TABLEAU_ENTRIES
    for m in (narrow, square):
        tracemalloc.start()
        try:
            with pytest.raises(ScaleError):
                milp.solve_milp(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def test_crash_basis_puts_artificials_only_where_needed():
    # One row of each sense with positive, zero and negative rhs, plus the
    # upper-bound row of a. Feasible points: a = 3 - 2d, b = d, c = 2 - d
    # for d in [0, 1]; max 2b + c = 2 + d is 3 at d = 1.
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
    m.set_objective("max", {b: 2.0, c: 1.0})
    T, basis, cost, *_ = milp._standardize(milp._form(m))
    art = len(cost)
    assert T.shape == (10, art + 5 + 1) and art == 4 + 7
    assert [i for i in range(10) if basis[i] >= art] == [2, 3, 4, 5, 6]
    assert (T[:, -1] >= 0).all()
    res = milp.solve_lp(m)
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.0)
    assert res.assignment == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_model_validation():
    m = milp.MilpModel()
    a = m.add_continuous(0.0)
    with pytest.raises(InputError):
        m.add_constraint({a + 7: 1.0}, "<=", 1.0)
    with pytest.raises(InputError):
        m.add_constraint({a: 1.0}, "<", 1.0)
    with pytest.raises(InputError):
        m.set_objective("minimize", {a: 1.0})
    with pytest.raises(InputError):
        m.add_continuous(2.0, 1.0)


def _random_binary_model(rng: SplitMix64):
    """A random pure-binary model with <= rows; may be infeasible."""
    n = 2 + rng.randint(0, 4)
    rows = 1 + rng.randint(0, 3)
    m = milp.MilpModel()
    xs = [m.add_binary() for _ in range(n)]
    sense = "min" if rng.randint(0, 1) == 0 else "max"
    m.set_objective(
        sense, {x: rng.randint(0, 20) - 10 for x in xs}
    )
    for _ in range(rows):
        coefs = {x: rng.randint(0, 12) - 4 for x in xs}
        m.add_constraint(coefs, "<=" if rng.randint(0, 1) else ">=",
                         rng.randint(0, 10) - 2)
    return m, xs, sense


def _brute_binary(model, xs, sense):
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
        if best is None:
            best = val
        else:
            best = min(best, val) if sense == "min" else max(best, val)
    return best


def test_milp_matches_exhaustive_search():
    rng = SplitMix64(1701)
    solved = 0
    for _ in range(150):
        model, xs, sense = _random_binary_model(rng)
        res = milp.solve_milp(model)
        expect = _brute_binary(model, xs, sense)
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
    m.set_objective("min", {y: 1.0, x1: -3.0, x2: -2.0})
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
        m.set_objective("max", {x: 1.0, e1: 2.0, e2: 1.0})
        return m, milp.solve_milp(m)

    _, full = solve(lambda m: m.add_binary())
    mixed_model, mixed = solve(lambda m: m.add_continuous(0.0, 1.0))
    assert [v.kind for v in mixed_model.variables] == [
        "binary", "continuous", "continuous"]
    assert full.status == mixed.status == "optimal"
    assert mixed.value == pytest.approx(full.value) == pytest.approx(2.0)
    assert mixed.assignment[0] in (0.0, 1.0)


def test_node_limit_reports_status(monkeypatch):
    rng = SplitMix64(99)
    model, _, _ = _random_binary_model(rng)
    monkeypatch.setattr(milp, "NODE_LIMIT", 1)
    res = milp.solve_milp(model)
    assert res.status in ("node_limit", "optimal", "infeasible")


def _random_mixed_model(rng: SplitMix64):
    """A random model over binaries, free variables and shifted, possibly
    bounded continuous variables, with rows of every sense and rhs sign."""
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
    m.set_objective(("min", "max")[rng.randint(0, 1)],
                    {j: rng.randint(-3, 3) for j in range(nv)})
    return m


def _highs(model, relax):
    """Status and value of the model by HiGHS (scipy.optimize.milp).

    HiGHS may report an unbounded model as infeasible (status 2) or with
    status 3 or 4; those are settled by solving the model again with a
    zero objective, which only asks for feasibility. Any other status,
    such as a time or iteration limit, is the oracle's own failure.
    """
    scipy_optimize = pytest.importorskip("scipy.optimize")
    nv = len(model.variables)
    sign = 1.0 if model.objective_sense == "min" else -1.0
    cost = np.zeros(nv)
    for j, v in model.objective.items():
        cost[j] = sign * v
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
        return "optimal", sign * res.fun
    if res.status not in (2, 3, 4):
        pytest.fail(f"HiGHS status {res.status}: {res.message}")
    res = scipy_optimize.milp(np.zeros(nv), **kwargs)
    if res.status not in (0, 2):
        pytest.fail(f"HiGHS feasibility status {res.status}: {res.message}")
    return ("unbounded" if res.status == 0 else "infeasible"), None


def test_highs_agrees_on_random_mixed_models():
    # Branch and bound refuses a model whose relaxation is unbounded; its
    # "unbounded" count is of those refusals.
    rng = SplitMix64(2024)
    seen = {}
    for _ in range(200):
        model = _random_mixed_model(rng)
        # The LP leg pins a random subset of the binaries with lb = ub.
        pinned = copy.deepcopy(model)
        for v in pinned.variables:
            if v.kind == "binary" and rng.randint(0, 1):
                v.lb = v.ub = float(rng.randint(0, 1))
        legs = [("lp", milp.solve_lp(pinned), _highs(pinned, True))]
        if _highs(model, True)[0] == "unbounded":
            with pytest.raises(ScaleError, match="unbounded"):
                milp.solve_milp(model)
            seen["milp", "unbounded"] = seen.get(("milp", "unbounded"), 0) + 1
        else:
            legs.append(("milp", milp.solve_milp(model), _highs(model, False)))
        for kind, ours, theirs in legs:
            assert ours.status == theirs[0]
            seen[kind, ours.status] = seen.get((kind, ours.status), 0) + 1
            if ours.status == "optimal":
                assert ours.value == pytest.approx(theirs[1], rel=1e-6,
                                                   abs=1e-6)
    for kind in ("lp", "milp"):
        for status in ("optimal", "infeasible", "unbounded"):
            assert seen.get((kind, status), 0) >= 20


def _loop_standardize(model):
    """Tableau, starting basis, phase-2 costs and objective constant of
    ``_standardize``, built by a loop over the model's rows and variables:
    the reference for its array form."""
    cols, ncols, rows = {}, 0, list(model.constraints)
    for j, v in enumerate(model.variables):
        free = v.lb == -milp.INF
        cols[j] = (ncols, ncols + 1 if free else None)
        ncols += 2 if free else 1
        if v.ub < milp.INF:
            rows.append(({j: 1.0}, "<=", v.ub))
    shift = [0.0 if v.lb == -milp.INF else v.lb for v in model.variables]

    def expand(coefs, out):
        for j, a in coefs.items():
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
    sign = 1.0 if model.objective_sense == "min" else -1.0
    objective = {j: sign * v for j, v in model.objective.items()}
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
        model = _random_mixed_model(rng)
        for v in model.variables:
            if v.lb == -milp.INF and rng.randint(0, 1):
                v.ub = float(rng.randint(-3, 3))
        for v in model.variables:
            if rng.randint(0, 2) == 0:
                v.lb = v.ub = float(rng.randint(-2, 2))
        form = milp._form(model)
        T, basis, c, const, _ = milp._standardize(form)
        ref = _loop_standardize(model)
        assert np.array_equal(T, ref[0])
        assert basis.tolist() == ref[1]
        assert np.array_equal(c, ref[2]) and const == ref[3]
        x = np.array([float(rng.randint(-1, 2)) for _ in model.variables])
        worst = 0.0
        for coefs, sense, b in model.constraints:
            lhs = sum(a * x[j] for j, a in coefs.items())
            worst = max(worst, {"<=": lhs - b, ">=": b - lhs}.get(
                sense, abs(lhs - b)))
        feasible = milp._feasible(form, x)
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
    return "optimal", form.sign * best


def _seeded_knapsack_model(rng: SplitMix64, n: int):
    """max v x over n binaries under two random weight rows at half
    their total weight."""
    m = milp.MilpModel()
    xs = [m.add_binary() for _ in range(n)]
    for _ in range(2):
        w = {x: rng.randint(1, 30) for x in xs}
        m.add_constraint(w, "<=", sum(w.values()) // 2)
    m.set_objective("max", {x: rng.randint(1, 40) for x in xs})
    return m


def test_engine_counters_repeat_and_respect_node_limit(monkeypatch):
    model = _seeded_knapsack_model(SplitMix64(8), 14)
    first, again = milp.solve_milp(model), milp.solve_milp(model)
    # The pivot path is pinned: a kernel change that picks another
    # entering column or leaving row moves these counts.
    assert (first.status, first.value) == ("optimal", 185.0)
    assert (first.nodes, first.pivots) == (17, 31)
    assert (first.nodes, first.pivots) == (again.nodes, again.pivots)
    monkeypatch.setattr(milp, "NODE_LIMIT", 3)
    limited = milp.solve_milp(model)
    assert limited.status == "node_limit" and limited.nodes == 3
    assert 0 < limited.pivots < first.pivots
    lp = milp.solve_lp(model)
    assert lp.nodes == 1 and lp.pivots > 0


def _milp_outcome(model):
    """``solve_milp``'s result, or None when it refuses an unbounded
    relaxation."""
    try:
        return milp.solve_milp(model)
    except ScaleError:
        return None


def _seeded_models():
    """The mixed stream covers free, shifted and bounded continuous
    variables and unbounded nodes but seldom branches; the pure-binary
    and knapsack streams branch several levels deep."""
    mixed, binary = SplitMix64(4711), SplitMix64(4712)
    models = [_random_mixed_model(mixed) for _ in range(400)]
    models += [_random_binary_model(binary)[0] for _ in range(300)]
    models += [_seeded_knapsack_model(binary, 6 + k % 7) for k in range(40)]
    return models


def test_warm_started_nodes_match_cold_reference():
    seen, warm = {}, 0
    for model in _seeded_models():
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


def _with_row(model, rng: SplitMix64, sense: str = ">="):
    """A copy of the model with one more random row."""
    more = copy.deepcopy(model)
    more.add_constraint(
        {j: rng.randint(-3, 3) for j in range(len(more.variables))
         if rng.randint(0, 1)}, sense, rng.randint(-6, 4))
    return more


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
    # on the optimum.
    rng = SplitMix64(4714)
    binary = SplitMix64(4712)
    models = [_random_binary_model(binary)[0] for _ in range(150)]
    models += [_seeded_knapsack_model(binary, 6 + k % 7) for k in range(40)]
    seen, appended = {}, 0
    for model in models:
        hidden = _hidden_rows(model, rng, 1 + rng.randint(0, 3))
        whole = milp.solve_milp(_with_rows(model, hidden))
        worse = 1.0 if model.objective_sense == "min" else -1.0
        returned, bounds = [], []

        def lazy(x, bound):
            assert all(_excess(row, x) <= milp.FEAS_TOL for row in returned)
            bounds.append(bound)
            rows = [row for row in hidden if _excess(row, x) > 0.5]
            returned.extend(rows)
            value = sum(a * x[j] for j, a in model.objective.items())
            return (worse * math.inf if rows else value), rows

        res = milp.solve_milp(model, lazy=lazy)
        assert res.status == whole.status, model
        seen[res.status] = seen.get(res.status, 0) + 1
        appended += bool(returned)
        if res.status == "optimal":
            assert res.value == pytest.approx(whole.value, abs=1e-6)
            assert res.bound == res.value
            assert milp._feasible(milp._form(_with_rows(model, hidden)),
                                  np.array(res.assignment))
            assert all(worse * b <= worse * res.value + 1e-6 for b in bounds)
    assert appended >= 50
    assert min(seen.get(s, 0) for s in ("optimal", "infeasible")) >= 20


def test_lazy_row_that_holds_at_its_point_raises():
    # A row the point already meets would be appended again and again.
    model = _seeded_knapsack_model(SplitMix64(8), 8)
    holds = ({0: 1.0}, "<=", 1.0)
    with pytest.raises(InternalError, match="lazy row"):
        milp.solve_milp(model, lazy=lambda x, bound: (0.0, [holds]))


def test_limits_stop_with_a_bound_on_the_optimum(monkeypatch):
    # A search stopped by its node limit or its deadline reports the
    # better of its incumbent and the weakest open node as its bound.
    checked = 0
    for model in _seeded_models()[400::3]:
        res = milp.solve_milp(model)
        assert res.status in ("optimal", "infeasible")
        if res.status == "optimal":
            assert res.bound == res.value
        worse = 1.0 if model.objective_sense == "min" else -1.0
        for limit in range(1, res.nodes):
            with monkeypatch.context() as limits:
                limits.setattr(milp, "NODE_LIMIT", limit)
                limited = milp.solve_milp(model)
            assert limited.status == "node_limit" and limited.nodes == limit
            if res.status == "optimal":
                assert worse * limited.bound <= worse * res.value + 1e-6
                if limited.assignment:
                    assert worse * limited.value >= worse * res.value - 1e-6
                    assert worse * limited.bound <= worse * limited.value
            checked += 1
        stopped = milp.solve_milp(model, deadline=0.0)
        assert (stopped.status, stopped.nodes) == ("time_limit", 0)
        assert stopped.bound == -worse * math.inf
        late = milp.solve_milp(model, deadline=time.monotonic() + 3600.0)
        assert (late.status, late.assignment, late.nodes) == (
            res.status, res.assignment, res.nodes)
    assert checked >= 100


def test_warm_root_with_new_objective_matches_cold_solve():
    # Each model of a chain has new random costs in the same sense; its
    # warm solve starts from the last model's root LP, which prices the
    # new objective.  A chain ends at a model whose relaxation is
    # unbounded, which both solves refuse.
    rng = SplitMix64(4715)
    seen, warm = {}, 0
    for model in _seeded_models()[::4]:
        try:
            res = milp.solve_milp(model)
        except ScaleError:  # an unbounded relaxation: no root LP to start from
            continue
        for step in range(6):
            if res.root is None:
                break
            model = copy.deepcopy(model)
            model.set_objective(model.objective_sense, {
                j: rng.randint(-5, 5) for j in range(len(model.variables))})
            warm += 1
            try:
                cold = milp.solve_milp(model)
            except ScaleError:
                with pytest.raises(ScaleError, match="unbounded"):
                    milp.solve_milp(model, root=res.root)
                seen["unbounded"] = seen.get("unbounded", 0) + 1
                break
            res = milp.solve_milp(model, root=res.root)
            assert res.status == cold.status, model
            seen[res.status] = seen.get(res.status, 0) + 1
            if res.status == "optimal":
                assert res.value == pytest.approx(cold.value, abs=1e-6)
                assert milp._feasible(milp._form(model),
                                      np.array(res.assignment))
    assert warm >= 300
    assert min(seen.get(s, 0) for s in ("optimal", "infeasible")) >= 20
    assert seen.get("unbounded", 0) >= 5


def test_warm_root_rejects_another_model():
    model = _seeded_knapsack_model(SplitMix64(9), 8)
    root = milp.solve_milp(model).root
    rng = SplitMix64(10)
    repriced = copy.deepcopy(model)
    repriced.set_objective("max", {0: 1.0})
    assert milp.solve_milp(repriced, root=root).status == "optimal"
    wider = copy.deepcopy(model)
    wider.add_binary()
    bounded = copy.deepcopy(model)
    bounded.variables[0].ub = 0.0
    reordered = copy.deepcopy(model)
    reordered.constraints.reverse()
    flipped = copy.deepcopy(model)
    flipped.set_objective("min", model.objective)
    for other in (wider, bounded, reordered, flipped, _with_row(model, rng),
                  _with_row(model, rng, "=")):
        with pytest.raises(InputError):
            milp.solve_milp(other, root=root)


def test_entering_column_falls_back_past_a_column_without_pivot():
    # Column 0 has the most negative reduced cost but no positive entry.
    # The next candidate by reduced cost is column 2 (-2), not column 1
    # (-1, the next by index).  Its pivot leaves column 0 with no positive
    # entry and no other candidate: the ray is unbounded.
    T = np.array([[-1.0, 1.0, 1.0, 1.0, 0.0, 4.0],
                  [0.0, 1.0, 1.0, 0.0, 1.0, 2.0]])
    z = np.array([-3.0, -1.0, -2.0, 0.0, 0.0, 0.0])
    basis = np.array([3, 4])
    assert milp._run_simplex(T, z, basis) == ("unbounded", 1)
    assert basis.tolist() == [3, 2]
    assert z.tolist() == [-3.0, 1.0, 0.0, 0.0, 2.0, 4.0]


@pytest.mark.parametrize("entries", [1, 24])
def test_pivot_blocks_match_one_whole_update(monkeypatch, entries):
    # Every model here fits one pivot block by default.  Blocks of one row
    # (a row wider than the budget still makes a block), or of a few, give
    # the same pivots and the same bits.
    # A model whose relaxation is unbounded raises either way.
    models = _seeded_models()[::7]
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
