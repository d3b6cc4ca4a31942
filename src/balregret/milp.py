"""Self-contained bounded-scale mixed-binary linear programming.

A dense two-phase tableau simplex plus a depth-first branch-and-bound.
Each solve reads the model into arrays once (``_form``), and every node
builds its tableau and checks its point from those arrays.  Phase 1
starts from the slack basis wherever a row's slack can be basic and
carries artificials only for the other rows.  Models at desk scale only;
simplicity and debuggability over sparsity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import InputError, InternalError, ScaleError

PIVOT_TOL = 1e-9
MIN_PIVOT = 1e-7  # smallest tableau entry accepted as a pivot element
FEAS_TOL = 1e-7
INT_TOL = 1e-6
BLAND_AFTER = 1000
DEFAULT_NODE_LIMIT = 10**6
_MAX_PIVOTS = 200_000
# Largest phase-1 tableau allocated, in float64 entries (400 MB); a larger
# LP raises ScaleError instead.
MAX_TABLEAU_ENTRIES = 5 * 10**7

INF = math.inf
_SLACK_COEF = {"<=": 1.0, "=": 0.0, ">=": -1.0}


@dataclass
class Variable:
    kind: str  # "binary" | "continuous"
    lb: float
    ub: float


@dataclass
class MilpModel:
    """Variables, sparse linear constraints, and a linear objective."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[tuple[dict[int, float], str, float]] = field(
        default_factory=list
    )
    objective_sense: str = "min"
    objective: dict[int, float] = field(default_factory=dict)

    def add_binary(self) -> int:
        self.variables.append(Variable("binary", 0.0, 1.0))
        return len(self.variables) - 1

    def add_continuous(self, lb: float = 0.0, ub: float = INF) -> int:
        if lb > ub:
            raise InputError("lower bound above upper bound")
        self.variables.append(Variable("continuous", lb, ub))
        return len(self.variables) - 1

    def add_constraint(
        self, coefs: dict[int, float], sense: str, rhs: float
    ) -> None:
        if sense not in ("<=", "=", ">="):
            raise InputError(f"unknown sense {sense!r}")
        for j in coefs:
            if not (0 <= j < len(self.variables)):
                raise InputError(f"constraint references unknown variable {j}")
        coefs = {j: float(v) for j, v in coefs.items() if v != 0.0}
        self.constraints.append((coefs, sense, float(rhs)))

    def set_objective(self, sense: str, coefs: dict[int, float]) -> None:
        if sense not in ("min", "max"):
            raise InputError(f"unknown objective sense {sense!r}")
        for j in coefs:
            if not (0 <= j < len(self.variables)):
                raise InputError(f"objective references unknown variable {j}")
        self.objective_sense = sense
        self.objective = {j: float(v) for j, v in coefs.items()}

    def binary_indices(self) -> list[int]:
        return [
            j for j, v in enumerate(self.variables) if v.kind == "binary"
        ]


@dataclass
class MilpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "node_limit"
    value: float
    assignment: list[float]


class _Unbounded(Exception):
    pass


class _Form(NamedTuple):
    """A model read into arrays: rows ``A x (sense) b``, where each row's
    slack enters with +1 ("<="), -1 (">=") or not at all ("="); bounds
    ``lb <= x <= ub``; min-sense costs; the objective sign; the binaries."""

    A: np.ndarray
    b: np.ndarray
    slack: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    cost: np.ndarray
    sign: float
    binaries: np.ndarray


def _form(model: MilpModel) -> _Form:
    """Read the model into arrays.  A dense ``A`` above MAX_TABLEAU_ENTRIES
    raises ScaleError before it is allocated: every tableau of the model
    without fixings is larger still."""
    rows, variables = model.constraints, model.variables
    if len(rows) * len(variables) > MAX_TABLEAU_ENTRIES:
        raise ScaleError(f"model of {len(rows)} x {len(variables)} exceeds "
                         f"{MAX_TABLEAU_ENTRIES} entries")
    A = np.zeros((len(rows), len(variables)))
    for i, (coefs, _, _) in enumerate(rows):
        A[i, list(coefs)] = list(coefs.values())
    sign = 1.0 if model.objective_sense == "min" else -1.0
    cost = np.zeros(len(variables))
    cost[list(model.objective)] = list(model.objective.values())
    return _Form(
        A,
        np.array([b for _, _, b in rows], dtype=float),
        np.array([_SLACK_COEF[sense] for _, sense, _ in rows], dtype=float),
        np.array([v.lb for v in variables], dtype=float),
        np.array([v.ub for v in variables], dtype=float),
        sign * cost,
        sign,
        np.flatnonzero([v.kind == "binary" for v in variables]),
    )


def _standardize(form: _Form, fixed: dict[int, float]):
    """Phase-1 tableau of min cᵀx', Ax' (sense) b, x' >= 0, b >= 0.

    Fixed variables are substituted out; finite lower bounds are shifted,
    free variables are split (the negative part's column right after the
    positive part's), finite upper bounds become extra rows after the
    model's, in variable order.  The columns are [structural | slacks |
    artificials | rhs].  Rows with a negative rhs are negated, and so are
    ">=" rows with rhs 0; a row whose slack then enters with +1 starts
    with that slack basic (the slack crash basis), and only "=" rows and
    rows left with a surplus slack get an artificial.  Returns the
    tableau, the starting basis, the phase-2 costs of the structural and
    slack columns, the objective constant, and a decoder back to model
    space.
    """
    free = form.lb == -INF
    val = np.where(free, 0.0, form.lb)  # fixed values and lower-bound shifts
    keep = np.ones(len(val), dtype=bool)
    if fixed:
        idx = np.fromiter(fixed, np.intp, len(fixed))
        val[idx] = np.fromiter(fixed.values(), float, len(fixed))
        keep[idx] = False
    split = free & keep
    span = keep.astype(np.intp) + split  # columns per variable: 0, 1 or 2
    col = np.cumsum(span) - span  # first column of each kept variable
    ncols = int(span.sum())
    pos, neg = col[keep], col[split] + 1
    bounded = np.flatnonzero(keep & (form.ub < INF))

    # Per row: the rhs, the sign that makes it non-negative (-1 also for
    # ">=" rows with rhs 0) and the slack's coefficient after that sign
    # (0 for "=" rows, which have no slack).
    rhs = np.concatenate([form.b - form.A @ val,
                          form.ub[bounded] - val[bounded]])
    slack = np.concatenate([form.slack, np.ones(len(bounded))])
    s = np.where((rhs < 0) | ((rhs == 0) & (slack < 0)), -1.0, 1.0)
    slack *= s
    has_slack, has_art = slack != 0.0, slack <= 0.0
    m, m0 = len(rhs), len(form.b)
    art = ncols + int(has_slack.sum())
    width = art + int(has_art.sum()) + 1
    if m * width > MAX_TABLEAU_ENTRIES:
        raise ScaleError(f"LP tableau of {m} x {width} exceeds "
                         f"{MAX_TABLEAU_ENTRIES} entries")

    T = np.zeros((m, width))
    T[:m0, pos] = form.A[:, keep]
    T[:m0, neg] -= form.A[:, split]
    brow, bcol = m0 + np.arange(len(bounded)), col[bounded]
    bsplit = free[bounded]  # a split variable's bound holds both parts
    T[brow, bcol] = 1.0
    T[brow[bsplit], bcol[bsplit] + 1] = -1.0
    T[s < 0, :ncols] *= -1
    slack_col = ncols + np.cumsum(has_slack) - 1
    art_col = art + np.cumsum(has_art) - 1
    T[has_slack, slack_col[has_slack]] = slack[has_slack]
    T[has_art, art_col[has_art]] = 1.0
    T[:, -1] = np.abs(rhs)
    basis = np.where(has_art, art_col, slack_col)

    c = np.zeros(art)
    c[pos] += form.cost[keep]
    c[neg] -= form.cost[split]
    const = float(form.cost @ val)

    def decode(xstd: np.ndarray) -> np.ndarray:
        x = val.copy()
        x[keep] += xstd[pos]
        x[split] -= xstd[neg]
        return x

    return T, basis, c, const, decode


def _pivot(T: np.ndarray, z: np.ndarray, basis: np.ndarray, r: int, c: int):
    piv = T[r, c]
    T[r] /= piv
    col = T[:, c].copy()
    col[r] = 0.0
    # Rank-1 update restricted to rows the entering column touches.
    nz = np.nonzero(col)[0]
    if nz.size:
        T[nz] -= col[nz, None] * T[r]
    z -= z[c] * T[r]
    basis[r] = c


def _reduced_costs(T: np.ndarray, c: np.ndarray, basis: np.ndarray):
    """Objective row of T for costs c: reduced costs, then the negated
    objective value."""
    z = np.zeros(T.shape[1])
    z[:-1] = c - c[basis] @ T[:, :-1]
    z[-1] = -(c[basis] @ T[:, -1])
    return z


def _run_simplex(T: np.ndarray, z: np.ndarray, basis: np.ndarray) -> None:
    """Iterate the tableau to optimality of the current objective row.

    ``z`` holds reduced costs (last entry: negated objective value).
    Raises _Unbounded if a negative reduced-cost column has no pivot row.
    """
    degenerate = 0
    bland = False
    for _ in range(_MAX_PIVOTS):
        red = z[:-1]
        if not bland:
            cand = np.where(red < -FEAS_TOL)[0]
            if cand.size == 0:
                return
            cand = cand[np.argsort(red[cand], kind="stable")]
        else:
            cand = np.where(red < -PIVOT_TOL)[0]
            if cand.size == 0:
                return
        # A column with no positive entry certifies an unbounded ray, but
        # roundoff can also produce a barely negative reduced cost on such
        # a column; try the remaining candidates before giving up.
        c = -1
        for cj in cand:
            if (T[:, cj] > MIN_PIVOT).any():
                c = int(cj)
                break
        if c < 0:
            raise _Unbounded()
        col = T[:, c]
        pos = col > MIN_PIVOT
        rhs = np.maximum(T[:, -1], 0.0)  # ignore roundoff drift below zero
        ratios = np.full(col.shape, np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        best = ratios.min()
        ties = np.where(ratios <= best + 1e-9 * (1.0 + best))[0]
        if bland:
            r = ties[np.argmin(basis[ties])]
        else:
            r = ties[np.argmax(col[ties])]  # largest pivot for stability
        if best <= FEAS_TOL:
            degenerate += 1
            if degenerate >= BLAND_AFTER:
                bland = True  # sticky: do not revert once stalling is seen
        else:
            degenerate = 0
        _pivot(T, z, basis, int(r), int(c))
    raise ScaleError("simplex pivot limit exceeded")


def _relax(form: _Form, fixed: dict[int, float]):
    """Status, min-sense value and point (None unless optimal) of the LP."""
    T, basis, c, const, decode = _standardize(form, fixed)
    art = len(c)

    # Phase 1: minimize the sum of the artificials, from the crash basis.
    c1 = np.zeros(T.shape[1] - 1)
    c1[art:] = 1.0
    z1 = _reduced_costs(T, c1, basis)
    try:
        _run_simplex(T, z1, basis)
    except _Unbounded:  # phase 1 is bounded below by zero
        raise InternalError("phase-1 unbounded") from None
    if -z1[-1] > 1e-6:
        return "infeasible", math.nan, None

    # Drive artificials out of the basis or drop their rows.
    keep = np.ones(len(basis), dtype=bool)
    for i in np.flatnonzero(basis >= art):
        cands = np.where(np.abs(T[i, :art]) > MIN_PIVOT)[0]
        if cands.size:
            _pivot(T, z1, basis, i, int(cands[0]))
        else:
            keep[i] = False
    T = np.hstack([T[keep, :art], T[keep, -1:]])
    basis = basis[keep]

    # Phase 2: the model's objective over the structural and slack columns.
    z2 = _reduced_costs(T, c, basis)
    try:
        _run_simplex(T, z2, basis)
    except _Unbounded:
        return "unbounded", -math.inf, None
    x = np.zeros(art)
    x[basis] = T[:, -1]
    return "optimal", float(c @ x) + const, decode(x)


def solve_lp(
    model: MilpModel, fixed: Optional[dict[int, float]] = None
) -> MilpResult:
    """Solve the continuous relaxation (binaries relaxed to [0, 1])."""
    form = _form(model)
    status, value, x = _relax(form, fixed or {})
    return MilpResult(status, form.sign * value,
                      [] if x is None else x.tolist())


def _feasible(form: _Form, x: np.ndarray) -> bool:
    """Whether x meets every model row within FEAS_TOL."""
    excess = form.A @ x - form.b
    violation = np.where(form.slack == 0.0, np.abs(excess),
                         form.slack * excess)
    return bool((violation <= FEAS_TOL).all())


def solve_milp(
    model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT
) -> MilpResult:
    """Exact optimum by depth-first branch-and-bound over the binaries.

    Branches on the binary with fractional part closest to 0.5 (ties
    within 1e-12 go to the lowest index), exploring the
    rounding-toward-incumbent child first.
    """
    form = _form(model)
    bins = form.binaries

    best_value = math.inf  # in minimization orientation
    best_x: Optional[np.ndarray] = None
    limited = False

    stack: list[dict[int, float]] = [{}]
    nodes = 0
    while stack:
        fixed = stack.pop()
        nodes += 1
        if nodes > node_limit:
            limited = True
            break
        status, bound, x = _relax(form, fixed)
        if status == "infeasible":
            continue
        if status == "unbounded":
            free = bins[~np.isin(bins, list(fixed))]
            if not free.size:
                return MilpResult("unbounded", -form.sign * math.inf, [])
            # No relaxation point to guide branching; split the first
            # unfixed binary and keep searching.
            stack.append({**fixed, int(free[0]): 1.0})
            stack.append({**fixed, int(free[0]): 0.0})
            continue
        if bound >= best_value - FEAS_TOL:
            continue
        xb = x[bins]
        f = xb - np.floor(xb)
        dist = np.where(np.minimum(f, 1 - f) > INT_TOL, np.abs(f - 0.5), INF)
        if not (dist < INF).any():
            x[bins] = np.round(xb) + 0.0  # as round(): 0.0, never -0.0
            if _feasible(form, x):
                best_value, best_x = bound, x
            continue
        k = int(np.argmax(dist <= dist.min() + 1e-12))
        j = int(bins[k])
        first = float(round(best_x[j] if best_x is not None else f[k]))
        # Depth-first: the preferred child is pushed last (popped first).
        stack.append({**fixed, j: 1.0 - first})
        stack.append({**fixed, j: first})

    if best_x is None:
        return MilpResult("node_limit" if limited else "infeasible",
                          math.nan, [])
    return MilpResult("node_limit" if limited else "optimal",
                      form.sign * best_value, best_x.tolist())


def write_lp(model: MilpModel, path: str) -> None:
    """Dump the model in LP text format for external cross-checking."""

    def term(coefs: dict[int, float]) -> str:
        parts = []
        for j in sorted(coefs):
            a = coefs[j]
            sign = "+" if a >= 0 else "-"
            parts.append(f"{sign} {abs(a):g} x{j}")
        return " ".join(parts) if parts else "0"

    lines = [f"{model.objective_sense}imize", f" obj: {term(model.objective)}"]
    lines.append("subject to")
    for k, (coefs, sense, rhs) in enumerate(model.constraints):
        lines.append(f" c{k}: {term(coefs)} {sense} {rhs:g}")
    lines.append("bounds")
    for j, var in enumerate(model.variables):
        lo = "-inf" if var.lb == -INF else f"{var.lb:g}"
        hi = "+inf" if var.ub == INF else f"{var.ub:g}"
        lines.append(f" {lo} <= x{j} <= {hi}")
    bins = model.binary_indices()
    if bins:
        lines.append("binary")
        lines.append(" " + " ".join(f"x{j}" for j in bins))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
