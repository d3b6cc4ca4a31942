"""Self-contained bounded-scale mixed-binary linear programming.

A dense two-phase tableau simplex plus a depth-first branch-and-bound.
Phase 1 starts from the slack basis wherever a row's slack can be basic
and carries artificials only for the other rows.  Models at desk scale
only; simplicity and debuggability over sparsity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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


def _standardize(
    model: MilpModel, fixed: Optional[dict[int, float]] = None
):
    """Phase-1 tableau of min cᵀx', Ax' (sense) b, x' >= 0, b >= 0.

    Fixed variables are substituted out; finite lower bounds are shifted,
    free variables are split, finite upper bounds become extra rows.  The
    columns are [structural | slacks | artificials | rhs].  Rows with a
    negative rhs are negated, and so are ">=" rows with rhs 0; a row whose
    slack then enters with +1 starts with that slack basic (the slack
    crash basis), and only "=" rows and rows left with a surplus slack get
    an artificial.  Returns the tableau, the starting basis, the phase-2
    costs of the structural and slack columns, the objective constant and
    sign, and a decoder back to model space.
    """
    fixed = fixed or {}
    col_of: list[Optional[tuple[int, float, Optional[int]]]] = []
    ncols = 0
    rows = list(model.constraints)
    for j, var in enumerate(model.variables):
        if j in fixed:
            col_of.append(None)
            continue
        if var.lb == -INF:
            col_of.append((ncols, 0.0, ncols + 1))
            ncols += 2
        else:
            col_of.append((ncols, var.lb, None))
            ncols += 1
        if var.ub < INF:
            rows.append(({j: 1.0}, "<=", var.ub))

    def offset(coefs: dict[int, float]) -> float:
        """The constant that fixed values and lower-bound shifts add."""
        return sum(a * fixed[j] if j in fixed
                   else a * col_of[j][1]  # type: ignore[index]
                   for j, a in coefs.items())

    def expand(coefs: dict[int, float], row: np.ndarray) -> None:
        """Add coefs into row over the shifted and split columns."""
        for j, a in coefs.items():
            if j in fixed:
                continue
            col, _, negcol = col_of[j]  # type: ignore[misc]
            row[col] += a
            if negcol is not None:
                row[negcol] -= a

    # Per row: the sign that makes its rhs non-negative (-1 also for ">="
    # rows with rhs 0), its slack's coefficient after that sign (0 for "="
    # rows, which have no slack) and the rhs.
    signed = []
    for coefs, sense, b in rows:
        rhs = b - offset(coefs)
        s = -1.0 if rhs < 0 or (rhs == 0 and sense == ">=") else 1.0
        signed.append((s, s * _SLACK_COEF[sense], abs(rhs)))
    m = len(rows)
    art = ncols + sum(sc != 0.0 for _, sc, _ in signed)
    width = art + sum(sc <= 0.0 for _, sc, _ in signed) + 1
    if m * width > MAX_TABLEAU_ENTRIES:
        raise ScaleError(f"LP tableau of {m} x {width} exceeds "
                         f"{MAX_TABLEAU_ENTRIES} entries")

    T = np.zeros((m, width))
    basis = np.empty(m, dtype=np.intp)
    slack, artcol = ncols, art
    for i, ((coefs, _, _), (s, slack_coef, rhs)) in enumerate(
        zip(rows, signed)
    ):
        expand(coefs, T[i, :ncols])
        if s < 0:
            T[i, :ncols] *= -1
        if slack_coef != 0.0:
            T[i, slack] = slack_coef
            slack += 1
        if slack_coef > 0.0:
            basis[i] = slack - 1
        else:
            T[i, artcol] = 1.0
            basis[i] = artcol
            artcol += 1
        T[i, -1] = rhs

    sign = 1.0 if model.objective_sense == "min" else -1.0
    objective = {j: sign * v for j, v in model.objective.items()}
    c = np.zeros(art)
    expand(objective, c)
    const = offset(objective)

    def decode(xstd: np.ndarray) -> list[float]:
        out = []
        for j, var in enumerate(model.variables):
            if j in fixed:
                out.append(fixed[j])
                continue
            col, shift, negcol = col_of[j]  # type: ignore[misc]
            v = xstd[col] + shift
            if negcol is not None:
                v -= xstd[negcol]
            out.append(float(v))
        return out

    return T, basis, c, const, sign, decode


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


def solve_lp(
    model: MilpModel, fixed: Optional[dict[int, float]] = None
) -> MilpResult:
    """Solve the continuous relaxation (binaries relaxed to [0, 1])."""
    T, basis, c, const, sign, decode = _standardize(model, fixed)
    m, art = T.shape[0], len(c)

    # Phase 1: minimize the sum of the artificials, from the crash basis.
    c1 = np.zeros(T.shape[1] - 1)
    c1[art:] = 1.0
    z1 = _reduced_costs(T, c1, basis)
    try:
        _run_simplex(T, z1, basis)
    except _Unbounded:  # phase 1 is bounded below by zero
        raise InternalError("phase-1 unbounded") from None
    if -z1[-1] > 1e-6:
        return MilpResult("infeasible", math.nan, [])

    # Drive artificials out of the basis or drop their rows.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= art:
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
        return MilpResult("unbounded", -sign * math.inf, [])
    x = np.zeros(art)
    x[basis] = T[:, -1]
    return MilpResult("optimal", sign * (float(c @ x) + const), decode(x))


def _violation(model: MilpModel, xs: Sequence[float]) -> float:
    worst = 0.0
    for coefs, sense, rhs in model.constraints:
        lhs = sum(a * xs[j] for j, a in coefs.items())
        if sense == "<=":
            worst = max(worst, lhs - rhs)
        elif sense == ">=":
            worst = max(worst, rhs - lhs)
        else:
            worst = max(worst, abs(lhs - rhs))
    return worst


def solve_milp(
    model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT
) -> MilpResult:
    """Exact optimum by depth-first branch-and-bound over the binaries.

    Branches on the binary with fractional part closest to 0.5 (ties go to
    the lowest index), exploring the rounding-toward-incumbent child first.
    """
    binaries = model.binary_indices()
    sign = 1.0 if model.objective_sense == "min" else -1.0

    best_value = math.inf  # in minimization orientation
    best_assign: Optional[list[float]] = None
    limited = False

    stack: list[dict[int, float]] = [{}]
    nodes = 0
    while stack:
        fixed = stack.pop()
        nodes += 1
        if nodes > node_limit:
            limited = True
            break
        res = solve_lp(model, fixed)
        if res.status == "infeasible":
            continue
        if res.status == "unbounded":
            free = [j for j in binaries if j not in fixed]
            if not free:
                return MilpResult("unbounded", -sign * math.inf, [])
            # No relaxation point to guide branching; split the first
            # unfixed binary and keep searching.
            stack.append({**fixed, free[0]: 1.0})
            stack.append({**fixed, free[0]: 0.0})
            continue
        bound = sign * res.value
        if bound >= best_value - FEAS_TOL:
            continue
        xs = res.assignment
        frac_var = -1
        frac_dist = 2.0
        for j in binaries:
            f = xs[j] - math.floor(xs[j])
            if min(f, 1 - f) > INT_TOL:
                dist = abs(f - 0.5)
                if dist < frac_dist - 1e-12:
                    frac_dist = dist
                    frac_var = j
        if frac_var < 0:
            snapped = list(xs)
            for j in binaries:
                snapped[j] = float(round(snapped[j]))
            if _violation(model, snapped) <= FEAS_TOL:
                if bound < best_value - FEAS_TOL:
                    best_value = bound
                    best_assign = snapped
            continue
        f = xs[frac_var] - math.floor(xs[frac_var])
        if best_assign is not None:
            first = float(round(best_assign[frac_var]))
        else:
            first = float(round(f))
        second = 1.0 - first
        # Depth-first: the preferred child is pushed last (popped first).
        stack.append({**fixed, frac_var: second})
        stack.append({**fixed, frac_var: first})

    if best_assign is None:
        if limited:
            return MilpResult("node_limit", math.nan, [])
        return MilpResult("infeasible", math.nan, [])
    status = "node_limit" if limited else "optimal"
    return MilpResult(status, sign * best_value, best_assign)


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
