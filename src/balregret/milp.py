"""Self-contained bounded-scale mixed-binary linear programming.

A dense two-phase tableau simplex plus a depth-first branch-and-bound.
Each solve reads the model into arrays once (``_form``).  Only the root is
cold-started: its tableau is built from those arrays, and phase 1 starts
from the slack basis wherever a row's slack can be basic and carries
artificials only for the other rows.  Every other node is warm-started: it
adds its branching bound as one row to its parent's final tableau and
restores feasibility with a dual simplex from the parent's basis.  An
unbounded relaxation is settled by the same search with a zero objective,
which looks for an integral point.  A caller that already holds an
objective value may pass it as ``cutoff``: nodes that cannot beat it are
pruned, and a search that finds nothing better ends with status
"cutoff".  Models at desk scale only; simplicity and debuggability over
sparsity: a pivot costs a fixed number of numpy calls on a dense
tableau.
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
# A pivot updates its tableau in blocks of whole rows of at most this many
# entries (512 KB): one block for every tableau on the perfbench call lists.
_PIVOT_ENTRIES = 2**16
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


@dataclass
class MilpResult:
    # "optimal" | "infeasible" | "unbounded" | "node_limit" | "cutoff"
    status: str
    value: float
    assignment: list[float]
    nodes: int = 0  # LP relaxations solved
    pivots: int = 0  # simplex pivots over all of them, cold and warm


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


def _zeros(rows: int, cols: int, what: str) -> np.ndarray:
    """A zero array of ``rows`` x ``cols`` float64 entries, or ScaleError
    before allocating one above MAX_TABLEAU_ENTRIES."""
    if rows * cols > MAX_TABLEAU_ENTRIES:
        raise ScaleError(f"{what} of {rows} x {cols} exceeds "
                         f"{MAX_TABLEAU_ENTRIES} entries")
    return np.zeros((rows, cols))


def _form(model: MilpModel) -> _Form:
    """Read the model into arrays.  A dense ``A`` above MAX_TABLEAU_ENTRIES
    raises ScaleError before it is allocated: every tableau of the model is
    larger still."""
    rows, variables = model.constraints, model.variables
    A = _zeros(len(rows), len(variables), "model")
    # Every row's coefficients in one scatter.
    A[np.repeat(np.arange(len(rows)), [len(coefs) for coefs, _, _ in rows]),
      [j for coefs, _, _ in rows for j in coefs]] = [
        a for coefs, _, _ in rows for a in coefs.values()]
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


class _Decode(NamedTuple):
    """Map from tableau columns back to model space: the lower-bound
    shifts ``val``, the ``split`` free variables, and each variable's first
    column ``col`` (a split variable's negative part is the next one)."""

    val: np.ndarray
    split: np.ndarray
    col: np.ndarray

    def __call__(self, xstd: np.ndarray) -> np.ndarray:
        x = self.val + xstd[self.col]
        x[self.split] -= xstd[self.col[self.split] + 1]
        return x


def _standardize(form: _Form):
    """Phase-1 tableau of min cᵀx', Ax' (sense) b, x' >= 0, b >= 0.

    Finite lower bounds are shifted, free variables are split (the
    negative part's column right after the positive part's), finite upper
    bounds become extra rows after the model's, in variable order.  The
    columns are [structural | slacks | artificials | rhs].  Rows with a
    negative rhs are negated, and so are ">=" rows with rhs 0; a row whose
    slack then enters with +1 starts with that slack basic (the slack
    crash basis), and only "=" rows and rows left with a surplus slack get
    an artificial.  Returns the tableau, the starting basis, the phase-2
    costs of the structural and slack columns, the objective constant, and
    a decoder back to model space.
    """
    split = form.lb == -INF
    val = np.where(split, 0.0, form.lb)  # lower-bound shifts
    span = 1 + split.astype(np.intp)  # columns per variable: 1 or 2
    col = np.cumsum(span) - span  # first column of each variable
    ncols = int(span.sum())
    neg = col[split] + 1
    bounded = np.flatnonzero(form.ub < INF)

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
    T = _zeros(m, art + int(has_art.sum()) + 1, "LP tableau")
    T[:m0, col] = form.A
    T[:m0, neg] -= form.A[:, split]
    brow, bcol = m0 + np.arange(len(bounded)), col[bounded]
    bsplit = split[bounded]  # a split variable's bound holds both parts
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
    c[col] += form.cost
    c[neg] -= form.cost[split]
    const = float(form.cost @ val)
    return T, basis, c, const, _Decode(val, split, col)


def _pivot(T: np.ndarray, z: np.ndarray, basis: np.ndarray, r: int, c: int):
    row = T[r] / T[r, c]
    # A rank-1 update in place: at desk sizes a pivot's cost is its number
    # of numpy calls, not the entries they touch.  Its one temporary, the
    # size of a block, stays small next to a tall tableau.
    step = max(1, _PIVOT_ENTRIES // T.shape[1])
    for k in range(0, len(T), step):
        block = T[k:k + step]
        block -= block[:, c, None] * row
    T[r] = row
    z -= z[c] * row
    basis[r] = c


def _reduced_costs(T: np.ndarray, c: np.ndarray, basis: np.ndarray):
    """Objective row of T for costs c: reduced costs, then the negated
    objective value."""
    z = np.zeros(T.shape[1])
    z[:-1] = c - c[basis] @ T[:, :-1]
    z[-1] = -(c[basis] @ T[:, -1])
    return z


def _entering(T: np.ndarray, red: np.ndarray, bland: bool) -> int:
    """The first candidate column with an entry above MIN_PIVOT, or -1.

    Candidates are the columns whose reduced cost is below -PIVOT_TOL in
    index order (Bland's rule), or else below -FEAS_TOL from the most
    negative reduced cost up, ties in index order.
    """
    if bland:
        cand = np.flatnonzero(red < -PIVOT_TOL)
    else:
        cand = np.flatnonzero(red < -FEAS_TOL)
        cand = cand[np.argsort(red[cand], kind="stable")]
    for j in cand:
        if (T[:, j] > MIN_PIVOT).any():
            return int(j)
    return -1


def _run_simplex(T: np.ndarray, z: np.ndarray,
                 basis: np.ndarray) -> tuple[str, int]:
    """Iterate the tableau to optimality of the current objective row.

    ``z`` holds reduced costs (last entry: negated objective value).
    Returns "optimal", or "unbounded" when a negative reduced-cost column
    has no pivot row, and the number of pivots made.  Outside Bland's
    rule the entering column is the most negative reduced cost (the
    lowest index among ties); the ratio test takes the row with the
    largest pivot among the ties for the smallest ratio.
    """
    if z.size == 1:  # no columns
        return "optimal", 0
    degenerate = 0
    bland = False
    for pivots in range(_MAX_PIVOTS):
        red = z[:-1]
        c = int(red.argmin())
        if red[c] >= -(PIVOT_TOL if bland else FEAS_TOL):
            return "optimal", pivots
        col = T[:, c]
        pos = col > MIN_PIVOT
        if bland or not pos.any():
            # A column with no positive entry certifies an unbounded ray,
            # but roundoff can also produce a barely negative reduced cost
            # on such a column; try the remaining candidates before
            # giving up.
            c = _entering(T, red, bland)
            if c < 0:
                return "unbounded", pivots
            col = T[:, c]
            pos = col > MIN_PIVOT
        # Clipping the rhs at zero ignores roundoff drift below it.
        ratios = np.divide(np.maximum(T[:, -1], 0.0), col,
                           out=np.full(len(col), np.inf), where=pos)
        best = ratios.min()
        ties = ratios <= best + 1e-9 * (1.0 + best)
        if bland:
            rows = np.flatnonzero(ties)
            r = int(rows[np.argmin(basis[rows])])
        else:  # the largest pivot for stability
            r = int(np.where(ties, col, -np.inf).argmax())
        if best <= FEAS_TOL:
            degenerate += 1
            if degenerate >= BLAND_AFTER:
                bland = True  # sticky: do not revert once stalling is seen
        else:
            degenerate = 0
        _pivot(T, z, basis, r, c)
    raise ScaleError("simplex pivot limit exceeded")


def _dual_simplex(T: np.ndarray, z: np.ndarray, basis: np.ndarray,
                  limit: float) -> tuple[str, int]:
    """Restore primal feasibility of a dual-feasible tableau.

    Returns "optimal" once no rhs is below -FEAS_TOL, "infeasible" when a
    negative row has no negative entry to pivot on, and "cutoff" when the
    objective without its constant, ``-z[-1]``, reaches ``limit -
    FEAS_TOL``: the dual objective only rises, so the LP's optimum is at
    least that.  Also returns the number of pivots made.
    """
    degenerate = 0
    bland = False
    for pivots in range(_MAX_PIVOTS):
        rhs = T[:, -1]
        r = int(rhs.argmin())  # the most negative rhs
        if rhs[r] >= -FEAS_TOL:
            return "optimal", pivots
        if -z[-1] >= limit - FEAS_TOL:
            return "cutoff", pivots
        if bland:
            rows = np.flatnonzero(rhs < -FEAS_TOL)
            r = int(rows[np.argmin(basis[rows])])
        a = T[r, :-1]
        neg = a < -MIN_PIVOT
        if not neg.any():
            return "infeasible", pivots
        ratios = np.divide(np.maximum(z[:-1], 0.0), -a,
                           out=np.full(len(a), np.inf), where=neg)
        best = ratios.min()
        ties = ratios <= best + 1e-9 * (1.0 + best)
        if bland:
            c = int(ties.argmax())  # the lowest index
        else:  # the largest |a_rk| for stability
            c = int(np.where(ties, a, np.inf).argmin())
        if best <= FEAS_TOL:
            degenerate += 1
            if degenerate >= BLAND_AFTER:
                bland = True
        else:
            degenerate = 0
        _pivot(T, z, basis, r, c)
    raise ScaleError("simplex pivot limit exceeded")


class _Tableau(NamedTuple):
    """A solved LP's final phase-2 tableau ``[structural | slacks | rhs]``
    with its reduced-cost row ``z``, basis and column costs, the objective
    constant, and the decoder back to model space.

    ``N`` keeps only the non-basic columns and the rhs, in column order:
    the basic columns are unit vectors, and on a master with many scenario
    rows they are most of the tableau.  A node's tableau waits on the
    stack until its second child is popped, one per depth level.
    """

    N: np.ndarray
    z: np.ndarray
    basis: np.ndarray
    c: np.ndarray
    const: float
    decode: _Decode


class _LP(NamedTuple):
    """One node's LP: status, min-sense value, model-space point and final
    tableau (both None unless optimal), and the pivots it took."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "cutoff"
    value: float
    x: Optional[np.ndarray]
    pivots: int
    tableau: Optional[_Tableau] = None


def _optimum(T: np.ndarray, z: np.ndarray, basis: np.ndarray,
             c: np.ndarray, const: float, decode: _Decode, pivots: int) -> _LP:
    """The optimal LP of a final phase-2 tableau, keeping its tableau."""
    x = np.zeros(len(c))
    x[basis] = T[:, -1]
    other = np.ones(T.shape[1], dtype=bool)
    other[basis] = False
    return _LP("optimal", float(c @ x) + const, decode(x), pivots,
               _Tableau(T[:, other], z, basis, c, const, decode))


def _relax(form: _Form) -> _LP:
    """The LP relaxation, cold-started from its phase-1 tableau."""
    T, basis, c, const, decode = _standardize(form)
    art = len(c)

    # Phase 1: minimize the sum of the artificials, from the crash basis.
    c1 = np.zeros(T.shape[1] - 1)
    c1[art:] = 1.0
    z1 = _reduced_costs(T, c1, basis)
    status, pivots = _run_simplex(T, z1, basis)
    if status == "unbounded":  # phase 1 is bounded below by zero
        raise InternalError("phase-1 unbounded")
    if -z1[-1] > 1e-6:
        return _LP("infeasible", math.nan, None, pivots)

    # Drive artificials out of the basis or drop their rows.
    keep = np.ones(len(basis), dtype=bool)
    for i in np.flatnonzero(basis >= art):
        cands = np.where(np.abs(T[i, :art]) > MIN_PIVOT)[0]
        if cands.size:
            _pivot(T, z1, basis, i, int(cands[0]))
            pivots += 1
        else:
            keep[i] = False
    T = T[np.ix_(keep, np.r_[:art, -1])]  # one copy, without artificials
    basis = basis[keep]

    # Phase 2: the model's objective over the structural and slack columns.
    z2 = _reduced_costs(T, c, basis)
    status, more = _run_simplex(T, z2, basis)
    if status == "unbounded":
        return _LP("unbounded", -math.inf, None, pivots + more)
    return _optimum(T, z2, basis, c, const, decode, pivots + more)


def _branch(tab: _Tableau, j: int, up: bool, cutoff: float) -> _LP:
    """The LP of a child of a solved node: the node's LP plus x_j >= 1
    (``up``) or x_j <= 0, warm-started from the node's final tableau.

    The fractional x_j is basic in some row r, x_j + a x_N = beta.  The
    bound becomes the row a x_N + s = beta - 1 (up) or -a x_N + s = -beta,
    whose own slack s starts basic at a negative rhs.  The node's reduced
    costs stay dual-feasible, so the dual simplex restores feasibility,
    and one primal pass clears any dual infeasibility roundoff left.  A
    child whose objective reaches ``cutoff - FEAS_TOL`` stops as "cutoff".
    """
    m, w = len(tab.basis), len(tab.c) + 1  # w counts the rhs column
    col = tab.decode.col[j]
    r = np.flatnonzero(tab.basis == col)
    if r.size != 1:
        raise InternalError(f"branching variable {j} is not basic")
    # The node's tableau with a zero column for the new slack (column
    # w - 1) before the rhs, then the new row.
    T = _zeros(m + 1, w + 1, "LP tableau")
    other = np.ones(w + 1, dtype=bool)
    other[tab.basis] = False
    other[w - 1] = False
    T[:m, other] = tab.N
    T[np.arange(m), tab.basis] = 1.0
    sign = 1.0 if up else -1.0
    T[m, :w - 1] = sign * T[r[0], :w - 1]
    T[m, [col, w - 1]] = 0.0, 1.0
    T[m, -1] = sign * T[r[0], -1] - up
    z = np.concatenate((tab.z[:-1], [0.0], tab.z[-1:]))
    basis = np.append(tab.basis, w - 1)
    status, pivots = _dual_simplex(T, z, basis, cutoff - tab.const)
    if status == "optimal":
        status, more = _run_simplex(T, z, basis)
        pivots += more
    if status != "optimal":
        return _LP(status, -math.inf if status == "unbounded" else math.nan,
                   None, pivots)
    return _optimum(T, z, basis, np.append(tab.c, 0.0), tab.const,
                    tab.decode, pivots)


def solve_lp(model: MilpModel) -> MilpResult:
    """Solve the continuous relaxation (binaries relaxed to [0, 1])."""
    form = _form(model)
    lp = _relax(form)
    return MilpResult(lp.status, form.sign * lp.value,
                      [] if lp.x is None else lp.x.tolist(), 1, lp.pivots)


def _feasible(form: _Form, x: np.ndarray) -> bool:
    """Whether x meets every model row within FEAS_TOL."""
    excess = form.A @ x - form.b
    violation = np.where(form.slack == 0.0, np.abs(excess),
                         form.slack * excess)
    return bool((violation <= FEAS_TOL).all())


def solve_milp(
    model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT,
    cutoff: Optional[float] = None,
) -> MilpResult:
    """Exact optimum by depth-first branch-and-bound over the binaries.

    Branches on the binary with fractional part closest to 0.5 (ties
    within 1e-12 go to the lowest index), exploring the
    rounding-toward-incumbent child first.  Each child is warm-started
    from its parent's final tableau (``_branch``); only the root is
    solved cold (``_relax``).  ``nodes`` counts every LP solved, those of
    the zero-objective search for an unbounded model included.

    ``cutoff`` is an objective value the caller already holds, in the
    model's sense: a node whose bound does not beat it (lie below it for
    "min", above it for "max") by FEAS_TOL is pruned as if the value were
    the incumbent's.  When the search then ends with no incumbent and
    some node was pruned that way, the status is "cutoff", with no
    assignment: no point beats the cutoff.  The cutoff takes no part in
    the zero-objective search.
    """
    form = _form(model)
    bins = form.binaries

    # In minimization orientation: the incumbent's value, and until there
    # is one, the cutoff.
    best_value = math.inf if cutoff is None else form.sign * cutoff
    best_x: Optional[np.ndarray] = None
    limited = unbounded = pruned = False

    # Each entry: the node's branch record (the value each branched binary
    # is bound to), its parent's tableau (None at the root) and the binary
    # branched last.  Both children of a node share its tableau, which is
    # freed once both are popped.
    root: tuple[dict[int, float], Optional[_Tableau], int] = ({}, None, -1)
    stack = [root]
    nodes = pivots = 0
    while stack:
        if nodes == node_limit:
            limited = True
            break
        # Release the last node's tableau before this node allocates its
        # own: held through the solve, it raised the peak resident memory.
        lp = None
        fixed, parent, j = stack.pop()
        nodes += 1
        if parent is None:
            lp = _relax(form)
        else:
            lp = _branch(parent, j, fixed[j] == 1.0, best_value)
        pivots += lp.pivots
        if lp.status == "infeasible":
            continue
        if lp.status == "cutoff":
            pruned = True
            continue
        if lp.status == "unbounded":
            # Every binary lies in [0, 1], so the improving ray moves only
            # continuous variables: the model is unbounded exactly when it
            # has an integral point.  Without an incumbent, search for one
            # from the root with a zero objective, whose bound 0 says
            # nothing about the cutoff.
            unbounded = True
            if best_x is not None:
                break
            form = form._replace(cost=np.zeros_like(form.cost))
            best_value, pruned = math.inf, False
            stack = [root]
            continue
        bound, x = lp.value, lp.x
        if bound >= best_value - FEAS_TOL:
            pruned = True
            continue
        xb = x[bins]
        f = xb - np.floor(xb)
        dist = np.where(np.minimum(f, 1 - f) > INT_TOL, np.abs(f - 0.5), INF)
        if not (dist < INF).any():
            x[bins] = np.round(xb) + 0.0  # as round(): 0.0, never -0.0
            if _feasible(form, x):
                best_value, best_x = bound, x
                if unbounded:
                    break
            continue
        k = int(np.argmax(dist <= dist.min() + 1e-12))
        j = int(bins[k])
        if j in fixed:  # a branch row that does not hold would recur forever
            raise InternalError(f"binary {j} is fractional below its branch")
        first = float(round(best_x[j] if best_x is not None else f[k]))
        # Depth-first: the preferred child is pushed last (popped first).
        stack.append(({**fixed, j: 1.0 - first}, lp.tableau, j))
        stack.append(({**fixed, j: first}, lp.tableau, j))

    if best_x is None:
        status = ("node_limit" if limited else "cutoff" if pruned
                  else "infeasible")
        return MilpResult(status, math.nan, [], nodes, pivots)
    if unbounded:
        return MilpResult("unbounded", -form.sign * math.inf, [], nodes,
                          pivots)
    return MilpResult("node_limit" if limited else "optimal",
                      form.sign * best_value, best_x.tolist(), nodes, pivots)
