"""Self-contained bounded-scale mixed-binary linear programming.

A dense two-phase tableau simplex plus a depth-first branch-and-bound.
Each solve reads the model into arrays once (``_form``).  At most the root
is cold-started: its tableau is built from those arrays, and phase 1 starts
from the slack basis wherever a row's slack can be basic and carries
artificials only for the other rows.  Every other node is warm-started by
one kernel (``_append_rows``): it adds rows to its parent's final tableau
and restores feasibility with a dual simplex from the parent's basis.  The
rows are the node's branching bound and the lazy rows its parent lacks: a
caller may pass a callback that values each integral point the search
reaches and returns model rows that the point violates, which every node
solved from then on carries (a branch-and-cut tree, as a cutting-plane
loop needs it).  A root may also start from the root of an earlier solve
of a model with the same rows (``root``), as the calls of an evaluator
whose rows do not depend on its input do; the new objective is priced
before the primal pass.  Every model the program builds is bounded, so
an LP that reads unbounded at any node raises ScaleError.  Models at desk
scale only; simplicity and debuggability over sparsity: a pivot costs a
fixed number of numpy calls on a dense tableau.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import InputError, InternalError, ScaleError

PIVOT_TOL = 1e-9
MIN_PIVOT = 1e-7  # smallest tableau entry accepted as a pivot element
FEAS_TOL = 1e-7
INT_TOL = 1e-6
BLAND_AFTER = 1000
# LPs a branch and bound solves before it stops with status "node_limit".
NODE_LIMIT = 10**6
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
    # "optimal" | "infeasible" | "node_limit" | "time_limit"
    status: str
    value: float
    assignment: list[float]
    nodes: int = 0  # LP relaxations solved
    pivots: int = 0  # simplex pivots over all of them, cold and warm
    # The solved root LP, for ``solve_milp(root=...)`` on a model with the
    # same rows; None unless the root LP had an optimum.
    root: Optional[_Root] = field(default=None, repr=False, compare=False)
    # The best bound on the optimum the search proved, in the model's
    # sense: the value when optimal, else the better of the incumbent's
    # value and the weakest bound of a node left open.
    bound: float = math.nan


# A lazy-row callback: (integral point, the tree's bound) -> (the value of
# the point's binaries, model rows the point violates); see ``solve_milp``.
Row = tuple[dict[int, float], str, float]
Lazy = Callable[[np.ndarray, float], tuple[float, list[Row]]]


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


def _rows(rows: list[Row], width: int) -> tuple[np.ndarray, ...]:
    """Sparse rows over ``width`` variables as arrays: the dense ``A``, the
    rhs ``b`` and each row's slack coefficient."""
    A = _zeros(len(rows), width, "model")
    # Every row's coefficients in one scatter.
    A[np.repeat(np.arange(len(rows)), [len(coefs) for coefs, _, _ in rows]),
      [j for coefs, _, _ in rows for j in coefs]] = [
        a for coefs, _, _ in rows for a in coefs.values()]
    return (A, np.array([b for _, _, b in rows], dtype=float),
            np.array([_SLACK_COEF[sense] for _, sense, _ in rows],
                     dtype=float))


def _form(model: MilpModel) -> _Form:
    """Read the model into arrays.  A dense ``A`` above MAX_TABLEAU_ENTRIES
    raises ScaleError before it is allocated: every tableau of the model is
    larger still."""
    variables = model.variables
    sign = 1.0 if model.objective_sense == "min" else -1.0
    cost = np.zeros(len(variables))
    cost[list(model.objective)] = list(model.objective.values())
    return _Form(
        *_rows(model.constraints, len(variables)),
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

    def columns(self, A: np.ndarray, width: int) -> np.ndarray:
        """Model-space rows ``A`` over ``width`` tableau columns, as
        ``_standardize`` lays them out: each variable's coefficient on its
        column, negated on a split variable's negative part, and zero on
        every slack column."""
        G = np.zeros((len(A), width))
        G[:, self.col] = A
        G[:, self.col[self.split] + 1] -= A[:, self.split]
        return G


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


def _append_rows(tab: _Tableau, G: np.ndarray, h: np.ndarray,
                 cutoff: float,
                 cost: Optional[tuple[np.ndarray, float]] = None) -> _LP:
    """The LP of a solved tableau's LP plus the rows ``G x' + s = h`` over
    its columns, each with a new slack s >= 0, warm-started from the
    tableau.

    Each new row is reduced against the basis: subtracting its entry on
    each basic column times that column's row leaves it in the non-basic
    columns only, with its own slack basic, at a negative rhs where the
    tableau's point violates it.  The slacks take the columns before the
    rhs and the rows below the tableau's.  The tableau's reduced costs
    stay dual-feasible, so the dual simplex restores feasibility, and one
    primal pass clears any dual infeasibility roundoff left.  An LP whose
    objective reaches ``cutoff - FEAS_TOL`` stops as "cutoff".

    ``cost``, when given, is a new objective over the tableau's columns
    and its constant: the dual simplex still runs on the tableau's own
    reduced costs, and ``cutoff`` bounds that objective, but the reduced
    costs of the new one replace them before the primal pass.
    """
    m, w, k = len(tab.basis), len(tab.c), len(h)
    T = _zeros(m + k, w + k + 1, "LP tableau")
    other = np.ones(w + k + 1, dtype=bool)
    other[tab.basis] = False
    other[w:w + k] = False
    T[:m, other] = tab.N
    T[np.arange(m), tab.basis] = 1.0
    T[m:, :w] = G
    T[m:, -1] = h
    T[m:] -= G[:, tab.basis] @ T[:m]
    T[m + np.arange(k), w + np.arange(k)] = 1.0
    z = np.concatenate((tab.z[:-1], np.zeros(k), tab.z[-1:]))
    basis = np.concatenate((tab.basis, w + np.arange(k)))
    status, pivots = _dual_simplex(T, z, basis, cutoff - tab.const)
    c, const = (tab.c, tab.const) if cost is None else cost
    c = np.concatenate((c, np.zeros(k)))
    if status == "optimal":
        if cost is not None:
            z = _reduced_costs(T, c, basis)
        status, more = _run_simplex(T, z, basis)
        pivots += more
    if status != "optimal":
        return _LP(status, math.nan, None, pivots)
    return _optimum(T, z, basis, c, const, tab.decode, pivots)


def _node(parent: _Tableau, form: _Form, held: int, j: int, up: bool,
          cutoff: float) -> _LP:
    """The LP of a node from its parent's tableau, which holds the first
    ``held`` rows of ``form``: the parent's LP plus x_j >= 1 (``up``) or
    x_j <= 0 when j >= 0, and the rows of ``form`` from ``held`` on,
    appended by ``_append_rows``.

    The bound is the row -x_j + s = -1 or x_j + s = 0; the fractional x_j
    is basic, so its reduced row is its basic row, negated for the down
    branch, less its x_j entry.  A model row stands as it is if "<=" and
    negated if ">=", over the tableau's columns (``_Decode.columns``)."""
    d, width = parent.decode, len(parent.c)
    A, slack = form.A[held:], form.slack[held:]
    first = int(j >= 0)
    G = np.zeros((first + len(A), width))
    h = np.zeros(len(G))
    if j >= 0:
        col = d.col[j]
        if np.count_nonzero(parent.basis == col) != 1:
            raise InternalError(f"branching variable {j} is not basic")
        G[0, col] = -1.0 if up else 1.0
        h[0] = d.val[j] - 1.0 if up else -d.val[j]
    if len(A):
        G[first:] = d.columns(A, width) * slack[:, None]
        h[first:] = (form.b[held:] - A @ d.val) * slack
    return _append_rows(parent, G, h, cutoff)


class _Root(NamedTuple):
    """A solved root LP: its final tableau and the model's arrays."""

    tableau: _Tableau
    form: _Form


def _new_objective(root: _Root, form: _Form) -> tuple[
        _Tableau, tuple[np.ndarray, float]]:
    """The root's tableau, and ``form``'s objective over its columns with
    its constant, as ``_append_rows`` takes them; InputError unless
    ``form`` has the root model's variables, bounds, objective sense and
    rows."""
    old = root.form
    if (form.A.shape != old.A.shape or form.sign != old.sign
            or not np.array_equal(form.lb, old.lb)
            or not np.array_equal(form.ub, old.ub)
            or not np.array_equal(form.A, old.A)
            or not np.array_equal(form.b, old.b)
            or not np.array_equal(form.slack, old.slack)):
        raise InputError("root tableau is of a model with other variables, "
                         "bounds, objective sense or rows")
    # As ``_standardize`` prices the columns: the slacks cost nothing.
    d = root.tableau.decode
    return root.tableau, (d.columns(form.cost[None], len(root.tableau.c))[0],
                          float(form.cost @ d.val))


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
    model: MilpModel, root: Optional[_Root] = None,
    lazy: Optional[Lazy] = None, deadline: float = math.inf,
) -> MilpResult:
    """Exact optimum by depth-first branch-and-bound over the binaries.

    Branches on the binary with fractional part closest to 0.5 (ties
    within 1e-12 go to the lowest index), exploring the
    rounding-toward-incumbent child first.  Each child is warm-started
    from its parent's final tableau (``_node``); only the root is solved
    cold (``_relax``), unless ``root`` is given.  ``nodes`` counts every
    LP solved.  The search stops with status "node_limit" before its
    ``NODE_LIMIT``-th LP, and with "time_limit" when it pops a node after
    ``deadline`` (a ``time.monotonic()`` reading).  An LP that reads
    unbounded raises ScaleError: the model must be bounded.

    ``lazy`` is called at every integral point x (model space) that meets
    the rows so far and that the search does not prune, with the tree's
    bound: the least bound over x's node and the open nodes, in the
    model's sense.  It returns the best value of a point with x's
    binaries in the whole model, the one with every row the callback
    could return (an infinity in the worse direction if there is none),
    which becomes the incumbent's value, with x, when better; and model
    rows "<=" or ">=" that x violates by more than FEAS_TOL
    (InternalError if one does not).  Those rows join the model for the
    rest of the search: x's node is solved again with them, and every
    open node appends the rows its parent's tableau lacks when it is
    popped.  With no rows, x's node is closed.

    ``root`` is the ``root`` of an earlier result, for a model with the
    same variables, bounds, objective sense and rows; the objective may
    differ.  The root LP then starts from its tableau and prices the new
    objective, instead of starting cold.  The result carries its own root
    LP back as ``root``.
    """
    form = _form(model)
    bins = form.binaries
    warm = None if root is None else _new_objective(root, form)
    root_lp: Optional[_Root] = None

    # In minimization orientation: the incumbent's value.
    best_value = math.inf
    best_x: Optional[np.ndarray] = None
    stopped: Optional[str] = None

    # Each entry: the node's branch record (the value each branched binary
    # is bound to), its parent's tableau (None at the root), the binary
    # branched last (-1 to solve a node again with new rows), the number
    # of rows of ``form`` that tableau holds, and its LP's value, a bound
    # on the node's.  Both children of a node share its tableau, which is
    # freed once both are popped.
    stack = [({}, None, -1, len(form.b), -math.inf)]
    nodes = pivots = 0
    while stack:
        if nodes == NODE_LIMIT:
            stopped = "node_limit"
            break
        if time.monotonic() > deadline:
            stopped = "time_limit"
            break
        # Release the last node's tableau before this node allocates its
        # own: held through the solve, it raised the peak resident memory.
        lp = None
        fixed, parent, j, held, _ = stack.pop()
        nodes += 1
        if parent is not None:
            lp = _node(parent, form, held, j, fixed.get(j) == 1.0,
                       best_value)
        elif warm is not None:
            tab, cost = warm
            lp = _append_rows(tab, np.zeros((0, len(tab.c))), np.zeros(0),
                              math.inf, cost)
        else:
            lp = _relax(form)
        if nodes == 1 and lp.tableau is not None:
            root_lp = _Root(lp.tableau, form)
        pivots += lp.pivots
        if lp.status in ("infeasible", "cutoff"):
            continue
        if lp.status == "unbounded":
            raise ScaleError(f"LP relaxation unbounded at node {nodes}: "
                             "the engine solves bounded models only")
        bound, x = lp.value, lp.x
        if bound >= best_value - FEAS_TOL:
            continue
        xb = x[bins]
        f = xb - np.floor(xb)
        dist = np.where(np.minimum(f, 1 - f) > INT_TOL, np.abs(f - 0.5), INF)
        if not (dist < INF).any():
            x[bins] = np.round(xb) + 0.0  # as round(): 0.0, never -0.0
            if not _feasible(form, x):
                continue
            value, rows = bound, []
            if lazy is not None:
                tree = min([bound] + [entry[4] for entry in stack])
                value, rows = lazy(x.copy(), form.sign * tree)
                value *= form.sign
            if value < best_value:
                best_value, best_x = value, x
            if rows:
                A, b, slack = _rows(rows, len(x))
                if not (slack * (A @ x - b) > FEAS_TOL).all():
                    raise InternalError("a lazy row holds at the point it "
                                        "was returned for")
                stack.append((fixed, lp.tableau, -1, len(form.b), bound))
                form = form._replace(A=np.concatenate((form.A, A)),
                                     b=np.concatenate((form.b, b)),
                                     slack=np.concatenate((form.slack, slack)))
            continue
        k = int(np.argmax(dist <= dist.min() + 1e-12))
        j = int(bins[k])
        if j in fixed:  # a branch row that does not hold would recur forever
            raise InternalError(f"binary {j} is fractional below its branch")
        first = float(round(best_x[j] if best_x is not None else f[k]))
        # Depth-first: the preferred child is pushed last (popped first).
        held = len(form.b)
        stack.append(({**fixed, j: 1.0 - first}, lp.tableau, j, held, bound))
        stack.append(({**fixed, j: first}, lp.tableau, j, held, bound))

    bound = form.sign * min([best_value] + [entry[4] for entry in stack])
    if best_x is None:
        return MilpResult(stopped or "infeasible", math.nan, [], nodes,
                          pivots, root_lp, bound)
    return MilpResult(stopped or "optimal", form.sign * best_value,
                      best_x.tolist(), nodes, pivots, root_lp, bound)
