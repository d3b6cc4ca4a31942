"""Self-contained bounded-scale mixed-binary linear programming.

It minimizes, through two entry points: ``solve_milp`` for a model and
``solve_repriced`` for a ``HeldRows`` under a new objective.  A caller
that maximizes negates its objective and the value it reads back.  A
dense two-phase simplex in dictionary form plus a depth-first
branch-and-bound.  A tableau is kept as its dictionary (Chvátal 1983,
*Linear Programming*, ch. 2-3): each row's entries on the non-basic
columns and its rhs, with the basis and ``nb``, each column's model
column.  A basic column is a unit vector and has no entries, so a pivot
updates the non-basic columns only: it swaps the entering and leaving
variables and rewrites the entering column as the leaving one's.  Each
solve reads the model into arrays once (``_form``), the one place rows are
made: a finite upper bound is a row like the model's.  A fixed variable
(``lb == ub``), such as a binary the caller pins, has no column and no
bound row: its value moves the rhs and the objective constant, so
branching never meets one.  At most the root is cold-started: its
dictionary is built from those arrays (``_standardize``), and phase 1
starts from the slack basis wherever a row's slack can be basic and
carries artificials, basic and without columns, only for the other rows.
One routine (``_priced``) then prices the objective on the dictionary.
Every other node is warm-started by one kernel (``_append_rows``): it adds
rows to its parent's final dictionary, each with its slack basic, and
restores feasibility with a dual simplex from the parent's basis.  The
rows are the node's branching bound and the lazy rows its parent lacks: a
caller may pass a callback that values each integral point the search
reaches and returns model rows that the point violates, which every node
solved from then on carries (a branch-and-cut tree, as a cutting-plane
loop needs it).  A model whose rows stay while its objective changes, as
an evaluator's whose rows do not depend on its input, is read once into a
``HeldRows``; each ``solve_repriced`` of it prices the new objective on
the last solve's final root dictionary, by the same routine, in place.  A
search ends optimal, infeasible or at its caller's deadline: every model
the program builds is bounded, so an LP that reads unbounded at any node
raises ScaleError, and so does a search that needs more than
``NODE_LIMIT`` nodes, whose result no caller could use.  Models at desk
scale only; simplicity and debuggability over sparsity: a pivot costs a
fixed number of numpy calls on a dense dictionary.
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
# LPs a branch and bound may solve; one that needs more raises ScaleError.
NODE_LIMIT = 10**6
_MAX_PIVOTS = 200_000
# A pivot updates its dictionary in blocks of whole rows of at most this
# many entries (512 KB): one block for every dictionary on the perfbench
# call lists.
_PIVOT_ENTRIES = 2**16
# Largest dictionary allocated, in float64 entries (400 MB); a larger LP
# raises ScaleError instead.
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
    """Variables, sparse linear constraints, and a linear objective to
    minimize."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[tuple[dict[int, float], str, float]] = field(
        default_factory=list
    )
    objective: dict[int, float] = field(default_factory=dict)

    def add_binary(self) -> int:
        self.variables.append(Variable("binary", 0.0, 1.0))
        return len(self.variables) - 1

    def add_continuous(self, lb: float = 0.0, ub: float = INF) -> int:
        if lb > ub:
            raise InputError("lower bound above upper bound")
        if lb == INF or ub == -INF:
            raise InputError("lower bound +inf or upper bound -inf")
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

    def set_objective(self, coefs: dict[int, float]) -> None:
        """Minimize sum coefs[j] x_j."""
        for j in coefs:
            if not (0 <= j < len(self.variables)):
                raise InputError(f"objective references unknown variable {j}")
        self.objective = {j: float(v) for j, v in coefs.items()}


@dataclass
class MilpResult:
    status: str  # "optimal" | "infeasible" | "time_limit"
    value: float  # the incumbent's objective, the least found
    assignment: list[float]
    nodes: int = 0  # LP relaxations solved
    pivots: int = 0  # simplex pivots over all of them, cold and warm
    # The best lower bound on the optimum the search proved: the value
    # when optimal, else the least of the incumbent's value and the bounds
    # of the nodes left open.
    bound: float = math.nan


# A lazy-row callback: (integral point, the tree's bound) -> (the value of
# the point's binaries, model rows the point violates); see ``solve_milp``.
Row = tuple[dict[int, float], str, float]
Lazy = Callable[[np.ndarray, float], tuple[float, list[Row]]]


class _Form(NamedTuple):
    """A model read into arrays: rows ``A x (sense) b``, the model's and
    then ``x_j <= ub_j`` for each variable with ``lb < ub < inf``, in
    variable order, each row's slack entering with +1 ("<="), -1 (">=")
    or not at all ("="); bounds ``lb <= x <= ub``; the costs to minimize;
    the binaries."""

    A: np.ndarray
    b: np.ndarray
    slack: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    cost: np.ndarray
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
    """Read the model into arrays, every row of ``_Form`` made here.  A
    dense ``A`` above MAX_TABLEAU_ENTRIES raises ScaleError before it is
    allocated, as a dictionary of that size would."""
    variables = model.variables
    cost = np.zeros(len(variables))
    cost[list(model.objective)] = list(model.objective.values())
    bounds = [({j: 1.0}, "<=", v.ub) for j, v in enumerate(variables)
              if v.lb < v.ub < INF]
    return _Form(
        *_rows(model.constraints + bounds, len(variables)),
        np.array([v.lb for v in variables], dtype=float),
        np.array([v.ub for v in variables], dtype=float),
        cost,
        np.flatnonzero([v.kind == "binary" for v in variables]),
    )


class _Decode(NamedTuple):
    """Map from tableau columns back to model space: the lower-bound
    shifts ``val``, the ``split`` free variables, and each variable's first
    column ``col`` (a split variable's negative part is the next one).  A
    fixed variable has no column: its shift is its value, and its ``col``
    is -1, a zero entry after the tableau's columns."""

    val: np.ndarray
    split: np.ndarray
    col: np.ndarray

    def __call__(self, xstd: np.ndarray) -> np.ndarray:
        """The model-space point of ``xstd``, a value per tableau column
        followed by the zero that fixed variables read."""
        x = self.val + xstd[self.col]
        x[self.split] -= xstd[self.col[self.split] + 1]
        return x

    def columns(self, A: np.ndarray, width: int) -> np.ndarray:
        """Model-space rows ``A``, lazy rows or an objective, over
        ``width`` tableau columns, as ``_standardize`` lays them out: each
        variable's coefficient on its column, negated on a split
        variable's negative part, and zero on every slack column.  A fixed
        variable's coefficients land on a column past the tableau's, which
        is dropped: they belong in the rhs, at its value ``val``."""
        G = np.zeros((len(A), width + 1))
        G[:, self.col] = A
        G[:, self.col[self.split] + 1] -= A[:, self.split]
        return G[:, :-1]


def _standardize(form: _Form):
    """Phase-1 dictionary of Ax' (sense) b, x' >= 0, b >= 0.

    Finite lower bounds are shifted and free variables are split (the
    negative part's column right after the positive part's); the finite
    upper bounds are already rows of ``form``.  A fixed variable (``lb ==
    ub``) has no column: its shift is its value, which moves every row's
    rhs.  The model's columns are [structural | slacks | artificials].
    Rows with a negative rhs are negated, and so are ">=" rows with rhs 0;
    a row whose slack then enters with +1 starts with that slack basic
    (the slack crash basis), and only "=" rows and rows left with a
    surplus slack get an artificial, which starts basic.  The dictionary
    holds the non-basic columns, the structural ones and then the surplus
    slacks, and the rhs.  Returns the dictionary, the starting basis,
    ``nb`` (each dictionary column's model column), the first artificial
    column, and a decoder back to model space.
    """
    split = form.lb == -INF
    fixed = form.lb == form.ub
    val = np.where(split, 0.0, form.lb)  # lower-bound shifts
    span = np.where(fixed, 0, 1 + split)  # columns per variable: 0, 1 or 2
    # Each variable's first column; a fixed variable's, -1, is a spare last
    # entry in every array laid out by columns (``_Decode``).
    col = np.where(fixed, -1, np.cumsum(span) - span)
    ncols = int(span.sum())

    # Per row: the rhs, the sign that makes it non-negative (-1 also for
    # ">=" rows with rhs 0) and the slack's coefficient after that sign
    # (0 for "=" rows, which have no slack).
    rhs = form.b - form.A @ val
    s = np.where((rhs < 0) | ((rhs == 0) & (form.slack < 0)), -1.0, 1.0)
    slack = form.slack * s
    has_slack, surplus = slack != 0.0, slack < 0.0
    art = ncols + int(has_slack.sum())
    slack_col = ncols + np.cumsum(has_slack) - 1
    art_col = art + np.cumsum(slack <= 0.0) - 1
    nb = np.concatenate((np.arange(ncols), slack_col[surplus]))
    N = _zeros(len(rhs), len(nb) + 1, "LP tableau")
    N[:, col] = form.A  # fixed variables' entries hit the rhs, set last
    N[:, col[split] + 1] -= form.A[:, split]
    N[s < 0, :ncols] *= -1
    N[surplus, ncols + np.arange(len(nb) - ncols)] = -1.0
    N[:, -1] = np.abs(rhs)
    basis = np.where(slack > 0.0, slack_col, art_col)
    return N, basis, nb, art, _Decode(val, split, col)


def _pivot(N: np.ndarray, z: np.ndarray, basis: np.ndarray, nb: np.ndarray,
           r: int, p: int):
    """Pivot the dictionary on row r and column p: the entering variable
    ``nb[p]`` becomes basic in row r, and column p becomes the leaving
    variable's, 1/N[r, p] in row r and -N[i, p]/N[r, p] in every other
    row.  These are the floats a pivot of the whole tableau computes, as
    its basic columns are exact unit vectors."""
    inv = 1.0 / N[r, p]
    row = N[r] / N[r, p]
    leaving = N[:, p] * -inv
    # A rank-1 update in place: at desk sizes a pivot's cost is its number
    # of numpy calls, not the entries they touch.  Its one temporary, the
    # size of a block, stays small next to a tall dictionary.
    step = max(1, _PIVOT_ENTRIES // N.shape[1])
    for k in range(0, len(N), step):
        block = N[k:k + step]
        block -= block[:, p, None] * row
    N[r] = row
    N[:, p] = leaving
    N[r, p] = inv
    zp = z[p]
    z -= zp * row
    z[p] = zp * -inv
    basis[r], nb[p] = nb[p], basis[r]


def _reduced_costs(N: np.ndarray, cb: np.ndarray, cn: np.ndarray):
    """Objective row of N for the costs ``cb`` of the basic and ``cn`` of
    the non-basic columns: reduced costs, then the negated objective
    value."""
    z = -(cb @ N)
    z[:-1] += cn
    return z


def _entering(N: np.ndarray, red: np.ndarray, keys: np.ndarray,
              tol: float) -> int:
    """The first column, in the order of ``keys`` (stable), whose reduced
    cost is below ``-tol`` and which has an entry above MIN_PIVOT, or -1:
    Bland's rule keys by ``nb`` at PIVOT_TOL, else by ``red`` at FEAS_TOL."""
    cand = np.flatnonzero(red < -tol)
    for p in cand[np.argsort(keys[cand], kind="stable")]:
        if (N[:, p] > MIN_PIVOT).any():
            return int(p)
    return -1


def _ratio_test(num: np.ndarray, den: np.ndarray, keys: np.ndarray,
                bland: bool) -> tuple[int, float]:
    """The index and value of the least ratio ``max(num, 0) / den`` over
    ``den > MIN_PIVOT``, or (-1, inf) if none; the clip ignores roundoff
    below zero.  Ties within 1e-9 relative go to the lowest ``keys`` under
    Bland's rule, else to the largest ``den``, for stability."""
    ratios = np.divide(np.maximum(num, 0.0), den,
                       out=np.full(len(den), INF), where=den > MIN_PIVOT)
    best = float(ratios.min(initial=INF))
    if best == INF:
        return -1, INF
    ties = ratios <= best + 1e-9 * (1.0 + best)
    if bland:
        idx = np.flatnonzero(ties)
        return int(idx[np.argmin(keys[idx])]), best
    return int(np.where(ties, den, -INF).argmax()), best


def _stall(degenerate: int, bland: bool, ratio: float) -> tuple[int, bool]:
    """The degenerate pivots in a row after one of ratio ``ratio`` (a
    ratio above FEAS_TOL resets them), and whether Bland's rule (Bland
    1977, *Math. Oper. Res.* 2) holds: on for good from BLAND_AFTER."""
    if ratio > FEAS_TOL:
        return 0, bland
    return degenerate + 1, bland or degenerate + 1 >= BLAND_AFTER


def _run_simplex(N: np.ndarray, z: np.ndarray, basis: np.ndarray,
                 nb: np.ndarray) -> tuple[str, int]:
    """Iterate the dictionary to optimality of the current objective row.

    ``z`` holds reduced costs (last entry: negated objective value).
    Returns "optimal", or "unbounded" when no column with a negative
    reduced cost has a pivot row, and the number of pivots made.  The
    entering column is the most negative reduced cost (the first among
    ties) outside Bland's rule, else ``_entering``'s; the leaving row is
    ``_ratio_test``'s of the rhs over that column, keyed by ``basis``.
    """
    if z.size == 1:  # no columns
        return "optimal", 0
    degenerate, bland = 0, False
    for pivots in range(_MAX_PIVOTS):
        red = z[:-1]
        keys, tol = (nb, PIVOT_TOL) if bland else (red, FEAS_TOL)
        p = int(red.argmin())
        if red[p] >= -tol:
            return "optimal", pivots
        r, best = ((-1, INF) if bland
                   else _ratio_test(N[:, -1], N[:, p], basis, False))
        if r < 0:
            # A column with no positive entry certifies an unbounded ray,
            # but roundoff can also produce a barely negative reduced cost
            # on such a column; try the remaining candidates before
            # giving up.  Under Bland's rule ``_entering`` always picks.
            p = _entering(N, red, keys, tol)
            if p < 0:
                return "unbounded", pivots
            r, best = _ratio_test(N[:, -1], N[:, p], basis, bland)
        degenerate, bland = _stall(degenerate, bland, best)
        _pivot(N, z, basis, nb, r, p)
    raise ScaleError("simplex pivot limit exceeded")


def _dual_simplex(N: np.ndarray, z: np.ndarray, basis: np.ndarray,
                  nb: np.ndarray, limit: float) -> tuple[str, int]:
    """Restore primal feasibility of a dual-feasible dictionary.

    Returns "optimal" once no rhs is below -FEAS_TOL, "infeasible" when a
    negative row has no negative entry to pivot on, and "cutoff" when the
    objective without its constant, ``-z[-1]``, reaches ``limit -
    FEAS_TOL``: the dual objective only rises, so the LP's optimum is at
    least that.  Also returns the number of pivots made.  The leaving row
    has the most negative rhs, or the lowest basic column among the
    negative ones under Bland's rule.  A dual step is a primal step on the
    transposed dictionary (Chvátal 1983): the entering column is
    ``_ratio_test``'s of the reduced costs over the row negated, by ``nb``.
    """
    degenerate, bland = 0, False
    for pivots in range(_MAX_PIVOTS):
        rhs = N[:, -1]
        r = int(rhs.argmin())  # the most negative rhs
        if rhs[r] >= -FEAS_TOL:
            return "optimal", pivots
        if -z[-1] >= limit - FEAS_TOL:
            return "cutoff", pivots
        if bland:
            rows = np.flatnonzero(rhs < -FEAS_TOL)
            r = int(rows[np.argmin(basis[rows])])
        p, best = _ratio_test(z[:-1], -N[r, :-1], nb, bland)
        if p < 0:
            return "infeasible", pivots
        degenerate, bland = _stall(degenerate, bland, best)
        _pivot(N, z, basis, nb, r, p)
    raise ScaleError("simplex pivot limit exceeded")


class _Tableau(NamedTuple):
    """A solved LP's final phase-2 dictionary: ``N`` holds each row's
    entries on the non-basic columns and its rhs, ``nb`` each of those
    columns' model column (structural or slack) and ``basis`` each row's
    basic one, with the reduced-cost row ``z`` over the non-basic columns
    and the rhs, the costs of the model's columns, the objective constant,
    and the decoder back to model space.

    A basic column is a unit vector and has no entries: on a master with
    many scenario rows those would be most of the tableau.  A node's
    dictionary waits on the stack until its second child is popped, one
    per depth level.
    """

    N: np.ndarray
    z: np.ndarray
    basis: np.ndarray
    nb: np.ndarray
    c: np.ndarray
    const: float
    decode: _Decode


class _LP(NamedTuple):
    """One node's LP: status, value, model-space point and final
    dictionary (both None unless optimal), and the pivots it took."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "cutoff"
    value: float
    x: Optional[np.ndarray]
    pivots: int
    tableau: Optional[_Tableau] = None


def _primal_pass(tab: _Tableau, pivots: int) -> _LP:
    """The LP of a primal-feasible dictionary ``tab``, reached in
    ``pivots`` pivots: the primal simplex on its objective row, then the
    optimum read off the final dictionary, which the LP keeps."""
    status, more = _run_simplex(tab.N, tab.z, tab.basis, tab.nb)
    pivots += more
    if status == "unbounded":
        return _LP(status, -math.inf, None, pivots)
    x = np.zeros(len(tab.c) + 1)  # the last entry, 0, is read by col -1
    x[tab.basis] = tab.N[:, -1]
    return _LP("optimal", float(tab.c @ x[:-1]) + tab.const, tab.decode(x),
               pivots, tab)


def _priced(N: np.ndarray, basis: np.ndarray, nb: np.ndarray,
            decode: _Decode, cost: np.ndarray, pivots: int) -> _LP:
    """The LP of the primal-feasible dictionary (``N``, ``basis``, ``nb``)
    under ``cost``, one per model variable, laid over the model's columns
    (``_Decode.columns``): its reduced costs, then ``_primal_pass``.  It
    reads no old objective row, so a warm root is priced in place."""
    c = decode.columns(cost[None], len(basis) + len(nb))[0]
    z = _reduced_costs(N, c[basis], c[nb])
    return _primal_pass(_Tableau(N, z, basis, nb, c, float(cost @ decode.val),
                                 decode), pivots)


def _relax(form: _Form) -> _LP:
    """The LP relaxation, cold-started from its phase-1 dictionary."""
    N, basis, nb, art, decode = _standardize(form)

    # Phase 1: minimize the sum of the artificials, from the crash basis,
    # where every artificial is basic.
    z1 = _reduced_costs(N, (basis >= art) * 1.0, np.zeros(len(nb)))
    status, pivots = _run_simplex(N, z1, basis, nb)
    # Phase 1 is bounded below by zero: only roundoff reads it unbounded.
    if status == "unbounded":
        raise ScaleError("phase-1 unbounded")
    if -z1[-1] > 1e-6:
        return _LP("infeasible", math.nan, None, pivots)

    # Drive artificials out of the basis, on the lowest model column
    # available, or drop their rows.
    keep = np.ones(len(basis), dtype=bool)
    for i in np.flatnonzero(basis >= art):
        cands = np.flatnonzero((nb < art) & (np.abs(N[i, :-1]) > MIN_PIVOT))
        if cands.size:
            _pivot(N, z1, basis, nb, i, int(cands[np.argmin(nb[cands])]))
            pivots += 1
        else:
            keep[i] = False
    cols = np.flatnonzero(nb < art)
    N = N[np.ix_(keep, np.append(cols, -1))]  # one copy, no artificials
    basis, nb = basis[keep], nb[cols]

    # Phase 2: the model's objective over the structural and slack columns.
    return _priced(N, basis, nb, decode, form.cost, pivots)


def _append_rows(tab: _Tableau, G: np.ndarray, h: np.ndarray,
                 cutoff: float) -> _LP:
    """The LP of a solved dictionary's LP plus the rows ``G x' + s = h``
    over its model columns, each with a new slack s >= 0, warm-started
    from the dictionary.

    Each new row is reduced against the basis: subtracting its entry on
    each basic column times that column's row leaves it in the non-basic
    columns only, with its own slack basic, at a negative rhs where the
    dictionary's point violates it.  The rows go below the dictionary's,
    and the slacks take the model columns after its last, but no
    dictionary column: they are basic.  The reduced costs stay
    dual-feasible, so the dual simplex restores feasibility, and
    ``_primal_pass``, which ends ``_relax`` too, clears any dual
    infeasibility roundoff left.  An LP whose objective reaches ``cutoff -
    FEAS_TOL`` stops as "cutoff".  The dictionary's objective carries
    over: the new slacks cost nothing.
    """
    m, w, k = len(tab.basis), len(tab.c), len(h)
    N = _zeros(m + k, len(tab.nb) + 1, "LP tableau")
    N[:m] = tab.N
    N[m:, :-1] = G[:, tab.nb]
    N[m:, -1] = h
    # Row by row: a BLAS matrix product's roundoff, and so the pivot path,
    # can change with its thread count; a vector-matrix product's did not.
    for g, row in zip(G[:, tab.basis], N[m:]):
        row -= g @ N[:m]
    z, nb = tab.z.copy(), tab.nb.copy()
    basis = np.concatenate((tab.basis, w + np.arange(k)))
    status, pivots = _dual_simplex(N, z, basis, nb, cutoff - tab.const)
    if status != "optimal":
        return _LP(status, math.nan, None, pivots)
    c = np.concatenate((tab.c, np.zeros(k)))
    return _primal_pass(_Tableau(N, z, basis, nb, c, tab.const, tab.decode),
                        pivots)


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


def _feasible(form: _Form, x: np.ndarray) -> bool:
    """Whether x meets every row of ``form``, bounds too, within FEAS_TOL."""
    excess = form.A @ x - form.b
    violation = np.where(form.slack == 0.0, np.abs(excess),
                         form.slack * excess)
    return bool((violation <= FEAS_TOL).all())


def solve_milp(
    model: MilpModel, lazy: Optional[Lazy] = None,
    deadline: float = math.inf,
) -> MilpResult:
    """Exact optimum by depth-first branch-and-bound over the binaries.

    Branches on the binary with fractional part closest to 0.5 (ties
    within 1e-12 go to the lowest index), exploring the
    rounding-toward-incumbent child first.  Each child is warm-started
    from its parent's final tableau (``_node``); only the root is solved
    cold (``_relax``).  ``nodes`` counts every LP solved.  The status is
    "optimal", "infeasible", or "time_limit" when the search pops a node
    after ``deadline`` (a ``time.monotonic()`` reading).  A search that
    needs more than ``NODE_LIMIT`` LPs raises ScaleError, as does an LP
    that reads unbounded: the model must be bounded.

    ``lazy`` is called at every integral point x (model space) that meets
    the rows so far and that the search does not prune, with the tree's
    bound: the least lower bound over x's node and the open nodes.  It
    returns the least value of a point with x's binaries in the whole
    model, the one with every row the callback could return (+inf if
    there is none), or a lower bound on that value that is at least the
    value of a point the caller holds.  That value becomes the
    incumbent's, with x, when lower; a result whose incumbent is such a
    bound reports it with that x, and the caller's point is at least as
    good.  It also returns model rows "<=" or ">=" that x violates by
    more than FEAS_TOL (InternalError if one does not).  Those rows join
    the model for the rest of the search: x's node is solved again with
    them, and every open node appends the rows its parent's tableau lacks
    when it is popped.  With no rows, x's node is closed.
    """
    return _search(_form(model), None, lazy, deadline)[0]


class HeldRows:
    """A model's variables, bounds and rows, read once, for solves under
    many objectives (``solve_repriced``; the model's own objective goes
    unused), and ``root``, the final root tableau of the last solve (None
    if that root LP had no optimum)."""

    def __init__(self, model: MilpModel) -> None:
        self.form = _form(model)
        self.root: Optional[_Tableau] = None


def solve_repriced(held: HeldRows, cost: np.ndarray) -> MilpResult:
    """``solve_milp`` of the held model minimizing ``cost``, one
    coefficient per variable (InputError on another length).  Its root LP
    pivots ``held.root`` in place under ``cost``, or starts cold without
    one, and leaves its own there."""
    if np.shape(cost) != held.form.lb.shape:
        raise InputError(f"objective of {np.size(cost)} coefficients for "
                         f"{len(held.form.lb)} variables")
    form = held.form._replace(cost=np.asarray(cost, float))
    res, held.root = _search(form, held.root, None, math.inf)
    return res


def _search(form: _Form, warm: Optional[_Tableau], lazy: Optional[Lazy],
            deadline: float) -> tuple[MilpResult, Optional[_Tableau]]:
    """``solve_milp``'s search of ``form`` and its final root tableau
    (None if the root LP had no optimum).  The root starts from ``warm``,
    a root tableau of the same rows under any objective, if given, whose
    arrays it pivots in place: each child copies its parent's."""
    bins = form.binaries
    root: Optional[_Tableau] = None

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
            raise ScaleError(f"branch and bound reached its node limit "
                             f"({NODE_LIMIT})")
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
            lp = _priced(warm.N, warm.basis, warm.nb, warm.decode, form.cost,
                         0)
        else:
            lp = _relax(form)
        if nodes == 1:
            root = lp.tableau
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
                value, rows = lazy(x.copy(), tree)
            if value < best_value:  # a callback's value may be an int
                best_value, best_x = float(value), x
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
        if j in fixed:  # a branch row that roundoff broke would recur forever
            raise ScaleError(f"binary {j} is fractional below its branch")
        first = float(round(best_x[j] if best_x is not None else f[k]))
        # Depth-first: the preferred child is pushed last (popped first).
        held = len(form.b)
        stack.append(({**fixed, j: 1.0 - first}, lp.tableau, j, held, bound))
        stack.append(({**fixed, j: first}, lp.tableau, j, held, bound))

    bound = min([best_value] + [entry[4] for entry in stack])
    if best_x is None:
        return MilpResult(stopped or "infeasible", math.nan, [], nodes,
                          pivots, bound), root
    return MilpResult(stopped or "optimal", best_value,
                      best_x.tolist(), nodes, pivots, bound), root
