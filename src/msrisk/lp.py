"""Solver-agnostic linear programming layer.

``LpModel`` is an incremental builder for sparse LPs in the form

    min c'x   s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  lb <= x <= ub,

that takes rows alone or in blocks (a dense matrix over a set of columns),
keeps only their nonzeros and assembles COO matrices once, in ``arrays``. It
is the one way the library assembles LPs from parts: the engines' stage and
envelope LPs, the moment-dual LP and the oracles' tree LPs. ``LpModel.solve``
and ``solve_arrays`` return primal values, the objective, and duals for both
row families. Every solve runs on the calling thread. Duals follow the
sensitivity convention for a minimization problem: the dual of a row is
d(objective)/d(rhs). The backend is HiGHS: through scipy.optimize.linprog,
or, for ``ResolvableLp``, one model kept alive in scipy's private HiGHS class,
re-solved warm and grown in place (feature-detected, with ``solve_arrays`` as
its fallback, which rejects the same data); callers never touch the
backend. A held model gets numpy arrays alone and reads a solution's arrays
only on demand. A solve that HiGHS gives up on, even after a cold retry
without presolve, raises :class:`LpError` naming the ``.mps`` file its LP is
saved in.

Pricing: every LP runs HiGHS's dual simplex with its default dual edge
weights, except the oracles' tree LPs, which ``ResolvableLp(dantzig=True)``
prices with Dantzig's rule (see ``extensive``). On those few large LPs
Dantzig pricing cut the HiGHS time by 24 to 64% at equal objectives; applied
to every LP it slowed the robust engine, whose live models re-solve slower
under it.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


class LpError(RuntimeError):
    """Solver failure that is not a clean infeasible/unbounded verdict."""


class RecourseError(RuntimeError):
    """A stage subproblem was infeasible, contradicting complete recourse."""


@dataclass
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: Optional[np.ndarray]
    objective: Optional[float]
    eq_duals: Optional[np.ndarray]
    ineq_duals: Optional[np.ndarray]

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve_arrays(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, bounds=None) -> LpSolution:
    """Solve one LP given raw arrays. ``bounds`` defaults to x >= 0."""
    bounds = bounds if bounds is not None else (0, None)
    kwargs = dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    res = linprog(c, **kwargs)
    status = _STATUS.get(res.status)
    if status is None:
        # HiGHS occasionally gives up on badly scaled models after presolve;
        # one clean retry without it resolves those before we fail loudly
        res = linprog(c, options={"presolve": False}, **kwargs)
        status = _STATUS.get(res.status)
        if status is None:
            lp = ResolvableLp(np.asarray(c, dtype=float), A_eq, b_eq, A_ub, b_ub, bounds)
            raise LpError(f"LP solve failed: {res.message}{saved_note(lp)}")
    if status != "optimal":
        return LpSolution(status, None, None, None, None)
    eq_duals = np.asarray(res.eqlin.marginals) if A_eq is not None else None
    ub_duals = np.asarray(res.ineqlin.marginals) if A_ub is not None else None
    return LpSolution("optimal", np.asarray(res.x), float(res.fun), eq_duals, ub_duals)


def _highs_class():
    """scipy's private HiGHS class, if it has every method ``ResolvableLp`` uses."""
    try:
        from scipy.optimize._highspy._core import _Highs
    except ImportError:
        return None
    used = ("passModel", "setOptionValue", "changeRowBounds", "addRows", "run", "clearSolver",
            "getModelStatus", "getSolution", "getObjectiveValue", "writeModel")
    return _Highs if all(callable(getattr(_Highs, m, None)) for m in used) else None


_HIGHS = _highs_class()
# HiGHS model statuses with a verdict, as linprog maps them
_HIGHS_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible",
                 "kModelError": "infeasible", "kUnbounded": "unbounded"}


class _HeldSolution(LpSolution):
    """An optimal solution whose arrays are read from HiGHS's copy on first access."""

    def __init__(self, solution, objective, eq):
        self.status, self.objective, self._solution, self._eq = "optimal", objective, solution, eq

    x = cached_property(lambda self: np.array(self._solution.col_value))
    _duals = cached_property(lambda self: np.array(self._solution.row_dual))
    eq_duals = property(lambda self: self._duals[self._eq])
    ineq_duals = property(lambda self: np.delete(self._duals, self._eq)
                          if self._duals.size > self._eq.stop - self._eq.start else None)


def _finite(name, values) -> np.ndarray:
    """``values`` as a float array; ValueError, as linprog raises, for inf or nan."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must not contain values inf or nan")
    return values


def _send_rows(send, rows, cols, vals, count, call) -> None:
    """Hand HiGHS ``count`` rows of COO triplets via ``send(starts, columns,
    values)``, as they are if in row order; else, or if HiGHS rejects them for
    duplicates, sorted with duplicates summed in input order, as scipy does."""
    if (not (rows[1:] >= rows[:-1]).all()
            or send(np.searchsorted(rows, np.arange(count)), cols, vals).name == "kError"):
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = (np.diff(rows, prepend=-1) | np.diff(cols, prepend=-1)) != 0
        rows, cols, summed = rows[first], cols[first], vals[first]
        np.add.at(summed, np.cumsum(first)[~first] - 1, vals[~first])  # in order, as scipy adds
        if send(np.searchsorted(rows, np.arange(count)), cols, summed).name == "kError":
            raise LpError(f"HiGHS rejected {call}")


def _triplets(a):
    """``(rows, columns, values, row count)`` of a ``solve_arrays`` matrix or None."""
    if a is None:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0), 0
    a = a if getattr(a, "format", None) == "coo" else sparse.coo_array(a)
    return a.row, a.col, a.data, a.shape[0]


class ResolvableLp:
    """An LP held in HiGHS and re-solved for new equality right-hand sides.

    Built from ``solve_arrays``'s arrays in linprog's layout (rows ``[A_ub;
    A_eq]``), handed to HiGHS row-wise and laid out by it as in
    ``sparse.csc_array``; ``A_eq`` and ``b_eq`` may be ``None``. The model
    keeps its own copy of every ``b_eq``. ``solve(b_eq)`` changes only the
    equality-row bounds that differ from the last ones, so HiGHS starts from
    the previous basis and skips presolve; statuses and the cold presolve-off
    retry match ``solve_arrays``, which does every solve when the HiGHS class
    is missing. An optimal solution reads ``x`` and the duals from its own
    copy of HiGHS's solution when first accessed. ``dantzig`` prices the dual
    simplex with Dantzig's rule; the fallback ignores it. While HiGHS holds
    the model (``grows``), ``add_inequalities`` appends ``<=`` rows after all
    others and keeps the basis, so ``ineq_duals`` holds every ``<=`` row in
    model order. Inf or nan data or a rhs of the wrong length raise
    ``ValueError``, as in linprog; data HiGHS rejects raises ``LpError``.
    """

    def __init__(self, c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None), dantzig=False):
        self._args, self._highs = dict(c=c, A_eq=A_eq, A_ub=A_ub, b_ub=b_ub, bounds=bounds), None
        self.grows = _HIGHS is not None
        if _HIGHS is None:
            return
        c, (up, eq) = _finite("c", c), (_triplets(a) for a in (A_ub, A_eq))
        b_ub = _finite("b_ub", b_ub if A_ub is not None else [])
        b_eq = _finite("b_eq", b_eq if b_eq is not None else [])
        m = up[3]
        if (b_ub.size, b_eq.size) != (m, eq[3]):
            raise ValueError(f"rhs of {b_ub.size} and {b_eq.size} entries for {m} and {eq[3]} rows")
        self._eq, self._b_eq = slice(m, m + b_eq.size), b_eq.copy()
        box = np.broadcast_to(np.array(bounds, dtype=float), (c.size, 2))  # None -> nan
        lb, ub = np.where(np.isnan(box), [-np.inf, np.inf], box).T
        self._highs = h = _HIGHS()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("simplex_strategy", 1)  # dual simplex, as in linprog
        if dantzig:
            h.setOptionValue("simplex_dual_edge_weight_strategy", 0)
        row_lower, row_upper = (np.concatenate([a, b_eq]) for a in (np.full(m, -np.inf), b_ub))

        def send(starts, cols, vals):  # row-wise matrix, minimize, every column continuous
            return h.passModel(c.size, m + b_eq.size, vals.size, 2, 1, 0.0, c, lb, ub, row_lower,
                               row_upper, starts, cols, vals, np.zeros(c.size, dtype=np.int32))

        vals = _finite("A", np.concatenate([up[2], eq[2]]))
        rows, cols = np.concatenate([up[0], eq[0] + m]), np.concatenate([up[1], eq[1]])
        _send_rows(send, rows, cols, vals, m + b_eq.size, "the model")

    def add_inequalities(self, indices, coefficients, rhs) -> None:
        """Append ``<=`` rows, given as ``LpModel.add_inequality`` takes them;
        zero coefficients are dropped. Only a model that ``grows``."""
        coef = _finite("coefficients", np.atleast_2d(coefficients))
        rhs, (r, k) = _finite("rhs", np.atleast_1d(rhs)), np.nonzero(coef)

        def send(starts, cols, vals):
            return self._highs.addRows(rhs.size, np.full(rhs.size, -np.inf), rhs, vals.size,
                                       starts, cols, vals)

        _send_rows(send, r, np.asarray(indices, dtype=np.int32)[k], coef[r, k], rhs.size,
                   "the appended rows")

    def solve(self, b_eq) -> LpSolution:
        h = self._highs
        if h is None:
            return solve_arrays(b_eq=b_eq, **self._args)
        b_eq = _finite("b_eq", np.array(b_eq, dtype=float))  # a copy: the caller may edit its array
        if b_eq.shape != self._b_eq.shape:
            raise ValueError(f"b_eq has {b_eq.size} entries for {self._b_eq.size} equality rows")
        for i in np.flatnonzero(b_eq != self._b_eq):  # HiGHS holds the last bounds
            if h.changeRowBounds(self._eq.start + int(i), b_eq[i], b_eq[i]).name == "kError":
                raise LpError("HiGHS rejected a row bound")
        self._b_eq = b_eq
        for presolve in ("on", "off"):  # as linprog, then solve_arrays' cold retry
            h.setOptionValue("presolve", presolve)
            h.run()
            name = h.getModelStatus().name
            status = _HIGHS_STATUS.get(name)
            if status is not None:
                break
            h.clearSolver()  # drops the basis, so the retry is cold
        else:
            raise LpError(f"LP solve failed: HiGHS status {name}{saved_note(self)}")
        if status != "optimal":
            return LpSolution(status, None, None, None, None)
        return _HeldSolution(h.getSolution(), h.getObjectiveValue(), self._eq)

    def write(self) -> Optional[str]:
        """Save the model as it stands to a new ``.mps`` file; its path, or None."""
        if self._highs is None:
            return None
        with tempfile.NamedTemporaryFile(prefix="msrisk-lp-", suffix=".mps", delete=False) as fh:
            self._highs.writeModel(fh.name)
        return fh.name


def saved_note(lp: ResolvableLp) -> str:
    """Save a failed LP with ``lp.write()``; the clause naming its file for an
    error message, or ``""`` when nothing could be written."""
    path = lp.write()
    return f" (the LP is saved in {path})" if path else ""


class LpModel:
    """Incremental sparse LP builder.

    Variables and rows are indexed in creation order; rows are equality or
    ``<=`` inequality. A row is added alone, as a coefficient vector over
    ``indices`` with a scalar rhs, or in a block, as a matrix over ``indices``
    with one rhs per row; zero coefficients are dropped. A row method returns
    the index of its first new row, where that row's dual sits in the
    solution; ``add_variables`` returns the new columns' indices.
    """

    def __init__(self):
        self.num_variables = 0
        self._columns: list[np.ndarray] = []  # (cost, lb, ub) chunks
        self._rows = {"eq": [], "ub": []}  # (row, column, value, rhs) chunks
        self._count = {"eq": 0, "ub": 0}

    # -- variables ---------------------------------------------------------
    def add_variable(self, obj=0.0, lb=0.0, ub=None) -> int:
        return int(self.add_variables(1, obj, lb, ub)[0])

    def add_variables(self, count, obj=0.0, lb=0.0, ub=None) -> np.ndarray:
        """``count`` new columns with one cost or one per column; a bound of
        ``None`` is no bound."""
        columns = np.empty((3, count))  # cost, lb, ub
        columns[0], columns[1] = obj, -np.inf if lb is None else lb
        columns[2] = np.inf if ub is None else ub
        self._columns.append(columns)
        self.num_variables += count
        return np.arange(self.num_variables - count, self.num_variables)

    # -- rows ---------------------------------------------------------------
    def add_equality(self, indices, coefficients, rhs) -> int:
        return self._add_rows("eq", indices, coefficients, rhs)

    def add_inequality(self, indices, coefficients, rhs) -> int:
        return self._add_rows("ub", indices, coefficients, rhs)

    def _add_rows(self, family, indices, coefficients, rhs) -> int:
        idx = np.asarray(indices, dtype=int)
        coef, rhs = np.asarray(coefficients, dtype=float), np.array(rhs, dtype=float)
        if coef.ndim == 1:  # one row
            coef, rhs = coef[None], rhs[None]
        if rhs.ndim != 1 or coef.shape != rhs.shape + idx.shape:
            raise ValueError(f"{coef.shape} coefficients for {idx.size} columns, {rhs.size} rows")
        first = self._count[family]
        r, k = np.nonzero(coef)
        self._rows[family].append((r + first, idx[k], coef[r, k], rhs))
        self._count[family] += rhs.size
        return first

    @property
    def num_rows(self) -> tuple[int, int]:
        return self._count["eq"], self._count["ub"]

    # -- assembly and solve ---------------------------------------------------
    def arrays(self):
        """``(c, A_eq, b_eq, A_ub, b_ub, bounds)`` as ``solve_arrays`` and
        ``ResolvableLp`` take them: COO matrices with 32-bit indices, as
        linprog converts its input to and HiGHS takes them (``None`` with
        their rhs for a family without rows), and one ``(lb, ub)`` row per
        column, +-inf for none."""
        c, lb, ub = np.hstack(self._columns) if self._columns else np.empty((3, 0))
        return c, *self._matrix("eq"), *self._matrix("ub"), np.column_stack([lb, ub])

    def _matrix(self, family):
        if not self._count[family]:
            return None, None
        rows, cols, vals, rhs = (np.concatenate(x) for x in zip(*self._rows[family]))
        shape = (self._count[family], self.num_variables)
        rows, cols = rows.astype(np.int32), cols.astype(np.int32)
        return sparse.coo_array((vals, (rows, cols)), shape=shape), rhs

    def solve(self) -> LpSolution:
        return solve_arrays(*self.arrays())
