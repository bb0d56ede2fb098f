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
its fallback); callers never touch the backend. A solve that HiGHS gives up
on, even after a cold retry without presolve, raises :class:`LpError` naming
the ``.mps`` file its LP is saved in.

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


def solve_arrays(
    c,
    A_eq=None,
    b_eq=None,
    A_ub=None,
    b_ub=None,
    bounds=None,
) -> LpSolution:
    """Solve one LP given raw arrays. ``bounds`` defaults to x >= 0."""
    kwargs = dict(
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds if bounds is not None else (0, None),
        method="highs",
    )
    res = linprog(c, **kwargs)
    status = _STATUS.get(res.status)
    if status is None:
        # HiGHS occasionally gives up on badly scaled models after presolve;
        # one clean retry without it resolves those before we fail loudly
        res = linprog(c, options={"presolve": False}, **kwargs)
        status = _STATUS.get(res.status)
        if status is None:
            lp = ResolvableLp(np.asarray(c, dtype=float), A_eq, b_eq, A_ub, b_ub, kwargs["bounds"])
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


class ResolvableLp:
    """An LP held in HiGHS and re-solved for new equality right-hand sides.

    Built from ``solve_arrays``'s arrays in linprog's layout (rows ``[A_ub;
    A_eq]``, CSC columns); ``A_eq`` and ``b_eq`` may be ``None``. The model
    keeps its own copy of every ``b_eq`` it is given. ``solve(b_eq)`` changes
    only the equality-row bounds that differ from the last ones, so HiGHS
    starts from the previous basis and skips presolve; statuses and the cold
    presolve-off retry match ``solve_arrays``, which does every solve when the
    HiGHS class is missing. ``dantzig`` prices the dual simplex with
    Dantzig's rule; the fallback ignores it and uses the default pricing.
    While HiGHS holds the model (``grows``), ``add_inequalities`` appends
    ``<=`` rows after all others and keeps the basis, so the balance rows'
    range is tracked and ``ineq_duals`` holds every ``<=`` row in model order.
    """

    def __init__(self, c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None), dantzig=False):
        self._args, self._highs = (c, A_eq, A_ub, b_ub, bounds), None
        self.grows = _HIGHS is not None
        if _HIGHS is None:
            return
        b_eq = np.array(b_eq if b_eq is not None else [], dtype=float)
        # [A_ub; A_eq] from COO triplets, as sparse.vstack of COO blocks is slower
        up, eq = (sparse.coo_array(a if a is not None else (0, c.size)) for a in (A_ub, A_eq))
        m = up.shape[0]
        self._eq, self._b_eq = slice(m, m + b_eq.size), b_eq
        rows, cols = np.r_[up.row, eq.row + m], np.r_[up.col, eq.col]
        A = sparse.csc_array((np.r_[up.data, eq.data], (rows, cols)), shape=(m + b_eq.size, c.size))
        box = np.broadcast_to(np.array(bounds, dtype=float), (c.size, 2))  # None -> nan
        lb, ub = np.where(np.isnan(box), [-np.inf, np.inf], box).T
        self._highs = _HIGHS()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("simplex_strategy", 1)  # dual simplex, as in linprog
        if dantzig:
            self._highs.setOptionValue("simplex_dual_edge_weight_strategy", 0)
        self._highs.passModel(  # column-wise matrix, minimize, every column continuous
            A.shape[1], A.shape[0], A.nnz, 1, 1, 0.0, np.asarray(c, dtype=float), lb, ub,
            np.concatenate([np.full(m, -np.inf), b_eq]),
            np.concatenate([b_ub if A_ub is not None else [], b_eq]),
            A.indptr, A.indices, A.data, np.zeros(c.size, dtype=np.int32),
        )

    def add_inequalities(self, indices, coefficients, rhs) -> None:
        """Append ``<=`` rows, given as ``LpModel.add_inequality`` takes them;
        zero coefficients are dropped. Only a model that ``grows``."""
        coef = sparse.csr_array(np.atleast_2d(np.asarray(coefficients, dtype=float)))
        rhs, idx = np.atleast_1d(np.asarray(rhs, dtype=float)), np.asarray(indices, dtype=np.int32)
        self._highs.addRows(rhs.size, np.full(rhs.size, -np.inf), rhs, coef.nnz,
                            coef.indptr[:-1].astype(np.int32), idx[coef.indices], coef.data)

    def solve(self, b_eq) -> LpSolution:
        c, A_eq, A_ub, b_ub, bounds = self._args
        h = self._highs
        if h is None:
            return solve_arrays(c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
        b_eq = np.array(b_eq, dtype=float)  # a copy: the caller may edit its array
        for i in np.flatnonzero(b_eq != self._b_eq):  # HiGHS holds the last bounds
            h.changeRowBounds(self._eq.start + int(i), b_eq[i], b_eq[i])
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
        sol, eq = h.getSolution(), self._eq
        x, duals = np.array(sol.col_value), np.array(sol.row_dual)
        ub_duals = np.delete(duals, eq) if duals.size > eq.stop - eq.start else None
        return LpSolution("optimal", x, h.getObjectiveValue(), duals[eq], ub_duals)

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
