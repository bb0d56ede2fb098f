"""Solver-agnostic linear programming layer.

``LpModel`` is an incremental builder for sparse LPs in the form

    min c'x   s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  lb <= x <= ub,

``LpModel.solve`` and ``solve_arrays`` return primal values, the objective,
and duals for both row families. Duals follow the sensitivity convention for
a minimization problem: the dual of a row is d(objective)/d(rhs). The backend
is HiGHS through scipy.optimize.linprog; callers never touch the backend
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix


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
            raise LpError(f"LP solve failed: {res.message}")
    if status != "optimal":
        return LpSolution(status, None, None, None, None)
    eq_duals = np.asarray(res.eqlin.marginals) if A_eq is not None else None
    ub_duals = np.asarray(res.ineqlin.marginals) if A_ub is not None else None
    return LpSolution("optimal", np.asarray(res.x), float(res.fun), eq_duals, ub_duals)


class LpModel:
    """Incremental sparse LP builder with optional symbolic tags.

    Variables are indexed in creation order. Rows are equality or ``<=``
    inequality. Tags (e.g. ``("stage", t, "budget")``) must be unique and are
    kept for debugging and for locating rows whose duals a caller needs.
    """

    def __init__(self):
        self._obj: list[float] = []
        self._lb: list[float] = []
        self._ub: list[Optional[float]] = []
        self._eq_rows: list[tuple[np.ndarray, np.ndarray]] = []
        self._eq_rhs: list[float] = []
        self._ub_rows: list[tuple[np.ndarray, np.ndarray]] = []
        self._ub_rhs: list[float] = []
        self._var_tags: dict = {}
        self._eq_tags: dict = {}
        self._ub_tags: dict = {}

    # -- variables ---------------------------------------------------------
    def add_variable(self, obj=0.0, lb=0.0, ub=None, tag=None) -> int:
        idx = len(self._obj)
        self._obj.append(float(obj))
        self._lb.append(-np.inf if lb is None else float(lb))
        self._ub.append(ub)
        if tag is not None:
            self._register(self._var_tags, tag, idx)
        return idx

    def add_variables(self, count, obj=0.0, lb=0.0, ub=None) -> np.ndarray:
        objs = np.broadcast_to(np.asarray(obj, dtype=float), (count,))
        return np.array([self.add_variable(o, lb, ub) for o in objs])

    # -- rows ---------------------------------------------------------------
    def add_equality(self, indices, coefficients, rhs, tag=None) -> int:
        row = len(self._eq_rhs)
        self._eq_rows.append(self._row(indices, coefficients))
        self._eq_rhs.append(float(rhs))
        if tag is not None:
            self._register(self._eq_tags, tag, row)
        return row

    def add_inequality(self, indices, coefficients, rhs, tag=None) -> int:
        row = len(self._ub_rhs)
        self._ub_rows.append(self._row(indices, coefficients))
        self._ub_rhs.append(float(rhs))
        if tag is not None:
            self._register(self._ub_tags, tag, row)
        return row

    def _row(self, indices, coefficients):
        idx = np.asarray(indices, dtype=int)
        coef = np.asarray(coefficients, dtype=float)
        if idx.shape != coef.shape:
            raise ValueError("row indices and coefficients must align")
        return idx, coef

    @staticmethod
    def _register(table, tag, value):
        if tag in table:
            raise ValueError(f"duplicate tag {tag!r}")
        table[tag] = value

    # -- introspection -------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._obj)

    @property
    def num_rows(self) -> tuple[int, int]:
        return len(self._eq_rhs), len(self._ub_rhs)

    def eq_row(self, tag) -> int:
        return self._eq_tags[tag]

    def variable(self, tag) -> int:
        return self._var_tags[tag]

    # -- assembly and solve ---------------------------------------------------
    def _matrix(self, rows, n):
        data, ri, ci = [], [], []
        for r, (idx, coef) in enumerate(rows):
            ri.extend([r] * len(idx))
            ci.extend(idx.tolist())
            data.extend(coef.tolist())
        return coo_matrix((data, (ri, ci)), shape=(len(rows), n)).tocsr()

    def arrays(self):
        n = self.num_variables
        c = np.asarray(self._obj)
        A_eq = self._matrix(self._eq_rows, n) if self._eq_rows else None
        A_ub = self._matrix(self._ub_rows, n) if self._ub_rows else None
        bounds = [
            (lb if np.isfinite(lb) else None, ub)
            for lb, ub in zip(self._lb, self._ub)
        ]
        return c, A_eq, np.asarray(self._eq_rhs), A_ub, np.asarray(self._ub_rhs), bounds

    def solve(self) -> LpSolution:
        c, A_eq, b_eq, A_ub, b_ub, bounds = self.arrays()
        return solve_arrays(
            c,
            A_eq=A_eq,
            b_eq=b_eq if A_eq is not None else None,
            A_ub=A_ub,
            b_ub=b_ub if A_ub is not None else None,
            bounds=bounds,
        )
