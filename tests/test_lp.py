import numpy as np
import pytest

from msrisk.lp import LpModel, solve_arrays


def test_equality_dual_sensitivity_convention():
    # min x s.t. x = 3: objective 3, eq dual 1
    m = LpModel()
    x = m.add_variable(obj=1.0, lb=None)
    m.add_equality([x], [1.0], 3.0, tag="pin")
    sol = m.solve()
    assert sol.is_optimal
    assert abs(sol.objective - 3.0) < 1e-9
    assert abs(sol.eq_duals[m.eq_row("pin")] - 1.0) < 1e-9


def test_bounded_maximization():
    m = LpModel()
    m.add_variable(obj=-1.0, lb=0.0)
    m.add_inequality([0], [1.0], 2.0)
    sol = m.solve()
    assert abs(sol.objective + 2.0) < 1e-9


def test_degenerate_redundant_equality():
    m = LpModel()
    x = m.add_variable(obj=1.0, lb=0.0)
    y = m.add_variable(obj=1.0, lb=0.0)
    m.add_equality([x, y], [1.0, 1.0], 2.0)
    m.add_equality([x, y], [2.0, 2.0], 4.0)  # redundant copy
    sol = m.solve()
    assert sol.is_optimal
    assert abs(sol.objective - 2.0) < 1e-7
    assert abs(sol.x[0] + sol.x[1] - 2.0) < 1e-7


def test_statuses():
    infeasible = solve_arrays(
        np.array([1.0]),
        A_eq=np.array([[1.0], [1.0]]),
        b_eq=np.array([1.0, 2.0]),
        bounds=[(None, None)],
    )
    assert infeasible.status == "infeasible"
    unbounded = solve_arrays(np.array([-1.0]), bounds=[(0, None)])
    assert unbounded.status == "unbounded"


def test_dual_sensitivity_finite_difference():
    rng = np.random.default_rng(0)
    n, m_rows = 6, 3
    A = rng.normal(size=(m_rows, n))
    x_feas = np.abs(rng.normal(size=n)) + 0.5
    b = A @ x_feas
    c = np.abs(rng.normal(size=n)) + 0.1
    base = solve_arrays(c, A_eq=A, b_eq=b)
    assert base.is_optimal
    delta = 1e-4
    for i in range(m_rows):
        bp = b.copy()
        bp[i] += delta
        pert = solve_arrays(c, A_eq=A, b_eq=bp)
        predicted = base.objective + delta * base.eq_duals[i]
        assert abs(pert.objective - predicted) < 1e-6


def test_duality_gap_and_residuals():
    rng = np.random.default_rng(1)
    n, m_rows = 8, 4
    A = rng.normal(size=(m_rows, n))
    b = A @ (np.abs(rng.normal(size=n)) + 0.2)
    c = np.abs(rng.normal(size=n)) + 0.05
    sol = solve_arrays(c, A_eq=A, b_eq=b)
    assert sol.is_optimal
    residual = np.max(np.abs(A @ sol.x - b))
    assert residual <= 1e-7
    dual_obj = float(sol.eq_duals @ b)  # reduced costs vanish at optimum
    assert abs(dual_obj - sol.objective) <= 1e-7 * max(1.0, abs(sol.objective))


def test_tags_unique():
    m = LpModel()
    m.add_variable(tag="x")
    with pytest.raises(ValueError):
        m.add_variable(tag="x")
