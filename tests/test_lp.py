import numpy as np
import pytest

import msrisk.lp
from msrisk.lp import LpModel, ResolvableLp, solve_arrays


def test_equality_dual_sensitivity_convention():
    # min x s.t. x = 3: objective 3, eq dual 1
    m = LpModel()
    x = m.add_variable(obj=1.0, lb=None)
    pin = m.add_equality([x], [1.0], 3.0)
    sol = m.solve()
    assert sol.is_optimal
    assert abs(sol.objective - 3.0) < 1e-9
    assert abs(sol.eq_duals[pin] - 1.0) < 1e-9


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


def test_block_rows_match_rows_added_one_at_a_time():
    rng = np.random.default_rng(4)
    block = rng.normal(size=(4, 5)) * (rng.random((4, 5)) < 0.6)
    cols, rhs, obj = np.array([6, 0, 3, 2, 5]), rng.normal(size=4), rng.normal(size=7)
    blocked, rowwise = LpModel(), LpModel()
    for m in (blocked, rowwise):
        m.add_variables(7, obj=obj, lb=None)
        m.add_equality([1], [1.0], 2.0)
        m.add_inequality([4], [1.0], 3.0)
    assert blocked.add_equality(cols, block, rhs) == 1
    assert blocked.add_inequality(cols, -block, -rhs) == 1
    for add, sign in ((rowwise.add_equality, 1.0), (rowwise.add_inequality, -1.0)):
        for row, b in zip(block, rhs):
            add(cols, sign * row, sign * b)  # zeros included; both drop them
    for a, b in zip(blocked.arrays(), rowwise.arrays()):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a.nnz == np.count_nonzero(block) + 1
            a, b = a.tocsr(), b.tocsr()
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(a, part), getattr(b, part))
    assert blocked.num_rows == rowwise.num_rows == (5, 5)
    for bad_cols, bad_rhs in ((cols[:4], rhs), (cols, rhs[:3]), (cols, 0.0)):
        with pytest.raises(ValueError):
            blocked.add_equality(bad_cols, block, bad_rhs)
        with pytest.raises(ValueError):
            blocked.add_inequality(bad_cols, block, bad_rhs)
    assert blocked.num_rows == (5, 5)


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


@pytest.mark.parametrize("highs", [True, False])
def test_warm_resolve_dual_sensitivity_finite_difference(highs, monkeypatch):
    if not highs:
        monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    rng = np.random.default_rng(0)
    n, m_rows = 6, 3
    A = rng.normal(size=(m_rows, n))
    x_feas = np.abs(rng.normal(size=n)) + 0.5
    b = A @ x_feas
    c = np.abs(rng.normal(size=n)) + 0.1
    live = ResolvableLp(c, A, b)
    live.solve(b + 0.3 * A @ np.ones(n))  # leaves a basis for the next solve
    base = live.solve(b)
    assert abs(base.objective - solve_arrays(c, A_eq=A, b_eq=b).objective) < 1e-9
    delta = 1e-4
    for i in range(m_rows):
        bp = b.copy()
        bp[i] += delta
        pert = live.solve(bp)
        predicted = base.objective + delta * base.eq_duals[i]
        assert abs(pert.objective - predicted) < 1e-6
        assert abs(pert.objective - solve_arrays(c, A_eq=A, b_eq=bp).objective) < 1e-9


@pytest.mark.parametrize("highs", [True, False])
def test_warm_resolve_statuses_and_row_families(highs, monkeypatch):
    if not highs:
        monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    # min -x - y  s.t.  x - y = b,  x + y <= 4,  x, y >= 0
    live = ResolvableLp(
        np.array([-1.0, -1.0]),
        np.array([[1.0, -1.0]]),
        np.array([0.0]),
        A_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([4.0]),
    )
    for b in (0.0, 2.0, 5.0, 1.0):
        sol = live.solve(np.array([b]))
        if b > 4.0:
            assert sol.status == "infeasible" and sol.x is None
            continue
        assert sol.is_optimal and abs(sol.objective + 4.0) < 1e-9
        assert np.allclose(sol.x, [2.0 + b / 2, 2.0 - b / 2])
        assert abs(sol.ineq_duals[0] + 1.0) < 1e-9 and abs(sol.eq_duals[0]) < 1e-9
    free = ResolvableLp(np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]))
    assert free.solve(np.array([2.0])).status == "unbounded"


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


def test_arrays_are_coo_with_int32_indices_and_no_stored_zeros():
    rng = np.random.default_rng(3)
    dense = rng.random((9, 8)) * (rng.random((9, 8)) < 0.5)
    dense[3:8, 2:7] -= np.eye(5)
    dense[1, 7] = 2.5
    c, b = -rng.random(8), dense @ np.full(8, 0.5)
    model = LpModel()
    x = model.add_variables(8, obj=c, lb=0.0, ub=1.0)
    model.add_inequality(x, dense[:4], b[:4])
    model.add_inequality(x, dense[4:], b[4:])
    arrays = model.arrays()
    A = arrays[3]
    assert arrays[1] is None and arrays[2] is None  # no equality rows
    assert A.format == "coo" and A.row.dtype == A.col.dtype == np.int32
    np.testing.assert_array_equal(A.toarray(), dense)
    assert A.nnz == np.count_nonzero(dense)  # no stored zeros
    sparse_sol = solve_arrays(*arrays)
    dense_sol = solve_arrays(c, A_ub=dense, b_ub=b, bounds=(0, 1))
    assert dense_sol.objective < 0.0 and dense_sol.objective == sparse_sol.objective
