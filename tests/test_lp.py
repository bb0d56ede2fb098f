import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import msrisk.lp
from msrisk.dr import MomentAmbiguitySet, worst_case_arsrm
from msrisk.lp import LpError, LpModel, ResolvableLp, solve_arrays
from test_live_lp import read_saved


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


def test_rows_appended_to_a_live_model_match_the_stacked_arrays():
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to grow a model in place")
    rng = np.random.default_rng(7)
    n, m_eq = 7, 3
    A, x_feas = rng.normal(size=(m_eq, n)), np.abs(rng.normal(size=n)) + 0.5
    c, b = rng.normal(size=n), A @ x_feas
    A_ub = np.abs(rng.normal(size=(2, n)))  # keeps the LP bounded
    b_ub = A_ub @ x_feas + 1.0
    live = ResolvableLp(c, A, b, A_ub=A_ub, b_ub=b_ub)
    first = live.solve(b)
    cols = np.array([5, 0, 3, 6])
    block = rng.normal(size=(3, cols.size))
    block[1, 2] = 0.0  # dropped, as LpModel drops it
    rhs = block @ x_feas[cols] + 0.1
    live.add_inequalities(cols, block, rhs)
    live.add_inequalities(cols[:2], np.array([1.0, -1.0]), x_feas[5] - x_feas[0] + 0.1)
    stacked = np.zeros((4, n))
    stacked[:3, cols], stacked[3, cols[:2]] = block, [1.0, -1.0]
    A_all, b_all = np.vstack([A_ub, stacked]), np.r_[b_ub, rhs, x_feas[5] - x_feas[0] + 0.1]
    for shift in (0.0, 0.05, -0.05):
        b_t = A @ (x_feas * (1.0 + shift))
        sol, ref = live.solve(b_t), solve_arrays(c, A_eq=A, b_eq=b_t, A_ub=A_all, b_ub=b_all)
        assert sol.is_optimal
        assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        np.testing.assert_allclose(sol.eq_duals, ref.eq_duals, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(sol.ineq_duals, ref.ineq_duals, rtol=1e-7, atol=1e-9)
    grown = solve_arrays(c, A_eq=A, b_eq=b, A_ub=A_all, b_ub=b_all).objective
    assert grown > first.objective + 1e-3  # the new rows bind
    path = live.write()
    try:
        h = msrisk.lp._HIGHS()
        h.setOptionValue("output_flag", False)
        assert h.readModel(path).name == "kOk"
    finally:
        os.remove(path)
    assert h.getLp().num_row_ == 2 + m_eq + 4
    h.run()
    assert abs(h.getObjectiveValue() - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective))


def test_a_live_model_keeps_its_own_copy_of_each_rhs():
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to hold a model")
    # min x  s.t.  x = b
    b = np.array([1.0])
    live = ResolvableLp(np.array([1.0]), np.array([[1.0]]), b)
    b[0] = 3.0  # the array the model was built from, edited in place
    assert live.solve(b).objective == 3.0
    rhs = np.array([2.0])
    assert live.solve(rhs).objective == 2.0
    rhs[0] = 5.0  # an array already passed to solve, edited in place
    assert live.solve(rhs).objective == 5.0


GAVE_UP = r"^LP solve failed: (HiGHS status kOptimal|forced) \(the LP is saved in \S+\.mps\)$"


def test_a_live_model_highs_gives_up_on_is_saved(monkeypatch):
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    # min -x - y  s.t.  x - y = 1,  x + y <= 4,  x, y >= 0: optimum -4
    live = ResolvableLp(np.array([-1.0, -1.0]), np.array([[1.0, -1.0]]), np.array([1.0]),
                        A_ub=np.array([[1.0, 1.0]]), b_ub=np.array([4.0]))
    monkeypatch.setattr(msrisk.lp, "_HIGHS_STATUS", {})  # no status is a verdict
    with pytest.raises(LpError, match=GAVE_UP) as err:
        live.solve(np.array([1.0]))
    h = read_saved(str(err.value))
    assert (h.getLp().num_col_, h.getLp().num_row_) == (2, 2)
    h.run()
    assert abs(h.getObjectiveValue() + 4.0) < 1e-9


def test_an_lp_linprog_gives_up_on_is_saved(monkeypatch):
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    # the moment-dual LP has no equality rows
    amb = MomentAmbiguitySet.from_empirical([(0.2, 0.5), (0.8, 0.3)], [0.5, 0.5])
    values, weights = [1.0, -2.0, 0.5], amb.stage_weights(3)
    want = worst_case_arsrm(values, amb, weights)
    calls = []

    def gives_up(c, *args, **kwargs):
        calls.append(kwargs.get("options"))
        return SimpleNamespace(status=4, message="forced")

    monkeypatch.setattr(msrisk.lp, "linprog", gives_up)
    with pytest.raises(LpError, match=GAVE_UP) as err:
        worst_case_arsrm(values, amb, weights)
    assert calls == [None, {"presolve": False}]  # the cold retry came first
    h = read_saved(str(err.value))
    h.run()
    assert abs(h.getObjectiveValue() - want) <= 1e-9 * max(1.0, abs(want))


def needs_highs():
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to hold a model")


def matrix_case(kind, rng):
    """An LP ``(c, A_eq, b_eq, A_ub, b_ub)`` over 6 columns in [0, 1] whose
    matrices are laid out as ``kind`` names; feasible and bounded."""
    n = 6
    A_eq, A_ub = rng.normal(size=(3, n)), rng.normal(size=(2, n))
    if kind == "empty row":
        A_eq[1], A_ub[0] = 0.0, 0.0
    if kind == "duplicates":  # the (1, 2) entry given five more times, rows still in order
        t, extra = sparse.coo_array(A_eq), [0.1, 0.2, 0.3, 1e-17, -0.7]
        at = np.searchsorted(t.row, 2)
        rows, cols = np.insert(t.row, at, [1] * 5), np.insert(t.col, at, [2] * 5)
        A_eq = sparse.coo_array((np.insert(t.data, at, extra), (rows, cols)), shape=(3, n))
    if kind == "unordered":  # triplets in reverse row order, each column used once
        t = sparse.coo_array(A_eq * (np.arange(n) // 2 == np.arange(3)[:, None]))
        A_eq = sparse.coo_array((t.data[::-1], (t.row[::-1], t.col[::-1])), shape=t.shape)
    x = rng.uniform(0.2, 0.8, size=n)
    c, b_eq, b_ub = rng.normal(size=n), A_eq @ x, A_ub @ x + 0.5
    if kind == "equality only":
        return c, A_eq, b_eq, None, None
    if kind == "<= only":
        return c, None, None, A_ub, b_ub
    return c, A_eq, b_eq, A_ub, b_ub


MATRIX_CASES = ["both families", "equality only", "<= only", "empty row", "duplicates", "unordered"]


def stacked(A_ub, A_eq, n):
    """linprog's row layout ``[A_ub; A_eq]`` as a CSC matrix."""
    blocks = [sparse.coo_array(a) for a in (A_ub, A_eq) if a is not None]
    return sparse.csc_array(sparse.vstack(blocks) if blocks else (0, n))


def held_matrix(lp):
    a = lp._highs.getLp().a_matrix_
    assert a.format_.name == "kColwise"
    return np.array(a.start_), np.array(a.index_), np.array(a.value_)


@pytest.mark.parametrize("kind", MATRIX_CASES)
def test_the_held_matrix_is_scipys_csc_layout(kind):
    needs_highs()
    c, A_eq, b_eq, A_ub, b_ub = matrix_case(kind, np.random.default_rng(11))
    want = stacked(A_ub, A_eq, c.size)
    starts, rows, values = held_matrix(ResolvableLp(c, A_eq, b_eq, A_ub, b_ub, bounds=(0, 1)))
    np.testing.assert_array_equal(starts, want.indptr)
    np.testing.assert_array_equal(rows, want.indices)
    assert values.tobytes() == want.data.tobytes()  # duplicates summed in scipy's order


def test_duplicates_among_many_are_summed_in_input_order():
    needs_highs()
    # 300 triplets on 12 entries, out of row order: their sums depend on the order
    rng = np.random.default_rng(5)
    rows, cols = rng.integers(0, 3, size=300), rng.integers(0, 4, size=300)
    values = rng.normal(size=300) * 10.0 ** rng.integers(-8, 8, size=300)
    sums = {}
    for entry in zip(cols, rows, values):
        sums[entry[:2]] = sums[entry[:2]] + entry[2] if entry[:2] in sums else entry[2]
    A = sparse.coo_array((values, (rows, cols)), shape=(3, 4))
    lp = ResolvableLp(np.ones(4), None, None, A_ub=A, b_ub=np.ones(3))
    starts, held_rows, held = held_matrix(lp)
    np.testing.assert_array_equal(starts, [0, 3, 6, 9, 12])
    np.testing.assert_array_equal(held_rows, [row for _, row in sorted(sums)])
    assert held.tolist() == [sums[entry] for entry in sorted(sums)]


@pytest.mark.parametrize("highs", [True, False])
@pytest.mark.parametrize("kind", MATRIX_CASES)
def test_each_held_layout_solves_as_solve_arrays(kind, highs, monkeypatch):
    if not highs:
        monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    c, A_eq, b_eq, A_ub, b_ub = matrix_case(kind, np.random.default_rng(11))
    want = solve_arrays(c, A_eq, b_eq, A_ub, b_ub, bounds=(0, 1))
    sol = ResolvableLp(c, A_eq, b_eq, A_ub, b_ub, bounds=(0, 1)).solve(
        b_eq if b_eq is not None else [])
    assert sol.is_optimal and want.is_optimal
    assert abs(sol.objective - want.objective) <= 1e-9
    np.testing.assert_allclose(sol.x, want.x, atol=1e-9)
    if A_eq is not None:
        np.testing.assert_allclose(sol.eq_duals, want.eq_duals, atol=1e-9)
    if A_ub is not None:
        np.testing.assert_allclose(sol.ineq_duals, want.ineq_duals, atol=1e-9)


def test_a_grown_model_holds_what_a_cold_build_holds():
    needs_highs()
    c, A_eq, b_eq, A_ub, b_ub = matrix_case("both families", np.random.default_rng(2))
    live = ResolvableLp(c, A_eq, b_eq, A_ub, b_ub, bounds=(0, 1))
    live.solve(b_eq)
    cols, block = np.array([4, 0, 2]), np.array([[1.0, 0.0, -2.0], [0.5, 0.25, 3.0]])
    live.add_inequalities(cols, block, [1.0, 2.0])
    live.add_inequalities([5, 1, 5], [1.0, -1.0, 2.0], 0.5)  # column 5 twice: summed
    grown = np.zeros((3, c.size))
    grown[:2, cols], grown[2, [5, 1]] = block, [3.0, -1.0]
    # the cold build of the grown arrays, its rows in the grown model's order
    cold = ResolvableLp(c, None, None, np.vstack([A_ub, A_eq, grown]),
                        np.r_[b_ub, b_eq, 1.0, 2.0, 0.5], bounds=(0, 1))
    for got, want in zip(held_matrix(live), held_matrix(cold)):
        assert got.tobytes() == want.tobytes()
    held = live._highs.getLp()
    assert held.row_lower_ == [-np.inf] * 2 + list(b_eq) + [-np.inf] * 3
    assert held.row_upper_ == list(np.r_[b_ub, b_eq, 1.0, 2.0, 0.5])
    sol = live.solve(b_eq)
    want = solve_arrays(c, A_eq, b_eq, np.vstack([A_ub, grown]), np.r_[b_ub, 1.0, 2.0, 0.5],
                        bounds=(0, 1))
    assert abs(sol.objective - want.objective) <= 1e-9
    np.testing.assert_allclose(sol.ineq_duals, want.ineq_duals, atol=1e-9)


@pytest.mark.parametrize("highs", [True, False])
def test_a_solution_read_after_a_resolve_keeps_its_own_values(highs, monkeypatch):
    if not highs:
        monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    # min -x - y  s.t.  x - y = b,  x + y <= 4,  x, y >= 0: x = 2 + b/2, y = 2 - b/2
    live = ResolvableLp(np.array([-1.0, -1.0]), np.array([[1.0, -1.0]]), np.array([0.0]),
                        A_ub=np.array([[1.0, 1.0]]), b_ub=np.array([4.0]))
    first = live.solve(np.array([2.0]))
    second = live.solve(np.array([-1.0]))
    np.testing.assert_allclose(first.x, [3.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(second.x, [1.5, 2.5], atol=1e-9)
    for sol in (first, second):
        assert abs(sol.eq_duals[0]) < 1e-9 and abs(sol.ineq_duals[0] + 1.0) < 1e-9


def one_row_lp():
    # min x + y  s.t.  x + y = b: the objective is b
    return ResolvableLp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))


@pytest.mark.parametrize("highs", [True, False])
@pytest.mark.parametrize("b_eq", [[2.0, 5.0, 7.0], []])
def test_a_rhs_of_the_wrong_length_is_rejected(b_eq, highs, monkeypatch):
    if not highs:
        monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    live = one_row_lp()
    message = f"{len(b_eq)} entries for 1 equality rows" if highs else None
    with pytest.raises(ValueError, match=message):
        live.solve(np.array(b_eq))
    assert live.solve(np.array([2.0])).objective == pytest.approx(2.0, abs=1e-12)


def non_finite_case(kind):
    """``(lp arrays, rhs to solve at)`` with one inf or nan entry where ``kind`` says."""
    c, A, b = np.array([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.5])
    A_ub, b_ub = np.array([[1.0, 0.0]]), np.array([3.0])
    if kind == "cost":
        c[1] = np.inf
    elif kind == "matrix entry":
        A[1, 1] = np.nan
    elif kind == "b_ub":
        b_ub[0] = np.inf
    solve_at = b.copy()
    if kind == "b_eq":
        solve_at[0] = np.nan
    return (c, A, b, A_ub, b_ub), solve_at


NON_FINITE = ["cost", "matrix entry", "b_eq", "b_ub"]


@pytest.mark.parametrize("highs", [True, False])
@pytest.mark.parametrize("kind", NON_FINITE)
def test_non_finite_data_is_rejected_as_linprog_rejects_it(kind, highs, monkeypatch):
    if not highs:
        monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    arrays, solve_at = non_finite_case(kind)
    with pytest.raises(ValueError, match="must not contain values inf"):
        ResolvableLp(*arrays).solve(solve_at)


@pytest.mark.parametrize("highs", [True, False])
@pytest.mark.parametrize("row", [([1.0, np.nan], 1.0), ([1.0, 1.0], np.inf)])
def test_non_finite_appended_rows_are_rejected(row, highs, monkeypatch):
    (c, A, b, A_ub, b_ub), _ = non_finite_case(None)
    coefficients, rhs = row
    if highs:
        needs_highs()
        live = ResolvableLp(c, A, b, A_ub, b_ub)
        with pytest.raises(ValueError, match="must not contain values inf"):
            live.add_inequalities([0, 1], coefficients, rhs)
        assert live.solve(b).is_optimal  # the model is left as it was
        assert live._highs.getLp().num_row_ == 3
    else:  # without the HiGHS class a model cannot grow: its rebuild is rejected
        with pytest.raises(ValueError, match="must not contain values inf"):
            solve_arrays(c, A, b, np.vstack([A_ub, coefficients]), np.r_[b_ub, rhs])


def test_data_highs_rejects_raises_lp_error():
    needs_highs()
    # HiGHS refuses matrix values of 1e15 and more
    with pytest.raises(LpError, match="HiGHS rejected the model"):
        ResolvableLp(np.array([1.0, 1.0]), np.array([[1e16, 1.0]]), np.array([1.0]))
    live = one_row_lp()
    with pytest.raises(LpError, match="HiGHS rejected the appended rows"):
        live.add_inequalities([0, 1], [1e16, 1.0], 3.0)
    assert live._highs.getLp().num_row_ == 1
    assert live.solve(np.array([2.0])).objective == pytest.approx(2.0, abs=1e-12)
