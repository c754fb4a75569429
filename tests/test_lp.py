"""Tests for the LP layer: dual simplex first, one interior-point retry,
and the HiGHS model that scipy.optimize.linprog would build."""

import functools
import importlib

import numpy as np
import pytest
import scipy

import smoothavg.lp as lp
import smoothavg.minimax as mm
from smoothavg.lp import Infeasible, solve_origin_feasible
from smoothavg.minimax import MinimaxProblem, solve

# minimize y1 subject to y0 - y1 <= 1, -y0 - y1 <= 1, y0 <= 2: the unique
# optimum is y = (0, -1); a stub "infeasible" answer moves y0 by 10, which
# breaks two rows and so fails the feasibility check
COST = np.array([0.0, 1.0])
G = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 0.0]])
H = np.array([1.0, 1.0, 2.0])


def recording_highs(monkeypatch, fail_methods=(), infeasible_methods=()):
    real, methods = lp._highs_solve, []

    def fake(cost, G, h, method):
        methods.append(method)
        if method in fail_methods:
            return "Infeasible", None, 0
        status, y, iterations = real(cost, G, h, method)
        if method in infeasible_methods:
            y = y + np.array([10.0, 0.0])
        return status, y, iterations

    monkeypatch.setattr(lp, "_highs_solve", fake)
    return methods


def test_dual_simplex_alone_when_it_succeeds(monkeypatch):
    methods = recording_highs(monkeypatch)
    y, value, stats = solve_origin_feasible(COST, G, H)
    assert methods == ["highs-ds"]
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert np.max(G @ y - H) <= 1e-12
    assert stats["highs_status"] == "Optimal" and stats["highs_iterations"] >= 0


@pytest.mark.parametrize("broken", ["fail_methods", "infeasible_methods"])
def test_interior_point_retry(monkeypatch, broken):
    methods = recording_highs(monkeypatch, **{broken: ("highs-ds",)})
    y, value, stats = solve_origin_feasible(COST, G, H)
    assert methods == ["highs-ds", "highs-ipm"]
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert np.max(G @ y - H) <= 1e-9
    assert stats["highs_status"] == "Optimal"


@pytest.mark.parametrize("broken", ["fail_methods", "infeasible_methods"])
def test_infeasible_only_after_both_fail(monkeypatch, broken):
    methods = recording_highs(monkeypatch, **{broken: ("highs-ds", "highs-ipm")})
    with pytest.raises(Infeasible, match="highs-ipm"):
        solve_origin_feasible(COST, G, H)
    assert methods == ["highs-ds", "highs-ipm"]


def test_unbounded_lp_fails_with_the_highs_status():
    # minimize y0 subject to y0 <= 1 has no optimum; both methods say so
    with pytest.raises(Infeasible, match=r"\(highs-ipm\): HiGHS model status Unbounded"):
        solve_origin_feasible(np.array([1.0]), np.array([[1.0]]), np.array([1.0]))


# what smoothavg.lp reads from scipy's HiGHS binding, by dotted name
BINDING = (
    "_Highs.setOptionValue", "_Highs.getOptionType", "_Highs.passModel", "_Highs.run",
    "_Highs.getModelStatus", "_Highs.getInfo", "_Highs.getSolution",
    "_Highs.modelStatusToString",
    "HighsLp.num_col_", "HighsLp.num_row_", "HighsLp.a_matrix_", "HighsLp.col_cost_",
    "HighsLp.col_lower_", "HighsLp.col_upper_", "HighsLp.row_lower_", "HighsLp.row_upper_",
    "HighsSparseMatrix.format_", "HighsSparseMatrix.num_col_", "HighsSparseMatrix.num_row_",
    "HighsSparseMatrix.start_", "HighsSparseMatrix.index_", "HighsSparseMatrix.value_",
    "HighsSolution.col_value",
    "HighsInfo.simplex_iteration_count", "HighsInfo.ipm_iteration_count",
    "HighsInfo.crossover_iteration_count",
    "MatrixFormat.kColwise", "HighsStatus.kOk", "HighsStatus.kError",
    "HighsModelStatus.kOptimal", "HighsModelStatus.kModelError",
)


def test_scipy_ships_the_highs_binding():
    needs = f"smoothavg.lp needs scipy >= 1.17; this is scipy {scipy.__version__}"
    try:
        core = importlib.import_module("scipy.optimize._highspy._core")
    except ImportError as exc:
        pytest.fail(f"no scipy.optimize._highspy._core ({exc}): {needs}")

    def has(name):
        try:
            functools.reduce(getattr, name.split("."), core)
        except AttributeError:
            return False
        return True

    missing = [name for name in BINDING if not has(name)]
    assert not missing, f"scipy's HiGHS binding lacks {', '.join(missing)}: {needs}"
    highs = core._Highs()
    unknown = [key for key in [*lp._OPTIONS, "solver"]
               if highs.getOptionType(key)[0] != core.HighsStatus.kOk]
    assert not unknown, f"HiGHS knows no option {', '.join(unknown)}: {needs}"


def linprog_reference(cost, G, h):
    """The LP layer as written on scipy.optimize.linprog: dual simplex,
    then one interior-point retry, with the same tolerances and check."""
    from scipy.optimize import linprog

    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    for method in ("highs-ds", "highs-ipm"):
        result = linprog(cost, A_ub=G, b_ub=h, bounds=[(None, None)] * G.shape[1],
                         method=method, options=options)
        if result.success and np.max(G @ result.x - h) <= 1e-8 * (1.0 + np.max(np.abs(h))):
            return result.x
    raise AssertionError("linprog found no feasible vertex")


def minimax_lps(problem):
    """The (cost, G, h) of every LP round of solve(problem)."""
    lps = []

    def record(cost, G, h):
        lps.append((cost, G, h))
        return solve_origin_feasible(cost, G, h)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mm, "solve_origin_feasible", record)
        solve(problem, 1e-9)
    return lps


@pytest.mark.parametrize("name, n, stencil", [
    *(("laplacian-nonneg", n, None) for n in (0, 1, 5, 24, 64)),
    ("operator", 20, (-1.0, 0.0, 0.0, 1.0)),
], ids=["nonneg-0", "nonneg-1", "nonneg-5", "nonneg-24", "nonneg-64", "-1,0,0,1-20"])
def test_vertices_bitwise_equal_linprog(name, n, stencil):
    lps = minimax_lps(MinimaxProblem(name, n, stencil))
    assert lps
    for cost, G, h in lps:
        y, value, stats = solve_origin_feasible(cost, G, h)
        assert y.tobytes() == linprog_reference(cost, G, h).tobytes()
        assert value == float(cost @ y)
        assert stats["highs_status"] == "Optimal"
