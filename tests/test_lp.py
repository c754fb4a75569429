"""Tests for the LP layer: the in-package dual simplex against scipy's
linprog as an oracle, its starts and its failure paths."""

import numpy as np
import pytest

import smoothavg.lp as lp
import smoothavg.minimax as mm
from smoothavg.lp import Infeasible, solve_origin_feasible
from smoothavg.minimax import MinimaxProblem, solve

# minimize y1 subject to y0 - y1 <= 1, -y0 - y1 <= 1, y0 <= 2: the unique
# optimum is y = (0, -1) on rows 0 and 1; rows 1 and 2 meet at (2, -3) with
# multipliers (1, 1), a dual feasible start that breaks row 0.  A stub
# "infeasible" answer moves y0 by 10, which breaks two rows and so fails
# the feasibility check
COST = np.array([0.0, 1.0])
G = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 0.0]])
H = np.array([1.0, 1.0, 2.0])
DUAL_FEASIBLE = [1, 2]


def test_three_row_optimum():
    y, value, stats = solve_origin_feasible(COST, G, H, DUAL_FEASIBLE)
    np.testing.assert_allclose(y, [0.0, -1.0], rtol=0, atol=1e-12)
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert np.max(G @ y - H) <= 1e-12
    assert stats["lp_status"] == "Optimal" and stats["lp_iterations"] == 1  # row 0 in, row 2 out
    assert sorted(stats["basis"]) == [0, 1]


def test_warm_start_from_the_optimal_basis_takes_no_pivot():
    _, _, first = solve_origin_feasible(COST, G, H, DUAL_FEASIBLE)
    y, value, stats = solve_origin_feasible(COST, G, H, first["basis"])
    np.testing.assert_allclose(y, [0.0, -1.0], rtol=0, atol=1e-12)
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert stats["lp_iterations"] == 0


@pytest.mark.parametrize("start, reason", [
    ([0, 2], "not dual feasible"),  # rows 0 and 2 meet at (2, 1), where y1's multiplier is negative
    ([1, 1], r"distinct rows of 0\.\.2, got \[1, 1\]"),
    ([0, 5], r"distinct rows of 0\.\.2, got \[0, 5\]"),
], ids=["dual-infeasible", "repeated-row", "no-such-row"])
def test_unusable_start_raises(start, reason):
    with pytest.raises(Infeasible, match=reason):
        solve_origin_feasible(COST, G, H, start)


def test_singular_start_raises():
    # a fourth row parallel to row 0
    with pytest.raises(Infeasible, match="singular"):
        solve_origin_feasible(COST, np.vstack([G, 2.0 * G[0]]), np.append(H, 2.0), [0, 3])


@pytest.mark.parametrize("broken", ["failed-status", "infeasible-point"])
def test_infeasible_raises(monkeypatch, broken):
    real = lp._pivot

    def stub(cost, G, h, basis, inverse):
        status, y, basis, pivots = real(cost, G, h, basis, inverse)
        if broken == "failed-status":
            return "Iteration limit", y, basis, pivots
        return status, y + np.array([10.0, 0.0]), basis, pivots

    monkeypatch.setattr(lp, "_pivot", stub)
    match = "Iteration limit" if broken == "failed-status" else "infeasible point"
    with pytest.raises(Infeasible, match=match):
        solve_origin_feasible(COST, G, H, DUAL_FEASIBLE)


def linprog_value(cost, G, h):
    """The optimal value from scipy's linprog (HiGHS), the test oracle."""
    from scipy.optimize import linprog

    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    result = linprog(cost, A_ub=G, b_ub=h, bounds=[(None, None)] * G.shape[1],
                     method="highs", options=options)
    assert result.status == 0, result.message
    return float(result.fun)


def minimax_lps(problem):
    """Every LP round of solve(problem): its (cost, G, h) and the answer
    the solver got from its start."""
    lps = []

    def record(cost, G, h, start):
        answer = solve_origin_feasible(cost, G, h, start)
        lps.append((cost, G, h, answer))
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mm, "solve_origin_feasible", record)
        solve(problem, 1e-9)
    return lps


@pytest.mark.parametrize("name, n, stencil", [
    *(("laplacian-nonneg", n, None) for n in (0, 1, 5, 24, 64)),
    ("operator", 20, (-1.0, 0.0, 0.0, 1.0)),
    ("operator", 8, (1.0, -1.0, 1.0)),
    ("operator", 20, (1.0, -2.0, 2.0, -1.0)),
], ids=["nonneg-0", "nonneg-1", "nonneg-5", "nonneg-24", "nonneg-64", "-1,0,0,1-20", "1,-1,1-8",
        "1,-2,2,-1-20"])
def test_rounds_match_linprog(name, n, stencil):
    # a degenerate LP may have another optimal vertex, so the values are
    # compared, not the points
    lps = minimax_lps(MinimaxProblem(name, n, stencil))
    assert lps
    for cost, G, h, (y, value, stats) in lps:
        assert np.max(G @ y - h) <= 1e-8 * (1.0 + np.max(np.abs(h)))
        assert value == float(cost @ y)
        oracle = linprog_value(cost, G, h)
        assert abs(value - oracle) <= 1e-12 * (1.0 + abs(oracle))
        assert stats["lp_status"] == "Optimal"
