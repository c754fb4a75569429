"""Tests for the LP layer: dual simplex first, one interior-point retry."""

from types import SimpleNamespace

import numpy as np
import pytest

import smoothavg.lp as lp
from smoothavg.lp import Infeasible, solve_origin_feasible

# minimize y1 subject to y0 - y1 <= 1, -y0 - y1 <= 1, y0 <= 2: the unique
# optimum is y = (0, -1); a stub "infeasible" answer moves y0 by 10, which
# breaks two rows and so fails the feasibility check
COST = np.array([0.0, 1.0])
G = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 0.0]])
H = np.array([1.0, 1.0, 2.0])


def recording_linprog(monkeypatch, fail_methods=(), infeasible_methods=()):
    real, methods = lp.linprog, []

    def fake(*args, method, **kwargs):
        methods.append(method)
        if method in fail_methods:
            return SimpleNamespace(success=False, message="stub failure")
        result = real(*args, method=method, **kwargs)
        if method in infeasible_methods:
            result.x = result.x + np.array([10.0, 0.0])
        return result

    monkeypatch.setattr(lp, "linprog", fake)
    return methods


def test_dual_simplex_alone_when_it_succeeds(monkeypatch):
    methods = recording_linprog(monkeypatch)
    y, value = solve_origin_feasible(COST, G, H)
    assert methods == ["highs-ds"]
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert np.max(G @ y - H) <= 1e-12


@pytest.mark.parametrize("broken", ["fail_methods", "infeasible_methods"])
def test_interior_point_retry(monkeypatch, broken):
    methods = recording_linprog(monkeypatch, **{broken: ("highs-ds",)})
    y, value = solve_origin_feasible(COST, G, H)
    assert methods == ["highs-ds", "highs-ipm"]
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert np.max(G @ y - H) <= 1e-9


@pytest.mark.parametrize("broken", ["fail_methods", "infeasible_methods"])
def test_infeasible_only_after_both_fail(monkeypatch, broken):
    methods = recording_linprog(monkeypatch, **{broken: ("highs-ds", "highs-ipm")})
    with pytest.raises(Infeasible, match="highs-ipm"):
        solve_origin_feasible(COST, G, H)
    assert methods == ["highs-ds", "highs-ipm"]
