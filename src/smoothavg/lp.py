"""LP layer for the cutting-plane minimax solver.

The active-set LPs here are small (a few hundred rows, a few dozen
columns) but numerically nasty: active points crowd near x = 1 where
every basis function of the p(1) = 1 parametrization vanishes, so the
constraint matrix carries long runs of nearly parallel rows.  A vanilla
dense-tableau simplex (with equilibration, Harris ratio tests, and
refactorization) still loses feasibility on these instances, so the
pivoting is delegated to scipy's HiGHS backend.  HiGHS certifies its
vertex only to ~1e-9, while the cutting-plane loop wants to certify gaps
of that same order, so the vertex is re-solved exactly from the rows its
dual multipliers mark active.

HiGHS dual simplex runs first.  When it fails, or returns a point that
fails the feasibility check, the LP is solved once more with the HiGHS
interior-point method; Infeasible is raised only when both have failed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Infeasible", "solve_origin_feasible"]


class Infeasible(RuntimeError):
    """The LP could not be solved; for the minimax constraints this
    signals a solver bug rather than genuine infeasibility."""


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP: scipy.optimize is
    the package's slowest import and only the minimax solver needs it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def solve_origin_feasible(cost, G, h):
    """Minimize cost @ y subject to G @ y <= h with y free.

    Requires h >= 0 (y = 0 feasible), which the minimax formulation
    guarantees; it also makes unboundedness impossible for these
    problems.  Returns (y, cost @ y).
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, d = G.shape
    if h.shape != (m,) or cost.shape != (d,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise ValueError("h must be nonnegative so the origin is feasible")

    # rows are scaled up to unit max-norm, never down: that keeps solver
    # tolerances meaningful for the near-vanishing constraints next to
    # x = 1, and a row of a large weight keeps the 1e-10 tolerance in the
    # units of h (the objective's), where scaling it down by 16 let dual
    # simplex stop 1e-9 outside a stencil problem's feasible set
    row_scale = np.minimum(np.max(np.abs(G), axis=1), 1.0)
    row_scale[row_scale == 0.0] = 1.0
    Gs = G / row_scale[:, None]
    hs = h / row_scale
    # default feasibility tolerances (1e-7) let the solver confuse the
    # near-duplicate rows that the cutting-plane endgame produces; 1e-10
    # is the tightest setting HiGHS accepts
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    scale = 1.0 + float(np.max(np.abs(h)))
    for method in ("highs-ds", "highs-ipm"):
        result = linprog(
            cost, A_ub=Gs, b_ub=hs, bounds=[(None, None)] * d, method=method, options=options
        )
        if not result.success:
            failure = f"LP solve failed ({method}): {result.message}"
            continue
        y = np.asarray(result.x, dtype=float)
        duals = np.asarray(result.ineqlin.marginals, dtype=float)
        y = _refine_vertex(Gs, hs, G, h, cost, y, duals)
        if float(np.max(G @ y - h)) <= 1e-8 * scale:
            return y, float(cost @ y)
        failure = f"LP returned an infeasible point ({method})"
    raise Infeasible(failure)


def _refine_vertex(Gs, hs, G, h, cost, y, duals):
    """Re-solve the optimal vertex from its dual-active rows.

    Rows with a nonzero multiplier are tight at the optimum; solving just
    those as a least-squares system reproduces the vertex to machine
    precision instead of the backend's ~1e-9.  Rows with near-zero slack
    are added as backup when degeneracy leaves too few multipliers.  The
    polished point is kept only if it agrees with the backend on the
    objective and is no less feasible than the backend's point, up to
    roundoff: a least-squares fit through near-duplicate tight rows can
    miss all of them by ~1e-9.
    """
    m, d = Gs.shape
    dual_scale = 1.0 + float(np.max(np.abs(duals))) if duals.size else 1.0
    slack = hs - Gs @ y
    tight = (np.abs(duals) > 1e-11 * dual_scale) | (slack <= 1e-9 * (1.0 + np.abs(hs)))
    if int(tight.sum()) < d:
        return y
    refined, _, rank, _ = np.linalg.lstsq(Gs[tight], hs[tight], rcond=None)
    if rank < d:
        return y
    full_scale = 1.0 + float(np.max(np.abs(h))) + float(np.max(np.abs(refined)))
    raw_viol = float(np.max(G @ y - h))
    feasible = float(np.max(G @ refined - h)) <= max(raw_viol, 1e-12 * full_scale)
    sane = abs(float(cost @ (refined - y))) <= 1e-6 * full_scale
    return refined if (feasible and sane) else y
