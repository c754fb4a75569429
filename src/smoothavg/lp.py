"""LP layer of the minimax solver.

``minimax.solve`` takes a linear program on its active set in every round
of the problems that a Remez step cannot solve: under positivity
(``laplacian-nonneg``) and for stencils whose |s| vanishes inside
(-1, 1).  These LPs are small (a few hundred rows, a few dozen columns)
but numerically nasty: active points crowd near x = 1 where every basis
function of the p(1) = 1 parametrization vanishes, so the constraint
matrix carries long runs of nearly parallel rows.  The pivoting is
delegated to scipy's HiGHS backend and its vertex is returned as is: the
solver certifies each iterate from the stationary points of its
objective, so it needs a feasible vertex, not one exact to the last digit.

HiGHS dual simplex runs first.  When it fails, or returns a point that
fails the feasibility check, the LP is solved once more with the HiGHS
interior-point method; Infeasible is raised only when both have failed.
scipy.optimize is imported on the first LP, so a process whose solves all
take Remez steps never loads it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Infeasible", "solve_origin_feasible"]


class Infeasible(RuntimeError):
    """The LP could not be solved (``minimax`` also raises it for a singular
    Remez reference system); for the minimax constraints this signals a
    solver bug rather than genuine infeasibility."""


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP: scipy.optimize is
    the package's slowest import and only the LP rounds of the minimax
    solver need it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def solve_origin_feasible(cost, G, h):
    """Minimize cost @ y subject to G @ y <= h with y free.

    Requires h >= 0 (y = 0 feasible), which the minimax formulation
    guarantees; it also makes unboundedness impossible for these
    problems.  Returns (y, cost @ y) for the first HiGHS answer that
    violates no row by more than 1e-8 * (1 + max |h|).
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, d = G.shape
    if h.shape != (m,) or cost.shape != (d,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise ValueError("h must be nonnegative so the origin is feasible")

    # default feasibility tolerances (1e-7) let the solver confuse the
    # near-duplicate rows that the exchange endgame produces; 1e-10
    # is the tightest setting HiGHS accepts
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    scale = 1.0 + float(np.max(np.abs(h)))
    for method in ("highs-ds", "highs-ipm"):
        result = linprog(
            cost, A_ub=G, b_ub=h, bounds=[(None, None)] * d, method=method, options=options
        )
        if not result.success:
            failure = f"LP solve failed ({method}): {result.message}"
            continue
        y = np.asarray(result.x, dtype=float)
        if float(np.max(G @ y - h)) <= 1e-8 * scale:
            return y, float(cost @ y)
        failure = f"LP returned an infeasible point ({method})"
    raise Infeasible(failure)
