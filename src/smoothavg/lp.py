"""LP layer of the minimax solver.

``minimax.solve`` takes a linear program on its active set in every round
of the problems that a Remez step cannot solve: under positivity
(``laplacian-nonneg``) and for stencils whose |s| vanishes inside
(-1, 1).  These LPs are small (a few hundred rows, a few dozen columns)
but numerically nasty: active points crowd near x = 1 where every basis
function of the p(1) = 1 parametrization vanishes, so the constraint
matrix carries long runs of nearly parallel rows.  The pivoting is
delegated to HiGHS and its vertex is returned as is: the solver certifies
each iterate from the stationary points of its objective, so it needs a
feasible vertex, not one exact to the last digit.

The model goes straight to the HiGHS binding that scipy bundles
(``scipy.optimize._highspy._core``; the package requires scipy >= 1.17,
the oldest release it was checked against), the one behind
``scipy.optimize.linprog``.  It is the model and the options that
``linprog(method="highs-ds" or "highs-ipm")`` builds, so the vertices
are bitwise those of ``linprog``, without its per-call input checks,
sparse conversion and option validation.

HiGHS dual simplex runs first.  When it fails, or returns a point that
fails the feasibility check, the LP is solved once more with the HiGHS
interior-point method; Infeasible is raised only when both have failed.
scipy.optimize is imported on the first LP, so a process whose solves all
take Remez steps never loads it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Infeasible", "solve_origin_feasible"]

# the options linprog passes to HiGHS for its highs-ds and highs-ipm
# methods, silenced; linprog sets the dual simplex strategy for both.
# Default feasibility tolerances (1e-7) let the solver confuse the
# near-duplicate rows that the exchange endgame produces; 1e-10 is the
# tightest setting HiGHS accepts.
_OPTIONS = {
    "presolve": "on",
    "highs_debug_level": 0,
    "output_flag": False,
    "log_to_console": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_strategy": 1,  # dual simplex
}
_SOLVERS = {"highs-ds": "simplex", "highs-ipm": "ipm"}


class Infeasible(RuntimeError):
    """The LP could not be solved (``minimax`` also raises it for a singular
    Remez reference system); for the minimax constraints this signals a
    solver bug rather than genuine infeasibility."""


def _highs_solve(cost, G, h, method):
    """Minimize cost @ y subject to G @ y <= h, y free, with HiGHS
    ``method`` ("highs-ds" or "highs-ipm").

    Returns (status, y, iterations): HiGHS's model-status string, the
    column values (None unless the status is "Optimal") and the simplex
    iterations, or for the interior-point method its iterations plus the
    crossover's.  The matrix is passed column-wise with its exact zeros
    dropped, as scipy's CSC conversion drops them.
    """
    from scipy.optimize._highspy import _core as highs

    m, d = G.shape
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = d, m
    matrix = lp.a_matrix_
    matrix.num_col_, matrix.num_row_ = d, m
    matrix.format_ = highs.MatrixFormat.kColwise
    columns = G.T
    nonzero = columns != 0.0
    matrix.start_ = np.concatenate([[0], np.cumsum(np.count_nonzero(nonzero, axis=1))])
    matrix.index_ = np.nonzero(nonzero)[1]
    matrix.value_ = columns[nonzero]
    lp.col_cost_ = cost
    lp.col_lower_ = np.full(d, -np.inf)
    lp.col_upper_ = np.full(d, np.inf)
    lp.row_lower_ = np.full(m, -np.inf)
    lp.row_upper_ = h

    solver = highs._Highs()
    for key, value in _OPTIONS.items():
        solver.setOptionValue(key, value)
    solver.setOptionValue("solver", _SOLVERS[method])
    # as in linprog: a model HiGHS rejects is a model error, and a run
    # that ends in error gives no solution whatever its model status
    loaded = solver.passModel(lp) != highs.HighsStatus.kError
    ran = loaded and solver.run() != highs.HighsStatus.kError
    status = solver.getModelStatus() if loaded else highs.HighsModelStatus.kModelError
    info = solver.getInfo()
    if method == "highs-ds":
        iterations = info.simplex_iteration_count
    else:
        iterations = info.ipm_iteration_count + info.crossover_iteration_count
    y = None
    if ran and status == highs.HighsModelStatus.kOptimal:
        y = np.array(solver.getSolution().col_value)
    return solver.modelStatusToString(status), y, iterations


def solve_origin_feasible(cost, G, h):
    """Minimize cost @ y subject to G @ y <= h with y free.

    Requires h >= 0 (y = 0 feasible), which the minimax formulation
    guarantees; it also makes unboundedness impossible for these
    problems.  Returns (y, cost @ y, stats) for the first HiGHS answer
    that violates no row by more than 1e-8 * (1 + max |h|); stats holds
    that answer's ``highs_status`` (the model-status string) and
    ``highs_iterations`` (see ``_highs_solve``).
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, d = G.shape
    if h.shape != (m,) or cost.shape != (d,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise ValueError("h must be nonnegative so the origin is feasible")

    scale = 1.0 + float(np.max(np.abs(h)))
    for method in _SOLVERS:
        status, y, iterations = _highs_solve(cost, G, h, method)
        if y is None:
            failure = f"LP solve failed ({method}): HiGHS model status {status}"
            continue
        if float(np.max(G @ y - h)) <= 1e-8 * scale:
            return y, float(cost @ y), {"highs_status": status, "highs_iterations": iterations}
        failure = f"LP returned an infeasible point ({method})"
    raise Infeasible(failure)
