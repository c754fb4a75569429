"""LP layer of the minimax solver.

``minimax.solve`` takes a linear program on its active set in every round
of the problems that a Remez step cannot solve: under positivity
(``laplacian-nonneg``) and for stencils whose |s| vanishes inside
(-1, 1).  These LPs are small and dense (n+1 free columns, at most a few
hundred rows) but numerically nasty: active points crowd near x = 1 where
every basis function of the p(1) = 1 parametrization vanishes, so the
constraint matrix carries long runs of nearly parallel rows.

They are solved here, with numpy alone, by the dual simplex method on the
active rows, from a dual feasible basis that the caller names.  A basis
is d = n+1 rows held at equality; its inverse gives the vertex y and the
multipliers mu = -B^-T cost >= 0.  While a row is violated, the most
violated one enters and the ratio test on mu picks the row that leaves.
This is Stiefel's exchange (Stiefel, Numer. Math. 1 (1959); Powell,
*Approximation Theory and Methods*, 1981): ``minimax`` starts round 1 from the alternating rows of the Chebyshev
reference and every later round from the previous optimum, whose rows it
keeps while it adds cuts, so the method only repairs the violated rows.
Each pivot updates the inverse by one rank-one term; the inverse is
recomputed from the basis rows every _REFACTOR pivots and always before
the method reports an optimum, so the returned vertex is solved afresh
from its active system (and refined once), never an accumulation of
updates.

A run that passes 50 (m + d) pivots, as a cycle of degenerate pivots
would, ends with the status "Iteration limit".
"""

from __future__ import annotations

import numpy as np

__all__ = ["Infeasible", "solve_origin_feasible"]

_FEAS_TOL = 1e-12  # slack, relative to 1 + max |h|, below which a row is violated
_PIVOT_TOL = 1e-9  # smallest pivot, relative to the largest entry of its row
_REFACTOR = 16  # pivots between recomputations of the basis inverse


class Infeasible(RuntimeError):
    """The LP could not be solved or its start basis is unusable
    (``minimax`` also raises it for a singular Remez reference system); for
    the minimax constraints this signals a solver bug rather than genuine
    infeasibility."""


def _pivot(cost, G, h, basis, inverse):
    """Minimize cost @ y subject to G @ y <= h, y free, by the dual simplex
    method of the module docstring from the dual feasible rows ``basis``
    and their inverse.  Returns (status, y, basis, pivots): the status
    ("Optimal", "Infeasible", "Singular basis" or "Iteration limit"), the
    last vertex, its d basis rows and the number of pivots.
    """
    m, d = G.shape
    ftol = _FEAS_TOL * (1.0 + float(np.max(np.abs(h))))
    pivots = age = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while pivots <= 50 * (m + d):
            if age == 0:  # an exact inverse: the vertex of the basis, solved afresh
                y = inverse @ h[basis]
                slack = h - G @ y
                slack[basis] = 0.0  # basis rows hold at equality by definition
            r = int(slack.argmin())
            if slack[r] >= -ftol:
                if age == 0:  # with one step of iterative refinement
                    y = y + inverse @ (h[basis] - G[basis] @ y)
                    return "Optimal", y, basis, pivots
                age = _REFACTOR  # confirm the optimum on an exact inverse
            else:
                # row r enters, the row whose multiplier first reaches zero leaves
                mu = -(cost @ inverse)
                u = G[r] @ inverse
                ok = u > _PIVOT_TOL * abs(u).max()
                if not ok.any():
                    return "Infeasible", y, basis, pivots
                ratio = np.where(ok, np.maximum(mu, 0.0) / u, np.inf)
                k = int(ratio.argmin())
                column = inverse[:, k]
                slack = slack - (slack[r] / u[k]) * (G @ column)
                # row r replaces basis[k]: rank-one update of the inverse
                u[k] -= 1.0
                inverse = inverse - column[:, None] * (u / (u[k] + 1.0))
                basis[k], slack[r] = r, 0.0
                pivots += 1
                age += 1
            if age == _REFACTOR:
                try:
                    inverse = np.linalg.inv(G[basis])
                except np.linalg.LinAlgError:
                    return "Singular basis", y, basis, pivots
                age = 0
    return "Iteration limit", y, basis, pivots


def solve_origin_feasible(cost, G, h, start):
    """Minimize cost @ y subject to G @ y <= h with y free, from the rows
    ``start`` of G.

    ``start`` must name d distinct rows that form a nonsingular, dual
    feasible basis (multipliers mu = -B^-T cost >= 0), such as the
    alternating rows of a Chebyshev reference or the optimal basis of an
    LP that the rows of G extend; otherwise Infeasible is raised with the
    reason.  h needs no sign.

    Returns (y, cost @ y, stats) when the method reaches an optimum whose
    vertex violates no row by more than 1e-8 * (1 + max |h|); stats holds
    ``lp_status`` ("Optimal"), ``lp_iterations`` (the pivots) and
    ``basis``, the optimal basis rows.  Raises Infeasible otherwise.
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, d = G.shape
    if h.shape != (m,) or cost.shape != (d,):
        raise ValueError("inconsistent LP dimensions")
    basis = np.array(start, dtype=int)
    # a set, not np.unique, which would import numpy.ma
    if basis.shape != (d,) or len(set(basis.tolist())) != d or np.any((basis < 0) | (basis >= m)):
        raise Infeasible(f"start basis needs {d} distinct rows of 0..{m - 1}, got {basis.tolist()}")
    try:
        inverse = np.linalg.inv(G[basis])
    except np.linalg.LinAlgError:
        raise Infeasible("start basis is singular") from None
    mu = -(cost @ inverse)
    if np.any(mu < -_PIVOT_TOL * abs(mu).max()):
        raise Infeasible("start basis is not dual feasible")

    status, y, basis, pivots = _pivot(cost, G, h, basis, inverse)
    if status != "Optimal":
        raise Infeasible(f"LP solve failed: {status}")
    if float(np.max(G @ y - h)) > 1e-8 * (1.0 + float(np.max(np.abs(h)))):
        raise Infeasible("LP returned an infeasible point")
    return y, float(cost @ y), {"lp_status": status, "lp_iterations": pivots, "basis": basis}
