"""LP layer of the minimax solver.

``minimax.solve`` takes a linear program on its active set in every round
of the problems that a Remez step cannot solve: under positivity
(``laplacian-nonneg``) and for stencils whose |s| vanishes inside
(-1, 1).  These LPs are small and dense (n+1 free columns, at most a few
hundred rows) but numerically nasty: active points crowd near x = 1 where
every basis function of the p(1) = 1 parametrization vanishes, so the
constraint matrix carries long runs of nearly parallel rows.

They are solved here, with numpy alone, by a revised simplex method on
the active rows.  A basis is d = n+1 rows held at equality; its inverse
gives the vertex y and the multipliers mu = -B^-T cost.  Each pivot
replaces one basis row and updates the inverse by one rank-one term; the
inverse is recomputed from the basis rows every _REFACTOR pivots and
always before the method reports an optimum, so the returned vertex is
solved afresh from its active system (and refined once), never an
accumulation of updates.

* From the origin (feasible, since h >= 0) the method pivots in the
  primal: the free columns start as pseudo-rows y_j = 0, which leave the
  basis once and never return (a free column never leaves), and a row
  with a negative multiplier leaves for the first row that blocks the
  step (Dantzig pricing).
* From a dual feasible ``start`` basis (mu >= 0), such as the previous
  round's optimum, whose rows the next round keeps while it adds cuts,
  the method pivots in the dual: the most violated row enters and the
  ratio test on mu picks the row that leaves.  This is Stiefel's
  exchange (Stiefel, Numer. Math. 1 (1959); Powell, *Approximation
  Theory and Methods*, 1981), and it only has to repair the new rows.

A run that passes 50 (m + d) pivots, as a cycle of degenerate pivots
would, ends with the status "Iteration limit".
"""

from __future__ import annotations

import numpy as np

__all__ = ["Infeasible", "solve_origin_feasible"]

_FEAS_TOL = 1e-12  # slack, relative to 1 + max |h|, below which a row is violated
_PIVOT_TOL = 1e-9  # smallest pivot, relative to the largest entry of its column
_REFACTOR = 16  # pivots between recomputations of the basis inverse


class Infeasible(RuntimeError):
    """The LP could not be solved (``minimax`` also raises it for a singular
    Remez reference system); for the minimax constraints this signals a
    solver bug rather than genuine infeasibility."""


def _pivot(cost, G, h, start):
    """Minimize cost @ y subject to G @ y <= h, y free, by the revised
    simplex method described in the module docstring.

    Starts from the rows ``start`` when they form a nonsingular basis
    whose multipliers are nonnegative, otherwise from the origin.  Returns
    (status, y, basis, pivots): the status string ("Optimal", "Unbounded",
    "Infeasible", "Singular basis" or "Iteration limit"), the last vertex,
    its d basis rows (an index m + j stands for the pseudo-row y_j = 0 of
    a free column that never entered) and the number of pivots.
    """
    m, d = G.shape
    rows = np.vstack([G, np.eye(d)])
    rhs = np.concatenate([h, np.zeros(d)])
    ftol = _FEAS_TOL * (1.0 + float(np.max(np.abs(h))))
    basis, inverse = np.arange(m, m + d), np.eye(d)
    if start is not None and len(start) == len(set(start)) == d and all(0 <= i < m for i in start):
        try:
            warm = np.linalg.inv(rows[start])
        except np.linalg.LinAlgError:
            warm = None
        if warm is not None:
            mu = -(cost @ warm)
            if np.all(mu >= -_PIVOT_TOL * abs(mu).max()):
                basis, inverse = np.array(start), warm
    free = basis >= m  # pseudo-rows of the free columns still out
    pivots = age = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while pivots <= 50 * (m + d):
            if age == 0:  # an exact inverse: the vertex of the basis, solved afresh
                y = inverse @ rhs[basis]
                slack = h - G @ y
                slack[basis[~free]] = 0.0  # basis rows hold at equality by definition
            mu = -(cost @ inverse)
            r = int(slack.argmin())
            if slack[r] < -ftol:
                # dual pivot: row r enters, the real row whose multiplier
                # first reaches zero leaves
                u = G[r] @ inverse
                ok = (u > _PIVOT_TOL * abs(u).max()) & ~free
                if not ok.any():
                    return "Infeasible", y, basis, pivots
                ratio = np.where(ok, np.maximum(mu, 0.0) / u, np.inf)
                k = int(ratio.argmin())
                column = inverse[:, k]
                slack = slack - (slack[r] / u[k]) * (G @ column)
            else:
                # primal pivot: a pseudo-row with a nonzero multiplier, or a
                # real row with a negative one, leaves for the first row
                # that blocks the step
                score = np.where(free, -abs(mu), mu) if free.any() else mu
                k = int(score.argmin())
                if score[k] >= -_FEAS_TOL:
                    if age == 0:  # with one step of iterative refinement
                        y = y + inverse @ (rhs[basis] - rows[basis] @ y)
                        return "Optimal", y, basis, pivots
                    age = _REFACTOR  # confirm the optimum on an exact inverse
                else:
                    column = inverse[:, k]
                    rate = (G @ column) * (1.0 if free[k] and mu[k] > 0.0 else -1.0)
                    ok = rate > _PIVOT_TOL * abs(rate).max()
                    if not ok.any():
                        return "Unbounded", y, basis, pivots
                    ratio = np.where(ok, np.maximum(slack, 0.0) / rate, np.inf)
                    # among near ties, the largest pivot
                    near = ratio <= ratio.min() + ftol / rate
                    r = int(np.where(near, rate, 0.0).argmax())
                    slack = slack - ratio[r] * rate
                    u = G[r] @ inverse
            if age < _REFACTOR:
                # row r replaces basis[k]: rank-one update of the inverse
                u[k] -= 1.0
                inverse = inverse - column[:, None] * (u / (u[k] + 1.0))
                basis[k], free[k], slack[r] = r, False, 0.0
                pivots += 1
                age += 1
            if age == _REFACTOR:
                try:
                    inverse = np.linalg.inv(rows[basis])
                except np.linalg.LinAlgError:
                    return "Singular basis", y, basis, pivots
                age = 0
    return "Iteration limit", y, basis, pivots


def solve_origin_feasible(cost, G, h, start=None):
    """Minimize cost @ y subject to G @ y <= h with y free.

    Requires h >= 0 (y = 0 feasible), which the minimax formulation
    guarantees; it also makes unboundedness impossible for these
    problems.  ``start`` optionally names d rows of G to start from; they
    are used when they form a dual feasible basis (a re-solve after rows
    were added to an LP whose optimal basis they were), and ignored
    otherwise.

    Returns (y, cost @ y, stats) when the method reaches an optimum whose
    vertex violates no row by more than 1e-8 * (1 + max |h|); stats holds
    ``lp_status`` ("Optimal"), ``lp_iterations`` (the pivots) and
    ``basis``, the optimal basis rows (see ``_pivot``).  Raises Infeasible
    otherwise.
    """
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, d = G.shape
    if h.shape != (m,) or cost.shape != (d,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise ValueError("h must be nonnegative so the origin is feasible")

    status, y, basis, pivots = _pivot(cost, G, h, start)
    if status != "Optimal":
        raise Infeasible(f"LP solve failed: {status}")
    if float(np.max(G @ y - h)) > 1e-8 * (1.0 + float(np.max(np.abs(h)))):
        raise Infeasible("LP returned an infeasible point")
    return y, float(cost @ y), {"lp_status": status, "lp_iterations": pivots, "basis": basis}
