"""Weighted Chebyshev minimax problems and recovery of the extremal kernels.

Minimizes max over [-1, 1] of a weighted polynomial objective over
polynomials with p(1) = 1, by a cutting-plane scheme: a linear program on
a finite active set of points, audited against the true continuum
maximum, which is added as a new constraint until the two agree.

The two theorem problems are

* signed, nonneg:  min max (1 - x) p(x) over p >= 0    -> g_n, 2/(n+1)^2
* absolute:        min max sqrt(1-x) |p(x)|            -> h_n, with
  (optimal value)^2 = 2/(2n+1)^2

and the general-operator objective sqrt(|s|^2(x)) |p(x)| explores
optimal kernels for other difference operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .chebyshev import ChebPoly, cheb_mul, extreme_points, mul_one_minus_x
from .kernel import kernel_from_symbol
from .lp import Infeasible, solve_origin_feasible
from .smoothness import OperatorSymbol

__all__ = [
    "WeightKind",
    "MinimaxProblem",
    "MinimaxSolution",
    "Stalled",
    "Infeasible",
    "solve",
    "recover_first_deriv_extremal",
    "recover_laplacian_extremal",
    "explore_operator",
]

_MAX_ROUNDS = 200
_AUDIT_GRID = 10**5
_ACTIVE_TOL = 1e-6  # classification window for near-equioscillation points


class WeightKind(Enum):
    ONE_MINUS_X_TIMES_ABS = "one_minus_x_times_abs"
    ONE_MINUS_X_SIGNED_NONNEG = "one_minus_x_signed_nonneg"
    SQRT_ONE_MINUS_X_TIMES_ABS = "sqrt_one_minus_x_times_abs"
    GENERAL = "general"


_SIGNED_KINDS = {WeightKind.ONE_MINUS_X_SIGNED_NONNEG}


@dataclass(frozen=True)
class MinimaxProblem:
    """Objective max over [-1,1] of weight * (p or |p|), p(1) = 1 fixed."""

    degree: int
    weight_kind: WeightKind
    positivity: bool = False
    magnitude_squared: ChebPoly | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.weight_kind is WeightKind.GENERAL and self.magnitude_squared is None:
            raise ValueError("general weight needs magnitude_squared")


@dataclass(frozen=True)
class MinimaxSolution:
    coeffs: ChebPoly
    value: float
    active_points: list[float]
    iterations: int
    certificate_gap: float
    trace: list[dict] = field(default_factory=list)
    converged: bool = True
    exploratory: bool = False

    def to_dict(self) -> dict:
        return {
            "coeffs": self.coeffs.coeffs.tolist(),
            "value": self.value,
            "active_points": list(self.active_points),
            "iterations": self.iterations,
            "certificate_gap": self.certificate_gap,
            "trace": list(self.trace),
            "converged": self.converged,
            "exploratory": self.exploratory,
        }


class Stalled(RuntimeError):
    """Active set stopped improving before the tolerance was met.

    The best iterate is attached as ``solution`` (flagged unconverged).
    """

    def __init__(self, solution: MinimaxSolution):
        self.solution = solution
        super().__init__(
            f"cutting-plane solve stalled after {solution.iterations} rounds "
            f"(certificate gap {solution.certificate_gap:.3e})"
        )


def _weight_values(problem: MinimaxProblem, xs: np.ndarray) -> np.ndarray:
    kind = problem.weight_kind
    if kind in (WeightKind.ONE_MINUS_X_TIMES_ABS, WeightKind.ONE_MINUS_X_SIGNED_NONNEG):
        return 1.0 - xs
    if kind is WeightKind.SQRT_ONE_MINUS_X_TIMES_ABS:
        return np.sqrt(np.clip(1.0 - xs, 0.0, None))
    return np.sqrt(np.clip(npcheb.chebval(xs, problem.magnitude_squared.coeffs), 0.0, None))


def _objective_values(problem: MinimaxProblem, p: ChebPoly, xs: np.ndarray) -> np.ndarray:
    vals = npcheb.chebval(xs, p.coeffs)
    w = _weight_values(problem, xs)
    if problem.weight_kind in _SIGNED_KINDS:
        return w * vals
    return w * np.abs(vals)


def _near_maxima(xs: np.ndarray, vals: np.ndarray):
    vmax = float(np.max(vals))
    keep = vals >= vmax - max(1e-12, 1e-9 * abs(vmax))
    return vmax, xs[keep]


def _signed_max_candidates(q: ChebPoly):
    xs = extreme_points(q)
    return _near_maxima(xs, npcheb.chebval(xs, q.coeffs))


def _continuum_max(problem: MinimaxProblem, p: ChebPoly):
    """True max of the weighted objective, with all near-maximizers."""
    kind = problem.weight_kind
    if kind is WeightKind.ONE_MINUS_X_SIGNED_NONNEG:
        return _signed_max_candidates(mul_one_minus_x(p))
    if kind is WeightKind.ONE_MINUS_X_TIMES_ABS:
        # one extrema pass serves q and -q: their candidate points coincide
        q = mul_one_minus_x(p)
        xs = extreme_points(q)
        vals = npcheb.chebval(xs, q.coeffs)
        vplus, xplus = _near_maxima(xs, vals)
        vminus, xminus = _near_maxima(xs, -vals)
        if vminus > vplus:
            return vminus, xminus
        if vplus > vminus:
            return vplus, xplus
        return vplus, np.concatenate([xplus, xminus])
    if kind is WeightKind.SQRT_ONE_MINUS_X_TIMES_ABS:
        sq = mul_one_minus_x(cheb_mul(p, p))
    else:
        sq = cheb_mul(problem.magnitude_squared, cheb_mul(p, p))
    vmax, xs = _signed_max_candidates(sq)
    return math.sqrt(max(vmax, 0.0)), xs


def _continuum_min(p: ChebPoly):
    vmax, xs = _signed_max_candidates(ChebPoly(-p.coeffs))
    return -vmax, xs


def _solve_restricted(problem: MinimaxProblem, xs: np.ndarray):
    """LP on the active set: minimize the level t with p(1) = 1 eliminated.

    p(x) = 1 + sum_{k>=1} c_k (T_k(x) - 1) keeps the normalization exact;
    shifting t by the largest active weight makes the origin feasible.
    """
    n = problem.degree
    w = _weight_values(problem, xs)
    shift = float(np.max(w)) if w.size else 1.0
    vander = npcheb.chebvander(xs, n) if n > 0 else np.ones((xs.size, 1))
    basis = vander[:, 1:] - 1.0  # T_k(x) - 1 for k = 1..n

    rows = [np.hstack([w[:, None] * basis, -np.ones((xs.size, 1))])]
    rhs = [shift - w]
    if problem.weight_kind not in _SIGNED_KINDS:
        rows.append(np.hstack([-w[:, None] * basis, -np.ones((xs.size, 1))]))
        rhs.append(shift + w)
    if problem.positivity:
        rows.append(np.hstack([-basis, np.zeros((xs.size, 1))]))
        rhs.append(np.ones(xs.size))

    G = np.vstack(rows)
    h = np.concatenate(rhs)
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    y, _ = solve_origin_feasible(cost, G, h)
    c_tail = y[:-1]
    level = y[-1] + shift
    coeffs = np.concatenate([[1.0 - c_tail.sum()], c_tail])
    return float(level), ChebPoly(coeffs)


def _farthest_from(candidates: np.ndarray, active: np.ndarray):
    if candidates.size == 0:
        return None
    dists = np.min(np.abs(candidates[:, None] - active[None, :]), axis=1)
    i = int(np.argmax(dists))
    if dists[i] < 1e-13:
        return None
    return float(candidates[i])


def _active_points(problem: MinimaxProblem, p: ChebPoly, xs: np.ndarray, level: float):
    """Near-equioscillation set: active-set points where the weighted
    objective is within 1e-6 of the level or of zero."""
    phi = _objective_values(problem, p, xs)
    keep = (phi >= level - _ACTIVE_TOL) | (phi <= _ACTIVE_TOL)
    pts = np.sort(xs[keep])
    merged: list[float] = []
    for x in pts:
        if not merged or x - merged[-1] > 1e-8:
            merged.append(float(x))
    return merged


def _certificate_gap(problem: MinimaxProblem, p: ChebPoly, level: float) -> float:
    xs = np.linspace(-1.0, 1.0, _AUDIT_GRID)
    viol = float(np.max(_objective_values(problem, p, xs))) - level
    if problem.positivity:
        viol = max(viol, -float(np.min(npcheb.chebval(xs, p.coeffs))))
    return max(0.0, viol)


def solve(problem: MinimaxProblem, tol: float = 1e-9) -> MinimaxSolution:
    """Cutting-plane solve of the weighted minimax problem.

    Starts from a Chebyshev-point grid of 16(degree+2) points; each round
    solves the active-set LP, locates the true continuum maximizer (and,
    under the positivity constraint, the minimizer of p), and adds the
    worst violator until the continuum max exceeds the LP level by less
    than tol.  The LP level is a lower bound and the audited continuum max
    an upper bound on the true optimal value.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = np.unique(np.cos(np.linspace(np.pi, 0.0, 16 * (problem.degree + 2))))
    trace: list[dict] = []
    level, p = _solve_restricted(problem, xs)
    for round_no in range(1, _MAX_ROUNDS + 1):
        cont_max, max_cands = _continuum_max(problem, p)
        obj_viol = cont_max - level
        if problem.positivity:
            pmin, min_cands = _continuum_min(p)
            pos_viol = -pmin
        else:
            pos_viol, min_cands = -math.inf, np.empty(0)
        trace.append(
            {
                "round": round_no,
                "lp_value": level,
                "continuum_max": cont_max,
                "gap": obj_viol,
                "positivity_violation": max(0.0, pos_viol),
            }
        )
        if obj_viol <= tol and pos_viol <= tol:
            return MinimaxSolution(
                coeffs=p,
                value=level,
                active_points=_active_points(problem, p, xs, level),
                iterations=round_no,
                certificate_gap=_certificate_gap(problem, p, level),
                trace=trace,
                converged=True,
            )
        candidates = min_cands if pos_viol > obj_viol else max_cands
        x_new = _farthest_from(np.asarray(candidates, dtype=float), xs)
        if x_new is None:
            break
        xs = np.sort(np.append(xs, x_new))
        level, p = _solve_restricted(problem, xs)
    solution = MinimaxSolution(
        coeffs=p,
        value=level,
        active_points=_active_points(problem, p, xs, level),
        iterations=len(trace),
        certificate_gap=_certificate_gap(problem, p, level),
        trace=trace,
        converged=False,
    )
    raise Stalled(solution)


def recover_first_deriv_extremal(n: int, tol: float = 1e-9):
    """Optimal kernel for the first-difference constant at radius n.

    Solves the absolute sqrt(1-x) problem at degree n and maps the symbol
    back to a kernel; the reported value carries the sqrt(2) scaling of
    M(u), so the expected outcome is the box kernel at value 2/(2n+1).
    """
    problem = MinimaxProblem(n, WeightKind.SQRT_ONE_MINUS_X_TIMES_ABS)
    sol = solve(problem, tol)
    return kernel_from_symbol(sol.coeffs), math.sqrt(2.0) * sol.value


def recover_laplacian_extremal(n: int, nonneg_constraint: bool = True, tol: float = 1e-9):
    """Optimal kernel for the second-difference constant at radius n.

    With the nonnegative-transform constraint the answer is the triangle
    kernel at value 4/(n+1)^2.  Without it the positivity constraint is
    dropped (an open problem); the LP result is reported with
    equioscillation diagnostics and no claimed closed form.
    """
    if nonneg_constraint:
        problem = MinimaxProblem(n, WeightKind.ONE_MINUS_X_SIGNED_NONNEG, positivity=True)
    else:
        problem = MinimaxProblem(n, WeightKind.ONE_MINUS_X_TIMES_ABS)
    sol = solve(problem, tol)
    return kernel_from_symbol(sol.coeffs), 2.0 * sol.value


def explore_operator(n: int, stencil, tol: float = 1e-9) -> MinimaxSolution:
    """Minimax kernel search for a general difference stencil (exploratory).

    Minimizes max sqrt(|s|^2(x)) |p(x)| over p(1) = 1 of degree <= n; no
    optimality is claimed beyond the audited equioscillation structure.
    """
    op = OperatorSymbol(np.asarray(stencil, dtype=float))
    problem = MinimaxProblem(
        n, WeightKind.GENERAL, magnitude_squared=op.magnitude_squared_cheb
    )
    sol = solve(problem, tol)
    return MinimaxSolution(
        coeffs=sol.coeffs,
        value=sol.value,
        active_points=sol.active_points,
        iterations=sol.iterations,
        certificate_gap=sol.certificate_gap,
        trace=sol.trace,
        converged=sol.converged,
        exploratory=True,
    )
