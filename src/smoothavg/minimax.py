"""Weighted Chebyshev minimax problems and recovery of the extremal kernels.

Every problem minimizes the max over [-1, 1] of |s(x)| * |p(x)| / scale
over polynomials p of a given degree with p(1) = 1, where |s| is the
magnitude of a difference stencil's symbol (``OperatorSymbol``) in
x = cos xi; under positivity p >= 0 and the objective is signed.  The
smoothness constant of the optimal kernel, scale * (optimal value), is
the weighted sup that ``smoothness`` computes for the same stencil.

The solver is a multi-cut exchange, the Remez multi-point exchange
(Pachon & Trefethen, BIT 49 (2009)) carried out with a linear program so
that a positivity constraint fits in too.  The active set starts as the
degree+2 Chebyshev extreme points.  Each round solves the LP on the active
set and takes the candidates ``extreme_points(p, |s|^2)``: the endpoints
and the real roots of 2 |s|^2 p' + (|s|^2)' p, which hold every local
maximum of the objective (and under positivity the extrema of p, from a
second pass).  It drops the active points outside a 1e-6 band of the
level and adds at once every candidate where the objective is above the
LP level (or p below zero).  The same pass gives the certified continuum
maximum, so the reported certificate gap is the sup of the objective
above the level, not a sampled estimate.

``PROBLEMS`` names the four problems by their stencil:

* first-deriv:       first difference, |s|/scale = sqrt(1-x)  -> h_n, 2/(2n+1)
* laplacian-nonneg:  second difference, |s|/scale = 1 - x, p >= 0
                                                              -> g_n, 4/(n+1)^2
* laplacian:         second difference, no positivity (open problem)
* operator:          the caller's stencil, scale 1 (open problem: the
  optimal kernel for another difference stencil s)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .chebyshev import ChebPoly, extreme_points
from .kernel import GRAD_STENCIL, LAPLACIAN_STENCIL, DiscreteKernel, kernel_from_symbol
from .lp import Infeasible, solve_origin_feasible
from .smoothness import OperatorSymbol

__all__ = [
    "ProblemSpec",
    "PROBLEMS",
    "MinimaxProblem",
    "MinimaxSolution",
    "Stalled",
    "Infeasible",
    "solve",
]

_MAX_ROUNDS = 200
_ACTIVE_TOL = 1e-6  # band of the rows kept between rounds and reported as active


@dataclass(frozen=True)
class ProblemSpec:
    """One row of PROBLEMS.

    The objective is |s| / scale * |p|, or |s| / scale * p under
    positivity (p >= 0), where the two agree on the feasible set.  s is the
    symbol of the difference taps ``stencil``, or of the caller's taps when
    ``stencil`` is None.  scale maps the optimal value to the smoothness
    constant of the optimal kernel, and makes the first- and second-
    difference objectives sqrt(1-x) |p| and (1-x) |p|.  exploratory marks
    the open problems, with no closed-form optimum to check the solution
    against.
    """

    stencil: tuple[float, ...] | None
    positivity: bool
    scale: float
    exploratory: bool


PROBLEMS = {
    "first-deriv": ProblemSpec(GRAD_STENCIL, False, math.sqrt(2.0), False),
    "laplacian": ProblemSpec(LAPLACIAN_STENCIL, False, 2.0, True),
    "laplacian-nonneg": ProblemSpec(LAPLACIAN_STENCIL, True, 2.0, False),
    "operator": ProblemSpec(None, False, 1.0, True),
}


@dataclass(frozen=True, eq=False)  # no field-wise ==: the stencil may be an array
class MinimaxProblem:
    """The problem ``name`` of PROBLEMS over p of the given degree with
    p(1) = 1; ``operator`` needs the difference stencil, the others take none.
    ``symbol`` is the OperatorSymbol of the problem's stencil, built once."""

    name: str
    degree: int
    stencil: np.ndarray | list[float] | None = None
    symbol: OperatorSymbol = field(init=False, repr=False)

    def __post_init__(self):
        if self.name not in PROBLEMS:
            raise ValueError(f"unknown problem {self.name!r}; expected one of {', '.join(PROBLEMS)}")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        own = self.spec.stencil
        if own is None and self.stencil is None:
            raise ValueError(f"{self.name} needs a stencil")
        if own is not None and self.stencil is not None:
            raise ValueError(f"{self.name} takes no stencil")
        object.__setattr__(self, "symbol", OperatorSymbol(self.stencil if own is None else own))

    @property
    def spec(self) -> ProblemSpec:
        return PROBLEMS[self.name]


@dataclass(frozen=True)
class MinimaxSolution:
    """An iterate of solve: p (``coeffs``) at the LP level ``value``, the
    smoothness constant scale * value and the kernel whose symbol is p."""

    coeffs: ChebPoly
    value: float
    constant: float
    kernel: DiscreteKernel
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
    """Active set stopped improving before the tolerance was met, or an LP
    after the first failed (its Infeasible is the ``__cause__``).

    The last audited iterate is attached as ``solution`` (unconverged).
    """

    def __init__(self, solution: MinimaxSolution):
        self.solution = solution
        super().__init__(
            f"cutting-plane solve stalled after {solution.iterations} rounds "
            f"(certificate gap {solution.certificate_gap:.3e})"
        )


def _weight_values(problem: MinimaxProblem, xs: np.ndarray) -> np.ndarray:
    return problem.symbol.magnitude(xs) / problem.spec.scale


def _objective_values(problem: MinimaxProblem, p: ChebPoly, xs: np.ndarray) -> np.ndarray:
    vals = npcheb.chebval(xs, p.coeffs)
    w = _weight_values(problem, xs)
    if problem.spec.positivity:
        return w * vals
    return w * np.abs(vals)


def _solve_restricted(problem: MinimaxProblem, xs: np.ndarray):
    """LP on the active set: minimize the level t with p(1) = 1 eliminated.

    p(x) = 1 + sum_{k>=1} c_k (T_k(x) - 1) keeps the normalization exact;
    shifting t by the largest active weight makes the origin feasible.
    Returns (level, p, number of LP rows).
    """
    n = problem.degree
    w = _weight_values(problem, xs)
    shift = float(np.max(w)) if w.size else 1.0
    vander = npcheb.chebvander(xs, n) if n > 0 else np.ones((xs.size, 1))
    basis = vander[:, 1:] - 1.0  # T_k(x) - 1 for k = 1..n

    rows = [np.hstack([w[:, None] * basis, -np.ones((xs.size, 1))])]
    rhs = [shift - w]
    if problem.spec.positivity:  # p >= 0 rows; the objective is signed, no lower row
        rows.append(np.hstack([-basis, np.zeros((xs.size, 1))]))
        rhs.append(np.ones(xs.size))
    else:
        rows.append(np.hstack([-w[:, None] * basis, -np.ones((xs.size, 1))]))
        rhs.append(shift + w)

    G = np.vstack(rows)
    h = np.concatenate(rhs)
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    y, _ = solve_origin_feasible(cost, G, h)
    c_tail = y[:-1]
    level = y[-1] + shift
    coeffs = np.concatenate([[1.0 - c_tail.sum()], c_tail])
    return float(level), ChebPoly(coeffs), G.shape[0]


def _band(problem: MinimaxProblem, p: ChebPoly, xs: np.ndarray, level: float) -> np.ndarray:
    """Mask of the points whose rows can bind at the LP vertex: the weighted
    objective within _ACTIVE_TOL (relative above 1) of the level or of zero,
    and under positivity p within _ACTIVE_TOL of zero."""
    phi = _objective_values(problem, p, xs)
    keep = (phi >= level - _ACTIVE_TOL * max(1.0, level)) | (phi <= _ACTIVE_TOL)
    if problem.spec.positivity:
        keep |= npcheb.chebval(xs, p.coeffs) <= _ACTIVE_TOL
    return keep


def _solution(problem, level, p, xs, gap, trace, converged) -> MinimaxSolution:
    """The iterate (level, p) of the active set xs; its band points, merged
    within 1e-8, are reported as the active points."""
    pts = np.sort(xs[_band(problem, p, xs, level)])
    merged: list[float] = []
    for x in pts:
        if not merged or x - merged[-1] > 1e-8:
            merged.append(float(x))
    return MinimaxSolution(
        coeffs=p,
        value=level,
        constant=problem.spec.scale * level,
        kernel=kernel_from_symbol(p),
        active_points=merged,
        iterations=len(trace),
        certificate_gap=gap,
        trace=trace,
        converged=converged,
        exploratory=problem.spec.exploratory,
    )


def solve(problem: MinimaxProblem, tol: float = 1e-9) -> MinimaxSolution:
    """Multi-cut exchange solve of the weighted minimax problem.

    Starts from the degree+2 Chebyshev extreme points cos(pi j/(degree+1)).
    Each round solves the LP on the active set and makes one extrema pass
    per polynomial (the objective's, and under positivity p's).  The pass
    gives the certified continuum max, and its candidates (endpoints and
    stationary points) are the violators: every one where the objective is
    above level + tol, and under positivity every one where p is below -tol.
    The solve stops when neither the objective nor -p exceeds its bound by
    more than tol; otherwise the active points outside the _ACTIVE_TOL band
    are dropped and all violators are added at once.
    The LP level is a lower bound and the certified continuum max an upper
    bound on the true optimal value; certificate_gap is the final round's
    max(0, continuum max - level, -min p).

    Solutions of the open problems (``laplacian`` and ``operator``) are
    marked exploratory.

    Raises Stalled with the last audited iterate when no violator lies
    farther than 1e-13 from the active set, when _MAX_ROUNDS pass, or when
    an LP after the first fails; an Infeasible first LP propagates.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = np.cos(np.pi * np.arange(problem.degree + 2) / (problem.degree + 1))
    trace: list[dict] = []
    best = None
    for round_no in range(1, _MAX_ROUNDS + 1):
        try:
            level, p, lp_rows = _solve_restricted(problem, xs)
        except Infeasible as exc:
            if best is None:
                raise
            raise Stalled(_solution(problem, *best, trace, converged=False)) from exc
        cands = extreme_points(p, problem.symbol.magnitude_squared_cheb)
        phi = _objective_values(problem, p, cands)
        cont_max = float(np.max(phi))
        obj_viol = cont_max - level
        cuts = cands[phi > level + tol]
        pos_viol = -math.inf
        if problem.spec.positivity:
            cands = extreme_points(p)
            neg_p = -npcheb.chebval(cands, p.coeffs)
            pos_viol = float(np.max(neg_p))
            cuts = np.concatenate([cuts, cands[neg_p > tol]])
        cuts = cuts[np.min(np.abs(cuts[:, None] - xs[None, :]), axis=1) > 1e-13]
        done = obj_viol <= tol and pos_viol <= tol
        trace.append(
            {
                "round": round_no,
                "lp_value": level,
                "continuum_max": cont_max,
                "gap": obj_viol,
                "positivity_violation": max(0.0, pos_viol),
                "lp_rows": lp_rows,
                "cuts": 0 if done else int(cuts.size),
            }
        )
        best = (level, p, xs, max(0.0, obj_viol, pos_viol))
        if done:
            return _solution(problem, *best, trace, converged=True)
        if not cuts.size:
            break
        xs = np.union1d(xs[_band(problem, p, xs, level)], cuts)
    raise Stalled(_solution(problem, *best, trace, converged=False))

