"""Weighted Chebyshev minimax problems and recovery of the extremal kernels.

Every problem minimizes the max over [-1, 1] of |s(x)| * |p(x)| over
polynomials p of a given degree with p(1) = 1, where |s| is the magnitude
of a difference stencil's symbol (``OperatorSymbol``) in x = cos xi;
under positivity p >= 0 and the objective is signed.  The optimal value
is the smoothness constant of the optimal kernel, the weighted sup that
``smoothness`` computes for the same stencil, and every level, trace
number, certificate gap and tolerance is in its units.

``solve`` is an exchange method with two kinds of round, chosen by the
problem's data.  Without positivity, and when |s| has no zero inside
(-1, 1) (``OperatorSymbol.vanishes_inside``), the problem is best
approximation of w = |s| from the Haar system w (T_k - 1),
k = 1..degree, and each round is a Remez step (Pachon & Trefethen, BIT 49
(2009)): one (degree+1) x (degree+1) linear solve for the polynomial whose
error w p levels out with alternating signs on the reference.  Under
positivity, or when |s| vanishes inside (-1, 1), where the Haar condition
fails, each round solves a linear program (``lp``) on an active set
instead.  Both kinds share the candidate pass: ``extreme_points(p, w)``
on the stencil's factored weight w = (m, Q), |s|^2 = (2 (1 - x))^m Q
(``OperatorSymbol.weight``), gives the endpoints and the real roots of
(|s|^2 p^2)' / p with the factor (2 (1 - x))^(m-1) of m >= 1 divided out,
which hold every local maximum of the objective (and under positivity the
extrema of p, from a second pass).  The same pass gives the certified
continuum maximum, so the reported certificate gap is the sup of the
objective above the level, not a sampled estimate, and it supplies the
next reference or the LP's cuts: each later LP runs on the last optimal
basis points and the cuts.  The active points are the certificate: the
final reference, or the last LP's basis points and x = 1 (where p(1) = 1).

``PROBLEMS`` names the four problems by their stencil:

* first-deriv:       first difference, |s| = sqrt(2 (1-x))  -> h_n, 2/(2n+1)
* laplacian-nonneg:  second difference, |s| = 2 (1 - x), p >= 0
                                                            -> g_n, 4/(n+1)^2
* laplacian:         second difference, no positivity (open problem)
* operator:          the caller's stencil (open problem: the optimal
  kernel for another difference stencil s)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .chebyshev import ChebPoly, extreme_points
from .kernel import GRAD_STENCIL, LAPLACIAN_STENCIL, DiscreteKernel, kernel_from_symbol
from .lp import Infeasible, solve_origin_feasible
from .smoothness import OperatorSymbol, _stencil_symbol

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
_START_FLOOR = 1e-6  # |s| below this times sum |taps| counts as a zero for round 1's start


@dataclass(frozen=True)
class ProblemSpec:
    """One row of PROBLEMS.

    The objective is |s| |p|, or |s| p under positivity (p >= 0), where the
    two agree on the feasible set.  s is the symbol of the difference taps
    ``stencil``, or of the caller's taps when ``stencil`` is None, so the
    optimal value is the smoothness constant of the optimal kernel.
    exploratory marks the open problems, with no closed-form optimum to
    check the solution against.
    """

    stencil: tuple[float, ...] | None
    positivity: bool
    exploratory: bool


PROBLEMS = {
    "first-deriv": ProblemSpec(GRAD_STENCIL, False, False),
    "laplacian": ProblemSpec(LAPLACIAN_STENCIL, False, True),
    "laplacian-nonneg": ProblemSpec(LAPLACIAN_STENCIL, True, False),
    "operator": ProblemSpec(None, False, True),
}


@dataclass(frozen=True, eq=False)  # no field-wise ==: the stencil may be an array
class MinimaxProblem:
    """The problem ``name`` of PROBLEMS over p of the given degree with
    p(1) = 1; ``operator`` needs the difference stencil, the others take none.
    ``symbol`` is the OperatorSymbol of the problem's stencil, built once
    per problem, or once per process for the stencils of PROBLEMS."""

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
        object.__setattr__(self, "symbol", OperatorSymbol(self.stencil) if own is None
                           else _stencil_symbol(own))

    @property
    def spec(self) -> ProblemSpec:
        return PROBLEMS[self.name]


@dataclass(frozen=True)
class MinimaxSolution:
    """An iterate of solve: p (``coeffs``) at the level ``value`` (the LP
    optimum or the Remez |E|), in the units of the smoothness constant of
    the kernel whose symbol is p, and the points that certify the level."""

    coeffs: ChebPoly
    value: float
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
    """The active set or reference stopped improving before the tolerance
    was met, the Remez error lost its alternation, or an LP or reference
    system after the first failed (its Infeasible is the ``__cause__``).

    The last audited iterate is attached as ``solution`` (unconverged).
    """

    def __init__(self, solution: MinimaxSolution):
        self.solution = solution
        super().__init__(
            f"minimax solve stalled after {solution.iterations} rounds "
            f"(certificate gap {solution.certificate_gap:.3e})"
        )


def _normalized_basis(xs: np.ndarray, n: int) -> np.ndarray:
    """T_k(x) - 1 for k = 1..n at xs: p(x) = 1 + sum_{k>=1} c_k (T_k(x) - 1)
    keeps the normalization p(1) = 1 exact."""
    vander = npcheb.chebvander(xs, n) if n > 0 else np.ones((xs.size, 1))
    return vander[:, 1:] - 1.0


def _polynomial(c_tail: np.ndarray) -> ChebPoly:
    return ChebPoly(np.concatenate([[1.0 - c_tail.sum()], c_tail]))


def _solve_restricted(problem: MinimaxProblem, xs: np.ndarray, start):
    """LP on the active set xs (ascending): minimize the level t with
    p(1) = 1 eliminated.  There p = 1, so x = 1 only bounds the level by
    w(1) and takes no row: the LP runs on the k points below 1 and the level
    is the larger of its optimum and w(1).  Where w(1) is the optimum, the
    LP so picks a p with slack below 1, not a vertex of the face of optima.

    Row i < k bounds the objective at the i-th point from above; row k + i
    bounds it from below, or under positivity keeps p >= 0 there.  The LP
    starts from the dual feasible basis ``start``, as (points, upper)
    arrays of points in xs.  Returns (level, p, trace fields): the fields
    are ``lp_rows``, the number of LP rows, the LP's ``lp_status`` and
    ``lp_iterations``, and ``basis``, its optimal basis in the form of
    ``start``, which solve takes out of the row and keeps with the cuts.
    """
    top = float(problem.symbol.magnitude(np.ones(1))[0])
    xs = xs[xs < 1.0]
    n, k = problem.degree, xs.size
    w = problem.symbol.magnitude(xs)
    basis = _normalized_basis(xs, n)

    rows = [np.hstack([w[:, None] * basis, -np.ones((k, 1))])]
    rhs = [-w]
    if problem.spec.positivity:  # p >= 0 rows; the objective is signed, no lower row
        rows.append(np.hstack([-basis, np.zeros((k, 1))]))
        rhs.append(np.ones(k))
    else:
        rows.append(np.hstack([-w[:, None] * basis, -np.ones((k, 1))]))
        rhs.append(w)

    G = np.vstack(rows)
    h = np.concatenate(rhs)
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    points, upper = start
    at = np.searchsorted(xs, points)
    y, _, stats = solve_origin_feasible(cost, G, h, at + np.where(upper, 0, k))
    optimal = stats["basis"]
    fields = {"lp_rows": G.shape[0], "lp_status": stats["lp_status"],
              "lp_iterations": stats["lp_iterations"],
              "basis": (xs[optimal % k], optimal < k)}
    return max(float(y[-1]), top), _polynomial(y[:-1]), fields


def _merged(*parts: np.ndarray) -> np.ndarray:
    """The distinct points of parts, ascending, by a sort and an exact-
    neighbour test (np.unique would import numpy.ma)."""
    xs = np.sort(np.concatenate(parts))
    return xs[np.append(True, xs[1:] != xs[:-1])]


def _reference_start(problem: MinimaxProblem):
    """Round 1 of the LP path: the active set cos(pi j/(n+1)), j = 0..n+1,
    ascending, and its start basis, the rows at j = 1..n+1 (as ``start`` of
    _solve_restricted): upper at j = 1, then lower (positivity) and upper in
    turn.  On distinct points of [-1, 1) with w > 0 these rows are dual
    feasible by the Haar property of T_k - 1 on [-1, 1).  A row at a zero of
    |s| (below _START_FLOOR of sum |taps|) only reads t >= 0: one of them,
    the last, still makes a basis with the others, but two are singular.
    So every other such row moves halfway in angle towards the neighbour
    nearer x = 1, and back by halves while |s| still vanishes there; the
    moved points join the active set.
    """
    n = problem.degree
    grid = np.pi * np.arange(1, n + 2) / (n + 1)
    floor = _START_FLOOR * float(np.abs(problem.symbol.taps).sum())
    zero = problem.symbol.magnitude(np.cos(grid)) <= floor
    zero[zero.size - 1 - int(np.argmax(zero[::-1]))] = False  # the last zero stays
    theta, step = grid.copy(), np.pi / (n + 1)
    for _ in range(50):
        if not zero.any():
            break
        step /= 2
        theta[zero] = grid[zero] - step
        zero &= problem.symbol.magnitude(np.cos(theta)) <= floor
    points = np.cos(theta)
    xs = _merged(np.cos(np.pi * np.arange(n + 2) / (n + 1)), points[theta != grid])
    return xs, (points, np.arange(n + 1) % 2 == 0)


def _remez_start(problem: MinimaxProblem) -> np.ndarray:
    """Round 1's reference on the Remez path: degree+1 points of [-1, 1).

    On a model stencil, c (1 - z)^m (1 + z)^m' up to a shift
    (``OperatorSymbol.model_orders``) with (m, m') one of (1, 0), (1, 1) and
    (2, 0), it is the set where a known p of degree n with p(1) = 1 makes
    the error w p level out with alternating signs, ascending:

    * (1, 0), the first difference: w is a multiple of sin(xi/2), the box
      kernel's p is the Dirichlet kernel sin((n+1/2) xi) / ((2n+1) sin(xi/2)),
      and w p a multiple of sin((n+1/2) xi), extremal at
      xi_j = (j+1/2) pi/(n+1/2), j = 0..n;
    * (1, 1): w is a multiple of sin xi, p = U_n(x)/(n+1) and w p a multiple
      of sin((n+1) xi), extremal at xi_j = (j+1/2) pi/(n+1), j = 0..n;
    * (2, 0), the unconstrained second-difference problem: w is a multiple
      of 1 - x and (1 - x) p a multiple of T_N(lam (x+1) - 1), with N = n+1
      and lam = cos^2(pi/(4N)), which vanishes at x = 1; it is extremal at
      x_k = (1 + cos(k pi/N))/lam - 1, k = 1..N (k = 0 lies past x = 1).

    The reference system then has that p as its solution, so round 1's
    continuum max meets the level and the solve stops there.  The start
    only decides where the exchange begins: the certificate, as on any
    other reference, decides whether it has converged.  Every other
    stencil starts from the Chebyshev points cos(pi j/(n+1)), j = 1..n+1.
    """
    n = problem.degree
    orders = problem.symbol.model_orders
    j = np.arange(n, -1, -1)
    if orders == (1, 0):
        return np.cos((j + 0.5) * np.pi / (n + 0.5))
    if orders == (1, 1):
        return np.cos((j + 0.5) * np.pi / (n + 1))
    if orders == (2, 0):
        lam = math.cos(math.pi / (4 * (n + 1))) ** 2
        return (1.0 + np.cos(np.pi * (j + 1) / (n + 1))) / lam - 1.0
    return np.cos(np.pi * np.arange(1, n + 2) / (n + 1))


def _solve_reference(problem: MinimaxProblem, xs: np.ndarray):
    """Remez step on the reference xs (degree+1 points in monotone order):
    solve w(x_i) p(x_i) = (-1)^i E for c_1..c_n and E, with p(1) = 1
    eliminated as in the LP.  Returns (|E|, p, trace fields), the field
    ``lp_rows`` holding the number of reference points; a singular system
    raises Infeasible.
    """
    w = problem.symbol.magnitude(xs)
    signs = (-1.0) ** np.arange(xs.size)
    system = np.hstack([w[:, None] * _normalized_basis(xs, problem.degree), -signs[:, None]])
    try:
        y = np.linalg.solve(system, -w)
    except np.linalg.LinAlgError as exc:
        raise Infeasible(f"Remez reference system is singular: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise Infeasible("Remez reference system is singular: nonfinite solution")
    return abs(float(y[-1])), _polynomial(y[:-1]), {"lp_rows": xs.size}


def _exchange(problem: MinimaxProblem, cands: np.ndarray, e: np.ndarray) -> np.ndarray | None:
    """The next Remez reference, ascending: degree+1 of the candidates where
    the error e = w p (given at the candidates) alternates in sign, with the
    largest |e| and always the global maximum; None when fewer than
    degree+1 alternate.

    Each run of candidates with one sign of the error gives its largest
    |e|; the surplus goes by the smallest |e| first, as an end point or
    with its smaller neighbour, so that the signs still alternate.
    """
    xs, e = cands[e != 0.0], e[e != 0.0]
    runs = np.split(np.arange(e.size), np.flatnonzero(np.diff(np.sign(e))) + 1)
    pick = [run[np.argmax(np.abs(e[run]))] for run in runs if run.size]
    xs, mag = list(xs[pick]), list(np.abs(e[pick]))
    size = problem.degree + 1
    if len(xs) < size:
        return None
    while len(xs) > size:
        i = int(np.argmin(mag))
        if len(xs) == size + 1 or i in (0, len(xs) - 1):
            drop = [0] if mag[0] <= mag[-1] else [len(xs) - 1]
        else:
            drop = [i - 1, i] if mag[i - 1] <= mag[i + 1] else [i, i + 1]
        for j in reversed(drop):
            del xs[j], mag[j]
    return np.asarray(xs)


def _solution(problem, level, p, points, gap, trace, converged) -> MinimaxSolution:
    """The iterate (level, p); its certificate ``points`` (the Remez reference,
    or the LP's basis points and x = 1) are the active points, ascending."""
    return MinimaxSolution(
        coeffs=p,
        value=level,
        kernel=kernel_from_symbol(p),
        active_points=_merged(points).tolist(),
        iterations=len(trace),
        certificate_gap=gap,
        trace=trace,
        converged=converged,
        exploratory=problem.spec.exploratory,
    )


def solve(problem: MinimaxProblem, tol: float = 1e-9) -> MinimaxSolution:
    """Exchange solve of the weighted minimax problem.

    Without positivity, and when |s| has no zero inside (-1, 1)
    (``OperatorSymbol.vanishes_inside``), the problem is best approximation
    from a Haar system and each round is a Remez step: solve the levelled
    system on the degree+1 reference points (``method`` "remez"), starting
    from ``_remez_start``: on the model stencils c (1-z), c (1-z^2) and
    c (1-z)^2 (first-deriv and laplacian among them) the equioscillation
    set of the known optimum, where round 1 certifies, and otherwise
    cos(pi j/(degree+1)), j = 1..degree+1.  Otherwise each round solves
    the LP on the active set (``method`` "lp"), starting from the degree+2
    points cos(pi j/(degree+1)), j = 0..degree+1.  Each LP starts from a
    dual feasible basis: round 1 from alternating rows at j = 1..degree+1
    (``_reference_start``), later rounds from the last optimum.

    Each round then makes one extrema pass per polynomial (the objective's,
    and under positivity p's).  The pass gives the certified continuum max,
    and its candidates (endpoints and stationary points) make the next set:
    the Remez path takes degree+1 of them where the error w p alternates in
    sign, with the largest |w p| and the global max; the LP path keeps the
    points of the optimal basis and adds every candidate where the objective
    is above level + tol, and under positivity every one where p is below
    -tol.  The solve stops when neither the objective nor -p exceeds its
    bound by more than tol, and that round builds no next set.  The level
    (the LP optimum or w(1), or |E|, a de la Vallee Poussin bound on an
    alternating reference) is a lower bound and the certified continuum
    max an upper bound on the true optimal value, the optimal smoothness
    constant; certificate_gap is the final round's max(0, continuum max -
    level, -min p), so tol bounds the gap of the constant itself.
    ``active_points`` hold the final round's certificate of the level: its
    reference, or its LP's optimal basis points and x = 1.

    Each trace row holds ``round``; ``method``; ``lp_value``, the level;
    ``continuum_max``; ``gap``, continuum max minus level;
    ``positivity_violation``, max(0, -min p); ``lp_rows``, the number of LP
    rows or reference points; on LP rounds ``lp_status``, the LP's status
    ("Optimal"), and ``lp_iterations``, its simplex pivots; ``cuts``, the
    number of points the round brings into the next set (0 on the last
    round); and ``seconds``, the round's wall time.

    Solutions of the open problems (``laplacian`` and ``operator``) are
    marked exploratory.

    Raises Stalled with the last iterate when the next set brings no point
    farther than 1e-13 from the current one, when the Remez error loses its
    alternation, when _MAX_ROUNDS pass, or when an LP or reference system
    after the first fails; a failure of the first propagates as Infeasible.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    spec, n = problem.spec, problem.degree
    remez = not spec.positivity and not problem.symbol.vanishes_inside
    if remez:
        xs = _remez_start(problem)
    else:
        xs, start = _reference_start(problem)
    trace: list[dict] = []
    best = None
    for round_no in range(1, _MAX_ROUNDS + 1):
        started = time.perf_counter()
        try:
            if remez:
                level, p, fields = _solve_reference(problem, xs)
            else:
                level, p, fields = _solve_restricted(problem, xs, start)
                start = fields.pop("basis")
        except Infeasible as exc:
            if best is None:
                raise
            raise Stalled(_solution(problem, *best, trace, converged=False)) from exc
        cands = extreme_points(p, problem.symbol.weight)
        # the signed error w p, evaluated once: the objective is e under
        # positivity and |e| otherwise, and the Remez exchange reads its signs
        e = problem.symbol.magnitude(cands) * npcheb.chebval(cands, p.coeffs)
        phi = e if spec.positivity else np.abs(e)
        cont_max = float(np.max(phi))
        obj_viol = cont_max - level
        pos_viol = -math.inf
        if spec.positivity:
            p_cands = extreme_points(p)
            neg_p = -npcheb.chebval(p_cands, p.coeffs)
            pos_viol = float(np.max(neg_p))
        done = obj_viol <= tol and pos_viol <= tol
        new = xs[:0]
        if not done:  # a certified round needs no next set
            if remez:
                following = _exchange(problem, cands, e)
                new = new if following is None else following
            else:
                new = cands[phi > level + tol]
                if spec.positivity:
                    new = np.concatenate([new, p_cands[neg_p > tol]])
            new = new[np.min(np.abs(new[:, None] - xs[None, :]), axis=1) > 1e-13]
        trace.append(
            {
                "round": round_no,
                "method": "remez" if remez else "lp",
                "lp_value": level,
                "continuum_max": cont_max,
                "gap": obj_viol,
                "positivity_violation": max(0.0, pos_viol),
                **fields,
                "cuts": int(new.size),
                "seconds": time.perf_counter() - started,
            }
        )
        best = (level, p, xs if remez else np.append(start[0], 1.0), max(0.0, obj_viol, pos_viol))
        if done:
            return _solution(problem, *best, trace, converged=True)
        if not new.size:
            break
        xs = following if remez else _merged(start[0], new)
    raise Stalled(_solution(problem, *best, trace, converged=False))
