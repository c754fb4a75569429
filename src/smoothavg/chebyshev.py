"""Polynomials in the Chebyshev-T basis on [-1, 1].

Everything here is plain double-precision arithmetic on coefficient
vectors ``c_0 + sum_k c_k T_k(x)``.  The module also builds the two named
families used throughout the package:

* ``make_g(n)``: the degree-n Fejer-type polynomial
  ``(1 - T_{n+1}(x)) / ((n+1)^2 (1 - x))``, nonnegative on [-1, 1] with
  ``g_n(1) = 1``.
* ``make_h(n)``: the Dirichlet-type polynomial
  ``(1 + 2 sum_{k<=n} T_k(x)) / (2n+1)``, with ``h_n(1) = 1`` and
  ``h_n^2 = g_{2n}``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

__all__ = [
    "ChebPoly",
    "NonMonicPolynomial",
    "cheb_T",
    "cheb_eval",
    "cheb_mul",
    "mul_one_minus_x",
    "sup_abs",
    "signed_max",
    "signed_min",
    "extreme_points",
    "make_g",
    "make_h",
    "monic_minimax_check",
    "cheb_to_monomial",
    "monomial_to_cheb",
]

# Monomial <-> Chebyshev conversion is exact in the recurrences but loses
# accuracy in doubles as the degree grows; beyond this degree we warn.
_CONVERSION_WARN_DEGREE = 32
_CONVERSION_MAX_DEGREE = 64

# Newton on p' converges quadratically at a simple root of p' but only
# linearly at a multiple one, and seeds there run to this cap.  Such roots
# are common here: the triangle's M(u) is the sup of (1-x)g_n^2, whose
# zeros have order four, and the -1,3,-3,1 stencil's |s|^2 = (2-2x)^3 has
# a triple zero at x = 1.  All seeds iterate together, so these few seeds
# set the length, and most of the cost, of an extrema pass.
_NEWTON_MAX_ITER = 40


class NonMonicPolynomial(ValueError):
    """Raised when a monic polynomial was expected.

    Carries the actual leading monomial coefficient as ``leading``.
    """

    def __init__(self, leading: float):
        self.leading = leading
        super().__init__(f"polynomial is not monic: leading monomial coefficient is {leading!r}")


@dataclass(frozen=True)
class ChebPoly:
    """Immutable polynomial ``c_0 + sum_{k>=1} c_k T_k(x)`` on [-1, 1].

    Trailing coefficients that are exactly zero are trimmed on
    construction (no epsilon trimming, so degrees used in identity checks
    are preserved).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float)).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d real sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1]
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return cheb_eval(self, x)

    def __eq__(self, other):
        if not isinstance(other, ChebPoly):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())


def cheb_T(k: int, x):
    """T_k(x) by the three-term recurrence T_{j+1} = 2x T_j - T_{j-1}."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x) if x.ndim else 1.0
    prev = np.ones_like(x)
    cur = x.copy()
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def cheb_eval(p: ChebPoly, x):
    """Evaluate p at x (scalar or array) by Clenshaw recurrence."""
    out = npcheb.chebval(np.asarray(x, dtype=float), p.coeffs)
    return float(out) if np.ndim(x) == 0 else out


def cheb_mul(p: ChebPoly, q: ChebPoly) -> ChebPoly:
    """Product in the Chebyshev basis via T_j T_k = (T_{j+k} + T_{|j-k|}) / 2."""
    return ChebPoly(npcheb.chebmul(p.coeffs, q.coeffs))


def mul_one_minus_x(p: ChebPoly) -> ChebPoly:
    """(1 - x) * p, using x T_k = (T_{k+1} + T_{k-1}) / 2."""
    return ChebPoly(npcheb.chebmul([1.0, -1.0], p.coeffs))


def _cheb_points(n_points: int) -> np.ndarray:
    """n_points Chebyshev extremum points on [-1, 1], ascending, endpoints included."""
    return np.cos(np.linspace(np.pi, 0.0, n_points))


def extreme_points(p: ChebPoly) -> np.ndarray:
    """Candidate extremum locations of p on [-1, 1].

    Seeds a dense Chebyshev-point grid of 32*(deg+2) points and refines
    every interior grid extremum of p by Newton iteration on p' (derivative
    taken in the Chebyshev basis), confined to the seed's two grid
    neighbours.  All seeds are refined together in one array-wide pass:
    each iteration evaluates p' and p'' at every live seed in a single
    Clenshaw sweep.  A seed leaves the live set when p'' vanishes or a step
    would leave its bracket (it keeps its current point), when a step is at
    most 1e-16*max(1, |x|) (it takes that step), or after
    ``_NEWTON_MAX_ITER`` iterations.  The result holds both endpoints, the
    refined points and the grid seeds themselves.  It depends on p only up
    to sign: the points of -p are bitwise the points of p.
    """
    c = p.coeffs
    if c.size <= 1:
        return np.array([-1.0, 1.0])
    xs = _cheb_points(32 * (p.degree + 2))
    vals = npcheb.chebval(xs, c)
    dc = npcheb.chebder(c)
    # p' and p'' as the two columns of one coefficient array; the zero that
    # pads p'' to the length of p' leaves its Clenshaw values unchanged
    ddc = npcheb.chebder(dc)
    d12 = np.zeros((dc.size, 2))
    d12[:, 0] = dc
    d12[: ddc.size, 1] = ddc

    interior = np.arange(1, xs.size - 1)
    is_max = (vals[interior] >= vals[interior - 1]) & (vals[interior] >= vals[interior + 1])
    is_min = (vals[interior] <= vals[interior - 1]) & (vals[interior] <= vals[interior + 1])
    seeds = interior[is_max | is_min]

    refined = xs[seeds]
    live = np.arange(seeds.size)
    x, lo, hi = refined.copy(), xs[seeds - 1], xs[seeds + 1]
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        d1, d2 = npcheb.chebval(x, d12)
        moving = d2 != 0.0
        step = d1 / np.where(moving, d2, 1.0)
        x_new = x - step
        moving &= (lo <= x_new) & (x_new <= hi)
        refined[live[moving]] = x_new[moving]
        # x stays in [-1, 1], where the tolerance 1e-16*max(1, |x|) is 1e-16
        going = moving & (np.abs(step) > 1e-16)
        live, x, lo, hi = live[going], x_new[going], lo[going], hi[going]
    # keep grid points too in case Newton walked away from a flat extremum
    pts = np.concatenate(([-1.0, 1.0], refined, xs[seeds]))
    return np.clip(pts, -1.0, 1.0)


def _top(xs: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """(max of vals, the largest x among its near-ties)."""
    vmax = float(np.max(vals))
    tie = vals >= vmax - 1e-13 * max(1.0, abs(vmax))
    i = int(np.argmax(np.where(tie, xs, -np.inf)))
    return vmax, float(xs[i])


def signed_max(p: ChebPoly) -> tuple[float, float]:
    """(max of p on [-1, 1], one maximizer).

    Equioscillating polynomials have several global maximizers; among
    near-ties the one with the largest x is reported.
    """
    xs = extreme_points(p)
    return _top(xs, npcheb.chebval(xs, p.coeffs))


def signed_min(p: ChebPoly) -> tuple[float, float]:
    """(min of p on [-1, 1], one minimizer); near-ties go to the largest x."""
    xs = extreme_points(p)
    v, x = _top(xs, -npcheb.chebval(xs, p.coeffs))
    return -v, x


def sup_abs(p: ChebPoly) -> tuple[float, float]:
    """(max of |p| on [-1, 1], one maximizer).

    One extrema pass serves both signs.  Its candidates are the Newton
    refined stationary points, the grid seeds they started from and the
    endpoints, so the result is never below the best grid seed.  On a tie
    between the two signs the maximum of p wins.
    """
    xs = extreme_points(p)
    vals = npcheb.chebval(xs, p.coeffs)
    vmax, xmax = _top(xs, vals)
    vneg, xneg = _top(xs, -vals)
    if vneg > vmax:
        return vneg, xneg
    return vmax, xmax


def make_g(n: int) -> ChebPoly:
    """Degree-n Fejer-type polynomial (1 - T_{n+1}(x)) / ((n+1)^2 (1-x)).

    Built from the closed-form coefficients c_0 = 1/(n+1),
    c_k = 2(n+1-k)/(n+1)^2; synthetic division by (1-x) would be
    ill-conditioned near x = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n + 1
    c = np.empty(n + 1)
    c[0] = 1.0 / m
    for k in range(1, n + 1):
        c[k] = 2.0 * (m - k) / (m * m)
    return ChebPoly(c)


def make_h(n: int) -> ChebPoly:
    """Degree-n Dirichlet-type polynomial (1 + 2 sum_{k=1}^n T_k) / (2n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = np.full(n + 1, 2.0 / (2 * n + 1))
    c[0] = 1.0 / (2 * n + 1)
    return ChebPoly(c)


def _leading_monomial_coeff(p: ChebPoly) -> float:
    # T_d has leading monomial coefficient 2^(d-1) for d >= 1, and 1 for d = 0.
    d = p.degree
    if d == 0:
        return float(p.coeffs[0])
    return float(p.coeffs[d]) * 2.0 ** (d - 1)


def monic_minimax_check(p: ChebPoly, tol: float = 1e-9) -> tuple[float, float, bool]:
    """Check the minimal-deviation bound for a monic polynomial of degree n.

    Returns (sup |p| on [-1,1], 2^(1-n), sup >= bound - 1e-12).  Rejects
    polynomials whose leading monomial coefficient differs from 1 by more
    than tol.
    """
    lead = _leading_monomial_coeff(p)
    if abs(lead - 1.0) > tol:
        raise NonMonicPolynomial(lead)
    sup, _ = sup_abs(p)
    bound = 2.0 ** (1 - p.degree)
    return sup, bound, sup >= bound - 1e-12


def _check_conversion_degree(d: int):
    if d > _CONVERSION_MAX_DEGREE:
        raise ValueError(f"basis conversion capped at degree {_CONVERSION_MAX_DEGREE}, got {d}")
    if d > _CONVERSION_WARN_DEGREE:
        warnings.warn(
            f"monomial/Chebyshev conversion beyond degree {_CONVERSION_WARN_DEGREE} "
            "is ill-conditioned in double precision",
            stacklevel=3,
        )


def cheb_to_monomial(p: ChebPoly) -> np.ndarray:
    """Monomial coefficients (ascending powers) of p."""
    _check_conversion_degree(p.degree)
    return npcheb.cheb2poly(p.coeffs)


def monomial_to_cheb(coeffs) -> ChebPoly:
    """ChebPoly from monomial coefficients (ascending powers)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    _check_conversion_degree(c.size - 1)
    return ChebPoly(npcheb.poly2cheb(c))
