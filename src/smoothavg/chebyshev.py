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

# Eigenvalues of the colleague matrix with |imaginary part| at most this are
# taken as real.  Only odd-multiplicity roots of r are extrema, and a real
# matrix always leaves one exactly real eigenvalue for each of them; the
# bound only has to keep a nearly real pair of simple roots, split by rounding.
_REAL_ROOT_TOL = 1e-4


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
    return ChebPoly(_mul(p.coeffs, q.coeffs))


def mul_one_minus_x(p: ChebPoly) -> ChebPoly:
    """(1 - x) * p, using x T_k = (T_{k+1} + T_{k-1}) / 2."""
    return ChebPoly(_mul(np.array([1.0, -1.0]), p.coeffs))


def _der(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative: d_{k-1} = d_{k+1} + 2k c_k, summed
    from the top as reverse cumulative sums over each parity, then d_0 / 2."""
    n = c.size - 1
    if n == 0:
        return np.zeros(1)
    t = np.arange(2.0, 2.0 * n + 1.0, 2.0) * c[1:]
    d = np.empty(n)
    d[0::2] = np.cumsum(t[0::2][::-1])[::-1]
    d[1::2] = np.cumsum(t[1::2][::-1])[::-1]
    d[0] *= 0.5
    return d


def _zseries(c: np.ndarray) -> np.ndarray:
    """Laurent coefficients of c in z = e^{i xi}: T_k = (z^k + z^-k) / 2."""
    z = np.empty(2 * c.size - 1)
    z[c.size - 1 :] = 0.5 * c
    z[: c.size - 1] = z[: c.size - 1 : -1]
    z[c.size - 1] = c[0]
    return z


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays as a product of Laurent series."""
    z = np.convolve(_zseries(a), _zseries(b))
    c = z[z.size // 2 :]
    c[1:] *= 2.0
    return c


def _real_roots(r: np.ndarray) -> np.ndarray:
    """The roots of r within ``_REAL_ROOT_TOL`` of [-1, 1], as reals,
    ascending: eigenvalues of the scaled colleague matrix of ``chebcompanion``,
    rotated by 180 degrees as ``chebroots`` does."""
    nz = np.flatnonzero(r)
    r = r[: nz[-1] + 1] if nz.size else r[:1]
    m = r.size - 1
    if m < 1:
        return np.empty(0)
    if m == 1:
        roots = np.array([-r[0] / r[1]])
    else:
        mat = np.zeros((m, m))
        flat = mat.reshape(-1)
        flat[1 :: m + 1] = flat[m :: m + 1] = 0.5
        mat[m - 1, m - 2] = mat[m - 2, m - 1] = np.sqrt(0.5)
        col = 0.5 * r[:-1] / r[-1]
        col[0] *= 1.0 / np.sqrt(0.5)
        mat[:, 0] -= col[::-1]
        roots = np.linalg.eigvals(mat)
    real = roots.real[(np.abs(roots.imag) <= _REAL_ROOT_TOL) & (np.abs(roots.real) <= 1.0)]
    real.sort()
    return real


def extreme_points(p: ChebPoly, weight: ChebPoly | None = None) -> np.ndarray:
    """Candidate maximizers of sqrt(W) |p| on [-1, 1] for a weight W >= 0
    there (W = 1 when ``weight`` is None): both endpoints and the real roots
    in [-1, 1] of r = 2 W p' + W' p, ascending.

    r is (W p^2)' / p, so every local maximum of sqrt(W) |p| where p != 0
    is among the points, and r has degree deg p + deg W - 1, not the
    2 deg p + deg W - 1 of (W p^2)'.  Without a weight r is p', and the
    points hold every local extremum of p.  The roots are the eigenvalues of
    the colleague matrix of r (Trefethen, ATAP ch. 18), and those within
    ``_REAL_ROOT_TOL`` of the real axis count as real.  All of it works on
    the bare coefficient arrays, with one eigensolve a call.  The points
    depend on p only up to sign: the points of -p are bitwise the points
    of p.
    """
    c = p.coeffs
    r = _der(c)
    if weight is not None:
        w = weight.coeffs
        r, q = 2.0 * _mul(w, r), _mul(_der(w), c)
        k = min(r.size, q.size)  # they differ only by zero tails, when W or p is constant
        r[:k] += q[:k]
    return np.concatenate(([-1.0], _real_roots(r), [1.0]))


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

    One extrema pass serves both signs: p and |p| are evaluated at the
    endpoints and the real stationary points of p.  On a tie between the
    two signs the maximum of p wins.
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
