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

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

__all__ = [
    "ChebPoly",
    "cheb_eval",
    "cheb_mul",
    "mul_one_minus_x",
    "sup_abs",
    "signed_max",
    "signed_min",
    "extrema",
    "extreme_points",
    "make_g",
    "make_h",
]

# Eigenvalues of the colleague matrix with |imaginary part| at most this are
# taken as real.  Only odd-multiplicity roots of r are extrema, and a real
# matrix always leaves one exactly real eigenvalue for each of them; the
# bound only has to keep a nearly real pair of simple roots, split by rounding.
_REAL_ROOT_TOL = 1e-4
_MINUS_ONE, _ONE = np.array([-1.0]), np.array([1.0])


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
    """Coefficients of the derivative of each row: d_{k-1} = d_{k+1} + 2k c_k,
    summed from the top.  Both parities take one cumulative sum, over the
    pairs of the reversed terms (padded by a zero at the end when their
    count is odd), so each d_k is the same sequence of additions as a sum
    over its own parity alone."""
    n = c.shape[-1] - 1
    lead = c.shape[:-1]
    if n == 0:
        return np.zeros(lead + (1,))
    t = np.zeros(lead + (n + n % 2,))
    t[..., n - 1 :: -1] = np.arange(2.0, 2.0 * n + 1.0, 2.0) * c[..., 1:]
    d = np.cumsum(t.reshape(lead + (-1, 2)), axis=-2).reshape(lead + (-1,))[..., n - 1 :: -1]
    d[..., 0] *= 0.5
    return d


def _zseries(c: np.ndarray) -> np.ndarray:
    """Laurent coefficients of each row in z = e^{i xi}: T_k = (z^k + z^-k) / 2."""
    k = c.shape[-1]
    z = np.empty(c.shape[:-1] + (2 * k - 1,))
    z[..., k - 1 :] = 0.5 * c
    z[..., : k - 1] = z[..., : k - 1 : -1]
    z[..., k - 1] = c[..., 0]
    return z


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays as a product of Laurent series."""
    return _from_zseries(np.convolve(_zseries(a), _zseries(b)))


def _from_zseries(z: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of each row of symmetric Laurent series z."""
    c = z[..., z.shape[-1] // 2 :]
    c[..., 1:] *= 2.0
    return c


@functools.lru_cache(maxsize=64)
def _weight_series(weight: tuple[int, ChebPoly]) -> tuple[np.ndarray, np.ndarray]:
    """The Laurent series of A and B in ``extreme_points``' r = A p' + B p,
    kept per factored weight (m, Q): the sups of one operator all share them.

    Q is first scaled by the power of two that brings its largest
    coefficient into [1/2, 1), so taps whose |s|^2 is near the top of the
    double range do not overflow in the factors 2, 4 and 2m.  Scaling by a
    power of two is exact, so r is scaled exactly and its roots, which
    depend only on the ratios of its coefficients, are bitwise unchanged."""
    m, q = weight
    q = np.ldexp(q.coeffs, -np.frexp(np.max(np.abs(q.coeffs)))[1])
    dq = _der(q)
    if m == 0:
        a, b = 2.0 * q, dq
    else:
        a, b = 4.0 * mul_one_minus_x(ChebPoly(q)).coeffs, 2.0 * mul_one_minus_x(ChebPoly(dq)).coeffs
        b[: q.size] -= 2.0 * m * q
    series = _zseries(a), _zseries(b)
    for z in series:
        z.setflags(write=False)
    return series


def _times(za: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of the stack b times the polynomial with Laurent series za,
    one convolution per row, as ``_mul`` takes it."""
    zb = _zseries(b)
    if len(zb) == 1:  # a stack of one, as every single sup is, needs no list
        return _from_zseries(np.convolve(za, zb[0])[None])
    return _from_zseries(np.array([np.convolve(za, row) for row in zb]))


def _lengths(rows: np.ndarray) -> np.ndarray:
    """The length of each row without its tail of exact zeros (1 for a row
    of zeros)."""
    nz = rows != 0.0
    return np.where(nz.any(axis=1), rows.shape[1] - np.argmax(nz[:, ::-1], axis=1), 1)


def _groups(keys: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(indices, key) for each distinct integer key, ascending.  The keys
    are collected in a set: np.unique would import numpy.ma."""
    return [(np.flatnonzero(keys == k), k) for k in sorted(set(keys.tolist()))]


@functools.lru_cache(maxsize=256)
def _colleague(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(off_diagonal, scale) for the scaled m x m colleague matrix as
    ``chebcompanion`` builds it and ``chebroots`` rotates it by 180 degrees:
    the sub- and superdiagonal are 1/2 but sqrt(1/2) at the corner, and row
    i of the first column loses 0.5 r_{m-1-i} / r_m times scale[i], which is
    1 but 1/sqrt(1/2) for r_0, so each entry rounds as chebcompanion's."""
    off_diagonal = np.full(m - 1, 0.5)
    off_diagonal[-1] = np.sqrt(0.5)
    scale = np.ones(m)
    scale[-1] = 1.0 / np.sqrt(0.5)
    off_diagonal.setflags(write=False)
    scale.setflags(write=False)
    return off_diagonal, scale


def _real_roots(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, real): the real parts x of the roots of each row of a (B, L)
    stack r, and ``real`` marking those within ``_REAL_ROOT_TOL`` of
    [-1, 1].  Entries of x past a row's own number of roots are -1.0.

    Rows that share their trimmed length m take one eigensolve of the B
    scaled colleague matrices of ``chebcompanion``, rotated by 180 degrees
    as ``chebroots`` does.  Only when some row's top coefficients are exact
    zeros are the rows split, by trimmed length.
    """
    b, m = r.shape[0], r.shape[1] - 1
    if m < 1:
        return np.empty((b, 0)), np.empty((b, 0), dtype=bool)
    if np.count_nonzero(r[:, -1]) < b:
        x = np.full((b, m), -1.0)
        real = np.zeros((b, m), dtype=bool)
        for rows, length in _groups(_lengths(r)):
            x[rows, : length - 1], real[rows, : length - 1] = _real_roots(r[rows, :length])
        return x, real
    if m == 1:
        roots = -r[:, :1] / r[:, 1:]
    else:
        off_diagonal, scale = _colleague(m)
        mat = np.zeros((b, m, m))
        flat = mat.reshape(b, -1)
        flat[:, 1 :: m + 1] = flat[:, m :: m + 1] = off_diagonal
        mat[:, :, 0] -= 0.5 * r[:, m - 1 :: -1] / r[:, -1:] * scale
        roots = np.linalg.eigvals(mat)
    x = roots.real
    return x, (np.abs(roots.imag) <= _REAL_ROOT_TOL) & (np.abs(x) <= 1.0)


def _r(c: np.ndarray, weight: tuple[int, ChebPoly] | None) -> np.ndarray:
    """Rows of r = A p' + B p (``_weight_series``) for the rows p of the
    stack c and the factored weight (m, Q) (r = p' when ``weight`` is None)."""
    r = _der(c)
    if weight is not None:
        za, zb = _weight_series(weight)
        r, q = _times(za, r), _times(zb, c)
        k = min(r.shape[-1], q.shape[-1])  # they differ only by zero tails, when Q or p is constant
        r[:, :k] += q[:, :k]
    return r


def _stationary_points(c: np.ndarray, weights=None) -> np.ndarray:
    """The points of ``extreme_points(p, w)`` for each row p of a (B, L)
    stack c of coefficients and its own factored weight w = weights[i]
    (None for no weight; ``weights`` None for none on every row), padded to
    one length: row i holds -1, the roots of r_i and 1, with -1.0 in place
    of each root that is not real or not in [-1, 1].  The padding repeats a
    point of the row, so a max over a row needs no mask.

    Rows may differ in degree (a row of lower degree ends in exact zeros)
    and in weight.  Each row is trimmed as ChebPoly trims it, since a zero
    tail changes how np.convolve rounds the weighted product, and r is
    formed once for each group of rows that share their trimmed length and
    weight, row by row with the arithmetic of a stack of one.  Every row of
    r whose trimmed length is the same, whatever its degree or weight, then
    joins one eigensolve (``_real_roots``), so each row's points are
    bitwise those of ``extreme_points(ChebPoly(p), w)`` on its own.
    """
    b = c.shape[0]
    if weights is None:
        weights = (None,) * b
    ids: dict = {}
    keys = _lengths(c) * b + np.array([ids.setdefault(w, len(ids)) for w in weights])
    parts = [(rows, _r(c[rows, : key // b], weights[rows[0]])) for rows, key in _groups(keys)]
    r = np.zeros((b, max((part.shape[1] for _, part in parts), default=1)))
    for rows, part in parts:
        r[rows, : part.shape[1]] = part
    x, real = _real_roots(r)
    xs = np.empty((b, x.shape[1] + 2))
    xs[:, 0], xs[:, 1:-1], xs[:, -1] = -1.0, np.where(real, x, -1.0), 1.0
    return xs


def extreme_points(p: ChebPoly, weight: tuple[int, ChebPoly] | None = None) -> np.ndarray:
    """Candidate maximizers of sqrt(W) |p| on [-1, 1] for the factored weight
    (m, Q), W = (2 (1 - x))^m Q >= 0 there (W = 1 when ``weight`` is None):
    both endpoints and the real roots in [-1, 1] of r, ascending.

    For m = 0, r = 2 Q p' + Q' p; for m >= 1, r = 4 (1 - x) Q p'
    + (2 (1 - x) Q' - 2 m Q) p.  r is (W p^2)' / p with the factor
    (2 (1 - x))^(m-1) divided out, so the eigensolve never meets that
    multiple root at x = 1 (an endpoint) and cannot smear it over the
    roots next to it.  Every local maximum of sqrt(W) |p| where p != 0 is
    among the points, and r has degree deg p + deg Q (deg p + deg Q - 1
    for m = 0), not the 2 deg p + deg W - 1 of (W p^2)'.  Without a weight r is p', and the
    points hold every local extremum of p.  The roots are the eigenvalues of
    the colleague matrix of r (Trefethen, ATAP ch. 18), and those within
    ``_REAL_ROOT_TOL`` of the real axis count as real.  This is the stacked
    engine on a stack of one: ``_stationary_points`` gives every row of a
    stack, whatever its degree and weight, these same points, bitwise.  The
    points depend on p only up to sign: the points of -p are bitwise the
    points of p.
    """
    x, real = _real_roots(_r(p.coeffs[None], weight))
    roots = x[real]
    roots.sort()
    return np.concatenate((_MINUS_ONE, roots, _ONE))


def _evaluate(xs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row i of the stack c evaluated at row i of xs, by chebval's Clenshaw
    recurrence on the flattened points, each with its row's coefficients
    repeated.  This is elementwise, and the recurrence carries a tail of
    exact zeros through unchanged, so each value is bitwise that of the
    row on its own, trimmed or not."""
    cols = np.repeat(c.T, xs.shape[1], axis=1)
    return npcheb.chebval(xs.reshape(-1), cols, tensor=False).reshape(xs.shape)


def _top(xs: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: (max of vals, the largest x among its near-ties), each row
    on its own, as in a stack of one."""
    vmax = vals.max(axis=1)
    tie = vals >= (vmax - 1e-13 * np.maximum(1.0, np.abs(vmax)))[:, None]
    i = np.where(tie, xs, -np.inf).argmax(axis=1)
    return vmax, xs[np.arange(xs.shape[0]), i]


def extrema(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(maxima, maximizers, minima, minimizers) on [-1, 1] of the rows of a
    (B, L) stack of coefficients, from one stacked extrema pass, bitwise
    those of each row on its own; near-ties go to the largest x.  Rows of
    lower degree are padded with zeros."""
    xs = _stationary_points(c)
    vals = _evaluate(xs, c)
    vmax, xmax = _top(xs, vals)
    vneg, xmin = _top(xs, -vals)
    return vmax, xmax, -vneg, xmin


def signed_max(p: ChebPoly) -> tuple[float, float]:
    """(max of p on [-1, 1], one maximizer).

    Equioscillating polynomials have several global maximizers; among
    near-ties the one with the largest x is reported.  Only tests and
    library users call it.
    """
    v, x, _, _ = extrema(p.coeffs[None])
    return float(v[0]), float(x[0])


def signed_min(p: ChebPoly) -> tuple[float, float]:
    """(min of p on [-1, 1], one minimizer); near-ties go to the largest x.

    Near a double zero of p, Clenshaw's rounding follows only its
    deg^2 eps ||c||_1 bound (for |s|^2 g_8^2 with the stencil -1,3,-3,1 it
    returns -3.7e-16, not +1.7e-16); ``kernel.NONNEG_TOL`` absorbs that.
    """
    _, _, v, x = extrema(p.coeffs[None])
    return float(v[0]), float(x[0])


def sup_abs(p: ChebPoly) -> tuple[float, float]:
    """(max of |p| on [-1, 1], one maximizer).

    One extrema pass serves both signs: p and |p| are evaluated at the
    endpoints and the real stationary points of p.  On a tie between the
    two signs the maximum of p wins.
    """
    vmax, xmax, vmin, xmin = (float(v[0]) for v in extrema(p.coeffs[None]))
    return (-vmin, xmin) if -vmin > vmax else (vmax, xmax)


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

