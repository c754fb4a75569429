"""Continuous perturbation analysis around the unit triangle kernel.

Works with even functions supported on [-1, 1], given by their right
half on [0, 1].  The central object is the scale-invariant functional

    J(u) = ||uhat(xi) xi^2||_inf^2 * ||u(x) x^2||_L1^2 / ||u||_L1^4,

whose value at the triangle u0(x) = 1 - |x| is 1/(36 pi^4): the product
uhat0(xi) xi^2 = sin(pi xi)^2 / pi^2 oscillates between 0 and 1/pi^2,
peaking exactly at half-integer frequencies.  The first-order behavior
of J(u0 + eps f) is governed by the half-integer samples of fhat, which
is what the slope formula ``c_f_analytic`` and the sampling inequality
``prop8_sides`` evaluate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "PerturbationFunction",
    "PerturbationReport",
    "Prop8Sides",
    "ZeroMass",
    "TailEstimateWarning",
    "triangle_profile",
    "half_triangle_profile",
    "profile_from_table",
    "autoconvolution_profile",
    "combine",
    "ct_fourier",
    "triangle_hat",
    "j_functional",
    "gamma_half_integer",
    "c_f_analytic",
    "finite_diff_slope",
    "prop8_sides",
    "a_coefficient",
    "perturbation_report",
]

_PI = math.pi
# nodes per panel; a level of n nodes applies the fixed _RULE_NODES-point
# Gauss-Legendre rule on n / _RULE_NODES equal sub-panels of each panel
_LEVELS = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
_RULE_NODES = 64
# agreement between successive node-doubling levels; the half-integer
# scans multiply transforms by xi^2 up to ~1e6, so the target sits just
# above the summation roundoff floor
_QUAD_TOL = 2e-14
# pi xi times a sub-panel's width up to which the 64-node rule keeps
# cos(2 pi xi x) within the transforms' noise floor 1e-15 (1 + |xi|):
# on the cos^2 factor at the top level, against 40-digit mpmath, the
# error is 0.06 of the floor at 100 and 3.6 times it at 104
_MAX_SUB_PANEL_PHASE = 100.0
_POLISH_POINTS = 33  # frequencies per round of the bracket refinement of J's peak


class ZeroMass(ValueError):
    """The function integrates to (numerically) zero mass."""


class TailEstimateWarning(UserWarning):
    """The windowed sup of uhat * xi^2 peaked near the cutoff; the true
    supremum over the whole line may lie outside the window."""


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    Tricomi's asymptotic guess for the roots of P_n, polished by three
    Newton steps on the three-term recurrence (numpy's ``leggauss`` gives
    the same nodes through an eigensolver, but its weights are off by
    ~1e-12 relative at 64 nodes, and the eigensolver adds ~0.4 MB to a
    process's peak RSS).  The weights 2 / ((1 - x^2) P_n'(x)^2) are taken
    at the root, not at its rounding x: d log w / dx = -2x / (1 - x^2)
    would turn the ~1e-16 rounding into ~1e-13 near the ends, so the
    residual Newton step -P_n(x) / P_n'(x) enters to first order.  Against
    50-digit mpmath, nodes are within one ulp at 64, 96 and 256 nodes, and
    weights within 2e-14 relative at 64 and 96 nodes and 9e-14 at 256.
    """

    def legendre(x):  # (P_n(x), P_n'(x))
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    k = np.arange(n, 0, -1)
    x = np.cos(_PI * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    for _ in range(3):
        p, dp = legendre(x)
        x = x - p / dp
    p, dp = legendre(x)
    one_minus_sq = (1.0 - x) * (1.0 + x)
    w = 2.0 / (one_minus_sq * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one_minus_sq)
    return x, w


def _node_doubling(value_at, start: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Node doubling for a row of items, one ``value_at`` call per level.

    Item i runs over the doubling levels from start[i] until two
    successive values agree to _QUAD_TOL (relative) or floor[i], and
    keeps the value where they first agree, or the last level's.
    value_at(level, lo, hi) gives items lo..hi-1 at ``level``: the run
    from the first unconverged item to the last one that has started.
    """
    value = np.full(start.shape, np.nan)
    done = np.zeros(start.shape, dtype=bool)
    for level in _LEVELS:
        fresh = (start <= level) & ~done
        run = np.flatnonzero(fresh)
        if run.size == 0:
            continue
        lo, hi = run[0], run[-1] + 1
        val = value_at(level, lo, hi)
        fresh = fresh[lo:hi]
        tol = np.maximum(_QUAD_TOL * np.maximum(1.0, np.abs(val)), floor[lo:hi])
        done[lo:hi] |= fresh & (np.abs(val - value[lo:hi]) <= tol)
        value[lo:hi][fresh] = val[fresh]
    return value


class PerturbationFunction:
    """Even function on [-1, 1] given by its right half on [0, 1].

    ``half`` must map numpy arrays in [0, 1] to values; the function is
    extended evenly and treated as zero outside [-1, 1].  ``breakpoints``
    lists interior kinks in (0, 1); quadrature panels split there (and at
    the built-in kink x = 0) so Gauss-Legendre stays spectrally accurate.
    ``linear_table`` = (knots, values), with knots rising from 0 to 1,
    marks ``half`` as exactly that linear interpolant; its knots become
    breakpoints too.
    Node/value samples are cached per doubling level, so repeated
    integrals against different weights reuse the evaluations.
    """

    def __init__(self, half, breakpoints=(), linear_table=None):
        self.half = half
        # (knots, values) when the half is exactly piecewise linear; its
        # transform then has a closed form immune to the node-placement
        # noise that limits oscillatory quadrature at large frequencies
        self.linear_table = None
        if linear_table is not None:
            knots, values = (np.array(a, dtype=float) for a in linear_table)
            if knots[0] != 0.0 or knots[-1] != 1.0:
                raise ValueError("a linear table's knots must run from 0 to 1")
            self.linear_table = (knots, values)
            breakpoints = [*breakpoints, *knots]
        pts = sorted({float(b) for b in breakpoints if 0.0 < float(b) < 1.0})
        self.breakpoints = tuple(pts)
        # (G, a) for an autoconvolution, whose transform is (a Ghat(a xi))^2
        self._factor = None
        self._panels = np.array([0.0, *pts, 1.0])
        self._samples: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= 1.0
        out = np.zeros_like(x)
        if np.any(inside):
            out[inside] = self.half(np.abs(x[inside]))
        return out if out.ndim else float(out)

    @property
    def max_panel_width(self) -> float:
        return float(np.max(np.diff(self._panels)))

    def samples(self, level: int):
        """(nodes, weights, values) on [0, 1] with ``level`` nodes per panel:
        the _RULE_NODES-point Gauss-Legendre rule on level / _RULE_NODES
        equal sub-panels of each panel."""
        if level not in self._samples:
            base_x, base_w = _gauss_legendre(_RULE_NODES)
            a, b = self._panels[:-1, None], self._panels[1:, None]
            edges = a + (b - a) * np.linspace(0.0, 1.0, level // _RULE_NODES + 1)
            edges[:, -1] = b[:, 0]
            lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
            mid, rad = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
            x = (mid + rad * base_x).ravel()
            w = (rad * base_w).ravel()
            self._samples[level] = (x, w, np.asarray(self.half(x), dtype=float))
        return self._samples[level]

    def integrate_half(self, weight=None) -> float:
        """integral over [0, 1] of f(x) * weight(x), node-doubling to _QUAD_TOL."""

        def value_at(level, lo, hi):
            x, w, fx = self.samples(level)
            return np.array([np.dot(w, fx if weight is None else fx * weight(x))])

        return float(_node_doubling(value_at, np.array([_LEVELS[0]]), np.zeros(1))[0])


def triangle_profile() -> PerturbationFunction:
    """The unit triangle 1 - |x|, the reference kernel of the analysis."""
    return profile_from_table([0.0, 1.0], [1.0, 0.0])


def half_triangle_profile() -> PerturbationFunction:
    """Half-width triangle (1 - 2|x|)_+, a standard test perturbation."""
    return profile_from_table([0.0, 0.5, 1.0], [1.0, 0.0, 0.0])


def profile_from_table(knots, values) -> PerturbationFunction:
    """Piecewise-linear right half from knot/value tables on [0, 1].

    The profile is the linear interpolant of the table, held constant
    before the first knot and ramped linearly to zero at x = 1 when the
    last knot stops short (keeping the function continuous on the line).
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
        raise ValueError("knots and values must be 1-d arrays of equal length >= 2")
    if np.any(np.diff(knots) <= 0) or knots[0] < 0 or knots[-1] > 1:
        raise ValueError("knots must be strictly increasing within [0, 1]")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    full_knots = knots
    full_values = values
    if knots[0] > 0.0:
        full_knots = np.concatenate([[0.0], full_knots])
        full_values = np.concatenate([[values[0]], full_values])
    if knots[-1] < 1.0:
        full_knots = np.concatenate([full_knots, [1.0]])
        full_values = np.concatenate([full_values, [0.0]])

    def half(x):
        return np.interp(x, full_knots, full_values)

    return PerturbationFunction(half, list(full_knots), linear_table=(full_knots, full_values))


def autoconvolution_profile(g_half, half_support: float = 0.5, nodes: int = 96,
                            breakpoints=()) -> PerturbationFunction:
    """f = g * g for an even profile g supported on [-a, a], a <= 1/2.

    Its factor is kept as G(s) = g(a s) on [0, 1], and its transform is
    fhat(xi) = ghat(xi)^2 = (a Ghat(a xi))^2 >= 0 exactly, so these profiles
    satisfy the nonnegative-transform hypothesis by construction.  Ghat
    comes from G's composite rule, whose node doubling then ends one level
    past its start.  Values of f itself (its integrals, ``combine``)
    convolve with the ``nodes``-point Gauss-Legendre rule, from the same
    numpy generator as the composite rule's 64 nodes.
    """
    a = float(half_support)
    if not 0.0 < a <= 0.5:
        raise ValueError("half_support must lie in (0, 1/2]")
    base_x, base_w = _gauss_legendre(nodes)
    factor = PerturbationFunction(lambda s: g_half(a * s))  # g(t) = factor(t / a)

    def half(x):
        shape = np.shape(x)
        x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        lo = np.maximum(x - a, -a)
        hi = np.full_like(x, a)
        rad = 0.5 * np.maximum(hi - lo, 0.0)
        mid = 0.5 * (hi + lo)
        out = np.empty_like(x)
        # the points run in blocks, so each (points, nodes) temporary holds
        # at most _PHASE_ELEMENTS doubles, as in _cos_sum
        block = max(1, _PHASE_ELEMENTS // nodes)
        for start in range(0, x.size, block):
            cut = slice(start, start + block)
            t = mid[cut, None] + rad[cut, None] * base_x[None, :]
            vals = factor(t / a) * factor((x[cut, None] - t) / a)
            out[cut] = rad[cut] * (vals @ base_w)
        return out.reshape(shape)

    bps = set(breakpoints) | {min(2.0 * a, 1.0)}
    f = PerturbationFunction(half, breakpoints=bps)
    f._factor = (factor, a)
    return f


def combine(base: PerturbationFunction, f: PerturbationFunction, eps: float) -> PerturbationFunction:
    """The perturbed function base + eps * f as a new profile."""

    def half(x):
        return np.asarray(base.half(x), dtype=float) + eps * np.asarray(f.half(x), dtype=float)

    table = None
    if base.linear_table is not None and f.linear_table is not None:
        # a set, not np.unique, which imports numpy.ma: ~30 ms of a fresh
        # `continuum` process
        knots = np.array(sorted({*base.linear_table[0].tolist(), *f.linear_table[0].tolist()}))
        table = (knots, half(knots))
    return PerturbationFunction(half, set(base.breakpoints) | set(f.breakpoints), linear_table=table)


def _fourier_start_level(f: PerturbationFunction, xis) -> np.ndarray:
    """The first doubling level for each frequency of ``xis``.

    A level counts nodes per panel: the 64-node rule on level / 64 equal
    sub-panels.  An autoconvolution starts where its factor does at a xi;
    a table's knot sum ignores the level, so it starts at the top one and
    takes one evaluation.  A frequency that even the top level does not
    resolve raises ValueError naming the largest |xi| it resolves.
    """
    xis = np.asarray(xis, dtype=float)
    scale = 1.0
    if f._factor is not None:
        f, scale = f._factor
    if f.linear_table is not None:
        return np.full(xis.shape, _LEVELS[-1])
    # the 64-node rule integrates cos(2 pi xi x) to ~1e-16 while pi xi
    # times its sub-panel's width stays below ~80 (1.26 pi xi w per node
    # of the level); one node per pi xi w keeps a 25% margin.  The margin
    # may shrink at the top level, but not past _MAX_SUB_PANEL_PHASE.
    phase = _PI * np.abs(scale * xis) * f.max_panel_width
    top = _MAX_SUB_PANEL_PHASE * (_LEVELS[-1] // _RULE_NODES)
    if np.any(phase > top):
        limit = top / (_PI * scale * f.max_panel_width)
        raise ValueError(
            f"|xi| = {np.max(np.abs(xis)):.6g} needs more than {_LEVELS[-1]} quadrature "
            f"nodes per panel; the largest resolvable |xi| is {limit:.6g}")
    levels = np.array(_LEVELS)
    return levels[np.minimum(np.searchsorted(levels, phase + 48.0), levels.size - 1)]


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
# elements of each phase array that ``_cos_sum`` builds per block of nodes
_PHASE_ELEMENTS = 2**14


def _sincos_2pi_prod(xi, x: np.ndarray):
    """(sin, cos) of 2 pi xi x with the product carried in double-double.

    A plain product loses ~xi*eps of phase, which the half-integer scans
    amplify by xi^2; splitting the product and reducing mod 1 exactly
    keeps the values accurate to a few ulp at any frequency.  The
    (rows, nodes) work runs in place on four arrays, in the order of
    the formulas in the comments, so the values are those of the
    formulas evaluated with fresh temporaries."""
    hi = xi * x
    c = _SPLIT * xi
    xi_hi = c - (c - xi)
    xi_lo = xi - xi_hi
    cx = _SPLIT * x
    x_hi = cx - (cx - x)
    x_lo = x - x_hi
    # lo = ((xi_hi x_hi - hi) + xi_hi x_lo + xi_lo x_hi) + xi_lo x_lo
    lo = xi_hi * x_hi
    lo -= hi
    tmp = np.multiply(xi_hi, x_lo)
    lo += tmp
    lo += np.multiply(xi_lo, x_hi, out=tmp)
    lo += np.multiply(xi_lo, x_lo, out=tmp)
    # angle = 2 pi (hi - floor(hi)); the difference is exact, as both are
    # multiples of ulp(hi)
    hi -= np.floor(hi, out=tmp)
    hi *= 2.0 * _PI
    sin = np.sin(hi)
    cos = np.cos(hi, out=hi)
    lo *= 2.0 * _PI
    # (sin + 2 pi lo cos, cos - 2 pi lo sin)
    np.multiply(lo, cos, out=tmp)
    cos -= np.multiply(lo, sin, out=lo)
    sin += tmp
    return sin, cos


def _cos_sum(x: np.ndarray, w: np.ndarray, xi0: float, h: float, count: int) -> np.ndarray:
    """sum_j w_j cos(2 pi xi_k x_j) on the uniform grid xi_k = xi0 + k h, k < count.

    The phase factorises: with k = q m + r, e^{2 pi i xi_k x} =
    e^{2 pi i (xi0 + q m h) x} e^{2 pi i r h x}, so about 2 sqrt(count)
    double-double phase rows and the real part of one complex matrix
    product (two real ones) give every frequency.

    The nodes run in blocks of _PHASE_ELEMENTS // m (at least one), so
    each phase array, of at most m rows, holds at most _PHASE_ELEMENTS =
    2^14 doubles, 128 KB.  At most eight are alive at once (a block's four
    phase arrays and the four work arrays of the next ``_sincos_2pi_prod``
    call), so the working set stays near 1 MB at any level and count,
    besides two arrays of one double per frequency: the result and a
    block's product.  Each block adds its
    two real products into the result; with one block the sum is the
    single product over all nodes, value for value.  2^14 is the fastest
    budget on the autoconvolution report and on its scan to n_max = 8000
    (2 vCPU Xeon, 2 MB L2 per core, one BLAS thread): 2^10 takes 1.6
    times as long on the scan, through per-block overhead, and one block
    over all nodes up to 1.4 times as long.
    """
    m = math.isqrt(count - 1) + 1  # ceil(sqrt(count))
    xi_a = xi0 + (m * h) * np.arange(-(-count // m))[:, None]
    xi_b = h * np.arange(m)[:, None]
    out = np.zeros((xi_a.size, m))
    block = max(1, _PHASE_ELEMENTS // m)
    for start in range(0, x.size, block):
        xs, ws = x[start:start + block], w[start:start + block]
        sin_a, cos_a = _sincos_2pi_prod(xi_a, xs)
        sin_b, cos_b = _sincos_2pi_prod(xi_b, xs)
        cos_b *= ws
        sin_b *= ws
        out += cos_a @ cos_b.T
        out -= sin_a @ sin_b.T
    return out.ravel()[:count]


def _sin_2pi(xi: np.ndarray) -> np.ndarray:
    """sin(2 pi xi), reduced by the nearest half-turn so that it is exactly
    zero at every integer and half-integer."""
    turns = np.rint(2.0 * xi)
    return np.sin(_PI * (2.0 * xi - turns)) * (1.0 - 2.0 * (turns % 2.0))


def _table_hat(f: PerturbationFunction, xi0: float, h: float, count: int) -> np.ndarray:
    """A linear table's transform on the grid xi0 + k h, k < count.

    Integrating each segment by parts and collecting terms per knot gives

        fhat(xi) = 2 [sum_j D_j cos(c x_j) / c^2 + f(1) sin(c) / c],  c = 2 pi xi,

    where D_j = s_{j-1} - s_j is the drop in slope at knot x_j, with
    s_{-1} = s_K = 0: the cosine sum of ``_cos_sum`` over the knots, plus
    the end term.  The knots are exact, so it rounds to about
    eps 2 sum_j |D_j| / c^2 at any frequency.

    Near xi = 0 that bound blows up (sum_j D_j = 0 cancels).  There the
    transform is the even-moment series sum_m (-1)^m c^{2m} / (2m)!
    2 int f x^{2m}.  The 64-node rule on the table's panels integrates
    each f x^{2m} with 2m <= 126 exactly, and for c <= pi the terms past
    2m = 30 fall below eps, so the series with exact moments is the rule's
    own cosine sum 2 sum_i w_i f(x_i) cos(c x_i), evaluated instead; it
    rounds to about eps ||f||_1.  Each frequency takes the smaller bound:
    the rule where c^2 ||f||_1 <= 2 sum_j |D_j|, but only below |xi| = 1/2,
    where 64 nodes resolve cos(c x) on any panel.  That crossover is
    xi = 0.32 for the triangle and 1/2 for steep tables; both sides stay
    within ~1e-16 of 40-digit mpmath (see the tests).
    """
    knots, values = f.linear_table
    slopes = np.diff(values) / np.diff(knots)
    drops = -np.diff(slopes, prepend=0.0, append=0.0)
    x, w, fx = f.samples(_LEVELS[0])
    xi = xi0 + h * np.arange(count)
    near = (np.abs(xi) < 0.5) & (
        (2.0 * _PI * xi) ** 2 * np.dot(w, np.abs(fx)) <= np.sum(np.abs(drops)))
    far = np.where(near, 1.0, xi)
    # 1/c^2 as (1/(4 pi^2)) / xi^2: a caller's xi^2 weighting then cancels
    # the rounded xi^2 instead of compounding the rounding of c
    out = _cos_sum(knots, drops, xi0, h, count) * (0.25 / _PI**2) / (far * far)
    if values[-1] != 0.0:
        out += values[-1] * _sin_2pi(far) / ((2.0 * _PI) * far)
    out *= 2.0
    if near.any():
        run = np.flatnonzero(near)
        lo, hi = run[0], run[-1] + 1
        out[lo:hi] = 2.0 * _cos_sum(x, w * fx, xi[lo], h, hi - lo)
    return out


def _hat(f: PerturbationFunction, xi0: float, h: float, count: int, level: int) -> np.ndarray:
    """fhat on the uniform grid xi0 + k h, k < count.

    With ``_transform`` and ``_fourier_start_level``, the only code that
    knows a profile's transform kind: an autoconvolution's squared factor
    transform (a Ghat(a xi))^2, a table's knot sum (``level`` unused; see
    ``_table_hat``), or the composite Gauss-Legendre rule with ``level``
    nodes per panel, 2 sum_i w_i f(x_i) cos(2 pi xi x_i).  Tables and
    quadrature share one phase-factorised cosine sum, ``_cos_sum``.
    """
    if f._factor is not None:
        g, a = f._factor
        return (a * _hat(g, a * xi0, a * h, count, level)) ** 2
    if f.linear_table is not None:
        return _table_hat(f, xi0, h, count)
    x, w, fx = f.samples(level)
    return 2.0 * _cos_sum(x, w * fx, xi0, h, count)


def _transform(f: PerturbationFunction, xi0: float, h: float, count: int) -> np.ndarray:
    """fhat on the uniform grid xi0 + k h, k < count, node-doubled per
    frequency from a level high enough to resolve its oscillation until
    two levels agree; each level is one ``_hat`` call (an autoconvolution's
    on its factor, then squared).  Raises ValueError past the largest
    |xi| that the top level resolves."""
    xis = xi0 + h * np.arange(count)
    # checked here, so that an error names f's frequencies, not its factor's
    start = _fourier_start_level(f, xis)
    if f._factor is not None:
        g, a = f._factor
        return (a * _transform(g, a * xi0, a * h, count)) ** 2
    # O(eps) rounding of node positions perturbs the oscillatory integrand
    # by O(eps * xi), an irreducible quadrature noise floor
    return _node_doubling(
        lambda level, lo, hi: _hat(f, xis[lo], h, hi - lo, level),
        start,
        1e-15 * (1.0 + np.abs(xis)),
    )


def ct_fourier(f: PerturbationFunction, xi: float) -> float:
    """fhat(xi) = integral of f(x) e^{-2 pi i xi x} dx = 2 int_0^1 f cos(2 pi xi x).

    Real-valued because f is even.  The one-frequency case of the
    node-doubled transform; piecewise-linear profiles take one evaluation
    of their closed form.
    """
    return float(_transform(f, float(xi), 1.0, 1)[0])


def triangle_hat(xi) -> float:
    """Closed-form transform of 1 - |x|: sin(pi xi)^2 / (pi xi)^2.

    The removable singularity at 0 is handled by the Taylor series for
    |pi xi| < 1e-4; zero at every nonzero integer, 1/(pi xi)^2 at every
    half-integer.
    """
    xi = np.asarray(xi, dtype=float)
    t = _PI * xi
    small = np.abs(t) < 1e-4
    t_safe = np.where(small, 1.0, t)
    out = np.where(
        small,
        1.0 - t * t / 3.0 + 2.0 * t**4 / 45.0,
        np.sin(t_safe) ** 2 / t_safe**2,
    )
    return float(out) if out.ndim == 0 else out


def j_functional(u: PerturbationFunction, xi_cutoff: float = 60.0, grid: int | None = None) -> float:
    """J(u) = sup(|uhat| xi^2)^2 * (int |u| x^2)^2 / (int |u|)^4.

    The sup is taken over the window [0, xi_cutoff] (evenness halves the
    line): a uniform grid with spacing 1/256 locates the peak; each polish
    round transforms 33 equispaced points across the bracket and keeps the
    best one's two neighbours, down to a 1e-10 bracket.  A
    TailEstimateWarning flags a grid peak within 5% of the cutoff, where
    the window may be too short.
    Integrands with |u| are spectrally accurate only when u keeps one
    sign per quadrature panel, which holds for the perturbations studied
    here.  A cutoff past ``gamma_half_integer``'s resolution limit raises
    ValueError.
    """
    if xi_cutoff < 10.0:
        raise ValueError("xi_cutoff must be at least 10")
    if grid is None:
        grid = int(round(256.0 * xi_cutoff)) + 1
    if grid < 10**3:
        raise ValueError("grid must have at least 1000 points")

    abs_u = PerturbationFunction(lambda x: np.abs(u.half(x)), u.breakpoints)
    mass = 2.0 * abs_u.integrate_half()
    if abs(mass) < 1e-14:
        raise ZeroMass("function has (numerically) zero L1 mass")
    second_moment = 2.0 * abs_u.integrate_half(weight=lambda x: x * x)

    xis = np.linspace(0.0, xi_cutoff, grid)
    level = int(_fourier_start_level(u, xi_cutoff))
    sweep = np.abs(_hat(u, 0.0, xi_cutoff / (grid - 1), grid, level)) * xis**2
    # near-ties (the triangle peaks equally at every half-integer) resolve
    # to the smallest frequency rather than to amplified roundoff far out
    peak = float(np.max(sweep))
    i_best = int(np.argmax(sweep >= peak - 1e-8 * max(1.0, peak)))
    if xis[i_best] > 0.95 * xi_cutoff:
        warnings.warn(
            f"grid peak at xi = {xis[i_best]:.3f} sits within 5% of the cutoff {xi_cutoff}",
            TailEstimateWarning,
            stacklevel=2,
        )

    lo = xis[max(0, i_best - 1)]
    hi = xis[min(grid - 1, i_best + 1)]
    sup = float(sweep[i_best])
    ks = np.arange(_POLISH_POINTS)
    while hi - lo > 1e-10:
        step = (hi - lo) / (_POLISH_POINTS - 1)
        vals = np.abs(_transform(u, lo, step, _POLISH_POINTS)) * (lo + step * ks) ** 2
        k = int(np.argmax(vals))
        sup = max(sup, float(vals[k]))
        lo, hi = lo + step * max(k - 1, 0), lo + step * min(k + 1, _POLISH_POINTS - 1)
    return (sup * sup) * (second_moment * second_moment) / mass**4


def gamma_half_integer(f: PerturbationFunction, n_max: int) -> tuple[float, float]:
    """sup over |n| <= n_max of fhat(n + 1/2) (n + 1/2)^2, and the last term.

    Evenness of fhat reduces the scan to n >= 0.  The reported last term
    makes the truncation auditable: smooth perturbations decay fast, but
    merely continuous ones (like the triangle itself) do not decay at
    all, and the sup is then reached already at small n.

    A profile without a linear table resolves xi only while pi |xi| w <=
    12800, with w its widest panel (pi a |xi| w on an autoconvolution's
    factor): 100 for pi |xi| times the width of each of the top level's
    128 sub-panels.  Past it the scan raises ValueError naming the largest
    resolvable |xi|, 8148.7 for the cos^2 autoconvolution.  Tables have no
    such limit.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    xis = np.arange(n_max + 1) + 0.5
    terms = _transform(f, 0.5, 1.0, n_max + 1) * xis * xis
    return float(np.max(terms)), float(terms[-1])


def _slope_gamma(f: PerturbationFunction, n_max: int) -> float:
    if n_max < 50:
        raise ValueError("n_max must be at least 50 for a meaningful sup")
    return gamma_half_integer(f, n_max)[0]


def _slope_from_gamma(f: PerturbationFunction, gamma: float) -> float:
    second_moment = 2.0 * f.integrate_half(weight=lambda x: x * x)
    mass = 2.0 * f.integrate_half()
    return (
        second_moment / (3.0 * _PI**4)
        + gamma / (18.0 * _PI**2)
        - mass / (9.0 * _PI**4)
    )


def c_f_analytic(f: PerturbationFunction, n_max: int = 1000) -> float:
    """Right derivative of eps -> J(u0 + eps f) at eps = 0.

    Equal to int f x^2 / (3 pi^4) + gamma / (18 pi^2) - int f / (9 pi^4),
    where gamma is the half-integer sup of fhat(xi) xi^2 truncated at
    n_max.  J is a sup, so only one-sided derivatives exist; the left one
    generally differs.  Vanishes for f proportional to the triangle itself
    (J is scale invariant).
    """
    return _slope_from_gamma(f, _slope_gamma(f, n_max))


def finite_diff_slope(f: PerturbationFunction, eps_list=(1e-2, 1e-3)) -> float:
    """Forward-difference estimate of the right derivative of J along f.

    Computes (J(u0 + eps f) - J(u0)) / eps for each step and
    Richardson-extrapolates the two smallest (first-order model), which
    estimates the same one-sided slope as ``c_f_analytic``.
    """
    return _finite_diff_slope(f, eps_list, j_functional(triangle_profile()))


def _finite_diff_slope(f: PerturbationFunction, eps_list, j0: float) -> float:
    """finite_diff_slope given j0 = J at the triangle, which a report
    computes once for its own J0 field."""
    eps = sorted(float(e) for e in eps_list)
    if not eps or eps[0] <= 0 or eps[-1] > 0.1:
        raise ValueError("all eps must lie in (0, 0.1]")
    u0 = triangle_profile()
    slopes = {e: (j_functional(combine(u0, f, e)) - j0) / e for e in eps}
    if len(eps) == 1:
        return slopes[eps[0]]
    e2, e1 = eps[0], eps[1]  # e2 < e1
    s2, s1 = slopes[e2], slopes[e1]
    return s2 + (s2 - s1) * e2 / (e1 - e2)


@dataclass(frozen=True)
class Prop8Sides:
    """Both sides of the half-integer sampling inequality, plus the
    minimum of fhat over nonzero integers as a hypothesis diagnostic."""

    lhs: float
    rhs: float
    min_integer_hat: float

    def __iter__(self):
        return iter((self.lhs, self.rhs))


def prop8_sides(f: PerturbationFunction, n_max: int = 1000) -> Prop8Sides:
    """lhs = sup fhat(n+1/2)(n+1/2)^2, rhs = (2/pi^2) int f (1 - 3 x^2).

    The inequality lhs >= rhs requires fhat(n) >= 0 at nonzero integers;
    the minimum of those samples is reported rather than enforced, so a
    violated hypothesis shows up as a negative diagnostic instead of an
    error.  Equality holds exactly for multiples of the triangle.
    Both scans share ``gamma_half_integer``'s resolution limit: past it
    they raise ValueError.
    """
    lhs, _ = gamma_half_integer(f, n_max)
    min_hat = float(np.min(_transform(f, 1.0, 1.0, n_max)))
    return Prop8Sides(lhs, _prop8_rhs(f), min_hat)


def _prop8_rhs(f: PerturbationFunction) -> float:
    return (2.0 / _PI**2) * 2.0 * f.integrate_half(weight=lambda x: 1.0 - 3.0 * x * x)


def a_coefficient(j) -> float:
    """a_j = int_{-1}^{1} (1 - 3 x^2) cos(2 pi j x) dx for j in Z/2.

    Closed forms: a_0 = 0; a_k = -3/(k^2 pi^2) at nonzero integers k;
    a_{k+1/2} = 12/((2k+1)^2 pi^2) at half-integers.
    """
    j = float(j)
    two_j = 2.0 * j
    if abs(two_j - round(two_j)) > 1e-9:
        raise ValueError("index must be an integer or half-integer")
    two_j = int(round(abs(two_j)))
    if two_j == 0:
        return 0.0
    if two_j % 2 == 0:
        k = two_j // 2
        return -3.0 / (k * k * _PI * _PI)
    return 12.0 / (two_j * two_j * _PI * _PI)


@dataclass(frozen=True)
class PerturbationReport:
    """First-order perturbation summary for one admissible direction f."""

    J0: float
    c_f_analytic: float
    c_f_numeric: float
    gamma: float
    prop8_lhs: float
    prop8_rhs: float
    epsilons_used: list[float]

    def to_dict(self) -> dict:
        return asdict(self)


def perturbation_report(
    f: PerturbationFunction, eps_list=(1e-2, 1e-3), n_max: int = 1000
) -> PerturbationReport:
    """Full report: J at the triangle, the analytic right derivative and
    its forward-difference estimate along f, and both sides of the
    sampling inequality.  One half-integer scan gives gamma, which is
    also the slope's gamma and the inequality's left side."""
    j0 = j_functional(triangle_profile())
    gamma = _slope_gamma(f, n_max)
    return PerturbationReport(
        J0=j0,
        c_f_analytic=_slope_from_gamma(f, gamma),
        c_f_numeric=_finite_diff_slope(f, eps_list, j0),
        gamma=gamma,
        prop8_lhs=gamma,
        prop8_rhs=_prop8_rhs(f),
        epsilons_used=[float(e) for e in eps_list],
    )
