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
from numpy.polynomial import legendre

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
# nodes per panel of the integrals' composite rule; a level of n nodes
# applies the fixed _RULE_NODES-point Gauss-Legendre rule on n / _RULE_NODES
# equal sub-panels of each panel.  A transform's Legendre series takes its
# sub-panels from the same levels (``_legendre_series``)
_LEVELS = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
_RULE_NODES = 64
_CONV_NODES = 96  # Gauss-Legendre nodes of an autoconvolution's value at a point
# agreement between successive node-doubling levels of an integral
_QUAD_TOL = 2e-14
# a panel's Legendre series chops where its |c_k| stay below _CHOP_TOL max
# |c_k|, above the refined coefficients' noise (up to 1e-15 max |c_k| on
# cos(30 x), 6e-16 on the cos^2, parabola and gaussian factors), by degree
# _MAX_DEGREE, up to which the 64-node rule resolves the interpolant times
# e^{-i omega t} for |omega| <= K (``_series_hat``)
_CHOP_TOL = 16.0 * np.finfo(float).eps
_MAX_DEGREE = 40
_J_CUTOFF = 60.0  # default end of J's frequency window
_POLISH_POINTS = 33  # frequencies of the polish round across J's sweep peak
# an L1 mass at most this fraction of the largest |u| sample counts as zero
_ZERO_MASS_REL = 1e-14


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


def _node_doubling(value_at, count: int) -> np.ndarray:
    """Node doubling for a row of ``count`` items, one ``value_at`` call per
    level.

    Item i runs over the doubling levels until two successive values agree
    to _QUAD_TOL (relative), and keeps the value where they first agree,
    or the last level's.  value_at(level, lo, hi) gives items lo..hi-1 at
    ``level``: the run from the first unconverged item to the last one.
    """
    value = np.full(count, np.nan)
    done = np.zeros(count, dtype=bool)
    for level in _LEVELS:
        run = np.flatnonzero(~done)
        if run.size == 0:
            break
        lo, hi = run[0], run[-1] + 1
        val = value_at(level, lo, hi)
        fresh = ~done[lo:hi]
        done[lo:hi] |= fresh & (np.abs(val - value[lo:hi]) <= _QUAD_TOL * np.maximum(1.0, np.abs(val)))
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
    integrals against different weights (``_integrals``) reuse the
    evaluations; a profile without a table builds its transform's
    Legendre series (``_legendre_series``) from them once.
    """

    def __init__(self, half, breakpoints=(), linear_table=None):
        self.half = half
        # (knots, values) when the half is exactly piecewise linear; its
        # transform then has a closed form, the knot sum of ``_table_hat``
        self.linear_table = None
        if linear_table is not None:
            knots, values = (np.array(a, dtype=float) for a in linear_table)
            if knots[0] != 0.0 or knots[-1] != 1.0:
                raise ValueError("a linear table's knots must run from 0 to 1")
            self.linear_table = (knots, values)
            with np.errstate(all="ignore"):
                drops = -np.diff(np.diff(values) / np.diff(knots), prepend=0.0, append=0.0)
            self._set_drops(drops)
            breakpoints = [*breakpoints, *knots]
        pts = sorted({float(b) for b in breakpoints if 0.0 < float(b) < 1.0})
        self.breakpoints = tuple(pts)
        # (G, a) for an autoconvolution, whose transform is (a Ghat(a xi))^2
        self._factor = None
        # level -> (nodes, weights, values) when the samples derive from
        # another profile's (``combine``)
        self._derived_samples = None
        self._panels = np.array([0.0, *pts, 1.0])
        self._samples: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._sub_panel_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the transform's Legendre series per panel (``_legendre_series``)
        self._series = None

    def _set_drops(self, drops: np.ndarray) -> None:
        """Set the slope drops D_j that weight a table's knot sum (``_table_hat``)."""
        if not np.all(np.isfinite(drops)):
            raise ValueError("a linear table's slopes must be finite")
        self._drops = drops
        # 2^-e brings the largest |D_j| or |value| into [1/2, 1) (``_table_hat``)
        values = self.linear_table[1]
        self._exponent = math.frexp(max(np.max(np.abs(drops)), np.max(np.abs(values))))[1]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= 1.0
        out = np.zeros_like(x)
        if np.any(inside):
            out[inside] = self.half(np.abs(x[inside]))
        return out if out.ndim else float(out)

    def _sub_panels(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(centres, radii) of the level / _RULE_NODES equal sub-panels of
        each panel, in the order of ``samples``' nodes; cached per level."""
        if level not in self._sub_panel_cache:
            a, b = self._panels[:-1, None], self._panels[1:, None]
            edges = a + (b - a) * np.linspace(0.0, 1.0, level // _RULE_NODES + 1)
            edges[:, -1] = b[:, 0]
            lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
            self._sub_panel_cache[level] = (0.5 * (lo + hi), 0.5 * (hi - lo))
        return self._sub_panel_cache[level]

    def samples(self, level: int):
        """(nodes, weights, values) on [0, 1] with ``level`` nodes per panel:
        the _RULE_NODES-point Gauss-Legendre rule on level / _RULE_NODES
        equal sub-panels of each panel.  Sub-panel s with centre c_s and
        radius r_s holds the nodes fl(c_s + fl(r_s t_k)), for the rule's
        nodes t_k on [-1, 1], and the weights r_s w_k; a table's ``_cos_sum``
        takes each node's phase at the exact sum c_s + fl(r_s t_k) instead,
        half an ulp at most from the node.  A ``combine`` of two profiles with the
        same panels reads the values off theirs, bitwise what its ``half``
        gives at the same nodes."""
        if level not in self._samples:
            if self._derived_samples is not None:
                self._samples[level] = self._derived_samples(level)
            else:
                base_x, base_w = _gauss_legendre(_RULE_NODES)
                mid, rad = (a[:, None] for a in self._sub_panels(level))
                x = (mid + rad * base_x).ravel()
                w = (rad * base_w).ravel()
                self._samples[level] = (x, w, np.asarray(self.half(x), dtype=float))
        return self._samples[level]


def _integrals(items) -> list[float]:
    """[integral over [0, 1] of weight(x) f(x), or of weight(x) |f(x)| when
    ``absolute``, for each item (f, weight, absolute)], weight None for 1,
    from the profiles' cached samples in one node-doubling run with an item
    per integral, each stopping where its own run would."""
    def value_at(level, lo, hi):
        out = np.empty(hi - lo)
        for k, (f, weight, absolute) in enumerate(items[lo:hi]):
            x, w, fx = f.samples(level)
            if absolute:
                fx = np.abs(fx)
            out[k] = np.dot(w, fx if weight is None else fx * weight(x))
        return out

    return _node_doubling(value_at, len(items)).tolist()


def _square(x):
    return x * x


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


def autoconvolution_profile(g_half, half_support: float = 0.5) -> PerturbationFunction:
    """f = g * g for an even profile g supported on [-a, a], a <= 1/2.

    Its factor is kept as G(s) = g(a s) on [0, 1], and its transform is
    fhat(xi) = ghat(xi)^2 = (a Ghat(a xi))^2 >= 0 exactly, so these profiles
    satisfy the nonnegative-transform hypothesis by construction.  Ghat
    comes from G's Legendre series (``_series_hat``), at any frequency.
    Values of f itself (its integrals, ``combine``)
    convolve with the _CONV_NODES-point Gauss-Legendre rule, from the same
    numpy generator as the composite rule's 64 nodes.
    """
    a = float(half_support)
    if not 0.0 < a <= 0.5:
        raise ValueError("half_support must lie in (0, 1/2]")
    base_x, base_w = _gauss_legendre(_CONV_NODES)
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
        # at most _PHASE_ELEMENTS doubles
        block = max(1, _PHASE_ELEMENTS // _CONV_NODES)
        for start in range(0, x.size, block):
            cut = slice(start, start + block)
            t = mid[cut, None] + rad[cut, None] * base_x[None, :]
            vals = factor(t / a) * factor((x[cut, None] - t) / a)
            out[cut] = rad[cut] * (vals @ base_w)
        return out.reshape(shape)

    f = PerturbationFunction(half, breakpoints=[min(2.0 * a, 1.0)])
    f._factor = (factor, a)
    return f


def combine(base: PerturbationFunction, f: PerturbationFunction, eps: float) -> PerturbationFunction:
    """The perturbed function base + eps * f as a new profile.

    Two tables combine into the table on their merged knots, whose slope
    drops are base's plus eps times f's (each zero at the other's knots):
    by linearity, not by differencing the values rounded at the merged
    knots, which knots close together would amplify.  When base and f
    have the same panels, the samples are base's plus eps times f's,
    without evaluating either again.
    """

    def half(x):
        return np.asarray(base.half(x), dtype=float) + eps * np.asarray(f.half(x), dtype=float)

    tables = base.linear_table is not None and f.linear_table is not None
    table = None
    if tables:
        # a set, not np.unique, which imports numpy.ma: ~30 ms of a fresh
        # `continuum` process
        knots = np.array(sorted({*base.linear_table[0].tolist(), *f.linear_table[0].tolist()}))
        table = (knots, half(knots))
    out = PerturbationFunction(half, set(base.breakpoints) | set(f.breakpoints), linear_table=table)
    if tables:
        def drops(p):
            d = np.zeros(knots.size)
            d[np.searchsorted(knots, p.linear_table[0])] = p._drops
            return d

        out._set_drops(drops(base) + eps * drops(f))
    if np.array_equal(base._panels, f._panels):
        def summed(level):
            x, w, values = base.samples(level)
            return x, w, values + eps * f.samples(level)[2]

        out._derived_samples = summed
    return out


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
# fl(2 pi) = _TWO_PI_H + _TWO_PI_L, halves of 26 bits, and 2 pi - fl(2 pi)
_TWO_PI_H, _TWO_PI_L = 6.283185362815857, -5.563627070159782e-08
_TWO_PI_TAIL = 2.4492935982947064e-16
# elements of each (frequency, node or sub-panel) array per block of a
# transform, and of each (point, node) array of an autoconvolution's values
_PHASE_ELEMENTS = 2**14


def _sincos_2pi_prod(xi, x: np.ndarray):
    """(sin, cos) of 2 pi xi x with the product carried in double-double.

    A plain product loses ~xi*eps of phase, which the half-integer scans
    amplify by xi^2; splitting the product and reducing mod 1 exactly
    keeps the values accurate to a few ulp at any frequency.  The turn
    2 pi (hi - floor(hi)) would still round, by up to an ulp of the angle
    and by the 2.4e-16 of fl(2 pi); both go into the low part, so the
    values are within about the ulp of np.sin and np.cos.  The (rows,
    nodes) work runs in place on five arrays, in the order of the
    formulas in the comments, so the values are those of the formulas
    evaluated with fresh temporaries."""
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
    # the turn hi - floor(hi) is exact, as both are multiples of ulp(hi)
    hi -= np.floor(hi, out=tmp)
    lo *= 2.0 * _PI
    # lo += (2 pi - fl(2 pi)) turn + (the TwoProduct error of fl(2 pi) turn),
    # the error with the turn split as f_hi + f_lo and fl(2 pi) as H + L
    lo += np.multiply(hi, _TWO_PI_TAIL, out=tmp)
    np.multiply(hi, _SPLIT, out=tmp)
    f_lo = tmp - hi
    tmp -= f_lo  # f_hi
    np.subtract(hi, tmp, out=f_lo)
    part = np.multiply(tmp, _TWO_PI_H)
    hi *= 2.0 * _PI
    part -= hi
    lo += part
    lo += np.multiply(f_lo, _TWO_PI_H, out=part)
    lo += np.multiply(tmp, _TWO_PI_L, out=part)
    lo += np.multiply(f_lo, _TWO_PI_L, out=part)
    del f_lo, part
    sin = np.sin(hi)
    cos = np.cos(hi, out=hi)
    # (sin + 2 pi lo cos, cos - 2 pi lo sin)
    np.multiply(lo, cos, out=tmp)
    cos -= np.multiply(lo, sin, out=lo)
    sin += tmp
    return sin, cos


def _phase_rows(xi0: float, h: float, count: int) -> tuple[np.ndarray, int]:
    """(rows, n_a) that factor the grid xi_j = xi0 + j h, j < count: with
    m = ceil(sqrt(count)) and j = q m + p, the n_a = ceil(count / m) rows
    xi0 + q m h, then the m rows p h, e^{2 pi i xi_j x} being the product
    of rows q and n_a + p's phases."""
    m = math.isqrt(count - 1) + 1
    n_a = -(-count // m)
    return np.concatenate([xi0 + (m * h) * np.arange(n_a), h * np.arange(m)]), n_a


def _cos_sum(centre: np.ndarray, offset: np.ndarray, weight: np.ndarray,
             xi0: float, h: float, count: int) -> np.ndarray:
    """sum_{s,k} w_sk cos(2 pi xi_j (c_s + d_sk)) on the grid xi_j = xi0 + j
    h, j < count, over nodes that are the exact sums of centres c_s and
    their offsets d_sk (``offset`` has a row per centre, ``weight`` holds
    the w_sk centre by centre).  It is a table's knot sum, with the knots
    as centres and one zero offset each (``_table_hat``), and the 64-node
    rule's sum, with the sub-panel centres c_s and offsets fl(r_s t_k)
    whose rounded sums are the rule's nodes: a table's near xi = 0, and a
    Legendre series' where the rule resolves its panel (``_series_hat``).

    The phase factorises twice.  Over the R ~ 2 sqrt(count) rows of
    ``_phase_rows`` the real part of one complex matrix product gives every
    frequency.  And for each row xi

        e^{2 pi i xi (c + d)} = e^{2 pi i xi c} e^{2 pi i xi d},

    each factor a double-double phase with the exact turn
    (``_sincos_2pi_prod``): the node's rounding fl(c + d) would turn its
    phase by up to pi xi ulp, while the value at it is off by |f'| ulp / 2
    at most.  A zero offset has phase 1 exactly, so a knot takes its own
    phase.  The centres run in blocks of _PHASE_ELEMENTS // (R K) (at least
    one), K offsets a centre, so each (row, node) array holds at most
    max(_PHASE_ELEMENTS, R K) doubles.
    """
    rows, n_a = _phase_rows(xi0, h, count)
    size = offset.shape[1]
    weight = weight.reshape(centre.size, size)
    out = np.zeros((n_a, rows.size - n_a))
    per_block = min(max(1, _PHASE_ELEMENTS // (rows.size * size)), centre.size)
    for start in range(0, centre.size, per_block):
        sub = slice(start, start + per_block)
        sin_c, cos_c = (p[:, :, None] for p in _sincos_2pi_prod(rows[:, None], centre[sub]))
        shape = (rows.size, sin_c.shape[1], size)
        sin_d, cos_d = (p.reshape(shape) for p in _sincos_2pi_prod(rows[:, None], offset[sub].ravel()))
        cos = (cos_c * cos_d - sin_c * sin_d).reshape(rows.size, -1)
        sin = (sin_c * cos_d + cos_c * sin_d).reshape(rows.size, -1)
        cos_a, cos_b, sin_a, sin_b = cos[:n_a], cos[n_a:], sin[:n_a], sin[n_a:]
        cos_b *= weight[sub].reshape(-1)
        sin_b *= weight[sub].reshape(-1)
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

    The drops, the end value and the rule's samples are first scaled by the
    power of two 2^-e that brings the largest drop or table value (which
    bounds the samples) into [1/2, 1), and the transform is scaled back at
    the end, as ``chebyshev._weight_series`` scales Q: exact, and no sum or
    product overflows for tables near the top of the double range.
    """
    knots, values = f.linear_table
    _, w, fx = f.samples(_LEVELS[0])
    e = f._exponent
    drops, end, fx = np.ldexp(f._drops, -e), math.ldexp(values[-1], -e), np.ldexp(fx, -e)
    xi = xi0 + h * np.arange(count)
    near = (np.abs(xi) < 0.5) & (
        (2.0 * _PI * xi) ** 2 * np.dot(w, np.abs(fx)) <= np.sum(np.abs(drops)))
    far = np.where(near, 1.0, xi)
    # 1/c^2 as (1/(4 pi^2)) / xi^2: a caller's xi^2 weighting then cancels
    # the rounded xi^2 instead of compounding the rounding of c
    knot_sum = _cos_sum(knots, np.zeros((knots.size, 1)), drops, xi0, h, count)
    out = knot_sum * (0.25 / _PI**2) / (far * far)
    if end != 0.0:
        out += end * _sin_2pi(far) / ((2.0 * _PI) * far)
    out *= 2.0
    if near.any():
        run = np.flatnonzero(near)
        lo, hi = run[0], run[-1] + 1
        centre, radius = f._sub_panels(_LEVELS[0])
        offset = radius[:, None] * _gauss_legendre(_RULE_NODES)[0]
        out[lo:hi] = 2.0 * _cos_sum(centre, offset, w * fx, xi[lo], h, hi - lo)
    return np.ldexp(out, e)


@functools.cache
def _legendre_fit() -> tuple[np.ndarray, np.ndarray]:
    """(V, M) at the nodes t_j of the _RULE_NODES-point rule: V[k, j] =
    P_k(t_j), and M[k, j] = (k + 1/2) w_j P_k(t_j), the rule's discrete
    Legendre transform.  M inverts V only to ~1e-14, as the weights belong
    to the roots, not to their roundings."""
    t, w = _gauss_legendre(_RULE_NODES)
    v = legendre.legvander(t, _RULE_NODES - 1).T
    return v, v * w * (np.arange(_RULE_NODES) + 0.5)[:, None]


def _legendre_series(f: PerturbationFunction) -> list:
    """[(sub-panel centres, node offsets, weighted values, radius,
    coefficients)] for each panel of f, built on the first call and cached
    on f.

    A panel takes the fewest equal sub-panels of the doubling levels, one
    radius r for all of them and at most _LEVELS[-1] / _RULE_NODES = 128,
    on which f's Legendre series chop by degree _MAX_DEGREE: past it, every
    |c_k| of every sub-panel stays below _CHOP_TOL max |c_k|, or the top
    level's series when no level chops.  Each sub-panel's series
    interpolates f at the rule's 64 nodes, from the cached samples: the
    discrete transform M plus two steps of iterative refinement against V
    (``_legendre_fit``), which take the cos^2 factor's coefficients from
    1.6e-15 to 2e-16 of their 40-digit values.  The samples sit at fl(c +
    fl(r_s t_k)), r_s within an ulp of r: a shift of |f'| ulp, below the
    samples' rounding.  The centres, the offsets fl(r_s t_k) and the
    samples times the weights give the rule's own cosine sum (``_cos_sum``).
    """
    if f._series is None:
        v, m = _legendre_fit()
        f._series = []
        for p, width in enumerate(np.diff(f._panels)):
            for level in _LEVELS:
                count = level // _RULE_NODES
                _, w, values = (a.reshape(-1, count, _RULE_NODES)[p] for a in f.samples(level))
                c = values @ m.T
                for _ in range(2):
                    c += (values - c @ v) @ m.T
                envelope = np.max(np.abs(c), axis=0)
                keep = 1 + np.max(np.flatnonzero(envelope > _CHOP_TOL * np.max(envelope)), initial=0)
                if keep <= _MAX_DEGREE + 1 or level == _LEVELS[-1]:
                    break
            centre, radius = (a.reshape(-1, count)[p] for a in f._sub_panels(level))
            f._series.append((centre, radius[:, None] * _gauss_legendre(_RULE_NODES)[0], w * values,
                              0.5 * width / count, c[:, :keep]))
    return f._series


def _grid_sincos(xi0: float, h: float, count: int, x: np.ndarray):
    """(sin, cos) of 2 pi xi_j x_s on the grid xi_j = xi0 + j h, j < count,
    of shape (x.size, count): only the ~2 sqrt(count) phases of
    ``_phase_rows`` are double-double phases with the exact turn
    (``_sincos_2pi_prod``), each entry one complex product of two of them,
    a few ulp at any xi."""
    rows, n_a = _phase_rows(xi0, h, count)
    sin, cos = _sincos_2pi_prod(rows, x[:, None])
    sin_a, cos_a, sin_b, cos_b = sin[:, :n_a, None], cos[:, :n_a, None], sin[:, None, n_a:], cos[:, None, n_a:]
    shape = (x.size, n_a * (rows.size - n_a))
    return ((sin_a * cos_b + cos_a * sin_b).reshape(shape)[:, :count],
            (cos_a * cos_b - sin_a * sin_b).reshape(shape)[:, :count])


def _series_hat(f: PerturbationFunction, xi0: float, h: float, count: int) -> np.ndarray:
    """fhat on the grid xi0 + k h, k < count, from f's Legendre series
    (``_legendre_series``), one evaluation per frequency.

    On a sub-panel of centre c and radius r with f = sum_k c_k P_k((x -
    c) / r), DLMF 10.54.2, int_{-1}^{1} P_k(t) e^{-i omega t} dt = 2 (-i)^k
    j_k(omega), gives

        fhat(xi) = 4 r sum (cos(theta) E - sin(theta) O),  theta = 2 pi xi c,

    summed over sub-panels, with omega = 2 pi xi r, E = sum over even k of
    (-1)^(k/2) c_k j_k(omega) and O the same over odd k with
    (-1)^((k-1)/2): a Filon-type rule, exact for the interpolant
    (Iserles & Norsett, Proc. R. Soc. A 461 (2005)), at O(K) a frequency
    for any xi.  It runs where |omega| > K, the series' degree, with j_0 =
    sin(omega) / omega, j_1 = (j_0 - cos(omega)) / omega and j_{k+1} = (2k
    + 1) j_k / omega - j_{k-1} upward, stable while k < |omega|; the j_k of
    a panel serve all its sub-panels, and each term is summed as it comes.
    theta's and omega's sines and cosines come with the exact turn
    (``_grid_sincos``), as fl(omega) would shift them by ~eps omega.  The
    frequencies run in blocks whose sines and cosines, of the S sub-panel
    centres and of the radius, hold at most _PHASE_ELEMENTS doubles: the
    cos^2 autoconvolution's report then peaks at 0.82 MB traced (1.06 MB
    with blocks twice as long, 1.10 MB for the composite rule's sums).

    Where |omega| <= K <= _MAX_DEGREE, the interpolant times e^{-i omega t}
    has Legendre coefficients below eps past degree 127, so the rule's own
    cosine sum over the panel's nodes (``_cos_sum``) is its integral:
    that is the crossover, and near xi = 0 the sum rounds to about eps
    ||f||_1, as a table's does (``_table_hat``).  A series that chops at no
    level keeps its 64 coefficients, past that degree, and carries the
    interpolant's own error: a profile needs breakpoints at its kinks.
    """
    out = np.zeros(count)
    for centre, offset, weight, radius, c in _legendre_series(f):
        top = c.shape[1] - 1
        # |omega| <= K on one run of the grid
        low = np.flatnonzero(np.abs(xi0 + h * np.arange(count)) <= top / (2.0 * _PI * radius))
        lo, hi = (low[0], low[-1] + 1) if low.size else (count, count)
        if hi > lo:
            out[lo:hi] += 2.0 * _cos_sum(centre, offset, weight, xi0 + lo * h, h, hi - lo)
        a = c * np.where(np.arange(top + 1) % 4 < 2, 1.0, -1.0)  # (-1)^(k // 2)
        block = max(1, _PHASE_ELEMENTS // (2 * centre.size + 2))
        for start in [*range(0, lo, block), *range(hi, count, block)]:
            run = slice(start, min(start + block, lo if start < lo else count))
            sin, cos = _grid_sincos(xi0 + start * h, h, run.stop - start, np.append(centre, radius))
            inv = 1.0 / ((2.0 * _PI * radius) * (xi0 + h * np.arange(start, run.stop)))
            prev = sin[-1] * inv
            j = (prev - cos[-1]) * inv
            sums = [a[:, :1] * prev, a[:, 1:2] * j if top else 0.0]
            work = np.empty_like(j)
            for k in range(1, top):
                np.subtract((2 * k + 1) * np.multiply(inv, j, out=work), prev, out=work)
                prev, j, work = j, work, prev
                sums[(k + 1) % 2] += a[:, k + 1:k + 2] * j
            out[run] += (4.0 * radius) * np.sum(cos[:-1] * sums[0] - sin[:-1] * sums[1], axis=0)
    return out


def _transform(f: PerturbationFunction, xi0: float, h: float, count: int) -> np.ndarray:
    """fhat on the uniform grid xi0 + k h, k < count, one evaluation per
    frequency at any xi; the only code that knows a profile's transform
    kind: an autoconvolution's squared factor transform (a Ghat(a xi))^2,
    a table's knot sum (``_table_hat``), or else f's Legendre series
    (``_series_hat``)."""
    if f._factor is not None:
        g, a = f._factor
        return (a * _transform(g, a * xi0, a * h, count)) ** 2
    if f.linear_table is not None:
        return _table_hat(f, xi0, h, count)
    return _series_hat(f, xi0, h, count)


def ct_fourier(f: PerturbationFunction, xi: float) -> float:
    """fhat(xi) = integral of f(x) e^{-2 pi i xi x} dx = 2 int_0^1 f cos(2 pi xi x).

    Real-valued because f is even.  The one-frequency case of
    ``_transform``: a table's closed form, or f's Legendre series.
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


def _j_window(xi_cutoff: float, grid: int | None) -> int:
    """J's sweep grid size on [0, xi_cutoff], validated."""
    if xi_cutoff < 10.0:
        raise ValueError("xi_cutoff must be at least 10")
    if grid is None:
        grid = int(round(256.0 * xi_cutoff)) + 1
    if grid < 10**3:
        raise ValueError("grid must have at least 1000 points")
    return grid


def _abs_moments(profiles) -> list[tuple[float, float]]:
    """[(int |u|, int |u| x^2) over [-1, 1] for each u of ``profiles``],
    from one ``_integrals`` run with an item per profile and moment; ZeroMass
    unless each mass is positive relative to the largest |u| at the first
    level's nodes, a test that reads the same at every scale of u."""
    half = _integrals([(u, weight, True) for u in profiles for weight in (None, _square)])
    moments = [(2.0 * mass, 2.0 * second) for mass, second in zip(half[::2], half[1::2])]
    for u, (mass, _) in zip(profiles, moments):
        if mass <= _ZERO_MASS_REL * np.max(np.abs(u.samples(_LEVELS[0])[2])):
            raise ZeroMass("function has (numerically) zero L1 mass")
    return moments


def _j_sweep(u: PerturbationFunction, xi_cutoff: float, grid: int) -> np.ndarray:
    """uhat on J's grid xi_k = k xi_cutoff / (grid - 1), k < grid."""
    return _transform(u, 0.0, xi_cutoff / (grid - 1), grid)


def _sweep_peak(uhat: np.ndarray, xi_cutoff: float) -> tuple[float, float, float]:
    """(value, lo, hi): the peak of |uhat| xi^2 over J's grid on [0,
    xi_cutoff], given the profile's transform ``uhat`` there, and the grid
    points on either side of it (the peak itself at either end)."""
    grid = uhat.size
    xis = np.linspace(0.0, xi_cutoff, grid)
    sweep = np.abs(uhat) * xis**2
    # near-ties (the triangle peaks equally at every half-integer) resolve
    # to the smallest frequency rather than to amplified roundoff far out
    peak = float(np.max(sweep))
    i_best = int(np.argmax(sweep >= peak - 1e-8 * peak))
    if xis[i_best] > 0.95 * xi_cutoff:
        warnings.warn(
            f"grid peak at xi = {xis[i_best]:.3f} sits within 5% of the cutoff {xi_cutoff}",
            TailEstimateWarning,
            stacklevel=3,
        )
    return (float(sweep[i_best]), float(xis[max(0, i_best - 1)]),
            float(xis[min(grid - 1, i_best + 1)]))


def _j_polished(peak: tuple[float, float, float], transform,
                moments: tuple[float, float]) -> float:
    """J from a profile's sweep ``peak`` (see ``_sweep_peak``) and its |u|
    ``moments`` (mass, second moment).

    ``transform(xi0, h, count)`` gives the transform on xi0 + k h, k <
    count, for the polish: one _POLISH_POINTS round across the peak's
    bracket, then one point at the vertex of the parabola through the
    round's best sample and its two neighbours, when that sample is
    interior and the three are concave.  The sup is the largest sample of
    all.  J is formed from the ratios sup/mass and m2/mass, so it neither
    overflows nor underflows at any scale of the profile.
    """
    sup, lo, hi = peak
    step = (hi - lo) / (_POLISH_POINTS - 1)
    ks = np.arange(_POLISH_POINTS)
    vals = np.abs(transform(lo, step, _POLISH_POINTS)) * (lo + step * ks) ** 2
    k = int(np.argmax(vals))
    sup = max(sup, float(vals[k]))
    if 0 < k < _POLISH_POINTS - 1:
        left, mid, right = vals[k - 1:k + 2].tolist()
        curvature = left - 2.0 * mid + right
        if curvature < 0.0:
            xi = lo + step * (k + 0.5 * (left - right) / curvature)
            sup = max(sup, float(abs(transform(xi, 1.0, 1)[0])) * xi * xi)
    mass, second_moment = moments
    return (sup / mass) ** 2 * (second_moment / mass) ** 2


def j_functional(u: PerturbationFunction, xi_cutoff: float = _J_CUTOFF,
                 grid: int | None = None) -> float:
    """J(u) = sup(|uhat| xi^2)^2 * (int |u| x^2)^2 / (int |u|)^4.

    The sup is taken over the window [0, xi_cutoff] (evenness halves the
    line): a uniform grid with spacing 1/256 locates the peak; one polish
    round transforms 33 equispaced points across the peak's bracket, and
    one more transform takes the vertex of the parabola through the
    round's best point and its two neighbours.  J is scale invariant, and
    so is its evaluation: it is formed from ratios to the mass.  A
    TailEstimateWarning flags a grid peak within 5% of the cutoff, where
    the window may be too short.
    Integrands with |u| are spectrally accurate only when u keeps one
    sign per quadrature panel, which holds for the perturbations studied
    here.  The transforms have no resolution limit, so any cutoff works.
    """
    grid = _j_window(xi_cutoff, grid)
    moments = _abs_moments([u])[0]
    peak = _sweep_peak(_j_sweep(u, xi_cutoff, grid), xi_cutoff)
    return _j_polished(peak, functools.partial(_transform, u), moments)


def gamma_half_integer(f: PerturbationFunction, n_max: int) -> tuple[float, float]:
    """sup over |n| <= n_max of fhat(n + 1/2) (n + 1/2)^2, and the last term.

    Evenness of fhat reduces the scan to n >= 0.  The reported last term
    makes the truncation auditable: smooth perturbations decay fast, but
    merely continuous ones (like the triangle itself) do not decay at
    all, and the sup is then reached already at small n.

    The scan is one ``_transform`` of the n_max + 1 half-integers: a
    table's knot sum, or a Legendre series' Bessel sums, at a cost per
    frequency that does not grow with n_max.
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
    mass, second_moment = (2.0 * v for v in _integrals([(f, None, False), (f, _square, False)]))
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

    Computes (J(u0 + eps f) - J(u0)) / eps for the two smallest steps and
    Richardson-extrapolates them (first-order model), which estimates the
    same one-sided slope as ``c_f_analytic``; one step gives its plain
    difference.  The steps must be finite and distinct, in (0, 0.1].
    The transform of u0 + eps f is u0hat + eps fhat, so f is swept once
    on J's grid, whatever the number of steps; u0's sweep and J(u0) are
    built by the first call in a process and shared by every later one.
    """
    return _finite_diff_slope(f, _check_eps(eps_list))[1]


def _check_eps(eps_list) -> list[float]:
    """The finite-difference steps, ascending; ValueError unless they are
    finite and distinct, in (0, 0.1]."""
    eps = sorted(float(e) for e in eps_list)
    if not eps or not all(0.0 < e <= 0.1 for e in eps):
        raise ValueError("all eps must be finite and lie in (0, 0.1]")
    if any(a == b for a, b in zip(eps, eps[1:])):
        raise ValueError("eps must be distinct")
    return eps


@functools.cache
def _triangle_reference() -> tuple[PerturbationFunction, np.ndarray, float]:
    """(u0, u0hat on J's default grid, J(u0)): the part of every slope that
    does not depend on the perturbation, built once per process.  The
    sweep is read-only, as every caller shares it."""
    u0 = triangle_profile()
    u0_hat = _j_sweep(u0, _J_CUTOFF, _j_window(_J_CUTOFF, None))
    u0_hat.flags.writeable = False
    j0 = _j_polished(_sweep_peak(u0_hat, _J_CUTOFF), functools.partial(_transform, u0),
                     _abs_moments([u0])[0])
    return u0, u0_hat, j0


def _finite_diff_slope(f: PerturbationFunction, eps: list[float]) -> tuple[float, float]:
    """(J at the triangle u0, the slope of ``finite_diff_slope``) for
    ascending steps ``eps``.  J(u0) and u0's sweep come from the
    process's ``_triangle_reference``; each J(u0 + e f) reads |u0hat + e
    fhat| xi^2 off the sweeps and polishes with u0hat + e fhat, where
    each polish grid is transformed once per report for u0 and once for
    f, while the |u| integrals of every ``combine(u0, f, e)`` take one
    node-doubling run."""
    eps = eps[:2]  # Richardson reads the two smallest
    # f's sweep, the larger working set, runs before a cold process
    # sweeps u0 (the other order left the continuum benchmark's peak RSS
    # 0.1-0.2 MB higher), and is dropped once its peaks are read
    f_hat = _j_sweep(f, _J_CUTOFF, _j_window(_J_CUTOFF, None))
    u0, u0_hat, j0 = _triangle_reference()
    peaks = [_sweep_peak(u0_hat + e * f_hat, _J_CUTOFF) for e in eps]
    del f_hat
    u0_at, f_at = (functools.cache(functools.partial(_transform, p)) for p in (u0, f))
    mixes = [combine(u0, f, e) for e in eps]

    def slope(e, peak, moments):
        def transform(xi0, h, count):
            return u0_at(xi0, h, count) + e * f_at(xi0, h, count)

        return (_j_polished(peak, transform, moments) - j0) / e

    slopes = [slope(*args) for args in zip(eps, peaks, _abs_moments(mixes))]
    if len(eps) == 1:
        return j0, slopes[0]
    (e2, e1), (s2, s1) = eps, slopes  # e2 < e1
    return j0, s2 + (s2 - s1) * e2 / (e1 - e2)


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
    Both scans are one ``_transform`` each, at any n_max.
    """
    lhs, _ = gamma_half_integer(f, n_max)
    min_hat = float(np.min(_transform(f, 1.0, 1.0, n_max)))
    return Prop8Sides(lhs, _prop8_rhs(f), min_hat)


def _prop8_rhs(f: PerturbationFunction) -> float:
    return (2.0 / _PI**2) * 2.0 * _integrals([(f, lambda x: 1.0 - 3.0 * x * x, False)])[0]


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
    also the slope's gamma and the inequality's left side.  J0 and the
    sweep of u0hat on J's grid are built by the first report in a process
    and shared by every later one; with one sweep of fhat they give every
    J(u0 + eps f), whose polish transforms each grid once per report for
    u0 and once for f (see ``finite_diff_slope``, whose step rules
    ``eps_list`` follows)."""
    eps = _check_eps(eps_list)
    gamma = _slope_gamma(f, n_max)
    j0, c_f_numeric = _finite_diff_slope(f, eps)
    return PerturbationReport(
        J0=j0,
        c_f_analytic=_slope_from_gamma(f, gamma),
        c_f_numeric=c_f_numeric,
        gamma=gamma,
        prop8_lhs=gamma,
        prop8_rhs=_prop8_rhs(f),
        epsilons_used=[float(e) for e in eps_list],
    )
