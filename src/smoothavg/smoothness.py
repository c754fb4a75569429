"""Worst-case smoothness constants of averaging kernels.

The operator norm of f -> D(f * u) on l2(Z), for a difference operator D
with symbol s(xi), is the sup over the circle of |s(xi)| * |uhat(xi)|.
With x = cos xi it is the sup of |s(x)| * |p_u(x)| on [-1, 1], and every
constant here is that one weighted sup (``_weighted_sup``) for its stencil:

* first difference, |s| = sqrt(2 (1 - x)): M(u), sharp lower bound
  2/(2n+1), attained only by the box kernel;
* second difference, |s| = 2 (1 - x): L(u), sharp lower bound
  4/(n+1)^2, attained (among kernels with nonnegative Fourier transform)
  only by the triangle kernel;
* any other stencil: ``operator_constant``, whose sharp bound is known
  only on the stencils c (1 - z)^m (1 + z)^m' z^k with a box or comb
  entry.

Every sharp bound and extremal kernel is read from ``kernel.KNOWN_OPTIMA``
(``_kind``).

Both the candidates and |s| come from one factored form of the weight,
``OperatorSymbol.weight`` = (m, Q) with |s|^2 = (2 (1 - x))^m Q, where
(1 - z)^m is split off the taps.  The candidate maximizers are the
endpoints and the real roots of (|s|^2 p_u^2)' / p_u, for m >= 1 with
its factor (2 (1 - x))^(m-1) divided out (``chebyshev.extreme_points``), and
``OperatorSymbol.magnitude`` evaluates |s| with its relative accuracy kept
near x = 1.
Every constant and check takes a list of kernels of any radii, each row
with its own stencil, in one engine pass (``_weighted_values``): rows
whose candidate polynomial has one length share one colleague-matrix
eigensolve, and all are evaluated in one Clenshaw pass.  ``_reports``
builds the reports, ``verify_theorem*_batch`` the exceptions and
``kernel_constants`` every constant of one kernel; each single-kernel
name is that on a stack of one, so a kernel gets bitwise the same anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .chebyshev import ChebPoly, _evaluate, _stationary_points, _top, extrema
from .kernel import (
    GRAD_STENCIL,
    KNOWN_OPTIMA,
    LAPLACIAN_STENCIL,
    NONNEG_TOL,
    DiscreteKernel,
    Sequence,
    apply_stencil,
    _nonneg_verdict,
    convolve,
    l2_norm,
)

__all__ = [
    "SmoothnessReport",
    "OperatorSymbol",
    "DegenerateOperator",
    "BoundViolated",
    "HypothesisViolated",
    "GRAD_STENCIL",
    "LAPLACIAN_STENCIL",
    "first_deriv_constant",
    "laplacian_constant",
    "operator_constant",
    "first_deriv_constants",
    "laplacian_constants",
    "kernel_constants",
    "nonneg_violations",
    "ratio_witness",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem1_batch",
    "verify_theorem2_batch",
]

# Equality-case tolerances: double-precision Chebyshev arithmetic keeps
# errors below 1e-11 for n <= 30, so 1e-10 separates exact extremizers
# from near misses.
GAP_TOL = 1e-10
COEFF_TOL = 1e-10
BOUND_SLACK = 1e-11


class DegenerateOperator(ValueError):
    """Operator stencil is identically zero."""


class BoundViolated(AssertionError):
    """Computed constant fell below the proven sharp bound (solver bug)."""

    def __init__(self, kernel: DiscreteKernel, constant: float, bound: float):
        self.kernel = kernel
        self.constant = constant
        self.bound = bound
        super().__init__(
            f"constant {constant!r} < sharp bound {bound!r} for kernel half {kernel.half.tolist()}"
        )


class HypothesisViolated(ValueError):
    """Kernel's Fourier transform goes negative; carries a witness frequency."""

    def __init__(self, kernel: DiscreteKernel, witness_x: float):
        self.kernel = kernel
        self.witness_x = witness_x
        self.witness_xi = math.acos(max(-1.0, min(1.0, witness_x)))
        super().__init__(
            f"Fourier transform is negative near xi = {self.witness_xi:.6f} (x = {witness_x:.6f})"
        )


@dataclass(frozen=True)
class SmoothnessReport:
    """Computed operator-norm constant with its sharp-bound bookkeeping."""

    constant: float
    arg_x: float
    sharp_bound: float
    gap: float
    is_extremal: bool

    def to_dict(self) -> dict:
        return {"constant": self.constant, "arg_x": self.arg_x, "sharp_bound": self.sharp_bound,
                "gap": self.gap, "is_extremal": self.is_extremal}


# A root of the taps within this distance of the unit circle lies on it, and
# one within it of z = 1 or z = -1 is that endpoint's: rounding splits a
# double root by about sqrt(eps) ~ 1e-8.
_CIRCLE_TOL = 1e-6


def _divide_out_root(taps: np.ndarray, root: float) -> tuple[np.ndarray, int]:
    """(quotient, m) with taps = (1 - z / root)^m * quotient as polynomials
    in z, for root = 1 or -1.  Dividing by (1 - z) leaves the running sums
    of the taps (for root = -1, of the taps with z -> -z), and the division
    is exact while their total is exactly zero."""
    signs = root ** np.arange(taps.size)
    q, m = taps * signs, 0
    while (sums := np.cumsum(q))[-1] == 0.0:
        q, m = sums[:-1], m + 1
    return q * signs[: q.size], m


@dataclass(frozen=True)
class OperatorSymbol:
    """Difference operator (D f)(k) = sum_i taps[i] f(k + offset + i).

    ``weight`` is the one form of |s(xi)|^2 in x = cos xi, factored as
    (m, Q): the taps are (1 - z)^m q(z) in z, Q = |q|^2 is exact from the
    autocorrelation of q, and |s|^2 = (2 (1 - x))^m Q.  ``magnitude``
    evaluates |s| from it and ``chebyshev.extreme_points`` roots it.
    ``vanishes_inside`` tells whether |s| has a zero in (-1, 1).
    ``model_orders`` is (m, m') and ``scale`` is |c| when the taps are
    c (1 - z)^m (1 + z)^m' z^k for constants c and k; both are None
    otherwise.  All are built once, here;
    taps that are not finite or whose |s|^2 overflows are rejected by name.
    Two symbols are equal when their taps and offsets are.
    """

    taps: np.ndarray
    offset: int = 0
    weight: tuple[int, ChebPoly] = field(init=False, repr=False, compare=False)
    vanishes_inside: bool = field(init=False, repr=False, compare=False)
    model_orders: tuple[int, int] | None = field(init=False, repr=False, compare=False)
    scale: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.taps, dtype=float)).copy()
        if t.ndim != 1 or t.size == 0:
            raise ValueError("taps must be a nonempty 1-d real sequence")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"stencil taps {t.tolist()} must be finite")
        if not np.any(t):
            raise DegenerateOperator("all stencil taps are zero")
        t.setflags(write=False)
        object.__setattr__(self, "taps", t)
        object.__setattr__(self, "offset", int(self.offset))
        with np.errstate(over="ignore"):
            q, order = _divide_out_root(t, 1.0)
            r = np.correlate(q, q, mode="full")[q.size - 1 :]
            quotient = np.concatenate([r[:1], 2.0 * r[1:]])
        if not np.all(np.isfinite(quotient)):
            raise ValueError(f"|s|^2 of the stencil taps {t.tolist()} overflows")
        object.__setattr__(self, "weight", (order, ChebPoly(quotient)))
        # |s| vanishes at x = cos xi exactly where the taps vanish at
        # z = e^{i xi}; with the roots z = 1 and z = -1 (x = 1 and x = -1)
        # divided out, or within _CIRCLE_TOL of a root left, any other root
        # on the unit circle is inside (-1, 1)
        rest, order_minus = _divide_out_root(q, -1.0)
        model = np.count_nonzero(rest) == 1
        object.__setattr__(self, "model_orders", (order, order_minus) if model else None)
        object.__setattr__(self, "scale", float(np.abs(rest).sum()) if model else None)
        z = np.roots(rest[::-1])
        on_circle = np.abs(np.abs(z) - 1.0) <= _CIRCLE_TOL
        inside = on_circle & (np.minimum(np.abs(z - 1.0), np.abs(z + 1.0)) > _CIRCLE_TOL)
        object.__setattr__(self, "vanishes_inside", bool(np.any(inside)))

    def __eq__(self, other):
        if not isinstance(other, OperatorSymbol):
            return NotImplemented
        return (self.taps.tobytes(), self.offset) == (other.taps.tobytes(), other.offset)

    def __hash__(self):
        return hash((self.taps.tobytes(), self.offset))

    def magnitude(self, x) -> np.ndarray:
        """|s| at x = cos xi, as (2 (1 - x))^(m/2) * sqrt(Q(x)) from the
        factored weight: the relative accuracy holds near x = 1, where |s|
        vanishes to order m/2 in 1 - x."""
        x = np.asarray(x, dtype=float)
        order, quotient = self.weight
        q2 = np.clip(npcheb.chebval(x, quotient.coeffs), 0.0, None)
        return (2.0 * (1.0 - x)) ** (0.5 * order) * np.sqrt(q2)


@functools.cache
def _stencil_symbol(taps: tuple[float, ...]) -> OperatorSymbol:
    """The symbol of a fixed stencil, built on first use and then shared."""
    return OperatorSymbol(taps)


def _symbols(kernels) -> np.ndarray:
    """The symbols p_u of kernels of any radii as a (B, N+1) stack of
    coefficient rows, N the largest radius: those of ``symbol(u)``, each
    padded with zeros."""
    halves = np.zeros((len(kernels), max((u.n for u in kernels), default=0) + 1))
    for row, u in zip(halves, kernels):
        row[: u.half.size] = u.half
    c = 2.0 * halves
    c[:, 0] = halves[:, 0]
    return c


def _weighted_values(c: np.ndarray, symbols) -> tuple[np.ndarray, np.ndarray]:
    """(xs, vals) for a (B, L) stack c of symbol rows of any radii, each with
    its own operator symbols[i] (None for none): row i of xs holds the
    candidates of ``extreme_points(p, s.weight)`` for its row p and symbol
    s, and row i of vals holds |s| * p at them (p for None).

    The candidates for the factored weight (m, Q), m >= 1, are the
    endpoints and the real roots of 4 (1 - x) Q p' + (2 (1 - x) Q' - 2 m Q) p
    (2 Q p' + Q' p for m = 0), which is (|s|^2 p^2)' / p over
    (2 (1 - x))^(m-1), so every local maximum of |s| |p| where p != 0 is
    among them.  All rows take one stacked pass
    (``chebyshev._stationary_points``, ``_evaluate``) and one |s| per
    symbol, so each row's result is bitwise that of a stack of one.
    """
    xs = _stationary_points(c, [None if s is None else s.weight for s in symbols])
    vals = _evaluate(xs, c)
    rows_of: dict = {}
    for i, s in enumerate(symbols):
        if s is not None:
            rows_of.setdefault(s, []).append(i)
    for s, rows in rows_of.items():
        vals[rows] *= s.magnitude(xs[rows])
    return xs, vals


def _weighted_sup(c: np.ndarray, symbols) -> tuple[np.ndarray, np.ndarray]:
    """Per row p of a (B, L) stack c of symbol rows of any radii, and its
    own symbol s = symbols[i]: the sup over [-1, 1] of |s(x)| * |p(x)|
    (of |p(x)| for None) and one maximizer, as two arrays, from one
    ``_weighted_values`` pass.  Each row's result is bitwise that of a
    stack of one; near-ties go to the largest x."""
    xs, vals = _weighted_values(c, symbols)
    return _top(xs, np.abs(vals))


def _kind(s: OperatorSymbol, positivity: bool, n: int) -> tuple:
    """(symbol, sharp bound, extremal kernel) of the constant of stencil s at
    radius n: with an entry of ``KNOWN_OPTIMA`` for (s.model_orders,
    positivity), its value scaled by s.scale and its kernel; with none, the
    trivial bound 0 and no extremal kernel."""
    entry = KNOWN_OPTIMA.get((s.model_orders, positivity))
    return (s, 0.0, None) if entry is None else (s, s.scale * entry.value(n), entry.kernel)


def _report(u: DiscreteKernel, kind: tuple, constant: float, x: float) -> SmoothnessReport:
    """The report of a computed constant of kind (symbol, bound, extremal):
    the gap is constant - bound, and u is extremal when the gap is within
    GAP_TOL and its coefficients are within COEFF_TOL of ``extremal(n)``;
    with no ``extremal`` it is not."""
    _, bound, extremal = kind
    gap = constant - bound
    is_extremal = (extremal is not None and gap <= GAP_TOL
                   and bool(np.max(np.abs(u.half - extremal(u.n).half)) <= COEFF_TOL))
    return SmoothnessReport(constant, x, bound, gap, is_extremal)


def _reports(kernels, kinds) -> list:
    """One ``SmoothnessReport`` per kernel of a list of any radii, for its
    kind (symbol, bound, extremal), from one stacked ``_weighted_sup``."""
    constants, xs = _weighted_sup(_symbols(kernels), [s for s, _, _ in kinds])
    return [_report(u, kind, constant, x)
            for u, kind, constant, x in zip(kernels, kinds, constants.tolist(), xs.tolist())]


def first_deriv_constants(kernels) -> list:
    """M(u) = max sqrt(2 (1-x)) |p_u(x)| of each of a list of kernels of any
    radii, from one stacked sup, as reports; sharp bound 2/(2n+1),
    attained only by the box kernel."""
    return _reports(kernels, [_kind(_stencil_symbol(GRAD_STENCIL), False, u.n) for u in kernels])


def laplacian_constants(kernels) -> list:
    """L(u) = max 2 (1-x) |p_u(x)| of each of a list of kernels of any
    radii, from one stacked sup, as reports; sharp bound 4/(n+1)^2.

    Uses |p_u| so the value is the true operator norm even when uhat
    changes sign; the bound (and the extremal flag) are meaningful under
    the nonnegative-transform hypothesis, which verify_theorem2 enforces.
    """
    return _reports(kernels, [_kind(_stencil_symbol(LAPLACIAN_STENCIL), True, u.n) for u in kernels])


def kernel_constants(u: DiscreteKernel, operator: OperatorSymbol | None = None,
                     nonneg: bool = False) -> tuple[list, tuple | None]:
    """(reports, nonneg_fourier) of one kernel from one engine pass.

    ``reports`` are [M(u), L(u)], followed by ``operator_constant(u,
    operator)`` when an operator is given.  With ``nonneg``,
    ``nonneg_fourier`` is the (flag, witness) of ``has_nonneg_fourier(u)``,
    from the minimum of p_u taken in the same pass; otherwise it is None.
    The weighted rows of one kernel have r of one length for the model
    stencils and share their eigensolve.  Each value is bitwise that of the
    single-kernel call.
    """
    kinds = [_kind(_stencil_symbol(GRAD_STENCIL), False, u.n),
             _kind(_stencil_symbol(LAPLACIAN_STENCIL), True, u.n)]
    if operator is not None:
        kinds.append(_kind(operator, False, u.n))
    symbols = [s for s, _, _ in kinds] + ([None] if nonneg else [])
    xs, vals = _weighted_values(_symbols([u] * len(symbols)), symbols)
    k = len(kinds)
    constants, args = _top(xs[:k], np.abs(vals[:k]))
    reports = [_report(u, kind, constant, x)
               for kind, constant, x in zip(kinds, constants.tolist(), args.tolist())]
    if not nonneg:
        return reports, None
    neg, witness = _top(xs[k:], -vals[k:])
    return reports, _nonneg_verdict(-float(neg[0]), float(witness[0]))


def first_deriv_constant(u: DiscreteKernel) -> SmoothnessReport:
    """``first_deriv_constants`` of the stack of one [u]."""
    return first_deriv_constants([u])[0]


def laplacian_constant(u: DiscreteKernel) -> SmoothnessReport:
    """``laplacian_constants`` of the stack of one [u]."""
    return laplacian_constants([u])[0]


def operator_constant(u: DiscreteKernel, s: OperatorSymbol) -> SmoothnessReport:
    """sup over the circle of |s(xi)| * |uhat(xi)| for a general stencil.

    On a stencil c (1 - z)^m (1 + z)^m' z^k with an entry of
    ``KNOWN_OPTIMA`` for ((m, m'), no positivity), the box's (1, 0) and the
    comb's (1, 1), the sharp bound is |c| times the entry's value and u is
    extremal when it is the entry's kernel.  On any other stencil no sharp
    lower bound is known, so the trivial bound 0 is reported and the
    extremal flag stays False.
    """
    return _reports([u], [_kind(s, False, u.n)])[0]


def ratio_witness(u: DiscreteKernel, operator: OperatorSymbol, N: int) -> tuple[Sequence, float]:
    """Near-extremizing input: a hard-truncated cosine at the worst frequency.

    f(k) = cos(xi* k) for |k| <= N, where cos(xi*) maximizes the operator
    symbol times uhat.  Returns (f, ||D(f*u)|| / ||f||); the ratio can
    never exceed the operator norm.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    rep = operator_constant(u, operator)
    xi_star = math.acos(max(-1.0, min(1.0, rep.arg_x)))
    k = np.arange(-N, N + 1)
    f = Sequence(-N, np.cos(xi_star * k))
    smoothed = convolve(f, u)
    derived = apply_stencil(smoothed, operator.taps, operator.offset)
    return f, l2_norm(derived) / l2_norm(f)


def _checked(kernels, reports) -> list:
    """Each report, or the BoundViolated of a constant below its bound."""
    return [BoundViolated(u, rep.constant, rep.sharp_bound)
            if rep.constant < rep.sharp_bound - BOUND_SLACK else rep
            for u, rep in zip(kernels, reports)]


def _raised(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def nonneg_violations(kernels) -> list:
    """Theorem 2's hypothesis on a list of kernels of any radii, from one
    stacked minimum of the symbols (``extrema``): entry i is None when the
    minimum of p_u is at least -NONNEG_TOL, and otherwise the
    HypothesisViolated with a minimizer as the witness."""
    _, _, minima, witnesses = extrema(_symbols(kernels))
    return [None if vmin >= -NONNEG_TOL else HypothesisViolated(u, witness)
            for u, vmin, witness in zip(kernels, minima.tolist(), witnesses.tolist())]


def verify_theorem1_batch(kernels) -> list:
    """Check M(u) >= 2/(2n+1) on a list of kernels of any radii, from one
    stacked sup (``first_deriv_constants``): entry i is the report of
    kernels[i], or the BoundViolated of a constant below the bound."""
    return _checked(kernels, first_deriv_constants(kernels))


def verify_theorem2_batch(kernels) -> list:
    """Check L(u) >= 4/(n+1)^2 on a list of kernels of any radii whose
    transforms are nonnegative, from one stacked minimum of the symbols
    (``nonneg_violations``) and one stacked sup (``laplacian_constants``):
    entry i is the report of kernels[i], the HypothesisViolated of a
    transform whose minimum is below -NONNEG_TOL, or else the BoundViolated
    of a constant below the bound."""
    return [outcome if violation is None else violation
            for violation, outcome in zip(nonneg_violations(kernels),
                                          _checked(kernels, laplacian_constants(kernels)))]


def verify_theorem1(u: DiscreteKernel) -> SmoothnessReport:
    """Check M(u) >= 2/(2n+1), equality exactly at the box kernel: the
    report of ``verify_theorem1_batch([u])``, or its exception raised."""
    return _raised(verify_theorem1_batch([u])[0])


def verify_theorem2(u: DiscreteKernel) -> SmoothnessReport:
    """Check L(u) >= 4/(n+1)^2 for kernels with nonnegative transform.

    Equality holds exactly at the triangle kernel; kernels whose transform
    goes negative are rejected with a witness frequency.  This is
    ``verify_theorem2_batch([u])``, its exception raised.
    """
    return _raised(verify_theorem2_batch([u])[0])
