"""Discrete averaging kernels and finitely supported sequences.

A kernel is a symmetric weight function u on {-n, ..., n} with unit sum,
stored through its half u(0), ..., u(n).  Its Fourier transform is the
real cosine polynomial uhat(xi) = p_u(cos xi) where
p_u(x) = u(0) + sum_k 2 u(k) T_k(x), so kernel questions reduce to
Chebyshev-basis polynomial questions.  ``KNOWN_OPTIMA`` is the one table of
the proved optimal kernels (box, triangle and comb) and their constants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chebyshev import ChebPoly, cheb_eval, signed_min

__all__ = [
    "DiscreteKernel",
    "Sequence",
    "AsymmetricKernel",
    "NotNormalized",
    "NotNormalizedSymbol",
    "KernelFileError",
    "from_full",
    "from_half",
    "box_kernel",
    "triangle_kernel",
    "KnownOptimum",
    "KNOWN_OPTIMA",
    "symbol",
    "kernel_from_symbol",
    "fourier_symbol",
    "has_nonneg_fourier",
    "convolve",
    "apply_stencil",
    "GRAD_STENCIL",
    "LAPLACIAN_STENCIL",
    "grad",
    "laplacian",
    "l2_norm",
    "read_kernel_file",
    "write_kernel_file",
]

NORMALIZATION_TOL = 1e-12

# taps of the forward first and second differences, as read by apply_stencil
GRAD_STENCIL = (-1.0, 1.0)
LAPLACIAN_STENCIL = (1.0, -2.0, 1.0)

# has_nonneg_fourier's tolerance, and theorem 2's hypothesis: min of p_u >= -NONNEG_TOL
NONNEG_TOL = 1e-12


class AsymmetricKernel(ValueError):
    """Full kernel values are not symmetric; carries the max asymmetry."""

    def __init__(self, max_asymmetry: float):
        self.max_asymmetry = max_asymmetry
        super().__init__(f"kernel is not symmetric: max |v(n+k) - v(n-k)| = {max_asymmetry:.3e}")


class NotNormalized(ValueError):
    """Kernel weights do not sum to 1; carries the actual sum."""

    def __init__(self, total: float):
        self.total = total
        super().__init__(f"kernel weights sum to {total!r}, expected 1")


class NotNormalizedSymbol(ValueError):
    """Symbol polynomial has p(1) != 1; carries the actual value."""

    def __init__(self, value: float):
        self.value = value
        super().__init__(f"symbol has p(1) = {value!r}, expected 1")


class KernelFileError(ValueError):
    """Kernel file is malformed (bad JSON schema or values)."""


@dataclass(frozen=True)
class DiscreteKernel:
    """Symmetric kernel on {-n, ..., n}, stored as the half u(0..n).

    The dataclass itself is a plain carrier; the factory constructors
    (``from_full``, ``from_half``, ``box_kernel``, ``triangle_kernel``)
    enforce the unit-sum contract.
    """

    half: np.ndarray

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.half, dtype=float)).copy()
        if h.ndim != 1 or h.size == 0:
            raise ValueError("half must be a nonempty 1-d real sequence")
        if not np.all(np.isfinite(h)):
            raise ValueError("kernel weights must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "half", h)

    @property
    def n(self) -> int:
        return self.half.size - 1

    def weight(self, k: int) -> float:
        """u(k), zero outside {-n, ..., n}."""
        k = abs(k)
        return float(self.half[k]) if k <= self.n else 0.0

    def full(self) -> np.ndarray:
        """Weights u(-n), ..., u(n) as a length 2n+1 array."""
        return np.concatenate([self.half[:0:-1], self.half])

    def total(self) -> float:
        """u(0) + 2 sum_k u(k); inf or nan, without a RuntimeWarning, when
        the sum leaves the double range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.half[0] + 2.0 * self.half[1:].sum())

    def __eq__(self, other):
        if not isinstance(other, DiscreteKernel):
            return NotImplemented
        return self.half.shape == other.half.shape and bool(np.all(self.half == other.half))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.half + 0.0).tobytes())


@dataclass(frozen=True)
class Sequence:
    """Finitely supported sequence: values[j] sits at index offset + j.

    Values may be real or complex; kernels stay real.
    """

    offset: int
    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values))
        if not np.issubdtype(v.dtype, np.complexfloating):
            v = v.astype(float)
        else:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "offset", int(self.offset))

    def indices(self) -> np.ndarray:
        return self.offset + np.arange(self.values.size)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return (self.offset == other.offset and self.values.dtype == other.values.dtype
                and self.values.shape == other.values.shape
                and bool(np.all(self.values == other.values)))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.offset, self.values.dtype, (self.values + 0.0).tobytes()))


def from_half(values, tol: float = NORMALIZATION_TOL, renormalize: bool = False) -> DiscreteKernel:
    """Kernel from its half u(0..n), validating the unit sum.  A sum away
    from 1 raises NotNormalized unless ``renormalize`` divides it out; a
    sum of zero or past the double range raises it either way."""
    u = DiscreteKernel(values)
    s = u.total()
    if abs(s - 1.0) > tol:
        if not renormalize or s == 0.0 or not np.isfinite(s):
            raise NotNormalized(s)
        u = DiscreteKernel(u.half / s)
    return u


def from_full(
    values,
    tol: float = NORMALIZATION_TOL,
    symmetrize: bool = False,
    renormalize: bool = False,
) -> DiscreteKernel:
    """Kernel from the full weight list u(-n..n).

    The length must be odd.  Asymmetric input raises AsymmetricKernel
    unless ``symmetrize`` averages v(n+k) / 2 + v(n-k) / 2, which cannot
    overflow; the sum is checked as in ``from_half``.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.size % 2 == 0:
        raise KernelFileError(f"full kernel must have odd length, got {v.size}")
    n = v.size // 2
    with np.errstate(over="ignore"):  # an asymmetry past the double range is inf
        asym = float(np.max(np.abs(v[n:] - v[n::-1])))
    if asym > tol and not symmetrize:
        raise AsymmetricKernel(asym)
    half = 0.5 * v[n:] + 0.5 * v[n::-1]
    return from_half(half, tol=tol, renormalize=renormalize)


# random kernels for the verification batteries of ``verify`` and the tests;
# not kernel API, so not in __all__


def random_symmetric_kernel(rng, n: int) -> DiscreteKernel:
    """Random normalized symmetric kernel (weights may be negative)."""
    while True:
        half = rng.uniform(-0.5, 1.0, n + 1)
        s = half[0] + 2 * half[1:].sum()
        if abs(s) > 0.2:
            return DiscreteKernel(half / s)


def random_nonneg_fourier_kernel(rng, n: int) -> DiscreteKernel:
    """Normalized kernel with uhat >= 0, via autocorrelation of a random vector.

    The half is built as ``from_full(full / full.sum(), tol=1e-9,
    renormalize=True)`` builds it, without that function's checks: the
    correlation is symmetric by construction.  Its two halves are averaged,
    and the weights divided by their sum when it is more than 1e-9 from 1.
    """
    v = rng.uniform(0.1, 1.0, n + 1)
    full = np.correlate(v, v, mode="full")
    full = full / full.sum()
    half = 0.5 * (full[n:] + full[n::-1])
    total = half[0] + 2.0 * half[1:].sum()
    return DiscreteKernel(half if abs(total - 1.0) <= 1e-9 else half / total)


def box_kernel(n: int) -> DiscreteKernel:
    """Constant kernel u(k) = 1/(2n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return DiscreteKernel(np.full(n + 1, 1.0 / (2 * n + 1)))


def triangle_kernel(n: int) -> DiscreteKernel:
    """Triangle kernel u(k) = (n+1-|k|)/(n+1)^2.

    The weights are exact ratios of integers, so the unit sum holds
    exactly in rational arithmetic before the final rounding to float.
    Numerator and denominator are integers below 2^53, exact as doubles,
    and IEEE division rounds their quotient correctly: each weight is the
    float nearest to the exact ratio, float(Fraction(m - k, m^2)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n + 1
    return DiscreteKernel((m - np.arange(m)) / float(m * m))


class KnownOptimum(NamedTuple):
    """A proved optimum: an entry of ``KNOWN_OPTIMA``.

    ``KNOWN_OPTIMA`` is keyed by (model orders (m, m'), positivity).  Its
    entry holds the least sup over the circle of |s| |uhat| among kernels u
    on {-n, ..., n}, with uhat >= 0 under positivity, for the unit stencil
    s = (1 - z)^m (1 + z)^m': at radius n that is ``value(n)``, attained
    only by ``kernel(n)``, and ``reference(n)`` holds the points x = cos xi,
    ascending, where |s| |p| reaches it, p the kernel's symbol.  The stencil
    c (1 - z)^m (1 + z)^m' z^k has the same optimal kernel, at |c| times
    the value.  The entries:

    * box, ((1, 0), no positivity): |s| = 2 sin(xi/2).  By theorem 1 the
      optimum is the Dirichlet kernel, and |s| p = 2 sin((n+1/2) xi)/(2n+1)
      reaches 2/(2n+1) with alternating signs at xi = (j+1/2) pi/(n+1/2),
      j = 0..n.
    * triangle, ((2, 0), positivity): |s| = 4 sin^2(xi/2).  By theorem 2
      the optimum is the Fejer kernel, and |s| p = 4 sin^2((n+1) xi/2)/(n+1)^2
      reaches 4/(n+1)^2 at xi = (2j+1) pi/(n+1), j = 0..n/2.
    * comb, ((1, 1), no positivity): |s| = 2 sin xi.  T(xi) = sin xi p(cos xi)
      is a sine polynomial of degree n+1 with T'(0) = p(1) = 1, so
      Bernstein's inequality gives sup |T| >= 1/(n+1), with equality only
      for T = sin((n+1) xi)/(n+1), that is p = U_n/(n+1).  Its kernel is
      u(k) = 1/(n+1) at k = n (mod 2) and 0 elsewhere, and
      |s| p = 2 sin((n+1) xi)/(n+1) reaches 2/(n+1) with alternating signs
      at xi = (j+1/2) pi/(n+1), j = 0..n.
    """

    name: str
    value: Callable[[int], float]
    kernel: Callable[[int], DiscreteKernel]
    reference: Callable[[int], np.ndarray]


KNOWN_OPTIMA = {
    ((1, 0), False): KnownOptimum(
        "box", lambda n: 2.0 / (2 * n + 1), box_kernel,
        lambda n: np.cos((np.arange(n, -1, -1) + 0.5) * np.pi / (n + 0.5))),
    ((2, 0), True): KnownOptimum(
        "triangle", lambda n: 4.0 / (n + 1) ** 2, triangle_kernel,
        lambda n: np.cos((2 * np.arange(n // 2, -1, -1) + 1) * np.pi / (n + 1))),
    ((1, 1), False): KnownOptimum(
        "comb", lambda n: 2.0 / (n + 1),
        lambda n: DiscreteKernel(np.where(np.arange(n + 1) % 2 == n % 2, 1.0 / (n + 1), 0.0)),
        lambda n: np.cos((np.arange(n, -1, -1) + 0.5) * np.pi / (n + 1))),
}


def symbol(u: DiscreteKernel) -> ChebPoly:
    """p_u with c_0 = u(0) and c_k = 2 u(k), so uhat(xi) = p_u(cos xi)."""
    c = np.concatenate([[u.half[0]], 2.0 * u.half[1:]])
    return ChebPoly(c)


def kernel_from_symbol(p: ChebPoly, tol: float = 1e-9) -> DiscreteKernel:
    """Inverse of ``symbol``: u(0) = c_0, u(k) = c_k / 2.

    The symbol must satisfy p(1) = 1 (the kernel normalization) within tol.
    """
    at_one = float(np.sum(p.coeffs))
    if abs(at_one - 1.0) > tol:
        raise NotNormalizedSymbol(at_one)
    half = np.concatenate([[p.coeffs[0]], 0.5 * p.coeffs[1:]])
    return DiscreteKernel(half)


def fourier_symbol(u: DiscreteKernel, xi):
    """uhat(xi) = sum_k u(k) e^{-i xi k} = p_u(cos xi); real by symmetry."""
    return cheb_eval(symbol(u), np.cos(xi))


def has_nonneg_fourier(u: DiscreteKernel):
    """Whether min of p_u on [-1, 1] is >= -NONNEG_TOL.

    Returns (flag, witness); the witness is a minimizing x when the
    transform goes negative, None otherwise (``_nonneg_verdict``).
    """
    return _nonneg_verdict(*signed_min(symbol(u)))


def _nonneg_verdict(vmin: float, xmin: float):
    """``has_nonneg_fourier``'s (flag, witness) from the minimum vmin of p_u
    and a minimizer xmin."""
    if vmin >= -NONNEG_TOL:
        return True, None
    return False, xmin


def convolve(f: Sequence, u: DiscreteKernel) -> Sequence:
    """(f * u)(j) = sum_k f(j - k) u(k); support widens by n on each side."""
    return Sequence(f.offset - u.n, np.convolve(f.values, u.full()))


def apply_stencil(f: Sequence, taps, offset: int = 0) -> Sequence:
    """(D f)(k) = sum_i taps[i] f(k + offset + i)."""
    t = np.atleast_1d(np.asarray(taps, dtype=float))
    vals = np.convolve(f.values, t[::-1])
    return Sequence(f.offset - offset - (t.size - 1), vals)


def grad(f: Sequence) -> Sequence:
    """Forward difference (grad f)(k) = f(k+1) - f(k)."""
    return apply_stencil(f, GRAD_STENCIL)


def laplacian(f: Sequence) -> Sequence:
    """Second difference (lap f)(k) = f(k+2) - 2 f(k+1) + f(k)."""
    return apply_stencil(f, LAPLACIAN_STENCIL)


def l2_norm(f: Sequence) -> float:
    return float(np.linalg.norm(f.values))


def _format_float(v: float) -> str:
    return f"{float(v):.17g}"


def write_kernel_file(path, u: DiscreteKernel) -> None:
    """Write {"n": ..., "half": [...]} with 17 significant digits."""
    items = ", ".join(_format_float(v) for v in u.half)
    text = f'{{"n": {u.n}, "half": [{items}]}}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _numbers(values) -> bool:
    """Whether values is a list of JSON numbers: int or float, not bool."""
    return isinstance(values, list) and set(map(type, values)) <= {int, float}


def read_kernel_file(path, symmetrize: bool = False, renormalize: bool = False) -> DiscreteKernel:
    """Read a kernel JSON file in "half" or "full" form, with the unit sum
    checked to NORMALIZATION_TOL."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise KernelFileError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise KernelFileError("kernel file must hold a JSON object")
    if "half" in data:
        half = data["half"]
        if not half or not _numbers(half):
            raise KernelFileError('field "half" must be a nonempty list of numbers')
        n = data.get("n", len(half) - 1)
        if not _numbers([n]) or n != len(half) - 1:
            raise KernelFileError(f'field "n" = {n} does not match half of length {len(half)}')
        try:
            return from_half(half, renormalize=renormalize)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, (NotNormalized, AsymmetricKernel)):
                raise
            raise KernelFileError(f'bad "half" values: {exc}') from exc
    if "full" in data:
        full_values = data["full"]
        if not full_values or not _numbers(full_values):
            raise KernelFileError('field "full" must be a nonempty list of numbers')
        try:
            return from_full(full_values, symmetrize=symmetrize, renormalize=renormalize)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, (NotNormalized, AsymmetricKernel, KernelFileError)):
                raise
            raise KernelFileError(f'bad "full" values: {exc}') from exc
    raise KernelFileError('kernel file needs a "half" or "full" field')
