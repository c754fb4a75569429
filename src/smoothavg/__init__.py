"""Smoothness constants of discrete averaging kernels and their extremizers."""

from .chebyshev import (
    ChebPoly,
    cheb_eval,
    cheb_mul,
    mul_one_minus_x,
    sup_abs,
)
from .kernel import (
    DiscreteKernel,
    Sequence,
    box_kernel,
    convolve,
    fourier_symbol,
    from_full,
    from_half,
    grad,
    has_nonneg_fourier,
    kernel_from_symbol,
    l2_norm,
    laplacian,
    read_kernel_file,
    symbol,
    triangle_kernel,
    write_kernel_file,
)
from .smoothness import (
    OperatorSymbol,
    SmoothnessReport,
    first_deriv_constant,
    laplacian_constant,
    operator_constant,
    ratio_witness,
    verify_theorem1,
    verify_theorem2,
)
from .minimax import (
    PROBLEMS,
    MinimaxProblem,
    MinimaxSolution,
    solve,
)
# the continuum layer loads on first use of one of its names (PEP 562)
_CONTINUUM_NAMES = (
    "PerturbationFunction",
    "PerturbationReport",
    "a_coefficient",
    "c_f_analytic",
    "ct_fourier",
    "finite_diff_slope",
    "half_triangle_profile",
    "j_functional",
    "perturbation_report",
    "profile_from_table",
    "prop8_sides",
    "triangle_hat",
    "triangle_profile",
)


def __getattr__(name):
    if name in _CONTINUUM_NAMES:
        from . import continuum

        value = getattr(continuum, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_CONTINUUM_NAMES})


__version__ = "0.1.0"
