"""Smoothness constants of discrete averaging kernels and their extremizers."""

from .chebyshev import (
    ChebPoly,
    cheb_eval,
    cheb_mul,
    make_g,
    make_h,
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
from .continuum import (
    PerturbationFunction,
    PerturbationReport,
    a_coefficient,
    c_f_analytic,
    ct_fourier,
    finite_diff_slope,
    half_triangle_profile,
    j_functional,
    perturbation_report,
    profile_from_table,
    prop8_sides,
    triangle_hat,
    triangle_profile,
)

__version__ = "0.1.0"
