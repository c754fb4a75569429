"""Tests for the smoothness constants M(u), L(u), and general operators."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from smoothavg.kernel import (
    DiscreteKernel,
    Sequence,
    box_kernel,
    fourier_symbol,
    has_nonneg_fourier,
    triangle_kernel,
)
from smoothavg.smoothness import (
    GRAD_STENCIL,
    LAPLACIAN_STENCIL,
    DegenerateOperator,
    HypothesisViolated,
    OperatorSymbol,
    first_deriv_constant,
    laplacian_constant,
    operator_constant,
    ratio_witness,
    verify_theorem1,
    verify_theorem2,
)
from helpers import random_nonneg_fourier_kernel, random_symmetric_kernel

GRAD = OperatorSymbol(GRAD_STENCIL)
LAP = OperatorSymbol(LAPLACIAN_STENCIL)


def xi_grid_norm(u, power, n_points=10**6):
    """Oracle: max over a uniform xi grid of |e^{i xi} - 1|^power * |uhat(xi)|."""
    xi = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
    return float(np.max(np.abs(np.exp(1j * xi) - 1) ** power * np.abs(fourier_symbol(u, xi))))


def xi_grid_operator_norm(u, taps, n_points=10**6):
    """Oracle: max over a uniform xi grid of |s(e^{i xi})| * |uhat(xi)|."""
    xi = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
    s = sum(t * np.exp(1j * j * xi) for j, t in enumerate(taps))
    return float(np.max(np.abs(s) * np.abs(fourier_symbol(u, xi))))


class TestFirstDerivConstant:
    def test_box_n1(self):
        rep = first_deriv_constant(box_kernel(1))
        assert rep.constant == pytest.approx(2 / 3, abs=1e-14)
        assert rep.sharp_bound == pytest.approx(2 / 3)
        assert rep.gap == pytest.approx(0.0, abs=1e-13)
        # (1-x)(1+2x)^2/9 peaks at both x = 1/2 and x = -1
        q_at = (1 - rep.arg_x) * ((1 + 2 * rep.arg_x) / 3) ** 2
        assert 2 * q_at == pytest.approx(rep.constant**2, abs=1e-12)
        assert rep.arg_x == pytest.approx(0.5, abs=1e-9)

    def test_identity_kernel(self):
        rep = first_deriv_constant(DiscreteKernel([1.0]))
        assert rep.constant == pytest.approx(2.0, abs=1e-14)

    def test_triangle_n1_oracle(self):
        rep = first_deriv_constant(triangle_kernel(1))
        assert rep.constant == pytest.approx(xi_grid_norm(triangle_kernel(1), 1), abs=1e-9)
        assert rep.constant > 2 / 3
        assert not rep.is_extremal

    def test_box_family_equality(self):
        for n in range(0, 21):
            rep = first_deriv_constant(box_kernel(n))
            assert rep.constant == pytest.approx(2 / (2 * n + 1), abs=1e-10)
            assert rep.is_extremal


class TestLaplacianConstant:
    def test_triangle_n1(self):
        rep = laplacian_constant(triangle_kernel(1))
        assert rep.constant == pytest.approx(1.0, abs=1e-14)
        assert rep.gap == pytest.approx(0.0, abs=1e-13)
        assert rep.arg_x == pytest.approx(0.0, abs=1e-9)
        assert rep.is_extremal

    def test_triangle_n3(self):
        rep = laplacian_constant(triangle_kernel(3))
        assert rep.constant == pytest.approx(0.25, abs=1e-12)

    def test_box2_oracle(self):
        rep = laplacian_constant(box_kernel(2))
        assert rep.constant == pytest.approx(xi_grid_norm(box_kernel(2), 2), abs=1e-9)

    def test_triangle_family_equality(self):
        for n in range(0, 21):
            rep = laplacian_constant(triangle_kernel(n))
            assert rep.constant == pytest.approx(4 / (n + 1) ** 2, abs=1e-10)
            assert rep.is_extremal


class TestOperatorConstant:
    def test_reduces_to_first_deriv(self):
        rng = np.random.default_rng(61)
        for n in range(0, 6):
            u = random_symmetric_kernel(rng, n)
            assert operator_constant(u, GRAD).constant == pytest.approx(
                first_deriv_constant(u).constant, abs=1e-12
            )

    def test_reduces_to_laplacian(self):
        rng = np.random.default_rng(67)
        for n in range(0, 6):
            u = random_symmetric_kernel(rng, n)
            assert operator_constant(u, LAP).constant == pytest.approx(
                laplacian_constant(u).constant, abs=1e-12
            )

    def test_third_difference_oracle(self):
        taps = [-1.0, 3.0, -3.0, 1.0]
        rep = operator_constant(box_kernel(2), OperatorSymbol(taps))
        assert rep.constant == pytest.approx(xi_grid_operator_norm(box_kernel(2), taps), abs=1e-9)

    def test_magnitude_squared_nonneg(self):
        rng = np.random.default_rng(71)
        from smoothavg.chebyshev import signed_min

        for _ in range(10):
            taps = rng.standard_normal(int(rng.integers(2, 6)))
            op = OperatorSymbol(taps)
            # |s|^2 = (2 (1 - x))^m Q, so |s|^2 >= 0 on [-1, 1] exactly when Q is
            vmin, _ = signed_min(op.weight[1])
            assert vmin >= -1e-12

    @pytest.mark.parametrize("taps", [GRAD_STENCIL, LAPLACIAN_STENCIL, (-1.0, 3.0, -3.0, 1.0),
                                      (1.0, 0.0, -1.0), (0.5, -1.0, 0.5), (2.0, 1.0)])
    def test_magnitude_keeps_relative_accuracy_near_one(self, taps):
        # |s| against 50 digits, down to 1 - x = 1e-12 where |s|^2 itself is
        # below the rounding of its Chebyshev sum for the difference stencils
        mp.dps = 50
        xs = [-1.0, -0.3, 0.5, 0.99, 1 - 1e-6, 1 - 1e-12, 1.0]
        got = OperatorSymbol(taps).magnitude(np.array(xs))
        for x, g in zip(xs, got):
            t = mp.acos(mpf(x))
            exact = abs(mp.fsum(mpf(c) * mp.expj(k * t) for k, c in enumerate(taps)))
            assert abs(g - exact) <= 4e-16 * len(taps) * exact + 1e-40, (taps, x)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateOperator):
            OperatorSymbol([0.0, 0.0])

    def test_equality_and_hash_follow_taps_and_offset(self):
        a, b = OperatorSymbol([1.0, -1.0]), OperatorSymbol(np.array([1, -1]))
        assert a == b and hash(a) == hash(b)
        assert a != OperatorSymbol([1.0, -1.0], offset=1)
        assert a != OperatorSymbol([1.0, -1.0, 0.0])
        assert a != OperatorSymbol([-1.0, 1.0])
        assert a != (1.0, -1.0)
        assert len({a, b, OperatorSymbol([1.0, -2.0, 1.0])}) == 2

    @pytest.mark.parametrize("taps,inside", [
        ([-1.0, 1.0], False),
        ([1.0, -2.0, 1.0], False),
        ([-1.0, 3.0, -3.0, 1.0], False),
        ([1.0, 0.0, -1.0], False),  # zeros at x = 1 and x = -1 only
        ([1.0, 1.0], False),  # no zero at x = 1
        ([0.3, -0.7, 0.4], False),  # sums to 5.6e-17, not 0: the zero at x = 1 is inexact
        ([-1.0, 0.0, 0.0, 1.0], True),  # z^3 = 1: x = -1/2
        ([1.0, -1.0, 1.0, -1.0], True),  # z = +-i: x = 0
        ([2.0, 1.0, 2.0], True),  # z^2 + z/2 + 1: x = -1/4, no root of unity
    ])
    def test_vanishes_inside(self, taps, inside):
        assert OperatorSymbol(taps).vanishes_inside is inside

    @pytest.mark.parametrize("taps,orders", [
        ([-1.0, 1.0], (1, 0)),
        ([-2.0, 2.0], (1, 0)),
        ([1.0, -2.0, 1.0], (2, 0)),
        ([3.0, 0.0, -3.0], (1, 1)),
        ([-1.0, 3.0, -3.0, 1.0], (3, 0)),
        ([0.0, 1.0, -1.0], (1, 0)),  # z (1 - z): a shift leaves |s| alone
        ([1.0, 1.0], (0, 1)),
        ([2.0, -3.0, 1.0], None),  # (1 - z)(2 - z)
        ([-1.0, 0.0, 0.0, 1.0], None),
    ])
    def test_model_orders(self, taps, orders):
        assert OperatorSymbol(taps).model_orders == orders

    @pytest.mark.parametrize("taps,scale", [
        ([-1.0, 1.0], 1.0),
        ([-2.0, 2.0], 2.0),
        ([3.0, 0.0, -3.0], 3.0),
        ([0.0, 0.5, -1.0, 0.5], 0.5),
        ([2.0, -3.0, 1.0], None),
    ])
    def test_scale(self, taps, scale):
        assert OperatorSymbol(taps).scale == scale

    def test_bound_on_model_stencils(self):
        # |c| times the sharp bound of the model: the box's 2/(2n+1) on
        # c (1 - z), the comb's 2/(n+1) on c (1 - z^2); none on the others
        for n in range(0, 9):
            box = box_kernel(n)
            comb = DiscreteKernel([1 / (n + 1) if (n - k) % 2 == 0 else 0.0 for k in range(n + 1)])
            cases = [(box, [-3.0, 3.0], 6 / (2 * n + 1), True),
                     (comb, [0.0, -2.0, 0.0, 2.0], 4 / (n + 1), True),
                     (box, [1.0, 0.0, -1.0], 2 / (n + 1), n == 0),
                     (triangle_kernel(n), [1.0, -2.0, 1.0], 0.0, False),
                     (box, [-1.0, 3.0, -3.0, 1.0], 0.0, False)]
            for u, taps, bound, extremal in cases:
                rep = operator_constant(u, OperatorSymbol(taps))
                assert rep.sharp_bound == pytest.approx(bound, rel=1e-15, abs=0), (n, taps)
                assert rep.is_extremal is extremal, (n, taps)


def _mp_dirichlet(n):
    """uhat of the box kernel, (T_n - T_{n+1}) / ((2n+1) (1 - x)) at x = cos t."""
    return lambda t: (mp.cos(n * t) - mp.cos((n + 1) * t)) / ((2 * n + 1) * 2 * mp.sin(t / 2) ** 2)


def _mp_fejer(n):
    """uhat of the triangle kernel, (1 - T_{n+1}) / ((n+1)^2 (1 - x)) at x = cos t."""
    return lambda t: (1 - mp.cos((n + 1) * t)) / ((n + 1) ** 2 * 2 * mp.sin(t / 2) ** 2)


def _mp_sup(taps, uhat, n):
    """50-digit sup over t in (0, pi] of |sum_k taps[k] e^{ikt}| * |uhat(t)|.

    The stencils here all vanish at t = 0.  A grid of 16 points per lobe of
    uhat locates the lobes; golden-section search refines the four best
    grid maxima."""
    mp.dps = 50

    def f(t):
        s = mp.fsum(mpf(c) * mp.expj(k * t) for k, c in enumerate(taps))
        return abs(s) * abs(uhat(t)) if t else mpf(0)

    size = 16 * (n + 2)
    grid = [mp.pi * k / size for k in range(size + 1)]
    vals = [f(t) for t in grid]
    peaks = [k for k in range(size + 1)
             if (k == 0 or vals[k] >= vals[k - 1]) and (k == size or vals[k] >= vals[k + 1])]
    best = max(vals)
    golden = (mp.sqrt(5) - 1) / 2
    for k in sorted(peaks, key=lambda k: vals[k])[-4:]:
        a, b = grid[max(k - 1, 0)], grid[min(k + 1, size)]
        for _ in range(80):
            c, d = b - golden * (b - a), a + golden * (b - a)
            if f(c) >= f(d):
                b = d
            else:
                a = c
        best = max(best, f((a + b) / 2))
    return best


MP_KERNELS = {"box": (box_kernel, _mp_dirichlet), "triangle": (triangle_kernel, _mp_fejer)}
MP_CASES = (
    [("triangle", n, "laplacian") for n in (30, 59, 64)]
    + [("triangle", n, "-1,3,-3,1") for n in (54, 60, 64)]
    + [("box", n, "first-deriv") for n in (30, 64)]
    + [(kind, n, taps) for taps in ("1,0,-1", "0.5,-1,0.5") for kind in MP_KERNELS
       for n in (5, 64)]
)


class TestMpmathOracle:
    """The constants of the box and triangle kernels against a 50-digit sup
    of the closed forms of their transforms, where the maximizer may sit at
    the zero of the stencil (x = 1) or at x = -1."""

    @pytest.mark.parametrize("kind,n,stencil", MP_CASES,
                             ids=[f"{k}-{n}-{s}" for k, n, s in MP_CASES])
    def test_constant(self, kind, n, stencil):
        build, uhat = MP_KERNELS[kind]
        u = build(n)
        if stencil == "first-deriv":
            taps, got = GRAD_STENCIL, first_deriv_constant(u).constant
        elif stencil == "laplacian":
            taps, got = LAPLACIAN_STENCIL, laplacian_constant(u).constant
        else:
            taps = [float(t) for t in stencil.split(",")]
            got = operator_constant(u, OperatorSymbol(taps)).constant
        oracle = _mp_sup(taps, uhat(n), n)
        assert float(abs(got - oracle) / oracle) <= 1e-13


class TestRatioWitness:
    def test_box_grad(self):
        _, ratio = ratio_witness(box_kernel(1), GRAD, 10**4)
        const = first_deriv_constant(box_kernel(1)).constant
        assert ratio <= const + 1e-10
        assert ratio == pytest.approx(const, rel=0.02)

    def test_triangle_laplacian(self):
        _, ratio = ratio_witness(triangle_kernel(2), LAP, 10**4)
        const = laplacian_constant(triangle_kernel(2)).constant
        assert ratio <= const + 1e-10
        assert ratio == pytest.approx(const, rel=0.02)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(73)
        u = random_symmetric_kernel(rng, 2)
        ratios = [ratio_witness(u, GRAD, N)[1] for N in (100, 1000, 10000)]
        assert ratios[0] <= ratios[1] + 1e-6
        assert ratios[1] <= ratios[2] + 1e-6

    def test_never_exceeds_constant(self):
        rng = np.random.default_rng(79)
        for n in (1, 3):
            u = random_symmetric_kernel(rng, n)
            for op in (GRAD, LAP, OperatorSymbol([-1.0, 3.0, -3.0, 1.0])):
                const = operator_constant(u, op).constant
                for N in (100, 2000):
                    _, ratio = ratio_witness(u, op, N)
                    assert ratio <= const + 1e-10

    def test_returns_cosine_window(self):
        f, _ = ratio_witness(box_kernel(1), GRAD, 50)
        assert isinstance(f, Sequence)
        assert f.offset == -50
        assert f.values.size == 101


class TestVerifyTheorem1:
    def test_box_extremal(self):
        rep = verify_theorem1(box_kernel(7))
        assert rep.gap == pytest.approx(0.0, abs=1e-11)
        assert rep.is_extremal

    def test_non_box_strict(self):
        rep = verify_theorem1(DiscreteKernel([0.4, 0.3]))
        assert rep.constant > 2 / 3 + 1e-8
        assert not rep.is_extremal

    def test_n0(self):
        rep = verify_theorem1(box_kernel(0))
        assert rep.constant == pytest.approx(2.0, abs=1e-13)
        assert rep.is_extremal

    def test_random_kernels_respect_bound(self):
        rng = np.random.default_rng(83)
        for n in range(1, 9):
            for _ in range(20):
                u = random_symmetric_kernel(rng, n)
                rep = verify_theorem1(u)
                assert rep.constant >= rep.sharp_bound - 1e-11
                if np.max(np.abs(u.half - box_kernel(n).half)) > 1e-4:
                    assert rep.gap > 1e-8


class TestVerifyTheorem2:
    def test_triangle_extremal(self):
        rep = verify_theorem2(triangle_kernel(9))
        assert rep.gap == pytest.approx(0.0, abs=1e-11)
        assert rep.is_extremal

    def test_box_hypothesis_violated(self):
        with pytest.raises(HypothesisViolated) as exc:
            verify_theorem2(box_kernel(3))
        assert 0.0 < exc.value.witness_xi < math.pi

    def test_autocorrelation_kernels(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            u = random_nonneg_fourier_kernel(rng, 2)
            rep = verify_theorem2(u)
            assert rep.constant >= 4 / 9 - 1e-11

    def test_witness_is_has_nonneg_fourier_bitwise(self):
        # the hypothesis check takes the stacked minimum of the untrimmed
        # symbol rows; its witness is bitwise the minimizer of the trimmed
        # symbol that has_nonneg_fourier takes, zero tails included
        rng = np.random.default_rng(4093)
        rejected = 0
        for n in range(1, 65):
            for zeros in (0, 0, 1, n // 2, n - 1):
                half = rng.uniform(-0.2, 1.0, n + 1)
                half[n + 1 - zeros:] = 0.0
                u = DiscreteKernel(half / (half[0] + 2 * half[1:].sum()))
                ok, witness = has_nonneg_fourier(u)
                if ok:
                    verify_theorem2(u)
                    continue
                rejected += 1
                with pytest.raises(HypothesisViolated) as exc:
                    verify_theorem2(u)
                assert exc.value.witness_x.hex() == witness.hex()
        assert rejected >= 250


class TestScaling:
    def test_constants_scale_linearly(self):
        rng = np.random.default_rng(97)
        for lam in (0.1, 3.0, 100.0):
            u = random_symmetric_kernel(rng, 3)
            scaled = DiscreteKernel(lam * u.half)
            assert first_deriv_constant(scaled).constant == pytest.approx(
                lam * first_deriv_constant(u).constant, rel=1e-13
            )
            assert laplacian_constant(scaled).constant == pytest.approx(
                lam * laplacian_constant(u).constant, rel=1e-13
            )


class TestReportSerialization:
    def test_to_dict(self):
        rep = first_deriv_constant(box_kernel(2))
        d = rep.to_dict()
        assert set(d) == {"constant", "arg_x", "sharp_bound", "gap", "is_extremal"}
        assert d["is_extremal"] is True
