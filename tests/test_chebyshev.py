"""Tests for Chebyshev-basis arithmetic and the g_n / h_n families."""

import math

import numpy as np
import pytest

from smoothavg.chebyshev import (
    ChebPoly,
    cheb_eval,
    cheb_mul,
    make_g,
    make_h,
    mul_one_minus_x,
    signed_max,
    signed_min,
    sup_abs,
)


def eval_by_cosines(coeffs, x):
    """Independent evaluation oracle: sum c_k cos(k arccos x)."""
    theta = math.acos(x)
    return sum(c * math.cos(k * theta) for k, c in enumerate(coeffs))


class TestChebPoly:
    def test_trailing_zero_trimming(self):
        p = ChebPoly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p.coeffs.tolist() == [1.0, 2.0]

    def test_no_epsilon_trimming(self):
        p = ChebPoly([1.0, 1e-300])
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = ChebPoly([0.0, 0.0])
        assert p.degree == 0
        assert p(0.3) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ChebPoly([1.0, float("nan")])

    def test_immutable(self):
        p = ChebPoly([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0


class TestChebT:
    # T_k is cheb_eval of the unit coefficient vector e_k
    @staticmethod
    def t(k, x):
        return cheb_eval(ChebPoly(np.eye(k + 1)[k]), x)

    def test_at_one(self):
        assert self.t(3, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_cos_pi_third(self):
        # x = cos(pi/3), so T_3(x) = cos(pi) = -1
        assert self.t(3, 0.5) == pytest.approx(-1.0, abs=1e-15)

    def test_against_cosine_oracle(self):
        assert self.t(7, 0.3) == pytest.approx(math.cos(7 * math.acos(0.3)), abs=1e-14)

    def test_bounded_on_interval(self):
        xs = np.linspace(-1, 1, 201)
        for k in (1, 4, 9):
            assert np.all(np.abs(self.t(k, xs)) <= 1 + 1e-14)


class TestChebEval:
    def test_h1_at_one(self):
        assert cheb_eval(make_h(1), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_constant(self):
        assert cheb_eval(ChebPoly([1.0]), -0.7) == 1.0

    def test_g2_closed_form(self):
        # g_2(x) = ((2x+1)/3)^2 after factoring (1-x)(2x+1)^2 out of 1 - T_3
        assert cheb_eval(make_g(2), 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_matches_termwise_sum(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(9)
        p = ChebPoly(c)
        for x in np.linspace(-1, 1, 17):
            expect = eval_by_cosines(p.coeffs, x)
            assert cheb_eval(p, x) == pytest.approx(expect, rel=1e-13, abs=1e-13)


class TestChebMul:
    def test_t1_squared(self):
        prod = cheb_mul(ChebPoly([0.0, 1.0]), ChebPoly([0.0, 1.0]))
        assert prod.coeffs.tolist() == [0.5, 0.0, 0.5]

    def test_h1_squared_is_g2(self):
        prod = cheb_mul(make_h(1), make_h(1))
        np.testing.assert_allclose(prod.coeffs, make_g(2).coeffs, atol=1e-16)

    def test_grid_oracle(self):
        rng = np.random.default_rng(11)
        p = ChebPoly(rng.standard_normal(5))
        q = ChebPoly(rng.standard_normal(4))
        prod = cheb_mul(p, q)
        assert prod.degree == p.degree + q.degree
        xs = np.linspace(-1, 1, 50)
        np.testing.assert_allclose(
            np.asarray(cheb_eval(prod, xs)),
            np.asarray(cheb_eval(p, xs)) * np.asarray(cheb_eval(q, xs)),
            atol=1e-12,
        )


class TestMulOneMinusX:
    def test_g2_factorization(self):
        # (1-x) g_2 = (1 - T_3)/9
        out = mul_one_minus_x(make_g(2))
        np.testing.assert_allclose(out.coeffs, [1 / 9, 0.0, 0.0, -1 / 9], atol=1e-16)

    def test_constant(self):
        out = mul_one_minus_x(ChebPoly([1.0]))
        assert out.coeffs.tolist() == [1.0, -1.0]

    def test_grid_oracle(self):
        rng = np.random.default_rng(3)
        p = ChebPoly(rng.standard_normal(7))
        out = mul_one_minus_x(p)
        xs = np.linspace(-1, 1, 50)
        np.testing.assert_allclose(
            np.asarray(cheb_eval(out, xs)),
            (1 - xs) * np.asarray(cheb_eval(p, xs)),
            atol=1e-13,
        )

    def test_g_family_factorization(self):
        for n in range(0, 26):
            out = mul_one_minus_x(make_g(n))
            expect = np.zeros(n + 2)
            expect[0] = 1.0 / (n + 1) ** 2
            expect[n + 1] = -1.0 / (n + 1) ** 2
            np.testing.assert_allclose(out.coeffs, expect, atol=1e-14)


class TestSupAbs:
    def test_weighted_g3(self):
        val, x = sup_abs(mul_one_minus_x(make_g(3)))
        assert val == pytest.approx(2 / 16, abs=1e-14)
        q = mul_one_minus_x(make_g(3))
        assert cheb_eval(q, x) == pytest.approx(val, abs=1e-13)

    def test_chebyshev_attains_one(self):
        c = np.zeros(6)
        c[5] = 1.0
        val, _ = sup_abs(ChebPoly(c))
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_dense_grid_oracle_random(self):
        # the refined sup can only sit above a uniform-grid max; the grid
        # itself underestimates a peak by up to curvature * (spacing/2)^2,
        # so the agreement window carries the oracle's own resolution term
        from numpy.polynomial.chebyshev import chebder, chebval

        rng = np.random.default_rng(19)
        xs = np.linspace(-1, 1, 10**6 + 1)
        spacing = xs[1] - xs[0]
        for _ in range(100):
            p = ChebPoly(rng.standard_normal(int(rng.integers(2, 22))))
            val, argx = sup_abs(p)
            grid_val = np.max(np.abs(cheb_eval(p, xs)))
            assert val >= grid_val - 1e-12
            curvature = abs(chebval(argx, chebder(chebder(p.coeffs))))
            resolution = 0.5 * curvature * (spacing / 2) ** 2
            assert val <= grid_val + resolution + 1e-10 * max(1.0, grid_val)
            assert abs(cheb_eval(p, argx)) == pytest.approx(val, rel=1e-12, abs=1e-12)

    def test_signed_extrema(self):
        p = ChebPoly([0.0, 1.0])  # p(x) = x
        vmax, xmax = signed_max(p)
        vmin, xmin = signed_min(p)
        assert (vmax, xmax) == (1.0, 1.0)
        assert (vmin, xmin) == (-1.0, -1.0)


class TestMakeG:
    def test_n0(self):
        assert make_g(0).coeffs.tolist() == [1.0]

    def test_n1_long_division(self):
        # (1 - T_2)/(4 (1-x)) = (1 - (2x^2 - 1))/(4(1-x)) = (1+x)/2
        np.testing.assert_allclose(make_g(1).coeffs, [0.5, 0.5], atol=1e-16)

    def test_value_at_one(self):
        for n in range(0, 31):
            assert cheb_eval(make_g(n), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_form(self):
        # g_n(x) = (1 - T_{n+1}(x)) / ((n+1)^2 (1 - x)) away from x = 1
        xs = np.linspace(-1, 0.999, 200)
        for n in range(0, 31):
            lhs = np.asarray(cheb_eval(make_g(n), xs))
            rhs = (1 - np.cos((n + 1) * np.arccos(xs))) / ((n + 1) ** 2 * (1 - xs))
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_nonnegative(self):
        for n in (1, 4, 9, 20):
            vmin, _ = signed_min(make_g(n))
            assert vmin >= -1e-13


class TestMakeH:
    def test_n0(self):
        assert make_h(0).coeffs.tolist() == [1.0]

    def test_n1(self):
        np.testing.assert_allclose(make_h(1).coeffs, [1 / 3, 2 / 3], atol=1e-16)

    def test_square_identity(self):
        # h_n^2 = g_{2n}
        for n in range(0, 26):
            sq = cheb_mul(make_h(n), make_h(n))
            np.testing.assert_allclose(sq.coeffs, make_g(2 * n).coeffs, atol=1e-13)

    def test_dirichlet_ratio(self):
        # h_n(cos xi) (2n+1) sin(xi/2) = sin((n + 1/2) xi)
        xi = np.linspace(1e-3, math.pi - 1e-3, 300)
        for n in (1, 3, 8, 15):
            lhs = np.asarray(cheb_eval(make_h(n), np.cos(xi))) * (2 * n + 1) * np.sin(xi / 2)
            np.testing.assert_allclose(lhs, np.sin((n + 0.5) * xi), atol=1e-11)


class TestEquioscillation:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 25])
    def test_weighted_g_alternates(self, n):
        q = mul_one_minus_x(make_g(n))
        level = 2.0 / (n + 1) ** 2
        zeros = [math.cos(2 * math.pi * j / (n + 1)) for j in range(0, (n + 1) // 2 + 1)]
        peaks = [math.cos((2 * j + 1) * math.pi / (n + 1)) for j in range(0, (n + 2) // 2)]
        assert len(zeros) + len(peaks) == n + 2
        for x in zeros:
            assert cheb_eval(q, x) == pytest.approx(0.0, abs=1e-12)
        for x in peaks:
            assert cheb_eval(q, x) == pytest.approx(level, abs=1e-12)


class TestMonicMinimaxCheck:
    # a monic polynomial of degree n has sup |p| >= 2^(1-n) on [-1, 1]
    def test_scaled_chebyshev_equality(self):
        c = np.zeros(6)
        c[5] = 2.0 ** (1 - 5)
        sup, _ = sup_abs(ChebPoly(c))
        assert sup == pytest.approx(2.0 ** -4, abs=1e-14)
        assert sup >= 2.0 ** -4 - 1e-12

    def test_x_cubed(self):
        sup, _ = sup_abs(ChebPoly([0.0, 0.75, 0.0, 0.25]))
        assert sup == pytest.approx(1.0, abs=1e-13)
        assert sup >= 2.0 ** -2 - 1e-12

    def test_random_monic_degree6(self):
        rng = np.random.default_rng(23)
        mono = np.concatenate([rng.standard_normal(6), [1.0]])
        sup, _ = sup_abs(ChebPoly(np.polynomial.chebyshev.poly2cheb(mono)))
        assert sup >= 2.0 ** -5 - 1e-12


class TestBasisConversion:
    def test_round_trip(self):
        # numpy's poly2cheb, as verify thm3 converts, gives the same polynomial
        rng = np.random.default_rng(29)
        mono = rng.standard_normal(12)
        mono[-1] = 1.0
        p = ChebPoly(np.polynomial.chebyshev.poly2cheb(mono))
        xs = np.linspace(-1, 1, 50)
        np.testing.assert_allclose(
            cheb_eval(p, xs), np.polynomial.polynomial.polyval(xs, mono), atol=1e-12
        )
