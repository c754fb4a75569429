"""Tests for discrete kernels, sequences, and their Fourier symbols."""

import math

import numpy as np
import pytest

from smoothavg.chebyshev import ChebPoly, cheb_eval
from smoothavg.kernel import (
    AsymmetricKernel,
    DiscreteKernel,
    KernelFileError,
    NotNormalized,
    NotNormalizedSymbol,
    Sequence,
    box_kernel,
    convolve,
    fourier_symbol,
    from_full,
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


from helpers import random_nonneg_fourier_kernel, random_symmetric_kernel


class TestFromFull:
    def test_box_n1(self):
        u = from_full([1 / 3, 1 / 3, 1 / 3])
        assert u == box_kernel(1)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricKernel) as exc:
            from_full([0.2, 0.5, 0.3])
        assert exc.value.max_asymmetry == pytest.approx(0.1)

    def test_triangle_n1(self):
        u = from_full([0.25, 0.5, 0.25])
        assert u == triangle_kernel(1)

    def test_symmetrize_flag(self):
        u = from_full([0.2, 0.5, 0.3], symmetrize=True)
        np.testing.assert_allclose(u.half, [0.5, 0.25])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized) as exc:
            from_full([0.5, 0.5, 0.5])
        assert exc.value.total == pytest.approx(1.5)

    def test_renormalize_flag(self):
        u = from_full([0.5, 0.5, 0.5], renormalize=True)
        np.testing.assert_allclose(u.half, [1 / 3, 1 / 3])

    def test_even_length_rejected(self):
        with pytest.raises(KernelFileError):
            from_full([0.5, 0.5])


def dirichlet_coeffs(n):
    """h_n from its closed form: c_0 = 1/(2n+1), c_k = 2/(2n+1)."""
    return np.array([1 / (2 * n + 1)] + [2 / (2 * n + 1)] * n)


def fejer_coeffs(n):
    """g_n from its closed form: c_0 = 1/(n+1), c_k = 2(n+1-k)/(n+1)^2."""
    m = n + 1
    return np.array([1 / m] + [2 * (m - k) / m**2 for k in range(1, m)])


class TestNamedKernels:
    def test_box_n0(self):
        assert box_kernel(0).half.tolist() == [1.0]

    def test_box_weights(self):
        np.testing.assert_allclose(box_kernel(3).half, np.full(4, 1 / 7))

    def test_box_symbol_is_h(self):
        for n in range(0, 12):
            np.testing.assert_allclose(symbol(box_kernel(n)).coeffs, dirichlet_coeffs(n),
                                       atol=1e-16)

    def test_triangle_n0(self):
        assert triangle_kernel(0).half.tolist() == [1.0]

    def test_triangle_weights(self):
        np.testing.assert_allclose(triangle_kernel(1).half, [0.5, 0.25])
        np.testing.assert_allclose(triangle_kernel(2).half, [3 / 9, 2 / 9, 1 / 9])

    def test_triangle_exact_rational_normalization(self):
        from fractions import Fraction

        for n in (0, 1, 5, 11):
            m = n + 1
            weights = [Fraction(m - abs(k), m * m) for k in range(-n, n + 1)]
            assert sum(weights) == 1

    def test_triangle_weights_are_the_rounded_ratios(self):
        # each weight is the float nearest to (m - k) / m^2; Python's int
        # true division rounds the exact ratio correctly, as
        # float(Fraction(m - k, m^2)) does, checked directly where cheap
        from fractions import Fraction

        for n in range(0, 4097):
            m = n + 1
            half = triangle_kernel(n).half.tolist()
            assert half == [(m - k) / (m * m) for k in range(m)], n
            if n <= 64 or n % 512 == 0:
                assert half == [float(Fraction(m - k, m * m)) for k in range(m)], n

    def test_triangle_symbol_is_g(self):
        for n in range(0, 12):
            np.testing.assert_allclose(symbol(triangle_kernel(n)).coeffs, fejer_coeffs(n),
                                       atol=1e-16)


class TestSymbolMaps:
    def test_identity_kernel(self):
        u = DiscreteKernel([1.0])
        assert symbol(u).coeffs.tolist() == [1.0]

    def test_symbol_at_one_is_unit(self):
        rng = np.random.default_rng(5)
        for n in range(1, 8):
            u = random_symmetric_kernel(rng, n)
            assert cheb_eval(symbol(u), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for n in range(0, 7):
            u = random_symmetric_kernel(rng, n)
            v = kernel_from_symbol(symbol(u))
            np.testing.assert_allclose(v.half, u.half, rtol=0, atol=1e-15)

    def test_round_trip_exact_for_dyadic(self):
        u = from_full([0.25, 0.5, 0.25])
        v = kernel_from_symbol(symbol(u))
        assert np.all(v.half == u.half)

    def test_from_symbol_named(self):
        assert kernel_from_symbol(ChebPoly(dirichlet_coeffs(2))) == box_kernel(2)
        assert kernel_from_symbol(ChebPoly(fejer_coeffs(5))) == triangle_kernel(5)

    def test_rejects_unnormalized_symbol(self):
        with pytest.raises(NotNormalizedSymbol):
            kernel_from_symbol(ChebPoly([0.5, 0.1]))


class TestFourierSymbol:
    def test_at_zero(self):
        rng = np.random.default_rng(31)
        for n in range(0, 6):
            u = random_symmetric_kernel(rng, n)
            assert fourier_symbol(u, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_closed_form(self):
        xi = np.linspace(0.05, 2 * math.pi - 0.05, 101)
        for n in (1, 3, 6):
            got = fourier_symbol(triangle_kernel(n), xi)
            expect = (1 - np.cos((n + 1) * xi)) / ((n + 1) ** 2 * (1 - np.cos(xi)))
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_box_closed_form(self):
        xi = np.linspace(0.05, 2 * math.pi - 0.05, 101)
        xi = xi[np.abs(np.sin(xi / 2)) > 1e-3]
        for n in (1, 2, 5):
            got = fourier_symbol(box_kernel(n), xi)
            expect = np.sin((n + 0.5) * xi) / ((2 * n + 1) * np.sin(xi / 2))
            np.testing.assert_allclose(got, expect, atol=1e-12)


class TestHasNonnegFourier:
    def test_triangles_pass(self):
        for n in range(0, 31):
            ok, witness = has_nonneg_fourier(triangle_kernel(n))
            assert ok and witness is None

    def test_boxes_fail(self):
        for n in range(1, 31):
            ok, witness = has_nonneg_fourier(box_kernel(n))
            assert not ok
            assert cheb_eval(symbol(box_kernel(n)), witness) < 0

    def test_box2_witness(self):
        ok, witness = has_nonneg_fourier(box_kernel(2))
        assert not ok
        # h_2 = (4x^2 + 2x - 1)/5 dips to its minimum at x = -1/4
        assert witness == pytest.approx(-0.25, abs=1e-9)

    def test_identity_kernel(self):
        ok, witness = has_nonneg_fourier(DiscreteKernel([1.0]))
        assert ok and witness is None


class TestConvolve:
    def test_delta_gives_full_kernel(self):
        u = triangle_kernel(2)
        out = convolve(Sequence(0, [1.0]), u)
        assert out.offset == -2
        np.testing.assert_allclose(out.values, u.full())

    def test_constant_interior(self):
        out = convolve(Sequence(0, np.ones(20)), box_kernel(2))
        np.testing.assert_allclose(out.values[4:-4], 1.0, atol=1e-15)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(41)
        f = Sequence(-5, rng.standard_normal(64))
        u = triangle_kernel(3)
        out = convolve(f, u)
        # direct (f*u)(j) = sum_k f(j-k) u(k)
        for j in out.indices():
            expect = sum(
                f.values[j - k - f.offset] * u.weight(k)
                for k in range(-u.n, u.n + 1)
                if 0 <= j - k - f.offset < f.values.size
            )
            got = out.values[j - out.offset]
            assert got == pytest.approx(expect, abs=1e-13)

    def test_complex_values(self):
        f = Sequence(0, np.array([1 + 1j, 2 - 1j, 0.5j]))
        out = convolve(f, box_kernel(1))
        assert np.iscomplexobj(out.values)
        assert out.values.sum() == pytest.approx(f.values.sum(), abs=1e-14)


class TestKernelEquality:
    def test_signed_zeros_hash_alike(self):
        # -0.0 == 0.0, so the kernels are equal and a set holds one
        a, b = DiscreteKernel([1.0, -0.0]), DiscreteKernel([1.0, 0.0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestSequenceEquality:
    def test_equal_sequences_hash_alike(self):
        a, b = Sequence(0, [1.0, 2.0]), Sequence(0, np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        # -0.0 == 0.0, so the two sequences are equal and hash alike
        assert Sequence(2, [-0.0, 1j]) == Sequence(2, [0.0, 1j])
        assert hash(Sequence(2, [-0.0, 1j])) == hash(Sequence(2, [0.0, 1j]))

    @pytest.mark.parametrize("other", [
        Sequence(1, [1.0, 2.0]),
        Sequence(0, [1.0, 2.0, 0.0]),
        Sequence(0, [1.0, 3.0]),
        Sequence(0, np.array([1.0, 2.0], dtype=complex)),
    ], ids=["offset", "length", "values", "dtype"])
    def test_unequal_sequences(self, other):
        assert Sequence(0, [1.0, 2.0]) != other
        assert Sequence(0, [1.0, 2.0]) != (0, [1.0, 2.0])


class TestDifferenceOperators:
    def test_grad_constant(self):
        out = grad(Sequence(3, np.full(10, 2.5)))
        assert out.offset == 2
        np.testing.assert_allclose(out.values[1:-1], 0.0, atol=1e-15)

    def test_laplacian_of_linear(self):
        f = Sequence(0, np.arange(12, dtype=float))
        out = laplacian(f)
        np.testing.assert_allclose(out.values[2:-2], 0.0, atol=1e-14)

    def test_grad_twice_is_laplacian(self):
        rng = np.random.default_rng(43)
        f = Sequence(-4, rng.standard_normal(30))
        a = laplacian(f)
        b = grad(grad(f))
        assert a.offset == b.offset
        assert l2_norm(a) == pytest.approx(l2_norm(b), abs=1e-14)

    def test_grad_values(self):
        f = Sequence(0, np.array([1.0, 4.0, 9.0]))
        out = grad(f)
        assert out.offset == -1
        np.testing.assert_allclose(out.values, [1.0, 3.0, 5.0, -9.0])


class TestParseval:
    def test_grad_convolution_energy(self):
        # || grad(f*u) ||^2 = (1/2pi) int |e^{i xi}-1|^2 |fhat|^2 |uhat|^2
        rng = np.random.default_rng(47)
        xi = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        dxi = 2 * math.pi / 4096
        for trial in range(50):
            n = int(rng.integers(0, 6))
            u = random_symmetric_kernel(rng, n)
            f = Sequence(0, rng.standard_normal(int(rng.integers(4, 24))))
            lhs = l2_norm(grad(convolve(f, u))) ** 2
            fhat = f.values @ np.exp(-1j * np.outer(np.arange(f.values.size), xi))
            uhat = fourier_symbol(u, xi)
            integrand = np.abs(np.exp(1j * xi) - 1) ** 2 * np.abs(fhat) ** 2 * uhat**2
            rhs = integrand.sum() * dxi / (2 * math.pi)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestKernelFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "tri.json"
        u = triangle_kernel(4)
        write_kernel_file(path, u)
        v = read_kernel_file(path)
        assert np.all(v.half == u.half)

    def test_seventeen_digit_output(self, tmp_path):
        path = tmp_path / "box.json"
        write_kernel_file(path, box_kernel(3))
        text = path.read_text()
        assert "0.14285714285714285" in text

    def test_full_form(self, tmp_path):
        path = tmp_path / "full.json"
        path.write_text('{"full": [0.25, 0.5, 0.25]}')
        assert read_kernel_file(path) == triangle_kernel(1)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"half": [0.5')
        with pytest.raises(KernelFileError):
            read_kernel_file(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(KernelFileError):
            read_kernel_file(path)

    def test_n_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text('{"n": 3, "half": [1.0]}')
        with pytest.raises(KernelFileError):
            read_kernel_file(path)

    @pytest.mark.parametrize("text", ['{"half": ["1"]}', '{"half": [1], "n": false}',
                                      '{"full": [true]}'])
    def test_numbers_only(self, tmp_path, text):
        path = tmp_path / "k.json"
        path.write_text(text)
        with pytest.raises(KernelFileError):
            read_kernel_file(path)

    def test_asymmetric_full_raises(self, tmp_path):
        path = tmp_path / "asym.json"
        path.write_text('{"full": [0.2, 0.5, 0.3]}')
        with pytest.raises(AsymmetricKernel):
            read_kernel_file(path)


def test_random_nonneg_fourier_kernel_is_the_from_full_kernel():
    # the half is built directly, as from_full builds it from the normalized
    # correlation: every kernel and the generator state stay bitwise the same
    for seed in range(4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in [*range(0, 65), *range(0, 65, 7)]:
            u = random_nonneg_fourier_kernel(rng, n)
            v = ref_rng.uniform(0.1, 1.0, n + 1)
            full = np.correlate(v, v, mode="full")
            ref = from_full(full / full.sum(), tol=1e-9, renormalize=True)
            assert u.half.tobytes() == ref.half.tobytes(), (seed, n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
