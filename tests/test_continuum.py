"""Tests for the continuous perturbation analysis around the triangle."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from smoothavg import continuum
from smoothavg.continuum import (
    PerturbationFunction,
    TailEstimateWarning,
    ZeroMass,
    a_coefficient,
    autoconvolution_profile,
    c_f_analytic,
    combine,
    ct_fourier,
    finite_diff_slope,
    gamma_half_integer,
    half_triangle_profile,
    j_functional,
    perturbation_report,
    profile_from_table,
    prop8_sides,
    triangle_hat,
    triangle_profile,
)

PI = math.pi
J0_EXACT = 1.0 / (36.0 * PI**4)
CF_HALF_EXACT = 1.0 / (144.0 * PI**4)  # slope of the half-width triangle


def gl_oracle(fun, a, b, n=512):
    """Plain fixed-order Gauss-Legendre for test oracles."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    return rad * float(np.dot(w, fun(mid + rad * x)))


class TestCtFourier:
    def test_mass(self):
        assert ct_fourier(triangle_profile(), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_triangle_closed_form(self):
        tri = triangle_profile()
        for xi in np.linspace(0.1, 50.0, 37):
            assert ct_fourier(tri, xi) == pytest.approx(triangle_hat(xi), abs=1e-12)

    def test_quadrature_path_closed_form(self):
        # same function without the piecewise-linear table: exercises the
        # node-doubling Gauss-Legendre path
        tri = PerturbationFunction(lambda x: 1.0 - x)
        for xi in np.linspace(0.1, 50.0, 23):
            assert ct_fourier(tri, xi) == pytest.approx(triangle_hat(xi), abs=1e-11)

    def test_half_integer_product(self):
        tri = triangle_profile()
        for n in (0, 3, 40):
            xi = n + 0.5
            assert ct_fourier(tri, xi) * xi * xi == pytest.approx(1.0 / PI**2, abs=1e-13)

    def test_half_triangle_closed_form(self):
        # (1 - 2|x|)_+ transforms to sin(pi xi / 2)^2 / (pi xi / 2)^2 / 2
        half = half_triangle_profile()
        for xi in (0.3, 1.7, 9.25):
            t = PI * xi / 2.0
            expect = 0.5 * math.sin(t) ** 2 / t**2
            assert ct_fourier(half, xi) == pytest.approx(expect, abs=1e-13)


class TestTriangleHat:
    def test_at_zero(self):
        assert triangle_hat(0.0) == 1.0

    def test_at_half(self):
        assert triangle_hat(0.5) == pytest.approx(4.0 / PI**2, abs=1e-15)

    def test_integer_zeros(self):
        for k in (1, 2, 7, 40):
            assert triangle_hat(k) == pytest.approx(0.0, abs=1e-28)

    def test_series_patch_accuracy(self):
        # both branches around the removable singularity match a
        # higher-order Taylor reference
        for xi in (0.99e-4, 1.01e-4):
            t = PI * xi
            ref = 1.0 - t * t / 3.0 + 2.0 * t**4 / 45.0 - t**6 / 315.0
            assert triangle_hat(xi) == pytest.approx(ref, abs=1e-15)

    def test_half_integer_flatness(self):
        ns = np.arange(0, 101)
        vals = triangle_hat(ns + 0.5) * (ns + 0.5) ** 2
        assert np.max(np.abs(vals - 1.0 / PI**2)) <= 1e-13


class TestJFunctional:
    def test_triangle_value(self):
        assert j_functional(triangle_profile()) == pytest.approx(J0_EXACT, abs=1e-10)

    def test_scale_invariance(self):
        # at the parent 1e-10 gave 6.5e-12 (an absolute near-tie test put
        # the peak at xi = 0), 1e-20 raised ZeroMass and 1e80 overflowed
        tri = triangle_profile()
        base = j_functional(tri)
        for lam in (1e-150, 1e-20, 1e-10, 0.1, 3.0, 100.0, 1e80, 1e150):
            scaled = PerturbationFunction(
                lambda x, lam=lam: lam * (1.0 - x),
                linear_table=([0.0, 1.0], [lam, 0.0]),
            )
            for u in (scaled, profile_from_table([0.0, 1.0], [lam, 0.0])):
                assert j_functional(u) == pytest.approx(base, rel=1e-14, abs=0.0)
                assert j_functional(u) == pytest.approx(J0_EXACT, rel=1e-14, abs=0.0)

    def test_half_triangle_self_convergence(self):
        half = half_triangle_profile()
        coarse = j_functional(half)
        fine = j_functional(half, grid=10 * (256 * 60) + 1)
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            j_functional(PerturbationFunction(lambda x: np.zeros_like(x)))

    def test_tail_warning_for_narrow_profile(self):
        narrow = autoconvolution_profile(lambda t: np.cos(PI * t / 0.07) ** 2, half_support=0.035)
        with pytest.warns(TailEstimateWarning):
            j_functional(narrow, xi_cutoff=10.0)

    def test_parameter_validation(self):
        tri = triangle_profile()
        with pytest.raises(ValueError):
            j_functional(tri, xi_cutoff=5.0)
        with pytest.raises(ValueError):
            j_functional(tri, grid=100)


class TestCfAnalytic:
    def test_triangle_is_stationary(self):
        assert c_f_analytic(triangle_profile(), 1000) == pytest.approx(0.0, abs=1e-10)

    def test_half_triangle_closed_form(self):
        # gamma = 1/pi^2, int f x^2 = 1/48, int f = 1/2 give 1/(144 pi^4)
        val = c_f_analytic(half_triangle_profile(), 1000)
        assert val > 0
        assert val == pytest.approx(CF_HALF_EXACT, rel=1e-10)

    def test_zero_function(self):
        zero = PerturbationFunction(lambda x: np.zeros_like(x), linear_table=([0, 1], [0, 0]))
        assert c_f_analytic(zero, 100) == pytest.approx(0.0, abs=1e-15)

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            c_f_analytic(triangle_profile(), 10)

    def test_gamma_of_triangle(self):
        gamma, last = gamma_half_integer(triangle_profile(), 500)
        assert gamma == pytest.approx(1.0 / PI**2, abs=1e-13)
        assert last == pytest.approx(1.0 / PI**2, abs=1e-13)


class TestFiniteDiffSlope:
    def test_triangle_slope_vanishes(self):
        slope = finite_diff_slope(triangle_profile(), (1e-2, 1e-3))
        assert abs(slope) <= 1e-4

    def test_half_triangle_matches_analytic(self):
        slope = finite_diff_slope(half_triangle_profile(), (1e-2, 1e-3))
        analytic = c_f_analytic(half_triangle_profile(), 1000)
        assert slope == pytest.approx(analytic, rel=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: profile_from_table([0.2, 0.4, 0.6, 0.8], [0.5, 0.3, 0.9, 0.2]),
        lambda: autoconvolution_profile(lambda t: np.cos(PI * t) ** 2),
    ], ids=["table", "cos2_autoconvolution"])
    def test_forward_difference_matches_right_derivative(self, make):
        # J is a sup, so the analytic slope is the right derivative; a
        # central difference averages in the left one and misses it here
        f = make()
        slope = finite_diff_slope(f, (1e-2, 1e-3))
        assert slope == pytest.approx(c_f_analytic(f, 1000), rel=1e-4)

    def test_zero_direction(self):
        zero = PerturbationFunction(lambda x: np.zeros_like(x), linear_table=([0, 1], [0.0, 0.0]))
        assert finite_diff_slope(zero, (1e-2,)) == 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            finite_diff_slope(triangle_profile(), (0.5,))
        with pytest.raises(ValueError):
            finite_diff_slope(triangle_profile(), ())

    def test_nan_step_raises(self):
        # at the parent the slope came out nan
        with pytest.raises(ValueError, match="finite"):
            finite_diff_slope(half_triangle_profile(), (math.nan,))

    def test_repeated_step_raises(self):
        # at the parent Richardson's step divided by e1 - e2 = 0
        with pytest.raises(ValueError, match="distinct"):
            finite_diff_slope(half_triangle_profile(), (1e-2, 1e-2))


class TestProp8:
    def test_triangle_equality(self):
        sides = prop8_sides(triangle_profile(), 400)
        assert sides.lhs == pytest.approx(1.0 / PI**2, abs=1e-12)
        assert sides.rhs == pytest.approx(1.0 / PI**2, abs=1e-12)
        assert abs(sides.lhs - sides.rhs) <= 1e-10
        # integer samples of the triangle transform vanish: hypothesis holds
        assert sides.min_integer_hat >= -1e-12

    def test_homogeneity(self):
        c = 5.0
        scaled = PerturbationFunction(
            lambda x: c * (1.0 - x), linear_table=([0.0, 1.0], [c, 0.0])
        )
        sides = prop8_sides(scaled, 200)
        assert sides.lhs == pytest.approx(c / PI**2, abs=1e-11)
        assert sides.rhs == pytest.approx(c / PI**2, abs=1e-11)

    def test_half_triangle_strict(self):
        sides = prop8_sides(half_triangle_profile(), 400)
        assert sides.lhs - sides.rhs > 1e-6
        assert sides.lhs - sides.rhs == pytest.approx(0.125 / PI**2, abs=1e-12)

    def test_autoconvolution_battery(self):
        # even bumps supported in [-1/2, 1/2]; f = g*g has fhat = ghat^2 >= 0
        rng = np.random.default_rng(101)
        profiles = [
            autoconvolution_profile(lambda t: np.cos(PI * t) ** 2, 0.5),
            autoconvolution_profile(lambda t: (0.25 - t * t) ** 2, 0.5),
            autoconvolution_profile(lambda t: np.cos(PI * t / 0.6) ** 2, 0.3),
        ]
        for _ in range(3):
            a = rng.uniform(0.2, 0.5)
            c1, c2 = rng.uniform(0.3, 2.0, 2)
            profiles.append(
                autoconvolution_profile(
                    lambda t, a=a, c1=c1, c2=c2: c1 * np.cos(PI * t / (2 * a)) ** 2
                    + c2 * np.cos(PI * t / (2 * a)) ** 4,
                    a,
                )
            )
        for f in profiles:
            sides = prop8_sides(f, 150)
            assert sides.min_integer_hat >= 0.0
            assert sides.lhs >= sides.rhs - 1e-9
            # equality is reserved for multiples of the triangle
            assert sides.lhs - sides.rhs > 1e-6

    def test_unpacks_as_pair(self):
        lhs, rhs = prop8_sides(triangle_profile(), 100)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestACoefficient:
    def test_zero(self):
        assert a_coefficient(0) == 0.0

    def test_one(self):
        assert a_coefficient(1) == pytest.approx(-3.0 / PI**2, abs=1e-16)

    def test_one_half(self):
        assert a_coefficient(0.5) == pytest.approx(12.0 / PI**2, abs=1e-16)

    def test_quadrature_oracle(self):
        for twice_j in range(-40, 41):
            j = twice_j / 2.0
            oracle = 2.0 * gl_oracle(lambda x, j=j: (1 - 3 * x * x) * np.cos(2 * PI * j * x), 0, 1)
            assert a_coefficient(j) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            a_coefficient(0.3)

    def test_odd_fourth_power_series(self):
        # sum over k in Z of 1/(2k+1)^4 = pi^4/48 closes the sampling bound
        k = np.arange(0, 10**6 + 1, dtype=float)
        partial = 2.0 * np.sum(1.0 / (2.0 * k + 1.0) ** 4)
        assert partial == pytest.approx(PI**4 / 48.0, abs=1e-12)


class TestProfiles:
    def test_even_extension_and_support(self):
        half = half_triangle_profile()
        assert half(-0.25) == half(0.25) == pytest.approx(0.5)
        assert half(1.5) == 0.0

    def test_profile_from_table(self):
        f = profile_from_table([0.0, 0.5, 1.0], [1.0, 0.0, 0.0])
        xs = np.linspace(0, 1, 7)
        np.testing.assert_allclose(f(xs), half_triangle_profile()(xs), atol=1e-15)
        assert f.linear_table is not None

    def test_profile_from_table_extends_to_one(self):
        f = profile_from_table([0.0, 0.5], [1.0, 1.0])
        assert f(0.75) == pytest.approx(0.5)  # linear ramp down to (1, 0)
        assert f(1.0) == pytest.approx(0.0)

    def test_profile_from_table_validation(self):
        with pytest.raises(ValueError):
            profile_from_table([0.5, 0.1], [1.0, 1.0])
        with pytest.raises(ValueError):
            profile_from_table([0.0], [1.0])

    def test_overflowing_slopes_rejected(self):
        # slopes of +-2e308 overflow to +-inf, whose drops cancel to nan in
        # the knot sum; at the parent the report printed nan in five fields
        with pytest.raises(ValueError, match="slopes must be finite"):
            profile_from_table([0.0, 0.5], [1.0, 1e308])

    def test_linear_table_spans_the_half_line(self):
        # the knot sum's end term sits at x = 1 and its near-zero quadrature
        # splits panels at the knots, so a table runs from 0 to 1
        with pytest.raises(ValueError):
            PerturbationFunction(lambda x: 1.0 - x, linear_table=([0.2, 1.0], [0.8, 0.0]))
        f = PerturbationFunction(lambda x: np.interp(x, [0, 0.3, 1], [1, 0.5, 0]),
                                 linear_table=([0.0, 0.3, 1.0], [1.0, 0.5, 0.0]))
        assert f.breakpoints == (0.3,)

    def test_combine_tables(self):
        mix = combine(triangle_profile(), half_triangle_profile(), 0.25)
        assert mix.linear_table is not None
        assert mix(0.25) == pytest.approx(0.75 + 0.25 * 0.5)
        assert ct_fourier(mix, 0.5) == pytest.approx(
            ct_fourier(triangle_profile(), 0.5) + 0.25 * ct_fourier(half_triangle_profile(), 0.5),
            abs=1e-13,
        )

    def test_autoconvolution_transform_is_square(self):
        a = 0.5
        f = autoconvolution_profile(lambda t: np.cos(PI * t) ** 2, a)
        # ghat for cos^2(pi t) on [-1/2, 1/2] via a quadrature oracle
        for xi in (0.3, 1.2, 4.75):
            ghat = 2.0 * gl_oracle(
                lambda t, xi=xi: np.cos(PI * t) ** 2 * np.cos(2 * PI * xi * t), 0, a
            )
            assert ct_fourier(f, xi) == pytest.approx(ghat**2, abs=1e-11)

    def test_autoconvolution_support_validation(self):
        with pytest.raises(ValueError):
            autoconvolution_profile(lambda t: t, half_support=0.7)


class TestOneTransformPath:
    """The closed form and the quadrature are two branches of one evaluator."""

    TABLE = ([0.2, 0.4, 0.6, 0.8], [0.5, 0.3, 0.9, 0.2])

    @staticmethod
    def without_table(f):
        return PerturbationFunction(f.half, f.breakpoints)

    def test_closed_form_matches_quadrature(self):
        table = profile_from_table(*self.TABLE)
        quad = self.without_table(table)
        xi0, h, count = 0.1, (60.0 - 0.1) / 149, 150  # the grid of np.linspace(0.1, 60.0, 150)
        xis = xi0 + h * np.arange(count)
        closed = continuum._hat(table, xi0, h, count, 64)  # the level is unused by a table
        numeric = np.array([ct_fourier(quad, xi) for xi in xis])
        assert np.max(np.abs(closed - numeric) * xis**2) <= 1e-10

    @pytest.mark.parametrize("make", [
        half_triangle_profile,
        lambda: profile_from_table(*TestOneTransformPath.TABLE),
    ], ids=["half_triangle", "table"])
    def test_j_functional_agrees_across_paths(self, make):
        f = make()
        assert j_functional(self.without_table(f)) == pytest.approx(j_functional(f), rel=1e-12)

    def test_report_scans_half_integers_once(self, monkeypatch):
        # every scan up to n_max ends at xi = n_max + 1/2, and nothing else
        # in the report samples the perturbation's transform there
        n_max = 100
        f = half_triangle_profile()
        covering = []
        inner = continuum._hat

        def counting(g, xi0, h, count, level):
            k = (n_max + 0.5 - xi0) / h
            if g is f and k == int(k) and 0 <= k < count:
                covering.append(level)
            return inner(g, xi0, h, count, level)

        monkeypatch.setattr(continuum, "_hat", counting)
        perturbation_report(f, (1e-2, 1e-3), n_max=n_max)
        assert len(covering) == 1


class TestLevelBatchedScans:
    """Each level of a scan is one evaluation over many frequencies, yet
    every frequency still stops where its own doubling would stop."""

    @staticmethod
    def one_item(value_at, start, floor):
        # the per-item doubling loop, kept as the reference
        prev = None
        for level in continuum._LEVELS[continuum._LEVELS.index(start):]:
            val = value_at(level)
            if prev is not None and abs(val - prev) <= max(
                    continuum._QUAD_TOL * max(1.0, abs(val)), floor):
                return val
            prev = val
        return prev

    def test_node_doubling_matches_per_item_loop(self):
        rng = np.random.default_rng(5)
        levels = continuum._LEVELS
        count = 300
        # item i settles (up to noise below its tolerance) from a random level on
        settle = rng.integers(0, len(levels), count)
        base = rng.uniform(-2.0, 2.0, count)
        noise = rng.uniform(-1.0, 1.0, (count, len(levels)))
        scale = np.where(np.arange(len(levels)) >= settle[:, None], 1e-15, 1e-9)
        table = base[:, None] + scale * noise
        start = np.array(levels)[rng.integers(0, len(levels), count)]
        floor = np.where(rng.random(count) < 0.5, 0.0, 1e-12)
        runs = []

        def value_at(level, lo, hi):
            runs.append((level, lo, hi))
            return table[lo:hi, levels.index(level)]

        batched = continuum._node_doubling(value_at, start, floor)
        expect = [self.one_item(lambda level, i=i: table[i, levels.index(level)], int(start[i]),
                                floor[i]) for i in range(count)]
        assert batched.tolist() == expect
        assert len(runs) <= len(levels)

    # the quadrature sums in another order, within ct_fourier's noise
    # floor 1e-15 (1 + xi); tables meet their oracle in the next test
    @pytest.mark.parametrize("make", [
        lambda: autoconvolution_profile(lambda t: np.cos(PI * t) ** 2),
    ], ids=["autoconvolution"])
    def test_scans_match_per_frequency_transform(self, make):
        f = make()
        xis = np.arange(201) + 0.5
        batched = continuum._transform(f, 0.5, 1.0, xis.size)
        single = np.array([ct_fourier(f, xi) for xi in xis])
        assert np.all(np.abs(batched - single) <= 1e-15 * (1.0 + xis))
        terms = batched * xis * xis
        assert gamma_half_integer(f, 200) == (np.max(terms), terms[-1])
        ints = np.arange(1.0, 201.0)
        single = np.array([ct_fourier(f, xi) for xi in ints])
        assert abs(prop8_sides(f, 200).min_integer_hat - np.min(single)) <= 1e-15 * 201.0

    def test_table_scans_and_single_transforms_match_oracle(self):
        # a table's scan and its one-frequency transforms sum the same knots
        # in different groupings; both must meet the closed form
        f = profile_from_table(*TestOneTransformPath.TABLE)
        for xi0, count in ((0.5, 201), (1.0, 200)):
            xis = xi0 + np.arange(count)
            exact = TestTableOracle.exact(f, xis)
            batched = continuum._transform(f, xi0, 1.0, count)
            single = np.array([ct_fourier(f, xi) for xi in xis])
            for computed in (batched, single):
                assert np.max(np.abs(computed - exact) * xis**2) <= 1e-15
        xis = np.arange(201) + 0.5
        terms = continuum._transform(f, 0.5, 1.0, xis.size) * xis * xis
        assert gamma_half_integer(f, 200) == (np.max(terms), terms[-1])
        assert prop8_sides(f, 200).min_integer_hat == np.min(
            continuum._transform(f, 1.0, 1.0, 200))

    def test_autoconvolution_scans_stop_one_level_past_their_start(self, monkeypatch):
        # with an accurate fixed-order rule, the level after a frequency's
        # start level already agrees with it, so no frequency climbs further;
        # each level is one _hat call on the factor
        f = autoconvolution_profile(lambda t: np.cos(PI * t) ** 2)
        g, a = f._factor
        levels = list(continuum._LEVELS)
        calls = []
        inner = continuum._hat

        def counting(p, xi0, h, count, level):
            if p is g:
                calls.append((level, xi0, count))
            return inner(p, xi0, h, count, level)

        monkeypatch.setattr(continuum, "_hat", counting)
        for xi0, count in ((0.5, 1001), (1.0, 1000)):
            calls.clear()
            continuum._transform(f, xi0, 1.0, count)
            start = continuum._fourier_start_level(f, xi0 + np.arange(count))
            used = [set() for _ in range(count)]
            for level, lo, n in calls:
                first = round((lo - a * xi0) / a)
                for k in range(first, first + n):
                    used[k].add(level)
            for k in range(count):
                after = levels[min(levels.index(start[k]) + 1, len(levels) - 1)]
                assert start[k] in used[k] <= {start[k], after}
            per_level = [level for level, _, _ in calls]
            assert len(per_level) == len(set(per_level))


class TestBlockedCosineSum:
    """The cosine sum runs over blocks of nodes, in a working set bounded
    at any level and frequency count."""

    @staticmethod
    def one_product(x, w, xi0, h, count):
        # the sum as one complex matrix product over all nodes, kept as
        # the reference
        m = math.isqrt(count - 1) + 1
        sin_a, cos_a = continuum._sincos_2pi_prod(
            xi0 + (m * h) * np.arange(-(-count // m))[:, None], x)
        sin_b, cos_b = continuum._sincos_2pi_prod(h * np.arange(m)[:, None], x)
        return (cos_a @ (w * cos_b).T - sin_a @ (w * sin_b).T).ravel()[:count]

    @pytest.fixture(scope="class")
    def factor(self):
        return autoconvolution_profile(lambda t: np.cos(PI * t) ** 2)._factor[0]

    # the half-integer scan, J's default sweep and a polish round; at 8192
    # nodes they take 16, 63 and 4 blocks
    @pytest.mark.parametrize("xi0, h, count", [
        (0.25, 0.5, 1001), (0.0, 30.0 / 15360, 15361), (3.0, 0.1, 33),
    ], ids=["scan", "sweep", "polish"])
    def test_blocks_match_one_product(self, factor, monkeypatch, xi0, h, count):
        x, w, fx = factor.samples(8192)
        wf = w * fx
        ref = self.one_product(x, wf, xi0, h, count)
        # the blocks sum in another order: measured within 1.1e-15 sum |w|
        blocked = continuum._cos_sum(x, wf, xi0, h, count)
        assert np.max(np.abs(blocked - ref)) <= 4e-15 * np.sum(np.abs(wf))
        # one block sums as the single product does
        x64, w64, fx64 = factor.samples(64)
        assert np.array_equal(continuum._cos_sum(x64, w64 * fx64, xi0, h, count),
                              self.one_product(x64, w64 * fx64, xi0, h, count))
        monkeypatch.setattr(continuum, "_PHASE_ELEMENTS", 2**30)
        assert np.array_equal(continuum._cos_sum(x, wf, xi0, h, count), ref)

    def test_scan_working_set(self):
        # one product over all 8192 nodes of the top level held 66 MB
        f = autoconvolution_profile(lambda t: np.cos(PI * t) ** 2)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gamma, _ = gamma_half_integer(f, 8000)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert gamma == pytest.approx(4.0 / (9.0 * PI**2), rel=1e-13, abs=0.0)
        assert peak < 4e6

    def test_autoconvolution_values_working_set(self, monkeypatch):
        # f's values convolve in blocks of points; one (points, 96) pass over
        # the top level's 8192 nodes held 49.2 MB
        f = autoconvolution_profile(lambda t: np.cos(PI * t) ** 2)
        profile = combine(triangle_profile(), f, 1e-2)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            x, _, fx = profile.samples(8192)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8e6
        # blocking leaves each point's value as one pass over all points
        monkeypatch.setattr(continuum, "_PHASE_ELEMENTS", 2**30)
        np.testing.assert_allclose(fx, combine(triangle_profile(), f, 1e-2).half(x),
                                   rtol=1e-15, atol=0.0)


class TestResolutionLimit:
    """A frequency that the top quadrature level cannot resolve raises
    instead of returning that level's unconverged value."""

    # pi |xi| a w <= 100 * 8192 / 64 on the cos^2 factor: a = 1/2, w = 1
    LIMIT = 100.0 * 128 / (PI * 0.5)

    @pytest.fixture(scope="class")
    def f(self):
        return autoconvolution_profile(lambda t: np.cos(PI * t) ** 2)

    def test_scan_past_the_limit_raises(self, f):
        # at the parent n_max = 10000 gave gamma = 43434, not 4/(9 pi^2)
        with pytest.raises(ValueError, match=r"largest resolvable \|xi\| is 8148\.73"):
            gamma_half_integer(f, 10000)
        with pytest.raises(ValueError, match="8148.73"):
            prop8_sides(f, 8500)
        with pytest.raises(ValueError, match="8148.73"):
            j_functional(f, xi_cutoff=9000.0)

    def test_limit_is_sharp(self, f):
        assert ct_fourier(f, self.LIMIT * (1.0 - 1e-12)) >= 0.0
        with pytest.raises(ValueError, match="8148.73"):
            ct_fourier(f, self.LIMIT * (1.0 + 1e-12))
        quad = PerturbationFunction(lambda x: 1.0 - x)  # one panel, no factor
        with pytest.raises(ValueError, match="4074.37"):
            ct_fourier(quad, -4075.0)

    def test_within_the_limit_unchanged(self, f):
        gamma, last = gamma_half_integer(f, 1000)
        assert gamma == pytest.approx(4.0 / (9.0 * PI**2), rel=1e-13, abs=0.0)
        assert gamma_half_integer(f, 8000)[0] == gamma
        xi = 1000.5  # fhat(xi) xi^2 = 1/(4 pi^2 (1 - xi^2)^2) at half-integers
        assert last == pytest.approx(1.0 / (4.0 * PI**2 * (1.0 - xi * xi) ** 2), rel=1e-6)

    def test_tables_have_no_limit(self):
        # the knot sum is exact at every frequency
        assert ct_fourier(triangle_profile(), 1e6 + 0.5) == pytest.approx(
            triangle_hat(1e6 + 0.5), rel=1e-9)


class TestGaussLegendreRule:
    """The fixed rules against 50-digit mpmath: Newton on the three-term
    recurrence from each float node, weights 2 (1 - x^2) / (n P_{n-1}(x))^2."""

    @pytest.mark.parametrize("n", [64, 96, 256])  # 256: the prop8 oracle's rule
    def test_rule_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        x, w = continuum._gauss_legendre(n)
        node_err = weight_err = 0.0
        with mpmath.workdps(50):
            def legendre(t):  # (P_n(t), P_{n-1}(t))
                p0, p1 = mpmath.mpf(1), t
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
                return p1, p0

            for xk, wk in zip(x, w):
                t = mpmath.mpf(float(xk))
                for _ in range(3):
                    p, q = legendre(t)
                    t -= p * (1 - t * t) / (n * (q - t * p))
                exact_w = 2 * (1 - t * t) / (n * legendre(t)[1]) ** 2
                node_err = max(node_err, float(abs(xk - t)))
                weight_err = max(weight_err, float(abs((wk - exact_w) / exact_w)))
        assert x.size == n
        assert node_err <= 2.3e-16
        assert weight_err <= 2e-13

    def test_levels_apply_the_rule_on_sub_panels(self):
        # a level of n nodes per panel is the 64-node rule on n / 64 equal
        # sub-panels: weights sum to each panel's width, and a polynomial of
        # degree 127 in each sub-panel integrates exactly
        f = half_triangle_profile()
        for level in (64, 256):
            x, w, fx = f.samples(level)
            assert x.size == 2 * level
            assert np.sum(w[:level]) == pytest.approx(0.5, abs=1e-15)
            assert np.dot(w, fx) == pytest.approx(0.25, abs=1e-16)
            assert np.dot(w, x**127) == pytest.approx(1.0 / 128.0, rel=1e-14)


class TestTableOracle:
    """Table transforms against their closed form in 40-digit mpmath.

    Each segment integrates exactly, int (a + b x) cos(c x) dx =
    [(a + b x) sin(c x) / c + b cos(c x) / c^2]; at 40 digits the
    cancellation near xi = 0 still leaves over 20 correct digits.  The
    tables: the half triangle, the seeded test table, one with knots at
    incommensurate positions, and one whose value at x = 1 is nonzero.
    """

    TABLES = {
        "halftriangle": half_triangle_profile,
        "table": lambda: profile_from_table(*TestOneTransformPath.TABLE),
        "incommensurate": lambda: profile_from_table(
            [0.0, 1.0 / PI, math.sqrt(2.0) / 2.0, 0.9], [0.6, 0.2, 0.8, 0.1]),
        "nonzero_end": lambda: profile_from_table([0.0, 0.5, 1.0], [1.0, 0.4, 0.3]),
    }
    # the end term f(1) sin(2 pi xi) / (2 pi xi) carries |f(1)| xi / pi
    # times the rounding of the sine into the xi^2-weighted error
    SCAN_TOL = {"nonzero_end": 2e-14}
    GAMMA_TOL = {"nonzero_end": 2e-13}

    @staticmethod
    def exact(f, xis):
        return np.array([float(v) for v in TestTableOracle.exact_mp(f, xis)])

    @staticmethod
    def exact_mp(f, xis):
        """The transform at each of ``xis`` as 40-digit mpmath numbers."""
        mpmath = pytest.importorskip("mpmath")
        knots, values = f.linear_table
        out = []
        with mpmath.workdps(40):
            ks = [mpmath.mpf(float(k)) for k in knots]
            vs = [mpmath.mpf(float(v)) for v in values]
            for xi in np.atleast_1d(xis):
                c = 2 * mpmath.pi * mpmath.mpf(float(xi))
                total = mpmath.mpf(0)
                for a, b, fa, fb in zip(ks[:-1], ks[1:], vs[:-1], vs[1:]):
                    if c == 0:
                        total += (b - a) * (fa + fb) / 2
                        continue
                    slope = (fb - fa) / (b - a)
                    total += (fb * mpmath.sin(c * b) - fa * mpmath.sin(c * a)) / c + slope * (
                        mpmath.cos(c * b) - mpmath.cos(c * a)) / c**2
                out.append(2 * total)
        return out

    @pytest.fixture(scope="class", params=list(TABLES))
    def case(self, request):
        name = request.param
        f = self.TABLES[name]()
        xis = np.arange(1, 2002) / 2.0  # 0.5, 1, ..., 1000.5
        return name, f, xis, self.exact(f, xis)

    def test_scans(self, case):
        name, f, xis, exact = case
        for start, xi0 in enumerate((0.5, 1.0)):  # half-integers, then integers
            scan = continuum._transform(f, xi0, 1.0, xis[start::2].size)
            err = np.abs(scan - exact[start::2]) * xis[start::2] ** 2
            assert np.max(err) <= self.SCAN_TOL.get(name, 1e-15)

    def test_ct_fourier(self, case):
        name, f, xis, exact = case
        picked = np.arange(0, xis.size, 40)
        single = np.array([ct_fourier(f, xi) for xi in xis[picked]])
        err = np.abs(single - exact[picked]) * np.maximum(1.0, xis[picked] ** 2)
        assert np.max(err) <= self.SCAN_TOL.get(name, 1e-15)

    def test_gamma(self, case):
        name, f, xis, exact = case
        half = xis[::2]
        expect = np.max(exact[::2] * half**2)
        gamma = gamma_half_integer(f, 1000)[0]
        assert abs(gamma - expect) <= self.GAMMA_TOL.get(name, 1e-15) * expect

    def test_small_frequencies(self, case):
        # the knot sum cancels near xi = 0; the table's quadrature takes over
        _, f, _, _ = case
        small = np.array([1e-9, 1e-6, 1e-4, 1.0 / 256.0, 0.01, 0.1])
        exact = self.exact(f, small)
        single = np.array([ct_fourier(f, xi) for xi in small])
        assert np.all(np.abs(single - exact) <= 1e-13 * np.abs(exact))
        assert ct_fourier(f, 0.0) == pytest.approx(self.exact(f, 0.0)[0], rel=1e-15)

    def test_j_at_the_triangle(self):
        j0 = j_functional(triangle_profile())
        assert j0 == pytest.approx(J0_EXACT, rel=1e-15, abs=0.0)


class TestAutoconvolutionOracle:
    """The autoconvolution's transform against its closed form.

    For g = cos^2(pi t) on [-1/2, 1/2], ghat(xi) = sinc(xi)/2 +
    (sinc(xi - 1) + sinc(xi + 1))/4 with sinc(z) = sin(pi z)/(pi z), and
    the autoconvolution f = g * g has fhat = ghat^2, evaluated here in
    40-digit mpmath.  Every transform path must match it to 1e-9 relative,
    or to 1e-17 absolute where fhat itself is that small.
    """

    @staticmethod
    def exact(xis):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            def ghat(xi):
                xi = mpmath.mpf(float(xi))
                return (mpmath.sincpi(xi) / 2
                        + (mpmath.sincpi(xi - 1) + mpmath.sincpi(xi + 1)) / 4)

            return np.array([float(ghat(xi) ** 2) for xi in np.atleast_1d(xis)])

    @staticmethod
    def assert_close(computed, xis):
        exact = TestAutoconvolutionOracle.exact(xis)
        assert np.all(np.abs(computed - exact) <= np.maximum(1e-9 * np.abs(exact), 1e-17))

    @pytest.fixture(scope="class")
    def f(self):
        return autoconvolution_profile(lambda t: np.cos(PI * t) ** 2)

    def test_ct_fourier(self, f):
        xis = np.array([0.25, 0.5, 2.5, 10.5, 60.25, 100.5, 500.5, 1000.5])
        self.assert_close(np.array([ct_fourier(f, xi) for xi in xis]), xis)

    def test_j_functional_sweep(self, f):
        # the grid and level j_functional sweeps at its defaults
        grid, cutoff = 15361, 60.0
        level = int(continuum._fourier_start_level(f, cutoff))
        sweep = continuum._hat(f, 0.0, cutoff / (grid - 1), grid, level)
        xis = np.linspace(0.0, cutoff, grid)
        self.assert_close(sweep[::97], xis[::97])

    def test_half_integer_scan(self, f):
        n = np.array([0, 10, 500, 1000])
        scan = continuum._transform(f, 0.5, 1.0, 1001)
        self.assert_close(scan[n], n + 0.5)

    def test_gamma(self, f):
        # fhat(xi) xi^2 = 1/(4 pi^2 (1 - xi^2)^2) at half-integers peaks at xi = 1/2
        gamma = perturbation_report(f).gamma
        assert gamma == pytest.approx(4.0 / (9.0 * PI**2), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("g, a", [
        (lambda t: np.cos(PI * t) ** 2, 0.5),
        (lambda t: (0.25 - t * t) ** 2, 0.5),
        (lambda t: np.cos(PI * t / 0.6) ** 2, 0.3),
    ], ids=["cos2", "quartic", "narrow_cos2"])
    def test_integer_samples_are_nonnegative(self, g, a):
        # fhat = ghat^2 holds exactly, so no integer sample may dip below zero
        assert prop8_sides(autoconvolution_profile(g, a), 1000).min_integer_hat >= 0.0


class TestPerturbationReport:
    def test_report_fields(self):
        rep = perturbation_report(half_triangle_profile(), (1e-2, 1e-3), n_max=200)
        assert rep.J0 == pytest.approx(J0_EXACT, abs=1e-10)
        assert rep.c_f_analytic == pytest.approx(CF_HALF_EXACT, rel=1e-9)
        assert rep.c_f_numeric == pytest.approx(rep.c_f_analytic, rel=1e-6)
        assert rep.gamma == pytest.approx(1.0 / PI**2, abs=1e-12)
        assert rep.prop8_lhs > rep.prop8_rhs
        assert rep.epsilons_used == [1e-2, 1e-3]

    def test_to_dict_json(self):
        import json

        rep = perturbation_report(triangle_profile(), (1e-2,), n_max=100)
        data = json.loads(json.dumps(rep.to_dict()))
        assert set(data) == {
            "J0", "c_f_analytic", "c_f_numeric", "gamma",
            "prop8_lhs", "prop8_rhs", "epsilons_used",
        }


def seeded_tables(count=20, seed=2024):
    """Tables of 2 to 6 knots at uniform positions, some nearly coincident,
    with values in [-0.5, 1], so that some change sign."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(count):
        k = int(rng.integers(2, 7))
        tables.append(profile_from_table(np.sort(rng.uniform(0.0, 1.0, k)),
                                         rng.uniform(-0.5, 1.0, k)))
    return tables


AUTOCONVOLUTION_FACTORS = {
    "cos2": lambda t: np.cos(PI * t) ** 2,
    "parabola": lambda t: 1.0 - (2.0 * t) ** 2,
    "gaussian": lambda t: np.exp(-8.0 * t * t),
}


@pytest.mark.filterwarnings("ignore::smoothavg.continuum.TailEstimateWarning")
class TestSharedSweepsAndPolish:
    """A report sweeps u0hat and fhat once each on J's grid and reads every
    J(u0 + eps f) from u0hat + eps fhat; each J polishes its sweep peak in
    one round plus one parabolic vertex."""

    GRID = 15361  # J's default grid: 256 points per unit up to xi = 60

    @staticmethod
    def bracket_loop_j(uhat, transform, moments, xi_cutoff=60.0):
        """J with the polish as first written, kept as the reference: rounds
        of 33 points, each keeping the best point's two neighbours, down to
        a 1e-10 bracket."""
        xis = np.linspace(0.0, xi_cutoff, uhat.size)
        sweep = np.abs(uhat) * xis**2
        peak = float(np.max(sweep))
        i_best = int(np.argmax(sweep >= peak - 1e-8 * max(1.0, peak)))
        lo, hi = xis[max(0, i_best - 1)], xis[min(uhat.size - 1, i_best + 1)]
        sup = float(sweep[i_best])
        ks = np.arange(33)
        while hi - lo > 1e-10:
            step = (hi - lo) / 32
            vals = np.abs(transform(lo, step, 33)) * (lo + step * ks) ** 2
            k = int(np.argmax(vals))
            sup = max(sup, float(vals[k]))
            lo, hi = lo + step * max(k - 1, 0), lo + step * min(k + 1, 32)
        mass, second_moment = moments
        return (sup * sup) * (second_moment * second_moment) / mass**4

    @staticmethod
    def report_js(monkeypatch, f, eps):
        """[J(u0), J(u0 + eps f)] as finite_diff_slope computes them."""
        js = []
        inner = continuum._j_polished

        def recording(*args):
            js.append(inner(*args))
            return js[-1]

        monkeypatch.setattr(continuum, "_j_polished", recording)
        finite_diff_slope(f, (eps,))
        monkeypatch.undo()
        return js

    @pytest.mark.parametrize("f, eps_list", [
        *(pytest.param(f, (1e-1, 1e-2, 1e-3), id=f"table{i}")
          for i, f in enumerate(seeded_tables())),
        *(pytest.param(autoconvolution_profile(g), (1e-2, 1e-3), id=name)
          for name, g in AUTOCONVOLUTION_FACTORS.items()),
    ])
    def test_polish_matches_the_bracket_loop(self, monkeypatch, f, eps_list):
        # the same sweep and transform polished both ways: measured within
        # 2.8e-15 relative over these 89 values (median 5e-16)
        u0 = triangle_profile()
        ref = self.bracket_loop_j(continuum._j_sweep(f, 60.0, self.GRID),
                                  functools.partial(continuum._transform, f),
                                  continuum._abs_moments(f))
        assert j_functional(f) == pytest.approx(ref, rel=4e-15, abs=0.0)
        u0_hat = continuum._j_sweep(u0, 60.0, self.GRID)
        f_hat = continuum._j_sweep(f, 60.0, self.GRID)
        for eps in eps_list:
            def transform(xi0, h, count, eps=eps):
                return (continuum._transform(u0, xi0, h, count)
                        + eps * continuum._transform(f, xi0, h, count))

            ref = self.bracket_loop_j(u0_hat + eps * f_hat, transform,
                                      continuum._abs_moments(combine(u0, f, eps)))
            j0, j = self.report_js(monkeypatch, f, eps)
            assert j0 == pytest.approx(J0_EXACT, rel=1e-15, abs=0.0)
            assert j == pytest.approx(ref, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("make", [
        half_triangle_profile,
        lambda: autoconvolution_profile(AUTOCONVOLUTION_FACTORS["cos2"]),
    ], ids=["half_triangle", "cos2_autoconvolution"])
    def test_report_sweeps_twice_and_polishes_each_j_once(self, monkeypatch, make):
        # at the parent: three full-grid sweeps, one per J, and seven
        # 33-point rounds per J
        f = make()
        sweeps, polish = [], []
        depth = {"hat": 0, "transform": 0}
        inner_hat, inner_transform = continuum._hat, continuum._transform

        def hat(p, xi0, h, count, level):
            # an autoconvolution's call on its factor runs one level deeper
            if depth["hat"] == 0 and count == self.GRID:
                sweeps.append(p)
            depth["hat"] += 1
            try:
                return inner_hat(p, xi0, h, count, level)
            finally:
                depth["hat"] -= 1

        def transform(p, xi0, h, count):
            if depth["transform"] == 0 and count <= 33:  # not the half-integer scan
                polish.append((p is f, (xi0, h, count)))
            depth["transform"] += 1
            try:
                return inner_transform(p, xi0, h, count)
            finally:
                depth["transform"] -= 1

        monkeypatch.setattr(continuum, "_hat", hat)
        monkeypatch.setattr(continuum, "_transform", transform)
        perturbation_report(f, (1e-2, 1e-3), n_max=100)
        assert len(sweeps) == 2 and sum(p is f for p in sweeps) == 1
        # an evaluation of u0hat + eps fhat is u0's transform, then f's at
        # the same points
        evaluations = []
        for i, (on_f, args) in enumerate(polish):
            if on_f:
                assert i > 0 and polish[i - 1] == (False, args)
            else:
                evaluations.append(args[2])
        # J0 and two J(u0 + eps f): each one round, then at most one vertex
        pattern = "".join({33: "R", 1: "V"}[count] for count in evaluations)
        assert re.fullmatch("(RV?){3}", pattern), pattern

    @pytest.mark.parametrize("f", [
        half_triangle_profile(),
        *seeded_tables(6),
        autoconvolution_profile(AUTOCONVOLUTION_FACTORS["cos2"]),
        autoconvolution_profile(AUTOCONVOLUTION_FACTORS["gaussian"]),
    ], ids=["half_triangle", *(f"table{i}" for i in range(6)), "cos2", "gaussian"])
    def test_report_slope_is_the_richardson_slope_of_j(self, f):
        # j_functional(combine(u0, f, eps)) transforms the merged profile,
        # rounded at its knots or integrated by quadrature, where the
        # report adds u0hat and eps fhat: measured within 6.4e-12 relative
        # over the 20 seeded tables, the three autoconvolutions and the
        # half triangle
        u0 = triangle_profile()
        j0 = j_functional(u0)
        s2, s1 = ((j_functional(combine(u0, f, e)) - j0) / e for e in (1e-3, 1e-2))
        richardson = s2 + (s2 - s1) * 1e-3 / (1e-2 - 1e-3)
        report = perturbation_report(f, (1e-2, 1e-3), n_max=100)
        assert report.c_f_numeric == pytest.approx(richardson, rel=1e-11, abs=0.0)

    def test_summed_transform_meets_the_exact_one(self):
        # knots 1.5e-3 apart: combine's table rounds u0 + eps f at its knots,
        # and those roundings, divided by the knot gap, shift its slope
        # drops; u0hat + eps fhat adds the two tables' own knot sums.
        # Against 40-digit mpmath at the 33 polish points around the sweep
        # peak, the sum misses by 3.2e-16 of the peak, the merged table by
        # 4.1e-15
        mpmath = pytest.importorskip("mpmath")
        f = profile_from_table([0.08797607, 0.20754026, 0.20901926, 0.37774759, 0.6202316],
                               [-0.073812, 0.41987442, 0.25819725, -0.47057148, 0.87510063])
        u0, eps = triangle_profile(), 1e-2
        u0_hat, f_hat = (continuum._j_sweep(p, 60.0, self.GRID) for p in (u0, f))
        _, lo, hi = continuum._sweep_peak(u0_hat + eps * f_hat, 60.0)
        step = (hi - lo) / 32
        xis = lo + step * np.arange(33)
        summed = (continuum._transform(u0, lo, step, 33)
                  + eps * continuum._transform(f, lo, step, 33))
        with mpmath.workdps(40):
            exact = np.array([float(a + eps * b)
                              for a, b in zip(TestTableOracle.exact_mp(u0, xis),
                                              TestTableOracle.exact_mp(f, xis))])
        peak = np.max(np.abs(exact) * xis**2)
        assert np.max(np.abs(summed - exact) * xis**2) <= 1e-15 * peak
