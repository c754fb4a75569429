"""The extremum engine against closed forms and a 50-digit mpmath oracle.

``extreme_points`` takes the stationary points from the roots of p' (or,
under a factored weight W = (2 (1 - x))^m Q, of (W p^2)' / p with the
factor (2 (1 - x))^(m-1) divided out), so the sups built on it must match
the oracle within rounding, including at the multiple roots that the named
families and difference stencils have.  The oracles build the full |s|^2
from the taps themselves, independent of the factored form.
"""

import numpy as np
import pytest
from mpmath import mp, mpf
from numpy.polynomial import chebyshev as npcheb

import smoothavg.cli as cli
from smoothavg.chebyshev import (
    ChebPoly,
    _stationary_points,
    _top,
    cheb_eval,
    cheb_mul,
    extrema,
    extreme_points,
    mul_one_minus_x,
    signed_max,
    signed_min,
    sup_abs,
)
from smoothavg.kernel import DiscreteKernel, box_kernel, has_nonneg_fourier, symbol, triangle_kernel
from smoothavg.smoothness import (
    HypothesisViolated,
    OperatorSymbol,
    _weighted_sup,
    _weighted_values,
    first_deriv_constant,
    first_deriv_constants,
    kernel_constants,
    laplacian_constant,
    laplacian_constants,
    operator_constant,
    verify_theorem1,
    verify_theorem1_batch,
    verify_theorem2,
    verify_theorem2_batch,
)

from helpers import random_nonneg_fourier_kernel, random_symmetric_kernel

N_CLOSED_FORM = range(0, 65)
N_ORACLE = (0, 1, 2, 3, 7, 16, 31, 64)


def _families(n):
    g, h = symbol(triangle_kernel(n)), symbol(box_kernel(n))
    return {
        "g": g,
        "h": h,
        "(1-x)g^2": mul_one_minus_x(cheb_mul(g, g)),
        "(1-x)h^2": mul_one_minus_x(cheb_mul(h, h)),
        "(1-x)g": mul_one_minus_x(g),
    }


def _tol(p):
    return 4 * p.degree * np.finfo(float).eps * np.abs(p.coeffs).sum()


class TestClosedForms:
    def test_family_sups(self):
        # the products' float coefficients differ from the exact ones by
        # rounding, which moves the sup by up to about 12 deg eps relative
        # (at (1-x)h_58^2); the closed forms hold for the exact polynomials
        for n in N_CLOSED_FORM:
            fam = _families(n)
            for name, exact in (("g", 1.0), ("h", 1.0), ("(1-x)h^2", 2 / (2 * n + 1) ** 2),
                                ("(1-x)g", 2 / (n + 1) ** 2)):
                p = fam[name]
                rel = 16 * max(p.degree, 1) * np.finfo(float).eps
                assert sup_abs(p)[0] == pytest.approx(exact, rel=rel, abs=0), (name, n)


class TestRootEngine:
    def test_random_up_to_degree_131(self):
        # no sample of p on a dense Chebyshev grid may beat the extrema
        rng = np.random.default_rng(2024)
        xs = np.cos(np.linspace(np.pi, 0.0, 20_001))
        for deg in list(range(0, 12)) + list(range(12, 132, 7)) + [131]:
            p = ChebPoly(rng.standard_normal(deg + 1) * rng.uniform(0.1, 10.0))
            vals, tol = npcheb.chebval(xs, p.coeffs), _tol(p)
            assert signed_max(p)[0] >= vals.max() - tol, deg
            assert signed_min(p)[0] <= vals.min() + tol, deg
            assert sup_abs(p)[0] >= np.abs(vals).max() - tol, deg

    def test_negation_leaves_points_unchanged(self):
        rng = np.random.default_rng(5)
        for deg in (1, 4, 33, 129):
            p = ChebPoly(rng.standard_normal(deg + 1))
            assert np.array_equal(extreme_points(p), extreme_points(ChebPoly(-p.coeffs)))

    def test_unit_weight_leaves_points_unchanged(self):
        rng = np.random.default_rng(11)
        for deg in (0, 1, 4, 33, 129):
            p = ChebPoly(rng.standard_normal(deg + 1))
            assert np.array_equal(extreme_points(p, (0, ChebPoly([1.0]))), extreme_points(p)), deg

    @pytest.mark.parametrize("taps", [(-1.0, 1.0), (-1.0, 3.0, -3.0, 1.0), (1.0, 0.0, -1.0),
                                      (2.0, 1.0, -0.5)])
    def test_power_of_two_weight_scale_leaves_points_unchanged(self, taps):
        # Q is scaled by a power of two before r is formed, which is exact,
        # so a weight scaled by any power of two in range gives the same points
        rng = np.random.default_rng(73)
        m, q = OperatorSymbol(taps).weight
        for deg in (0, 3, 30, 64):
            p = ChebPoly(rng.standard_normal(deg + 1))
            points = extreme_points(p, (m, q))
            for k in (-900, -3, 1, 500, 1020):
                scaled = (m, ChebPoly(np.ldexp(q.coeffs, k)))
                assert np.array_equal(extreme_points(p, scaled), points), (deg, k)

    @pytest.mark.parametrize("taps", [(-1.0, 1.0), (1.0, -2.0, 1.0), (-1.0, 3.0, -3.0, 1.0),
                                      (1.0, 0.0, -1.0), (2.0, 1.0, -0.5)])
    def test_weighted_points_hold_the_max(self, taps):
        # no sample of |s| |p| on a dense grid may beat its max over the points
        # of extreme_points(p, (m, Q)); |s| is taken straight from the taps
        rng = np.random.default_rng(41)
        w = OperatorSymbol(taps).weight
        m, q = w
        grid = np.cos(np.linspace(np.pi, 0.0, 20_001))

        def phi(x, p):
            s = sum(t * np.exp(1j * k * np.arccos(x)) for k, t in enumerate(taps))
            return np.abs(s) * np.abs(npcheb.chebval(x, p.coeffs))

        for deg in (0, 1, 5, 20, 64):
            p = ChebPoly(rng.standard_normal(deg + 1))
            pts = extreme_points(p, w)
            assert pts.size <= deg + m + q.degree + 1, deg  # endpoints and deg r roots
            assert phi(pts, p).max() >= phi(grid, p).max() * (1 - 1e-13), deg


def _mp_der(c):
    """Chebyshev coefficients of p' from d_{k-1} = d_{k+1} + 2k c_k."""
    n = len(c) - 1
    d = [mpf(0)] * (n + 2)
    for k in range(n, 0, -1):
        d[k - 1] = d[k + 1] + 2 * k * c[k]
    d[0] /= 2
    return d[: max(n, 1)]


def _mp_eval(c, x):
    b1 = b2 = mpf(0)
    x2 = 2 * x
    for ck in c[:0:-1]:
        b1, b2 = x2 * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def _oracle_extrema(p):
    """(max, min) of p on [-1, 1] in 50-digit arithmetic.

    Candidates: a Chebyshev grid of 4*(deg+2)+1 points, and every root of p'
    that findroot locates inside a grid cell pair around a local extremum of
    the grid values where p' changes sign.
    """
    with mp.workdps(50):
        c = [mpf(float(v)) for v in p.coeffs]
        dc = _mp_der(c)

        def dp(x):
            return _mp_eval(dc, x)

        m = 4 * (p.degree + 2)
        xs = [mp.cos(mp.pi * (m - j) / m) for j in range(m + 1)]
        vals = [_mp_eval(c, x) for x in xs]
        cands = list(vals)
        for j in range(1, m):
            if (vals[j] - vals[j - 1]) * (vals[j + 1] - vals[j]) > 0:
                continue
            a, b = xs[j - 1], xs[j + 1]
            if dp(a) * dp(b) >= 0:
                continue
            r = mp.findroot(dp, (a, b), solver="anderson", tol=mpf(10) ** -40, verify=False)
            if a <= r <= b:
                cands.append(_mp_eval(c, r))
        return float(max(cands)), float(min(cands))


def _oracle_polys():
    rng = np.random.default_rng(31)
    polys = [ChebPoly(rng.standard_normal(d + 1)) for d in (1, 2, 5, 17, 40, 64, 129)]
    # extrema clustered near x = 1: (1-x)g_64^2, and (1-x)q^2 for a seeded
    # perturbation q of g_64
    g = symbol(triangle_kernel(64))
    q = ChebPoly(g.coeffs * (1.0 + 0.2 * rng.standard_normal(g.coeffs.size)))
    polys += [mul_one_minus_x(cheb_mul(g, g)), mul_one_minus_x(cheb_mul(q, q))]
    return polys


def _assert_matches_oracle(p, label, min_tol=None):
    vmax, vmin = _oracle_extrema(p)
    tol = _tol(p)
    assert sup_abs(p)[0] == pytest.approx(max(vmax, -vmin), rel=0, abs=tol), label
    assert signed_max(p)[0] == pytest.approx(vmax, rel=0, abs=tol), label
    assert signed_min(p)[0] == pytest.approx(vmin, rel=0, abs=min_tol or tol), label


def _magnitude_squared(taps):
    """|s|^2 of the taps in x = cos xi, r(0) + 2 sum_k r(k) T_k(x) with r the
    tap autocorrelation, straight from np.correlate."""
    t = np.asarray(taps, dtype=float)
    r = np.correlate(t, t, mode="full")[t.size - 1 :]
    return ChebPoly(np.concatenate([r[:1], 2.0 * r[1:]]))


def _multiple_root_polys():
    """(label, p, tolerance of signed_min or None): (1-x)^k q, whose p' has
    a root of order k-1 at x = 1, and |s|^2 p^2 for the -1,3,-3,1 stencil,
    where |s|^2 = (2-2x)^3."""
    rng = np.random.default_rng(17)
    q = ChebPoly(rng.standard_normal(12))
    cases = []
    for k in (3, 5, 8):
        c = q.coeffs
        for _ in range(k):
            c = npcheb.chebmul([1.0, -1.0], c)
        cases.append((f"(1-x)^{k}q", ChebPoly(c), None))
    # the minima of |s|^2 p^2 are its double zeros, where the value is
    # Clenshaw's rounding: -3.7e-16 against the oracle's 1.7e-16 for g_8,
    # beyond 4 deg eps ||c||_1 but within the a priori deg^2 eps ||c||_1
    mag = _magnitude_squared([-1.0, 3.0, -3.0, 1.0])
    for label, p in (("h_8", symbol(box_kernel(8))), ("g_8", symbol(triangle_kernel(8))),
                     ("random", ChebPoly(rng.standard_normal(9)))):
        sq = cheb_mul(mag, cheb_mul(p, p))
        cases.append((f"|s|^2 {label}^2", sq, sq.degree**2 * np.finfo(float).eps * np.abs(sq.coeffs).sum()))
    return cases


class TestMpmathOracle:
    @pytest.mark.parametrize("p", _oracle_polys(), ids=lambda p: f"deg{p.degree}")
    def test_sup_abs_and_signed_min(self, p):
        _assert_matches_oracle(p, f"degree {p.degree}")

    @pytest.mark.parametrize("family", list(_families(0)))
    def test_named_family(self, family):
        for n in N_ORACLE:
            _assert_matches_oracle(_families(n)[family], f"{family} n={n}")

    @pytest.mark.parametrize("label,p,min_tol", _multiple_root_polys(),
                             ids=[case[0] for case in _multiple_root_polys()])
    def test_multiple_roots(self, label, p, min_tol):
        _assert_matches_oracle(p, label, min_tol)


def _reference_points(p, symbol):
    """extreme_points by numpy.polynomial's generic routines, with the
    undeflated candidate rule: the roots of 2 W p' + W' p, W the full |s|^2
    of the symbol's taps (W = 1 without a symbol)."""
    w = np.array([1.0]) if symbol is None else _magnitude_squared(symbol.taps).coeffs
    r = npcheb.chebadd(2.0 * npcheb.chebmul(w, npcheb.chebder(p.coeffs)),
                       npcheb.chebmul(npcheb.chebder(w), p.coeffs))
    roots = npcheb.chebroots(r)
    real = roots.real[(np.abs(roots.imag) <= 1e-4) & (np.abs(roots.real) <= 1.0)]
    return np.concatenate(([-1.0], np.sort(real), [1.0]))


_REFERENCE_WEIGHTS = {
    "none": None,
    "grad": OperatorSymbol([-1.0, 1.0]),
    "laplacian": OperatorSymbol([1.0, -2.0, 1.0]),
    "third": OperatorSymbol([-1.0, 3.0, -3.0, 1.0]),
}


class TestAgainstNumpyPolynomial:
    """The arrays-only engine against numpy.polynomial's chebder, chebmul,
    chebadd and chebroots on the same candidate rule."""

    @staticmethod
    def _assert_points_match(a, b, label):
        # each point farther than 1e-8 from +-1 has a partner in the other
        # set within 1e-10, widened by 2e-12 / (1 - |x|) near the ends: a
        # weight that vanishes like (1 - x)^3 puts a double root of r at
        # x = 1, which rounding splits either way by ~1e-7 (real or complex)
        # and which leaves the roots at distance d from it conditioned like
        # 1 / d (up to 6e-13 / d apart at degrees 30-131)
        for x in a[np.abs(a) < 1.0 - 1e-8]:
            tol = 1e-10 + 2e-12 / (1.0 - abs(x))
            assert np.min(np.abs(b - x)) <= tol, (label, x)

    @pytest.mark.parametrize("name", list(_REFERENCE_WEIGHTS))
    @pytest.mark.parametrize("deg", [0, 1, 2, 8, 30, 64, 131])
    def test_points_and_sups(self, deg, name):
        symbol = _REFERENCE_WEIGHTS[name]
        weight = None if symbol is None else symbol.weight
        rng = np.random.default_rng(1000 + deg)
        for _ in range(3):
            p = ChebPoly(rng.standard_normal(deg + 1))
            got, want = extreme_points(p, weight), _reference_points(p, symbol)
            assert got[0] == -1.0 and got[-1] == 1.0 and np.all(np.diff(got) >= 0)
            self._assert_points_match(got, want, (deg, name))
            self._assert_points_match(want, got, (deg, name))
            # the sups agree within Clenshaw's rounding bound at their points
            if symbol is None:
                ref = np.abs(npcheb.chebval(want, p.coeffs)).max()
                assert sup_abs(p)[0] == pytest.approx(ref, rel=0, abs=_tol(p))
            else:
                def wsup(xs):
                    return np.max(symbol.magnitude(xs) * np.abs(npcheb.chebval(xs, p.coeffs)))

                scale = symbol.magnitude(np.array([-1.0, 1.0])).max()  # max |s|, at x = -1 here
                assert wsup(got) == pytest.approx(wsup(want), rel=0, abs=scale * _tol(p))

    @pytest.mark.parametrize("name", list(_REFERENCE_WEIGHTS))
    def test_constant_gives_the_endpoints(self, name):
        # under a weight the roots of W' (at x = 1 for these stencils) are
        # candidates too, so only the endpoints may appear
        symbol = _REFERENCE_WEIGHTS[name]
        weight = None if symbol is None else symbol.weight
        for value in (1.0, -2.5, 0.0):
            pts = extreme_points(ChebPoly([value]), weight)
            assert pts[0] == -1.0 and pts[-1] == 1.0
            assert np.all(np.abs(np.abs(pts) - 1.0) <= 1e-7), (name, value, pts)
            if weight is None:
                assert pts.tolist() == [-1.0, 1.0]


_STACK_WEIGHTS = [None, OperatorSymbol([-1.0, 1.0]), OperatorSymbol([1.0, -2.0, 1.0]),
                  OperatorSymbol([-1.0, 3.0, -3.0, 1.0])]


def _symbol_rows(kernels):
    return np.array([symbol(u).coeffs for u in kernels])


def _assert_rows_match(c, symbols):
    """Each row p of the stack c, with its own symbol (None for no weight),
    gets bitwise the points and sups it gets on its own, as ChebPoly(p)
    with its zero tail trimmed: the stacked points (padding dropped) are
    its extreme_points, its unweighted extrema those of signed_max and
    signed_min, and its sup the max over its own points of |s| * |p|
    (|p| for None: the value of sup_abs), with the minimum of p, for None,
    that of signed_min."""
    if not isinstance(symbols, list):
        symbols = [symbols] * len(c)
    weights = [None if s is None else s.weight for s in symbols]
    xs = _stationary_points(c, weights)
    maxima, max_args, minima, min_args = extrema(c)
    sups, sup_args = _weighted_sup(c, symbols)
    points, vals = _weighted_values(c, symbols)
    neg, neg_args = _top(points, -vals)
    for i, (row, symbol, w) in enumerate(zip(c, symbols, weights)):
        p = ChebPoly(row)
        alone = extreme_points(p, w)
        assert np.array_equal(np.sort(xs[i][xs[i] > -1.0]), alone[alone > -1.0]), i
        assert np.array_equal(xs[i], points[i]), i
        assert (maxima[i], max_args[i]) == signed_max(p), i
        assert (minima[i], min_args[i]) == signed_min(p), i
        scale = np.ones_like(alone) if symbol is None else symbol.magnitude(alone)
        (value,), (x,) = _top(alone[None], (scale * np.abs(cheb_eval(p, alone)))[None])
        assert (sups[i], sup_args[i]) == (value, x), i
        if symbol is None:
            assert sups[i] == sup_abs(p)[0], i
            assert (-neg[i], neg_args[i]) == signed_min(p), i


class TestStackedEngine:
    """One stacked pass gives every row bitwise what it gets on its own."""

    @pytest.mark.parametrize("weight", _STACK_WEIGHTS, ids=["none", "grad", "laplacian", "third"])
    def test_random_kernels_bitwise(self, weight):
        rng = np.random.default_rng(2718)
        for n in range(0, 65):
            kernels = [random_symmetric_kernel(rng, n) for _ in range(2)]
            kernels += [random_nonneg_fourier_kernel(rng, n) for _ in range(2)]
            _assert_rows_match(_symbol_rows(kernels), weight)

    @pytest.mark.parametrize("weight", _STACK_WEIGHTS, ids=["none", "grad", "laplacian", "third"])
    def test_zero_top_rows_mixed_with_full_degree(self, weight):
        # halves ending in exact zeros give symbols of lower degree; rows of
        # the stack keep their zero tails, and a row of zeros joins them
        rng = np.random.default_rng(99)
        for n in (1, 2, 5, 9, 20):
            kernels = []
            for zeros in (0, 1, 0, 2, n, 0):
                half = rng.uniform(0.1, 1.0, n + 1)
                half[n + 1 - min(zeros, n):] = 0.0
                kernels.append(DiscreteKernel(half / (half[0] + 2 * half[1:].sum())))
            c = np.array([2.0 * u.half for u in kernels])
            c[:, 0] = [u.half[0] for u in kernels]  # symbol(u) without its trim
            assert not np.all(c[:, -1])
            _assert_rows_match(np.vstack([c, np.zeros(n + 1)]), weight)
            if weight is not None:  # the kernel API takes the same zero tails
                for u, value in zip(kernels, _weighted_sup(c, [weight] * len(c))[0]):
                    assert operator_constant(u, weight).constant == value

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_interior_roots(self, n):
        rng = np.random.default_rng(7 + n)
        kernels = [box_kernel(n), triangle_kernel(n)] + [random_symmetric_kernel(rng, n) for _ in range(4)]
        for weight in _STACK_WEIGHTS:
            _assert_rows_match(_symbol_rows(kernels), weight)

    def test_batches_match_the_single_kernel_checks(self):
        # a row of a stack of ten gets bitwise the report of its stack of one
        rng = np.random.default_rng(5)
        for n in (1, 4, 8):
            kernels = [random_symmetric_kernel(rng, n) for _ in range(10)]
            reports = first_deriv_constants(kernels)
            for u, r, outcome in zip(kernels, reports, verify_theorem1_batch(kernels)):
                rep = verify_theorem1(u)
                assert r.constant == rep.constant and outcome.gap == rep.gap and r == outcome == rep
            kernels = [random_nonneg_fourier_kernel(rng, n) for _ in range(10)] + [box_kernel(n)]
            reports = laplacian_constants(kernels)
            outcomes = verify_theorem2_batch(kernels)
            for u, r, outcome in zip(kernels, reports, outcomes):
                single = laplacian_constant(u)
                assert r.constant == single.constant and r == single
                if isinstance(outcome, HypothesisViolated):
                    with pytest.raises(HypothesisViolated) as exc:
                        verify_theorem2(u)
                    assert str(exc.value) == str(outcome)
                else:
                    assert outcome.gap == verify_theorem2(u).gap
                    assert outcome == r
            assert isinstance(outcomes[-1], HypothesisViolated)  # the box kernel's sign change

    def test_mixed_stacks_bitwise(self):
        # rows of random radii 0..64, each with its own weight (none, the
        # model stencils, and stencils whose Q is not 1, for m = 0 and
        # m = 1), some with zero tails and one of zeros: every row gets
        # bitwise what it gets in a stack of one
        rng = np.random.default_rng(4242)
        weights = _STACK_WEIGHTS + [OperatorSymbol([1.0, 0.0, -1.0]),
                                    OperatorSymbol([2.0, 1.0, -0.5])]
        for _ in range(12):
            rows, symbols = [], []
            for _ in range(10):
                n = int(rng.integers(0, 65))
                u = (random_symmetric_kernel if rng.random() < 0.5
                     else random_nonneg_fourier_kernel)(rng, n)
                half = u.half.copy()
                zeros = int(rng.integers(0, n + 1)) if rng.random() < 0.3 else 0
                half[n + 1 - zeros:] = 0.0
                rows.append(np.concatenate([half[:1], 2.0 * half[1:]]))
                symbols.append(weights[int(rng.integers(len(weights)))])
            rows.append(np.zeros(1))
            symbols.append(weights[int(rng.integers(len(weights)))])
            c = np.zeros((len(rows), max(r.size for r in rows)))
            for target, row in zip(c, rows):
                target[: row.size] = row
            _assert_rows_match(c, symbols)

    def test_mixed_radii_reports_match_the_single_kernel_calls(self):
        rng = np.random.default_rng(808)
        kernels = [box_kernel(n) for n in (0, 3, 64)] + [triangle_kernel(n) for n in (1, 30)]
        kernels += [random_symmetric_kernel(rng, int(n)) for n in rng.integers(0, 65, 6)]
        kernels += [random_nonneg_fourier_kernel(rng, int(n)) for n in rng.integers(0, 65, 6)]
        for u, rep in zip(kernels, first_deriv_constants(kernels)):
            single = first_deriv_constant(u)
            assert rep == single and rep.constant == single.constant
        for u, rep in zip(kernels, laplacian_constants(kernels)):
            single = laplacian_constant(u)
            assert rep == single and rep.constant == single.constant
        for u, outcome in zip(kernels, verify_theorem2_batch(kernels)):
            if isinstance(outcome, HypothesisViolated):
                with pytest.raises(HypothesisViolated) as exc:
                    verify_theorem2(u)
                assert str(exc.value) == str(outcome)
            else:
                assert outcome == verify_theorem2(u)

    @pytest.mark.parametrize("taps", [None, (-1.0, 3.0, -3.0, 1.0), (1.0, 0.0, -1.0),
                                      (2.0, 1.0, -0.5)])
    def test_kernel_constants_match_the_single_kernel_calls(self, taps):
        # analyze's one pass: M(u), L(u), the operator's constant and the
        # minimum of p_u, each bitwise what its own call gives
        rng = np.random.default_rng(1234)
        operator = None if taps is None else OperatorSymbol(taps)
        kernels = [box_kernel(n) for n in (0, 1, 2, 5, 13, 30, 64)]
        kernels += [triangle_kernel(n) for n in (0, 1, 2, 5, 13, 30, 64)]
        kernels += [random_symmetric_kernel(rng, n) for n in (0, 1, 2, 5, 13, 30, 64)]
        kernels += [random_nonneg_fourier_kernel(rng, n) for n in (1, 2, 5, 13, 30, 64)]
        for u in kernels:
            reports, nonneg = kernel_constants(u, operator, nonneg=True)
            single = [first_deriv_constant(u), laplacian_constant(u)]
            if operator is not None:
                single.append(operator_constant(u, operator))
            assert [r.to_dict() for r in reports] == [r.to_dict() for r in single], u.n
            assert [r.arg_x for r in reports] == [r.arg_x for r in single], u.n
            flag, witness = has_nonneg_fourier(u)
            assert nonneg[0] is flag and (witness is None) == (nonneg[1] is None), u.n
            assert witness is None or witness.hex() == nonneg[1].hex(), u.n
            assert kernel_constants(u, operator) == (reports, None)


class TestEigensolveCount:
    """The random batteries of verify take one colleague-matrix eigensolve per
    radius n and check, not one per kernel."""

    @staticmethod
    def _count(monkeypatch, name):
        eigvals, batches, calls = np.linalg.eigvals, [], [0]

        def counted(a):
            calls[0] += 1
            return eigvals(a)

        batch = getattr(cli, name)

        def recorded(kernels):
            before = calls[0]
            out = batch(kernels)
            batches.append((kernels[0].n, len(kernels), calls[0] - before))
            return out

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        monkeypatch.setattr(cli, name, recorded)
        return batches

    def test_thm1_one_eigensolve_per_n(self, monkeypatch, capsys):
        batches = self._count(monkeypatch, "verify_theorem1_batch")
        assert cli.main(["verify", "thm1", "--n-max", "8"]) == 0
        assert [(n, size) for n, size, _ in batches] == [(n, 40) for n in range(1, 9)]
        assert all(calls <= 1 for _, _, calls in batches), batches

    def test_thm2_one_eigensolve_per_n_and_check(self, monkeypatch, capsys):
        batches = self._count(monkeypatch, "verify_theorem2_batch")
        assert cli.main(["verify", "thm2", "--n-max", "8"]) == 0
        assert [(n, size) for n, size, _ in batches] == [(n, 40) for n in range(1, 9)]
        assert all(calls <= 2 for _, _, calls in batches), batches  # min p_u and L(u)
