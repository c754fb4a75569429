"""The array-wide extremum engine against its scalar predecessor and mpmath.

The vectorised ``extreme_points`` must reproduce the scalar Newton loop bit
for bit, and the sups built on it must agree with a 50-digit oracle.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

import scalar_reference as ref
from smoothavg.chebyshev import (
    ChebPoly,
    cheb_mul,
    extreme_points,
    make_g,
    make_h,
    mul_one_minus_x,
    signed_max,
    signed_min,
    sup_abs,
)

N_FAMILY = range(0, 65)


def _families(n):
    g, h = make_g(n), make_h(n)
    return {
        "g": g,
        "h": h,
        "(1-x)g^2": mul_one_minus_x(cheb_mul(g, g)),
        "(1-x)h^2": mul_one_minus_x(cheb_mul(h, h)),
        "(1-x)g": mul_one_minus_x(g),
    }


def _assert_matches_reference(p, label):
    assert np.array_equal(extreme_points(p), ref.extreme_points(p)), label
    assert signed_max(p) == ref.signed_max(p), label
    assert signed_min(p) == ref.signed_min(p), label
    assert sup_abs(p) == ref.sup_abs(p), label


class TestMatchesScalarReference:
    @pytest.mark.parametrize("family", list(_families(0)))
    def test_named_family(self, family):
        for n in N_FAMILY:
            _assert_matches_reference(_families(n)[family], f"{family} n={n}")

    def test_random_up_to_degree_131(self):
        rng = np.random.default_rng(2024)
        for deg in list(range(0, 12)) + list(range(12, 132, 7)) + [131]:
            p = ChebPoly(rng.standard_normal(deg + 1) * rng.uniform(0.1, 10.0))
            _assert_matches_reference(p, f"random degree {deg}")

    def test_negation_leaves_points_unchanged(self):
        rng = np.random.default_rng(5)
        for deg in (1, 4, 33, 129):
            p = ChebPoly(rng.standard_normal(deg + 1))
            assert np.array_equal(extreme_points(p), extreme_points(ChebPoly(-p.coeffs)))


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
    g = make_g(64)
    q = ChebPoly(g.coeffs * (1.0 + 0.2 * rng.standard_normal(g.coeffs.size)))
    polys += [mul_one_minus_x(cheb_mul(g, g)), mul_one_minus_x(cheb_mul(q, q))]
    return polys


class TestMpmathOracle:
    @pytest.mark.parametrize("p", _oracle_polys(), ids=lambda p: f"deg{p.degree}")
    def test_sup_abs_and_signed_min(self, p):
        vmax, vmin = _oracle_extrema(p)
        tol = 4 * p.degree * np.finfo(float).eps * np.abs(p.coeffs).sum()
        assert sup_abs(p)[0] == pytest.approx(max(vmax, -vmin), rel=0, abs=tol)
        assert signed_min(p)[0] == pytest.approx(vmin, rel=0, abs=tol)
