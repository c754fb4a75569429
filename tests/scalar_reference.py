"""The scalar extremum search that the array-wide ``extreme_points`` replaced.

One Newton loop per grid seed, and a second full search on ``-p`` for the
minimum.  Kept only as the reference that the vectorised engine must match
bit for bit.  ``extreme_points`` is memoised on the polynomial, so checking
``signed_max``, ``signed_min`` and ``sup_abs`` of one p costs two searches.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from smoothavg.chebyshev import ChebPoly

NEWTON_MAX_ITER = 40


def newton_refine(dc, ddc, x0, lo, hi):
    x = x0
    for _ in range(NEWTON_MAX_ITER):
        d1 = npcheb.chebval(x, dc)
        d2 = npcheb.chebval(x, ddc)
        if d2 == 0.0:
            break
        step = d1 / d2
        x_new = x - step
        if not (lo <= x_new <= hi):
            break
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


@lru_cache(maxsize=4)
def extreme_points(p):
    c = p.coeffs
    if c.size <= 1:
        return np.array([-1.0, 1.0])
    xs = np.cos(np.linspace(np.pi, 0.0, 32 * (p.degree + 2)))
    vals = npcheb.chebval(xs, c)
    dc = npcheb.chebder(c)
    ddc = npcheb.chebder(dc)

    interior = np.arange(1, xs.size - 1)
    is_max = (vals[interior] >= vals[interior - 1]) & (vals[interior] >= vals[interior + 1])
    is_min = (vals[interior] <= vals[interior - 1]) & (vals[interior] <= vals[interior + 1])
    seeds = interior[is_max | is_min]

    pts = [-1.0, 1.0]
    for i in seeds:
        pts.append(newton_refine(dc, ddc, xs[i], xs[i - 1], xs[i + 1]))
    pts.extend(xs[seeds])
    return np.clip(np.asarray(pts), -1.0, 1.0)


def signed_max(p):
    xs = extreme_points(p)
    vals = npcheb.chebval(xs, p.coeffs)
    vmax = float(np.max(vals))
    tie = vals >= vmax - 1e-13 * max(1.0, abs(vmax))
    i = int(np.argmax(np.where(tie, xs, -np.inf)))
    return vmax, float(xs[i])


def signed_min(p):
    v, x = signed_max(ChebPoly(-p.coeffs))
    return -v, x


def sup_abs(p):
    vmax, xmax = signed_max(p)
    vmin, xmin = signed_min(p)
    if -vmin > vmax:
        return -vmin, xmin
    return vmax, xmax
