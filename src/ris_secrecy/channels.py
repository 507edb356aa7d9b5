"""Per-element fading-channel models.

Two gain laws appear in the two system models, both products of
independent unit-scale Rayleigh factors (PDF g*exp(-g^2/2)): the
double-Rayleigh (two factors, PDF g*K0(g)) and the triple cascade (three).
This module provides their exact moments, the complements 1 - MGF (accurate
where the MGF is near one) that the capacity integrals use, and the Rayleigh
inverse transform the Monte-Carlo draws use.
"""
import math

import numpy as np

from .specfun import QuadratureError, integrate

# Exact per-element gain moments: the V2V access point's links are
# double-Rayleigh, the relay's links the triple cascade.
DOUBLE_RAYLEIGH_MEAN = math.pi / 2.0
DOUBLE_RAYLEIGH_VARIANCE = 4.0 - math.pi ** 2 / 4.0
TRIPLE_CASCADE_MEAN = (math.pi / 2.0) ** 1.5
TRIPLE_CASCADE_VARIANCE = 8.0 - (math.pi / 2.0) ** 3

# A variant constant set for the triple cascade circulates whose variance
# and mean coefficient are mutually inconsistent with the cascade moments
# (a Monte-Carlo check settles which set is right). It stays selectable so
# the corresponding outage formula can be reproduced verbatim for comparison.
PAPER_LITERAL_TRIPLE_VARIANCE = 8.0 - (math.pi / 2.0) ** 1.5
PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF = math.pi ** 3 / (2.0 * math.sqrt(2.0))

# Conditioning integral of the triple-cascade 1 - MGF over the Rayleigh
# factor, truncated at 8.7 where exp(-y^2/2) < 4e-17. Its absolute floor of
# 1e-300 (at rel_tol 1e-11) only matters for values below 1e-289
# (s < 1e-289), which keep about 8 digits.
_TRIPLE_BREAKS = (0.0, 1.0, 8.7)


# Near s = 1 the elementary form cancels; there the MGF is evaluated as
# (4/3) 2F1(2, 1/2; 5/2; x)/(1+s)^2 with x = (s-1)/(s+1), summing the series
# whose n-th coefficient is 3(n+1)/((2n+1)(2n+3)) (17 terms reach 1e-17 for
# |x| <= 0.1). Past s = 1e8 the tail (ln 2s - 1)/s^2 is exact to 1e-16.
_SERIES_X = 0.1
_SERIES = tuple(3.0 * (n + 1) / ((2 * n + 1) * (2 * n + 3)) for n in range(16, -1, -1))
_TAIL_S = 1e8


def _as_arguments(s, name: str):
    arr = np.asarray(s, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError(f"{name} requires s >= 0")
    return arr


def _mgf_dbl(s):
    # Elementary Laplace transform of g*K0(g) (Gradshteyn & Ryzhik 6.611):
    # (s*A(s) - 1)/(s^2 - 1) with A = acosh(s)/sqrt(s^2-1) for s > 1 and
    # acos(s)/sqrt(1-s^2) for s < 1.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = s * s - 1.0
        a = np.where(s < 1.0, np.arccos(np.minimum(s, 1.0)), np.arccosh(np.maximum(s, 1.0)))
        out = (s * a / np.sqrt(np.abs(u)) - 1.0) / u
        x = (s - 1.0) / (s + 1.0)
    near = np.abs(x) <= _SERIES_X
    if near.any():
        xn = x[near]
        out[near] = (4.0 / 3.0) * np.polyval(_SERIES, xn) / ((1.0 + s[near]) ** 2)
    far = s > _TAIL_S
    if far.any():
        sf = np.minimum(s[far], 1e300)  # the MGF underflows to 0 past here
        out[far] = (np.log(2.0 * sf) - 1.0) / sf / sf
    return out


# Below this argument 1 - M_dbl has its own closed form; above it
# M_dbl <= 0.53, so 1 - M loses no digits.
_COMPLEMENT_S = 0.5


def _one_minus_mgf_dbl(s):
    # 1 - M_dbl(s) without forming M near 1: for s < 1,
    # 1 - M = s*(acos(s) - s*sqrt(1-s^2))/(1-s^2)^(3/2), and for s < 0.5 the
    # difference stays above pi/3 - 0.44, so no digits cancel.
    with np.errstate(invalid="ignore", over="ignore"):
        r2 = 1.0 - s * s
        r = np.sqrt(r2)
        out = s * (np.arccos(s) - s * r) / (r2 * r)
    high = s >= _COMPLEMENT_S
    if high.any():
        out[high] = 1.0 - _mgf_dbl(s[high])
    return out


def one_minus_mgf_double_rayleigh(s):
    """1 - E[exp(-s*g)] for the double-Rayleigh gain, s >= 0, accurate to a
    few ulps relative also where the MGF is close to one.

    Accepts a scalar (returns a float) or an array (returns an array).
    """
    arr = _as_arguments(s, "one_minus_mgf_double_rayleigh")
    out = _one_minus_mgf_dbl(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def one_minus_mgf_triple_cascade(s):
    """1 - E[exp(-s*g)] for the triple-cascade gain, s >= 0.

    Conditioning on the Rayleigh factor y reduces it to one quadrature of
    y*exp(-y^2/2)*(1 - M_dbl(s*y)), so the complement keeps its relative
    accuracy where the MGF is close to one; all arguments share one adaptive
    run. Two bounds follow from the quadrature tolerances. Below s = 1e-289
    the value falls under the absolute floor and keeps only about 8 digits
    (at s = 1e-300 it is 3e-9 relative off s times the mean gain). From
    s = 1e6 up it is within 1e-10 of one, so the MGF recovered as 1 minus it
    has only absolute accuracy, about 1e-11 (22% relative at s = 1e6).
    Accepts a scalar (returns a float) or an array (returns an array). A
    QuadratureError's ``component`` is the flat index of the argument whose
    integral failed.
    """
    arr = _as_arguments(s, "one_minus_mgf_triple_cascade")
    flat = arr.ravel()
    # 1 - M_dbl is 0 at s = 0 and 1 to double precision past s = 1e300
    out = np.where(flat == 0.0, 0.0, 1.0)
    live = (flat > 0.0) & (flat <= 1e300)
    if live.any():
        sl = flat[live]

        def integrand(y):
            return (y * np.exp(-0.5 * y * y))[:, None] * _one_minus_mgf_dbl(np.multiply.outer(y, sl))

        try:
            out[live] = integrate(integrand, _TRIPLE_BREAKS, rel_tol=1e-11, abs_tol=1e-300,
                                  max_subdivisions=400)
        except QuadratureError as exc:
            exc.component = int(np.flatnonzero(live)[exc.component])
            raise
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def rayleigh_inplace(u: np.ndarray) -> np.ndarray:
    """Turn uniforms U in [0, 1) into unit-scale Rayleigh gains in place and
    return the array: sqrt(-2 log(1 - U)), the inverse transform. 1 - U is
    in (0, 1], so the log never sees zero; no temporary array is made."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.multiply(u, -2.0, out=u)
    return np.sqrt(u, out=u)

