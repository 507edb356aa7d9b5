"""Tests of the benchmark's oracle against known values.

    python -m pytest perfbench
"""
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

import oracle

DBL_MEAN = math.pi / 2.0
DBL_VAR = 4.0 - math.pi ** 2 / 4.0
TRIPLE_MEAN = (math.pi / 2.0) ** 1.5
TRIPLE_VAR = 8.0 - (math.pi / 2.0) ** 3


def test_mgf_double_at_one_is_one_third():
    assert oracle.mgf_double(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_double_rayleigh_density_integrates_to_one():
    val, _err = integrate.quad(lambda g: g * special.k0(g), 0.0, math.inf, epsabs=0.0, epsrel=1e-12)
    assert val == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("s", [1e-6, 0.1, 0.49, 0.5, 0.7, 0.995, 1.0, 1.02, 3.0, 50.0, 1e4])
def test_mgf_double_is_the_laplace_transform_of_g_k0(s):
    val, _err = integrate.quad(lambda g: math.exp(-s * g) * g * special.k0(g), 0.0, math.inf,
                               epsabs=0.0, epsrel=1e-12, limit=200)
    assert oracle.mgf_double(s) == pytest.approx(val, rel=1e-10)


@pytest.mark.parametrize("s", [1e-9, 1e-3, 0.3, 0.4999, 0.5, 0.5001, 0.98, 0.99, 0.9999, 1.0001,
                               1.01, 1.011, 2.0, 1e8, 1e15, 1e20, 1e200])
def test_mgf_double_branches_match_mpmath(s):
    with mpmath.workdps(50):
        x = mpmath.mpf(s)
        if x < 1:
            r = mpmath.sqrt(1 - x * x)
            ref = (r - x * mpmath.acos(x)) / r ** 3
        else:
            r = mpmath.sqrt(x * x - 1)
            ref = (x * mpmath.acosh(x) - r) / r ** 3
        assert oracle.mgf_double(s) == pytest.approx(float(ref), rel=1e-13)
        assert oracle.one_minus_mgf_double(s) == pytest.approx(float(1 - ref), rel=1e-12)


def _moments(one_minus_mgf, h=1e-3, points=8, degree=6):
    """Mean and variance from (1 - M(s))/s = m1 - m2 s/2 + O(s^2), by a
    polynomial fit on s = h, 2h, ..., points*h extrapolated to s = 0."""
    s = h * np.arange(1, points + 1)
    c = np.polynomial.polynomial.polyfit(s, [one_minus_mgf(x) / x for x in s], degree)
    m1, m2 = c[0], -2.0 * c[1]
    return m1, m2 - m1 * m1


def test_double_rayleigh_mean_and_variance():
    mean, var = _moments(oracle.one_minus_mgf_double)
    assert mean == pytest.approx(DBL_MEAN, rel=1e-12)
    assert var == pytest.approx(DBL_VAR, rel=1e-9)


def test_triple_cascade_mean_and_variance():
    mean, var = _moments(oracle.one_minus_mgf_triple)
    assert mean == pytest.approx(TRIPLE_MEAN, rel=1e-11)
    assert var == pytest.approx(TRIPLE_VAR, rel=1e-8)


def test_mgf_triple_matches_double_integral_of_the_density():
    # E[exp(-s g)] with g = y * h, y Rayleigh and h double Rayleigh, integrated
    # over both factors' densities directly
    s = 0.8
    val, _err = integrate.dblquad(
        lambda h, y: y * math.exp(-0.5 * y * y) * h * special.k0(h) * math.exp(-s * y * h),
        0.0, 12.0, 0.0, 60.0, epsabs=1e-13, epsrel=1e-11)
    assert 1.0 - oracle.one_minus_mgf_triple(s) == pytest.approx(val, rel=1e-8)


def test_capacity_is_below_the_jensen_bound_and_near_it():
    p = {"model": "v2v_ris_ap", "p_s": 10.0, "n_0": 1.0, "beta": 2.7, "n_cells": 16,
         "r_d": 4.0, "r_e": 8.0}
    c = oracle.avg_capacity(p, p["r_d"])
    bound = math.log2(1.0 + p["n_cells"] * DBL_MEAN * oracle.snr_scale(p, p["r_d"]))
    assert bound - 0.05 < c < bound


@pytest.mark.parametrize("p_s", [1.0, 10.0, 1e12])
def test_sampled_asc_agrees_with_the_quadrature(p_s):
    p = {"model": "v2v_ris_ap", "p_s": p_s, "n_0": 1.0, "beta": 2.7, "n_cells": 16,
         "r_d": 4.0, "r_e": 8.0}
    mean, se = oracle.sampled_asc(p, 100_000, seed=1)
    assert abs(mean - oracle.asc(p)) < 5.0 * se
