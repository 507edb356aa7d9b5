"""Independent reference values for the benchmark's correctness checks.

Nothing here imports the package under test. The average link capacity is
evaluated from the MGF identity

    C = (1/ln 2) * int_0^inf (1 - M(z)^N) exp(-z)/z dz

with scipy's adaptive quadrature (QUADPACK), where M is the per-cell MGF at
z times the link's SNR scale:

* double Rayleigh (v2v): the elementary Laplace transform of g*K0(g),
  ``(s acosh s - sqrt(s^2-1)) / (s^2-1)^(3/2)`` (``acos`` branch for s < 1);
* triple cascade (relay): a nested quadrature of the double-Rayleigh form
  over the Rayleigh source factor y, ``int y exp(-y^2/2) M_dbl(s y) dy``.

All integrands carry 1 - M rather than M, so no digits are lost where M is
close to one. The high-SNR reference is a plain NumPy simulation.
"""
import math

import mpmath
import numpy as np
from scipy import integrate

_LN2 = math.log(2.0)
_SERIES_MAX_S = 0.5
_NEAR_ONE = 1e-2
_Z_MAX = 50.0  # exp(-50) ~ 2e-22: far below every tolerance used here
_Y_MAX = 9.0  # exp(-y^2/2) < 3e-18 beyond this
_Z_POINTS = tuple(10.0 ** k for k in range(-8, 2))


def _double_moment_over_factorial(k: int) -> float:
    # E[g^k]/k! for g = R1*R2 with unit Rayleigh R: E[R^k] = 2^(k/2) Gamma(1 + k/2)
    return math.exp(k * _LN2 + 2.0 * math.lgamma(1.0 + 0.5 * k) - math.lgamma(k + 1.0))


_SERIES = tuple(_double_moment_over_factorial(k) for k in range(1, 120))


def one_minus_mgf_double(s: float) -> float:
    """1 - E[exp(-s g)] for the double-Rayleigh gain g (PDF g*K0(g)), s >= 0."""
    if s < 0.0:
        raise ValueError("s must be >= 0")
    if s == 0.0:
        return 0.0
    if s < _SERIES_MAX_S:
        # moment series; it converges for s < 1 (the MGF is singular at s = -1)
        total = 0.0
        power = 1.0
        for k, c in enumerate(_SERIES, start=1):
            power *= s
            term = c * power
            total += term if k & 1 else -term
            if term < 1e-18 * total:
                break
        return total
    if abs(s - 1.0) < _NEAR_ONE:
        return float(1 - _mgf_double_mp(mpmath.mpf(s)))
    return 1.0 - mgf_double(s)


def _mgf_double_mp(s):
    with mpmath.workdps(40):
        if s == 1:
            return mpmath.mpf(1) / 3
        if s < 1:
            r = mpmath.sqrt(1 - s * s)
            return (r - s * mpmath.acos(s)) / r ** 3
        r = mpmath.sqrt(s * s - 1)
        return (s * mpmath.acosh(s) - r) / r ** 3


def mgf_double(s: float) -> float:
    """E[exp(-s g)] for the double-Rayleigh gain, from its elementary Laplace form."""
    if s < 0.0:
        raise ValueError("s must be >= 0")
    if s < _SERIES_MAX_S:
        return 1.0 - one_minus_mgf_double(s)
    if abs(s - 1.0) < _NEAR_ONE:
        return float(_mgf_double_mp(mpmath.mpf(s)))
    if s < 1.0:
        r = math.sqrt(1.0 - s * s)
        return (r - s * math.acos(s)) / r ** 3
    if s > 1e150:
        return (math.log(2.0 * s) - 1.0) / s / s
    # numerator and denominator divided by s^3, so nothing overflows for large s
    u = math.sqrt(1.0 - 1.0 / (s * s))
    return (math.acosh(s) - u) / (s * s * u ** 3)


def one_minus_mgf_triple(s: float) -> float:
    """1 - E[exp(-s g)] for the triple cascade, by quadrature over the Rayleigh factor."""
    if s == 0.0:
        return 0.0

    def f(y):
        return y * math.exp(-0.5 * y * y) * one_minus_mgf_double(s * y)

    val, _err = integrate.quad(f, 0.0, _Y_MAX, points=(1.0, 3.0), epsabs=0.0,
                               epsrel=1e-12, limit=200)
    return val


def snr_scale(p: dict, distance: float) -> float:
    """p_s r^-beta / n_0, times the r_s^-beta hop loss for the relay model."""
    scale = p["p_s"] * distance ** -p["beta"] / p["n_0"]
    if p["model"] == "vanet_ris_relay":
        scale *= p["r_s"] ** -p["beta"]
    return scale


def avg_capacity(p: dict, distance: float) -> float:
    """Average link capacity in bits/s/Hz at the given receiver distance."""
    scale = snr_scale(p, distance)
    n = p["n_cells"]
    om = one_minus_mgf_double if p["model"] == "v2v_ris_ap" else one_minus_mgf_triple

    def f(z):
        q = om(z * scale)
        return -math.expm1(n * math.log1p(-q)) * math.exp(-z) / z if q < 1.0 else math.exp(-z) / z

    val, _err = integrate.quad(f, 0.0, _Z_MAX, points=_Z_POINTS, epsabs=0.0,
                               epsrel=1e-11, limit=400)
    return val / _LN2


def asc(p: dict) -> float:
    """Average secrecy capacity C_d - C_e for a parameter dict shaped like a config 'base'."""
    return avg_capacity(p, p["r_d"]) - avg_capacity(p, p["r_e"])


def sampled_asc(p: dict, trials: int, seed: int):
    """(mean, standard error) of log2(1+gamma_d) - log2(1+gamma_e), simulated
    with NumPy's own Rayleigh sampler for the double-Rayleigh (v2v) model."""
    if p["model"] != "v2v_ris_ap":
        raise ValueError("sampled_asc covers the v2v model only")
    rng = np.random.default_rng(seed)
    n = p["n_cells"]
    total = np.empty(trials)
    done = 0
    while done < trials:
        m = min(8192, trials - done)
        g_d = (rng.rayleigh(size=(m, n)) * rng.rayleigh(size=(m, n))).sum(axis=1)
        g_e = (rng.rayleigh(size=(m, n)) * rng.rayleigh(size=(m, n))).sum(axis=1)
        total[done:done + m] = (np.log2(1.0 + snr_scale(p, p["r_d"]) * g_d)
                                - np.log2(1.0 + snr_scale(p, p["r_e"]) * g_e))
        done += m
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(trials))
