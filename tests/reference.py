"""The independent references of the test suite, each written once.

Nothing here imports ``ris_secrecy`` (``test_package.py`` checks), so no
reference shares code with what it checks. A function takes plain numbers or
a point whose fields it reads by name (``r_s`` is None on the access-point
model), and derives SNR scales and gain moments itself; a link is named by
its distance, ``point.r_d`` or ``point.r_e``. A quadrature tolerance or a
working precision that callers set differently is an argument.
"""
import math
import warnings
from fractions import Fraction

import mpmath as mp
import scipy.integrate as sint
import scipy.special as sp


def cascade_order(point) -> int:
    """Unit Rayleigh factors per cell gain: 2 (double Rayleigh) or 3 (relay)."""
    return 2 if point.r_s is None else 3


def gain_moment(k, order):
    """E[g^k] = (2^(k/2) Gamma(1 + k/2))^order at mpmath's working precision."""
    return (mp.sqrt(2) ** k * mp.gamma(1 + mp.mpf(k) / 2)) ** order


def snr_scale_mp(point, r, dps=40):
    """p_s r^-beta [r_s^-beta] / n_0 at ``dps`` digits."""
    with mp.workdps(dps):
        scale = mp.mpf(point.p_s) * mp.mpf(r) ** -mp.mpf(point.beta) / mp.mpf(point.n_0)
        if point.r_s is not None:
            scale *= mp.mpf(point.r_s) ** -mp.mpf(point.beta)
        return scale


def mgf_double_mp(s, dps):
    """M(s) at ``dps`` digits. With u = 1 - s^2 it is (1 - s A(u)) / u, where
    A(u) = acos(s)/sqrt(u) below s = 1 and acosh(s)/sqrt(-u) above; both are
    sum_k c_k u^k, c_k = binom(2k, k) / (4^k (2k + 1)). The numerator cancels
    near s = 1 (about -log10|u| digits), so there M(s) = 1/(1 + s) - s
    sum_{k>=1} c_k u^(k-1), whose terms fall by |u| each; elsewhere the
    elementary form."""
    with mp.workdps(dps):
        s = mp.mpf(s)
        u = 1 - s * s
        if abs(u) < 0.01:
            k, term, total = 1, mp.mpf(1) / 2, mp.mpf(1) / 6  # term: c_k (2k + 1) u^(k-1)
            while abs(term) > mp.eps * total:
                k += 1
                term *= u * (2 * k - 1) / (2 * k)
                total += term / (2 * k + 1)
            return 1 / (1 + s) - s * total
        if s < 1:
            r = mp.sqrt(1 - s * s)
            return (r - s * mp.acos(s)) / r ** 3
        r = mp.sqrt(s * s - 1)
        return (s * mp.acosh(s) - r) / r ** 3


def one_minus_mgf_double_mp(s: float) -> float:
    """1 - M(s) at enough digits that nothing cancels."""
    dps = 60 + max(0, -int(math.log10(s)))
    with mp.workdps(dps):
        return float(1 - mgf_double_mp(s, dps))


def mgf_double_hypergeometric(s: float) -> float:
    """The paper's hypergeometric form, (4/3) 2F1(2, 1/2; 5/2; (s-1)/(s+1))
    / (1+s)^2, in mpmath. The working precision grows with s so that
    (s-1)/(s+1) stays distinct from 1."""
    with mp.workdps(30 + max(0, int(math.log10(s)))):
        sm = mp.mpf(s)
        return float(mp.mpf(4) / 3 * mp.hyp2f1(2, mp.mpf(1) / 2, mp.mpf(5) / 2, (sm - 1) / (sm + 1))
                     / (1 + sm) ** 2)


def mgf_double_quad(s: float, epsrel: float) -> float:
    """M(s) by QUADPACK over the density g K0(g)."""
    val, _ = sint.quad(lambda g: math.exp(-s * g) * g * sp.k0(g), 0.0, 80.0,
                       epsabs=1e-13, epsrel=epsrel, limit=300)
    return val


# E[g^k]/k! of the double-Rayleigh gain: 1 - M(s) = sum_k (-1)^(k+1) E[g^k] s^k/k!
with mp.workdps(30):
    _DOUBLE_SERIES = tuple(float(gain_moment(k, 2) / mp.factorial(k)) for k in range(1, 120))


def one_minus_mgf_double(s: float) -> float:
    """1 - M(s) in doubles: the moment series below s = 0.5, else 1 minus the
    elementary form (from mpmath near s = 1, where it cancels)."""
    if s < 0.5:
        total = 0.0
        power = 1.0
        for k, c in enumerate(_DOUBLE_SERIES, start=1):
            power *= s
            term = c * power
            total += term if k % 2 else -term
            if term <= 1e-18 * total:
                break
        return total
    if abs(s - 1.0) < 1e-3:
        mgf = float(mgf_double_mp(s, 40))
    elif s < 1.0:
        r = math.sqrt(1.0 - s * s)
        mgf = (r - s * math.acos(s)) / r ** 3
    elif s > 1e100:
        mgf = (math.log(2.0 * s) - 1.0) / s / s
    else:
        r = math.sqrt(s * s - 1.0)
        mgf = (s * math.acosh(s) - r) / r ** 3
    return 1.0 - mgf


def mgf_triple_mp(s: float):
    """M(s) = G^{2,3}_{3,2}(2 s^2 | 0, 0, 0; 0, 1/2) / sqrt(pi), from the
    Mellin transform E[g^t] = (2^(t/2) Gamma(1 + t/2))^3 and Gamma's
    duplication formula: neither the package's method nor that of the
    conditioning integral its table is fitted to. 1 - M keeps 30 digits."""
    with mp.workdps(30 + max(0, -int(math.log10(s)))):
        return mp.meijerg([[0, 0, 0], []], [[0, mp.mpf(1) / 2], []], 2 * mp.mpf(s) ** 2) / mp.sqrt(mp.pi)


def one_minus_mgf_triple_mp(s: float) -> float:
    """1 - M(s): from three moments below s = 1e-12 (the rest is below 1e-34
    of it), else from the Meijer-G form."""
    if s == 0.0:
        return 0.0
    if s < 1e-12:
        with mp.workdps(40):
            sm = mp.mpf(s)
            m1, m2, m3 = (gain_moment(k, 3) for k in (1, 2, 3))
            return float(sm * m1 - sm ** 2 * m2 / 2 + sm ** 3 * m3 / 6)
    with mp.workdps(30 + max(0, -int(math.log10(s)))):
        return float(1 - mgf_triple_mp(s))


def one_minus_mgf_triple(s: float, epsrel: float) -> float:
    """1 - M(s) by QUADPACK over one Rayleigh factor y of 1 - M_double(s y)."""
    val, _ = sint.quad(lambda y: y * math.exp(-0.5 * y * y) * one_minus_mgf_double(s * y),
                       0.0, 9.0, points=(1.0, 3.0), epsabs=0.0, epsrel=epsrel, limit=200)
    return val


def mgf_triple_dblquad(s: float, epsrel: float) -> float:
    """M(s) by 2-D quadrature over a Rayleigh and a double-Rayleigh factor
    (scipy's warning about the flat inner tail is expected)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sint.IntegrationWarning)
        val, _ = sint.dblquad(lambda v, y: math.exp(-s * y * v) * y * math.exp(-0.5 * y * y) * v * sp.k0(v),
                              0.0, 9.5, 0.0, 60.0, epsabs=1e-12, epsrel=epsrel)
    return val


def triple_cdf(g: float) -> float:
    """P(XYZ <= g) over one Rayleigh factor, the double-Rayleigh CDF being
    1 - t K1(t)."""
    val, _ = sint.quad(lambda y: y * math.exp(-0.5 * y * y) * (1.0 - (g / y) * sp.k1(g / y)),
                       0.0, 9.0, epsabs=1e-11, epsrel=1e-9, limit=200)
    return val


def _one_minus_mgf(point):
    """1 - M of the point's cell gain, in doubles."""
    return one_minus_mgf_double if point.r_s is None else lambda s: one_minus_mgf_triple(s, 1e-12)


def capacity_quad(point, r) -> float:
    """A link's capacity from C ln 2 = int_0^inf (1 - M(z s)^N) e^-z / z dz by
    QUADPACK, with q = 1 - M carried throughout."""
    scale = float(snr_scale_mp(point, r))
    one_minus_mgf = _one_minus_mgf(point)

    def f(z):
        q = one_minus_mgf(z * scale)
        if q >= 1.0:
            return math.exp(-z) / z
        return -math.expm1(point.n_cells * math.log1p(-q)) * math.exp(-z) / z

    val, _ = sint.quad(f, 0.0, 50.0, points=[10.0 ** k for k in range(-8, 2)], epsabs=0.0,
                       epsrel=1e-11, limit=400)
    return val / math.log(2.0)


def capacity_mp(point, r) -> float:
    """A double-Rayleigh link's capacity at 40 digits, in decades of z so
    that the 1/z stretch of a high-SNR link is resolved."""
    with mp.workdps(40):
        scale = snr_scale_mp(point, r)

        def f(z):
            m = mgf_double_mp(z * scale, 40)
            return -mp.expm1(point.n_cells * mp.log(m)) * mp.exp(-z) / z

        cuts = [mp.mpf(0)] + [mp.mpf(10) ** k for k in range(-30, 2)] + [mp.mpf(60)]
        return float(mp.quad(f, cuts) / mp.log(2))


def capacity_low_snr_mp(point, r) -> float:
    """The capacity from its moment expansion at 40 digits: with
    1 - M(u)^N = sum_k a_k u^k, C ln 2 = sum_k a_k s^k (k-1)!. Four terms are
    off by about (N E[g] s)^4 of the value."""
    order = cascade_order(point)
    degree = 5
    with mp.workdps(40):
        s = snr_scale_mp(point, r)
        mgf = [(-1) ** j * gain_moment(j, order) / mp.factorial(j) for j in range(degree)]
        mgf_n = [mp.mpf(1)] + [mp.mpf(0)] * (degree - 1)
        for _ in range(point.n_cells):
            mgf_n = [mp.fsum(mgf_n[i] * mgf[k - i] for i in range(k + 1)) for k in range(degree)]
        return float(mp.fsum(-mgf_n[k] * s ** k * mp.factorial(k - 1) for k in range(1, degree))
                     / mp.log(2))


def capacity_extreme_snr(point, r) -> float:
    """The capacity at an SNR scale s near the top of the double range:
    C ln 2 = E1(1/s) + int_0^1 (1 - M^N)/t dt - int_1^inf M^N/t dt + O(1/s)."""
    one_minus_mgf = _one_minus_mgf(point)
    n = point.n_cells
    head, _ = sint.quad(lambda t: -math.expm1(n * math.log1p(-one_minus_mgf(t))) / t, 0.0, 1.0,
                        epsabs=0.0, epsrel=1e-13, limit=200)
    tail, _ = sint.quad(lambda t: (1.0 - one_minus_mgf(t)) ** n / t, 1.0, math.inf,
                        epsabs=0.0, epsrel=1e-13, limit=200)
    with mp.workdps(40):
        return float((mp.e1(1 / snr_scale_mp(point, r)) + head - tail) / mp.log(2))


def capacity_delta_method(point, r) -> float:
    """E[log2(1 + a X)], a = N mu s, to second order in X = (gain sum)/(N mu):
    [ln(1 + a) - (a/(1 + a))^2 sigma^2/(2 N mu^2)]/ln 2, off by O(1/N^2)."""
    order = cascade_order(point)
    with mp.workdps(40):
        mean, variance = gain_moment(1, order), gain_moment(2, order) - gain_moment(1, order) ** 2
        n = mp.mpf(point.n_cells)
        a = n * mean * snr_scale_mp(point, r)
        return float((mp.log1p(a) - (a / (1 + a)) ** 2 * variance / (2 * n * mean ** 2)) / mp.log(2))


def jensen_bound(point, r, dps=40):
    """log2(1 + N E[g] s), the Jensen bound on the capacity, in mpmath."""
    with mp.workdps(dps):
        mean = gain_moment(1, cascade_order(point))
        return mp.log(1 + point.n_cells * mean * snr_scale_mp(point, r, dps), 2)


def asc_approx_mp(point) -> float:
    """The closed-form ASC, the difference of the two Jensen bounds."""
    with mp.workdps(50):
        return float(jensen_bound(point, point.r_d, 50) - jensen_bound(point, point.r_e, 50))


def sop_mp(point, constants="corrected") -> float:
    """The CLT outage 0.5 erfc(-x) at 50 digits; ``constants="paper_literal"``
    takes the paper's relay mean and variance for the triple-cascade moments."""
    with mp.workdps(50):
        nu = mp.mpf(2) ** mp.mpf(point.c_th)
        scale_d, scale_e = snr_scale_mp(point, point.r_d), snr_scale_mp(point, point.r_e)
        if constants == "paper_literal" and point.r_s is not None:
            mean, variance = mp.pi ** 3 / (2 * mp.sqrt(2)), 8 - (mp.pi / 2) ** mp.mpf(1.5)
        else:
            order = cascade_order(point)
            mean, variance = gain_moment(1, order), gain_moment(2, order) - gain_moment(1, order) ** 2
        n = point.n_cells
        x = ((nu - 1) / scale_d + n * mean * (nu * scale_e / scale_d - 1)) / mp.sqrt(2 * n * variance)
        return float(mp.erfc(-x) / 2)


def sample_variance_exact(values):
    """(mean, unbiased variance, standard error of that variance) of the
    floats ``values``, in exact rational arithmetic before the final rounding.
    The standard error is sqrt((m4 - (n - 3)/(n - 1) m2^2)/n) from the central
    moments m2 and m4."""
    xs = [Fraction(v) for v in values]
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs) / n
    m4 = sum((x - mean) ** 4 for x in xs) / n
    return float(mean), float(m2 * n / (n - 1)), math.sqrt((m4 - Fraction(n - 3, n - 1) * m2 ** 2) / n)
