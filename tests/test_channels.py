"""Channel-law contracts: moments, MGFs and their complements, and samplers,
each checked against an oracle that does not share code with the
implementation."""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as sint
import scipy.special as sp

from ris_secrecy.channels import (
    PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF,
    PAPER_LITERAL_TRIPLE_VARIANCE,
    ChannelMoments,
    FadingKind,
    mgf_double_rayleigh,
    moments,
    one_minus_mgf_double_rayleigh,
    one_minus_mgf_triple_cascade,
    sample,
)

# mpmath nested-quadrature oracle values for the triple-cascade MGF
# (conditioning integral evaluated at 30 decimal digits)
M3_ORACLE = {0.5: 0.50146064410475098, 1.0: 0.32739299663738908, 5.0: 0.070826141606182181}

# The paper's hypergeometric form of the double-Rayleigh MGF,
# (4/3) 2F1(2, 1/2; 5/2; (s-1)/(s+1))/(1+s)^2, in arbitrary precision; it
# shares no code with the elementary form used by the implementation. The
# working precision grows with s so that (s-1)/(s+1) stays distinct from 1.
def _mgf_dbl_hypergeometric(s: float) -> float:
    with mp.workdps(30 + max(0, int(math.log10(s)))):
        sm = mp.mpf(s)
        return float(mp.mpf(4) / 3 * mp.hyp2f1(2, mp.mpf(1) / 2, mp.mpf(5) / 2, (sm - 1) / (sm + 1))
                     / (1 + sm) ** 2)


def mgf_triple_cascade(s):
    """The triple-cascade MGF as 1 minus the shipped complement: within 5e-16
    of the MGF for s <= 5, but only absolutely accurate (about 1e-11) at large
    s, where the tests look at the complement itself."""
    return 1.0 - one_minus_mgf_triple_cascade(s)


def _mgf_triple_2d_quadrature(s: float) -> float:
    # brute-force 2-D integral over independent Rayleigh and double-Rayleigh factors;
    # scipy flags the flat inner tail as slowly convergent, which is fine here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sint.IntegrationWarning)
        val, _ = sint.dblquad(
            lambda v, y: math.exp(-s * y * v) * y * math.exp(-0.5 * y * y) * v * sp.k0(v),
            0.0, 9.5, 0.0, 60.0, epsabs=1e-12, epsrel=1e-10,
        )
    return val


class TestMoments:
    def test_closed_forms(self):
        ray = moments(FadingKind.RAYLEIGH)
        assert ray.mean == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)
        assert ray.variance == pytest.approx(2 - math.pi / 2, rel=1e-15)
        dbl = moments(FadingKind.DOUBLE_RAYLEIGH)
        assert dbl.mean == pytest.approx(math.pi / 2, rel=1e-15)
        assert dbl.variance == pytest.approx(4 - math.pi ** 2 / 4, rel=1e-15)
        tri = moments(FadingKind.TRIPLE_CASCADE)
        assert tri.mean == pytest.approx((math.pi / 2) ** 1.5, rel=1e-15)
        assert tri.variance == pytest.approx(8 - (math.pi / 2) ** 3, rel=1e-15)

    def test_paper_literal_constants_are_distinct(self):
        # the variant constants differ from the consistent ones; both stay available
        assert PAPER_LITERAL_TRIPLE_VARIANCE == pytest.approx(8 - (math.pi / 2) ** 1.5, rel=1e-15)
        assert PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF == pytest.approx(math.pi ** 3 / (2 * math.sqrt(2)), rel=1e-15)
        assert PAPER_LITERAL_TRIPLE_VARIANCE != moments(FadingKind.TRIPLE_CASCADE).variance

    def test_monte_carlo_adjudicates_triple_variance(self):
        # the product-sampler oracle decides between the two candidate constant sets
        rng = np.random.default_rng(2718)
        x = sample(FadingKind.TRIPLE_CASCADE, rng, 1_000_000)
        m = x.mean()
        var = x.var(ddof=1)
        m2 = ((x - m) ** 2).mean()
        m4 = ((x - m) ** 4).mean()
        se_var = math.sqrt((m4 - m2 * m2) / x.size)
        corrected = moments(FadingKind.TRIPLE_CASCADE).variance
        assert abs(var - corrected) < 4.0 * se_var
        assert abs(var - PAPER_LITERAL_TRIPLE_VARIANCE) > 10.0 * se_var

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelMoments(mean=0.0, variance=1.0)
        with pytest.raises(ValueError):
            ChannelMoments(mean=1.0, variance=-1.0)


class TestMgfDoubleRayleigh:
    def test_at_zero(self):
        assert mgf_double_rayleigh(0.0) == 1.0

    def test_at_one_is_one_third(self):
        assert mgf_double_rayleigh(1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_against_quadrature_oracle(self):
        for s in (0.5, 2.0, 10.0):
            oracle, _ = sint.quad(lambda g: math.exp(-s * g) * g * sp.k0(g), 0.0, 80.0,
                                  epsabs=1e-13, epsrel=1e-11, limit=300)
            assert mgf_double_rayleigh(s) == pytest.approx(oracle, rel=1e-8)

    def test_against_hypergeometric_form(self):
        # every regime: the acos and acosh branches, the series around s = 1
        # and the large-s tail (the reference slows down as s grows, so the
        # grid thins out there)
        grid = np.concatenate([np.logspace(-8, 8, 65), [1.0 - 1e-6, 1.0 + 1e-6, 0.9, 1.1],
                               [1e12, 1e16, 1e20, 1e30, 1e50, 1e100]])
        for s in grid:
            ref = _mgf_dbl_hypergeometric(float(s))
            assert mgf_double_rayleigh(float(s)) == pytest.approx(ref, rel=1e-13), s
        # past s ~ 1e162 the MGF, about ln(2s)/s^2, rounds to zero
        assert mgf_double_rayleigh(1e200) == 0.0
        assert mgf_double_rayleigh(1e300) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mgf_double_rayleigh(-0.1)


class TestMgfTripleCascade:
    def test_at_zero(self):
        assert mgf_triple_cascade(0.0) == 1.0

    @pytest.mark.parametrize("s", sorted(M3_ORACLE))
    def test_against_nested_quadrature_oracle(self, s):
        assert mgf_triple_cascade(s) == pytest.approx(M3_ORACLE[s], rel=1e-6)

    @pytest.mark.parametrize("s", sorted(M3_ORACLE))
    def test_against_2d_quadrature(self, s):
        assert mgf_triple_cascade(s) == pytest.approx(_mgf_triple_2d_quadrature(s), rel=1e-6)

    def test_large_argument_limit(self):
        # on the complement: 1 minus it keeps only about 1e-11 absolute
        # accuracy here, while the MGF itself is below 1e-10
        big = one_minus_mgf_triple_cascade(1e6)
        bigger = one_minus_mgf_triple_cascade(1e7)
        assert 1.0 - 1e-3 < big < bigger < 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            one_minus_mgf_triple_cascade(-1.0)
        with pytest.raises(ValueError):
            one_minus_mgf_triple_cascade(np.array([1.0, math.nan]))


def _one_minus_mgf_dbl_mp(s: float) -> float:
    # 1 - M of the elementary form at enough digits that nothing cancels
    with mp.workdps(60 + max(0, -int(math.log10(s)))):
        sm = mp.mpf(s)
        if sm == 1:
            return 2.0 / 3.0
        if sm < 1:
            r = mp.sqrt(1 - sm * sm)
            return float(1 - (r - sm * mp.acos(sm)) / r ** 3)
        r = mp.sqrt(sm * sm - 1)
        return float(1 - (sm * mp.acosh(sm) - r) / r ** 3)


def _one_minus_mgf_triple_ref(s: float) -> float:
    # QUADPACK over the Rayleigh factor of the mpmath complement above
    val, _ = sint.quad(lambda y: y * math.exp(-0.5 * y * y) * _one_minus_mgf_dbl_mp(s * y),
                       0.0, 9.0, points=(1.0, 3.0), epsabs=0.0, epsrel=1e-13, limit=200)
    return val


class TestMgfComplements:
    """1 - M evaluated without forming M, so it stays accurate where M is near 1."""

    def test_double_against_mpmath(self):
        grid = np.concatenate((np.geomspace(1e-12, 1e4, 61), [0.5 - 1e-12, 0.5, 0.9, 1.0, 1.0 + 1e-9]))
        got = one_minus_mgf_double_rayleigh(grid)
        for s, v in zip(grid, got):
            assert v == pytest.approx(_one_minus_mgf_dbl_mp(float(s)), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 5.0, 1e3])
    def test_triple_is_one_minus_mgf_where_m_is_not_near_one(self, s):
        assert one_minus_mgf_triple_cascade(s) == pytest.approx(_one_minus_mgf_triple_ref(s), rel=1e-11)

    def test_triple_keeps_eight_digits_at_tiny_argument(self):
        # below s = 1e-289 the value is under the quadrature's absolute
        # floor; q/s still approaches the mean gain (pi/2)^1.5
        s = 1e-300
        assert one_minus_mgf_triple_cascade(s) / s == pytest.approx((math.pi / 2.0) ** 1.5, rel=1e-8)

    @pytest.mark.parametrize(
        "one_minus_mgf,kind",
        [(one_minus_mgf_double_rayleigh, FadingKind.DOUBLE_RAYLEIGH),
         (one_minus_mgf_triple_cascade, FadingKind.TRIPLE_CASCADE)],
    )
    def test_small_argument_slope_is_the_mean(self, one_minus_mgf, kind):
        # 1 - M(s) = s E[g] - s^2 E[g^2]/2 + ..., so q/s -> E[g] to O(s)
        for s in (1e-200, 1e-12):
            assert one_minus_mgf(s) / s == pytest.approx(moments(kind).mean, rel=1e-11)

    @pytest.mark.parametrize("one_minus_mgf", [one_minus_mgf_double_rayleigh, one_minus_mgf_triple_cascade])
    def test_limits_shapes_and_domain(self, one_minus_mgf):
        assert one_minus_mgf(0.0) == 0.0
        assert one_minus_mgf(1e301) == 1.0
        s = np.array([[0.0, 1e-9, 0.3], [2.0, 1e6, 1e301]])
        arr = one_minus_mgf(s)
        assert arr.shape == s.shape
        assert arr == pytest.approx(np.array([[one_minus_mgf(float(v)) for v in row] for row in s]), rel=1e-10, abs=0.0)
        with pytest.raises(ValueError):
            one_minus_mgf(-1.0)


class TestMgfProperties:
    @pytest.mark.parametrize("mgf", [mgf_double_rayleigh, mgf_triple_cascade])
    def test_in_unit_interval_and_decreasing(self, mgf):
        grid = [0.01, 0.1, 1.0, 10.0, 100.0]
        vals = [mgf(s) for s in grid]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "mgf,kind",
        [(mgf_double_rayleigh, FadingKind.DOUBLE_RAYLEIGH),
         (mgf_triple_cascade, FadingKind.TRIPLE_CASCADE)],
    )
    def test_slope_at_zero_is_mean(self, mgf, kind):
        h = 1e-5
        slope = (1.0 - mgf(h)) / h
        assert slope == pytest.approx(moments(kind).mean, rel=1e-4)

    @pytest.mark.parametrize("mgf", [mgf_double_rayleigh, mgf_triple_cascade])
    def test_array_call_matches_scalar_calls(self, mgf):
        s = np.array([[0.0, 1e-3, 0.5, 1.0], [1.0 + 1e-9, 7.0, 1e6, 1e12]])
        arr = mgf(s)
        assert arr.shape == s.shape
        scalar = np.array([[mgf(float(v)) for v in row] for row in s])
        if mgf is mgf_double_rayleigh:
            assert np.array_equal(arr, scalar)
        else:
            # one adaptive run shares its panels across the arguments, so it
            # refines differently from per-argument runs; the tolerance holds
            # on the complement, which is what carries the relative accuracy
            assert 1.0 - arr == pytest.approx(1.0 - scalar, rel=1e-10)

    def test_three_way_equivalence_with_sampling(self):
        # closed form vs 2-D quadrature vs Monte-Carlo, per the channel contract
        rng = np.random.default_rng(31415)
        draws = {
            FadingKind.DOUBLE_RAYLEIGH: sample(FadingKind.DOUBLE_RAYLEIGH, rng, 1_000_000),
            FadingKind.TRIPLE_CASCADE: sample(FadingKind.TRIPLE_CASCADE, rng, 1_000_000),
        }
        for s in (0.5, 1.0, 5.0):
            for kind, mgf in ((FadingKind.DOUBLE_RAYLEIGH, mgf_double_rayleigh),
                              (FadingKind.TRIPLE_CASCADE, mgf_triple_cascade)):
                x = np.exp(-s * draws[kind])
                mc = x.mean()
                se = x.std(ddof=1) / math.sqrt(x.size)
                assert abs(mgf(s) - mc) < 4.0 * se


class TestSampler:
    @pytest.mark.parametrize("kind", list(FadingKind))
    def test_deterministic_for_fixed_seed(self, kind):
        a = sample(kind, np.random.default_rng(7), 100)
        b = sample(kind, np.random.default_rng(7), 100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", list(FadingKind))
    def test_mean_matches_analytic(self, kind):
        rng = np.random.default_rng(99)
        x = sample(kind, rng, 1_000_000)
        mom = moments(kind)
        tol = 4.0 * math.sqrt(mom.variance / x.size)
        assert abs(x.mean() - mom.mean) < tol

    def test_scalar_draw(self):
        v = sample(FadingKind.RAYLEIGH, np.random.default_rng(1))
        assert isinstance(v, float) and v > 0.0

    @pytest.mark.parametrize("kind", list(FadingKind))
    def test_kolmogorov_smirnov_against_numeric_cdf(self, kind):
        n = 100_000
        x = np.sort(sample(kind, np.random.default_rng(1234), n))
        if kind is FadingKind.RAYLEIGH:
            cdf = 1.0 - np.exp(-0.5 * x * x)
        elif kind is FadingKind.DOUBLE_RAYLEIGH:
            cdf = 1.0 - x * sp.k1(x)
        else:
            grid = np.linspace(1e-6, x[-1] + 1.0, 900)
            cdf_grid = np.array([_triple_cdf(g) for g in grid])
            cdf = np.interp(x, grid, cdf_grid)
        ks = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
        ks = max(ks, np.max(np.abs(cdf - np.arange(0, n) / n)))
        critical_1pct = 1.6276 / math.sqrt(n)
        assert ks < critical_1pct


def _triple_cdf(g: float) -> float:
    # P(XYZ <= g) by conditioning on the Rayleigh factor, with the
    # double-Rayleigh CDF identity 1 - t K1(t)
    val, _ = sint.quad(
        lambda y: y * math.exp(-0.5 * y * y) * (1.0 - (g / y) * sp.k1(g / y)),
        0.0, 9.0, epsabs=1e-11, epsrel=1e-9, limit=200,
    )
    return val
