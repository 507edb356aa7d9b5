"""Channel-law contracts: moments, MGFs and their complements, and the
per-cell gains the Monte-Carlo engine draws, each checked against an oracle
that does not share code with the implementation."""
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

import reference
from ris_secrecy import Model
from ris_secrecy.channels import (
    DOUBLE_RAYLEIGH_MEAN,
    DOUBLE_RAYLEIGH_VARIANCE,
    PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF,
    PAPER_LITERAL_TRIPLE_VARIANCE,
    TRIPLE_CASCADE_MEAN,
    TRIPLE_CASCADE_VARIANCE,
    _as_arguments,
    _mgf_dbl,
    one_minus_mgf_double_rayleigh,
    one_minus_mgf_triple_cascade,
)
from ris_secrecy.montecarlo import _log_one_minus

# mpmath nested-quadrature oracle values for the triple-cascade MGF
# (conditioning integral evaluated at 30 decimal digits)
M3_ORACLE = {0.5: 0.50146064410475098, 1.0: 0.32739299663738908, 5.0: 0.070826141606182181}


def mgf_double_rayleigh(s):
    """The double-Rayleigh MGF from the shipped elementary kernel, which the
    complement uses from s = 0.5 up, for a scalar or an array."""
    arr = np.asarray(s, dtype=float)
    out = _mgf_dbl(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def mgf_triple_cascade(s):
    """The triple-cascade MGF as 1 minus the shipped complement, which holds
    to about 1e-15 relative, so the MGF to about 1e-16 absolute."""
    return 1.0 - one_minus_mgf_triple_cascade(s)


class TestMoments:
    def test_closed_forms(self):
        assert DOUBLE_RAYLEIGH_MEAN == pytest.approx(math.pi / 2, rel=1e-15)
        assert DOUBLE_RAYLEIGH_VARIANCE == pytest.approx(4 - math.pi ** 2 / 4, rel=1e-15)
        assert TRIPLE_CASCADE_MEAN == pytest.approx((math.pi / 2) ** 1.5, rel=1e-15)
        assert TRIPLE_CASCADE_VARIANCE == pytest.approx(8 - (math.pi / 2) ** 3, rel=1e-15)

    def test_paper_literal_constants_are_distinct(self):
        # the variant constants differ from the consistent ones; both stay available
        assert PAPER_LITERAL_TRIPLE_VARIANCE == pytest.approx(8 - (math.pi / 2) ** 1.5, rel=1e-15)
        assert PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF == pytest.approx(math.pi ** 3 / (2 * math.sqrt(2)), rel=1e-15)
        assert PAPER_LITERAL_TRIPLE_VARIANCE != TRIPLE_CASCADE_VARIANCE

    def test_monte_carlo_adjudicates_triple_variance(self, cell_gains):
        # the drawn products of Rayleigh factors decide between the two candidate constant sets
        x = cell_gains(Model.VANET_RIS_RELAY, 2718, 1_000_000)
        m = x.mean()
        var = x.var(ddof=1)
        m2 = ((x - m) ** 2).mean()
        m4 = ((x - m) ** 4).mean()
        se_var = math.sqrt((m4 - m2 * m2) / x.size)
        assert abs(var - TRIPLE_CASCADE_VARIANCE) < 4.0 * se_var
        assert abs(var - PAPER_LITERAL_TRIPLE_VARIANCE) > 10.0 * se_var


class TestMgfDoubleRayleigh:
    def test_at_zero(self):
        assert mgf_double_rayleigh(0.0) == 1.0

    def test_at_one_is_one_third(self):
        assert mgf_double_rayleigh(1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_against_quadrature_oracle(self):
        for s in (0.5, 2.0, 10.0):
            assert mgf_double_rayleigh(s) == pytest.approx(reference.mgf_double_quad(s, 1e-11), rel=1e-8)

    def test_against_hypergeometric_form(self):
        # every regime: the acos and acosh branches, the series around s = 1
        # and the large-s tail (the reference slows down as s grows, so the
        # grid thins out there)
        grid = np.concatenate([np.logspace(-8, 8, 65), [1.0 - 1e-6, 1.0 + 1e-6, 0.9, 1.1],
                               [1e12, 1e16, 1e20, 1e30, 1e50, 1e100]])
        for s in grid:
            ref = reference.mgf_double_hypergeometric(float(s))
            assert mgf_double_rayleigh(float(s)) == pytest.approx(ref, rel=1e-13), s
        # past s ~ 1e162 the MGF, about ln(2s)/s^2, rounds to zero
        assert mgf_double_rayleigh(1e200) == 0.0
        assert mgf_double_rayleigh(1e300) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            one_minus_mgf_double_rayleigh(-0.1)


# 2F1(2, 1/2; 5/2; .) from arbitrary-precision summation (mpmath)
HYP_AT_0p999 = 5.4756385061780335
HYP_AT_MINUS_1 = 0.75


def hyp2f1_special(x: float) -> float:
    """The paper's instance 2F1(2, 1/2; 5/2; x), -1 <= x < 1, as realised by the
    package's double-Rayleigh MGF: M(s) = (4/3) 2F1(x)/(1+s)^2, s = (1+x)/(1-x).

    Arguments outside [-1, 1] map to s < 0, which the package's MGF argument
    check rejects; x = 1 itself maps to s = inf and is rejected here.
    """
    if x == 1.0:
        raise ValueError("x = 1 maps to s = inf")
    s = (1.0 + x) / (1.0 - x)
    return 0.75 * (1.0 + s) ** 2 * float(_mgf_dbl(_as_arguments([s], "hyp2f1_special"))[0])


class TestHyp2F1Special:
    """The double-Rayleigh MGF is the paper's 2F1 instance in elementary form;
    these pin it to the hypergeometric values through the map above."""

    def test_at_zero(self):
        assert hyp2f1_special(0.0) == 1.0

    def test_at_minus_one(self):
        v = hyp2f1_special(-1.0)
        assert 0.0 < v < 1.0
        assert v == pytest.approx(HYP_AT_MINUS_1, rel=1e-12)

    def test_near_one_log_case(self):
        assert hyp2f1_special(0.999) == pytest.approx(HYP_AT_0p999, rel=1e-8)

    def test_reference_grid(self):
        xs = np.concatenate([np.linspace(-1.0, 0.5, 30),
                             1.0 - np.logspace(-7, -0.31, 30)])
        for x in xs:
            with mp.workdps(25):
                ref = float(mp.hyp2f1(2, mp.mpf(1) / 2, mp.mpf(5) / 2, mp.mpf(float(x))))
            assert hyp2f1_special(float(x)) == pytest.approx(ref, rel=1e-10)

    def test_regime_seam_is_continuous(self):
        lo = hyp2f1_special(0.5)
        hi = hyp2f1_special(0.5 + 1e-13)
        assert hi == pytest.approx(lo, rel=1e-11)

    def test_at_least_one_and_increasing_on_unit_interval(self):
        grid = np.linspace(0.0, 0.999, 50)
        vals = [hyp2f1_special(float(x)) for x in grid]
        assert all(v >= 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [-1.0000001, 1.0, 1.5, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            hyp2f1_special(bad)


class TestMgfTripleCascade:
    def test_at_zero(self):
        assert mgf_triple_cascade(0.0) == 1.0

    @pytest.mark.parametrize("s", sorted(M3_ORACLE))
    def test_against_nested_quadrature_oracle(self, s):
        assert mgf_triple_cascade(s) == pytest.approx(M3_ORACLE[s], rel=2e-15)

    @pytest.mark.parametrize("s", sorted(M3_ORACLE))
    def test_against_2d_quadrature(self, s):
        assert mgf_triple_cascade(s) == pytest.approx(reference.mgf_triple_dblquad(s, 1e-10), rel=1e-6)

    def test_large_argument_limit(self):
        # the MGF is below 1e-10 here; 1 minus the complement keeps it to
        # about an ulp of 1
        for s in (1e6, 1e7):
            assert mgf_triple_cascade(s) == pytest.approx(float(reference.mgf_triple_mp(s)), rel=0.0, abs=1e-16)
        assert 1.0 - 1e-3 < one_minus_mgf_triple_cascade(1e6) < one_minus_mgf_triple_cascade(1e7) < 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            one_minus_mgf_triple_cascade(-1.0)
        with pytest.raises(ValueError):
            one_minus_mgf_triple_cascade(np.array([1.0, math.nan]))


class TestMgfComplements:
    """1 - M evaluated without forming M, so it stays accurate where M is near 1."""

    def test_double_against_mpmath(self):
        # both sides of each switch point: the complement's closed form below
        # 0.5, the series on 9/11 <= s <= 11/9 and the tail past 1e8; and
        # 1e300, where the tail's cap takes over
        edges = [np.nextafter(s, direction) for s in (0.5, 9 / 11, 11 / 9, 1e8) for direction in (0.0, math.inf)]
        grid = np.concatenate((np.geomspace(1e-12, 1e4, 61), [0.5 - 1e-12, 0.5, 0.9, 1.0, 1.0 + 1e-9, 1e300], edges))
        got = one_minus_mgf_double_rayleigh(grid)
        for s, v in zip(grid, got):
            assert v == pytest.approx(reference.one_minus_mgf_double_mp(float(s)), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 5.0, 1e3])
    def test_triple_is_one_minus_mgf_where_m_is_not_near_one(self, s):
        assert one_minus_mgf_triple_cascade(s) == pytest.approx(reference.one_minus_mgf_triple(s, 1e-13), rel=1e-11)

    def test_triple_keeps_eight_digits_at_tiny_argument(self):
        # far below the moment series' range, q/s is the mean gain (pi/2)^1.5
        # to the last digits
        s = 1e-300
        with mp.workdps(30):
            mean = float(reference.gain_moment(1, 3))
        assert one_minus_mgf_triple_cascade(s) / s == pytest.approx(mean, rel=1e-15)

    def test_triple_against_meijer_g_over_the_whole_domain(self):
        # a log grid over the doubles, both sides of every boundary of the
        # evaluation (the series below e^-7, the Chebyshev pieces of width 2
        # in ln s, exactly 1 from e^23) and the middle of each piece
        sides = [np.nextafter(math.exp(u), direction) for u in range(-7, 24, 2) for direction in (0.0, math.inf)]
        middles = [math.exp(u) for u in range(-6, 23, 2)]
        grid = np.unique(np.concatenate([10.0 ** np.arange(-300, 301, 20), sides, middles]))
        got = one_minus_mgf_triple_cascade(grid)
        for s, value in zip(grid, got):
            assert value == pytest.approx(reference.one_minus_mgf_triple_mp(float(s)), rel=2e-14, abs=0.0), s
            assert one_minus_mgf_triple_cascade(float(s)) == value
        assert np.all(got[grid >= math.exp(23)] == 1.0)
        assert one_minus_mgf_triple_cascade(0.0) == 0.0
        assert one_minus_mgf_triple_cascade(math.inf) == 1.0
        assert np.array_equal(one_minus_mgf_triple_cascade(grid[:60].reshape(3, 4, 5)), got[:60].reshape(3, 4, 5))

    @pytest.mark.parametrize(
        "one_minus_mgf,mean",
        [(one_minus_mgf_double_rayleigh, DOUBLE_RAYLEIGH_MEAN),
         (one_minus_mgf_triple_cascade, TRIPLE_CASCADE_MEAN)],
        ids=["one_minus_mgf_double_rayleigh", "one_minus_mgf_triple_cascade"],
    )
    def test_small_argument_slope_is_the_mean(self, one_minus_mgf, mean):
        # 1 - M(s) = s E[g] - s^2 E[g^2]/2 + ..., so q/s -> E[g] to O(s)
        for s in (1e-200, 1e-12):
            assert one_minus_mgf(s) / s == pytest.approx(mean, rel=1e-11)

    @pytest.mark.parametrize("one_minus_mgf", [one_minus_mgf_double_rayleigh, one_minus_mgf_triple_cascade])
    def test_limits_shapes_and_domain(self, one_minus_mgf):
        assert one_minus_mgf(0.0) == 0.0
        assert one_minus_mgf(1e301) == 1.0
        assert one_minus_mgf(math.inf) == 1.0  # where s e^v overflows in a capacity run
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
        "mgf,mean",
        [(mgf_double_rayleigh, DOUBLE_RAYLEIGH_MEAN),
         (mgf_triple_cascade, TRIPLE_CASCADE_MEAN)],
        ids=["mgf_double_rayleigh", "mgf_triple_cascade"],
    )
    def test_slope_at_zero_is_mean(self, mgf, mean):
        h = 1e-5
        slope = (1.0 - mgf(h)) / h
        assert slope == pytest.approx(mean, rel=1e-4)

    @pytest.mark.parametrize("mgf", [mgf_double_rayleigh, mgf_triple_cascade])
    def test_array_call_matches_scalar_calls(self, mgf):
        s = np.array([[0.0, 1e-3, 0.5, 1.0], [1.0 + 1e-9, 7.0, 1e6, 1e12]])
        arr = mgf(s)
        assert arr.shape == s.shape
        scalar = np.array([[mgf(float(v)) for v in row] for row in s])
        assert np.array_equal(arr, scalar)

    def test_three_way_equivalence_with_sampling(self, cell_gains):
        # closed form vs 2-D quadrature vs Monte-Carlo, per the channel contract
        draws = {model: cell_gains(model, 31415 + k, 1_000_000) for k, model in enumerate(Model)}
        for s in (0.5, 1.0, 5.0):
            for model, mgf in ((Model.V2V_RIS_AP, mgf_double_rayleigh),
                               (Model.VANET_RIS_RELAY, mgf_triple_cascade)):
                x = np.exp(-s * draws[model])
                mc = x.mean()
                se = x.std(ddof=1) / math.sqrt(x.size)
                assert abs(mgf(s) - mc) < 4.0 * se


def _ks_below_one_percent_critical(x_sorted, cdf) -> bool:
    """Kolmogorov-Smirnov: sorted draws against their CDF values."""
    n = x_sorted.size
    ks = max(np.max(np.abs(cdf - np.arange(1, n + 1) / n)), np.max(np.abs(cdf - np.arange(0, n) / n)))
    return ks < 1.6276 / math.sqrt(n)


class TestSampler:
    """The per-cell gains of the Monte-Carlo engine, and its Rayleigh factor."""

    @pytest.mark.parametrize("model", list(Model))
    def test_deterministic_for_fixed_seed(self, model, cell_gains):
        a = cell_gains(model, 7, 100)
        b = cell_gains(model, 7, 100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", list(Model))
    def test_mean_matches_analytic(self, model, cell_gains):
        x = cell_gains(model, 99, 1_000_000)
        mean, variance = ((DOUBLE_RAYLEIGH_MEAN, DOUBLE_RAYLEIGH_VARIANCE) if model is Model.V2V_RIS_AP
                          else (TRIPLE_CASCADE_MEAN, TRIPLE_CASCADE_VARIANCE))
        tol = 4.0 * math.sqrt(variance / x.size)
        assert abs(x.mean() - mean) < tol

    def test_rayleigh_factor_mean_matches_analytic(self):
        # the draw's log transform: sqrt(-2 log(1 - U)) is a unit Rayleigh factor
        x = np.sqrt(-2.0 * _log_one_minus(np.random.default_rng(99).random(1_000_000)))
        tol = 4.0 * math.sqrt((2.0 - math.pi / 2.0) / x.size)
        assert abs(x.mean() - math.sqrt(math.pi / 2.0)) < tol

    @pytest.mark.parametrize("model", list(Model))
    def test_kolmogorov_smirnov_against_numeric_cdf(self, model, cell_gains):
        x = np.sort(cell_gains(model, 1234, 100_000))
        if model is Model.V2V_RIS_AP:
            cdf = 1.0 - x * sp.k1(x)
        else:
            grid = np.linspace(1e-6, x[-1] + 1.0, 900)
            cdf_grid = np.array([reference.triple_cdf(g) for g in grid])
            cdf = np.interp(x, grid, cdf_grid)
        assert _ks_below_one_percent_critical(x, cdf)

    def test_rayleigh_factor_kolmogorov_smirnov(self):
        x = np.sort(np.sqrt(-2.0 * _log_one_minus(np.random.default_rng(1234).random(100_000))))
        assert _ks_below_one_percent_critical(x, 1.0 - np.exp(-0.5 * x * x))
