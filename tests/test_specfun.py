"""Special-function accuracy against independent oracles, plus the quadrature
engine contracts."""
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_secrecy.channels import _as_arguments, _mgf_dbl
from ris_secrecy.specfun import QuadratureError, QuadratureSpec, _column_fsums, integrate

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


# e*E1(1) from the series E1(1) = -gamma + sum (-1)^(k+1)/(k k!)
E_TIMES_E1_AT_1 = 0.59634736232319407


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
        mp.mp.dps = 25
        xs = np.concatenate([np.linspace(-1.0, 0.5, 30),
                             1.0 - np.logspace(-7, -0.31, 30)])
        for x in xs:
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


# Initial panels over (0, 40] for integrands decaying like exp(-z), graded
# towards the origin as in the capacity integral; exp(-40) < 1e-17.
SEMI_INFINITE_BREAKS = (0.0, 0.625, 2.5, 10.0, 40.0)


class TestIntegrateSemiInfinite:
    """integrate() on exponentially decaying integrands over explicit breaks,
    against closed forms and scipy's K0."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_gamma_function_values(self, k):
        val = integrate(lambda z: z ** (k - 1) * np.exp(-z), SEMI_INFINITE_BREAKS)
        assert val == pytest.approx(math.factorial(k - 1), rel=1e-9)

    def test_plain_exponential(self):
        assert integrate(lambda z: np.exp(-z), SEMI_INFINITE_BREAKS) == pytest.approx(1.0, rel=1e-10)

    def test_exponential_integral_value(self):
        # independent oracle: E1(1) = -gamma + sum (-1)^(k+1)/(k k!)
        e1 = -0.5772156649015328606
        term = 1.0
        for k in range(1, 30):
            term *= -1.0 / k
            e1 -= term / k
        assert abs(math.e * e1 - E_TIMES_E1_AT_1) < 1e-14
        val = integrate(lambda z: (1.0 - 1.0 / (1.0 + z)) * np.exp(-z) / z, SEMI_INFINITE_BREAKS)
        assert val == pytest.approx(E_TIMES_E1_AT_1, rel=1e-9)

    def test_double_rayleigh_pdf_normalizes(self):
        # the double-Rayleigh density g K0(g), with scipy's K0
        val = integrate(lambda g: g * sp.k0(g), SEMI_INFINITE_BREAKS)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        f = lambda z: np.sin(3.0 * z) ** 2 * np.exp(-z)
        assert integrate(f, SEMI_INFINITE_BREAKS) == integrate(f, SEMI_INFINITE_BREAKS)

    def test_nonconvergence_carries_best_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=2)
        with pytest.raises(QuadratureError) as exc_info:
            integrate(lambda z: np.cos(50.0 * z) * np.exp(-z), SEMI_INFINITE_BREAKS, spec)
        err = exc_info.value
        assert math.isfinite(err.best_estimate)
        assert err.error_bound > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-9},
            {"abs_tol": -1.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda z: np.full_like(z, math.nan), SEMI_INFINITE_BREAKS)


class TestIntegrateVector:
    def test_components_match_scalar_runs(self):
        # every component of a shared run meets its own tolerance
        ks = np.array([1.0, 2.0, 3.0, 5.0])
        vec = integrate(lambda z: z[:, None] ** (ks - 1.0) * np.exp(-z)[:, None],
                        (0.0, 0.625, 2.5, 10.0, 40.0))
        assert vec.shape == (4,)
        for k, v in zip(ks, vec):
            assert v == pytest.approx(math.gamma(k), rel=1e-9)

    def test_scalar_integrand_returns_float(self):
        val = integrate(lambda y: y * np.exp(-0.5 * y * y), (0.0, 1.0, 8.7))
        assert isinstance(val, float)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_nonconvergence_reports_worst_component(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=2)
        with pytest.raises(QuadratureError) as exc_info:
            integrate(lambda z: np.stack([np.exp(-z), np.cos(50.0 * z) * np.exp(-z)], axis=1),
                      (0.0, 40.0), spec)
        assert math.isfinite(exc_info.value.best_estimate)
        assert exc_info.value.error_bound > 0.0
        assert exc_info.value.component == 1

    def test_non_finite_component_is_named(self):
        def f(z):
            out = np.exp(-np.multiply.outer(z, [1.0, 2.0, 3.0]))
            out[:, 2] = math.nan
            return out

        with pytest.raises(QuadratureError) as exc_info:
            integrate(f, (0.0, 40.0))
        assert exc_info.value.component == 2

    def test_scalar_failure_has_no_component(self):
        with pytest.raises(QuadratureError) as exc_info:
            integrate(lambda z: np.full_like(z, math.nan), (0.0, 1.0))
        assert exc_info.value.component is None

    @pytest.mark.parametrize("m", [2, 3, 9, 17, 64])
    def test_identical_components_are_bit_identical_at_any_position(self, m):
        # the same component (rate 1.7) placed at every position among others
        placed = []
        for j in range(m):
            rates = np.linspace(0.5, 3.0, m)
            rates[j] = 1.7
            vals = integrate(lambda z: np.sin(np.multiply.outer(z, rates)) ** 2 * np.exp(-z)[:, None],
                             (0.0, 2.5, 10.0, 40.0))
            placed.append(vals[j])
        assert len(set(placed)) == 1

    @given(k=st.integers(1, 64), m=st.integers(1, 800), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_column_resum_is_fsum_of_each_column(self, k, m, seed, extra):
        rng = np.random.default_rng(seed)
        # mixed signs and magnitudes from 1e-300 to 1e300
        values = rng.choice([-1.0, 1.0], (k, m)) * 10.0 ** rng.uniform(-300.0, 300.0, (k, m))
        # exact cancellations: in about half the columns the last k//2 entries
        # negate the first k//2
        half = k // 2
        cancel = rng.random(m) < 0.5
        values[k - half:, cancel] = -values[:half, cancel]
        values.flat[rng.integers(0, values.size, len(extra))] = extra
        expected = np.array([math.fsum(col) for col in values.T])
        assert _column_fsums(values).tobytes() == expected.tobytes()
