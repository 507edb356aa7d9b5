"""Analytic secrecy metrics: closed-form values, symmetries, orderings, and
accuracy against references that share no code with the package."""
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as sint
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ris_secrecy import channels, secrecy
from ris_secrecy.secrecy import (
    Link,
    Model,
    SecrecyReport,
    SopMode,
    SystemParams,
    asc_approx,
    link_capacities,
    secrecy_report,
    snr_scale,
    sop,
)

# direct arithmetic at the documented defaults, evaluated at 30 decimal digits
SNR_SCALE_V2V_D = 0.2368307135172497          # 10 * 4^-2.7
SNR_SCALE_V2V_E = 0.03644660123190654         # 10 * 8^-2.7
ASC_APPROX_V2V_DEFAULT = 1.8593708133970917
ASC_APPROX_RELAY_DEFAULT = 0.018014807560501453
_SMALLEST_NORMAL = 2.2250738585072014e-308
# A relay point whose hop loss r_s^-beta and destination path loss r_d^-beta
# are each far outside the double range (logs of about +2.3e4 and -2.3e4) and
# cancel: the destination SNR scale is about 2.33.
CANCELLING_RELAY = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1.0, n_0=1.0, n_cells=1, r_s=1e-300,
                                r_d=math.exp(690.75), r_e=1e300, beta=math.exp(3.5))


# Adaptive scalar reference for the average link capacity: QUADPACK (scipy)
# over z of (1 - M^N) e^-z / z = -expm1(N log1p(-q)) e^-z / z with q = 1 - M
# carried throughout. q is the double-Rayleigh moment series for small s and
# 1 - M of the elementary MGF in double precision elsewhere (mpmath where it
# cancels, near s = 1); for the relay model, a second QUADPACK integral over
# the Rayleigh factor averages q.
# E[g^k]/k! for the double-Rayleigh gain, E[g^k] = (2^(k/2) Gamma(1 + k/2))^2
_DBL_MOMENT_SERIES = tuple(math.exp(k * math.log(2.0) + 2.0 * math.lgamma(1.0 + 0.5 * k)
                                    - math.lgamma(k + 1.0)) for k in range(1, 120))


def _one_minus_mgf_dbl_ref(s: float) -> float:
    if s < 0.5:
        # alternating moment series, convergent for s < 1
        total = 0.0
        power = 1.0
        for k, c in enumerate(_DBL_MOMENT_SERIES, start=1):
            power *= s
            term = c * power
            total += term if k % 2 else -term
            if term <= 1e-18 * total:
                break
        return total
    return 1.0 - _mgf_dbl_ref(s)


def _mgf_dbl_ref(s: float) -> float:
    if abs(s - 1.0) < 1e-3:
        return float(_mgf_dbl_mp(mp.mpf(s)))
    if s < 1.0:
        r = math.sqrt(1.0 - s * s)
        return (r - s * math.acos(s)) / r ** 3
    if s > 1e100:
        return (math.log(2.0 * s) - 1.0) / s / s
    r = math.sqrt(s * s - 1.0)
    return (s * math.acosh(s) - r) / r ** 3


def _one_minus_mgf_triple_ref(s: float) -> float:
    val, _ = sint.quad(lambda y: y * math.exp(-0.5 * y * y) * _one_minus_mgf_dbl_ref(s * y),
                       0.0, 9.0, points=(1.0, 3.0), epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _capacity_ref(params: SystemParams, link: Link) -> float:
    scale = snr_scale(params, link)
    one_minus_mgf = (_one_minus_mgf_dbl_ref if params.model is Model.V2V_RIS_AP
                     else _one_minus_mgf_triple_ref)

    def f(z):
        q = one_minus_mgf(z * scale)
        if q >= 1.0:
            return math.exp(-z) / z
        return -math.expm1(params.n_cells * math.log1p(-q)) * math.exp(-z) / z

    val, _ = sint.quad(f, 0.0, 50.0, points=[10.0 ** k for k in range(-8, 2)], epsabs=0.0,
                       epsrel=1e-11, limit=400)
    return val / math.log(2.0)


def _mgf_dbl_mp(s):
    with mp.workdps(40):
        if s == 1:
            return mp.mpf(1) / 3
        if s < 1:
            r = mp.sqrt(1 - s * s)
            return (r - s * mp.acos(s)) / r ** 3
        r = mp.sqrt(s * s - 1)
        return (s * mp.acosh(s) - r) / r ** 3


def _capacity_mp(params: SystemParams, link: Link) -> float:
    # the whole identity in 40-digit arithmetic, split into decades of z so
    # that the 1/z stretch of a high-SNR link is resolved
    scale = mp.mpf(snr_scale(params, link))
    with mp.workdps(40):
        def f(z):
            m = _mgf_dbl_mp(z * scale)
            return -mp.expm1(params.n_cells * mp.log(m)) * mp.exp(-z) / z

        cuts = [mp.mpf(0)] + [mp.mpf(10) ** k for k in range(-30, 2)] + [mp.mpf(60)]
        return float(mp.quad(f, cuts) / mp.log(2))


def _jensen_bound(params: SystemParams, link: Link) -> float:
    """log2(1 + E[gamma]) = log2(1 + N E[g] scale), the Jensen upper bound on
    the average link capacity."""
    mean = channels.DOUBLE_RAYLEIGH_MEAN if params.model is Model.V2V_RIS_AP else channels.TRIPLE_CASCADE_MEAN
    return math.log2(1.0 + params.n_cells * mean * snr_scale(params, link))


class TestSystemParams:
    def test_defaults_are_valid(self, v2v_params, relay_params):
        assert v2v_params.n_cells == 16
        assert relay_params.r_s == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_s": 0.0},
            {"n_0": -1.0},
            {"beta": 0.0},
            {"n_cells": 0},
            {"n_cells": 2.5},
            {"r_d": 0.0},
            {"r_e": -3.0},
            {"r_s": 5.0},  # not allowed on the access-point model
            {"p_s": math.inf},
            {"p_s": math.nan},
            {"n_0": math.inf},
            {"beta": math.inf},
            {"n_cells": math.inf},
            {"r_d": math.inf},
            {"r_e": math.nan},
            {"p_s": 1e300, "r_d": 1e-10},  # the SNR scale overflows
            {"r_d": 1e-200},  # r_d^-beta overflows
            {"r_e": 1e200},  # r_e^-beta underflows to 0
        ],
    )
    def test_v2v_validation(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(model=Model.V2V_RIS_AP, **kwargs)

    def test_relay_requires_r_s(self):
        with pytest.raises(ValueError):
            SystemParams(model=Model.VANET_RIS_RELAY)
        with pytest.raises(ValueError):
            SystemParams(model=Model.VANET_RIS_RELAY, r_s=0.0)
        with pytest.raises(ValueError):
            SystemParams(model=Model.VANET_RIS_RELAY, r_s=math.inf)


class TestSnrScale:
    def test_default_arithmetic(self, v2v_params):
        assert snr_scale(v2v_params, Link.DESTINATION) == pytest.approx(SNR_SCALE_V2V_D, rel=1e-14)
        assert snr_scale(v2v_params, Link.EAVESDROPPER) == pytest.approx(SNR_SCALE_V2V_E, rel=1e-14)

    def test_unit_case(self):
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=1.0, n_0=1.0, r_d=1.0, r_e=1.0)
        assert snr_scale(p, Link.DESTINATION) == 1.0
        q = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1.0, n_0=1.0, r_d=1.0, r_e=1.0, r_s=1.0)
        assert snr_scale(q, Link.DESTINATION) == 1.0

    def test_relay_factorizes_through_source_hop(self, v2v_params, relay_params):
        expected = snr_scale(v2v_params, Link.DESTINATION) * relay_params.r_s ** -relay_params.beta
        assert snr_scale(relay_params, Link.DESTINATION) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("beta", [7.0, 7.5])
    def test_subnormal_power_keeps_its_digits(self, beta):
        # p_s r_d^-beta is subnormal here while the scale 1000^-beta is normal
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=1e-300, n_0=1e-300, r_d=1000.0, beta=beta)
        assert snr_scale(p, Link.DESTINATION) == pytest.approx(1000.0 ** -beta, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath_product_over_the_domain(self, model, data):
        p = data.draw(_domain_points(model))
        for link in Link:
            ref = _snr_scale_mp(p, link)
            if ref < _SMALLEST_NORMAL:
                continue  # a subnormal scale cannot hold 12 digits
            assert abs(snr_scale(p, link) - ref) <= 1e-12 * ref

    def test_relay_hop_cancelling_the_link_path(self):
        for link in Link:
            assert snr_scale(CANCELLING_RELAY, link) == pytest.approx(
                float(_snr_scale_mp(CANCELLING_RELAY, link)), rel=1e-14, abs=0.0)


def _snr_scale_mp(params: SystemParams, link: Link):
    """p_s r^-beta [r_s^-beta] / n_0 at 40 digits."""
    r = params.r_d if link is Link.DESTINATION else params.r_e
    with mp.workdps(40):
        ref = mp.mpf(params.p_s) * mp.mpf(r) ** -mp.mpf(params.beta) / mp.mpf(params.n_0)
        if params.model is Model.VANET_RIS_RELAY:
            ref *= mp.mpf(params.r_s) ** -mp.mpf(params.beta)
        return ref


class TestAvgCapacity:
    def test_zero_power_limit(self, v2v_params):
        p = replace(v2v_params, p_s=1e-12)
        assert link_capacities([p])[0, 0] < 1e-9

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_destination_beats_eavesdropper_when_closer(self, model, r_s):
        c_d, c_e = link_capacities([SystemParams(model=model, r_d=4.0, r_e=8.0, r_s=r_s)])[0]
        assert c_d > c_e

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_jensen_upper_bound(self, model, r_s):
        for p_s in (1.0, 10.0, 50.0):
            p = SystemParams(model=model, p_s=p_s, r_s=r_s)
            for link, capacity in zip(Link, link_capacities([p])[0]):
                assert capacity < _jensen_bound(p, link)


    @pytest.mark.parametrize("kwargs", [
        {"model": Model.V2V_RIS_AP, "p_s": 10.0},
        {"model": Model.V2V_RIS_AP, "p_s": 1e4},
        {"model": Model.VANET_RIS_RELAY, "r_s": 10.0, "p_s": 10.0},
        {"model": Model.VANET_RIS_RELAY, "r_s": 10.0, "p_s": 1e3},
        # the cascade MGF argument reaches ~1e18 here
        {"model": Model.VANET_RIS_RELAY, "r_s": 0.01, "r_d": 0.01, "p_s": 1e6},
    ])
    def test_against_adaptive_scalar_reference(self, kwargs):
        p = SystemParams(**kwargs)
        for link, capacity in zip(Link, link_capacities([p])[0]):
            assert capacity == pytest.approx(_capacity_ref(p, link), rel=1e-8)


    @pytest.mark.parametrize("kwargs", [
        # capacities of order 1e-8 and 1e-3, where M is within 1e-9 of one
        # over much of the z range and 1 - M must not be formed from M
        {"model": Model.VANET_RIS_RELAY, "r_s": 10.0, "p_s": 1e-3, "r_d": 20.0},
        {"model": Model.V2V_RIS_AP, "p_s": 1e-3},
    ])
    def test_low_snr_against_complement_reference(self, kwargs):
        p = SystemParams(**kwargs)
        caps = link_capacities([p])[0]
        for link, batched in zip(Link, caps):
            ref = _capacity_ref(p, link)
            assert secrecy._capacity_run([(p, link)])[0] == pytest.approx(ref, rel=1e-9, abs=0.0)
            assert batched == pytest.approx(ref, rel=1e-9, abs=0.0)


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


@st.composite
def _system_points(draw, model):
    """One point of a model over log-uniform p_s, distances, beta and n_cells."""
    kwargs = {
        "p_s": draw(_log_uniform(1e-3, 1e12)),
        "r_d": draw(_log_uniform(0.01, 100.0)),
        "r_e": draw(_log_uniform(0.01, 100.0)),
        "beta": draw(st.floats(min_value=2.0, max_value=4.0)),
        "n_cells": draw(st.integers(min_value=1, max_value=1024)),
    }
    if model is Model.VANET_RIS_RELAY:
        kwargs["r_s"] = draw(_log_uniform(0.01, 100.0))
    return _valid_point(SystemParams, model=model, **kwargs)


def _valid_point(make, *args, **kwargs):
    """make(*args, **kwargs), discarding the example when an SNR scale falls
    outside double range."""
    try:
        return make(*args, **kwargs)
    except ValueError:
        assume(False)


def _point_runs(model):
    """1-4 points of one model."""
    return st.lists(_system_points(model), min_size=1, max_size=4)


class TestCapacityEngine:
    """link_capacities: every link of up to 32 points in one quadrature."""

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_matches_single_link_view(self, model, data):
        points = data.draw(_point_runs(model))
        caps = link_capacities(points)
        assert caps.shape == (len(points), 2)
        for p, row in zip(points, caps):
            for link, batched in zip(Link, row):
                single = secrecy._capacity_run([(p, link)])[0]
                assert math.isfinite(batched) and batched >= 0.0
                assert abs(batched - single) <= max(1e-12, 1e-10 * abs(single))

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_identical_links_in_one_run_are_bit_identical(self, model, r_s):
        near_far = SystemParams(model=model, r_s=r_s, p_s=30.0, r_d=4.0, r_e=8.0)
        symmetric = replace(near_far, r_d=5.0, r_e=5.0)
        swapped = replace(near_far, r_d=8.0, r_e=4.0)
        other = replace(near_far, p_s=2.0, r_d=3.0)
        caps = link_capacities([near_far, other, symmetric, swapped])
        assert caps[2, 0] - caps[2, 1] == 0.0
        assert caps[3, 0] == caps[0, 1] and caps[3, 1] == caps[0, 0]
        assert caps[3, 0] - caps[3, 1] == -(caps[0, 0] - caps[0, 1])

    def test_runs_longer_than_the_cap_match_per_point_values(self):
        points = [SystemParams(model=Model.V2V_RIS_AP, p_s=float(p)) for p in np.geomspace(0.01, 1e4, 70)]
        caps = link_capacities(points)
        for p, row in zip(points, caps):
            assert row == pytest.approx(link_capacities([p])[0], rel=1e-12, abs=1e-15)

    def test_points_per_run_are_capped(self, monkeypatch):
        runs = []
        original = secrecy.integrate

        def counting(f, breaks, **tols):
            value = original(f, breaks, **tols)
            runs.append(np.size(value))
            return value

        monkeypatch.setattr(secrecy, "integrate", counting)
        link_capacities([SystemParams(model=Model.V2V_RIS_AP, p_s=float(p)) for p in range(1, 71)])
        assert runs == [64, 64, 12]

    def test_points_must_share_a_model(self, v2v_params, relay_params):
        with pytest.raises(ValueError):
            link_capacities([v2v_params, relay_params])
        assert link_capacities([]).shape == (0, 2)

    def test_failure_names_the_point(self, monkeypatch):
        original = channels.one_minus_mgf_double_rayleigh

        def poisoned(s):
            q = original(s)
            if q.shape[1] == 16:  # the second run, points 32-39
                q[:, 2 * 5 + 1] = math.nan  # the eavesdropper link of its point 5
            return q

        monkeypatch.setattr(channels, "one_minus_mgf_double_rayleigh", poisoned)
        points = [SystemParams(model=Model.V2V_RIS_AP, p_s=float(p)) for p in range(1, 41)]
        with pytest.raises(secrecy.QuadratureError) as info:
            link_capacities(points)
        assert info.value.component == 37


class TestMonotonicity:
    """The orderings the paper's figures rely on, over random points of both
    models. Both points of an ASC comparison share one capacity run, and
    they may differ by the engine tolerance max(1e-12, 1e-9 |ASC|): the ASC
    slope in p_s tends to 0 at high SNR."""

    @staticmethod
    def _asc_pair(lower, upper):
        """(ASC at lower, ASC at upper, tolerance) from one capacity run."""
        (cd_lo, ce_lo), (cd_up, ce_up) = link_capacities([lower, upper])
        asc_lo, asc_up = cd_lo - ce_lo, cd_up - ce_up
        return asc_lo, asc_up, max(1e-12, 1e-9 * max(abs(asc_lo), abs(asc_up)))

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_asc_non_decreasing_in_power_when_destination_is_closer(self, model, data):
        p = data.draw(_system_points(model))
        assume(p.r_d != p.r_e)
        p = _valid_point(replace, p, r_d=min(p.r_d, p.r_e), r_e=max(p.r_d, p.r_e))
        louder = _valid_point(replace, p, p_s=p.p_s * data.draw(_log_uniform(1.0, 1e3)))
        asc, asc_louder, tol = self._asc_pair(p, louder)
        assert asc_louder >= asc - tol

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_asc_non_decreasing_in_eavesdropper_distance(self, model, data):
        p = data.draw(_system_points(model))
        farther = _valid_point(replace, p, r_e=p.r_e * data.draw(_log_uniform(1.0, 100.0)))
        asc, asc_farther, tol = self._asc_pair(p, farther)
        assert asc_farther >= asc - tol

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sop_non_increasing_in_power(self, model, data):
        p = data.draw(_system_points(model))
        louder = _valid_point(replace, p, p_s=p.p_s * data.draw(_log_uniform(1.0, 1e3)))
        c_th = data.draw(st.floats(min_value=0.05, max_value=5.0))
        for mode in SopMode:
            assert sop(louder, c_th, mode) <= sop(p, c_th, mode)


def _asc_exact(params: SystemParams) -> float:
    """c_d - c_e at one point, from a capacity run of that point alone."""
    c_d, c_e = link_capacities([params])[0]
    return c_d - c_e


class TestAscExact:
    def test_symmetric_links_cancel(self):
        p = SystemParams(model=Model.V2V_RIS_AP, r_d=5.0, r_e=5.0)
        assert _asc_exact(p) == 0.0

    def test_swapping_links_negates(self, v2v_params):
        swapped = replace(v2v_params, r_d=v2v_params.r_e, r_e=v2v_params.r_d)
        assert _asc_exact(swapped) == -_asc_exact(v2v_params)

    def test_defaults_positive(self, v2v_params, relay_params):
        assert _asc_exact(v2v_params) > 0.0
        assert _asc_exact(relay_params) > 0.0

    def test_high_snr_point_against_mpmath(self):
        # 1 - M^N must not cancel, and the z -> 0 limit of the integrand must
        # not stand in for it, when the SNR scale is ~1e20
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=1e12, r_d=0.001)
        ref = _capacity_mp(p, Link.DESTINATION) - _capacity_mp(p, Link.EAVESDROPPER)
        assert ref == pytest.approx(35.0076, abs=1e-3)
        assert _asc_exact(p) == pytest.approx(ref, rel=1e-9)


class TestAscApprox:
    def test_v2v_default_value(self, v2v_params):
        assert asc_approx(v2v_params) == pytest.approx(ASC_APPROX_V2V_DEFAULT, rel=1e-13)

    def test_relay_default_value(self, relay_params):
        assert asc_approx(relay_params) == pytest.approx(ASC_APPROX_RELAY_DEFAULT, rel=1e-13)

    def test_symmetric_links_cancel(self):
        p = SystemParams(model=Model.V2V_RIS_AP, r_d=6.0, r_e=6.0)
        assert asc_approx(p) == 0.0

    def test_nonnegative_when_destination_closer(self, v2v_params, relay_params):
        for p in (v2v_params, relay_params):
            assert asc_approx(p) >= 0.0

    def test_relay_source_hop_equivalent_to_power(self, relay_params):
        # scaling r_s^-beta by k acts exactly like scaling p_s by k
        k = 3.7
        r_s_scaled = (relay_params.r_s ** -relay_params.beta * k) ** (-1.0 / relay_params.beta)
        a = asc_approx(replace(relay_params, r_s=r_s_scaled))
        b = asc_approx(replace(relay_params, p_s=relay_params.p_s * k))
        assert a == pytest.approx(b, rel=1e-12)


class TestSop:
    def test_erf_zero_point_gives_half(self):
        # choose p_s so the erf argument vanishes
        beta, r_d, r_e, n, c_th = 2.7, 4.0, 8.0, 16, 1.0
        nu = 2.0 ** c_th
        ratio = (r_e / r_d) ** -beta
        b = n * (math.pi / 2.0) * (nu * ratio - 1.0)
        p_star = (nu - 1.0) / (r_d ** -beta) / (-b)
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=p_star, r_d=r_d, r_e=r_e, n_cells=n)
        assert sop(p, c_th) == pytest.approx(0.5, abs=1e-9)

    def test_far_eavesdropper_drives_outage_down(self):
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=50.0, r_e=100.0)
        assert sop(p, 0.5) < 0.01

    def test_monotone_in_threshold(self, v2v_params):
        vals = [sop(v2v_params, c) for c in (0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_power(self):
        vals = [sop(SystemParams(model=Model.V2V_RIS_AP, p_s=p), 1.0) for p in (1.0, 2.0, 5.0, 10.0, 30.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bounds(self, v2v_params, relay_params):
        # the last point has a valid SNR scale although p_s r_s^-beta underflows
        extreme = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1e-200, n_0=1e-200, r_s=1e55)
        for p in (v2v_params, relay_params, extreme):
            for c_th in (0.1, 1.0, 5.0):
                for mode in SopMode:
                    assert 0.0 <= sop(p, c_th, mode) <= 1.0

    def test_modes_coincide_for_access_point_model(self, v2v_params):
        assert sop(v2v_params, 1.0, SopMode.CORRECTED) == sop(v2v_params, 1.0, SopMode.PAPER_LITERAL)

    def test_modes_differ_for_relay_interior_point(self):
        p = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1000.0, r_s=10.0)
        corrected = sop(p, 1.0, SopMode.CORRECTED)
        literal = sop(p, 1.0, SopMode.PAPER_LITERAL)
        assert 0.05 < corrected < 0.95
        assert abs(corrected - literal) > 0.2

    def test_threshold_validation(self, v2v_params):
        with pytest.raises(ValueError):
            sop(v2v_params, 0.0)

    @pytest.mark.parametrize("params,c_th", [
        # 2^c_th overflows
        (SystemParams(model=Model.V2V_RIS_AP), 2000.0),
        # (r_e/r_d)^-beta overflows
        (SystemParams(model=Model.V2V_RIS_AP, r_e=0.001, r_d=1000.0, beta=60.0), 1.0),
        (SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0, r_e=0.001, r_d=1000.0, beta=60.0), 1.0),
    ])
    def test_overflowing_terms_give_certain_outage(self, params, c_th):
        for mode in SopMode:
            assert sop(params, c_th, mode) == 1.0


def _asc_approx_mp(params):
    """log2 of the Jensen-bound ratio at 50 digits, straight from the formula."""
    with mp.workdps(50):
        n, p_s, n_0 = mp.mpf(params.n_cells), mp.mpf(params.p_s), mp.mpf(params.n_0)
        rd, re_ = mp.mpf(params.r_d) ** -params.beta, mp.mpf(params.r_e) ** -params.beta
        if params.model is Model.V2V_RIS_AP:
            c, coeff = 2, n * mp.pi * p_s
        else:
            c, coeff = 2 * mp.sqrt(2), n * p_s * mp.pi ** 1.5 * mp.mpf(params.r_s) ** -params.beta
        return float(mp.log((c * n_0 + coeff * rd) / (c * n_0 + coeff * re_), 2))


def _wide(lo, hi):
    """Log-uniform over [lo, hi], with the ends drawn often."""
    return st.one_of(_log_uniform(lo, hi), st.sampled_from((lo, hi)))


@st.composite
def _domain_points(draw, model):
    """A valid point anywhere in the domain: every float field over many
    decades, so terms of the closed forms overflow or underflow."""
    kwargs = {
        "p_s": draw(_wide(1e-300, 1e300)),
        "n_0": draw(_wide(1e-300, 1e300)),
        "r_d": draw(_wide(1e-300, 1e300)),
        "r_e": draw(_wide(1e-300, 1e300)),
        "beta": draw(_wide(0.1, 120.0)),
        "n_cells": draw(st.integers(min_value=1, max_value=10 ** 5)),
    }
    if model is Model.VANET_RIS_RELAY:
        kwargs["r_s"] = draw(_wide(1e-300, 1e300))
    return _valid_point(SystemParams, model=model, **kwargs)


class TestClosedFormDomain:
    """Every valid point gives a finite closed-form value, including points
    where 2^c_th, r^-beta or the Jensen-bound terms leave the double range."""

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_sop_is_a_probability(self, model, data):
        p = data.draw(_domain_points(model))
        c_th = data.draw(st.one_of(_log_uniform(1e-300, 1e308),
                                   st.floats(min_value=0.0, max_value=1e308, exclude_min=True)))
        for mode in SopMode:
            value = sop(p, c_th, mode)
            assert math.isfinite(value) and 0.0 <= value <= 1.0

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_asc_approx_is_finite_and_accurate(self, model, data):
        p = data.draw(_domain_points(model))
        value = asc_approx(p)
        assert math.isfinite(value)
        assert value == pytest.approx(_asc_approx_mp(p), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("params", [
        # N pi p_s r_e^-beta overflows while the SNR scale 1e307 is valid
        SystemParams(model=Model.V2V_RIS_AP, r_e=0.001, r_d=4.0, beta=102.0),
        SystemParams(model=Model.VANET_RIS_RELAY, r_s=1.0, r_e=0.001, r_d=4.0, beta=102.0),
    ])
    def test_overflowing_bound_term(self, params):
        assert asc_approx(params) == pytest.approx(_asc_approx_mp(params), rel=1e-14)

    def test_relay_hop_cancelling_the_link_path(self):
        assert asc_approx(CANCELLING_RELAY) == pytest.approx(_asc_approx_mp(CANCELLING_RELAY), rel=1e-14)


class TestSecrecyReport:
    def test_consistent_with_individual_metrics(self, v2v_params):
        rep = secrecy_report(v2v_params, c_th=1.0)
        assert rep.asc_exact == rep.c_d - rep.c_e
        assert rep.asc_approx == asc_approx(v2v_params)
        assert rep.sop_corrected == sop(v2v_params, 1.0, SopMode.CORRECTED)
        assert rep.sop_paper_literal == sop(v2v_params, 1.0, SopMode.PAPER_LITERAL)
        assert rep.c_d >= 0.0 and rep.c_e >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SecrecyReport(c_d=-1.0, c_e=0.0, asc_exact=0.0, asc_approx=0.0,
                          sop_corrected=0.5, sop_paper_literal=0.5)
        with pytest.raises(ValueError):
            SecrecyReport(c_d=1.0, c_e=0.0, asc_exact=1.0, asc_approx=1.0,
                          sop_corrected=1.5, sop_paper_literal=0.5)
        for field in ("c_d", "asc_exact", "asc_approx"):
            fields = dict(c_d=1.0, c_e=0.0, asc_exact=1.0, asc_approx=1.0,
                          sop_corrected=0.5, sop_paper_literal=0.5)
            fields[field] = math.nan
            with pytest.raises(ValueError):
                SecrecyReport(**fields)
        with pytest.raises(ValueError):
            SecrecyReport(c_d=math.inf, c_e=0.0, asc_exact=math.inf, asc_approx=1.0,
                          sop_corrected=0.5, sop_paper_literal=0.5)

    def test_jensen_bound_dominates_per_link_capacity(self, v2v_params):
        # the closed-form approximation is built from per-link upper bounds
        assert link_capacities([v2v_params])[0, 0] <= _jensen_bound(v2v_params, Link.DESTINATION)
