"""Analytic secrecy metrics: closed-form values, symmetries, orderings, and
accuracy against references that share no code with the package."""
import json
import math
import pickle
import sys
import tracemalloc
from dataclasses import asdict, astuple, replace
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference
from ris_secrecy import channels, cli, montecarlo, secrecy
from ris_secrecy.secrecy import (
    Model,
    SecrecyReport,
    SystemParams,
    asc_approx,
    secrecy_report,
    sop,
)

# direct arithmetic at the documented defaults, evaluated at 30 decimal digits
SNR_SCALE_V2V_D = 0.2368307135172497          # 10 * 4^-2.7
SNR_SCALE_V2V_E = 0.03644660123190654         # 10 * 8^-2.7
ASC_APPROX_V2V_DEFAULT = 1.8593708133970917
ASC_APPROX_RELAY_DEFAULT = 0.018014807560501453
# A relay point whose hop loss r_s^-beta and destination path loss r_d^-beta
# are each far outside the double range (logs of about +2.3e4 and -2.3e4) and
# cancel: the destination SNR scale is about 2.33.
CANCELLING_RELAY = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1.0, n_0=1.0, n_cells=1, r_s=1e-300,
                                r_d=math.exp(690.75), r_e=1e300, beta=math.exp(3.5))


# ``reference.sop_mp``'s constant sets, in the order of the pair ``sop`` returns
SOP_CONSTANTS = ("corrected", "paper_literal")


def _capacities(points) -> np.ndarray:
    """The (c_d, c_e) row of every point, as its secrecy report gives them."""
    return np.array([(rep.c_d, rep.c_e) for rep in secrecy_report(points)]).reshape(-1, 2)


class TestSystemParams:
    def test_defaults_are_valid(self, v2v_params, relay_params):
        assert v2v_params.n_cells == 16
        assert relay_params.r_s == 10.0
        assert v2v_params.c_th == relay_params.c_th == 1.0

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
            {"n_cells": math.nan},
            {"n_cells": 10 ** 400},  # an integer beyond the double range
            {"r_d": math.inf},
            {"r_e": math.nan},
            {"p_s": 1e300, "r_d": 1e-10},  # the SNR scale overflows
            {"r_d": 1e-200},  # r_d^-beta overflows
            {"r_e": 1e200},  # r_e^-beta underflows to 0
            {"n_cells": 16.0},  # integral, but a float: mc_points could not draw it
            {"n_cells": True},
            {"p_s": True},  # real fields take no bools, strings or None
            {"c_th": True},
            {"r_d": "4"},
            {"beta": None},
        ],
    )
    def test_v2v_validation(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(model=Model.V2V_RIS_AP, **kwargs)

    def test_model_is_a_model_and_reals_are_floats(self):
        # a model name would mix the laws: the relay's triple cascade with
        # the access point's SNR scales
        for model, r_s in (("vanet_ris_relay", 10.0), ("v2v_ris_ap", 1.0), (None, 1.0)):
            with pytest.raises(ValueError, match=r"^model must be a Model"):
                SystemParams(model=model, r_s=r_s)
        p_s = SystemParams(model=Model.V2V_RIS_AP, p_s=10).p_s
        assert type(p_s) is float and p_s == 10.0

    @pytest.mark.parametrize("c_th", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_validation(self, c_th):
        for model, r_s in ((Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)):
            with pytest.raises(ValueError, match=r"^c_th must be finite and > 0$"):
                SystemParams(model=model, r_s=r_s, c_th=c_th)

    def test_relay_requires_r_s(self):
        with pytest.raises(ValueError):
            SystemParams(model=Model.VANET_RIS_RELAY)
        with pytest.raises(ValueError):
            SystemParams(model=Model.VANET_RIS_RELAY, r_s=0.0)
        with pytest.raises(ValueError):
            SystemParams(model=Model.VANET_RIS_RELAY, r_s=math.inf)


# An exact SNR scale within the first bounds rounds to a positive finite
# double; one outside the second rounds to 0 or overflows
_SCALE_ACCEPTED = (mp.mpf(2) ** -1073, (1 - mp.mpf("1e-12")) * mp.mpf(sys.float_info.max))
_SCALE_REJECTED = (mp.mpf(2) ** -1076, (1 + mp.mpf("1e-12")) * mp.mpf(sys.float_info.max))


class TestSnrScale:
    def test_default_arithmetic(self, v2v_params):
        assert v2v_params.scales[0] == pytest.approx(SNR_SCALE_V2V_D, rel=1e-14)
        assert v2v_params.scales[1] == pytest.approx(SNR_SCALE_V2V_E, rel=1e-14)

    def test_unit_case(self):
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=1.0, n_0=1.0, r_d=1.0, r_e=1.0)
        assert p.scales[0] == 1.0
        q = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1.0, n_0=1.0, r_d=1.0, r_e=1.0, r_s=1.0)
        assert q.scales[0] == 1.0

    def test_relay_factorizes_through_source_hop(self, v2v_params, relay_params):
        expected = v2v_params.scales[0] * relay_params.r_s ** -relay_params.beta
        assert relay_params.scales[0] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("beta", [7.0, 7.5])
    def test_subnormal_power_keeps_its_digits(self, beta):
        # p_s r_d^-beta is subnormal here while the scale 1000^-beta is normal
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=1e-300, n_0=1e-300, r_d=1000.0, beta=beta)
        assert p.scales[0] == pytest.approx(1000.0 ** -beta, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath_product_over_the_domain(self, model, data):
        p = data.draw(_domain_points(model))
        for scale, r in zip(p.scales, (p.r_d, p.r_e)):
            ref = reference.snr_scale_mp(p, r)
            if ref < sys.float_info.min:
                continue  # a subnormal scale cannot hold 12 digits
            assert abs(scale - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_points_whose_exact_scales_are_doubles(self, model, data):
        # accepted where both exact scales round to a positive finite double,
        # rejected where one rounds to 0 or overflows; within 1e-12 of those
        # ends, or between 2^-1076 and 2^-1073, rounding decides
        fields = data.draw(_domain_fields(model))
        exact = [reference.snr_scale_mp(SimpleNamespace(**{"r_s": None, **fields}), fields[r]) for r in ("r_d", "r_e")]
        try:
            SystemParams(model=model, **fields)
            accepted = True
        except ValueError:
            accepted = False
        if all(_SCALE_ACCEPTED[0] <= scale <= _SCALE_ACCEPTED[1] for scale in exact):
            assert accepted
        elif any(scale < _SCALE_REJECTED[0] or scale > _SCALE_REJECTED[1] for scale in exact):
            assert not accepted

    def test_overflowing_power_step_is_a_valid_point(self):
        # p_s r_d^-beta overflows, but the scale p_s r_d^-beta / n_0 is 1e27
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=1e300, n_0=1e300, r_d=1e-10)
        ref = reference.snr_scale_mp(p, p.r_d)
        assert abs(p.scales[0] - ref) <= 1e-12 * ref

    def test_relay_hop_cancelling_the_link_path(self):
        for scale, r in zip(CANCELLING_RELAY.scales, (CANCELLING_RELAY.r_d, CANCELLING_RELAY.r_e)):
            assert scale == pytest.approx(
                float(reference.snr_scale_mp(CANCELLING_RELAY, r)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_each_scale_is_computed_once(self, monkeypatch, model, r_s):
        calls = []
        original = secrecy._snr_scale

        def counting(params, distance):
            calls.append(distance)
            return original(params, distance)

        monkeypatch.setattr(secrecy, "_snr_scale", counting)
        p = SystemParams(model=model, r_s=r_s)
        assert calls == [p.r_d, p.r_e]
        secrecy_report([p])
        montecarlo.mc_points([p], montecarlo.McConfig(trials=1000, seed=1))
        assert len(calls) == 2

    def test_scales_are_derived_state_not_a_field(self, relay_params):
        assert "scales" not in asdict(relay_params)
        assert "scales" not in repr(relay_params)
        # doubling p_s doubles each rounded step of the scale exactly
        louder = replace(relay_params, p_s=2.0 * relay_params.p_s)
        assert louder.scales == tuple(2.0 * s for s in relay_params.scales)
        twin = SystemParams(**asdict(relay_params))
        assert twin is not relay_params and twin == relay_params
        assert hash(twin) == hash(relay_params) and twin.scales == relay_params.scales
        copy = pickle.loads(pickle.dumps(relay_params))
        assert copy == relay_params and copy.scales == relay_params.scales


class TestAvgCapacity:
    def test_zero_power_limit(self, v2v_params):
        p = replace(v2v_params, p_s=1e-12)
        assert _capacities([p])[0, 0] < 1e-9

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_destination_beats_eavesdropper_when_closer(self, model, r_s):
        c_d, c_e = _capacities([SystemParams(model=model, r_d=4.0, r_e=8.0, r_s=r_s)])[0]
        assert c_d > c_e

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_jensen_upper_bound(self, model, r_s):
        for p_s in (1.0, 10.0, 50.0):
            p = SystemParams(model=model, p_s=p_s, r_s=r_s)
            for r, capacity in zip((p.r_d, p.r_e), _capacities([p])[0]):
                assert capacity < reference.jensen_bound(p, r)


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
        for r, capacity in zip((p.r_d, p.r_e), _capacities([p])[0]):
            assert capacity == pytest.approx(reference.capacity_quad(p, r), rel=1e-8)


    @pytest.mark.parametrize("kwargs", [
        # capacities of order 1e-8 and 1e-3, where M is within 1e-9 of one
        # over much of the z range and 1 - M must not be formed from M
        {"model": Model.VANET_RIS_RELAY, "r_s": 10.0, "p_s": 1e-3, "r_d": 20.0},
        {"model": Model.V2V_RIS_AP, "p_s": 1e-3},
    ])
    def test_low_snr_against_complement_reference(self, kwargs):
        p = SystemParams(**kwargs)
        caps = _capacities([p])[0]
        for scale, r, batched in zip(p.scales, (p.r_d, p.r_e), caps):
            ref = reference.capacity_quad(p, r)
            assert secrecy._capacity_run([(p, scale)])[0] == pytest.approx(ref, rel=1e-9, abs=0.0)
            assert batched == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("p_s", [1e-12, 1e-290])
    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_tiny_power_against_moment_expansion(self, model, r_s, p_s):
        # capacities near 1e-12 and 1e-15 at p_s = 1e-12: an absolute
        # tolerance of 1e-12 would accept any value there. At 1e-290 the
        # capacity is proportional to s, so an argument formed as
        # exp(v + ln s) would be up to |ln s| ulps off.
        p = SystemParams(model=model, r_s=r_s, p_s=p_s)
        for r, capacity in zip((p.r_d, p.r_e), _capacities([p])[0]):
            assert capacity == pytest.approx(reference.capacity_low_snr_mp(p, r), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model,r_s,expected", [(Model.V2V_RIS_AP, None, 1028.3622),
                                                    (Model.VANET_RIS_RELAY, 1.0, 1028.6685)])
    def test_snr_scale_at_the_top_of_the_double_range(self, model, r_s, expected):
        # e^-z / z overflows at the z near 1/s that a rule in z must reach
        p = SystemParams(model=model, r_s=r_s, p_s=1.5e308, r_d=1.0, r_e=1.0)
        ref = reference.capacity_extreme_snr(p, p.r_d)
        assert ref == pytest.approx(expected, abs=1e-4)
        c_d, c_e = _capacities([p])[0]
        assert c_d == c_e
        assert c_d == pytest.approx(ref, rel=1e-14)


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


_POWER_POINTS = [SystemParams(model=Model.V2V_RIS_AP, p_s=float(p)) for p in range(1, 41)]


def _poison_eavesdropper(monkeypatch, params):
    """Make the v2v MGF return nan at the eavesdropper SNR scale of ``params``.
    Every link is evaluated at its own SNR scale (the node at z = 1), and no
    other link of ``_POWER_POINTS`` has a node there."""
    target = params.scales[1]
    original = channels.one_minus_mgf_double_rayleigh

    def poisoned(s):
        q = original(s)
        q[s == target] = math.nan
        return q

    monkeypatch.setattr(channels, "one_minus_mgf_double_rayleigh", poisoned)


class TestCapacityEngine:
    """The capacity engine: every link on its own, in MGF calls of bounded size."""

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_matches_single_link_view(self, model, data):
        points = data.draw(_point_runs(model))
        caps = _capacities(points)
        assert caps.shape == (len(points), 2)
        for p, row in zip(points, caps):
            for scale, batched in zip(p.scales, row):
                single = secrecy._capacity_run([(p, scale)])[0]
                assert math.isfinite(batched) and batched >= 0.0
                assert batched == single
            assert row.tobytes() == _capacities([p])[0].tobytes()

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_identical_links_in_one_run_are_bit_identical(self, model, r_s):
        near_far = SystemParams(model=model, r_s=r_s, p_s=30.0, r_d=4.0, r_e=8.0)
        symmetric = replace(near_far, r_d=5.0, r_e=5.0)
        swapped = replace(near_far, r_d=8.0, r_e=4.0)
        other = replace(near_far, p_s=2.0, r_d=3.0)
        caps = _capacities([near_far, other, symmetric, swapped])
        assert caps[2, 0] - caps[2, 1] == 0.0
        assert caps[3, 0] == caps[0, 1] and caps[3, 1] == caps[0, 0]
        assert caps[3, 0] - caps[3, 1] == -(caps[0, 0] - caps[0, 1])

    @staticmethod
    def _count_mgf_calls(monkeypatch) -> list:
        """Count the calls of the v2v MGF; returns the list they append to."""
        calls = []
        original = channels.one_minus_mgf_double_rayleigh

        def counted(s):
            calls.append(len(s))
            return original(s)

        monkeypatch.setattr(channels, "one_minus_mgf_double_rayleigh", counted)
        return calls

    def test_runs_longer_than_the_cap_match_per_point_values(self, monkeypatch):
        points = [SystemParams(model=Model.V2V_RIS_AP, p_s=float(p)) for p in np.geomspace(0.01, 1e4, 70)]
        # an SNR scale near 1e308 sums about 3,000 nodes per link, the others
        # 177 to 211
        points[13] = SystemParams(model=Model.V2V_RIS_AP, p_s=1.5e308, r_d=1.0, r_e=1.0)
        calls = self._count_mgf_calls(monkeypatch)
        caps = _capacities(points)
        assert len(calls) >= 2 and max(calls) <= secrecy._BATCH_NODES
        assert np.all(np.isfinite(caps))
        for p, row in zip(points, caps):
            assert row.tobytes() == _capacities([p])[0].tobytes()

    def test_columns_larger_than_the_cap_are_batches_alone(self, monkeypatch):
        points = [SystemParams(model=Model.V2V_RIS_AP, p_s=float(p)) for p in np.geomspace(0.01, 1e4, 5)]
        whole = _capacities(points)
        monkeypatch.setattr(secrecy, "_BATCH_NODES", 100)  # below every column's node count
        calls = self._count_mgf_calls(monkeypatch)
        assert _capacities(points).tobytes() == whole.tobytes()
        assert len(calls) == 2 * len(points)

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_run_memory_is_bounded(self, model, r_s):
        points = [SystemParams(model=model, r_s=r_s, p_s=float(p)) for p in np.geomspace(0.01, 1e4, 2000)]
        points[1000] = replace(points[1000], p_s=1.5e308, r_d=1.0, r_e=2.0)
        tracemalloc.start()
        try:
            caps = _capacities(points)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(caps))
        assert peak < 8 * 2 ** 20  # one MGF call over all 800,000 nodes took about 34 MB

    def test_points_must_share_a_model(self, v2v_params, relay_params):
        with pytest.raises(ValueError):
            secrecy_report([v2v_params, relay_params])
        assert secrecy_report([]) == []

    def test_failure_names_the_point(self, monkeypatch):
        points = _POWER_POINTS
        _poison_eavesdropper(monkeypatch, points[37])
        with pytest.raises(secrecy.QuadratureError) as info:
            secrecy_report(points)
        assert info.value.component == 37
        assert "point 37" in str(info.value)


class TestMonotonicity:
    """The orderings the paper's figures rely on, over random points of both
    models. The ASCs of a comparison may differ by rounding, allowed as
    max(1e-12, 1e-9 |ASC|): the ASC slope in p_s tends to 0 at high SNR."""

    @staticmethod
    def _asc_pair(lower, upper):
        """(ASC at lower, ASC at upper, tolerance)."""
        (cd_lo, ce_lo), (cd_up, ce_up) = _capacities([lower, upper])
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
        p, louder = replace(p, c_th=c_th), replace(louder, c_th=c_th)
        for loud, quiet in zip(sop(louder), sop(p)):
            assert loud <= quiet


def _asc_exact(params: SystemParams) -> float:
    """c_d - c_e at one point, from a capacity run of that point alone."""
    c_d, c_e = _capacities([params])[0]
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
        ref = reference.capacity_mp(p, p.r_d) - reference.capacity_mp(p, p.r_e)
        assert ref == pytest.approx(35.0076, abs=1e-3)
        assert _asc_exact(p) == pytest.approx(ref, rel=1e-13)

    def test_mpmath_capacity_where_z_s_meets_one(self):
        # the scale is 10, so the M(z s) argument is 1 at the z = 0.1 cut, where
        # the elementary form of M cancels to nothing in its numerator
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=10.0, r_d=1.0)
        ref = reference.capacity_mp(p, p.r_d)
        assert ref == pytest.approx(reference.capacity_quad(p, p.r_d), rel=1e-10, abs=0.0)
        assert _capacities([p])[0][0] == pytest.approx(ref, rel=1e-13)


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
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=p_star, r_d=r_d, r_e=r_e, n_cells=n, c_th=c_th)
        assert sop(p) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_one_ulp_more_power_never_raises_outage(self):
        # the quotient of the two rounded SNR scales rose by one ulp from p_s
        # to louder here, and the outage by two
        p = SystemParams(model=Model.VANET_RIS_RELAY, p_s=390428.44810981676, beta=2.0, n_cells=1,
                         r_d=1.4549914146182013, r_e=1.2840254166877414, r_s=1.0)
        louder = replace(p, p_s=math.nextafter(p.p_s, math.inf))
        for loud, quiet in zip(sop(louder), sop(p)):
            assert loud <= quiet

    def test_far_eavesdropper_drives_outage_down(self):
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=50.0, r_e=100.0, c_th=0.5)
        assert sop(p)[0] < 0.01

    def test_monotone_in_threshold(self, v2v_params):
        vals = [sop(replace(v2v_params, c_th=c))[0] for c in (0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_power(self):
        vals = [sop(SystemParams(model=Model.V2V_RIS_AP, p_s=p))[0] for p in (1.0, 2.0, 5.0, 10.0, 30.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bounds(self, v2v_params, relay_params):
        # the last point has a valid SNR scale although p_s r_s^-beta underflows
        extreme = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1e-200, n_0=1e-200, r_s=1e55)
        for p in (v2v_params, relay_params, extreme):
            for c_th in (0.1, 1.0, 5.0):
                for value in sop(replace(p, c_th=c_th)):
                    assert 0.0 <= value <= 1.0

    def test_modes_coincide_for_access_point_model(self, v2v_params):
        corrected, literal = sop(v2v_params)
        assert corrected == literal

    def test_modes_differ_for_relay_interior_point(self):
        p = SystemParams(model=Model.VANET_RIS_RELAY, p_s=1000.0, r_s=10.0)
        corrected, literal = sop(p)
        assert 0.05 < corrected < 0.95
        assert abs(corrected - literal) > 0.2

    def test_threshold_validation(self, v2v_params):
        # the threshold is a field of the point, checked when the point is made
        with pytest.raises(ValueError):
            sop(replace(v2v_params, c_th=0.0))

    @pytest.mark.parametrize("params,c_th", [
        # 2^c_th overflows
        (SystemParams(model=Model.V2V_RIS_AP), 2000.0),
        # (r_e/r_d)^-beta overflows
        (SystemParams(model=Model.V2V_RIS_AP, r_e=0.001, r_d=1000.0, beta=60.0), 1.0),
        (SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0, r_e=0.001, r_d=1000.0, beta=60.0), 1.0),
        # r_e / r_d overflows, while r_e^-beta / r_d^-beta = 1e-200 times
        # 2^c_th is 7e40
        (SystemParams(model=Model.V2V_RIS_AP, p_s=1e200, r_d=1e-200, r_e=1e200, beta=0.5), 800.0),
    ])
    def test_overflowing_terms_give_certain_outage(self, params, c_th):
        assert sop(replace(params, c_th=c_th)) == (1.0, 1.0)

    # the ids are the ones these cases had when sop took its constant set as an argument
    @pytest.mark.parametrize("params,c_th,constants", [
        # fig8's relay base point, where 0.5 (1 + erf(x)) rounds to 0 or
        # keeps no digit: 6e-46, 9e-25 and 3e-17
        pytest.param(SystemParams(model=Model.VANET_RIS_RELAY, p_s=1000.0, r_s=10.0), 0.25, "paper_literal",
                     id="params0-0.25-SopMode.PAPER_LITERAL"),
        pytest.param(SystemParams(model=Model.VANET_RIS_RELAY, p_s=1000.0, r_s=10.0), 1.0, "paper_literal",
                     id="params1-1.0-SopMode.PAPER_LITERAL"),
        pytest.param(SystemParams(model=Model.VANET_RIS_RELAY, p_s=1000.0, r_s=10.0), 1.25, "paper_literal",
                     id="params2-1.25-SopMode.PAPER_LITERAL"),
        pytest.param(SystemParams(model=Model.V2V_RIS_AP, p_s=50.0, r_e=100.0), 0.5, "corrected",  # 3e-7
                     id="params3-0.5-SopMode.CORRECTED"),
        pytest.param(SystemParams(model=Model.V2V_RIS_AP, p_s=1e4, n_cells=256), 1.0, "corrected",  # 4e-45
                     id="params4-1.0-SopMode.CORRECTED"),
    ])
    def test_lower_tail_against_mpmath(self, params, c_th, constants):
        params = replace(params, c_th=c_th)
        assert sop(params)[SOP_CONSTANTS.index(constants)] == pytest.approx(reference.sop_mp(params, constants),
                                                                            rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("params", [
        # N mean or N variance overflows here; the erfc argument is about
        # -1e154, so the outage is 0
        SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0, n_cells=10 ** 308),
        SystemParams(model=Model.V2V_RIS_AP, n_cells=int(1.7e308)),
        SystemParams(model=Model.V2V_RIS_AP, n_cells=10 ** 308),
    ])
    def test_huge_cell_counts(self, params):
        assert sop(params) == (0.0, 0.0)


def _wide(lo, hi):
    """Log-uniform over [lo, hi], with the ends drawn often."""
    return st.one_of(_log_uniform(lo, hi), st.sampled_from((lo, hi)))


@st.composite
def _domain_points(draw, model):
    """A valid point anywhere in the domain: every float field over many
    decades, and the cell count up to the top of the double range, so terms
    of the closed forms overflow or underflow."""
    return _valid_point(SystemParams, model=model, **draw(_domain_fields(model)))


@st.composite
def _domain_fields(draw, model):
    """The fields of a ``_domain_points`` point, before the point is made:
    some of them give an SNR scale outside the double range."""
    kwargs = {
        "p_s": draw(_wide(1e-300, 1e300)),
        "n_0": draw(_wide(1e-300, 1e300)),
        "r_d": draw(_wide(1e-300, 1e300)),
        "r_e": draw(_wide(1e-300, 1e300)),
        "beta": draw(_wide(0.1, 120.0)),
        "n_cells": draw(st.one_of(st.integers(min_value=1, max_value=10 ** 5),
                                  _wide(1.0, sys.float_info.max).map(int))),
    }
    if model is Model.VANET_RIS_RELAY:
        kwargs["r_s"] = draw(_wide(1e-300, 1e300))
    return kwargs


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
        for value in sop(replace(p, c_th=c_th)):
            assert math.isfinite(value) and 0.0 <= value <= 1.0

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_asc_approx_is_finite_and_accurate(self, model, data):
        p = data.draw(_domain_points(model))
        value = asc_approx(p)
        assert math.isfinite(value)
        assert value == pytest.approx(reference.asc_approx_mp(p), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("params", [
        # N pi p_s r_e^-beta overflows while the SNR scale 1e307 is valid
        SystemParams(model=Model.V2V_RIS_AP, r_e=0.001, r_d=4.0, beta=102.0),
        SystemParams(model=Model.VANET_RIS_RELAY, r_s=1.0, r_e=0.001, r_d=4.0, beta=102.0),
    ])
    def test_overflowing_bound_term(self, params):
        assert asc_approx(params) == pytest.approx(reference.asc_approx_mp(params), rel=1e-14)

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 1.0)])
    @pytest.mark.parametrize("r_e", [1.001, 1.0 + 1e-9])
    def test_nearly_equal_links_at_high_snr(self, model, r_s, r_e):
        # both Jensen bounds are about 460 nats and differ by 0.0027 or
        # 2.7e-9; their difference alone would keep only about 1e-14 of it
        params = SystemParams(model=model, p_s=1e200, r_d=1.0, r_e=r_e, r_s=r_s)
        assert asc_approx(params) == pytest.approx(reference.asc_approx_mp(params), rel=1e-14, abs=0.0)

    def test_overflowing_distance_quotient(self):
        # r_d / r_e overflows, so ln(r_d / r_e) is a difference of logs
        params = SystemParams(model=Model.V2V_RIS_AP, p_s=1e80, beta=0.1, r_d=1e300, r_e=1e-10)
        (report,) = secrecy_report([params])
        assert report.asc_approx == pytest.approx(reference.asc_approx_mp(params), rel=1e-14, abs=0.0)

    def test_relay_hop_cancelling_the_link_path(self):
        assert asc_approx(CANCELLING_RELAY) == pytest.approx(reference.asc_approx_mp(CANCELLING_RELAY), rel=1e-14)

    @pytest.mark.parametrize("params", [
        # low SNR: the ASC bounds differ by about 7e-7 and -8e-18 bits, which
        # an absolute tolerance of 1e-12 would not tell from 0
        SystemParams(model=Model.V2V_RIS_AP, p_s=1e-6),
        SystemParams(model=Model.VANET_RIS_RELAY, p_s=0.01054801335708572, r_d=885.0778185980389,
                     r_e=124.7536018853719, beta=4.7954263455740955, n_cells=127, r_s=39.108990301746786),
    ])
    def test_low_snr_keeps_its_relative_digits(self, params):
        assert asc_approx(params) == pytest.approx(reference.asc_approx_mp(params), rel=1e-13, abs=0.0)


RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def _recipe_points():
    """(recipe name, params) at every point of every committed recipe."""
    for path in sorted(RECIPES.glob("fig*.json")):
        cfg = cli.build_run_config(json.loads(path.read_text(encoding="utf-8")))
        for value in cfg.sweep.values() if cfg.sweep else [None]:
            yield path.stem, cli._point(cfg, value)


class TestRecipePoints:
    """The closed forms at every point of the committed recipes, against
    mpmath with a relative tolerance only."""

    def test_asc_approx(self):
        for name, p in _recipe_points():
            assert asc_approx(p) == pytest.approx(reference.asc_approx_mp(p), rel=1e-13, abs=0.0), name

    def test_sop(self):
        for name, p in _recipe_points():
            for constants, value in zip(SOP_CONSTANTS, sop(p)):
                assert value == pytest.approx(reference.sop_mp(p, constants), rel=1e-12, abs=0.0), name


class TestCapacityDomain:
    """Capacities anywhere in the valid domain, n_cells up to the top of
    the double range included: finite, nonnegative capacities; never nan,
    inf or an exception."""

    @pytest.mark.parametrize("model", list(Model))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    def test_finite_and_nonnegative(self, model, data):
        points = data.draw(st.lists(_domain_points(model), min_size=1, max_size=2))
        caps = _capacities(points)
        assert caps.shape == (len(points), 2)
        assert np.all(np.isfinite(caps)) and np.all(caps >= 0.0)

    @pytest.mark.parametrize("model", list(Model))
    def test_huge_arguments_match_the_delta_method(self, model):
        # ln(N mu s) reaches about 1420 here, so the lattice starts far below
        # v = -745, where e^v is 0 while s e^v is a normal double
        r_s = {} if model is Model.V2V_RIS_AP else {"r_s": 1.0}
        for n_cells in (10 ** 8, 10 ** 12, 2 ** 53) + tuple(10 ** e for e in (100, 200, 290, 300, 307, 308)):
            for p_s in (1e-300, 1e-200, 1e-100, 1.0, 1e10, 1e100, 1e200, 1e300, 1.5e308):
                p = SystemParams(model=model, p_s=p_s, r_d=1.0, r_e=1.0, n_cells=n_cells, **r_s)
                c_d, c_e = _capacities([p])[0]
                ref = reference.capacity_delta_method(p, p.r_d)
                assert c_d == c_e == pytest.approx(ref, rel=1e-12, abs=0.0), (n_cells, p_s)


class TestSecrecyReport:
    def test_consistent_with_individual_metrics(self, relay_params):
        # a c_th sweep at the fig8 point, and a second point
        fig8 = replace(relay_params, p_s=1000.0)
        points = [replace(fig8, c_th=c_th) for c_th in (0.25, 1.0, 1.5)] + [replace(relay_params, n_cells=9)]
        reports = secrecy_report(points)
        assert len(reports) == len(points)
        caps = secrecy._capacity_run([(p, scale) for p in points for scale in p.scales]).reshape(-1, 2)
        for params, rep, (c_d, c_e) in zip(points, reports, caps):
            assert (rep.c_d, rep.c_e) == (c_d, c_e)
            assert rep.asc_exact == rep.c_d - rep.c_e
            assert rep.asc_approx == asc_approx(params)
            assert (rep.sop_corrected, rep.sop_paper_literal) == sop(params)
            assert rep.c_d >= 0.0 and rep.c_e >= 0.0
            (alone,) = secrecy_report([params])
            assert np.array(astuple(alone)).tobytes() == np.array(astuple(rep)).tobytes()
        assert reports[0].sop_corrected < reports[1].sop_corrected < reports[2].sop_corrected

    def test_failure_names_the_point(self, monkeypatch):
        _poison_eavesdropper(monkeypatch, _POWER_POINTS[37])
        with pytest.raises(secrecy.QuadratureError) as info:
            secrecy_report(_POWER_POINTS)
        assert info.value.component == 37

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
        assert _capacities([v2v_params])[0, 0] <= reference.jensen_bound(v2v_params, v2v_params.r_d)
