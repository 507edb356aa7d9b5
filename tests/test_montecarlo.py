"""Simulation-oracle contracts: determinism, moment agreement, estimator
consistency and the analytic cross-checks."""
import math
from dataclasses import replace

import numpy as np
import pytest

from ris_secrecy import cli
from ris_secrecy.channels import FadingKind, moments
from ris_secrecy.montecarlo import (
    McConfig,
    McEstimate,
    _block_rng,
    _blocks,
    mc_asc,
    mc_gain_sum_stats,
    mc_points,
    mc_sop,
    sample_gain_sums,
)
from ris_secrecy.secrecy import Link, Model, SystemParams, asc_exact, snr_scale, sop


def sample_snr_pairs(params, rng, n):
    """n trials of the instantaneous SNR pair (gamma_d, gamma_e): the drawn
    gain sums times each link's SNR scale."""
    sum_d, sum_e = sample_gain_sums(params, rng, n)
    return snr_scale(params, Link.DESTINATION) * sum_d, snr_scale(params, Link.EAVESDROPPER) * sum_e


class TestConfigTypes:
    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"batch": 0}, {"seed": -1}, {"seed": 2 ** 64}])
    def test_mc_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            McConfig(**kwargs)

    def test_mc_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(value=1.0, std_error=-0.1, trials=10)


class TestDeterminism:
    """The worker count comes only from RIS_SECRECY_THREADS; neither it nor
    the batch size may change a single bit of any estimate."""

    def test_identical_across_runs_threads_and_batch(self, v2v_params, monkeypatch):
        base = McConfig(trials=30_000, seed=404)
        monkeypatch.setenv("RIS_SECRECY_THREADS", "1")
        ref_diff, ref_pos = mc_asc(v2v_params, base)
        for cfg, threads in ((base, "1"), (base, "4"), (replace(base, batch=100), "3"),
                             (replace(base, batch=10 ** 6), "2")):
            monkeypatch.setenv("RIS_SECRECY_THREADS", threads)
            diff, pos = mc_asc(v2v_params, cfg)
            assert diff == ref_diff
            assert pos == ref_pos

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_multi_point_run_identical_across_threads_and_batch(self, model, r_s, monkeypatch):
        base = SystemParams(model=model, r_s=r_s)
        points = [(replace(base, p_s=p_s), c_th) for p_s, c_th in ((2.0, 0.5), (10.0, 1.0), (40.0, 2.0))]
        cfg = McConfig(trials=30_000, seed=404)
        monkeypatch.setenv("RIS_SECRECY_THREADS", "1")
        ref = mc_points(points, cfg, gain_moments=Link.DESTINATION)
        for run_cfg, threads in ((cfg, "3"), (cfg, "4"), (replace(cfg, batch=100), "3"),
                                 (replace(cfg, batch=10 ** 6), "4"), (replace(cfg, batch=100), "1")):
            monkeypatch.setenv("RIS_SECRECY_THREADS", threads)
            assert mc_points(points, run_cfg, gain_moments=Link.DESTINATION) == ref

    def test_sop_identical_across_threads(self, relay_params, monkeypatch):
        cfg = McConfig(trials=30_000, seed=11)
        monkeypatch.setenv("RIS_SECRECY_THREADS", "1")
        single = mc_sop(relay_params, 1.0, cfg)
        monkeypatch.setenv("RIS_SECRECY_THREADS", "4")
        assert mc_sop(relay_params, 1.0, cfg) == single

    def test_snr_pair_stream_reproducible(self, relay_params):
        a = sample_snr_pairs(relay_params, np.random.default_rng(5), 3)
        b = sample_snr_pairs(relay_params, np.random.default_rng(5), 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSnrSampling:
    def test_zero_power_limit(self, v2v_params):
        p = replace(v2v_params, p_s=1e-300)
        gd, ge = sample_snr_pairs(p, np.random.default_rng(0), 100)
        assert np.all(gd < 1e-250) and np.all(ge < 1e-250)

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_mean_snr_matches_analytic(self, model, r_s):
        p = SystemParams(model=model, r_s=r_s)
        kind = p.fading_kind
        gd, _ = sample_snr_pairs(p, np.random.default_rng(8), 1_000_000)
        scale = snr_scale(p, Link.DESTINATION)
        expect = p.n_cells * moments(kind).mean * scale
        tol = 4.0 * scale * math.sqrt(p.n_cells * moments(kind).variance / gd.size)
        assert abs(gd.mean() - expect) < tol

    def test_doubling_cells_doubles_mean(self, v2v_params):
        n = 400_000
        g16, _ = sample_snr_pairs(v2v_params, np.random.default_rng(3), n)
        g32, _ = sample_snr_pairs(replace(v2v_params, n_cells=32), np.random.default_rng(4), n)
        se = g32.std(ddof=1) / math.sqrt(n) + 2.0 * g16.std(ddof=1) / math.sqrt(n)
        assert abs(g32.mean() - 2.0 * g16.mean()) < 4.0 * se

    def test_gain_sum_moments_adjudicate_variance(self, relay_params):
        mean_est, var_est = mc_gain_sum_stats(relay_params, McConfig(trials=200_000, seed=17))
        n = relay_params.n_cells
        corrected = n * moments(FadingKind.TRIPLE_CASCADE).variance
        literal = n * (8.0 - (math.pi / 2.0) ** 1.5)
        assert abs(mean_est.value - n * moments(FadingKind.TRIPLE_CASCADE).mean) < 4.0 * mean_est.std_error
        assert abs(var_est.value - corrected) < 4.0 * var_est.std_error
        assert abs(var_est.value - literal) > 10.0 * var_est.std_error


class TestMcAsc:
    def test_positive_part_dominates_difference(self, v2v_params, relay_params):
        cfg = McConfig(trials=20_000, seed=2)
        for p in (v2v_params, replace(v2v_params, r_d=8.0, r_e=4.0), relay_params):
            diff, pos = mc_asc(p, cfg)
            assert pos.value >= diff.value

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_cross_validates_quadrature(self, model, r_s):
        p = SystemParams(model=model, r_s=r_s)
        diff, _ = mc_asc(p, McConfig(trials=100_000, seed=42))
        assert abs(diff.value - asc_exact(p)) < 3.0 * diff.std_error


class TestMcSop:
    def test_zero_power_always_in_outage(self, v2v_params):
        p = replace(v2v_params, p_s=1e-280)
        est = mc_sop(p, 1.0, McConfig(trials=5_000, seed=3))
        assert est.value == 1.0

    def test_tiny_threshold_limit(self):
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=100.0, r_d=2.0, r_e=20.0)
        est = mc_sop(p, 1e-9, McConfig(trials=50_000, seed=6))
        assert est.value < 0.05

    def test_monotone_in_threshold_under_common_randomness(self, v2v_params):
        cfg = McConfig(trials=30_000, seed=12)
        lo = mc_sop(v2v_params, 0.8, cfg)
        hi = mc_sop(v2v_params, 1.6, cfg)
        assert lo.value <= hi.value

    def test_bounds_and_binomial_error(self, v2v_params):
        est = mc_sop(v2v_params, 1.5, McConfig(trials=10_000, seed=13))
        assert 0.0 <= est.value <= 1.0
        assert est.std_error == pytest.approx(
            math.sqrt(est.value * (1.0 - est.value) / est.trials), rel=1e-12)

    def test_matches_erf_formula_within_advertised_gap(self, v2v_params):
        est = mc_sop(v2v_params, 1.0, McConfig(trials=100_000, seed=42))
        assert abs(est.value - sop(v2v_params, 1.0)) < 0.02

    def test_threshold_validation(self, v2v_params):
        with pytest.raises(ValueError):
            mc_sop(v2v_params, 0.0, McConfig(trials=10, seed=1))


class TestEstimatorConsistency:
    def test_quadrupling_trials_halves_std_error(self, v2v_params):
        ratios = []
        for seed in range(5):
            small, _ = mc_asc(v2v_params, McConfig(trials=20_000, seed=seed))
            large, _ = mc_asc(v2v_params, McConfig(trials=80_000, seed=seed + 100))
            ratios.append(small.std_error / large.std_error)
        assert abs(np.mean(ratios) - 2.0) < 0.4


def _reference_point(params, c_th, cfg):
    """The per-point loop the engine replaces: every point redraws every block
    and reduces it on its own. Returns (diff, pos, sop) estimates."""
    sd = sd2 = sp = sp2 = 0.0
    outages = 0
    for i, n in _blocks(cfg.trials):
        gd, ge = sample_snr_pairs(params, _block_rng(cfg.seed, i), n)
        cs = np.log2(1.0 + gd) - np.log2(1.0 + ge)
        pos = np.maximum(cs, 0.0)
        sd += cs.sum()
        sd2 += (cs * cs).sum()
        sp += pos.sum()
        sp2 += (pos * pos).sum()
        outages += int((pos < c_th).sum())
    n = cfg.trials

    def estimate(total, total_sq):
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        return McEstimate(value=mean, std_error=math.sqrt(var / n), trials=n)

    p = outages / n
    return estimate(sd, sd2), estimate(sp, sp2), McEstimate(p, math.sqrt(p * (1.0 - p) / n), n)


_MODELS = {"v2v": SystemParams(model=Model.V2V_RIS_AP),
           "relay": SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0)}
_POINT_SETS = {
    "p_s": lambda b: [(replace(b, p_s=v), 1.0) for v in (1.0, 3.04, 20.0, 300.0)],
    "r_s": lambda b: [(replace(b, r_s=v), 1.0) for v in (5.0, 10.0, 20.0)],
    "c_th": lambda b: [(b, v) for v in (0.25, 1.0, 2.5)],
    "n_cells": lambda b: [(replace(b, n_cells=v), 1.0) for v in (4, 16, 4, 9)],
}


class TestSinglePassEngine:
    # three blocks with a partial last one, and a run inside a single block
    @pytest.mark.parametrize("cfg", [McConfig(trials=20_001, seed=31), McConfig(trials=500, seed=31)],
                             ids=["default", "one_block"])
    @pytest.mark.parametrize("model,sweep", [(m, s) for m in sorted(_MODELS) for s in sorted(_POINT_SETS)
                                             if not (m == "v2v" and s == "r_s")])
    def test_bit_equal_to_per_point_reference(self, model, sweep, cfg):
        points = _POINT_SETS[sweep](_MODELS[model])
        # one engine run takes one cell count, so n_cells points are split per value
        results = [None] * len(points)
        for n_cells in {p.n_cells for p, _ in points}:
            members = [k for k, (p, _) in enumerate(points) if p.n_cells == n_cells]
            run = mc_points([points[k] for k in members], cfg)
            for k, res in zip(members, run.points):
                results[k] = res
        for (params, c_th), res in zip(points, results):
            diff, pos, sop_est = _reference_point(params, c_th, cfg)
            assert (res.asc_diff, res.asc_pos, res.sop) == (diff, pos, sop_est)

    def test_cli_grouping_matches_single_point_views(self):
        base = _MODELS["relay"]
        points = _POINT_SETS["n_cells"](base)
        cfg = McConfig(trials=9_000, seed=8)
        results, gain_sum = cli._run_mc(points, cfg, moments_for=replace(base, n_cells=7))
        for (params, c_th), res in zip(points, results):
            assert (res.asc_diff, res.asc_pos) == mc_asc(params, cfg)
            assert res.sop == mc_sop(params, c_th, cfg)
        assert gain_sum == mc_gain_sum_stats(replace(base, n_cells=7), cfg)

    def test_gain_moments_match_view_on_both_links(self, relay_params):
        cfg = McConfig(trials=20_000, seed=5)
        points = [(relay_params, 1.0), (replace(relay_params, p_s=100.0), 2.0)]
        for link in (Link.DESTINATION, Link.EAVESDROPPER):
            run = mc_points(points, cfg, gain_moments=link)
            assert run.gain_sum == mc_gain_sum_stats(relay_params, cfg, link=link)
        assert mc_points(points, cfg).gain_sum is None

    def test_point_without_threshold_has_no_outage_estimate(self, v2v_params):
        run = mc_points([(v2v_params, None)], McConfig(trials=1_000, seed=1))
        assert run.points[0].sop is None

    @pytest.mark.parametrize("points", [
        [],
        [(SystemParams(model=Model.V2V_RIS_AP), 1.0), (SystemParams(model=Model.V2V_RIS_AP, n_cells=8), 1.0)],
        [(SystemParams(model=Model.V2V_RIS_AP), 1.0), (SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0), 1.0)],
        [(SystemParams(model=Model.V2V_RIS_AP), 0.0)],
        [(SystemParams(model=Model.V2V_RIS_AP), float("nan"))],
    ])
    def test_rejects_bad_point_sets(self, points):
        with pytest.raises(ValueError):
            mc_points(points, McConfig(trials=10, seed=1))
