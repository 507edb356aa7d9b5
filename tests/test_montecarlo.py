"""Simulation-oracle contracts: determinism, moment agreement, estimator
consistency and the analytic cross-checks."""
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ris_secrecy import cli, montecarlo
from ris_secrecy.channels import (
    DOUBLE_RAYLEIGH_MEAN,
    DOUBLE_RAYLEIGH_VARIANCE,
    TRIPLE_CASCADE_MEAN,
    TRIPLE_CASCADE_VARIANCE,
)
from ris_secrecy.montecarlo import (
    McConfig,
    McEstimate,
    _block_rng,
    _blocks,
    mc_points,
    sample_gain_sums,
)
from ris_secrecy.secrecy import Link, Model, SystemParams, link_capacities, snr_scale, sop


def _one_point(params, c_th, cfg):
    """The mc_points result of a one-point run."""
    return mc_points([(params, c_th)], cfg)[0]


def sample_snr_pairs(params, rng, n):
    """n trials of the instantaneous SNR pair (gamma_d, gamma_e): the drawn
    gain sums times each link's SNR scale."""
    sum_d, sum_e = sample_gain_sums(params, rng, n)
    return snr_scale(params, Link.DESTINATION) * sum_d, snr_scale(params, Link.EAVESDROPPER) * sum_e


class TestConfigTypes:
    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -1}, {"seed": -1}, {"seed": 2 ** 64}])
    def test_mc_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            McConfig(**kwargs)

    def test_mc_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(value=1.0, std_error=-0.1, trials=10)


class TestDeterminism:
    """The worker count comes only from RIS_SECRECY_THREADS and may not
    change a single bit of any estimate."""

    def test_identical_across_runs_and_threads(self, v2v_params, monkeypatch):
        cfg = McConfig(trials=30_000, seed=404)
        monkeypatch.setenv("RIS_SECRECY_THREADS", "1")
        ref = _one_point(v2v_params, None, cfg)
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv("RIS_SECRECY_THREADS", threads)
            res = _one_point(v2v_params, None, cfg)
            assert res.asc_diff == ref.asc_diff
            assert res.asc_pos == ref.asc_pos

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_multi_point_run_identical_across_threads(self, model, r_s, monkeypatch):
        base = SystemParams(model=model, r_s=r_s)
        points = [(replace(base, p_s=p_s), c_th) for p_s, c_th in ((2.0, 0.5), (10.0, 1.0), (40.0, 2.0))]
        cfg = McConfig(trials=30_000, seed=404)
        monkeypatch.setenv("RIS_SECRECY_THREADS", "1")
        ref = mc_points(points, cfg)
        for threads in ("2", "3", "4"):
            monkeypatch.setenv("RIS_SECRECY_THREADS", threads)
            assert mc_points(points, cfg) == ref

    def test_sop_identical_across_threads(self, relay_params, monkeypatch):
        cfg = McConfig(trials=30_000, seed=11)
        monkeypatch.setenv("RIS_SECRECY_THREADS", "1")
        single = _one_point(relay_params, 1.0, cfg).sop
        monkeypatch.setenv("RIS_SECRECY_THREADS", "4")
        assert _one_point(relay_params, 1.0, cfg).sop == single

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
        mean, variance = ((DOUBLE_RAYLEIGH_MEAN, DOUBLE_RAYLEIGH_VARIANCE) if model is Model.V2V_RIS_AP
                          else (TRIPLE_CASCADE_MEAN, TRIPLE_CASCADE_VARIANCE))
        gd, _ = sample_snr_pairs(p, np.random.default_rng(8), 1_000_000)
        scale = snr_scale(p, Link.DESTINATION)
        expect = p.n_cells * mean * scale
        tol = 4.0 * scale * math.sqrt(p.n_cells * variance / gd.size)
        assert abs(gd.mean() - expect) < tol

    def test_doubling_cells_doubles_mean(self, v2v_params):
        n = 400_000
        g16, _ = sample_snr_pairs(v2v_params, np.random.default_rng(3), n)
        g32, _ = sample_snr_pairs(replace(v2v_params, n_cells=32), np.random.default_rng(4), n)
        se = g32.std(ddof=1) / math.sqrt(n) + 2.0 * g16.std(ddof=1) / math.sqrt(n)
        assert abs(g32.mean() - 2.0 * g16.mean()) < 4.0 * se

    def test_gain_sum_moments_adjudicate_variance(self, relay_params):
        mean_est, var_est = _one_point(relay_params, None, McConfig(trials=200_000, seed=17)).gain_sum
        n = relay_params.n_cells
        corrected = n * TRIPLE_CASCADE_VARIANCE
        literal = n * (8.0 - (math.pi / 2.0) ** 1.5)
        assert abs(mean_est.value - n * TRIPLE_CASCADE_MEAN) < 4.0 * mean_est.std_error
        assert abs(var_est.value - corrected) < 4.0 * var_est.std_error
        assert abs(var_est.value - literal) > 10.0 * var_est.std_error


class TestMcAsc:
    def test_positive_part_dominates_difference(self, v2v_params, relay_params):
        cfg = McConfig(trials=20_000, seed=2)
        for p in (v2v_params, replace(v2v_params, r_d=8.0, r_e=4.0), relay_params):
            res = _one_point(p, None, cfg)
            assert res.asc_pos.value >= res.asc_diff.value

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_cross_validates_quadrature(self, model, r_s):
        p = SystemParams(model=model, r_s=r_s)
        diff = _one_point(p, None, McConfig(trials=100_000, seed=42)).asc_diff
        c_d, c_e = link_capacities([p])[0]
        assert abs(diff.value - (c_d - c_e)) < 3.0 * diff.std_error


class TestMcSop:
    def test_zero_power_always_in_outage(self, v2v_params):
        p = replace(v2v_params, p_s=1e-280)
        est = _one_point(p, 1.0, McConfig(trials=5_000, seed=3)).sop
        assert est.value == 1.0

    def test_tiny_threshold_limit(self):
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=100.0, r_d=2.0, r_e=20.0)
        est = _one_point(p, 1e-9, McConfig(trials=50_000, seed=6)).sop
        assert est.value < 0.05

    def test_monotone_in_threshold_under_common_randomness(self, v2v_params):
        cfg = McConfig(trials=30_000, seed=12)
        lo = _one_point(v2v_params, 0.8, cfg).sop
        hi = _one_point(v2v_params, 1.6, cfg).sop
        assert lo.value <= hi.value

    def test_bounds_and_binomial_error(self, v2v_params):
        est = _one_point(v2v_params, 1.5, McConfig(trials=10_000, seed=13)).sop
        assert 0.0 <= est.value <= 1.0
        assert est.std_error == pytest.approx(
            math.sqrt(est.value * (1.0 - est.value) / est.trials), rel=1e-12)

    def test_matches_erf_formula_within_advertised_gap(self, v2v_params):
        est = _one_point(v2v_params, 1.0, McConfig(trials=100_000, seed=42)).sop
        assert abs(est.value - sop(v2v_params, 1.0)) < 0.02

    def test_threshold_validation(self, v2v_params):
        with pytest.raises(ValueError):
            _one_point(v2v_params, 0.0, McConfig(trials=10, seed=1))


class TestEstimatorConsistency:
    def test_quadrupling_trials_halves_std_error(self, v2v_params):
        ratios = []
        for seed in range(5):
            small = _one_point(v2v_params, None, McConfig(trials=20_000, seed=seed)).asc_diff
            large = _one_point(v2v_params, None, McConfig(trials=80_000, seed=seed + 100)).asc_diff
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
        results = mc_points(points, cfg)
        assert len(results) == len(points)
        for (params, c_th), res in zip(points, results):
            diff, pos, sop_est = _reference_point(params, c_th, cfg)
            assert (res.asc_diff, res.asc_pos, res.sop) == (diff, pos, sop_est)

    def test_mixed_groups_match_single_point_views_in_order(self):
        # cell counts 4, 16, 4, 9 of both models, interleaved, in one call
        points = [(replace(_MODELS[model], n_cells=n_cells, p_s=p_s), c_th)
                  for n_cells, p_s, c_th in ((4, 2.0, 0.5), (16, 10.0, 1.0), (4, 40.0, 2.0), (9, 10.0, 1.0))
                  for model in ("relay", "v2v")]
        cfg = McConfig(trials=9_000, seed=8)
        results = mc_points(points, cfg)
        assert len(results) == len(points)
        for (params, c_th), res in zip(points, results):
            assert res == _one_point(params, c_th, cfg)

    def test_points_of_a_group_share_the_gain_sum_moments(self, relay_params):
        cfg = McConfig(trials=20_000, seed=5)
        points = [(relay_params, 1.0), (replace(relay_params, p_s=100.0), 2.0),
                  (replace(relay_params, r_s=5.0), None), (replace(relay_params, n_cells=8), 1.0)]
        results = mc_points(points, cfg)
        expected = _one_point(relay_params, None, cfg).gain_sum
        assert [res.gain_sum for res in results[:3]] == [expected] * 3
        assert results[3].gain_sum == _one_point(replace(relay_params, n_cells=8), None, cfg).gain_sum
        assert results[3].gain_sum != expected

    def test_relay_validate_skipping_the_base_cell_count(self, tmp_path, monkeypatch, capsys):
        # the sweep's cell counts 4, 10 and 16 leave out the base N = 9
        draws = []
        original = montecarlo.sample_gain_sums

        def counting(params, rng, n):
            draws.append(params.n_cells)
            return original(params, rng, n)

        monkeypatch.setattr(montecarlo, "sample_gain_sums", counting)
        trials = 20_000
        doc = {"base": {"model": "vanet_ris_relay", "n_cells": 9},
               "sweep": {"param": "n_cells", "start": 4.0, "stop": 16.0, "steps": 3},
               "mc": {"trials": trials, "seed": 3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(path)]) in (0, 1)
        blocks = math.ceil(trials / 8192)
        assert sorted(set(draws)) == [4, 9, 10, 16]
        assert len(draws) == (3 + 1) * blocks
        base = SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0, n_cells=9)
        _mean, var = _one_point(base, None, McConfig(trials=trials, seed=3)).gain_sum
        assert f"gain-sum variance (N=9): mc={var.value:.6g} +-{var.std_error:.2g}" in capsys.readouterr().out

    def test_point_without_threshold_has_no_outage_estimate(self, v2v_params):
        (res,) = mc_points([(v2v_params, None)], McConfig(trials=1_000, seed=1))
        assert res.sop is None

    @pytest.mark.parametrize("points", [
        [],
        [(SystemParams(model=Model.V2V_RIS_AP), -1.0)],
        # a valid first group does not hide a bad threshold in a later one
        [(SystemParams(model=Model.V2V_RIS_AP), 1.0), (SystemParams(model=Model.V2V_RIS_AP, n_cells=8), -0.5)],
        [(SystemParams(model=Model.V2V_RIS_AP), 0.0)],
        [(SystemParams(model=Model.V2V_RIS_AP), float("nan"))],
    ])
    def test_rejects_bad_point_sets(self, points):
        with pytest.raises(ValueError):
            mc_points(points, McConfig(trials=10, seed=1))


def _whole_array_gain_sums(params, rng, n):
    """The draw as whole (n, N) factor arrays, one after the other: the
    reference the chunked draw must reproduce bit for bit."""
    shape = (n, params.n_cells)

    def rayleigh():
        return np.sqrt(-2.0 * np.log1p(-rng.random(shape)))

    if params.model is Model.V2V_RIS_AP:
        gd = rayleigh() * rayleigh()
        ge = rayleigh() * rayleigh()
        return gd.sum(axis=1), ge.sum(axis=1)
    gs = rayleigh()
    gd = rayleigh() * rayleigh()
    ge = rayleigh() * rayleigh()
    return (gs * gd).sum(axis=1), (gs * ge).sum(axis=1)


def _factors(params):
    return 4 if params.model is Model.V2V_RIS_AP else 5


class TestChunkedDraw:
    """sample_gain_sums draws each factor array from its own cursor on the
    block stream, in row chunks of a bounded workspace."""

    # rows per chunk: the default cap, one row, and 7 rows (uneven last chunks)
    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "one_row", "seven_rows"])
    @pytest.mark.parametrize("n", [1, 3000, 8192])
    @pytest.mark.parametrize("n_cells", [1, 3, 16, 100])
    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_bit_identical_to_whole_array_draw(self, model, n_cells, n, rows, monkeypatch):
        params = replace(_MODELS[model], n_cells=n_cells)
        if rows is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * _factors(params) * n_cells * rows)
        ref_rng, rng = np.random.default_rng(2024), np.random.default_rng(2024)
        ref = _whole_array_gain_sums(params, ref_rng, n)
        got = sample_gain_sums(params, rng, n)
        assert all(np.array_equal(a, b) for a, b in zip(ref, got))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()

    def test_buffered_32_bit_output_survives(self, relay_params):
        ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        for g in (ref_rng, rng):
            g.integers(0, 2 ** 31, dtype=np.int32)  # leaves half a 64-bit output buffered
        _whole_array_gain_sums(relay_params, ref_rng, 100)
        sample_gain_sums(relay_params, rng, 100)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_one_output_per_double(self):
        # random(a + b) is random(a) then random(b), and advance(a) skips
        # exactly the outputs random(a) uses
        whole = np.random.default_rng(9).random(1000)
        split = np.random.default_rng(9)
        assert np.array_equal(np.concatenate([split.random(300), split.random(700)]), whole)
        cursor = np.random.default_rng(9)
        cursor.bit_generator.advance(300)
        assert np.array_equal(cursor.random(700), whole[300:])
        assert cursor.bit_generator.state == split.bit_generator.state

    @pytest.mark.parametrize("n_cells", [1, 2, 3, 8, 9, 16, 100, 129, 256, 1000])
    def test_row_sums_do_not_depend_on_row_count(self, n_cells):
        a = np.random.default_rng(n_cells).random((300, n_cells)) * 1e3
        whole = a.sum(axis=1)
        for r0, r1 in ((0, 1), (0, 7), (5, 6), (17, 300), (0, 300)):
            out = np.empty(r1 - r0)
            a[r0:r1].sum(axis=1, out=out)
            assert np.array_equal(out, whole[r0:r1])

    def test_relay_block_memory_is_bounded(self):
        params = replace(_MODELS["relay"], n_cells=256)
        tracemalloc.start()
        try:
            sample_gain_sums(params, np.random.default_rng(1), 8192)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20  # whole-array factors would take 84 MB

    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_huge_cell_count_runs_within_one_row_plus_cap(self, model):
        # one row of the factor arrays is larger than the cap here
        params = replace(_MODELS[model], n_cells=10 ** 5)
        row_bytes = 8 * _factors(params) * params.n_cells
        tracemalloc.start()
        try:
            (res,) = mc_points([(params, 1.0)], McConfig(trials=64, seed=3))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < montecarlo._CHUNK_BYTES + row_bytes
        assert math.isfinite(res.asc_diff.value)
