"""Simulation-oracle contracts: determinism, moment agreement, estimator
consistency and the analytic cross-checks."""
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference
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
    _block_seed,
    _blocks,
    _log_one_minus,
    mc_points,
    sample_gain_sums,
)
from ris_secrecy.secrecy import Model, SystemParams, secrecy_report, sop


def _capacities(points) -> np.ndarray:
    """The (c_d, c_e) row of every point, as its secrecy report gives them."""
    return np.array([(rep.c_d, rep.c_e) for rep in secrecy_report(points)]).reshape(-1, 2)


def _one_point(params, cfg):
    """The mc_points result of a one-point run."""
    return mc_points([params], cfg)[0]


def sample_snr_pairs(params, seq, n):
    """n trials of the instantaneous SNR pair (gamma_d, gamma_e): the drawn
    gain sums times each link's SNR scale."""
    sum_d, sum_e = sample_gain_sums(params, seq, n)
    scale_d, scale_e = params.scales
    return scale_d * sum_d, scale_e * sum_e


class TestConfigTypes:
    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -1}, {"seed": -1}, {"seed": 2 ** 64},
                                        {"seed": 1.5}, {"trials": 100.5}, {"seed": True}])
    def test_mc_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            McConfig(**kwargs)

    def test_mc_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(value=1.0, std_error=-0.1)


class TestDeterminism:
    """A rerun may not change a single bit of any estimate. The blocks are
    reduced in one serial pass, so there is no thread count to vary."""

    def test_identical_across_runs(self, v2v_params):
        cfg = McConfig(trials=30_000, seed=404)
        ref, res = _one_point(v2v_params, cfg), _one_point(v2v_params, cfg)
        assert (res.asc_diff, res.asc_pos) == (ref.asc_diff, ref.asc_pos)

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_multi_point_run_identical_across_runs(self, model, r_s):
        base = SystemParams(model=model, r_s=r_s)
        points = [replace(base, p_s=p_s, c_th=c_th) for p_s, c_th in ((2.0, 0.5), (10.0, 1.0), (40.0, 2.0))]
        cfg = McConfig(trials=30_000, seed=404)
        assert mc_points(points, cfg) == mc_points(points, cfg)

    def test_sop_identical_across_runs(self, relay_params):
        cfg = McConfig(trials=30_000, seed=11)
        assert _one_point(relay_params, cfg).sop == _one_point(relay_params, cfg).sop

    def test_snr_pair_stream_reproducible(self, relay_params):
        a = sample_snr_pairs(relay_params, np.random.SeedSequence(5), 3)
        b = sample_snr_pairs(relay_params, np.random.SeedSequence(5), 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSnrSampling:
    def test_zero_power_limit(self, v2v_params):
        p = replace(v2v_params, p_s=1e-300)
        gd, ge = sample_snr_pairs(p, np.random.SeedSequence(0), 100)
        assert np.all(gd < 1e-250) and np.all(ge < 1e-250)

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_mean_snr_matches_analytic(self, model, r_s):
        p = SystemParams(model=model, r_s=r_s)
        mean, variance = ((DOUBLE_RAYLEIGH_MEAN, DOUBLE_RAYLEIGH_VARIANCE) if model is Model.V2V_RIS_AP
                          else (TRIPLE_CASCADE_MEAN, TRIPLE_CASCADE_VARIANCE))
        gd, _ = sample_snr_pairs(p, np.random.SeedSequence(8), 1_000_000)
        scale = p.scales[0]
        expect = p.n_cells * mean * scale
        tol = 4.0 * scale * math.sqrt(p.n_cells * variance / gd.size)
        assert abs(gd.mean() - expect) < tol

    def test_doubling_cells_doubles_mean(self, v2v_params):
        n = 400_000
        g16, _ = sample_snr_pairs(v2v_params, np.random.SeedSequence(3), n)
        g32, _ = sample_snr_pairs(replace(v2v_params, n_cells=32), np.random.SeedSequence(4), n)
        se = g32.std(ddof=1) / math.sqrt(n) + 2.0 * g16.std(ddof=1) / math.sqrt(n)
        assert abs(g32.mean() - 2.0 * g16.mean()) < 4.0 * se

    def test_gain_sum_moments_adjudicate_variance(self, relay_params):
        mean_est, var_est = _one_point(relay_params, McConfig(trials=200_000, seed=17)).gain_sum
        n = relay_params.n_cells
        corrected = n * TRIPLE_CASCADE_VARIANCE
        literal = n * (8.0 - (math.pi / 2.0) ** 1.5)
        assert abs(mean_est.value - n * TRIPLE_CASCADE_MEAN) < 4.0 * mean_est.std_error
        assert abs(var_est.value - corrected) < 4.0 * var_est.std_error
        assert abs(var_est.value - literal) > 10.0 * var_est.std_error

    @pytest.mark.parametrize("model", ["relay", "v2v"])
    def test_moments_keep_their_digits_at_a_huge_cell_count(self, model, monkeypatch):
        # 16 fixed gain sums about N E[g] at N = 1e8, spread like real ones:
        # powers of the raw sums cancel by about N^2 1e-16, which puts the
        # variance's standard error 3.6x (relay) and 5.7x (v2v) off here.
        # Drawing N = 1e8 cells would cost 16-19 s per model.
        params = replace(_MODELS[model], n_cells=10 ** 8)
        mean, variance = ((DOUBLE_RAYLEIGH_MEAN, DOUBLE_RAYLEIGH_VARIANCE) if model == "v2v"
                          else (TRIPLE_CASCADE_MEAN, TRIPLE_CASCADE_VARIANCE))
        n_cells = params.n_cells
        sums = n_cells * mean + math.sqrt(n_cells * variance) * np.random.default_rng(12).standard_normal(16)
        monkeypatch.setattr(montecarlo, "sample_gain_sums", lambda _params, _seq, n: (sums[:n].copy(), sums[:n].copy()))
        mean_est, var_est = _one_point(params, McConfig(trials=16, seed=1)).gain_sum
        exact_mean, exact_var = reference.sample_variance_exact(sums.tolist())
        assert mean_est.value == pytest.approx(exact_mean, rel=1e-15)
        assert var_est.value == pytest.approx(exact_var, rel=1e-12)

    @pytest.mark.parametrize("model", ["relay", "v2v"])
    def test_variance_std_error_is_the_exact_one_under_the_cell_law(self, model, monkeypatch):
        # the standard error does not depend on the draws, so none are made
        monkeypatch.setattr(montecarlo, "sample_gain_sums", lambda _params, _seq, n: (np.ones(n), np.ones(n)))
        for n_cells in (1, 16, 10 ** 8):
            params = replace(_MODELS[model], n_cells=n_cells)
            for trials in (2, 3, 50, 200_000):
                _mean, var_est = _one_point(params, McConfig(trials=trials, seed=1)).gain_sum
                exact = reference.sample_variance_se(reference.cascade_order(params), n_cells, trials)
                assert var_est.std_error == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_variance_rule_rejects_the_correct_relay_constant_at_most_once_in_a_hundred(self):
        # validate's rule, more than 4 standard errors off, over seeds 1-200
        # at 50 and 2,000 trials; at 20,000 trials (seeds 1-40) the correct
        # constant always stays and the paper-literal one is always out
        for n_cells in (1, 3, 16):
            for trials in (50, 2000):
                assert _variance_rejections(n_cells, trials, range(1, 201))[0] <= 2
            assert _variance_rejections(n_cells, 20_000, range(1, 41)) == (0, 40)


def _variance_rejections(n_cells, trials, seeds):
    """(corrected, paper-literal): how many of the seeds' relay runs put each
    constant's gain-sum variance more than 4 standard errors from the
    estimate."""
    params = SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0, n_cells=n_cells)
    corrected = literal = 0
    for seed in seeds:
        _mean, var_est = _one_point(params, McConfig(trials=trials, seed=seed)).gain_sum
        corrected += abs(var_est.value - n_cells * TRIPLE_CASCADE_VARIANCE) > 4.0 * var_est.std_error
        literal += abs(var_est.value - n_cells * (8.0 - (math.pi / 2.0) ** 1.5)) > 4.0 * var_est.std_error
    return corrected, literal


class TestMcAsc:
    def test_positive_part_dominates_difference(self, v2v_params, relay_params):
        cfg = McConfig(trials=20_000, seed=2)
        for p in (v2v_params, replace(v2v_params, r_d=8.0, r_e=4.0), relay_params):
            res = _one_point(p, cfg)
            assert res.asc_pos.value >= res.asc_diff.value

    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_cross_validates_quadrature(self, model, r_s):
        p = SystemParams(model=model, r_s=r_s)
        diff = _one_point(p, McConfig(trials=100_000, seed=42)).asc_diff
        c_d, c_e = _capacities([p])[0]
        assert abs(diff.value - (c_d - c_e)) < 3.0 * diff.std_error

    @pytest.mark.parametrize("p_s", [1e-16, 1e-20, 1e-200, 1e-300])
    @pytest.mark.parametrize("model,r_s", [(Model.V2V_RIS_AP, None), (Model.VANET_RIS_RELAY, 10.0)])
    def test_cross_validates_quadrature_at_low_snr(self, model, r_s, p_s):
        # s X is below 1e-15 here, so 1 + s X would keep few or none of its
        # digits; below about 1e-154 the squares of the capacity differences
        # would underflow unless they are lifted
        p = SystemParams(model=model, r_s=r_s, p_s=p_s)
        diff = _one_point(p, McConfig(trials=20_000, seed=3)).asc_diff
        c_d, c_e = _capacities([p])[0]
        assert diff.std_error > 0.0
        assert abs(diff.value - (c_d - c_e)) <= 4.0 * diff.std_error


class TestMcSop:
    def test_zero_power_always_in_outage(self, v2v_params):
        p = replace(v2v_params, p_s=1e-280)
        est = _one_point(p, McConfig(trials=5_000, seed=3)).sop
        assert est.value == 1.0

    def test_tiny_threshold_limit(self):
        p = SystemParams(model=Model.V2V_RIS_AP, p_s=100.0, r_d=2.0, r_e=20.0)
        est = _one_point(replace(p, c_th=1e-9), McConfig(trials=50_000, seed=6)).sop
        assert est.value < 0.05

    def test_monotone_in_threshold_under_common_randomness(self, v2v_params):
        cfg = McConfig(trials=30_000, seed=12)
        lo = _one_point(replace(v2v_params, c_th=0.8), cfg).sop
        hi = _one_point(replace(v2v_params, c_th=1.6), cfg).sop
        assert lo.value <= hi.value

    def test_bounds_and_binomial_error(self, v2v_params):
        cfg = McConfig(trials=10_000, seed=13)
        est = _one_point(replace(v2v_params, c_th=1.5), cfg).sop
        assert 0.0 <= est.value <= 1.0
        assert est.std_error == pytest.approx(
            math.sqrt(est.value * (1.0 - est.value) / cfg.trials), rel=1e-12)

    def test_matches_erf_formula_within_advertised_gap(self, v2v_params):
        est = _one_point(v2v_params, McConfig(trials=100_000, seed=42)).sop
        assert abs(est.value - sop(v2v_params)[0]) < 0.02

    def test_threshold_validation(self, v2v_params):
        # a point with a threshold of 0 cannot be made, so never reaches a run
        with pytest.raises(ValueError):
            _one_point(replace(v2v_params, c_th=0.0), McConfig(trials=10, seed=1))


class TestEstimatorConsistency:
    def test_quadrupling_trials_halves_std_error(self, v2v_params):
        ratios = []
        for seed in range(5):
            small = _one_point(v2v_params, McConfig(trials=20_000, seed=seed)).asc_diff
            large = _one_point(v2v_params, McConfig(trials=80_000, seed=seed + 100)).asc_diff
            ratios.append(small.std_error / large.std_error)
        assert abs(np.mean(ratios) - 2.0) < 0.4


def _reference_point(params, cfg):
    """The per-point loop the engine replaces: every point redraws every block
    and reduces it on its own. Returns (diff, pos, sop) estimates and the
    gain-sum (mean, variance) estimates."""
    sd = sd2 = sp = sp2 = 0.0
    g1 = g2 = 0.0
    outages = 0
    scale_d, scale_e = params.scales
    centre = params.n_cells * (DOUBLE_RAYLEIGH_MEAN if params.model is Model.V2V_RIS_AP else TRIPLE_CASCADE_MEAN)
    for i, n in _blocks(cfg.trials):
        sum_d, sum_e = sample_gain_sums(params, _block_seed(cfg.seed, i), n)
        cs = np.log2(1.0 + scale_d * sum_d) - np.log2(1.0 + scale_e * sum_e)
        pos = np.maximum(cs, 0.0)
        sd += cs.sum()
        sd2 += np.dot(cs, cs)
        sp += pos.sum()
        sp2 += np.dot(pos, pos)
        outages += np.count_nonzero(cs < params.c_th)
        x = sum_d - centre
        g1 += x.sum()
        g2 += (x * x).sum()
    n = cfg.trials

    def estimate(total, total_sq):
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        return McEstimate(value=mean, std_error=math.sqrt(var / n))

    p = outages / n
    return (estimate(sd, sd2), estimate(sp, sp2), McEstimate(p, math.sqrt(p * (1.0 - p) / n)),
            montecarlo._gain_sum_estimates(g1, g2, n, centre, params))


_MODELS = {"v2v": SystemParams(model=Model.V2V_RIS_AP),
           "relay": SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0)}
_POINT_SETS = {
    "p_s": lambda b: [replace(b, p_s=v) for v in (1.0, 3.04, 20.0, 300.0)],
    "r_s": lambda b: [replace(b, r_s=v) for v in (5.0, 10.0, 20.0)],
    "c_th": lambda b: [replace(b, c_th=v) for v in (0.25, 1.0, 2.5)],
    "n_cells": lambda b: [replace(b, n_cells=v) for v in (4, 16, 4, 9)],
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
        for params, res in zip(points, results):
            diff, pos, sop_est, gain_sum = _reference_point(params, cfg)
            assert (res.asc_diff, res.asc_pos, res.sop) == (diff, pos, sop_est)
            assert res.gain_sum == gain_sum

    def test_mixed_groups_match_single_point_views_in_order(self):
        # cell counts 4, 16, 4, 9 of both models, interleaved, in one call
        points = [replace(_MODELS[model], n_cells=n_cells, p_s=p_s, c_th=c_th)
                  for n_cells, p_s, c_th in ((4, 2.0, 0.5), (16, 10.0, 1.0), (4, 40.0, 2.0), (9, 10.0, 1.0))
                  for model in ("relay", "v2v")]
        cfg = McConfig(trials=9_000, seed=8)
        results = mc_points(points, cfg)
        assert len(results) == len(points)
        for params, res in zip(points, results):
            assert res == _one_point(params, cfg)

    def test_points_of_a_group_share_the_gain_sum_moments(self, relay_params):
        cfg = McConfig(trials=20_000, seed=5)
        points = [relay_params, replace(relay_params, p_s=100.0, c_th=2.0),
                  replace(relay_params, r_s=5.0), replace(relay_params, n_cells=8)]
        results = mc_points(points, cfg)
        expected = _one_point(relay_params, cfg).gain_sum
        assert [res.gain_sum for res in results[:3]] == [expected] * 3
        assert results[3].gain_sum == _one_point(replace(relay_params, n_cells=8), cfg).gain_sum
        assert results[3].gain_sum != expected

    def test_relay_validate_skipping_the_base_cell_count(self, tmp_path, monkeypatch, capsys):
        # the sweep's cell counts 4, 10 and 16 leave out the base N = 9
        draws = []
        original = montecarlo.sample_gain_sums

        def counting(params, seq, n):
            draws.append(params.n_cells)
            return original(params, seq, n)

        monkeypatch.setattr(montecarlo, "sample_gain_sums", counting)
        trials = 20_000
        doc = {"base": {"model": "vanet_ris_relay", "n_cells": 9},
               "sweep": {"param": "n_cells", "start": 4.0, "stop": 16.0, "steps": 3},
               "mc": {"trials": trials, "seed": 3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(path)]) in (0, 1)
        blocks = math.ceil(trials / 8192)
        assert sorted(set(draws)) == [4, 10, 16]
        assert len(draws) == 3 * blocks
        # one variance line per cell count the run draws, in sweep order
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("gain-sum variance")]
        assert len(lines) == 3
        for n_cells, line in zip((4, 10, 16), lines):
            params = SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0, n_cells=n_cells)
            _mean, var = _one_point(params, McConfig(trials=trials, seed=3)).gain_sum
            assert line.startswith(f"gain-sum variance (N={n_cells}): mc={var.value:.6g} +-{var.std_error:.2g}")

    # the fields of each v2v point: a bad threshold is rejected when its
    # point is made, so no run sees it
    @pytest.mark.parametrize("points", [
        [],
        [{"c_th": -1.0}],
        [{}, {"n_cells": 8, "c_th": -0.5}],
        [{"c_th": 0.0}],
        [{"c_th": float("nan")}],
    ])
    def test_rejects_bad_point_sets(self, points):
        with pytest.raises(ValueError):
            mc_points([SystemParams(model=Model.V2V_RIS_AP, **fields) for fields in points],
                      McConfig(trials=10, seed=1))

    @pytest.mark.parametrize("model,r_s,factors", [(Model.V2V_RIS_AP, None, 4), (Model.VANET_RIS_RELAY, 10.0, 5)])
    @pytest.mark.parametrize("trials,n", [(1, 1), (8192, 8192), (10 ** 6, 8192)])
    def test_cell_count_beyond_the_stream_period_is_refused_before_any_draw(self, model, r_s, factors, trials, n,
                                                                            monkeypatch):
        # PCG64 wraps after 2**128 outputs, so the factor stretches of an
        # n-trial block, n*N outputs each, overlap once factors*n*N exceeds
        # it. The largest count that fits reaches the draw; one more is
        # refused before the draw of any group, and so is the 1e300 that
        # would otherwise walk its column pieces without end
        class Drew(Exception):
            pass

        def draw(*args):
            raise Drew

        monkeypatch.setattr(montecarlo, "sample_gain_sums", draw)
        base = SystemParams(model=model, r_s=r_s)
        limit = 2 ** 128 // (factors * n)
        cfg = McConfig(trials=trials, seed=1)
        with pytest.raises(Drew):
            mc_points([replace(base, n_cells=limit)], cfg)
        for n_cells in (limit + 1, 10 ** 300):
            with pytest.raises(ValueError, match=re.escape(f"n_cells={n_cells:.6g} is above {limit:.6g}")):
                mc_points([base, replace(base, n_cells=n_cells)], cfg)

    def test_pass_memory_does_not_grow_with_blocks(self):
        # 100 points over 40 blocks: the pass holds one block's sums plus the
        # running totals (about 0.5 MiB here, most of it the block's draw
        # workspace), where keeping every block's sums to the end took 1.1 MiB
        base = SystemParams(model=Model.V2V_RIS_AP, n_cells=1)
        points = [replace(base, p_s=1.0 + k) for k in range(100)]
        tracemalloc.start()
        try:
            mc_points(points, McConfig(trials=40 * 8192, seed=1))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 2 ** 20

    def test_mixed_thresholds_count_outages_on_the_shared_blocks(self, v2v_params):
        # one cell count, so one pass: every point is reduced from the same
        # blocks, each against its own c_th
        cfg = McConfig(trials=20_001, seed=9)
        points = [replace(v2v_params, c_th=c_th, p_s=p_s)
                  for c_th, p_s in ((0.5, 10.0), (2.5, 10.0), (1.0, 10.0), (1.0, 40.0), (0.25, 2.0))]
        results = mc_points(points, cfg)
        blocks = [sample_gain_sums(v2v_params, _block_seed(cfg.seed, i), n) for i, n in _blocks(cfg.trials)]
        for params, res in zip(points, results):
            scale_d, scale_e = params.scales
            outages = sum(np.count_nonzero(np.log2(1.0 + scale_d * sum_d) - np.log2(1.0 + scale_e * sum_e)
                                           < params.c_th) for sum_d, sum_e in blocks)
            assert res.sop.value == outages / cfg.trials
        assert len({res.sop.value for res in results[:3]}) == 3
        assert len({res.gain_sum for res in results}) == 1


def _whole_array_gain_sums(params, rng, n):
    """The draw as whole (n, N) factor arrays, one after the other: the
    reference the chunked draw must reproduce bit for bit."""
    shape = (n, params.n_cells)

    def log_one_minus():
        return np.log(1.0 - rng.random(shape))

    def row_sums(gains):
        return np.einsum("ij->i", gains)

    if params.model is Model.V2V_RIS_AP:
        gd = np.sqrt(log_one_minus() * log_one_minus())
        ge = np.sqrt(log_one_minus() * log_one_minus())
        return 2.0 * row_sums(gd), 2.0 * row_sums(ge)
    source = -8.0 * log_one_minus()
    gd = np.sqrt(source * (log_one_minus() * log_one_minus()))
    ge = np.sqrt(source * (log_one_minus() * log_one_minus()))
    return row_sums(gd), row_sums(ge)


def _factors(params):
    return 4 if params.model is Model.V2V_RIS_AP else 5


class TestChunkedDraw:
    """sample_gain_sums draws each factor array from its own cursor on the
    stream of the block's seed sequence, in row chunks of a bounded
    workspace."""

    # rows per chunk: the default cap, one row, and 7 rows (uneven last chunks)
    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "one_row", "seven_rows"])
    @pytest.mark.parametrize("n", [1, 3000, 8192])
    @pytest.mark.parametrize("n_cells", [1, 3, 16, 100])
    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_bit_identical_to_whole_array_draw(self, model, n_cells, n, rows, monkeypatch):
        params = replace(_MODELS[model], n_cells=n_cells)
        if rows is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * _factors(params) * n_cells * rows)
        seq = np.random.SeedSequence(2024)
        ref = _whole_array_gain_sums(params, np.random.default_rng(seq), n)
        got = sample_gain_sums(params, seq, n)
        assert all(np.array_equal(a, b) for a, b in zip(ref, got))

    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_cursors_are_built_without_os_entropy(self, model, monkeypatch):
        seeds = []
        pcg64 = np.random.PCG64

        def recording(seed=None):
            seeds.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", recording)
        sample_gain_sums(_MODELS[model], np.random.SeedSequence(8), 10)
        assert len(seeds) == _factors(_MODELS[model]) and None not in seeds

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
        whole_einsum = np.einsum("ij->i", a)
        for r0, r1 in ((0, 1), (0, 7), (5, 6), (17, 300), (0, 300)):
            out = np.empty(r1 - r0)
            a[r0:r1].sum(axis=1, out=out)
            assert np.array_equal(out, whole[r0:r1])
            np.einsum("ij->i", a[r0:r1], out=out)
            assert np.array_equal(out, whole_einsum[r0:r1])

    def test_one_row_einsum_at_huge_cell_count(self):
        # The one known exception: with NumPy 2.4 on AVX-512, a one-row
        # einsum over many cells (seen at 1e4 and 1e5) can sum in another
        # order than the same row inside a larger chunk. The draw's chunking
        # depends only on (n, N), so its sums stay fixed, but where a chunk
        # has one row a whole-array reference need not match them bit for bit.
        a = np.random.default_rng(5).random((3, 10 ** 5)) * 1e3
        whole = np.einsum("ij->i", a)
        out = np.empty(2)
        np.einsum("ij->i", a[1:3], out=out)
        assert np.array_equal(out, whole[1:3])
        for r in range(3):
            one = np.einsum("ij->i", a[r:r + 1])
            assert one[0] == pytest.approx(whole[r], rel=1e-13)

    def test_relay_block_memory_is_bounded(self):
        params = replace(_MODELS["relay"], n_cells=256)
        tracemalloc.start()
        try:
            sample_gain_sums(params, np.random.SeedSequence(1), 8192)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20  # whole-array factors would take 84 MB

    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_oversize_rows_are_drawn_in_column_pieces(self, model):
        # a row of 1e5 cells is larger than the workspace: eight column
        # pieces (relay) or seven (v2v), the last one short, on the same cursors
        params = replace(_MODELS[model], n_cells=10 ** 5)
        seq = np.random.SeedSequence(11)
        ref = _whole_array_gain_sums(params, np.random.default_rng(seq), 3)
        tracemalloc.start()
        try:
            got = sample_gain_sums(params, seq, 3)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the workspace, plus some kB for the sums, cursors and states
        assert peak <= montecarlo._CHUNK_BYTES + 16 * 1024
        for a, b in zip(ref, got):
            np.testing.assert_allclose(b, a, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_huge_cell_count_runs_within_one_row_plus_cap(self, model):
        # one row of the factor arrays is larger than the cap here
        params = replace(_MODELS[model], n_cells=10 ** 5)
        row_bytes = 8 * _factors(params) * params.n_cells
        tracemalloc.start()
        try:
            (res,) = mc_points([params], McConfig(trials=64, seed=3))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < montecarlo._CHUNK_BYTES + row_bytes
        assert math.isfinite(res.asc_diff.value)


class TestDrawArithmetic:
    """The draw multiplies logs and takes one square root per gain, which
    must stay within a few ulp of the product of the Rayleigh factors
    sqrt(-2 log1p(-U)) it stands for; the reduce counts outages as
    cs < c_th."""

    def test_one_minus_uniform_is_exact(self):
        u = np.random.default_rng(77).random(1_000_000)
        steps = u * 2.0 ** 53  # exact: a power of two
        assert np.array_equal(steps, np.floor(steps))
        assert np.array_equal((1.0 - u) * 2.0 ** 53, (2 ** 53 - steps.astype(np.int64)).astype(float))
        edges = np.array([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
        complements = np.array([1.0, 1.0 - 2.0 ** -53, 0.5, 2.0 ** -53])
        assert np.array_equal(_log_one_minus(edges), np.log(complements))

    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_cell_gains_match_rayleigh_factor_products(self, model):
        params = replace(_MODELS[model], n_cells=1)
        n = 100_000
        got = sample_gain_sums(params, np.random.SeedSequence(606), n)
        r = np.sqrt(-2.0 * np.log1p(-np.random.default_rng(606).random((_factors(params), n))))
        if params.model is Model.V2V_RIS_AP:
            old = (r[0] * r[1], r[2] * r[3])
        else:
            old = (r[0] * (r[1] * r[2]), r[0] * (r[3] * r[4]))
        for new, ref in zip(got, old):
            assert np.all(np.abs(new - ref) <= 4.0 * np.spacing(ref))

    def test_outage_count_equals_positive_part_count(self):
        params = SystemParams(model=Model.V2V_RIS_AP, r_d=6.0, r_e=5.0)
        cfg = McConfig(trials=20_001, seed=21)
        scale_d, scale_e = params.scales
        blocks = [sample_gain_sums(params, _block_seed(cfg.seed, i), n) for i, n in _blocks(cfg.trials)]
        cs = np.concatenate([np.log2(1.0 + scale_d * sum_d) - np.log2(1.0 + scale_e * sum_e)
                             for sum_d, sum_e in blocks])
        assert (cs < 0.0).any() and (cs > 0.0).any()
        positive = np.sort(cs[cs > 0.0])
        ties = [float(positive[0]), float(positive[positive.size // 2]), float(positive[-1])]
        thresholds = [5e-324, 1e-300] + ties + [1.0]
        results = mc_points([replace(params, c_th=c_th) for c_th in thresholds], cfg)
        for c_th, res in zip(thresholds, results):
            old = int((np.maximum(cs, 0.0) < c_th).sum())
            assert res.sop.value == old / cfg.trials
        assert all(np.count_nonzero(cs == c_th) >= 1 for c_th in ties)
