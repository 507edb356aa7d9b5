"""Monte-Carlo estimation of the secrecy metrics by direct channel sampling.

This module is the independent ground truth for the analytic formulas. All
randomness is blocked: the trial index space is cut into fixed 8192-trial
blocks and block i draws from a generator seeded by (seed, i). Estimates are
therefore bit-identical for a given (trials, seed) regardless of the batch
size used for dispatch or the number of worker threads.

One engine, ``mc_points``, does all the sampling: it draws each block once
and reduces it at every requested point, since the per-cell gain sums depend
only on the model, the cell count and (trials, seed). ``mc_asc``, ``mc_sop``
and ``mc_gain_sum_stats`` are single-point views of it.
"""
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channels
from .channels import FadingKind
from .secrecy import Link, Model, SystemParams, snr_scale

THREADS_ENV_VAR = "RIS_SECRECY_THREADS"

_BLOCK_TRIALS = 8192  # randomness granularity; independent of McConfig.batch


@dataclass(frozen=True)
class McConfig:
    """Trial budget and reproducibility knobs for a Monte-Carlo run.

    ``batch`` only groups blocks per executor task; it never changes the
    drawn samples or the estimates.
    """

    trials: int = 100_000
    seed: int = 42
    batch: int = _BLOCK_TRIALS

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and the trial count behind it."""

    value: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


def default_threads() -> int:
    """Worker-thread count from the RIS_SECRECY_THREADS variable (default 1)."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}")
    return n


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))


def sample_gain_sums(params: SystemParams, rng: np.random.Generator, n: int):
    """Draw n trials of the summed per-element gains for both links.

    Returns (sum_d, sum_e) arrays: sums over the N cells of the destination
    and eavesdropper gains. For the relay model the source-leg draws are
    reused on both links (both receivers see the same source-to-RIS
    reflection).
    """
    shape = (n, params.n_cells)
    if params.model is Model.V2V_RIS_AP:
        gd = channels.sample(FadingKind.DOUBLE_RAYLEIGH, rng, shape)
        ge = channels.sample(FadingKind.DOUBLE_RAYLEIGH, rng, shape)
        return gd.sum(axis=1), ge.sum(axis=1)
    gs = channels.sample(FadingKind.RAYLEIGH, rng, shape)
    gd = channels.sample(FadingKind.DOUBLE_RAYLEIGH, rng, shape)
    ge = channels.sample(FadingKind.DOUBLE_RAYLEIGH, rng, shape)
    return (gs * gd).sum(axis=1), (gs * ge).sum(axis=1)


def _blocks(trials: int):
    n_blocks = (trials + _BLOCK_TRIALS - 1) // _BLOCK_TRIALS
    return [(i, min(_BLOCK_TRIALS, trials - i * _BLOCK_TRIALS)) for i in range(n_blocks)]


def _map_blocks(block_fn, cfg: McConfig):
    """Run block_fn(block_index, block_size) over all blocks on
    ``default_threads()`` workers, returning results in block order regardless
    of scheduling. ``cfg.batch`` only sets how many blocks one executor task
    covers."""
    threads = default_threads()
    blocks = _blocks(cfg.trials)
    if threads <= 1 or len(blocks) == 1:
        return [block_fn(i, n) for i, n in blocks]
    per_task = max(1, cfg.batch // _BLOCK_TRIALS)
    chunks = [blocks[i:i + per_task] for i in range(0, len(blocks), per_task)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        nested = pool.map(lambda chunk: [block_fn(i, n) for i, n in chunk], chunks)
        return [res for group in nested for res in group]


@dataclass(frozen=True)
class McPointResult:
    """Estimates at one point of an ``mc_points`` run.

    ``asc_diff`` averages log2(1+gamma_d) - log2(1+gamma_e) (can be negative,
    matches the analytic difference form), ``asc_pos`` averages max(.., 0);
    ``sop`` is Pr[max(Cs, 0) < c_th], or None when the point has no c_th.
    """

    asc_diff: McEstimate
    asc_pos: McEstimate
    sop: McEstimate | None


@dataclass(frozen=True)
class McRun:
    """Per-point results in input order, plus the (mean, variance) estimates
    of one link's summed gains when ``gain_moments`` was requested."""

    points: tuple
    gain_sum: tuple | None


def mc_points(points, cfg: McConfig, *, gain_moments: Link | None = None) -> McRun:
    """Estimate the MC metrics at many points from one pass over the blocks.

    ``points`` is a non-empty sequence of ``(SystemParams, c_th)`` pairs that
    share ``model`` and ``n_cells``; ``c_th`` may be None when no outage
    estimate is wanted. The gain sums depend only on the model, the cell
    count and (trials, seed), so each block is drawn once and every point
    only rescales and reduces it: all points see the same channels (common
    random numbers). ``gain_moments`` also collects the raw moments up to the
    fourth of that link's gain sum, for the variance adjudication.
    """
    points = list(points)
    if not points:
        raise ValueError("mc_points needs at least one point")
    draw_params = points[0][0]
    for params, c_th in points:
        if params.model is not draw_params.model or params.n_cells != draw_params.n_cells:
            raise ValueError("all points of one run must share model and n_cells")
        if c_th is not None and not c_th > 0.0:
            raise ValueError("c_th must be > 0")
    scaled = [(snr_scale(params, Link.DESTINATION), snr_scale(params, Link.EAVESDROPPER), c_th)
              for params, c_th in points]

    def work(i, n):
        rng = _block_rng(cfg.seed, i)
        sum_d, sum_e = sample_gain_sums(draw_params, rng, n)
        stats = []
        for scale_d, scale_e, c_th in scaled:
            cs = np.log2(1.0 + scale_d * sum_d) - np.log2(1.0 + scale_e * sum_e)
            pos = np.maximum(cs, 0.0)
            outages = 0 if c_th is None else int((pos < c_th).sum())
            stats.append((cs.sum(), (cs * cs).sum(), pos.sum(), (pos * pos).sum(), outages))
        if gain_moments is None:
            return stats, None
        x = sum_d if gain_moments is Link.DESTINATION else sum_e
        return stats, (x.sum(), (x ** 2).sum(), (x ** 3).sum(), (x ** 4).sum())

    parts = _map_blocks(work, cfg)
    n = cfg.trials
    results = []
    for k, (_params, c_th) in enumerate(points):
        sd = sd2 = sp = sp2 = 0.0
        outages = 0
        for stats, _moments in parts:
            a, b, c, d, o = stats[k]
            sd += a
            sd2 += b
            sp += c
            sp2 += d
            outages += o
        sop_est = None
        if c_th is not None:
            p = outages / n
            sop_est = McEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n), trials=n)
        results.append(McPointResult(_moment_estimate(sd, sd2, n), _moment_estimate(sp, sp2, n),
                                     sop_est))
    gain_sum = None
    if gain_moments is not None:
        s1 = s2 = s3 = s4 = 0.0
        for _stats, (a, b, c, d) in parts:
            s1 += a
            s2 += b
            s3 += c
            s4 += d
        gain_sum = _gain_sum_estimates(s1, s2, s3, s4, n)
    return McRun(points=tuple(results), gain_sum=gain_sum)


def _moment_estimate(total: float, total_sq: float, n: int) -> McEstimate:
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return McEstimate(value=mean, std_error=se, trials=n)


def _gain_sum_estimates(s1: float, s2: float, s3: float, s4: float, n: int):
    """(mean, variance) estimates from raw sums of x..x^4; the variance
    standard error uses the fourth central moment."""
    mean = s1 / n
    m2 = s2 / n - mean ** 2
    var = m2 * n / (n - 1) if n > 1 else 0.0
    # central fourth moment from raw sums
    m4 = (s4 - 4.0 * mean * s3 + 6.0 * mean ** 2 * s2 - 3.0 * n * mean ** 4) / n
    var_of_var = max(0.0, (m4 - (n - 3) / (n - 1) * m2 ** 2) / n) if n > 3 else 0.0
    mean_est = _moment_estimate(s1, s2, n)
    var_est = McEstimate(value=var, std_error=math.sqrt(var_of_var), trials=n)
    return mean_est, var_est


def mc_asc(params: SystemParams, cfg: McConfig):
    """Estimate the average secrecy capacity by simulation.

    Returns (difference_estimate, positive_part_estimate): the first averages
    log2(1+gamma_d) - log2(1+gamma_e) (can be negative, matches the analytic
    difference form), the second averages max(.., 0). Both are computed from
    the same trials.
    """
    res = mc_points([(params, None)], cfg).points[0]
    return res.asc_diff, res.asc_pos


def mc_sop(params: SystemParams, c_th: float, cfg: McConfig) -> McEstimate:
    """Estimate the secrecy outage probability Pr[max(Cs, 0) < c_th]."""
    return mc_points([(params, c_th)], cfg).points[0].sop


def mc_gain_sum_stats(params: SystemParams, cfg: McConfig, *, link: Link = Link.DESTINATION):
    """Mean and variance of the summed per-element gains on one link.

    Returns (mean_estimate, variance_estimate); the variance standard error
    uses the fourth central moment, so the estimates can adjudicate between
    candidate closed-form constants.
    """
    return mc_points([(params, None)], cfg, gain_moments=link).gain_sum
