"""Monte-Carlo estimation of the secrecy metrics by direct channel sampling.

This module is the independent ground truth for the analytic formulas. All
randomness is blocked: the trial index space is cut into fixed 8192-trial
blocks and block i draws from a generator seeded by (seed, i). Estimates are
therefore bit-identical for a given (trials, seed) regardless of the number
of worker threads.

One engine, ``mc_points``, does all the sampling: it draws each block once
per distinct (model, cell count) and reduces it at every point that shares
them, since the per-cell gain sums depend only on the model, the cell count
and (trials, seed). A one-point list gives the estimates at a single point.
"""
import math
import os
from dataclasses import dataclass

import numpy as np

from . import channels
from .secrecy import Link, Model, SystemParams, snr_scale

THREADS_ENV_VAR = "RIS_SECRECY_THREADS"

_BLOCK_TRIALS = 8192  # randomness granularity, and the work of one worker task


@dataclass(frozen=True)
class McConfig:
    """Trial budget and seed of a Monte-Carlo run."""

    trials: int = 100_000
    seed: int = 42

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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


# Size of a block's draw workspace. Row chunks of every factor array are
# drawn into it, so a block holds about this much (or one row, where a row is
# larger) plus its two n-long sums, whatever n_cells is.
_CHUNK_BYTES = 1 << 20


def sample_gain_sums(params: SystemParams, rng: np.random.Generator, n: int):
    """Draw n trials of the summed per-element gains for both links.

    Returns (sum_d, sum_e) arrays: sums over the N cells of the destination
    and eavesdropper gains. For the relay model the source-leg draws are
    reused on both links (both receivers see the same source-to-RIS
    reflection).

    The gains are products of k (n, N) arrays of Rayleigh factors: for v2v
    the two factors of the destination link, then the two of the
    eavesdropper link (k = 4); the relay puts its source leg first (k = 5).
    Factor j is the stretch of ``rng``'s PCG64 stream that starts j*n*N
    outputs on, as if the arrays were drawn whole one after the other. Each
    factor is read from its own cursor on that stream, in row chunks of a
    workspace of ``_CHUNK_BYTES``, so the sums are bit-identical to
    whole-array draws and ``rng`` ends k*n*N outputs on, where those leave it.
    """
    n_cells = params.n_cells
    k = 4 if params.model is Model.V2V_RIS_AP else 5
    state = rng.bit_generator.state
    cursors = []
    for j in range(k):
        bit_generator = np.random.PCG64()
        bit_generator.state = state
        bit_generator.advance(j * n * n_cells)
        cursors.append(np.random.Generator(bit_generator))
    rows = max(1, min(n, _CHUNK_BYTES // (8 * k * n_cells)))
    work = np.empty(k * rows * n_cells)
    sum_d = np.empty(n)
    sum_e = np.empty(n)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        f = work[:k * (r1 - r0) * n_cells].reshape(k, r1 - r0, n_cells)
        for cursor, factor in zip(cursors, f):
            cursor.random(out=factor)
        channels.rayleigh_inplace(f)
        if k == 4:
            gd = np.multiply(f[0], f[1], out=f[0])
            ge = np.multiply(f[2], f[3], out=f[2])
        else:  # the source leg f[0] times each receiver's double-Rayleigh leg
            gd = np.multiply(f[0], np.multiply(f[1], f[2], out=f[1]), out=f[1])
            ge = np.multiply(f[0], np.multiply(f[3], f[4], out=f[3]), out=f[3])
        gd.sum(axis=1, out=sum_d[r0:r1])
        ge.sum(axis=1, out=sum_e[r0:r1])
    state["state"] = cursors[-1].bit_generator.state["state"]
    rng.bit_generator.state = state
    return sum_d, sum_e


def _blocks(trials: int):
    n_blocks = (trials + _BLOCK_TRIALS - 1) // _BLOCK_TRIALS
    return [(i, min(_BLOCK_TRIALS, trials - i * _BLOCK_TRIALS)) for i in range(n_blocks)]


def _map_blocks(block_fn, trials: int):
    """Run block_fn(block_index, block_size) over the blocks of ``trials``
    on ``default_threads()`` workers, one executor task per block, returning
    results in block order regardless of scheduling."""
    threads = default_threads()
    blocks = _blocks(trials)
    if threads <= 1 or len(blocks) == 1:
        return [block_fn(i, n) for i, n in blocks]
    # imported here, so that single-threaded runs do not pay for loading it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(block_fn, *zip(*blocks)))


@dataclass(frozen=True)
class McPointResult:
    """Estimates at one point of an ``mc_points`` run.

    ``asc_diff`` averages log2(1+gamma_d) - log2(1+gamma_e) (can be negative,
    matches the analytic difference form), ``asc_pos`` averages max(.., 0);
    ``sop`` is Pr[max(Cs, 0) < c_th], or None when the point has no c_th.
    ``gain_sum`` is the (mean, variance) estimate pair of the destination
    gain sum, shared by every point drawn in the same pass.
    """

    asc_diff: McEstimate
    asc_pos: McEstimate
    sop: McEstimate | None
    gain_sum: tuple


def mc_points(points, cfg: McConfig) -> list:
    """Estimate the MC metrics at many points, one result per point in order.

    ``points`` is a non-empty sequence of ``(SystemParams, c_th)`` pairs;
    ``c_th`` may be None when no outage estimate is wanted. The gain sums
    depend only on the model, the cell count and (trials, seed), so the
    points are grouped by (model, n_cells) and each group is one pass that
    draws every block once and only rescales and reduces it per point: the
    points of a group see the same channels (common random numbers).
    """
    points = list(points)
    if not points:
        raise ValueError("mc_points needs at least one point")
    groups = {}
    for k, (params, c_th) in enumerate(points):
        if c_th is not None and not c_th > 0.0:
            raise ValueError("c_th must be > 0")
        groups.setdefault((params.model, params.n_cells), []).append(k)
    results = [None] * len(points)
    for members in groups.values():
        for k, res in zip(members, _mc_pass([points[k] for k in members], cfg)):
            results[k] = res
    return results


def _mc_pass(points, cfg: McConfig) -> list:
    """``mc_points`` for points that share model and n_cells: one pass over
    the blocks, which also sums the first four powers of the destination
    gain sum for its (mean, variance) estimates."""
    draw_params = points[0][0]
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
        return stats, (sum_d.sum(), (sum_d ** 2).sum(), (sum_d ** 3).sum(), (sum_d ** 4).sum())

    parts = _map_blocks(work, cfg.trials)
    n = cfg.trials
    # sum() adds the blocks in order from 0, as a running total would
    gain_sum = _gain_sum_estimates(*map(sum, zip(*(moments for _stats, moments in parts))), n)
    results = []
    for k, (_params, c_th) in enumerate(points):
        sd, sd2, sp, sp2, outages = map(sum, zip(*(stats[k] for stats, _moments in parts)))
        sop_est = None
        if c_th is not None:
            p = outages / n
            sop_est = McEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n), trials=n)
        results.append(McPointResult(_moment_estimate(sd, sd2, n), _moment_estimate(sp, sp2, n),
                                     sop_est, gain_sum))
    return results


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

