"""Monte-Carlo estimation of the secrecy metrics by direct channel sampling.

This module is the independent ground truth for the analytic formulas. All
randomness is blocked: the trial index space is cut into fixed 8192-trial
blocks and block i draws from a generator seeded by (seed, i), and the blocks
are reduced one after the other in block order. Estimates are therefore
bit-identical for a given (trials, seed).

One engine, ``mc_points``, does all the sampling: it draws each block once
per distinct (model, cell count) and reduces it at every point that shares
them, since the per-cell gain sums depend only on the model, the cell count
and (trials, seed). A one-point list gives the estimates at a single point.
"""
import math
from dataclasses import dataclass

import numpy as np

from .secrecy import Model, SystemParams, _cell_mean, _index

_BLOCK_TRIALS = 8192  # randomness granularity, and the trials drawn at a time


@dataclass(frozen=True)
class McConfig:
    """Trial budget and seed of a Monte-Carlo run."""

    trials: int = 100_000
    seed: int = 42

    def __post_init__(self):
        trials, seed = _index(self.trials, "trials"), _index(self.seed, "seed")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and the trial count behind it."""

    value: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


def _block_seed(seed: int, block_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))


# Size of a block's draw workspace. Row chunks of every factor array are
# drawn into it, or column pieces of one row where a row is larger, so a
# block holds at most this much plus its two n-long sums, whatever n_cells is.
# Smaller workspaces draw more slowly: about 3% at 512 KiB against 1 MiB and
# 10% at 256 KiB, from the per-chunk calls.
_CHUNK_BYTES = 1 << 19


def _log_one_minus(u: np.ndarray) -> np.ndarray:
    """Turn uniforms U in [0, 1) into log(1 - U) in place and return the
    array. Generator doubles are multiples of 2**-53, so 1 - U is exact and
    in (0, 1]: the log never sees zero, and -log(1 - U) is a unit
    exponential, the square of a Rayleigh factor over two."""
    np.subtract(1.0, u, out=u)
    return np.log(u, out=u)


def sample_gain_sums(params: SystemParams, seq: np.random.SeedSequence, n: int):
    """Draw n trials of the summed per-element gains for both links.

    Returns (sum_d, sum_e) arrays: sums over the N cells of the destination
    and eavesdropper gains. For the relay model the source-leg draws are
    reused on both links (both receivers see the same source-to-RIS
    reflection).

    Each gain is a product of unit Rayleigh factors sqrt(-2 log(1 - U)),
    one per uniform U of k (n, N) arrays: for v2v the two factors of the
    destination link, then the two of the eavesdropper link (k = 4); the
    relay puts its source leg first (k = 5). The draw takes log(1 - U) of
    every uniform, multiplies the logs of each gain's factors and takes one
    square root per gain: 2 sqrt(L1 L2) for v2v and 2 sqrt(-2 Ls L1 L2) for
    the relay, with the 2 applied to the sums. Every log lies in
    [-36.8, 0], so the products neither overflow nor change sign.

    Factor j is the stretch of the PCG64 stream seeded by ``seq`` that
    starts j*n*N outputs on, as if the arrays were drawn whole one after the
    other by ``np.random.default_rng(seq)``. Each factor is read from its own
    cursor, a PCG64 seeded by ``seq`` and advanced to that start, in row
    chunks of a workspace of ``_CHUNK_BYTES`` (a row larger than that in
    column pieces, whose sums add up), so the sums are bit-identical to
    whole-array draws (except, in the last bits, rows summed alone over about
    1e4 cells or more). A call holds the workspace and the two n-long sums,
    whatever n_cells is.
    """
    n_cells = params.n_cells
    k = _factor_count(params.model)
    cursors = [np.random.Generator(np.random.PCG64(seq).advance(j * n * n_cells)) for j in range(k)]
    cols = min(n_cells, _CHUNK_BYTES // (8 * k))
    rows = max(1, min(n, _CHUNK_BYTES // (8 * k * n_cells)))
    work = np.empty(k * rows * cols)
    sum_d = np.zeros(n)
    sum_e = np.zeros(n)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        for c0 in range(0, n_cells, cols):
            c1 = min(n_cells, c0 + cols)
            f = work[:k * (r1 - r0) * (c1 - c0)].reshape(k, r1 - r0, c1 - c0)
            for cursor, factor in zip(cursors, f):
                cursor.random(out=factor)
            _log_one_minus(f)
            gd = np.multiply(f[-4], f[-3], out=f[-4])
            ge = np.multiply(f[-2], f[-1], out=f[-2])
            if k == 5:  # the relay's source leg, times -2 once, times each receiver's pair
                source = np.multiply(f[0], -2.0, out=f[0])
                gd *= source
                ge *= source
            # einsum, not a BLAS matrix-vector product, whose row sums change
            # with a chunk's row count (einsum's change only for one-row
            # chunks of about 1e4 cells or more); added to zeros, so a row
            # drawn in one piece keeps its sum bit for bit
            sum_d[r0:r1] += np.einsum("ij->i", np.sqrt(gd, out=gd))
            sum_e[r0:r1] += np.einsum("ij->i", np.sqrt(ge, out=ge))
    sum_d *= 2.0  # exact: doubling commutes with every rounding above
    sum_e *= 2.0
    return sum_d, sum_e


def _factor_count(model: Model) -> int:
    """The uniforms a trial draws per cell: four for v2v, five for the relay."""
    return 4 if model is Model.V2V_RIS_AP else 5


def _blocks(trials: int):
    n_blocks = (trials + _BLOCK_TRIALS - 1) // _BLOCK_TRIALS
    return [(i, min(_BLOCK_TRIALS, trials - i * _BLOCK_TRIALS)) for i in range(n_blocks)]


@dataclass(frozen=True)
class McPointResult:
    """Estimates at one point of an ``mc_points`` run.

    ``asc_diff`` averages log2(1+gamma_d) - log2(1+gamma_e) (can be negative,
    matches the analytic difference form), ``asc_pos`` averages max(.., 0);
    ``sop`` is Pr[max(Cs, 0) < c_th] at the point's c_th.
    ``gain_sum`` is the (mean, variance) estimate pair of the destination
    gain sum, shared by every point drawn in the same pass.
    """

    asc_diff: McEstimate
    asc_pos: McEstimate
    sop: McEstimate
    gain_sum: tuple


def mc_points(points, cfg: McConfig) -> list:
    """Estimate the MC metrics at many points, one result per point in order.

    ``points`` is a non-empty sequence of SystemParams. The gain sums
    depend only on the model, the cell count and (trials, seed), so the
    points are grouped by (model, n_cells) and each group is one pass that
    draws every block once and only rescales and reduces it per point: the
    points of a group see the same channels (common random numbers).
    Raises ValueError, before any draw, where a group's cell count is too
    large for its block's factor stretches to fit in the PCG64 period.
    """
    points = list(points)
    if not points:
        raise ValueError("mc_points needs at least one point")
    groups = {}
    for k, params in enumerate(points):
        groups.setdefault((params.model, params.n_cells), []).append(k)
    # a cursor advanced past PCG64's period, 2**128, wraps onto the start of
    # the stream, so the factor stretches of the largest block, n*N outputs
    # each, would overlap
    n = min(cfg.trials, _BLOCK_TRIALS)
    for model, n_cells in groups:
        factors = _factor_count(model)
        if factors * n * n_cells > 2 ** 128:
            raise ValueError(f"n_cells={n_cells:.6g} is above {2 ** 128 // (factors * n):.6g}: the {factors} factor "
                             f"stretches of a {n}-trial Monte-Carlo block must fit in the stream's 2**128 period")
    results = [None] * len(points)
    for members in groups.values():
        for k, res in zip(members, _mc_pass([points[k] for k in members], cfg)):
            results[k] = res
    return results


def _mc_pass(points, cfg: McConfig) -> list:
    """``mc_points`` for points that share model and n_cells: one pass over
    the blocks, which also sums the first four powers of the destination
    gain sum less its known mean N E[g], for the sum's (mean, variance)
    estimates: powers of the raw sum would cancel by about N^2 1e-16. Each
    block's array of sums (a row per point, then the gain-sum moments) is
    added to the running totals as it is made, in block order: a pass holds
    one block's sums at a time."""
    lifts = [_lift(params) for params in points]
    centre = points[0].n_cells * _cell_mean(points[0].model)

    def work(i, n):
        sum_d, sum_e = sample_gain_sums(points[0], _block_seed(cfg.seed, i), n)
        top_d, top_e = float(sum_d.max()), float(sum_e.max())
        sums = np.zeros((len(points) + 1, 5))
        for row, params, lift in zip(sums, points, lifts):
            scale_d, scale_e = params.scales
            cs = _log2_one_plus(scale_d, sum_d, top_d) - _log2_one_plus(scale_e, sum_e, top_e)
            # as c_th > 0, max(cs, 0) < c_th exactly where cs < c_th
            outages = np.count_nonzero(cs < params.c_th)
            if lift != 1.0:
                cs *= lift
            pos = np.maximum(cs, 0.0)
            row[:] = cs.sum(), np.dot(cs, cs), pos.sum(), np.dot(pos, pos), outages
        x = np.subtract(sum_d, centre, out=sum_d)
        sq = x * x
        sums[-1, :4] = x.sum(), sq.sum(), np.dot(sq, x), np.dot(sq, sq)
        return sums

    totals = sum(work(i, n) for i, n in _blocks(cfg.trials))
    n = cfg.trials
    gain_sum = _gain_sum_estimates(*totals[-1, :4].tolist(), n, centre)
    results = []
    for (sd, sd2, sp, sp2, outages), lift in zip(map(np.ndarray.tolist, totals[:-1]), lifts):
        p = outages / n
        results.append(McPointResult(_moment_estimate(sd, sd2, n, lift), _moment_estimate(sp, sp2, n, lift),
                                     McEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n), trials=n),
                                     gain_sum))
    return results


# At low SNR a point's capacity differences are of the order of
# N E[g] max(s_d, s_e). Below this bound their squares can underflow (to 0
# below about 1e-154), and the standard errors with them.
_LIFT_BELOW = 2.0 ** -300


def _lift(params: SystemParams) -> float:
    """The power of two a point's capacity differences are summed at: 1, or
    where N E[g] max(s_d, s_e) is below ``_LIFT_BELOW``, the power that brings
    that bound to [1/2, 1); the estimates are divided by it at the end, which
    is exact."""
    bound = params.n_cells * _cell_mean(params.model) * max(params.scales)
    return math.ldexp(1.0, min(-math.frexp(bound)[1], 1000)) if bound < _LIFT_BELOW else 1.0


_LOG1P_BELOW = 2.0 ** -20  # scale*top below which 1 + scale*X would drop digits
_LN2 = math.log(2.0)


def _log2_one_plus(scale: float, sums: np.ndarray, top: float) -> np.ndarray:
    """log2(1 + scale*X) of every gain sum X of a block, ``top`` the largest.
    Where scale*top is below 2^-20 (low SNR), it is log1p(scale*X)/ln 2, since
    forming 1 + scale*X rounds away the digits of scale*X; where scale*top
    overflows (SNR scales near the top of the double range), it is
    log2(scale) + log2(X + 1/scale), which keeps every term finite; elsewhere
    the direct form."""
    product = scale * top
    if product < _LOG1P_BELOW:
        return np.log1p(scale * sums) / _LN2
    if math.isfinite(product):
        return np.log2(1.0 + scale * sums)
    return math.log2(scale) + np.log2(sums + 1.0 / scale)


def _moment_estimate(total: float, total_sq: float, n: int, lift: float = 1.0) -> McEstimate:
    """Mean and standard error of n values from the sum and the sum of
    squares of the values times ``lift``, a power of two that both are
    divided by at the end."""
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return McEstimate(value=mean / lift, std_error=se / lift, trials=n)


def _gain_sum_estimates(s1: float, s2: float, s3: float, s4: float, n: int, centre: float):
    """(mean, variance) estimates of the gain sum X from the sums of x..x^4,
    x = X - centre; the variance standard error uses the fourth central
    moment. With ``centre`` the known mean, x is of the order of the spread
    of X, so these sums keep the digits that sums of X..X^4 would lose."""
    mean = s1 / n
    m2 = s2 / n - mean ** 2
    var = m2 * n / (n - 1) if n > 1 else 0.0
    # central fourth moment from the sums about the centre
    m4 = (s4 - 4.0 * mean * s3 + 6.0 * mean ** 2 * s2 - 3.0 * n * mean ** 4) / n
    var_of_var = max(0.0, (m4 - (n - 3) / (n - 1) * m2 ** 2) / n) if n > 3 else 0.0
    offset = _moment_estimate(s1, s2, n)
    mean_est = McEstimate(value=centre + offset.value, std_error=offset.std_error, trials=n)
    var_est = McEstimate(value=var, std_error=math.sqrt(var_of_var), trials=n)
    return mean_est, var_est

