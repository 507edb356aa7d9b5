"""Analytic secrecy metrics for the two RIS system models.

Model 1 (V2vRisAp): the source drives an N-cell RIS access point and each
receiver link gain is double-Rayleigh. Model 2 (VanetRisRelay): a static
source reaches mobile receivers via an N-cell RIS relay, so each link is a
triple cascade (Rayleigh source leg times a double-Rayleigh receiver leg).

Average capacities come from the MGF integral identity
C = (1/ln 2) * int_0^inf (1 - M(z)) exp(-z)/z dz, summed for each link by a
fixed trapezoid rule in ln z, with the nodes of many links in each MGF call.
The average secrecy capacity is the difference of per-link capacities. Its
closed-form approximation is the difference of the per-link Jensen bounds
log2(1 + N mu s), taken in the log domain, and the outage probability is an
erfc form from a Gaussian approximation of the summed gains. Every metric
reads the link SNR scales s from ``SystemParams.scales``, computed once when
the point is built; the outage form takes the ratio of the two links' scales
from the distances alone.
"""
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import channels


class Model(Enum):
    V2V_RIS_AP = "v2v_ris_ap"
    VANET_RIS_RELAY = "vanet_ris_relay"


@dataclass(frozen=True)
class SystemParams:
    """One point of the analysis: the physical parameters of a scenario and
    the target secrecy rate c_th (bits/s/Hz) whose outage Pr(C_s < c_th) the
    outage metrics give.

    Distances are in metres, p_s in watts, n_0 in the same normalized units
    as p_s; r_s is the source-to-RIS distance and exists only for the relay
    model. ``model`` must be a Model. The real fields take ints, floats and
    NumPy reals and store a float, and n_cells takes an int or NumPy integer
    and stores an int; any other value raises ValueError.

    ``scales`` is (s_d, s_e), the destination and eavesdropper SNR scales,
    derived state that ``asdict``, ``==``, ``hash`` and ``repr`` do not see.
    """

    model: Model
    p_s: float = 10.0
    n_0: float = 1.0
    beta: float = 2.7
    n_cells: int = 16
    r_d: float = 4.0
    r_e: float = 8.0
    r_s: float | None = None
    c_th: float = 1.0

    def __post_init__(self):
        if not isinstance(self.model, Model):
            raise ValueError(f"model must be a Model, got {self.model!r}")
        if self.model is Model.V2V_RIS_AP:
            if self.r_s is not None:
                raise ValueError("r_s applies only to the relay model")
        elif self.r_s is None:
            raise ValueError("the relay model requires a finite r_s > 0")
        for name in ("p_s", "n_0", "beta", "r_d", "r_e", "c_th") + (() if self.r_s is None else ("r_s",)):
            value = _real(getattr(self, name), name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
            object.__setattr__(self, name, value)
        n_cells = _index(self.n_cells, "n_cells")
        if not 1 <= n_cells <= sys.float_info.max:
            raise ValueError("n_cells must be an integer >= 1 within the double range")
        object.__setattr__(self, "n_cells", n_cells)
        scales = (_snr_scale(self, self.r_d), _snr_scale(self, self.r_e))
        if not all(0.0 < scale < math.inf for scale in scales):
            raise ValueError("the link SNR scales p_s r^-beta / n_0 overflow or underflow")
        object.__setattr__(self, "scales", scales)


def _cell_mean(model: Model) -> float:
    """E[g], the mean gain of one cell of ``model``."""
    return channels.DOUBLE_RAYLEIGH_MEAN if model is Model.V2V_RIS_AP else channels.TRIPLE_CASCADE_MEAN


def _index(value, name: str) -> int:
    """The integer field ``name`` as a Python int. Ints and NumPy integers
    pass; floats, even integral ones, bools and other types raise ValueError:
    NumPy takes no float where it needs an int."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """The real field ``name`` as a float. Floats, ints and NumPy reals pass;
    bools, other types and ints beyond the double range raise ValueError."""
    if type(value) is float:
        return value
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{name} is outside the double range") from None
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SecrecyReport:
    """All analytic metrics at one parameter point (capacities in bits/s/Hz)."""

    c_d: float
    c_e: float
    asc_exact: float
    asc_approx: float
    sop_corrected: float
    sop_paper_literal: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise ValueError("report fields must be finite")
        if self.c_d < 0.0 or self.c_e < 0.0:
            raise ValueError("average capacities must be nonnegative")
        for p in (self.sop_corrected, self.sop_paper_literal):
            if not 0.0 <= p <= 1.0:
                raise ValueError("outage probabilities must lie in [0, 1]")


# The smallest normal double; a product below it keeps fewer digits.
_TINY = 2.2250738585072014e-308


def _snr_scale(params: SystemParams, distance: float) -> float:
    """SNR scale multiplying the summed gains of a link: p_s distance^-beta
    / n_0 times the r_s^-beta hop loss of the relay model. The access point
    takes r_s = 1, whose hop loss (1), products and log (0) are exact.

    A scale above the double range is math.inf, and one below it is 0.0.
    """
    r_s = params.r_s if params.model is Model.VANET_RIS_RELAY else 1.0
    try:
        path = distance ** -params.beta
        hop = r_s ** -params.beta
    except OverflowError:
        path = hop = math.inf
    power = params.p_s * path
    per_hop = power / params.n_0
    scale = per_hop * hop
    if all(_TINY <= v < math.inf for v in (path, power, per_hop, hop, scale)):
        return scale
    # A step left the normal double range and lost digits (or overflowed):
    # the sum of the logs keeps them. The two relay path terms can each be
    # about 1e5 and cancel; the log of the product distance * r_s keeps the
    # digits their sum loses, wherever that product is a normal double.
    product = distance * r_s
    log_path = (-params.beta * math.log(product) if _TINY <= product < math.inf
                else -params.beta * math.log(distance) - params.beta * math.log(r_s))
    try:
        return math.exp(math.log(params.p_s) + log_path - math.log(params.n_0))
    except OverflowError:
        return math.inf


class QuadratureError(ArithmeticError):
    """A capacity came out non-finite; ``component`` is the index of its
    point. The CLI reports it as a numerical failure (exit 3)."""

    def __init__(self, message: str, component: int):
        super().__init__(message)
        self.component = component


# With z = e^v the capacity identity reads C = (1/ln 2) int (1 - M(s e^v)^N)
# exp(-e^v) dv over the real line; the SNR scale s only shifts the integrand
# along v. The integrand is analytic in a strip and decays doubly
# exponentially on the right, so the trapezoid rule on the lattice v = k h
# converges geometrically in 1/h (Trefethen & Weideman, SIAM Review 56, 2014):
# h = 1/4 is within about 1e-15. Past v = 4, exp(-e^v) < 2e-24. On the left
# the integrand is below N mu s e^v (mu = E[g]), so the tail below
# L = -40 - max(0, ln(N mu s)) is below e^-40 of the capacity, which is about
# N mu s / ln 2 when that is small and of order 1 or more otherwise.
_STEP = 0.25
_LEFT = -40.0
_LAST = 16  # the node at v = 4


# The most nodes of one MGF call. A capacity run takes its columns in
# consecutive batches of whole columns up to this many nodes (a larger column
# is a batch alone), so its working memory does not grow with the run.
_BATCH_NODES = 1 << 14


def _capacity_run(columns) -> np.ndarray:
    """Average capacity (bits/s/Hz) of every (params, SNR scale) column;
    each column has its own SNR scale and cell count. The columns go through
    the MGF in batches of at most ``_BATCH_NODES`` nodes, one call each, and
    each column is summed over its own nodes only, so its value does not
    depend on the other columns or on the batching."""
    model = columns[0][0].model
    if any(params.model is not model for params, _scale in columns):
        raise ValueError("the points of a capacity run must share one model")
    one_minus_mgf = (channels.one_minus_mgf_double_rayleigh if model is Model.V2V_RIS_AP
                     else channels.one_minus_mgf_triple_cascade)
    return np.concatenate([_capacity_batch(batch, one_minus_mgf)
                           for batch in _node_batches(columns, math.log(_cell_mean(model)))])


def _node_batches(columns, log_mean: float):
    """The (SNR scale, cell count, first node) of every column, in
    consecutive lists of whole columns of at most ``_BATCH_NODES`` nodes in
    all, or of one larger column."""
    batch, nodes = [], 0
    for params, scale in columns:
        n_cells = float(params.n_cells)
        first = math.ceil((_LEFT - max(0.0, math.log(n_cells) + log_mean + math.log(scale))) / _STEP)
        count = _LAST + 1 - first
        if batch and nodes + count > _BATCH_NODES:
            yield batch
            batch, nodes = [], 0
        batch.append((scale, n_cells, first))
        nodes += count
    yield batch


def _capacity_batch(batch, one_minus_mgf) -> np.ndarray:
    """The capacities of one batch of ``_node_batches``, from one MGF call."""
    scales, n_cells, firsts = zip(*batch)
    counts = [_LAST + 1 - k for k in firsts]
    v = np.concatenate([np.arange(k, _LAST + 1) for k in firsts]) * _STEP
    # s e^v, not exp(v + ln s): the rounding of ln s would move every
    # argument by up to |ln s| ulps. It overflows to inf, where q = 1 exactly.
    # A lattice starting below v = -700 would take e^v into the subnormals or
    # to 0, so such a column is shifted by c and its argument formed as
    # (s e^(-c/2) e^(-c/2)) e^(v + c); e^-c alone can underflow, as c reaches
    # about 760. An unshifted column (c = 0) multiplies by 1 exactly.
    shifts = np.maximum(0.0, -np.multiply(firsts, _STEP) - 700.0)
    half = np.exp(-0.5 * shifts)
    with np.errstate(over="ignore"):
        q = one_minus_mgf(np.repeat(np.multiply(scales, half) * half, counts)
                          * np.exp(v + np.repeat(shifts, counts)))
    # 1 - M^N as -expm1(N log1p(-q)) from q = 1 - M, which keeps its digits
    # where M is near 1; q = 1 (M underflowed) gives exactly 1, and N log(M)
    # overflowing to -inf gives 1 too
    with np.errstate(divide="ignore", over="ignore"):
        log_m = np.log1p(-np.minimum(q, 1.0))
        terms = -np.expm1(np.repeat(n_cells, counts) * log_m) * np.exp(-np.exp(v))
    ends = itertools.accumulate(counts)
    return np.array([math.fsum(terms[end - count:end].tolist()) for end, count in zip(ends, counts)]) * (
        _STEP / math.log(2.0))


def asc_approx(params: SystemParams) -> float:
    """Closed-form secrecy-capacity approximation: the difference of the
    per-link Jensen bounds log2(1 + N mu s), with mu the per-cell mean gain
    and s the link SNR scale. Each bound is log(1 + e^x), x = ln(N mu s), so
    no product of the path-loss terms can leave the double range. Where both
    bounds round to x, their difference keeps only the absolute precision of
    x; there it is x_d - x_e = -beta ln(r_d / r_e) plus the log(1 + e^-x)."""
    log_n_mean = math.log(params.n_cells) + math.log(_cell_mean(params.model))
    x_d, x_e = (log_n_mean + math.log(scale) for scale in params.scales)
    if min(x_d, x_e) > 37.0:  # e^-x < 1e-16, so log(1 + e^x) rounds to x
        diff = (-params.beta * _log_distance_ratio(params)
                + math.log1p(math.exp(-x_d)) - math.log1p(math.exp(-x_e)))
    else:
        bound_d, bound_e = np.logaddexp(0.0, [x_d, x_e])
        diff = float(bound_d - bound_e)
    return diff / math.log(2.0)


def _log_distance_ratio(params: SystemParams) -> float:
    """ln(r_d / r_e): log1p of the exact difference within a factor of two,
    else the log of the quotient where it is normal, else a difference of logs."""
    q = params.r_d / params.r_e
    if 0.5 <= q <= 2.0:
        return math.log1p((params.r_d - params.r_e) / params.r_e)
    if _TINY <= q < math.inf:
        return math.log(q)
    return math.log(params.r_d) - math.log(params.r_e)


def _path_ratio(params: SystemParams) -> float:
    """(r_d / r_e)^beta, the eavesdropper's SNR scale over the destination's
    (the relay's hop loss cancels), formed from the distances alone: the
    quotient of the two rounded scales can rise by an ulp as p_s rises, and
    the outage with it."""
    q = params.r_d / params.r_e
    try:
        if _TINY <= q < math.inf:
            return q ** params.beta
        return math.exp(params.beta * _log_distance_ratio(params))
    except OverflowError:
        return math.inf


def sop(params: SystemParams) -> tuple:
    """Secrecy outage probability Pr(C_s < params.c_th) from the Gaussian
    (CLT) gain-sum approximation, as the pair (corrected, paper_literal).

    The random eavesdropper term is replaced by its mean, reproducing the
    closed erf form, evaluated as erfc; the Monte-Carlo module quantifies the
    resulting bias. The relay's pair takes the corrected per-element
    constants (mean coefficient (pi/2)^1.5, variance 8-(pi/2)^3), then the
    paper's literal ones (pi^3/(2 sqrt 2), 8-(pi/2)^1.5); the access point
    has one constant set and gives its one value twice.
    """
    try:
        nu = 2.0 ** params.c_th
    except OverflowError:  # drives the erf argument below to +inf
        return 1.0, 1.0
    ratio = _path_ratio(params)
    noise_term = (nu - 1.0) / params.scales[0]  # n_0 (nu - 1) / (p_s r_d^-beta [r_s^-beta])
    if params.model is Model.V2V_RIS_AP:
        constants = [(channels.DOUBLE_RAYLEIGH_MEAN, channels.DOUBLE_RAYLEIGH_VARIANCE)]
    else:  # the corrected set, then the paper's literal one
        constants = [(channels.TRIPLE_CASCADE_MEAN, channels.TRIPLE_CASCADE_VARIANCE),
                     (channels.PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF, channels.PAPER_LITERAL_TRIPLE_VARIANCE)]
    n = params.n_cells
    # x = (noise_term + N mean (nu ratio - 1)) / sqrt(2 N variance), with N
    # divided out of the sum and sqrt(N) taken alone, so that no term
    # overflows at any cell count in the double range; 0.5 (1 + erf(x)) as
    # 0.5 erfc(-x), which keeps its relative digits in the lower tail
    xs = [(noise_term / n + mean * (nu * ratio - 1.0)) * (math.sqrt(n) / math.sqrt(2.0 * variance))
          for mean, variance in constants]
    values = [0.5 * math.erfc(-x) for x in xs]
    return values[0], values[-1]


def secrecy_report(points) -> list:
    """Every analytic metric at many points, one SecrecyReport per point in
    order: the exact capacities and the closed forms, ``asc_approx`` and the
    (corrected, paper_literal) pair of one ``sop`` call.

    ``points`` is a sequence of SystemParams sharing one model, as for
    ``mc_points``; an empty sequence gives an empty list. Every link's
    capacity is computed on its own in one capacity run, so a point's report
    is bit-identical alone or in any list. The links go through the MGF in
    batches of at most ``_BATCH_NODES`` nodes: about 1-2 MB of working
    memory at any number of points. Raises QuadratureError, with
    ``component`` the index of the point, when a capacity is not finite.
    """
    points = list(points)
    if not points:
        return []
    capacities = _capacity_run([(params, scale) for params in points for scale in params.scales]).reshape(-1, 2)
    bad = ~np.isfinite(capacities).all(axis=1)
    if bad.any():
        index = int(np.argmax(bad))
        raise QuadratureError(f"the capacities of point {index} are not finite: {capacities[index].tolist()}",
                              component=index)
    return [SecrecyReport(c_d, c_e, c_d - c_e, asc_approx(params), *sop(params))
            for params, (c_d, c_e) in zip(points, capacities.tolist())]
