"""Analytic secrecy metrics for the two RIS system models.

Model 1 (V2vRisAp): the source drives an N-cell RIS access point and each
receiver link gain is double-Rayleigh. Model 2 (VanetRisRelay): a static
source reaches mobile receivers via an N-cell RIS relay, so each link is a
triple cascade (Rayleigh source leg times a double-Rayleigh receiver leg).

Average capacities come from the MGF integral identity
C = (1/ln 2) * int_0^inf (1 - M(z)) exp(-z)/z dz, with one adaptive
quadrature for every link of up to 32 points, evaluated a whole panel of z
values at a time. The average secrecy capacity is the difference of
per-link capacities, with a closed-form upper-bound approximation and an
erf-form outage probability obtained from a Gaussian approximation of the
summed gains.
"""
import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from . import channels
from .specfun import QuadratureError, integrate


class Model(Enum):
    V2V_RIS_AP = "v2v_ris_ap"
    VANET_RIS_RELAY = "vanet_ris_relay"


class Link(Enum):
    DESTINATION = "destination"
    EAVESDROPPER = "eavesdropper"


class SopMode(Enum):
    CORRECTED = "corrected"
    PAPER_LITERAL = "paper_literal"


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of one scenario.

    Distances are in metres, p_s in watts, n_0 in the same normalized units
    as p_s; r_s is the source-to-RIS distance and exists only for the relay
    model.
    """

    model: Model
    p_s: float = 10.0
    n_0: float = 1.0
    beta: float = 2.7
    n_cells: int = 16
    r_d: float = 4.0
    r_e: float = 8.0
    r_s: float | None = None

    def __post_init__(self):
        if not 0.0 < self.p_s < math.inf:
            raise ValueError("p_s must be finite and > 0")
        if not 0.0 < self.n_0 < math.inf:
            raise ValueError("n_0 must be finite and > 0")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be finite and > 0")
        if not (math.isfinite(self.n_cells) and int(self.n_cells) == self.n_cells >= 1):
            raise ValueError("n_cells must be an integer >= 1")
        if not (0.0 < self.r_d < math.inf and 0.0 < self.r_e < math.inf):
            raise ValueError("distances must be finite and > 0")
        if self.model is Model.V2V_RIS_AP:
            if self.r_s is not None:
                raise ValueError("r_s applies only to the relay model")
        else:
            if self.r_s is None or not 0.0 < self.r_s < math.inf:
                raise ValueError("the relay model requires a finite r_s > 0")
        try:
            scales = [snr_scale(self, link) for link in Link]
        except OverflowError:
            scales = [math.inf]
        if not all(0.0 < v < math.inf for v in scales):
            raise ValueError("the link SNR scales p_s r^-beta / n_0 overflow or underflow")


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
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("report fields must be finite")
        if self.c_d < 0.0 or self.c_e < 0.0:
            raise ValueError("average capacities must be nonnegative")
        for p in (self.sop_corrected, self.sop_paper_literal):
            if not 0.0 <= p <= 1.0:
                raise ValueError("outage probabilities must lie in [0, 1]")


# The smallest normal double; a product below it keeps fewer digits.
_TINY = 2.2250738585072014e-308


def snr_scale(params: SystemParams, link: Link) -> float:
    """SNR scale multiplying the summed gains: p_s r_i^-beta / n_0, with an
    extra r_s^-beta hop loss for the relay model.

    Raises OverflowError when the scale is beyond the double range.
    """
    relay = params.model is Model.VANET_RIS_RELAY
    distance = params.r_d if link is Link.DESTINATION else params.r_e
    try:
        path = distance ** -params.beta
        hop = params.r_s ** -params.beta if relay else 1.0
    except OverflowError:
        path = hop = math.inf
    power = params.p_s * path
    scale = power / params.n_0
    steps = [path, power, scale]
    if relay:
        scale *= hop
        steps += [hop, scale]
    if all(_TINY <= v < math.inf for v in steps):
        return scale
    # A step left the normal double range and lost digits (or overflowed):
    # the sum of the logs keeps them.
    return math.exp(math.log(params.p_s) + _log_path_loss(params, distance) - math.log(params.n_0))


def _log_path_loss(params: SystemParams, distance: float) -> float:
    """log(distance^-beta), plus log(r_s^-beta) for the relay model.

    The two relay terms can each be about 1e5 and cancel; the log of the
    product distance * r_s keeps the digits their sum loses, wherever that
    product is a normal double.
    """
    if params.model is Model.V2V_RIS_AP:
        return -params.beta * math.log(distance)
    product = distance * params.r_s
    if _TINY <= product < math.inf:
        return -params.beta * math.log(product)
    return -params.beta * math.log(distance) - params.beta * math.log(params.r_s)


# Points per capacity run. Every link of a run is one column of a single
# adaptive quadrature, and the triple cascade evaluates 15 arguments per
# column at each outer panel, so longer point lists are split into runs of
# this many points to bound the panel arrays.
_RUN_POINTS = 32

# Initial panels of the capacity integral over z, graded towards the origin.
# The integrand decays like exp(-z), which is below 1e-16 past z = 40, so
# truncating there is below every tolerance the package uses.
_CAPACITY_BREAKS = (0.0, 0.625, 2.5, 10.0, 40.0)


def _capacity_run(columns) -> np.ndarray:
    """Average capacity (bits/s/Hz) of every (params, link) column in one
    adaptive quadrature; each column has its own SNR scale and cell count.

    On failure the QuadratureError's ``component`` is the failing column.
    """
    model = columns[0][0].model
    if any(params.model is not model for params, _link in columns):
        raise ValueError("the points of a capacity run must share one model")
    scales = np.array([snr_scale(params, link) for params, link in columns])
    n_cells = np.array([float(params.n_cells) for params, _link in columns])
    one_minus_mgf = (channels.one_minus_mgf_double_rayleigh if model is Model.V2V_RIS_AP
                     else channels.one_minus_mgf_triple_cascade)

    def integrand(z):
        try:
            q = one_minus_mgf(np.multiply.outer(z, scales))
        except QuadratureError as exc:
            exc.component %= len(columns)  # flat (node, column) index -> column
            raise
        # 1 - M^N as -expm1(N log1p(-q)) from q = 1 - M, which keeps its
        # digits where M is near 1; q = 1 (M underflowed) gives exactly 1
        with np.errstate(divide="ignore"):
            log_m = np.log1p(-np.minimum(q, 1.0))
        return -np.expm1(n_cells * log_m) * (np.exp(-z) / z)[:, None]

    return integrate(integrand, _CAPACITY_BREAKS) / math.log(2.0)


def link_capacities(points) -> np.ndarray:
    """Average capacities (c_d, c_e) in bits/s/Hz at every point, one row each.

    ``points`` is a sequence of SystemParams sharing one model. Both links of
    up to 32 consecutive points share one adaptive quadrature (the analytic
    counterpart of the Monte-Carlo common random numbers). A point's values
    therefore depend on the other points of its run, but only within the
    quadrature tolerance, and identical links in one run get bit-identical
    values. On failure the QuadratureError's ``component`` is the index of
    the failing point.
    """
    out = np.empty((len(points), 2))
    for start in range(0, len(points), _RUN_POINTS):
        run = points[start:start + _RUN_POINTS]
        try:
            out[start:start + len(run)] = _capacity_run(
                [(params, link) for params in run for link in Link]).reshape(-1, 2)
        except QuadratureError as exc:
            exc.component = start + exc.component // 2
            raise
    return out


def asc_approx(params: SystemParams) -> float:
    """Closed-form secrecy-capacity approximation from the per-link Jensen bounds."""
    relay = params.model is Model.VANET_RIS_RELAY
    try:
        rd = params.r_d ** -params.beta
        re_ = params.r_e ** -params.beta
        rs = params.r_s ** -params.beta if relay else 1.0
    except OverflowError:  # a path loss beyond the double range; the logs below hold it
        rd = re_ = rs = math.inf
    if not relay:
        c, k = 2.0, params.n_cells * math.pi
        coeff = k * params.p_s
        powers = (rd, re_)
    else:
        c, k = 2.0 * math.sqrt(2.0), params.n_cells * math.pi ** 1.5
        coeff = params.n_cells * params.p_s * math.pi ** 1.5 * rs
        powers = (rd, re_, rs)
    noise, term_d, term_e = c * params.n_0, coeff * rd, coeff * re_
    ratio = (noise + term_d) / (noise + term_e)
    if all(_TINY <= v < math.inf for v in (params.p_s, coeff, noise, term_d, term_e, ratio, *powers)):
        return math.log2(ratio)
    # A product or the ratio left the normal double range and lost digits.
    # Over c n_0 the bound terms are e^x, with x taken from the logs of the
    # inputs, and log((1 + e^x_d) / (1 + e^x_e)) keeps every digit.
    log_x = math.log(k) + math.log(params.p_s) - math.log(c) - math.log(params.n_0)
    x_d = log_x + _log_path_loss(params, params.r_d)
    x_e = log_x + _log_path_loss(params, params.r_e)
    return float(np.logaddexp(0.0, x_d) - np.logaddexp(0.0, x_e)) / math.log(2.0)


def sop(params: SystemParams, c_th: float, mode: SopMode = SopMode.CORRECTED) -> float:
    """Secrecy outage probability from the Gaussian (CLT) gain-sum approximation.

    The random eavesdropper term is replaced by its mean, reproducing the
    closed erf form; the Monte-Carlo module quantifies the resulting bias.
    For the relay model, ``mode`` selects the corrected per-element constants
    (mean coefficient (pi/2)^1.5, variance 8-(pi/2)^3) or the paper_literal
    variant (pi^3/(2 sqrt 2) and 8-(pi/2)^1.5). Both modes coincide for the
    access-point model.
    """
    if not c_th > 0.0:
        raise ValueError("c_th must be > 0")
    try:
        nu = 2.0 ** c_th
        ratio = (params.r_e / params.r_d) ** -params.beta  # r_e^-beta / r_d^-beta
    except (OverflowError, ZeroDivisionError):
        # an overflow, or r_e / r_d underflowing to 0, drives the erf
        # argument below to +inf
        return 1.0
    # n_0 (nu - 1) / (p_s r_d^-beta [r_s^-beta]), from the validated scale
    noise_term = (nu - 1.0) / snr_scale(params, Link.DESTINATION)
    if params.model is Model.V2V_RIS_AP:
        mean, variance = channels.DOUBLE_RAYLEIGH_MEAN, channels.DOUBLE_RAYLEIGH_VARIANCE
    elif mode is SopMode.CORRECTED:
        mean, variance = channels.TRIPLE_CASCADE_MEAN, channels.TRIPLE_CASCADE_VARIANCE
    else:
        mean, variance = channels.PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF, channels.PAPER_LITERAL_TRIPLE_VARIANCE
    n = params.n_cells
    numer = noise_term + n * mean * (nu * ratio - 1.0)
    return 0.5 * (1.0 + math.erf(numer / math.sqrt(2.0 * (n * variance))))


def secrecy_report(params: SystemParams, c_th: float = 1.0) -> SecrecyReport:
    """Evaluate every analytic metric at one parameter point."""
    c_d, c_e = (float(c) for c in link_capacities([params])[0])
    return SecrecyReport(
        c_d=c_d,
        c_e=c_e,
        asc_exact=c_d - c_e,
        asc_approx=asc_approx(params),
        sop_corrected=sop(params, c_th, SopMode.CORRECTED),
        sop_paper_literal=sop(params, c_th, SopMode.PAPER_LITERAL),
    )
