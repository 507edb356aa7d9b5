"""The Gauss-Kronrod quadrature engine.

Every integral in the package goes through one deterministic adaptive GK15
engine. It evaluates all 15 nodes of a panel in one call and accepts
vector-valued integrands, so a family of integrals over the same range (one
per link of a capacity run, say) shares its panels.
"""
import heapq
import math

import numpy as np


class QuadratureError(ArithmeticError):
    """Adaptive subdivision exhausted before reaching tolerance, or the
    integrand was not finite.

    Carries the best available estimate and its error bound (for a vector
    integrand, those of the component furthest from convergence, whose index
    is ``component``; None for a scalar integrand).
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float,
                 component: int | None = None):
        super().__init__(f"{message} (best estimate {best_estimate!r}, error bound {error_bound!r})")
        self.best_estimate = best_estimate
        self.error_bound = error_bound
        self.component = component


# 15-point Gauss-Kronrod rule (QUADPACK dqk15 constants, Piessens et al. 1983):
# Kronrod abscissae on [0, 1] with their weights; the 7-point Gauss rule uses
# abscissae 1, 3, 5 and the centre.
_XGK = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK = np.array([
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
_WG = (
    0.1294849661688697,
    0.2797053914892766,
    0.3818300505051189,
    0.4179591836734694,
)
# The whole rule on [-1, 1]: 15 nodes in increasing order, their Kronrod
# weights, and the Gauss weights (zero at the Kronrod-only nodes).
_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1:7:2] = _WG[:3]
_GAUSS[13:7:-2] = _WG[:3]
_GAUSS[7] = _WG[3]


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel over [a, b]: (value, error estimate), each a
    scalar or, for a vector integrand, one entry per component."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.asarray(f(c + h * _NODES), dtype=float)
    # einsum sums each component over the nodes in the same order whatever
    # its position, so identical components get bit-identical results (a
    # BLAS matrix-vector product does not promise that)
    resk = np.einsum("i,i...->...", _KRONROD, fv)
    err = np.abs(resk - np.einsum("i,i...->...", _GAUSS, fv)) * h
    resasc = np.einsum("i,i...->...", _KRONROD, np.abs(fv - 0.5 * resk)) * h
    # QUADPACK's rescaling of the raw Kronrod-Gauss difference
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk * h, err


def integrate(f, breaks, *, rel_tol: float = 1e-9, abs_tol: float = 1e-12,
              max_subdivisions: int = 2000):
    """Integrate f over [breaks[0], breaks[-1]] by adaptive GK15 subdivision.

    ``f`` receives the 15 nodes of a panel as a 1-D array and returns one
    value per node, or a (15, m) array for an m-component integrand. The
    panel with the largest error (relative to each component's initial
    tolerance) is bisected until every component's accumulated error is
    below max(abs_tol, rel_tol*|value|). Deterministic: identical inputs
    produce bit-identical output, and identical components of a vector
    integrand get bit-identical values. Returns a float, or an array of m
    values. Raises QuadratureError when ``max_subdivisions`` is exhausted
    first or the integrand is not finite; for a vector integrand its
    ``component`` is the index of the component furthest from convergence.
    """
    first = [_gk15(f, a, b) for a, b in zip(breaks[:-1], breaks[1:])]
    total = sum(v for v, _e in first)
    toterr = sum(e for _v, e in first)
    norm = 1.0 / np.maximum(np.maximum(abs_tol, rel_tol * np.abs(total)),
                            np.finfo(float).tiny)
    heap = [(-np.max(e * norm), a, b, v, e) for (v, e), a, b in zip(first, breaks[:-1], breaks[1:])]
    heapq.heapify(heap)
    unsplittable = []
    splits = 0
    while not np.all(toterr <= np.maximum(abs_tol, rel_tol * np.abs(total))):
        finite = np.all(np.isfinite(toterr))
        if splits >= max_subdivisions or not heap or not finite:
            worst = int(np.argmax(np.atleast_1d(toterr)))
            reason = (f"did not converge within {max_subdivisions} subdivisions"
                      if finite else "met a non-finite integrand value")
            raise QuadratureError(
                f"adaptive quadrature {reason}",
                best_estimate=float(np.atleast_1d(total)[worst]),
                error_bound=float(np.atleast_1d(toterr)[worst]),
                component=worst if np.ndim(toterr) else None,
            )
        panel = heapq.heappop(heap)
        _key, a, b, v, e = panel
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            unsplittable.append(panel)
            continue
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        total = total + (v1 + v2 - v)
        toterr = toterr + (e1 + e2 - e)
        heapq.heappush(heap, (-np.max(e1 * norm), a, m, v1, e1))
        heapq.heappush(heap, (-np.max(e2 * norm), m, b, v2, e2))
        splits += 1
    # re-sum in interval order so the result does not carry the accumulated
    # rounding of the incremental updates
    values = np.array([p[3] for p in sorted(heap + unsplittable, key=lambda p: p[1])])
    if values.ndim == 1:
        return math.fsum(values)
    return _column_fsums(values)


def _column_fsums(values):
    """The correctly rounded sum of each column of a (k, m) array, as m values.

    ``math.fsum`` reads each column as a list of Python floats: iterating a
    NumPy column would box every element as a NumPy scalar first.
    """
    return np.array(list(map(math.fsum, values.T.tolist())))

