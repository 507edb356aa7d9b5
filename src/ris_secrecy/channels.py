"""Per-element fading-channel models.

Two gain laws appear in the two system models, both products of
independent unit-scale Rayleigh factors (PDF g*exp(-g^2/2)): the
double-Rayleigh (two factors, PDF g*K0(g)) and the triple cascade (three).
This module provides their exact moments and the complements 1 - MGF
(accurate where the MGF is near one) that the capacity integrals use.
"""
import itertools
import math

import numpy as np

# Exact per-element gain moments: the V2V access point's links are
# double-Rayleigh, the relay's links the triple cascade.
DOUBLE_RAYLEIGH_MEAN = math.pi / 2.0
DOUBLE_RAYLEIGH_VARIANCE = 4.0 - math.pi ** 2 / 4.0
TRIPLE_CASCADE_MEAN = (math.pi / 2.0) ** 1.5
TRIPLE_CASCADE_VARIANCE = 8.0 - (math.pi / 2.0) ** 3

# A variant constant set for the triple cascade circulates whose variance
# and mean coefficient are mutually inconsistent with the cascade moments
# (a Monte-Carlo check settles which set is right). It stays selectable so
# the corresponding outage formula can be reproduced verbatim for comparison.
PAPER_LITERAL_TRIPLE_VARIANCE = 8.0 - (math.pi / 2.0) ** 1.5
PAPER_LITERAL_TRIPLE_MEAN_SUM_COEFF = math.pi ** 3 / (2.0 * math.sqrt(2.0))

# Near s = 1 the elementary form cancels; there the MGF is evaluated as
# (4/3) 2F1(2, 1/2; 5/2; x)/(1+s)^2 with x = (s-1)/(s+1), summing the series
# whose n-th coefficient is 3(n+1)/((2n+1)(2n+3)) (17 terms reach 1e-17 for
# |x| <= 0.1). Past s = 1e8 the tail (ln 2s - 1)/s^2 is exact to 1e-16.
_SERIES_X = 0.1
_SERIES = tuple(3.0 * (n + 1) / ((2 * n + 1) * (2 * n + 3)) for n in range(16, -1, -1))
_TAIL_S = 1e8


def _as_arguments(s, name: str):
    arr = np.asarray(s, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError(f"{name} requires s >= 0")
    return arr


def _mgf_dbl(s):
    # Elementary Laplace transform of g*K0(g) (Gradshteyn & Ryzhik 6.611):
    # (s*A(s) - 1)/(s^2 - 1) with A = acosh(s)/sqrt(s^2-1) for s > 1 and
    # acos(s)/sqrt(1-s^2) for s < 1; the series and the tail take the
    # arguments near 1 and past 1e8, and each form sees only its own.
    s = np.minimum(s, 1e300)  # the MGF underflows to 0 past here; x stays finite at inf
    x = (s - 1.0) / (s + 1.0)
    near = np.abs(x) <= _SERIES_X
    far = s > _TAIL_S
    mid = ~(near | far)
    out = np.empty(s.shape)
    sm = s[mid]
    u = sm * sm - 1.0
    a = np.where(sm < 1.0, np.arccos(np.minimum(sm, 1.0)), np.arccosh(np.maximum(sm, 1.0)))
    out[mid] = (sm * a / np.sqrt(np.abs(u)) - 1.0) / u
    out[near] = (4.0 / 3.0) * np.polyval(_SERIES, x[near]) / ((1.0 + s[near]) ** 2)
    sf = s[far]
    out[far] = (np.log(2.0 * sf) - 1.0) / sf / sf
    return out


# Below this argument 1 - M_dbl has its own closed form; above it
# M_dbl <= 0.53, so 1 - M loses no digits.
_COMPLEMENT_S = 0.5


def one_minus_mgf_double_rayleigh(s):
    """1 - E[exp(-s*g)] for the double-Rayleigh gain, s >= 0, accurate to a
    few ulps relative also where the MGF is close to one.

    Accepts a scalar (returns a float) or an array (returns an array).
    """
    arr = _as_arguments(s, "one_minus_mgf_double_rayleigh")
    out = np.empty(arr.shape)
    # below 0.5, 1 - M = s*(acos(s) - s*sqrt(1-s^2))/(1-s^2)^(3/2) without
    # forming M near 1: the difference stays above pi/3 - 0.44, so no digits
    # cancel
    low = arr < _COMPLEMENT_S
    sl = arr[low]
    r2 = 1.0 - sl * sl
    r = np.sqrt(r2)
    out[low] = sl * (np.arccos(sl) - sl * r) / (r2 * r)
    out[~low] = 1.0 - _mgf_dbl(arr[~low])
    return float(out) if arr.ndim == 0 else out


# The triple-cascade complement q(s) = 1 - M_T(s) in three ranges of s:
# - below e^-7, its moment series: q/s = sum_{k=1..7} (-1)^(k+1) E[g^k] s^(k-1)/k!
#   with E[g^k] = (2^(k/2) Gamma(1 + k/2))^3, whose first omitted term is
#   below 1e-18 of q there;
# - on [e^-7, e^23], a Chebyshev expansion of ln q in u = ln s on each of
#   15 pieces of width 2, stored below;
# - from e^23 up, exactly 1, since M_T(e^23) = 2.7e-18 is below half an ulp of 1.
_TRIPLE_LOG_S = (-7.0, 23.0)
_TRIPLE_PIECE = 2.0
_TRIPLE_S_LO, _TRIPLE_S_HI = (math.exp(u) for u in _TRIPLE_LOG_S)
_TRIPLE_SERIES = tuple((-1.0) ** (k + 1) * (2.0 ** (0.5 * k) * math.gamma(1.0 + 0.5 * k)) ** 3
                       / math.factorial(k) for k in range(7, 0, -1))

# Chebyshev coefficients of ln q on each piece, in T_0, T_1, ... order, from
# tools/fit_triple_cascade.py: it fits mpmath values of the conditioning
# integral q(s) = int_0^inf y exp(-y^2/2) (1 - M_dbl(s y)) dy at 24 Chebyshev
# points per piece and drops trailing terms below 1e-17. Rerun it, do not
# edit by hand; CI checks that the two agree.
_TRIPLE_CHEB = (
    (
        -5.328968465992018, 0.9943544362881048, -0.0013470168351267622, -0.00021705520698321062,
        -2.6095005950279345e-05, -2.4523239226691687e-06, -1.8147027718397148e-07, -9.964756953861239e-09,
        -2.7815758266928105e-10, 1.8969686328874074e-11, 3.888330308962435e-12, 3.828200849668096e-13,
        2.632624588497786e-14, 1.1318847423879132e-15, -1.0851373629556266e-17,
    ),
    (
        -3.368000970790068, 0.9603384628913634, -0.009088062249856603, -0.0013484624959391844,
        -0.0001359818931750969, -8.209171288920863e-06, 3.106918112010002e-08, 7.452122659323721e-08,
        9.386494027487775e-09, 5.294123029547564e-10, -2.075776359678805e-11, -7.941597229163917e-12,
        -8.368097971735778e-13, -2.862115194569776e-14, 5.021662662106027e-15, 9.749602089065788e-16,
        7.523367322820837e-17,
    ),
    (
        -1.6017638225003108, 0.7797795419853207, -0.04019285200969235, -0.003502914513773869,
        2.6550600422266188e-05, 3.9257278028273676e-05, 2.6530588605699743e-06, -3.027201744245951e-07,
        -5.567238222585221e-08, 4.320410326776514e-10, 8.026797698313509e-10, 4.223253691770158e-11,
        -9.330203230786465e-12, -1.160440597888976e-12, 7.978999276637241e-14, 2.2484513720941443e-14,
        -8.678529318288506e-17, -3.6888609198026543e-16, -1.7500940637009712e-17,
    ),
    (
        -0.45205126935267753, 0.35682292522046405, -0.05505748379574802, 0.0021068551890593536,
        0.0003961354688960888, -3.450475104522525e-05, -3.560572457734452e-06, 5.183873272990437e-07,
        2.224851010157093e-08, -6.816213268449747e-09, 8.34204193184833e-11, 7.228256116994629e-11,
        -5.784676706747442e-12, -4.62970939768714e-13, 1.1441740895853945e-13, -2.8500605053700968e-15,
        -1.4450885025958435e-15, 1.554502577508684e-16,
    ),
    (
        -0.062332938543588255, 0.06543603715472766, -0.01725259325369103, 0.0026040696302208253,
        -0.00019946816440556296, -2.4011387083957876e-06, 2.1703692462691143e-06, -1.7375790694992142e-07,
        -5.166151054486252e-09, 1.8906917578706198e-09, -9.506717322186963e-11, -7.362178523443182e-12,
        1.0004710782291545e-12, -3.208040087589207e-15, -3.685146371564224e-15, -2.1600187560603136e-16,
        3.705865997468933e-17,
    ),
    (
        -0.004355662036054131, 0.0052086343858003545, -0.0017357489113959158, 0.0003801165254224692,
        -5.8406914735990035e-05, 6.303041274189834e-06, -4.2658566620035554e-07, 5.6386905878161464e-09,
        2.6015713180101647e-09, -3.3927782551140836e-10, 1.792605537172625e-11, 5.441238258425684e-13,
        -1.7862383279033012e-13, 1.3372640487520741e-14, -1.635055905900838e-17, -9.060065923676973e-17,
    ),
    (
        -0.0001931703083384551, 0.00024442282057733975, -8.996295085954345e-05, 2.2676771067928715e-05,
        -4.2512431216076895e-06, 6.197259388243145e-07, -7.17086686121292e-08, 6.57035038403429e-09,
        -4.5714346855614775e-10, 2.0228641686459954e-11, 9.432105447273074e-14, -1.2023085999733966e-13,
        1.3094425523093098e-14, -8.246684923222394e-16, 2.280764663985357e-17,
    ),
    (
        -6.643289111138213e-06, 8.641645726416969e-06, -3.3350225035494316e-06, 8.951456353293115e-07,
        -1.8185629896555928e-07, 2.9411211179523348e-08, -3.9091805147412544e-09, 4.356393569156202e-10,
        -4.1144183514679575e-11, 3.2976234771163927e-12, -2.2151727317539084e-13, 1.1959190321032495e-14,
        -4.491479939896014e-16,
    ),
    (
        -1.973538155152987e-07, 2.608026106227382e-07, -1.033555956546436e-07, 2.8694743748849554e-08,
        -6.073247809809143e-09, 1.0318493803458873e-09, -1.456102567019713e-10, 1.7473744854376904e-11,
        -1.8130476896582791e-12, 1.6452731100055856e-13, -1.3151047632876245e-14, 9.284319758232888e-16,
        -5.772204395092857e-17,
    ),
    (
        -5.344989109665736e-09, 7.134993654941819e-09, -2.87535448034473e-09, 8.150928247984376e-10,
        -1.7678759145505548e-10, 3.089973195478863e-11, -4.505950382166562e-12, 5.618275841810232e-13,
        -6.098512322307159e-14, 5.841325704401075e-15, -4.987497584319467e-16, 3.8247415783194785e-17,
    ),
    (
        -1.3589374877494157e-10, 1.826730647147239e-10, -7.446691332683157e-11, 2.1408658751588445e-11,
        -4.719216067012442e-12, 8.401014279448095e-13, -1.2506350975934086e-13, 1.596131666014795e-14,
        -1.778982606383914e-15, 1.7562324167486867e-16, -1.552729667979308e-17,
    ),
    (
        -3.300393758229789e-12, 4.459176777151166e-12, -1.8330438842083723e-12, 5.32346741699846e-13,
        -1.1870476651745699e-13, 2.140375631825779e-14, -3.23177725927517e-15, 4.1897024527076057e-16,
        -4.75145002259613e-17,
    ),
    (
        -7.742538651994721e-14, 1.0501697165561055e-13, -4.34442985932905e-14, 1.2713500601475059e-14,
        -2.8593195145470386e-15, 5.204570208771483e-16, -7.939930789791783e-17, 1.0409834727316635e-17,
    ),
    (
        -1.7677700210726685e-15, 2.40507941092639e-15, -9.99917627720421e-16, 2.943596928214336e-16,
        -6.664361796126138e-17, 1.2218789094242541e-17,
    ),
    (
        -3.949186124794364e-17, 5.386201914964752e-17, -2.248318572043888e-17,
    ),
)
# The rows zero-padded to one length and transposed, so that gathering the
# columns of the pieces gives one contiguous row per term.
_TRIPLE_TERMS = np.array(list(itertools.zip_longest(*_TRIPLE_CHEB, fillvalue=0.0)))


def _log_one_minus_mgf_triple(u):
    """ln q at u = ln s in [-7, 23], by the Clenshaw recurrence on the
    coefficients of each argument's piece."""
    lo = _TRIPLE_LOG_S[0]
    # truncation towards zero puts a u rounded just below -7 in piece 0 too
    piece = np.minimum(((u - lo) * (1.0 / _TRIPLE_PIECE)).astype(np.intp), _TRIPLE_TERMS.shape[1] - 1)
    t = (u - lo - _TRIPLE_PIECE * piece) * (2.0 / _TRIPLE_PIECE) - 1.0
    terms = _TRIPLE_TERMS[:, piece]
    t2 = 2.0 * t
    b1 = b2 = 0.0
    for c in terms[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return terms[0] + t * b1 - b2


def one_minus_mgf_triple_cascade(s):
    """1 - E[exp(-s*g)] for the triple-cascade gain, s >= 0, within about
    1e-15 relative for every normal s, also where the MGF is close to one.

    A closed evaluation: the moment series below s = e^-7, the stored
    Chebyshev expansions of ln(1 - MGF) in ln s up to e^23, and exactly 1
    from there on. Accepts a scalar (returns a float) or an array (returns an
    array).
    """
    arr = _as_arguments(s, "one_minus_mgf_triple_cascade")
    out = np.ones(arr.shape)
    low = arr < _TRIPLE_S_LO
    sl = arr[low]
    out[low] = sl * np.polyval(_TRIPLE_SERIES, sl)
    mid = ~low & (arr < _TRIPLE_S_HI)
    out[mid] = np.exp(_log_one_minus_mgf_triple(np.log(arr[mid])))
    return float(out) if arr.ndim == 0 else out
