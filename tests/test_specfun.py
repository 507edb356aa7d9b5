"""Special-function accuracy against independent oracles."""
import mpmath as mp
import numpy as np
import pytest

from ris_secrecy.channels import _as_arguments, _mgf_dbl

# 2F1(2, 1/2; 5/2; .) from arbitrary-precision summation (mpmath)
HYP_AT_0p999 = 5.4756385061780335
HYP_AT_MINUS_1 = 0.75


def hyp2f1_special(x: float) -> float:
    """The paper's instance 2F1(2, 1/2; 5/2; x), -1 <= x < 1, as realised by the
    package's double-Rayleigh MGF: M(s) = (4/3) 2F1(x)/(1+s)^2, s = (1+x)/(1-x).

    Arguments outside [-1, 1] map to s < 0, which the package's MGF argument
    check rejects; x = 1 itself maps to s = inf and is rejected here.
    """
    if x == 1.0:
        raise ValueError("x = 1 maps to s = inf")
    s = (1.0 + x) / (1.0 - x)
    return 0.75 * (1.0 + s) ** 2 * float(_mgf_dbl(_as_arguments([s], "hyp2f1_special"))[0])


class TestHyp2F1Special:
    """The double-Rayleigh MGF is the paper's 2F1 instance in elementary form;
    these pin it to the hypergeometric values through the map above."""

    def test_at_zero(self):
        assert hyp2f1_special(0.0) == 1.0

    def test_at_minus_one(self):
        v = hyp2f1_special(-1.0)
        assert 0.0 < v < 1.0
        assert v == pytest.approx(HYP_AT_MINUS_1, rel=1e-12)

    def test_near_one_log_case(self):
        assert hyp2f1_special(0.999) == pytest.approx(HYP_AT_0p999, rel=1e-8)

    def test_reference_grid(self):
        mp.mp.dps = 25
        xs = np.concatenate([np.linspace(-1.0, 0.5, 30),
                             1.0 - np.logspace(-7, -0.31, 30)])
        for x in xs:
            ref = float(mp.hyp2f1(2, mp.mpf(1) / 2, mp.mpf(5) / 2, mp.mpf(float(x))))
            assert hyp2f1_special(float(x)) == pytest.approx(ref, rel=1e-10)

    def test_regime_seam_is_continuous(self):
        lo = hyp2f1_special(0.5)
        hi = hyp2f1_special(0.5 + 1e-13)
        assert hi == pytest.approx(lo, rel=1e-11)

    def test_at_least_one_and_increasing_on_unit_interval(self):
        grid = np.linspace(0.0, 0.999, 50)
        vals = [hyp2f1_special(float(x)) for x in grid]
        assert all(v >= 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [-1.0000001, 1.0, 1.5, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            hyp2f1_special(bad)
