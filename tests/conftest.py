import pytest

from ris_secrecy import FadingKind, Model, SystemParams
from ris_secrecy.montecarlo import sample_gain_sums


@pytest.fixture
def v2v_params():
    return SystemParams(model=Model.V2V_RIS_AP)


@pytest.fixture
def relay_params():
    return SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0)


# One-cell systems whose destination gain sum is a single per-cell gain
_ONE_CELL = {FadingKind.DOUBLE_RAYLEIGH: SystemParams(model=Model.V2V_RIS_AP, n_cells=1),
             FadingKind.TRIPLE_CASCADE: SystemParams(model=Model.VANET_RIS_RELAY, n_cells=1, r_s=10.0)}


@pytest.fixture
def cell_gains():
    """draw(kind, rng, n): n per-cell gains of one fading law, drawn as the
    Monte-Carlo engine draws them (the destination gain sums of a one-cell
    v2v system for the double-Rayleigh, of a one-cell relay for the cascade)."""
    def draw(kind, rng, n):
        return sample_gain_sums(_ONE_CELL[kind], rng, n)[0]

    return draw
