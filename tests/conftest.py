import numpy as np
import pytest

from ris_secrecy import Model, SystemParams
from ris_secrecy.montecarlo import sample_gain_sums


@pytest.fixture
def v2v_params():
    return SystemParams(model=Model.V2V_RIS_AP)


@pytest.fixture
def relay_params():
    return SystemParams(model=Model.VANET_RIS_RELAY, r_s=10.0)


# One-cell systems whose destination gain sum is a single per-cell gain
_ONE_CELL = {Model.V2V_RIS_AP: SystemParams(model=Model.V2V_RIS_AP, n_cells=1),
             Model.VANET_RIS_RELAY: SystemParams(model=Model.VANET_RIS_RELAY, n_cells=1, r_s=10.0)}


@pytest.fixture
def cell_gains():
    """draw(model, seed, n): n per-cell gains of one model's fading law,
    drawn as the Monte-Carlo engine draws them from the integer ``seed`` (the
    destination gain sums of a one-cell system: double-Rayleigh for v2v, the
    triple cascade for the relay)."""
    def draw(model, seed, n):
        return sample_gain_sums(_ONE_CELL[model], np.random.SeedSequence(seed), n)[0]

    return draw
