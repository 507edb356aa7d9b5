"""Secrecy analysis of RIS-enabled vehicular links.

Two system models: a V2V network whose source transmits through an N-cell
RIS access point (double-Rayleigh link gains), and a VANET reached through a
building-mounted RIS relay (triple-cascaded gains). The package computes the
average secrecy capacity and the secrecy outage probability analytically and
by Monte-Carlo simulation, and sweeps system parameters from a CLI.
"""
from .montecarlo import McConfig, McEstimate, mc_asc, mc_gain_sum_stats, mc_sop
from .secrecy import (
    Link,
    Model,
    SecrecyReport,
    SopMode,
    SystemParams,
    asc_approx,
    asc_exact,
    avg_capacity,
    secrecy_report,
    snr_scale,
    sop,
)
from .specfun import QuadratureError

__version__ = "0.1.0"

__all__ = [
    "McConfig", "McEstimate", "mc_asc", "mc_gain_sum_stats", "mc_sop",
    "Link", "Model", "SecrecyReport", "SopMode", "SystemParams",
    "asc_approx", "asc_exact", "avg_capacity",
    "secrecy_report", "snr_scale", "sop",
    "QuadratureError",
    "__version__",
]
