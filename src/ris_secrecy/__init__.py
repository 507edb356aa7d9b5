"""Secrecy analysis of RIS-enabled vehicular links.

Two system models: a V2V network whose source transmits through an N-cell
RIS access point (double-Rayleigh link gains), and a VANET reached through a
building-mounted RIS relay (triple-cascaded gains). The package computes the
average secrecy capacity and the secrecy outage probability analytically and
by Monte-Carlo simulation, and sweeps system parameters from a CLI.
"""
from .montecarlo import McConfig, McEstimate, mc_points
from .secrecy import Model, QuadratureError, SecrecyReport, SystemParams, secrecy_report

__version__ = "0.1.0"

__all__ = [
    "McConfig", "McEstimate", "mc_points",
    "Model", "SecrecyReport", "SystemParams", "secrecy_report",
    "QuadratureError",
    "__version__",
]
