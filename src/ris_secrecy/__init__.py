"""Secrecy analysis of RIS-enabled vehicular links.

Two system models: a V2V network whose source transmits through an N-cell
RIS access point (double-Rayleigh link gains), and a VANET reached through a
building-mounted RIS relay (triple-cascaded gains). The package computes the
average secrecy capacity and the secrecy outage probability analytically and
by Monte-Carlo simulation, and sweeps system parameters from a CLI.
"""
from .channels import ChannelMoments, FadingKind, moments, pdf, sample
from .montecarlo import (
    McConfig,
    McEstimate,
    mc_asc,
    mc_gain_sum_stats,
    mc_sop,
    sample_snr_pairs,
)
from .secrecy import (
    Link,
    Model,
    SecrecyReport,
    SopMode,
    SystemParams,
    asc_approx,
    asc_exact,
    asc_exact_clamped,
    avg_capacity,
    capacity_upper_bound,
    link_mgf,
    secrecy_report,
    snr_scale,
    sop,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureError,
    QuadratureSpec,
    bessel_k0,
    erf,
    integrate_semi_infinite,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelMoments", "FadingKind", "moments", "pdf", "sample",
    "McConfig", "McEstimate", "mc_asc", "mc_gain_sum_stats", "mc_sop",
    "sample_snr_pairs",
    "Link", "Model", "SecrecyReport", "SopMode", "SystemParams",
    "asc_approx", "asc_exact", "asc_exact_clamped", "avg_capacity",
    "capacity_upper_bound", "link_mgf", "secrecy_report", "snr_scale", "sop",
    "DEFAULT_QUADRATURE", "QuadratureError", "QuadratureSpec",
    "bessel_k0", "erf", "integrate_semi_infinite",
    "__version__",
]
