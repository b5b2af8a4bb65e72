"""Experiment design: WSP sampling over the paper's parameter ranges,
and the TCP baseline.  Every QUIC transfer runs through
:func:`repro.conformance.run_transfer`."""

from .baseline import run_tcp_direct
from .design import (
    DEFAULT_RANGES,
    INFLIGHT_RANGES,
    PAPER_DESIGN_POINTS,
    wsp_design,
    wsp_sample,
)

__all__ = [
    "DEFAULT_RANGES",
    "INFLIGHT_RANGES",
    "PAPER_DESIGN_POINTS",
    "run_tcp_direct",
    "wsp_design",
    "wsp_sample",
]
