"""Quantum measurement noise of a vacuum-tunneling position transducer.

The package solves the one-dimensional stationary scattering problem for
electrons tunneling through rectangular and linear-field barriers, builds
the momentum fluxes transferred to the barrier electrode, evaluates the
position/momentum uncertainty pair of the measurement back-action, and
assembles the quantum-vs-thermal force-noise budget for a tunneling
position sensor.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    RangeError,
    TunnelNoiseError,
    UsageError,
)
from .units import Energy, Length

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "DomainError",
    "Energy",
    "Length",
    "RangeError",
    "TunnelNoiseError",
    "UsageError",
    "__version__",
]
