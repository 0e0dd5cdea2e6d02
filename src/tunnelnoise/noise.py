"""Noise budgets of the tunneling position transducer.

Converts the per-electron uncertainty results into measurement-band
spectral densities and compares them against the thermal floor of the
readout resonator.

PSD convention, stated once and used everywhere: every spectral density
in this module is SINGLE-SIDED (integrating over positive frequencies
alone recovers the variance).  Mixing conventions is the classic bug in
noise budgets; all closed forms below carry the factor of 2 that the
single-sided choice implies, and the docstrings quote units explicitly.

The quantum force PSD is computed along two independent routes - the
closed form in (k, k0, T) and the per-electron momentum-kick variance
times the electron rate - and the two are asserted to agree; a mismatch
raises the internal-consistency error rather than returning either
number.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConsistencyError, DomainError, UsageError
from .fluxes import TransferredFluxes, transferred_fluxes
from .scattering import BarrierSpec, Family, ScatteringSolution, solve
from .uncertainty import momentum_uncertainty
from .units import BOLTZMANN, ELEMENTARY_CHARGE, HBAR, Energy

__all__ = [
    "ResonatorSpec",
    "NoiseBudget",
    "quantum_force_psd",
    "langevin_force_psd",
    "feasibility_lhs",
    "shot_noise_current_psd",
    "noise_budget",
]

_ROUTE_AGREEMENT = 1e-10
# The floating-point figures of a NoiseBudget, in field order.
_BUDGET_FIGURES = ("s_fq", "s_fl", "feasibility_lhs", "psd_ratio", "shot_psd")


class _ResonatorFields(NamedTuple):
    mass: float
    f0: float
    quality: float
    temperature: float


class ResonatorSpec(_ResonatorFields):
    """Mechanical readout resonator parameters.

    Attributes
    ----------
    mass : float
        Suspended test mass, kg.
    f0 : float
        Resonance frequency, Hz.
    quality : float
        Quality factor Q (dimensionless).
    temperature : float
        Bath temperature, K.

    An immutable named tuple; constructing it checks every field.
    """

    __slots__ = ()

    def __new__(cls, mass: float, f0: float, quality: float, temperature: float):
        self = super().__new__(cls, mass, f0, quality, temperature)
        for name in ("mass", "f0", "quality", "temperature"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"resonator {name} must be finite, got {value!r}")
            if value <= 0.0:
                raise DomainError(
                    f"resonator {name} must be strictly positive, got {value!r}"
                )
        return self


class NoiseBudget(NamedTuple):
    """Assembled noise comparison for one operating point.

    Attributes
    ----------
    s_fq : float
        Quantum (measurement back-action) force PSD, N^2/Hz,
        single-sided.
    s_fl : float
        Thermal Langevin force PSD of the resonator, N^2/Hz,
        single-sided.
    feasibility_lhs : float
        The normalized parameter product that must stay below 1 for
        quantum dominance (assumes a decay constant of 1e10 1/m).
    psd_ratio : float
        Directly computed ``s_fl / s_fq``; tracks ``feasibility_lhs``
        up to an O(1) constant that is reported, never asserted.
    shot_psd : float
        Shot-noise current spectral density, A/sqrt(Hz).
    tunnel_current : float
        Operating current I0, A.
    electron_energy : float
        Longitudinal electron energy used for the quantum PSD, eV.
    barrier : BarrierSpec
        Barrier the quantum PSD was evaluated on.
    """

    s_fq: float
    s_fl: float
    feasibility_lhs: float
    psd_ratio: float
    shot_psd: float
    tunnel_current: float
    electron_energy: float
    barrier: BarrierSpec


def _check_symmetric(spec: BarrierSpec) -> None:
    if spec.family is not Family.SYMMETRIC_RECT:
        raise UsageError(
            "quantum_force_psd needs the symmetric flat barrier; build the "
            f"rectangular approximation explicitly (got {spec.family.value})"
        )


def _check_current(I0: float) -> float:
    try:
        current = float(I0)
    except (TypeError, ValueError):
        raise UsageError(f"current must be a real number, got {I0!r}") from None
    if not math.isfinite(current) or current <= 0.0:
        raise DomainError(f"current must be positive and finite, got {I0!r}")
    return current


def _check_finite(figures) -> None:
    """Raise the domain error naming the first ``(name, value)`` pair
    whose value is not finite, so no inf or NaN figure is reported."""
    for name, value in figures:
        if not math.isfinite(value):
            raise DomainError(
                f"{name} is not finite at this operating point, got {value!r}"
            )


def quantum_force_psd(
    I0: float, sol: ScatteringSolution, fluxes: TransferredFluxes | None = None
) -> float:
    """Single-sided quantum force PSD of the tunneling readout, N^2/Hz.

    ``sol`` is the solved state of the operating point.  ``fluxes`` are
    its wall fluxes when the caller has formed them already (as
    ``UncertaintyResult.fluxes`` carries them); without them they are
    formed here.  Valid for the flat symmetric barrier (the operating
    regime treats the junction as one; biased families must be
    approximated by their rectangular equivalent explicitly by the
    caller).  Two routes are evaluated: the closed form

        ``(I0/e) hbar^2 k^2 (1/2) [ (1+(k0/k)^2)^2 - (1-(k0/k)^2)^2 (1-T) ]``

    and twice the per-conducted-electron momentum-kick variance times
    the electron rate ``I0/e`` (one conducted electron corresponds to
    ``1/T`` attempts).  They must agree to 1e-10 relative, and both
    must be finite: an input so large that either overflows raises the
    domain error.  Both routes still run when the caller passes the
    fluxes, so the agreement check also catches fluxes that do not
    belong to ``sol``.
    """
    current = _check_current(I0)
    _check_symmetric(sol.barrier)
    if sol.T == 0.0:
        raise DomainError(
            "transmission underflows to 0 at this gap "
            f"({sol.barrier.gap.nm!r} nm); the kick-variance route needs 1/T "
            "attempts per conducted electron"
        )
    k = sol.k
    k0 = sol.k0
    rate = current / ELEMENTARY_CHARGE
    ratio_sq = (k0 / k) ** 2
    closed = (
        rate
        * HBAR**2
        * k**2
        * 0.5
        * ((1.0 + ratio_sq) ** 2 - (1.0 - ratio_sq) ** 2 * (1.0 - sol.T))
    )
    if fluxes is None:
        fluxes = transferred_fluxes(sol)
    kick = momentum_uncertainty(fluxes, sol, N=1.0 / sol.T)
    from_kicks = 2.0 * kick**2 * rate
    _check_finite((("s_fq", closed), ("s_fq by the kick-variance route", from_kicks)))
    if abs(closed - from_kicks) > _ROUTE_AGREEMENT * max(abs(closed), abs(from_kicks)):
        raise ConsistencyError(
            "quantum-force-PSD routes disagree beyond 1e-10 relative: "
            f"closed form {closed!r}, kick-variance route {from_kicks!r}"
        )
    return closed


def langevin_force_psd(res: ResonatorSpec) -> float:
    """Single-sided thermal Langevin force PSD of the resonator, N^2/Hz.

    ``4 m (2 pi f0) kB theta / Q``.
    """
    return (
        4.0
        * res.mass
        * (2.0 * math.pi * res.f0)
        * BOLTZMANN
        * res.temperature
        / res.quality
    )


def feasibility_lhs(I0: float, res: ResonatorSpec) -> float:
    """Normalized quantum-dominance parameter product (dimensionless).

    ``(1e-6 A / I0) (m / 1e-10 kg) (theta / 10 mK) (f0 / 1e5 Hz)
    (1e7 / Q)``; below 1 the quantum force PSD exceeds the thermal one
    under the normalization's assumed decay constant of 1e10 1/m.  Each
    factor is unity at the nominal operating point.
    """
    current = _check_current(I0)
    return (
        (1e-6 / current)
        * (res.mass / 1e-10)
        * (res.temperature / 0.01)
        * (res.f0 / 1e5)
        * (1e7 / res.quality)
    )


def shot_noise_current_psd(I0: float) -> float:
    """Shot-noise current spectral density ``sqrt(2 e I0)``, A/sqrt(Hz),
    single-sided."""
    return math.sqrt(2.0 * ELEMENTARY_CHARGE * _check_current(I0))


def noise_budget(
    I0: float,
    res: ResonatorSpec,
    E: Energy,
    spec: BarrierSpec,
) -> NoiseBudget:
    """Assemble the full comparison at one operating point.

    The quantum PSD needs the symmetric flat barrier; ``psd_ratio`` is
    the directly computed ``s_fl/s_fq``, reported alongside the
    normalized ``feasibility_lhs`` without asserting their O(1)
    relation.  A figure that is not finite raises the domain error that
    names it.
    """
    current = _check_current(I0)
    _check_symmetric(spec)
    s_fq = quantum_force_psd(current, solve(E, spec))
    s_fl = langevin_force_psd(res)
    budget = NoiseBudget(
        s_fq=s_fq,
        s_fl=s_fl,
        feasibility_lhs=feasibility_lhs(current, res),
        psd_ratio=s_fl / s_fq,
        shot_psd=shot_noise_current_psd(current),
        tunnel_current=current,
        electron_energy=E.ev,
        barrier=spec,
    )
    _check_finite((name, getattr(budget, name)) for name in _BUDGET_FIGURES)
    return budget
