"""Physical constants, unit conversions, and wavenumber helpers.

Everything downstream computes in SI; energies arrive in eV at the API
boundary and are converted exactly once.  The semantic wrappers below
(`Energy`, `Length`) tag scalars at that boundary only, hot loops work
with the raw floats they carry; wavenumbers are plain floats in 1/m.
"""

from __future__ import annotations

import math

from .errors import DomainError, RangeError

__all__ = [
    "HBAR",
    "ELECTRON_MASS",
    "ELEMENTARY_CHARGE",
    "BOLTZMANN",
    "EV",
    "NM",
    "Energy",
    "Length",
    "ev_to_joules",
    "joules_to_ev",
    "wavenumber_free",
    "wavenumber_evanescent",
]


# CODATA 2018 values in SI units.
HBAR = 1.054571817e-34  # reduced Planck constant, J s
ELECTRON_MASS = 9.1093837015e-31  # electron rest mass, kg
ELEMENTARY_CHARGE = 1.602176634e-19  # elementary charge, C (exact in the 2019 SI)
BOLTZMANN = 1.380649e-23  # Boltzmann constant, J/K (exact)

# 1 eV in joules equals the elementary charge in coulombs.
EV = ELEMENTARY_CHARGE
NM = 1e-9


def ev_to_joules(energy_ev: float) -> float:
    """Convert an energy from electronvolts to joules."""
    return energy_ev * EV


def joules_to_ev(energy_j: float) -> float:
    """Convert an energy from joules to electronvolts."""
    return energy_j / EV


class _Tagged:
    """A float tagged with its unit, held in the subclass's one slot.

    Immutable, hashable, and equal only to an instance of the same
    class holding an equal value, so an ``Energy`` never equals a
    ``Length`` or a bare float.  No arithmetic is defined: ``2 * energy``
    raises ``TypeError``.
    """

    __slots__ = ()

    def _value(self) -> float:
        return getattr(self, self.__slots__[0])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        # Compared as one-tuples, so an instance holding NaN equals itself.
        if other.__class__ is self.__class__:
            return (self._value(),) == (other._value(),)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._value(),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__slots__[0]}={self._value()!r})"

    def __reduce__(self):
        return type(self), (self._value(),)


class Energy(_Tagged):
    """An energy tagged with its SI value in joules."""

    __slots__ = ("joules",)

    def __init__(self, joules: float) -> None:
        object.__setattr__(self, "joules", joules)

    @classmethod
    def from_ev(cls, value_ev: float) -> "Energy":
        if not math.isfinite(value_ev):
            raise DomainError(f"energy must be finite, got {value_ev} eV")
        return cls(ev_to_joules(value_ev))

    @property
    def ev(self) -> float:
        return joules_to_ev(self.joules)


class Length(_Tagged):
    """A length tagged with its SI value in meters."""

    __slots__ = ("meters",)

    def __init__(self, meters: float) -> None:
        object.__setattr__(self, "meters", meters)

    @classmethod
    def from_nm(cls, value_nm: float) -> "Length":
        if not math.isfinite(value_nm):
            raise DomainError(f"length must be finite, got {value_nm} nm")
        return cls(value_nm * NM)

    @property
    def nm(self) -> float:
        return self.meters / NM


def wavenumber_free(energy_j: float) -> float:
    """Wavenumber of a free electron, k = sqrt(2 m E) / hbar.

    Parameters
    ----------
    energy_j : float
        Kinetic energy in joules, must be positive.

    Returns
    -------
    float
        Wavenumber in 1/m.  An energy so small that ``k`` underflows to
        zero raises the range error: every caller divides by ``k``.
    """
    if not energy_j > 0.0:
        raise DomainError(
            f"free wavenumber needs a positive energy, got {energy_j} J"
        )
    k = math.sqrt(2.0 * ELECTRON_MASS * energy_j) / HBAR
    if k == 0.0:
        raise RangeError(f"free wavenumber underflows to zero at E = {energy_j} J")
    return k


def wavenumber_evanescent(barrier_j: float, energy_j: float) -> float:
    """Decay constant under a barrier, k0 = sqrt(2 m (V0 - E)) / hbar.

    Parameters
    ----------
    barrier_j : float
        Barrier height V0 in joules.
    energy_j : float
        Electron energy E in joules; must satisfy E < V0 (tunneling regime,
        above-barrier transport is out of scope).

    Returns
    -------
    float
        Evanescent wavenumber in 1/m.
    """
    if not barrier_j > energy_j:
        raise DomainError(
            "evanescent wavenumber needs E < V0, got "
            f"E = {energy_j} J, V0 = {barrier_j} J"
        )
    return math.sqrt(2.0 * ELECTRON_MASS * (barrier_j - energy_j)) / HBAR
