"""Probability, momentum, and momentum-squared transport bookkeeping.

For a stationary scattering state the three conserved-quantity pairs
(density, current) are quadratic forms in the wavefunction and its
derivatives.  This module evaluates them at arbitrary points, forms the
fluxes transferred to the test-mass wall at the right barrier edge, and
checks the step-discontinuity relations that tie interior and exterior
one-sided values together.

Conventions: currents are per unit time with the incident-wave
normalization ``1/sqrt(2 pi)``, masses are the electron mass, and
potential steps enter analytically as ``(step height) x (local
density)`` terms; integrating across a step numerically cannot
converge, so it is never attempted.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .scattering import (
    ScatteringSolution,
    Side,
    WavefunctionSample,
    eval_wavefunction,
)
from .units import ELECTRON_MASS, HBAR, Length

__all__ = [
    "Side",
    "FluxReport",
    "TransferredFluxes",
    "JumpResiduals",
    "currents_at",
    "transferred_fluxes",
    "jump_residuals",
]

_TWO_PI = 2.0 * math.pi
_HBAR_SQ = HBAR**2
_HBAR_CUBE = HBAR**3


class FluxReport(NamedTuple):
    """Densities and currents of the three transport laws at one point.

    Attributes
    ----------
    j : float
        Probability current; position independent for a stationary
        state.
    j_p : float
        Momentum current.
    j_p2 : float
        Momentum-squared current; negative in a classically forbidden
        bulk, where the local kinetic-energy flux is negative.
    rho, rho_p, rho_p2 : float
        The matching densities (probability, momentum, momentum
        squared).
    x : Length
        Sample position.
    side : Side
        Which one-sided limit was taken.
    """

    j: float
    j_p: float
    j_p2: float
    rho: float
    rho_p: float
    rho_p2: float
    x: Length
    side: Side


class TransferredFluxes(NamedTuple):
    """Momentum and momentum-squared fluxes absorbed by the wall at x = l.

    ``v2_description`` records which part of the barrier force was
    attributed to the wall when forming the fluxes.  ``scaled_j_p2_t``,
    ``j_p2_t`` times ``2^(2 exponent)`` formed from ``T_scaled``, stays a
    normal float where ``j_p2_t`` of an opaque barrier underflows.
    """

    j_p_t: float
    j_p2_t: float
    v2_description: str
    exponent: int
    scaled_j_p2_t: float


class JumpResiduals(NamedTuple):
    """Closure residuals of the four step-discontinuity relations.

    Each residual is the absolute mismatch of one relation, expressed
    in a natural flux unit built from the solution's wavenumbers so
    that values are comparable across parameter sets.  Exact solutions
    close at rounding level; values near 1 signal an inconsistent
    state.
    """

    momentum_left_edge: float
    momentum_right_edge: float
    momentum_sq_left_edge: float
    momentum_sq_right_edge: float

    @property
    def worst(self) -> float:
        return max(
            self.momentum_left_edge,
            self.momentum_right_edge,
            self.momentum_sq_left_edge,
            self.momentum_sq_right_edge,
        )


def _report_from_sample(sample: WavefunctionSample, side: Side) -> FluxReport:
    psi_c = sample.psi.conjugate()
    d1_c = sample.d1.conjugate()
    rho = abs(sample.psi) ** 2
    im_psi_d1 = (psi_c * sample.d1).imag
    j = HBAR / ELECTRON_MASS * im_psi_d1
    j_p = (
        _HBAR_SQ
        / (2.0 * ELECTRON_MASS)
        * (abs(sample.d1) ** 2 - (psi_c * sample.d2).real)
    )
    j_p2 = (
        -_HBAR_CUBE
        / (2.0 * ELECTRON_MASS)
        * ((psi_c * sample.d3).imag - (d1_c * sample.d2).imag)
    )
    return FluxReport(
        j=j,
        j_p=j_p,
        j_p2=j_p2,
        rho=rho,
        rho_p=HBAR * im_psi_d1,
        rho_p2=-_HBAR_SQ * (psi_c * sample.d2).real,
        x=sample.x,
        side=side,
    )


def currents_at(
    sol: ScatteringSolution, x: "float | Length", side: Side = Side.RIGHT_LIMIT
) -> FluxReport:
    """Evaluate all six densities and currents at one point.

    Parameters
    ----------
    sol : ScatteringSolution
        A solved state.
    x : float or Length
        Position; bare floats are meters.
    side : Side
        One-sided limit to take if ``x`` sits exactly on a barrier
        edge.
    """
    return _report_from_sample(eval_wavefunction(sol, x, side), side)


def _exterior_currents(sol: ScatteringSolution, net: float, total: float, rho_b: float):
    """Exterior one-sided plane-wave quantities at the two barrier edges.

    ``net`` and ``total`` stand for ``1 - |r|^2`` and ``1 + |r|^2`` and
    ``rho_b`` for the transmitted density ``|t|^2 / 2 pi``; callers pass
    either those amplitude forms or their equivalents in ``T``.  Returns
    the left-edge density and (j, j_p, j_p2) triple plus the right-edge
    equivalents.
    """
    k = sol.k
    k_bar = sol.k_bar
    rho_a = abs(1.0 + sol.r) ** 2 / _TWO_PI
    left = (
        HBAR * k / ELECTRON_MASS * net / _TWO_PI,
        _HBAR_SQ * k**2 / ELECTRON_MASS * total / _TWO_PI,
        _HBAR_CUBE * k**3 / ELECTRON_MASS * net / _TWO_PI,
    )
    right = (
        HBAR * k_bar / ELECTRON_MASS * rho_b,
        _HBAR_SQ * k_bar**2 / ELECTRON_MASS * rho_b,
        _HBAR_CUBE * k_bar**3 / ELECTRON_MASS * rho_b,
    )
    return rho_a, left, rho_b, right


def _step_heights(sol: ScatteringSolution) -> tuple[float, float]:
    """Potential steps (right minus left) at the two barrier edges of
    the profile the solution actually solves."""
    v0 = sol.barrier.V0.joules
    phi = sol.barrier.phi.joules
    step_b = -v0 if sol.tilted_interior else -(v0 + phi)
    return v0, step_b


def transferred_fluxes(sol: ScatteringSolution) -> TransferredFluxes:
    """Momentum and momentum-squared fluxes delivered to the wall at x = l.

    A flat interior (either rectangular family, or a tilted barrier at
    or below the dispatch seam, which the rectangular core solves)
    attributes the full right-edge step to the wall, which reduces the
    flux integrals to the interior currents at the right edge; those
    have closed forms in (k, k_bar, k0, T).  A tilted interior splits
    its slope force evenly between the two electrodes on top of the
    full right-edge step, which turns the flux integrals into half-sums
    of the interior currents at the two edges; the interior values
    follow from the exterior ones through the step relations, a path
    that stays conditioned even when the barrier is nearly opaque.
    """
    k = sol.k
    k_bar = sol.k_bar
    k0 = sol.k0

    if not sol.tilted_interior:
        # j_p2_t is proportional to T; formed again with the solver's
        # T_scaled, which is of order 1, it stays normal at any opacity.
        j_p2_per_t = -_HBAR_CUBE / ELECTRON_MASS * k0**2 * k
        j_p_t = (
            _HBAR_SQ
            / (2.0 * ELECTRON_MASS)
            * (k_bar**2 - k0**2)
            * (k / k_bar)
            * sol.T
            / _TWO_PI
        )
        return TransferredFluxes(
            j_p_t,
            j_p2_per_t * sol.T / _TWO_PI,
            (
                "full right-edge step assigned to the wall; fluxes equal "
                "the interior currents at the right edge"
            ),
            sol.scale,
            j_p2_per_t * sol.T_scaled / _TWO_PI,
        )

    # Exterior values written through T rather than |r|^2: the model
    # satisfies T + R = 1 identically, and 1 - |r|^2 evaluated in floats
    # collapses to zero once T drops under rounding, which would leave
    # the two half-sum members unbalanced for very opaque barriers.
    # The edge densities are O(1)-conditioned and safe either way.
    T = sol.T
    rho_a, (j_const, j_p_a, j_p2_a), rho_b, (_, j_p_b, j_p2_b) = _exterior_currents(
        sol, T, 2.0 - T, k / k_bar * T / _TWO_PI
    )
    # The steps of _step_heights on a tilted interior.
    step_a = sol.barrier.V0.joules
    step_b = -step_a
    j_p_in_a = j_p_a - step_a * rho_a
    j_p_in_b = j_p_b + step_b * rho_b
    j_p2_in_a = j_p2_a - 2.0 * ELECTRON_MASS * j_const * step_a
    j_p2_in_b = j_p2_b + 2.0 * ELECTRON_MASS * j_const * step_b
    j_p2_t = 0.5 * (j_p2_in_a + j_p2_in_b)
    return TransferredFluxes(
        0.5 * (j_p_in_a + j_p_in_b),
        j_p2_t,
        (
            "half the interior slope force assigned to each electrode "
            "plus the full right-edge step to the wall; fluxes are "
            "half-sums of the interior currents at the two edges"
        ),
        0,
        j_p2_t,
    )


def jump_residuals(sol: ScatteringSolution) -> JumpResiduals:
    """Closure residuals of the step relations at both barrier edges.

    At each edge the momentum current must jump by ``-(step) * rho`` and
    the momentum-squared current by ``-2 m j (step)``.  The exterior
    sides use the closed plane-wave forms built from the amplitudes,
    the interior sides use the raw one-sided evaluation, so the check
    spans every layer of the solution.  Residuals are reported in
    natural flux units; large values are data about an inconsistent
    solution, not an error condition.
    """
    k = sol.k
    k_bar = sol.k_bar
    k0 = sol.k0
    # Exterior sides from the amplitudes rather than the stored
    # probabilities, so they stay sensitive to amplitude inconsistencies,
    # which these residuals exist to detect.
    r_sq = abs(sol.r) ** 2
    rho_a, (j_a, j_p_a, j_p2_a), rho_b, (j_b, j_p_b, j_p2_b) = _exterior_currents(
        sol, 1.0 - r_sq, 1.0 + r_sq, abs(sol.t) ** 2 / _TWO_PI
    )
    step_a, step_b = _step_heights(sol)
    inner_a = currents_at(sol, 0.0, Side.RIGHT_LIMIT)
    inner_b = currents_at(sol, sol.barrier.gap.meters, Side.LEFT_LIMIT)

    unit_p = (
        _HBAR_SQ / (2.0 * ELECTRON_MASS) * (k**2 + k0**2 + k_bar**2) / _TWO_PI
    )
    unit_p2 = (
        _HBAR_CUBE / (2.0 * ELECTRON_MASS) * (k**3 + k0**3 + k_bar**3) / _TWO_PI
    )
    return JumpResiduals(
        momentum_left_edge=abs(inner_a.j_p - j_p_a + step_a * rho_a) / unit_p,
        momentum_right_edge=abs(j_p_b - inner_b.j_p + step_b * rho_b) / unit_p,
        momentum_sq_left_edge=abs(
            inner_a.j_p2 - j_p2_a + 2.0 * ELECTRON_MASS * j_a * step_a
        )
        / unit_p2,
        momentum_sq_right_edge=abs(
            j_p2_b - inner_b.j_p2 + 2.0 * ELECTRON_MASS * j_b * step_b
        )
        / unit_p2,
    )
