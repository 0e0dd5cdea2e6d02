"""Stationary scattering states for one-dimensional tunneling barriers.

Three barrier shapes are supported, all with an incident plane wave
``e^{ikx}/sqrt(2 pi)`` arriving from the left:

* a rectangular barrier of height ``V0`` between flat exteriors at the
  same potential (symmetric),
* a rectangular barrier whose right exterior sits ``phi`` below the left
  one (asymmetric),
* a linearly tilted barrier, ``V0`` at the left edge dropping to
  ``V0 - phi`` at the right edge, with the right exterior at ``-phi``
  (a constant electric field across the gap).

The rectangular families share one closed-form core written in terms of
``exp(-2*k0*l)`` so that nothing overflows at any opacity; the
transmission probability underflows gracefully to zero instead.  The
tilted barrier is solved with Airy functions in scaled arithmetic: the
matching system is eliminated exactly, and every exponential factor is
kept as an explicit exponent so that barriers far beyond the reach of
unscaled Airy values still solve.  Interior wavefunction data is stored
in anchored form (coefficients tied to the barrier edges), which stays
representable even when the textbook coefficients ``c_plus``/``c_minus``
would over- or underflow.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from typing import NamedTuple

from .airy import airy_all, airy_scaled
from .errors import DomainError, UsageError
from .units import (
    ELECTRON_MASS,
    EV,
    HBAR,
    Energy,
    Length,
    wavenumber_evanescent,
    wavenumber_free,
)

__all__ = [
    "Family",
    "Side",
    "BarrierSpec",
    "ScatteringSolution",
    "WavefunctionSample",
    "PHI_DISPATCH_EV",
    "solve",
    "solve_symmetric",
    "solve_asymmetric",
    "solve_linear_field",
    "eval_wavefunction",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Below this bias the Airy variables of the tilted barrier degenerate
# (the scaling parameter goes to zero while the turning point runs off
# to infinity), so the solver falls back to the rectangular core, which
# is the exact zero-field limit and an O(phi) approximation otherwise.
PHI_DISPATCH_EV = 1e-9

# exp() overflows just above this; used when materializing the textbook
# interior coefficients, which are allowed to saturate to inf/0.
_MAX_EXPONENT = 709.0
_LN2 = math.log(2.0)
_FLOAT_MIN = sys.float_info.min
# 2 m / hbar^2, the factor of the tilted barrier's Airy scale kappa^3.
_TWO_M_OVER_HBAR_SQ = 2.0 * ELECTRON_MASS / (HBAR * HBAR)
# 2 pi m, the divisor of the incident flux hbar k / (2 pi m).
_TWO_PI_M = 2.0 * math.pi * ELECTRON_MASS


class Family(enum.Enum):
    """Barrier shape selector."""

    SYMMETRIC_RECT = "symmetric-rect"
    ASYMMETRIC_RECT = "asymmetric-rect"
    LINEAR_FIELD = "linear-field"

    # Members are singletons compared by identity, so the identity hash
    # serves; it spares solve's table lookup Enum's Python-level __hash__.
    __hash__ = object.__hash__


class Side(enum.Enum):
    """One-sided limit selector for sampling at potential steps.

    Away from a step both limits coincide, so either member serves for a
    point in the interior of a region.
    """

    LEFT_LIMIT = "left_limit"
    RIGHT_LIMIT = "right_limit"


class _BarrierFields(NamedTuple):
    family: Family
    V0: Energy
    phi: Energy
    gap: Length


class BarrierSpec(_BarrierFields):
    """Geometry and energetics of a single tunneling barrier.

    The barrier occupies ``0 <= x <= gap``: the left edge sits at the
    origin and the right edge, the test-mass wall, at ``x = gap``.

    Attributes
    ----------
    family : Family
        Barrier shape.
    V0 : Energy
        Barrier height above the left exterior potential.
    phi : Energy
        Potential drop across the barrier (0 for the symmetric shape).
        The right exterior sits at ``-phi``.
    gap : Length
        Barrier width ``l``.

    The record is an immutable named tuple.  Constructing it checks the
    fields; ``_replace`` does not, so build a changed barrier with
    ``BarrierSpec(...)``.
    """

    __slots__ = ()

    def __new__(cls, family: Family, V0: Energy, phi: Energy, gap: Length):
        self = super().__new__(cls, family, V0, phi, gap)
        if not self.gap.meters > 0.0:
            raise DomainError(f"barrier gap must be positive, got {self.gap.meters} m")
        if not self.V0.joules > 0.0:
            raise DomainError(f"barrier height must be positive, got {self.V0.ev} eV")
        if self.phi.joules < 0.0:
            raise DomainError(f"potential drop must be >= 0, got {self.phi.ev} eV")
        if self.family is Family.SYMMETRIC_RECT and self.phi.joules != 0.0:
            raise DomainError(
                "symmetric barrier requires a zero potential drop, got "
                f"{self.phi.ev} eV"
            )
        return self

    @classmethod
    def symmetric(cls, v0_ev: float, gap_nm: float) -> "BarrierSpec":
        """Rectangular barrier with equal exterior potentials."""
        return cls(
            Family.SYMMETRIC_RECT,
            Energy.from_ev(v0_ev),
            Energy.from_ev(0.0),
            Length.from_nm(gap_nm),
        )

    @classmethod
    def asymmetric(cls, v0_ev: float, phi_ev: float, gap_nm: float) -> "BarrierSpec":
        """Rectangular barrier with the right exterior lowered by phi."""
        return cls(
            Family.ASYMMETRIC_RECT,
            Energy.from_ev(v0_ev),
            Energy.from_ev(phi_ev),
            Length.from_nm(gap_nm),
        )

    @classmethod
    def linear_field(cls, v0_ev: float, phi_ev: float, gap_nm: float) -> "BarrierSpec":
        """Linearly tilted barrier, V0 at the left edge, V0 - phi at the right."""
        return cls(
            Family.LINEAR_FIELD,
            Energy.from_ev(v0_ev),
            Energy.from_ev(phi_ev),
            Length.from_nm(gap_nm),
        )

    def potential(self, x_m: float) -> float:
        """Potential energy in joules at position ``x_m`` (meters).

        The interior convention is closed on both edges; exact edge
        values only matter to callers sampling midpoints anyway.
        """
        if x_m < 0.0:
            return 0.0
        if x_m > self.gap.meters:
            return 0.0 if self.family is Family.SYMMETRIC_RECT else -self.phi.joules
        if self.family is Family.LINEAR_FIELD:
            return self.V0.joules - self.phi.joules * x_m / self.gap.meters
        return self.V0.joules


class _RectInterior(NamedTuple):
    """Interior wave anchored at the edges: ``g_plus`` multiplies the
    exponential growing toward the right edge ``b``, ``g_minus`` the one
    growing toward the left edge at 0.  Both anchored exponentials are
    <= 1 everywhere in the barrier.  Both are formed when read, from
    ``t_anchored`` as well as ``t``, which is 0 past ``k0 b`` = 709."""

    t: complex
    t_anchored: complex
    k_bar: float
    k0: float
    b: float

    @property
    def g_plus(self) -> complex:
        """``(t/2) e^{i k_bar b} (1 + i k_bar/k0)``."""
        phase_b = cmath.exp(1j * self.k_bar * self.b)
        return 0.5 * self.t * phase_b * complex(1.0, self.k_bar / self.k0)

    @property
    def g_minus(self) -> complex:
        """``(t_anchored/2) e^{i k_bar b} (1 - i k_bar/k0)``."""
        phase_b = cmath.exp(1j * self.k_bar * self.b)
        return 0.5 * self.t_anchored * phase_b * complex(1.0, -self.k_bar / self.k0)

    @property
    def c_plus(self) -> complex:
        """Weight of ``e^{+k0 x}``: ``g_plus e^{-k0 b}``."""
        return _saturating_scale(self.g_plus, -self.k0 * self.b)

    # The weight of ``e^{-k0 x}`` is ``g_minus``, anchored at 0 already.
    c_minus = g_minus


class _AiryInterior(NamedTuple):
    """Interior wave in scaled Airy form.

    ``g_ai``/``g_bi`` multiply the scaled Airy pair at the local
    argument ``z(x)``, together with exponent shifts that are never
    positive inside the barrier.  The shifts are reconstructed from
    exponent *differences* with exactly computable widths; subtracting
    the (possibly enormous) absolute exponents would lose the shifts in
    rounding long before the scaled values themselves degrade.
    ``zeta_a``/``zeta_b`` are the exponents of the two edge quads (0 at
    an edge evaluated unscaled); only the textbook coefficients use them.
    """

    g_ai: complex
    g_bi: complex
    alpha_cbrt: float
    a_bar: float
    b_bar: float
    delta_zeta: float
    b: float
    zeta_a: float
    zeta_b: float

    @property
    def c_plus(self) -> complex:
        """Weight of the unscaled Ai: ``g_ai e^{2 zeta_b - zeta_a}``."""
        return _saturating_scale(self.g_ai, 2.0 * self.zeta_b - self.zeta_a)

    @property
    def c_minus(self) -> complex:
        """Weight of the unscaled Bi: ``g_bi e^{-zeta_a}``."""
        return _saturating_scale(self.g_bi, -self.zeta_a)


class ScatteringSolution(NamedTuple):
    """A solved stationary tunneling state.

    Attributes
    ----------
    t, r : complex
        Transmission and reflection amplitudes against the incident
        plane wave of unit coefficient.
    T, R : float
        Transmission and reflection probabilities, ``T + R = 1``.
    dT_dl : float
        Gap derivative of ``T`` at fixed energy, height and bias, 1/m,
        differentiated from the solver's own closed forms (exact to
        rounding).
    scale, T_scaled, dT_dl_scaled : int, float, float
        ``T`` and ``dT_dl`` times ``4^scale``: a nonzero ``T_scaled`` lies
        in [1/2, 2) on the flat core, even where ``T`` underflows; 0 tilted.
    k, k_bar, k0 : float
        Incident, transmitted, and evanescent wavenumbers in 1/m
        (``k_bar = k`` for the symmetric shape).
    incident_flux : float
        Probability flux of the incident wave, ``hbar k / (2 pi m)``.
    barrier : BarrierSpec
        The barrier that was solved.
    energy : Energy
        Incident kinetic energy.
    interior : _RectInterior or _AiryInterior
        The interior wave in anchored form, which ``eval_wavefunction``
        samples.

    The textbook interior coefficients ``c_plus`` and ``c_minus`` are
    properties derived from ``interior``, not fields, so they are no
    ``_replace`` targets: for the rectangular shapes the weights of
    ``e^{+k0 x}`` and ``e^{-k0 x}``, for the tilted barrier the weights of
    the regular and irregular Airy function.  They are exact values and
    may saturate to 0 or inf for very opaque barriers.
    """

    t: complex
    r: complex
    T: float
    R: float
    dT_dl: float
    scale: int
    T_scaled: float
    dT_dl_scaled: float
    k: float
    k_bar: float
    k0: float
    incident_flux: float
    barrier: BarrierSpec
    energy: Energy
    interior: object = None

    @property
    def tilted_interior(self) -> bool:
        """True when the stored interior is the Airy form; False for the
        flat-interior core, including tilted barriers whose bias was
        small enough to dispatch to it.  Flux bookkeeping needs this to
        size the potential step actually present at the right edge."""
        return isinstance(self.interior, _AiryInterior)

    @property
    def c_plus(self) -> complex:
        """Textbook interior coefficient, derived from ``interior``."""
        return self.interior.c_plus

    @property
    def c_minus(self) -> complex:
        """Textbook interior coefficient, derived from ``interior``."""
        return self.interior.c_minus


class WavefunctionSample(NamedTuple):
    """Wavefunction value and first three derivatives at one point."""

    x: Length
    psi: complex
    d1: complex
    d2: complex
    d3: complex


def _saturating_scale(value: complex, exponent: float) -> complex:
    """``value * exp(exponent)`` with overflow saturated to inf and deep
    underflow flushed to zero, keeping the solver exception-free."""
    if exponent > _MAX_EXPONENT:
        return complex(math.inf, math.inf)
    if exponent < -_MAX_EXPONENT - 45.0:
        return 0j
    return value * math.exp(exponent)


def _transmitted_phase(k_bar: float, spec: BarrierSpec) -> complex:
    """``exp(-i k_bar l)``; a phase ``k_bar l`` that overflows, for which
    ``cmath.exp`` raises a bare ``ValueError``, raises the domain error."""
    try:
        return cmath.exp(-1j * k_bar * spec.gap.meters)
    except ValueError:
        raise DomainError(
            f"transmitted-wave phase k_bar*l overflows at phi = {spec.phi.ev} eV, "
            f"gap = {spec.gap.nm} nm"
        ) from None


def _check_energy(energy: Energy, spec: BarrierSpec) -> None:
    e = energy.joules
    if not e > 0.0:
        raise DomainError(f"incident energy must be positive, got {energy.ev} eV")
    if not e < spec.V0.joules:
        raise DomainError(
            "tunneling requires E < V0, got "
            f"E = {energy.ev} eV, V0 = {spec.V0.ev} eV"
        )


def _solve_rect(energy: Energy, spec: BarrierSpec) -> ScatteringSolution:
    """Shared closed-form core for a flat interior at height V0.

    Valid for both rectangular families and used as the zero-field
    limit of the tilted barrier.  All exponentials appear as
    ``exp(-k0 l)`` or smaller, so arbitrarily opaque barriers produce
    finite (possibly underflowed) amplitudes rather than overflow.
    """
    e = energy.joules
    k = wavenumber_free(e)
    phi = spec.phi.joules
    k_bar = wavenumber_free(e + phi) if phi else k  # e + 0 is e
    k0 = wavenumber_evanescent(spec.V0.joules, e)
    length = spec.gap.meters

    u = k0 * length
    m2 = math.exp(-2.0 * u)
    one_p = 1.0 + m2
    one_m = 1.0 - m2

    # Denominator of every amplitude; |d_hat|^2 >= (k0 (k + k_bar)/2)^2 > 0.
    d_hat = 0.5 * complex(k0 * (k + k_bar) * one_p, (k0 * k0 - k * k_bar) * one_m)

    # t_anchored carries everything except the exp(-u) tunneling factor.
    t_anchored = 2.0 * k * k0 * _transmitted_phase(k_bar, spec) / d_hat
    t = t_anchored * math.exp(-u) if u <= _MAX_EXPONENT else 0j
    r = complex(k0 * (k - k_bar) * one_p, -(k * k_bar + k0 * k0) * one_m) / (
        2.0 * d_hat
    )

    # (k_bar/k) |t|^2 without squaring the underflow-prone t itself.
    # Rounding can push either probability a few ulps past 1.
    t_sq = (k_bar / k) * (abs(t_anchored) ** 2)
    T = min(1.0, t_sq * m2)
    R = min(1.0, abs(r) ** 2)
    # T 4^scale: T where normal; past that u = n ln2 + rem (exact fmod) gives
    # exp(-2u) = 4^-n exp(-2 rem) to 2n |ln2 - _LN2| (4e-14 at 2 k0 l = 1300).
    scale, T_scaled = 0, T
    if T < _FLOAT_MIN and u < math.inf:
        rem = math.fmod(u, _LN2)
        scale, T_scaled = round((u - rem) / _LN2), t_sq * math.exp(-2.0 * rem)
    shift = math.frexp(T_scaled)[1] // 2
    scale, T_scaled = scale - shift, math.ldexp(T_scaled, -2 * shift)

    # Gap derivative: T = (k_bar/k) 16 k^2 k0^2 m2 / G with
    # G = k0^2 (k+k_bar)^2 (1+m2)^2 + (k0^2 - k k_bar)^2 (1-m2)^2,
    # so dT/dl = T (-2 k0 - G'/G).
    grow = k0**2 * (k + k_bar) ** 2
    decay = (k0**2 - k * k_bar) ** 2
    g = grow * one_p**2 + decay * one_m**2
    g_prime = -4.0 * k0 * m2 * (grow * one_p - decay * one_m)
    log_slope = -2.0 * k0 - g_prime / g
    dT_dl = T * log_slope

    # Positional: a keyword call of a named tuple costs a kwargs dict.
    return ScatteringSolution(
        t,
        r,
        T,
        R,
        dT_dl,
        scale,
        T_scaled,
        T_scaled * log_slope,
        k,
        k_bar,
        k0,
        HBAR * k / _TWO_PI_M,
        spec,
        energy,
        _RectInterior(t, t_anchored, k_bar, k0, length),
    )


def solve_symmetric(energy: Energy, spec: BarrierSpec) -> ScatteringSolution:
    """Solve the symmetric rectangular barrier.

    Parameters
    ----------
    energy : Energy
        Incident kinetic energy, ``0 < E < V0``.
    spec : BarrierSpec
        Must have ``family = Family.SYMMETRIC_RECT``.
    """
    if spec.family is not Family.SYMMETRIC_RECT:
        raise UsageError(f"solve_symmetric got a {spec.family.value} barrier")
    _check_energy(energy, spec)
    return _solve_rect(energy, spec)


def solve_asymmetric(energy: Energy, spec: BarrierSpec) -> ScatteringSolution:
    """Solve the asymmetric rectangular barrier (right exterior at -phi)."""
    if spec.family is not Family.ASYMMETRIC_RECT:
        raise UsageError(f"solve_asymmetric got a {spec.family.value} barrier")
    _check_energy(energy, spec)
    return _solve_rect(energy, spec)


def _zeta_difference(hi: float, lo: float, width: float) -> float:
    """Difference of Airy exponents, ``(2/3)(hi^{3/2} - lo^{3/2})``, for
    ``hi >= lo >= 0`` with ``hi - lo = width`` supplied exactly.

    The factored form keeps the result accurate to a relative rounding
    level even when ``hi`` and ``lo`` agree to many digits (weak tilts
    push both beyond 1e5 while their difference stays order ten)."""
    return (
        (2.0 / 3.0)
        * width
        * (hi + math.sqrt(hi * lo) + lo)
        / (math.sqrt(hi) + math.sqrt(lo))
    )


def solve_linear_field(energy: Energy, spec: BarrierSpec) -> ScatteringSolution:
    """Solve the linearly tilted barrier with Airy functions.

    The matching system at the two edges is eliminated exactly; the
    elimination is arranged in scaled Airy values with every exponent
    tracked explicitly, so strong scaling (weak tilts push the Airy
    arguments to 1e5 and beyond) cannot overflow.  Biases at or below
    ``PHI_DISPATCH_EV`` are delegated to the rectangular core, which is
    the exact limit of the degenerating Airy representation.
    """
    if spec.family is not Family.LINEAR_FIELD:
        raise UsageError(f"solve_linear_field got a {spec.family.value} barrier")
    _check_energy(energy, spec)
    return _solve_tilted(energy, spec)


def _solve_tilted(energy: Energy, spec: BarrierSpec) -> ScatteringSolution:
    """:func:`solve_linear_field` at a checked energy."""
    phi = spec.phi.joules
    if phi / EV <= PHI_DISPATCH_EV:
        return _solve_rect(energy, spec)

    e = energy.joules
    v0 = spec.V0.joules
    k = wavenumber_free(e)
    k_bar = wavenumber_free(e + phi)
    k0 = wavenumber_evanescent(v0, e)
    length = spec.gap.meters

    # Local Airy argument z(x) = kappa (beta - x), where beta is the
    # point at which the extended linear potential crosses the incident
    # energy; both edge arguments are built without subtraction.
    kappa = (_TWO_M_OVER_HBAR_SQ * phi / length) ** (1.0 / 3.0)
    depth = v0 - e
    a_bar = kappa * depth * length / phi
    b_bar = kappa * length * (depth - phi) / phi

    (ai_a, aip_a, bi_a, bip_a, _), zeta_a = airy_scaled(a_bar)
    if b_bar > 0.0:
        (ai_b, aip_b, bi_b, bip_b, _), zeta_b = airy_scaled(b_bar)
        delta_zeta = _zeta_difference(a_bar, b_bar, kappa * length)
    else:
        # Turning point inside the barrier: the right-edge values are
        # order one, so they stay unscaled (zero exponent).
        ai_b, aip_b, bi_b, bip_b, _ = airy_all(b_bar)
        zeta_b = 0.0
        delta_zeta = zeta_a

    # One-sided elimination of the interior: each factor is a scaled
    # combination of an Airy value and its derivative at one edge.
    ik = 1j * k
    ik_bar = 1j * k_bar
    p_a = kappa * aip_a - ik * ai_a
    q_a = kappa * bip_a - ik * bi_a
    p_b = kappa * aip_b + ik_bar * ai_b
    q_b = kappa * bip_b + ik_bar * bi_b

    damp2 = math.exp(-2.0 * delta_zeta) if delta_zeta <= 350.0 else 0.0
    f_tilde = damp2 * p_a * q_b - q_a * p_b
    if f_tilde == 0:
        raise DomainError(
            "degenerate matching system for the tilted barrier at "
            f"E = {energy.ev} eV, phi = {spec.phi.ev} eV"
        )

    phase = _transmitted_phase(k_bar, spec)
    damp = math.exp(-delta_zeta) if delta_zeta <= _MAX_EXPONENT else 0.0
    two_ik = 2j * k
    t = -(two_ik / math.pi) * kappa * phase * damp / f_tilde
    T = min(
        1.0, (k_bar / k) * (2.0 * k * kappa / math.pi) ** 2 * damp2 / abs(f_tilde) ** 2
    )
    r = -(1.0 + two_ik * (damp2 * q_b * ai_a - p_b * bi_a) / f_tilde)
    R = min(1.0, abs(r) ** 2)

    # Gap derivative.  All gap dependence enters through kappa ~ l^(-1/3)
    # and the edge arguments a_bar, b_bar ~ l^(2/3), so d a_bar/dl =
    # (2/3) a_bar/l, likewise at b, and d(delta_zeta)/dl = delta_zeta/l.
    # The scaled Airy values differentiate through ai_s' = ai_s_prime +
    # sqrt(z) ai_s (growth factored out; the sqrt(z) terms drop for the
    # unscaled pair used when the turning point sits inside the gap).
    root_a = math.sqrt(a_bar)
    d_ai_a = aip_a + root_a * ai_a
    d_aip_a = a_bar * ai_a + root_a * aip_a
    d_bi_a = bip_a - root_a * bi_a
    d_bip_a = a_bar * bi_a - root_a * bip_a
    root_b = math.sqrt(b_bar) if b_bar > 0.0 else 0.0
    d_ai_b = aip_b + root_b * ai_b
    d_aip_b = b_bar * ai_b + root_b * aip_b
    d_bi_b = bip_b - root_b * bi_b
    d_bip_b = b_bar * bi_b - root_b * bip_b

    dkappa = -kappa / (3.0 * length)
    da_bar = (2.0 / 3.0) * a_bar / length
    db_bar = (2.0 / 3.0) * b_bar / length
    dp_a = dkappa * aip_a + (kappa * d_aip_a - ik * d_ai_a) * da_bar
    dq_a = dkappa * bip_a + (kappa * d_bip_a - ik * d_bi_a) * da_bar
    dp_b = dkappa * aip_b + (kappa * d_aip_b + ik_bar * d_ai_b) * db_bar
    dq_b = dkappa * bip_b + (kappa * d_bip_b + ik_bar * d_bi_b) * db_bar
    ddzeta = delta_zeta / length
    df = (
        -2.0 * ddzeta * damp2 * p_a * q_b
        + damp2 * (dp_a * q_b + p_a * dq_b)
        - (dq_a * p_b + q_a * dp_b)
    )
    dT_dl = T * (-2.0 / (3.0 * length) - 2.0 * ddzeta - 2.0 * (df / f_tilde).real)

    # -2j * k, not -two_ik: a zero real part would carry the other sign.
    g_ai = -2j * k * q_b / f_tilde
    g_bi = two_ik * p_b / f_tilde

    return ScatteringSolution(
        t,
        r,
        T,
        R,
        dT_dl,
        0,
        T,
        dT_dl,
        k,
        k_bar,
        k0,
        HBAR * k / _TWO_PI_M,
        spec,
        energy,
        _AiryInterior(
            g_ai, g_bi, kappa, a_bar, b_bar, delta_zeta, length, zeta_a, zeta_b
        ),
    )


_SOLVERS = {
    Family.SYMMETRIC_RECT: _solve_rect,
    Family.ASYMMETRIC_RECT: _solve_rect,
    Family.LINEAR_FIELD: _solve_tilted,
}


def solve(energy: Energy, spec: BarrierSpec) -> ScatteringSolution:
    """Check the energy once, then solve with the core of ``spec.family``."""
    core = _SOLVERS[spec.family]
    _check_energy(energy, spec)
    return core(energy, spec)


def _sample_exterior_left(sol: ScatteringSolution, x: float) -> WavefunctionSample:
    k = sol.k
    inc = cmath.exp(1j * k * x)
    ref = sol.r * cmath.exp(-1j * k * x)
    psi = (inc + ref) / _SQRT_TWO_PI
    d1 = 1j * k * (inc - ref) / _SQRT_TWO_PI
    return WavefunctionSample(
        x=Length(x), psi=psi, d1=d1, d2=-k * k * psi, d3=-k * k * d1
    )


def _sample_exterior_right(sol: ScatteringSolution, x: float) -> WavefunctionSample:
    kb = sol.k_bar
    psi = sol.t * cmath.exp(1j * kb * x) / _SQRT_TWO_PI
    d1 = 1j * kb * psi
    return WavefunctionSample(
        x=Length(x), psi=psi, d1=d1, d2=-kb * kb * psi, d3=-kb * kb * d1
    )


def _sample_rect_interior(inner: _RectInterior, x: float) -> WavefunctionSample:
    k0 = inner.k0
    # Anchored exponentials, both <= 1 for 0 <= x <= b.
    toward_b = math.exp(-k0 * (inner.b - x))
    toward_a = math.exp(-k0 * x)
    up = inner.g_plus * toward_b
    down = inner.g_minus * toward_a
    psi = (up + down) / _SQRT_TWO_PI
    d1 = k0 * (up - down) / _SQRT_TWO_PI
    return WavefunctionSample(
        x=Length(x), psi=psi, d1=d1, d2=k0 * k0 * psi, d3=k0 * k0 * d1
    )


def _sample_airy_interior(inner: _AiryInterior, x: float) -> WavefunctionSample:
    kappa = inner.alpha_cbrt
    # Widths from the edges are exact products; every exponent below is
    # a difference taken through them, so no large-exponent
    # cancellation can creep in even at extreme scaling.
    w_from_a = kappa * x
    w_from_b = kappa * (inner.b - x)
    if inner.b_bar > 0.0:
        z = inner.b_bar + w_from_b
        quad, _ = airy_scaled(z)
        # shift_ai exponent: 2 zeta_b - zeta_a - zeta_x, assembled as
        # -(zeta_a - zeta_b) - (zeta_x - zeta_b).
        exp_ai = -inner.delta_zeta - _zeta_difference(z, inner.b_bar, w_from_b)
        exp_bi = -_zeta_difference(inner.a_bar, z, w_from_a)
    else:
        z = inner.a_bar - w_from_a
        if z > 0.0:
            quad, zeta_x = airy_scaled(z)
        else:
            quad = airy_all(z)
            zeta_x = 0.0
        # Right-edge values are unscaled here (zeta_b = 0) and every
        # exponent is small, so plain arithmetic is safe.
        exp_ai = -inner.delta_zeta - zeta_x
        exp_bi = zeta_x - inner.delta_zeta
    w_ai = inner.g_ai * math.exp(exp_ai)
    w_bi = inner.g_bi * math.exp(exp_bi)
    value = w_ai * quad.ai + w_bi * quad.bi
    slope = w_ai * quad.ai_prime + w_bi * quad.bi_prime
    psi = value / _SQRT_TWO_PI
    d1 = -kappa * slope / _SQRT_TWO_PI
    d2 = kappa * kappa * z * psi
    d3 = -(kappa**3) * (value + z * slope) / _SQRT_TWO_PI
    return WavefunctionSample(x=Length(x), psi=psi, d1=d1, d2=d2, d3=d3)


def eval_wavefunction(
    sol: ScatteringSolution, x: "float | Length", side: Side = Side.RIGHT_LIMIT
) -> WavefunctionSample:
    """Evaluate the wavefunction and its first three derivatives.

    Parameters
    ----------
    sol : ScatteringSolution
        A solved state.
    x : float or Length
        Position; a bare float is taken in meters.
    side : Side
        One-sided limit to take when ``x`` falls exactly on a barrier
        edge.  Away from the edges both limits agree.  The default gives
        the interior value at the left edge and the transmitted value at
        the right edge.

    Returns
    -------
    WavefunctionSample
        psi and derivatives d1..d3, all with the incident-wave
        normalization ``1/sqrt(2 pi)``.
    """
    if not isinstance(side, Side):
        raise UsageError(f"side must be a Side member, got {side!r}")
    x_m = x.meters if isinstance(x, Length) else float(x)
    if not math.isfinite(x_m):
        raise DomainError(f"position must be finite, got {x_m}")
    b = sol.barrier.gap.meters

    if x_m < 0.0 or (x_m == 0.0 and side is Side.LEFT_LIMIT):
        return _sample_exterior_left(sol, x_m)
    if x_m > b or (x_m == b and side is Side.RIGHT_LIMIT):
        return _sample_exterior_right(sol, x_m)
    inner = sol.interior
    if isinstance(inner, _AiryInterior):
        return _sample_airy_interior(inner, x_m)
    return _sample_rect_interior(inner, x_m)
