"""Position and momentum uncertainties of the counting measurement.

A batch of ``N`` electrons sent at the barrier transmits a binomially
distributed count with variance ``N T R``.  Reading the gap width off
the mean count through the gap dependence of the transmission turns
that spread into a position resolution ``delta_l``; the second moment
of the momentum actually delivered to the wall gives the disturbance
``delta_p``.  Their product over ``hbar`` is exactly 1/2 on the symmetric
barrier; the asymmetric one falls below 1/2 at thin gaps (0.49294 at
``phi`` 1 eV, 0.05 nm) and the tilted one grows with the gap, since this
variance is the wall-displacement generator's spread on the symmetric
barrier only.  :func:`dT_dl` has a closed-form and a numeric route.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Callable, NamedTuple

from .errors import ConsistencyError, DomainError, RangeError, UsageError
from .fluxes import TransferredFluxes, transferred_fluxes
from .scattering import BarrierSpec, ScatteringSolution, solve
from .units import HBAR, Energy, Length

__all__ = [
    "DerivativeMethod",
    "UncertaintyResult",
    "position_uncertainty",
    "dT_dl",
    "kick_variance",
    "momentum_uncertainty",
    "uncertainty_of",
    "uncertainty_product",
]

_FLOAT_MIN = sys.float_info.min
_MIN_EXP = sys.float_info.min_exp
_MAX_EXP = sys.float_info.max_exp
_HBAR_SQ = HBAR**2


class DerivativeMethod(enum.Enum):
    """Route used for the gap derivative of the transmission."""

    ANALYTIC = "analytic"
    NUMERIC = "numeric"
    BOTH = "both"


class UncertaintyResult(NamedTuple):
    """Uncertainty pair of one solved barrier configuration.

    Attributes
    ----------
    delta_l : Length
        Inferred position uncertainty of the wall.
    delta_p : float
        Imparted momentum uncertainty, kg m/s.
    product_over_hbar : float
        ``delta_l * delta_p / hbar``; exactly 1/2 on the symmetric barrier.
    n_electrons : float
        Batch size N the pair was evaluated at (the product is
        N-independent).
    solution : ScatteringSolution
        The solved state the pair was built from (``T``, ``R``, the gap
        derivative ``dT_dl`` and the amplitudes).
    fluxes : TransferredFluxes
        The wall fluxes ``delta_p`` was formed from.
    """

    delta_l: Length
    delta_p: float
    product_over_hbar: float
    n_electrons: float
    solution: ScatteringSolution
    fluxes: TransferredFluxes


def _coerce_method(method: "DerivativeMethod | str") -> DerivativeMethod:
    if isinstance(method, DerivativeMethod):
        return method
    try:
        return DerivativeMethod(method)
    except ValueError:
        raise UsageError(
            f"unknown derivative method {method!r}; expected one of "
            f"{[m.value for m in DerivativeMethod]}"
        ) from None


def _check_count(N: float) -> float:
    try:
        n = float(N)
    except (TypeError, ValueError):
        raise UsageError(f"electron count must be a real number, got {N!r}") from None
    if not math.isfinite(n) or n < 1.0:
        raise DomainError(f"electron count must be >= 1, got {N!r}")
    return n


def finite_diff(
    f: Callable[[float], float], x: float, rel_step: float = 1e-2
) -> tuple[float, float]:
    """Derivative of ``f`` at ``x`` by Ridders' polished central difference.

    Starts from step ``rel_step * |x|`` (``rel_step`` itself at ``x = 0``)
    and contracts it while building a Neville extrapolation tableau;
    stops as soon as the error estimate worsens, which keeps roundoff
    from contaminating the answer.

    Returns
    -------
    (derivative, error_estimate) : tuple of float
        The estimate is the spread of the best tableau entry and tracks
        the true error well, including any noise floor in ``f`` itself.
    """
    if not rel_step > 0.0:
        raise UsageError(f"rel_step must be positive, got {rel_step}")
    con = 1.4
    con2 = con * con
    safe = 2.0
    ntab = 10

    hh = rel_step * abs(x) if x != 0.0 else rel_step
    # tableau[j][i]: column i is step i, row j its j-th extrapolation.
    tableau = [[0.0] * ntab for _ in range(ntab)]
    tableau[0][0] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
    ans = tableau[0][0]
    err = math.inf
    for i in range(1, ntab):
        hh /= con
        tableau[0][i] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
        fac = con2
        for j in range(1, i + 1):
            tableau[j][i] = (tableau[j - 1][i] * fac - tableau[j - 1][i - 1]) / (
                fac - 1.0
            )
            fac *= con2
            errt = max(
                abs(tableau[j][i] - tableau[j - 1][i]),
                abs(tableau[j][i] - tableau[j - 1][i - 1]),
            )
            if errt <= err:
                err = errt
                ans = tableau[j][i]
        if abs(tableau[i][i] - tableau[i - 1][i - 1]) >= safe * err:
            break
    return float(ans), float(err)


def _numeric_dT_dl(sol: ScatteringSolution) -> float:
    gap = sol.barrier.gap.meters
    barrier = sol.barrier

    def t_at_scale(scale: float) -> float:
        gap_at_scale = Length(gap * scale)
        displaced = BarrierSpec(barrier.family, barrier.V0, barrier.phi, gap_at_scale)
        return solve(sol.energy, displaced).T

    derivative, _ = finite_diff(t_at_scale, 1.0, rel_step=1e-6)
    return derivative / gap


def dT_dl(
    sol: ScatteringSolution,
    method: "DerivativeMethod | str" = DerivativeMethod.ANALYTIC,
) -> float:
    """Gap derivative of the transmission at fixed energy, height, bias.

    ``analytic`` returns ``sol.dT_dl``, which the solver computed by
    differentiating its own closed forms (exact to rounding);
    ``numeric`` re-solves at displaced gaps under a
    Richardson-extrapolated central difference with relative step 1e-6,
    ``both`` returns the numeric value after asserting the routes agree
    to 1e-6 relative (disagreement raises the consistency error naming
    both values).
    """
    method = _coerce_method(method)
    if method is DerivativeMethod.ANALYTIC:
        return sol.dT_dl
    numeric = _numeric_dT_dl(sol)
    if method is DerivativeMethod.BOTH:
        analytic = sol.dT_dl
        scale = max(abs(analytic), abs(numeric))
        if scale > 0.0 and abs(analytic - numeric) > 1e-6 * scale:
            raise ConsistencyError(
                "transmission-derivative routes disagree beyond 1e-6 "
                f"relative: analytic {analytic!r}, numeric {numeric!r}"
            )
    return numeric


def _normal(name: str, mantissa: float, exponent: int, sol) -> float:
    """``mantissa 2^exponent``, or the range error naming it if no normal float."""
    power = math.frexp(mantissa)[1] + exponent
    if mantissa and not _MIN_EXP <= power <= _MAX_EXP:
        raise RangeError(
            f"{name} is about 2^{power}, outside the normal floats, at T about "
            f"2^{math.frexp(sol.T_scaled)[1] - 2 * sol.scale}"
            f"{', which underflows' if sol.T < _FLOAT_MIN else ''}"
            ": the barrier is too opaque for the uncertainty pair"
        )
    return math.ldexp(mantissa, exponent)


def position_uncertainty(sol: ScatteringSolution, N: float = 1.0) -> Length:
    """Position resolution from counting N transmitted electrons.

    ``delta_l = sqrt(T R / N) / |dT/dl|``, formed from the solver's scaled
    ``T`` and gap derivative so that it keeps its digits where ``T``
    underflows.  A vanishing derivative means the count carries no
    first-order gap information; inverting it would need the second-order
    expansion, which is out of scope, so that input is rejected.
    """
    return Length(_position_uncertainty(sol, _check_count(N)))


def _position_uncertainty(sol: ScatteringSolution, n: float) -> float:
    """:func:`position_uncertainty` in meters at a checked count ``n``."""
    dT_dl = sol.dT_dl_scaled
    if not math.isfinite(dT_dl):
        raise DomainError(f"transmission derivative must be finite, got {dT_dl!r}")
    if dT_dl == 0.0:
        raise DomainError(
            "transmission underflows to 0, even scaled" if sol.T_scaled == 0.0
            else "transmission derivative is zero: the first-order count-to-gap "
            "inversion degenerates and a second-order expansion would be "
            "required, which is out of scope"
        )
    root = math.sqrt(sol.T_scaled * sol.R / n) / abs(dT_dl)
    return _normal("delta_l", root, sol.scale, sol)


def kick_variance(
    transferred: TransferredFluxes, sol: ScatteringSolution
) -> "tuple[float, int]":
    """Per-attempt momentum-kick variance ``v 4^-e`` of the wall fluxes, as ``(v, e)``.

    ``v`` is the bracket ``-j_p2_t/j_in + (j_p_t/j_in)^2`` formed exactly
    times ``4^e``, ``e = transferred.exponent``, so it keeps its digits on
    opaque rectangular barriers.  Below zero by less than 1e-12 of the
    natural ``hbar^2 (k^2 + k0^2) T`` scale it is rounding and clamps to 0.
    Further below it raises the domain error on a tilted interior with
    ``phi > 2 (V0 - E)``, the consistency error anywhere else; a subnormal
    second moment raises the range error.
    """
    j_in = sol.incident_flux
    e = transferred.exponent
    second_moment = -transferred.scaled_j_p2_t / j_in
    if abs(second_moment) < _FLOAT_MIN:
        raise RangeError(
            "kick second moment underflows "
            f"({math.ldexp(second_moment, -2 * e)!r} (kg m/s)^2 at T = {sol.T!r}); "
            "the barrier is too opaque for the kick variance"
        )
    # j_p_t / j_in is subnormal only for T below about 1e-270, where its
    # square is about T times the second moment: lost digits do not count.
    mean_kick = math.ldexp(transferred.j_p_t / j_in, e)
    bracket = second_moment + mean_kick * mean_kick
    if bracket < 0.0:
        k, k0 = sol.k, sol.k0
        natural = _HBAR_SQ * (k * k + k0 * k0) * sol.T_scaled
        spec = sol.barrier
        if bracket >= -1e-12 * natural:
            bracket = 0.0
        elif sol.tilted_interior and spec.phi.ev > 2.0 * (spec.V0.ev - sol.energy.ev):
            raise DomainError(
                f"bias phi = {spec.phi.ev!r} eV is past 2 (V0 - E): the half-sum "
                "second moment changes sign there and is no variance"
            )
        else:
            raise ConsistencyError(
                "momentum-variance bracket is negative beyond the rounding "
                f"guard: {bracket!r} (kg m/s)^2 against natural scale "
                f"{natural!r}; the fluxes are inconsistent"
            )
    return bracket, e


def momentum_uncertainty(
    transferred: TransferredFluxes, sol: ScatteringSolution, N: float = 1.0
) -> float:
    """Momentum kick spread after N electrons, from the wall fluxes:
    ``sqrt(N v) 2^-e`` with ``(v, e)`` from :func:`kick_variance`."""
    return _momentum_uncertainty(transferred, sol, _check_count(N))


def _momentum_uncertainty(
    transferred: TransferredFluxes, sol: ScatteringSolution, n: float
) -> float:
    """:func:`momentum_uncertainty` at a checked count ``n``."""
    v, e = kick_variance(transferred, sol)
    return _normal("delta_p", math.sqrt(n * v), -e, sol)


def uncertainty_of(
    sol: ScatteringSolution, N: float = 1.0, fluxes: "TransferredFluxes | None" = None
) -> UncertaintyResult:
    """Uncertainty pair of a solved state: ``delta_l`` from its ``dT_dl``,
    ``delta_p`` from its wall ``fluxes``, formed here unless given.

    The product ``delta_l * delta_p / hbar`` is invariant under N
    (position tightens, momentum spreads).
    """
    n = _check_count(N)
    delta_l, delta_p, product, fluxes = _uncertainty_of(sol, n, fluxes)
    return UncertaintyResult(Length(delta_l), delta_p, product, n, sol, fluxes)


def _uncertainty_of(sol: ScatteringSolution, n: float, fluxes) -> tuple:
    """:func:`uncertainty_of` at a checked count ``n``, as the tuple
    ``(delta_l in m, delta_p, product over hbar, fluxes)``."""
    delta_l = _position_uncertainty(sol, n)
    if fluxes is None:
        fluxes = transferred_fluxes(sol)
    delta_p = _momentum_uncertainty(fluxes, sol, n)
    return delta_l, delta_p, delta_l * delta_p / HBAR, fluxes


def uncertainty_product(
    E: Energy, spec: BarrierSpec, N: float = 1.0
) -> UncertaintyResult:
    """Full pipeline: solve, then :func:`uncertainty_of` the solution."""
    return uncertainty_of(solve(E, spec), N)
