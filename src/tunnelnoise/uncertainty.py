"""Position and momentum uncertainties of the counting measurement.

A batch of ``N`` electrons sent at the barrier transmits a binomially
distributed count with variance ``N T R``.  Reading the gap width off
the mean count through the gap dependence of the transmission turns
that spread into a position resolution ``delta_l``; the second moment
of the momentum actually delivered to the wall gives the disturbance
``delta_p``.  For the flat symmetric barrier the pair saturates the
Heisenberg bound exactly; the biased families land above it.

The gap derivative of the transmission has two routes.  The solver
differentiates its own closed forms while it solves and stores the
result as ``ScatteringSolution.dT_dl`` (default); the other route is
Richardson-extrapolated central differences re-solving at displaced
gaps under Ridders' scheme (``finite_diff``).  The closed forms are exact
to rounding, which the bound checks need; the numeric route is kept as
an independent cross-check and for ``both`` mode, which runs the two
against each other.
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
    "momentum_uncertainty",
    "uncertainty_of",
    "uncertainty_product",
]


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
        ``delta_l * delta_p / hbar``; bounded below by 1/2.
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


def position_uncertainty(sol: ScatteringSolution, N: float = 1.0) -> Length:
    """Position resolution from counting N transmitted electrons.

    ``delta_l = sqrt(T R / N) / |dT/dl|`` with the solver's gap
    derivative ``sol.dT_dl``.  A vanishing derivative means the count
    carries no first-order gap information; inverting it would need the
    second-order expansion, which is out of scope, so that input is
    rejected.
    """
    n = _check_count(N)
    dT_dl = sol.dT_dl
    if not math.isfinite(dT_dl):
        raise DomainError(f"transmission derivative must be finite, got {dT_dl!r}")
    if dT_dl == 0.0:
        raise DomainError(
            "transmission derivative is zero: the first-order count-to-gap "
            "inversion degenerates and a second-order expansion would be "
            "required, which is out of scope"
        )
    return Length(math.sqrt(sol.T * sol.R / n) / abs(dT_dl))


def momentum_uncertainty(
    transferred: TransferredFluxes, sol: ScatteringSolution, N: float = 1.0
) -> float:
    """Momentum kick spread after N electrons, from the wall fluxes.

    ``(delta_p)^2 = N [ -j_p2_t/j_in + (j_p_t/j_in)^2 ]``.  The bracket
    is a variance; excursions below zero smaller than 1e-12 of the
    natural ``hbar^2 (k^2 + k0^2) T`` scale are rounding and clamp to
    zero, anything larger is an inconsistent flux set and raises.  The
    bracket is formed times ``2^(2 transferred.exponent)``, which is exact,
    and keeps its digits on opaque rectangular barriers.  A ``T`` or a
    second moment below the smallest normal float raises the range error.
    """
    if sol.T < sys.float_info.min:
        raise RangeError(
            f"transmission underflows: T = {sol.T!r} is below the smallest "
            "normal float; the barrier is too opaque for the kick variance"
        )
    j_in = sol.incident_flux
    e = transferred.exponent
    scaled = transferred.scaled_j_p2_t
    second_moment = -(transferred.j_p2_t if scaled is None else scaled) / j_in
    if abs(second_moment) < sys.float_info.min:
        raise RangeError(
            "kick second moment underflows "
            f"({math.ldexp(second_moment, -2 * e)!r} (kg m/s)^2 at T = {sol.T!r}); "
            "the barrier is too opaque for the kick variance"
        )
    n = _check_count(N)
    # j_p_t / j_in is subnormal only for T below about 1e-270, where its
    # square is about T times the second moment: lost digits do not count.
    mean_kick = math.ldexp(transferred.j_p_t / j_in, e)
    bracket = second_moment + mean_kick * mean_kick
    if bracket < 0.0:
        k = sol.k
        k0 = sol.k0
        natural = HBAR**2 * (k * k + k0 * k0) * math.ldexp(sol.T, 2 * e)
        if bracket >= -1e-12 * natural:
            bracket = 0.0
        else:
            raise ConsistencyError(
                "momentum-variance bracket is negative beyond the rounding "
                f"guard: {bracket!r} (kg m/s)^2 against natural scale "
                f"{natural!r}. For tilted barriers this is genuine once the "
                "bias exceeds twice the barrier depth above the energy "
                "(the transferred second moment changes sign there and the "
                "first-moment bookkeeping stops describing a variance); "
                "otherwise it indicates inconsistent fluxes."
            )
    return math.ldexp(math.sqrt(n * bracket), -e)


def uncertainty_of(sol: ScatteringSolution, N: float = 1.0) -> UncertaintyResult:
    """Uncertainty pair of a solved state: ``delta_l`` from its ``dT_dl``,
    ``delta_p`` from the wall fluxes formed here.

    The product ``delta_l * delta_p / hbar`` is invariant under N
    (position tightens, momentum spreads); the symmetric flat barrier
    sits at exactly 1/2.
    """
    n = _check_count(N)
    delta_l = position_uncertainty(sol, n)
    fluxes = transferred_fluxes(sol)
    delta_p = momentum_uncertainty(fluxes, sol, n)
    return UncertaintyResult(
        delta_l, delta_p, delta_l.meters * delta_p / HBAR, n, sol, fluxes
    )


def uncertainty_product(
    E: Energy, spec: BarrierSpec, N: float = 1.0
) -> UncertaintyResult:
    """Full pipeline: solve, then :func:`uncertainty_of` the solution."""
    return uncertainty_of(solve(E, spec), N)
