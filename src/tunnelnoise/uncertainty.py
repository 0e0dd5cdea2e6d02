"""Position and momentum uncertainties of the counting measurement.

A batch of ``N`` electrons sent at the barrier transmits a binomially
distributed count with variance ``N T R``.  Reading the gap width off
the mean count through the gap dependence of the transmission turns
that spread into a position resolution ``delta_l``; the second moment
of the momentum actually delivered to the wall gives the disturbance
``delta_p``.  For the flat symmetric barrier the pair saturates the
Heisenberg bound exactly; the biased families land above it.

The gap derivative of the transmission has two routes: closed forms
differentiated from the solver's own representation (default), and
Richardson-extrapolated central differences re-solving at displaced
gaps under Ridders' scheme (``finite_diff``).  The closed forms are exact
to rounding, which the bound checks need; the numeric route is kept as
an independent cross-check and for ``both`` mode, which runs the two
against each other.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Callable

from .airy import airy_all, airy_scaled
from .errors import ConsistencyError, DomainError, UsageError
from .fluxes import TransferredFluxes, transferred_fluxes
from .scattering import BarrierSpec, ScatteringSolution, solve
from .units import HBAR, Energy, Length

__all__ = [
    "DerivativeMethod",
    "UncertaintyResult",
    "position_uncertainty",
    "dT_dl",
    "momentum_uncertainty",
    "uncertainty_product",
]


class DerivativeMethod(enum.Enum):
    """Route used for the gap derivative of the transmission."""

    ANALYTIC = "analytic"
    NUMERIC = "numeric"
    BOTH = "both"


@dataclass(frozen=True)
class UncertaintyResult:
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
    dT_dl : float
        Gap derivative of the transmission, 1/m.
    dT_dl_method : DerivativeMethod
        Route that produced ``dT_dl``.
    solution : ScatteringSolution
        The solved state the pair was built from (``T``, ``R`` and the
        amplitudes).
    """

    delta_l: Length
    delta_p: float
    product_over_hbar: float
    n_electrons: float
    dT_dl: float
    dT_dl_method: DerivativeMethod
    solution: ScatteringSolution


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


def _rect_dT_dl(sol: ScatteringSolution) -> float:
    """Gap derivative for a flat interior (both rectangular families and
    tilted barriers dispatched at negligible bias).

    With ``m2 = exp(-2 k0 l)`` the transmission is ``T = (k_bar/k)
    * 16 k^2 k0^2 m2 / G`` where ``G = k0^2 (k+k_bar)^2 (1+m2)^2 +
    (k0^2 - k k_bar)^2 (1-m2)^2``, so ``dT/dl = T (-2 k0 - G'/G)``.
    """
    k = sol.k.per_meter
    k_bar = sol.k_bar.per_meter
    k0 = sol.k0.per_meter
    u = k0 * sol.barrier.gap.meters
    m2 = math.exp(-2.0 * u)
    grow = k0**2 * (k + k_bar) ** 2
    decay = (k0**2 - k * k_bar) ** 2
    g = grow * (1.0 + m2) ** 2 + decay * (1.0 - m2) ** 2
    g_prime = -4.0 * k0 * m2 * (grow * (1.0 + m2) - decay * (1.0 - m2))
    return sol.T * (-2.0 * k0 - g_prime / g)


def _tilted_dT_dl(sol: ScatteringSolution) -> float:
    """Gap derivative for the genuine tilted interior.

    All gap dependence enters through ``kappa ~ l^(-1/3)`` and the edge
    arguments ``a_bar, b_bar ~ l^(2/3)``, so ``d a_bar/dl = (2/3)
    a_bar/l``, likewise at b, and the exponent difference obeys
    ``d(dzeta)/dl = dzeta/l``.  The scaled Airy values differentiate
    through ``ai_s' = ai_s_prime + sqrt(z) ai_s`` (growth factored out;
    the ``sqrt(z)`` terms drop for the unscaled pair used when the
    turning point sits inside the gap).
    """
    inner = sol.interior
    k = sol.k.per_meter
    k_bar = sol.k_bar.per_meter
    kappa = inner.alpha_cbrt
    gap = sol.barrier.gap.meters
    a_bar = inner.a_bar
    b_bar = inner.b_bar
    dzeta = inner.delta_zeta

    quad_a, _ = airy_scaled(a_bar)
    root_a = math.sqrt(a_bar)
    d_ai_a = quad_a.ai_prime + root_a * quad_a.ai
    d_aip_a = a_bar * quad_a.ai + root_a * quad_a.ai_prime
    d_bi_a = quad_a.bi_prime - root_a * quad_a.bi
    d_bip_a = a_bar * quad_a.bi - root_a * quad_a.bi_prime

    if b_bar > 0.0:
        quad_b, _ = airy_scaled(b_bar)
        root_b = math.sqrt(b_bar)
        d_ai_b = quad_b.ai_prime + root_b * quad_b.ai
        d_aip_b = b_bar * quad_b.ai + root_b * quad_b.ai_prime
        d_bi_b = quad_b.bi_prime - root_b * quad_b.bi
        d_bip_b = b_bar * quad_b.bi - root_b * quad_b.bi_prime
    else:
        quad_b = airy_all(b_bar)
        d_ai_b = quad_b.ai_prime
        d_aip_b = b_bar * quad_b.ai
        d_bi_b = quad_b.bi_prime
        d_bip_b = b_bar * quad_b.bi

    p_a = kappa * quad_a.ai_prime - 1j * k * quad_a.ai
    q_a = kappa * quad_a.bi_prime - 1j * k * quad_a.bi
    p_b = kappa * quad_b.ai_prime + 1j * k_bar * quad_b.ai
    q_b = kappa * quad_b.bi_prime + 1j * k_bar * quad_b.bi

    dkappa = -kappa / (3.0 * gap)
    da_bar = (2.0 / 3.0) * a_bar / gap
    db_bar = (2.0 / 3.0) * b_bar / gap
    dp_a = dkappa * quad_a.ai_prime + (kappa * d_aip_a - 1j * k * d_ai_a) * da_bar
    dq_a = dkappa * quad_a.bi_prime + (kappa * d_bip_a - 1j * k * d_bi_a) * da_bar
    dp_b = dkappa * quad_b.ai_prime + (kappa * d_aip_b + 1j * k_bar * d_ai_b) * db_bar
    dq_b = dkappa * quad_b.bi_prime + (kappa * d_bip_b + 1j * k_bar * d_bi_b) * db_bar

    damp2 = math.exp(-2.0 * dzeta) if dzeta <= 350.0 else 0.0
    f_tilde = damp2 * p_a * q_b - q_a * p_b
    ddzeta = dzeta / gap
    df = (
        -2.0 * ddzeta * damp2 * p_a * q_b
        + damp2 * (dp_a * q_b + p_a * dq_b)
        - (dq_a * p_b + q_a * dp_b)
    )
    return sol.T * (-2.0 / (3.0 * gap) - 2.0 * ddzeta - 2.0 * (df / f_tilde).real)


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
        displaced = dataclasses.replace(barrier, gap=Length(gap * scale))
        return solve(sol.energy, displaced).T

    derivative, _ = finite_diff(t_at_scale, 1.0, rel_step=1e-6)
    return derivative / gap


def dT_dl(
    sol: ScatteringSolution,
    method: "DerivativeMethod | str" = DerivativeMethod.ANALYTIC,
) -> float:
    """Gap derivative of the transmission at fixed energy, height, bias.

    ``analytic`` differentiates the solver's closed forms (exact to
    rounding), ``numeric`` re-solves at displaced gaps under a
    Richardson-extrapolated central difference with relative step 1e-6,
    ``both`` returns the numeric value after asserting the routes agree
    to 1e-6 relative (disagreement raises the consistency error naming
    both values).
    """
    method = _coerce_method(method)
    if method is DerivativeMethod.ANALYTIC:
        return _analytic_dT_dl(sol)
    numeric = _numeric_dT_dl(sol)
    if method is DerivativeMethod.BOTH:
        analytic = _analytic_dT_dl(sol)
        scale = max(abs(analytic), abs(numeric))
        if scale > 0.0 and abs(analytic - numeric) > 1e-6 * scale:
            raise ConsistencyError(
                "transmission-derivative routes disagree beyond 1e-6 "
                f"relative: analytic {analytic!r}, numeric {numeric!r}"
            )
    return numeric


def _analytic_dT_dl(sol: ScatteringSolution) -> float:
    if sol.tilted_interior:
        return _tilted_dT_dl(sol)
    return _rect_dT_dl(sol)


def position_uncertainty(
    sol: ScatteringSolution, dT_dl: float, N: float = 1.0
) -> Length:
    """Position resolution from counting N transmitted electrons.

    ``delta_l = sqrt(T R / N) / |dT/dl|``.  A vanishing derivative
    means the count carries no first-order gap information; inverting
    it would need the second-order expansion, which is out of scope, so
    that input is rejected.
    """
    n = _check_count(N)
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
    zero, anything larger is an inconsistent flux set and raises.
    """
    n = _check_count(N)
    j_in = sol.incident_flux
    mean_kick = transferred.j_p_t / j_in
    bracket = -transferred.j_p2_t / j_in + mean_kick * mean_kick
    if bracket < 0.0:
        k = sol.k.per_meter
        k0 = sol.k0.per_meter
        natural = HBAR**2 * (k * k + k0 * k0) * sol.T
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
    return math.sqrt(n * bracket)


def uncertainty_product(
    E: Energy,
    spec: BarrierSpec,
    N: float = 1.0,
    method: "DerivativeMethod | str" = DerivativeMethod.ANALYTIC,
) -> UncertaintyResult:
    """Full pipeline: solve, form wall fluxes, return the pair.

    The product ``delta_l * delta_p / hbar`` is invariant under N
    (position tightens, momentum spreads); the symmetric flat barrier
    sits at exactly 1/2.
    """
    method = _coerce_method(method)
    sol = solve(E, spec)
    derivative = dT_dl(sol, method)
    delta_l = position_uncertainty(sol, derivative, N)
    delta_p = momentum_uncertainty(transferred_fluxes(sol), sol, N)
    return UncertaintyResult(
        delta_l=delta_l,
        delta_p=delta_p,
        product_over_hbar=delta_l.meters * delta_p / HBAR,
        n_electrons=_check_count(N),
        dT_dl=derivative,
        dT_dl_method=method,
        solution=sol,
    )
