"""Airy functions Ai, Bi and first derivatives for real arguments.

The linear-field barrier solver needs all four values at accuracy near
machine precision, including deep into the exponential regime where Ai
underflows and Bi overflows.  Evaluation is split into three regimes:

* ``|z| <= 2``: Maclaurin series of the two fundamental ODE solutions,
  combined with the exact origin values.
* ``2 < |z| < 9``: Taylor-series marching of the Airy ODE ``w'' = z w``
  between precomputed half-integer anchors.  Each solution is carried
  only in its locally growing direction (Ai downward, Bi upward, both
  downward on the oscillatory side), which keeps the recurrence stable;
  a plain Maclaurin series run this far out loses 8+ digits to
  cancellation and the asymptotic series has not converged yet, so
  neither can bridge this band alone at the accuracy required here.
* ``|z| >= 9``: asymptotic expansions, exponential on the right and
  phase-modulated on the left, truncated at machine precision (the
  optimal truncation error at the seam is about e^{-2 zeta} ~ 1e-16).

Derivative values come from their own series in every regime, never
from differencing.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .errors import DomainError, RangeError

__all__ = [
    "AiryQuad",
    "airy_all",
    "airy_scaled",
]

# Exact origin values: Ai(0) = 3^(-2/3)/Gamma(2/3), -Ai'(0) = 3^(-1/3)/Gamma(1/3).
_C1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_C2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
_SQRT3 = math.sqrt(3.0)
_SQRTPI = math.sqrt(math.pi)

_MACLAURIN_EDGE = 2.0
_ASYMPTOTIC_EDGE = 9.0
_ANCHOR_STEP = 0.5
# Unscaled Bi overflows (and Ai underflows to subnormals) once the
# exponent (2/3) z^(3/2) passes ~700; refuse rather than return Inf/0.
_MAX_EXPONENT = 700.0


class AiryQuad(NamedTuple):
    """Ai, Bi and first derivatives at one real argument."""

    ai: float
    ai_prime: float
    bi: float
    bi_prime: float
    argument: float

    @property
    def wronskian(self) -> float:
        """Ai*Bi' - Ai'*Bi; equals 1/pi for exact values (also when the
        quad carries e^{-+zeta}-scaled values, since the exponents cancel)."""
        return self.ai * self.bi_prime - self.ai_prime * self.bi


# --------------------------------------------------------------------------
# Maclaurin regime
# --------------------------------------------------------------------------


def _series_coefficients(first: int) -> tuple[float, ...]:
    """c_m, m = first, first + 3, ... (40 terms), from c_{first-3} = 1."""
    orders = range(first, first + 120, 3)
    return tuple(
        itertools.accumulate(orders, lambda c, m: c / (m * (m - 1)), initial=1.0)
    )[1:]


# Term k of f and of g: their coefficients c_{3k+3} and c_{3k+4} and the
# orders 3k+3 and 3k+4 that differentiate the terms.
_MACLAURIN_TERMS = tuple(zip(
    _series_coefficients(3), _series_coefficients(4),
    map(float, range(3, 123, 3)), map(float, range(4, 124, 3)),
))


def _maclaurin_pair(z: float) -> tuple[float, float, float, float]:
    """The two fundamental solutions f, g of w'' = z w and their derivatives.

    f(0) = 1, f'(0) = 0 and g(0) = 0, g'(0) = 1; coefficients follow the
    ODE recurrence c_{n+3} = c_n / ((n+3)(n+2)).  Derivatives are the
    term-differentiated series, accumulated alongside.
    """
    if z == 0.0:
        return 1.0, 0.0, 0.0, 1.0
    f, fp = 1.0, 0.0
    g, gp = z, 1.0
    z3 = z * z * z
    power_f = 1.0  # z^{3k}
    power_g = z  # z^{3k+1}
    for cf, cg, order_f, order_g in _MACLAURIN_TERMS:
        power_f *= z3
        power_g *= z3
        term_f = cf * power_f
        term_g = cg * power_g
        f += term_f
        g += term_g
        fp += term_f * order_f / z
        gp += term_g * order_g / z
        if abs(term_f) < 1e-18 * abs(f) and abs(term_g) < 1e-18 * abs(g):
            break
    return f, fp, g, gp


def _airy_maclaurin(z: float) -> tuple[float, float, float, float]:
    f, fp, g, gp = _maclaurin_pair(z)
    ai = _C1 * f - _C2 * g
    aip = _C1 * fp - _C2 * gp
    bi = _SQRT3 * (_C1 * f + _C2 * g)
    bip = _SQRT3 * (_C1 * fp + _C2 * gp)
    return ai, aip, bi, bip


# --------------------------------------------------------------------------
# Taylor marching regime
# --------------------------------------------------------------------------


# (n+2)(n+1) and n+2 for the recurrence below, as the floats that the
# integer products convert to; indexing is cheaper than the arithmetic.
_TAYLOR_DIVISORS = tuple(float((n + 2) * (n + 1)) for n in range(60))
_TAYLOR_ORDERS = tuple(float(n + 2) for n in range(60))


def _taylor_coefficients(x0: float, w: float, wp: float) -> list[tuple[float, float]]:
    """Pairs (t_{n+1}, (n+2) t_{n+2}), n = 0..59, of the series of w'' = x w
    recentred at x0 through (w, w').

    Coefficients satisfy (n+2)(n+1) t_{n+2} = x0 t_n + t_{n-1}; they do
    not depend on the step, so each anchor computes them once.
    """
    pairs = []
    t_nm1 = 0.0
    t_n = w
    t_np1 = wp
    for n in range(60):
        t_np2 = (x0 * t_n + t_nm1) / _TAYLOR_DIVISORS[n]
        pairs.append((t_np1, _TAYLOR_ORDERS[n] * t_np2))
        t_nm1, t_n, t_np1 = t_n, t_np1, t_np2
    return pairs


def _taylor_sum(pairs: list, w: float, wp: float, h: float) -> tuple[float, float]:
    """w and w' at x0 + h from the :func:`_taylor_coefficients` at x0.

    For the step sizes used here (|h| <= 1/2, |x0| <= 9) the series
    reaches machine precision well inside the term cap.
    """
    sum_w = w
    sum_wp = wp
    hn = 1.0  # h^n for the w-sum at index n
    for c_w, c_wp in pairs:
        hn *= h
        term_w = c_w * hn
        term_wp = c_wp * hn
        sum_w += term_w
        sum_wp += term_wp
        if abs(term_w) < 1e-17 * abs(sum_w) and abs(term_wp) < 1e-17 * abs(sum_wp):
            break
    return sum_w, sum_wp


def _build_anchors() -> dict[float, tuple[float, float, float, float]]:
    """Half-integer anchor table on 2..9 and -9..-2.

    Bi marches upward and Ai downward on the positive side so each is
    carried in its growing (stable) direction; the oscillatory side is
    neutral and marches downward from the Maclaurin edge.
    """
    anchors: dict[float, list[float]] = {}
    n_steps = int(round((_ASYMPTOTIC_EDGE - _MACLAURIN_EDGE) / _ANCHOR_STEP))

    ai, aip, bi, bip = _airy_maclaurin(_MACLAURIN_EDGE)
    anchors[_MACLAURIN_EDGE] = [ai, aip, bi, bip]
    x = _MACLAURIN_EDGE
    for _ in range(n_steps):
        bi, bip = _taylor_sum(_taylor_coefficients(x, bi, bip), bi, bip, _ANCHOR_STEP)
        x = round((x + _ANCHOR_STEP) * 2.0) / 2.0
        anchors[x] = [math.nan, math.nan, bi, bip]

    ai_s, aip_s, _, _, zeta = _airy_asymptotic_positive(_ASYMPTOTIC_EDGE)
    damp = math.exp(-zeta)
    ai, aip = ai_s * damp, aip_s * damp
    anchors[_ASYMPTOTIC_EDGE][0] = ai
    anchors[_ASYMPTOTIC_EDGE][1] = aip
    x = _ASYMPTOTIC_EDGE
    for _ in range(n_steps):
        ai, aip = _taylor_sum(_taylor_coefficients(x, ai, aip), ai, aip, -_ANCHOR_STEP)
        x = round((x - _ANCHOR_STEP) * 2.0) / 2.0
        if x == _MACLAURIN_EDGE:
            break
        anchors[x][0] = ai
        anchors[x][1] = aip

    ai, aip, bi, bip = _airy_maclaurin(-_MACLAURIN_EDGE)
    anchors[-_MACLAURIN_EDGE] = [ai, aip, bi, bip]
    x = -_MACLAURIN_EDGE
    for _ in range(n_steps):
        ai, aip = _taylor_sum(_taylor_coefficients(x, ai, aip), ai, aip, -_ANCHOR_STEP)
        bi, bip = _taylor_sum(_taylor_coefficients(x, bi, bip), bi, bip, -_ANCHOR_STEP)
        x = round((x - _ANCHOR_STEP) * 2.0) / 2.0
        anchors[x] = [ai, aip, bi, bip]

    return {k: tuple(v) for k, v in anchors.items()}


_anchor_table = functools.cache(_build_anchors)


@functools.cache
def _anchor_series(anchor: float) -> tuple:
    """Ai, Ai' and their Taylor coefficients at one anchor, then the
    same for Bi; built on the anchor's first use."""
    ai, aip, bi, bip = _anchor_table()[anchor]
    ai_pairs = _taylor_coefficients(anchor, ai, aip)
    return ai, aip, ai_pairs, bi, bip, _taylor_coefficients(anchor, bi, bip)


def _airy_marched(z: float) -> tuple[float, float, float, float]:
    # For 2 < |z| < 9 the nearest anchor lies on [2, 9] or [-9, -2].
    anchor = round(z / _ANCHOR_STEP) * _ANCHOR_STEP
    ai0, aip0, ai_pairs, bi0, bip0, bi_pairs = _anchor_series(anchor)
    h = z - anchor
    ai, aip = _taylor_sum(ai_pairs, ai0, aip0, h)
    bi, bip = _taylor_sum(bi_pairs, bi0, bip0, h)
    return ai, aip, bi, bip


# --------------------------------------------------------------------------
# Asymptotic regime
# --------------------------------------------------------------------------


# u_k and v_k of the asymptotic series for k = 0..41: u_0 = v_0 = 1,
# u_k = u_{k-1} (6k-5)(6k-1) / (72k) and v_k = u_k (6k+1) / (1-6k).
_U = tuple(itertools.accumulate(
    range(1, 42), lambda u, k: u * (6 * k - 5) * (6 * k - 1) / (72.0 * k), initial=1.0
))
_V = (1.0, *(_U[k] * (6 * k + 1) / (1 - 6 * k) for k in range(1, 42)))


def _exponential_sums(inv_zeta: float) -> tuple[float, float, float, float]:
    """Truncated u/v asymptotic sums of the exponential regime: the
    alternating sums of both families, then the plain ones.

    Terms are added in index order, uncompensated, so no value depends on
    how ``sum()`` rounds, until they stop shrinking (optimal truncation),
    drop below machine precision, or k passes 40.  With ``inv_zeta > 0``
    every u term is positive and every v term negative, so the stopping
    tests need no ``abs``.
    """
    s0_u = s0_v = s1_u = s1_v = 1.0
    last_u = 1.0
    power = 1.0
    for k in range(1, 42):
        power *= inv_zeta
        term_u = _U[k] * power
        term_v = _V[k] * power
        if k > 2 and term_u >= last_u:
            break
        last_u = term_u
        s1_u += term_u
        s1_v += term_v
        if k & 1:
            s0_u -= term_u
            s0_v -= term_v
        else:
            s0_u += term_u
            s0_v += term_v
        if term_u < 1e-18 and term_v > -1e-18:
            break
    return s0_u, s0_v, s1_u, s1_v


def _phase_sums(inv_zeta: float) -> tuple[float, float, float, float]:
    """Truncated u/v asymptotic sums of the phase regime: the even-index
    and odd-index sums of u, then of v, signs alternating inside each.
    Terms are added and truncated as in :func:`_exponential_sums`.
    """
    s0_u = s0_v = 1.0
    s1_u = s1_v = 0.0
    last_u = 1.0
    power = 1.0
    for k in range(1, 42):
        power *= inv_zeta
        term_u = _U[k] * power
        term_v = _V[k] * power
        if abs(term_u) >= abs(last_u) and k > 2:
            break
        last_u = term_u
        if k & 2:
            term_u, term_v = -term_u, -term_v
        if k & 1:
            s1_u += term_u
            s1_v += term_v
        else:
            s0_u += term_u
            s0_v += term_v
        if abs(term_u) < 1e-18 and abs(term_v) < 1e-18:
            break
    return s0_u, s1_u, s0_v, s1_v


def _airy_asymptotic_positive(z: float) -> tuple[float, float, float, float, float]:
    """(Ai e^zeta, Ai' e^zeta, Bi e^-zeta, Bi' e^-zeta, zeta) for z >= 9."""
    rz = math.sqrt(z)
    zeta = (2.0 / 3.0) * z * rz
    z14 = math.sqrt(rz)
    s_u_alt, s_v_alt, s_u, s_v = _exponential_sums(1.0 / zeta)
    ai_s = s_u_alt / (2.0 * _SQRTPI * z14)
    aip_s = -z14 * s_v_alt / (2.0 * _SQRTPI)
    bi_s = s_u / (_SQRTPI * z14)
    bip_s = z14 * s_v / _SQRTPI
    return ai_s, aip_s, bi_s, bip_s, zeta


def _airy_asymptotic_negative(z: float) -> tuple[float, float, float, float]:
    """Phase-form expansions for z <= -9."""
    x = -z
    rx = math.sqrt(x)
    xi = (2.0 / 3.0) * x * rx
    x14 = math.sqrt(rx)
    u_even, u_odd, v_even, v_odd = _phase_sums(1.0 / xi)
    c = math.cos(xi - 0.25 * math.pi)
    s = math.sin(xi - 0.25 * math.pi)
    ai = (c * u_even + s * u_odd) / (_SQRTPI * x14)
    aip = x14 * (s * v_even - c * v_odd) / _SQRTPI
    bi = (-s * u_even + c * u_odd) / (_SQRTPI * x14)
    bip = x14 * (c * v_even + s * v_odd) / _SQRTPI
    return ai, aip, bi, bip


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


def airy_all(z: float) -> AiryQuad:
    """Ai(z), Ai'(z), Bi(z), Bi'(z) at a real argument.

    Accuracy is ~1e-13 relative (to the oscillation envelope on the
    negative axis) for |z| <= 10 and 1e-10 beyond.  Arguments whose
    exponent (2/3) z^(3/2) exceeds 700 would overflow Bi in unscaled
    arithmetic and raise a range error; use :func:`airy_scaled` there.
    """
    if not math.isfinite(z):
        raise DomainError(f"Airy argument must be finite, got {z}")
    if abs(z) <= _MACLAURIN_EDGE:
        vals = _airy_maclaurin(z)
    elif abs(z) < _ASYMPTOTIC_EDGE:
        vals = _airy_marched(z)
    elif z >= _ASYMPTOTIC_EDGE:
        ai_s, aip_s, bi_s, bip_s, zeta = _airy_asymptotic_positive(z)
        if zeta > _MAX_EXPONENT:
            raise RangeError(
                f"unscaled Airy values overflow: exponent (2/3) z^(3/2) = "
                f"{zeta:.6g} at z = {z:.6g} exceeds {_MAX_EXPONENT:.0f}; "
                "use airy_scaled"
            )
        grow = math.exp(zeta)
        vals = (ai_s / grow, aip_s / grow, bi_s * grow, bip_s * grow)
    else:
        vals = _airy_asymptotic_negative(z)
    return AiryQuad(*vals, z)


def airy_scaled(z: float) -> tuple[AiryQuad, float]:
    """Overflow-safe scaled Airy values for z > 0.

    Returns ``(quad, zeta)`` with ``zeta = (2/3) z^(3/2)`` and the quad
    holding ``Ai e^{+zeta}, Ai' e^{+zeta}, Bi e^{-zeta}, Bi' e^{-zeta}``.
    The Wronskian of the scaled quad still equals 1/pi because the two
    exponents cancel.  Valid at arbitrarily large z; recombination with
    e^{-+zeta} reproduces :func:`airy_all` wherever both representable.
    """
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"scaled Airy evaluation needs finite z > 0, got {z}")
    if z >= _ASYMPTOTIC_EDGE:
        ai_s, aip_s, bi_s, bip_s, zeta = _airy_asymptotic_positive(z)
        return AiryQuad(ai_s, aip_s, bi_s, bip_s, z), zeta
    if z <= _MACLAURIN_EDGE:
        ai, aip, bi, bip = _airy_maclaurin(z)
    else:
        ai, aip, bi, bip = _airy_marched(z)
    zeta = (2.0 / 3.0) * z * math.sqrt(z)
    grow = math.exp(zeta)
    return AiryQuad(ai * grow, aip * grow, bi / grow, bip / grow, z), zeta
