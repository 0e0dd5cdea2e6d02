"""Independent numerical oracles used to validate the analytic solvers.

Every closed-form quantity in the tunnelnoise package (transmission
coefficients, Airy values, transferred-flux integrals) is gated in the
test suite against the machinery here, which shares no code with the
implementations it checks: a many-slice transfer matrix, adaptive
QUADPACK quadrature driving Airy integral representations, and a
high-order ODE integrator for interior wavefunctions.  The oracles were
written and validated first; the analytic paths are accepted only where
they agree.  They need numpy and scipy, so they live with the tests and
stay out of the package's import path.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp

from tunnelnoise.errors import DomainError, RangeError, UsageError
from tunnelnoise.units import ELECTRON_MASS, HBAR

__all__ = [
    "SlicedPotential",
    "transfer_matrix_T",
    "richardson_transmission",
    "adaptive_integral",
    "airy_quadrature",
    "airy_quadrature_scaled",
    "integrate_schrodinger",
]


# --------------------------------------------------------------------------
# Piecewise-constant potentials and the transfer matrix
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SlicedPotential:
    """Piecewise-constant approximation of a one-dimensional potential.

    The interior of the profile is a staircase: slice ``j`` occupies
    ``edges[j] <= x <= edges[j+1]`` at constant potential ``values[j]``.
    The two semi-infinite exterior margins sit at ``v_left`` and
    ``v_right``.  All positions in meters, all energies in joules.
    """

    edges: tuple[float, ...]
    values: tuple[float, ...]
    v_left: float = 0.0
    v_right: float = 0.0

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.values) + 1:
            raise UsageError(
                f"need one more edge than slice values, got {len(self.edges)} "
                f"edges for {len(self.values)} slices"
            )
        if len(self.values) < 1:
            raise UsageError("need at least one slice")
        if any(hi <= lo for lo, hi in zip(self.edges, self.edges[1:])):
            raise UsageError("slice edges must be strictly increasing")

    @property
    def n_slices(self) -> int:
        return len(self.values)

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """Ordered (x, V) pairs: slice midpoints plus exterior margins."""
        span = self.edges[-1] - self.edges[0]
        mids = tuple(
            (0.5 * (lo + hi), v)
            for lo, hi, v in zip(self.edges, self.edges[1:], self.values)
        )
        return (
            (self.edges[0] - 0.5 * span, self.v_left),
            *mids,
            (self.edges[-1] + 0.5 * span, self.v_right),
        )

    @classmethod
    def from_profile(
        cls,
        profile: Callable[[float], float],
        a: float,
        b: float,
        n_slices: int,
        *,
        v_left: float = 0.0,
        v_right: float = 0.0,
        energy_hint: float | None = None,
        cond_rel: float = 1e-6,
    ) -> "SlicedPotential":
        """Midpoint-sample ``profile`` on [a, b] into ``n_slices`` slices.

        When ``energy_hint`` is given, slices that straddle a classical
        turning point (the potential crosses the energy inside the slice)
        or whose midpoint potential comes within the conditioning floor
        of the energy are bisected; any residual degeneracy is removed by
        nudging the slice value off the energy by the floor.  Near-zero
        local wavenumbers would otherwise destroy the conditioning of the
        interface matrices.
        """
        if not b > a:
            raise UsageError(f"need b > a, got a = {a}, b = {b}")
        if n_slices < 1:
            raise UsageError(f"need at least one slice, got {n_slices}")

        grid = np.linspace(a, b, n_slices + 1)
        mids = 0.5 * (grid[:-1] + grid[1:])

        def sample(xs: np.ndarray) -> np.ndarray:
            try:
                out = np.asarray(profile(xs), dtype=float)
                if out.shape != xs.shape:
                    raise TypeError
                return out
            except (TypeError, ValueError):
                return np.array([float(profile(x)) for x in xs])

        vals = sample(mids)
        if energy_hint is None:
            return cls(tuple(grid), tuple(vals), v_left, v_right)

        e = float(energy_hint)
        scale = max(abs(e), float(np.max(np.abs(vals))), abs(v_left), abs(v_right))
        floor = cond_rel * scale
        min_width = (b - a) * 2.0**-24

        def nudged(v: float) -> float:
            if abs(v - e) < floor:
                return e + math.copysign(floor, v - e if v != e else 1.0)
            return v

        edge_vals = sample(grid)
        crossing = (edge_vals[:-1] - e) * (edge_vals[1:] - e) < 0.0
        edges_out: list[float] = [float(grid[0])]
        vals_out: list[float] = []
        for j in range(n_slices):
            if not crossing[j]:
                edges_out.append(float(grid[j + 1]))
                vals_out.append(nudged(float(vals[j])))
                continue
            # Bisect the turning-point slice; only the half that still
            # contains the crossing keeps subdividing, so this stays linear
            # in the depth.  LIFO order emits slices left to right.
            stack = [(float(grid[j]), float(grid[j + 1]))]
            while stack:
                x0, x1 = stack.pop()
                vm = float(profile(0.5 * (x0 + x1)))
                straddles = (float(profile(x0)) - e) * (float(profile(x1)) - e) < 0.0
                if straddles and (x1 - x0) > min_width:
                    xm = 0.5 * (x0 + x1)
                    stack.append((xm, x1))
                    stack.append((x0, xm))
                    continue
                edges_out.append(x1)
                vals_out.append(nudged(vm))
        return cls(tuple(edges_out), tuple(vals_out), v_left, v_right)


def _ordered_matrix_product(mats: np.ndarray) -> np.ndarray:
    """Product M[n-1] @ ... @ M[0] by pairwise reduction (order preserved)."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        pairs = m // 2
        prod = mats[1 : 2 * pairs : 2] @ mats[0 : 2 * pairs : 2]
        if m % 2:
            prod = np.concatenate([prod, mats[-1:]])
        mats = prod
    return mats[0]


def transfer_matrix_T(
    pot: SlicedPotential, energy_j: float, mass: float = ELECTRON_MASS
) -> tuple[float, float]:
    """Transmission and reflection through a sliced potential.

    Matches plane-wave/evanescent solutions across every interface of the
    staircase with the exact 2x2 matrices, forming the total transfer
    matrix by an order-preserving pairwise product.  The exterior-velocity
    weight makes T a flux ratio, so T + R = 1 holds to roundoff for any
    slicing.

    Parameters
    ----------
    pot : SlicedPotential
        Staircase potential, SI units.
    energy_j : float
        Incident energy in joules; must exceed both exterior potentials
        so that the incoming and outgoing channels propagate.
    mass : float
        Particle mass in kg.

    Returns
    -------
    (T, R) : tuple of float
    """
    e = float(energy_j)
    if e <= pot.v_left:
        raise DomainError(
            f"no propagating incident wave: E = {e} J <= left exterior "
            f"potential {pot.v_left} J"
        )
    if e <= pot.v_right:
        raise DomainError(
            f"no open transmission channel: E = {e} J <= right exterior "
            f"potential {pot.v_right} J"
        )

    coef = 2.0 * mass / HBAR**2
    pots = np.concatenate(([pot.v_left], pot.values, [pot.v_right]))
    # Principal square root puts evanescent regions on the +i axis.
    q = np.sqrt((coef * (e - pots)).astype(complex))
    ql, qr = q[:-1], q[1:]
    # Phases referenced to the first interface keep every exponent below
    # |q| * span, far from overflow for the geometries under test.
    x = np.asarray(pot.edges) - pot.edges[0]

    ratio = ql / qr
    hs = 0.5 * (1.0 + ratio)
    hd = 0.5 * (1.0 - ratio)
    mats = np.empty((len(x), 2, 2), dtype=complex)
    mats[:, 0, 0] = hs * np.exp(1j * (ql - qr) * x)
    mats[:, 0, 1] = hd * np.exp(-1j * (ql + qr) * x)
    mats[:, 1, 0] = hd * np.exp(1j * (ql + qr) * x)
    mats[:, 1, 1] = hs * np.exp(-1j * (ql - qr) * x)

    m_total = _ordered_matrix_product(mats)
    q_in = q[0].real
    q_out = q[-1].real
    # No incoming wave from the right: t = det(M)/M22 with det = q_in/q_out.
    t = (q_in / q_out) / m_total[1, 1]
    r = -m_total[1, 0] / m_total[1, 1]
    T = (q_out / q_in) * abs(t) ** 2
    R = abs(r) ** 2
    return float(T), float(R)


def richardson_transmission(
    profile: Callable[[float], float],
    a: float,
    b: float,
    energy_j: float,
    *,
    n_slices: int = 4096,
    v_left: float = 0.0,
    v_right: float = 0.0,
    mass: float = ELECTRON_MASS,
) -> tuple[float, float, float]:
    """Richardson-extrapolated transfer-matrix transmission.

    Runs the staircase at ``n_slices`` and ``2 * n_slices`` (midpoint
    sampling converges at second order) and extrapolates.  Returns
    ``(T, R, err)`` where ``err`` is the extrapolation residual
    ``|T_2n - T_n| / 3``, an upper-bound style estimate of the remaining
    discretization error.
    """
    kwargs = dict(v_left=v_left, v_right=v_right, energy_hint=energy_j)
    pot1 = SlicedPotential.from_profile(profile, a, b, n_slices, **kwargs)
    pot2 = SlicedPotential.from_profile(profile, a, b, 2 * n_slices, **kwargs)
    t1, r1 = transfer_matrix_T(pot1, energy_j, mass)
    t2, r2 = transfer_matrix_T(pot2, energy_j, mass)
    T = t2 + (t2 - t1) / 3.0
    R = r2 + (r2 - r1) / 3.0
    return T, R, abs(t2 - t1) / 3.0


# --------------------------------------------------------------------------
# Adaptive quadrature
# --------------------------------------------------------------------------


def adaptive_integral(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    points: Sequence[float] | None = None,
    epsabs: float = 1e-14,
    epsrel: float = 1e-11,
    limit: int = 300,
) -> tuple[float, float]:
    """QUADPACK adaptive integral of a real integrand, (value, abserr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(
            f, lo, hi, points=points, epsabs=epsabs, epsrel=epsrel, limit=limit
        )
    return float(val), float(err)


# --------------------------------------------------------------------------
# Airy functions by quadrature of integral representations
# --------------------------------------------------------------------------
#
# All four values come from two families of exact representations chosen
# so that the integrands never cancel catastrophically in the regime they
# serve.
#
# Rotated-ray forms, valid for every real z (used for z < 1/2):
#
#   I1(z) = int_0^inf exp(-u^3/3 - z u e^{i pi/3}) du
#   I2(z) = int_0^inf u exp(-u^3/3 - z u e^{i pi/3}) du
#   I3(z) = int_0^inf exp(-u^3/3 + z u) du
#   I4(z) = int_0^inf u exp(-u^3/3 + z u) du
#
#   Ai(z)  =  Im(e^{i pi/3}  I1) / pi
#   Ai'(z) = -Im(e^{2i pi/3} I2) / pi
#   Bi(z)  =  I3 / pi + Im(e^{i pi/6}  conj(I1)) / pi
#   Bi'(z) =  I4 / pi + Im(e^{5i pi/6} conj(I2)) / pi
#
# obtained by rotating the classical real-axis Airy integrals onto the
# ray arg u = pi/6 where the cubic term decays.  For z < 0 the ray
# integrands grow to exp((2/3)(|z|/2)^{3/2}) before decaying, which costs
# roughly that factor times machine epsilon in absolute error; the oracle
# is therefore documented for |z| <= 8 on the negative side (tests use an
# arbitrary-precision referee beyond).
#
# Saddle-point-factored forms for z >= 1/2, cancellation-free at any z:
#
#   Ai(z) e^{zeta}   =  (1/pi) int_0^inf e^{-sqrt(z) s^2} cos(s^3/3) ds
#   Ai'(z) e^{zeta}  = -(1/pi) int_0^inf e^{-sqrt(z) s^2}
#                            [sqrt(z) cos(s^3/3) + s sin(s^3/3)] ds
#   Bi(z) e^{-zeta}  =  (sqrt(z)/pi) int_{-1}^inf e^{-z^{3/2} v^2 (1 + v/3)} dv
#                       + e^{-zeta} Im(e^{i pi/6} conj(I1)) / pi
#   Bi'(z) e^{-zeta} =  (z/pi) int_{-1}^inf (1+v) e^{-z^{3/2} v^2 (1 + v/3)} dv
#                       + e^{-zeta} Im(e^{5i pi/6} conj(I2)) / pi
#
# with zeta = (2/3) z^{3/2}: the Ai contour is shifted through its saddle
# at i sqrt(z), and the dominant Bi piece is recentred on its real saddle
# by t = sqrt(z)(1 + v).

_QUAD_OPTS = dict(epsrel=1e-13, limit=400)
_SADDLE_SPLIT = 0.5
_NEG_ORACLE_LIMIT = -8.0


def _growth_cutoff(gain: float, depth: float = 55.0) -> float:
    """Upper limit where exp(-u^3/3 + gain*u) sits ``depth`` e-folds below
    its peak; fixed point of u^3/3 = depth + peak + gain*u."""
    peak = (2.0 / 3.0) * gain**1.5 if gain > 0.0 else 0.0
    u = (3.0 * (depth + peak)) ** (1.0 / 3.0)
    for _ in range(25):
        u = (3.0 * (depth + peak + max(gain, 0.0) * u)) ** (1.0 / 3.0)
    return u


def _quad_ray(f: Callable[[float], float], gain: float) -> float:
    hi = _growth_cutoff(gain)
    peak_x = math.sqrt(gain) if 0.0 < gain < hi**2 else None
    points = [peak_x] if peak_x else None
    scale = math.exp((2.0 / 3.0) * gain**1.5) if gain > 0.0 else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, 0.0, hi, points=points, epsabs=1e-15 * scale, **_QUAD_OPTS)
    return val


def _ray_integrals(z: float) -> tuple[complex, complex]:
    """I1 and I2 of the rotated-ray representations at real z."""
    gain = -0.5 * z
    freq = 0.5 * math.sqrt(3.0) * z

    def envelope(u: float) -> float:
        return math.exp(-u**3 / 3.0 + gain * u)

    i1 = complex(
        _quad_ray(lambda u: envelope(u) * math.cos(freq * u), gain),
        _quad_ray(lambda u: -envelope(u) * math.sin(freq * u), gain),
    )
    i2 = complex(
        _quad_ray(lambda u: u * envelope(u) * math.cos(freq * u), gain),
        _quad_ray(lambda u: -u * envelope(u) * math.sin(freq * u), gain),
    )
    return i1, i2


_ROT_60 = cmath.exp(1j * math.pi / 3.0)
_ROT_120 = cmath.exp(2j * math.pi / 3.0)
_ROT_30 = cmath.exp(1j * math.pi / 6.0)
_ROT_150 = cmath.exp(5j * math.pi / 6.0)


def _airy_ray(z: float) -> tuple[float, float, float, float]:
    i1, i2 = _ray_integrals(z)
    ai = (_ROT_60 * i1).imag / math.pi
    aip = -(_ROT_120 * i2).imag / math.pi
    i3 = _quad_ray(lambda u: math.exp(-u**3 / 3.0 + z * u), z)
    i4 = _quad_ray(lambda u: u * math.exp(-u**3 / 3.0 + z * u), z)
    bi = i3 / math.pi + (_ROT_30 * i1.conjugate()).imag / math.pi
    bip = i4 / math.pi + (_ROT_150 * i2.conjugate()).imag / math.pi
    return ai, aip, bi, bip


def _airy_saddle_scaled(z: float) -> tuple[float, float, float, float, float]:
    """(Ai e^zeta, Ai' e^zeta, Bi e^-zeta, Bi' e^-zeta, zeta) for z >= 1/2."""
    rz = math.sqrt(z)
    zeta = (2.0 / 3.0) * z * rz

    s_hi = math.sqrt(55.0 / rz)
    ai_s = (
        adaptive_integral(
            lambda s: math.exp(-rz * s * s) * math.cos(s**3 / 3.0),
            0.0,
            s_hi,
            epsabs=1e-16,
            **_QUAD_OPTS,
        )[0]
        / math.pi
    )
    aip_s = (
        -adaptive_integral(
            lambda s: math.exp(-rz * s * s)
            * (rz * math.cos(s**3 / 3.0) + s * math.sin(s**3 / 3.0)),
            0.0,
            s_hi,
            epsabs=1e-16,
            **_QUAD_OPTS,
        )[0]
        / math.pi
    )

    z32 = z * rz
    v_hi = math.sqrt(55.0 / z32)
    for _ in range(30):
        v_hi = math.sqrt(55.0 / (z32 * (1.0 + v_hi / 3.0)))

    def hump(v: float) -> float:
        return math.exp(-z32 * v * v * (1.0 + v / 3.0))

    b1_s = (rz / math.pi) * adaptive_integral(
        hump, -1.0, v_hi, points=[0.0], epsabs=1e-16, **_QUAD_OPTS
    )[0]
    b1p_s = (z / math.pi) * adaptive_integral(
        lambda v: (1.0 + v) * hump(v), -1.0, v_hi, points=[0.0],
        epsabs=1e-16, **_QUAD_OPTS
    )[0]

    i1, i2 = _ray_integrals(z)
    b2 = (_ROT_30 * i1.conjugate()).imag / math.pi
    b2p = (_ROT_150 * i2.conjugate()).imag / math.pi
    damp = math.exp(-zeta) if zeta < 700.0 else 0.0
    return ai_s, aip_s, b1_s + b2 * damp, b1p_s + b2p * damp, zeta


def airy_quadrature(z: float) -> tuple[float, float, float, float]:
    """(Ai, Ai', Bi, Bi') at real z by adaptive quadrature.

    Accuracy is roughly 5e-13 relative for z >= -2 and degrades with the
    oscillation envelope for more negative arguments (about 1e-10 by
    z = -8, the documented limit of this oracle's negative range).
    """
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got {z}")
    if z < _SADDLE_SPLIT:
        return _airy_ray(z)
    ai_s, aip_s, bi_s, bip_s, zeta = _airy_saddle_scaled(z)
    if zeta > 700.0:
        raise RangeError(
            f"unscaled Airy values overflow: exponent (2/3) z^(3/2) = {zeta:.1f} "
            "exceeds 700; use airy_quadrature_scaled"
        )
    grow = math.exp(zeta)
    return ai_s / grow, aip_s / grow, bi_s * grow, bip_s * grow


def airy_quadrature_scaled(
    z: float,
) -> tuple[float, float, float, float, float]:
    """Scaled Airy values at z > 0 by adaptive quadrature.

    Returns ``(Ai e^zeta, Ai' e^zeta, Bi e^-zeta, Bi' e^-zeta, zeta)``
    with ``zeta = (2/3) z^(3/2)``; usable at arbitrarily large z.
    """
    if not z > 0.0:
        raise DomainError(f"scaled evaluation needs z > 0, got {z}")
    if z >= _SADDLE_SPLIT:
        return _airy_saddle_scaled(z)
    ai, aip, bi, bip = _airy_ray(z)
    zeta = (2.0 / 3.0) * z ** 1.5
    grow = math.exp(zeta)
    return ai * grow, aip * grow, bi / grow, bip / grow, zeta


# --------------------------------------------------------------------------
# Bit-level references for the Airy series loops
# --------------------------------------------------------------------------
#
# The runtime reads its Maclaurin and Taylor coefficients from tables.
# These are the loops it had before, which run every recurrence inline;
# the tables must reproduce their results to the last bit, so the tests
# compare the two with ``==``.


def reference_maclaurin_pair(z: float) -> tuple[float, float, float, float]:
    """f, f', g, g' of w'' = z w with the recurrence run inline."""
    if z == 0.0:
        return 1.0, 0.0, 0.0, 1.0
    f, fp = 1.0, 0.0
    g, gp = z, 1.0
    cf, cg = 1.0, 1.0
    z3 = z * z * z
    power_f = 1.0
    power_g = z
    for k in range(40):
        n_f = 3 * k
        n_g = 3 * k + 1
        cf = cf / ((n_f + 3) * (n_f + 2))
        cg = cg / ((n_g + 3) * (n_g + 2))
        power_f *= z3
        power_g *= z3
        term_f = cf * power_f
        term_g = cg * power_g
        f += term_f
        g += term_g
        fp += term_f * (n_f + 3) / z
        gp += term_g * (n_g + 3) / z
        if abs(term_f) < 1e-18 * abs(f) and abs(term_g) < 1e-18 * abs(g):
            break
    return f, fp, g, gp


_TAYLOR_DIVISORS = tuple(float((n + 2) * (n + 1)) for n in range(60))
_TAYLOR_ORDERS = tuple(float(n + 2) for n in range(60))


def reference_taylor_step(
    x0: float, w: float, wp: float, h: float
) -> tuple[float, float]:
    """Advance w'' = x w from (x0, w, w') to x0 + h, running the
    coefficient recurrence (n+2)(n+1) t_{n+2} = x0 t_n + t_{n-1} inside
    the summation loop."""
    t_nm1 = 0.0
    t_n = w
    t_np1 = wp
    sum_w = w
    sum_wp = wp
    hn = 1.0
    for n in range(60):
        t_np2 = (x0 * t_n + t_nm1) / _TAYLOR_DIVISORS[n]
        hn *= h
        term_w = t_np1 * hn
        term_wp = _TAYLOR_ORDERS[n] * t_np2 * hn
        sum_w += term_w
        sum_wp += term_wp
        if abs(term_w) < 1e-17 * abs(sum_w) and abs(term_wp) < 1e-17 * abs(sum_wp):
            break
        t_nm1, t_n, t_np1 = t_n, t_np1, t_np2
    return sum_w, sum_wp


def reference_airy_maclaurin(z: float) -> tuple[float, float, float, float]:
    """Ai, Ai', Bi, Bi' for |z| <= 2 from :func:`reference_maclaurin_pair`."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    sqrt3 = math.sqrt(3.0)
    f, fp, g, gp = reference_maclaurin_pair(z)
    return (
        c1 * f - c2 * g,
        c1 * fp - c2 * gp,
        sqrt3 * (c1 * f + c2 * g),
        sqrt3 * (c1 * fp + c2 * gp),
    )


def reference_anchors(
    seed_at_nine: tuple[float, float],
) -> dict[float, tuple[float, float, float, float]]:
    """Half-integer anchor table on 2..9 and -9..-2, built with
    :func:`reference_taylor_step`.

    ``seed_at_nine`` is (Ai(9), Ai'(9)), where the downward Ai march
    starts; the asymptotic series that supplies it is outside these
    references.  Bi marches upward and Ai downward on the positive side;
    both march downward on the negative side.
    """
    step = 0.5
    anchors: dict[float, list[float]] = {2.0: list(reference_airy_maclaurin(2.0))}
    bi, bip = anchors[2.0][2:]
    for n in range(1, 15):
        bi, bip = reference_taylor_step(2.0 + (n - 1) * step, bi, bip, step)
        anchors[2.0 + n * step] = [math.nan, math.nan, bi, bip]
    ai, aip = seed_at_nine
    anchors[9.0][:2] = [ai, aip]
    for n in range(1, 14):
        ai, aip = reference_taylor_step(9.0 - (n - 1) * step, ai, aip, -step)
        anchors[9.0 - n * step][:2] = [ai, aip]
    ai, aip, bi, bip = reference_airy_maclaurin(-2.0)
    anchors[-2.0] = [ai, aip, bi, bip]
    for n in range(1, 15):
        x = -2.0 - (n - 1) * step
        ai, aip = reference_taylor_step(x, ai, aip, -step)
        bi, bip = reference_taylor_step(x, bi, bip, -step)
        anchors[x - step] = [ai, aip, bi, bip]
    return {x: tuple(values) for x, values in anchors.items()}


# --------------------------------------------------------------------------
# Direct ODE integration of the stationary Schrodinger equation
# --------------------------------------------------------------------------


def integrate_schrodinger(
    profile: Callable[[float], float],
    energy_j: float,
    x0: float,
    psi0: complex,
    dpsi0: complex,
    x_targets: Sequence[float],
    *,
    mass: float = ELECTRON_MASS,
    rtol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """March psi'' = (2m/hbar^2)(V - E) psi from (x0, psi0, psi0') outward.

    ``x_targets`` must be monotone and lie on one side of ``x0`` (the
    integration runs from ``x0`` to the farthest target).  Returns arrays
    of psi and psi' at the targets, in the given order.  DOP853 with pure
    relative control; used to cross-check interior wavefunction samples.
    """
    xs = np.asarray(x_targets, dtype=float)
    if xs.size == 0:
        raise UsageError("need at least one target position")
    span = (x0, xs[-1])
    if xs.size > 1:
        steps = np.diff(xs)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise UsageError("target positions must be strictly monotone")
        if (xs[0] - x0) * (xs[-1] - x0) < 0:
            raise UsageError("targets must lie on one side of the start point")

    coef = 2.0 * mass / HBAR**2

    def rhs(x: float, y: np.ndarray) -> list[complex]:
        return [y[1], coef * (profile(x) - energy_j) * y[0]]

    sol = solve_ivp(
        rhs,
        span,
        np.array([psi0, dpsi0], dtype=complex),
        t_eval=xs,
        method="DOP853",
        rtol=rtol,
        atol=0.0,
        dense_output=False,
    )
    if not sol.success:
        raise DomainError(f"ODE integration failed: {sol.message}")
    return sol.y[0], sol.y[1]
