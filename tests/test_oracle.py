import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    SlicedPotential,
    adaptive_integral,
    airy_quadrature,
    airy_quadrature_scaled,
    integrate_schrodinger,
    richardson_transmission,
    transfer_matrix_T,
)
from tunnelnoise.errors import DomainError, UsageError
from tunnelnoise.uncertainty import finite_diff
from tunnelnoise.units import ELECTRON_MASS, EV, HBAR, NM

mpmath.mp.dps = 40

M = ELECTRON_MASS


def rect_transmission_closed(e_j, v0_j, width_m):
    """Textbook rectangular-barrier transmission, written independently."""
    k = math.sqrt(2 * M * e_j) / HBAR
    k0 = math.sqrt(2 * M * (v0_j - e_j)) / HBAR
    u = k0 * width_m
    num = 4 * k * k * k0 * k0
    return num / (num * math.cosh(u) ** 2 + (k0 * k0 - k * k) ** 2 * math.sinh(u) ** 2)


# --------------------------------------------------------------------------
# Airy quadrature vs an arbitrary-precision referee
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "z",
    [-8.0, -6.5, -5.0, -3.3, -2.3381074105, -1.0, -0.2, 0.0, 0.25, 0.5,
     0.75, 1.0, 2.0, 3.5, 5.0, 7.0, 10.0, 15.0, 30.0],
)
def test_airy_quadrature_against_mpmath(z):
    vals = airy_quadrature(z)
    refs = [
        float(mpmath.airyai(z)),
        float(mpmath.airyai(z, 1)),
        float(mpmath.airybi(z)),
        float(mpmath.airybi(z, 1)),
    ]
    # Absolute floor covers proximity to zeros of the oscillatory branch.
    scale = max(abs(r) for r in refs)
    for got, ref in zip(vals, refs):
        assert abs(got - ref) <= 1e-11 * max(abs(ref), 1e-3 * scale)


@pytest.mark.parametrize("z", [0.3, 0.5, 1.0, 5.0, 20.0, 50.0, 300.0])
def test_airy_quadrature_scaled_against_mpmath(z):
    ai_s, aip_s, bi_s, bip_s, zeta = airy_quadrature_scaled(z)
    zm = mpmath.mpf(z)
    zeta_m = mpmath.mpf(2) / 3 * zm ** mpmath.mpf(1.5)
    assert zeta == pytest.approx(float(zeta_m), rel=1e-14)
    refs = [
        float(mpmath.airyai(zm) * mpmath.exp(zeta_m)),
        float(mpmath.airyai(zm, 1) * mpmath.exp(zeta_m)),
        float(mpmath.airybi(zm) * mpmath.exp(-zeta_m)),
        float(mpmath.airybi(zm, 1) * mpmath.exp(-zeta_m)),
    ]
    for got, ref in zip((ai_s, aip_s, bi_s, bip_s), refs):
        assert got == pytest.approx(ref, rel=1e-11)


def test_airy_quadrature_wronskian_spot_checks():
    for z in (-7.3, -2.0, 0.1, 4.0, 12.0):
        ai, aip, bi, bip = airy_quadrature(z)
        assert ai * bip - aip * bi == pytest.approx(1.0 / math.pi, rel=1e-11)


def test_airy_quadrature_guards():
    with pytest.raises(DomainError):
        airy_quadrature(math.nan)
    with pytest.raises(DomainError):
        airy_quadrature_scaled(-1.0)
    with pytest.raises(DomainError) as exc:
        airy_quadrature(150.0)
    assert "700" in str(exc.value)


# --------------------------------------------------------------------------
# Transfer matrix
# --------------------------------------------------------------------------


def test_single_slice_reproduces_rectangular_closed_form():
    e, v0, width = 1.0 * EV, 5.0 * EV, 0.5 * NM
    pot = SlicedPotential(edges=(0.0, width), values=(v0,))
    T, R = transfer_matrix_T(pot, e)
    assert T == pytest.approx(rect_transmission_closed(e, v0, width), rel=1e-12)
    assert T + R == pytest.approx(1.0, abs=1e-12)


def test_free_propagation_is_transparent():
    pot = SlicedPotential(edges=(0.0, 1.0 * NM), values=(0.0,))
    T, R = transfer_matrix_T(pot, 1.0 * EV)
    assert T == pytest.approx(1.0, abs=1e-14)
    assert R == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=9.0),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.1, max_value=1.5),
    st.integers(min_value=1, max_value=400),
)
def test_unitarity_independent_of_slice_count(v0_ev, frac, gap_nm, n):
    v0 = v0_ev * EV
    e = frac * v0
    pot = SlicedPotential.from_profile(
        lambda x: np.full_like(x, v0), 0.0, gap_nm * NM, n, energy_hint=e
    )
    T, R = transfer_matrix_T(pot, e)
    assert abs(T + R - 1.0) <= 1e-10


def test_self_convergence_order_on_smooth_profile():
    # Midpoint staircase error must shrink at second order or better.
    v0, phi, width = 5.0 * EV, 5.0 * EV, 1.0 * NM
    e = 1.0 * EV
    prof = lambda x: v0 - phi * (x / width)
    ref, _, _ = richardson_transmission(
        prof, 0.0, width, e, v_right=-phi, n_slices=16384
    )
    errs = []
    for n in (500, 1000, 2000, 4000):
        pot = SlicedPotential.from_profile(
            prof, 0.0, width, n, v_right=-phi, energy_hint=e
        )
        T, _ = transfer_matrix_T(pot, e)
        errs.append(abs(T - ref))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert min(orders) >= 2.0 - 0.2


def test_richardson_error_estimate_bounds_truth():
    v0, phi, width = 5.0 * EV, 3.0 * EV, 0.8 * NM
    e = 1.5 * EV
    prof = lambda x: v0 - phi * (x / width)
    ref, _, _ = richardson_transmission(
        prof, 0.0, width, e, v_right=-phi, n_slices=32768
    )
    T, R, err = richardson_transmission(
        prof, 0.0, width, e, v_right=-phi, n_slices=2048
    )
    assert abs(T - ref) <= 10.0 * err
    assert abs(T + R - 1.0) <= 1e-10


def test_turning_point_slices_are_bisected():
    # Bias larger than V0 - E puts a classical turning point inside the gap.
    v0, phi, width = 5.0 * EV, 5.0 * EV, 1.0 * NM
    e = 1.0 * EV
    prof = lambda x: v0 - phi * (x / width)
    pot = SlicedPotential.from_profile(
        prof, 0.0, width, 64, v_right=-phi, energy_hint=e
    )
    assert pot.n_slices > 64
    floor = 1e-6 * max(e, v0, phi)
    # One-ulp slack: the nudge target e + floor itself rounds in float.
    assert all(abs(v - e) >= floor * (1 - 1e-9) for v in pot.values)
    T, R = transfer_matrix_T(pot, e)
    assert abs(T + R - 1.0) <= 1e-10


def test_sliced_potential_input_validation():
    with pytest.raises(UsageError):
        SlicedPotential(edges=(0.0, 1.0, 0.5), values=(1.0, 2.0))
    with pytest.raises(UsageError):
        SlicedPotential(edges=(0.0, 1.0), values=(1.0, 2.0))
    with pytest.raises(UsageError):
        SlicedPotential.from_profile(lambda x: 0.0, 1.0, 0.0, 4)
    pot = SlicedPotential(edges=(0.0, 1e-9), values=(5.0 * EV,))
    with pytest.raises(DomainError):
        transfer_matrix_T(pot, -1.0 * EV)


def test_samples_cover_gap_with_margins():
    pot = SlicedPotential.from_profile(
        lambda x: np.full_like(x, 2.0 * EV), 0.0, 1.0 * NM, 8, v_right=-1.0 * EV
    )
    xs = [x for x, _ in pot.samples]
    assert xs == sorted(xs)
    assert xs[0] < 0.0 and xs[-1] > 1.0 * NM
    assert pot.samples[0][1] == 0.0
    assert pot.samples[-1][1] == -1.0 * EV


# --------------------------------------------------------------------------
# Finite differences
# --------------------------------------------------------------------------


def test_finite_diff_polynomial_exactness():
    val, err = finite_diff(lambda x: x * x, 3.0)
    assert val == pytest.approx(6.0, abs=1e-10)
    assert err < 1e-9


def test_finite_diff_matches_symbolic_transmission_derivative():
    e, v0 = 1.0 * EV, 5.0 * EV
    width = 0.5 * NM
    k = math.sqrt(2 * M * e) / HBAR
    k0 = math.sqrt(2 * M * (v0 - e)) / HBAR
    u = k0 * width
    num = 4 * k * k * k0 * k0
    g = num * math.cosh(u) ** 2 + (k0 * k0 - k * k) ** 2 * math.sinh(u) ** 2
    dg = (num + (k0 * k0 - k * k) ** 2) * 2.0 * math.sinh(u) * math.cosh(u) * k0
    expected = -num * dg / (g * g)

    val, err = finite_diff(
        lambda w: rect_transmission_closed(e, v0, w), width, rel_step=1e-2
    )
    assert val == pytest.approx(expected, rel=1e-8)
    assert err <= 1e-6 * abs(expected)


def test_finite_diff_error_estimate_senses_noise_floor():
    rng = np.random.default_rng(11)

    def noisy_sin(x):
        return math.sin(x) + 1e-13 * rng.uniform(-1.0, 1.0)

    val, err = finite_diff(noisy_sin, 0.7, rel_step=1e-2)
    true_err = abs(val - math.cos(0.7))
    # The estimate must not pretend to beat the injected noise.
    assert err >= 1e-13
    assert true_err <= 50.0 * err


def test_finite_diff_rejects_bad_step():
    with pytest.raises(UsageError):
        finite_diff(math.sin, 1.0, rel_step=0.0)


# --------------------------------------------------------------------------
# Quadrature wrapper and ODE integration
# --------------------------------------------------------------------------


def test_adaptive_integral_basics():
    val, err = adaptive_integral(lambda x: x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert err < 1e-10


def test_integrate_schrodinger_free_plane_wave():
    e = 1.0 * EV
    k = math.sqrt(2 * M * e) / HBAR
    xs = np.linspace(0.2 * NM, 1.0 * NM, 7)
    psi, dpsi = integrate_schrodinger(
        lambda x: 0.0, e, 0.0, 1.0 + 0.0j, 1j * k, xs
    )
    expected = np.exp(1j * k * xs)
    np.testing.assert_allclose(psi, expected, rtol=1e-9)
    np.testing.assert_allclose(dpsi, 1j * k * expected, rtol=1e-9)


def test_integrate_schrodinger_decay_under_barrier():
    e, v0 = 1.0 * EV, 5.0 * EV
    k0 = math.sqrt(2 * M * (v0 - e)) / HBAR
    xs = np.array([0.1 * NM, 0.3 * NM])
    psi, dpsi = integrate_schrodinger(
        lambda x: v0, e, 0.0, 1.0 + 0.0j, -k0 + 0.0j, xs
    )
    np.testing.assert_allclose(psi, np.exp(-k0 * xs), rtol=1e-9)
    np.testing.assert_allclose(dpsi, -k0 * np.exp(-k0 * xs), rtol=1e-9)


def test_integrate_schrodinger_validates_targets():
    with pytest.raises(UsageError):
        integrate_schrodinger(lambda x: 0.0, EV, 0.0, 1.0, 0.0, [])
    with pytest.raises(UsageError):
        integrate_schrodinger(
            lambda x: 0.0, EV, 0.0, 1.0, 0.0, [1.0 * NM, 0.5 * NM, 0.7 * NM]
        )
    with pytest.raises(UsageError):
        integrate_schrodinger(
            lambda x: 0.0, EV, 0.5 * NM, 1.0, 0.0, [0.4 * NM, 0.6 * NM]
        )
