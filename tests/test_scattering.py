"""Tests for the barrier scattering solvers.

The analytic solvers are accepted against three independent references:
the many-slice transfer-matrix oracle, direct ODE integration through
the barrier interior, and an unscaled transcription of the eliminated
matching system solved as a plain 4x4 linear system.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import integrate_schrodinger, richardson_transmission
from tunnelnoise.airy import airy_all
from tunnelnoise.errors import DomainError, UsageError
from tunnelnoise.scattering import (
    PHI_DISPATCH_EV,
    BarrierSpec,
    Family,
    ScatteringSolution,
    Side,
    eval_wavefunction,
    solve,
    solve_asymmetric,
    solve_linear_field,
    solve_symmetric,
)
from tunnelnoise.units import ELECTRON_MASS, HBAR, Energy, Length


def random_spec(rng, family):
    v0 = rng.uniform(1.0, 10.0)
    gap = rng.uniform(0.1, 2.0)
    if family is Family.SYMMETRIC_RECT:
        return BarrierSpec.symmetric(v0, gap)
    phi = rng.uniform(0.0, 5.0)
    if family is Family.ASYMMETRIC_RECT:
        return BarrierSpec.asymmetric(v0, phi, gap)
    return BarrierSpec.linear_field(v0, phi, gap)


def random_energy(rng, spec):
    return Energy.from_ev(rng.uniform(0.05, 0.95) * spec.V0.ev)


def relative_gap(x, y):
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def test_unitarity_over_randomized_grid():
    rng = np.random.default_rng(20260814)
    for family in Family:
        for _ in range(80):
            spec = random_spec(rng, family)
            sol = solve(random_energy(rng, spec), spec)
            assert abs(sol.T + sol.R - 1.0) < 1e-10
            assert 0.0 <= sol.T <= 1.0
            assert 0.0 <= sol.R <= 1.0


def test_continuity_at_both_edges():
    cases = [
        (BarrierSpec.symmetric(5.0, 0.5), 1.0),
        (BarrierSpec.asymmetric(5.0, 2.0, 0.5), 1.0),
        (BarrierSpec.linear_field(5.0, 2.0, 1.0), 1.0),
        (BarrierSpec.linear_field(5.0, 4.5, 0.8), 1.0),
        # Weak tilt: the Airy arguments exceed 1e5 and the scaling
        # exponents reach 1e7, stressing the exponent bookkeeping.
        (BarrierSpec.linear_field(5.0, 1e-6, 1.0), 1.0),
        (BarrierSpec.symmetric(8.0, 1.7), 2.0),
    ]
    for spec, e_ev in cases:
        sol = solve(Energy.from_ev(e_ev), spec)
        for edge in (0.0, spec.gap.meters):
            left = eval_wavefunction(sol, edge, side=Side.LEFT_LIMIT)
            right = eval_wavefunction(sol, edge, side=Side.RIGHT_LIMIT)
            assert relative_gap(left.psi, right.psi) < 1e-9
            assert relative_gap(left.d1, right.d1) < 1e-9


def test_symmetric_transmission_closed_form():
    # |t|^2 must reproduce the textbook expression with the squared
    # interference prefactor, T = 1/(1 + ((k^2+k0^2)^2/(4k^2k0^2)) sinh^2(k0 l)).
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = random_spec(rng, Family.SYMMETRIC_RECT)
        energy = random_energy(rng, spec)
        sol = solve_symmetric(energy, spec)
        k = sol.k
        k0 = sol.k0
        u = k0 * spec.gap.meters
        if u > 300.0:
            continue  # sinh overflow territory for the reference form
        pref = (k * k + k0 * k0) ** 2 / (4.0 * k * k * k0 * k0)
        closed = 1.0 / (1.0 + pref * math.sinh(u) ** 2)
        assert relative_gap(abs(sol.t) ** 2, closed) < 1e-12
        assert relative_gap(sol.T, closed) < 1e-12


@pytest.mark.parametrize("family", list(Family))
def test_transmission_matches_transfer_matrix_oracle(family):
    rng = np.random.default_rng(hash(family.value) % 2**32)
    checked = 0
    while checked < 12:
        spec = random_spec(rng, family)
        energy = random_energy(rng, spec)
        sol = solve(energy, spec)
        # The oracle works in plain arithmetic; skip opacities whose T
        # it cannot represent meaningfully.
        if sol.T < 1e-60:
            continue
        n = 16 if family is not Family.LINEAR_FIELD else 4096
        T_ref, _, _ = richardson_transmission(
            spec.potential,
            0.0,
            spec.gap.meters,
            energy.joules,
            n_slices=n,
            v_left=0.0,
            v_right=spec.potential(spec.gap.meters + 1.0),
        )
        assert relative_gap(sol.T, T_ref) < 1e-8
        checked += 1


def test_zero_bias_limit_approaches_symmetric():
    spec = BarrierSpec.linear_field(5.0, 1e-6, 1.0)
    tilted = solve_linear_field(Energy.from_ev(1.0), spec)
    flat = solve_symmetric(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 1.0))
    assert relative_gap(tilted.T, flat.T) < 1e-4


def test_tiny_bias_dispatches_to_rectangular_core():
    spec = BarrierSpec.linear_field(5.0, PHI_DISPATCH_EV / 10.0, 1.0)
    sol = solve_linear_field(Energy.from_ev(1.0), spec)
    assert sol.barrier.family is Family.LINEAR_FIELD
    rect = solve_asymmetric(
        Energy.from_ev(1.0),
        BarrierSpec.asymmetric(5.0, PHI_DISPATCH_EV / 10.0, 1.0),
    )
    assert relative_gap(sol.T, rect.T) < 1e-12
    assert relative_gap(sol.t, rect.t) < 1e-12


def test_vanishing_barrier_transmits():
    sol = solve_symmetric(
        Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 1e-5)
    )
    assert 1.0 - sol.T < 1e-6
    assert abs(sol.r) < 1e-3


def test_opaque_barrier_asymptotics():
    # At k0 l = 10 the single-exponential estimate is good to ~1%.
    v0, e_ev = 5.0, 1.0
    k0 = math.sqrt(2.0 * ELECTRON_MASS * (v0 - e_ev) * 1.602176634e-19) / HBAR
    gap_nm = 10.0 / k0 / 1e-9
    sol = solve_symmetric(Energy.from_ev(e_ev), BarrierSpec.symmetric(v0, gap_nm))
    k = sol.k
    estimate = (
        16.0 * k**2 * k0**2 / (k**2 + k0**2) ** 2 * math.exp(-2.0 * k0 * sol.barrier.gap.meters)
    )
    assert relative_gap(sol.T, estimate) < 0.01


def test_zero_drop_asymmetric_reduces_to_symmetric():
    energy = Energy.from_ev(1.3)
    asym = solve_asymmetric(energy, BarrierSpec.asymmetric(6.0, 0.0, 0.7))
    sym = solve_symmetric(energy, BarrierSpec.symmetric(6.0, 0.7))
    assert asym.t == sym.t
    assert asym.r == sym.r
    assert relative_gap(asym.T, sym.T) == 0.0


def test_tilted_solver_matches_unscaled_matching_system():
    # Re-derive everything by solving the raw 4x4 matching system in
    # plain (unscaled) Airy values; viable only at moderate opacity.
    energy = Energy.from_ev(1.0)
    spec = BarrierSpec.linear_field(5.0, 2.0, 0.5)
    sol = solve_linear_field(energy, spec)
    e, v0, phi = energy.joules, spec.V0.joules, spec.phi.joules
    a, b = 0.0, spec.gap.meters
    length = spec.gap.meters
    k = sol.k
    kb = sol.k_bar
    kappa = ((2.0 * ELECTRON_MASS / HBAR**2) * phi / length) ** (1.0 / 3.0)
    a_bar = kappa * (v0 - e) * length / phi
    b_bar = kappa * length * ((v0 - e) - phi) / phi
    qa, qb = airy_all(a_bar), airy_all(b_bar)
    ea, eb = cmath.exp(1j * k * a), cmath.exp(1j * kb * b)
    m = np.array(
        [
            [-1.0 / ea, qa.ai, qa.bi, 0.0],
            [1j * k / ea, -kappa * qa.ai_prime, -kappa * qa.bi_prime, 0.0],
            [0.0, qb.ai, qb.bi, -eb],
            [0.0, -kappa * qb.ai_prime, -kappa * qb.bi_prime, -1j * kb * eb],
        ],
        dtype=complex,
    )
    rhs = np.array([ea, 1j * k * ea, 0.0, 0.0], dtype=complex)
    r_ref, ca_ref, cb_ref, t_ref = np.linalg.solve(m, rhs)
    assert relative_gap(sol.r, r_ref) < 1e-10
    assert relative_gap(sol.t, t_ref) < 1e-10
    assert relative_gap(sol.c_plus, ca_ref) < 1e-10
    assert relative_gap(sol.c_minus, cb_ref) < 1e-10


def test_tilted_solver_matches_handwritten_closed_forms():
    # Closed forms of the eliminated system, written out directly in
    # unscaled Airy values; kept as a loose independent transcription
    # check (the solver itself works in scaled arithmetic).
    energy = Energy.from_ev(1.2)
    spec = BarrierSpec.linear_field(4.0, 1.5, 0.6)
    sol = solve_linear_field(energy, spec)
    e, v0, phi = energy.joules, spec.V0.joules, spec.phi.joules
    a, b = 0.0, spec.gap.meters
    length = spec.gap.meters
    k = sol.k
    kb = sol.k_bar
    kappa = ((2.0 * ELECTRON_MASS / HBAR**2) * phi / length) ** (1.0 / 3.0)
    qa = airy_all(kappa * (v0 - e) * length / phi)
    qb = airy_all(kappa * length * ((v0 - e) - phi) / phi)
    f_hat = (kappa * qa.ai_prime - 1j * k * qa.ai) * (
        kappa * qb.bi_prime + 1j * kb * qb.bi
    ) - (kappa * qa.bi_prime - 1j * k * qa.bi) * (
        kappa * qb.ai_prime + 1j * kb * qb.ai
    )
    t_ref = -(2j * k / math.pi) * kappa * cmath.exp(1j * (k * a - kb * b)) / f_hat
    c_plus_ref = (
        math.pi
        * t_ref
        * cmath.exp(1j * kb * b)
        * (qb.bi_prime + 1j * kb * qb.bi / kappa)
    )
    c_minus_ref = (
        -math.pi
        * t_ref
        * cmath.exp(1j * kb * b)
        * (qb.ai_prime + 1j * kb * qb.ai / kappa)
    )
    r_ref = (
        -1j
        / (2.0 * k)
        * cmath.exp(1j * k * a)
        * (
            1j * k * (c_plus_ref * qa.ai + c_minus_ref * qa.bi)
            + kappa * (c_plus_ref * qa.ai_prime + c_minus_ref * qa.bi_prime)
        )
    )
    assert relative_gap(sol.t, t_ref) < 1e-8
    assert relative_gap(sol.r, r_ref) < 1e-8
    assert relative_gap(sol.c_plus, c_plus_ref) < 1e-8
    assert relative_gap(sol.c_minus, c_minus_ref) < 1e-8


def test_interior_matches_ode_integration():
    energy = Energy.from_ev(4.5)
    spec = BarrierSpec.linear_field(5.0, 2.0, 0.3)
    sol = solve_linear_field(energy, spec)
    a, b = 0.0, spec.gap.meters
    start = eval_wavefunction(sol, a, side=Side.RIGHT_LIMIT)
    xs = np.linspace(a, b, 9)[1:]
    psi_ref, dpsi_ref = integrate_schrodinger(
        spec.potential, energy.joules, a, start.psi, start.d1, xs
    )
    for x, p_ref, d_ref in zip(xs, psi_ref, dpsi_ref):
        sample = eval_wavefunction(sol, x)
        assert relative_gap(sample.psi, p_ref) < 1e-9
        assert relative_gap(sample.d1, d_ref) < 1e-9


def test_exterior_wave_forms():
    sol = solve_asymmetric(Energy.from_ev(1.0), BarrierSpec.asymmetric(5.0, 1.5, 0.6))
    k = sol.k
    kb = sol.k_bar
    for x in (-3e-9, -1e-10):
        sample = eval_wavefunction(sol, x)
        standing = (1.0 + sol.R + 2.0 * (sol.r * cmath.exp(-2j * k * x)).real) / (
            2.0 * math.pi
        )
        assert relative_gap(abs(sample.psi) ** 2, standing) < 1e-12
        assert relative_gap(sample.d2, -k * k * sample.psi) < 1e-12
        assert relative_gap(sample.d3, -k * k * sample.d1) < 1e-12
    for x in (1e-9, 5e-9):
        sample = eval_wavefunction(sol, x)
        assert relative_gap(abs(sample.psi) ** 2, abs(sol.t) ** 2 / (2 * math.pi)) < 1e-12
        assert relative_gap(sample.d2, -kb * kb * sample.psi) < 1e-12
        assert relative_gap(sample.d3, -kb * kb * sample.d1) < 1e-12


def test_interior_coefficients_reconstruct_wavefunction():
    energy = Energy.from_ev(2.0)
    rect = solve_asymmetric(energy, BarrierSpec.asymmetric(5.0, 1.0, 0.4))
    k0 = rect.k0
    for x in (0.1e-9, 0.25e-9):
        sample = eval_wavefunction(rect, x)
        direct = (
            rect.c_plus * math.exp(k0 * x) + rect.c_minus * math.exp(-k0 * x)
        ) / math.sqrt(2 * math.pi)
        assert relative_gap(sample.psi, direct) < 1e-10

    tilted = solve_linear_field(energy, BarrierSpec.linear_field(5.0, 2.0, 0.5))
    spec = tilted.barrier
    kappa = (
        (2.0 * ELECTRON_MASS / HBAR**2) * spec.phi.joules / spec.gap.meters
    ) ** (1.0 / 3.0)
    beta = (spec.V0.joules - energy.joules) * spec.gap.meters / spec.phi.joules
    for x in (0.15e-9, 0.35e-9):
        sample = eval_wavefunction(tilted, x)
        quad = airy_all(kappa * (beta - x))
        direct = (tilted.c_plus * quad.ai + tilted.c_minus * quad.bi) / math.sqrt(
            2 * math.pi
        )
        assert relative_gap(sample.psi, direct) < 1e-10


def test_extreme_opacity_saturates_without_error():
    sol = solve_symmetric(Energy.from_ev(1.0), BarrierSpec.symmetric(10.0, 100.0))
    assert sol.T == 0.0
    assert abs(sol.R - 1.0) < 1e-10
    assert sol.t == 0
    mid = eval_wavefunction(sol, 50e-9)
    assert math.isfinite(mid.psi.real) and math.isfinite(mid.psi.imag)

    tilted = solve_linear_field(Energy.from_ev(1.0), BarrierSpec.linear_field(10.0, 3.0, 80.0))
    assert tilted.T == 0.0
    assert abs(tilted.R - 1.0) < 1e-10
    sample = eval_wavefunction(tilted, 40e-9)
    assert math.isfinite(sample.psi.real) and math.isfinite(sample.psi.imag)


def test_second_derivative_jumps_track_the_potential_steps():
    coef = 2.0 * ELECTRON_MASS / HBAR**2
    energy = Energy.from_ev(1.0)
    for spec in (
        BarrierSpec.symmetric(5.0, 0.5),
        BarrierSpec.asymmetric(5.0, 2.0, 0.5),
        BarrierSpec.linear_field(5.0, 2.0, 0.5),
    ):
        sol = solve(energy, spec)
        a, b = 0.0, spec.gap.meters
        at_a = eval_wavefunction(sol, a, side=Side.LEFT_LIMIT)
        in_a = eval_wavefunction(sol, a, side=Side.RIGHT_LIMIT)
        jump_a = in_a.d2 - at_a.d2
        assert relative_gap(jump_a, coef * spec.V0.joules * at_a.psi) < 1e-10
        in_b = eval_wavefunction(sol, b, side=Side.LEFT_LIMIT)
        at_b = eval_wavefunction(sol, b, side=Side.RIGHT_LIMIT)
        jump_b = at_b.d2 - in_b.d2
        v_inside_b = spec.potential(b)
        v_outside_b = spec.potential(b + 1.0)
        expected = coef * (v_outside_b - v_inside_b) * at_b.psi
        assert relative_gap(jump_b, expected) < 1e-10


def test_incident_flux_and_wavenumbers():
    energy = Energy.from_ev(1.0)
    sol = solve_symmetric(energy, BarrierSpec.symmetric(5.0, 0.5))
    k = sol.k
    assert relative_gap(sol.incident_flux, HBAR * k / (2 * math.pi * ELECTRON_MASS)) == 0.0
    assert sol.k_bar == k
    coef = 2.0 * ELECTRON_MASS / HBAR**2
    assert relative_gap(k**2 + sol.k0**2, coef * sol.barrier.V0.joules) < 1e-12

    asym = solve_asymmetric(energy, BarrierSpec.asymmetric(5.0, 2.0, 0.5))
    assert relative_gap(asym.k_bar**2, coef * (energy.joules + asym.barrier.phi.joules)) < 1e-12


def test_eval_accepts_length_positions():
    sol = solve_symmetric(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    via_float = eval_wavefunction(sol, Length.from_nm(0.2).meters)
    via_length = eval_wavefunction(sol, Length.from_nm(0.2))
    assert via_float.psi == via_length.psi


def test_validation_errors():
    with pytest.raises(DomainError):
        BarrierSpec.symmetric(5.0, -0.5)
    with pytest.raises(DomainError):
        BarrierSpec.symmetric(-5.0, 0.5)
    with pytest.raises(DomainError):
        BarrierSpec.asymmetric(5.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        BarrierSpec(Family.SYMMETRIC_RECT, Energy.from_ev(5.0), Energy.from_ev(1.0), Length.from_nm(0.5))
    with pytest.raises(UsageError):
        solve_symmetric(Energy.from_ev(1.0), BarrierSpec.asymmetric(5.0, 1.0, 0.5))
    with pytest.raises(UsageError):
        solve_linear_field(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    with pytest.raises(DomainError):
        solve_symmetric(Energy.from_ev(6.0), BarrierSpec.symmetric(5.0, 0.5))
    with pytest.raises(DomainError):
        solve_symmetric(Energy.from_ev(-1.0), BarrierSpec.symmetric(5.0, 0.5))
    sol = solve_symmetric(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    with pytest.raises(UsageError):
        eval_wavefunction(sol, 0.0, side="middle")
    with pytest.raises(DomainError):
        eval_wavefunction(sol, math.nan)


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(list(Family)),
    v0=st.floats(1.0, 10.0),
    frac=st.floats(0.05, 0.95),
    gap=st.floats(0.1, 2.0),
    phi=st.floats(0.0, 5.0),
)
def test_unitarity_property(family, v0, frac, gap, phi):
    if family is Family.SYMMETRIC_RECT:
        spec = BarrierSpec.symmetric(v0, gap)
    elif family is Family.ASYMMETRIC_RECT:
        spec = BarrierSpec.asymmetric(v0, phi, gap)
    else:
        spec = BarrierSpec.linear_field(v0, phi, gap)
    sol = solve(Energy.from_ev(frac * v0), spec)
    assert isinstance(sol, ScatteringSolution)
    assert abs(sol.T + sol.R - 1.0) < 1e-10
    edge = 0.0
    left = eval_wavefunction(sol, edge, side=Side.LEFT_LIMIT)
    right = eval_wavefunction(sol, edge, side=Side.RIGHT_LIMIT)
    assert relative_gap(left.psi, right.psi) < 1e-9
