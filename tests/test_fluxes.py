"""Tests for the transport bookkeeping: densities, currents, transferred
fluxes, and the step-discontinuity relations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracle import adaptive_integral
from tunnelnoise.errors import UsageError
from tunnelnoise.fluxes import (
    FluxReport,
    JumpResiduals,
    Side,
    currents_at,
    jump_residuals,
    transferred_fluxes,
)
from tunnelnoise.scattering import BarrierSpec, Family, solve
from tunnelnoise.units import ELECTRON_MASS, HBAR, Energy, Length

TWO_PI = 2.0 * math.pi


def random_case(rng, family: Family):
    v0 = rng.uniform(2.0, 5.0)
    e = rng.uniform(0.4, 0.9) * v0
    gap = rng.uniform(0.1, 0.3)
    if family is Family.SYMMETRIC_RECT:
        spec = BarrierSpec.symmetric(v0, gap)
    elif family is Family.ASYMMETRIC_RECT:
        spec = BarrierSpec.asymmetric(v0, rng.uniform(0.2, 2.0), gap)
    else:
        spec = BarrierSpec.linear_field(v0, rng.uniform(0.2, 2.0), gap)
    return solve(Energy.from_ev(e), spec)


def region_grid(sol, n=100):
    a = 0.0
    b = sol.barrier.gap.meters
    width = b - a
    return np.linspace(a - 0.5 * width, b + 0.5 * width, n)


@pytest.mark.parametrize(
    "family", [Family.SYMMETRIC_RECT, Family.ASYMMETRIC_RECT, Family.LINEAR_FIELD]
)
def test_probability_current_is_constant_everywhere(family):
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        sol = random_case(rng, family)
        js = np.array([currents_at(sol, float(x)).j for x in region_grid(sol)])
        spread = (js.max() - js.min()) / np.abs(js).max()
        assert spread < 1e-12


def test_left_exterior_matches_standing_wave_closed_forms():
    sol = solve(Energy.from_ev(1.7), BarrierSpec.asymmetric(4.0, 1.1, 0.35))
    k = sol.k
    r_sq = abs(sol.r) ** 2
    for x_nm in (-0.8, -0.25, -0.04):
        x = Length.from_nm(x_nm)
        rep = currents_at(sol, x)
        phase = complex(math.cos(k * x.meters), math.sin(k * x.meters))
        rho_ref = abs(phase + sol.r * phase.conjugate()) ** 2 / TWO_PI
        assert rep.rho == pytest.approx(rho_ref, rel=1e-12)
        assert rep.j == pytest.approx(
            HBAR * k / ELECTRON_MASS * (1.0 - r_sq) / TWO_PI, rel=1e-12
        )
        assert rep.j_p == pytest.approx(
            HBAR**2 * k**2 / ELECTRON_MASS * (1.0 + r_sq) / TWO_PI, rel=1e-12
        )
        assert rep.j_p2 == pytest.approx(
            HBAR**3 * k**3 / ELECTRON_MASS * (1.0 - r_sq) / TWO_PI, rel=1e-12
        )
        assert rep.rho_p == pytest.approx(ELECTRON_MASS * rep.j, rel=1e-12)


def test_right_exterior_matches_plane_wave_closed_forms():
    sol = solve(Energy.from_ev(1.7), BarrierSpec.linear_field(4.0, 1.1, 0.35))
    k_bar = sol.k_bar
    t_sq = abs(sol.t) ** 2
    for x_nm in (0.35, 0.5, 2.0):
        rep = currents_at(sol, Length.from_nm(x_nm))
        assert rep.rho == pytest.approx(t_sq / TWO_PI, rel=1e-12)
        assert rep.j == pytest.approx(
            HBAR * k_bar / ELECTRON_MASS * t_sq / TWO_PI, rel=1e-12
        )
        assert rep.j_p == pytest.approx(
            HBAR**2 * k_bar**2 / ELECTRON_MASS * t_sq / TWO_PI, rel=1e-12
        )
        assert rep.j_p2 == pytest.approx(
            HBAR**3 * k_bar**3 / ELECTRON_MASS * t_sq / TWO_PI, rel=1e-12
        )
        assert rep.rho_p2 == pytest.approx(
            HBAR**2 * k_bar**2 * t_sq / TWO_PI, rel=1e-12
        )


def test_momentum_sq_current_is_negative_in_forbidden_bulk():
    rng = np.random.default_rng(5)
    checked = 0
    for family in (Family.SYMMETRIC_RECT, Family.LINEAR_FIELD):
        for _ in range(10):
            sol = random_case(rng, family)
            a = 0.0
            width = sol.barrier.gap.meters
            for frac in (0.25, 0.5, 0.75):
                x = a + frac * width
                if sol.barrier.potential(x) > sol.energy.joules:
                    assert currents_at(sol, x).j_p2 < 0.0
                    checked += 1
    assert checked > 30


@pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
def test_interior_balance_laws_in_tilted_barrier(frac):
    rng = np.random.default_rng(99)
    for _ in range(15):
        sol = random_case(rng, Family.LINEAR_FIELD)
        a = 0.0
        width = sol.barrier.gap.meters
        v_prime = -sol.barrier.phi.joules / width
        h = 1e-5 * width
        x0 = a + frac * width
        plus = currents_at(sol, x0 + h)
        minus = currents_at(sol, x0 - h)
        mid = currents_at(sol, x0)
        d_jp = (plus.j_p - minus.j_p) / (2.0 * h)
        d_jp2 = (plus.j_p2 - minus.j_p2) / (2.0 * h)
        newton = -v_prime * mid.rho
        msq = -2.0 * ELECTRON_MASS * mid.j * v_prime
        assert d_jp == pytest.approx(newton, rel=1e-6)
        assert d_jp2 == pytest.approx(msq, rel=1e-6)


def test_rect_transferred_fluxes_equal_interior_edge_currents():
    rng = np.random.default_rng(11)
    for family in (Family.SYMMETRIC_RECT, Family.ASYMMETRIC_RECT):
        for _ in range(15):
            sol = random_case(rng, family)
            tf = transferred_fluxes(sol)
            inner_b = currents_at(sol, sol.barrier.gap.meters, Side.LEFT_LIMIT)
            assert tf.j_p_t == pytest.approx(inner_b.j_p, rel=1e-10)
            assert tf.j_p2_t == pytest.approx(inner_b.j_p2, rel=1e-10)


def test_symmetric_transferred_momentum_flux_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(15):
        sol = random_case(rng, Family.SYMMETRIC_RECT)
        k = sol.k
        k0 = sol.k0
        ref_p = HBAR**2 / (2.0 * ELECTRON_MASS) * (k**2 - k0**2) * sol.T / TWO_PI
        ref_p2 = -(HBAR**3) / ELECTRON_MASS * k0**2 * k * sol.T / TWO_PI
        tf = transferred_fluxes(sol)
        assert tf.j_p_t == pytest.approx(ref_p, rel=1e-12)
        assert tf.j_p2_t == pytest.approx(ref_p2, rel=1e-12)


def test_tilted_transferred_fluxes_match_direct_integration():
    cases = [
        (5.0, 1.0, 1.0, 2.0),
        (3.0, 1.5, 0.25, 0.8),
        (5.0, 4.0, 0.15, 1.9),
        (2.5, 1.2, 0.2, 0.3),
    ]
    for v0, e, gap, phi in cases:
        spec = BarrierSpec.linear_field(v0, phi, gap)
        sol = solve(Energy.from_ev(e), spec)
        a = 0.0
        b = spec.gap.meters
        slope_half = -spec.phi.joules / (2.0 * (b - a))
        step_b = -spec.V0.joules
        out_b = currents_at(sol, b, Side.RIGHT_LIMIT)
        rho_int, _ = adaptive_integral(lambda x: currents_at(sol, x).rho, a, b)
        j_int, _ = adaptive_integral(lambda x: currents_at(sol, x).j, a, b)
        jpt_ref = out_b.j_p + slope_half * rho_int + step_b * out_b.rho
        jp2t_ref = out_b.j_p2 + 2.0 * ELECTRON_MASS * (
            slope_half * j_int + step_b * out_b.j
        )
        tf = transferred_fluxes(sol)
        assert tf.j_p_t == pytest.approx(jpt_ref, rel=1e-9)
        assert tf.j_p2_t == pytest.approx(jp2t_ref, rel=1e-9)


def test_tilted_fluxes_reduce_to_symmetric_at_vanishing_slope():
    e = Energy.from_ev(1.0)
    sym = transferred_fluxes(solve(e, BarrierSpec.symmetric(5.0, 1.0)))
    tiny = transferred_fluxes(solve(e, BarrierSpec.linear_field(5.0, 1e-6, 1.0)))
    dispatched = transferred_fluxes(
        solve(e, BarrierSpec.linear_field(5.0, 1e-10, 1.0))
    )
    assert tiny.j_p_t == pytest.approx(sym.j_p_t, rel=1e-4)
    assert tiny.j_p2_t == pytest.approx(sym.j_p2_t, rel=1e-4)
    assert dispatched.j_p_t == pytest.approx(sym.j_p_t, rel=1e-9)
    assert dispatched.j_p2_t == pytest.approx(sym.j_p2_t, rel=1e-9)


def test_zero_drop_asymmetric_fluxes_equal_symmetric():
    e = Energy.from_ev(1.3)
    sym = transferred_fluxes(solve(e, BarrierSpec.symmetric(4.0, 0.5)))
    asym = transferred_fluxes(solve(e, BarrierSpec.asymmetric(4.0, 0.0, 0.5)))
    assert asym.j_p_t == sym.j_p_t
    assert asym.j_p2_t == sym.j_p2_t


@pytest.mark.parametrize(
    "family", [Family.SYMMETRIC_RECT, Family.ASYMMETRIC_RECT, Family.LINEAR_FIELD]
)
def test_jump_relations_close_at_both_edges(family):
    rng = np.random.default_rng(20260814)
    for _ in range(30):
        res = jump_residuals(random_case(rng, family))
        assert res.worst < 1e-9


def test_jump_residuals_detect_inconsistent_amplitudes():
    sol = solve(Energy.from_ev(4.0), BarrierSpec.linear_field(5.0, 1.9, 0.15))
    assert abs(sol.t) ** 2 > 0.1
    broken_t = sol._replace(t=sol.t * 1.01)
    broken_r = sol._replace(r=sol.r * 1.01)
    assert jump_residuals(broken_t).worst > 1e-4
    assert jump_residuals(broken_r).worst > 1e-4
    assert jump_residuals(sol).worst < 1e-9


def test_dispatched_tiny_slope_uses_flat_interior_step():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 1e-10, 1.0))
    assert not sol.tilted_interior
    assert jump_residuals(sol).worst < 1e-9


def test_dispatched_tiny_slope_takes_the_rectangular_bookkeeping():
    # Below the dispatch seam the rectangular core solves the tilted
    # barrier, so its wall fluxes are those of the asymmetric barrier
    # with the same drop, bit for bit.
    e = Energy.from_ev(1.0)
    tilted = transferred_fluxes(solve(e, BarrierSpec.linear_field(5.0, 1e-10, 1.0)))
    rect = transferred_fluxes(solve(e, BarrierSpec.asymmetric(5.0, 1e-10, 1.0)))
    assert tilted == rect


def test_report_fields_and_side_handling():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    b = sol.barrier.gap.meters
    bulk = currents_at(sol, b)
    right = currents_at(sol, b, Side.RIGHT_LIMIT)
    left = currents_at(sol, b, Side.LEFT_LIMIT)
    assert bulk.j_p == right.j_p
    assert left.j_p != right.j_p
    assert isinstance(bulk, FluxReport)
    assert bulk.x.meters == b
    with pytest.raises(UsageError):
        currents_at(sol, b, side="left")


def test_jump_residuals_dataclass_worst():
    res = JumpResiduals(1e-12, 3e-11, 2e-12, 5e-13)
    assert res.worst == 3e-11
