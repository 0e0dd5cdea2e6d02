"""Tests for the uncertainty pair: position resolution, momentum kick,
their product, and the transmission gap derivative."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunnelnoise.errors import ConsistencyError, DomainError, RangeError, UsageError
from tunnelnoise.fluxes import TransferredFluxes, transferred_fluxes
from tunnelnoise.noise import quantum_force_psd
from tunnelnoise.scattering import BarrierSpec, solve
from tunnelnoise.uncertainty import (
    DerivativeMethod,
    UncertaintyResult,
    dT_dl,
    kick_variance,
    momentum_uncertainty,
    position_uncertainty,
    uncertainty_product,
)
from tunnelnoise.units import HBAR, NM, Energy, ev_to_joules, wavenumber_evanescent


def make_spec(kind, v0, phi, gap):
    if kind == "sym":
        return BarrierSpec.symmetric(v0, gap)
    if kind == "asym":
        return BarrierSpec.asymmetric(v0, phi, gap)
    return BarrierSpec.linear_field(v0, phi, gap)


def random_cases(rng, n):
    for _ in range(n):
        v0 = rng.uniform(2.0, 5.0)
        yield v0, rng.uniform(0.4, 0.9) * v0, rng.uniform(0.2, 2.0), rng.uniform(
            0.1, 0.3
        )


# ---------------------------------------------------------------- dT_dl


def test_symmetric_derivative_closed_form():
    rng = np.random.default_rng(3)
    for v0, e, _phi, gap in random_cases(rng, 30):
        sol = solve(Energy.from_ev(e), BarrierSpec.symmetric(v0, gap))
        k = sol.k
        k0 = sol.k0
        u = k0 * sol.barrier.gap.meters
        ref = (
            -sol.T**2
            * (k**2 + k0**2) ** 2
            * 2.0
            * k0
            * math.sinh(u)
            * math.cosh(u)
            / (4.0 * k**2 * k0**2)
        )
        assert dT_dl(sol) == pytest.approx(ref, rel=1e-12)


def test_opaque_limit_derivative():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(9.0, 1.8))
    k0 = sol.k0
    assert k0 * sol.barrier.gap.meters > 25.0
    assert dT_dl(sol) == pytest.approx(-2.0 * k0 * sol.T, rel=1e-10)


@pytest.mark.parametrize("kind", ["sym", "asym", "field"])
def test_analytic_matches_numeric_derivative(kind):
    rng = np.random.default_rng(20260814)
    for v0, e, phi, gap in random_cases(rng, 20):
        sol = solve(Energy.from_ev(e), make_spec(kind, v0, phi, gap))
        analytic = dT_dl(sol)
        numeric = dT_dl(sol, DerivativeMethod.NUMERIC)
        assert analytic == pytest.approx(numeric, rel=1e-6)


@pytest.mark.parametrize("v0, e, gap", [(5.0, 1.0, 0.5), (4.0, 1.5, 0.3), (6.0, 2.0, 0.8)])
def test_turning_point_at_the_right_edge(v0, e, gap):
    # phi = V0 - E puts the turning point on the right edge, where the
    # edge argument b_bar is 0 or a few ulps from it and the solver
    # switches from the scaled to the unscaled Airy pair.  Nudging phi by
    # 1e-12 either way moves b_bar across zero.
    depth = v0 - e
    results = [
        uncertainty_product(Energy.from_ev(e), BarrierSpec.linear_field(v0, phi, gap))
        for phi in (depth, depth * (1.0 - 1e-12), depth * (1.0 + 1e-12))
    ]
    at_edge = results[0]
    for res in results[1:]:
        assert res.solution.T == pytest.approx(at_edge.solution.T, rel=1e-9)
        assert res.solution.dT_dl == pytest.approx(at_edge.solution.dT_dl, rel=1e-9)
        assert res.product_over_hbar == pytest.approx(at_edge.product_over_hbar, rel=1e-9)
    for res in results:
        numeric = dT_dl(res.solution, DerivativeMethod.NUMERIC)
        assert res.solution.dT_dl == pytest.approx(numeric, rel=1e-6)


def test_both_mode_returns_numeric_and_accepts_agreement():
    sol = solve(Energy.from_ev(1.2), BarrierSpec.linear_field(4.0, 1.0, 0.25))
    both = dT_dl(sol, "both")
    assert both == dT_dl(sol, "numeric")


def test_tiny_bias_derivative_dispatches_to_flat_core():
    e = Energy.from_ev(1.0)
    dispatched = solve(e, BarrierSpec.linear_field(5.0, 1e-10, 0.5))
    asym = solve(e, BarrierSpec.asymmetric(5.0, 1e-10, 0.5))
    assert dT_dl(dispatched) == pytest.approx(dT_dl(asym), rel=1e-12)


def test_unknown_method_rejected():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    with pytest.raises(UsageError):
        dT_dl(sol, "secant")


# ------------------------------------------------- position_uncertainty


def test_position_uncertainty_closed_form_symmetric():
    rng = np.random.default_rng(8)
    for v0, e, _phi, gap in random_cases(rng, 20):
        sol = solve(Energy.from_ev(e), BarrierSpec.symmetric(v0, gap))
        k = sol.k
        k0 = sol.k0
        u = k0 * sol.barrier.gap.meters
        ref = (1.0 / sol.T) * k / ((k**2 + k0**2) * math.cosh(u))
        got = position_uncertainty(sol, 1.0)
        assert got.meters == pytest.approx(ref, rel=1e-12)


def test_position_uncertainty_count_scaling():
    sol = solve(Energy.from_ev(1.5), BarrierSpec.symmetric(4.0, 0.3))
    one = position_uncertainty(sol, 1.0).meters
    four = position_uncertainty(sol, 4.0).meters
    assert four == pytest.approx(0.5 * one, rel=1e-14)


def test_position_uncertainty_rejects_degenerate_derivative():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    with pytest.raises(DomainError, match="second-order"):
        position_uncertainty(sol._replace(dT_dl=0.0, dT_dl_scaled=0.0), 1.0)
    with pytest.raises(DomainError):
        position_uncertainty(sol._replace(dT_dl=math.nan, dT_dl_scaled=math.nan), 1.0)
    with pytest.raises(DomainError):
        position_uncertainty(sol._replace(dT_dl=-1e9), 0.5)


# ------------------------------------------------- momentum_uncertainty


def test_symmetric_momentum_kick_closed_form():
    rng = np.random.default_rng(21)
    for v0, e, _phi, gap in random_cases(rng, 20):
        sol = solve(Energy.from_ev(e), BarrierSpec.symmetric(v0, gap))
        k = sol.k
        k0 = sol.k0
        ref_sq = (
            HBAR**2
            / (4.0 * k**2)
            * sol.T
            * (4.0 * k**2 * k0**2 + (k**2 - k0**2) ** 2 * sol.T)
        )
        got = momentum_uncertainty(transferred_fluxes(sol), sol, 1.0)
        assert got**2 == pytest.approx(ref_sq, rel=1e-10)


def test_asymmetric_momentum_kick_closed_form():
    rng = np.random.default_rng(22)
    for v0, e, phi, gap in random_cases(rng, 20):
        sol = solve(Energy.from_ev(e), BarrierSpec.asymmetric(v0, phi, gap))
        k_bar = sol.k_bar
        k0 = sol.k0
        ref_sq = (
            HBAR**2
            / (4.0 * k_bar**2)
            * sol.T
            * (4.0 * k_bar**2 * k0**2 + (k_bar**2 - k0**2) ** 2 * sol.T)
        )
        got = momentum_uncertainty(transferred_fluxes(sol), sol, 1.0)
        assert got**2 == pytest.approx(ref_sq, rel=1e-10)


def test_momentum_kick_scales_with_sqrt_count():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 1.0, 0.3))
    tf = transferred_fluxes(sol)
    one = momentum_uncertainty(tf, sol, 1.0)
    nine = momentum_uncertainty(tf, sol, 9.0)
    assert nine == pytest.approx(3.0 * one, rel=1e-14)


def test_opaque_kick_vanishes_with_transmission():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(8.0, 1.5))
    k0 = sol.k0
    dp = momentum_uncertainty(transferred_fluxes(sol), sol, 1.0)
    assert dp == pytest.approx(HBAR * k0 * math.sqrt(sol.T), rel=1e-3)


def test_bracket_guard_clamps_and_raises():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    j_in = sol.incident_flux
    tiny = HBAR**2 * (sol.k**2 + sol.k0**2) * sol.T
    clamped_j_p2_t = 0.5e-12 * tiny * j_in
    clamped = TransferredFluxes(0.0, clamped_j_p2_t, "", 0, clamped_j_p2_t)
    assert momentum_uncertainty(clamped, sol, 1.0) == 0.0
    bad = TransferredFluxes(0.0, 1e-6 * tiny * j_in, "", 0, 1e-6 * tiny * j_in)
    with pytest.raises(ConsistencyError):
        momentum_uncertainty(bad, sol, 1.0)


@pytest.mark.parametrize(
    "spec",
    [
        BarrierSpec.symmetric(5.0, 0.5),
        BarrierSpec.symmetric(5.0, 30.0),
        BarrierSpec.asymmetric(5.0, 1.5, 0.4),
        BarrierSpec.linear_field(5.0, 2.0, 0.5),
    ],
    ids=["sym", "sym-opaque", "asym", "tilted"],
)
@pytest.mark.parametrize("n", [1.0, 7.0, 1.7e6])
def test_momentum_uncertainty_is_the_root_of_the_kick_variance(spec, n):
    sol = solve(Energy.from_ev(1.0), spec)
    fluxes = transferred_fluxes(sol)
    v, e = kick_variance(fluxes, sol)
    assert v > 0.0 and e == fluxes.exponent
    assert momentum_uncertainty(fluxes, sol, n) == math.ldexp(math.sqrt(n * v), -e)


def test_count_validation():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    tf = transferred_fluxes(sol)
    with pytest.raises(DomainError):
        momentum_uncertainty(tf, sol, 0.5)
    with pytest.raises(DomainError):
        momentum_uncertainty(tf, sol, math.inf)
    with pytest.raises(UsageError):
        momentum_uncertainty(tf, sol, "many")


# --------------------------------------------------- uncertainty_product


def test_symmetric_product_saturates_heisenberg_bound():
    rng = np.random.default_rng(20260814)
    for _ in range(200):
        v0 = rng.uniform(1.0, 10.0)
        e = rng.uniform(0.05, 0.95) * v0
        gap = rng.uniform(0.1, 2.0)
        res = uncertainty_product(Energy.from_ev(e), BarrierSpec.symmetric(v0, gap))
        assert res.product_over_hbar == pytest.approx(0.5, abs=1e-12)


def test_product_is_count_invariant():
    e = Energy.from_ev(1.0)
    spec = BarrierSpec.linear_field(5.0, 2.0, 0.5)
    p1 = uncertainty_product(e, spec, N=1.0).product_over_hbar
    p2 = uncertainty_product(e, spec, N=1.7e6).product_over_hbar
    assert p2 == pytest.approx(p1, rel=1e-12)


def test_product_bound_holds_where_the_model_satisfies_it():
    # The bound is exact for the flat symmetric barrier and holds with
    # margin for the deep-barrier biased configurations; it is NOT a
    # universal property (see the straddling and collapse tests below),
    # so it is asserted only on its actual domain.
    rng = np.random.default_rng(31)
    for v0, e, phi, gap in random_cases(rng, 15):
        res = uncertainty_product(Energy.from_ev(e), BarrierSpec.symmetric(v0, gap))
        assert res.product_over_hbar >= 0.5 - 1e-12
    for phi in (0.5, 1.5, 3.0, 5.0):
        res = uncertainty_product(
            Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, phi, 0.5)
        )
        assert res.product_over_hbar >= 0.5 - 1e-9


def test_asymmetric_product_straddles_one_half():
    # Thin asymmetric barriers land slightly below 1/2, large bias
    # slightly above; thick barriers recover 1/2 exponentially.  The
    # values are pinned from dual-route-confirmed measurements.
    e = Energy.from_ev(1.0)
    below = uncertainty_product(e, BarrierSpec.asymmetric(5.0, 2.0, 0.3))
    above = uncertainty_product(e, BarrierSpec.asymmetric(5.0, 4.0, 0.5))
    thick = uncertainty_product(e, BarrierSpec.asymmetric(5.0, 2.0, 1.5))
    assert 0.5 - 2e-4 < below.product_over_hbar < 0.5
    assert 0.5 < above.product_over_hbar < 0.5 + 1e-5
    assert thick.product_over_hbar == pytest.approx(0.5, abs=1e-12)


def test_tilted_product_collapses_at_strong_bias():
    # As the bias approaches twice the barrier depth above the energy,
    # the momentum bracket shrinks to zero and the product falls below
    # any fixed bound; past the threshold the bracket is genuinely
    # negative and the domain error names the limit.
    e = Energy.from_ev(1.0)
    near = uncertainty_product(e, BarrierSpec.linear_field(2.0, 1.99, 0.3))
    assert near.product_over_hbar < 0.25
    with pytest.raises(DomainError, match=r"past 2 \(V0 - E\)") as exc:
        uncertainty_product(e, BarrierSpec.linear_field(2.0, 2.5, 0.3))
    assert not isinstance(exc.value, RangeError)


def test_negative_bracket_below_twice_the_depth_is_inconsistent():
    # Below phi = 2 (V0 - E) a negative bracket means fluxes that do not
    # describe a variance: the consistency error, never a skippable row.
    sol = solve(Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 2.0, 0.5))
    fluxes = transferred_fluxes(sol)
    mean_kick = fluxes.j_p_t / sol.incident_flux
    # A second moment of minus twice the squared mean kick: bracket -mean^2.
    j_p2_t = 2.0 * mean_kick * mean_kick * sol.incident_flux
    with pytest.raises(ConsistencyError, match="inconsistent"):
        kick_variance(fluxes._replace(j_p2_t=j_p2_t, scaled_j_p2_t=j_p2_t), sol)


def test_tilted_product_grows_with_bias():
    e = Energy.from_ev(1.0)
    products = []
    kicks = []
    for phi in np.linspace(0.0, 5.0, 40):
        res = uncertainty_product(e, BarrierSpec.linear_field(5.0, float(phi), 0.5))
        products.append(res.product_over_hbar)
        kicks.append(res.delta_p)
    assert all(b >= a for a, b in zip(products, products[1:]))
    assert all(b >= a for a, b in zip(kicks, kicks[1:]))
    assert products[0] == pytest.approx(0.5, abs=1e-9)


def test_asymmetric_product_near_minimum():
    res = uncertainty_product(
        Energy.from_ev(1.0), BarrierSpec.asymmetric(5.0, 2.0, 0.5)
    )
    assert res.product_over_hbar == pytest.approx(0.4999975440, abs=5e-9)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["sym", "asym"]),
    k0_l=st.floats(1.0, 800.0),
    v0=st.floats(1.0, 10.0),
    frac=st.floats(0.05, 0.95),
    phi=st.floats(0.0, 10.0),
)
@example(kind="sym", k0_l=330.0, v0=5.0, frac=0.2, phi=0.0)
@example(kind="sym", k0_l=360.0, v0=5.0, frac=0.2, phi=0.0)
@example(kind="asym", k0_l=330.0, v0=5.0, frac=0.2, phi=1.0)
@example(kind="asym", k0_l=360.0, v0=5.0, frac=0.2, phi=1.0)
def test_product_through_opaque_rect_barriers(kind, k0_l, v0, frac, phi):
    # From k0 l near 300 the SI kick second moment -j_p2_t/j_in is
    # subnormal, but the variance is formed from scaled fluxes, so every
    # point with a normal T has a product.  Near k0 l = 354 T itself is
    # subnormal, and past about 372 it is 0: only there is a domain
    # error allowed, never a product that has silently lost its digits.
    e = frac * v0
    k0 = wavenumber_evanescent(ev_to_joules(v0), ev_to_joules(e))
    spec = make_spec(kind, v0, phi, k0_l / k0 / NM)
    try:
        res = uncertainty_product(Energy.from_ev(e), spec)
    except DomainError:
        assert solve(Energy.from_ev(e), spec).T < sys.float_info.min
        return
    if kind == "sym":
        assert abs(res.product_over_hbar - 0.5) <= 1e-10
    else:
        assert math.isfinite(res.product_over_hbar) and res.product_over_hbar > 0.0


@settings(max_examples=150, deadline=None)
@given(
    two_k0_l=st.floats(700.0, 1400.0),
    v0=st.floats(1.0, 20.0),
    frac=st.floats(0.01, 0.99),
)
@example(two_k0_l=1290.0, v0=5.0, frac=0.2)
@example(two_k0_l=1320.0, v0=5.0, frac=0.2)
def test_opaque_symmetric_figures_stay_normal_or_the_point_is_refused(
    two_k0_l, v0, frac
):
    # T underflows from 2 k0 l near 708, but the pair is formed from the
    # solver's scaled T and stays normal up to about 2 k0 l = 1300 (1298
    # to 1309 over these V0 and E).  Past that edge delta_p turns
    # subnormal or delta_l overflows, and the point raises the range error
    # rather than printing a product that has lost its digits.
    e = frac * v0
    k0 = wavenumber_evanescent(ev_to_joules(v0), ev_to_joules(e))
    spec = BarrierSpec.symmetric(v0, two_k0_l / (2.0 * k0) / NM)
    try:
        res = uncertainty_product(Energy.from_ev(e), spec)
        s_fq = quantum_force_psd(1e-6, res.solution, res.fluxes)
    except RangeError:
        assert two_k0_l > 1290.0
        return
    sol = res.solution
    figures = (sol.R, res.delta_l.nm, res.delta_p, res.product_over_hbar, s_fq)
    assert all(sys.float_info.min <= x < math.inf for x in figures)
    assert 0.0 <= sol.T < 1e-300
    assert abs(sol.T + sol.R - 1.0) <= 1e-10
    assert abs(res.product_over_hbar - 0.5) <= 1e-10


def test_result_records_provenance():
    e = Energy.from_ev(1.0)
    spec = BarrierSpec.symmetric(5.0, 0.5)
    res = uncertainty_product(e, spec, N=3.0)
    assert isinstance(res, UncertaintyResult)
    assert res.n_electrons == 3.0
    assert res.solution.dT_dl < 0.0
    assert res.delta_l.meters > 0.0
    assert res.delta_p > 0.0


def test_inconsistent_routes_raise_named_error():
    sol = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
    wrong_gap = sol._replace(barrier=BarrierSpec.symmetric(5.0, 0.6))
    with pytest.raises(ConsistencyError, match="analytic"):
        dT_dl(wrong_gap, "both")
