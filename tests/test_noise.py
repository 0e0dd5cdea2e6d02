"""Tests for the noise-budget module: quantum and thermal force PSDs,
shot noise, and the feasibility normalization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tunnelnoise.errors import ConsistencyError, DomainError, UsageError
from tunnelnoise.fluxes import transferred_fluxes
from tunnelnoise.noise import (
    NoiseBudget,
    ResonatorSpec,
    feasibility_lhs,
    langevin_force_psd,
    noise_budget,
    quantum_force_psd,
    shot_noise_current_psd,
)
from tunnelnoise.scattering import BarrierSpec, solve
from tunnelnoise.uncertainty import uncertainty_product
from tunnelnoise.units import (
    ELEMENTARY_CHARGE,
    HBAR,
    Energy,
    wavenumber_evanescent,
)

NOMINAL = ResonatorSpec(mass=1e-10, f0=1e5, quality=1e7, temperature=0.01)


# ------------------------------------------------------ quantum_force_psd


def test_quantum_psd_routes_agree_across_random_cases():
    rng = np.random.default_rng(20260814)
    for _ in range(40):
        v0 = rng.uniform(1.0, 10.0)
        e = rng.uniform(0.05, 0.95) * v0
        gap = rng.uniform(0.1, 1.5)
        value = quantum_force_psd(
            1e-6, solve(Energy.from_ev(e), BarrierSpec.symmetric(v0, gap))
        )
        assert value > 0.0


def test_quantum_psd_opaque_limit_value():
    # Opaque barrier with the decay constant at 1e10 1/m: the limit is
    # 2 (I0/e) hbar^2 k0^2 ~ 1.39e-35 N^2/Hz at 1 uA.
    v0_ev = 4.0 + 1.0  # k0 from V0 - E = 4 eV is 1.025e10 1/m
    spec = BarrierSpec.symmetric(v0_ev, 2.0)
    e = Energy.from_ev(1.0)
    k0 = wavenumber_evanescent(spec.V0.joules, e.joules)
    limit = 2.0 * (1e-6 / ELEMENTARY_CHARGE) * HBAR**2 * k0**2
    got = quantum_force_psd(1e-6, solve(e, spec))
    assert got == pytest.approx(limit, rel=1e-6)
    assert limit == pytest.approx(1.39e-35 * (k0 / 1e10) ** 2, rel=0.01)


def test_quantum_psd_closed_form_keeps_its_digits_far_below_the_top():
    # Referee: the closed form in its textbook arrangement, at 50 digits,
    # from the solver's own k, k0 and T.  The textbook arrangement in
    # floats cancels as k/k0 falls: 7.2e-7 relative at E = 1e-10 eV.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for e_ev in (1e-2, 1e-4, 1e-7, 1e-10, 1e-12):
            sol = solve(Energy.from_ev(e_ev), BarrierSpec.symmetric(5.0, 1.0))
            rho_sq = (mpmath.mpf(sol.k0) / sol.k) ** 2
            bracket = (1 + rho_sq) ** 2 - (1 - rho_sq) ** 2 * (1 - mpmath.mpf(sol.T))
            rate = mpmath.mpf(1e-6) / ELEMENTARY_CHARGE
            exact = rate * mpmath.mpf(HBAR) ** 2 * mpmath.mpf(sol.k) ** 2 * bracket / 2
            got = quantum_force_psd(1e-6, sol)
            assert abs(got - exact) <= 1e-15 * exact, e_ev


def test_quantum_psd_linear_in_current():
    e = Energy.from_ev(1.0)
    spec = BarrierSpec.symmetric(5.0, 0.5)
    one = quantum_force_psd(1e-6, solve(e, spec))
    two = quantum_force_psd(2e-6, solve(e, spec))
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_quantum_psd_takes_the_fluxes_the_caller_formed():
    e = Energy.from_ev(1.0)
    result = uncertainty_product(e, BarrierSpec.symmetric(5.0, 0.5))
    sol = result.solution
    assert quantum_force_psd(1e-6, sol, result.fluxes) == quantum_force_psd(1e-6, sol)
    # Both routes still run on passed-in fluxes: another gap's fluxes
    # fail the agreement check instead of giving a value.
    other = transferred_fluxes(solve(e, BarrierSpec.symmetric(5.0, 0.6)))
    with pytest.raises(ConsistencyError, match="routes disagree"):
        quantum_force_psd(1e-6, sol, other)


def test_quantum_psd_rejects_bad_inputs():
    e = Energy.from_ev(1.0)
    with pytest.raises(UsageError):
        quantum_force_psd(1e-6, solve(e, BarrierSpec.linear_field(5.0, 1.0, 0.5)))
    with pytest.raises(DomainError):
        quantum_force_psd(
            1e-6, solve(Energy.from_ev(6.0), BarrierSpec.symmetric(5.0, 0.5))
        )
    with pytest.raises(DomainError):
        quantum_force_psd(0.0, solve(e, BarrierSpec.symmetric(5.0, 0.5)))
    with pytest.raises(DomainError):
        quantum_force_psd(-1e-6, solve(e, BarrierSpec.symmetric(5.0, 0.5)))
    with pytest.raises(DomainError, match="^s_fq is not finite"):
        quantum_force_psd(1e300, solve(e, BarrierSpec.symmetric(5.0, 0.5)))


# ----------------------------------------------------- langevin_force_psd


def test_langevin_nominal_value():
    got = langevin_force_psd(NOMINAL)
    ref = 4.0 * 1e-10 * (2.0 * math.pi * 1e5) * 1.380649e-23 * 0.01 / 1e7
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(3.5e-36, rel=0.01)


def test_langevin_scalings():
    tenfold_q = ResonatorSpec(1e-10, 1e5, 1e8, 0.01)
    assert langevin_force_psd(tenfold_q) == pytest.approx(
        langevin_force_psd(NOMINAL) / 10.0, rel=1e-14
    )
    cold = ResonatorSpec(1e-10, 1e5, 1e7, 1e-9)
    assert langevin_force_psd(cold) < 1e-42


def test_resonator_validation():
    with pytest.raises(DomainError):
        ResonatorSpec(0.0, 1e5, 1e7, 0.01)
    with pytest.raises(DomainError):
        ResonatorSpec(1e-10, -1e5, 1e7, 0.01)
    with pytest.raises(DomainError):
        ResonatorSpec(1e-10, 1e5, math.inf, 0.01)
    with pytest.raises(DomainError):
        ResonatorSpec(1e-10, 1e5, 1e7, 0.0)


# -------------------------------------------------------- feasibility_lhs


def test_feasibility_nominal_is_unity():
    assert feasibility_lhs(1e-6, NOMINAL) == pytest.approx(1.0, abs=1e-12)


def test_feasibility_factor_scalings():
    base = feasibility_lhs(1e-6, NOMINAL)
    assert feasibility_lhs(2e-6, NOMINAL) == pytest.approx(base / 2.0, rel=1e-12)
    warm = ResonatorSpec(1e-10, 1e5, 1e7, 0.1)
    assert feasibility_lhs(1e-6, warm) == pytest.approx(10.0 * base, rel=1e-12)
    heavy = ResonatorSpec(3e-10, 1e5, 1e7, 0.01)
    assert feasibility_lhs(1e-6, heavy) == pytest.approx(3.0 * base, rel=1e-12)
    fast = ResonatorSpec(1e-10, 7e5, 1e7, 0.01)
    assert feasibility_lhs(1e-6, fast) == pytest.approx(7.0 * base, rel=1e-12)
    good_q = ResonatorSpec(1e-10, 1e5, 5e7, 0.01)
    assert feasibility_lhs(1e-6, good_q) == pytest.approx(base / 5.0, rel=1e-12)


# ------------------------------------------------- shot_noise_current_psd


def test_shot_noise_reference_value():
    got = shot_noise_current_psd(1e-6)
    assert got == pytest.approx(math.sqrt(2.0 * ELEMENTARY_CHARGE * 1e-6), rel=1e-14)
    # two significant figures
    assert round(got * 1e13, 1) == 5.7


def test_shot_noise_scaling_and_validation():
    assert shot_noise_current_psd(4e-6) == pytest.approx(
        2.0 * shot_noise_current_psd(1e-6), rel=1e-14
    )
    assert shot_noise_current_psd(1e-9) == pytest.approx(
        math.sqrt(2.0 * ELEMENTARY_CHARGE * 1e-9), rel=1e-14
    )
    with pytest.raises(DomainError):
        shot_noise_current_psd(0.0)


# ----------------------------------------------------------- noise_budget


def test_budget_assembly_and_ratio_report():
    budget = noise_budget(1e-6, NOMINAL, Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 2.0))
    assert isinstance(budget, NoiseBudget)
    assert budget.s_fq > 0.0 and budget.s_fl > 0.0
    assert budget.psd_ratio == pytest.approx(budget.s_fl / budget.s_fq, rel=1e-14)
    assert budget.feasibility_lhs == pytest.approx(1.0, abs=1e-12)
    assert budget.shot_psd == pytest.approx(5.66e-13, rel=1e-2)
    assert budget.tunnel_current == 1e-6
    assert budget.electron_energy == pytest.approx(1.0, rel=1e-15)
    # The O(1) constant relating the direct ratio to the normalized
    # form: reported here as documentation, deliberately not asserted
    # as a contract. At the nominal point with a deep barrier it sits
    # near 1/4 (the normalization assumes a decay constant of 1e10 1/m
    # while this barrier gives 1.025e10).
    assert 0.1 < budget.psd_ratio / budget.feasibility_lhs < 0.5


@pytest.mark.parametrize(
    "I0, changes, name",
    [
        (1e300, {}, "s_fq"),
        (1e-6, {"f0": 1e300, "temperature": 1e300}, "s_fl"),
        (1e-6, {"mass": 1e300}, "feasibility_lhs"),
    ],
    ids=["s_fq", "s_fl", "feasibility_lhs"],
)
def test_budget_names_its_first_non_finite_figure(I0, changes, name):
    resonator = ResonatorSpec(**{**NOMINAL._asdict(), **changes})
    spec = BarrierSpec.symmetric(5.0, 0.5)
    with pytest.raises(DomainError, match=f"^{name} is not finite"):
        noise_budget(I0, resonator, Energy.from_ev(1.0), spec)
