"""Acceptance gate: ten release criteria, one pass/fail line each.

Every test prints ``criterion NN: PASS|FAIL - detail`` on the live
terminal (bypassing capture) before asserting, so a full run always
shows the ten verdict lines.  Tolerances and time budgets are pinned;
no test loosens them to pass.
"""

import json
import math
import time

import numpy as np
import pytest

from oracle import richardson_transmission
from tunnelnoise.airy import airy_all
from tunnelnoise.cli import (
    SweepConfig,
    SweepVariable,
    main,
    run_sweep,
)
from tunnelnoise.fluxes import Side, currents_at, jump_residuals
from tunnelnoise.noise import ResonatorSpec, feasibility_lhs, shot_noise_current_psd
from tunnelnoise.scattering import BarrierSpec, Family, solve
from tunnelnoise.uncertainty import DerivativeMethod, dT_dl, uncertainty_product
from tunnelnoise.units import ELECTRON_MASS, Energy

SEED = 20260814


@pytest.fixture
def report(capsys):
    def _line(number: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")

    return _line


def relative_gap(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def random_symmetric(rng) -> tuple:
    v0 = rng.uniform(1.0, 10.0)
    gap = rng.uniform(0.1, 2.0)
    energy = Energy.from_ev(rng.uniform(0.05, 0.95) * v0)
    return energy, BarrierSpec.symmetric(v0, gap)


def random_case(rng, family: Family) -> tuple:
    """Draws for the derivative/flux criteria: moderate opacity window."""
    v0 = rng.uniform(2.0, 5.0)
    gap = rng.uniform(0.1, 0.3)
    energy = Energy.from_ev(rng.uniform(0.4, 0.9) * v0)
    if family is Family.SYMMETRIC_RECT:
        return energy, BarrierSpec.symmetric(v0, gap)
    phi = rng.uniform(0.2, 2.0)
    if family is Family.ASYMMETRIC_RECT:
        return energy, BarrierSpec.asymmetric(v0, phi, gap)
    return energy, BarrierSpec.linear_field(v0, phi, gap)


def test_criterion_01_symmetric_product_is_exactly_half(report):
    budget_s = 5.0
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        energy, spec = random_symmetric(rng)
        result = uncertainty_product(energy, spec)
        worst = max(worst, abs(result.product_over_hbar - 0.5) / 0.5)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < budget_s
    report(
        1,
        ok,
        f"1000 symmetric draws, worst relative gap from 1/2 is {worst:.3e} "
        f"(limit 1e-10), {elapsed:.2f}s (budget {budget_s:.0f}s)",
    )
    assert worst < 1e-10
    assert elapsed < budget_s


def test_criterion_02_vanishing_bias_recovers_half(report):
    budget_s = 1.0
    start = time.perf_counter()
    result = uncertainty_product(
        Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 1e-6, 1.0)
    )
    elapsed = time.perf_counter() - start
    gap = abs(result.product_over_hbar - 0.5)
    ok = gap < 1e-4 and elapsed < budget_s
    report(
        2,
        ok,
        f"tilted barrier at 1e-6 eV bias: |product - 1/2| = {gap:.3e} "
        f"(limit 1e-4), {elapsed:.2f}s (budget {budget_s:.0f}s)",
    )
    assert gap < 1e-4
    assert elapsed < budget_s


def test_criterion_03_bias_sweep_grows_monotonically(report):
    budget_s = 10.0
    config = SweepConfig(
        family=Family.LINEAR_FIELD,
        v0_ev=5.0,
        e_ev=1.0,
        phi_ev=0.0,
        gap_nm=0.5,
        variable=SweepVariable.BIAS_PHI,
        minimum=0.0,
        maximum=5.0,
        steps=200,
        outputs=("delta_p", "product"),
        n_electrons=1.0,
        i0_a=1e-6,
    )
    start = time.perf_counter()
    rows, summary = run_sweep(config)
    elapsed = time.perf_counter() - start
    ok = (
        len(rows) == 200
        and summary["skipped_rows"] == 0
        and summary["delta_p_nondecreasing"]
        and summary["product_nondecreasing"]
        and elapsed < budget_s
    )
    report(
        3,
        ok,
        "200-point bias sweep 0..5 eV: delta_p nondecreasing="
        f"{summary['delta_p_nondecreasing']}, product nondecreasing="
        f"{summary['product_nondecreasing']}, {elapsed:.2f}s "
        f"(budget {budget_s:.0f}s)",
    )
    assert len(rows) == 200
    assert summary["skipped_rows"] == 0
    assert summary["delta_p_nondecreasing"] is True
    assert summary["product_nondecreasing"] is True
    assert elapsed < budget_s


def test_criterion_04_transmission_matches_transfer_matrix(report):
    budget_s = 30.0
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for family in Family:
        checked = 0
        while checked < 100:
            if family is Family.SYMMETRIC_RECT:
                energy, spec = random_symmetric(rng)
            else:
                v0 = rng.uniform(1.0, 10.0)
                gap = rng.uniform(0.1, 2.0)
                phi = rng.uniform(0.0, 5.0)
                energy = Energy.from_ev(rng.uniform(0.05, 0.95) * v0)
                if family is Family.ASYMMETRIC_RECT:
                    spec = BarrierSpec.asymmetric(v0, phi, gap)
                else:
                    spec = BarrierSpec.linear_field(v0, phi, gap)
            sol = solve(energy, spec)
            if sol.T < 1e-60:
                # the plain-arithmetic oracle cannot resolve these
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
            worst = max(worst, relative_gap(sol.T, T_ref))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < budget_s
    report(
        4,
        ok,
        f"100 draws per family vs staircase oracle, worst relative gap "
        f"{worst:.3e} (limit 1e-8), {elapsed:.2f}s (budget {budget_s:.0f}s)",
    )
    assert worst < 1e-8
    assert elapsed < budget_s


def test_criterion_05_currents_balance_everywhere(report):
    budget_s = 30.0
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst_j = 0.0
    worst_balance = 0.0
    worst_jump = 0.0
    for _ in range(100):
        energy, spec = random_case(rng, Family.LINEAR_FIELD)
        sol = solve(energy, spec)
        a, b = 0.0, spec.gap.meters
        width = b - a
        j_ref = sol.T * sol.incident_flux
        for frac in (-0.5, 0.1, 0.3, 0.5, 0.7, 0.9, 1.5):
            x = a + frac * width
            side = Side.LEFT_LIMIT if x <= a else Side.RIGHT_LIMIT
            j = currents_at(sol, x, side).j
            worst_j = max(worst_j, abs(j - j_ref) / j_ref)
        h = 1e-5 * width
        slope = spec.potential(b) - spec.potential(a)  # -phi in joules
        v_prime = slope / width
        for frac in (0.25, 0.5, 0.75):
            x = a + frac * width
            lo = currents_at(sol, x - h, Side.RIGHT_LIMIT)
            mid = currents_at(sol, x, Side.RIGHT_LIMIT)
            hi = currents_at(sol, x + h, Side.RIGHT_LIMIT)
            d_jp = (hi.j_p - lo.j_p) / (2.0 * h)
            d_jp2 = (hi.j_p2 - lo.j_p2) / (2.0 * h)
            rhs_p = -v_prime * mid.rho
            rhs_p2 = -2.0 * ELECTRON_MASS * mid.j * v_prime
            worst_balance = max(
                worst_balance,
                abs(d_jp - rhs_p) / abs(rhs_p),
                abs(d_jp2 - rhs_p2) / abs(rhs_p2),
            )
        worst_jump = max(worst_jump, jump_residuals(sol).worst)
    elapsed = time.perf_counter() - start
    ok = (
        worst_j < 1e-12
        and worst_balance < 1e-6
        and worst_jump < 1e-9
        and elapsed < budget_s
    )
    report(
        5,
        ok,
        f"100 tilted draws: J constancy {worst_j:.3e} (limit 1e-12), "
        f"balance {worst_balance:.3e} (limit 1e-6), edge jumps "
        f"{worst_jump:.3e} (limit 1e-9), {elapsed:.2f}s (budget {budget_s:.0f}s)",
    )
    assert worst_j < 1e-12
    assert worst_balance < 1e-6
    assert worst_jump < 1e-9
    assert elapsed < budget_s


def test_criterion_06_airy_wronskian_and_origin_values(report):
    worst_wronskian = 0.0
    for z in np.linspace(-30.0, 30.0, 241):
        q = airy_all(float(z))
        wronskian = q.ai * q.bi_prime - q.ai_prime * q.bi
        worst_wronskian = max(worst_wronskian, abs(wronskian - 1.0 / math.pi))
    origin = airy_all(0.0)
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    bi0 = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 / 3.0)
    bip0 = 3.0 ** (1.0 / 6.0) / math.gamma(1.0 / 3.0)
    worst_origin = max(
        relative_gap(origin.ai, ai0),
        relative_gap(origin.ai_prime, aip0),
        relative_gap(origin.bi, bi0),
        relative_gap(origin.bi_prime, bip0),
    )
    ok = worst_wronskian < 1e-10 and worst_origin < 1e-12
    report(
        6,
        ok,
        f"241 points on [-30, 30]: Wronskian defect {worst_wronskian:.3e} "
        f"(limit 1e-10), origin values {worst_origin:.3e} (limit 1e-12)",
    )
    assert worst_wronskian < 1e-10
    assert worst_origin < 1e-12


def test_criterion_07_shot_noise_at_one_microamp(report):
    value = shot_noise_current_psd(1e-6)
    rendered = f"{value:.1e}"
    ok = rendered == "5.7e-13"
    report(7, ok, f"sqrt(2 e I0) at 1 uA = {value:.4e} A/sqrt(Hz), "
                  f"2 significant figures {rendered} (expected 5.7e-13)")
    assert rendered == "5.7e-13"


def test_criterion_08_feasibility_normalization_is_unity(report):
    nominal = ResonatorSpec(mass=1e-10, f0=1e5, quality=1e7, temperature=0.01)
    value = feasibility_lhs(1e-6, nominal)
    gap = abs(value - 1.0)
    ok = gap < 1e-12
    report(8, ok, f"nominal parameter product = {value!r}, |gap from 1| = "
                  f"{gap:.3e} (limit 1e-12)")
    assert gap < 1e-12


def test_criterion_09_derivative_routes_agree(report):
    budget_s = 30.0
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for family in Family:
        for _ in range(100):
            energy, spec = random_case(rng, family)
            sol = solve(energy, spec)
            analytic = dT_dl(sol, DerivativeMethod.ANALYTIC)
            numeric = dT_dl(sol, DerivativeMethod.NUMERIC)
            worst = max(worst, relative_gap(analytic, numeric))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < budget_s
    report(
        9,
        ok,
        f"100 draws per family: analytic vs extrapolated-difference "
        f"transmission derivative, worst relative gap {worst:.3e} "
        f"(limit 1e-6), {elapsed:.2f}s (budget {budget_s:.0f}s)",
    )
    assert worst < 1e-6
    assert elapsed < budget_s


def test_criterion_10_output_determinism_and_round_trip(report, tmp_path):
    argv = ["sweep", "--steps", "60"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_a = main([*argv, "--out", str(first)])
    code_b = main([*argv, "--out", str(second)])
    csv_identical = (
        code_a == 0 and code_b == 0 and first.read_bytes() == second.read_bytes()
    )
    json_path = tmp_path / "sweep.json"
    code_c = main([*argv, "--format", "json", "--out", str(json_path)])
    text = json_path.read_text(encoding="utf-8")
    data = json.loads(text)
    json_round_trips = (
        code_c == 0
        and json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
        == text
    )
    ok = csv_identical and json_round_trips
    report(
        10,
        ok,
        f"repeated CSV byte-identical={csv_identical}, "
        f"JSON round-trip bit-exact={json_round_trips} (60-step sweep)",
    )
    assert csv_identical
    assert json_round_trips
