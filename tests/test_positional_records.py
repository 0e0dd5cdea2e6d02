"""The per-point records are built positionally, since a keyword call of
a named tuple goes through a kwargs dict.  A positional call binds by
order alone, so each field is pinned here against a value formed
independently, on barriers where ``k != k_bar``; an ``ast`` guard keeps
keyword construction of these records out of the package."""

import ast
import cmath
import math
from pathlib import Path

import pytest

import tunnelnoise
from tunnelnoise.airy import airy_all, airy_scaled
from tunnelnoise.fluxes import currents_at, transferred_fluxes
from tunnelnoise.scattering import BarrierSpec, Side, _zeta_difference, solve
from tunnelnoise.uncertainty import (
    dT_dl,
    momentum_uncertainty,
    position_uncertainty,
    uncertainty_of,
)
from tunnelnoise.units import (
    ELECTRON_MASS,
    HBAR,
    Energy,
    wavenumber_evanescent,
    wavenumber_free,
)

POSITIONAL_RECORDS = {
    "ScatteringSolution",
    "_RectInterior",
    "_AiryInterior",
    "AiryQuad",
    "TransferredFluxes",
    "UncertaintyResult",
}

ENERGY = Energy.from_ev(1.0)
ASYM = solve(ENERGY, BarrierSpec.asymmetric(5.0, 1.5, 0.4))
TILTED = solve(ENERGY, BarrierSpec.linear_field(5.0, 2.0, 0.5))


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.mark.parametrize("sol", [ASYM, TILTED], ids=["asym", "tilted"])
def test_solution_fields(sol):
    spec = sol.barrier
    e = ENERGY.joules
    assert sol.energy is ENERGY
    assert sol.k == wavenumber_free(e)
    assert sol.k_bar == wavenumber_free(e + spec.phi.joules)
    assert sol.k0 == wavenumber_evanescent(spec.V0.joules, e)
    assert sol.k != sol.k_bar
    assert sol.incident_flux == HBAR * sol.k / (2.0 * math.pi * ELECTRON_MASS)
    assert close(sol.T, (sol.k_bar / sol.k) * abs(sol.t) ** 2)
    assert sol.R == min(1.0, abs(sol.r) ** 2)
    assert close(sol.T + sol.R, 1.0)
    assert sol.dT_dl < 0.0 and close(sol.dT_dl, dT_dl(sol, "numeric"), rel=1e-6)
    assert sol.T_scaled == math.ldexp(sol.T, 2 * sol.scale)
    assert sol.dT_dl_scaled == math.ldexp(sol.dT_dl, 2 * sol.scale)
    if sol.tilted_interior:
        assert sol.scale == 0
    else:
        assert sol.scale == -(math.frexp(sol.T)[1] // 2) and sol.scale != 0


def test_rectangular_interior_fields():
    inner = ASYM.interior
    assert type(inner).__name__ == "_RectInterior"
    assert inner.b == ASYM.barrier.gap.meters
    assert inner.k0 == ASYM.k0
    assert inner.g_minus == ASYM.c_minus
    assert ASYM.c_plus == inner.g_plus * math.exp(-ASYM.k0 * inner.b)
    # g_plus carries the tunneling factor exp(-k0 l), g_minus does not.
    assert close(abs(inner.g_plus), abs(inner.g_minus) * math.exp(-inner.k0 * inner.b))


OPAQUE = solve(ENERGY, BarrierSpec.asymmetric(5.0, 1.0, 80.0))


@pytest.mark.parametrize("sol", [ASYM, OPAQUE], ids=["asym", "asym-opaque"])
def test_rectangular_interior_weights(sol):
    # Formed here from the solution's wavenumbers, in the solver's order.
    inner = sol.interior
    k, k_bar, k0, gap = sol.k, sol.k_bar, sol.k0, sol.barrier.gap.meters
    m2 = math.exp(-2.0 * k0 * gap)
    d_hat = 0.5 * complex(
        k0 * (k + k_bar) * (1.0 + m2), (k0 * k0 - k * k_bar) * (1.0 - m2)
    )
    t_anchored = 2.0 * k * k0 * cmath.exp(-1j * k_bar * gap) / d_hat
    phase_b = cmath.exp(1j * k_bar * gap)
    g_plus = 0.5 * sol.t * phase_b * complex(1.0, k_bar / k0)
    g_minus = 0.5 * t_anchored * phase_b * complex(1.0, -k_bar / k0)
    assert (inner.t, inner.t_anchored, inner.k_bar) == (sol.t, t_anchored, k_bar)
    assert inner.g_plus == g_plus and inner.g_minus == g_minus
    assert sol.c_plus == (g_plus * math.exp(-k0 * gap) if k0 * gap <= 754.0 else 0j)
    assert sol.c_minus == g_minus


def test_opaque_rectangular_interior_keeps_the_left_weight():
    # Past k0 l = 709 t underflows to 0, but the weight of e^{-k0 x} is
    # 2 k (k0 - i k_bar) / (k0 (k + k_bar) + i (k0^2 - k k_bar)), here with
    # k : k_bar : k0 = 1 : sqrt(2) : 2, which is 0.4 - 0.8i.
    assert OPAQUE.barrier.gap.meters * OPAQUE.k0 > 709.0
    assert OPAQUE.t == 0 and OPAQUE.c_plus == 0
    assert abs(OPAQUE.c_minus - (0.4 - 0.8j)) < 1e-15


def test_airy_interior_fields():
    inner = TILTED.interior
    spec = TILTED.barrier
    gap = spec.gap.meters
    phi = spec.phi.joules
    depth = spec.V0.joules - ENERGY.joules
    kappa = ((2.0 * ELECTRON_MASS / (HBAR * HBAR)) * phi / gap) ** (1.0 / 3.0)
    assert type(inner).__name__ == "_AiryInterior"
    assert inner.b == gap
    assert inner.alpha_cbrt == kappa
    assert inner.a_bar == kappa * depth * gap / phi
    assert inner.b_bar == kappa * gap * (depth - phi) / phi
    assert 0.0 < inner.b_bar < inner.a_bar
    assert inner.delta_zeta == _zeta_difference(inner.a_bar, inner.b_bar, kappa * gap)
    assert inner.zeta_a == airy_scaled(inner.a_bar)[1]
    assert inner.zeta_b == airy_scaled(inner.b_bar)[1]
    # The textbook coefficients are formed from the stored zetas alone.
    assert TILTED.c_plus == inner.g_ai * math.exp(2.0 * inner.zeta_b - inner.zeta_a)
    assert TILTED.c_minus == inner.g_bi * math.exp(-inner.zeta_a)


def test_airy_interior_with_the_turning_point_inside():
    sol = solve(ENERGY, BarrierSpec.linear_field(5.0, 6.0, 0.5))
    inner = sol.interior
    assert inner.b_bar < 0.0 and inner.zeta_b == 0.0
    assert inner.zeta_a == inner.delta_zeta == airy_scaled(inner.a_bar)[1]
    assert sol.c_plus == inner.g_ai * math.exp(-inner.zeta_a)
    assert sol.c_minus == inner.g_bi * math.exp(-inner.zeta_a)


@pytest.mark.parametrize("z", [-12.5, -5.0, 0.0, 0.75, 3.0, 12.5])
def test_airy_quad_fields(z):
    quad = airy_all(z)
    assert quad.argument == z
    assert close(quad.wronskian, 1.0 / math.pi, rel=1e-10)
    if z > 0.0:
        scaled, _ = airy_scaled(z)
        assert scaled.argument == z
        assert close(scaled.wronskian, 1.0 / math.pi, rel=1e-10)


def test_flat_transferred_fluxes_fields():
    fluxes = transferred_fluxes(ASYM)
    k, k_bar, k0, T = ASYM.k, ASYM.k_bar, ASYM.k0, ASYM.T
    j_p_t = HBAR**2 / (2.0 * ELECTRON_MASS) * (k_bar**2 - k0**2) * (k / k_bar) * T
    assert close(fluxes.j_p_t, j_p_t / (2.0 * math.pi))
    j_p2_per_t = -(HBAR**3) / ELECTRON_MASS * k0**2 * k
    assert close(fluxes.j_p2_t, j_p2_per_t * T / (2.0 * math.pi))
    assert fluxes.v2_description.startswith("full right-edge step")
    assert fluxes.exponent == -(math.frexp(T)[1] // 2) and fluxes.exponent != 0
    assert fluxes.scaled_j_p2_t == math.ldexp(fluxes.j_p2_t, 2 * fluxes.exponent)


def test_tilted_transferred_fluxes_fields():
    fluxes = transferred_fluxes(TILTED)
    assert fluxes.v2_description.startswith("half the interior slope force")
    assert fluxes.exponent == 0 and fluxes.scaled_j_p2_t == fluxes.j_p2_t
    # Half-sums of the interior currents at the two edges.
    left = currents_at(TILTED, 0.0, Side.RIGHT_LIMIT)
    right = currents_at(TILTED, TILTED.barrier.gap.meters, Side.LEFT_LIMIT)
    assert close(fluxes.j_p_t, 0.5 * (left.j_p + right.j_p), rel=1e-9)
    assert close(fluxes.j_p2_t, 0.5 * (left.j_p2 + right.j_p2), rel=1e-9)


@pytest.mark.parametrize("sol", [ASYM, TILTED], ids=["asym", "tilted"])
def test_uncertainty_result_fields(sol):
    result = uncertainty_of(sol, 4)
    assert type(result.n_electrons) is float and result.n_electrons == 4.0
    assert result.solution is sol
    assert result.fluxes == transferred_fluxes(sol)
    assert result.delta_l == position_uncertainty(sol, 4.0)
    assert result.delta_p == momentum_uncertainty(result.fluxes, sol, 4.0)
    assert result.product_over_hbar == result.delta_l.meters * result.delta_p / HBAR


def _record_calls():
    """``(file:line, record, keyword count)`` of every call in the
    package whose callee is one of the positional records."""
    for path in sorted(Path(tunnelnoise.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in POSITIONAL_RECORDS:
                yield f"{path.name}:{node.lineno}", name, len(node.keywords)


def test_package_builds_the_point_records_positionally():
    calls = list(_record_calls())
    assert {name for _, name, _ in calls} == POSITIONAL_RECORDS
    assert [where for where, _, keywords in calls if keywords] == []
