import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    airy_quadrature,
    airy_quadrature_scaled,
    reference_anchors,
    reference_maclaurin_pair,
    reference_taylor_step,
)
from tunnelnoise import airy
from tunnelnoise.airy import airy_all, airy_scaled, _airy_maclaurin
from tunnelnoise.errors import DomainError, RangeError

mpmath.mp.dps = 40


def mp_quad(z):
    return (
        float(mpmath.airyai(z)),
        float(mpmath.airyai(z, 1)),
        float(mpmath.airybi(z)),
        float(mpmath.airybi(z, 1)),
    )


def test_origin_closed_forms():
    q = airy_all(0.0)
    assert q.ai == pytest.approx(0.3550280539, abs=1e-10)
    assert q.bi == pytest.approx(0.6149266274, abs=1e-10)
    assert q.ai_prime == pytest.approx(-0.2588194038, abs=1e-10)
    assert q.bi_prime == pytest.approx(0.4482883574, abs=1e-10)
    # And to full precision against the defining constants.
    assert q.ai == pytest.approx(3.0 ** (-2 / 3) / math.gamma(2 / 3), rel=1e-15)
    assert q.bi == pytest.approx(3.0 ** (-1 / 6) / math.gamma(2 / 3), rel=1e-15)
    assert q.ai_prime == pytest.approx(-(3.0 ** (-1 / 3)) / math.gamma(1 / 3), rel=1e-15)
    assert q.bi_prime == pytest.approx(3.0 ** (1 / 6) / math.gamma(1 / 3), rel=1e-15)


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0))
def test_wronskian_property(z):
    q = airy_all(z)
    assert q.wronskian * math.pi == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "z",
    [-29.7, -15.0, -8.8, -5.5, -3.0, -2.0, -1.2, 0.0, 0.8, 2.0, 2.7, 4.2,
     5.0, 6.0, 7.9, 9.0, 11.0, 20.0, 30.0],
)
def test_values_against_arbitrary_precision(z):
    q = airy_all(z)
    refs = mp_quad(z)
    scale = max(abs(r) for r in refs)
    for got, ref in zip((q.ai, q.ai_prime, q.bi, q.bi_prime), refs):
        # Envelope floor handles proximity to oscillation zeros.
        tol = 1e-12 * max(abs(ref), 1e-3 * scale) if abs(z) <= 10 else 1e-10 * max(
            abs(ref), 1e-3 * scale
        )
        assert abs(got - ref) <= tol


def test_matches_quadrature_oracle_at_five():
    q = airy_all(5.0)
    oq = airy_quadrature(5.0)
    for got, ref in zip((q.ai, q.ai_prime, q.bi, q.bi_prime), oq):
        assert got == pytest.approx(ref, rel=1e-12)


def test_accuracy_sweep_against_quadrature_oracle():
    # The sweep that fixed the regime layout.  A single Maclaurin-to-
    # asymptotic switch anywhere in [4.5, 6] cannot reach 1e-12 in double
    # precision (see test below), so the implementation bridges 2 < |z| < 9
    # by ODE marching; this sweep pins the achieved accuracy against the
    # independent quadrature oracle over its trustworthy range.
    zs = [x * 0.5 for x in range(-16, 21)] + [12.5, 17.0, 25.0, 30.0]
    for z in zs:
        q = airy_all(z)
        oq = airy_quadrature(z)
        scale = max(abs(r) for r in oq)
        for got, ref in zip((q.ai, q.ai_prime, q.bi, q.bi_prime), oq):
            assert abs(got - ref) <= 5e-12 * max(abs(ref), 1e-3 * scale)


def test_single_series_switch_cannot_reach_target():
    # Documentation of the regime-split choice: at z = 6 the Maclaurin
    # series itself loses ~8 digits to cancellation (the partial sums grow
    # like Bi before collapsing to Ai), so no switch point in [4.5, 6]
    # meets a 1e-12 budget even though the series converges there.
    ai_naive = _airy_maclaurin(6.0)[0]
    ai_ref = float(mpmath.airyai(6.0))
    naive_rel = abs(ai_naive - ai_ref) / abs(ai_ref)
    assert naive_rel > 1e-10
    q = airy_all(6.0)
    assert abs(q.ai - ai_ref) / abs(ai_ref) < 1e-12


@pytest.mark.parametrize("z", [1.999, 2.0, 2.001, 8.999, 9.0, 9.001])
def test_regime_seams_are_continuous(z):
    # Both neighbours of each seam agree with the reference, so the
    # piecewise evaluator has no step at the joins.
    q = airy_all(z)
    refs = mp_quad(z)
    for got, ref in zip((q.ai, q.ai_prime, q.bi, q.bi_prime), refs):
        assert got == pytest.approx(ref, rel=1e-12)
    qm = airy_all(-z)
    refs_m = mp_quad(-z)
    for got, ref in zip((qm.ai, qm.ai_prime, qm.bi, qm.bi_prime), refs_m):
        assert got == pytest.approx(ref, rel=1e-11)


def test_ode_residual_five_point_stencil():
    # w'' = z w checked by numerical differentiation of the evaluator.
    h = 1e-2
    for z in (-7.3, -1.5, 0.5, 3.0, 5.0, 8.0, 12.0):
        for pick in (lambda q: q.ai, lambda q: q.bi):
            f = lambda x: pick(airy_all(x))
            d2 = (
                -f(z - 2 * h) + 16 * f(z - h) - 30 * f(z) + 16 * f(z + h)
                - f(z + 2 * h)
            ) / (12 * h * h)
            assert d2 == pytest.approx(z * f(z), rel=1e-6)


def test_first_negative_zero_by_bisection():
    lo, hi = -2.5, -2.2
    assert airy_all(lo).ai < 0.0 < airy_all(hi).ai
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if airy_all(mid).ai > 0.0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert zero == pytest.approx(-2.3381074105, abs=1e-9)
    # Cross-check: the independent quadrature oracle vanishes there too.
    assert abs(airy_quadrature(zero)[0]) < 5e-9


def test_scaled_recombination_at_one():
    quad, zeta = airy_scaled(1.0)
    assert zeta == pytest.approx(2.0 / 3.0, rel=1e-15)
    plain = airy_all(1.0)
    assert quad.ai * math.exp(-zeta) == pytest.approx(plain.ai, rel=1e-13)
    assert quad.ai_prime * math.exp(-zeta) == pytest.approx(plain.ai_prime, rel=1e-13)
    assert quad.bi * math.exp(zeta) == pytest.approx(plain.bi, rel=1e-13)
    assert quad.bi_prime * math.exp(zeta) == pytest.approx(plain.bi_prime, rel=1e-13)


def test_scaled_wronskian_in_scaled_arithmetic():
    quad, _ = airy_scaled(50.0)
    assert quad.wronskian * math.pi == pytest.approx(1.0, abs=1e-10)


def test_scaled_matches_oracle_at_twenty():
    quad, zeta = airy_scaled(20.0)
    oai, oaip, obi, obip, ozeta = airy_quadrature_scaled(20.0)
    assert zeta == pytest.approx(ozeta, rel=1e-14)
    assert quad.ai == pytest.approx(oai, rel=1e-11)
    assert quad.ai_prime == pytest.approx(oaip, rel=1e-11)
    assert quad.bi == pytest.approx(obi, rel=1e-11)
    assert quad.bi_prime == pytest.approx(obip, rel=1e-11)


def test_scaled_extreme_argument():
    # Far beyond any unscaled range; values stay finite and consistent.
    quad, zeta = airy_scaled(1.2e5)
    assert math.isfinite(quad.ai) and math.isfinite(quad.bi)
    assert zeta == pytest.approx((2.0 / 3.0) * 1.2e5 ** 1.5, rel=1e-14)
    assert quad.wronskian * math.pi == pytest.approx(1.0, abs=1e-12)


def test_overflow_guard_names_the_scale():
    with pytest.raises(RangeError) as exc:
        airy_all(120.0)
    msg = str(exc.value)
    assert "z^(3/2)" in msg and "700" in msg
    # The scaled entry point covers the same argument.
    quad, _ = airy_scaled(120.0)
    assert math.isfinite(quad.bi)


def test_domain_errors():
    with pytest.raises(DomainError):
        airy_all(math.nan)
    with pytest.raises(DomainError):
        airy_scaled(0.0)
    with pytest.raises(DomainError):
        airy_scaled(-3.0)


# ------------------------------------------------ tabulated series, bit for bit

ANCHORS = [0.5 * n for n in range(-18, 19) if abs(n) >= 4]


def _identical(got, ref):
    """Tuples equal to the last bit, NaN (an unset anchor slot) matching NaN."""
    return len(got) == len(ref) and all(
        a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, ref)
    )


def _reference_marched(z, anchors):
    anchor = min(max(round(z / 0.5) * 0.5, -9.0), 9.0)
    if abs(anchor) < 2.0:
        anchor = math.copysign(2.0, z)
    ai0, aip0, bi0, bip0 = anchors[anchor]
    h = z - anchor
    return (
        *reference_taylor_step(anchor, ai0, aip0, h),
        *reference_taylor_step(anchor, bi0, bip0, h),
    )


def test_anchor_table_matches_the_inline_recurrence():
    ai_s, aip_s, _, _, zeta = airy._airy_asymptotic_positive(9.0)
    seed = (ai_s * math.exp(-zeta), aip_s * math.exp(-zeta))
    table = airy._build_anchors()
    reference = reference_anchors(seed)
    assert sorted(table) == sorted(reference) == ANCHORS
    assert all(_identical(table[x], reference[x]) for x in ANCHORS)


def test_marched_values_match_the_inline_recurrence_exactly():
    rng = random.Random(20261018)
    zs = [rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 9.0) for _ in range(10000)]
    for x in ANCHORS:
        zs += [x - 1e-12, x + 1e-12, x - 0.25, x + 0.25]
    zs = [z for z in zs if 2.0 < abs(z) < 9.0]
    assert len(zs) > 10000
    anchors = airy._build_anchors()
    mismatched = [
        z for z in zs if airy._airy_marched(z) != _reference_marched(z, anchors)
    ]
    assert mismatched == []


def test_maclaurin_values_match_the_inline_recurrence_exactly():
    rng = random.Random(20261019)
    zs = [rng.uniform(-2.0, 2.0) for _ in range(2000)]
    zs += [0.0, -0.0, 2.0, -2.0, 1e-300, -1e-12, 1.999999999999]
    mismatched = [
        z for z in zs if airy._maclaurin_pair(z) != reference_maclaurin_pair(z)
    ]
    assert mismatched == []


def test_maclaurin_table_holds_the_inline_recurrence():
    cf = cg = 1.0
    assert len(airy._MACLAURIN_TERMS) == 40
    for k, row in enumerate(airy._MACLAURIN_TERMS):
        n_f, n_g = 3 * k, 3 * k + 1
        cf = cf / ((n_f + 3) * (n_f + 2))
        cg = cg / ((n_g + 3) * (n_g + 2))
        assert row == (cf, cg, n_f + 3, n_g + 3)
