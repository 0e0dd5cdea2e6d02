import math

import pytest
from hypothesis import given, strategies as st

from tunnelnoise.errors import DomainError
from tunnelnoise.units import (
    BOLTZMANN,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    EV,
    HBAR,
    Energy,
    Length,
    ev_to_joules,
    joules_to_ev,
    wavenumber_evanescent,
    wavenumber_free,
)


def test_constants_match_scipy():
    # Guard against transcription slips in the hardcoded values.  scipy may
    # carry a newer CODATA adjustment (m_e moved by ~1.4e-9 relative between
    # the 2018 and 2022 sets) and derives hbar as h/2pi unrounded, so the
    # comparison is a tight tolerance rather than equality.
    from scipy import constants as sc

    assert HBAR == pytest.approx(sc.hbar, rel=1e-9)
    assert ELECTRON_MASS == pytest.approx(sc.m_e, rel=5e-9)
    assert ELEMENTARY_CHARGE == sc.e  # exact by SI definition
    assert BOLTZMANN == sc.k  # exact by SI definition


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_ev_joule_round_trip(e_ev):
    back = joules_to_ev(ev_to_joules(e_ev))
    assert abs(back - e_ev) <= 1e-12 * e_ev


def test_wavenumber_free_at_one_ev():
    k = wavenumber_free(ev_to_joules(1.0))
    assert k == pytest.approx(5.123e9, rel=1e-3)


def test_wavenumber_free_square_root_scaling():
    k1 = wavenumber_free(ev_to_joules(1.0))
    k4 = wavenumber_free(ev_to_joules(4.0))
    assert k4 == pytest.approx(2.0 * k1, rel=1e-14)


def test_wavenumber_free_small_energy_limit():
    assert wavenumber_free(1e-40) < 1e3
    with pytest.raises(DomainError):
        wavenumber_free(0.0)
    with pytest.raises(DomainError):
        wavenumber_free(-1.0 * EV)


def test_wavenumber_evanescent_typical_scale():
    # A 4 eV deficit puts the decay constant at the 1e10 1/m scale.
    k0 = wavenumber_evanescent(ev_to_joules(5.0), ev_to_joules(1.0))
    assert k0 == pytest.approx(1.025e10, rel=1e-3)


def test_wavenumber_evanescent_scaling_and_domain():
    k0a = wavenumber_evanescent(ev_to_joules(4.0), 0.0)
    k0b = wavenumber_evanescent(ev_to_joules(16.0), 0.0)
    assert k0b == pytest.approx(2.0 * k0a, rel=1e-14)
    with pytest.raises(DomainError):
        wavenumber_evanescent(ev_to_joules(1.0), ev_to_joules(1.0))
    with pytest.raises(DomainError):
        wavenumber_evanescent(ev_to_joules(1.0), ev_to_joules(2.0))


@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_wavenumber_pythagoras(v0_ev, fraction):
    # k^2 + k0^2 must rebuild the barrier height independent of the split.
    e_ev = fraction * v0_ev
    k = wavenumber_free(ev_to_joules(e_ev))
    k0 = wavenumber_evanescent(ev_to_joules(v0_ev), ev_to_joules(e_ev))
    target = 2.0 * ELECTRON_MASS * ev_to_joules(v0_ev) / HBAR**2
    assert abs(k * k + k0 * k0 - target) <= 1e-12 * target


def test_semantic_wrappers():
    e = Energy.from_ev(2.5)
    assert e.joules == pytest.approx(2.5 * EV, rel=1e-15)
    assert e.ev == pytest.approx(2.5, rel=1e-13)
    l = Length.from_nm(0.7)
    assert l.meters == pytest.approx(0.7e-9, rel=1e-15)
    assert l.nm == pytest.approx(0.7, rel=1e-13)
    with pytest.raises(DomainError):
        Energy.from_ev(math.inf)
    with pytest.raises(DomainError):
        Length.from_nm(math.nan)
