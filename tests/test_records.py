"""The per-point records are immutable named tuples: fields cannot be
assigned, ``_replace`` makes a changed copy, and the properties read
through the tuple fields."""

import math

import pytest

from tunnelnoise.airy import airy_all
from tunnelnoise.fluxes import TransferredFluxes
from tunnelnoise.scattering import BarrierSpec, solve
from tunnelnoise.uncertainty import uncertainty_of
from tunnelnoise.units import Energy

RECT = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
TILTED = solve(Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 2.0, 0.5))
RESULT = uncertainty_of(TILTED)
RECORDS = {
    "AiryQuad": airy_all(3.0),
    "_RectInterior": RECT.interior,
    "_AiryInterior": TILTED.interior,
    "ScatteringSolution": TILTED,
    "TransferredFluxes": RESULT.fluxes,
    "UncertaintyResult": RESULT,
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)
    with pytest.raises(AttributeError):
        record.unlisted = 0.0


@pytest.mark.parametrize("name", RECORDS)
def test_replace_returns_a_changed_copy(name):
    record = RECORDS[name]
    first = record._fields[0]
    before = getattr(record, first)
    changed = record._replace(**{first: 0.0})
    assert type(changed) is type(record)
    assert getattr(changed, first) == 0.0
    assert getattr(record, first) is before
    assert all(a is b for a, b in zip(changed[1:], record[1:], strict=True))


def test_properties_read_through_the_fields():
    assert TILTED.tilted_interior is True
    assert RECT.tilted_interior is False
    assert TILTED._replace(interior=RECT.interior).tilted_interior is False
    assert RECT._replace(interior=None).tilted_interior is False

    quad = RECORDS["AiryQuad"]
    assert quad.wronskian == quad.ai * quad.bi_prime - quad.ai_prime * quad.bi
    assert quad.wronskian * math.pi == pytest.approx(1.0, abs=1e-12)
    swapped = quad._replace(ai=quad.bi, bi=quad.ai)
    assert swapped.wronskian == quad.bi * quad.bi_prime - quad.ai_prime * quad.ai


def test_defaults_are_kept():
    fluxes = TransferredFluxes(j_p_t=1.0, j_p2_t=-2.0, v2_description="d")
    assert fluxes.exponent == 0 and fluxes.scaled_j_p2_t is None
    assert RESULT.fluxes.scaled_j_p2_t is None
    assert RESULT.solution is TILTED
