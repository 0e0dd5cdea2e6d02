"""The records are immutable.  Every record except the two units is a
named tuple: fields cannot be assigned, ``_replace`` makes a changed
copy of the same type, and the properties read through the tuple
fields.  The input records check their fields when constructed; the
units ``Energy`` and ``Length`` are slotted classes that equal only
their own kind."""

import copy
import math
import pickle

import pytest

from tunnelnoise.airy import airy_all
from tunnelnoise.cli import SweepConfig, SweepVariable
from tunnelnoise.errors import DomainError, UsageError
from tunnelnoise.fluxes import TransferredFluxes, currents_at, jump_residuals
from tunnelnoise.noise import ResonatorSpec, noise_budget
from tunnelnoise.scattering import BarrierSpec, Family, eval_wavefunction, solve
from tunnelnoise.uncertainty import uncertainty_of
from tunnelnoise.units import Energy, Length

RECT = solve(Energy.from_ev(1.0), BarrierSpec.symmetric(5.0, 0.5))
TILTED = solve(Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 2.0, 0.5))
RESULT = uncertainty_of(TILTED)
NOMINAL = ResonatorSpec(mass=1e-10, f0=1e5, quality=1e7, temperature=0.01)
SWEEP_FIELDS = dict(
    family=Family.LINEAR_FIELD,
    v0_ev=5.0,
    e_ev=1.0,
    phi_ev=0.0,
    gap_nm=0.5,
    variable=SweepVariable.BIAS_PHI,
    minimum=0.0,
    maximum=3.0,
    steps=4,
    outputs=("T", "product"),
    n_electrons=1.0,
    i0_a=1e-6,
)
RECORDS = {
    "AiryQuad": airy_all(3.0),
    "_RectInterior": RECT.interior,
    "_AiryInterior": TILTED.interior,
    "ScatteringSolution": TILTED,
    "TransferredFluxes": RESULT.fluxes,
    "UncertaintyResult": RESULT,
    "BarrierSpec": TILTED.barrier,
    "WavefunctionSample": eval_wavefunction(TILTED, 0.2e-9),
    "FluxReport": currents_at(TILTED, 0.2e-9),
    "JumpResiduals": jump_residuals(TILTED),
    "ResonatorSpec": NOMINAL,
    "NoiseBudget": noise_budget(1e-6, NOMINAL, RECT.energy, RECT.barrier),
    "SweepConfig": SweepConfig(**SWEEP_FIELDS),
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


def test_transferred_fluxes_has_no_defaults():
    # Both branches of transferred_fluxes set every field, the tilted one
    # with exponent 0 and its own j_p2_t as the scaled value.
    assert TransferredFluxes._field_defaults == {}
    with pytest.raises(TypeError):
        TransferredFluxes(j_p_t=1.0, j_p2_t=-2.0, v2_description="d")
    assert RESULT.fluxes.exponent == 0
    assert RESULT.fluxes.scaled_j_p2_t == RESULT.fluxes.j_p2_t
    assert RESULT.solution is TILTED


@pytest.mark.parametrize("unit", [Energy(1.0), Length(1.0)], ids=["Energy", "Length"])
def test_units_cannot_be_assigned(unit):
    (field,) = type(unit).__slots__
    with pytest.raises(AttributeError):
        setattr(unit, field, 2.0)
    with pytest.raises(AttributeError):
        unit.unlisted = 0.0
    with pytest.raises(AttributeError):
        delattr(unit, field)
    assert getattr(unit, field) == 1.0
    assert repr(unit) == f"{type(unit).__name__}({field}=1.0)"


def test_units_equal_only_their_own_kind():
    assert Energy(1.0) == Energy(1.0) and Length(1.0) == Length(1.0)
    assert hash(Energy(1.0)) == hash(Energy(1.0))
    assert Energy(1.0) != Length(1.0) and Length(1.0) != Energy(1.0)
    assert Energy(1.0) != 1.0 and Energy(1.0) != Energy(2.0)
    with pytest.raises(TypeError):
        2 * Energy(1.0)
    with pytest.raises(TypeError):
        Length(1.0) + Length(1.0)


@pytest.mark.parametrize(
    "record",
    [Energy(1.5), Length(2.5), TILTED.barrier, NOMINAL, RECORDS["SweepConfig"]],
    ids=["Energy", "Length", "BarrierSpec", "ResonatorSpec", "SweepConfig"],
)
def test_input_records_copy_and_pickle_as_themselves(record):
    pickled = pickle.loads(pickle.dumps(record))
    clones = [copy.copy(record), copy.deepcopy(record), pickled]
    assert all(type(clone) is type(record) and clone == record for clone in clones)


V0, PHI, GAP = Energy.from_ev(5.0), Energy.from_ev(1.0), Length.from_nm(0.5)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BarrierSpec(Family.LINEAR_FIELD, V0, PHI, Length(0.0)), DomainError,
         "barrier gap must be positive, got 0.0 m"),
        (lambda: BarrierSpec(Family.LINEAR_FIELD, Energy(-1.0), PHI, GAP), DomainError,
         "barrier height must be positive"),
        (lambda: BarrierSpec(Family.ASYMMETRIC_RECT, V0, Energy(-PHI.joules), GAP),
         DomainError, "potential drop must be >= 0, got -1.0 eV"),
        (lambda: BarrierSpec(family=Family.SYMMETRIC_RECT, V0=V0, phi=PHI, gap=GAP),
         DomainError, "symmetric barrier requires a zero potential drop, got 1.0 eV"),
        (lambda: ResonatorSpec(mass=math.nan, f0=1e5, quality=1e7, temperature=0.01),
         DomainError, "resonator mass must be finite, got nan"),
        (lambda: ResonatorSpec(1e-10, 1e5, "1e7", 0.01), DomainError,
         "resonator quality must be finite, got '1e7'"),
        (lambda: ResonatorSpec(1e-10, 1e5, 1e7, 0.0), DomainError,
         "resonator temperature must be strictly positive, got 0.0"),
        (lambda: SweepConfig(**{**SWEEP_FIELDS, "steps": 1}), UsageError,
         "steps must be >= 2, got 1"),
        (lambda: SweepConfig(**{**SWEEP_FIELDS, "outputs": ("bogus",)}), UsageError,
         "unknown columns ['bogus']"),
        (lambda: SweepConfig(**{**SWEEP_FIELDS, "outputs": ("s_fq",)}), UsageError,
         "the s_fq column needs the symmetric barrier"),
        (lambda: SweepConfig(**{**SWEEP_FIELDS, "n_electrons": 0.5}), UsageError,
         "N must be a finite count >= 1, got 0.5"),
        (lambda: SweepConfig(*{**SWEEP_FIELDS, "minimum": -1.0}.values()), UsageError,
         "phi sweep min must be >= 0, got -1.0"),
    ],
    ids=[
        "barrier-zero-gap",
        "barrier-negative-height",
        "barrier-negative-drop",
        "barrier-symmetric-with-drop",
        "resonator-nan-mass",
        "resonator-string-quality",
        "resonator-zero-temperature",
        "sweep-one-step",
        "sweep-unknown-column",
        "sweep-s_fq-on-tilted",
        "sweep-fractional-N",
        "sweep-negative-phi",
    ],
)
def test_constructing_an_input_record_checks_it(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert message in str(raised.value)
