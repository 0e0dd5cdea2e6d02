"""The sweep's row printers write exactly the bytes of the expressions
they replace, kept here as the reference: CSV cells joined from
``f"{cell:.11e}"`` and JSON from ``json.dumps(payload, sort_keys=True,
indent=2, allow_nan=False)``."""

import json

import pytest

from tunnelnoise.cli import (
    _ALL_COLUMNS,
    _UNIT_LABELS,
    SweepConfig,
    SweepVariable,
    _format_csv,
    _format_json,
)
from tunnelnoise.errors import DomainError
from tunnelnoise.scattering import Family

SPECIAL = (-0.0, 5e-324, 1e308, 1 / 3, -2.5e-300, 123456.789, 1.0)

COLUMN_SETS = [
    *[(name,) for name in _ALL_COLUMNS],
    ("T", "R", "delta_l", "delta_p", "product"),
    _ALL_COLUMNS,
    ("product", "T"),
]

SUMMARIES = {
    SweepVariable.BIAS_PHI: {
        "skipped_rows": 1,
        "delta_p_nondecreasing": True,
        "product_nondecreasing": False,
        "zero_bias_product_hbar": 0.4999999999999998,
    },
    SweepVariable.GAP: {"skipped_rows": 0},
    SweepVariable.ENERGY: {"skipped_rows": 7},
}


def reference_csv(config, rows, summary):
    header = [config.variable.value, *config.outputs]
    units = [_UNIT_LABELS[name] for name in header]
    lines = [",".join(header), "# units: " + ",".join(units)]
    for row in rows:
        lines.append(",".join(f"{cell:.11e}" for cell in row.values()))
    for key, value in summary.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.11e}"
        lines.append(f"# {key}: {value}")
    return "\n".join(lines) + "\n"


def reference_json(config, rows, summary):
    var_name = config.variable.value
    payload = {
        "config": {
            "barrier": config.family.value,
            "V0_ev": config.v0_ev,
            "E_ev": config.e_ev,
            "phi_ev": config.phi_ev,
            "gap_nm": config.gap_nm,
            "sweep": var_name,
            "min": config.minimum,
            "max": config.maximum,
            "steps": config.steps,
            "columns": list(config.outputs),
            "N": config.n_electrons,
            "I0_a": config.i0_a,
            "units": {name: _UNIT_LABELS[name] for name in (var_name, *config.outputs)},
        },
        "rows": rows,
        "summary": summary,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def sweep_config(variable, outputs):
    family = Family.SYMMETRIC_RECT
    if variable is SweepVariable.BIAS_PHI:
        family = Family.LINEAR_FIELD
        outputs = tuple(name for name in outputs if name != "s_fq") or ("T",)
    return SweepConfig(
        family=family,
        v0_ev=5.0,
        e_ev=1.0,
        phi_ev=0.0,
        gap_nm=0.5,
        variable=variable,
        minimum=0.1,
        maximum=4.5,
        steps=3,
        outputs=outputs,
        n_electrons=1.0,
        i0_a=1e-6,
    )


def table(config, count):
    """``count`` rows shaped as ``run_sweep`` builds them, cycling
    through the special values."""
    header = (config.variable.value, *config.outputs)
    rows = []
    for i in range(count):
        cells = [SPECIAL[(i + j) % len(SPECIAL)] for j in range(len(header))]
        rows.append(dict(zip(header, cells)))
    return rows


@pytest.mark.parametrize("count", [0, 1, 23], ids=["empty", "one-row", "many-rows"])
@pytest.mark.parametrize("outputs", COLUMN_SETS, ids=",".join)
@pytest.mark.parametrize("variable", list(SweepVariable), ids=lambda v: v.value)
def test_printers_write_the_reference_bytes(variable, outputs, count):
    config = sweep_config(variable, outputs)
    rows = table(config, count)
    summary = SUMMARIES[variable]
    assert _format_csv(config, rows, summary) == reference_csv(config, rows, summary)
    assert _format_json(config, rows, summary) == reference_json(config, rows, summary)


def test_every_special_value_reaches_both_printers():
    config = sweep_config(SweepVariable.GAP, _ALL_COLUMNS)
    rows = table(config, 3)
    cells = {cell for row in rows for cell in row.values()}
    assert all(value in cells for value in SPECIAL)
    assert "-0.0" in _format_json(config, rows, {})
    assert "5e-324" in _format_json(config, rows, {})


def test_json_rows_name_a_value_that_is_not_finite():
    config = sweep_config(SweepVariable.GAP, ("T",))
    rows = [{"gap": 0.1, "T": 0.5}, {"gap": float("inf"), "T": 0.25}]
    with pytest.raises(DomainError, match="rows.gap is not finite"):
        _format_json(config, rows, {})
    with pytest.raises(ValueError):
        reference_json(config, rows, {})
