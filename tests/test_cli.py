"""End-to-end checks of the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tunnelnoise
from tunnelnoise.cli import main

pytestmark = pytest.mark.filterwarnings("error")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    units = lines[1]
    rows = []
    footer = []
    for line in lines[2:]:
        if line.startswith("#"):
            footer.append(line)
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return header, units, rows, footer


# ------------------------------------------------------------ sweep: CSV


def test_default_sweep_shape_and_summary(capsys):
    code, out, err = run(capsys, "sweep", "--steps", "6")
    assert code == 0 and err == ""
    header, units, rows, footer = parse_csv(out)
    assert header == ["phi", "T", "R", "delta_l", "delta_p", "product"]
    assert units == "# units: eV,dimensionless,dimensionless,nm,kg*m/s,hbar"
    assert len(rows) == 6
    assert rows[0][0] == 0.0 and rows[-1][0] == 5.0
    assert "# skipped_rows: 0" in footer
    assert "# delta_p_nondecreasing: true" in footer
    assert "# product_nondecreasing: true" in footer
    zero_bias = [f for f in footer if f.startswith("# zero_bias_product_hbar:")]
    assert len(zero_bias) == 1
    assert abs(float(zero_bias[0].split(":")[1]) - 0.5) < 1e-9


def test_csv_cells_carry_twelve_significant_digits(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "3")
    data_lines = [
        line
        for line in out.splitlines()[2:]
        if line and not line.startswith("#")
    ]
    cell = re.compile(r"-?\d\.\d{11}e[+-]\d{2,3}$")
    for line in data_lines:
        for value in line.split(","):
            assert cell.match(value), value


def test_csv_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["sweep", "--steps", "40", "--out", str(first)]) == 0
    assert main(["sweep", "--steps", "40", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_symmetric_gap_sweep_has_constant_product(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--barrier",
        "sym",
        "--sweep",
        "gap",
        "--min",
        "0.2",
        "--max",
        "1.0",
        "--steps",
        "5",
        "--columns",
        "T,product",
    )
    assert code == 0
    header, _, rows, footer = parse_csv(out)
    assert header == ["gap", "T", "product"]
    for row in rows:
        assert abs(row[2] - 0.5) < 1e-10
    # gap sweeps carry no bias-monotonicity verdict
    assert not any("nondecreasing" in line for line in footer)


def test_bias_sweep_monotone_verdicts_reflect_the_data(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--barrier",
        "field",
        "--min",
        "0",
        "--max",
        "4",
        "--steps",
        "9",
        "--columns",
        "delta_p,product",
    )
    assert code == 0
    _, _, rows, footer = parse_csv(out)
    kicks = [row[1] for row in rows]
    products = [row[2] for row in rows]
    assert kicks == sorted(kicks)
    assert products == sorted(products)
    assert "# delta_p_nondecreasing: true" in footer
    assert "# product_nondecreasing: true" in footer


def test_s_fq_column_on_symmetric_energy_sweep(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--barrier",
        "sym",
        "--gap",
        "2.0",
        "--sweep",
        "E",
        "--min",
        "0.5",
        "--max",
        "2.5",
        "--steps",
        "3",
        "--columns",
        "T,s_fq",
    )
    assert code == 0
    header, units, rows, _ = parse_csv(out)
    assert header == ["E", "T", "s_fq"]
    assert units.endswith("eV,dimensionless,N^2/Hz")
    for row in rows:
        assert row[2] > 0 and math.isfinite(row[2])


# ----------------------------------------------------------- sweep: JSON


def test_json_sweep_round_trips_bit_exactly(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "12", "--format", "json")
    assert code == 0
    data = json.loads(out)
    again = json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert again == out
    assert data["config"]["sweep"] == "phi"
    assert data["config"]["units"]["delta_l"] == "nm"
    assert len(data["rows"]) == 12
    assert data["summary"]["skipped_rows"] == 0
    assert data["summary"]["product_nondecreasing"] is True
    assert abs(data["summary"]["zero_bias_product_hbar"] - 0.5) < 1e-9


def test_json_and_csv_agree_on_row_values(capsys):
    args = ["sweep", "--steps", "4", "--columns", "T,product"]
    code, csv_text, _ = run(capsys, *args)
    assert code == 0
    code, json_text, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    _, _, rows, _ = parse_csv(csv_text)
    data = json.loads(json_text)
    for csv_row, json_row in zip(rows, data["rows"], strict=True):
        assert csv_row[0] == pytest.approx(json_row["phi"], rel=1e-11)
        assert csv_row[1] == pytest.approx(json_row["T"], rel=1e-11)
        assert csv_row[2] == pytest.approx(json_row["product"], rel=1e-11)


# ------------------------------------------------------------ exit codes

S_FQ = ["--columns", "T,s_fq"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["sweep", "--steps", "1"], "steps"),
        (["sweep", "--min", "2", "--max", "1"], "min"),
        (["sweep", "--barrier", "sym"], "phi sweep"),
        (["sweep", "--columns", "T,bogus"], "bogus"),
        (["sweep", "--columns", "s_fq"], "s_fq"),
        (["sweep", "--sweep", "E", "--min", "1", "--max", "7"], "E sweep max"),
        (["sweep", "--sweep", "gap", "--min", "-0.5", "--max", "1"], "gap"),
        (["sweep", "--N", "0.5"], "N"),
        (["feasibility", "--barrier", "field", "--E", "6"], "symmetric"),
        (["feasibility", "--barrier", "asym", "--phi", "1", "--E", "6"], "symmetric"),
        (["solve", "--N", "0.5"], "N"),
        (["solve", "--N", "inf"], "N"),
        (["solve", "--N", "nan"], "N"),
        (
            ["sweep", "--columns", "T,T,product", "--steps", "2"],
            "repeated columns ['T']",
        ),
    ],
)
def test_usage_errors_exit_two_and_name_the_field(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["solve", "--E", "7"], "E < V0"),
        (["sweep", "--barrier", "field", "--sweep", "phi", "--gap", "-1"], "gap"),
        (["sweep", "--barrier", "field", "--sweep", "phi", "--gap", "0"], "gap"),
        (["solve", "--barrier", "sym", "--gap", "150"], "underflow"),
        (["solve", "--barrier", "sym", "--gap", "200"], "underflow"),
        (["feasibility", "--gap", "150"], "underflow"),
        (["solve", "--E", "1e-300"], "underflows to zero"),
        (["solve", "--V0", "1e-300", "--E", "1e-301"], "underflows to zero"),
        (["solve", "--barrier", "field", "--phi", "1", "--E", "1e-300"], "underflows"),
        (["solve", "--V0", "1e300", "--E", "1"], "OverflowError"),
        (["feasibility", "--I0", "1e-320"], "ZeroDivisionError"),
        (["solve", "--barrier", "sym", "--gap", "35"], "underflows"),
        (["sweep", "--sweep", "gap", "--V0", "-1"], "barrier height"),
        (["sweep", "--sweep", "gap", "--E", "7"], "E < V0"),
        (["sweep", "--sweep", "gap", "--E", "-1"], "incident energy"),
        (["sweep", "--sweep", "E", "--gap", "-1"], "barrier gap"),
        (["feasibility", "--I0", "1e300"], "s_fq is not finite"),
        (["feasibility", "--I0", "1e300", "--format", "json"], "s_fq is not finite"),
        (["feasibility", "--mass", "1e300"], "feasibility_lhs is not finite"),
        (["feasibility", "--mass", "1e300", "--format", "json"], "feasibility_lhs"),
        (["feasibility", "--temp", "1e300", "--f0", "1e300"], "s_fl is not finite"),
        (["solve", "--I0", "1e300"], "s_fq is not finite"),
        (
            ["solve", "--barrier", "field", "--phi", "1", "--gap", "1e300"],
            "dT_dl_per_m is not finite",
        ),
        (["sweep", "--barrier", "sym", "--sweep", "gap", *S_FQ, "--I0", "-1"], "current"),
        (["sweep", "--barrier", "sym", "--sweep", "gap", *S_FQ, "--I0", "0"], "current"),
        (["sweep", "--barrier", "sym", "--sweep", "E", *S_FQ, "--I0", "inf"], "current"),
        (
            ["sweep", "--barrier", "sym", "--sweep", "gap", *S_FQ, "--I0", "nan",
             "--format", "json"],
            "current must be positive and finite, got nan",
        ),
        (
            ["solve", "--barrier", "asym", "--phi", "1e300", "--gap", "1e300"],
            "phase k_bar*l overflows",
        ),
        (
            ["solve", "--barrier", "field", "--V0", "1e10", "--phi", "1e10",
             "--gap", "1e305"],
            "phase k_bar*l overflows",
        ),
        (
            ["sweep", "--sweep", "gap", "--gap", "nan", "--steps", "3",
             "--format", "json"],
            "config.gap_nm is not finite",
        ),
        (
            ["sweep", "--I0", "nan", "--steps", "3", "--format", "json"],
            "config.I0_a is not finite",
        ),
        (
            ["sweep", "--I0", "inf", "--steps", "3", "--format", "json"],
            "config.I0_a is not finite",
        ),
        (
            ["sweep", "--barrier", "sym", "--sweep", "gap", "--columns", "s_fq",
             "--I0", "1e300", "--steps", "3"],
            "electron rate I0/e overflows at I0=1e+300",
        ),
    ],
    ids=[
        "solve-E-above-V0",
        "sweep-phi-negative-gap",
        "sweep-phi-zero-gap",
        "solve-sym-gap-150",
        "solve-sym-gap-200",
        "feasibility-gap-150",
        "solve-E-underflows-k",
        "solve-V0-and-E-underflow-k",
        "solve-field-E-underflows-k",
        "solve-V0-overflows-k0-squared",
        "feasibility-I0-underflows-s-fq",
        "solve-sym-gap-35-kick-underflows",
        "sweep-gap-negative-V0",
        "sweep-gap-E-above-V0",
        "sweep-gap-negative-E",
        "sweep-E-negative-gap",
        "feasibility-I0-overflows-s-fq",
        "feasibility-json-I0-overflows-s-fq",
        "feasibility-mass-overflows-lhs",
        "feasibility-json-mass-overflows-lhs",
        "feasibility-overflows-s-fl",
        "solve-I0-overflows-s-fq",
        "solve-field-gap-1e300-nan-derivative",
        "sweep-s_fq-negative-I0",
        "sweep-s_fq-zero-I0",
        "sweep-E-s_fq-inf-I0",
        "sweep-s_fq-nan-I0-json",
        "solve-asym-phase-overflows",
        "solve-field-phase-overflows",
        "sweep-json-unused-nan-gap",
        "sweep-json-unused-nan-I0",
        "sweep-json-unused-inf-I0",
        "sweep-s_fq-I0-rate-overflows",
    ],
)
def test_domain_errors_exit_three(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 3 and fragment in err
    assert out == ""


def test_s_fq_sweep_keeps_its_rows_while_the_electron_rate_is_finite(capsys):
    # 1e289 A / e is about 6e307 electrons per second, inside the float range.
    code, out, err = run(
        capsys, "sweep", "--barrier", "sym", "--sweep", "gap", "--columns", "s_fq",
        "--I0", "1e289", "--steps", "3",
    )
    assert code == 0 and err == ""
    _, _, rows, footer = parse_csv(out)
    assert len(rows) == 3 and "# skipped_rows: 0" in footer


def test_opaque_symmetric_solve_is_a_value(capsys):
    # At 30 nm T is about 2.6e-267 and the SI kick second moment is
    # subnormal; the kick variance is formed from power-of-two scaled
    # fluxes, so the point has a product and both PSD routes agree.
    code, out, err = run(capsys, "solve", "--barrier", "sym", "--gap", "30")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert 0.0 < payload["probabilities"]["T"] < 1e-260
    assert abs(payload["transferred_fluxes"]["j_p2_t"]) < sys.float_info.min
    assert abs(payload["uncertainty"]["product_over_hbar"] - 0.5) <= 1e-10
    assert payload["s_fq_n2_per_hz"] > 0.0


@pytest.mark.parametrize(
    "argv, rows, fragment",
    [
        (["--barrier", "asym", "--V0", "1e300", "--steps", "3"], 0, "OverflowError"),
        (
            ["--barrier", "field", "--gap", "36", "--min", "0", "--max", "3", "--steps", "4"],
            1,
            "underflows",
        ),
    ],
    ids=["asym-V0-overflows", "field-opaque-zero-bias"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_zero_bias_point_leaves_the_summary_value_out(
    capsys, argv, rows, fragment, fmt
):
    code, out, err = run(capsys, "sweep", "--sweep", "phi", "--format", fmt, *argv)
    assert code == 0
    assert err.count("\n") == 1 and "zero-bias" in err and fragment in err
    if fmt == "csv":
        _, _, parsed, footer = parse_csv(out)
        summary = [line.split(": ")[0] for line in footer]
        assert summary == [
            "# skipped_rows",
            "# delta_p_nondecreasing",
            "# product_nondecreasing",
        ]
    else:
        payload = json.loads(out)
        parsed = payload["rows"]
        assert "zero_bias_product_hbar" not in payload["summary"]
    assert len(parsed) == rows


def test_unbounded_sweep_checks_its_fixed_inputs_at_the_minimum(capsys):
    # With --max inf the first grid value is NaN; the fixed inputs are
    # checked at the minimum instead, so the sweep still runs.
    code, out, err = run(
        capsys, "sweep", "--sweep", "gap", "--max", "inf", "--steps", "3"
    )
    assert code == 0 and err == ""
    assert "# skipped_rows: 3" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--sweep", "E", "--E", "nan"],
        ["--sweep", "gap", "--gap", "nan"],
        ["--sweep", "phi", "--phi", "nan"],
        ["--barrier", "sym", "--sweep", "gap", "--phi", "nan"],
        ["--barrier", "sym", "--sweep", "gap", "--I0", "nan"],
    ],
    ids=[
        "E-sweep",
        "gap-sweep",
        "phi-sweep",
        "sym-gap-sweep-phi",
        "sweep-without-s_fq-I0",
    ],
)
def test_sweep_rows_never_convert_an_input_the_sweep_does_not_use(capsys, argv):
    # Each row moves only the swept variable of the checked base point,
    # so a NaN given for the swept variable, for a bias the symmetric
    # barrier does not have, or for a current no column uses, never
    # reaches a row.
    code, out, err = run(capsys, "sweep", *argv, "--steps", "3")
    assert code == 0 and err == ""
    _, _, rows, footer = parse_csv(out)
    assert len(rows) == 3 and "# skipped_rows: 0" in footer


def test_sweep_skips_the_row_whose_wavenumber_underflows(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--barrier",
        "field",
        "--sweep",
        "E",
        "--min",
        "1e-300",
        "--max",
        "4",
        "--steps",
        "3",
    )
    assert code == 0
    _, _, rows, footer = parse_csv(out)
    assert [row[0] for row in rows] == [2.0, 4.0]
    assert footer == ["# skipped_rows: 1"]


def test_sweep_skips_rows_with_an_arithmetic_error(capsys):
    # V0 = 1e300 eV overflows k0**2 in every row: each row is skipped
    # and counted, instead of the first one aborting the sweep.
    code, out, _ = run(
        capsys,
        "sweep",
        "--barrier",
        "sym",
        "--sweep",
        "gap",
        "--V0",
        "1e300",
        "--steps",
        "3",
    )
    assert code == 0
    _, _, rows, footer = parse_csv(out)
    assert rows == []
    assert footer == ["# skipped_rows: 3"]


@pytest.mark.parametrize(
    "argv, kept",
    [
        (["--phi", "1e300", "--min", "1", "--max", "1e300"], []),
        (["--phi", "1", "--min", "1", "--max", "1e308"], [1.0]),
    ],
    ids=["every-row-overflows", "two-phases-overflow"],
)
def test_sweep_skips_the_rows_whose_phase_overflows(capsys, argv, kept):
    # k_bar * l overflows, so cmath.exp of the transmitted phase fails:
    # that row is skipped and counted instead of ending the sweep.
    code, out, err = run(
        capsys, "sweep", "--barrier", "asym", "--sweep", "gap", *argv, "--steps", "3"
    )
    assert code == 0 and err == ""
    _, _, rows, footer = parse_csv(out)
    assert [row[0] for row in rows] == kept
    assert footer == [f"# skipped_rows: {3 - len(kept)}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--sweep", "gap", "--gap", "nan"],
        ["--I0", "nan"],
        ["--I0", "inf"],
    ],
    ids=["gap-sweep-nan-gap", "nan-I0", "inf-I0"],
)
def test_json_sweep_with_an_unused_non_finite_input_writes_no_file(
    capsys, tmp_path, argv
):
    # The CSV form prints every row; JSON echoes the input, and JSON has
    # no spelling for inf or NaN.
    target = tmp_path / "out.json"
    code, out, err = run(
        capsys, "sweep", *argv, "--steps", "3", "--format", "json", "--out",
        str(target),
    )
    assert code == 3 and out == "" and "is not finite" in err
    assert not target.exists()
    code, out, err = run(capsys, "sweep", *argv, "--steps", "3")
    assert code == 0 and err == ""
    assert len(parse_csv(out)[2]) == 3


def test_consistency_failure_exits_four(capsys):
    # Strong bias on a shallow tilted barrier: the momentum-variance
    # bookkeeping genuinely turns negative, which the library reports as
    # an internal-consistency failure rather than a skippable row.
    code, _, err = run(
        capsys,
        "sweep",
        "--barrier",
        "field",
        "--V0",
        "2",
        "--gap",
        "0.3",
        "--min",
        "2.2",
        "--max",
        "2.6",
        "--steps",
        "3",
    )
    assert code == 4
    assert "internal consistency" in err


def test_missing_subcommand_is_an_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# ------------------------------------------------------------ config file


def test_config_file_seeds_defaults_and_flags_override(capsys, tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "# comment line\n"
        "barrier = field\n"
        "steps = 4\n"
        "max = 2.0\n"
        "columns = T,product\n"
    )
    code, out, _ = run(capsys, "sweep", "--config", str(conf))
    assert code == 0
    header, _, rows, _ = parse_csv(out)
    assert header == ["phi", "T", "product"]
    assert len(rows) == 4 and rows[-1][0] == 2.0

    code, out, _ = run(capsys, "sweep", "--config", str(conf), "--steps", "3")
    assert code == 0
    _, _, rows, _ = parse_csv(out)
    assert len(rows) == 3


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("stepz = 4\n", "stepz"),
        ("steps = four\n", "not a valid int"),
        ("steps 4\n", "key=value"),
        ("sweep = foo\n", "sweep='foo'"),
        ("format = xml\n", "format='xml'"),
    ],
)
def test_malformed_config_is_a_usage_error(capsys, tmp_path, content, fragment):
    conf = tmp_path / "bad.conf"
    conf.write_text(content)
    code, _, err = run(capsys, "sweep", "--config", str(conf))
    assert code == 2 and fragment in err


def test_missing_config_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "absent.conf"))
    assert code == 2 and "cannot read config file" in err


# ----------------------------------------------------------- feasibility


def test_feasibility_nominal_is_at_threshold(capsys):
    code, out, _ = run(capsys, "feasibility", "--gap", "2.0")
    assert code == 0
    assert "AT THRESHOLD" in out
    lhs_line = [l for l in out.splitlines() if l.startswith("feasibility_lhs")][0]
    assert abs(float(lhs_line.split()[-1]) - 1.0) < 1e-12
    shot_line = [l for l in out.splitlines() if "shot-noise" in l][0]
    assert shot_line.split()[-2].startswith("5.6607")


def test_feasibility_high_quality_passes(capsys):
    code, out, _ = run(capsys, "feasibility", "--gap", "2.0", "--Q", "1e8")
    assert code == 0 and "PASS" in out
    lhs_line = [l for l in out.splitlines() if l.startswith("feasibility_lhs")][0]
    assert abs(float(lhs_line.split()[-1]) - 0.1) < 1e-12


def test_feasibility_low_current_fails(capsys):
    code, out, _ = run(capsys, "feasibility", "--gap", "2.0", "--I0", "1e-7")
    assert code == 0 and "FAIL" in out
    lhs_line = [l for l in out.splitlines() if l.startswith("feasibility_lhs")][0]
    assert abs(float(lhs_line.split()[-1]) - 10.0) < 1e-11


def test_feasibility_json_payload(capsys):
    code, out, _ = run(capsys, "feasibility", "--gap", "2.0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "AT"
    assert abs(data["feasibility_lhs"] - 1.0) < 1e-12
    assert data["s_fq_n2_per_hz"] > data["s_fl_n2_per_hz"]
    again = json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert again == out


@pytest.mark.parametrize(
    "entry, code, start",
    [("xml", 2, ""), ("csv", 0, "tunnel current"), ("", 0, "tunnel current")],
)
def test_feasibility_config_format_entry(capsys, tmp_path, entry, code, start):
    conf = tmp_path / "feas.conf"
    conf.write_text(f"format = {entry}\n")
    got, out, err = run(capsys, "feasibility", "--config", str(conf))
    assert got == code and out.startswith(start)
    assert ("format=" in err) == (code == 2)


# ------------------------------------------------------------- solve


def test_solve_dump_is_valid_json_with_expected_keys(capsys):
    code, out, _ = run(capsys, "solve", "--barrier", "field", "--phi", "2")
    assert code == 0
    data = json.loads(out)
    assert data["barrier"]["family"] == "linear-field"
    probs = data["probabilities"]
    assert abs(probs["T"] + probs["R"] - 1.0) < 1e-10
    assert data["jump_residuals"]["worst"] < 1e-9
    assert data["uncertainty"]["product_over_hbar"] > 0.5
    assert "s_fq_n2_per_hz" not in data


def test_solve_symmetric_reports_half_product_and_noise(capsys):
    code, out, _ = run(capsys, "solve")
    assert code == 0
    data = json.loads(out)
    assert abs(data["uncertainty"]["product_over_hbar"] - 0.5) < 1e-10
    assert data["s_fq_n2_per_hz"] > 0
    assert data["dT_dl_per_m"] < 0


def test_solve_writes_to_file(capsys, tmp_path):
    out_path = tmp_path / "point.json"
    code, out, _ = run(capsys, "solve", "--out", str(out_path))
    assert code == 0 and out == ""
    data = json.loads(out_path.read_text())
    assert data["energy_ev"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["sweep", "--steps", "3"],
        ["feasibility"],
    ],
    ids=["solve", "sweep", "feasibility"],
)
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv):
    target = str(tmp_path / "absent" / "x")
    code, out, err = run(capsys, *argv, "--out", target)
    assert code == 2 and out == ""
    assert "cannot write output file" in err and repr(target) in err


def test_blank_out_config_entry_is_a_usage_error(capsys, tmp_path):
    conf = tmp_path / "blank.conf"
    conf.write_text("out =\n")
    code, out, err = run(capsys, "solve", "--config", str(conf))
    assert code == 2 and out == ""
    assert "cannot write output file ''" in err


# ------------------------------------------------------------ selftest


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) >= 8
    assert all(line.startswith("PASS") for line in lines)


# ------------------------------------------------------------ import cost


def test_cli_import_loads_no_numeric_packages():
    # A fresh interpreter: the test suite itself has numpy and scipy
    # loaded.  The probe also guards against dataclasses and inspect.
    src = str(Path(tunnelnoise.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = Path(__file__).with_name("cold_import_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
    location, _, loaded = done.stdout.strip().rpartition(": ")
    assert Path(location).resolve() == Path(src, "tunnelnoise", "cli.py")
    assert loaded == "[]"
