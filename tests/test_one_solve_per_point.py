"""Each point is solved once: the gap derivative and the quantum force
PSD reuse the solved state instead of evaluating it again, and the
quantum force PSD reuses the wall fluxes the uncertainty pair formed."""

import sys

import pytest

from tunnelnoise import airy, fluxes, scattering, uncertainty
from tunnelnoise.cli import main
from tunnelnoise.scattering import BarrierSpec
from tunnelnoise.uncertainty import uncertainty_product
from tunnelnoise.units import Energy


def count_calls(monkeypatch, home, names):
    """Log each call to ``home.<name>`` made from another package module.

    Every ``from .home import name`` binding is wrapped, so calls inside
    ``home`` itself (``airy_scaled`` calling ``airy_all``, the solver
    dispatch table) are not counted.
    """
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in names:
        original = getattr(home, name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if (
                module_name.startswith("tunnelnoise.")
                and module is not home
                and getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_tilted_product_evaluates_each_edge_once(monkeypatch):
    calls = count_calls(monkeypatch, airy, ("airy_all", "airy_scaled"))
    uncertainty_product(Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 2.0, 0.5))
    assert calls == ["airy_scaled", "airy_scaled"]


def test_symmetric_sweep_with_s_fq_solves_each_row_once(monkeypatch, capsys):
    calls = count_calls(
        monkeypatch,
        scattering,
        ("solve", "solve_symmetric", "solve_asymmetric", "solve_linear_field"),
    )
    argv = ["sweep", "--barrier", "sym", "--sweep", "gap", "--steps", "5"]
    assert main([*argv, "--columns", "T,product,s_fq"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 5
    assert calls == ["solve"] * 5


def test_solve_dump_forms_the_wall_fluxes_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, fluxes, ("transferred_fluxes",))
    assert main(["solve", "--barrier", "asym", "--phi", "1"]) == 0
    capsys.readouterr()
    assert calls == ["transferred_fluxes"]


def test_symmetric_sweep_with_s_fq_forms_each_rows_fluxes_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, fluxes, ("transferred_fluxes",))
    argv = ["sweep", "--barrier", "sym", "--sweep", "gap", "--steps", "5"]
    assert main([*argv, "--columns", "T,product,s_fq"]) == 0
    capsys.readouterr()
    assert calls == ["transferred_fluxes"] * 5


def test_symmetric_solve_dump_with_s_fq_forms_the_wall_fluxes_once(
    monkeypatch, capsys
):
    calls = count_calls(monkeypatch, fluxes, ("transferred_fluxes",))
    assert main(["solve", "--barrier", "sym"]) == 0
    assert '"s_fq_n2_per_hz"' in capsys.readouterr().out
    assert calls == ["transferred_fluxes"]


@pytest.mark.parametrize(
    "argv",
    [
        # T underflows to 0 on the tilted solver: no uncertainty pair.
        ["--barrier", "field", "--phi", "1", "--gap", "40"],
        # A bias past 2 (V0 - E): the half-sum bracket is no variance.
        ["--barrier", "field", "--V0", "3", "--E", "1", "--phi", "5", "--gap", "0.5"],
        # The pair leaves the normal floats on an opaque asymmetric barrier.
        ["--barrier", "asym", "--phi", "1", "--gap", "80"],
    ],
    ids=["field-T-underflows", "field-past-twice-the-depth", "asym-pair-overflows"],
)
def test_dump_without_an_uncertainty_pair_forms_the_wall_fluxes_once(
    monkeypatch, capsys, argv
):
    calls = count_calls(monkeypatch, fluxes, ("transferred_fluxes",))
    assert main(["solve", *argv]) == 0
    assert '"unavailable"' in capsys.readouterr().out
    assert calls == ["transferred_fluxes"]


def test_s_fq_reads_the_per_attempt_kick_variance(monkeypatch, capsys):
    # The PSD's kick route divides the per-attempt variance by T; it does
    # not take the spread of 1/T electrons through momentum_uncertainty.
    calls = count_calls(
        monkeypatch, uncertainty, ("kick_variance", "momentum_uncertainty")
    )
    argv = ["sweep", "--barrier", "sym", "--sweep", "gap", "--steps", "3"]
    assert main([*argv, "--columns", "s_fq"]) == 0
    capsys.readouterr()
    assert calls == ["kick_variance"] * 3


@pytest.mark.parametrize("barrier", ["asym", "field"])
def test_bias_sweep_from_zero_solves_each_point_once(monkeypatch, capsys, barrier):
    # The zero-bias product reads the first row's outcome: no extra solve.
    calls = count_calls(monkeypatch, scattering, ("solve",))
    argv = ["sweep", "--barrier", barrier, "--sweep", "phi", "--min", "0"]
    assert main([*argv, "--max", "2", "--steps", "5"]) == 0
    assert "# zero_bias_product_hbar: 5.00000000000e-01\n" in capsys.readouterr().out
    assert calls == ["solve"] * 5


def test_bias_sweep_off_zero_solves_the_zero_bias_point_too(monkeypatch, capsys):
    calls = count_calls(monkeypatch, scattering, ("solve",))
    argv = ["sweep", "--barrier", "asym", "--sweep", "phi", "--min", "0.5"]
    assert main([*argv, "--max", "2", "--steps", "5"]) == 0
    assert "# zero_bias_product_hbar: " in capsys.readouterr().out
    assert calls == ["solve"] * 6


def test_skipped_first_row_still_names_why_the_zero_bias_product_is_left_out(
    monkeypatch, capsys
):
    calls = count_calls(monkeypatch, scattering, ("solve",))
    argv = ["sweep", "--barrier", "asym", "--sweep", "phi", "--gap", "80"]
    assert main([*argv, "--min", "0", "--max", "1", "--steps", "3"]) == 0
    out, err = capsys.readouterr()
    assert "# skipped_rows: 3\n" in out and "zero_bias" not in out
    assert err == (
        "zero-bias product left out: RangeError: delta_l is about 2^1148, outside "
        "the normal floats, at T about 2^-2363, which underflows: the barrier is "
        "too opaque for the uncertainty pair\n"
    )
    assert calls == ["solve"] * 3
