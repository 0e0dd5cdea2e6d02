"""Each point is solved once: the gap derivative and the quantum force
PSD reuse the solved state instead of evaluating it again, and the
quantum force PSD reuses the wall fluxes the uncertainty pair formed."""

import sys

from tunnelnoise import airy, fluxes, scattering
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
