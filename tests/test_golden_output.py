"""Golden output bytes: the table and how it was recorded are in
``tests/golden.py``, which also runs without pytest."""

import cmath
from types import SimpleNamespace

import pytest
from golden import GOLDEN, digest, mismatches

from tunnelnoise import scattering
from tunnelnoise.cli import main
from tunnelnoise.scattering import _RectInterior


def test_stdout_matches_the_recorded_digests_twice_in_one_process():
    assert mismatches() == []


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    plain = digest(("solve",))
    config = tmp_path / "point.cfg"
    config.write_text("barrier = asym\nphi = 1.5\ngap = 0.3\n")
    configured = digest(("solve", "--config", str(config)))
    assert configured[0] == 0 and configured != plain
    # The config entries do not leak into a later flag-only call.
    assert digest(("solve",)) == plain
    # Neither does an argparse rejection nor a usage error found later.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--steps", "many"])
    assert exc.value.code == 2
    assert main(["sweep", "--steps", "1"]) == 2
    capsys.readouterr()
    assert digest(("solve",)) == plain
    assert digest(GOLDEN[1][0]) == (0, GOLDEN[1][1])


def test_sweep_rows_never_form_the_rectangular_interior_weights(monkeypatch):
    # The weights are formed only when read; a sweep row reads none of them,
    # so its solve takes one complex exponential, the transmitted phase.
    def unread(inner):
        raise AssertionError("a sweep row read the rectangular interior weights")

    for name in ("g_plus", "g_minus", "c_plus", "c_minus"):
        monkeypatch.setattr(_RectInterior, name, property(unread))
    phases = []

    def exp(z):
        phases.append(z)
        return cmath.exp(z)

    monkeypatch.setattr(scattering, "cmath", SimpleNamespace(exp=exp))
    # The asym bias sweep and the sym gap sweep with s_fq.
    rect = GOLDEN[3:5]
    assert [argv[2] for argv, _ in rect] == ["asym", "sym"]
    assert rect[1][0][-1].endswith(",s_fq")
    assert [digest(argv) for argv, _ in rect] == [(0, want) for _, want in rect]
    # One per row: 25 asym rows, whose zero-bias point is row 0, and 30 sym.
    assert len(phases) == 25 + 30
