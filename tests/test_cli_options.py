"""The options of each subcommand: the flags argparse takes, the config
entries that stand in for them, and the defaults that hold without
either."""

import argparse

import pytest

from tunnelnoise.cli import _build_parser, main

pytestmark = pytest.mark.filterwarnings("error")

COMMON = [
    ("--config", None, None),
    ("--barrier", None, ("asym", "field", "sym")),
    ("--V0", float, None),
    ("--E", float, None),
    ("--phi", float, None),
    ("--gap", float, None),
]
INTERFACE = {
    "sweep": COMMON + [
        ("--sweep", None, ("phi", "gap", "E")),
        ("--min", float, None),
        ("--max", float, None),
        ("--steps", int, None),
        ("--N", float, None),
        ("--I0", float, None),
        ("--columns", None, None),
        ("--out", None, None),
        ("--format", None, ("csv", "json")),
    ],
    "feasibility": COMMON + [
        ("--I0", float, None),
        ("--mass", float, None),
        ("--temp", float, None),
        ("--f0", float, None),
        ("--Q", float, None),
        ("--out", None, None),
        ("--format", None, ("json",)),
    ],
    "solve": COMMON + [
        ("--N", float, None),
        ("--I0", float, None),
        ("--out", None, None),
    ],
    "selftest": [],
}


def _subparsers():
    parser = _build_parser()
    kind = argparse._SubParsersAction
    (action,) = [a for a in parser._actions if isinstance(a, kind)]
    return action.choices


@pytest.mark.parametrize("command", INTERFACE)
def test_each_subcommand_takes_the_pinned_flags(command):
    got = [
        (
            *action.option_strings,
            action.type,
            None if action.choices is None else tuple(action.choices),
        )
        for action in _subparsers()[command]._actions
        if action.dest != "help"
    ]
    assert got == INTERFACE[command]
    assert list(_subparsers()) == list(INTERFACE)


def call(capsys, argv, out_path=None):
    """(exit code, stdout, stderr, the --out file's text) of one call;
    an argparse rejection counts by its exit status."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    written = None
    if out_path is not None and out_path.exists():
        written = out_path.read_text()
        out_path.unlink()
    captured = capsys.readouterr()
    return code, captured.out, captured.err, written


# (subcommand, key, a value that changes the output, flags for other keys)
CHANGING = [
    ("sweep", "barrier", "asym", ["--steps", "3"]),
    ("sweep", "V0", "6", ["--steps", "3"]),
    ("sweep", "E", "1.5", ["--steps", "3"]),
    ("sweep", "phi", "0.5", ["--steps", "3", "--sweep", "gap"]),
    ("sweep", "gap", "0.7", ["--steps", "3"]),
    ("sweep", "sweep", "gap", ["--steps", "3"]),
    ("sweep", "min", "0.5", ["--steps", "3"]),
    ("sweep", "max", "3", ["--steps", "3"]),
    ("sweep", "steps", "4", []),
    ("sweep", "N", "2", ["--steps", "3"]),
    ("sweep", "I0", "2e-6",
     ["--steps", "3", "--barrier", "sym", "--sweep", "gap", "--columns", "T,s_fq"]),
    ("sweep", "columns", "T,R", ["--steps", "3"]),
    ("sweep", "out", "OUT", ["--steps", "3"]),
    ("sweep", "format", "json", ["--steps", "3"]),
    ("feasibility", "barrier", "asym", []),
    ("feasibility", "V0", "6", []),
    ("feasibility", "E", "1.5", []),
    ("feasibility", "gap", "0.7", []),
    ("feasibility", "I0", "2e-6", []),
    ("feasibility", "mass", "2e-10", []),
    ("feasibility", "temp", "0.02", []),
    ("feasibility", "f0", "2e5", []),
    ("feasibility", "Q", "1e8", []),
    ("feasibility", "out", "OUT", []),
    ("feasibility", "format", "json", []),
    ("solve", "barrier", "field", []),
    ("solve", "V0", "6", []),
    ("solve", "E", "1.5", []),
    ("solve", "phi", "0.5", ["--barrier", "asym"]),
    ("solve", "gap", "0.7", []),
    ("solve", "N", "2", []),
    ("solve", "I0", "2e-6", []),
    ("solve", "out", "OUT", []),
]
# The symmetric barrier, the only one feasibility takes, has no bias.
UNCHANGING = [("feasibility", "phi", "0.5", [])]
# (subcommand, key, a value that the option does not take)
REJECTED = [
    (command, flag[2:], "x")
    for command, flags in INTERFACE.items()
    for flag, type_, choices in flags
    if flag != "--config" and (type_ is not None or choices is not None)
]


def _ids(cases):
    return [f"{command}-{key}" for command, key, *_ in cases]


@pytest.mark.parametrize(
    "command, key, value, flags, changes",
    [(*case, True) for case in CHANGING] + [(*case, False) for case in UNCHANGING],
    ids=_ids(CHANGING + UNCHANGING),
)
def test_config_entry_acts_as_its_flag(
    capsys, tmp_path, command, key, value, flags, changes
):
    out_path = tmp_path / "out.txt"
    value = str(out_path) if value == "OUT" else value
    conf = tmp_path / "entry.conf"
    conf.write_text(f"{key} = {value}\n")
    as_flag = call(capsys, [command, *flags, f"--{key}", value], out_path)
    as_entry = call(capsys, [command, *flags, "--config", str(conf)], out_path)
    assert as_entry == as_flag
    unchanged = call(capsys, [command, *flags])
    assert (as_flag != unchanged) == changes


@pytest.mark.parametrize("command, key, value", REJECTED, ids=_ids(REJECTED))
def test_config_entry_is_rejected_as_its_flag_is(capsys, tmp_path, command, key, value):
    conf = tmp_path / "entry.conf"
    conf.write_text(f"{key} = {value}\n")
    code, out, _, _ = call(capsys, [command, f"--{key}", value])
    assert (code, out) == (2, "")
    code, out, err, _ = call(capsys, [command, "--config", str(conf)])
    assert (code, out) == (2, "") and f"config entry {key}='{value}'" in err


DEFAULTS = {
    "sweep": [
        "--barrier", "field", "--V0", "5", "--E", "1", "--phi", "0", "--gap", "0.5",
        "--sweep", "phi", "--min", "0", "--max", "5", "--steps", "200", "--N", "1",
        "--I0", "1e-6", "--columns", "T,R,delta_l,delta_p,product", "--format", "csv",
    ],
    "feasibility": [
        "--barrier", "sym", "--V0", "5", "--E", "1", "--phi", "0", "--gap", "0.5",
        "--I0", "1e-6", "--mass", "1e-10", "--temp", "0.01", "--f0", "1e5",
        "--Q", "1e7",
    ],
    "solve": [
        "--barrier", "sym", "--V0", "5", "--E", "1", "--phi", "0", "--gap", "0.5",
        "--N", "1", "--I0", "1e-6",
    ],
}


@pytest.mark.parametrize("command", DEFAULTS)
def test_no_options_prints_what_the_written_out_defaults_print(capsys, command):
    bare = call(capsys, [command])
    assert bare[0] == 0 and bare[1]
    assert call(capsys, [command, *DEFAULTS[command]]) == bare
