"""Command-line front end.

Subcommands
-----------
``sweep``        Parameter sweep over bias, gap, or energy; CSV or JSON.
``feasibility``  Noise-budget report with a PASS/FAIL verdict.
``solve``        Full single-point dump (JSON).
``selftest``     Deterministic invariant checks; nonzero exit on failure.

Configuration comes from flags, optionally seeded by a plain ``key=value``
file (``--config``); explicit flags override file entries.  All output is
deterministic: no timestamps, fixed formatting (12 significant digits in
CSV, shortest round-trip floats in JSON), fixed key ordering.

Exit codes: 0 success, 2 usage error, 3 domain error (including
arithmetic overflow), 4 internal consistency failure (including selftest
failures).
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import math
import sys
from operator import itemgetter
from typing import NamedTuple

from .airy import airy_all
from .errors import ConsistencyError, DomainError, UsageError
from .fluxes import jump_residuals, transferred_fluxes
from .noise import (
    ResonatorSpec,
    _check_current,
    _check_finite,
    _quantum_force_psd,
    feasibility_lhs,
    noise_budget,
    quantum_force_psd,
    shot_noise_current_psd,
)
from .scattering import BarrierSpec, Family, _check_energy, solve
from .uncertainty import (
    DerivativeMethod,
    _uncertainty_of,
    dT_dl,
    uncertainty_of,
    uncertainty_product,
)
from .units import ELEMENTARY_CHARGE, NM, Energy, Length

__all__ = [
    "SweepVariable",
    "OutputFormat",
    "SweepConfig",
    "run_sweep",
    "feasibility_report",
    "main",
]

_FAMILIES = {
    "sym": Family.SYMMETRIC_RECT,
    "asym": Family.ASYMMETRIC_RECT,
    "field": Family.LINEAR_FIELD,
}
_ALL_COLUMNS = ("T", "R", "delta_l", "delta_p", "product", "s_fq")
_UNIT_LABELS = {
    "phi": "eV",
    "gap": "nm",
    "E": "eV",
    "T": "dimensionless",
    "R": "dimensionless",
    "delta_l": "nm",
    "delta_p": "kg*m/s",
    "product": "hbar",
    "s_fq": "N^2/Hz",
}


def _check_n(n_electrons: float) -> float:
    """The electron count N of a sweep or a solve; anything else exits 2."""
    if n_electrons < 1.0 or not math.isfinite(n_electrons):
        raise UsageError(f"N must be a finite count >= 1, got {n_electrons!r}")
    return n_electrons


class SweepVariable(enum.Enum):
    BIAS_PHI = "phi"
    GAP = "gap"
    ENERGY = "E"


class OutputFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


class _SweepFields(NamedTuple):
    family: Family
    v0_ev: float
    e_ev: float
    phi_ev: float
    gap_nm: float
    variable: SweepVariable
    minimum: float
    maximum: float
    steps: int
    outputs: tuple[str, ...]
    n_electrons: float
    i0_a: float


class SweepConfig(_SweepFields):
    """Validated sweep request.

    ``outputs`` is the ordered tuple of requested columns (subset of
    T, R, delta_l, delta_p, product, s_fq); the swept variable's value
    column is always emitted first.  An immutable named tuple;
    constructing it checks the request.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.steps < 2:
            raise UsageError(f"steps must be >= 2, got {self.steps}")
        if not (self.minimum < self.maximum):
            raise UsageError(
                f"min must be below max, got min={self.minimum!r} max={self.maximum!r}"
            )
        unknown = [c for c in self.outputs if c not in _ALL_COLUMNS]
        if unknown:
            raise UsageError(
                f"unknown columns {unknown!r}; available: {', '.join(_ALL_COLUMNS)}"
            )
        repeated = sorted({c for c in self.outputs if self.outputs.count(c) > 1})
        if repeated:
            raise UsageError(f"repeated columns {repeated!r}; name each column once")
        if "s_fq" in self.outputs and self.family is not Family.SYMMETRIC_RECT:
            raise UsageError(
                "the s_fq column needs the symmetric barrier (--barrier sym)"
            )
        _check_n(self.n_electrons)
        if self.variable is SweepVariable.BIAS_PHI:
            if self.family is Family.SYMMETRIC_RECT:
                raise UsageError(
                    "a phi sweep needs a biased family (--barrier asym or field); "
                    "the symmetric barrier has no bias parameter"
                )
            if self.minimum < 0.0:
                raise UsageError(f"phi sweep min must be >= 0, got {self.minimum!r}")
        elif self.variable is SweepVariable.GAP:
            if self.minimum <= 0.0:
                raise UsageError(f"gap sweep min must be > 0, got {self.minimum!r}")
        elif self.variable is SweepVariable.ENERGY:
            if self.minimum <= 0.0:
                raise UsageError(f"E sweep min must be > 0, got {self.minimum!r}")
            if self.maximum >= self.v0_ev:
                raise UsageError(
                    f"E sweep max must stay below V0={self.v0_ev!r} eV, "
                    f"got {self.maximum!r}"
                )
        return self


def _grid(config: SweepConfig) -> list:
    span = config.maximum - config.minimum
    last = config.steps - 1
    return [config.minimum + span * i / last for i in range(config.steps)]


def _barrier_spec(family: Family, v0: float, phi: float, gap: float) -> BarrierSpec:
    """Barrier of ``family`` from eV/nm inputs; the symmetric one has no phi."""
    if family is Family.SYMMETRIC_RECT:
        return BarrierSpec.symmetric(v0, gap)
    if family is Family.ASYMMETRIC_RECT:
        return BarrierSpec.asymmetric(v0, phi, gap)
    return BarrierSpec.linear_field(v0, phi, gap)


def _base_point(config: SweepConfig) -> "tuple[Energy, BarrierSpec]":
    """(energy, barrier) where the swept variable is at its minimum; the
    inputs it holds fixed are converted here, and only here."""
    variable = config.variable
    value = config.minimum
    spec = _barrier_spec(
        config.family,
        config.v0_ev,
        value if variable is SweepVariable.BIAS_PHI else config.phi_ev,
        value if variable is SweepVariable.GAP else config.gap_nm,
    )
    energy = Energy.from_ev(value if variable is SweepVariable.ENERGY else config.e_ev)
    return energy, spec


def _moved(variable: SweepVariable, base: tuple, value: float) -> tuple:
    """The point ``base`` with only the swept ``variable`` set to ``value``.

    ``base`` holds the checked barrier at the swept variable's minimum, and
    a moved gap or bias is at least that minimum (a bias sweep has a biased
    family), so the moved barrier passes the checks of ``BarrierSpec``
    too: ``_make`` builds it without repeating them.
    """
    energy, spec = base
    if variable is SweepVariable.ENERGY:
        return Energy.from_ev(value), spec
    if variable is SweepVariable.GAP:
        gap = Length.from_nm(value)
        return energy, BarrierSpec._make((spec.family, spec.V0, spec.phi, gap))
    phi = Energy.from_ev(value)
    return energy, BarrierSpec._make((spec.family, spec.V0, phi, spec.gap))


def _point_values(config: SweepConfig, base: tuple, value: float) -> tuple:
    """``value``, then every column where the swept variable of ``base`` is
    ``value``, in documented units and ``_ALL_COLUMNS`` order (s_fq None
    unless asked for), from the cores: the sweep has checked N and I0."""
    sol = solve(*_moved(config.variable, base, value))
    delta_l, delta_p, product, fluxes = _uncertainty_of(sol, config.n_electrons, None)
    s_fq = None
    if "s_fq" in config.outputs:
        s_fq = _quantum_force_psd(config.i0_a, sol, fluxes)
    return value, sol.T, sol.R, delta_l / NM, delta_p, product, s_fq


def run_sweep(config: SweepConfig) -> tuple:
    """Evaluate the grid; returns (rows, summary).

    Each row is a dict of the swept value and the requested columns.
    The inputs are checked once, at the swept variable's minimum, before
    the grid: a V0, E, gap or phi that fails every point alike raises,
    and so does an I0 that is not a positive current with a finite
    electron rate I0/e when the s_fq column is asked for.
    Every grid point is that checked point with the swept variable moved.
    Grid points whose evaluation hits a domain or arithmetic error, or
    gives a requested column that is not finite, are omitted and counted
    in ``summary["skipped_rows"]``; bias sweeps additionally report
    nondecreasing verdicts for delta_p and the product, plus the
    zero-bias product value when that point evaluates.
    """
    base = _base_point(config)
    _check_energy(*base)
    if "s_fq" in config.outputs:
        _check_current(config.i0_a)
        if not math.isfinite(config.i0_a / ELEMENTARY_CHARGE):
            raise DomainError(f"electron rate I0/e overflows at I0={config.i0_a!r} A")
    grid = _grid(config)
    outputs = config.outputs
    header = (config.variable.value, *outputs)
    # The value leads each pick, so the getter always returns a tuple.
    pick = itemgetter(0, *[1 + _ALL_COLUMNS.index(name) for name in outputs])
    bias = config.variable is SweepVariable.BIAS_PHI
    rows = []
    evaluated = []
    first = None  # the outcome at grid[0]: its cells or its error
    for value in grid:
        try:
            cells = _point_values(config, base, value)
        except (DomainError, ArithmeticError) as exc:
            first = first or exc
            continue
        first = first or cells
        picked = pick(cells)
        if all(map(math.isfinite, picked)):
            rows.append(dict(zip(header, picked)))
            if bias:
                evaluated.append(cells)
    summary = {"skipped_rows": len(grid) - len(rows)}
    if bias:
        for name in ("delta_p", "product"):
            index = 1 + _ALL_COLUMNS.index(name)
            column = [cells[index] for cells in evaluated]
            summary[f"{name}_nondecreasing"] = all(
                b >= a for a, b in zip(column, column[1:])
            )
        try:
            # A grid from phi = 0 has solved that point already.
            cells = first if grid[0] == 0.0 else _point_values(config, base, 0.0)
            if isinstance(cells, Exception):
                raise cells
            product = cells[1 + _ALL_COLUMNS.index("product")]
            if not math.isfinite(product):
                raise DomainError("column product is not finite at 0.0")
            summary["zero_bias_product_hbar"] = product
        except (DomainError, ArithmeticError) as exc:
            print(
                f"zero-bias product left out: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
    return rows, summary


def _format_csv(config: SweepConfig, rows, summary) -> str:
    header = [config.variable.value, *config.outputs]
    units = [_UNIT_LABELS[name] for name in header]
    lines = [",".join(header), "# units: " + ",".join(units)]
    if rows:
        template = ",".join(["%.11e"] * len(rows[0]))
        lines += [template % tuple(row.values()) for row in rows]
    for key, value in summary.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.11e}"
        lines.append(f"# {key}: {value}")
    return "\n".join(lines) + "\n"


def _json_block(value) -> str:
    """``value`` as the sweep's JSON writes it one level deep."""
    text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    # JSON strings hold no raw newline, so this indents every line.
    return text.replace("\n", "\n  ")


def _json_rows(rows) -> str:
    """The rows array as ``_json_block`` would write it, without the
    pure-Python encoder that ``json`` uses under an indent.

    Every row has the keys of the first, and ``json`` writes a float as
    its ``float.__repr__``.  A value that is not finite raises the
    domain error naming it.
    """
    if not rows:
        return "[]"
    keys = sorted(rows[0])
    cells = [row[key] for row in rows for key in keys]
    if not all(map(math.isfinite, cells)):
        _check_finite((f"rows.{key}", row[key]) for row in rows for key in keys)
    item = ",\n".join(f"      {json.dumps(key)}: %r" for key in keys)
    items = ",\n    ".join(["{\n" + item + "\n    }"] * len(rows))
    return "[\n    " + items % tuple(cells) + "\n  ]"


def _format_json(config: SweepConfig, rows, summary) -> str:
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
        "summary": summary,
    }
    # JSON has no spelling for inf or NaN: name the first one instead,
    # also for an input that no row uses.
    _check_finite(_dump_floats(payload))
    return (
        '{\n  "config": '
        + _json_block(payload["config"])
        + ',\n  "rows": '
        + _json_rows(rows)
        + ',\n  "summary": '
        + _json_block(summary)
        + "\n}\n"
    )


def _emit(text: str, out_path: "str | None") -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {out_path!r}: {exc}") from None


def feasibility_report(
    i0_a: float,
    resonator: ResonatorSpec,
    barrier: BarrierSpec,
    energy: Energy,
    fmt: "OutputFormat | None" = None,
) -> str:
    """Text (or JSON) noise-budget report with the dominance verdict."""
    budget = noise_budget(i0_a, resonator, energy, barrier)
    lhs = budget.feasibility_lhs
    if lhs < 1.0:
        verdict = "PASS (quantum force noise dominates the thermal floor)"
    elif lhs > 1.0:
        verdict = "FAIL (thermal floor exceeds the quantum force noise)"
    else:
        verdict = "AT THRESHOLD (normalized parameter product equals 1)"
    if fmt is OutputFormat.JSON:
        payload = {
            "I0_a": budget.tunnel_current,
            "electron_energy_ev": budget.electron_energy,
            "barrier": {
                "family": barrier.family.value,
                "V0_ev": barrier.V0.ev,
                "phi_ev": barrier.phi.ev,
                "gap_nm": barrier.gap.nm,
            },
            "resonator": {
                "mass_kg": resonator.mass,
                "f0_hz": resonator.f0,
                "quality": resonator.quality,
                "temperature_k": resonator.temperature,
            },
            "s_fq_n2_per_hz": budget.s_fq,
            "s_fl_n2_per_hz": budget.s_fl,
            "psd_ratio": budget.psd_ratio,
            "feasibility_lhs": budget.feasibility_lhs,
            "shot_psd_a_per_rthz": budget.shot_psd,
            "verdict": verdict.split(" ")[0],
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    lines = [
        f"tunnel current I0:        {budget.tunnel_current:.11e} A",
        f"electron energy E:        {budget.electron_energy:.11e} eV",
        (
            f"barrier:                  {barrier.family.value} "
            f"V0={barrier.V0.ev:.11e} eV phi={barrier.phi.ev:.11e} eV "
            f"gap={barrier.gap.nm:.11e} nm"
        ),
        (
            f"resonator:                mass={resonator.mass:.11e} kg "
            f"f0={resonator.f0:.11e} Hz Q={resonator.quality:.11e} "
            f"temp={resonator.temperature:.11e} K"
        ),
        f"quantum force PSD S_fQ:   {budget.s_fq:.11e} N^2/Hz (single-sided)",
        f"thermal force PSD S_fL:   {budget.s_fl:.11e} N^2/Hz (single-sided)",
        f"PSD ratio S_fL/S_fQ:      {budget.psd_ratio:.11e}",
        f"feasibility_lhs:          {budget.feasibility_lhs:.11e}",
        f"shot-noise current PSD:   {budget.shot_psd:.11e} A/sqrt(Hz)",
        f"verdict:                  {verdict}",
    ]
    return "\n".join(lines) + "\n"


def _complex_json(value: complex) -> dict:
    def clean(x: float):
        return x if math.isfinite(x) else repr(x)

    return {"re": clean(value.real), "im": clean(value.imag)}


def _dump_floats(payload: dict, prefix: str = ""):
    """``(dotted key, value)`` of every float in ``payload``, in the
    order the dump prints them."""
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            yield from _dump_floats(value, f"{prefix}{key}.")
        elif isinstance(value, float):
            yield f"{prefix}{key}", value


def _solve_dump(
    barrier: BarrierSpec, energy: Energy, n_electrons: float, i0_a: float
) -> str:
    sol = solve(energy, barrier)
    residuals = jump_residuals(sol)
    transferred = transferred_fluxes(sol)
    try:
        result = uncertainty_of(sol, n_electrons, transferred)
        uncertainty = {
            "delta_l_nm": result.delta_l.nm,
            "delta_p_kg_m_s": result.delta_p,
            "product_over_hbar": result.product_over_hbar,
        }
    except DomainError as exc:
        if barrier.family is Family.SYMMETRIC_RECT:
            raise  # a symmetric dump always carries its product
        uncertainty = {"unavailable": str(exc)}
    payload = {
        "barrier": {
            "family": barrier.family.value,
            "V0_ev": barrier.V0.ev,
            "phi_ev": barrier.phi.ev,
            "gap_nm": barrier.gap.nm,
            "a_nm": 0.0,
        },
        "energy_ev": energy.ev,
        "wavenumbers_per_m": {
            "k": sol.k,
            "k0": sol.k0,
            "k_bar": sol.k_bar,
        },
        "amplitudes": {
            "t": _complex_json(sol.t),
            "r": _complex_json(sol.r),
            "c_plus": _complex_json(sol.c_plus),
            "c_minus": _complex_json(sol.c_minus),
        },
        "probabilities": {
            "T": sol.T,
            "R": sol.R,
            "unitarity_defect": sol.T + sol.R - 1.0,
        },
        "incident_flux": sol.incident_flux,
        "transferred_fluxes": {
            "j_p_t": transferred.j_p_t,
            "j_p2_t": transferred.j_p2_t,
            "v2_description": transferred.v2_description,
        },
        "jump_residuals": {
            "momentum_left_edge": residuals.momentum_left_edge,
            "momentum_right_edge": residuals.momentum_right_edge,
            "momentum_sq_left_edge": residuals.momentum_sq_left_edge,
            "momentum_sq_right_edge": residuals.momentum_sq_right_edge,
            "worst": residuals.worst,
        },
        "dT_dl_per_m": sol.dT_dl,
        "dT_dl_method": "analytic",
        "n_electrons": n_electrons,
        "uncertainty": uncertainty,
    }
    if barrier.family is Family.SYMMETRIC_RECT:
        payload["s_fq_n2_per_hz"] = quantum_force_psd(i0_a, sol, transferred)
    # JSON has no spelling for inf or NaN: name the first one instead.
    _check_finite(_dump_floats(payload))
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


# --------------------------------------------------------------- selftest


def _selftest() -> int:
    checks = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(ok)
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)

    cases = [
        (BarrierSpec.symmetric(5.0, 0.5), 1.0),
        (BarrierSpec.asymmetric(4.0, 1.5, 0.3), 1.2),
        (BarrierSpec.linear_field(5.0, 2.0, 0.5), 1.0),
    ]
    solutions = [solve(Energy.from_ev(e), spec) for spec, e in cases]
    worst_unitarity = max(abs(sol.T + sol.R - 1.0) for sol in solutions)
    check(
        "unitarity T+R=1 within 1e-10",
        worst_unitarity < 1e-10,
        f"defect {worst_unitarity:.3e}",
    )

    product = uncertainty_of(solutions[0]).product_over_hbar
    check(
        "symmetric uncertainty product equals 1/2 within 1e-10",
        abs(product - 0.5) < 1e-10,
        f"product {product!r}",
    )

    try:
        tilted = solve(Energy.from_ev(1.0), BarrierSpec.linear_field(4.0, 1.2, 0.4))
        dT_dl(tilted, DerivativeMethod.BOTH)
        check("analytic and numeric transmission derivatives agree", True)
    except ConsistencyError as exc:
        check("analytic and numeric transmission derivatives agree", False, str(exc))

    worst_jump = jump_residuals(tilted).worst
    check(
        "edge jump relations close within 1e-9",
        worst_jump < 1e-9,
        f"worst {worst_jump:.3e}",
    )

    worst_wronskian = max(
        abs(airy_all(z).wronskian - 1.0 / math.pi)
        for z in (-20.0, -5.0, 0.0, 2.0, 8.0, 30.0)
    )
    check(
        "Airy Wronskian equals 1/pi within 1e-10",
        worst_wronskian < 1e-10,
        f"defect {worst_wronskian:.3e}",
    )

    nominal = ResonatorSpec(mass=1e-10, f0=1e5, quality=1e7, temperature=0.01)
    lhs = feasibility_lhs(1e-6, nominal)
    check("feasibility normalization is unity at nominal", abs(lhs - 1.0) < 1e-12)

    shot = shot_noise_current_psd(1e-6)
    check(
        "shot noise at 1 uA rounds to 5.7e-13 A/sqrt(Hz)",
        round(shot * 1e13, 1) == 5.7,
        f"value {shot:.4e}",
    )

    product0 = uncertainty_product(
        Energy.from_ev(1.0), BarrierSpec.linear_field(5.0, 1e-6, 1.0)
    ).product_over_hbar
    check(
        "vanishing-bias product matches 1/2 within 1e-4",
        abs(product0 - 0.5) < 1e-4,
        f"product {product0!r}",
    )

    return 0 if all(checks) else 4


# ------------------------------------------------------------ arg parsing


class _Option(NamedTuple):
    """A subcommand's option: ``type`` converts its flag and its config entry
    (None keeps the text); the flag takes one of ``choices``, the entry one
    of ``entries`` or else ``choices``; ``default`` holds when neither is set."""

    type: "type | None" = None
    default: object = None
    help: "str | None" = None
    choices: "tuple | None" = None
    entries: "tuple | None" = None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built from ``_COMMANDS`` once, then shared: ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(
        prog="tunnelnoise",
        description=(
            "Quantum-measurement noise of a vacuum-tunneling position "
            "transducer: scattering sweeps, uncertainty pairs, and noise "
            "budgets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(_run=run, _options=options)
        if options:
            p.add_argument("--config", help="key=value file; flags override entries")
        for key, option in options.items():
            p.add_argument(
                f"--{key}", type=option.type, choices=option.choices, help=option.help
            )
    return parser


def _read_config_file(path: str) -> dict:
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    for line_no, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(
                f"config file {path!r} line {line_no}: expected key=value, got {raw!r}"
            )
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    unknown = sorted(set(entries) - set(_CONFIG_KEYS))
    if unknown:
        raise UsageError(
            f"unknown config keys {unknown!r}; known keys: {_CONFIG_KEYS}"
        )
    return entries


def _merged(args: argparse.Namespace, name: str):
    """Flag value if given, else config-file entry, else the table's default."""
    value = getattr(args, name)
    option = args._options[name]
    raw = args._config_entries.get(name)
    if value is not None or raw is None:
        return option.default if value is None else value
    accepted = option.entries or option.choices
    try:
        value = (option.type or str)(raw)
        if accepted is None or value in accepted:
            return value
    except ValueError:
        pass
    kind = option.type.__name__ if option.type else f"choice of {list(accepted)}"
    raise UsageError(f"config entry {name}={raw!r} is not a valid {kind}")


def _barrier_from(args: argparse.Namespace) -> BarrierSpec:
    return _barrier_spec(
        _FAMILIES[_merged(args, "barrier")],
        _merged(args, "V0"),
        _merged(args, "phi"),
        _merged(args, "gap"),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    family = _FAMILIES[_merged(args, "barrier")]
    variable = SweepVariable(_merged(args, "sweep"))
    outputs = tuple(
        name.strip() for name in _merged(args, "columns").split(",") if name.strip()
    )
    if not outputs:
        raise UsageError("columns must name at least one output")
    fmt = OutputFormat(_merged(args, "format"))
    low, high = _SWEEP_RANGES[variable.value]
    minimum, maximum = _merged(args, "min"), _merged(args, "max")
    config = SweepConfig(
        family=family,
        v0_ev=_merged(args, "V0"),
        e_ev=_merged(args, "E"),
        phi_ev=_merged(args, "phi"),
        gap_nm=_merged(args, "gap"),
        variable=variable,
        minimum=low if minimum is None else minimum,
        maximum=high if maximum is None else maximum,
        steps=_merged(args, "steps"),
        outputs=outputs,
        n_electrons=_merged(args, "N"),
        i0_a=_merged(args, "I0"),
    )
    rows, summary = run_sweep(config)
    write = _format_csv if fmt is OutputFormat.CSV else _format_json
    _emit(write(config, rows, summary), _merged(args, "out"))
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    resonator = ResonatorSpec(
        mass=_merged(args, "mass"),
        f0=_merged(args, "f0"),
        quality=_merged(args, "Q"),
        temperature=_merged(args, "temp"),
    )
    barrier = _barrier_from(args)
    energy = Energy.from_ev(_merged(args, "E"))
    fmt = _merged(args, "format")
    fmt = OutputFormat(fmt) if fmt else None
    text = feasibility_report(_merged(args, "I0"), resonator, barrier, energy, fmt)
    _emit(text, _merged(args, "out"))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    barrier = _barrier_from(args)
    energy = Energy.from_ev(_merged(args, "E"))
    n_electrons = _check_n(_merged(args, "N"))
    text = _solve_dump(barrier, energy, n_electrons, _merged(args, "I0"))
    _emit(text, _merged(args, "out"))
    return 0


_SWEEP_RANGES = {"phi": (0.0, 5.0), "gap": (0.1, 2.0), "E": (0.2, 4.5)}
_BARRIER = tuple(sorted(_FAMILIES))
_FORMATS = tuple(f.value for f in OutputFormat)
_GEOMETRY = {
    "V0": _Option(float, 5.0, "barrier height, eV"),
    "E": _Option(float, 1.0, "electron energy, eV"),
    "phi": _Option(float, 0.0, "bias drop across the gap, eV"),
    "gap": _Option(float, 0.5, "electrode separation, nm"),
}
_N = _Option(float, 1.0, "electron count per batch")
_I0_S_FQ = _Option(float, 1e-6, "tunnel current for s_fq, A")
_OUT = _Option(help="output path (default stdout)")
# Every subcommand, its options in --help order and each option's one
# declaration; a sweep's min and max default by swept variable instead.
_COMMANDS = {
    "sweep": (_cmd_sweep, "grid sweep to CSV or JSON", {
        "barrier": _Option(default="field", choices=_BARRIER),
        **_GEOMETRY,
        "sweep": _Option(default="phi", choices=tuple(_SWEEP_RANGES)),
        "min": _Option(float),
        "max": _Option(float),
        "steps": _Option(int, 200),
        "N": _N,
        "I0": _I0_S_FQ,
        "columns": _Option(
            default="T,R,delta_l,delta_p,product",
            help="comma-separated subset of " + ",".join(_ALL_COLUMNS),
        ),
        "out": _OUT,
        "format": _Option(default="csv", choices=_FORMATS),
    }),
    "feasibility": (_cmd_feasibility, "noise budget with verdict", {
        "barrier": _Option(default="sym", choices=_BARRIER),
        **_GEOMETRY,
        "I0": _Option(float, 1e-6, "tunnel current, A"),
        "mass": _Option(float, 1e-10, "resonator mass, kg"),
        "temp": _Option(float, 0.01, "bath temperature, K"),
        "f0": _Option(float, 1e5, "resonance frequency, Hz"),
        "Q": _Option(float, 1e7, "quality factor"),
        "out": _OUT,
        # An entry of csv, or a blank one, gives the text report.
        "format": _Option(choices=("json",), entries=("", *_FORMATS)),
    }),
    "solve": (_cmd_solve, "single-point JSON dump", {
        "barrier": _Option(default="sym", choices=_BARRIER),
        **_GEOMETRY,
        "N": _N,
        "I0": _I0_S_FQ,
        "out": _OUT,
    }),
    "selftest": (lambda args: _selftest(), "run deterministic invariant checks", {}),
}
_CONFIG_KEYS = sorted({key for _, _, options in _COMMANDS.values() for key in options})


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        path = getattr(args, "config", None)
        args._config_entries = _read_config_file(path) if path else {}
        return args._run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # An overflow, or a division by an underflowed value, that no
        # domain check anticipated.
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
