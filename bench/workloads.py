"""Seeded operation schedules for the three benchmark workloads.

Every workload is a closed loop with one client.  Operations come in
fixed cycles: the template of a cycle (which kind of operation, its step
count and output format) is constant, and only the physical parameters
and the order inside the cycle are drawn from the seed.  Timed runs stop
at a cycle boundary, so the share of each kind of operation, and with it
the share of points that hit a known defect, is the same on every seed.

An operation is a dict with

* ``argv``: the command line handed to ``tunnelnoise.cli`` (without the
  program name);
* ``kind``: the template entry it came from;
* ``family``: ``sym``, ``asym`` or ``field``, or ``None`` for commands
  that are not tied to one barrier;
* ``points``: attempted result points (grid rows of a sweep, 1 for a
  one-shot call).
"""

from __future__ import annotations

import random

SWEEP_COLUMNS = "T,R,delta_l,delta_p,product"
RECT_COLUMNS = SWEEP_COLUMNS + ",s_fq"

LONG = 200
SHORT = 40
# A rectangular row costs about half a tilted one.  Longer rectangular
# sweeps take about as long as the tilted LONG ones, so that the slowest
# operations, which set op_tail_ms, are not as short as the host's
# slow-downs and the tail stays steady from run to run.
RECT_LONG = 400

# Evanescent wavenumber per sqrt(eV) below the barrier top,
# sqrt(2 m_e * 1 eV) / hbar, in 1/nm.  Opaque gaps are drawn as
# multiples of 1/k0, so that T is equally small on every seed.
K0_PER_NM = 5.1231


def _opaque_gap(depth_ev: float, two_k0_l: float) -> float:
    """Gap in nm at which 2 k0 l takes the given value."""
    return two_k0_l / (2.0 * K0_PER_NM * depth_ev ** 0.5)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _sweep(family, variable, lo, hi, steps, fmt, *, v0, e, phi, gap, columns):
    argv = [
        "sweep", "--barrier", family, "--sweep", variable,
        "--V0", _num(v0), "--E", _num(e), "--phi", _num(phi), "--gap", _num(gap),
        "--min", _num(lo), "--max", _num(hi), "--steps", str(steps),
        "--columns", columns, "--format", fmt,
    ]
    return {"argv": argv, "family": family, "points": steps}


# --------------------------------------------------------------- sweep-tilted
#
# Shares per cycle of 10 operations (880 grid points):
#   phi sweeps from 0 past the turning point phi = V0 - E, which also
#     cross the 1e-9 eV dispatch seam between their first two rows: 3;
#   phi sweeps that straddle the seam closely (0.2 .. 5 neV): 1;
#   phi sweeps that run to 3.5 .. 4.5 (V0 - E), past 2 (V0 - E), over gaps
#     of 0.3 .. 1 nm, where the seed aborts: 1 (40 points);
#   gap sweeps, one of them out to opaque gaps of 8 .. 20 nm: 3;
#   E sweeps below the turning point: 2.
# Three operations are long (200 rows), seven short (40 rows); a third of
# the operations write JSON, the rest CSV.

_TILTED_TEMPLATE = (
    ("phi-turn", LONG, "csv"),
    ("phi-turn", SHORT, "json"),
    ("phi-turn", SHORT, "csv"),
    ("phi-seam", SHORT, "csv"),
    ("phi-past", SHORT, "csv"),
    ("gap", LONG, "csv"),
    ("gap-opaque", SHORT, "json"),
    ("gap", SHORT, "csv"),
    ("E", LONG, "json"),
    ("E", SHORT, "csv"),
)


def _tilted_op(rng: random.Random, kind: str, steps: int, fmt: str) -> dict:
    v0 = rng.uniform(3.0, 6.0)
    e = rng.uniform(0.5, min(2.0, v0 - 1.0))
    depth = v0 - e
    gap = rng.uniform(0.3, 1.5)
    phi = rng.uniform(0.2, 0.9) * depth
    common = dict(v0=v0, e=e, gap=gap, columns=SWEEP_COLUMNS)
    if kind == "phi-turn":
        op = _sweep("field", "phi", 0.0, rng.uniform(1.1, 1.9) * depth, steps, fmt,
                    phi=0.0, **common)
    elif kind == "phi-seam":
        op = _sweep("field", "phi", rng.uniform(2e-10, 8e-10), rng.uniform(1.2e-9, 5e-9),
                    steps, fmt, phi=0.0, **common)
    elif kind == "phi-past":
        # The abort comes past 2 (V0 - E), once the variance bracket
        # leaves the rounding guard, and later for thicker barriers: below
        # 3.5 (V0 - E) while k0 l <= 12, so gaps stay under 1 nm here.
        common["gap"] = rng.uniform(0.3, 1.0)
        op = _sweep("field", "phi", 0.0, rng.uniform(3.5, 4.5) * depth, steps, fmt,
                    phi=0.0, **common)
    elif kind == "gap":
        op = _sweep("field", "gap", rng.uniform(0.1, 0.3), rng.uniform(1.5, 3.0), steps,
                    fmt, phi=phi, **common)
    elif kind == "gap-opaque":
        op = _sweep("field", "gap", rng.uniform(0.1, 0.3), rng.uniform(8.0, 20.0), steps,
                    fmt, phi=phi, **common)
    else:  # "E": every energy keeps the turning point beyond the gap's far edge
        phi = rng.uniform(0.2, 1.0)
        op = _sweep("field", "E", 0.2, rng.uniform(0.6, 0.9) * (v0 - phi), steps, fmt,
                    phi=phi, **common)
    op["kind"] = kind
    return op


# ----------------------------------------------------------------- sweep-rect
#
# Shares per cycle of 10 operations (1480 grid points):
#   sym gap sweeps with the s_fq column: 3, one of them out to
#     2 k0 l = 800 .. 1000 (39 .. 49 nm at V0 = 5, E = 1), which crosses the
#     band 2 k0 l = 620 .. 745 where T is so small that the two PSD routes
#     disagree and the seed aborts (40 points);
#   sym E sweeps with s_fq: 2;
#   asym bias (phi) sweeps: 5.
# Three operations are long (400 rows), seven short (40 rows); three
# write JSON, the rest CSV.

_RECT_TEMPLATE = (
    ("sym-gap", RECT_LONG, "csv"),
    ("sym-gap", SHORT, "json"),
    ("sym-gap-opaque", SHORT, "csv"),
    ("sym-E", RECT_LONG, "csv"),
    ("sym-E", SHORT, "csv"),
    ("asym-phi", RECT_LONG, "csv"),
    ("asym-phi", SHORT, "json"),
    ("asym-phi", SHORT, "csv"),
    ("asym-phi", SHORT, "json"),
    ("asym-phi", SHORT, "csv"),
)


def _rect_op(rng: random.Random, kind: str, steps: int, fmt: str) -> dict:
    v0 = rng.uniform(3.0, 6.0)
    e = rng.uniform(0.5, min(2.0, v0 - 1.0))
    gap = rng.uniform(0.3, 1.5)
    common = dict(v0=v0, e=e, gap=gap, phi=0.0)
    if kind == "sym-gap":
        op = _sweep("sym", "gap", rng.uniform(0.1, 0.3), rng.uniform(1.5, 3.0), steps,
                    fmt, columns=RECT_COLUMNS, **common)
    elif kind == "sym-gap-opaque":
        hi = _opaque_gap(v0 - e, rng.uniform(800.0, 1000.0))
        op = _sweep("sym", "gap", rng.uniform(0.1, 0.3), hi, steps, fmt,
                    columns=RECT_COLUMNS, **common)
    elif kind == "sym-E":
        op = _sweep("sym", "E", 0.2, rng.uniform(0.6, 0.95) * v0, steps, fmt,
                    columns=RECT_COLUMNS, **common)
    else:  # "asym-phi"
        op = _sweep("asym", "phi", 0.0, rng.uniform(0.3, 1.5) * (v0 - e), steps, fmt,
                    columns=SWEEP_COLUMNS, **common)
    op["kind"] = kind
    return op


# ------------------------------------------------------------------- cli-cold
#
# Shares per cycle of 8 fresh processes: solve for each family (field
# twice: turning point beyond and inside the gap), one sym solve at an
# opaque gap of 2 k0 l = 1000 .. 4000, where T underflows and the seed
# ends in an uncaught ZeroDivisionError, feasibility as text and as JSON,
# and selftest.

_COLD_TEMPLATE = (
    ("solve-sym", "sym"),
    ("solve-sym-opaque", "sym"),
    ("solve-asym", "asym"),
    ("solve-field", "field"),
    ("solve-field-turn", "field"),
    ("feasibility", "sym"),
    ("feasibility-json", "sym"),
    ("selftest", None),
)


def _cold_op(rng: random.Random, kind: str, family) -> dict:
    v0 = rng.uniform(3.0, 6.0)
    e = rng.uniform(0.5, min(2.0, v0 - 1.0))
    depth = v0 - e
    gap = rng.uniform(0.3, 2.0)
    if kind == "selftest":
        argv = ["selftest"]
    else:
        if kind == "solve-sym-opaque":
            gap = _opaque_gap(depth, rng.uniform(1000.0, 4000.0))
        phi = 0.0
        if kind == "solve-asym":
            phi = rng.uniform(0.1, 1.5) * depth
        elif kind == "solve-field":
            phi = rng.uniform(0.1, 0.9) * depth
        elif kind == "solve-field-turn":
            phi = rng.uniform(1.1, 1.9) * depth
        command = "feasibility" if kind.startswith("feasibility") else "solve"
        argv = [
            command, "--barrier", family, "--V0", _num(v0), "--E", _num(e),
            "--phi", _num(phi), "--gap", _num(gap),
            "--I0", _num(10.0 ** rng.uniform(-8.0, -5.0)),
        ]
        if kind == "feasibility-json":
            argv += ["--format", "json"]
    return {"argv": argv, "kind": kind, "family": family, "points": 1}


WORKLOADS = ("sweep-tilted", "sweep-rect", "cli-cold")


def cycle(workload: str, rng: random.Random) -> list:
    """One cycle of operations, in a seeded order."""
    if workload == "sweep-tilted":
        ops = [_tilted_op(rng, *entry) for entry in _TILTED_TEMPLATE]
    elif workload == "sweep-rect":
        ops = [_rect_op(rng, *entry) for entry in _RECT_TEMPLATE]
    elif workload == "cli-cold":
        ops = [_cold_op(rng, *entry) for entry in _COLD_TEMPLATE]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(ops)
    return ops
