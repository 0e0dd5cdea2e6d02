"""Span tracer installed from outside the package.

``Tracer.install()`` replaces each traced public function of
``tunnelnoise`` with a wrapper, on every ``tunnelnoise`` module that
binds the function under its name.  Modules import with ``from .airy
import airy_scaled``, so patching only the defining module would miss
the calls that matter (``scattering.airy_scaled``,
``uncertainty.airy_scaled``, ``noise.solve_symmetric`` ...).

Each wrapper records one span (name, start, end, parent) in flat arrays
kept in memory; ``summary()`` turns them into self times at the end.  A
span's self time is its duration minus the durations of its direct
children.  Exceptions are counted once per module, at the innermost
traced layer they leave.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from time import perf_counter

# Layer -> traced public functions.  units and errors are too small to
# time; oracle only enters the runtime through its import (cli.import_s)
# and finite_diff, which runs inside uncertainty.dT_dl.numeric.
TRACED = {
    "airy": ("airy_all", "airy_scaled"),
    "scattering": (
        "solve", "solve_symmetric", "solve_asymmetric", "solve_linear_field",
        "eval_wavefunction",
    ),
    "fluxes": ("transferred_fluxes", "jump_residuals", "currents_at"),
    "uncertainty": (
        "dT_dl", "position_uncertainty", "momentum_uncertainty", "uncertainty_product",
    ),
    "noise": ("quantum_force_psd", "noise_budget"),
    "cli": ("main", "run_sweep"),
}

# Spans whose names are fixed in advance, so that a layer that never ran
# still reports zero calls.
SPAN_NAMES = (
    "airy.maclaurin", "airy.marched", "airy.asym_pos", "airy.asym_neg",
    "scattering.solve.rect", "scattering.solve.airy", "scattering.eval_wavefunction",
    "fluxes.transferred_fluxes", "fluxes.jump_residuals", "fluxes.currents_at",
    "uncertainty.dT_dl.analytic", "uncertainty.dT_dl.numeric",
    "uncertainty.position_uncertainty", "uncertainty.momentum_uncertainty",
    "uncertainty.uncertainty_product",
    "noise.quantum_force_psd", "noise.noise_budget",
    "cli.main", "cli.run_sweep",
)


def _airy_regime(args, kwargs, result) -> str:
    z = args[0] if args else kwargs["z"]
    if abs(z) <= 2.0:
        return "airy.maclaurin"
    if abs(z) < 9.0:
        return "airy.marched"
    return "airy.asym_pos" if z > 0 else "airy.asym_neg"


def _solve_branch(args, kwargs, result) -> str:
    if result is not None:
        tilted = result.tilted_interior
    else:
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        tilted = spec.family.value == "field"
    return "scattering.solve.airy" if tilted else "scattering.solve.rect"


def _dT_dl_route(args, kwargs, result) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "analytic")
    # "both" runs the numeric route and checks it against the analytic one.
    route = "analytic" if getattr(method, "value", method) == "analytic" else "numeric"
    return "uncertainty.dT_dl." + route


_LABELS = {
    "airy_all": _airy_regime,
    "airy_scaled": _airy_regime,
    "solve": _solve_branch,
    "solve_symmetric": _solve_branch,
    "solve_asymmetric": _solve_branch,
    "solve_linear_field": _solve_branch,
    "dT_dl": _dT_dl_route,
}


class Tracer:
    """Records spans around the package's public functions."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = dict.fromkeys(TRACED, 0)
        self._open = []  # (span index, layer) of the spans still running
        self._last_exc = None
        self._patches = []

    def _name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, layer: str, func_name: str, fn):
        label = _LABELS.get(func_name)
        fixed = self._name_index(f"{layer}.{func_name}") if label is None else -1
        # airy_scaled calls airy_all below |z| = 9: count one airy call, not two.
        flat = layer == "airy"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flat and self._open and self._open[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(fixed)
            self.parent.append(self._open[-1][0] if self._open else -1)
            self.end.append(0.0)
            self._open.append((index, layer))
            result = None
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.failed[layer] += 1
                raise
            finally:
                self.end[index] = perf_counter()
                self._open.pop()
                if label is not None:
                    self.name_id[index] = self._name_index(label(args, kwargs, result))

        return traced

    def install(self) -> None:
        """Patch every binding of each traced function in loaded modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "tunnelnoise" or name.startswith("tunnelnoise.")]
        for layer, func_names in TRACED.items():
            home = sys.modules[f"tunnelnoise.{layer}"]
            for func_name in func_names:
                original = getattr(home, func_name)
                wrapper = self._wrap(layer, func_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def times(self) -> dict:
        """``self_times`` and ``total_times``: span name -> list of self
        and of inclusive durations in seconds, one per call."""
        n = len(self.start)
        total = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += total[i]
        self_times = {name: [] for name in self.names}
        total_times = {name: [] for name in self.names}
        for i in range(n):
            name = self.names[self.name_id[i]]
            self_times[name].append(total[i] - covered[i])
            total_times[name].append(total[i])
        return {"self_times": self_times, "total_times": total_times}


def layer_stats(self_times: dict, failed: dict, wall_s: float, points: int) -> dict:
    """Per-layer metric values from merged self times.

    ``self_times`` maps span names to per-call self times in seconds,
    ``failed`` layer names to exception counts, ``wall_s`` is the traced
    wall time and ``points`` the attempted points it covered.
    """
    stats = {}
    for name in SPAN_NAMES:
        samples = self_times.get(name, [])
        stats[f"{name}.calls"] = len(samples)
        stats[f"{name}.self_us"] = statistics.median(samples) * 1e6 if samples else 0.0
        stats[f"{name}.share"] = sum(samples) / wall_s
    airy_calls = sum(len(v) for k, v in self_times.items() if k.startswith("airy."))
    solves = sum(len(v) for k, v in self_times.items()
                 if k.startswith("scattering.solve."))
    stats["airy.calls_per_point"] = airy_calls / points
    stats["scattering.solves_per_point"] = solves / points
    for layer, count in failed.items():
        stats[f"{layer}.failed"] = count
    return stats
