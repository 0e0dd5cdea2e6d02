"""tunnelnoise benchmark: end-to-end metrics per workload, or a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-tilted --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, untraced then traced
    python3 bench/run.py --smoke         # one cycle of each, in well under a minute

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing installed.  ``--trace 1`` is a separate run: it repeats the
workload untraced for half the time, then with span wrappers installed
for the other half, and reports the per-layer metrics of BENCHMARK.json
plus the tracing overhead.  Either way the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, and the full record goes to ``bench/out/``.  See
bench/README.md for what each metric and workload means.

Operation latency is the CPU time of the process that runs the
operation: this thread for in-process sweeps, the child's user plus
system time for cli-cold.  The program is single-threaded and reads only
cached files, so on an idle host this equals wall time.  On a shared
virtual machine it leaves out the time the hypervisor gives to other
guests (steal), which doubled the wall-clock op_tail_ms within minutes
in one ten-seed set.  Wall time per operation is kept in the record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter, thread_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60.0
SETUP_PROBES = 5
COLD_WARMUP_OPS = 2
TAIL_BEYOND = 10


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the highest percentile of ``latencies``
    with at least TAIL_BEYOND samples above it, or the maximum when there
    are too few samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


# ------------------------------------------------------------------ set-up


def setup_probes(count: int) -> dict:
    """Median set-up and import time over ``count`` fresh interpreters.

    One unmeasured probe runs first, so that byte-code caches exist and
    every measured probe starts the same way a user's second call does.
    """
    results = []
    for i in range(count + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py")], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        if i:
            results.append(json.loads(done.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median([r["setup_s"] for r in results]),
        "import_s": statistics.median([r["import_s"] for r in results]),
        "setup_s_samples": [r["setup_s"] for r in results],
    }


# ------------------------------------------------------------ executors


class InProcess:
    """Runs sweeps through ``tunnelnoise.cli.main`` in this process."""

    def __init__(self) -> None:
        import tunnelnoise.cli

        if not Path(tunnelnoise.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"imported {tunnelnoise.cli.__file__}, not the checkout's src/")
        self.cli = tunnelnoise.cli

    def __call__(self, op: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        # As in timeit, the cyclic collector is off inside each timed call.
        # A full collection scans every object of numpy and scipy (20-40 ms
        # on a 2-core Xeon VM); whichever call it lands in would otherwise
        # set op_tail_ms.  It runs between calls instead, outside the timing.
        gc.disable()
        try:
            t0, c0 = perf_counter(), thread_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(op["argv"])
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # the loop keeps running; the op counts as failed
                    rc = f"uncaught {type(exc).__name__}"
            latency, wall = thread_time() - c0, perf_counter() - t0
        finally:
            gc.enable()
        return {"rc": rc, "out": out.getvalue().encode(), "latency": latency, "wall": wall,
                "error": err.getvalue().strip().splitlines()[-1:]}

    def start_trace(self) -> None:
        self.tracer = spans.Tracer()
        self.tracer.install()

    def stop_trace(self) -> dict:
        self.tracer.uninstall()
        return {**self.tracer.times(), "failed": self.tracer.failed, "import_s": []}

    def peak_rss_mb(self, tally) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class FreshProcess:
    """Runs each operation as one new ``python -m tunnelnoise.cli`` process.

    With tracing on, the process is ``bench/launcher.py`` instead, which
    wraps the same ``cli.main`` call.  Output goes through files in
    bench/out, so the child never blocks on a pipe and ``os.wait4`` can
    return its resource usage.
    """

    def __init__(self) -> None:
        self.env = _child_env()
        self.trace_path = None
        self.trace = None

    def __call__(self, op: dict) -> dict:
        if self.trace_path is None:
            argv = [sys.executable, "-m", "tunnelnoise.cli", *op["argv"]]
        else:
            argv = [sys.executable, str(BENCH / "launcher.py"), str(self.trace_path), "--",
                    *op["argv"]]
        with open(OUT / "child.stdout", "w+b") as out, \
                open(OUT / "child.stderr", "w+b") as err:
            t0 = perf_counter()
            child = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if self.trace_path is not None:
            self._merge_trace()
        return {"rc": child.returncode, "out": stdout,
                "latency": usage.ru_utime + usage.ru_stime, "wall": wall,
                "rss_kb": usage.ru_maxrss,
                "error": stderr.decode(errors="replace").strip().splitlines()[-1:]}

    def _merge_trace(self) -> None:
        # A child killed at the timeout, or one that failed before its
        # first statement, leaves no trace; its spans are simply missing.
        if not self.trace_path.is_file():
            return
        with open(self.trace_path, encoding="utf-8") as handle:
            record = json.load(handle)
        os.unlink(self.trace_path)
        for kind in ("self_times", "total_times"):
            for name, samples in record[kind].items():
                self.trace[kind].setdefault(name, []).extend(samples)
        for layer, count in record["failed"].items():
            self.trace["failed"][layer] += count
        self.trace["import_s"].append(record["import_s"])

    def start_trace(self) -> None:
        self.trace_path = OUT / "child.trace.json"
        self.trace = {"self_times": {}, "total_times": {},
                      "failed": dict.fromkeys(spans.TRACED, 0), "import_s": []}

    def stop_trace(self) -> dict:
        self.trace_path = None
        return self.trace

    def peak_rss_mb(self, tally) -> float:
        return tally.rss_kb / 1024.0


# ---------------------------------------------------------------- loops


def _digest(result: dict) -> str:
    return hashlib.sha256(result["out"]).hexdigest()


class Tally:
    """Running totals of one timed loop.

    Only a float per operation is kept, so the loop adds no long-lived
    objects: a growing heap would trigger full garbage collections inside
    the measured calls and inflate their latency.
    """

    def __init__(self, keep_digests: int) -> None:
        self.keep_digests = keep_digests
        self.digests = []
        self.latencies = array("d")
        self.attempted = self.good = self.wrong = 0
        self.rss_kb = 0
        self.kinds = {}
        self.output = hashlib.sha256()
        self.loop_wall_s = 0.0
        self.wall_s = 0.0

    def add(self, op: dict, result: dict, good: int, wrong: int) -> None:
        self.latencies.append(result["latency"])
        self.wall_s += result["wall"]
        self.attempted += op["points"]
        self.good += good
        self.wrong += wrong
        self.rss_kb = max(self.rss_kb, result.get("rss_kb", 0))
        self.output.update(result["out"])
        if len(self.digests) < self.keep_digests:
            self.digests.append(_digest(result))
        kind = self.kinds.setdefault(op["kind"], {
            "ops": 0, "points": 0, "good": 0, "exits": {}, "first_error": {},
            "latencies": array("d")})
        kind["ops"] += 1
        kind["points"] += op["points"]
        kind["good"] += good
        rc = str(result["rc"])
        kind["exits"][rc] = kind["exits"].get(rc, 0) + 1
        if rc != "0":
            kind["first_error"].setdefault(rc, result["error"])
        kind["latencies"].append(result["latency"])

    def by_kind(self) -> dict:
        return {name: {**{k: v for k, v in entry.items() if k != "latencies"},
                       "op_p50_ms": statistics.median(entry["latencies"]) * 1e3}
                for name, entry in self.kinds.items()}


def run_loop(workload: str, seed: int, seconds: float, execute, keep_digests: int) -> Tally:
    """Closed loop over whole cycles until ``seconds`` of wall time passed.

    ``seconds = 0`` runs exactly one cycle.  Output checks run between
    operations and are not part of any operation's latency.
    """
    check = checks.check_cold if workload == "cli-cold" else checks.check_sweep
    rng = random.Random(seed)
    tally = Tally(keep_digests)
    t_start = perf_counter()
    while not tally.latencies or perf_counter() - t_start < seconds:
        for op in workloads.cycle(workload, rng):
            result = execute(op)
            good, wrong = check(op, result["rc"], result["out"].decode())
            tally.add(op, result, good, wrong)
    tally.loop_wall_s = perf_counter() - t_start
    return tally


def warm_up(workload: str, seed: int, execute) -> list:
    """Run the start of the schedule once, untimed; return its digests.

    The timed loop repeats these operations first, so comparing digests
    proves that the output bytes are deterministic.
    """
    ops = workloads.cycle(workload, random.Random(seed))
    if workload == "cli-cold":
        ops = ops[:COLD_WARMUP_OPS]
    return [_digest(execute(op)) for op in ops]


def summarize(tally: Tally, execute) -> dict:
    busy_s = sum(tally.latencies)
    tail_value, tail_pct, samples = tail(tally.latencies)
    return {
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.good,
        "wrong": tally.wrong,
        "ops": len(tally.latencies),
        "busy_s": busy_s,
        "busy_wall_s": tally.wall_s,
        "loop_wall_s": tally.loop_wall_s,
        "points_per_s": tally.good / busy_s,
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "op_tail_percentile": tail_pct,
        "op_samples": samples,
        "failed_frac": (tally.attempted - tally.good) / tally.attempted,
        "peak_rss_mb": execute.peak_rss_mb(tally),
        "output_sha256": tally.output.hexdigest(),
    }


# ----------------------------------------------------------------- runs


def run_untraced(workload: str, seed: int, seconds: float, probes: int) -> dict:
    setup = setup_probes(probes)
    execute = FreshProcess() if workload == "cli-cold" else InProcess()
    reference = warm_up(workload, seed, execute)
    loop = run_loop(workload, seed, seconds, execute, len(reference))
    stats = summarize(loop, execute)
    deterministic = loop.digests == reference
    metrics = {name: stats[name] for name in (
        "points_per_s", "op_p50_ms", "op_tail_ms", "failed_frac", "peak_rss_mb")}
    metrics["setup_s"] = setup["setup_s"]
    return {
        "correct": stats["wrong"] == 0 and deterministic,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
        "detail": {
            "stats": stats, "setup": setup, "deterministic": deterministic,
            "by_kind": loop.by_kind(),
        },
    }


def run_traced(workload: str, seed: int, seconds: float, probes: int) -> dict:
    execute = FreshProcess() if workload == "cli-cold" else InProcess()
    import_s = None if workload == "cli-cold" else setup_probes(probes)["import_s"]
    reference = warm_up(workload, seed, execute)
    plain = run_loop(workload, seed, seconds / 2, execute, len(reference))
    execute.start_trace()
    traced = run_loop(workload, seed, seconds / 2, execute, len(reference))
    trace = execute.stop_trace()
    plain_stats, traced_stats = summarize(plain, execute), summarize(traced, execute)
    layer = spans.layer_stats(trace["self_times"], trace["failed"], traced_stats["busy_wall_s"],
                              traced_stats["attempted"])
    layer["cli.import_s"] = statistics.median(trace["import_s"]) if import_s is None else import_s
    layer["trace.overhead_ratio"] = (
        plain_stats["points_per_s"] / traced_stats["points_per_s"])
    deterministic = plain.digests == reference and traced.digests == reference
    return {
        "correct": plain_stats["wrong"] == 0 and traced_stats["wrong"] == 0
        and deterministic,
        "attempted": plain_stats["attempted"] + traced_stats["attempted"],
        "failed": plain_stats["failed"] + traced_stats["failed"],
        "metrics": layer,
        "detail": {
            "untraced": plain_stats, "traced": traced_stats,
            "deterministic": deterministic,
            "total_us_p50": {name: statistics.median(samples) * 1e6
                             for name, samples in trace["total_times"].items() if samples},
            "by_kind": traced.by_kind(),
        },
    }


# ------------------------------------------------------------- reporting


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "cpu": cpu, "src_lines": src_lines}


def report(run: dict, specs: list) -> dict:
    """Select and label the manifest's metrics; fail on any that is missing."""
    missing = [s["name"] for s in specs if s["name"] not in run["metrics"]]
    if missing:
        raise SystemExit(f"benchmark produced no value for {missing}")
    return {s["name"]: {"value": run["metrics"][s["name"]], "unit": s["unit"]}
            for s in specs}


def run_one(args, manifest: dict) -> dict:
    probes = 1 if args.smoke else SETUP_PROBES
    runner = run_traced if args.trace else run_untraced
    run = runner(args.workload, args.seed, args.seconds, probes)
    specs = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = report(run, specs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(),
        "correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
        "metrics": metrics, "detail": run["detail"],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in metrics.items():
        print(f"{args.workload:13s} {name:44s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        stats = run["detail"]["stats"]
        print(f"{args.workload:13s} op_tail_ms is p{stats['op_tail_percentile']:.2f} "
              f"of {stats['op_samples']} operations")
    print(f"{args.workload:13s} results: {path.relative_to(ROOT)}")
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle per run and one set-up probe")
    args = parser.parse_args()
    if not (SRC / "tunnelnoise" / "cli.py").is_file():
        print(f"no tunnelnoise sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.smoke:
        args.seconds = 0.0
    elif args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload != "all" and args.trace is not None:
        print(json.dumps(run_one(args, manifest)))
        return 0
    # Every (workload, trace) pair gets its own process, so that peak RSS
    # and installed wrappers never carry over from one run to the next.
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    code = 0
    runs = []
    for name in names:
        for trace in traces:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(trace)]
            if args.smoke:
                argv.append("--smoke")
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
            if path.is_file():
                runs.append(json.loads(path.read_text(encoding="utf-8")))
    combined = OUT / f"BENCH_seed{args.seed}.json"
    combined.write_text(json.dumps({"environment": environment(), "runs": runs}, indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")
    print(f"all results: {combined.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
