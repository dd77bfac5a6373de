"""Benchmark entry point for moebius-csr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a closed-loop client in this
process, against the package source under ``src/`` of the checkout that
holds this file, and prints three JSON lines on stdout: the environment
fingerprint, a report with the workload's own metrics and sample counts,
and last the result ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, with every time divided by
the host's slowness at that moment (see ``host_probe``).  ``--trace 1``
runs every op twice, untraced and then traced through ``spans.Tracer``,
and reports the per-layer metrics and the tracing overhead.  The run exits with code 2 and
prints no result when the package source is missing or the imported
``moebius_csr`` is not the one under this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: the benchmark is a single-threaded closed loop, and an
# idle BLAS worker spinning on the second core would compete with it
BLAS_THREADS = 1
SETUP_REPEATS = 9
PROBE_REPEATS = 5
TAIL_BEYOND = 10
SLOW_CAP = 1.6
WORKLOAD_NAMES = ("flux_clean", "flux_disorder", "csr_batch", "cli_mix")

# The benchmark's own modules (workloads, gates, spans) import NumPy, so they
# are imported only after the package import has been timed.

# cap BLAS threads before NumPy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


# The host's speed drifts: the same computation runs up to 2.4 times slower
# for minutes at a time on the machine this was built on, whatever the
# program does.  So every time the benchmark reports is divided by the
# host's slowness at that moment, read from a fixed reference computation
# timed right before and right after: Jacobi-style rotations of a small
# matrix in a Python loop, the kind of work the package's interpreted
# kernels do, and none of the package's own code.  Slowness 1 is the
# reference taking PROBE_NOMINAL_S, its time on that machine at its
# fastest.  The raw wall times are on the report line.
PROBE_NOMINAL_S = 0.0004


def host_probe() -> float:
    """Seconds the reference computation takes now (best of three)."""
    import numpy as np

    a0 = np.linspace(0.5, 1.5, 144).reshape(12, 12)
    best = math.inf
    gc.disable()  # the program's garbage must not slow the reference
    try:
        for _ in range(3):
            start = time.perf_counter()
            a = a0.copy()
            for p in range(11):
                for q in range(p + 1, 12):
                    col_p = a[:, p].copy()
                    col_q = a[:, q].copy()
                    a[:, p] = 0.8 * col_p - 0.6 * col_q
                    a[:, q] = 0.6 * col_p + 0.8 * col_q
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package(workload: str):
    """Import the package from this checkout and time it.

    Returns the module namespace the workloads call through and the import
    time in seconds.
    """
    if not (SRC / "moebius_csr" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'moebius_csr'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import moebius_csr
    from moebius_csr import csr_cost, decision, hamiltonian, lattice

    if workload == "cli_mix":
        from moebius_csr import cli
    else:
        cli = None
    elapsed = time.perf_counter() - start
    location = Path(moebius_csr.__file__).resolve()
    if not location.is_relative_to(SRC.resolve()):
        fail(f"imported moebius_csr from {location}, not from {SRC}")
    mods = argparse.Namespace(
        package=moebius_csr,
        lattice=lattice,
        hamiltonian=hamiltonian,
        csr_cost=csr_cost,
        decision=decision,
        cli=cli,
    )
    return mods, elapsed


def setup_once(name: str, seed: int):
    """Import the package and build the first deck; return (workload, ops,
    seconds spent in the package, host slowness around the build)."""
    mods, import_s = import_package(name)
    import workloads

    wl = workloads.WORKLOADS[name](seed, mods, str(ROOT))
    probe_before = host_probe()
    start = time.perf_counter()
    wl.prepare()
    build_s = time.perf_counter() - start
    raw = wl.draw(0)
    start = time.perf_counter()
    ops = wl.build(raw)
    build_s += time.perf_counter() - start
    slowness = (probe_before + host_probe()) / 2.0 / PROBE_NOMINAL_S
    return wl, ops, import_s + build_s, slowness


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint(mods, args) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "cpu": cpu_model(),
        "numba_enabled": getattr(mods.package, "NUMBA_ENABLED", None),
        "blas_threads": BLAS_THREADS,
        "moebius_csr_file": str(Path(mods.package.__file__).resolve()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probes(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes: each imports the package and builds
    the workload's first deck, and prints the time it spent doing so and
    the host's slowness around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "1", "--trace", "0", "--setup-probe",
            ],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((out["setup_s"], out["slowness"]))
    return times


class Tally:
    """Gate outcomes: attempted and failed library calls, by op name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.by_op: dict[str, int] = {}
        self.examples: list[str] = []

    def add(self, results) -> None:
        import gates

        for name, err in results:
            self.attempted += 1
            if err is None:
                continue
            self.failed += 1
            self.wrong += isinstance(err, gates.Wrong)
            self.by_op[name] = self.by_op.get(name, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{type(err).__name__}: {err}")


def execute(op, tally: Tally, tracer=None) -> float:
    """Time one op, traced if a tracer is given, then gate its output
    outside the timed and traced region."""
    import gates

    with tracer.on() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        elapsed = time.perf_counter() - start
    if isinstance(out, Exception):
        tally.add([(name, gates.Failed(name, repr(out))) for name in op.names])
    else:
        tally.add(op.check(out))
    return elapsed


def run_decks(wl, first_ops, seconds: float, tracer=None):
    """Issue ops one at a time, deck after deck, for the number of decks
    that fill ``seconds`` at the workload's nominal deck duration.  With a
    tracer, each op runs untraced and then traced.

    A fixed number of decks fixes the mix of ops, so the tail (a count of
    samples from the top) falls on the same rung of the cost ladder in
    every run.  A run on a host much slower than nominal stops at the first
    deck boundary after ``SLOW_CAP * seconds``.

    Each untraced execution is bracketed by reference probes; its slowness
    is their mean over PROBE_NOMINAL_S.  Returns the tally,
    ``[(label, work, seconds, slowness)]`` for the untraced executions (not
    the ops, which hold their inputs) and the summed traced time.
    """
    decks = max(wl.min_decks, round(seconds / wl.deck_seconds))
    if tracer is not None:
        seconds *= 2  # every op runs twice
    tally = Tally()
    samples = []
    traced_s = 0.0
    start = time.perf_counter()
    ops = first_ops
    probe = host_probe()
    for index in range(1, decks + 1):
        for op in ops:
            dt = execute(op, tally)
            after = host_probe()
            slowness = (probe + after) / 2.0 / PROBE_NOMINAL_S
            probe = after
            samples.append((op.label, op.work, dt, slowness))
            if tracer is not None:
                traced_s += execute(op, tally, tracer)
        if index == decks or time.perf_counter() - start >= SLOW_CAP * seconds:
            return tally, samples, traced_s
        ops = wl.build(wl.draw(index))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, samples, setup_times, peak_mb) -> tuple[dict, dict]:
    """Metrics from the normalized times (wall time / slowness); the wall
    times go to the report."""
    walls = [dt for _, _, dt, _ in samples]
    durations = [dt / slow for _, _, dt, slow in samples]
    busy = sum(durations)
    tail_s, tail_pct = tail(durations)
    setups = [t / slow for t, slow in setup_times]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "ops_per_s": metric(len(durations) / busy, "1/s"),
        "op_s_p50": metric(statistics.median(durations), "s"),
        "op_s_tail": metric(tail_s, "s"),
    }
    slowness = sorted(slow for *_, slow in samples)
    report = {
        "ops": len(durations),
        "busy_s": busy,
        "setup_samples": len(setup_times),
        "op_s_p50": {"value": statistics.median(durations), "samples": len(durations)},
        "op_s_tail": {
            "value": tail_s,
            "percentile": tail_pct,
            "samples": len(durations),
        },
        "slowness": {
            "p50": statistics.median(slowness),
            "min": slowness[0],
            "max": slowness[-1],
            "samples": len(slowness),
        },
        "wall": {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "busy_s": sum(walls),
            "ops_per_s": len(walls) / sum(walls),
            "op_s_p50": statistics.median(walls),
            "op_s_tail": tail(walls)[0],
        },
    }
    # workload-specific rates and latency names, for readers of the report line
    work_rates = {
        "flux_points": "flux_points_per_s",
        "decisions": "decisions_per_s",
        "cost_cells": "cost_cells_per_s",
    }
    for key, name in work_rates.items():
        chosen = [
            (work[key], dt)
            for (_, work, _, _), dt in zip(samples, durations)
            if key in work
        ]
        if chosen:
            units = sum(n for n, _ in chosen)
            report[name] = {
                "value": units / sum(dt for _, dt in chosen),
                "unit": "1/s",
                "samples": len(chosen),
            }
    prefix = {"flux_clean": "sweep", "flux_disorder": "sweep", "cli_mix": "cli"}
    if workload in prefix:
        report[f"{prefix[workload]}_s_p50"] = report["op_s_p50"]
        report[f"{prefix[workload]}_s_tail"] = report["op_s_tail"]
    by_label: dict[str, list[float]] = {}
    for (label, _, _, _), dt in zip(samples, durations):
        by_label.setdefault(label, []).append(dt)
    report["op_s_p50_by_label"] = {
        label: {"value": statistics.median(v), "samples": len(v)}
        for label, v in sorted(by_label.items())
    }
    return metrics, report


def per_layer(wl, tracer, untraced_s: float, traced_s: float, probes: dict) -> dict:
    import spans

    t = tracer
    eig_calls = t.calls(["hamiltonian.eigenvalues"])
    metrics = {
        "kernels.jacobi_s": metric(t.total(spans.JACOBI), "s"),
        "kernels.jacobi_calls": metric(t.calls(spans.JACOBI), "count"),
        "kernels.jacobi_dim_sum": metric(t.counter(spans.JACOBI, "dim_sum"), "count"),
        "kernels.jacobi_dim3_sum": metric(t.counter(spans.JACOBI, "dim3_sum"), "count"),
        "hamiltonian.assemble_s": metric(t.total(["hamiltonian.assemble"]), "s"),
        "hamiltonian.assemble_calls": metric(t.calls(["hamiltonian.assemble"]), "count"),
        "hamiltonian.eigenvalues_self_s": metric(
            t.self_time("hamiltonian.eigenvalues"), "s"
        ),
        "hamiltonian.eigenvalues_calls": metric(eig_calls, "count"),
        "hamiltonian.eig_dim_max": metric(
            t.counter(["hamiltonian.eigenvalues"], "dim_max"), "count"
        ),
        "hamiltonian.complex_frac": metric(
            t.counter(["hamiltonian.eigenvalues"], "complex") / eig_calls
            if eig_calls
            else 0.0,
            "frac",
        ),
        "hamiltonian.total_energy_s": metric(t.total(["hamiltonian.total_energy"]), "s"),
        "hamiltonian.flux_sweep_self_s": metric(
            t.self_time("hamiltonian.flux_sweep"), "s"
        ),
        "lattice.build_s": metric(t.total(spans.BUILDS), "s"),
        "lattice.build_calls": metric(t.calls(spans.BUILDS), "count"),
        "lattice.sites": metric(t.counter(spans.BUILDS, "sites"), "count"),
        "kernels.sum_s": metric(t.total(spans.SUMS), "s"),
        "kernels.sum_calls": metric(t.calls(spans.SUMS), "count"),
        "kernels.sum_bytes_computed": metric(t.counter(spans.SUMS, "bytes"), "B"),
        "csr_cost.total_hcsr_self_s": metric(t.self_time("csr_cost.total_hcsr"), "s"),
        "csr_cost.total_hcsr_calls": metric(t.calls(["csr_cost.total_hcsr"]), "count"),
        "decision.optimize_constrained_s": metric(
            t.total(["decision.optimize_constrained"]), "s"
        ),
        "decision.optimize_oracle_s": metric(t.total(["decision.optimize_oracle"]), "s"),
        "decision.hcsr_evals": metric(t.calls(["decision.hcsr_of_c"]), "count"),
        "decision.hcsr_points": metric(
            t.counter(["decision.hcsr_of_c"], "points"), "count"
        ),
        "decision.closed_form_s": metric(
            t.total(["decision.stationary_closed_form"]), "s"
        ),
        "decision.statics_s": metric(t.total(["decision.comparative_statics"]), "s"),
        "decision.oracle_agree_frac": metric(
            wl.oracle_agree / wl.oracle_checks
            if getattr(wl, "oracle_checks", 0)
            else 0.0,
            "frac",
        ),
        "cli.startup_s": metric(probes.get("startup", 0.0), "s"),
        "cli.main_s": metric(probes.get("main", 0.0), "s"),
        "cli.bare_python_s": metric(probes.get("bare", 0.0), "s"),
    }
    for module in spans.MODULES:
        metrics[f"{module.lstrip('_')}.warnings"] = metric(
            t.warnings.get(module, 0), "count"
        )
    metrics["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "frac")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # run on one core, with every child process: the reference probe then
    # times the same core as the ops it brackets
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.setup_probe:
        wl, _, setup_s, slowness = setup_once(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": setup_s, "slowness": slowness}))
        return 0

    wl, first_ops, _, _ = setup_once(args.workload, args.seed)
    try:
        print(json.dumps({"env": fingerprint(wl.mods, args)}), flush=True)
        if args.trace == 0:
            setup_times = setup_probes(args)
            tally, samples, _ = run_decks(wl, first_ops, args.seconds)
            metrics, report = end_to_end(
                args.workload, samples, setup_times, wl.peak_rss_mb()
            )
        else:
            import spans

            tracer = spans.Tracer()
            # trace the set-up too, so lattice builds are attributed; this
            # rebuilds the shared objects and the first deck under the tracer
            with tracer.on():
                wl.prepare()
                first_ops = wl.build(wl.draw(0))
            probes = {}
            if args.workload == "cli_mix":
                probes["startup"] = statistics.median(
                    wl.probe("import moebius_csr.cli", PROBE_REPEATS)
                )
                probes["bare"] = statistics.median(wl.probe("pass", PROBE_REPEATS))
                wl.in_process = True
            tally, samples, traced_s = run_decks(wl, first_ops, args.seconds, tracer)
            untraced_s = sum(dt for _, _, dt, _ in samples)
            if args.workload == "cli_mix":
                probes["main"] = statistics.median(dt for _, _, dt, _ in samples)
            metrics = per_layer(wl, tracer, untraced_s, traced_s, probes)
            report = {
                "ops": len(samples),
                "untraced_s": untraced_s,
                "traced_s": traced_s,
                "absent": tracer.absent,
                "missing_modules": tracer.missing_modules,
            }
    finally:
        wl.close()

    report["ops_failed_frac"] = {
        "value": tally.failed / tally.attempted,
        "failed": tally.failed,
        "attempted": tally.attempted,
    }
    report["failed_by_op"] = tally.by_op
    report["failure_examples"] = tally.examples
    print(json.dumps({"report": report}), flush=True)
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            fail(f"metric {name} is not finite: {entry['value']!r}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
