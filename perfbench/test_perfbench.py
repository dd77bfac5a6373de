"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The first test runs every workload briefly through ``run.py`` in both
modes (about two minutes, most of it the two flux workloads' one deck).
The others feed each gate a deliberately corrupted answer and check the
tracer on small inputs.
"""

from __future__ import annotations

import json
import math
import pickle
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from moebius_csr import cli, csr_cost, decision, hamiltonian, lattice  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MODS = type(
    "Mods",
    (),
    dict(lattice=lattice, hamiltonian=hamiltonian, csr_cost=csr_cost,
         decision=decision, cli=cli),
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0.0
    assert not (ROOT / ".perfbench_work").exists()


def test_times_are_divided_by_the_host_slowness():
    import run

    probe = run.host_probe()
    assert 0.0 < probe < 1.0
    # each op took 0.2 s or 0.4 s of wall time while the host ran at half speed
    samples = [("a", {}, 0.2, 2.0), ("b", {}, 0.4, 2.0)] * 6
    metrics, report = run.end_to_end("csr_batch", samples, [(0.3, 1.5)], 40.0)
    assert metrics["op_s_p50"]["value"] == pytest.approx(0.15)
    assert metrics["ops_per_s"]["value"] == pytest.approx(12 / 1.8)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert report["wall"]["op_s_p50"] == pytest.approx(0.3)
    assert report["wall"]["ops_per_s"] == pytest.approx(12 / 3.6)


# -- each gate rejects a corrupted answer --------------------------------------


def test_flux_gate():
    lat = lattice.build_moebius(2, 2)
    params = hamiltonian.HoppingParams(t1=1.0, t2=0.5)
    grid = np.array([0.0, 0.3, 0.7])
    out = hamiltonian.flux_sweep(lat, params, grid, 3)
    gates.check_flux(hamiltonian, lat, params, grid, 3, out)
    bad = out.copy()
    bad[1, 1] += 1e-6
    with pytest.raises(gates.Wrong):
        gates.check_flux(hamiltonian, lat, params, grid, 3, bad)
    bad[1, 1] = np.nan
    with pytest.raises(gates.Failed):
        gates.check_flux(hamiltonian, lat, params, grid, 3, bad)


def test_cost_gate_is_bit_exact():
    rng = np.random.default_rng(0)
    a = rng.random((8, 2)) * 10.0 ** rng.uniform(-16, 0, (8, 2))
    c = 10.0 ** rng.uniform(-8, 8, (8, 2))
    params = csr_cost.CsrParams(t1=2.0, t2=1.0, delta=0.5)
    breakdown = csr_cost.total_hcsr(a, c, params)
    gates.check_cost(a, c, params, breakdown)
    flipped = replace(breakdown, loyalty=float(np.nextafter(breakdown.loyalty, np.inf)))
    with pytest.raises(gates.Wrong):
        gates.check_cost(a, c, params, flipped)


def test_decision_gates():
    s = decision.CsrScenario(N=10, M=2, a=0.5, k=2.0, beta=0.5, delta=0.1, p=3.0, w=1.0)
    report = decision.optimize_constrained(s)
    oracle = decision.optimize_oracle(s, workloads.ORACLE_POINTS)
    gates.check_constrained(s, report, oracle, workloads.ORACLE_POINTS)
    shifted = replace(report, objective_at_opt=report.objective_at_opt * (1 + 1e-6))
    with pytest.raises(gates.Wrong):
        gates.check_constrained(s, shifted, oracle, workloads.ORACLE_POINTS)
    with pytest.raises(gates.Failed):
        gates.check_constrained(
            s, replace(report, stationary=math.inf), oracle, workloads.ORACLE_POINTS
        )
    gates.check_closed_form(s, report.stationary)
    with pytest.raises(gates.Wrong):
        gates.check_closed_form(s, report.stationary * (1 + 1e-6))
    for param in workloads.STATICS:
        value = decision.comparative_statics(s, param)
        gates.check_statics(s, param, value)
        with pytest.raises(gates.Wrong):
            gates.check_statics(s, param, value * (1 + 1e-6))
    with pytest.raises(gates.Failed):
        gates.check_statics(s, "delta", ValueError("spurious"))
    with pytest.raises(gates.Wrong):
        gates.check_statics(replace(s, beta=1.0), "delta", 0.5)
    with pytest.raises(gates.Failed):
        gates.check_statics(s, "M", math.nan)


def test_cli_gates():
    wl = workloads.CliMix(5, MODS, str(ROOT))
    wl.prepare()
    try:
        wl.in_process = True
        op = wl._op("cost 8x2")
        code, stdout, stderr = op.call()
        assert op.check((code, stdout, stderr)) == [("cli cost 8x2", None)]
        # a repeat with other bytes, a wrong exit code, a changed digit
        altered = stdout.replace(b"total=", b"total=1")
        (_, err), = op.check((code, altered, stderr))
        assert isinstance(err, gates.Wrong)
        (_, err), = op.check((3, stdout, stderr))
        assert isinstance(err, gates.Wrong)
        wl.first_stdout.clear()
        (_, err), = op.check((code, altered, stderr))
        assert isinstance(err, gates.Wrong)
        # a domain error must say so on stderr and print nothing on stdout
        op = wl._op("domain error")
        code, stdout, stderr = op.call()
        assert code == 2
        assert op.check((code, stdout, stderr)) == [("cli domain error", None)]
        (_, err), = op.check((code, stdout, b""))
        assert isinstance(err, gates.Wrong)
    finally:
        wl.close()


def test_cli_peak_rss_is_the_cli_calls_own():
    ballast = np.ones(8 * 2**20)  # 64 MiB resident in this process only
    wl = workloads.CliMix(5, MODS, str(ROOT))
    wl.prepare()
    try:
        peak = wl.peak_rss_mb()
    finally:
        wl.close()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert ballast.sum() > 0
    assert 5.0 < peak < own - 50.0


# -- the tracer ----------------------------------------------------------------


def test_tracer_nests_and_counts():
    tracer = spans.Tracer()
    lat = lattice.build_moebius(2, 2)
    with tracer.on():
        hamiltonian.flux_sweep(lat, hamiltonian.HoppingParams(1.0, 0.5), [0.0, 0.3], 2)
    assert hamiltonian.flux_sweep.__name__ == "flux_sweep"
    assert not hasattr(hamiltonian.flux_sweep, "__wrapped__")  # unwrapped again
    sweep = tracer.stats["hamiltonian.flux_sweep"]
    assert sweep.calls == 1 and 0.0 < sweep.self_time < sweep.total
    assert tracer.calls(spans.JACOBI) == 2
    # phi=0 is real (dim 8), phi=0.3 is doubled (dim 16)
    assert tracer.counter(spans.JACOBI, "dim_sum") == 8 + 16
    assert tracer.counter(["hamiltonian.eigenvalues"], "complex") == 1
    assert tracer.absent == []


def test_tracer_reports_absent_names(monkeypatch):
    from moebius_csr import _kernels

    monkeypatch.delattr(_kernels, "jacobi_eigvals_compiled")
    monkeypatch.setattr(spans, "MODULES", spans.MODULES + ("no_such_module",))
    tracer = spans.Tracer()
    assert tracer.absent == ["_kernels.jacobi_eigvals_compiled"]
    assert tracer.missing_modules == ["no_such_module"]
    with tracer.on():
        hamiltonian.eigenvalues(np.eye(3))
    assert tracer.calls(spans.JACOBI) == 1


def test_tracer_attributes_runtime_warnings():
    tracer = spans.Tracer()
    # the known defects kept in every deck: the Jacobi pivot overflow of
    # the flux decks and ROADMAP item 4's overflow of the csr_batch decks
    wl = workloads.FluxClean(3, MODS, str(ROOT))
    wl.prepare()
    (sweep,) = [op for op in wl.build(wl.draw(0)) if op.label == "(4,1)x1"]
    overflow = decision.CsrScenario(**workloads.OVERFLOW)
    with tracer.on():
        out = sweep.call()
        decision.optimize_oracle(overflow, workloads.ORACLE_POINTS)
    assert sweep.check(out) == [("flux_sweep", None)]
    assert tracer.warnings["_kernels"] > 0
    assert tracer.warnings["decision"] > 0
    assert tracer.warnings["hamiltonian"] == 0


@pytest.mark.parametrize("name", ["flux_clean", "flux_disorder", "csr_batch"])
def test_seed_fixes_inputs(name):
    def inputs(seed, index=0):
        return pickle.dumps(workloads.WORKLOADS[name](seed, MODS, str(ROOT)).draw(index))

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
    assert inputs(3, 1) != inputs(3, 0)
