"""The workloads: seeded inputs, timed ops and their gates.

A workload is a closed loop of ops issued one at a time.  Its ops come in
decks: deck ``i`` is drawn from ``numpy.random.default_rng([seed, 0, i])``
and inputs shared by all decks from ``[seed, 1]``, so a seed fixes every
input.  The seed draws the values (flux grids, hoppings, fillings,
disorder, matrices, scenarios, file contents, order); the mix of sizes in
a deck is fixed, so that runs with different seeds do the same kind and
amount of work and their timings can be compared.  A run is a whole
number of decks.

Each workload separates drawing raw numbers (:meth:`draw`, NumPy only)
from building the program's objects out of them (:meth:`build`, through
the package's public API); the latter is part of ``setup_s``.  Ops call
the package through module attributes looked up at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import gates


@dataclass
class Op:
    """One timed call.  ``check(output)`` returns ``[(name, GateError|None)]``,
    one entry per checked library call; ``work`` counts units of work done."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    names: tuple[str, ...]
    work: dict = field(default_factory=dict)


def _outcome(name: str, gate: Callable, *args) -> tuple:
    """``(name, None)`` if ``gate(*args)`` passes, else ``(name, error)``."""
    try:
        gate(*args)
    except gates.GateError as err:
        return name, err
    return name, None


class Workload:
    min_decks = 1
    deck_seconds = 1.0  # nominal duration of one deck

    def __init__(self, seed: int, mods, root: str):
        self.seed = seed
        self.mods = mods
        self.root = root

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def prepare(self) -> None:
        """Build the objects shared by every deck (lattices, files)."""

    def close(self) -> None:
        """Release what :meth:`prepare` made."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- flux sweeps -------------------------------------------------------------

# (N, M) and the grid sizes of its sweeps, one sweep per size.  Sweeps of
# one row alternate between the two topologies from a seeded start.
#
# The host this was measured on runs everything up to 2.4 times slower for
# seconds to minutes at a time.  Over sweeps of equal cost a median or a
# tail jumps between the fast and the slow value with the share of slow
# time; over a dense ladder of costs it slides smoothly, like a mean.  So
# the deck is built around two dense ladders, for a run of two decks (the
# default): 19 cheap sweeps below 38 from 10 to 90 ms (the rings and the
# overflow point), with 20 above, put the median in the middle of the ring
# ladder; and the two heavy sweeps per deck above ten sweeps from 0.26 to
# 0.46 s put the tail (11th largest of the run) at the 7th of their 20.
FLUX_DECK = (
    ((6, 4), (5,)),  # heavy: d=48, about 4.4 s
    ((3, 4), (5,)),  # heavy: d=24, about 1.2 s
    ((4, 2), (5,)),  # the tail ladder, 0.26 to 0.46 s, with (2,2) below
    ((2, 2), (13, 14, 15, 16, 17, 18, 19, 20, 21)),
    ((2, 2), (5, 6, 7, 8, 9, 10, 11, 12)),  # 0.09 to 0.24 s
    ((1, 3), tuple(range(5, 42))),  # the median ladder: N=1 rings, always real
    ((1, 1), tuple(range(5, 42, 2))),  # the cheapest, about 1 to 5 ms
)
# a deck's duration with the host at its slow state; a run is
# round(seconds / FLUX_DECK_SECONDS) decks
FLUX_DECK_SECONDS = 14.0
TOPOLOGIES = ("moebius", "cylinder")
# A Jacobi pivot overflow ("overflow encountered in scalar divide") found by
# the package's own flux periodicity test.  One single-point sweep of it is
# kept in every deck of both flux workloads, so the defect stays visible in
# the kernel layer's warnings.  It costs about as much as a d=8 sweep.
JACOBI_OVERFLOW = {
    "N": 4,
    "M": 1,
    "topology": "moebius",
    "grid": np.array([4.4691543028184295]),
    "t1": 1.0,
    "t2": 0.9,
    "n_electrons": 4,
    "epsilon": None,
}


class Flux(Workload):
    disorder = False
    deck_seconds = FLUX_DECK_SECONDS

    def prepare(self):
        lattice = self.mods.lattice
        build = {"moebius": lattice.build_moebius, "cylinder": lattice.build_cylinder}
        keys = {(n, m, topo) for (n, m), _ in FLUX_DECK for topo in TOPOLOGIES}
        keys.add(tuple(JACOBI_OVERFLOW[k] for k in ("N", "M", "topology")))
        self.lattices = {(n, m, topo): build[topo](n, m) for n, m, topo in sorted(keys)}

    def draw(self, index: int) -> list[dict]:
        rng = self.rng(0, index)
        sweeps = []
        for (n, m), sizes in FLUX_DECK:
            first = int(rng.integers(2))
            for k, points in enumerate(sizes):
                d = 2 * n * m
                # start at phi=0 and span a quarter to two flux periods
                span = float(rng.uniform(0.25, 2.0)) * n
                spec = {
                    "N": n,
                    "M": m,
                    "topology": TOPOLOGIES[(first + k) % 2],
                    "grid": span / (points - 1) * np.arange(points),
                    "t1": float(rng.uniform(0.5, 1.5)),
                    "t2": float(rng.uniform(0.25, 1.25)),
                    "n_electrons": int(rng.integers(0, d + 1)),
                    "epsilon": None,
                }
                if self.disorder:
                    strength = float(rng.uniform(0.5, 2.0))
                    spec["epsilon"] = strength * (rng.random((2 * n, m)) - 0.5)
                sweeps.append(spec)
        sweeps.append(JACOBI_OVERFLOW)
        return [sweeps[i] for i in rng.permutation(len(sweeps))]

    def build(self, raw: list[dict]) -> list[Op]:
        hamiltonian = self.mods.hamiltonian
        return [self._op(spec, hamiltonian) for spec in raw]

    def _op(self, spec, hamiltonian) -> Op:
        lat = self.lattices[(spec["N"], spec["M"], spec["topology"])]
        params = hamiltonian.HoppingParams(
            t1=spec["t1"], t2=spec["t2"], epsilon=spec["epsilon"]
        )
        grid, filling = spec["grid"], spec["n_electrons"]
        mods = self.mods
        return Op(
            label=f"({spec['N']},{spec['M']})x{len(grid)}",
            call=lambda: mods.hamiltonian.flux_sweep(lat, params, grid, filling),
            check=lambda out: [
                _outcome(
                    "flux_sweep",
                    gates.check_flux, mods.hamiltonian, lat, params, grid, filling, out,
                )
            ],
            names=("flux_sweep",),
            work={"flux_points": len(grid)},
        )


class FluxClean(Flux):
    pass


class FluxDisorder(Flux):
    disorder = True


# -- cost functional and decisions -----------------------------------------------

COST_SHAPES = ((2, 1), (8, 2), (64, 8), (400, 200))
ORACLE_POINTS = 2001
# beta regime of each scenario slot in a group of 14; one slot of each
# group draws p < w and another a = 0.  Scenarios are drawn group by group
# and dealt in order into the decision ops of a deck.
REGIMES = ("below",) * 6 + ("above",) * 6 + ("equal",) * 2
# A decision op decides a batch of scenarios; the batch sizes form a
# geometric ladder (ratio 1.1) from 1 to about 600, so decision latencies
# run without gaps from 1 ms to 0.8 s, and the median and the tail slide a
# rung or two with the host's share of slow time (see FLUX_DECK).
BATCH_RUNGS = 68
COST_REPEATS = 3  # matrices of each shape per deck
# a deck's duration with the host at its slow state; a run is
# round(seconds / CSR_DECK_SECONDS) decks
CSR_DECK_SECONDS = 9.0
# ROADMAP item 4's overflow repro: c**beta overflows while a**(2+beta)
# underflows.  Kept in every deck so the defect stays visible.
OVERFLOW = dict(N=1, M=1, a=1e-10, k=1.0, beta=40.0, delta=0.5, p=1e10, w=0.0)
STATICS = ("delta", "beta", "M")
BUNDLE = (
    "optimize_constrained",
    "optimize_oracle",
    "stationary_closed_form",
    *(f"comparative_statics[{p}]" for p in STATICS),
)  # the checked calls of one decision op


def draw_scenario(rng: np.random.Generator, regime: str, infeasible=False, zero_a=False):
    beta = {
        "below": lambda: float(rng.uniform(0.15, 0.85)),
        "above": lambda: float(rng.uniform(1.15, 3.8)),
        "equal": lambda: 1.0,
    }[regime]()
    if infeasible:
        w = float(rng.uniform(0.5, 2.5))
        p = w * float(rng.uniform(0.0, 0.9))
    else:
        w = float(rng.uniform(0.0, 2.0))
        p = w + float(rng.uniform(0.2, 4.2))
    return dict(
        N=int(rng.integers(1, 7)),
        M=int(rng.integers(1, 5)),
        a=0.0 if zero_a else float(rng.uniform(0.1, 0.9)),
        k=float(rng.uniform(0.3, 3.0)),
        beta=beta,
        delta=float(rng.uniform(0.05, 0.95)),
        p=p,
        w=w,
        loyalty_exponent=int(rng.choice([2, 4])),
    )


def batch_sizes(index: int) -> list[int]:
    """The ladder of deck ``index``, offset by a golden-ratio fraction of a
    rung, so that the decks of a run fill in each other's gaps."""
    offset = index * 0.6180339887498949 % 1.0
    return [round(1.1 ** (k + offset)) for k in range(BATCH_RUNGS)]


class CsrBatch(Workload):
    deck_seconds = CSR_DECK_SECONDS

    def __init__(self, seed, mods, root):
        super().__init__(seed, mods, root)
        self.oracle_checks = 0
        self.oracle_agree = 0

    def draw(self, index: int) -> list[tuple]:
        rng = self.rng(0, index)
        items = []
        for shape in COST_SHAPES * COST_REPEATS:
            a = rng.random(shape) * 10.0 ** rng.uniform(-16.0, 0.0, shape)
            c = 10.0 ** rng.uniform(-8.0, 8.0, shape)
            params = dict(
                t1=float(10.0 ** rng.uniform(-3, 3)),
                t2=float(10.0 ** rng.uniform(-3, 3)),
                delta=float(rng.uniform(0.05, 0.95)),
            )
            items.append(("cost", a, c, params))
        scenarios = []
        while len(scenarios) < sum(batch_sizes(index)):
            infeasible, zero_a = rng.permutation(len(REGIMES))[:2]
            for slot, regime in enumerate(REGIMES):
                kind = "p<w" if slot == infeasible else "a=0" if slot == zero_a else regime
                spec = draw_scenario(
                    rng, regime, infeasible=kind == "p<w", zero_a=kind == "a=0"
                )
                scenarios.append((kind, spec))
        start = 0
        for size in batch_sizes(index):
            items.append(("decision", scenarios[start : start + size]))
            start += size
        items.append(("decision", [("overflow", OVERFLOW)]))
        return [items[i] for i in rng.permutation(len(items))]

    def build(self, raw) -> list[Op]:
        ops = []
        for item in raw:
            if item[0] == "cost":
                _, a, c, params = item
                ops.append(self._cost_op(a, c, self.mods.csr_cost.CsrParams(**params)))
            else:
                scenarios = [
                    (kind, self.mods.decision.CsrScenario(**spec)) for kind, spec in item[1]
                ]
                ops.append(self._decision_op(scenarios))
        return ops

    def _cost_op(self, a, c, params) -> Op:
        mods = self.mods
        return Op(
            label=f"total_hcsr{a.shape}",
            call=lambda: mods.csr_cost.total_hcsr(a, c, params),
            check=lambda out: [_outcome("total_hcsr", gates.check_cost, a, c, params, out)],
            names=("total_hcsr",),
            work={"cost_cells": a.size},
        )

    def _decision_op(self, scenarios) -> Op:
        mods = self.mods

        def call():
            decision = mods.decision
            outs = []
            for _, s in scenarios:
                report = decision.optimize_constrained(s)
                oracle = decision.optimize_oracle(s, ORACLE_POINTS)
                closed = decision.stationary_closed_form(s)
                statics = []
                for param in STATICS:
                    try:
                        statics.append(decision.comparative_statics(s, param))
                    except ValueError as exc:
                        statics.append(exc)
                outs.append((report, oracle, closed, statics))
            return outs

        def check(outs):
            results = []
            for (_, s), (report, oracle, closed, statics) in zip(scenarios, outs):
                self.oracle_checks += 1
                self.oracle_agree += (
                    gates.oracle_gap(s, report, oracle, ORACLE_POINTS) is None
                )
                results += [
                    _outcome(
                        "optimize_constrained",
                        gates.check_constrained, s, report, oracle, ORACLE_POINTS,
                    ),
                    _outcome("optimize_oracle", gates.check_oracle, oracle),
                    _outcome("stationary_closed_form", gates.check_closed_form, s, closed),
                    *(
                        _outcome(f"comparative_statics[{p}]", gates.check_statics, s, p, v)
                        for p, v in zip(STATICS, statics)
                    ),
                ]
            return results

        kind = scenarios[0][0] if len(scenarios) == 1 else "batch"
        return Op(
            label=f"decision {kind} x{len(scenarios)}",
            call=call,
            check=check,
            names=BUNDLE * len(scenarios),
            work={"decisions": len(scenarios)},
        )


# -- the command line ----------------------------------------------------------


# Runs each argv in the JSON list argv[1] as ``python -m moebius_csr`` and
# prints the largest peak RSS (KiB) among them.  A child's ru_maxrss starts
# from the resident size of the process that spawned it, so the CLI runs
# are spawned from this small interpreter, not from the benchmark process.
PEAK_RSS_SCRIPT = """
import json, resource, subprocess, sys
for argv in json.loads(sys.argv[1]):
    subprocess.run([sys.executable, "-m", "moebius_csr", *argv],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


# Grid sizes of the spectrum calls added to the README's small one, with
# its hoppings: seeded hoppings would change the Jacobi sweep count, and so
# the rungs, from seed to seed.  Their call times form a ladder, a few
# percent a rung, from the ten calls that are mostly interpreter start-up
# (0.2 to 0.3 s) up to 1.1 s.  So the median (among the low rungs) and the
# tail of a three-deck run (between the 3rd and 4th rung from the top)
# slide a rung with the host's share of slow time instead of jumping (see
# FLUX_DECK).
SPECTRUM_POINTS = (3, 5, 7, 9, 11, 13, 15, 17, 21, 25, 29, 33, 37, 41)
SPECTRUM_STEP = 0.05
# a deck's duration with the host at its slow state; a run is
# round(seconds / CLI_DECK_SECONDS) decks
CLI_DECK_SECONDS = 10.0


def _parse_kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines())


class CliMix(Workload):
    """Every argv of a run is fixed at preparation; each deck runs all of
    them once in a seeded order, so every argv repeats across decks and
    its stdout must repeat byte for byte.  The first output of each argv
    is parsed and compared with the library."""

    min_decks = 2
    deck_seconds = CLI_DECK_SECONDS

    def __init__(self, seed, mods, root):
        super().__init__(seed, mods, root)
        self.in_process = False
        self.first_stdout: dict[tuple, bytes] = {}
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))

    def prepare(self):
        lattice, decision = self.mods.lattice, self.mods.decision
        rng = self.rng(1)
        os.makedirs(self.workdir, exist_ok=True)
        topology = ("moebius", "cylinder")[int(rng.integers(2))]
        big = {"moebius": lattice.build_moebius, "cylinder": lattice.build_cylinder}[
            topology
        ](200, 8)
        self.spectrum_lattice = lattice.build_moebius(2, 2)
        feasible = decision.CsrScenario(
            **draw_scenario(rng, ("below", "above")[int(rng.integers(2))])
        )
        infeasible = decision.CsrScenario(
            **draw_scenario(rng, "above", infeasible=True)
        )
        bad_delta = 1.0 + float(rng.uniform(0.01, 1.0))

        files = {}
        for name, scenario in (("scenario", feasible), ("infeasible", infeasible)):
            files[name] = os.path.join(self.workdir, f"{name}.json")
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(scenario.to_dict(), fh)
        costs = {}
        for shape in ((64, 8), (8, 2)):
            tag = f"{shape[0]}x{shape[1]}"
            for name, matrix in (
                ("a", rng.random(shape) * 10.0 ** rng.uniform(-8.0, 0.0, shape)),
                ("c", 10.0 ** rng.uniform(-4.0, 4.0, shape)),
            ):
                files[name + tag] = os.path.join(self.workdir, f"{name}{tag}.csv")
                np.savetxt(files[name + tag], matrix, delimiter=",", fmt="%.17g")
            costs[tag] = dict(
                t1=float(rng.uniform(0.5, 3.0)),
                t2=float(rng.uniform(0.5, 3.0)),
                delta=float(rng.uniform(0.05, 0.95)),
            )

        grid_args = ["--n", "200", "--m", "8", "--topology", topology]
        scenario = ["--scenario", files["scenario"]]
        # label: (argv, expected exit code, parser checking stdout)
        self.calls = {
            "lattice csv": (
                ["lattice", "--format", "csv", *grid_args],
                0,
                self._equals(lambda: big.to_csv()),
            ),
            "lattice dot": (
                ["lattice", "--format", "dot", *grid_args],
                0,
                self._equals(lambda: big.to_dot()),
            ),
            "spectrum": (
                ["spectrum", "--n", "2", "--m", "2", "--t1", "1", "--t2", "0.5",
                 "--flux-sweep", "0:2:0.5"],
                0,
                lambda out: self._spectrum(out, 1.0, 0.5, 0.5 * np.arange(5)),
            ),
            **{
                f"spectrum x{points}": (
                    ["spectrum", "--n", "2", "--m", "2", "--t1", "1", "--t2", "0.5",
                     "--flux-sweep", f"0:{(points - 1) * SPECTRUM_STEP!r}:{SPECTRUM_STEP!r}"],
                    0,
                    lambda out, points=points: self._spectrum(
                        out, 1.0, 0.5, SPECTRUM_STEP * np.arange(points)
                    ),
                )
                for points in SPECTRUM_POINTS
            },
            **{
                f"cost {tag}": (
                    ["cost", "--contributions", files["a" + tag],
                     "--costs", files["c" + tag],
                     "--t1", repr(p["t1"]), "--t2", repr(p["t2"]),
                     "--delta", repr(p["delta"])],
                    0,
                    lambda out, tag=tag, p=p: self._cost(out, files, tag, p),
                )
                for tag, p in costs.items()
            },
            "optimize oracle": (
                ["optimize", *scenario, "--oracle-points", str(ORACLE_POINTS)],
                0,
                lambda out: self._report(out, feasible, oracle=True),
            ),
            "optimize csv": (
                ["optimize", *scenario, "--csv"],
                0,
                lambda out: self._csv(out, feasible),
            ),
            "statics": (
                ["statics", *scenario, "--param", "M", "--range", "2:50:1"],
                0,
                lambda out: self._statics(out, feasible),
            ),
            "domain error": (
                ["optimize", *scenario, "--delta", repr(bad_delta)],
                2,
                lambda out: None,
            ),
            "infeasible": (
                ["optimize", "--scenario", files["infeasible"]],
                3,
                lambda out: self._report(out, infeasible, oracle=False),
            ),
        }

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of one CLI call, each argv run once more
        outside the timed decks; of the spectrum ladder, only its largest
        grid."""
        largest = f"spectrum x{max(SPECTRUM_POINTS)}"
        argvs = json.dumps(
            [
                argv
                for label, (argv, _, _) in self.calls.items()
                if not label.startswith("spectrum x") or label == largest
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, argvs],
            cwd=self.root,
            env=self.env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return int(proc.stdout.split()[-1]) / 1024.0

    def close(self):
        for name in os.listdir(self.workdir) if os.path.isdir(self.workdir) else ():
            os.unlink(os.path.join(self.workdir, name))
        for path in (self.workdir, os.path.dirname(self.workdir)):
            with contextlib.suppress(OSError):
                os.rmdir(path)

    # -- oracles for the CLI outputs (library calls on the same inputs) --

    @staticmethod
    def _equals(expected):
        def check(out):
            if out != expected():
                raise gates.Wrong("cli", "output differs from the library text")

        return check

    def _spectrum(self, out, t1, t2, grid):
        lines = out.splitlines()
        if lines[0] != "phi,total_energy":
            raise gates.Wrong("cli spectrum", f"header {lines[0]!r}")
        params = self.mods.hamiltonian.HoppingParams(t1=t1, t2=t2)
        ref = self.mods.hamiltonian.flux_sweep(self.spectrum_lattice, params, grid, 4)
        if len(lines) != 1 + len(ref):
            raise gates.Wrong("cli spectrum", f"{len(lines) - 1} rows")
        for line, (phi, energy) in zip(lines[1:], ref):
            got_phi, got_energy = line.split(",")
            gates.close("cli spectrum", got_phi, phi)
            gates.close("cli spectrum", got_energy, energy)

    def _cost(self, out, files, tag, cost):
        a = np.loadtxt(files["a" + tag], delimiter=",", ndmin=2)
        c = np.loadtxt(files["c" + tag], delimiter=",", ndmin=2)
        ref = self.mods.csr_cost.total_hcsr(a, c, self.mods.csr_cost.CsrParams(**cost))
        got = _parse_kv(out)
        terms = ("cost", "neighborhood", "sector", "loyalty", "total")
        if tuple(got) != terms:
            raise gates.Wrong("cli cost", f"keys {tuple(got)}")
        for term in terms:
            gates.close("cli cost", got[term], getattr(ref, term))

    def _report(self, out, s, oracle):
        decision = self.mods.decision
        report = decision.optimize_constrained(s)
        got = _parse_kv(out)
        op = "cli optimize"
        expected_kind = "" if report.stationary_kind is None else report.stationary_kind.value
        if got.get("case") != report.case.value or got.get("kind") != expected_kind:
            raise gates.Wrong(op, f"case/kind {got.get('case')}/{got.get('kind')}")
        if got.get("feasible") != ("true" if report.feasible else "false"):
            raise gates.Wrong(op, f"feasible={got.get('feasible')}")
        gates.close(op, got["c_star_paper"], report.stationary)
        gates.close(op, got["c_opt"], report.constrained_opt)
        gates.close(op, got["H_opt"], report.objective_at_opt)
        if oracle:
            c_ref, h_ref = decision.optimize_oracle(s, ORACLE_POINTS)
            gates.close(op, got["c_oracle"], c_ref)
            gates.close(op, got["H_oracle"], h_ref)

    def _csv(self, out, s):
        report = self.mods.decision.optimize_constrained(s)
        header, row = out.splitlines()
        if header != "case,c_star_paper,kind,c_opt,H_opt,feasible":
            raise gates.Wrong("cli optimize --csv", f"header {header!r}")
        case, stationary, kind, c_opt, h_opt, feasible = row.split(",")
        kind_ref = "" if report.stationary_kind is None else report.stationary_kind.value
        if (case, kind, feasible) != (
            report.case.value,
            kind_ref,
            "true" if report.feasible else "false",
        ):
            raise gates.Wrong("cli optimize --csv", f"row {row!r}")
        gates.close("cli optimize --csv", stationary, report.stationary)
        gates.close("cli optimize --csv", c_opt, report.constrained_opt)
        gates.close("cli optimize --csv", h_opt, report.objective_at_opt)

    def _statics(self, out, s):
        decision = self.mods.decision
        lines = out.splitlines()
        if lines[0] != "param_value,c_star" or len(lines) != 50:
            raise gates.Wrong("cli statics", f"{len(lines)} lines, header {lines[0]!r}")
        for m, line in zip(range(2, 51), lines[1:]):
            value, cell = line.split(",")
            gates.close("cli statics", value, m)
            gates.close(
                "cli statics", cell, decision.stationary_closed_form(replace(s, M=m))
            )

    # -- decks -------------------------------------------------------------

    def draw(self, index: int) -> list[str]:
        labels = list(self.calls)
        return [labels[i] for i in self.rng(0, index).permutation(len(labels))]

    def build(self, raw) -> list[Op]:
        return [self._op(label) for label in raw]

    def _op(self, label: str) -> Op:
        argv, code, parse = self.calls[label]
        name = f"cli {label}"

        def call():
            if self.in_process:
                return self._main(argv)
            proc = subprocess.run(
                [sys.executable, "-m", "moebius_csr", *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr

        def check(out):
            got_code, stdout, stderr = out
            key = (self.in_process, label)
            first = self.first_stdout.get(key)
            try:
                gates.check_cli(name, got_code, stdout, stderr, code, first)
                # a repeat must equal the first output, which was parsed
                if first is None:
                    parse(stdout.decode("utf-8"))
                    self.first_stdout[key] = stdout
            except gates.GateError as err:
                return [(name, err)]
            except (ValueError, KeyError, IndexError) as exc:
                return [(name, gates.Wrong(name, f"unparsable output: {exc!r}"))]
            return [(name, None)]

        return Op(label=name, call=call, check=check, names=(name,), work={"cli_calls": 1})

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods.cli.main(list(argv))
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    def probe(self, code: str, repeats: int) -> list[float]:
        """Wall times of fresh interpreters running ``python -c code``."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=self.root,
                env=self.env,
                check=True,
                capture_output=True,
                timeout=120,
            )
            times.append(time.perf_counter() - start)
        return times


WORKLOADS = {
    "flux_clean": FluxClean,
    "flux_disorder": FluxDisorder,
    "csr_batch": CsrBatch,
    "cli_mix": CliMix,
}
