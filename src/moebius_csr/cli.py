"""Command-line front end.

Subcommands: ``lattice`` (edge list as CSV or DOT), ``spectrum`` (ground
state energy along a flux grid), ``cost`` (cost-functional breakdown for
explicit matrices), ``optimize`` (constrained decision report for a
scenario file), and ``statics`` (stationary point along a parameter
sweep).  Each subcommand returns its report text and exit code, and
``main`` writes every report, to ``--out`` or stdout.  Numbers are
printed with 12 significant digits and files are written atomically
(temp file in the target directory, then rename), so identical inputs
produce byte-identical outputs.  Each subcommand imports the package
modules it runs when it runs (and ``json``, if it reads or writes a
scenario), so a call loads no module it does not use.  ``moebius-csr``,
``python -m moebius_csr`` and this module run as a script all start the
process through :func:`run`.

Exit codes: 0 success, 1 file I/O failure, 2 invalid arguments or domain
error, 3 infeasible scenario (the margin constraint fails, i.e. p < w
with a nonzero contribution level).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np

from .lattice import LOYALTY_EXPONENTS, SCENARIO_KEYS, MoebiusLattice, Topology

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_INFEASIBLE = 3
# The most points a grid flag, or sites a strip, may ask for, checked before
# anything is built: far above every grid and strip in use, far below one
# that would exhaust memory.
MAX_POINTS = 10**6


def _fmt(x) -> str:
    """12 significant digits; None (no value) is an empty cell."""
    return "" if x is None else "%.12g" % float(x)


def _write_text(path: str | None, text: str) -> None:
    """Write to ``path`` atomically, or to stdout when path is None/'-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".", dir=os.path.dirname(target)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None


def _parse_sweep(text: str, flag: str) -> np.ndarray:
    """Inclusive float grid from a START:STOP:STEP string."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{flag} must be numeric START:STOP:STEP, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"{flag} values must be finite")
    if step <= 0.0:
        raise ValueError(f"{flag} step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"{flag} stop must be >= start")
    count = (stop - start) / step + 1e-9  # points after the first; inf past float range
    if not count < MAX_POINTS:
        raise ValueError(f"{flag} asks for {count + 1:.12g} points (limit {MAX_POINTS})")
    return start + step * np.arange(math.floor(count) + 1)


def _load_scenario(args):
    import json
    from . import decision
    with open(args.scenario, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("scenario file must hold a JSON object")
    scenario = decision.CsrScenario.from_dict(data)
    overrides = {
        name: getattr(args, name)
        for _, name, _ in SCENARIO_KEYS
        if getattr(args, name, None) is not None
    }
    return replace(scenario, **overrides) if overrides else scenario


def _strip(args) -> MoebiusLattice:
    sites = 2 * args.n * args.m
    if args.n > 0 and args.m > 0 and sites > MAX_POINTS:  # sizes below 1 are the lattice's to name
        raise ValueError(f"--n and --m ask for {sites} sites (limit {MAX_POINTS})")
    return MoebiusLattice(args.n, args.m, args.topology)  # lists no edge yet


def _cmd_lattice(args) -> tuple[str, int]:
    lat = _strip(args)
    return (lat.to_dot() if args.format == "dot" else lat.to_csv()), EXIT_OK


def _cmd_spectrum(args) -> tuple[str, int]:
    from . import hamiltonian
    lat = _strip(args)
    electrons = args.electrons if args.electrons is not None else lat.N * lat.M
    if args.flux_sweep is not None:
        grid = _parse_sweep(args.flux_sweep, "--flux-sweep")
    else:
        grid = np.linspace(0.0, float(lat.N), 41)  # one flux period
    params = hamiltonian.HoppingParams(t1=args.t1, t2=args.t2)
    sweep = hamiltonian.flux_sweep(lat, params, grid, electrons)
    lines = ["phi,total_energy"]
    lines += [f"{_fmt(phi)},{_fmt(energy)}" for phi, energy in sweep]
    return "\n".join(lines) + "\n", EXIT_OK


def _load_matrix(path: str) -> np.ndarray:
    # opened here, not by NumPy, so a missing file reads as in every subcommand;
    # total_hcsr names a matrix with no rows
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)


def _cmd_cost(args) -> tuple[str, int]:
    from . import csr_cost
    a = _load_matrix(args.contributions)
    c = _load_matrix(args.costs)
    params = csr_cost.CsrParams(t1=args.t1, t2=args.t2, delta=args.delta)
    breakdown = csr_cost.total_hcsr(a, c, params)
    lines = [
        f"{term}={_fmt(getattr(breakdown, term))}"
        for term in ("cost", "neighborhood", "sector", "loyalty", "total")
    ]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_optimize(args) -> tuple[str, int]:
    from . import decision
    if args.oracle_points is not None and args.oracle_points > MAX_POINTS:
        raise ValueError(
            f"--oracle-points asks for {args.oracle_points} points (limit {MAX_POINTS})")
    scenario = _load_scenario(args)
    if args.dump_config is not None:
        import json
        dump = json.dumps(scenario.to_dict(), sort_keys=True, indent=2) + "\n"
        _write_text(args.dump_config, dump)
    report = decision.optimize_constrained(scenario)
    kind = report.stationary_kind
    pairs = [
        ("case", report.case.value),
        ("c_star_paper", _fmt(report.stationary)),
        ("kind", "" if kind is None else kind.value),
        ("c_opt", _fmt(report.constrained_opt)),
        ("H_opt", _fmt(report.objective_at_opt)),
        ("feasible", "true" if report.feasible else "false"),
    ]
    if args.oracle_points is not None:
        c_ref, h_ref = decision.optimize_oracle(scenario, args.oracle_points)
        pairs += [("c_oracle", _fmt(c_ref)), ("H_oracle", _fmt(h_ref))]
    if args.csv:
        keys, values = zip(*pairs)
        text = ",".join(keys) + "\n" + ",".join(values) + "\n"
    else:
        text = "".join(f"{key}={value}\n" for key, value in pairs)
    return text, EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_statics(args) -> tuple[str, int]:
    from . import decision
    scenario = _load_scenario(args)
    grid = _parse_sweep(args.range, "--range")
    roots = decision.stationary_sweep(scenario, args.param, grid)
    lines = ["param_value,c_star"]
    lines += [f"{_fmt(value)},{_fmt(root)}" for value, root in zip(grid.tolist(), roots)]
    return "\n".join(lines) + "\n", EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebius-csr",
        description="Twisted-strip lattice spectra and CSR decision analysis.",
        epilog="Exit codes: 0 ok, 1 I/O failure, 2 domain error, 3 infeasible scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    def add_grid_args(p):
        p.add_argument("--n", type=int, required=True, help="half the ring length N")
        p.add_argument("--m", type=int, required=True, help="number of wires M")
        p.add_argument(
            "--topology",
            choices=[t.value for t in Topology],
            default=Topology.MOEBIUS.value,
        )

    p_lat = sub.add_parser("lattice", help="emit the edge list")
    add_grid_args(p_lat)
    p_lat.add_argument("--format", choices=["csv", "dot"], default="csv")
    add_out(p_lat)
    p_lat.set_defaults(func=_cmd_lattice)

    p_spectrum = sub.add_parser("spectrum", help="ground-state energy along a flux grid")
    add_grid_args(p_spectrum)
    p_spectrum.add_argument("--t1", type=float, default=1.0, help="longitudinal hopping")
    p_spectrum.add_argument("--t2", type=float, default=1.0, help="transverse hopping")
    p_spectrum.add_argument(
        "--electrons",
        type=int,
        default=None,
        help="filled levels (default: half filling, N*M)",
    )
    p_spectrum.add_argument(
        "--flux-sweep",
        default=None,
        metavar="START:STOP:STEP",
        help="inclusive flux grid (default: one period, 0..N in 40 steps)",
    )
    add_out(p_spectrum)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_cost = sub.add_parser("cost", help="cost-functional breakdown for matrices")
    p_cost.add_argument(
        "--contributions", required=True, help="CSV matrix of levels in [0,1)"
    )
    p_cost.add_argument("--costs", required=True, help="CSV matrix of outlays >= 0")
    p_cost.add_argument("--t1", type=float, required=True)
    p_cost.add_argument("--t2", type=float, required=True)
    p_cost.add_argument("--delta", type=float, required=True)
    add_out(p_cost)
    p_cost.set_defaults(func=_cmd_cost)

    p_opt = sub.add_parser("optimize", help="constrained decision for a scenario")
    p_opt.add_argument("--scenario", required=True, help="scenario JSON file")
    p_opt.add_argument(
        "--oracle-points",
        type=int,
        default=None,
        metavar="K",
        help="also run the K-point grid oracle and report its optimum",
    )
    p_opt.add_argument(
        "--csv",
        action="store_true",
        help="emit a CSV row instead of the key=value report",
    )
    p_opt.add_argument(
        "--dump-config",
        default=None,
        metavar="FILE",
        help="write the effective scenario JSON (after overrides) to FILE",
    )
    for key, name, kind in SCENARIO_KEYS:
        p_opt.add_argument(
            "--" + name.replace("_", "-"),
            type=kind,
            choices=LOYALTY_EXPONENTS if key == "lambda" else None,
            default=None,
            help=f"override scenario {key}",
        )
    add_out(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_stat = sub.add_parser("statics", help="stationary point along a parameter sweep")
    p_stat.add_argument("--scenario", required=True, help="scenario JSON file")
    p_stat.add_argument("--param", choices=["delta", "beta", "M"], required=True)
    p_stat.add_argument(
        "--range",
        required=True,
        metavar="START:STOP:STEP",
        help="inclusive parameter grid",
    )
    add_out(p_stat)
    p_stat.set_defaults(func=_cmd_statics)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, write its report and return the exit code
    (a ValueError gives 2, an OSError 1; argparse exits 2 on bad flags)."""
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        _write_text(args.out, text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def run() -> None:
    """The process entry: exit with :func:`main`'s code (or argparse's own
    exit), first freezing every object still alive (``gc.freeze``) so that
    the interpreter's collections at exit skip them; most are NumPy's.  A
    process that goes on calls :func:`main`: a frozen object is never
    collected."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
