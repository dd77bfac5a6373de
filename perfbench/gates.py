"""Correctness gates: every op's output is checked against an oracle that
does not share the code path it checks.

A gate returns nothing when the output passes and raises :class:`Failed`
(the op raised, or returned a non-finite number) or :class:`Wrong` (the op
returned a finite answer that disagrees with its oracle, or a CLI call
exited with the wrong code or printed different bytes).  Gates run outside
the timed region.

Tolerances:

* flux points: ``|E - E_ref| <= 1e-9 * (1 + sum |lambda_i|)`` over the
  filled levels, with ``E_ref`` from ``numpy.linalg.eigvalsh`` (LAPACK);
* ``total_hcsr``: every addend and the total equal a naive row-major
  loop bit for bit;
* decisions: ``|H_opt - H_oracle| <= 1e-10 * max(1, |H_oracle|)`` and
  ``|c_opt - c_oracle| <= max(1e-8, budget / (points - 1))``, the
  tolerances of the package's own acceptance test at the oracle's grid
  spacing;
* stationary points: ``H'`` at the returned root, written out here, is
  zero within ``1e-11`` of the size of its terms; comparative statics equal
  differences of a root solved here, within ``1e-11`` of the differenced
  values' size;
* CLI numbers: relative ``1e-11`` against the library, the rounding of
  the CLI's 12 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

CLOSED_FORM_RTOL = 1e-11
STATICS_STEP = 1e-2


class GateError(Exception):
    def __init__(self, op: str, reason: str):
        super().__init__(f"{op}: {reason}")
        self.op = op
        self.reason = reason


class Failed(GateError):
    """The op raised unexpectedly or returned a non-finite number."""


class Wrong(GateError):
    """The op returned a finite answer that disagrees with its oracle."""


def finite(op: str, *values) -> None:
    for value in values:
        if not np.all(np.isfinite(value)):
            raise Failed(op, f"non-finite output {value!r}")


# -- flux sweeps --------------------------------------------------------


def check_flux(hamiltonian, lattice, params, grid, n_electrons, out) -> None:
    op = "flux_sweep"
    out = np.asarray(out)
    if out.shape != (len(grid), 2):
        raise Wrong(op, f"shape {out.shape}, expected {(len(grid), 2)}")
    finite(op, out)
    if not np.array_equal(out[:, 0], grid):
        raise Wrong(op, "phi column differs from the input grid")
    for phi, energy in zip(grid, out[:, 1]):
        h = hamiltonian.assemble(lattice, replace(params, phi=float(phi)))
        filled = np.linalg.eigvalsh(h)[:n_electrons]
        ref = float(filled.sum())
        tol = 1e-9 * (1.0 + float(np.abs(filled).sum()))
        if abs(energy - ref) > tol:
            raise Wrong(op, f"phi={phi!r}: E={energy!r}, LAPACK {ref!r}")


# -- cost functional ------------------------------------------------------


def naive_terms(a, c, t1: float, t2: float, delta: float) -> dict[str, float]:
    """The four addends and the total by plain row-major Python loops."""
    a = a.tolist()
    rows, cols = len(a), len(a[0])
    outlay = 0.0
    for row in c.tolist():
        for x in row:
            outlay += x
    ring = 0.0
    for i in range(rows):
        here, there = a[i], a[(i + 1) % rows]
        for j in range(cols):
            ring += here[j] * there[j]
    rung = 0.0
    for row in a:
        for j in range(cols - 1):
            rung += row[j] * row[j + 1]
    anti = 0.0
    for i in range(rows):
        anti += a[i][cols - 1] * a[(i + rows // 2) % rows][cols - 1]
    cost = -outlay
    neighborhood = t1 * (1.0 - delta) * ring
    sector = t2 * rung
    loyalty = (t2 / 2.0) * anti
    total = ((cost + neighborhood) + sector) + loyalty
    return {
        "cost": cost,
        "neighborhood": neighborhood,
        "sector": sector,
        "loyalty": loyalty,
        "total": total,
    }


def check_cost(a, c, params, breakdown) -> None:
    op = "total_hcsr"
    expected = naive_terms(a, c, params.t1, params.t2, params.delta)
    for term, ref in expected.items():
        got = float(getattr(breakdown, term))
        finite(op, got)
        if got.hex() != ref.hex():
            raise Wrong(op, f"{term}={got.hex()}, naive loop {ref.hex()}")


# -- decisions ------------------------------------------------------------


def oracle_gap(scenario, report, oracle, points: int) -> str | None:
    """Why ``optimize_constrained`` disagrees with the grid oracle, or None."""
    c_ref, h_ref = oracle
    budget = max(0.0, scenario.p - scenario.w)
    if not abs(report.objective_at_opt - h_ref) <= 1e-10 * max(1.0, abs(h_ref)):
        return f"H={report.objective_at_opt!r}, oracle {h_ref!r}"
    if not abs(report.constrained_opt - c_ref) <= max(1e-8, budget / (points - 1)):
        return f"c={report.constrained_opt!r}, oracle {c_ref!r}"
    return None


def check_constrained(scenario, report, oracle, points: int) -> None:
    op = "optimize_constrained"
    finite(op, report.constrained_opt, report.objective_at_opt)
    gap = oracle_gap(scenario, report, oracle, points)
    if gap is not None:
        raise Wrong(op, gap)
    if report.stationary is not None:
        finite(op, report.stationary)


def check_oracle(oracle) -> None:
    finite("optimize_oracle", *oracle)


def _bracket(s, M, delta) -> float:
    return 2.0 * M * (2.0 - delta) - 2.0 + s.a ** (s.loyalty_exponent - 2)


def stationary_reference(s, M=None, beta=None, delta=None) -> float:
    """The stationary point solved from ``H'(c) = 0`` in plain floats,
    ``c = (2 M a / (beta k a**(2 + beta) B)) ** (1 / (beta - 1))``, with
    M, beta or delta optionally replaced.  ``inf`` where it leaves float
    range."""
    M = s.M if M is None else M
    beta = s.beta if beta is None else beta
    delta = s.delta if delta is None else delta
    try:
        base = 2.0 * M * s.a / (beta * s.k * s.a ** (2.0 + beta) * _bracket(s, M, delta))
        return base ** (1.0 / (beta - 1.0))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def check_closed_form(scenario, value) -> None:
    """The root must make ``H'(c) = -2NMa + beta k N a**(2+beta) B c**(beta-1)``
    vanish, relative to the size of its two terms."""
    op = "stationary_closed_form"
    s = scenario
    if s.beta == 1.0 or s.a == 0.0:
        if value is not None:
            raise Wrong(op, f"expected None, got {value!r}")
        return
    if value is None:
        raise Wrong(op, "expected a stationary point, got None")
    finite(op, value)
    if value <= 0.0:
        raise Wrong(op, f"non-positive root {value!r}")
    outlay = 2.0 * s.N * s.M * s.a
    gain = (
        s.beta * s.k * s.N * s.a ** (2.0 + s.beta)
        * _bracket(s, s.M, s.delta) * value ** (s.beta - 1.0)
    )
    if not abs(gain - outlay) <= CLOSED_FORM_RTOL * outlay:
        raise Wrong(op, f"H'({value!r}) = {gain - outlay!r}, not 0")


def check_statics(scenario, param: str, outcome) -> None:
    """``outcome`` is the returned float or the ValueError raised.  The
    reference differences :func:`stationary_reference`: forward in M, and
    central with the package's default step for delta and beta (the drawn
    scenarios stay far enough from the domain edges that it is never
    halved)."""
    op = f"comparative_statics[{param}]"
    s = scenario
    no_point = s.beta == 1.0 or s.a == 0.0
    if isinstance(outcome, ValueError):
        if not no_point:
            raise Failed(op, f"unexpected domain error: {outcome}")
        return
    if no_point:
        raise Wrong(op, f"expected a domain error, got {outcome!r}")
    finite(op, outcome)
    if param == "M":
        lo, hi, width = stationary_reference(s), stationary_reference(s, M=s.M + 1), 1.0
    else:
        center = getattr(s, param)
        lo = stationary_reference(s, **{param: center - STATICS_STEP})
        hi = stationary_reference(s, **{param: center + STATICS_STEP})
        width = 2.0 * STATICS_STEP
    ref = (hi - lo) / width
    if not abs(outcome - ref) <= CLOSED_FORM_RTOL * (abs(hi) + abs(lo)) / width:
        raise Wrong(op, f"{outcome!r}, reference {ref!r}")


# -- CLI --------------------------------------------------------------------


def close(op: str, text: str, value) -> None:
    """A CLI number (12 significant digits) against the library value."""
    if value is None:
        if text != "":
            raise Wrong(op, f"expected an empty cell, got {text!r}")
        return
    finite(op, value)
    parsed = float(text)
    if not math.isfinite(parsed) or not math.isclose(
        parsed, float(value), rel_tol=1e-11, abs_tol=0.0
    ):
        raise Wrong(op, f"printed {text!r}, library {float(value)!r}")


def check_cli(op: str, code: int, stdout: bytes, stderr: bytes, expected_code: int,
              first_stdout: bytes | None) -> None:
    """Exit code, and stdout identical to the first run of the same argv.
    The workload then parses stdout and compares it with the library."""
    if code != expected_code:
        raise Wrong(op, f"exit {code}, expected {expected_code}: {stderr[-200:]!r}")
    if first_stdout is not None and stdout != first_stdout:
        raise Wrong(op, "stdout differs from an earlier run of the same argv")
    if expected_code == 2 and (stdout or not stderr.startswith(b"error:")):
        raise Wrong(op, "a domain error must print only an error: line on stderr")
