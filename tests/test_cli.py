import errno
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import OPTIMIZE_S0_REPORT, S0_DATA
from moebius_csr import cli, decision
from moebius_csr.lattice import build_cylinder, build_moebius

OPTIMIZE_S1_CSV = (
    "case,c_star_paper,kind,c_opt,H_opt,feasible\n"
    "BetaBelowOne,0.26736328125,LocalMax,0.26736328125,5.347265625,true\n"
)

STATICS_BETA_CSV = (
    "param_value,c_star\n"
    "0.5,0.26736328125\n"
    "1,\n"
    "1.5,1.66232416945\n"
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- optimize ---------------------------------------------------------


def test_optimize_csv_golden(capsys, scenario_file):
    argv = ["optimize", "--scenario", scenario_file, "--beta", "0.5", "--csv"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == OPTIMIZE_S1_CSV


def test_optimize_oracle_lines(capsys, scenario_file):
    argv = [
        "optimize", "--scenario", scenario_file,
        "--beta", "0.5", "--oracle-points", "2001",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    scenario = replace(decision.CsrScenario.from_dict(S0_DATA), beta=0.5)
    c_ref, h_ref = decision.optimize_oracle(scenario, 2001)
    lines = out.splitlines()
    assert lines[-2] == "c_oracle=" + ("%.12g" % c_ref)
    assert lines[-1] == "H_oracle=" + ("%.12g" % h_ref)
    assert lines[-1] == "H_oracle=5.347265625"


def test_optimize_csv_oracle_columns(capsys, scenario_file):
    argv = [
        "optimize", "--scenario", scenario_file,
        "--beta", "0.5", "--oracle-points", "2001", "--csv",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    scenario = replace(decision.CsrScenario.from_dict(S0_DATA), beta=0.5)
    c_ref, h_ref = decision.optimize_oracle(scenario, 2001)
    header, row = out.splitlines()
    assert header == OPTIMIZE_S1_CSV.splitlines()[0] + ",c_oracle,H_oracle"
    assert row == OPTIMIZE_S1_CSV.splitlines()[1] + ",%.12g,%.12g" % (c_ref, h_ref)


def test_optimize_infeasible_exit_code(capsys, scenario_file, tmp_path):
    out_file = tmp_path / "report.txt"
    argv = [
        "optimize", "--scenario", scenario_file,
        "--p", "1", "--w", "3", "--out", str(out_file),
    ]
    code, _, _ = run_cli(capsys, argv)
    assert code == 3
    assert "feasible=false" in out_file.read_text(encoding="utf-8")


def test_optimize_underflowed_margin_is_infeasible(capsys, tmp_path):
    # N*M*a*(p - w) underflows to -0.0 here, yet p < w with a != 0
    path = tmp_path / "tiny.json"
    data = {"N": 1, "M": 1, "a": 1e-300, "k": 1.0, "beta": 2.0, "delta": 0.5,
            "p": 0.0, "w": 1e-30}
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["optimize", "--scenario", str(path)])
    assert code == 3
    assert out.endswith("feasible=false\n")


def test_optimize_h_past_float_range_is_domain_error(capsys, tmp_path):
    # H(3) holds (3*0.5)**1e300, so the winning objective is inf
    path = tmp_path / "overflow.json"
    data = {"N": 1, "M": 1, "a": 0.5, "k": 1e10, "beta": 1e300, "delta": 0.5,
            "p": 3.0, "w": 0.0}
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: H past float range at outlay c=3.0 (H=inf)\n"


def test_optimize_nan_h_is_domain_error(capsys, tmp_path):
    # both terms of H(1e10) overflow, so H = inf - inf = nan
    path = tmp_path / "nan.json"
    data = {"N": 10**153, "M": 10**153, "a": 0.5, "k": 1.0, "beta": 2.0,
            "delta": 0.5, "p": 1e10, "w": 0.0}
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: H past float range at outlay c=10000000000.0 (H=nan)\n"


def test_optimize_nan_h_far_below_zero_loses(capsys, tmp_path):
    # beta < 1: the true H(1e10) is about -1e316, so the interior maximum wins
    path = tmp_path / "nan_low.json"
    data = {"N": 10**153, "M": 10**153, "a": 0.5, "k": 1.0, "beta": 0.5,
            "delta": 0.5, "p": 1e10, "w": 0.0}
    path.write_text(json.dumps(data), encoding="utf-8")
    args = ["optimize", "--scenario", str(path), "--oracle-points", "2001"]
    code, out, err = run_cli(capsys, args)
    assert (code, err) == (0, "")
    assert "\nc_opt=0.0703125\nH_opt=7.03125e+304\n" in out
    assert "\nc_oracle=0.0703125" in out
    assert out.endswith("\nH_oracle=7.03125e+304\n")


def test_optimize_loyalty_exponent_changes_report(capsys, scenario_file):
    base = run_cli(capsys, ["optimize", "--scenario", scenario_file, "--csv"])[1]
    flat = run_cli(
        capsys,
        ["optimize", "--scenario", scenario_file, "--loyalty-exponent", "2", "--csv"],
    )[1]
    assert base != flat


def test_optimize_dump_config_round_trip(capsys, scenario_file, tmp_path):
    cfg = tmp_path / "effective.json"
    argv = [
        "optimize", "--scenario", scenario_file,
        "--beta", "0.5", "--loyalty-exponent", "2",
        "--dump-config", str(cfg), "--out", str(tmp_path / "r.txt"),
    ]
    assert run_cli(capsys, argv)[0] == 0
    data = json.loads(cfg.read_text(encoding="utf-8"))
    loaded = decision.CsrScenario.from_dict(data)
    want = replace(
        decision.CsrScenario.from_dict(S0_DATA), beta=0.5, loyalty_exponent=2
    )
    assert loaded == want
    assert data["lambda"] == 2
    assert list(data) == sorted(data)


# --- statics ----------------------------------------------------------


def test_statics_beta_blank_at_knife_edge(capsys, scenario_file):
    argv = [
        "statics", "--scenario", scenario_file,
        "--param", "beta", "--range", "0.5:1.5:0.5",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == STATICS_BETA_CSV


def test_statics_delta_matches_library(capsys, scenario_file):
    argv = [
        "statics", "--scenario", scenario_file,
        "--param", "delta", "--range", "0.1:0.3:0.1",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    scenario = decision.CsrScenario.from_dict(S0_DATA)
    rows = out.splitlines()[1:]
    grid = [0.1 + 0.1 * i for i in range(3)]
    assert len(rows) == 3
    for row, value in zip(rows, grid):
        c_star = decision.stationary_closed_form(replace(scenario, delta=value))
        assert row == "%.12g,%.12g" % (value, c_star)
    # a sweep that leaves the domain midway prints no row, only the error the
    # scenario itself raises at that point
    with pytest.raises(ValueError) as exc:
        replace(scenario, delta=1.0)
    argv[-1] = "0.5:1.5:0.25"
    assert run_cli(capsys, argv) == (2, "", f"error: {exc.value}\n")


def test_statics_rejects_fractional_m(capsys, scenario_file):
    argv = ["statics", "--scenario", scenario_file, "--param", "M", "--range", "2:3:0.5"]
    want = "error: M sweep values must be integers, got 2.5\n"
    assert run_cli(capsys, argv) == (2, "", want)


@pytest.mark.parametrize("bad", ["0:1", "1:0:0.5", "0:1:0", "a:b:c", "0:1:-0.1"])
def test_statics_rejects_bad_range(capsys, scenario_file, bad):
    argv = ["statics", "--scenario", scenario_file, "--param", "beta", "--range", bad]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["statics", "--param", "beta", "--range", "0:1e300:1e-300"],
     "--range asks for inf points (limit 1000000)"),
    (["statics", "--param", "beta", "--range", "0:1:1e-15"],
     "--range asks for 1e+15 points (limit 1000000)"),
    (["spectrum", "--n", "2", "--m", "2", "--flux-sweep", "0:1:1e-15"],
     "--flux-sweep asks for 1e+15 points (limit 1000000)"),
    (["optimize", "--oracle-points", str(10**12)],
     "--oracle-points asks for 1000000000000 points (limit 1000000)"),
    # a strip of 2*N*M sites: the bound is checked before any edge or level
    (["lattice", "--n", str(10**12), "--m", "1"],
     "--n and --m ask for 2000000000000 sites (limit 1000000)"),
    (["lattice", "--n", "500001", "--m", "1", "--format", "dot"],
     "--n and --m ask for 1000002 sites (limit 1000000)"),
    (["spectrum", "--n", str(10**12), "--m", str(10**12)],
     "--n and --m ask for 2000000000000000000000000 sites (limit 1000000)"),
    (["spectrum", "--n", "1", "--m", "500001", "--topology", "cylinder"],
     "--n and --m ask for 1000002 sites (limit 1000000)"),
])
def test_grid_past_the_point_limit_is_refused_before_allocation(
    capsys, scenario_file, argv, message
):
    if argv[0] not in ("spectrum", "lattice"):
        argv = [argv[0], "--scenario", scenario_file, *argv[1:]]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parse_sweep_point_limit():
    assert cli.MAX_POINTS == 10**6
    grid = cli._parse_sweep("0:999999:1", "--range")
    assert len(grid) == cli.MAX_POINTS and grid[-1] == 999999.0
    with pytest.raises(ValueError, match=r"^--range asks for 1000001 points \(limit 1000000\)$"):
        cli._parse_sweep("0:1000000:1", "--range")


# --- spectrum ---------------------------------------------------------


def test_spectrum_default_grid_and_filling(capsys, tmp_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    base = ["spectrum", "--n", "3", "--m", "2", "--t1", "1", "--t2", "0.4"]
    assert run_cli(capsys, base + ["--out", str(first)])[0] == 0
    assert run_cli(capsys, base + ["--electrons", "6", "--out", str(second)])[0] == 0
    # default filling is one electron per rung pair (N*M)
    assert first.read_bytes() == second.read_bytes()
    rows = np.loadtxt(first, delimiter=",", skiprows=1)
    assert rows.shape == (41, 2)
    assert rows[0, 0] == 0.0
    assert rows[-1, 0] == 3.0
    assert rows[0, 1] == pytest.approx(rows[-1, 1], abs=1e-9)  # full flux period


def test_spectrum_rejects_overfilling(capsys):
    argv = ["spectrum", "--n", "2", "--m", "1", "--electrons", "99"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


# --- cost -------------------------------------------------------------


def test_cost_rejects_bad_matrix(capsys, cost_files, tmp_path):
    a, c = cost_files
    # an empty file, or one of comments only, also printed NumPy's UserWarning
    no_rows = "error: contribution matrix needs an even row count >= 2, got 0\n"
    for text, want in (
        ("1.5,0.2\n0.1,0.3\n", "error: contribution entries must lie in [0, 1)\n"),
        ("", no_rows),
        ("# no data\n", no_rows),
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        argv = [
            "cost", "--contributions", str(bad), "--costs", c,
            "--t1", "1", "--t2", "1", "--delta", "0.5",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, argv) == (2, "", want)


def test_cost_past_float_range_exits_2(capsys, cost_files, tmp_path):
    a, _ = cost_files
    big = tmp_path / "big.csv"
    big.write_text("\n".join(["1e308,1e308"] * 4) + "\n", encoding="utf-8")
    argv = [
        "cost", "--contributions", a, "--costs", str(big),
        "--t1", "1", "--t2", "1", "--delta", "0.5",
    ]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: cost past float range (-inf)\n")


def test_spectrum_flux_past_float_range_exits_2(capsys):
    argv = ["spectrum", "--n", "2", "--m", "2", "--t1", "1", "--t2", "0.5",
            "--flux-sweep", "1e308:1e308:1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    message = "error: flux phi=1e+308 must be finite, with 2*pi*phi in float range\n"
    assert (code, out, err) == (2, "", message)


# --- lattice ----------------------------------------------------------


def test_lattice_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["lattice", "--n", "3", "--m", "2"])
    assert code == 0
    assert out == build_moebius(3, 2).to_csv()
    assert "twist" in out


def test_lattice_cylinder_has_no_twist(capsys):
    argv = ["lattice", "--n", "3", "--m", "2", "--topology", "cylinder"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == build_cylinder(3, 2).to_csv()
    assert "twist" not in out


def test_lattice_dot_output(capsys):
    argv = ["lattice", "--n", "1", "--m", "1", "--format", "dot"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == build_moebius(1, 1).to_dot()
    assert out.startswith("graph moebius_N1_M1 {")


def test_lattice_rejects_bad_size(capsys):
    code, _, err = run_cli(capsys, ["lattice", "--n", "0", "--m", "1"])
    assert code == 2
    assert err.startswith("error:")


# --- shared CLI behavior ------------------------------------------------


def test_missing_scenario_file_is_io_error(capsys, scenario_file, cost_files, tmp_path):
    # every input file, the cost matrices too, is named as Python's open names it
    missing = str(tmp_path / "nope")
    want = f"io error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {missing!r}\n"
    a, c = cost_files
    terms = ["--t1", "1", "--t2", "1", "--delta", "0.5"]
    for argv in (
        ["optimize", "--scenario", missing],
        ["statics", "--scenario", missing, "--param", "M", "--range", "2:5:1"],
        ["cost", "--contributions", missing, "--costs", c, *terms],
        ["cost", "--contributions", a, "--costs", missing, *terms],
    ):
        assert run_cli(capsys, argv) == (1, "", want)


def test_unwritable_output_is_io_error(capsys, scenario_file, tmp_path):
    # the line names the file asked for, and no temporary file is left
    (tmp_path / "a_dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    for number, target in ((errno.ENOENT, tmp_path / "missing_dir" / "x.txt"),
                           (errno.EISDIR, tmp_path / "a_dir")):
        want = f"io error: [Errno {number}] {os.strerror(number)}: {str(target)!r}\n"
        for flag in ("--out", "--dump-config"):
            argv = ["optimize", "--scenario", scenario_file, flag, str(target)]
            assert run_cli(capsys, argv) == (1, "", want)
            assert sorted(tmp_path.rglob("*")) == before


def test_unknown_scenario_key_is_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**S0_DATA, "oops": 1}), encoding="utf-8")
    code, _, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
    assert code == 2
    assert err.startswith("error: unknown scenario keys: oops")


def test_non_integral_size_is_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for text in ("Infinity", "2.5"):
        path.write_text(
            json.dumps(S0_DATA).replace('"N": 10', '"N": ' + text), encoding="utf-8"
        )
        code, out, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: N must be an integer, got {float(text)}\n"


def test_size_past_float_range_is_domain_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    for n, m in (("9" * 310, "2"), ("1e300", "1e10")):
        text = json.dumps(S0_DATA).replace('"N": 10', '"N": ' + n)
        path.write_text(text.replace('"M": 2', '"M": ' + m), encoding="utf-8")
        code, out, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: N and M too large: 4*N*M must be a finite float\n"


def test_integral_float_size_loads_as_int(capsys, tmp_path):
    dumps = []
    for text in ("10", "10.0"):
        path = tmp_path / f"s{text}.json"
        path.write_text(
            json.dumps(S0_DATA).replace('"N": 10', '"N": ' + text), encoding="utf-8"
        )
        cfg = tmp_path / f"effective{text}.json"
        argv = ["optimize", "--scenario", str(path), "--dump-config", str(cfg)]
        code, out, _ = run_cli(capsys, argv)
        assert (code, out) == (0, OPTIMIZE_S0_REPORT)
        dumps.append(cfg.read_bytes())
    assert dumps[0] == dumps[1]
    assert b'"N": 10,' in dumps[0]


def test_non_object_scenario_is_domain_error(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_is_domain_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_argparse_rejections_exit_2(scenario_file):
    for argv in (
        ["optimize", "--scenario", scenario_file, "--loyalty-exponent", "3"],
        ["statics", "--scenario", scenario_file, "--param", "alpha", "--range", "0:1:1"],
        ["lattice", "--n", "2", "--m", "1", "--nope"],
        [],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2


# Imports the package, runs cli.main on argv[1:] and prints, as JSON, the
# package modules loaded after the bare import and after the call, whether
# the call loaded json, and then the names of the submodules the package
# resolves as its attributes.
IMPORT_PROBE = """
import contextlib, io, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("moebius_csr."))
import moebius_csr
bare = loaded()
from moebius_csr import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
after = loaded()
has_json = "json" in sys.modules  # read before this script loads it
names = [getattr(moebius_csr, m).__name__ for m in ("decision", "hamiltonian")]
import json
print(json.dumps([bare, after, has_json, code, names]))
"""


# The package modules each subcommand loads besides the package and its cli.
SUBCOMMAND_MODULES = {
    "lattice": {"lattice"},
    "spectrum": {"lattice", "hamiltonian", "_kernels"},
    "cost": {"csr_cost", "_kernels", "lattice"},
    "optimize": {"decision", "lattice"},
    "statics": {"decision", "lattice"},
}


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_each_subcommand_loads_only_its_modules(scenario_file, cost_files, command):
    a, c = cost_files
    argv = {
        "lattice": ["--n", "2", "--m", "1"],
        "spectrum": ["--n", "2", "--m", "1"],
        "cost": ["--contributions", a, "--costs", c, "--t1", "1", "--t2", "1",
                 "--delta", "0.5"],
        "optimize": ["--scenario", scenario_file],
        "statics": ["--scenario", scenario_file, "--param", "M", "--range", "2:5:1"],
    }[command]
    # a fresh interpreter: this one has loaded every module
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, command, *argv],
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    bare, loaded, has_json, code, names = json.loads(result.stdout)
    assert (bare, code, names) == ([], 0, ["moebius_csr.decision", "moebius_csr.hamiltonian"])
    assert set(loaded) == {f"moebius_csr.{m}" for m in {"cli", *SUBCOMMAND_MODULES[command]}}
    assert has_json == (command in ("optimize", "statics"))  # only they read a scenario


def test_package_names_are_their_modules_objects():
    import moebius_csr
    from moebius_csr import csr_cost, hamiltonian, lattice

    assert moebius_csr.__all__ == [
        "CostBreakdown", "CsrParams", "total_hcsr",
        "BetaRegime", "CsrScenario", "DecisionReport", "StationaryKind",
        "optimize_constrained",
        "HoppingParams", "assemble", "eigenvalues", "flux_sweep",
        "Edge", "EdgeKind", "MoebiusLattice", "SiteCoord", "Topology",
        "build_cylinder", "build_moebius",
        "__version__",
    ]
    modules = {m.__name__: m for m in (csr_cost, decision, hamiltonian, lattice)}
    for name in moebius_csr.__all__[:-1]:
        value = getattr(moebius_csr, name)
        assert value is getattr(modules[value.__module__], name), name
    namespace = {}
    exec("from moebius_csr import *", namespace)
    assert {k: v for k, v in namespace.items() if k != "__builtins__"} == {
        name: getattr(moebius_csr, name) for name in moebius_csr.__all__
    }
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        moebius_csr.nope
    # the scenario-file table has one home, which decision shares
    assert decision.SCENARIO_KEYS is lattice.SCENARIO_KEYS
    assert decision.LOYALTY_EXPONENTS is lattice.LOYALTY_EXPONENTS


# Runs ``python -m moebius_csr`` on argv[2:] as the interpreter does, through
# runpy, and at exit writes the count of frozen objects to the file argv[1].
ENTRY_PROBE = """
import atexit, gc, runpy, sys
path = sys.argv.pop(1)
def record():
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(str(gc.get_freeze_count()))
atexit.register(record)
runpy.run_module("moebius_csr", run_name="__main__", alter_sys=True)
"""


def test_module_entry_point(capsys, monkeypatch, scenario_file, cost_files, tmp_path):
    a, c = cost_files
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal
    cases = [
        ["lattice", "--n", "1", "--m", "2"],
        ["spectrum", "--n", "2", "--m", "2", "--t1", "1", "--t2", "0.5",
         "--flux-sweep", "0:2:0.5"],
        ["cost", "--contributions", a, "--costs", c, "--t1", "2", "--t2", "1",
         "--delta", "0.5"],
        ["optimize", "--scenario", scenario_file, "--beta", "0.5", "--csv"],
        ["statics", "--scenario", scenario_file, "--param", "beta", "--range", "0.5:1.5:0.5"],
        ["lattice", "--n", "0", "--m", "1"],  # domain error
        ["optimize", "--scenario", scenario_file, "--p", "1", "--w", "3"],  # infeasible
        ["lattice", "--n", "2", "--m", "1", "--nope"],  # argparse rejection
        ["--help"],
    ]
    codes = []
    for argv in cases:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exits
            code = exc.code
        expected = (code, *capsys.readouterr())
        frozen = tmp_path / "frozen.txt"
        result = subprocess.run([sys.executable, "-c", ENTRY_PROBE, str(frozen), *argv],
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == expected, argv
        assert int(frozen.read_text(encoding="utf-8")) > 0, argv
        codes.append(code)
    assert codes == [0] * 5 + [2, 3, 2, 0]
    # the installed script runs the same entry
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n")[1].split("\n[")[0]
    assert scripts.strip() == 'moebius-csr = "moebius_csr.cli:run"'
