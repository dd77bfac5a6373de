"""One property over the whole public surface: every public entry reads each
scalar, count, array or choice argument through a rule of
``moebius_csr.lattice`` and checks its range, so a value of the wrong kind, or
out of range, raises exactly one ValueError that names the argument, and no
other exception or warning."""

import copy
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebius_csr
from moebius_csr import csr_cost, decision, hamiltonian, lattice
from moebius_csr.hamiltonian import HoppingParams

# a value of each wrong kind; the 0-d array and the nested list hold a float;
# the last int is past the interpreter's int-to-string limit
BAD = (True, np.True_, "2", b"2", 2 + 0j, None, np.array(2.0), [[2.0]], 10**400, 10**5000)
ZERO_D, NESTED = BAD[6:8]
FIELDS = dict(N=10, M=2, a=0.5, k=2.0, beta=0.5, delta=0.1, p=3.0, w=1.0)
S = decision.CsrScenario(**FIELDS)
KNIFE_EDGE = decision.CsrScenario(**{**FIELDS, "beta": 1.0})  # no param is valid here
LAT = lattice.build_moebius(2, 2)
HOPPING = dict(t1=1.0, t2=0.5, phi=0.0, epsilon=[[0.5, 0.5] for _ in range(4)])
# each swapped argument: None where its message names it, the name the message
# gives (a regex), or for an array (that name, the values of BAD it holds valid
# in its place, and those it holds valid as an entry)
SPECTRAL = {**dict.fromkeys(["t1", "t2", "phi"]), "epsilon": ("epsilon", (None,), ())}
CASES = [  # (public name, call, valid arguments, swapped arguments)
    *[(f.__name__, f, dict(N=2, M=2), dict.fromkeys("NM"))
      for f in (lattice.build_moebius, lattice.build_cylinder)],
    ("MoebiusLattice", lattice.MoebiusLattice, dict(N=2, M=2, topology="moebius"),
     dict.fromkeys(["N", "M", "topology"])),
    ("assemble", lambda t1, t2, phi, epsilon: hamiltonian.assemble(
        LAT, HoppingParams(t1, t2, phi, epsilon)), HOPPING, SPECTRAL),
    ("flux_sweep", lambda t1, t2, phi, epsilon, phis, n_electrons: hamiltonian.flux_sweep(
        LAT, HoppingParams(t1, t2, phi, epsilon), phis, n_electrons),
     dict(HOPPING, phis=[0.0, 0.25], n_electrons=2),
     {**SPECTRAL, "n_electrons": None, "phis": ("flux", (ZERO_D,), ())}),
    ("eigenvalues", hamiltonian.eigenvalues, dict(h=[[2.0, 0.0], [0.0, 1.0]]),
     {"h": ("matrix", (NESTED,), (2 + 0j,))}),
    ("CsrParams", csr_cost.CsrParams, dict(t1=1.0, t2=0.5, delta=0.1),
     dict.fromkeys(["t1", "t2", "delta"])),
    ("total_hcsr", lambda a, c: csr_cost.total_hcsr(a, c, csr_cost.CsrParams(1.0, 0.5, 0.1)),
     dict(a=HOPPING["epsilon"], c=HOPPING["epsilon"]),
     {"a": ("contribution matrix", (), ()), "c": ("cost matrix", (), ())}),
    ("CsrScenario", decision.CsrScenario, dict(FIELDS, loyalty_exponent=4),
     dict.fromkeys([*FIELDS, "loyalty_exponent"])),
    ("CsrScenario.from_dict", lambda **data: decision.CsrScenario.from_dict(data),
     {**FIELDS, "lambda": 4}, {**dict.fromkeys(FIELDS), "lambda": "loyalty_exponent"}),
    ("hcsr_of_c", lambda c: decision.hcsr_of_c(c, S), dict(c=[0.5, 0.5]),
     {"c": ("c", (ZERO_D, NESTED), ())}),
    *[("stationary_sweep", lambda param, values: decision.stationary_sweep(S, param, values),
       dict(param=param, values=[value, value]), {"param": None, "values": (param, (), ())})
      for param, value in (("delta", 0.2), ("beta", 2.0), ("M", 3))],
    ("optimize_oracle", lambda grid_points: decision.optimize_oracle(S, grid_points),
     dict(grid_points=11), {"grid_points": None}),
    *[("comparative_statics", lambda param, s: decision.comparative_statics(s, param),
       dict(param="delta", s=s), {"param": None}) for s in (S, KNIFE_EDGE)],
]
# values of the right kind out of each argument's range, by case and argument
OUT_OF_RANGE = {
    **{(build, name): (0, -2, 1.5) for build in ("build_moebius", "build_cylinder", "MoebiusLattice")
       for name in "NM"},
    ("MoebiusLattice", "topology"): ("twisted",),
    **{(entry, "t1"): (np.nan,) for entry in ("assemble", "flux_sweep")},
    **{(entry, "t2"): (np.inf,) for entry in ("assemble", "flux_sweep")},
    **{(entry, "phi"): (np.nan, 1e308) for entry in ("assemble", "flux_sweep")},
    **{(entry, "epsilon"): (np.zeros((3, 2)), np.full((4, 2), np.nan))
       for entry in ("assemble", "flux_sweep")},
    ("flux_sweep", "n_electrons"): (-1, 9),
    ("eigenvalues", "h"): (np.zeros((2, 3)), [[0.0, 1.0], [0.0, 0.0]], np.zeros((0, 0))),
    ("CsrParams", "t1"): (-1.0, np.inf), ("CsrParams", "t2"): (-0.1,),
    ("CsrParams", "delta"): (0.0, 1.0),
    **{("CsrScenario", name): values for name, values in dict(
        N=(0, 1.5), M=(0,), a=(-0.1, 1.0), k=(0.0, -1.0), beta=(0.0, -2.0), delta=(0.0, 1.0),
        p=(-1.0,), w=(-0.5,), loyalty_exponent=(3, 2.0)).items()},
    ("hcsr_of_c", "c"): (-0.5, np.inf),
}
# the rules themselves, read by every case; records and enums, which hold what
# they are given; HoppingParams, read where it is used; and entries that take a
# scenario alone
EXEMPT = {"as_real", "as_count", "as_real_array", "as_choice", "BetaRegime", "StationaryKind",
          "EdgeKind", "Topology", "Edge", "SiteCoord", "CostBreakdown", "DecisionReport",
          "HoppingParams", "bracket", "stationary_closed_form", "optimize_constrained"}


@settings(max_examples=150)
@given(st.sampled_from([(case, name) for case in CASES for name in case[3]]))
def test_every_wrong_kind_or_range_is_one_named_value_error_property(swap):
    # a public callable with neither a case nor an exemption fails every draw
    public = {*moebius_csr.__all__, "CsrScenario.from_dict"} - {"__version__"}
    for module in (decision, hamiltonian, csr_cost, lattice):
        public |= {name for name, f in vars(module).items() if inspect.isfunction(f)
                   and f.__module__ == module.__name__ and not name.startswith("_")}
    assert public == {case[0] for case in CASES} | EXEMPT
    (entry, call, valid, swapped), name = swap
    spec = swapped[name] or name
    label, takes, entry_takes = (spec, (), None) if isinstance(spec, str) else spec
    wrong = [bad for bad in BAD if not any(bad is ok for ok in takes)]
    wrong += OUT_OF_RANGE.get((entry, name), ())
    for bad in BAD if entry_takes is not None else ():
        if not any(bad is ok for ok in entry_takes):
            # an array: its last entry, and an ndarray of the bad value's dtype
            value = copy.deepcopy(valid[name])
            (value[-1] if isinstance(value[-1], list) else value)[-1] = bad
            wrong.append(value)
            if bad is not ZERO_D and bad is not NESTED:
                wrong.append(np.array(np.full(np.shape(valid[name]), bad, dtype=object).tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if valid.get("s") is not KNIFE_EDGE:
            call(**valid)
        for bad in wrong:
            with pytest.raises(ValueError) as refused:
                call(**{**valid, name: bad})
            assert re.search(rf"\b(?:{label})\b", str(refused.value)), (entry, name, bad)
            assert refused.value.__context__ is None and refused.value.__cause__ is None
