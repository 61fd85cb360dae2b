"""Every public entry point refuses a bad epsilon, delta, sensitivity, seed or scale.

The entry points are found, not listed: every public function, class and
method of `noise`, `analysis`, `mechanisms` and `lowerbound` with a
parameter named in `BAD`.  `VALID` gives valid arguments for each, and the
range edges of its own; an entry point that it lacks fails, so a new one
cannot skip the checks.  Each bad value must raise `ValueError`, so none
returns nan, inf or a negative number.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from karycount import analysis, lowerbound, mechanisms, noise
from karycount.digits import DigitSystem
from karycount.mechanisms import BatchRunner, MechanismConfig

nan, inf = math.nan, math.inf
#: The smallest epsilon past 1, the top of the approximate-DP range.
ONE_UP = math.nextafter(1.0, 2.0)

#: Bad values of every parameter with this name, in every entry point.
BAD = {
    "epsilon": [nan, inf, -inf, 0.0, -1.0],
    "delta": [nan, inf, -inf, 0.0, -1.0, 1.0],
    "delta1": [nan, inf, -inf, 0.0, -1.0],
    "delta2": [nan, inf, -inf, -1.0],  # 0 is a valid l2-sensitivity of `epsilon_of_laplace`
    "lam": [nan, inf, -inf, 0.0, -1.0],
    "scale": [nan, inf, -inf, -1.0],  # 0 is `vertex_laplace`'s zero noise
    "seed": [nan, inf, -inf, -1, 2**64, 1.5, True, np.int64(-1)],
}

CONFIG = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 8, 1.0)
#: Epsilons that `check_epsilon` passes but whose square is 0 or inf.
SQUARE_EDGES = {"epsilon": [1e-200, 1e200]}

#: name -> (valid keyword arguments, bad values at this entry point's own range edges)
VALID = {
    "noise.vertex_uniform": (dict(seed=1, index=2), {}),
    "noise.vertex_laplace": (dict(scale=1.0, seed=1, index=2), {}),
    "noise.check_epsilon": (dict(epsilon=0.5, most=1.0), {"epsilon": [ONE_UP]}),
    "noise.check_delta": (dict(delta=1e-6), {}),
    "noise.check_seed": (dict(seed=2**64 - 4, count=4), {"seed": [2**64 - 3]}),
    "noise.calibrate_pure_laplace": (dict(delta1=3.0, epsilon=0.5), {"epsilon": [5e-324]}),
    "noise.calibrate_gaussian": (dict(delta2=1.0, epsilon=0.5, delta=1e-6),
                                 {"epsilon": [ONE_UP], "delta2": [0.0]}),
    "noise.l2_laplace_a": (dict(epsilon=0.5, delta=1e-6), {"epsilon": [ONE_UP]}),
    "noise.calibrate_l2_laplace": (dict(delta2=1.0, epsilon=0.5, delta=1e-6),
                                   {"epsilon": [ONE_UP], "delta2": [0.0]}),
    "noise.epsilon_of_laplace": (dict(delta1=3.0, delta2=1.0, lam=6.0, delta=1e-6),
                                 {"delta2": [math.nextafter(3.0, inf)]}),
    "noise.variance_ratio_bound": (dict(epsilon=0.5, delta=1e-6),
                                   {"epsilon": [math.nextafter(math.log(1e6), inf)]}),
    "analysis.closed_form_mse": (dict(variant=DigitSystem.PLAIN, k=2, h=3, epsilon=0.5),
                                 SQUARE_EDGES),
    "analysis.henzinger_bound": (dict(T=1024, epsilon=0.5, delta=1e-6), {"epsilon": [ONE_UP]}),
    "analysis.pure_leading_term": (dict(variant=DigitSystem.OFFSET_ODD, k=19, T=2**20,
                                        epsilon=0.5), SQUARE_EDGES),
    "analysis.approx_leading_term": (dict(T=2**20, epsilon=0.5, delta=1e-6), SQUARE_EDGES),
    "analysis.empirical_mse": (dict(config=CONFIG, trials=3, seed=2**64 - 3),
                               {"seed": [2**64 - 2]}),
    "mechanisms.MechanismConfig": (dict(variant=DigitSystem.OFFSET_ODD, k=3, T=8, epsilon=0.5,
                                        seed=2**64 - 1), {"epsilon": [5e-324]}),
    "mechanisms.BatchRunner.run": (dict(self=BatchRunner(CONFIG), bits=[1] * 8, seed=5), {}),
    "lowerbound.LowerBoundConfig": (dict(T=256, k=4, epsilon=0.5, trials=8, seed=2**64 - 32),
                                    {"seed": [2**64 - 31]}),
}

#: Records of results, whose fields are outputs of checked entry points.
RECORDS = {
    "noise.CalibrationResult": "made by the calibrators from checked inputs",
    "noise.LaplaceEpsilonResult": "made by `epsilon_of_laplace` from checked inputs",
    "analysis.ErrorReport": "made by `empirical_mse` from a checked config",
}

#: The counter hash keeps its `OverflowError` for a seed outside [0, 2^64).
OVERFLOW = {"noise.vertex_uniform", "noise.vertex_laplace"}


def entry_points() -> dict:
    """{module.name: callable} of every public callable with a parameter in `BAD`."""
    found = {}
    for module in (noise, analysis, mechanisms, lowerbound):
        prefix = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                    or inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            members = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                            if not m.startswith("_") and inspect.isfunction(f)]
            for qualname, f in members:
                if set(inspect.signature(f).parameters) & set(BAD):
                    found[f"{prefix}.{qualname}"] = f
    return found


ENTRY_POINTS = entry_points()


def test_every_entry_point_is_in_the_table():
    assert set(ENTRY_POINTS) == set(VALID) | set(RECORDS)
    assert all(dataclasses.is_dataclass(ENTRY_POINTS[name]) for name in RECORDS)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_are_accepted(name):
    ENTRY_POINTS[name](**VALID[name][0])


@pytest.mark.parametrize("name", sorted(VALID))
def test_bad_values_are_refused(name):
    valid, edges = VALID[name]
    errors = (ValueError, OverflowError) if name in OVERFLOW else ValueError
    accepted = []
    for param in sorted(set(valid) & set(BAD)):
        for value in BAD[param] + edges.get(param, []):
            try:
                result = ENTRY_POINTS[name](**{**valid, param: value})
            except errors if param == "seed" else ValueError:
                continue
            accepted.append(f"{param}={value!r} returned {result!r}")
    assert accepted == []
