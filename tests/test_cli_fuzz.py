"""Fuzz the CLI with random task JSON: every input ends in exit 0, 2, 3 or 4, and sweeps agree with their points.

Sweeps of feasibility, decompose, optimize and bounds with one or two
axes are checked point by point against single commands
(``helpers.check_sweep_against_points``).  The example budget is fixed and
derandomized, so the run is reproducible and takes a few seconds.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import check_sweep_against_points, run_cli, write_json  # noqa: E402

JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.floats(allow_nan=True, allow_infinity=True),
                 st.dictionaries(st.sampled_from(["a", "0"]), st.integers(-1, 1), max_size=1))
UNIT = st.floats(-0.2, 1.2, allow_nan=False)


def sometimes_junk(good):
    """Mostly well-formed values, sometimes anything at all."""
    return st.one_of(good, good, good, JUNK)


OVERLAP = sometimes_junk(st.one_of(UNIT, st.lists(st.floats(-0.8, 0.8, allow_nan=False), min_size=2, max_size=2)))
DEPTH = sometimes_junk(st.integers(0, 3))
ROWS = sometimes_junk(st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(st.floats(0.0, 0.7, allow_nan=False), min_size=m, max_size=m), min_size=2, max_size=2)))


def machine(command: str, default_kind: str):
    kinds = st.sampled_from([default_kind, "joint", "ncm", "supplementary"])
    return st.fixed_dictionaries(
        {"command": st.just(command), "kind": sometimes_junk(kinds), "alpha": OVERLAP, "m": DEPTH, "r": ROWS},
        optional={"beta": OVERLAP, "p": sometimes_junk(st.lists(OVERLAP, min_size=1, max_size=3))},
    )


OPTIMIZE = st.fixed_dictionaries(
    {"command": st.just("optimize"), "kind": sometimes_junk(st.sampled_from(["joint", "ncm", "supplementary"])),
     "alpha": OVERLAP, "m": sometimes_junk(st.integers(0, 2))},
    optional={"beta": OVERLAP, "symmetric": st.booleans(),
              "priors": sometimes_junk(st.sampled_from([[0.5, 0.5], [0.7, 0.3], [0.6, 0.6]])),
              "oracle_resolution": sometimes_junk(st.sampled_from([0.05, 0.1, 0.0]))},
)
BOUNDS = st.fixed_dictionaries(
    {"command": st.just("bounds"), "alpha": OVERLAP},
    optional={"beta": OVERLAP, "m": DEPTH, "m_max": DEPTH, "p_m": sometimes_junk(UNIT),
              "priors": sometimes_junk(st.sampled_from([[0.5, 0.5], [0.8, 0.2]])),
              "quantities": sometimes_junk(st.lists(st.sampled_from(
                  ["duan_guo", "discrimination_bound", "advantage", "convergence", "single_slot_optimum", "x"]),
                  max_size=3))},
)
INNER = st.one_of(machine("feasibility", "joint"), machine("decompose", "joint"), OPTIMIZE, BOUNDS)
AXIS_NAMES = st.sampled_from(["alpha", "beta", "m", "m_max", "p_m", "r.0.0", "r.1.0", "p.0", "priors.0",
                              "oracle_resolution"])
ENDPOINT = st.one_of(UNIT, UNIT, UNIT, st.floats(-1e300, 1e300))
AXIS = st.fixed_dictionaries({"name": AXIS_NAMES, "start": ENDPOINT, "stop": ENDPOINT, "steps": st.integers(1, 3)})


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(inner=INNER, axes=st.lists(AXIS, min_size=0, max_size=2, unique_by=lambda a: a["name"]))
def test_random_tasks_exit_cleanly(tmp_path_factory, inner, axes):
    directory = tmp_path_factory.mktemp("fuzz", numbered=True)
    if axes:
        code, _, err = check_sweep_against_points(directory, {"command": "sweep", "run": inner, "sweep": axes})
    else:
        code, _, err = run_cli([inner["command"], "--task", write_json(directory, "task.json", inner)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert code == 0 or err.startswith("clonekit: ")
