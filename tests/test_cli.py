import collections
import json

import numpy as np
import pytest

import clonekit.machine
import clonekit.protocol
from clonekit.cli import _BOUND_QUANTITIES, Columns, main
from helpers import check_sweep_against_points
from test_sweep_batching import _count_core_calls


def write_task(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


FEAS_TASK = {
    "command": "feasibility",
    "kind": "joint",
    "alpha": 0.5,
    "beta": 0.8,
    "m": 1,
    "r": [[0.8], [0.8]],
}


class TestFeasibilityCommand:
    def test_boundary_report(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        code, out, err = run(capsys, ["feasibility", "--task", task])
        assert code == 0, err
        report = json.loads(out)
        assert report["results"]["feasible"] is True
        assert abs(report["results"]["slack"]) < 1e-12
        assert report["tool_version"] == "0.1.0"
        assert report["tolerance"] == pytest.approx(1e-9)

    def test_set_override(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        code, out, _ = run(capsys, ["feasibility", "--task", task, "--set", "r.0.0=0.9", "--set", "r.1.0=0.9"])
        assert code == 0
        assert json.loads(out)["results"]["feasible"] is False

    def test_env_tolerance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CLONEKIT_TOL", "1e-6")
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        code, out, _ = run(capsys, ["feasibility", "--task", task])
        assert code == 0
        assert json.loads(out)["tolerance"] == pytest.approx(1e-6)

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CLONEKIT_TOL", "1e-6")
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        code, out, _ = run(capsys, ["feasibility", "--task", task, "--tol", "1e-12"])
        assert json.loads(out)["tolerance"] == pytest.approx(1e-12)


class TestValidationExitCode:
    def test_overlap_out_of_range(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {**FEAS_TASK, "alpha": 1.5})
        code, _, err = run(capsys, ["feasibility", "--task", task])
        assert code == 2
        assert "validation" in err
        beta_task = write_task(tmp_path, "t2.json", {**FEAS_TASK, "beta": 1.5})
        assert run(capsys, ["feasibility", "--task", beta_task])[0] == 2

    def test_negative_r(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {**FEAS_TASK, "r": [[-0.1], [0.1]]})
        assert run(capsys, ["feasibility", "--task", task])[0] == 2

    def test_bad_priors(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "optimize", "kind": "ncm", "alpha": 0.5, "m": 1, "priors": [0.7, 0.2]},
        )
        assert run(capsys, ["optimize", "--task", task])[0] == 2

    def test_command_mismatch(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        assert run(capsys, ["uqcm", "--task", task])[0] == 2

    def test_missing_field(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {"command": "feasibility", "kind": "joint"})
        assert run(capsys, ["feasibility", "--task", task])[0] == 2

    def test_bad_set_path(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        assert run(capsys, ["feasibility", "--task", task, "--set", "r.x=1"])[0] == 2

    def test_boolean_overlap_rejected(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {**FEAS_TASK, "alpha": True})
        assert run(capsys, ["feasibility", "--task", task])[0] == 2

    def test_simulate_needs_seed(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "simulate", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1,
             "r": [[0.5], [0.5]], "shots": 100},
        )
        assert run(capsys, ["simulate", "--task", task])[0] == 2


class TestErrorExitCodes:
    def test_infeasible_is_3(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "decompose", "kind": "joint", "alpha": 0.5, "beta": 0.8, "m": 1,
             "r": [[0.9], [0.9]]},
        )
        code, _, err = run(capsys, ["decompose", "--task", task])
        assert code == 3
        assert "infeasible" in err

    def test_numerical_failure_is_4(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "bounds", "alpha": 1.0, "beta": 0.5, "m": 1, "p_m": 1.0,
             "quantities": ["discrimination_bound"]},
        )
        code, _, err = run(capsys, ["bounds", "--task", task])
        assert code == 4
        assert "numerical" in err


class TestWorkedCommands:
    def test_decompose_worked_instance(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "decompose", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1,
             "r": [[0.5], [0.5]]},
        )
        code, out, _ = run(capsys, ["decompose", "--task", task])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["case"] == "case2_II"
        assert results["root_t"] == pytest.approx(0.4, abs=1e-9)
        assert results["supp_r"][0][0] == pytest.approx(0.2, abs=1e-9)
        assert results["ncm_r"][0][0] == pytest.approx(0.375, abs=1e-9)

    def test_uqcm(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {"command": "uqcm", "amplitudes": [0.6, 0.8]})
        code, out, _ = run(capsys, ["uqcm", "--task", task])
        assert code == 0
        assert json.loads(out)["results"]["distance"] == pytest.approx(1 / 18, abs=1e-12)

    def test_compose(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "compose",
             "supp": {"kind": "supplementary", "alpha": 0.5, "beta": 0.9, "m": 1, "r": [[0.2], [0.2]]},
             "ncm": {"kind": "ncm", "alpha": 0.5, "m": 1, "r": [[0.375], [0.375]]}},
        )
        code, out, _ = run(capsys, ["compose", "--task", task])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["r"][0][0] == pytest.approx(0.5, abs=1e-12)
        assert results["feasibility"]["feasible"] is True

    def test_optimize_with_oracle(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "optimize", "kind": "ncm", "alpha": 0.5, "m": 1,
             "oracle_resolution": 1e-3},
        )
        code, out, _ = run(capsys, ["optimize", "--task", task])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["value"] == pytest.approx(2 / 3, abs=1e-6)
        assert abs(results["value"] - results["oracle_value"]) <= 1e-3

    def test_synthesize(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "synthesize", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1,
             "r": [[0.5], [0.5]]},
        )
        code, out, _ = run(capsys, ["synthesize", "--task", task])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["unitarity_defect"] < 1e-10
        assert results["slot_probs"][0][0] == pytest.approx(0.5, abs=1e-9)
        assert results["global_success"] == pytest.approx(0.5, abs=1e-9)

    def test_simulate_determinism(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "simulate", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1,
             "r": [[0.5], [0.5]], "shots": 2000, "input_index": 0},
        )
        code1, out1, _ = run(capsys, ["simulate", "--task", task, "--seed", "42"])
        code2, out2, _ = run(capsys, ["simulate", "--task", task, "--seed", "42"])
        assert code1 == code2 == 0
        assert out1 == out2
        counts = json.loads(out1)["results"]["counts"]
        assert sum(counts.values()) == 2000

    def test_explicit_states_checked(self, tmp_path, capsys):
        s = np.sqrt(0.75)
        task = write_task(
            tmp_path, "t.json",
            {"command": "synthesize", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1,
             "r": [[0.5], [0.5]],
             "states": {"psi": [[1.0, 0.0], [0.5, s]], "phi": [[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)]]}},
        )
        assert run(capsys, ["synthesize", "--task", task])[0] == 0
        bad = write_task(
            tmp_path, "bad.json",
            {"command": "synthesize", "kind": "joint", "alpha": 0.6, "beta": 0.9, "m": 1,
             "r": [[0.5], [0.5]],
             "states": {"psi": [[1.0, 0.0], [0.5, s]], "phi": [[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)]]}},
        )
        assert run(capsys, ["synthesize", "--task", bad])[0] == 2


class TestReportRoundTrip:
    def test_byte_identical_rerun(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        _, out1, _ = run(capsys, ["feasibility", "--task", task])
        _, out2, _ = run(capsys, ["feasibility", "--task", task])
        assert out1 == out2

    def test_report_reingestion(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        _, out1, _ = run(capsys, ["feasibility", "--task", task])
        report_path = tmp_path / "report.json"
        report_path.write_text(out1)
        _, out2, _ = run(capsys, ["feasibility", "--task", str(report_path)])
        assert out1 == out2

    def test_out_file(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, ["feasibility", "--task", task, "--out", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["results"]["feasible"] is True


class TestSweep:
    def test_advantage_sweep_monotone(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "sweep",
             "run": {"command": "bounds", "alpha": 0.0, "beta": 0.8, "m": 1,
                     "quantities": ["advantage"]},
             "sweep": [{"name": "alpha", "start": 0.0, "stop": 0.9, "steps": 7}],
             "select": ["advantage.delta"]},
        )
        code, out, _ = run(capsys, ["sweep", "--task", task])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["columns"] == ["alpha", "advantage.delta"]
        deltas = [row[1] for row in results["rows"]]
        assert all(d >= -1e-12 for d in deltas)
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_single_point_sweep_matches_direct(self, tmp_path, capsys):
        direct_task = write_task(tmp_path, "d.json", {"command": "uqcm", "amplitudes": [0.6, 0.8]})
        _, direct_out, _ = run(capsys, ["uqcm", "--task", direct_task])
        direct = json.loads(direct_out)["results"]["distance"]
        sweep_task = write_task(
            tmp_path, "s.json",
            {"command": "sweep",
             "run": {"command": "uqcm", "amplitudes": [0.6, 0.8]},
             "sweep": [{"name": "amplitudes.0", "start": 0.6, "stop": 0.6, "steps": 1}]},
        )
        _, sweep_out, _ = run(capsys, ["sweep", "--task", sweep_task])
        results = json.loads(sweep_out)["results"]
        assert results["rows"][0][results["columns"].index("distance")] == direct

    def test_depth_sweep_nondecreasing(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "sweep",
             "run": {"command": "bounds", "alpha": 0.6, "beta": 0.5, "m": 1,
                     "quantities": ["single_slot_optimum"]},
             "sweep": [{"name": "m", "start": 1, "stop": 8, "steps": 8}],
             "select": ["single_slot_optimum"]},
        )
        code, out, _ = run(capsys, ["sweep", "--task", task])
        assert code == 0
        vals = [row[1] for row in json.loads(out)["results"]["rows"]]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_csv_emission(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "sweep",
             "run": {"command": "bounds", "alpha": 0.0, "quantities": ["duan_guo"]},
             "sweep": [{"name": "alpha", "start": 0.0, "stop": 0.5, "steps": 3}],
             "select": ["duan_guo"]},
        )
        code, out, _ = run(capsys, ["sweep", "--task", task, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,duan_guo"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "1"

    def test_csv_missing_column_reads_null(self, tmp_path, capsys):
        # "case" is a string, so it is not a scalar column; the JSON table
        # writes null for it, and the CSV table writes the same cell.
        payload = {"command": "sweep",
                   "run": {"command": "decompose", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1,
                           "r": [[0.5], [0.5]]},
                   "sweep": [{"name": "beta", "start": 0.85, "stop": 0.95, "steps": 3}],
                   "select": ["case", "root_t"]}
        task = write_task(tmp_path, "t.json", payload)
        code, out, err = run(capsys, ["sweep", "--task", task])
        assert code == 0, err
        rows = json.loads(out)["results"]["rows"]
        code, out, err = run(capsys, ["sweep", "--task", task, "--format", "csv"])
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "beta,case,root_t"
        assert len(lines) == 4
        for line, row in zip(lines[1:], rows):
            beta, case, root_t = line.split(",")
            assert case == "null" and row[1] is None
            assert float(beta) == row[0] and float(root_t) == row[2]

    def test_csv_only_for_sweep(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        assert run(capsys, ["feasibility", "--task", task, "--format", "csv"])[0] == 2

    def test_axis_budget(self, tmp_path, capsys):
        task = write_task(
            tmp_path, "t.json",
            {"command": "sweep",
             "run": {"command": "bounds", "alpha": 0.0, "quantities": ["duan_guo"]},
             "sweep": [{"name": "alpha", "start": 0.0, "stop": 0.5, "steps": 20000}]},
        )
        assert run(capsys, ["sweep", "--task", task])[0] == 2


SYNTH_TASK = {"command": "synthesize", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1,
              "r": [[0.5], [0.5]]}
GOOD_PSI = [[1.0, 0.0], [0.5, np.sqrt(0.75)]]
GOOD_PHI = [[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)]]


def _count_point_objects(monkeypatch) -> collections.Counter:
    """Count every MachineSpec (built or viewed from a batch row), FeasibilityReport and TwoStepPlan made."""
    built: collections.Counter = collections.Counter()
    real_bind = clonekit.machine._bind

    def bind(spec, batch, i):
        built["MachineSpec"] += 1
        real_bind(spec, batch, i)

    monkeypatch.setattr(clonekit.machine, "_bind", bind)
    for cls in (clonekit.machine.FeasibilityReport, clonekit.protocol.TwoStepPlan):
        def init(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return built


class TestColumnarSweeps:
    """Sweep cells come from the handlers' arrays: no point builds a spec, report or plan."""

    @pytest.mark.parametrize("command", ["feasibility", "decompose"])
    def test_200_points_build_no_per_point_objects(self, tmp_path, capsys, monkeypatch, command):
        built = _count_point_objects(monkeypatch)
        spec = clonekit.machine.MachineSpec("joint", 0.5, 0.9, 1, [[0.5], [0.5]])
        clonekit.protocol.decompose_two_step(spec)
        assert built == {"MachineSpec": 3, "FeasibilityReport": 2, "TwoStepPlan": 1}  # the counter counts
        built.clear()
        task = {"command": "sweep", "run": {**FEAS_TASK, "command": command, "beta": 0.9, "r": [[0.5], [0.5]]},
                "sweep": [{"name": "alpha", "start": 0.3, "stop": 0.5, "steps": 10},
                          {"name": "beta", "start": 0.8, "stop": 0.95, "steps": 20}]}
        code, out, err = run(capsys, ["sweep", "--task", write_task(tmp_path, "t.json", task)])
        assert code == 0, err
        assert len(json.loads(out)["results"]["rows"]) == 200
        assert not built, built

    def test_column_rule(self):
        # scalar leaves of row 0, sorted; a real complex is a float; a later non-real complex reads null
        res = Columns(3)
        res.put([0, 2], ["report 0", "report 2"].__getitem__, lambda: {
            "z": np.array([1.5 + 0j, 2 + 1j]), "ok": np.array([True, False]), "case": np.array(["a", "b"]),
            "v": np.zeros((2, 2)), "x.y": [3, 4.5], "none": [None, 1.0]})
        res.put([1], ["report 1"].__getitem__, lambda: {"z": [0.25 + 0j], "ok": [True], "x.y": [[1]], "extra": [1.0]})
        assert res.scalar_names(0) == ["ok", "x.y", "z"]
        assert res.scalar_names(1) == ["extra", "ok", "z"]
        names = ("z", "ok", "x.y", "case", "v", "none", "extra", "missing")
        assert res.columns(names) == [
            [1.5, 0.25, None], [True, True, False], [3, None, 4.5], [None] * 3, [None] * 3, [None, None, 1.0],
            [None, 1.0, None], [None] * 3]
        assert type(res.columns(["z"])[0][0]) is float
        assert [res.row(i) for i in range(3)] == ["report 0", "report 1", "report 2"]

    SIMULATE = {**SYNTH_TASK, "command": "simulate", "shots": 200, "seed": 5}

    def test_simulate_sweep_keeps_the_nested_counts(self, tmp_path, capsys):
        # counts is a nested dict: its leaves are columns under dotted names, by default and through select
        task = {"command": "sweep", "run": self.SIMULATE, "seed": 5, "sweep": [
            {"name": "beta", "start": 0.8, "stop": 0.95, "steps": 3}]}
        code, out, err = run(capsys, ["sweep", "--task", write_task(tmp_path, "t.json", task)])
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results["columns"] == ["beta", "counts.failure", "counts.slot_1", "dimension", "global_success",
                                      "input_index", "shots", "unitarity_defect"]
        assert all(row[1] + row[2] == 200 for row in results["rows"])
        task["select"] = ["counts.failure", "counts.slot_1"]
        code, out, err = run(capsys, ["sweep", "--task", write_task(tmp_path, "t.json", task), "--format", "csv"])
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "beta,counts.failure,counts.slot_1"
        assert [sum(int(v) for v in line.split(",")[1:]) for line in lines[1:]] == [200] * 3

    @pytest.mark.parametrize("run_task", [
        SIMULATE,
        SYNTH_TASK,
        {"command": "compose", "supp": {"alpha": 0.5, "beta": 0.9, "m": 1, "r": [[0.05], [0.05]]},
         "ncm": {"alpha": 0.5, "m": 1, "r": [[0.1], [0.1]]}},
        {"command": "bounds", "alpha": 0.5, "beta": 0.9, "quantities": ["advantage", "duan_guo"]},
    ], ids=["simulate", "synthesize", "compose", "bounds-advantage"])
    def test_point_handlers_match_single_commands(self, tmp_path, run_task):
        task = {"command": "sweep", "run": run_task, "seed": 5, "sweep": [
            {"name": "alpha", "start": 0.3, "stop": 0.6, "steps": 3}]}
        if run_task["command"] == "compose":
            task["sweep"] = [{"name": "supp.beta", "start": 0.7, "stop": 0.95, "steps": 3}]
        code, out, err = check_sweep_against_points(tmp_path, task)
        assert code == 0, err
        assert len(json.loads(out)["results"]["columns"]) > 2


SUPP = {"alpha": 0.5, "beta": 0.9, "m": 1, "r": [[0.05], [0.05]]}
NCM = {"alpha": 0.5, "m": 1, "r": [[0.1], [0.1]]}
COMPOSE = {"command": "compose", "supp": SUPP, "ncm": NCM}


def _compose_sweep(axes, supp=SUPP, ncm=NCM, **extra) -> dict:
    run_task = {"command": "compose"}
    if supp is not None:
        run_task["supp"] = supp
    if ncm is not None:
        run_task["ncm"] = ncm
    return {"command": "sweep", "run": run_task,
            "sweep": [{"name": name, "start": start, "stop": stop, "steps": steps}
                      for name, start, stop, steps in axes],
            **extra}


class TestComposeBatching:
    """A group of compose tasks makes three core calls and builds only the reports it prints."""

    def test_single_compose_makes_three_core_calls(self, tmp_path, capsys, monkeypatch):
        calls = _count_core_calls(monkeypatch)
        built = _count_point_objects(monkeypatch)
        code, out, err = run(capsys, ["compose", "--task", write_task(tmp_path, "t.json", COMPOSE)])
        assert code == 0, err
        assert calls == ["supplementary", "ncm", "joint"]
        assert built == {"FeasibilityReport": 1}  # the report it prints
        assert json.loads(out)["results"]["feasibility"]["feasible"] is True

    def test_200_points_make_three_core_calls(self, tmp_path, capsys, monkeypatch):
        calls = _count_core_calls(monkeypatch)
        built = _count_point_objects(monkeypatch)
        task = _compose_sweep([("supp.beta", 0.7, 0.95, 20), ("ncm.r.0.0", 0.0, 0.2, 10)])
        code, out, err = run(capsys, ["sweep", "--task", write_task(tmp_path, "t.json", task)])
        assert code == 0, err
        results = json.loads(out)["results"]
        assert len(results["rows"]) == 200
        assert results["columns"][2:] == ["feasibility.det", "feasibility.feasible", "feasibility.reduced_applicable",
                                          "feasibility.slack"]
        assert calls == ["supplementary", "ncm", "joint"]
        assert not built, built

    @pytest.mark.parametrize("task,code,message", [
        (_compose_sweep([("supp.beta", 0.7, 0.95, 4), ("ncm.r.0.0", 0.0, 0.2, 3)]), 0, ""),
        (_compose_sweep([("supp.beta", 0.7, 0.95, 3)], supp={**SUPP, "alpha": [0.5, 0.1], "p": [[0.6, 0.8]]},
                        ncm={**NCM, "alpha": [0.5, 0.1], "beta": 0.2}), 0, ""),
        (_compose_sweep([("supp.beta", 0.7, 0.95, 4)],
                        select=["feasibility.slack", "r", "missing", "feasibility.feasible", "sum_r"]), 0, ""),
        (_compose_sweep([("ncm.alpha", 0.3, 0.6, 3)], supp=None), 2, "missing required field 'supp'"),
        (_compose_sweep([("ncm.alpha", 0.3, 0.6, 3)], supp={**SUPP, "r": "x"}), 2, "bad machine specification"),
        (_compose_sweep([("ncm.alpha", 0.3, 0.6, 3)], supp=[0.5]), 2, "a machine must be an object of fields"),
        (_compose_sweep([("supp.r.0.0", -0.05, -0.1, 2)], ncm={**NCM, "r": "x"}), 2,
         "success probabilities must lie in [0, 1]"),
        (_compose_sweep([("supp.r.0.0", 0.05, -0.1, 4)]), 2, "success probabilities must lie in [0, 1]"),
        (_compose_sweep([("supp.beta", 1.05, 1.1, 2)], ncm={**NCM, "alpha": 1.5}), 2, "|beta| = 1.05 exceeds 1"),
        (_compose_sweep([("supp.alpha", 0.3, 0.6, 3)], ncm=None), 2, "missing required field 'ncm'"),
        (_compose_sweep([("supp.beta", 0.7, 0.95, 3)], ncm={**NCM, "m": "x"}), 2, "m must be a finite integer"),
        (_compose_sweep([("ncm.r.1.0", 0.1, -0.2, 4)]), 2, "success probabilities must lie in [0, 1]"),
        (_compose_sweep([("supp.beta", 0.7, 0.95, 3)], supp={**SUPP, "kind": "ncm"}, ncm={**NCM, "alpha": 0.6}), 2,
         "compose expects a supplementary member and an ncm member"),
        (_compose_sweep([("supp.beta", 0.7, 0.95, 3)], ncm={**NCM, "kind": "joint", "beta": 0.9}), 2,
         "compose expects a supplementary member and an ncm member"),
        (_compose_sweep([("supp.beta", 0.7, 0.95, 3)], ncm={"alpha": 0.6, "m": 2, "r": [[0.1, 0.1], [0.1, 0.1]]}),
         2, "members disagree on copy depth m"),
        (_compose_sweep([("ncm.alpha", 0.55, 0.6, 3)], supp={**SUPP, "r": [[0.9], [0.9]]}), 2,
         "members disagree on the original-state overlap alpha"),
        (_compose_sweep([("supp.r.0.0", 0.8, 0.9, 2)], ncm={**NCM, "r": [[0.9], [0.9]]}), 3,
         "supplementary member is infeasible"),
        (_compose_sweep([("ncm.r.0.0", 0.1, 0.99, 4)]), 3, "ncm member is infeasible"),
        (_compose_sweep([("supp.r.0.0", 0.9, 1.0, 3)], supp={"alpha": 0.9, "beta": 0.1, "m": 1, "r": [[0.9], [0.5]]},
                        ncm={"alpha": 0.9, "m": 1, "r": [[0.0], [0.0]]}), 2,
         "a joint machine with nonzero alpha*beta cannot have total success 1"),
    ], ids=["two-axes", "complex-alpha-and-p", "select", "supp-missing", "supp-unparsed", "supp-not-an-object",
            "supp-fault-before-ncm-unparsed", "supp-fault", "supp-fault-before-ncm-fault", "ncm-missing",
            "ncm-unparsed", "ncm-fault", "supp-kind-before-alpha", "ncm-kind", "depth-before-alpha",
            "alpha-before-infeasible", "supp-infeasible-before-ncm", "ncm-infeasible", "joint-fault"])
    def test_sweeps_match_single_commands(self, tmp_path, task, code, message):
        # every compose error, each where it comes in compose's own order
        got, out, err = check_sweep_against_points(tmp_path, task, csv=True)
        assert got == code and message in err, err
        if code == 0:
            assert len(json.loads(out)["results"]["rows"]) > 2

    def test_joint_assertion_fails_on_its_row(self, tmp_path, monkeypatch):
        real = clonekit.machine.feasibility_core

        def broken(kind, *args, **kwargs):  # the first joint machine of every call fails its diagonal test
            batch = real(kind, *args, **kwargs)
            if kind == "joint":
                batch.diag = batch.diag.copy()
                batch.diag[0] = -1.0
            return batch

        monkeypatch.setattr(clonekit.protocol, "feasibility_core", broken)
        code, _, err = check_sweep_against_points(tmp_path, _compose_sweep([("supp.beta", 0.7, 0.95, 3)]), csv=True)
        assert code == 4 and "composed joint machine failed the feasibility assertion" in err


class TestMalformedStates:
    @pytest.mark.parametrize("states", [5, "psi", [GOOD_PSI, GOOD_PHI]])
    def test_states_not_an_object(self, tmp_path, capsys, states):
        task = write_task(tmp_path, "t.json", {**SYNTH_TASK, "states": states})
        code, _, err = run(capsys, ["synthesize", "--task", task])
        assert code == 2
        assert "'states' must be an object" in err

    @pytest.mark.parametrize("psi", [5, "ab", [[1.0, 0.0]], [*GOOD_PSI, [0.0, 1.0]], {"0": [1.0, 0.0]}])
    def test_psi_not_two_states(self, tmp_path, capsys, psi):
        task = write_task(tmp_path, "t.json", {**SYNTH_TASK, "states": {"psi": psi, "phi": GOOD_PHI}})
        code, _, err = run(capsys, ["synthesize", "--task", task])
        assert code == 2
        assert "states.psi must be a list of two states" in err

    @pytest.mark.parametrize("states,message", [
        ({"psi": [[1.0, 0.0], [0.6, 0.8]], "phi": GOOD_PHI}, "states.psi overlap 0.6 disagrees with alpha = 0.5"),
        ({"psi": GOOD_PSI, "phi": [[1.0, 0.0], [0.8, 0.6]]}, "states.phi overlap 0.8 disagrees with beta = 0.9"),
        ({"psi": [[1.0, 0.0], [0.6, 0.8]], "phi": 5}, "states.phi must be a list of two states"),
    ], ids=["psi", "phi", "malformed-phi-first"])
    def test_overlap_mismatch(self, tmp_path, capsys, states, message):
        # synthesis checks the explicit overlaps against the spec once, in realize
        task = write_task(tmp_path, "t.json", {**SYNTH_TASK, "states": states})
        assert run(capsys, ["synthesize", "--task", task]) == (2, "", f"clonekit: validation error: {message}\n")

    @pytest.mark.parametrize("phi", [5, "ab", [[1.0, 0.0]], [*GOOD_PHI, [0.0, 1.0]]])
    def test_phi_not_two_states(self, tmp_path, capsys, phi):
        task = write_task(tmp_path, "t.json",
                          {**SYNTH_TASK, "command": "simulate", "states": {"psi": GOOD_PSI, "phi": phi}})
        code, _, err = run(capsys, ["simulate", "--task", task, "--seed", "1"])
        assert code == 2
        assert "states.phi must be a list of two states" in err


class TestToleranceValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_bad_flag(self, tmp_path, capsys, value):
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        code, out, err = run(capsys, ["feasibility", "--task", task, f"--tol={value}"])
        assert code == 2 and out == ""
        assert "--tol must be a finite positive number" in err

    @pytest.mark.parametrize("value", ["abc", [1e-6], True, None, -1e-9, 0])
    def test_bad_task_field(self, tmp_path, capsys, value):
        task = write_task(tmp_path, "t.json", {**FEAS_TASK, "tolerance": value})
        code, out, err = run(capsys, ["feasibility", "--task", task])
        assert code == 2 and out == ""
        assert "task field 'tolerance' must be a finite positive number" in err

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "0"])
    def test_bad_environment(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("CLONEKIT_TOL", value)
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        code, out, err = run(capsys, ["feasibility", "--task", task])
        assert code == 2 and out == ""
        assert "CLONEKIT_TOL must be a finite positive number" in err

    def test_rejected_before_the_handler(self, tmp_path, capsys, monkeypatch):
        import clonekit.cli as cli

        def handler(task, tol, seed):
            raise AssertionError("handler ran")

        monkeypatch.setitem(cli._HANDLERS, "feasibility", handler)
        task = write_task(tmp_path, "t.json", FEAS_TASK)
        assert run(capsys, ["feasibility", "--task", task, "--tol", "-1"])[0] == 2

    def test_task_field_used(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {**FEAS_TASK, "tolerance": 1e-7})
        code, out, _ = run(capsys, ["feasibility", "--task", task])
        assert code == 0
        assert json.loads(out)["tolerance"] == pytest.approx(1e-7)


class TestSimulateCounts:
    def test_counts_match_public_sample(self, tmp_path, capsys):
        from clonekit.machine import MachineSpec
        from clonekit.states import canonical_pair
        from clonekit.synthesis import realize, sample

        payload = {"command": "simulate", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 2,
                   "r": [[0.2, 0.3], [0.25, 0.1]], "shots": 5000, "input_index": 1}
        task = write_task(tmp_path, "t.json", payload)
        code, out, _ = run(capsys, ["simulate", "--task", task, "--seed", "9"])
        assert code == 0
        spec = MachineSpec("joint", 0.5, 0.9, 2, payload["r"])
        rz = realize(spec, canonical_pair(0.5), canonical_pair(0.9))
        assert json.loads(out)["results"]["counts"] == sample(rz, 1, 5000, seed=9)


SIM_TASK = {"kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1, "r": [[0.5], [0.5]], "seed": 1}
MALFORMED_FIELDS = {
    "sweep of an unknown command": ("sweep", {"run": {"command": "teleport"},
                                              "sweep": [{"name": "alpha", "start": 0.1, "stop": 0.2, "steps": 2}]}),
    "scalar amplitudes": ("uqcm", {"amplitudes": 0.5}),
    "short amplitudes": ("uqcm", {"amplitudes": [1.0]}),
    "string m": ("feasibility", {"kind": "ncm", "alpha": 0.5, "m": "x", "r": [[0.1], [0.1]]}),
    "fractional m": ("feasibility", {"kind": "ncm", "alpha": 0.5, "m": 1.7, "r": [[0.1], [0.1]]}),
    "string priors": ("optimize", {"kind": "ncm", "alpha": 0.5, "m": 1, "priors": "ab"}),
    "string oracle_resolution": ("optimize", {"kind": "ncm", "alpha": 0.5, "m": 1, "oracle_resolution": "0.1"}),
    "string seed": ("simulate", {**SIM_TASK, "seed": "abc"}),
    "negative seed": ("simulate", {**SIM_TASK, "seed": -1}),
    "string shots": ("simulate", {**SIM_TASK, "shots": "many"}),
    "string input_index": ("simulate", {**SIM_TASK, "input_index": "x"}),
}


class TestTypedFields:
    @pytest.mark.parametrize("label", sorted(MALFORMED_FIELDS))
    def test_malformed_field_exits_2(self, tmp_path, capsys, label):
        command, payload = MALFORMED_FIELDS[label]
        code, _, err = run(capsys, [command, "--task", write_task(tmp_path, "t.json", payload)])
        assert code == 2
        assert err.startswith("clonekit: validation error:")
        assert "Traceback" not in err

    def test_integral_float_accepted(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {**FEAS_TASK, "m": 1.0})
        code, out, _ = run(capsys, ["feasibility", "--task", task])
        assert code == 0
        assert json.loads(out)["results"]["feasible"] is True


class TestParserReuse:
    def test_consecutive_calls_are_independent(self, tmp_path, capsys):
        import clonekit.cli as cli

        task = write_task(tmp_path, "t.json", FEAS_TASK)
        _, first, _ = run(capsys, ["feasibility", "--task", task, "--set", "r.0.0=0.5"])
        parser = cli._PARSER
        _, second, _ = run(capsys, ["feasibility", "--task", task, "--set", "r.1.0=0.6"])
        _, plain, _ = run(capsys, ["feasibility", "--task", task])
        assert cli._PARSER is parser is not None
        assert json.loads(first)["task"]["r"] == [[0.5], [0.8]]
        assert json.loads(second)["task"]["r"] == [[0.8], [0.6]]
        assert json.loads(plain)["task"]["r"] == [[0.8], [0.8]]
        assert parser.parse_args(["feasibility", "--task", task]).set is None

    @pytest.mark.parametrize("argv", [["feasibility", "--task", "t.json", "--bogus"], ["feasibility"],
                                      ["teleport", "--task", "t.json"], []])
    def test_argument_errors_exit_2(self, argv, capsys):
        for _ in range(2):  # the same on a fresh and on a reused parser
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


def _reference_jsonify(obj):
    """The per-element serializer the array fast path replaced, kept as the reference."""
    if isinstance(obj, np.ndarray):
        return [_reference_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _reference_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, complex):
        return float(obj.real) if obj.imag == 0.0 else [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return _reference_jsonify(obj.item())
    return obj


def _reference_canonical(obj) -> str:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError("non-finite")
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_canonical(v) for v in obj) + "]"
    items = sorted(obj.items(), key=lambda kv: kv[0])
    return "{" + ",".join(f"{json.dumps(str(k))}:{_reference_canonical(v)}" for k, v in items) + "}"


class TestArraySerialization:
    def test_matches_per_element_reference(self):
        from clonekit.cli import _canonical

        rng = np.random.default_rng(5)
        mixed = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        mixed[0, :2] = [1.5, -2.0]  # real entries of a complex array print as plain numbers
        mixed[1, 1] = complex(-0.0, 0.0)
        mixed[2, 3] = complex(0.25, -0.0)
        cases = [
            np.array([0.0, -0.0, 1e-300, 1 / 3, -2.5e17]),
            rng.normal(size=(2, 3, 4)),
            mixed,
            mixed.T,  # a non-contiguous view
            np.array([[1 + 0j, 0.5j], [-0.0j, 2.0]]),
            np.zeros((2, 0)),
            np.zeros(0, dtype=complex),
            np.array([1, 2, 3]),
            np.array([True, False]),
            {"nested": [mixed[0], {"r": np.eye(2)}], "z": complex(0.5, 0.0), "w": np.complex128(1j)},
        ]
        for obj in cases:
            assert _canonical(obj) == _reference_canonical(_reference_jsonify(obj))

    def test_exact_types_and_subclasses_match_the_reference(self):
        # exact types go through the writer table, anything else through the isinstance chain: same bytes
        import collections
        import enum

        from clonekit.cli import _canonical

        class Kind(str, enum.Enum):
            JOINT = "joint"

        class Depth(enum.IntEnum):
            ONE = 1

        class Ratio(float):
            pass

        values = [0.1, -0.0, 1e300, 7, -(2**70), True, False, None, "caf\u00e9 \"q\"\n\u2603", "", np.float64(1 / 3),
                  np.bool_(True), np.int64(-3), np.float32(0.1), np.int8(4), np.uint16(9), np.bool_(False),
                  Kind.JOINT, Depth.ONE, Ratio(2.5), collections.OrderedDict(b=1, a=[2.0]),
                  (1, 2.5), [[], {}]]
        report = {"values": values, "keys": {"\u00e9": 1, "b\"": 2, Kind.JOINT: "x"},
                  "nested": collections.OrderedDict(z=values)}
        for obj in [*values, report]:
            assert _canonical(obj) == _reference_canonical(_reference_jsonify(obj)), obj

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_arrays_match_list_form(self, ndim, dtype):
        from clonekit.cli import _canonical

        rng = np.random.default_rng(17 * ndim)
        for _ in range(20):
            shape = tuple(rng.integers(1, 6, size=ndim))
            arr = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            if dtype is complex:
                arr = arr + 1j * rng.normal(size=shape) * (rng.random(shape) < 0.5)  # some entries real
            flat = arr.reshape(-1)
            flat[rng.random(flat.size) < 0.2] = -0.0
            if dtype is complex:
                flat[rng.random(flat.size) < 0.2] = complex(0.5, -0.0)
            assert _canonical(arr) == _canonical(arr.tolist())

    def test_non_finite_entries_rejected(self):
        from clonekit.cli import _canonical
        from clonekit.errors import NumericalError

        for bad in (np.array([1.0, np.nan]), np.array([[1j, complex(0.0, np.inf)]])):
            with pytest.raises(NumericalError, match="non-finite"):
                _canonical({"matrix": bad})

    def test_emitted_matrix_round_trip(self, tmp_path, capsys):
        from clonekit.cli import _canonical

        task = write_task(tmp_path, "t.json", {**SYNTH_TASK, "alpha": [0.3, 0.4], "m": 2,
                                                 "r": [[0.2, 0.1], [0.1, 0.2]], "emit_matrix": True})
        code, out, _ = run(capsys, ["synthesize", "--task", task])
        assert code == 0
        report = json.loads(out)
        assert _canonical(report) + "\n" == out
        matrix = report["results"]["matrix"]
        assert any(isinstance(v, list) for row in matrix for v in row)
        assert any(isinstance(v, float) for row in matrix for v in row)


class TestRobustFields:
    @pytest.mark.parametrize("command,payload", [
        ("feasibility", {**FEAS_TASK, "p": 5}),
        ("bounds", {"alpha": 0.5, "beta": 0.5, "quantities": None}),
        ("bounds", {"alpha": 0.5, "beta": 0.5, "m": 0, "quantities": ["single_slot_optimum"]}),
        ("feasibility", {"kind": "ncm", "alpha": 0.5, "m": 1, "r": [[1.0000001], [0.1]]}),
    ], ids=["scalar-p", "null-quantities", "single-slot-depth-0", "r-entry-just-above-1"])
    def test_exit_2_without_traceback(self, tmp_path, capsys, command, payload):
        code, _, err = run(capsys, [command, "--task", write_task(tmp_path, "t.json", payload)])
        assert code == 2 and err.startswith("clonekit: validation error:")


NONFINITE_TASKS = {
    "feasibility": FEAS_TASK,
    "decompose": {**FEAS_TASK, "command": "decompose", "beta": 0.9, "r": [[0.5], [0.5]]},
    "compose": COMPOSE,
    "optimize": {"command": "optimize", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1},
    "synthesize": SYNTH_TASK,
    "simulate": {**SYNTH_TASK, "command": "simulate", "shots": 10, "seed": 1},
}
NONFINITE_FIELDS = [
    ("alpha", "NaN", "alpha is non-finite"),
    ("alpha", "[0.5, NaN]", "alpha is non-finite"),
    ("beta", "-Infinity", "beta is non-finite"),
    ("p", "[NaN]", "p has non-finite entries"),
]


class TestNonFiniteOverlaps:
    """A NaN or infinite overlap or probe is a validation error (exit 2) for every machine command."""

    @pytest.mark.parametrize("command,field,value,message", [  # optimize takes no probes
        (command, *case) for command in NONFINITE_TASKS for case in NONFINITE_FIELDS
        if (command, case[0]) != ("optimize", "p")])
    def test_exit_2(self, tmp_path, capsys, command, field, value, message):
        path = f"supp.{field}" if command == "compose" else field
        task = write_task(tmp_path, "t.json", NONFINITE_TASKS[command])
        code, out, err = run(capsys, [command, "--task", task, "--set", f"{path}={value}"])
        assert (code, out) == (2, "")
        assert err == f"clonekit: validation error: {message}\n"

    @pytest.mark.parametrize("quantity,field,value,message", [
        (quantity, *case) for quantity in _BOUND_QUANTITIES for case in NONFINITE_FIELDS
        if case[0] == "alpha" or case[0] == "beta" and quantity != "duan_guo"])  # duan_guo reads no beta
    def test_bounds_exit_2(self, tmp_path, capsys, quantity, field, value, message):
        task = write_task(tmp_path, "t.json", {"alpha": 0.5, "beta": 0.7, "m": 1, "quantities": [quantity]})
        code, out, err = run(capsys, ["bounds", "--task", task, "--set", f"{field}={value}"])
        assert (code, out) == (2, "")
        assert err == f"clonekit: validation error: {message}\n"

    def test_nan_in_the_task_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(FEAS_TASK).replace('"alpha": 0.5', '"alpha": NaN'))
        assert run(capsys, ["feasibility", "--task", str(path)]) == (
            2, "", "clonekit: validation error: alpha is non-finite\n")


NCM_FEAS = {"command": "feasibility", "kind": "ncm", "alpha": 0.5, "m": 1, "r": [[0.5], [0.5]]}
NORMALIZATION = "input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1"


class TestNoOverflow:
    """A value no later step can use exits 2 with the field's message, where it once overflowed."""

    @pytest.mark.parametrize("command,payload,sets,message", [
        ("uqcm", {"amplitudes": [-1e308, 0.5]}, [], NORMALIZATION),
        ("uqcm", {"amplitudes": [0.6, [0.8, 1e308]]}, [], NORMALIZATION),
        ("uqcm", {"amplitudes": [2.5, 0.0]}, [], NORMALIZATION),
        ("simulate", {**SYNTH_TASK, "command": "simulate", "seed": 1, "shots": 2**63}, [],
         "shots = 9223372036854775808 exceeds the limit 9223372036854775807"),
        ("simulate", {**SYNTH_TASK, "command": "simulate", "seed": 1, "shots": 1e300}, [],
         f"shots = {int(1e300)} exceeds the limit 9223372036854775807"),
        ("feasibility", NCM_FEAS, ["beta=NaN"], "task field 'beta' is non-finite"),
        ("bounds", {"alpha": 0.5, "quantities": ["duan_guo"]}, ["beta=Infinity"], "task field 'beta' is non-finite"),
        ("feasibility", NCM_FEAS, ["junk.x=[1, -Infinity]"], "task field 'junk.x.1' is non-finite"),
    ], ids=["uqcm-real", "uqcm-imaginary", "uqcm-above-2", "shots-2**63", "shots-1e300",
            "unread-beta", "unread-bounds-beta", "unread-nested"])
    def test_exit_2_without_traceback(self, tmp_path, capsys, command, payload, sets, message):
        argv = [command, "--task", write_task(tmp_path, "t.json", payload)]
        for item in sets:
            argv += ["--set", item]
        assert run(capsys, argv) == (2, "", f"clonekit: validation error: {message}\n")

    def test_largest_shot_count_runs(self, tmp_path, capsys):
        task = {**SYNTH_TASK, "command": "simulate", "seed": 1, "shots": 2**63 - 1}
        code, out, _ = run(capsys, ["simulate", "--task", write_task(tmp_path, "t.json", task)])
        assert code == 0 and sum(json.loads(out)["results"]["counts"].values()) == 2**63 - 1


class TestTaskFileEncoding:
    def test_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, ["feasibility", "--task", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("clonekit: validation error: task file is not valid UTF-8:")


class TestDepthLimit:
    @pytest.mark.parametrize("command,payload", [
        ("feasibility", {"kind": "ncm", "alpha": 0.5, "m": 1025, "r": [[0.0] * 1025] * 2}),
        ("optimize", {"kind": "ncm", "alpha": 0.5, "m": 1025}),
        ("bounds", {"alpha": 0.5, "beta": 0.7, "m": 1025}),
        ("bounds", {"alpha": 0.5, "beta": 0.7, "m": 1025, "quantities": ["advantage"]}),
        ("bounds", {"alpha": 0.5, "beta": 0.7, "m": 1025, "quantities": ["single_slot_optimum"]}),
        ("bounds", {"alpha": 0.5, "beta": 0.7, "m_max": 1025, "quantities": ["convergence"]}),
    ], ids=["feasibility", "optimize", "bounds-m", "advantage-m", "single-slot-m", "convergence-m_max"])
    def test_past_the_limit_exits_2(self, tmp_path, capsys, command, payload):
        code, out, err = run(capsys, [command, "--task", write_task(tmp_path, "t.json", payload)])
        assert code == 2 and out == ""
        assert err.startswith("clonekit: validation error:") and "exceeds the depth limit 1024" in err

    def test_at_the_limit_runs(self, tmp_path, capsys):
        task = write_task(tmp_path, "t.json", {"command": "optimize", "kind": "ncm", "alpha": 0.5, "m": 1024})
        code, out, _ = run(capsys, ["optimize", "--task", task])
        assert code == 0 and len(json.loads(out)["results"]["r_star"][0]) == 1024

    def test_sweep_point_just_past_the_limit(self, tmp_path, capsys):
        def sweep(start, stop):
            return write_task(tmp_path, "s.json", {
                "command": "sweep",
                "run": {"command": "bounds", "alpha": 0.5, "beta": 0.7, "quantities": ["discrimination_bound"]},
                "sweep": [{"name": "m", "start": start, "stop": stop, "steps": 3}]})

        code, out, _ = run(capsys, ["sweep", "--task", sweep(1022, 1024)])
        assert code == 0 and [row[0] for row in json.loads(out)["results"]["rows"]] == [1022, 1023, 1024]
        code, out, err = run(capsys, ["sweep", "--task", sweep(1023, 1025)])
        assert code == 2 and out == ""
        assert "m = 1025 exceeds the depth limit 1024" in err


class TestSynthesisBudget:
    def _task(self, tmp_path, m, **extra):
        return write_task(tmp_path, "t.json", {**SYNTH_TASK, "m": m, "r": [[0.04] * m] * 2, **extra})

    def test_deep_synthesis_within_the_budget(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["synthesize", "--task", self._task(tmp_path, 8)])
        results = json.loads(out)["results"]
        assert code == 0 and results["dimension"] == 512 * 19
        assert results["unitarity_defect"] < 1e-10

    def test_past_the_vector_budget_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, ["synthesize", "--task", self._task(tmp_path, 13)])
        assert code == 2 and out == "" and "byte budget" in err

    def test_dense_matrix_past_its_budget_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, ["synthesize", "--task", self._task(tmp_path, 7, emit_matrix=True)])
        assert code == 2 and out == "" and "byte budget" in err
