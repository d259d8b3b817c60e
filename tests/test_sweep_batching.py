"""Batched sweeps: every point solved in one stack, with the rows and errors of single commands."""

import copy
import os
import sys

import pytest

import clonekit.analysis
import clonekit.cli
import clonekit.machine
import clonekit.protocol
from helpers import check_sweep_against_points, run_cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "clonebench"))
import generate  # noqa: E402  (the benchmark's task generator; it never imports clonekit)

JOINT = {"command": "decompose", "kind": "joint", "alpha": 0.5, "beta": 0.9, "m": 1, "r": [[0.5], [0.5]]}


def axis(name, start, stop, steps):
    return {"name": name, "start": start, "stop": stop, "steps": steps}


def sweep(run, *axes, **extra):
    return {"command": "sweep", "run": run, "sweep": list(axes), **extra}


class TestRowsMatchSingleCommands:
    def test_generated_boundary_sweeps(self, tmp_path):
        records = generate.generate("boundary_sweeps", 11, 1)
        checked = 0
        for rec in records:
            if rec["command"] == "sweep":
                assert check_sweep_against_points(tmp_path, rec["task"])[0] == 0
                checked += 1
        assert checked >= 19

    @pytest.mark.parametrize("task", [
        sweep({"command": "feasibility", "kind": "joint", "alpha": [0.3, 0.2], "beta": 0.8, "m": 2,
               "r": [[0.3, 0.1], [0.2, 0.2]]}, axis("r.0.0", 0.0, 0.6, 4), axis("beta", 0.5, 1.0, 3)),
        sweep({"command": "feasibility", "kind": "supplementary", "alpha": 0.4, "beta": 0.7, "m": 2,
               "r": [[0.3, 0.1], [0.2, 0.2]], "p": [0.5, [0.0, 0.9]]}, axis("p.0", -1.0, 1.0, 5)),
        sweep(JOINT, axis("alpha", 0.1, 0.6, 3), axis("beta", 0.5, 0.95, 4)),
        sweep({**JOINT, "r": [[0.05, 0.02, 0.01], [0.04, 0.03, 0.0]], "m": 3}, axis("beta", 0.0, 0.9, 6)),
        sweep({"command": "optimize", "kind": "joint", "alpha": 0.3, "beta": 0.6, "m": 1},
              axis("m", 1, 4, 4), axis("alpha", 0.1, 0.9, 3)),
        sweep({"command": "optimize", "kind": "ncm", "alpha": 0.3, "m": 2, "symmetric": False,
               "priors": [0.7, 0.3]}, axis("alpha", 0.2, 0.6, 2)),
        sweep({"command": "optimize", "kind": "supplementary", "alpha": 0.3, "beta": 0.6, "m": 1,
               "oracle_resolution": 0.01}, axis("beta", 0.2, 0.6, 3)),
        sweep({"command": "bounds", "alpha": 0.3, "beta": 0.6, "m": 1,
               "quantities": ["duan_guo", "advantage", "single_slot_optimum", "convergence"], "m_max": 3},
              axis("m", 1, 3, 3), axis("alpha", 0.1, 0.8, 3)),
        sweep({"command": "bounds", "alpha": 0.3, "beta": 0.6, "priors": [0.6, 0.4],
               "quantities": ["advantage", "discrimination_bound"]}, axis("beta", 0.1, 0.9, 4)),
    ], ids=["feasibility-2d", "feasibility-probes", "decompose-2d", "decompose-case1", "optimize-m-axis",
            "optimize-asymmetric", "optimize-oracle", "bounds-m-axis", "bounds-priors"])
    def test_hand_written_sweeps(self, tmp_path, task):
        assert check_sweep_against_points(tmp_path, task)[0] == 0


class TestErrorsMatchSingleCommands:
    """A sweep fails with the code and stderr line of its first failing point in product order."""

    @pytest.mark.parametrize("task,code", [
        # malformed (exit 2): first, last, and a middle point of a 2-axis sweep
        (sweep(JOINT, axis("beta", 1.1, 0.9, 5)), 2),
        (sweep(JOINT, axis("beta", 0.9, 1.1, 5)), 2),
        (sweep(JOINT, axis("alpha", 0.3, 0.6, 2), axis("beta", 0.9, 1.1, 5)), 2),
        # a point in another (kind, m) group fails first, and one whose fields do not parse
        (sweep(JOINT, axis("beta", 0.9, 1.1, 5), axis("m", 1, 2, 2)), 2),
        (sweep(JOINT, axis("m", 1, 2, 2), axis("beta", 0.9, 1.1, 5)), 2),
        (sweep(JOINT, axis("r.0", 0.2, 0.4, 2)), 2),
        (sweep({**JOINT, "r": [[0.5], [0.5], [0.1]]}, axis("beta", 0.8, 0.9, 3)), 2),
        (sweep({**JOINT, "p": 5}, axis("beta", 0.8, 0.9, 3)), 2),
        # huge overlaps on faulted rows leave no numpy warning in stderr
        (sweep({**JOINT, "command": "feasibility", "m": 2, "r": [[0.1, 0.1], [0.1, 0.1]]},
               axis("alpha", 0.5, 1e200, 3)), 2),
        (sweep(JOINT, axis("alpha", 0.5, 1e200, 3)), 2),
        (sweep(JOINT, axis("beta", 0.9, 1e300, 2), axis("alpha", 0.5, 1e300, 2)), 2),
        # infeasible (exit 3): the joint machine leaves the feasible set mid-sweep
        (sweep(JOINT, axis("r.0.0", 0.5, 0.99, 5)), 3),
        (sweep(JOINT, axis("r.1.0", 0.99, 0.5, 5)), 3),
        (sweep(JOINT, axis("alpha", 0.3, 0.6, 2), axis("r.0.0", 0.5, 0.99, 3)), 3),
        # an infeasible point before a malformed one, and the reverse
        (sweep(JOINT, axis("r.0.0", 0.9, 0.99, 2), axis("beta", 0.9, 1.1, 3)), 3),
        (sweep(JOINT, axis("beta", 1.1, 0.9, 3), axis("r.0.0", 0.9, 0.99, 2)), 2),
        # numerical failure (exit 4): a degenerate discrimination bound
        (sweep({"command": "bounds", "alpha": 1.0, "beta": 0.5, "quantities": ["discrimination_bound"]},
               axis("p_m", 0.5, 1.0, 3)), 4),
        (sweep({"command": "bounds", "alpha": 1.0, "beta": 0.5, "quantities": ["discrimination_bound"]},
               axis("p_m", 1.0, 0.5, 3)), 4),
        (sweep({"command": "bounds", "alpha": 1.0, "beta": 0.5, "quantities": ["advantage", "discrimination_bound"]},
               axis("p_m", 0.5, 1.0, 2), axis("beta", 0.5, 1.5, 3)), 2),
        (sweep({"command": "bounds", "alpha": 0.5, "beta": 0.5, "quantities": ["single_slot_optimum"]},
               axis("m", 2, 0, 3)), 2),
        (sweep({"command": "optimize", "kind": "ncm", "alpha": 0.5, "m": 1, "oracle_resolution": 0.1},
               axis("oracle_resolution", 0.1, -0.1, 3)), 2),
    ])
    def test_first_failing_point_wins(self, tmp_path, task, code):
        assert check_sweep_against_points(tmp_path, task)[0] == code


def _count_core_calls(monkeypatch) -> list:
    calls: list = []
    real = clonekit.machine.feasibility_core

    def counting(kind, *args, **kwargs):
        calls.append(kind)
        return real(kind, *args, **kwargs)

    for module in (clonekit.machine, clonekit.protocol, clonekit.analysis, clonekit.cli):
        monkeypatch.setattr(module, "feasibility_core", counting)
    return calls


class TestCoreCalls:
    def test_single_decompose_makes_three(self, tmp_path, monkeypatch):
        calls = _count_core_calls(monkeypatch)
        path = tmp_path / "t.json"
        path.write_text(clonekit.cli.json.dumps(JOINT))
        assert run_cli(["decompose", "--task", str(path)])[0] == 0
        assert calls == ["joint", "supplementary", "ncm"]

    def test_twelve_point_decompose_sweep_makes_three(self, tmp_path, monkeypatch):
        calls = _count_core_calls(monkeypatch)
        path = tmp_path / "t.json"
        path.write_text(clonekit.cli.json.dumps(sweep(JOINT, axis("alpha", 0.3, 0.5, 3), axis("beta", 0.8, 0.95, 4))))
        code, out, err = run_cli(["sweep", "--task", str(path)])
        assert code == 0, err
        assert len(clonekit.cli.json.loads(out)["results"]["rows"]) == 12
        assert calls == ["joint", "supplementary", "ncm"]


def _break_row(monkeypatch, module, kind: str, row: int, field: str, value: float) -> None:
    """Make one row of every ``kind`` batch that ``module`` builds report ``field`` = value."""
    real = clonekit.machine.feasibility_core

    def broken(k, *args, **kwargs):
        batch = real(k, *args, **kwargs)
        if k == kind and len(batch) > row:
            arr = getattr(batch, field).copy()
            arr[row] = value
            batch = copy.copy(batch)
            setattr(batch, field, arr)
        return batch

    monkeypatch.setattr(module, "feasibility_core", broken)


class TestAssertionsRunPerPoint:
    """Each point keeps every assertion of its single command: break one row, and that point fails."""

    @pytest.mark.parametrize("task,module,kind,field,value,message", [
        (sweep(JOINT, axis("beta", 0.8, 0.9, 5)), clonekit.protocol, "supplementary", "det", -1.0,
         "decomposition produced an infeasible member"),
        (sweep(JOINT, axis("beta", 0.8, 0.9, 5)), clonekit.protocol, "ncm", "det", -1.0,
         "decomposition produced an infeasible member"),
        (sweep(JOINT, axis("beta", 0.8, 0.9, 5)), clonekit.protocol, "ncm", "sums", 0.0,
         "two-step success fell below the joint machine's"),
        (sweep({"command": "optimize", "kind": "ncm", "alpha": 0.3, "m": 1}, axis("alpha", 0.1, 0.5, 5)),
         clonekit.analysis, "ncm", "det", -1.0, "optimizer returned an infeasible point"),
        (sweep({"command": "bounds", "alpha": 0.3, "beta": 0.6, "quantities": ["advantage"]},
               axis("alpha", 0.1, 0.5, 5)), clonekit.analysis, "joint", "det", -1.0,
         "optimizer returned an infeasible point"),
        (sweep({"command": "bounds", "alpha": 0.3, "beta": 0.6, "m": 2, "quantities": ["single_slot_optimum"]},
               axis("alpha", 0.1, 0.5, 5)), clonekit.analysis, "joint", "det", -1.0,
         "single-slot optimum failed the feasibility assertion"),
    ])
    def test_broken_row_fails_its_point(self, tmp_path, monkeypatch, task, module, kind, field, value, message):
        path = tmp_path / "t.json"
        path.write_text(clonekit.cli.json.dumps(task))
        assert run_cli(["sweep", "--task", str(path)])[0] == 0
        _break_row(monkeypatch, module, kind, 2, field, value)
        code, _, err = run_cli(["sweep", "--task", str(path)])
        assert code == 4 and err == f"clonekit: numerical failure: {message}\n"


class TestPointBuilding:
    def test_inner_task_is_not_mutated(self, tmp_path):
        inner = {**JOINT, "r": [[0.5], [0.5]]}
        point = clonekit.cli._point_task(inner, [("r.0.0", None), ("beta", None)], (0.1, 0.7))
        assert point["r"] == [[0.1], [0.5]] and point["beta"] == 0.7
        assert inner == JOINT and inner["r"][1] is point["r"][1]

    def test_chunks_keep_product_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(clonekit.cli, "_SWEEP_CHUNK", 4)
        task = sweep(JOINT, axis("alpha", 0.3, 0.6, 3), axis("beta", 0.8, 1.1, 4))
        assert check_sweep_against_points(tmp_path, task)[0] == 2
        task = sweep(JOINT, axis("alpha", 0.3, 0.6, 3), axis("beta", 0.8, 0.95, 3))
        assert check_sweep_against_points(tmp_path, task)[0] == 0


class TestMalformedSweepFields:
    @pytest.mark.parametrize("task", [
        sweep(JOINT, axis(5, 0.8, 0.9, 2)),
        sweep(JOINT, axis("beta", 0.8, 0.9, 2), select=5),
        sweep(JOINT, axis("beta", 0.8, 0.9, 2), select=[["case"]]),
        sweep({"command": "bounds", "alpha": 0.5, "beta": 0.5, "quantities": 5}, axis("beta", 0.1, 0.2, 2)),
    ], ids=["axis-name", "select-number", "select-unhashable", "quantities-number"])
    def test_exit_2(self, tmp_path, task):
        path = tmp_path / "t.json"
        path.write_text(clonekit.cli.json.dumps(task))
        code, _, err = run_cli(["sweep", "--task", str(path)])
        assert code == 2 and err.startswith("clonekit: validation error:")

    @pytest.mark.parametrize("select,fmt", [
        ("root_t", "json"),  # a string, not a list holding one name
        ([1, 2], "csv"),  # numbers cannot head CSV columns
        ([1, 2], "json"),
        ({"root_t": 1}, "csv"),
    ], ids=["string", "numbers-csv", "numbers-json", "object-csv"])
    def test_select_is_a_list_of_names(self, tmp_path, select, fmt):
        path = tmp_path / "t.json"
        path.write_text(clonekit.cli.json.dumps(sweep(JOINT, axis("beta", 0.8, 0.9, 2), select=select)))
        code, out, err = run_cli(["sweep", "--task", str(path), "--format", fmt])
        assert (code, out) == (2, "")
        assert err == f"clonekit: validation error: select must be a list of column names, got {select!r}\n"

    def test_bad_select_wins_over_a_failing_point(self, tmp_path):
        # select is checked once, before any point runs; the first point here is malformed
        path = tmp_path / "t.json"
        path.write_text(clonekit.cli.json.dumps(sweep(JOINT, axis("beta", 1.1, 0.9, 3), select="root_t")))
        code, _, err = run_cli(["sweep", "--task", str(path)])
        assert (code, err) == (2, "clonekit: validation error: select must be a list of column names, got 'root_t'\n")
