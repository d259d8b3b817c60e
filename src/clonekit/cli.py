"""Command-line front end: JSON tasks in, deterministic reports out.

Usage:

    clonekit <command> --task <file.json> [--set key=value ...]
             [--out <path>] [--format json|csv] [--tol <real>] [--seed <int>]

Commands: feasibility, optimize, decompose, compose, synthesize, simulate,
bounds, sweep, uqcm.  Reports are byte-identical for identical tasks (and
seed), every float is serialized with 17 significant digits, and a report
file can itself be passed back via --task to reproduce itself.  Exit codes:
0 success, 2 validation error, 3 infeasible input, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    OptimizationProblem,
    discrimination_bound,
    discrimination_convergence,
    duan_guo_bound,
    grid_oracle,
    ncmsi_advantage,
    optimize,
    uqcm_distance,
)
from .errors import InfeasibleError, NumericalError, ValidationError
from .machine import MachineSpec, feasible
from .protocol import compose, decompose_two_step
from .qlinalg import DEFAULT_TOL
from .states import PureState, canonical_pair, overlap
from .synthesis import _draw, exact_statistics, global_success, realize

COMMANDS = (
    "feasibility",
    "optimize",
    "decompose",
    "compose",
    "synthesize",
    "simulate",
    "bounds",
    "sweep",
    "uqcm",
)

_INT_FIELDS = {"m", "m_max", "shots", "input_index", "steps"}
_SWEEP_MAX_POINTS = 10_000


# ---------------------------------------------------------------------------
# canonical serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise NumericalError("cannot serialize a non-finite number")
    return f"{x:.17g}"


def _canonical(obj) -> str:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in items) + "}"
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def _jsonify(obj):
    """Convert numpy arrays and complex numbers to plain JSON-ready values."""
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, complex):
        return float(obj.real) if obj.imag == 0.0 else [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return _jsonify(obj.item())
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# task parsing


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(value, name: str, integer: bool = False):
    """A numeric task field: a finite float, or an int when ``integer`` (integral values only)."""
    if not _is_number(value) or (isinstance(value, float) and not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite {'integer' if integer else 'number'}, got {value!r}")
    if not integer:
        return float(value)
    if value != int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _priors(task: dict) -> tuple[float, float]:
    value = task.get("priors", [0.5, 0.5])
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"priors must be a list of two numbers, got {value!r}")
    return tuple(_number(v, "priors entry") for v in value)


def _parse_complex(value, name: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(value[0], value[1])
    raise ValidationError(f"{name} must be a number or a [re, im] pair")


def _tolerance(value, source: str) -> float:
    """A finite, positive tolerance from a flag, a task field or the environment."""
    try:
        tol = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"{source} must be a finite positive number, got {value!r}")
    return tol


def _require(task: dict, key: str):
    if not isinstance(task, dict):
        raise ValidationError(f"expected an object holding field {key!r}, got {task!r}")
    if key not in task:
        raise ValidationError(f"task is missing required field {key!r}")
    return task[key]


def _spec_from_task(d: dict, tol: float, default_kind: str | None = None) -> MachineSpec:
    kind = d.get("kind", default_kind)
    if kind is None:
        raise ValidationError("task is missing required field 'kind'")
    alpha = _parse_complex(_require(d, "alpha"), "alpha")
    beta = _parse_complex(d["beta"], "beta") if d.get("beta") is not None else None
    m = _number(_require(d, "m"), "m", integer=True)
    r = _require(d, "r")
    p = d.get("p")
    if p is not None:
        p = [_parse_complex(v, "p entry") for v in p]
    try:
        return MachineSpec(kind, alpha, beta, m, np.asarray(r, dtype=float), p)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:  # numpy coercion failures
        raise ValidationError(f"bad machine specification: {exc}") from exc


def _state_from(value, name: str) -> PureState:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{name} must be a 2-amplitude vector")
    amps = [_parse_complex(v, name) for v in value]
    try:
        return PureState(np.asarray(amps, dtype=np.complex128))
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"bad state {name}: {exc}") from exc


def _state_pair(states: dict, name: str) -> tuple[PureState, PureState]:
    raw = _require(states, name)
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValidationError(f"states.{name} must be a list of two states")
    return _state_from(raw[0], f"{name}[0]"), _state_from(raw[1], f"{name}[1]")


def _states_from_task(task: dict, spec: MachineSpec, tol: float):
    states = task.get("states")
    if states is None:
        psi = canonical_pair(spec.alpha)
        phi = canonical_pair(spec.beta) if spec.beta is not None else None
        return psi, phi
    if not isinstance(states, dict):
        raise ValidationError("task field 'states' must be an object")
    psi = _state_pair(states, "psi")
    if abs(overlap(psi[0], psi[1]) - spec.alpha) > tol:
        raise ValidationError("explicit psi states disagree with alpha beyond tolerance")
    phi = None
    if spec.kind != "ncm":
        phi = _state_pair(states, "phi")
        if abs(overlap(phi[0], phi[1]) - spec.beta) > tol:
            raise ValidationError("explicit phi states disagree with beta beyond tolerance")
    return psi, phi


def _problem_from_task(d: dict) -> OptimizationProblem:
    kind = _require(d, "kind")
    alpha = _parse_complex(_require(d, "alpha"), "alpha")
    beta = _parse_complex(d["beta"], "beta") if d.get("beta") is not None else None
    return OptimizationProblem(
        kind=kind,
        alpha=alpha,
        beta=beta,
        m=_number(_require(d, "m"), "m", integer=True),
        priors=_priors(d),
        symmetric=bool(d.get("symmetric", True)),
    )


# ---------------------------------------------------------------------------
# command handlers


def _report_feasibility(spec: MachineSpec, tol: float) -> dict:
    rep = feasible(spec, tol)
    return {
        "feasible": bool(rep.feasible),
        "det": float(rep.det),
        "slack": float(rep.slack),
        "reduced_applicable": bool(rep.reduced_applicable),
        "residual": rep.residual,
        "p_used": rep.p_used,
    }


def _cmd_feasibility(task: dict, tol: float, seed) -> dict:
    spec = _spec_from_task(task, tol)
    return _report_feasibility(spec, tol)


def _cmd_optimize(task: dict, tol: float, seed) -> dict:
    prob = _problem_from_task(task)
    resolution = task.get("oracle_resolution")
    if resolution is not None:
        resolution = _number(resolution, "oracle_resolution")
    res = optimize(prob, tol, oracle_resolution=resolution)
    return {
        "value": res.value,
        "r_star": res.r_star,
        "p_star": res.p_star,
        "oracle_value": res.oracle_value,
        "method_trace": list(res.method_trace),
    }


def _cmd_decompose(task: dict, tol: float, seed) -> dict:
    spec = _spec_from_task(task, tol, default_kind="joint")
    plan = decompose_two_step(spec, tol)
    return {
        "case": plan.case_tag,
        "root_t": plan.root_t,
        "supp_r": plan.supp.r,
        "ncm_r": plan.ncm.r,
        "composed_success": list(plan.composed_success),
        "supp_feasibility": _report_feasibility(plan.supp, tol),
        "ncm_feasibility": _report_feasibility(plan.ncm, tol),
    }


def _cmd_compose(task: dict, tol: float, seed) -> dict:
    supp = _spec_from_task(_require(task, "supp"), tol, default_kind="supplementary")
    ncm = _spec_from_task(_require(task, "ncm"), tol, default_kind="ncm")
    joint = compose(supp, ncm, tol)
    return {
        "r": joint.r,
        "sum_r": joint.sum_r,
        "p": joint.p,
        "feasibility": _report_feasibility(joint, tol),
    }


def _synthesize(task: dict, tol: float):
    spec = _spec_from_task(task, tol)
    psi, phi = _states_from_task(task, spec, tol)
    rz = realize(spec, psi, phi, tol)
    dist = exact_statistics(rz)
    results = {
        "dimension": rz.layout.total_dim,
        "unitarity_defect": rz.unitary.unitarity_defect(),
        "slot_probs": dist.slot_probs,
        "copy_fidelities": dist.copy_fidelities,
        "failure": dist.failure,
        "failure_amplitudes": rz.failure_amplitudes,
        "global_success": global_success(dist, _priors(task)),
    }
    if task.get("emit_matrix"):
        results["matrix"] = rz.matrix
    return dist, results


def _cmd_synthesize(task: dict, tol: float, seed) -> dict:
    _, results = _synthesize(task, tol)
    return results


def _cmd_simulate(task: dict, tol: float, seed) -> dict:
    if seed is None:
        raise ValidationError("simulate requires a seed (--seed or task field)")
    dist, results = _synthesize(task, tol)
    shots = _number(task.get("shots", 10000), "shots", integer=True)
    input_index = _number(task.get("input_index", 0), "input_index", integer=True)
    results["counts"] = _draw(dist, input_index, shots, seed)
    results["shots"] = shots
    results["input_index"] = input_index
    return results


_BOUND_QUANTITIES = ("duan_guo", "discrimination_bound", "advantage", "convergence", "single_slot_optimum")


def _cmd_bounds(task: dict, tol: float, seed) -> dict:
    quantities = task.get("quantities", ["duan_guo", "discrimination_bound"])
    alpha = _parse_complex(_require(task, "alpha"), "alpha")
    results: dict = {}
    for q in quantities:
        if q == "duan_guo":
            results["duan_guo"] = duan_guo_bound(abs(alpha))
        elif q == "discrimination_bound":
            beta = _parse_complex(_require(task, "beta"), "beta")
            results["discrimination_bound"] = discrimination_bound(
                abs(alpha), abs(beta), _number(task.get("m", 1), "m", integer=True),
                _number(task.get("p_m", 0.0), "p_m"),
            )
        elif q == "advantage":
            beta = _parse_complex(_require(task, "beta"), "beta")
            joint_opt, ncm_opt, delta = ncmsi_advantage(
                alpha, beta, _number(task.get("m", 1), "m", integer=True), _priors(task)
            )
            results["advantage"] = {"joint_opt": joint_opt, "ncm_opt": ncm_opt, "delta": delta}
        elif q == "convergence":
            beta = _parse_complex(_require(task, "beta"), "beta")
            m_max = _number(task.get("m_max", 8), "m_max", integer=True)
            pairs = discrimination_convergence(abs(alpha), abs(beta), m_max)
            results["convergence"] = [[m, v] for m, v in pairs]
        elif q == "single_slot_optimum":
            beta = _parse_complex(_require(task, "beta"), "beta")
            m = _number(task.get("m", 1), "m", integer=True)
            pairs = discrimination_convergence(abs(alpha), abs(beta), m)
            results["single_slot_optimum"] = pairs[-1][1]
        else:
            raise ValidationError(f"unknown bounds quantity {q!r}; pick from {_BOUND_QUANTITIES}")
    return results


def _cmd_uqcm(task: dict, tol: float, seed) -> dict:
    amps = task.get("amplitudes", [1.0, 0.0])
    if not isinstance(amps, (list, tuple)) or len(amps) != 2:
        raise ValidationError(f"amplitudes must be a list of two amplitudes, got {amps!r}")
    a = _parse_complex(amps[0], "amplitudes[0]")
    b = _parse_complex(amps[1], "amplitudes[1]")
    return {"distance": uqcm_distance(a, b)}


def _set_path(d: dict, path: str, value) -> None:
    try:
        keys = path.split(".")
        cur = d
        for key in keys[:-1]:
            if isinstance(cur, list):
                cur = cur[int(key)]
            else:
                cur = cur.setdefault(key, {})
        last = keys[-1]
        if isinstance(cur, list):
            cur[int(last)] = value
        else:
            cur[last] = value
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"cannot set task field {path!r}: {exc}") from exc


def _flatten_scalars(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_scalars(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (bool, int, float)):
        out[prefix] = obj


def _cmd_sweep(task: dict, tol: float, seed) -> dict:
    axes = _require(task, "sweep")
    if not isinstance(axes, list) or not 1 <= len(axes) <= 2:
        raise ValidationError("sweep requires one or two axis definitions")
    inner = _require(task, "run")
    inner_command = _require(inner, "command")
    if inner_command == "sweep":
        raise ValidationError("sweeps cannot nest")
    if inner_command not in COMMANDS:
        raise ValidationError(f"unknown sweep command {inner_command!r}; pick from {COMMANDS}")
    handler = _HANDLERS[inner_command]

    grids = []
    for axis in axes:
        name = _require(axis, "name")
        steps = _number(_require(axis, "steps"), "steps", integer=True)
        if not 1 <= steps <= _SWEEP_MAX_POINTS:
            raise ValidationError(f"axis {name!r} steps must lie in 1..{_SWEEP_MAX_POINTS}")
        start = _number(_require(axis, "start"), "start")
        stop = _number(_require(axis, "stop"), "stop")
        values = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
        leaf = name.split(".")[-1]
        if leaf in _INT_FIELDS:
            values = [int(round(v)) for v in values]
        else:
            values = [float(v) for v in values]
        grids.append((name, values))

    rows = []
    column_keys: list[str] | None = task.get("select")
    for combo in itertools.product(*[vals for _, vals in grids]):
        point_task = copy.deepcopy(inner)
        for (name, _), value in zip(grids, combo):
            _set_path(point_task, name, value)
        results = handler(point_task, tol, seed)
        flat: dict = {}
        _flatten_scalars("", _jsonify(results), flat)
        if column_keys is None:
            column_keys = sorted(flat)
        rows.append([*combo, *(flat.get(key) for key in column_keys)])

    rows.sort(key=lambda row: tuple(row[: len(grids)]))
    return {"columns": [name for name, _ in grids] + list(column_keys or []), "rows": rows}


_HANDLERS = {
    "feasibility": _cmd_feasibility,
    "optimize": _cmd_optimize,
    "decompose": _cmd_decompose,
    "compose": _cmd_compose,
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "uqcm": _cmd_uqcm,
}


# ---------------------------------------------------------------------------
# driver


def _parse_set(values: list[str], task: dict) -> None:
    for item in values:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_path(task, key, value)


def _load_task(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read task file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"task file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("task file must hold a JSON object")
    if "task" in data and "results" in data:
        data = data["task"]  # a previous report; reproduce it
        if not isinstance(data, dict):
            raise ValidationError("report's embedded task is not an object")
    return data


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clonekit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"clonekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} command")
        cmd.add_argument("--task", required=True, help="JSON task file (or a previous report)")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a task field (dotted paths allowed)")
        cmd.add_argument("--out", default=None, help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default=None)
        cmd.add_argument("--tol", type=float, default=None, help="numerical tolerance")
        cmd.add_argument("--seed", type=int, default=None, help="seed for sampling commands")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        task = _load_task(args.task)
        _parse_set(args.set, task)

        declared = task.get("command")
        if declared is not None and declared != args.command:
            raise ValidationError(
                f"task declares command {declared!r} but {args.command!r} was requested"
            )

        if args.tol is not None:
            tol = _tolerance(args.tol, "--tol")
        elif "tolerance" in task:
            tol = _tolerance(task["tolerance"], "task field 'tolerance'")
        elif os.environ.get("CLONEKIT_TOL"):
            tol = _tolerance(os.environ["CLONEKIT_TOL"], "CLONEKIT_TOL")
        else:
            tol = DEFAULT_TOL
        seed = args.seed if args.seed is not None else task.get("seed")
        if seed is not None:
            seed = _number(seed, "seed", integer=True)
            if seed < 0:
                raise ValidationError(f"seed must be a nonnegative integer, got {seed}")

        task["command"] = args.command
        task["tolerance"] = tol
        if seed is not None:
            task["seed"] = seed

        # Flags beat the task's own output block.
        output = task.get("output") or {}
        if not isinstance(output, dict):
            raise ValidationError("task field 'output' must be an object")
        out_path = args.out if args.out is not None else output.get("path")
        fmt = args.format if args.format is not None else output.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ValidationError(f"unknown output format {fmt!r}")

        results = _HANDLERS[args.command](task, tol, seed)

        if fmt == "csv":
            if args.command != "sweep":
                raise ValidationError("csv output is only available for sweep tables")
            header = ",".join(results["columns"])
            lines = [header] + [",".join(_csv_cell(v) for v in row) for row in _jsonify(results)["rows"]]
            _emit("\n".join(lines) + "\n", out_path)
        else:
            report = {
                "task": task,
                "results": results,
                "tool_version": __version__,
                "tolerance": tol,
                "seed": seed,
            }
            _emit(_canonical(_jsonify(report)) + "\n", out_path)
        return 0
    except ValidationError as exc:
        print(f"clonekit: validation error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"clonekit: infeasible input: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"clonekit: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
