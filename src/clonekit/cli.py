"""Command-line front end: JSON tasks in, deterministic reports out.

Usage:

    clonekit <command> --task <file.json> [--set key=value ...]
             [--out <path>] [--format json|csv] [--tol <real>] [--seed <int>]

Commands: feasibility, optimize, decompose, compose, synthesize, simulate,
bounds, sweep, uqcm.  Reports are byte-identical for identical tasks (and
seed), every float is serialized with 17 significant digits, and a report
file can itself be passed back via --task to reproduce itself.  Exit codes:
0 success, 2 validation error, 3 infeasible input, 4 numerical failure.
A depth ``m`` or ``m_max`` above ``_MAX_DEPTH`` (1024) exits 2, as do a
simulate ``shots`` above ``_MAX_SHOTS`` (2**63 - 1) and a synthesis past the
byte budgets of clonekit.synthesis.  A NaN or infinite number in a task field
that the command does not read exits 2 when the report echoes the task.

Every command handler takes a list of point tasks and returns one
columnar result (:class:`Columns`): a per-row error list and, for each
report field, a dotted name with N values.  A plain command is a list of
one and renders row 0 into its nested report.  A sweep hands its handler
all its points (in chunks of ``_SWEEP_CHUNK``) and reads whole scalar
columns; feasibility, decompose and compose take them straight from the
core's arrays, with no per-point spec, report or dict.  Feasibility,
decompose, compose, optimize (symmetric or not) and bounds solve the list
with one feasibility-core call per group of machines that stack: a group
of compose tasks makes three (the supplementary members, the ncm members,
the joint machines).  Only synthesize, simulate and uqcm run one point at
a time.
A sweep row therefore equals the row made from that point's own report.
Its columns are the sorted scalar leaves of the first point's report
(bool, int, float, and complex with imaginary part 0, written as a float),
or the ``select`` list of names; a cell without such a value reads null.
``select`` is checked before any point runs; after that a failing sweep
raises the error of its first failing point in product order, as the
point would alone.  The argument parser is built once per process, and
arrays are serialized one last-axis row at a time.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import InfeasibleError, NumericalError, ValidationError, capture, unwrap
from .machine import MachineSpec, feasibility_core
from .qlinalg import DEFAULT_TOL
from .states import PureState, canonical_pair

# The analysis, protocol and synthesis modules are imported inside the
# handlers that use them, so one process loads only what its command runs.

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
# Largest copy depth m (and bounds m_max) a task may ask for: it bounds the
# size of inputs and reports, since a depth-m task or report carries O(m)
# numbers (convergence costs O(m_max)); synthesis stops earlier, at
# synthesis.VECTOR_BYTES_BUDGET.
_MAX_DEPTH = 1024
# Largest simulate shot count: the sampler draws 64-bit integer counts.
_MAX_SHOTS = 2**63 - 1
# Sweep points per list-handler call (the grid oracle's chunk); keeps the
# stacks of a 2-axis sweep flat.
_SWEEP_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# canonical serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise NumericalError("cannot serialize a non-finite number")
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    """A complex number; a real one is written as a plain number."""
    return _fmt_float(z.real) if z.imag == 0.0 else f"[{_fmt_float(z.real)},{_fmt_float(z.imag)}]"


def _fmt_list(seq) -> str:
    return "[" + ",".join([_canonical(v) for v in seq]) + "]"


# What json.dumps(str) returns with its default arguments.
_fmt_str = json.encoder.encode_basestring_ascii


def _fmt_dict(obj: dict) -> str:
    items = sorted(obj.items(), key=lambda kv: kv[0])
    return "{" + ",".join([f"{_fmt_str(str(k))}:{_canonical(v)}" for k, v in items]) + "}"


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _canonical(obj) -> str:
    writer = _WRITERS.get(type(obj))
    if writer is not None:
        return writer(obj)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return _fmt_bool(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return _fmt_complex(obj)
    if isinstance(obj, str):
        return _fmt_str(obj)
    if isinstance(obj, np.ndarray):
        return _canonical_array(obj)
    if isinstance(obj, (list, tuple)):
        return _fmt_list(obj)
    if isinstance(obj, dict):
        return _fmt_dict(obj)
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def _canonical_array(arr: np.ndarray) -> str:
    """A float or complex array, every entry formatted as _canonical formats it."""
    if arr.dtype.kind not in "fc" or arr.ndim == 0 or arr.size == 0:
        return _canonical(arr.tolist())
    if not np.isfinite(arr).all():
        raise NumericalError("cannot serialize a non-finite number")
    return _array_rows(arr)


def _array_rows(arr: np.ndarray) -> str:
    """A finite array, recursing on the leading axis and formatting one last-axis row per join."""
    if arr.ndim > 1:
        return "[" + ",".join([_array_rows(sub) for sub in arr]) + "]"
    if arr.dtype.kind == "f":
        return "[" + ",".join([f"{x:.17g}" for x in arr.tolist()]) + "]"
    return "[" + ",".join([f"{x:.17g}" if y == 0.0 else f"[{x:.17g},{y:.17g}]"
                           for x, y in zip(arr.real.tolist(), arr.imag.tolist())]) + "]"


# The writer of each exact type a report holds; any other type, such as a
# subclass or another numpy scalar, goes through _canonical's isinstance chain.
_WRITERS = {
    float: _fmt_float,
    int: str,
    bool: _fmt_bool,
    str: _fmt_str,
    type(None): lambda _: "null",
    complex: _fmt_complex,
    list: _fmt_list,
    tuple: _fmt_list,
    dict: _fmt_dict,
    np.ndarray: _canonical_array,
    np.float64: lambda x: _fmt_float(float(x)),
    np.bool_: _fmt_bool,
}


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


def _depth(value, name: str) -> int:
    """An integer depth field (m or m_max) of at most _MAX_DEPTH; the solvers check the lower end."""
    depth = _number(value, name, integer=True)
    if depth > _MAX_DEPTH:
        raise ValidationError(f"{name} = {depth} exceeds the depth limit {_MAX_DEPTH}")
    return depth


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


def _states_from_task(task: dict, spec: MachineSpec):
    """The task's explicit states, or canonical ones; realize checks their overlaps against the spec."""
    states = task.get("states")
    if states is None:
        psi = canonical_pair(spec.alpha)
        phi = canonical_pair(spec.beta) if spec.beta is not None else None
        return psi, phi
    if not isinstance(states, dict):
        raise ValidationError("task field 'states' must be an object")
    return _state_pair(states, "psi"), None if spec.kind == "ncm" else _state_pair(states, "phi")


def _problem_from_task(d: dict) -> OptimizationProblem:
    from .analysis import OptimizationProblem

    kind = _require(d, "kind")
    alpha = _parse_complex(_require(d, "alpha"), "alpha")
    beta = _parse_complex(d["beta"], "beta") if d.get("beta") is not None else None
    return OptimizationProblem(
        kind=kind,
        alpha=alpha,
        beta=beta,
        m=_depth(_require(d, "m"), "m"),
        priors=_priors(d),
        symmetric=bool(d.get("symmetric", True)),
    )


# ---------------------------------------------------------------------------
# command handlers
#
# Every handler takes a list of point tasks and returns one Columns: each
# task's error (the exception it raises on its own, see clonekit.errors), and
# the results of the others as columns.  A plain command is a list of one
# and renders its row; a sweep passes all its points at once and reads whole
# scalar columns.  feasibility, decompose, compose, optimize and bounds solve
# the whole list with one feasibility-core call per group of machines that
# stack.

def _cell(value):
    """A value as a sweep cell: bool, int or float, a real complex as a float, else None."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return float(value.real) if value.imag == 0.0 else None
    return value if isinstance(value, (bool, int, float)) else None


class Columns:
    """The results of N tasks: a per-row error list, and each report field as a dotted name with N values.

    ``errors[i]`` is None or row i's exception.  The other rows' results
    come in blocks ``(rows, report, scalars)``, one per batch a handler
    solved.  ``report(j)`` is the nested report of the block's j-th row, as
    a plain command prints it (:meth:`row`).  ``scalars()`` maps the dotted
    name of each field that can be a scalar cell to its values over the
    block's rows: an array, or a list holding None where a row lacks the
    field; a field that never is a scalar may be left out.  A sweep reads
    whole columns from it (:meth:`scalar_names`, :meth:`columns`) and builds
    no per-row report.  Values of rows with an error are meaningless.
    """

    __slots__ = ("errors", "blocks", "_every")

    def __init__(self, n: int):
        self.errors: list = [None] * n
        self.blocks: list = []
        self._every = None

    def put(self, rows, report, scalars) -> None:
        self.blocks.append((rows, report, scalars))

    def row(self, i: int):
        """Row i's outcome: its error, or its nested report."""
        if self.errors[i] is not None:
            return self.errors[i]
        for rows, report, _ in self.blocks:
            if i in rows:
                return report(rows.index(i))

    def _scalars(self) -> list:
        """(rows, scalars()) per block, each evaluated once."""
        if self._every is None:
            self._every = [(rows, scalars()) for rows, _, scalars in self.blocks]
        return self._every

    def scalar_names(self, i: int) -> list:
        """The sorted names of row i's scalar fields (see :func:`_cell`)."""
        rows, scalars = next(block for block in self._scalars() if i in block[0])
        j = rows.index(i)
        return sorted(name for name, values in scalars.items() if _cell(values[j]) is not None)

    def columns(self, names: list) -> list:
        """Each field of ``names`` as one cell per row (see :func:`_cell`); None where a row has no such scalar."""
        table = [[None] * len(self.errors) for _ in names]
        for rows, scalars in self._scalars():
            for cells, name in zip(table, names):
                values = scalars.get(name)
                if isinstance(values, np.ndarray):
                    if values.ndim != 1 or values.dtype.kind not in "biufc":
                        continue
                    values = [_cell(v) for v in values.tolist()] if values.dtype.kind == "c" else values.tolist()
                elif values is None:
                    continue
                else:
                    values = [_cell(v) for v in values]
                if len(rows) == len(cells):  # one block holding every row, in order
                    cells[:] = values
                else:
                    for i, value in zip(rows, values):
                        cells[i] = value
        return table


def _leaves(report: dict, prefix: str, out: dict) -> dict:
    """Every value of a nested report that is not a dict, under its dotted name."""
    for key, value in report.items():
        if isinstance(value, dict):
            _leaves(value, f"{prefix}{key}.", out)
        else:
            out[f"{prefix}{key}"] = value
    return out


def _gather(outcomes: list) -> Columns:
    """The Columns of per-row outcomes: an exception, or the results dict."""
    res = Columns(len(outcomes))
    rows, reports = [], []
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            res.errors[i] = outcome
        else:
            rows.append(i)
            reports.append(outcome)

    def scalars() -> dict:
        leaves = [_leaves(report, "", {}) for report in reports]
        return {name: [leaf.get(name) for leaf in leaves] for name in dict.fromkeys(n for leaf in leaves for n in leaf)}

    res.put(rows, reports.__getitem__, scalars)
    return res


def _each(fn):
    """A list handler that runs ``fn(task, tol, seed)`` on one point at a time."""

    def handler(tasks: list, tol: float, seed) -> Columns:
        return _gather([capture(fn, task, tol, seed) for task in tasks])

    return handler


def _machine_fields(d: dict, default_kind: str | None = None) -> tuple:
    """(kind, alpha, beta, m, r, p) of a machine task, parsed but not yet validated."""
    if not isinstance(d, dict):
        raise ValidationError(f"a machine must be an object of fields, got {d!r}")
    kind = d.get("kind", default_kind)
    if kind is None:
        raise ValidationError("task is missing required field 'kind'")
    alpha = _parse_complex(_require(d, "alpha"), "alpha")
    beta = _parse_complex(d["beta"], "beta") if d.get("beta") is not None else None
    m = _depth(_require(d, "m"), "m")
    r = _require(d, "r")
    p = d.get("p")
    if p is not None:
        try:
            p = list(p)
        except TypeError:
            raise ValidationError(f"p must be a list of probe overlaps, got {p!r}") from None
        p = [_parse_complex(v, "p entry") for v in p]
    try:
        r = np.asarray(r, dtype=float)
    except (TypeError, ValueError) as exc:  # numpy coercion failures
        raise ValidationError(f"bad machine specification: {exc}") from exc
    return kind, alpha, beta, m, r, p


def _spec_from_task(d: dict, default_kind: str | None = None) -> MachineSpec:
    kind, alpha, beta, m, r, p = _machine_fields(d, default_kind)
    return MachineSpec(kind, alpha, beta, m, r, p)


def _stack_key(fields: tuple) -> tuple:
    """Parsed machines with equal keys stack into one core call: (kind, m, the shapes of r and p, beta given)."""
    kind, _, beta, m, r, p = fields
    return repr(kind), m, r.shape, beta is None, None if p is None else len(p)


def _stacked(fields: list):
    """One feasibility-core call on parsed machines of one :func:`_stack_key`."""
    kind, _, beta, m, _, p = fields[0]
    column = list(zip(*fields))
    return feasibility_core(
        kind, column[1], None if beta is None else column[2], m, np.stack(column[4]),
        None if p is None else np.array(column[5], dtype=np.complex128).reshape(len(fields), -1),
    )


def _machine_batches(tasks: list, out: list, default_kind: str | None = None):
    """(rows, batch) per group of machine tasks that stack: one feasibility-core call each.

    A task whose fields do not parse gets its error in ``out`` instead.
    """
    groups: dict = {}
    for i, task in enumerate(tasks):
        try:
            fields = _machine_fields(task, default_kind)
        except Exception as exc:
            out[i] = exc
            continue
        groups.setdefault(_stack_key(fields), []).append((i, fields))
    for members in groups.values():
        yield [i for i, _ in members], _stacked([fields for _, fields in members])


def _report_feasibility(rep) -> dict:
    return {
        "feasible": bool(rep.feasible),
        "det": float(rep.det),
        "slack": float(rep.slack),
        "reduced_applicable": bool(rep.reduced_applicable),
        "residual": rep.residual,
        "p_used": rep.p_used,
    }


def _prefixed(prefix: str, fields: dict) -> dict:
    return {prefix + name: values for name, values in fields.items()}


def _cmd_feasibility(tasks: list, tol: float, seed) -> Columns:
    res = Columns(len(tasks))
    for rows, batch in _machine_batches(tasks, res.errors):
        for j in batch.fault.nonzero()[0].tolist():
            res.errors[rows[j]] = batch.error(j)
        if batch.det is not None:
            res.put(rows, lambda j, batch=batch: _report_feasibility(batch.report(j, tol)),
                    lambda batch=batch: batch.report_scalars(tol))
    return res


def _cmd_optimize(tasks: list, tol: float, seed) -> Columns:
    from .analysis import optimize_many

    out: list = [None] * len(tasks)
    rows, probs, resolutions = [], [], []
    for i, task in enumerate(tasks):
        try:
            prob = _problem_from_task(task)
            resolution = task.get("oracle_resolution")
            if resolution is not None:
                resolution = _number(resolution, "oracle_resolution")
        except Exception as exc:
            out[i] = exc
            continue
        rows.append(i)
        probs.append(prob)
        resolutions.append(resolution)
    for i, res in zip(rows, optimize_many(probs, tol, resolutions)):
        out[i] = res if isinstance(res, Exception) else {
            "value": res.value,
            "r_star": res.r_star,
            "p_star": res.p_star,
            "oracle_value": res.oracle_value,
            "method_trace": list(res.method_trace),
        }
    return _gather(out)


def _plan_results(plan) -> dict:
    return {
        "case": plan.case_tag,
        "root_t": plan.root_t,
        "supp_r": plan.supp.r,
        "ncm_r": plan.ncm.r,
        "composed_success": list(plan.composed_success),
        "supp_feasibility": _report_feasibility(plan.supp_report),
        "ncm_feasibility": _report_feasibility(plan.ncm_report),
    }


def _cmd_decompose(tasks: list, tol: float, seed) -> Columns:
    from .protocol import decompose_arrays

    res = Columns(len(tasks))
    for rows, batch in _machine_batches(tasks, res.errors, default_kind="joint"):
        two = decompose_arrays(batch, tol)
        for i, error in zip(rows, two.errors):
            if error is not None:
                res.errors[i] = error
        if two.supp is not None:
            res.put(rows, lambda j, two=two: _plan_results(two.plan(j)), lambda two=two: {
                "root_t": two.root_t,
                **_prefixed("supp_feasibility.", two.supp.report_scalars(tol)),
                **_prefixed("ncm_feasibility.", two.ncm.report_scalars(tol)),
            })
    return res


def _compose_results(joint, j: int, tol: float) -> dict:
    r = joint.r[j]
    return {
        "r": r,
        "sum_r": r.sum(axis=1),
        "p": joint.p[j],
        "feasibility": _report_feasibility(joint.report(j, tol)),
    }


def _cmd_compose(tasks: list, tol: float, seed) -> Columns:
    """Compose tasks grouped by the stack keys of both members: three core calls per group."""
    from .protocol import compose_arrays

    res = Columns(len(tasks))
    groups: dict = {}
    for i, task in enumerate(tasks):
        try:
            supp = _machine_fields(_require(task, "supp"), "supplementary")
        except Exception as exc:
            res.errors[i] = exc
            continue
        try:
            ncm = _machine_fields(_require(task, "ncm"), "ncm")
        except Exception as exc:  # the supp member's own validation fault comes first
            fault = capture(MachineSpec, *supp)
            res.errors[i] = fault if isinstance(fault, Exception) else exc
            continue
        groups.setdefault((_stack_key(supp), _stack_key(ncm)), []).append((i, supp, ncm))
    for members in groups.values():
        rows, supps, ncms = (list(column) for column in zip(*members))
        errors, joint = compose_arrays(_stacked(supps), _stacked(ncms), tol)
        for i, error in zip(rows, errors):
            if error is not None:
                res.errors[i] = error
        if joint is not None:
            res.put(rows, lambda j, joint=joint: _compose_results(joint, j, tol),
                    lambda joint=joint: _prefixed("feasibility.", joint.report_scalars(tol)))
    return res


def _synthesize(task: dict, tol: float):
    from .synthesis import exact_statistics, global_success, realize

    spec = _spec_from_task(task)
    psi, phi = _states_from_task(task, spec)
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


@_each
def _cmd_synthesize(task: dict, tol: float, seed) -> dict:
    _, results = _synthesize(task, tol)
    return results


@_each
def _cmd_simulate(task: dict, tol: float, seed) -> dict:
    from .synthesis import _draw

    if seed is None:
        raise ValidationError("simulate requires a seed (--seed or task field)")
    dist, results = _synthesize(task, tol)
    shots = _number(task.get("shots", 10000), "shots", integer=True)
    if shots > _MAX_SHOTS:
        raise ValidationError(f"shots = {shots} exceeds the limit {_MAX_SHOTS}")
    input_index = _number(task.get("input_index", 0), "input_index", integer=True)
    results["counts"] = _draw(dist, input_index, shots, seed)
    results["shots"] = shots
    results["input_index"] = input_index
    return results


_BOUND_QUANTITIES = ("duan_guo", "discrimination_bound", "advantage", "convergence", "single_slot_optimum")


def _bound_overlap(task: dict, name: str) -> complex:
    """A bounds task's finite overlap field, rejected as the machine core rejects a non-finite one."""
    value = _parse_complex(_require(task, name), name)
    if not cmath.isfinite(value):
        raise ValidationError(f"{name} is non-finite")
    return value


def _bound_items(task: dict, advantage: list, slots: list) -> list:
    """(quantity, value) per requested quantity, in order.

    Closed forms are computed on the spot.  The advantage and the
    single-slot optima are queued in ``advantage`` and ``slots`` for one
    batched solve, and their value here is the queue position.  A quantity
    that fails to parse or compute ends the list with its exception.
    """
    from .analysis import discrimination_bound, duan_guo_bound

    items: list = []
    try:
        quantities = task.get("quantities", ["duan_guo", "discrimination_bound"])
        alpha = _bound_overlap(task, "alpha")
        try:
            quantities = list(quantities)
        except TypeError:
            raise ValidationError(f"quantities must be a list of names, got {quantities!r}") from None
        for q in quantities:
            if q == "duan_guo":
                items.append((q, duan_guo_bound(abs(alpha))))
            elif q == "discrimination_bound":
                beta = _bound_overlap(task, "beta")
                items.append((q, discrimination_bound(
                    abs(alpha), abs(beta), _depth(task.get("m", 1), "m"),
                    _number(task.get("p_m", 0.0), "p_m"),
                )))
            elif q == "advantage":
                beta = _bound_overlap(task, "beta")
                request = (alpha, beta, _depth(task.get("m", 1), "m"), _priors(task))
                items.append((q, len(advantage)))
                advantage.append(request)
            elif q == "convergence":
                beta = _bound_overlap(task, "beta")
                request = (abs(alpha), abs(beta), _depth(task.get("m_max", 8), "m_max"))
                items.append((q, len(slots)))
                slots.append(request)
            elif q == "single_slot_optimum":
                beta = _bound_overlap(task, "beta")
                request = (abs(alpha), abs(beta), _depth(task.get("m", 1), "m"))
                items.append((q, len(slots)))
                slots.append(request)
            else:
                raise ValidationError(f"unknown bounds quantity {q!r}; pick from {_BOUND_QUANTITIES}")
    except Exception as exc:
        items.append((None, exc))
    return items


def _cmd_bounds(tasks: list, tol: float, seed) -> Columns:
    from .analysis import discrimination_convergence_many, ncmsi_advantage_many

    advantage: list = []
    slots: list = []
    plans = [_bound_items(task, advantage, slots) for task in tasks]
    advantage = ncmsi_advantage_many(advantage)
    slots = discrimination_convergence_many(slots)
    out = []
    for items in plans:
        results: dict = {}
        for q, value in items:
            if q == "advantage":
                value = advantage[value]
                if not isinstance(value, Exception):
                    joint_opt, ncm_opt, delta = value
                    value = {"joint_opt": joint_opt, "ncm_opt": ncm_opt, "delta": delta}
            elif q == "convergence":
                value = slots[value]
                if not isinstance(value, Exception):
                    value = [[m, v] for m, v in value]
            elif q == "single_slot_optimum":
                value = slots[value]
                if not isinstance(value, Exception):
                    value = value[-1][1] if value else ValidationError("single_slot_optimum needs m >= 1")
            if isinstance(value, Exception):
                results = value
                break
            results[q] = value
        out.append(results)
    return _gather(out)


@_each
def _cmd_uqcm(task: dict, tol: float, seed) -> dict:
    from .analysis import uqcm_distance

    amps = task.get("amplitudes", [1.0, 0.0])
    if not isinstance(amps, (list, tuple)) or len(amps) != 2:
        raise ValidationError(f"amplitudes must be a list of two amplitudes, got {amps!r}")
    a = _parse_complex(amps[0], "amplitudes[0]")
    b = _parse_complex(amps[1], "amplitudes[1]")
    return {"distance": uqcm_distance(a, b)}


def _set_path(d: dict, path: str, value, fresh: bool = False) -> None:
    """Set a dotted task field; with ``fresh``, copy every container on the path before writing into it."""
    try:
        keys = path.split(".")
        cur = d
        for key in keys[:-1]:
            if isinstance(cur, list):
                key = int(key)
                nxt = cur[key]
            else:
                nxt = cur.setdefault(key, {})
            if fresh and isinstance(nxt, (list, dict)):
                nxt = cur[key] = nxt.copy()
            cur = nxt
        last = keys[-1]
        if isinstance(cur, list):
            cur[int(last)] = value
        else:
            cur[last] = value
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"cannot set task field {path!r}: {exc}") from exc


def _point_task(inner: dict, grids: list, combo: tuple) -> dict:
    """The inner task at one sweep point; only containers on an axis path are copied."""
    point = dict(inner)
    for (name, _), value in zip(grids, combo):
        _set_path(point, name, value, fresh=True)
    return point


@_each
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
        if not isinstance(name, str):
            raise ValidationError(f"axis name must be a string, got {name!r}")
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

    select = task.get("select")
    if select is not None and not (isinstance(select, list) and all(isinstance(key, str) for key in select)):
        raise ValidationError(f"select must be a list of column names, got {select!r}")

    # Points run in chunks through the inner command's list handler; the
    # first failing point in product order raises, as if run one by one.
    # The table takes its scalar columns straight from the handler's Columns.
    rows: list = []
    column_keys = select
    combos = itertools.product(*[vals for _, vals in grids])
    while chunk := list(itertools.islice(combos, _SWEEP_CHUNK)):
        outcomes = [capture(_point_task, inner, grids, combo) for combo in chunk]
        built = [j for j, point in enumerate(outcomes) if not isinstance(point, Exception)]
        res = handler([outcomes[j] for j in built], tol, seed)
        for j, error in zip(built, res.errors):
            outcomes[j] = error
        failed = next((outcome for outcome in outcomes if outcome is not None), None)
        if failed is not None:
            raise failed
        if column_keys is None:
            column_keys = res.scalar_names(0)
        rows += zip(*zip(*chunk), *res.columns(column_keys))

    rows.sort(key=lambda row: row[: len(grids)])
    return {"columns": [name for name, _ in grids] + column_keys, "rows": rows}


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
    except UnicodeDecodeError as exc:
        raise ValidationError(f"task file is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"task file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("task file must hold a JSON object")
    if "task" in data and "results" in data:
        data = data["task"]  # a previous report; reproduce it
        if not isinstance(data, dict):
            raise ValidationError("report's embedded task is not an object")
    return data


def _non_finite_field(obj, path: str = "") -> str | None:
    """The dotted path (as ``--set`` takes it) of the first NaN or infinity in a task, in report order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    items = sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = _non_finite_field(value, f"{path}.{key}" if path else key)
        if found:
            return found
    return None


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
        cmd.add_argument("--set", action="append", default=None, metavar="KEY=VALUE",
                         help="override a task field (dotted paths allowed)")
        cmd.add_argument("--out", default=None, help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default=None)
        cmd.add_argument("--tol", type=float, default=None, help="numerical tolerance")
        cmd.add_argument("--seed", type=int, default=None, help="seed for sampling commands")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        task = _load_task(args.task)
        _parse_set(args.set or [], task)

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

        results = unwrap(_HANDLERS[args.command]([task], tol, seed).row(0))

        if fmt == "csv":
            if args.command != "sweep":
                raise ValidationError("csv output is only available for sweep tables")
            header = ",".join(results["columns"])
            lines = [header] + [",".join(_canonical(v) for v in row) for row in results["rows"]]
            _emit("\n".join(lines) + "\n", out_path)
        else:
            report = {
                "task": task,
                "results": results,
                "tool_version": __version__,
                "tolerance": tol,
                "seed": seed,
            }
            try:
                text = _canonical(report) + "\n"
            except NumericalError:
                field = _non_finite_field(task)
                if field is None:
                    raise
                raise ValidationError(f"task field {field!r} is non-finite") from None
            _emit(text, out_path)
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
