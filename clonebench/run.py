"""Benchmark for clonekit: one workload, one seed, one measured run.

Usage:

    python3 clonebench/run.py --workload quick_tasks --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's tasks are generated from the
seed (clonebench/generate.py), written as JSON task files and sent one at a
time to ``clonekit.cli.main([...])`` inside this process: a closed loop with
one client, so the next task starts when the previous one has returned.
``--seconds`` sets how many whole cycles of the workload's task classes run
(``CYCLES_AT_25_S``); the count does not depend on the program's speed.
Every report is checked against the generator's references
(clonebench/checks.py).

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` every task runs twice, untraced and then under the
outside-in span recorder (clonebench/tracer.py); the run reports the
per-layer metrics, the tracing overhead, and fails unless both reports
are byte-identical.  ``--tiny`` runs a small version of every workload for
the benchmark's own test.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # fixed before numpy loads; the load itself is a single thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import generate  # noqa: E402

SETUP_INTERPRETERS = 21  # fresh interpreters per run; setup_s is their median
WARMUP_CALLS = 3  # untimed calls of the first task before the timed phase
# Whole cycles the timed phase runs at --seconds 25: about 25 s of task time
# on the reference host (clonebench/README.md).  The count scales with
# --seconds, not with the program's speed, so every commit measures the same
# tasks and the tail stays in the same task class.  A traced run runs every
# task twice, so it runs half as many cycles.
CYCLES_AT_25_S = {"quick_tasks": 170, "boundary_sweeps": 12, "synthesis_mix": 3}
TAIL_BLOCK = 500  # tasks per block of task_tail_ms (see tail())

# Malformed inputs that crash the CLI today (ROADMAP item 4).  Every input
# should end in exit 2; these run once per run, outside the timed mix, and
# their outcomes are reported as a known defect.
ROBUSTNESS_PROBE = [
    ("sweep of an unknown command", "sweep",
     {"run": {"command": "teleport"}, "sweep": [{"name": "alpha", "start": 0.1, "stop": 0.2, "steps": 2}]}, ()),
    ("scalar amplitudes", "uqcm", {"amplitudes": 0.5}, ()),
    ("short amplitudes", "uqcm", {"amplitudes": [1.0]}, ()),
    ("string m", "feasibility", {"kind": "ncm", "alpha": 0.5, "m": "x", "r": [[0.1], [0.1]]}, ()),
    ("fractional m", "feasibility", {"kind": "ncm", "alpha": 0.5, "m": 1.7, "r": [[0.1], [0.1]]}, ()),
    ("string priors", "optimize", {"kind": "ncm", "alpha": 0.5, "m": 1, "priors": "ab"}, ()),
    ("string oracle_resolution", "optimize", {"kind": "ncm", "alpha": 0.5, "m": 1, "oracle_resolution": "0.1"}, ()),
    ("malformed states", "synthesize",
     {"kind": "ncm", "alpha": 0.5, "m": 1, "r": [[0.1], [0.1]], "states": {"psi": 5}}, ()),
    ("nan tolerance", "feasibility", {"kind": "ncm", "alpha": 0.5, "m": 1, "r": [[0.1], [0.1]]}, ("--tol", "nan")),
]

# Per-layer metrics: (name, unit, span, statistic).  Statistics: "calls" per
# traced task, mean "self_ms"/"self_us" per call, "rejected" (ValidationError
# raised) per task, "under:<span>" calls per call of an enclosing span, and
# "computed_mb"/"computed_gflop" from the task's dimension.
LAYER_METRICS = [
    ("cli.main.calls", "count/task", "cli.main", "calls"),
    ("cli.main.self_ms", "ms", "cli.main", "self_ms"),
    ("machine.MachineSpec.calls", "count/task", "machine.MachineSpec", "calls"),
    ("machine.MachineSpec.self_us", "us", "machine.MachineSpec", "self_us"),
    ("machine.MachineSpec.rejected", "count/task", "machine.MachineSpec", "rejected"),
    ("machine.feasible.calls", "count/task", "machine.feasible", "calls"),
    ("machine.feasible.self_us", "us", "machine.feasible", "self_us"),
    ("machine.optimal_probe_overlaps.calls", "count/task", "machine.optimal_probe_overlaps", "calls"),
    ("protocol.decompose_two_step.calls", "count/task", "protocol.decompose_two_step", "calls"),
    ("protocol.decompose_two_step.self_ms", "ms", "protocol.decompose_two_step", "self_ms"),
    ("protocol.h_value.per_decompose", "count", "protocol.h_value", "under:protocol.decompose_two_step"),
    ("protocol.compose.self_us", "us", "protocol.compose", "self_us"),
    ("analysis.optimize.calls", "count/task", "analysis.optimize", "calls"),
    ("analysis.optimize.self_ms", "ms", "analysis.optimize", "self_ms"),
    ("analysis.optimize.feasible_per_call", "count", "machine.feasible", "under:analysis.optimize"),
    ("analysis.ncmsi_advantage.calls", "count/task", "analysis.ncmsi_advantage", "calls"),
    ("analysis.discrimination_convergence.self_ms", "ms", "analysis.discrimination_convergence", "self_ms"),
    ("analysis.grid_oracle.self_ms", "ms", "analysis.grid_oracle", "self_ms"),
    ("synthesis.realize.self_ms", "ms", "synthesis.realize", "self_ms"),
    ("synthesis.exact_statistics.self_ms", "ms", "synthesis.exact_statistics", "self_ms"),
    ("synthesis.sample.self_ms", "ms", "synthesis.sample", "self_ms"),
    ("qlinalg.extend_to_unitary.self_ms", "ms", "qlinalg.extend_to_unitary", "self_ms"),
    ("qlinalg.extend_to_unitary.computed_mb", "MB", "qlinalg.extend_to_unitary", "computed_mb"),
    ("qlinalg.extend_to_unitary.computed_gflop", "GFLOP", "qlinalg.extend_to_unitary", "computed_gflop"),
    ("qlinalg.psd2_check.calls", "count/task", "qlinalg.psd2_check", "calls"),
    ("qlinalg.cholesky_psd2.calls", "count/task", "qlinalg.cholesky_psd2", "calls"),
    ("states.embed_input.self_us", "us", "states.embed_input", "self_us"),
    ("states.target_output.calls", "count/task", "states.target_output", "calls"),
    ("states.target_output.self_us", "us", "states.target_output", "self_us"),
]
# Busy (self) time of each module per task; its share of the task time is printed.
MODULE_METRICS = [(f"{mod}.self_ms_per_task", "ms", mod) for mod in
                  ("cli", "machine", "protocol", "analysis", "synthesis", "qlinalg", "states")]


def extend_to_unitary_cost(m: int) -> tuple[float, float]:
    """Computed (MB, GFLOP) of one dense completion at copy depth m.

    dim = 2^(m+1) (2m+3).  It builds six dim x dim complex128 matrices (the
    basis and its conjugate on each side, the conjugate transpose and the
    product) and does about 16 dim^3 real flops per side for the column-wise
    completion plus 8 dim^3 for the final product.
    """
    dim = generate.synthesis_dimension(m)
    return 6 * dim * dim * 16 / 1e6, 40 * dim**3 / 1e9


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS)}


def call(cli, record: dict, extra: tuple[str, ...] = ()) -> tuple[object, str, str, float]:
    """Run one task through ``cli.main``; (exit code or exception name, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    argv = [record["command"], "--task", record["path"], *extra]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its own arguments this way
            code = exc.code
        except Exception as exc:  # a traceback in a real process
            code = type(exc).__name__
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def measure_setup(records: list[dict]) -> list[float]:
    """Seconds from import to the end of the first task, one fresh interpreter each."""
    first = records[0]
    times = []
    for _ in range(SETUP_INTERPRETERS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, first["path"], first["command"]],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"clonebench: set-up probe failed: {proc.stderr.strip()[-300:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["exit"] != first["meta"]["exit"] or not result["module"].startswith(SRC):
            raise SystemExit(f"clonebench: set-up probe ran the wrong program: {result}")
        times.append(result["seconds"])
    return times


def import_cli():
    sys.path.insert(0, SRC)
    import clonekit
    import clonekit.cli

    if not os.path.abspath(clonekit.__file__).startswith(SRC):
        raise SystemExit(f"clonebench: clonekit was imported from {clonekit.__file__}, not {SRC}")
    return clonekit, clonekit.cli


def robustness_probe(cli) -> list[tuple[str, object]]:
    """Outcome of every probe input that does not end in a clean exit 2."""
    defects = []
    for i, (label, command, task, extra) in enumerate(ROBUSTNESS_PROBE):
        path = os.path.join(WORK, f"probe_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(task, fh)
        code = call(cli, {"command": command, "path": path}, extra)[0]
        if code != 2:
            defects.append((label, code))
    return defects


def tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, block size, blocks).

    A run of at least 2 * TAIL_BLOCK tasks is split into blocks of at
    least TAIL_BLOCK tasks in run order; the value is the median of the
    blocks' tails.  Over thousands of tasks the run-wide 11th slowest one
    measures the host's rare stalls, not the program.
    """
    blocks = np.array_split(np.asarray(latencies), max(1, len(latencies) // TAIL_BLOCK))
    tails = [np.sort(block)[max(len(block) - 11, 0)] for block in blocks]
    n = len(blocks[-1])
    return float(np.median(tails)), 100.0 * (max(n - 11, 0) + 1) / n, n, len(blocks)


def layer_metrics(tracer, records_by_seq: list[dict], n_tasks: int) -> dict[str, float]:
    spans = tracer.arrays()
    names = tracer.names

    def ids(predicate) -> np.ndarray:
        return np.isin(spans["name"], [i for i, name in enumerate(names) if predicate(name)])

    out = {}
    for metric, _unit, span, stat in LAYER_METRICS:
        mask = ids(lambda name: name == span)
        calls = int(mask.sum())
        if stat == "calls":
            value = calls / n_tasks
        elif stat in ("self_ms", "self_us"):
            scale = 1e6 if stat == "self_ms" else 1e3
            value = float(spans["self"][mask].sum()) / scale / calls if calls else 0.0
        elif stat == "rejected":
            value = int((spans["error"][mask] == 1).sum()) / n_tasks
        elif stat.startswith("under:"):
            outer = stat.split(":", 1)[1]
            outer_calls = int(ids(lambda name: name == outer).sum())
            inside = tracer.nearest_ancestor(outer)[mask] >= 0
            value = int(inside.sum()) / outer_calls if outer_calls else 0.0
        else:
            index = 0 if stat == "computed_mb" else 1
            costs = [extend_to_unitary_cost(records_by_seq[t]["meta"]["m"])[index] for t in spans["task"][mask]]
            value = sum(costs) / calls if calls else 0.0
        out[metric] = value
    for metric, _unit, module in MODULE_METRICS:
        in_module = ids(lambda name: name.startswith(module + "."))
        out[metric] = float(spans["self"][in_module].sum()) / 1e6 / n_tasks
    out["trace.spans_per_task"] = len(spans["name"]) / n_tasks
    return out


def timed_cycles(args) -> int:
    if args.tiny:
        return 1
    cycles = CYCLES_AT_25_S[args.workload] * args.seconds / 25.0
    return max(1, round(cycles / 2 if args.trace else cycles))


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "clonekit", "cli.py")):
        print(f"clonebench: no clonekit sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    records = generate.generate(args.workload, args.seed, timed_cycles(args), tiny=args.tiny)
    task_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(task_dir, ignore_errors=True)
    generate.write_tasks(records, task_dir)
    props = generate.input_properties(records)

    env = environment()
    print(f"clonebench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs: " + json.dumps(props, sort_keys=True))

    setup = None if args.trace else measure_setup(records)

    package, cli = import_cli()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(package)

    for _ in range(WARMUP_CALLS):
        call(cli, records[0])
    # Keep the collector off the benchmark's own task list: otherwise every
    # full collection walks it, and those pauses land in task latencies.
    gc.collect()
    gc.freeze()

    # The timed phase runs every generated cycle once, record 0 excluded.
    latencies: list[float] = []
    traced_latencies: list[float] = []
    records_by_seq: list[dict] = []
    points = 0
    causes: Counter = Counter()
    mismatches = 0
    for record in records[1:]:
        code, out, err, elapsed = call(cli, record)
        if tracer is not None:
            tracer.task_id = len(records_by_seq)
            tracer.install()
            try:
                traced = call(cli, record)
            finally:
                tracer.uninstall()
            traced_latencies.append(traced[3])
            if traced[:3] != (code, out, err):
                mismatches += 1
        records_by_seq.append(record)
        latencies.append(elapsed)
        points += record["points"]
        cause = checks.check(record, code, out, err)
        if cause is not None:
            causes[cause] += 1

    attempted = len(latencies)
    known = Counter({c: n for c, n in causes.items() if c.startswith(checks.KNOWN_DEFECT)})
    causes -= known
    failed = sum(causes.values())
    n_known = sum(known.values())
    defects = robustness_probe(cli)

    print(f"timed phase: {records[-1]['cycle'] + 1} cycles, {attempted} tasks, {points} points, "
          "closed loop with 1 client")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} tasks)"
          + ("" if not causes else "; causes: " + "; ".join(f"{n} x {c}" for c, n in causes.most_common(10))))
    print(f"known defects (not counted as failures): {n_known} of {attempted} tasks"
          + "".join(f"; {n} x {c[len(checks.KNOWN_DEFECT):]}" for c, n in known.most_common()))
    print("robustness probe (outside the timed mix; each input should exit 2): "
          + ("all clean" if not defects else "; ".join(f"{label} -> {code}" for label, code in defects)))
    print("waiting time: not applicable (single-threaded, no queue)")

    if tracer is None:
        p50 = statistics.median(latencies)
        tail_value, tail_pct, n, n_blocks = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "points_per_s": (points / sum(latencies), "1/s"),
            "task_p50_ms": (p50 * 1e3, "ms"),
            "task_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
        print(f"task_tail_ms is p{tail_pct:.2f} of {n} tasks (10 beyond it)"
              + (f", the median over {n_blocks} blocks of the run" if n_blocks > 1 else ""))
    else:
        n_tasks = len(traced_latencies)
        layers = layer_metrics(tracer, records_by_seq, n_tasks)
        overhead = 100.0 * (sum(traced_latencies) / sum(latencies) - 1.0)
        traced_pps = points / sum(traced_latencies)
        print(f"tracing: points_per_s untraced {points / sum(latencies):.6g}, traced {traced_pps:.6g}, "
              f"overhead {overhead:.3g}%; {mismatches} of {n_tasks} traced reports differ from untraced")
        per_task_ms = 1e3 * sum(traced_latencies) / n_tasks
        shares = ", ".join(f"{module} {100 * layers[metric] / per_task_ms:.1f}%"
                           for metric, _u, module in MODULE_METRICS)
        print(f"busy share of traced task time ({per_task_ms:.4g} ms/task): {shares}")
        failed += mismatches
        units = {name: unit for name, unit, *_ in LAYER_METRICS + MODULE_METRICS}
        units.update({"trace.overhead_pct": "%", "trace.spans_per_task": "count/task",
                      "checks.known_defects": "count", "probe.unclean_exits": "count"})
        layers["trace.overhead_pct"] = overhead
        layers["checks.known_defects"] = n_known
        layers["probe.unclean_exits"] = len(defects)
        metrics = {name: (value, units[name]) for name, value in layers.items()}
        os.makedirs(WORK, exist_ok=True)
        tracer.save(os.path.join(WORK, f"spans_{args.workload}_{args.seed}.npz"))

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    shutil.rmtree(task_dir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*generate.WORKLOADS, "all"), required=True,
                        help="one workload, or all of them, each in its own interpreter")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the number of whole cycles run (CYCLES_AT_25_S)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own test")
    args = parser.parse_args()
    if args.workload != "all":
        return run(args)
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    rest += ["--tiny"] if args.tiny else []
    codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload, *rest],
                            check=False).returncode for workload in generate.WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
