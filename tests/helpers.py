"""Seeded random-instance generators shared by the test modules."""

from __future__ import annotations

import numpy as np

from clonekit.machine import MachineSpec, dominance_premise, feasible, ray_limit, ray_terms


def rand_overlap(rng, lo: float = 0.0, hi: float = 0.95, real: bool = False) -> complex:
    mod = rng.uniform(lo, hi)
    if real:
        return complex(mod)
    return mod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def raw_r(rng, m: int, max_total: float = 0.99) -> np.ndarray:
    """Random 2 x m success matrix with row sums below ``max_total``."""
    raw = rng.random((2, m)) + 1e-3
    totals = rng.uniform(0.05, max_total, size=2)
    return raw / raw.sum(axis=1, keepdims=True) * totals[:, None]


def _spec(kind: str, alpha, beta, m: int, r) -> MachineSpec:
    return MachineSpec(kind, alpha, None if kind == "ncm" else beta, m, r)


def boundary_scale(kind: str, alpha, beta, m: int, r0: np.ndarray) -> float:
    """Largest t <= 1 with t*r0 feasible: the exact ray root of the closed-form kernel."""
    return ray_limit(*ray_terms(kind, alpha, beta, r0), 1.0)


def random_feasible_spec(rng, kind: str | None = None, m: int | None = None,
                         real_overlaps: bool = False) -> MachineSpec:
    """Feasible machine with random overlaps and a random interior r."""
    if kind is None:
        kind = ("joint", "ncm", "supplementary")[rng.integers(3)]
    if m is None:
        m = int(rng.integers(1, 5))
    alpha = rand_overlap(rng, 0.0, 0.95, real_overlaps)
    beta = rand_overlap(rng, 0.05, 1.0, real_overlaps)
    r0 = raw_r(rng, m)
    t = boundary_scale(kind, alpha, beta, m, r0)
    r = rng.uniform(0.1, 0.95) * t * r0
    return _spec(kind, alpha, beta, m, r)


def random_dominant_spec(rng, kind: str = "joint", m: int | None = None,
                         feasible_only: bool = False) -> MachineSpec:
    """Machine satisfying the dominance premise; feasibility optional."""
    if m is None:
        m = int(rng.integers(1, 5))
    for _ in range(200):
        alpha = rand_overlap(rng)
        beta = rand_overlap(rng, 0.1, 1.0)
        r = raw_r(rng, m) * rng.uniform(0.05, 1.0)
        spec = _spec(kind, alpha, beta, m, r)
        if not dominance_premise(spec):
            continue
        if feasible_only and not feasible(spec).feasible:
            continue
        return spec
    raise AssertionError("generator failed to find a premise-satisfying machine")


def random_member_pair(rng, m: int | None = None) -> tuple[MachineSpec, MachineSpec]:
    """Feasible supplementary and ncm members sharing alpha and m."""
    if m is None:
        m = int(rng.integers(1, 5))
    alpha = rand_overlap(rng)
    beta = rand_overlap(rng, 0.05, 1.0)

    r0 = raw_r(rng, m)
    t = boundary_scale("supplementary", alpha, beta, m, r0)
    supp = MachineSpec("supplementary", alpha, beta, m, rng.uniform(0.1, 0.95) * t * r0)

    r1 = raw_r(rng, m)
    t1 = boundary_scale("ncm", alpha, None, m, r1)
    ncm = MachineSpec("ncm", alpha, None, m, rng.uniform(0.1, 0.95) * t1 * r1)
    return supp, ncm


def random_psd2(rng) -> np.ndarray:
    """Random 2x2 PSD matrix; one in five is exactly rank 1."""
    if rng.random() < 0.2:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return np.outer(v, v.conj())
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return b @ b.conj().T


def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gram_matched(rng, dim: int, count: int = 2):
    """(inputs, outputs) lists related by a hidden unitary, on disjoint coordinates.

    Inputs live on the first dim / 2 coordinates and outputs on the rest,
    so every input is orthogonal to every output, as a machine's are.
    """
    half = dim // 2
    vecs = rng.normal(size=(count, half)) + 1j * rng.normal(size=(count, half))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    q = random_unitary(rng, half)
    zero = np.zeros(half)
    return [np.concatenate([v, zero]) for v in vecs], [np.concatenate([zero, q @ v]) for v in vecs]


def random_qubit(rng):
    from clonekit.states import PureState

    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return PureState(v / np.linalg.norm(v))


# -- sweeps against their single-command points


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process ``clonekit.cli.main`` call."""
    import contextlib
    import io

    from clonekit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_json(directory, name: str, payload) -> str:
    import json
    import os

    path = os.path.join(str(directory), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _flat_scalars(prefix: str, obj, out: dict) -> None:
    """Scalar leaves of a JSON-loaded results object, as a sweep row keeps them."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flat_scalars(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(obj, (bool, int, float)):
        out[prefix] = obj


def sweep_points(task: dict) -> list[tuple[tuple, object]]:
    """(axis values, inner task) of every sweep point in product order, built independently of the CLI.

    A point whose axis path cannot be set carries, instead of a task, the
    stderr line the CLI prints for it.
    """
    import copy
    import itertools

    grids = []
    for axis in task["sweep"]:
        steps = int(axis["steps"])
        values = np.linspace(axis["start"], axis["stop"], steps) if steps > 1 else np.array([axis["start"]])
        if axis["name"].split(".")[-1] in ("m", "m_max", "shots", "input_index", "steps"):
            grids.append([int(round(v)) for v in values])
        else:
            grids.append([float(v) for v in values])
    points = []
    for combo in itertools.product(*grids):
        inner = copy.deepcopy(task["run"])
        for axis, value in zip(task["sweep"], combo):
            keys = axis["name"].split(".")
            try:
                cur = inner
                for key in keys[:-1]:
                    cur = cur[int(key)] if isinstance(cur, list) else cur.setdefault(key, {})
                if isinstance(cur, list):
                    cur[int(keys[-1])] = value
                else:
                    cur[keys[-1]] = value
            except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
                inner = f"clonekit: validation error: cannot set task field {axis['name']!r}: {exc}\n"
                break
        points.append((combo, inner))
    return points


def check_sweep_against_points(directory, task: dict, csv: bool = False) -> tuple[int, str, str]:
    """Run a sweep and each of its points as a single command; assert they agree.

    A sweep that exits 0 must hold, for every point, the row made from that
    point's single-command report, byte for byte.  A failing sweep must exit
    with the code and stderr of its first failing point in product order.
    With ``csv``, the sweep also runs with ``--format csv``: it must exit
    alike, and print the JSON table's header and rows, each cell as the
    JSON report writes it.
    """
    import json

    from clonekit.cli import _canonical

    path = write_json(directory, "sweep.json", task)
    code, out, err = run_cli(["sweep", "--task", path])
    if csv:
        csv_code, csv_out, csv_err = run_cli(["sweep", "--task", path, "--format", "csv"])
        assert (csv_code, csv_err) == (code, err)
        if code == 0:
            table = json.loads(out)["results"]
            want = [",".join(table["columns"])] + [",".join(_canonical(v) for v in row) for row in table["rows"]]
            assert csv_out == "\n".join(want) + "\n"
    singles = []
    for combo, inner in sweep_points(task):
        if isinstance(inner, str):
            singles.append((combo, (2, "", inner)))
        else:
            singles.append((combo, run_cli([inner["command"], "--task", write_json(directory, "point.json", inner)])))
    failed = next((res for _, res in singles if res[0] != 0), None)
    if failed is not None:
        assert (code, err) == (failed[0], failed[2])
        return code, out, err
    assert code == 0, err
    results = json.loads(out)["results"]
    n_axes = len(task["sweep"])
    rows = {tuple(row[:n_axes]): row[n_axes:] for row in results["rows"]}
    assert len(results["rows"]) == len(singles)
    for combo, (_, single_out, _) in singles:
        flat: dict = {}
        _flat_scalars("", json.loads(single_out)["results"], flat)
        want = [flat.get(key) for key in results["columns"][n_axes:]]
        assert _canonical(rows[combo]) == _canonical(want), combo
    return code, out, err


def boundary_scan(kind: str, alpha, beta, priors, n: int = 100_000) -> float:
    """Best p1 R1 + p2 R2 over n values of theta1 on the slot-1 feasibility boundary.

    With R_i = sin^2 theta_i and all weight in slot 1, a machine is feasible
    iff cos t1 cos t2 + w sin t1 sin t2 >= |T|, w = |alpha| (supplementary)
    or |alpha|^2.  The left side is A cos(t2 - phi), (A, phi) the length and
    angle of (cos t1, w sin t1), so for each t1 with A >= |T| the largest t2
    is phi + arccos(|T|/A).  Rows are capped as the optimizer caps them.  A
    lower bound on the optimum that shares no code with the optimizer.
    """
    a = abs(alpha)
    w = a if kind == "supplementary" else a * a
    t = {"joint": a * abs(beta or 0.0), "ncm": a, "supplementary": abs(beta or 0.0)}[kind]
    cap = 1.0 - 1e-12 if kind == "joint" and t > 0.0 else 1.0
    t1 = np.linspace(0.0, np.pi / 2, n)
    length = np.hypot(np.cos(t1), w * np.sin(t1))
    ok = length >= t
    t1, length = t1[ok], length[ok]
    t2 = np.minimum(np.pi / 2, np.arctan2(w * np.sin(t1), np.cos(t1)) + np.arccos(np.minimum(1.0, t / length)))
    r1, r2 = np.minimum(np.sin(t1) ** 2, cap), np.minimum(np.sin(t2) ** 2, cap)
    return float(np.max(priors[0] * r1 + priors[1] * r2))
