"""Seeded task generator for the clonekit benchmark.

Builds the task list of one workload from a seed, with the reference
values the output checks compare against.  It uses plain numpy and never
imports clonekit, so neither the inputs nor their references move when the
program changes.

Feasibility is decided by the generator's own closed form.  With optimal
probe overlaps, a machine r scaled along the ray t*r has the residual
determinant

    det(t) = (1 - t R1)(1 - t R2) - max(0, |T| - t S)^2

with R_i the row sums of r, S = sum_k sqrt(r_1k r_2k) |alpha|^pow_k and T
the overlap target of the machine kind (alpha*beta for joint, alpha for
ncm, beta for supplementary; pow_k = k+1, k+1 and k).  For t below |T|/S
this is a quadratic in t, so ray boundaries are exact roots.

Every workload's task list is a fixed cycle of task classes repeated with
fresh random values, so its cost mix is the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import Counter

import numpy as np

TOL = 1e-9  # the CLI's default tolerance; every task runs with it
KINDS = ("joint", "ncm", "supplementary")
CAP_MARGIN = 1e-12  # a joint machine with alpha*beta != 0 stops this far below total success 1

WORKLOADS = ("quick_tasks", "boundary_sweeps", "synthesis_mix")


# ---------------------------------------------------------------------------
# closed forms


def powers(kind: str, m: int) -> np.ndarray:
    ks = np.arange(1, m + 1)
    return ks if kind == "supplementary" else ks + 1


def target(kind: str, a: float, b: float) -> float:
    return {"joint": a * b, "ncm": a, "supplementary": b}[kind]


def ray_terms(kind: str, a: float, b: float, r: np.ndarray) -> tuple[float, float, float, float]:
    """(R1, R2, S, |T|) of the closed-form determinant for machine r."""
    r = np.asarray(r, dtype=float)
    s = float(np.sum(np.sqrt(r[0] * r[1]) * a ** powers(kind, r.shape[1])))
    return float(r[0].sum()), float(r[1].sum()), s, target(kind, a, b)


def det_at(kind: str, a: float, b: float, r) -> float:
    """Residual determinant of machine r with optimal probe overlaps."""
    r1, r2, s, t = ray_terms(kind, a, b, r)
    return float((1.0 - r1) * (1.0 - r2) - max(0.0, t - s) ** 2)


def quadratic_roots(r1: float, r2: float, s: float, t: float) -> list[float]:
    """Real roots of (1 - x R1)(1 - x R2) = (T - x S)^2, ascending."""
    qa = r1 * r2 - s * s
    qb = -(r1 + r2 - 2.0 * t * s)
    qc = 1.0 - t * t
    if abs(qa) < 1e-300:
        return [] if qb == 0.0 else [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = [q / qa] + ([qc / q] if q != 0.0 else [])
    return sorted(roots)


def first_crossing(kind: str, a: float, b: float, d: np.ndarray) -> float | None:
    """Smallest t > 0 where det(t) of the ray t*d changes sign, if any."""
    r1, r2, s, t = ray_terms(kind, a, b, d)
    limit = t / s if s > 0.0 else math.inf
    for x in quadratic_roots(r1, r2, s, t):
        if 0.0 < x < limit:
            return x
    return None


def decompose_case(a: float, b: float, r: np.ndarray) -> tuple[str, float]:
    """Case tag and boundary root of the two-step decomposition of joint r.

    case1 when |beta| <= S + tol; case2_I when the ray ratio at t=1 is
    already >= 1; otherwise case2_II with the exact root t* of
    (1 - t R1)(1 - t R2) = (|beta| - t S)^2 in (0, 1).
    """
    r1, r2, s, _ = ray_terms("supplementary", a, b, r)
    if b <= s + TOL:
        return "case1", 1.0
    if math.sqrt(max(1.0 - r1, 0.0) * max(1.0 - r2, 0.0)) >= b - s:
        return "case2_I", 1.0
    inside = [x for x in quadratic_roots(r1, r2, s, b) if 0.0 <= x <= 1.0]
    if len(inside) != 1:
        raise AssertionError("case2_II must have exactly one root in [0, 1]")
    return "case2_II", inside[0]


def symmetric_optimum(kind: str, a: float, b: float) -> float:
    """Symmetric slot-1 optimum min(cap, (1 - |T|)/(1 - |c_1|)).

    Slot 1 carries the coefficient |c_1| = |alpha|^pow_1; for ncm this is
    1/(1 + |alpha|).
    """
    t = target(kind, a, b)
    c1 = a ** int(powers(kind, 1)[0])
    cap = 1.0 - CAP_MARGIN if kind == "joint" and a * b > 0.0 else 1.0
    return float(min(cap, (1.0 - t) / (1.0 - c1)))


def discrimination_bound(a: float, b: float, m: int, q: float) -> float:
    return (1.0 - a * b) / (1.0 - a**m * q)


def synthesis_dimension(m: int) -> int:
    return 2 ** (m + 1) * (2 * m + 3)


# ---------------------------------------------------------------------------
# random draws


def cplx(z: complex) -> list[float]:
    """A complex number as the CLI's [re, im] pair."""
    return [float(z.real), float(z.imag)]


def draw_overlap(rng, lo: float, hi: float, real: bool = False) -> complex:
    mod = rng.uniform(lo, hi)
    return complex(mod) if real else mod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def draw_direction(rng, m: int) -> np.ndarray:
    """2 x m direction whose rows sum to 1."""
    raw = rng.random((2, m)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def row_cap(kind: str, a: float, b: float) -> float:
    """Largest admissible row sum (kept clear of the strict joint limit)."""
    return 1.0 - 1e-6 if kind == "joint" and a * b > 0.0 else 1.0


def draw_machine(rng, kind: str, m: int, feasible: bool, a: float, b: float,
                 u_range: tuple[float, float] | None = None) -> np.ndarray | None:
    """Random r of the given kind with a clear closed-form verdict, or None.

    Feasible draws sit at a fraction of the ray boundary, infeasible ones
    beyond it; |det| always exceeds 10x the tolerance.  Some overlaps admit
    no infeasible machine at all, so None asks the caller to redraw them.
    """
    top = row_cap(kind, a, b)
    for _ in range(20):
        d = draw_direction(rng, m)
        cross = first_crossing(kind, a, b, d)
        if feasible:
            lo, hi = u_range or (0.3, 0.95)
            scale = min(cross if cross is not None else top, top) * rng.uniform(lo, hi)
        else:
            lo, hi = u_range or (1.05, 2.0)
            if cross is None or cross * lo >= top:
                continue
            scale = cross * rng.uniform(lo, min(hi, top / cross))
        r = scale * d
        det = det_at(kind, a, b, r)
        if abs(det) > 10 * TOL and (det > 0) == feasible:
            return r
    return None


def draw_instance(rng, kind: str, m: int, feasible: bool, u_range=None,
                  a_range=(0.05, 0.95), b_range=(0.05, 0.95), real: bool = False):
    """(alpha, beta, r) with random overlaps and a machine from :func:`draw_machine`."""
    while True:
        alpha = draw_overlap(rng, *a_range, real=real)
        beta = draw_overlap(rng, *b_range, real=real)
        r = draw_machine(rng, kind, m, feasible, abs(alpha), abs(beta), u_range)
        if r is not None:
            return alpha, beta, r


def draw_qubit_pair(rng, overlap_mod: float) -> tuple[np.ndarray, np.ndarray]:
    """Two random complex qubit states whose overlap has the given modulus."""
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    s0 = z / np.linalg.norm(z)
    perp = np.array([-np.conj(s0[1]), np.conj(s0[0])])
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    s1 = overlap_mod * phase * s0 + math.sqrt(1.0 - overlap_mod**2) * perp
    return s0, s1


def rlist(r: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in r]


# ---------------------------------------------------------------------------
# task builders: each returns (task, meta); meta carries the class, the
# expected exit code and the reference values of the output checks.


def _machine_task(command: str, kind: str, alpha: complex, beta: complex | None, r) -> dict:
    task = {"command": command, "kind": kind, "alpha": cplx(alpha), "m": len(r[0]), "r": rlist(r)}
    if kind != "ncm":
        task["beta"] = cplx(beta)
    return task


def feasibility_task(rng, kind: str, m: int, feasible: bool):
    alpha, beta, r = draw_instance(rng, kind, m, feasible)
    a, b = abs(alpha), abs(beta)
    task = _machine_task("feasibility", kind, alpha, beta, r)
    return task, {"check": "feasibility", "exit": 0, "kind": kind, "m": m,
                  "a": a, "b": b, "r": rlist(r), "det": det_at(kind, a, b, r), "infeasible": not feasible}


def member_pair(rng, m: int, supp_feasible: bool = True, ncm_feasible: bool = True):
    while True:
        alpha, beta, rb = draw_instance(rng, "supplementary", m, supp_feasible,
                                        None if supp_feasible else (1.05, 1.5), (0.05, 0.9))
        ra = draw_machine(rng, "ncm", m, ncm_feasible, abs(alpha), abs(beta),
                          None if ncm_feasible else (1.05, 1.5))
        if ra is not None:
            return alpha, beta, rb, ra


def compose_task(rng, m: int, feasible: bool = True):
    """Compose two members; an infeasible task has one infeasible member."""
    supp_ok = feasible or bool(rng.integers(2))
    alpha, beta, rb, ra = member_pair(rng, m, supp_feasible=supp_ok, ncm_feasible=feasible or not supp_ok)
    members = {}
    for name, kind, r in (("supp", "supplementary", rb), ("ncm", "ncm", ra)):
        members[name] = _machine_task("compose", kind, alpha, beta, r)
        del members[name]["command"]
    task = {"command": "compose", **members}
    if not feasible:
        return task, {"check": "rejected", "exit": 3, "m": m, "infeasible": True}
    joint = rb + (1.0 - rb.sum(axis=1))[:, None] * ra
    return task, {"check": "compose", "exit": 0, "m": m, "a": abs(alpha), "b": abs(beta), "r": rlist(joint)}


def uqcm_task(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    return {"command": "uqcm", "amplitudes": [cplx(z[0]), cplx(z[1])]}, {"check": "uqcm", "exit": 0}


def quick_bounds_task(rng):
    alpha = draw_overlap(rng, 0.05, 0.95)
    beta = draw_overlap(rng, 0.05, 0.95)
    m = int(rng.integers(1, 7))
    q = float(rng.uniform(0.0, 0.99))
    task = {"command": "bounds", "alpha": cplx(alpha), "beta": cplx(beta), "m": m, "p_m": q,
            "quantities": ["duan_guo", "discrimination_bound"]}
    a, b = abs(alpha), abs(beta)
    return task, {"check": "bounds_closed", "exit": 0,
                  "duan_guo": 1.0 / (1.0 + a), "discrimination_bound": discrimination_bound(a, b, m, q)}


def joint_near_boundary(rng, m: int, u_range=(0.9, 0.995), real_alpha: bool = False):
    """Feasible joint machine at a fraction u of its ray boundary."""
    while True:
        alpha = draw_overlap(rng, 0.2, 0.9, real=real_alpha)
        b = float(rng.uniform(0.3, 0.95))
        a = abs(alpha)
        d = draw_direction(rng, m) * rng.uniform(0.6, 1.0, size=(2, 1))
        cross = first_crossing("joint", a, b, d)
        if cross is None:
            continue
        r = d * cross * rng.uniform(*u_range)
        if r.sum(axis=1).max() < row_cap("joint", a, b) and det_at("joint", a, b, r) > 10 * TOL:
            return alpha, b, r


def infeasible_decompose_task(rng, m: int):
    alpha, beta, r = draw_instance(rng, "joint", m, False, (1.05, 1.5), (0.2, 0.9), (0.3, 0.95))
    return _machine_task("decompose", "joint", alpha, beta, r), {"check": "rejected", "exit": 3,
                                                               "m": m, "infeasible": True}


def malformed_task(rng, variant: int):
    """A task with one malformed field that the CLI rejects with exit 2."""
    task = feasibility_task(rng, KINDS[int(rng.integers(3))], int(rng.integers(1, 4)), True)[0]
    if variant == 0:
        del task["alpha"]
    elif variant == 1:
        task["alpha"] = [1.2, 0.3]
    elif variant == 2:
        task["r"] = [row[:-1] + [0.1, 0.1] for row in task["r"]]
    elif variant == 3:
        task["r"][0][0] = -0.25
    elif variant == 4:
        task["kind"] = "quantum"
    elif variant == 5:
        task["m"] = 0
    elif variant == 6:
        task["r"][1][0] = 1.5
    elif variant == 7:
        task["alpha"] = [0.1, 0.2, 0.3]
    elif variant == 8:
        task = {"command": "bounds", "alpha": 0.5, "beta": 0.5, "quantities": ["entropy"]}
    else:
        task["command"] = "compose"  # disagrees with the command requested
    argv_cmd = "bounds" if variant == 8 else "feasibility"
    return task, {"check": "rejected", "exit": 2, "variant": variant, "command": argv_cmd}


# -- boundary sweeps


def _axis(name: str, start: float, stop: float, steps: int) -> dict:
    return {"name": name, "start": float(start), "stop": float(stop), "steps": int(steps)}


def _grid(axes: list[dict]) -> list[tuple[float, ...]]:
    """Axis values exactly as the CLI builds them, in its row order."""
    vals = [np.linspace(ax["start"], ax["stop"], ax["steps"]) if ax["steps"] > 1 else np.array([ax["start"]])
            for ax in axes]
    return sorted(tuple(float(v) for v in combo) for combo in itertools.product(*vals))


def decompose_sweep_task(rng, m: int, two_d: bool, want_case2_ii: bool):
    """Sweep of joint decompositions; every point feasible and of one case family."""
    steps = (4, 3) if two_d else (10,)
    while True:
        if want_case2_ii:
            alpha, b, r = joint_near_boundary(rng, m, real_alpha=two_d)
        else:
            alpha, beta, r = draw_instance(rng, "joint", m, True, (0.05, 0.6), (0.2, 0.9), (0.1, 0.95), real=True)
            b = beta.real
        a = abs(alpha)
        width = float(rng.uniform(0.01, 0.04))
        axes = [_axis("beta", b - width, b, steps[-1])]
        if two_d:
            axes.insert(0, _axis("alpha", a - width, a, steps[0]))
        rows = []
        ok = True
        for point in _grid(axes):
            pa, pb = (point if two_d else (a, point[0]))
            if det_at("joint", pa, pb, r) <= 10 * TOL or r.sum(axis=1).max() >= row_cap("joint", pa, pb):
                ok = False
                break
            case, root = decompose_case(pa, pb, r)
            if (case == "case2_II") != want_case2_ii:
                ok = False
                break
            rows.append({"a": pa, "b": pb, "case": case, "root_t": root})
        if ok:
            break
    run = {"command": "decompose", "kind": "joint", "alpha": cplx(alpha), "beta": b, "m": m, "r": rlist(r)}
    task = {"command": "sweep", "run": run, "sweep": axes}
    return task, {"check": "decompose_sweep", "exit": 0, "m": m, "r": rlist(r), "rows": rows,
                  "points": len(rows), "sweep": True}


def decompose_task(rng, m: int):
    alpha, b, r = joint_near_boundary(rng, m)
    case, root = decompose_case(abs(alpha), b, r)
    task = _machine_task("decompose", "joint", alpha, b, r)
    return task, {"check": "decompose", "exit": 0, "m": m, "a": abs(alpha), "b": b, "r": rlist(r),
                  "case": case, "root_t": root}


def bounds_sweep_task(rng, m: int):
    b = float(rng.uniform(0.2, 0.95))
    lo = float(rng.uniform(0.1, 0.6))
    axes = [_axis("alpha", lo, lo + 0.3, 5)]
    run = {"command": "bounds", "alpha": lo, "beta": b, "m": m,
           "quantities": ["advantage", "single_slot_optimum"]}
    rows = [{"a": p[0], "b": b,
             "joint_opt": symmetric_optimum("joint", p[0], b),
             "ncm_opt": symmetric_optimum("ncm", p[0], b),
             "single_slot": min(1.0 - CAP_MARGIN, 1.0 - p[0] * b)} for p in _grid(axes)]
    task = {"command": "sweep", "run": run, "sweep": axes}
    return task, {"check": "bounds_sweep", "exit": 0, "m": m, "rows": rows, "points": len(rows), "sweep": True}


def optimize_sweep_task(rng, kind: str, m: int):
    b = float(rng.uniform(0.2, 0.95))
    lo = float(rng.uniform(0.1, 0.5))
    axes = [_axis("alpha", lo, lo + 0.4, 10)]
    run = {"command": "optimize", "kind": kind, "alpha": lo, "m": m, "symmetric": True}
    if kind != "ncm":
        run["beta"] = b
    rows = [{"value": symmetric_optimum(kind, p[0], b)} for p in _grid(axes)]
    task = {"command": "sweep", "run": run, "sweep": axes}
    return task, {"check": "optimize_sweep", "exit": 0, "m": m, "rows": rows, "points": len(rows), "sweep": True}


def convergence_task(rng, m_max: int):
    a = float(rng.uniform(0.1, 0.9))
    b = float(rng.uniform(0.2, 0.95))
    task = {"command": "bounds", "alpha": a, "beta": b, "m_max": m_max, "quantities": ["convergence"]}
    return task, {"check": "convergence", "exit": 0, "m_max": m_max, "limit": 1.0 - a * b}


def oracle_task(rng, kind: str):
    a = float(rng.uniform(0.1, 0.9))
    b = float(rng.uniform(0.2, 0.95))
    task = {"command": "optimize", "kind": kind, "alpha": a, "m": 1, "oracle_resolution": 0.002}
    if kind != "ncm":
        task["beta"] = b
    return task, {"check": "optimize", "exit": 0, "kind": kind, "m": 1, "a": a, "b": b,
                  "value": symmetric_optimum(kind, a, b), "resolution": 0.002}


def asymmetric_optimize_task(rng):
    alpha = draw_overlap(rng, 0.2, 0.8)
    b = float(rng.uniform(0.3, 0.95))
    p0 = float(rng.uniform(0.3, 0.7))
    task = {"command": "optimize", "kind": "joint", "alpha": cplx(alpha), "beta": b, "m": 2,
            "symmetric": False, "priors": [p0, 1.0 - p0]}
    a = abs(alpha)
    return task, {"check": "optimize", "exit": 0, "kind": "joint", "m": 2, "a": a, "b": b,
                  "value": symmetric_optimum("joint", a, b), "asymmetric": True}


# -- synthesis


def synthesis_task(rng, kind: str, m: int, simulate: bool, explicit: bool, emit: bool):
    alpha, beta, r = draw_instance(rng, kind, m, True, (0.3, 0.95), (0.05, 0.9))
    if explicit:
        # Feasibility depends on the overlap moduli only, so r stays valid.
        psi = draw_qubit_pair(rng, abs(alpha))
        phi = draw_qubit_pair(rng, abs(beta))
        alpha = complex(np.vdot(psi[0], psi[1]))
        beta = complex(np.vdot(phi[0], phi[1]))
    task = _machine_task("simulate" if simulate else "synthesize", kind, alpha, beta, r)
    if explicit:
        states = {"psi": [[cplx(v) for v in s] for s in psi]}
        if kind != "ncm":
            states["phi"] = [[cplx(v) for v in s] for s in phi]
        task["states"] = states
    if emit:
        task["emit_matrix"] = True
    meta = {"check": "synthesis", "exit": 0, "kind": kind, "m": m, "r": rlist(r),
            "dimension": synthesis_dimension(m), "emit_matrix": emit, "explicit": explicit}
    if simulate:
        task["shots"] = int(rng.integers(1_000, 100_001))
        task["input_index"] = int(rng.integers(2))
        task["seed"] = int(rng.integers(2**31))
        meta["shots"] = task["shots"]
    return task, meta


# ---------------------------------------------------------------------------
# workload cycles


def _quick_cycle(rng, n: int):
    """40 tasks: 20 feasibility, 4 compose, 3 uqcm, 4 bounds, 9 expected rejections."""
    out = []
    for i in range(20):
        out.append(feasibility_task(rng, KINDS[(n + i) % 3], 1 + (n + i) % 4, feasible=i % 2 == 0))
    out += [compose_task(rng, 1 + (n + i) % 3) for i in range(4)]
    out += [uqcm_task(rng) for _ in range(3)]
    out += [quick_bounds_task(rng) for _ in range(4)]
    out += [infeasible_decompose_task(rng, 1 + (n + i) % 3) for i in range(2)]
    out += [compose_task(rng, 1 + (n + i) % 3, feasible=False) for i in range(2)]
    out += [malformed_task(rng, (5 * n + i) % 10) for i in range(5)]
    return out


def _sweeps_cycle(rng, n: int):
    """24 tasks: decompose, bounds and optimize sweeps plus a few plain boundary solves."""
    out = [decompose_sweep_task(rng, 1 + (n + i) % 3, False, True) for i in range(8)]
    out += [decompose_sweep_task(rng, 1 + (n + i) % 2, True, True) for i in range(3)]
    out.append(decompose_sweep_task(rng, 1 + n % 3, False, False))
    out += [bounds_sweep_task(rng, 1 + (n + i) % 3) for i in range(3)]
    out += [optimize_sweep_task(rng, KINDS[(n + i) % 3], 1 + (n + i) % 3) for i in range(4)]
    out += [decompose_task(rng, 1 + (n + i) % 3) for i in range(2)]
    out.append(convergence_task(rng, 2 + n % 4))
    out.append(oracle_task(rng, KINDS[n % 3]))
    out.append(asymmetric_optimize_task(rng))
    return out


# Both the median task and the tail (the 11th slowest) fall inside the m = 4
# class.  Its cost is mostly BLAS work, which varies least with host load;
# at m <= 3 Python overhead dominates and a median there swings by 1.5x.
_SYNTH_M = (1,) * 6 + (2,) * 6 + (3,) * 6 + (4,) * 21 + (5,)


def _synthesis_cycle(rng, n: int):
    """40 tasks: m = 1, 2 and 3 six times each, m = 4 21 times, m = 5 once."""
    out = []
    for i, m in enumerate(_SYNTH_M):
        kind = KINDS[(n + i) % 3]
        explicit = i % 4 == 1
        emit = m <= 3 and i % 5 == 0
        out.append(synthesis_task(rng, kind, m, simulate=i % 2 == 1, explicit=explicit, emit=emit))
    return out


# Small fixed-class task each workload starts with; set-up is timed up to its end.
_FIRST = {
    "quick_tasks": lambda rng: feasibility_task(rng, "joint", 1, True),
    "boundary_sweeps": lambda rng: decompose_sweep_task(rng, 1, False, True),
    "synthesis_mix": lambda rng: synthesis_task(rng, "joint", 2, False, False, False),
}

_CYCLES = {"quick_tasks": _quick_cycle, "boundary_sweeps": _sweeps_cycle, "synthesis_mix": _synthesis_cycle}


def _tiny_cycle(workload: str, rng, n: int):
    """A cycle without the costliest classes, for the benchmark's own test."""
    tasks = _CYCLES[workload](rng, n)
    return [t for t in tasks if t[1].get("m", 1) <= 3 and not t[1].get("asymmetric")]


def generate(workload: str, seed: int, cycles: int, tiny: bool = False) -> list[dict]:
    """Task records {id, cycle, command, task, meta, points} for one workload and seed.

    Record 0 is the workload's fixed first task (cycle -1); the rest are
    ``cycles`` whole cycles, each shuffled.
    """
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pairs = [(-1, _FIRST[workload](rng))]
    for n in range(cycles):
        cycle = _tiny_cycle(workload, rng, n) if tiny else _CYCLES[workload](rng, n)
        pairs += [(n, cycle[i]) for i in rng.permutation(len(cycle))]
    return [{"id": i, "cycle": n, "command": meta.get("command", task["command"]), "task": task, "meta": meta,
             "points": meta.get("points", 1)}
            for i, (n, (task, meta)) in enumerate(pairs)]


def write_tasks(records: list[dict], directory: str) -> None:
    """Write one JSON task file per record and store its path in the record."""
    os.makedirs(directory, exist_ok=True)
    for rec in records:
        path = os.path.join(directory, f"task_{rec['id']:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec["task"], fh)
        rec["path"] = path


def input_properties(records: list[dict]) -> dict:
    """Measured properties of a task list: kind mix, m histogram and shares."""
    commands = Counter()
    kinds = Counter()
    ms = Counter()
    infeasible = emit = synth = 0
    cases = Counter()
    for rec in records:
        meta = rec["meta"]
        cmd = rec["task"]["command"]
        inner = rec["task"]["run"]["command"] if cmd == "sweep" else None
        commands[f"sweep/{inner}" if inner else cmd] += 1
        if "kind" in meta:
            kinds[meta["kind"]] += 1
        if "m" in meta:
            ms[meta["m"]] += 1
        infeasible += bool(meta.get("infeasible"))
        if meta["check"] == "synthesis":
            synth += 1
            emit += bool(meta["emit_matrix"])
        for row in meta.get("rows", []):
            if "case" in row:
                cases[row["case"]] += 1
        if meta["check"] == "decompose":
            cases[meta["case"]] += 1
    n = len(records)
    props = {
        "tasks": n,
        "points": sum(rec["points"] for rec in records),
        "commands": dict(sorted(commands.items())),
        "kinds": dict(sorted(kinds.items())),
        "m_histogram": {str(k): v for k, v in sorted(ms.items())},
        "infeasible_share": infeasible / n,
        "rejection_share": sum(rec["meta"]["exit"] != 0 for rec in records) / n,
    }
    if cases:
        total = sum(cases.values())
        props["decompose_cases"] = dict(sorted(cases.items()))
        props["case2_II_share"] = cases["case2_II"] / total
    if synth:
        props["emit_matrix_share"] = emit / synth
    return props
