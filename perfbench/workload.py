"""One run of one benchmark workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/workload.py --workload orbits --seed 1 --trace 0 \
        --run-id r0 --work-dir .perfbench_work/r0 --result .perfbench_work/r0.json

The process builds its inputs from the seed, records the monotonic time of
its first workload call and of its last verdict, probes the host's speed
as it runs (``hostspeed.py``), gates every verdict at the
acceptance-suite and CLI tolerances, and writes one JSON result.
``--setup-only`` stops right before the first workload call, so the
parent can sample set-up time cheaply.  ``perfbench/run.py`` drives it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import hostspeed
from spans import NullTracer, Tracer, array_points

import superint
from superint import dynamics, invariants, quantum, stackel, systems
from superint.systems import (
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    bounded_dc_state,
    random_ttw_state,
)

K_LIST = ("1", "2", "3", "1/2", "3/2", "2/3")

# Bounded Coulomb-family setups of the acceptance suite: (params, E, A).
DC_SETUPS = {
    "1": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1)), -0.2, 0.75),
    "2": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2)), -0.2, 1.1),
    "3": (DCParams(Q=1.0, alpha=0.08, beta=0.12, k=RationalIndex(3)), -0.2, 1.1),
    "1/2": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(1, 2)), -0.2, 0.6),
    "3/2": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2)), -0.2, 0.9),
    "2/3": (DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(2, 3)), -0.2, 0.7),
}

# Tolerances of the acceptance suite and of the CLI's DEFAULT_TOL.
TOL_CLOSURE = 1e-6
TOL_PERIOD = 1e-6
TOL_ORBIT = 1e-6
OFF_ORBIT_CONTROL = 1e-3
TOL_HAUSDORFF = 1e-5
TOL_CROSS = 1e-9
TOL_DRIFT = 1e-6
TOL_BRACKET = 1e-6
TOL_IDENTITY = 1e-11
TOL_CANONICAL = 1e-8
TOL_RESIDUAL = 1e-5
RATIO_WINDOW = (2.3, 7.0)
TOL_OVERLAP = 1e-6
CLI_DEFAULT_TOL = {
    "trajectory": 1e-10, "closure": 1e-6, "conserve": 1e-6, "bracket": 1e-6,
    "orbit-residual": 1e-6, "stackel-verify": 1e-11, "spectrum": 1e-14,
    "degeneracy": 0.0, "wavefunction-residual": 1e-5, "orthogonality": 1e-6,
}
# The negative control re-gates the loosest passing check at this factor.
CONTROL_FACTOR = 1e-6


def ttw_radial_period(omega2: float) -> float:
    return math.pi / (2.0 * math.sqrt(omega2))


def dc_setup(k_text: str):
    params, E, A = DC_SETUPS[k_text]
    return params, E, A, bounded_dc_state(params, E, A, r_frac=0.35, u_frac=0.6)


class Verdicts:
    """Every gated value, in call order; the gate is value <= tol unless stated."""

    def __init__(self):
        self.rows: list[dict] = []

    def _add(self, name, value, passed, tol=None, known=False):
        self.rows.append({"name": name, "value": float(value), "tol": tol,
                          "passed": bool(passed), "known_failure": known})

    def le(self, name, value, tol, known=False):
        self._add(name, value, value <= tol, tol, known)

    def gt(self, name, value, floor):
        self._add(name, value, value > floor)

    def within(self, name, value, lo, hi):
        self._add(name, value, lo <= value <= hi)

    def flag(self, name, ok):
        self._add(name, 1.0 if ok else 0.0, ok)

    def negative_control(self) -> dict:
        """Re-gate the loosest passing <= check at a 1e-6 times smaller tolerance.

        Known failure modes are left out.  The gate is shown not to be
        vacuous when this control fails.
        """
        gated = [r for r in self.rows if r["tol"] and r["passed"] and not r["known_failure"]]
        if not gated:  # nothing passes, so there is nothing to re-gate
            return {"name": "none", "value": math.nan, "tol": math.nan, "failed": True}
        row = max(gated, key=lambda r: r["value"] / r["tol"])
        tol = row["tol"] * CONTROL_FACTOR
        return {"name": row["name"], "value": row["value"], "tol": tol,
                "failed": not row["value"] <= tol}


class Calls:
    """Counts the benchmark's calls into the package and spans them when traced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = 0

    def __call__(self, span, fn, *args, **kwargs):
        self.ops += 1
        with self.tracer.span(span):
            return fn(*args, **kwargs)

    def integrate(self, params, initial, t_end, tol):
        traj = self("dynamics.integrate", dynamics.integrate, params, initial, t_end, tol=tol)
        if not self.tracer.enabled:
            return traj
        self.tracer.count("dynamics.steps", traj.steps)
        return replace(traj, dense=self.tracer.tap("dynamics.dense", traj.dense, array_points))


# --- orbits -------------------------------------------------------------------

# Within this fraction of max |p_phi| a sample sits at an angular turning
# point, where the closed-form residual carries sqrt(1 - X_phi^2) and so
# grows like the square root of the state error: a 1e-12 state error can
# read as 1e-6 there (seen at seed 202: 1.13e-6 at p_phi = 1.25e-6).  Such
# samples are gated separately as a known failure mode.
TURNING_FRAC = 1e-3
SWEEP_Q = (0.7, 1.0, 1.4, 2.0, 2.6)
SWEEP_E = (-0.15, -0.3)
RESIDUAL_SAMPLES = 700
HAUSDORFF_CASES = (("1", 1.0), ("3/2", 0.25), ("2", 0.5))


def orbits_inputs(rng):
    closures = []
    for k_text in K_LIST:
        params, E, A, pt = dc_setup(k_text)
        closures.append((k_text, params, pt, 2 * params.k.c * params.k.d))
    # one orbit per (Q, E) of the criterion-2/3 sweep; the seed picks its
    # shell fraction and the residual sample times
    alpha, beta = 0.2, 0.3
    A_floor = (alpha + beta) / 4.0 + math.sqrt(alpha * beta) / 2.0
    sweep = []
    for Q in SWEEP_Q:
        for E in SWEEP_E:
            frac = float(rng.choice((0.35, 0.7)))
            A = A_floor + frac * (Q * Q / (4.0 * abs(E)) - A_floor)
            params = DCParams(Q=Q, alpha=alpha, beta=beta, k=RationalIndex(1))
            pt = bounded_dc_state(params, E, A, r_frac=0.4, u_frac=0.55)
            T = dynamics.radial_period_closed_form(Q, E)
            times = np.sort(rng.uniform(0.0, 6.2 * T, RESIDUAL_SAMPLES))
            sweep.append((f"Q={Q} E={E} frac={frac}", params, E, A, pt, T, times))
    cases = []
    for k_text, omega2 in HAUSDORFF_CASES:
        ttw = TTWParams(omega2=omega2, alpha=0.2, beta=0.3, k=RationalIndex.from_string(k_text))
        n = 2 * ttw.k.c * ttw.k.d + 0.3
        s0 = PhasePoint(1.3, 0.45 * 0.5 * math.pi / ttw.k.value, 0.3, 0.6, TTW_CHART)
        dc, E_tilde = stackel.ttw_to_dc(ttw, systems.hamiltonian(s0, ttw))
        x0 = stackel.pushforward_phase(s0)
        cases.append((k_text, ttw, s0, n * ttw_radial_period(omega2),
                       dc, x0, n * dynamics.radial_period_closed_form(dc.Q, E_tilde)))
    return closures, sweep, cases


def orbits_run(inputs, call: Calls, v: Verdicts):
    closures, sweep, cases = inputs
    for k_text, params, pt, bound in closures:
        rep = call("dynamics.closure", dynamics.closure_check, params, pt, bound, tol=TOL_CLOSURE)
        v.flag(f"closure k={k_text} closed within {bound} periods",
               rep.closed and rep.n_radial <= bound)
        v.le(f"closure k={k_text} return distance", rep.return_distance, TOL_CLOSURE)
    for label, params, E, A, pt, T, times in sweep:
        traj = call.integrate(params, pt, 6.2 * T, tol=1e-12)
        consts = call("dynamics.orbit_constants", dynamics.orbit_constants_from_point, params, pt)
        measured = call("dynamics.period", dynamics.measure_radial_period, traj)
        v.le(f"period {label}", abs(measured - T) / T, TOL_PERIOD)
        with call.tracer.span("dynamics.orbit_residual"):
            p_turn = TURNING_FRAC * float(np.max(np.abs(traj.y[3])))
            worst = {False: 0.0, True: 0.0}  # keyed by "at an angular turning point"
            for t in times:
                s = traj.at_time(t)
                call.ops += 1
                res = abs(dynamics.orbit_residual(params, consts, s.q1, s.q2))
                turning = abs(s.p2) <= p_turn
                worst[turning] = max(worst[turning], res)
            v.le(f"orbit residual {label}", worst[False], TOL_ORBIT)
            v.le(f"orbit residual at angular turning points {label}", worst[True], TOL_ORBIT,
                 known=True)
            _, r2 = dynamics.radial_turning_points(params.Q, E, A)
            s = traj.at_time(0.13 * T)
            r_pert = s.q1 * 1.05 if s.q1 * 1.05 < r2 else s.q1 * 0.95
            call.ops += 1
            control = abs(dynamics.orbit_residual(params, consts, r_pert, s.q2))
            v.gt(f"off-orbit control {label}", control, OFF_ORBIT_CONTROL)
    for k_text, ttw, s0, t_ttw, dc, x0, t_dc in cases:
        ttw_traj = call.integrate(ttw, s0, t_ttw, tol=1e-12)
        dc_traj = call.integrate(dc, x0, t_dc, tol=1e-12)
        d = call("stackel.hausdorff", stackel.mapped_orbit_hausdorff, ttw_traj, dc_traj)
        v.le(f"hausdorff k={k_text}", d, TOL_HAUSDORFF)


# --- integrals ----------------------------------------------------------------

CROSS_STATES = 500
BRACKET_STATES = 100
IDENTITY_STATES = 500
CANONICAL_STATES = 40


def integrals_inputs(rng):
    per_k = []
    for k_text in K_LIST:
        k = RationalIndex.from_string(k_text)
        p = TTWParams(omega2=1.0, alpha=0.3 / k.value ** 2, beta=0.45 / k.value ** 2, k=k)
        cross = [random_ttw_state(rng, p) for _ in range(CROSS_STATES)]
        s0 = PhasePoint(1.1, 0.3 * 0.5 * math.pi / k.value, 0.4, 0.7, TTW_CHART)
        brackets = [random_ttw_state(rng, p, rho_range=(1.0, 1.4), p_max=0.8, margin=0.3)
                    for _ in range(BRACKET_STATES)]
        per_k.append((k_text, p, cross, s0, brackets))
    p5 = TTWParams(omega2=1.0, alpha=0.3, beta=0.45, k=RationalIndex(3, 2))
    identity = [(random_ttw_state(rng, p5), float(rng.uniform(0.5, 4.0)))
                for _ in range(IDENTITY_STATES)]
    canonical = [random_ttw_state(rng, p5) for _ in range(CANONICAL_STATES)]
    pullback = [(k_text, *dc_setup(k_text)) for k_text in ("1", "2", "3/2")]
    return per_k, p5, identity, canonical, pullback


def _push(field):
    return lambda s: getattr(stackel.pushforward_phase(s), field)


# {r, p_r} = 1, {phi, p_phi} = 1, {r, p_phi} = 0 through the pushforward
CANONICAL_PAIRS = ((_push("q1"), _push("p1"), 1.0),
                   (_push("q2"), _push("p2"), 1.0),
                   (_push("q1"), _push("p2"), 0.0))


def integrals_run(inputs, call: Calls, v: Verdicts):
    per_k, p5, identity, canonical, pullback = inputs
    tap = call.tracer.tap
    for k_text, p, cross, s0, brackets in per_k:
        with call.tracer.span("invariants.cross_check"):
            worst = 0.0
            for s in cross:
                t, q = invariants.l2_trig(p, s), invariants.l2_poly(p, s)
                worst = max(worst, abs(t - q) / max(1.0, abs(q)))
            call.ops += 2 * len(cross)
            v.le(f"trig/poly k={k_text}", worst, TOL_CROSS)
        traj = call.integrate(p, s0, 20 * ttw_radial_period(p.omega2), tol=1e-12)
        rows = call("invariants.conservation", invariants.conservation_rows, traj)
        drifts = np.array([row[5:] for row in rows]).max(axis=0)
        for name, drift in zip(("H", "L1", "L2sin", "L2cos"), drifts):
            v.le(f"drift {name} k={k_text}", drift, TOL_DRIFT)
        F = tap("systems.hamiltonian", lambda s, p=p: systems.hamiltonian(s, p))
        G = tap("invariants.operand", lambda s, p=p: invariants.l2_poly(p, s))
        worst = 0.0
        for s in brackets:
            est = call("invariants.bracket", invariants.poisson_bracket_numeric, F, G, s)
            worst = max(worst, abs(est.value))
        v.le(f"bracket H,L2 k={k_text}", worst, TOL_BRACKET)
    with call.tracer.span("stackel.identity"):
        worst = 0.0
        for s, E in identity:
            res = stackel.stackel_identity_residual(s, p5, E)
            worst = max(worst, abs(res) / (1.0 + abs(systems.hamiltonian(s, p5))))
        call.ops += 2 * len(identity)
        v.le("stackel identity", worst, TOL_IDENTITY)
    pairs = [(tap("invariants.operand", F), tap("invariants.operand", G), target)
             for F, G, target in CANONICAL_PAIRS]
    worst = 0.0
    for s in canonical:
        for F, G, target in pairs:
            est = call("invariants.bracket", invariants.poisson_bracket_numeric, F, G, s)
            worst = max(worst, abs(est.value - target))
    v.le("canonical brackets", worst, TOL_CANONICAL)
    for k_text, params, E, A, pt in pullback:
        T = dynamics.radial_period_closed_form(params.Q, E)
        traj = call.integrate(params, pt, 20 * T, tol=1e-12)
        with call.tracer.span("invariants.conservation"):
            tt = np.linspace(0.0, traj.t[-1], 260)
            for variant in ("sin", "cos"):
                vals = np.array([invariants.dc_integral(params, traj.at_time(t), variant)
                                 for t in tt])
                call.ops += tt.size
                drift = float(np.max(np.abs(vals - vals[0]))) / max(1.0, abs(vals[0]))
                v.le(f"pullback drift {variant} k={k_text}", drift, TOL_DRIFT)


# --- quantum ------------------------------------------------------------------

QUANTUM_STATES = (("1", 0.0, 0.0, 0, 0), ("1", 0.75, 2.0, 1, 0), ("2", 0.2, 0.3, 0, 1),
                  ("2", 0.2, 0.3, 1, 0), ("3/2", 0.2, 0.3, 0, 0), ("3/2", 0.2, 0.3, 1, 1))
# Fails today: residual 5.07e-5 > 1e-5 after the three allowed halvings.
KNOWN_FAILING_STATE = ("1", 0.75, 2.0, 2, 0)
MAPPED_STATES = (("3/2", (1, 1)), ("2", (0, 1)))
ORTHO_STATES = ((0, 0), (1, 0), (0, 1), (1, 1))
DEGENERACY = (("2", 2500), ("3/2", 2500))


def quantum_inputs(rng):
    del rng  # every quantum input is fixed; the seed is ignored
    residuals = []
    for state in (*QUANTUM_STATES, KNOWN_FAILING_STATE):
        k_text, alpha, beta, n, m = state
        params = DCParams(Q=1.0, alpha=alpha, beta=beta, k=RationalIndex.from_string(k_text))
        spec = quantum.bound_state(params, n, m)
        psi = lambda r, phi, spec=spec: quantum.wavefunction(spec, r, phi)
        residuals.append((f"k={k_text} a={alpha} b={beta} (n,m)=({n},{m})", params, spec, psi,
                          state == KNOWN_FAILING_STATE))
    for k_text, nm in MAPPED_STATES:
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3, k=RationalIndex.from_string(k_text))
        psi_ttw, E_ttw = quantum.ttw_bound_state(ttw, *nm)
        dc, _ = stackel.ttw_to_dc(ttw, E_ttw)
        residuals.append((f"mapped k={k_text} (n,m)={nm}", dc, quantum.bound_state(dc, *nm),
                          stackel.map_wavefunction(psi_ttw), False))
    ortho_params = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=RationalIndex(3, 2))
    ortho = [quantum.bound_state(ortho_params, n, m) for n, m in ORTHO_STATES]
    degeneracy = [(RationalIndex.from_string(k), N) for k, N in DEGENERACY]
    return residuals, ortho, degeneracy


def quantum_run(inputs, call: Calls, v: Verdicts):
    residuals, ortho, degeneracy = inputs
    for label, params, spec, psi, known in residuals:
        grid = quantum.default_grid(spec, n_r=500, n_phi=340)
        psi = call.tracer.tap("quantum.psi", psi, array_points)
        res, ratio, _ = call("quantum.residual", quantum.residual_with_refinement,
                             params, spec.E, psi, grid, target=TOL_RESIDUAL)
        v.le(f"residual {label}", res, TOL_RESIDUAL, known=known)
        v.within(f"h2 ratio {label}", ratio, *RATIO_WINDOW)
    for i in range(len(ortho)):
        for j in range(i + 1, len(ortho)):
            ov = call("quantum.ortho", quantum.orthogonality_check, ortho[i], ortho[j])
            v.le(f"overlap {ORTHO_STATES[i]} {ORTHO_STATES[j]}", abs(ov), TOL_OVERLAP)
    for k, N_max in degeneracy:
        _, mismatches = call("quantum.degeneracy", quantum.degeneracy_report, k, N_max)
        if k.d == 1:
            v.flag(f"degeneracy k={k} formula = enumeration to N={N_max}", not mismatches)
        else:
            v.flag(f"degeneracy k={k} mismatches reported to N={N_max}", bool(mismatches))


# --- cli ----------------------------------------------------------------------

README_COMMANDS = (
    "closure --k 3/2 --Q 1 --alpha 0.2 --beta 0.3 --E -0.2 --A 0.9",
    "conserve --k 3/2 --omega2 1 --alpha 0.3 --beta 0.45 "
    "--q1 1.1 --q2 0.3 --p1 0.4 --p2 0.7 --periods 20",
    "bracket --family dc --k 2 --Q 1 --n-states 100 --seed {seed}",
    "orbit-residual --k 2 --Q 1 --alpha 0.2 --beta 0.3 --E -0.2 --A 1.1",
    "stackel-verify --k 3/2 --omega2 1 --n-points 500",
    "spectrum --k 1 --a 1 --b 1 --Q 1 --n-max 2 --m-max 2",
    "degeneracy --k 2 --N-max 50",
    "wavefunction-residual --k 1 --Q 1 --alpha 0 --beta 0 --n 0 --m 0",
    "orthogonality --k 3/2 --Q 1 --alpha 0.2 --beta 0.3 --states 0,0;1,0;0,1",
    "trajectory --family dc --k 1 --Q 1 --alpha 0 --beta 0 "
    "--q1 1 --q2 1 --p1 0 --p2 0.70710678 --t-end 50",
)
# Criterion 9: two seeded runs must write byte-identical summaries.
DETERMINISM_COMMAND = ("bracket --family ttw --k 3/2 --omega2 1 --alpha 0.13 --beta 0.2 "
                       "--n-states 30 --seed {seed}")


def spawn(argv, out_path):
    """Run one child to completion; return (exit code, seconds, peak RSS in MiB).

    The peak comes from this child's own rusage (wait4), not the running
    maximum that RUSAGE_CHILDREN keeps over every child ever reaped.
    """
    t0 = time.perf_counter()
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - t0, usage.ru_maxrss / 1024.0


def cli_inputs(seed):
    """Command lines; only the bracket runs take the seed, as their --seed flag."""
    runs = [(cmd.split()[0], cmd.format(seed=seed).split(), True) for cmd in README_COMMANDS]
    runs += [("bracket", DETERMINISM_COMMAND.format(seed=seed).split(), False)] * 2
    return [(f"{i:02d}-{name}", name, argv, readme) for i, (name, argv, readme) in enumerate(runs)]


class CliRun:
    """The cli workload's own measurements, filled in as commands run."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.peak_mb = 0.0
        self.files = 0
        self.bytes = 0
        self.seconds = {}

    def command(self, tag, args):
        out_dir = os.path.join(self.work_dir, tag)
        os.makedirs(out_dir)
        argv = [sys.executable, "-m", "superint", *args, "--out-dir", out_dir]
        code, secs, peak = spawn(argv, os.path.join(self.work_dir, tag + ".log"))
        self.peak_mb = max(self.peak_mb, peak)
        return code, secs, out_dir


def cli_run(inputs, call: Calls, v: Verdicts, cli: CliRun, speed: hostspeed.HostSpeed):
    determinism = []
    for tag, name, argv, readme in inputs:
        call.ops += 1
        speed.tick()  # between commands: a probe must not run beside one
        code, secs, out_dir = cli.command(tag, argv)
        if readme:
            cli.seconds[name] = secs
        v.flag(f"{tag} exits 0", code == 0)
        path = os.path.join(out_dir, f"{name}_summary.json")
        if code != 0 or not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            raw = fh.read()
        summary = json.loads(raw)
        v.flag(f"{tag} passed", summary["passed"] is True)
        v.flag(f"{tag} tolerance", summary["tolerance"] == CLI_DEFAULT_TOL[name])
        for crit in summary["criteria"]:
            if math.isfinite(crit["threshold"]) and crit["threshold"] > 0 and \
                    crit["name"] not in ("off_orbit_control", "h2_convergence_ratio"):
                v.le(f"{tag} {crit['name']}", crit["value"], crit["threshold"])
            else:
                v.flag(f"{tag} {crit['name']}", crit["passed"])
        for entry in os.scandir(out_dir):
            cli.files += 1
            cli.bytes += entry.stat().st_size
        if not readme:
            determinism.append(raw)
    v.flag("criterion 9 byte-identical summaries",
           len(determinism) == 2 and determinism[0] == determinism[1])


# --- entry point ----------------------------------------------------------------

def layer_metrics(tr: Tracer, cli: CliRun | None) -> dict:
    """Per-layer figures from the spans, taps and counts of one traced run."""
    c = tr.counts
    get = lambda key: c.get(key, 0)
    ratio = lambda a, b: a / b if b else 0.0
    steps = get("dynamics.steps")
    integrate_s = tr.total("dynamics.integrate")
    dense_calls, dense_points = get("dynamics.dense.calls"), get("dynamics.dense.points")
    brackets = tr.calls("invariants.bracket")
    bracket_s = tr.total("invariants.bracket")
    evals = get("systems.hamiltonian.calls") + get("invariants.operand.calls")
    residual_s = tr.total("quantum.residual")
    psi_s = get("quantum.psi.s")
    grid_points = get("quantum.psi.points")
    cmd_s = cli.seconds if cli else {}
    m = {
        "systems.hamiltonian_evals": (get("systems.hamiltonian.calls"), "count"),
        "systems.hamiltonian_us": (1e6 * ratio(get("systems.hamiltonian.s"),
                                               get("systems.hamiltonian.calls")), "us"),
        "dynamics.integrate_calls": (tr.calls("dynamics.integrate"), "count"),
        "dynamics.integrate_s": (integrate_s, "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.us_per_step": (1e6 * ratio(integrate_s, steps), "us"),
        "dynamics.dense_calls": (dense_calls, "count"),
        "dynamics.dense_points": (dense_points, "count"),
        "dynamics.points_per_dense_call": (ratio(dense_points, dense_calls), "1"),
        "dynamics.dense_s": (get("dynamics.dense.s"), "s"),
        "dynamics.closure_s": (tr.total("dynamics.closure"), "s"),
        "dynamics.period_s": (tr.total("dynamics.period"), "s"),
        "dynamics.orbit_residual_s": (tr.total("dynamics.orbit_residual"), "s"),
        "stackel.hausdorff_s": (tr.total("stackel.hausdorff"), "s"),
        "stackel.hausdorff_self_s": (tr.self_total("stackel.hausdorff"), "s"),
        "stackel.identity_s": (tr.total("stackel.identity"), "s"),
        "invariants.bracket_calls": (brackets, "count"),
        "invariants.bracket_s": (bracket_s, "s"),
        "invariants.ms_per_bracket": (1e3 * ratio(bracket_s, brackets), "ms"),
        "invariants.evals_per_bracket": (ratio(evals, brackets), "1"),
        "invariants.conservation_s": (tr.total("invariants.conservation"), "s"),
        "invariants.cross_check_s": (tr.total("invariants.cross_check"), "s"),
        "quantum.residual_s": (residual_s, "s"),
        "quantum.levels": (get("quantum.psi.calls"), "count"),
        "quantum.grid_points": (grid_points, "count"),
        "quantum.max_grid_points": (get("quantum.psi.max_points"), "count"),
        "quantum.psi_s": (psi_s, "s"),
        "quantum.stencil_s": (residual_s - psi_s, "s"),
        "quantum.ns_per_grid_point": (1e9 * ratio(residual_s, grid_points), "ns"),
        "quantum.ortho_s": (tr.total("quantum.ortho"), "s"),
        "quantum.degeneracy_s": (tr.total("quantum.degeneracy"), "s"),
        "cli.import_s": (get("cli.import_s"), "s"),
        "cli.files_written": (cli.files if cli else 0, "count"),
        "cli.bytes_written": (cli.bytes if cli else 0, "bytes"),
    }
    for cmd in README_COMMANDS:
        name = cmd.split()[0]
        m[f"cli.cmd_s.{name}"] = (cmd_s.get(name, 0.0), "s")
    return m


IN_PROCESS = {
    "orbits": (orbits_inputs, orbits_run),
    "integrals": (integrals_inputs, integrals_run),
    "quantum": (quantum_inputs, quantum_run),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*IN_PROCESS, "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join("src", "superint"))
    if os.path.dirname(os.path.realpath(superint.__file__)) != src:
        print(f"superint imported from {superint.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer(args.run_id) if args.trace else NullTracer()
    call, v, cli = Calls(tracer), Verdicts(), None
    result = {"workload": args.workload, "seed": args.seed}

    os.makedirs(args.work_dir, exist_ok=True)
    if args.workload == "cli":
        cli = CliRun(args.work_dir)
        inputs = cli_inputs(args.seed)
        # The work runs in fresh processes of about a second each, so the
        # probe is an interpreter start, taken between commands; one such
        # reading is noisy next to a command, so the wall time is rescaled
        # by the repetition's median probe.
        speed = hostspeed.HostSpeed(hostspeed.spawn_probe, hostspeed.REFERENCE_SPAWN_S)
        measured_wall = speed.wall_at_median
        # set-up is one cold `--version`, the fixed cost every command pays
        probe_before = speed.measure()
        code, secs, _ = spawn([sys.executable, "-m", "superint", "--version"],
                              os.path.join(args.work_dir, "version.log"))
        if code != 0:
            print("`python -m superint --version` failed", file=sys.stderr)
            return 1
        result["setup_plain_s"] = secs
        result["setup_s"] = speed.rescale(secs, probe_before, speed.measure())
        if args.trace:
            probe = "import time; t = time.perf_counter(); import superint.cli; " \
                    "print(time.perf_counter() - t)"
            out = subprocess.run([sys.executable, "-c", probe], check=True,
                                 capture_output=True, text=True).stdout
            tracer.count("cli.import_s", float(out))
        run = lambda: cli_run(inputs, call, v, cli, speed)
    else:
        make_inputs, run_inputs = IN_PROCESS[args.workload]
        inputs = make_inputs(np.random.default_rng(args.seed))
        speed = hostspeed.HostSpeed()
        measured_wall = speed.wall

        def run():
            speed.sample_every()
            try:
                run_inputs(inputs, call, v)
            finally:
                speed.stop()

    result["t_first"] = time.monotonic()
    result["first_probe_s"] = speed.probe()
    if not args.setup_only:
        run()
        speed.probe()
        result["t_last"] = time.monotonic()
        result["wall_plain_s"], result["wall_s"] = measured_wall()
        result["ops"] = call.ops
        result["checks"] = v.rows
        result["control"] = v.negative_control()
        values = json.dumps([r["value"].hex() for r in v.rows]).encode()
        result["verdict_digest"] = hashlib.sha256(values).hexdigest()
        if cli:
            result["peak_rss_mb"] = cli.peak_mb
        if args.trace:
            result["layers"] = layer_metrics(tracer, cli)
            tracer.write(os.path.join(os.path.dirname(args.result), f"trace-{args.run_id}.json"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
