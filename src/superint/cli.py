"""Experiment driver: every verification as a reproducible command.

Each command validates its configuration, runs one experiment, writes CSV
series data plus a machine-readable JSON summary (pass/fail per criterion
with the measured values), and exits 0 on pass, 1 on criterion failure,
2 on usage errors, 3 on numerical failure.  Identical configuration and
seed produce byte-identical summaries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__, dynamics, invariants, quantum, stackel
from .errors import AccuracyError, BranchError, DegenerateOrbitError, DomainError, IntegrationError
from .systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    bounded_dc_state,
    hamiltonian,
    params_to_text,
    random_dc_state,
    random_ttw_state,
)

EXIT_PASS = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class ExperimentConfig:
    """One command invocation: parameters, tolerances, outputs, seed."""

    command: str
    out_dir: str
    seed: int
    tol: float
    options: dict = field(default_factory=dict)

    def echo(self) -> dict:
        return {"command": self.command, "seed": self.seed, "tol": self.tol,
                "options": {k: v for k, v in sorted(self.options.items())}}


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_summary(config: ExperimentConfig, criteria: list[dict], extra: dict | None = None) -> str:
    summary = {
        "tool_version": __version__,
        "config": config.echo(),
        "tolerance": config.tol,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
    if extra:
        summary["data"] = extra
    path = os.path.join(config.out_dir, f"{config.command}_summary.json")
    atomic_write_text(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def _criterion(name: str, value: float, threshold: float, passed: bool | None = None) -> dict:
    if passed is None:
        passed = bool(value <= threshold)
    return {"name": name, "value": value, "threshold": threshold, "passed": bool(passed)}


def _parse_k(text) -> RationalIndex:
    return RationalIndex.from_string(str(text))  # a config file may give k=2 as an int


# Options that must be positive, and lowest values of the rest: below them a
# run is undefined or would pass having checked nothing.
_POSITIVE = ("q1", "t_end", "periods", "integrator_tol")
_MINIMUM = {"tol": 0.0, "n_states": 1, "n_points": 1, "n_samples": 1, "max_periods": 1,
            "N_max": 0, "n_max": 0, "m_max": 0, "n": 0, "m": 0, "grid_r": 1, "grid_phi": 1}


def _validate(args) -> None:
    """Reject a configuration no command can run on; raises DomainError."""
    flag = lambda name: "--" + name.replace("_", "-")
    for name, value in sorted(vars(args).items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{flag(name)} must be finite, got {value}")
    for name in _POSITIVE:
        value = getattr(args, name, None)
        if value is not None and not value > 0:
            raise DomainError(f"{flag(name)} must be positive, got {value}")
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise DomainError(f"{flag(name)} must be at least {low}, got {value}")
    if hasattr(args, "k"):
        _parse_k(args.k)


def _coerce(value: str):
    """Interpret a config-file value as int, float, bool, or string."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


def _load_config_file(path: str) -> dict:
    fields = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"malformed config line {line!r}")
            key, value = line.split("=", 1)
            fields[key.strip().replace("-", "_")] = value.strip()
    return fields


def _dc_params(args) -> DCParams:
    return DCParams(Q=args.Q, alpha=args.alpha, beta=args.beta, k=_parse_k(args.k))


def _ttw_params(args) -> TTWParams:
    return TTWParams(omega2=args.omega2, alpha=args.alpha, beta=args.beta, k=_parse_k(args.k))


def _initial_point(args, params) -> PhasePoint:
    if isinstance(params, DCParams):
        if args.E is not None and args.A is not None:
            return bounded_dc_state(params, args.E, args.A,
                                    r_frac=args.r_frac, u_frac=args.u_frac)
        chart = DC_CHART
    else:
        chart = TTW_CHART
    if None in (args.q1, args.q2, args.p1, args.p2):
        raise DomainError("provide either --E/--A or all of --q1 --q2 --p1 --p2")
    return PhasePoint(args.q1, args.q2, args.p1, args.p2, chart)


def _write_params(config: ExperimentConfig, params) -> None:
    atomic_write_text(os.path.join(config.out_dir, f"{config.command}_params.txt"),
                      params_to_text(params))


# --- command bodies ---------------------------------------------------------

def cmd_trajectory(args, config: ExperimentConfig) -> list[dict]:
    params = _dc_params(args) if args.family == "dc" else _ttw_params(args)
    initial = _initial_point(args, params)
    traj = dynamics.integrate(params, initial, args.t_end, tol=config.tol)
    dynamics.write_trajectory_csv(traj, os.path.join(config.out_dir, "trajectory.csv"))
    _write_params(config, params)
    config.options["steps"] = traj.steps
    return [_criterion("energy_drift", traj.max_energy_drift, 10.0 * config.tol)]


def cmd_closure(args, config: ExperimentConfig) -> list[dict]:
    params = _dc_params(args)
    initial = _initial_point(args, params)
    max_periods = args.max_periods or 2 * params.k.c * params.k.d
    report = dynamics.closure_check(params, initial, max_periods, config.tol,
                                    integrator_tol=args.integrator_tol)
    rows = ["n_radial,closed,return_distance,period_total",
            f"{report.n_radial},{report.closed},{report.return_distance!r},{report.period_total!r}"]
    atomic_write_text(os.path.join(config.out_dir, "closure.csv"), "\n".join(rows) + "\n")
    config.options["n_radial"] = report.n_radial
    config.options["period_total"] = report.period_total
    return [_criterion("return_distance", report.return_distance, config.tol,
                       passed=report.closed)]


def cmd_conserve(args, config: ExperimentConfig) -> list[dict]:
    params = _ttw_params(args)
    initial = _initial_point(args, params)
    period = math.pi / (2.0 * math.sqrt(params.omega2))
    traj = dynamics.integrate(params, initial, args.periods * period, tol=args.integrator_tol)
    rows = invariants.conservation_rows(traj)
    atomic_write_text(os.path.join(config.out_dir, "conserve.csv"), invariants.conservation_csv(rows))
    drifts = np.array([row[5:] for row in rows])
    worst = drifts.max(axis=0)
    names = ("drift_H", "drift_L1", "drift_L2sin", "drift_L2cos")
    return [_criterion(n, float(w), config.tol) for n, w in zip(names, worst)]


def cmd_bracket(args, config: ExperimentConfig) -> list[dict]:
    rng = np.random.default_rng(config.seed)
    lines = ["index,value,step,richardson_error"]
    worst = 0.0
    if args.family == "ttw":
        params = _ttw_params(args)
        F = lambda s: hamiltonian(s, params)
        G = lambda s: invariants.l2_poly(params, s) if args.variant == "sin" \
            else invariants.l2_cos(params, s)
        draw = lambda: random_ttw_state(rng, params, rho_range=(1.0, 1.4),
                                        p_max=0.8, margin=0.3)
    else:
        params = _dc_params(args)
        F = lambda s: hamiltonian(s, params)
        G = lambda s: invariants.dc_integral(params, s, variant=args.variant)
        draw = lambda: random_dc_state(rng, params, r_range=(0.8, 1.6),
                                       p_max=0.6, margin=0.3)
    for i in range(args.n_states):
        est = invariants.poisson_bracket_numeric(F, G, draw())
        lines.append(f"{i},{est.value!r},{est.step!r},{est.richardson_error!r}")
        worst = max(worst, abs(est.value))
    atomic_write_text(os.path.join(config.out_dir, "bracket.csv"), "\n".join(lines) + "\n")
    return [_criterion("max_abs_bracket", worst, config.tol)]


def cmd_orbit_residual(args, config: ExperimentConfig) -> list[dict]:
    params = _dc_params(args)
    initial = _initial_point(args, params)
    consts = dynamics.orbit_constants_from_point(params, initial)
    T = dynamics.radial_period_closed_form(params.Q, consts.E)
    traj = dynamics.integrate(params, initial, args.periods * T, tol=args.integrator_tol)
    tt = np.linspace(0.0, traj.t[-1], args.n_samples)
    lines = ["t,r,phi,residual"]
    worst = 0.0
    for t in tt:
        s = traj.at_time(t)
        res = dynamics.orbit_residual(params, consts, s.q1, s.q2)
        worst = max(worst, abs(res))
        lines.append(f"{float(t)!r},{s.q1!r},{s.q2!r},{res!r}")
    atomic_write_text(os.path.join(config.out_dir, "orbit_residual.csv"), "\n".join(lines) + "\n")
    # off-orbit negative control, perturbed toward the annulus interior
    s = traj.at_time(0.13 * T)
    r1, r2 = dynamics.radial_turning_points(params.Q, consts.E, consts.A)
    r_pert = s.q1 * 1.05 if s.q1 * 1.05 < r2 else s.q1 * 0.95
    control = abs(dynamics.orbit_residual(params, consts, r_pert, s.q2))
    return [
        _criterion("max_on_orbit_residual", worst, config.tol),
        _criterion("off_orbit_control", control, 1e-3, passed=control > 1e-3),
    ]


def cmd_stackel_verify(args, config: ExperimentConfig) -> list[dict]:
    params = _ttw_params(args)
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    lines = ["index,residual,H"]
    for i in range(args.n_points):
        s = random_ttw_state(rng, params)
        E = rng.uniform(0.5, 4.0)
        res = stackel.stackel_identity_residual(s, params, E)
        H = hamiltonian(s, params)
        worst = max(worst, abs(res) / (1.0 + abs(H)))
        lines.append(f"{i},{res!r},{H!r}")
    atomic_write_text(os.path.join(config.out_dir, "stackel_identity.csv"), "\n".join(lines) + "\n")
    # canonical bracket preservation through the pushforward
    pairs = [
        ("r_pr", lambda s: stackel.pushforward_phase(s).q1, lambda s: stackel.pushforward_phase(s).p1, 1.0),
        ("phi_pphi", lambda s: stackel.pushforward_phase(s).q2, lambda s: stackel.pushforward_phase(s).p2, 1.0),
        ("r_pphi", lambda s: stackel.pushforward_phase(s).q1, lambda s: stackel.pushforward_phase(s).p2, 0.0),
    ]
    worst_canon = 0.0
    for _ in range(max(args.n_points // 10, 5)):
        s = random_ttw_state(rng, params)
        for _, F, G, target in pairs:
            est = invariants.poisson_bracket_numeric(F, G, s)
            worst_canon = max(worst_canon, abs(est.value - target))
    return [
        _criterion("identity_residual", worst, config.tol),
        _criterion("canonical_brackets", worst_canon, 1e-8),
    ]


def cmd_spectrum(args, config: ExperimentConfig) -> list[dict]:
    k = _parse_k(args.k)
    alpha = args.a * (args.a - 1.0)
    beta = args.b * (args.b - 1.0)
    params = DCParams(Q=args.Q, alpha=alpha, beta=beta, k=k)
    N_max = args.n_max * k.d + args.m_max * k.c
    quantum.write_spectrum_csv(params, N_max, os.path.join(config.out_dir, "spectrum.csv"))
    worst = 0.0
    for n in range(args.n_max + 1):
        for m in range(args.m_max + 1):
            e1 = quantum.energy_level(args.Q, k, args.a, args.b, n, m)
            A = quantum.separation_constant(k, args.a, args.b, m)
            e2 = quantum.energy_level_from_A(args.Q, n, A)
            worst = max(worst, abs(e1 - e2) / abs(e1))
    config.options["E_0_0"] = quantum.energy_level(args.Q, k, args.a, args.b, 0, 0)
    return [_criterion("energy_form_agreement", worst, 1e-14)]


def cmd_degeneracy(args, config: ExperimentConfig) -> list[dict]:
    k = _parse_k(args.k)
    rows, mismatches = quantum.degeneracy_report(k, args.N_max)
    lines = ["N,formula,bruteforce,match,states"]
    for row in rows:
        states = ";".join(f"{n}:{m}" for n, m in row["states"])
        lines.append(f"{row['N']},{row['formula']},{row['bruteforce']},"
                     f"{row['formula'] == row['bruteforce']},{states}")
    atomic_write_text(os.path.join(config.out_dir, "degeneracy.csv"), "\n".join(lines) + "\n")
    config.options["mismatched_N"] = mismatches
    if k.d == 1:
        crit = _criterion("formula_matches_enumeration", float(len(mismatches)), 0.0,
                          passed=not mismatches)
    else:
        # enumeration is ground truth for d > 1; the mismatch list is the report
        crit = _criterion("mismatches_reported", float(len(mismatches)), math.inf, passed=True)
    return [crit]


def cmd_wavefunction_residual(args, config: ExperimentConfig) -> list[dict]:
    params = _dc_params(args)
    spec = quantum.bound_state(params, args.n, args.m)
    grid = quantum.default_grid(spec, n_r=args.grid_r, n_phi=args.grid_phi)
    res, ratio, used = quantum.residual_with_refinement(
        params, spec.E, lambda r, phi: quantum.wavefunction(spec, r, phi),
        grid, target=config.tol)
    if args.export_grid:
        quantum.write_wavefunction_csv(spec, grid, os.path.join(config.out_dir, "wavefunction.csv"))
    config.options["E"] = spec.E
    config.options["spacing"] = list(used.spacing)
    return [
        _criterion("residual", res, config.tol),
        _criterion("h2_convergence_ratio", ratio, math.inf, passed=2.3 <= ratio <= 7.0),
    ]


def cmd_orthogonality(args, config: ExperimentConfig) -> list[dict]:
    params = _dc_params(args)
    states = []
    for token in args.states.split(";"):
        n, m = token.split(",")
        states.append(quantum.bound_state(params, int(n), int(m)))
    lines = ["i,j,overlap"]
    worst = 0.0
    for i in range(len(states)):
        for j in range(i, len(states)):
            ov = quantum.orthogonality_check(states[i], states[j])
            lines.append(f"{i},{j},{ov!r}")
            if i != j:
                worst = max(worst, abs(ov))
    atomic_write_text(os.path.join(config.out_dir, "orthogonality.csv"), "\n".join(lines) + "\n")
    return [_criterion("max_cross_overlap", worst, config.tol)]


COMMANDS = {
    "trajectory": cmd_trajectory,
    "closure": cmd_closure,
    "conserve": cmd_conserve,
    "bracket": cmd_bracket,
    "orbit-residual": cmd_orbit_residual,
    "stackel-verify": cmd_stackel_verify,
    "spectrum": cmd_spectrum,
    "degeneracy": cmd_degeneracy,
    "wavefunction-residual": cmd_wavefunction_residual,
    "orthogonality": cmd_orthogonality,
}


def _add_dc_args(sp, with_point=True):
    sp.add_argument("--k", default="1", help="deformation index c/d")
    sp.add_argument("--Q", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=0.2)
    sp.add_argument("--beta", type=float, default=0.3)
    if with_point:
        _add_point_args(sp)


def _add_point_args(sp):
    sp.add_argument("--E", type=float, default=None, help="orbit energy (with --A)")
    sp.add_argument("--A", type=float, default=None, help="angular constant (with --E)")
    sp.add_argument("--r-frac", dest="r_frac", type=float, default=0.35)
    sp.add_argument("--u-frac", dest="u_frac", type=float, default=0.6)
    sp.add_argument("--q1", type=float, default=None)
    sp.add_argument("--q2", type=float, default=None)
    sp.add_argument("--p1", type=float, default=None)
    sp.add_argument("--p2", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superint",
        description="Reproducible verification experiments for the deformed "
                    "Coulomb family and its oscillator partner.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None,
                        help="output directory (default: $SUPERINT_OUTDIR or .)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=None,
                        help="pass/fail tolerance of the command")
    common.add_argument("--config", default=None,
                        help="flat key=value file; command-line flags win")

    sp = sub.add_parser("trajectory", parents=[common])
    sp.add_argument("--family", choices=("dc", "ttw"), default="dc")
    sp.add_argument("--omega2", type=float, default=1.0)
    _add_dc_args(sp)
    sp.add_argument("--t-end", dest="t_end", type=float, default=50.0)

    sp = sub.add_parser("closure", parents=[common])
    _add_dc_args(sp)
    sp.add_argument("--max-periods", dest="max_periods", type=int, default=None)
    sp.add_argument("--integrator-tol", dest="integrator_tol", type=float, default=1e-12)

    sp = sub.add_parser("conserve", parents=[common])
    sp.add_argument("--k", default="1")
    sp.add_argument("--omega2", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=0.2)
    sp.add_argument("--beta", type=float, default=0.3)
    _add_point_args(sp)
    sp.add_argument("--periods", type=float, default=20.0)
    sp.add_argument("--integrator-tol", dest="integrator_tol", type=float, default=1e-12)

    sp = sub.add_parser("bracket", parents=[common])
    sp.add_argument("--family", choices=("ttw", "dc"), default="ttw")
    sp.add_argument("--omega2", type=float, default=1.0)
    _add_dc_args(sp, with_point=False)
    sp.add_argument("--variant", choices=("sin", "cos"), default="sin")
    sp.add_argument("--n-states", dest="n_states", type=int, default=100)

    sp = sub.add_parser("orbit-residual", parents=[common])
    _add_dc_args(sp)
    sp.add_argument("--periods", type=float, default=5.0)
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=1000)
    sp.add_argument("--integrator-tol", dest="integrator_tol", type=float, default=1e-12)

    sp = sub.add_parser("stackel-verify", parents=[common])
    sp.add_argument("--k", default="1")
    sp.add_argument("--omega2", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=0.2)
    sp.add_argument("--beta", type=float, default=0.3)
    sp.add_argument("--n-points", dest="n_points", type=int, default=500)

    sp = sub.add_parser("spectrum", parents=[common])
    sp.add_argument("--k", default="1")
    sp.add_argument("--Q", type=float, default=1.0)
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--n-max", dest="n_max", type=int, default=2)
    sp.add_argument("--m-max", dest="m_max", type=int, default=2)

    sp = sub.add_parser("degeneracy", parents=[common])
    sp.add_argument("--k", default="2")
    sp.add_argument("--N-max", dest="N_max", type=int, default=50)

    sp = sub.add_parser("wavefunction-residual", parents=[common])
    _add_dc_args(sp, with_point=False)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--grid-r", dest="grid_r", type=int, default=500)
    sp.add_argument("--grid-phi", dest="grid_phi", type=int, default=340)
    sp.add_argument("--export-grid", dest="export_grid", action="store_true")

    sp = sub.add_parser("orthogonality", parents=[common])
    _add_dc_args(sp, with_point=False)
    sp.add_argument("--states", default="0,0;1,0;0,1",
                    help="semicolon-separated n,m pairs")
    return parser


DEFAULT_TOL = {
    "trajectory": 1e-10,
    "closure": 1e-6,
    "conserve": 1e-6,
    "bracket": 1e-6,
    "orbit-residual": 1e-6,
    "stackel-verify": 1e-11,
    "spectrum": 1e-14,
    "degeneracy": 0.0,
    "wavefunction-residual": 1e-5,
    "orthogonality": 1e-6,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.config:
            tokens = argv if argv is not None else sys.argv[1:]
            explicit = {tok.split("=", 1)[0][2:].replace("-", "_")
                        for tok in tokens if tok.startswith("--")}
            for key, value in _load_config_file(args.config).items():
                if not hasattr(args, key):
                    raise DomainError(f"unknown config key {key!r}")
                if key in explicit:
                    continue  # explicit flag wins over the file
                setattr(args, key, _coerce(value))
        _validate(args)
    except (OSError, DomainError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = args.out_dir or os.environ.get("SUPERINT_OUTDIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    tol = args.tol if args.tol is not None else DEFAULT_TOL[args.command]
    config = ExperimentConfig(command=args.command, out_dir=out_dir, seed=args.seed, tol=tol)

    try:
        criteria = COMMANDS[args.command](args, config)
    except (DomainError, AccuracyError, BranchError, DegenerateOrbitError,
            IntegrationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    path = write_summary(config, criteria)
    passed = all(c["passed"] for c in criteria)
    for c in criteria:
        state = "PASS" if c["passed"] else "FAIL"
        print(f"{state} {c['name']}: value={c['value']:.6g} threshold={c['threshold']:.6g}")
    print(f"summary: {path}")
    return EXIT_PASS if passed else EXIT_CRITERION


if __name__ == "__main__":
    sys.exit(main())
