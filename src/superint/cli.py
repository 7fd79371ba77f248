"""Experiment driver: every verification as a reproducible command.

Each command validates its configuration, runs one experiment, writes CSV
series data plus a machine-readable JSON summary (pass/fail per criterion
with the measured values), and exits 0 on pass, 1 on criterion failure,
2 on usage errors, 3 on numerical failure.  Identical configuration and
seed produce byte-identical summaries.  This module is the package's only
file writer: the library modules return data, formatted and written here.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import traceback
from collections.abc import Iterable

import numpy as np

from . import __version__, dynamics, invariants, quantum, stackel
from .errors import AccuracyError, DegenerateOrbitError, DomainError, IntegrationError
from .systems import (
    DC_CHART,
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    angular_invariant,
    bounded_dc_state,
    hamiltonian,
    params_to_text,
    random_dc_state,
    random_ttw_state,
    validate_bounded,
)

EXIT_PASS = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write a str, or str pieces in order, via a temporary file and rename.

    Readers never see a partial file, and an iterable is written as it is
    produced, so no caller has to join a large text in memory first.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(args, name: str, header: str, rows) -> None:
    """Stream rows under a header line; a str cell is written as is, any other by repr."""
    cell = lambda v: v if isinstance(v, str) else repr(v)
    lines = (",".join(cell(v) for v in row) + "\n" for row in rows)
    atomic_write_text(os.path.join(args.out_dir, name), itertools.chain([header + "\n"], lines))


def write_summary(args, criteria: list[dict], data: dict) -> str:
    """Write the summary: echoed config, criteria, verdict and measured data."""
    summary = {
        "tool_version": __version__,
        "config": {"command": args.command, "seed": args.seed, "tol": args.tol},
        "tolerance": args.tol,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
        "data": data,
    }
    path = os.path.join(args.out_dir, f"{args.command}_summary.json")
    atomic_write_text(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def _criterion(name: str, value: float, threshold: float, passed: bool | None = None) -> dict:
    if passed is None:
        passed = bool(value <= threshold)
    return {"name": name, "value": value, "threshold": threshold, "passed": bool(passed)}


def _parse_states(text: str) -> list[tuple[int, int]]:
    """The --states list: at least two distinct n,m pairs of non-negative integers."""
    try:
        states = [tuple(int(v) for v in token.split(",")) for token in text.split(";")]
    except ValueError:
        states = []
    if len(states) < 2 or len(set(states)) != len(states) or \
            any(len(s) != 2 or min(s) < 0 for s in states):
        raise DomainError("--states needs at least two distinct n,m pairs of "
                          f"non-negative integers, got {text!r}")
    return states


# The lowest value of each option, as (flags, lowest, strict, commands, reason)
# rows: a value below the lowest, or at it when strict, is a usage error for
# the commands listed, or for every command with the flag when none are.
# Past these a run is undefined, leaves the paper's bound or normalizable
# states, or would pass having checked nothing.
_RANGES = (
    ("q1 t_end periods", 0, True, (), ""),
    ("tol", 0.0, False, (), ""),
    ("n_states n_points n_samples max_periods grid_r grid_phi", 1, False, (), ""),
    ("N_max n_max m_max n m", 0, False, (), ""),
    ("alpha beta", quantum.COUPLING_FLOOR, True, ("wavefunction-residual", "orthogonality"),
     " for normalizable states"),
    ("alpha beta", 0.0, False, ("conserve",),
     ": a negative coupling draws every orbit into its wall"),
    ("alpha beta", 0.0, False, ("bracket",),
     ": a negative coupling leaves states with L1 < 0, where the integrals are undefined"),
    ("omega2", 0, True, ("conserve",), ": conserve counts oscillator periods"),
    ("Q", 0, True, ("spectrum", "wavefunction-residual", "orthogonality"),
     " for a bound spectrum"),
    ("a b", 0.5, True, ("spectrum",), " on the normalizable branch"),
)
# Commands that need a bounded DC orbit; trajectory integrates any point.
_BOUNDED_ORBIT_COMMANDS = ("closure", "orbit-residual")
# Each family's parameter type and coupling flag; the coupling defaults to 1.
_FAMILIES = {"dc": (DCParams, "Q"), "ttw": (TTWParams, "omega2")}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _validate(args) -> None:
    """Reject a configuration no command can run on, raising DomainError, and
    resolve the system of a command with a family and the start point of a
    command that integrates one."""
    for name, value in sorted(vars(args).items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{_flag(name)} must be finite, got {value}")
    for names, low, strict, commands, reason in _RANGES:
        for name in names.split():
            value = getattr(args, name, None)
            if value is None or commands and args.command not in commands:
                continue
            if not (value > low if strict else value >= low):
                bound = ("be positive" if low == 0 else f"exceed {low}") if strict \
                    else f"be at least {low}"
                raise DomainError(f"{_flag(name)} must {bound}{reason}, got {value}")
    # the integrator's tolerance (trajectory integrates at its --tol), and the
    # place of an --E/--A start between the turning points of its shell
    tol = "tol" if args.command == "trajectory" else "integrator_tol"
    intervals = ((tol, dynamics.TOL_MIN, dynamics.TOL_MAX, " for the integrator"),
                 ("r_frac", 0, 1, " (its place in the radial annulus)"),
                 ("u_frac", 0, 1, " (its place in the angular band)"))
    for name, low, high, reason in intervals:
        value = getattr(args, name, None)
        if value is not None and not low <= value <= high:
            raise DomainError(f"{_flag(name)} must lie in [{low}, {high}]{reason}, got {value}")
    if hasattr(args, "k"):
        args.k = RationalIndex.from_string(args.k)
    if hasattr(args, "states"):
        _parse_states(args.states)
    if hasattr(args, "family"):
        args.params = _params(args)
    if hasattr(args, "q1"):
        _resolve_start(args)


def _params(args):
    """The system of args.family; the other family's coupling would go unread
    and is rejected naming its flag."""
    for family, (_, name) in _FAMILIES.items():
        if family != args.family and getattr(args, name, None) is not None:
            raise DomainError(f"{_flag(name)} is a coupling of --family {family}; "
                              f"--family {args.family} would not read it")
    kind, name = _FAMILIES[args.family]
    coupling = getattr(args, name)
    return kind(1.0 if coupling is None else coupling, alpha=args.alpha, beta=args.beta, k=args.k)


def _resolve_start(args) -> None:
    """Set args.initial, the start of an integrating command.

    The start is --E/--A on the Coulomb side, placed on the shell by --r-frac
    and --u-frac (0.35 and 0.6 by default), or else all four point flags.  A
    start flag the chosen start would not read is rejected naming it.  A
    point must have an energy (not on a wall), and constants, or a closure
    or orbit-residual point, must fix a bounded orbit, or DomainError names
    the flags given; values too large for floats raise an ArithmeticError.
    """
    dc = args.family == "dc"
    given = lambda *names: [name for name in names if getattr(args, name, None) is not None]
    constants, point = given("E", "A"), given("q1", "q2", "p1", "p2")
    from_constants = dc and len(constants) == 2
    if from_constants:
        start, unread = f"--E {args.E} and --A {args.A}", point
    elif len(point) == 4:
        start, unread = f"--q1 {args.q1} --q2 {args.q2} --p1 {args.p1} --p2 {args.p2}", \
            constants + given("r_frac", "u_frac")
        args.initial = PhasePoint(args.q1, args.q2, args.p1, args.p2, DC_CHART if dc else TTW_CHART)
    else:
        raise DomainError(f"provide {'either --E/--A or ' if dc else ''}all of --q1 --q2 --p1 --p2")
    if unread:
        raise DomainError(f"{' '.join(map(_flag, unread))} would go unread: {start} fix the start")
    try:
        E, A = (args.E, args.A) if from_constants else \
            (hamiltonian(args.initial, args.params), angular_invariant(args.initial, args.params))
        if not from_constants and args.command not in _BOUNDED_ORBIT_COMMANDS:
            return
        report = validate_bounded(args.params, E, A)
    except DomainError as exc:  # a point on a wall or at r = 0 has no energy, nor an orbit
        raise DomainError(f"{start}: {exc}") from exc
    if not report.all_passed:
        raise DomainError(f"{start} describe no bounded orbit: they fail the rows {report.failed()}")
    if from_constants:
        args.initial = bounded_dc_state(args.params, E, A,
                                        r_frac=0.35 if args.r_frac is None else args.r_frac,
                                        u_frac=0.6 if args.u_frac is None else args.u_frac)


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


def _accepts(action: argparse.Action, value: str) -> bool:
    """Whether argparse takes value for this flag: its type converts it, its choices hold it."""
    try:
        typed = (action.type or str)(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return False
    return not action.choices or typed in action.choices


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]):
    """Parse argv; a --config file's values become flags placed before argv's own.

    Each file value is first checked against its flag's type and choices,
    so a bad one is reported with the file and the key; argparse then
    applies the flags, and an explicit flag, coming later, wins.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    actions = {a.dest: a for a in sub._actions}
    tokens = []
    for key, value in _load_config_file(args.config).items():
        if key not in actions or not hasattr(args, key):
            raise DomainError(f"unknown config key {key!r}")
        flag = _flag(key)
        if isinstance(getattr(args, key), bool):  # a switch such as --export-grid
            if value.lower() not in ("true", "false"):
                raise DomainError(f"config key {key!r} must be true or false, got {value!r}")
            tokens += [flag] if value.lower() == "true" else []
        elif _accepts(actions[key], value):
            tokens.append(f"{flag}={value}")
        else:
            sub.error(f"--config {args.config}: key {key!r} has invalid value {value!r}")
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def _state_labels(states) -> list[str]:
    """The n:m label of each state, for a CSV states cell joined by ';'."""
    return [f"{n}:{m}" for n, m in states]


# --- command bodies ---------------------------------------------------------

# A command returns its criteria and the other values it measured (the
# summary's "data"); it writes its own CSV files through _write_csv.  One with
# a family finds its system in args.params, and one that integrates its start
# in args.initial.
Outcome = tuple[list[dict], dict]


def cmd_trajectory(args) -> Outcome:
    params = args.params
    traj = dynamics.integrate(params, args.initial, args.t_end, tol=args.tol)
    rows = []
    for i, t in enumerate(traj.t.tolist()):
        pt = traj.point(i)
        rows.append((t, pt.q1, pt.q2, pt.p1, pt.p2, float(hamiltonian(pt, params)),
                     float(angular_invariant(pt, params))))
    _write_csv(args, "trajectory.csv", "t,q1,q2,p1,p2,H,A", rows)
    atomic_write_text(os.path.join(args.out_dir, "trajectory_params.txt"), params_to_text(params))
    return ([_criterion("energy_drift", traj.max_energy_drift, 10.0 * args.tol)],
            {"steps": traj.steps, "nfev": traj.nfev, "rejected": traj.rejected})


def cmd_closure(args) -> Outcome:
    k = args.params.k
    report = dynamics.closure_check(args.params, args.initial, args.max_periods or 2 * k.c * k.d,
                                    args.tol, integrator_tol=args.integrator_tol)
    _write_csv(args, "closure.csv", "n_radial,closed,return_distance,period_total",
               [(report.n_radial, report.closed, report.return_distance, report.period_total)])
    return ([_criterion("return_distance", report.return_distance, args.tol,
                        passed=report.closed)],
            {"n_radial": report.n_radial, "period_total": report.period_total})


def cmd_conserve(args) -> Outcome:
    period = math.pi / (2.0 * math.sqrt(args.params.omega2))
    traj = dynamics.integrate(args.params, args.initial, args.periods * period,
                              tol=args.integrator_tol)
    rows = invariants.conservation_rows(traj)
    _write_csv(args, "conserve.csv",
               "t,H,L1,L2sin,L2cos,drift_H,drift_L1,drift_L2sin,drift_L2cos", rows)
    drifts = np.array([row[5:] for row in rows])
    worst = drifts.max(axis=0)
    names = ("drift_H", "drift_L1", "drift_L2sin", "drift_L2cos")
    return [_criterion(n, float(w), args.tol) for n, w in zip(names, worst)], {}


def cmd_bracket(args) -> Outcome:
    params = args.params
    rng = np.random.default_rng(args.seed)
    if args.family == "ttw":
        draw = lambda: random_ttw_state(rng, params, rho_range=(1.0, 1.4),
                                        p_max=0.8, margin=0.3)
    else:
        draw = lambda: random_dc_state(rng, params, r_range=(0.8, 1.6),
                                       p_max=0.6, margin=0.3)
    F = lambda s: hamiltonian(s, params)
    G = lambda s: invariants.l2_poly(params, s) if args.variant == "sin" \
        else invariants.l2_cos(params, s)
    rows = [(i, invariants.poisson_bracket_numeric(F, G, draw()).value)
            for i in range(args.n_states)]
    _write_csv(args, "bracket.csv", "index,value", rows)
    worst = max(abs(row[1]) for row in rows)
    return [_criterion("max_abs_bracket", worst, args.tol)], {}


def cmd_orbit_residual(args) -> Outcome:
    params = args.params
    consts = dynamics.orbit_constants_from_point(params, args.initial)
    T = dynamics.radial_period_closed_form(params.Q, consts.E)
    traj = dynamics.integrate(params, args.initial, args.periods * T, tol=args.integrator_tol)
    tt = np.linspace(0.0, traj.t[-1], args.n_samples)
    rows = [(t, r, phi, dynamics.orbit_residual(params, consts, r, phi))
            for t, (r, phi) in zip(tt.tolist(), traj.dense(tt)[:2].T.tolist())]
    _write_csv(args, "orbit_residual.csv", "t,r,phi,residual", rows)
    worst = max(abs(row[3]) for row in rows)
    # off-orbit negative control, perturbed toward the annulus interior
    s = traj.at_time(0.13 * T)
    r1, r2 = dynamics.radial_turning_points(params.Q, consts.E, consts.A)
    r_pert = s.q1 * 1.05 if s.q1 * 1.05 < r2 else s.q1 * 0.95
    control = abs(dynamics.orbit_residual(params, consts, r_pert, s.q2))
    return [
        _criterion("max_on_orbit_residual", worst, args.tol),
        _criterion("off_orbit_control", control, 1e-3, passed=control > 1e-3),
    ], {}


def cmd_stackel_verify(args) -> Outcome:
    params = args.params
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    rows = []
    for i in range(args.n_points):
        s = random_ttw_state(rng, params)
        E = rng.uniform(0.5, 4.0)
        res = stackel.stackel_identity_residual(s, params, E)
        H = hamiltonian(s, params)
        worst = max(worst, abs(res) / (1.0 + abs(H)))
        rows.append((i, res, H))
    _write_csv(args, "stackel_identity.csv", "index,residual,H", rows)
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
        _criterion("identity_residual", worst, args.tol),
        _criterion("canonical_brackets", worst_canon, 1e-8),
    ], {}


def cmd_spectrum(args) -> Outcome:
    k = args.k
    alpha = args.a * (args.a - 1.0)
    beta = args.b * (args.b - 1.0)
    params = DCParams(Q=args.Q, alpha=alpha, beta=beta, k=k)
    rows = []
    for N in range(args.n_max * k.d + args.m_max * k.c + 1):
        # spectral_line raises AccuracyError if the line's energies disagree
        line = quantum.spectral_line(params, N)
        if line is not None:
            rows.append((N, line.E, quantum.degeneracy_formula(k, N), len(line.states),
                         ";".join(_state_labels(line.states))))
    _write_csv(args, "spectrum.csv", "N,E,degeneracy_formula,degeneracy_bruteforce,states", rows)
    worst = 0.0
    for n in range(args.n_max + 1):
        for m in range(args.m_max + 1):
            e1 = quantum.energy_level(args.Q, k, args.a, args.b, n, m)
            A = quantum.separation_constant(k, args.a, args.b, m)
            e2 = quantum.energy_level_from_A(args.Q, n, A)
            worst = max(worst, abs(e1 - e2) / abs(e1))
    return ([_criterion("energy_form_agreement", worst, 1e-14)],
            {"E_0_0": quantum.energy_level(args.Q, k, args.a, args.b, 0, 0)})


def cmd_degeneracy(args) -> Outcome:
    k = args.k
    mismatches = []

    def rows():
        # one walk per level, consumed as its row is written
        for N in range(args.N_max + 1):
            labels = _state_labels(quantum.level_states(k, N))
            formula = quantum.degeneracy_formula(k, N)
            if formula != len(labels):
                mismatches.append(N)
            yield N, formula, len(labels), formula == len(labels), ";".join(labels)

    _write_csv(args, "degeneracy.csv", "N,formula,bruteforce,match,states", rows())
    if k.d == 1:
        crit = _criterion("formula_matches_enumeration", float(len(mismatches)), 0.0,
                          passed=not mismatches)
    else:
        # enumeration is ground truth for d > 1; the mismatch list is the report
        crit = _criterion("mismatches_reported", float(len(mismatches)), math.inf, passed=True)
    return [crit], {"mismatched_N": mismatches}


def cmd_wavefunction_residual(args) -> Outcome:
    params = args.params
    spec = quantum.bound_state(params, args.n, args.m)
    grid = quantum.default_grid(spec, n_r=args.grid_r, n_phi=args.grid_phi)
    res, ratio, used = quantum.residual_with_refinement(
        params, spec.E, lambda r, phi: quantum.wavefunction(spec, r, phi),
        grid, target=args.tol)
    if args.export_grid:
        rr, ff = grid.axes()
        r, phi = rr[:, None], ff[None, :]
        psi = quantum.wavefunction(spec, r, phi)
        R, F = np.broadcast_arrays(r, phi)
        _write_csv(args, "wavefunction.csv", "r,phi,psi",
                   zip(R.ravel().tolist(), F.ravel().tolist(), psi.ravel().tolist()))
    return [
        _criterion("residual", res, args.tol),
        _criterion("h2_convergence_ratio", ratio, math.inf, passed=2.3 <= ratio <= 7.0),
    ], {"E": spec.E, "spacing": list(used.spacing)}


def cmd_orthogonality(args) -> Outcome:
    states = [quantum.bound_state(args.params, n, m) for n, m in _parse_states(args.states)]
    rows = []
    for i in range(len(states)):
        for j in range(i, len(states)):
            rows.append((i, j, quantum.orthogonality_check(states[i], states[j])))
    _write_csv(args, "orthogonality.csv", "i,j,overlap", rows)
    worst = max(abs(ov) for i, j, ov in rows if i != j)
    return [_criterion("max_cross_overlap", worst, args.tol)], {}


def _add_system(sp, *families, start=False):
    """Register the flags of a command's system and, with start, of its start.

    A command of one family gets it as a default, one of two gets --family,
    the first being the default.  The couplings Q and omega2 default to None
    so that _params can tell one given to the other family; so do --r-frac
    and --u-frac, for _resolve_start.
    """
    if len(families) == 1:
        sp.set_defaults(family=families[0])
    else:
        sp.add_argument("--family", choices=families, default=families[0])
    sp.add_argument("--k", default="1", help="deformation index c/d")
    for family in families:
        name = _FAMILIES[family][1]
        sp.add_argument(_flag(name), dest=name, type=float, default=None,
                        help=f"coupling of the {family} family (default 1)")
    sp.add_argument("--alpha", type=float, default=0.2)
    sp.add_argument("--beta", type=float, default=0.3)
    if not start:
        return
    if "dc" in families:
        sp.add_argument("--E", type=float, default=None, help="orbit energy (with --A)")
        sp.add_argument("--A", type=float, default=None, help="angular constant (with --E)")
        sp.add_argument("--r-frac", dest="r_frac", type=float, default=None,
                        help="radial place of an --E/--A start in [0, 1] (default 0.35)")
        sp.add_argument("--u-frac", dest="u_frac", type=float, default=None,
                        help="angular place of an --E/--A start in [0, 1] (default 0.6)")
    for name in ("q1", "q2", "p1", "p2"):
        sp.add_argument(_flag(name), type=float, default=None)


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
    common.add_argument("--config", default=None,
                        help="flat key=value file; command-line flags win")

    def command(name, run, tol):
        # --tol is added per command: a default set on the action shared
        # through common would hold for every command
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--tol", type=float, default=tol,
                        help="pass/fail tolerance of the command (default %(default)s)")
        sp.set_defaults(run=run)
        return sp

    sp = command("trajectory", cmd_trajectory, 1e-10)
    _add_system(sp, "dc", "ttw", start=True)
    sp.add_argument("--t-end", dest="t_end", type=float, default=50.0)

    sp = command("closure", cmd_closure, 1e-6)
    _add_system(sp, "dc", start=True)
    sp.add_argument("--max-periods", dest="max_periods", type=int, default=None)
    sp.add_argument("--integrator-tol", dest="integrator_tol", type=float, default=1e-12)

    sp = command("conserve", cmd_conserve, 1e-6)
    _add_system(sp, "ttw", start=True)
    sp.add_argument("--periods", type=float, default=20.0)
    sp.add_argument("--integrator-tol", dest="integrator_tol", type=float, default=1e-12)

    sp = command("bracket", cmd_bracket, 1e-6)
    _add_system(sp, "ttw", "dc")
    sp.add_argument("--variant", choices=("sin", "cos"), default="sin")
    sp.add_argument("--n-states", dest="n_states", type=int, default=100)

    sp = command("orbit-residual", cmd_orbit_residual, 1e-6)
    _add_system(sp, "dc", start=True)
    sp.add_argument("--periods", type=float, default=5.0)
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=1000)
    sp.add_argument("--integrator-tol", dest="integrator_tol", type=float, default=1e-12)

    sp = command("stackel-verify", cmd_stackel_verify, 1e-11)
    _add_system(sp, "ttw")
    sp.add_argument("--n-points", dest="n_points", type=int, default=500)

    sp = command("spectrum", cmd_spectrum, 1e-14)
    sp.add_argument("--k", default="1")
    sp.add_argument("--Q", type=float, default=1.0)
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--n-max", dest="n_max", type=int, default=2)
    sp.add_argument("--m-max", dest="m_max", type=int, default=2)

    sp = command("degeneracy", cmd_degeneracy, 0.0)
    sp.add_argument("--k", default="2")
    sp.add_argument("--N-max", dest="N_max", type=int, default=50)

    sp = command("wavefunction-residual", cmd_wavefunction_residual, 1e-5)
    _add_system(sp, "dc")
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--grid-r", dest="grid_r", type=int, default=500)
    sp.add_argument("--grid-phi", dest="grid_phi", type=int, default=340)
    sp.add_argument("--export-grid", dest="export_grid", action="store_true")

    sp = command("orthogonality", cmd_orthogonality, 1e-6)
    _add_system(sp, "dc")
    sp.add_argument("--states", default="0,0;1,0;0,1",
                    help="semicolon-separated n,m pairs")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(build_parser(), argv)
        _validate(args)
    except (OSError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a start point's values too large for floats
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    args.out_dir = args.out_dir or os.environ.get("SUPERINT_OUTDIR", ".")
    os.makedirs(args.out_dir, exist_ok=True)

    try:
        criteria, data = args.run(args)
        path = write_summary(args, criteria, data)
    except (DomainError, AccuracyError, DegenerateOrbitError, IntegrationError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a fault no handler maps; exit 1 is kept for a failed criterion
        traceback.print_exc()
        print("unexpected failure", file=sys.stderr)
        return EXIT_NUMERICAL

    passed = all(c["passed"] for c in criteria)
    for c in criteria:
        state = "PASS" if c["passed"] else "FAIL"
        print(f"{state} {c['name']}: value={c['value']:.6g} threshold={c['threshold']:.6g}")
    print(f"summary: {path}")
    return EXIT_PASS if passed else EXIT_CRITERION


if __name__ == "__main__":
    sys.exit(main())
