"""Acceptance suite: one test per verification criterion.

Each test prints a PASS/FAIL line with the measured figure so the run log
doubles as the verification report.  Tolerances are fixed here, not
configurable.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import angular_invariant, dc_setup, ttw_radial_period
from superint.cli import EXIT_PASS, main
from superint.dynamics import (
    closure_check,
    integrate,
    measure_radial_period,
    off_orbit_control,
    orbit_residual,
    radial_period_closed_form,
)
from superint.invariants import (
    dc_integral,
    l2_cos,
    l2_poly,
    l2_trig,
    poisson_bracket_numeric,
)
from superint.quantum import (
    bound_state,
    default_grid,
    degeneracy_bruteforce,
    degeneracy_formula,
    energy_level,
    energy_level_from_A,
    exponents_from_couplings,
    level_states,
    residual_with_refinement,
    separation_constant,
    spectral_line,
    ttw_bound_state,
    wavefunction,
)
from superint.stackel import (
    map_wavefunction,
    mapped_orbit_hausdorff,
    pushforward_phase,
    stackel_identity_residual,
    ttw_to_dc,
)
from superint.systems import (
    TTW_CHART,
    DCParams,
    PhasePoint,
    RationalIndex,
    TTWParams,
    hamiltonian,
    random_ttw_state,
)

K_LIST = ["1", "2", "3", "1/2", "3/2", "2/3"]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_orbit_closure():
    worst = {}
    for k_text in K_LIST:
        params, E, A, pt = dc_setup(k_text)
        bound = 2 * params.k.c * params.k.d
        start = time.time()
        rep = closure_check(params, pt, bound, tol=1e-6)
        elapsed = time.time() - start
        ok = rep.closed and rep.return_distance <= 1e-6 and rep.n_radial <= bound \
            and elapsed < 30.0
        worst[k_text] = (rep.closed, rep.n_radial, rep.return_distance, round(elapsed, 2))
        if not ok:
            report("1 (orbit closure)", False,
                   f"k={k_text}: closed={rep.closed} n={rep.n_radial} "
                   f"distance={rep.return_distance:.2e} time={elapsed:.1f}s")
    detail = "; ".join(f"k={k}: n={v[1]} dist={v[2]:.1e} ({v[3]}s)" for k, v in worst.items())
    report("1 (orbit closure)", True, detail)


def test_criterion_2_radial_period(period_sweep):
    worst = 0.0
    for params, E, A, pt, T, traj, consts in period_sweep:
        measured = measure_radial_period(traj)
        worst = max(worst, abs(measured - T) / T)
    report("2 (radial period)", worst <= 1e-6,
           f"worst relative period error {worst:.2e} over {len(period_sweep)} orbits (tol 1e-6)")


def test_criterion_3_implicit_orbit(period_sweep):
    worst = 0.0
    weakest_control = math.inf
    for params, E, A, pt, T, traj, consts in period_sweep:
        for t in np.linspace(0.0, traj.t[-1], 700):
            s = traj.at_time(t)
            worst = max(worst, abs(orbit_residual(params, consts, s.q1, s.q2)))
        weakest_control = min(weakest_control, off_orbit_control(params, consts, traj))
    ok = worst <= 1e-6 and weakest_control > 1e-3
    report("3 (implicit orbit)", ok,
           f"max on-orbit residual {worst:.2e} (tol 1e-6); "
           f"weakest off-orbit control {weakest_control:.2e} (must exceed 1e-3)")


def test_criterion_4_higher_order_integrals():
    rng = np.random.default_rng(4)
    worst_cross = 0.0
    worst_drift = 0.0
    worst_bracket = 0.0
    worst_fit = 0.0
    for k_text in K_LIST:
        k = RationalIndex.from_string(k_text)
        kv = k.value
        p = TTWParams(omega2=1.0, alpha=0.3 / kv ** 2, beta=0.45 / kv ** 2, k=k)
        # trig and polynomial assemblies agree on 500 random states
        for _ in range(500):
            s = random_ttw_state(rng, p)
            t, q = l2_trig(p, s), l2_poly(p, s)
            worst_cross = max(worst_cross, abs(t - q) / max(1.0, abs(q)))
        # conservation over 20 radial periods
        cell = 0.5 * math.pi / kv
        s0 = PhasePoint(1.1, 0.3 * cell, 0.4, 0.7, TTW_CHART)
        traj = integrate(p, s0, 20 * ttw_radial_period(p.omega2), tol=1e-12)
        tt = np.linspace(0.0, traj.t[-1], 260)
        for fn in (lambda s: angular_invariant(s, p),
                   lambda s: l2_poly(p, s), lambda s: l2_cos(p, s)):
            vals = np.array([fn(traj.at_time(t)) for t in tt])
            worst_drift = max(worst_drift,
                              float(np.max(np.abs(vals - vals[0]))) / max(1.0, abs(vals[0])))
        # Poisson bracket with the Hamiltonian at 100 random states
        H = lambda s: hamiltonian(s, p)
        G = lambda s: l2_poly(p, s)
        for _ in range(100):
            s = random_ttw_state(rng, p, rho_range=(1.0, 1.4), p_max=0.8, margin=0.3)
            worst_bracket = max(worst_bracket, abs(poisson_bracket_numeric(H, G, s).value))
        # momentum-scaling polynomiality and minimal degree
        deg = 2 * (k.c + k.d)
        s = random_ttw_state(rng, p)
        lams = np.linspace(0.5, 1.8, deg + 3)
        vals = np.array([l2_poly(p, replace(s, p1=lam * s.p1, p2=lam * s.p2)) for lam in lams])
        coeffs = np.polynomial.polynomial.polyfit(lams, vals, deg)
        fit = np.polynomial.polynomial.polyval(lams, coeffs)
        worst_fit = max(worst_fit, float(np.max(np.abs(fit - vals)))
                        / max(1.0, float(np.max(np.abs(vals)))))
        # the lower-degree variant, of degree 2(c+d)-1, is the sine one when c + d is even
        low = l2_poly if (k.c + k.d) % 2 == 0 else l2_cos
        dmin = 2 * (k.c + k.d) - 1
        r1, r2 = (low(p, replace(s, p1=lam * s.p1, p2=lam * s.p2)) / lam ** dmin
                  for lam in (120.0, 240.0))
        assert r1 == pytest.approx(r2, rel=2e-2), f"k={k_text}: minimal degree is not {dmin}"
    ok = worst_cross <= 1e-9 and worst_drift <= 1e-6 and worst_bracket <= 1e-6 \
        and worst_fit <= 1e-8
    report("4 (higher-order integrals)", ok,
           f"cross-form {worst_cross:.2e} (1e-9); drift {worst_drift:.2e} (1e-6); "
           f"bracket {worst_bracket:.2e} (1e-6); lambda-fit {worst_fit:.2e} (1e-8); "
           f"minimal degree 2(c+d)-1 confirmed for all k")


def test_criterion_5_stackel_identity():
    rng = np.random.default_rng(5)
    p = TTWParams(omega2=1.0, alpha=0.3, beta=0.45, k=RationalIndex(3, 2))
    worst_identity = 0.0
    for _ in range(500):
        s = random_ttw_state(rng, p)
        E = rng.uniform(0.5, 4.0)
        res = stackel_identity_residual(s, p, E)
        worst_identity = max(worst_identity, abs(res) / (1.0 + abs(hamiltonian(s, p))))
    pairs = [
        (lambda s: pushforward_phase(s).q1, lambda s: pushforward_phase(s).p1, 1.0),
        (lambda s: pushforward_phase(s).q2, lambda s: pushforward_phase(s).p2, 1.0),
        (lambda s: pushforward_phase(s).q1, lambda s: pushforward_phase(s).p2, 0.0),
    ]
    worst_canon = 0.0
    for _ in range(40):
        s = random_ttw_state(rng, p)
        for F, G, target in pairs:
            worst_canon = max(worst_canon,
                              abs(poisson_bracket_numeric(F, G, s).value - target))
    worst_pullback = 0.0
    for k_text in ("1", "2", "3/2"):
        params, E, A, pt = dc_setup(k_text)
        T = radial_period_closed_form(params.Q, E)
        traj = integrate(params, pt, 20 * T, tol=1e-12)
        tt = np.linspace(0.0, traj.t[-1], 260)
        for variant in ("sin", "cos"):
            vals = np.array([dc_integral(params, traj.at_time(t), variant) for t in tt])
            worst_pullback = max(worst_pullback,
                                 float(np.max(np.abs(vals - vals[0]))) / max(1.0, abs(vals[0])))
    ok = worst_identity <= 1e-11 and worst_canon <= 1e-8 and worst_pullback <= 1e-6
    report("5 (coupling-energy exchange)", ok,
           f"identity {worst_identity:.2e} (1e-11 scaled); canonical brackets "
           f"{worst_canon:.2e} (1e-8); pullback drift {worst_pullback:.2e} (1e-6)")


def test_criterion_6_trajectory_correspondence():
    cases = [("1", 1.0), ("3/2", 0.25), ("2", 0.5)]
    worst = 0.0
    for k_text, omega2 in cases:
        ttw = TTWParams(omega2=omega2, alpha=0.2, beta=0.3,
                        k=RationalIndex.from_string(k_text))
        c, d = ttw.k.c, ttw.k.d
        cell = 0.5 * math.pi / ttw.k.value
        s0 = PhasePoint(1.3, 0.45 * cell, 0.3, 0.6, TTW_CHART)
        traj = integrate(ttw, s0, (2 * c * d + 0.3) * ttw_radial_period(omega2), tol=1e-12)
        dc, E_tilde = ttw_to_dc(ttw, hamiltonian(s0, ttw))
        x0 = pushforward_phase(s0)
        T_dc = radial_period_closed_form(dc.Q, E_tilde)
        dc_traj = integrate(dc, x0, (2 * c * d + 0.3) * T_dc, tol=1e-12)
        worst = max(worst, mapped_orbit_hausdorff(traj, dc_traj))
    report("6 (trajectory correspondence)", worst <= 1e-5,
           f"worst matched-time distance, a bound on Hausdorff, {worst:.2e} over "
           f"{len(cases)} parameter sets (tol 1e-5)")


QUANTUM_STATES = [
    ("1", 0.0, 0.0, 0, 0),
    ("1", 0.75, 2.0, 1, 0),
    ("2", 0.2, 0.3, 0, 1),
    ("2", 0.2, 0.3, 1, 0),
    ("3/2", 0.2, 0.3, 0, 0),
    ("3/2", 0.2, 0.3, 1, 1),
]


def _refined_residual(params, E, psi, spec, target=1e-5):
    grid = default_grid(spec, n_r=500, n_phi=340)
    res, ratio, _ = residual_with_refinement(params, E, psi, grid, target=target)
    return res, ratio


def test_criterion_7_quantum_spectrum_and_states():
    ground = energy_level(1.0, RationalIndex(1), 1.0, 1.0, 0, 0)
    assert ground == pytest.approx(-1.0 / 9.0, rel=1e-15)

    worst_forms = 0.0
    details = []
    for k_text, alpha, beta, n, m in QUANTUM_STATES:
        params = DCParams(Q=1.0, alpha=alpha, beta=beta,
                          k=RationalIndex.from_string(k_text))
        spec = bound_state(params, n, m)
        a, b = exponents_from_couplings(alpha, beta)
        A = separation_constant(params.k, a, b, m)
        worst_forms = max(worst_forms, abs(spec.E - energy_level_from_A(1.0, n, A))
                          / abs(spec.E))
        res, ratio = _refined_residual(
            params, spec.E, lambda r, phi: wavefunction(spec, r, phi), spec)
        ok = res <= 1e-5 and 2.3 <= ratio <= 7.0
        details.append(f"k={k_text} (n,m)=({n},{m}): res={res:.1e} ratio={ratio:.2f}")
        if not ok:
            report("7 (quantum states)", False, details[-1])

    # mapped oscillator eigenfunctions satisfy the Coulomb-side equation
    for k_text, nm in (("3/2", (1, 1)), ("2", (0, 1))):
        ttw = TTWParams(omega2=0.25, alpha=0.2, beta=0.3,
                        k=RationalIndex.from_string(k_text))
        psi, E_ttw = ttw_bound_state(ttw, *nm)
        dc, E_tilde = ttw_to_dc(ttw, E_ttw)
        spec = bound_state(dc, *nm)
        res, ratio = _refined_residual(dc, E_tilde, map_wavefunction(psi), spec)
        ok = res <= 1e-5 and 2.3 <= ratio <= 7.0
        details.append(f"mapped k={k_text} (n,m)={nm}: res={res:.1e} ratio={ratio:.2f}")
        if not ok:
            report("7 (quantum states)", False, details[-1])

    ok = worst_forms <= 1e-14
    report("7 (quantum states)", ok,
           f"E(0,0)=-1/9 exact; energy forms agree to {worst_forms:.1e} (1e-14); "
           + "; ".join(details))


def test_criterion_8_degeneracy():
    for c in (1, 2, 3):
        k = RationalIndex(c)
        for N in range(201):
            assert degeneracy_formula(k, N) == degeneracy_bruteforce(k, N), \
                f"k={c}: printed count differs from enumeration at N={N}"
    mismatch_report = {}
    worst_spread = 0.0
    for k_text in ("3/2", "2/3"):
        k = RationalIndex.from_string(k_text)
        params = DCParams(Q=1.0, alpha=0.2, beta=0.3, k=k)
        a, b = exponents_from_couplings(params.alpha, params.beta)
        mism = []
        for N in range(201):
            count = degeneracy_bruteforce(k, N)
            if degeneracy_formula(k, N) != count:
                mism.append(N)
            if count:
                line = spectral_line(params, N)  # raises if energies split
                energies = [energy_level(params.Q, k, a, b, n, m)
                            for n, m in level_states(k, N)]
                worst_spread = max(worst_spread,
                                   max(abs(e - line.E) for e in energies) / abs(line.E))
        mismatch_report[k_text] = len(mism)
        assert mism, f"k={k_text}: expected printed-count mismatches for d > 1"
    ok = worst_spread <= 1e-14
    report("8 (degeneracy)", ok,
           f"printed count = enumeration for integer k up to N=200; shared-energy "
           f"spread {worst_spread:.1e} (1e-14); mismatches recorded for d>1: "
           f"{mismatch_report}")


def test_criterion_9_determinism(tmp_path):
    args = ["bracket", "--family", "ttw", "--k", "3/2", "--omega2", "1",
            "--alpha", "0.13", "--beta", "0.2", "--n-states", "30", "--seed", "7"]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        assert main([*args, "--out-dir", str(out)]) == EXIT_PASS
        outs.append((out / "bracket_summary.json").read_bytes())
    ok = outs[0] == outs[1]
    body = json.loads(outs[0])
    report("9 (determinism)", ok and body["config"]["seed"] == 7,
           f"two seeded runs produced byte-identical summaries "
           f"({len(outs[0])} bytes)")
