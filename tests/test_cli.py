import json
import os
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superint
from superint import cli, dynamics, quantum
from superint.cli import EXIT_CRITERION, EXIT_NUMERICAL, EXIT_PASS, EXIT_USAGE, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main([*argv, "--out-dir", str(out)])
    return code, out


def read_summary(out, command):
    with open(out / f"{command}_summary.json") as fh:
        return json.load(fh)


class TestCommands:
    def test_closure(self, tmp_path):
        code, out = run(tmp_path, "closure", "--k", "3/2", "--Q", "1", "--alpha", "0.2",
                        "--beta", "0.3", "--E", "-0.2", "--A", "0.9")
        assert code == EXIT_PASS
        summary = read_summary(out, "closure")
        assert summary["passed"]
        assert summary["data"]["n_radial"] <= 2 * 3 * 2
        # the first return k = 3/2 predicts, d = 2 radial periods; the search never reads it
        assert summary["data"]["n_predicted"] == 2
        assert (out / "closure.csv").exists()

    def test_trajectory_writes_series(self, tmp_path):
        code, out = run(tmp_path, "trajectory", "--family", "dc", "--k", "1",
                        "--Q", "1", "--alpha", "0", "--beta", "0",
                        "--q1", "1", "--q2", "1", "--p1", "0",
                        "--p2", "0.7071067811865476", "--t-end", "20", "--tol", "1e-11")
        assert code == EXIT_PASS
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,q1,q2,p1,p2,H,A"
        assert len(lines) >= 3  # header plus one row per accepted step
        data = read_summary(out, "trajectory")["data"]
        assert data["steps"] == len(lines) - 2
        assert data["nfev"] == 2 + 12 * (data["steps"] + data["rejected"])

    def test_conserve(self, tmp_path):
        code, out = run(tmp_path, "conserve", "--k", "3/2", "--omega2", "1",
                        "--alpha", "0.3", "--beta", "0.45", "--q1", "1.1",
                        "--q2", "0.3", "--p1", "0.4", "--p2", "0.7", "--periods", "10")
        assert code == EXIT_PASS
        summary = read_summary(out, "conserve")
        names = {c["name"] for c in summary["criteria"]}
        assert names == {"drift_H", "drift_L1", "drift_L2sin", "drift_L2cos"}

    def test_bracket(self, tmp_path):
        code, out = run(tmp_path, "bracket", "--family", "ttw", "--k", "2",
                        "--omega2", "1", "--alpha", "0.1", "--beta", "0.15",
                        "--n-states", "25", "--seed", "5")
        assert code == EXIT_PASS
        assert (out / "bracket.csv").exists()

    def test_orbit_residual(self, tmp_path):
        code, out = run(tmp_path, "orbit-residual", "--k", "2", "--Q", "1",
                        "--alpha", "0.2", "--beta", "0.3", "--E", "-0.2", "--A", "1.1",
                        "--periods", "3", "--n-samples", "300")
        assert code == EXIT_PASS
        summary = read_summary(out, "orbit-residual")
        control = next(c for c in summary["criteria"] if c["name"] == "off_orbit_control")
        assert control["value"] > 1e-3

    def test_orbit_residual_control_sample_lies_inside_a_short_run(self, tmp_path, monkeypatch):
        # a run shorter than 0.13 T_r takes the control sample at its end, not off
        # the dense output extrapolated past it
        reads = []
        at_time = dynamics.Trajectory.at_time

        def recording_at_time(traj, t):
            reads.append((t, traj.t[-1]))
            return at_time(traj, t)

        monkeypatch.setattr(dynamics.Trajectory, "at_time", recording_at_time)
        code, out = run(tmp_path, "orbit-residual", "--k", "3/2", "--Q", "1", "--alpha", "0.2",
                        "--beta", "0.3", "--E", "-0.2", "--A", "0.9", "--periods", "0.05")
        assert code == EXIT_PASS
        assert reads and all(t <= t_end for t, t_end in reads)

    def test_stackel_verify(self, tmp_path):
        code, out = run(tmp_path, "stackel-verify", "--k", "3/2", "--omega2", "1",
                        "--alpha", "0.2", "--beta", "0.3", "--n-points", "50")
        assert code == EXIT_PASS

    def test_spectrum(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--k", "1", "--a", "1", "--b", "1",
                        "--Q", "1", "--n-max", "2", "--m-max", "2")
        assert code == EXIT_PASS
        summary = read_summary(out, "spectrum")
        assert summary["data"]["E_0_0"] == pytest.approx(-1.0 / 9.0, rel=1e-14)
        assert (out / "spectrum.csv").exists()

    def test_spectrum_reads_its_tol(self, tmp_path):
        # the two energy forms differ by 4.8e-16 here: above --tol 0, below the default
        argv = ["spectrum", "--k", "2/3", "--a", "1.1", "--b", "2.9", "--Q", "0.7",
                "--n-max", "4", "--m-max", "4"]
        code, out = run(tmp_path, *argv, "--tol", "0")
        assert code == EXIT_CRITERION
        criterion = read_summary(out, "spectrum")["criteria"][0]
        assert criterion["threshold"] == 0.0 and 0.0 < criterion["value"] < 1e-14
        assert run(tmp_path, *argv)[0] == EXIT_PASS

    def test_degeneracy_integer_index(self, tmp_path):
        code, out = run(tmp_path, "degeneracy", "--k", "2", "--N-max", "50")
        assert code == EXIT_PASS
        summary = read_summary(out, "degeneracy")
        assert summary["data"]["mismatched_N"] == []

    def test_degeneracy_fractional_index_reports(self, tmp_path):
        code, out = run(tmp_path, "degeneracy", "--k", "3/2", "--N-max", "30")
        assert code == EXIT_PASS  # enumeration is authoritative; mismatches reported
        summary = read_summary(out, "degeneracy")
        assert summary["data"]["mismatched_N"]

    def test_wavefunction_residual(self, tmp_path):
        code, out = run(tmp_path, "wavefunction-residual", "--k", "1", "--Q", "1",
                        "--alpha", "0", "--beta", "0", "--n", "0", "--m", "0")
        assert code == EXIT_PASS

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n, m", [("0", "150"), ("400", "0")])
    def test_criterion_measured_nan_is_a_numerical_failure(self, tmp_path, capsys, n, m):
        # q1 ** sqrt(A) overflows at m = 150, the Laguerre recurrence at n = 400:
        # the library returns a NaN residual, on which no verdict is written
        code, out = run(tmp_path, "wavefunction-residual", "--k", "1", "--Q", "1",
                        "--alpha", "0.2", "--beta", "0.3", "--n", n, "--m", m,
                        "--grid-r", "50", "--grid-phi", "40")
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("numerical failure: criteria "
                                           "['residual', 'h2_convergence_ratio'] measured NaN\n")
        assert not any(out.iterdir())

    def test_orthogonality(self, tmp_path):
        code, out = run(tmp_path, "orthogonality", "--k", "1", "--Q", "1",
                        "--alpha", "0.2", "--beta", "0.3", "--states", "0,0;1,0;0,1")
        assert code == EXIT_PASS


class TestContract:
    def test_determinism(self, tmp_path):
        args = ["bracket", "--family", "ttw", "--k", "3/2", "--omega2", "1",
                "--n-states", "15", "--seed", "11"]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        assert main([*args, "--out-dir", str(out1)]) == EXIT_PASS
        assert main([*args, "--out-dir", str(out2)]) == EXIT_PASS
        assert (out1 / "bracket_summary.json").read_bytes() == \
            (out2 / "bracket_summary.json").read_bytes()

    def test_summary_carries_version_and_config(self, tmp_path):
        code, out = run(tmp_path, "degeneracy", "--k", "2", "--N-max", "10")
        summary = read_summary(out, "degeneracy")
        assert "tool_version" in summary
        assert summary["config"]["command"] == "degeneracy"
        assert "tolerance" in summary

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["closure", "--no-such-flag"])
        assert err.value.code == EXIT_USAGE

    def test_numerical_failure_exit_code(self, tmp_path):
        # a closure orbit whose outer radius (about 1e300) is too large for
        # floats, and a radial plunge into the Coulomb centre, where the step
        # size collapses (constants of no bounded orbit are a usage error, see below)
        for argv in (["closure", "--k", "1", "--Q", "1", "--alpha", "0.2", "--beta", "0.3",
                      "--E=-1e-300", "--A", "0.9"],
                     ["trajectory", "--family", "dc", "--k", "1", "--Q", "1",
                      "--alpha", "0", "--beta", "0", "--q1", "1", "--q2", "1",
                      "--p1=-0.8", "--p2", "0", "--t-end", "10"]):
            code, out = run(tmp_path, *argv)
            assert code == EXIT_NUMERICAL, argv
            assert not any(out.glob("*_summary.json")), argv

    def test_criterion_failure_exit_code(self, tmp_path):
        # an impossibly tight closure tolerance must fail, not error
        code, out = run(tmp_path, "closure", "--k", "1", "--Q", "1", "--alpha", "0.2",
                        "--beta", "0.3", "--E", "-0.2", "--A", "0.75",
                        "--max-periods", "1", "--tol", "1e-15")
        assert code == EXIT_CRITERION
        assert not read_summary(out, "closure")["passed"]

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k=3/2\nQ=1.0\nalpha=0.2\nbeta=0.3\nE=-0.2\nA=0.9\n")
        code, out = run(tmp_path, "closure", "--config", str(cfg))
        assert code == EXIT_PASS
        # explicit flag overrides the file
        code2, _ = run(tmp_path, "closure", "--config", str(cfg), "--A", "0.85")
        assert code2 == EXIT_PASS

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n")
        assert main(["closure", "--config", str(cfg)]) == EXIT_USAGE

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("SUPERINT_OUTDIR", str(target))
        code = main(["degeneracy", "--k", "2", "--N-max", "5"])
        assert code == EXIT_PASS
        assert (target / "degeneracy_summary.json").exists()


_TTW_POINT = ["--q1", "1", "--q2", "0.3", "--p1", "0.1", "--p2", "0.2"]
_DC_POINT = ["--k", "2", "--q1", "1.42", "--q2", "0.7", "--p1", "0.206", "--p2", "0.2"]


# (argv, the flag its message names, or "" where none is checked)
_BAD_CONFIGURATIONS = [
    (["spectrum", "--k", "0"], ""),
    (["bracket", "--n-states", "1", "--tol", "nan"], ""),
    (["bracket", "--n-states", "1", "--tol=-1e-6"], ""),
    (["trajectory", "--family", "ttw", "--q1", "0", "--q2", "0.3", "--p1", "0.1", "--p2", "0.2"],
     ""),
    (["trajectory", "--q1", "1", "--q2", "1", "--p1", "0", "--p2", "0.7", "--t-end", "inf"], ""),
    (["bracket", "--n-states", "0"], ""),
    (["stackel-verify", "--n-points", "0"], ""),
    (["degeneracy", "--N-max", "-3"], ""),
    (["orbit-residual", "--periods", "0"], ""),
    (["conserve", "--periods", "0"], ""),
    (["orthogonality", "--states=-1,0"], ""),
    (["orthogonality", "--states", "0,0;0,0"], ""),
    (["orthogonality", "--states", "0,0"], ""),
    (["orthogonality", "--k", "3/2", "--Q", "1", "--alpha=-0.3", "--beta", "0.3"], ""),
    (["wavefunction-residual", "--k", "1", "--Q", "1", "--alpha=-0.3", "--beta", "0.3"], ""),
    (["closure"], ""),
    (["closure", "--E=-0.2"], ""),
    (["conserve", "--q1", "1.1", "--q2", "0.3", "--p1", "0.4"], ""),
    (["trajectory", "--family", "ttw", "--E=-0.2", "--A", "0.9"], ""),
    (["spectrum", "--Q", "0"], ""),
    (["spectrum", "--a", "0.5"], ""),
    (["spectrum", "--a", "0"], ""),
    (["conserve", "--alpha=-0.3", "--q1", "1.1", "--q2", "0.3", "--p1", "0.4", "--p2", "0.7"],
     ""),
    (["trajectory", "--q1", "1", "--q2", "0", "--p1", "0.1", "--p2", "0.5"], ""),
    (["conserve", "--q1", "1.1", "--q2", "0", "--p1", "0.4", "--p2", "0.7"], ""),
    (["bracket", "--family", "ttw", "--beta=-0.3"], ""),
    # conserve starts from a point only; the Coulomb-side constants are no flags of it
    (["conserve", "--E", "5", "--A", "-3", "--r-frac", "7", "--q1", "1.1", "--q2", "0.3",
      "--p1", "0.4", "--p2", "0.7"], ""),
    (["trajectory", "--family", "ttw", "--E=-0.2", "--A", "0.9", "--q1", "1", "--q2", "0.3",
      "--p1", "0.1", "--p2", "0.2"], ""),
    # a flag the run would not read, or would misread, named in the message:
    # the other family's coupling, --r-frac/--u-frac on a point start, point
    # flags alongside --E/--A, a lone --E or --A on a point start, Q <= 0
    # without a bound spectrum, and a place on the shell outside [0, 1]
    (["trajectory", "--family", "ttw", "--Q=-4", *_TTW_POINT, "--t-end", "1"], "--Q"),
    (["trajectory", "--family", "dc", "--omega2=-5", *_DC_POINT, "--t-end", "1"], "--omega2"),
    (["bracket", "--family", "ttw", "--Q=-3"], "--Q"),
    (["bracket", "--family", "dc", "--omega2=-3"], "--omega2"),
    (["closure", *_DC_POINT, "--r-frac", "0.5"], "--r-frac"),
    (["orbit-residual", *_DC_POINT, "--u-frac", "0.5"], "--u-frac"),
    (["trajectory", "--family", "ttw", "--r-frac", "0.5", *_TTW_POINT, "--t-end", "1"],
     "--r-frac"),
    (["closure", "--E=-0.2", "--A", "0.9", "--q1", "5", "--q2", "0.1", "--p1", "3", "--p2", "3"],
     "--q1"),
    (["closure", "--E=-0.2", "--A", "0.9", "--p2", "3"], "--p2"),
    (["closure", "--E=-0.2", *_DC_POINT], "--E"),
    (["trajectory", "--A", "0.9", *_DC_POINT, "--t-end", "1"], "--A"),
    (["wavefunction-residual", "--Q", "0"], "--Q"),
    (["orthogonality", "--Q=-1"], "--Q"),
    (["orbit-residual", "--k", "2", "--Q", "1", "--alpha", "0.2", "--beta", "0.3", "--E=-0.2",
      "--A", "1.1", "--r-frac", "1.5"], "--r-frac"),
    (["closure", "--E=-0.2", "--A", "0.9", "--u-frac=-2"], "--u-frac"),
]


@pytest.mark.parametrize("argv, flag", [pytest.param(argv, flag, id=" ".join(argv))
                                        for argv, flag in _BAD_CONFIGURATIONS])
def test_bad_configuration_exits_usage(tmp_path, capsys, argv, flag):
    try:
        code, out = run(tmp_path, *argv)
    except SystemExit as exc:  # argparse itself rejects an unknown flag
        code, out = exc.code, tmp_path / "out"
    assert code == EXIT_USAGE
    assert f"error: {flag}" in capsys.readouterr().err  # the flag at fault, where one is given
    assert not any(out.iterdir())  # rejected before the command ran


@pytest.mark.parametrize("under, from_environment", [(False, False), (True, False), (False, True)],
                         ids=["file", "under-a-file", "environment"])
def test_out_dir_at_or_under_a_file_exits_usage(tmp_path, capsys, monkeypatch, under,
                                                from_environment):
    # the output directory cannot be made there, which is the caller's to fix: exit 2
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out_dir = str(blocker / "out" if under else blocker)
    argv = ["degeneracy", "--k", "2", "--N-max", "5"]
    if from_environment:
        monkeypatch.setenv("SUPERINT_OUTDIR", out_dir)
    else:
        argv += ["--out-dir", out_dir]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["wavefunction-residual", "orthogonality"])
@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("value", [quantum.COUPLING_FLOOR, quantum.COUPLING_FLOOR - 0.05])
def test_coupling_at_or_below_the_floor_names_its_flag(tmp_path, capsys, command, flag, value):
    # no normalizable state exists there, so no state is built
    code, out = run(tmp_path, command, f"{flag}={value}")
    assert code == EXIT_USAGE
    assert f"error: {flag} must exceed" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["trajectory", "--family", "dc", "--k", "1", "--Q", "1", "--alpha", "0", "--beta", "0",
     "--q1", "1", "--q2", "1", "--p1", "0", "--p2", "0.70710678", "--t-end", "1e9"],
    ["conserve", "--k", "3/2", "--omega2", "1", "--alpha", "0.3", "--beta", "0.45", "--q1", "1.1",
     "--q2", "0.3", "--p1", "0.4", "--p2", "0.7", "--periods", "1e8"],
    # --tol 0: no distance passes, so closure reads one radial period after another, and
    # their steps, counted together, run into the budget
    ["closure", "--k", "3/2", "--Q", "1", "--alpha", "0.2", "--beta", "0.3", "--E", "-0.2",
     "--A", "0.9", "--max-periods", "10000000", "--tol", "0"],
], ids=lambda argv: argv[0])
def test_run_past_the_step_budget_exits_numerical(tmp_path, capsys, monkeypatch, argv):
    # 5,000 steps is above every integration of this suite but its 200-period
    # memory test, and above any closure's steps over all its periods, and takes
    # about a second; the real budget of 100,000 stops each run in about 20 s
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 5_000)
    code, out = run(tmp_path, *argv)
    assert code == EXIT_NUMERICAL
    assert "step budget" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv,d", [
    (["closure", "--E", "-0.2", "--A", "0.9", "--u-frac", "1"], 1),
    (["closure", "--k", "3/2", "--Q", "1", "--alpha", "0.2", "--beta", "0.3", "--E", "-0.2",
      "--A", "0.9", "--r-frac", "0"], 2),
    (["closure", "--k", "2/3", "--Q", "2.7263740497941926", "--alpha", "0.4750989704636613",
      "--beta", "0.057706944459510995", "--E", "-0.16564158978301624",
      "--A", "8.484030634546151", "--u-frac", "1"], 3),
], ids=["k1-u-frac-1", "k3/2-r-frac-0", "k2/3-u-frac-1-rounding"])
def test_closure_from_a_turning_point_start(tmp_path, argv, d):
    # a start where p_phi or p_r vanishes closes after d radial periods like any
    # other, also where the momentum square rounds to a little below 0
    code, out = run(tmp_path, *argv)
    assert code == EXIT_PASS
    assert read_summary(out, "closure")["data"]["n_radial"] == d


# r = 2A/Q, the circular radius of k = 1, Q = 1, alpha = 0.2, beta = 0.3 with
# phi = 1 and p_phi = 0.25; a start at r (1 + eps) has eccentricity about eps
CIRCULAR_R = 0.9074474359419589
NEAR_CIRCULAR = ("--k", "1", "--Q", "1", "--alpha", "0.2", "--beta", "0.3",
                 "--q2", "1", "--p1", "0", "--p2", "0.25")


@pytest.mark.parametrize("eps", [0.0, 1e-7, 1e-2])
def test_closure_from_a_circular_start(tmp_path, eps):
    # p_r stays at roundoff on a circular orbit, so the return metric scales it by
    # the orbit's largest speed, and the orbit closes after d = 1 radial period
    code, out = run(tmp_path, "closure", *NEAR_CIRCULAR, "--q1", repr(CIRCULAR_R * (1 + eps)))
    assert code == EXIT_PASS
    assert read_summary(out, "closure")["data"]["n_radial"] == 1


@pytest.mark.parametrize("eps", [0.05, 0.03, 0.01, 5e-3, 2e-3, 1e-4, 2e-5])
def test_orbit_residual_on_a_narrow_annulus(tmp_path, eps):
    # the off-orbit control sits a quarter of the annulus in from a turning point,
    # so it stays inside [r1, r2]; an on-orbit sample whose X_r state error puts
    # just past +-1 reads T_c there, unclamped, and stays within the 1e-6 bound
    code, out = run(tmp_path, "orbit-residual", *NEAR_CIRCULAR,
                    "--q1", repr(CIRCULAR_R * (1 + eps)))
    assert code == EXIT_PASS
    control = next(c for c in read_summary(out, "orbit-residual")["criteria"]
                   if c["name"] == "off_orbit_control")
    assert control["value"] > 0.1


@pytest.mark.parametrize("eps", [1e-5, 1e-7, 0.0])
def test_orbit_residual_below_the_conditioning_floor_fails_as_a_criterion(tmp_path, eps):
    # the on-orbit residual grows as 1/sqrt(D1) times the state error, so near a
    # circle it passes the 1e-6 bound no more: the run writes its summary and
    # exits 1, the on-orbit criterion failing and the off-orbit control passing
    code, out = run(tmp_path, "orbit-residual", *NEAR_CIRCULAR,
                    "--q1", repr(CIRCULAR_R * (1 + eps)))
    assert code == EXIT_CRITERION
    criteria = {c["name"]: c for c in read_summary(out, "orbit-residual")["criteria"]}
    assert not criteria["max_on_orbit_residual"]["passed"]
    assert criteria["off_orbit_control"]["passed"]


@pytest.mark.parametrize("states", ["58,0;59,0", "0,32;1,32", "0,40;1,40"])
def test_orthogonality_at_large_indices(tmp_path, states):
    # the Gauss rules evaluate the polynomials only, so no gauge factor overflows
    code, out = run(tmp_path, "orthogonality", "--k", "3/2", "--Q", "1", "--alpha", "0.2",
                    "--beta", "0.3", "--states", states)
    assert code == EXIT_PASS
    rows = [row.split(",") for row in (out / "orthogonality.csv").read_text().split()[1:]]
    cross = [abs(float(v)) for i, j, v in rows if i != j]
    assert cross and max(cross) < 1e-13


def test_config_file_integer_index(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("k=2\nN_max=0\n")  # N_max = 0 is one level, still a check
    code, out = run(tmp_path, "degeneracy", "--config", str(cfg))
    assert code == EXIT_PASS
    assert read_summary(out, "degeneracy")["criteria"][0]["passed"]


def test_conserve_summary_reads_the_csv_rows(tmp_path):
    code, out = run(tmp_path, "conserve", "--k", "3/2", "--omega2", "1", "--alpha", "0.3",
                    "--beta", "0.45", "--q1", "1.1", "--q2", "0.3", "--p1", "0.4",
                    "--p2", "0.7", "--periods", "2")
    assert code == EXIT_PASS
    rows = (out / "conserve.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    worst = {name: max(float(line.split(",")[header.index(name)]) for line in rows[1:])
             for name in ("drift_H", "drift_L1", "drift_L2sin", "drift_L2cos")}
    summary = read_summary(out, "conserve")
    assert {c["name"]: c["value"] for c in summary["criteria"]} == worst


@pytest.mark.parametrize("argv", [
    pytest.param(["--family", "dc", "--k", "1", "--Q", "1", "--alpha", "0", "--beta", "0",
                  "--q1", "1", "--q2", "1", "--p1", "0", "--p2", "0.70710678", "--t-end", "50"],
                 id="readme-dc"),
    pytest.param(["--family", "ttw", "--k", "3/2", "--omega2", "1", "--alpha", "0.3",
                  "--beta", "0.45", "--q1", "1.1", "--q2", "0.3", "--p1", "0.4", "--p2", "0.7",
                  "--t-end", "30", "--tol", "1e-8"], id="ttw")])
def test_trajectory_energy_drift_reads_the_csv_H_column(tmp_path, argv):
    # the summary's drift is max|H_i - H_0| / max(|H_0|, 1e-12) over the H
    # column of trajectory.csv, recomputed here in Python floats to the last bit
    code, out = run(tmp_path, "trajectory", *argv)
    assert code == EXIT_PASS
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    column = rows[0].split(",").index("H")
    H = [float(line.split(",")[column]) for line in rows[1:]]
    drift = max(abs(h - H[0]) for h in H) / max(abs(H[0]), 1e-12)
    criteria = read_summary(out, "trajectory")["criteria"]
    assert [c["name"] for c in criteria] == ["energy_drift"]
    assert criteria[0]["value"].hex() == drift.hex() and drift > 0.0


@pytest.mark.parametrize("k", ["1", "2"])
def test_conserve_passes_from_rest(tmp_path, k):
    # at p = 0 the sine variant (k = 1) or the cosine variant (k = 2) of L2
    # starts at zero; its drift is scaled by the conserved amplitude instead
    code, out = run(tmp_path, "conserve", "--k", k, "--omega2", "1", "--alpha", "0.3",
                    "--beta", "0.45", "--q1", "1.1", "--q2", "0.3", "--p1", "0", "--p2", "0",
                    "--periods", "5")
    assert code == EXIT_PASS
    assert read_summary(out, "conserve")["passed"]


def test_family_coupling_defaults_to_one(tmp_path):
    # the coupling flags default to None, so the system built must fill in 1
    for family, coupling in (("dc", "Q"), ("ttw", "omega2")):
        code, out = run(tmp_path, "trajectory", "--family", family, *_TTW_POINT, "--t-end", "1")
        assert code == EXIT_PASS
        assert f"{coupling}=1.0" in (out / "trajectory_params.txt").read_text().splitlines()
    code, _ = run(tmp_path, "conserve", *_TTW_POINT, "--periods", "1")
    assert code == EXIT_PASS


def test_config_file_value_gets_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("Q=abc\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["closure", "--config", str(cfg), "--E", "-0.2", "--A", "0.75", "--out-dir", str(out)])
    assert err.value.code == EXIT_USAGE
    assert not out.exists()
    # the message names the file and the key, not a flag the user never typed
    message = capsys.readouterr().err
    assert f"--config {cfg}" in message and "'Q'" in message and "'abc'" in message
    # a switch is still set from the file
    cfg.write_text("export_grid=true\ngrid_r=20\ngrid_phi=14\n")
    code, out = run(tmp_path, "wavefunction-residual", "--config", str(cfg), "--tol", "1e-3")
    assert code == EXIT_PASS
    assert (out / "wavefunction.csv").exists()


def test_unexpected_exception_exits_numerical(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise KeyError("no such entry")

    monkeypatch.setattr(cli, "cmd_degeneracy", broken)
    code, _ = run(tmp_path, "degeneracy", "--N-max", "3")
    assert code == EXIT_NUMERICAL
    assert "KeyError" in capsys.readouterr().err


def _python(code, *argv):
    """Run python -c code with the package on the path; return the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(superint.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True)


def test_cli_import_leaves_the_integrator_unloaded():
    # neither importing the CLI nor integrating an orbit loads any scipy module
    probe = textwrap.dedent("""
        import sys
        import superint.cli
        from superint import dynamics, systems
        p = systems.DCParams(Q=1.0, alpha=0.0, beta=0.0, k=systems.RationalIndex(1))
        dynamics.integrate(p, systems.PhasePoint(1.0, 1.0, 0.0, 0.7, systems.DC_CHART), 5.0)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    result = _python(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_stage_code_is_generated_on_the_first_integration_only():
    # importing the CLI and evaluating H compile no stage code; one integration
    # compiles it once, and later integrations reuse it
    probe = textwrap.dedent("""
        import superint.cli
        from superint import dynamics, systems
        p = systems.DCParams(Q=1.0, alpha=0.0, beta=0.0, k=systems.RationalIndex(1))
        pt = systems.PhasePoint(1.0, 1.0, 0.0, 0.7, systems.DC_CHART)
        systems.hamiltonian(pt, p)
        counts = [dynamics._straight_line_stages.cache_info().misses]
        for _ in range(2):
            dynamics.integrate(p, pt, 5.0)
            counts.append(dynamics._straight_line_stages.cache_info().misses)
        print(counts)
    """)
    result = _python(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 1, 1]"


def test_readme_closure_runs_without_scipy(tmp_path):
    # scipy blocked from import: the integrating commands must not need it
    runner = "import sys; sys.modules['scipy'] = None; from superint.cli import main; sys.exit(main())"
    result = _python(runner, "closure", "--k", "3/2", "--Q", "1", "--alpha", "0.2",
                     "--beta", "0.3", "--E", "-0.2", "--A", "0.9", "--out-dir", str(tmp_path))
    assert result.returncode == EXIT_PASS, result.stderr
    assert read_summary(tmp_path, "closure")["passed"]


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["dc", "ttw"]), k=st.sampled_from(["1", "3/2", "0", "3/0", "x"]),
       n_states=st.integers(1, 3), alpha=st.sampled_from(["-0.3", "0", "0.2", "nan"]),
       beta=st.sampled_from(["-0.3", "0", "0.2", "nan"]))
def test_bracket_exit_code_contract(family, k, n_states, alpha, beta):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a
    # verdict; no input of this space fails numerically
    with tempfile.TemporaryDirectory() as out:
        argv = ["bracket", "--family", family, "--k", k, "--n-states", str(n_states),
                f"--alpha={alpha}", f"--beta={beta}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        assert code != EXIT_NUMERICAL
        summary = os.path.exists(os.path.join(out, "bracket_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["dc", "ttw"]), k=st.sampled_from(["1", "3/2", "0", "x"]),
       q1=st.sampled_from(["1", "0", "-1", "nan"]), q2=st.sampled_from(["1", "0"]),
       t_end=st.sampled_from(["0.5", "5", "0", "-1", "inf"]))
def test_trajectory_exit_code_contract(family, k, q1, q2, t_end):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a
    # verdict; no input of this space, a start on a wall (q2 = 0) among them,
    # fails numerically; each family is given its own coupling
    coupling = "--Q" if family == "dc" else "--omega2"
    with tempfile.TemporaryDirectory() as out:
        argv = ["trajectory", "--family", family, "--k", k, coupling, "1", "--alpha", "0.2",
                "--beta", "0.3", f"--q1={q1}", f"--q2={q2}", "--p1", "0.1", "--p2", "0.5",
                f"--t-end={t_end}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        assert code != EXIT_NUMERICAL
        summary = os.path.exists(os.path.join(out, "trajectory_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), n=st.sampled_from(["0", "1", "-1"]),
       Q=st.sampled_from(["1", "0", "-1"]), alpha=st.sampled_from(["0", "0.2", "-0.3", "nan"]),
       grid_r=st.sampled_from(["40", "4", "0"]), grid_phi=st.sampled_from(["28", "0"]))
def test_wavefunction_residual_exit_code_contract(k, n, Q, alpha, grid_r, grid_phi):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a
    # verdict; with Q <= 0, which has no bound spectrum, it is a usage error
    with tempfile.TemporaryDirectory() as out:
        argv = ["wavefunction-residual", "--k", k, f"--Q={Q}", f"--alpha={alpha}", "--beta", "0.3",
                f"--n={n}", "--m", "0", f"--grid-r={grid_r}", f"--grid-phi={grid_phi}",
                "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        assert code == EXIT_USAGE or float(Q) > 0
        summary = os.path.exists(os.path.join(out, "wavefunction-residual_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), Q=st.sampled_from(["1", "0", "-1"]),
       alpha=st.sampled_from(["0", "0.2", "-0.3", "nan"]),
       states=st.sampled_from(["0,0;1,0", "0,0", "-1,0", "0,0;0,0", "x", "0,0;1,0;0,1"]))
def test_orthogonality_exit_code_contract(k, Q, alpha, states):
    # every input maps onto {0, 1, 2, 3}; a summary exists exactly on a
    # verdict, and exit 0 only with a passing one; with Q <= 0, which has no
    # bound spectrum, it is a usage error
    with tempfile.TemporaryDirectory() as out:
        argv = ["orthogonality", "--k", k, f"--Q={Q}", f"--alpha={alpha}", "--beta", "0.3",
                f"--states={states}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        assert code == EXIT_USAGE or float(Q) > 0
        path = os.path.join(out, "orthogonality_summary.json")
        assert os.path.exists(path) == (code in {EXIT_PASS, EXIT_CRITERION})
        if code in {EXIT_PASS, EXIT_CRITERION}:
            with open(path) as fh:
                assert json.load(fh)["passed"] == (code == EXIT_PASS)


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), E=st.sampled_from(["-0.2", "0.1", "nan"]),
       alpha=st.sampled_from(["0.2", "-0.3", "nan"]),
       max_periods=st.sampled_from(["3", "0", "-1", "inf"]))
def test_closure_exit_code_contract(k, E, alpha, max_periods):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["closure", "--k", k, "--Q", "1", f"--alpha={alpha}", "--beta", "0.3",
                f"--E={E}", "--A", "0.9", f"--max-periods={max_periods}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "closure_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), omega2=st.sampled_from(["1", "-1"]),
       alpha=st.sampled_from(["0.3", "-0.3", "nan"]),
       q2=st.sampled_from(["0.3", "0"]), periods=st.sampled_from(["2", "0", "-1", "inf"]))
def test_conserve_exit_code_contract(k, omega2, alpha, q2, periods):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a
    # verdict; no input of this space, a start on a wall (q2 = 0) among them,
    # fails numerically
    with tempfile.TemporaryDirectory() as out:
        argv = ["conserve", "--k", k, f"--omega2={omega2}", f"--alpha={alpha}", "--beta", "0.45",
                "--q1", "1.1", f"--q2={q2}", "--p1", "0.4", "--p2", "0.7",
                f"--periods={periods}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        assert code != EXIT_NUMERICAL
        summary = os.path.exists(os.path.join(out, "conserve_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["2", "3/2", "0", "x"]), E=st.sampled_from(["-0.2", "0.1", "nan"]),
       A=st.sampled_from(["1.1", "-1"]), alpha=st.sampled_from(["0.2", "-0.3"]))
def test_orbit_residual_exit_code_contract(k, E, A, alpha):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["orbit-residual", "--k", k, "--Q", "1", f"--alpha={alpha}", "--beta", "0.3",
                f"--E={E}", f"--A={A}", "--periods", "1", "--n-samples", "50", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "orbit-residual_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), omega2=st.sampled_from(["1", "-1", "0"]),
       alpha=st.sampled_from(["0.2", "-0.3", "nan"]), n_points=st.sampled_from(["3", "0", "-1"]))
def test_stackel_verify_exit_code_contract(k, omega2, alpha, n_points):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["stackel-verify", "--k", k, f"--omega2={omega2}", f"--alpha={alpha}",
                "--beta", "0.3", f"--n-points={n_points}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "stackel-verify_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), Q=st.sampled_from(["1", "0", "-1"]),
       a=st.sampled_from(["1", "0.5", "0", "-1"]), n_max=st.sampled_from(["1", "0", "-1"]),
       m_max=st.sampled_from(["1", "-1"]))
def test_spectrum_exit_code_contract(k, Q, a, n_max, m_max):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a
    # verdict; no input of this space fails numerically
    with tempfile.TemporaryDirectory() as out:
        argv = ["spectrum", "--k", k, f"--Q={Q}", f"--a={a}", "--b", "1.5",
                f"--n-max={n_max}", f"--m-max={m_max}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        assert code != EXIT_NUMERICAL
        summary = os.path.exists(os.path.join(out, "spectrum_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@pytest.mark.parametrize("a, b", [("0.6", "1"), ("1", "1"), ("1.5", "0.75"), ("2", "3")])
def test_spectrum_ground_energy_matches_the_csv(tmp_path, a, b):
    # the summary's E_0_0 and the N = 0 line of spectrum.csv use the same
    # exponents; the CSV recovers them from a(a - 1), so they agree to roundoff
    code, out = run(tmp_path, "spectrum", "--k", "3/2", "--a", a, "--b", b)
    assert code == EXIT_PASS
    header, first = (out / "spectrum.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert row["N"] == "0"
    E_0_0 = read_summary(out, "spectrum")["data"]["E_0_0"]
    assert float(row["E"]) == pytest.approx(E_0_0, rel=1e-14, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["2", "3/2", "1", "0", "x"]), N_max=st.sampled_from(["5", "0", "-1", "x"]))
def test_degeneracy_exit_code_contract(k, N_max):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["degeneracy", "--k", k, f"--N-max={N_max}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "degeneracy_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


_POINT_OF_NO_BOUNDED_ORBIT = ["--k", "1", "--Q", "1", "--alpha", "0.2", "--beta", "0.3",
                              "--q1", "1", "--q2", "1", "--p1", "0.9", "--p2", "0.5"]


@pytest.mark.parametrize("argv, flags, rows", [
    (["closure", "--E", "0.1", "--A", "0.9"], ["--E", "--A"], ["E_negative"]),
    (["closure", "--k", "1", "--E", "0.5", "--A", "0.9"], ["--E", "--A"], ["E_negative"]),
    (["closure", "--alpha=-0.3", "--E=-0.2", "--A", "0.9"], ["--E", "--A"], ["alpha_positive"]),
    (["orbit-residual", "--k", "2", "--E", "0.1", "--A", "1.1"], ["--E", "--A"], ["E_negative"]),
    (["orbit-residual", "--k", "2", "--E=-0.2", "--A=-1"], ["--E", "--A"],
     ["A_positive", "angular_gap"]),
    (["trajectory", "--family", "dc", "--k", "2", "--E", "0.1", "--A", "1.1"], ["--E", "--A"],
     ["E_negative"]),
    (["closure", *_POINT_OF_NO_BOUNDED_ORBIT], ["--q1", "--q2", "--p1", "--p2"], ["E_negative"]),
    (["orbit-residual", "--alpha=-0.3", "--q1", "1", "--q2", "1", "--p1", "0.1", "--p2", "0.5"],
     ["--q1", "--q2", "--p1", "--p2"], ["alpha_positive"]),
    (["closure", "--integrator-tol", "1e-15"], ["--integrator-tol"], []),
    (["orbit-residual", "--integrator-tol", "0.01"], ["--integrator-tol"], []),
    (["trajectory", "--tol", "1e-15", "--q1", "1", "--q2", "1", "--p1", "0.1", "--p2", "0.5"],
     ["--tol"], []),
    (["trajectory", "--family", "ttw", "--E=-0.2", "--A", "0.9", "--q1", "1", "--q2", "0.3",
      "--p1", "0.1", "--p2", "0.2"], ["--E", "--A"], []),
    (["trajectory", "--family", "ttw", "--A", "0.9", "--q1", "1", "--q2", "0.3",
      "--p1", "0.1", "--p2", "0.2"], ["--A"], []),
    # the float angle cannot reach the wall here, and p_phi^2 = -1.3e-3 A
    (["closure", "--k", "2", "--Q", "1e4", "--alpha", "0.1463082726435886",
      "--beta", "0.001182222066641795", "--E=-1e-3", "--A", "9012473933.936289",
      "--u-frac", "1"], ["--E", "--A"], []),
], ids=["closure-E", "closure-E-k1", "closure-alpha", "orbit-residual-E", "orbit-residual-A",
        "trajectory-E", "closure-point", "orbit-residual-point", "closure-integrator-tol",
        "orbit-residual-integrator-tol", "trajectory-tol", "trajectory-ttw-E-A",
        "trajectory-ttw-A", "closure-u-frac-short-of-the-wall"])
def test_constants_of_no_bounded_orbit_exit_usage(tmp_path, capsys, argv, flags, rows):
    # --E/--A or a closure/orbit-residual phase point that fail a bounded-motion
    # row, --E/--A whose shell point cannot be built, an integrator tolerance
    # outside the integrator's range, and --E/--A on an oscillator start (which
    # would ignore them) are invalid arguments, not numerical failures
    code, out = run(tmp_path, *argv)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]}") and all(flag in err for flag in flags)
    assert all(f"'{row}'" in err for row in rows)
    assert not any(out.iterdir())


def test_a_start_on_no_d1_exits_usage_at_the_gate(tmp_path, capsys):
    # Q ** 2 rounds one ulp above Q * Q here, and D1 = Q * Q + 4AE = 0.0: the
    # gate's D1_positive row decides, with no second D1 behind the turning points
    code, out = run(tmp_path, "closure", "--k", "1", "--Q", "2.8556193209639056",
                    "--alpha", "0.05", "--beta", "0.07", "--E=-2.6078395571769417",
                    "--A", "0.7817353720841913")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        ": no bounded orbit: fails the rows ['D1_positive']\n")
    assert not any(out.iterdir())


def test_trajectory_integrates_a_point_of_no_bounded_orbit(tmp_path):
    # the bounded-motion rows guard the orbit commands only
    code, out = run(tmp_path, "trajectory", *_POINT_OF_NO_BOUNDED_ORBIT, "--t-end", "1")
    assert code == EXIT_PASS
    assert read_summary(out, "trajectory")["passed"]


def test_orbit_residual_from_a_negative_p_phi_start(tmp_path):
    # the orbit constants hold on every momentum branch, p_phi < 0 included
    for p2 in ("0.2138", "-0.2138"):
        code, out = run(tmp_path, "orbit-residual", "--k", "1", "--Q", "0.7", "--alpha", "0.2",
                        "--beta", "0.3", "--q1", "1.42", "--q2", "1.48", "--p1", "0.206",
                        f"--p2={p2}")
        assert code == EXIT_PASS, p2
        assert read_summary(out, "orbit-residual")["passed"]


@pytest.mark.parametrize("command", ["closure", "orbit-residual"])
def test_constants_that_overflow_fail_numerically(tmp_path, capsys, command):
    # Q^2 overflows in the bounded-motion rows: a numerical failure, not a traceback
    code, out = run(tmp_path, command, "--k", "1", "--Q", "1e200", "--E=-0.2", "--A", "0.9")
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not any(out.iterdir())


@pytest.mark.parametrize("omega2", ["0", "-1"])
def test_conserve_needs_a_positive_omega2(tmp_path, capsys, omega2):
    # conserve counts periods of the oscillator, which has none unless omega^2 > 0
    code, out = run(tmp_path, "conserve", f"--omega2={omega2}", "--q1", "1.1", "--q2", "0.3",
                    "--p1", "0.4", "--p2", "0.7")
    assert code == EXIT_USAGE
    assert "error: --omega2 must be positive" in capsys.readouterr().err
    assert not any(out.iterdir())
