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
        assert data["nfev"] == 2 + 12 * (data["steps"] + data["rejected"]) + 3 * data["steps"]

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
        # positive energy cannot produce a bounded orbit
        code, _ = run(tmp_path, "closure", "--k", "1", "--Q", "1", "--alpha", "0.2",
                      "--beta", "0.3", "--E", "0.5", "--A", "0.9")
        assert code == EXIT_NUMERICAL

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


@pytest.mark.parametrize("argv", [
    ["spectrum", "--k", "0"],
    ["bracket", "--n-states", "1", "--tol", "nan"],
    ["bracket", "--n-states", "1", "--tol=-1e-6"],
    ["trajectory", "--family", "ttw", "--q1", "0", "--q2", "0.3", "--p1", "0.1", "--p2", "0.2"],
    ["trajectory", "--q1", "1", "--q2", "1", "--p1", "0", "--p2", "0.7", "--t-end", "inf"],
    ["bracket", "--n-states", "0"],
    ["stackel-verify", "--n-points", "0"],
    ["degeneracy", "--N-max", "-3"],
    ["orbit-residual", "--periods", "0"],
    ["conserve", "--periods", "0"],
    ["orthogonality", "--states=-1,0"],
    ["orthogonality", "--states", "0,0;0,0"],
    ["orthogonality", "--states", "0,0"],
    ["orthogonality", "--k", "3/2", "--Q", "1", "--alpha=-0.3", "--beta", "0.3"],
    ["wavefunction-residual", "--k", "1", "--Q", "1", "--alpha=-0.3", "--beta", "0.3"],
], ids=lambda argv: " ".join(argv))
def test_bad_configuration_exits_usage(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not any(out.iterdir())  # rejected before the command ran


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
    ["closure", "--k", "3/2", "--Q", "1", "--alpha", "0.2", "--beta", "0.3", "--E", "-0.2",
     "--A", "0.9", "--max-periods", "10000000"],
], ids=lambda argv: argv[0])
def test_run_past_the_step_budget_exits_numerical(tmp_path, capsys, monkeypatch, argv):
    # 5,000 steps is above the longest integration of this suite and takes
    # about a second; the real budget of 100,000 stops each run in about 20 s
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 5_000)
    code, out = run(tmp_path, *argv)
    assert code == EXIT_NUMERICAL
    assert "step budget" in capsys.readouterr().err
    assert not any(out.iterdir())


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
    def broken(args, config):
        raise KeyError("no such entry")

    monkeypatch.setitem(cli.COMMANDS, "degeneracy", broken)
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
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["bracket", "--family", family, "--k", k, "--n-states", str(n_states),
                f"--alpha={alpha}", f"--beta={beta}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "bracket_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["dc", "ttw"]), k=st.sampled_from(["1", "3/2", "0", "x"]),
       q1=st.sampled_from(["1", "0", "-1", "nan"]),
       t_end=st.sampled_from(["0.5", "5", "0", "-1", "inf"]))
def test_trajectory_exit_code_contract(family, k, q1, t_end):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["trajectory", "--family", family, "--k", k, "--Q", "1", "--alpha", "0.2",
                "--beta", "0.3", f"--q1={q1}", "--q2", "1", "--p1", "0.1", "--p2", "0.5",
                f"--t-end={t_end}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "trajectory_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), n=st.sampled_from(["0", "1", "-1"]),
       alpha=st.sampled_from(["0", "0.2", "-0.3", "nan"]),
       grid_r=st.sampled_from(["40", "4", "0"]), grid_phi=st.sampled_from(["28", "0"]))
def test_wavefunction_residual_exit_code_contract(k, n, alpha, grid_r, grid_phi):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["wavefunction-residual", "--k", k, "--Q", "1", f"--alpha={alpha}", "--beta", "0.3",
                f"--n={n}", "--m", "0", f"--grid-r={grid_r}", f"--grid-phi={grid_phi}",
                "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "wavefunction-residual_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from(["1", "3/2", "0", "x"]), alpha=st.sampled_from(["0", "0.2", "-0.3", "nan"]),
       states=st.sampled_from(["0,0;1,0", "0,0", "-1,0", "0,0;0,0", "x", "0,0;1,0;0,1"]))
def test_orthogonality_exit_code_contract(k, alpha, states):
    # every input maps onto {0, 1, 2, 3}; a summary exists exactly on a
    # verdict, and exit 0 only with a passing one
    with tempfile.TemporaryDirectory() as out:
        argv = ["orthogonality", "--k", k, "--Q", "1", f"--alpha={alpha}", "--beta", "0.3",
                f"--states={states}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
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
       periods=st.sampled_from(["2", "0", "-1", "inf"]))
def test_conserve_exit_code_contract(k, omega2, alpha, periods):
    # every input maps onto {0, 1, 2, 3}, and a summary exists exactly on a verdict
    with tempfile.TemporaryDirectory() as out:
        argv = ["conserve", "--k", k, f"--omega2={omega2}", f"--alpha={alpha}", "--beta", "0.45",
                "--q1", "1.1", "--q2", "0.3", "--p1", "0.4", "--p2", "0.7",
                f"--periods={periods}", "--out-dir", out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_PASS, EXIT_CRITERION, EXIT_USAGE, EXIT_NUMERICAL}
        summary = os.path.exists(os.path.join(out, "conserve_summary.json"))
        assert summary == (code in {EXIT_PASS, EXIT_CRITERION})
