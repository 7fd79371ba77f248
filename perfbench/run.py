"""Benchmark of the superint verifier: end-to-end figures, or per-layer ones.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each repetition of a workload runs in a fresh child
process (``perfbench/workload.py``), one child at a time, until the time
budget is spent (at least one repetition).  Set-up-only children give the
set-up time at least five samples.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, each
the median over the run's repetitions; times are rescaled to a reference
host speed measured as the run goes (``perfbench/hostspeed.py``).  With
``--trace 1`` an untraced repetition is followed by at least two traced
ones; the line holds the per-layer metrics and ``trace_overhead_frac``.
A run is correct only if every verdict holds (known failures aside), the
negative control fails, every repetition gives bit-identical verdict
values and the traced repetitions give identical work counts.
``--workload all`` runs the four workloads in turn.  Everything above the
last line is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("orbits", "integrals", "quantum", "cli")
SETUP_SAMPLES = 5
# No repetition beyond the minimum starts after START_LIMIT_S, and the
# process group of a child still running at KILL_LIMIT_S is killed.
START_LIMIT_S = 100.0
KILL_LIMIT_S = 170.0
# Layer counts that must repeat exactly across traced repetitions.
EXACT_COUNTS = (
    "systems.hamiltonian_evals", "dynamics.integrate_calls", "dynamics.steps",
    "dynamics.dense_calls", "dynamics.dense_points", "invariants.bracket_calls",
    "invariants.evals_per_bracket", "quantum.levels", "quantum.grid_points",
    "quantum.max_grid_points", "cli.files_written", "cli.bytes_written",
)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MACHINE_PROBE = """
import json, os, platform, numpy, scipy
import superint.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (KeyError, TypeError, ValueError) as exc:
    blas = f"unknown ({exc!r})"
cpu = "unknown"
if os.path.exists("/proc/cpuinfo"):
    with open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
print(json.dumps({"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


class BenchError(Exception):
    """A repetition crashed, timed out or ran no checks: no figures to report."""


def run_child(argv, env, cwd, log_path, kill_at: float):
    """Run one child in its own process group; return (exit code, peak RSS MiB, spawn time).

    The peak is the child's own, from wait4.  At kill_at the whole group is
    killed, so grandchildren (the cli workload's commands) end with it.
    """
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > kill_at:
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, t_spawn


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str,
                 env: dict) -> dict:
    """Run one workload, print its report, and return the result object."""
    t_start = time.monotonic()
    run_dir = os.path.join(root, ".perfbench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    def spawn(tag, traced, setup_only=False):
        result_path = os.path.join(run_dir, tag + ".json")
        argv = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
                "--seed", str(seed), "--trace", str(int(traced)),
                "--run-id", f"{workload}-{seed}-{tag}",
                "--work-dir", os.path.join(run_dir, tag), "--result", result_path]
        if setup_only:
            argv.append("--setup-only")
        log_path = os.path.join(run_dir, tag + ".log")
        probe_before = hostspeed.job_probe()
        code, rss, t_spawn = run_child(argv, env, root, log_path, t_start + KILL_LIMIT_S)
        if code != 0:
            with open(log_path, errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
            raise BenchError(f"{workload} {tag} exited with code {code}")
        with open(result_path) as fh:
            res = json.load(fh)
        res["traced"] = traced
        res["rss_mb"] = res.get("peak_rss_mb", rss)
        if "setup_s" in res:  # cli: the workload timed its own cold `--version`
            res["setup"], res["setup_plain"] = res["setup_s"], res["setup_plain_s"]
        else:
            res["setup_plain"] = res["t_first"] - t_spawn
            res["setup"] = hostspeed.rescale(res["setup_plain"], probe_before,
                                             res["first_probe_s"])
        return res

    # untraced, traced, traced, untraced, traced, ...: the two traced
    # repetitions of a trace run show that the layer counts repeat exactly
    traced_at = lambda i: trace and (i == 1 or (i > 1 and i % 2 == 0))
    min_reps = 3 if trace else 1
    reps, durations = [], []
    while len(reps) < min_reps or (time.monotonic() + max(durations) <= t_start + seconds
                                   and time.monotonic() - t_start < START_LIMIT_S):
        t0 = time.monotonic()
        reps.append(spawn(f"rep-{len(reps)}", traced_at(len(reps))))
        durations.append(time.monotonic() - t0)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    setup_runs = list(untraced)
    while not trace and len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(spawn(f"setup-{len(setup_runs)}", False, setup_only=True))
    setups = [r["setup"] for r in setup_runs]

    # --- verdicts --------------------------------------------------------------
    first = reps[0]
    checks_run = len(first["checks"])
    if checks_run == 0:
        raise BenchError(f"{workload} ran no checks")
    checks_failed = sum(not c["passed"] for c in first["checks"])
    known = [c["name"] for c in first["checks"] if not c["passed"] and c["known_failure"]]
    unexpected, problems = 0, []
    for r in reps:
        for c in r["checks"]:
            if not c["passed"] and not c["known_failure"]:
                unexpected += 1
                problems.append(f"check failed: {c['name']} = {c['value']!r} (tol {c['tol']})")
        if not r["control"]["failed"]:
            problems.append(f"negative control passed, so the gate is vacuous: {r['control']}")
    if len({r["verdict_digest"] for r in reps}) != 1:
        problems.append("verdict values differ between repetitions of one seed")
    for key in EXACT_COUNTS:
        if len({r["layers"][key][0] for r in traced}) > 1:
            problems.append(f"layer count {key} differs between traced repetitions")

    # --- metrics ---------------------------------------------------------------
    wall = [r["wall_s"] for r in untraced]
    if trace:
        metrics = {key: {"value": statistics.median(r["layers"][key][0] for r in traced),
                         "unit": unit} for key, (_, unit) in traced[0]["layers"].items()}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace_overhead_frac"] = {"value": traced_wall / statistics.median(wall) - 1.0,
                                          "unit": "1"}
    else:
        rss = [r["rss_mb"] for r in untraced]
        samples = {"wall_s": (wall, "s"), "setup_s": (setups, "s"), "peak_rss_mb": (rss, "MiB")}
        metrics = {name: {"value": statistics.median(vals), "unit": unit}
                   for name, (vals, unit) in samples.items()}
        metrics["checks_passed_frac"] = {"value": 1.0 - checks_failed / checks_run, "unit": "1"}

    # --- report ----------------------------------------------------------------
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)} ({len(traced)} traced)  "
          f"elapsed {time.monotonic() - t_start:.1f} s")
    if not trace:
        samples["wall_plain_s"] = ([r["wall_plain_s"] for r in untraced], "s")
        samples["setup_plain_s"] = ([r["setup_plain"] for r in setup_runs], "s")
        for name, (vals, unit) in samples.items():
            q1, q3 = quartiles(vals)
            print(f"  {name:<20} median {statistics.median(vals):.6g} {unit}  "
                  f"quartiles {q1:.6g} .. {q3:.6g}  (n={len(vals)})")
    print(f"  {'checks_failed_frac':<20} {checks_failed / checks_run:.6g}  ({checks_failed} of "
          f"checks_run={checks_run}; known failures: {', '.join(known) or 'none'})")
    ctl = first["control"]
    print(f"  {'negative control':<20} {ctl['name']} = {ctl['value']:.3e} at tol "
          f"{ctl['tol']:.1e}: {'fails, so the gate is live' if ctl['failed'] else 'PASSES'}")
    if trace:
        for key, val in metrics.items():
            print(f"  {key:<34} {val['value']:.6g} {val['unit']}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    return {"correct": not problems, "attempted": sum(r["ops"] for r in reps),
            "failed": unexpected, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child's group is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # One vCPU for the run and every process it starts: the host's two vCPUs
    # are not always equally fast, and a probe must read the vCPU the work
    # runs on.  Children inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "superint", "__init__.py")):
        print(f"error: no superint package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)

    # untimed warm-up: byte-compiles the package and records the machine
    probe = subprocess.run([sys.executable, "-c", MACHINE_PROBE], env=env, cwd=root,
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        print(f"error: cannot import superint from {src}:\n{probe.stderr}", file=sys.stderr)
        return 2
    machine = json.loads(probe.stdout)
    machine["threads_env"] = {k: os.environ[k] for k in THREAD_ENV if k in os.environ}
    machine["reference_job_s"] = hostspeed.REFERENCE_JOB_S
    machine["job_s_now"] = hostspeed.job_probe()
    machine["reference_spawn_s"] = hostspeed.REFERENCE_SPAWN_S
    machine["spawn_s_now"] = hostspeed.spawn_probe()
    print("machine " + json.dumps(machine, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), root, env)
                   for name in names}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": val for name, r in results.items()
                        for key, val in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
