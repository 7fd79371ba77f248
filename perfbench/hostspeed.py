"""Host speed, sampled while the benchmark's workloads run.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
the same work takes up to twice as long for tens of seconds at a time and
then recovers.  A run of half a minute can fall wholly inside a slow
stretch, so plain wall time spreads by a quarter between runs of the
same code.

A probe times a small fixed piece of work of the same kind as the work it
stands for, and work is rescaled by ``reference / probe time`` to its
length at the reference speed.  The probe calls nothing of the package,
so a change to the package moves the rescaled time as it moves the work;
probe time is left out of both the plain and the rescaled wall time.

- ``job_probe``, for work inside the workload process: scipy's DOP853
  integrating a harmonic oscillator through a Python right-hand side.
  (A tight pure-Python loop slows only about two thirds as much as the
  workloads do, in log terms, and left half of the spread.)  It runs
  every ``INTERVAL_S`` from a timer signal (``sample_every``), whose
  handler runs between bytecodes, so a single long call is split into
  short stretches too; each stretch is rescaled by the probes at its two
  ends (``wall``).
- ``spawn_probe``, for work in fresh child processes: a bare interpreter
  start.  It runs between children (``tick``), and the whole is rescaled
  by the median probe (``wall_at_median``), since one reading is noisy
  next to a child of about a second.

Probes must not run while the workload's own work runs elsewhere: a probe
in a second process slows by up to 40% while the workload computes on
large arrays, so it would rescale the workload's own cost away.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# One job probe is the median of JOB_RUNS timings of the job; one spawn
# probe, the median of SPAWN_RUNS interpreter starts.
JOB_RUNS = 7
SPAWN_RUNS = 3
INTERVAL_S = 0.25
# Probe times when the host of perfbench/README.md runs at full speed;
# rescaled figures are seconds at that speed.
REFERENCE_JOB_S = 180e-6
REFERENCE_SPAWN_S = 0.010


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def job_probe() -> float:
    """Seconds the probe job takes on this host right now."""
    # imported here, not at the top, so that importing this module adds
    # nothing to a workload's set-up time
    from scipy.integrate import solve_ivp

    times = []
    for _ in range(JOB_RUNS):
        t0 = time.monotonic()
        solve_ivp(_oscillator, (0.0, 1.0), [1.0, 0.0], method="DOP853", rtol=1e-6)
        times.append(time.monotonic() - t0)
    return statistics.median(times)


def spawn_probe() -> float:
    """Seconds a bare interpreter (``python -S -c pass``) takes to start and exit."""
    times = []
    for _ in range(SPAWN_RUNS):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        times.append(time.monotonic() - t0)
    return statistics.median(times)


def rescale(seconds: float, *probes: float, reference: float = REFERENCE_JOB_S) -> float:
    """Seconds of work rescaled to the reference speed by the probe times seen during it."""
    return seconds * reference / statistics.fmean(probes)


class HostSpeed:
    """A record of probes: (monotonic start, monotonic end, probe seconds)."""

    def __init__(self, measure=job_probe, reference: float = REFERENCE_JOB_S):
        self.measure = measure
        self.reference = reference
        self.samples: list[tuple[float, float, float]] = []

    def probe(self) -> float:
        t0 = time.monotonic()
        probe_s = self.measure()
        self.samples.append((t0, time.monotonic(), probe_s))
        return probe_s

    def tick(self) -> None:
        """Probe if INTERVAL_S has passed since the last probe ended."""
        if not self.samples or time.monotonic() - self.samples[-1][1] >= INTERVAL_S:
            self.probe()

    def sample_every(self, seconds: float = INTERVAL_S) -> None:
        """Probe from a SIGALRM timer every ``seconds`` until ``stop``."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, seconds: float, *probes: float) -> float:
        return rescale(seconds, *probes, reference=self.reference)

    def wall(self) -> tuple[float, float]:
        """(plain, rescaled) seconds of work between the first and the last probe.

        Each stretch between two probes is rescaled by the probes at its ends.
        """
        plain = rescaled = 0.0
        for (_, end, a), (start, _, b) in zip(self.samples, self.samples[1:]):
            plain += start - end
            rescaled += self.rescale(start - end, a, b)
        return plain, rescaled

    def wall_at_median(self) -> tuple[float, float]:
        """Like ``wall``, but every stretch is rescaled by the median probe."""
        plain = self.wall()[0]
        return plain, self.rescale(plain, statistics.median(s[2] for s in self.samples))
