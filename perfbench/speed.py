"""Machine-speed probe: a fixed reference computation interleaved with the work.

The benchmark runs on a few cores of a shared host whose effective speed
wanders by tens of percent over seconds and minutes, for the program and for
any other CPU-bound code alike.  Raw wall times of runs made minutes apart
then differ more than any change worth measuring.  So every measuring run
also times a fixed *probe* that does not use rankal: a timer interrupts the
work every ``PERIOD_S`` seconds to run one probe step of a few milliseconds,
and the benchmark reports its time metrics at reference speed:

    value = (wall time - probe steps inside it) * REFERENCE_S / round_s

where ``round_s`` is the run's mean time for one round (each step once).
A change to rankal moves the wall time and not the probe, so it moves the
value by the same share; a slower or faster host moves both and cancels.
The steps mix the kinds of work rankal does: an interpreted loop, a loop of
small-array numpy calls, a kernel logistic regression fitted by Newton
steps, and dense linear algebra at the size of a TED solve.  Each runs just
after the program's own work, with the caches as the program left them.

Python runs a signal handler between bytecodes, so a step never splits one
numpy call of the program; a timer tick that falls inside a long call waits
for it to return, and ticks that pile up meanwhile make one step.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# About one round's time, interleaved with the fused-mc2 workload, on a
# 2-vCPU Xeon VM (numpy 2.4, OpenBLAS 0.3.31, one thread) at a fast moment,
# so values read about as wall seconds on that machine.
REFERENCE_S = 0.012


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20240901)
        self.x = rng.normal(size=(120, 5))
        self.y = (self.x[:, 0] + 0.3 * rng.normal(size=120) > 0).astype(float)
        a = rng.normal(size=(300, 300))
        self.spd = a @ a.T + 300.0 * np.eye(300)
        self.steps = (self.interpreted, self.small_arrays, self.newton_fit, self.dense)
        self.next = 0
        self.busy = False
        self.reset()
        for _ in self.steps:  # first-touch costs stay out of the record
            self.step()
        self.reset()

    def reset(self):
        self.times = [[] for _ in self.steps]  # seconds per call, by step
        self.starts, self.ends = [], []        # of every step, in order

    def step(self, *_):
        """Run the next step (also the timer's signal handler)."""
        if self.busy:
            return
        self.busy = True
        k = self.next
        self.next = (k + 1) % len(self.steps)
        t = perf_counter()
        self.steps[k]()
        end = perf_counter()
        self.times[k].append(end - t)
        self.starts.append(t)
        self.ends.append(end)
        self.busy = False

    def run(self, min_s):
        """Run steps back to back for at least min_s seconds and one round."""
        start = perf_counter()
        for _ in self.steps:
            self.step()
        while perf_counter() - start < min_s:
            self.step()

    def start(self):
        """Start stepping on a timer, after one round so factor() is defined."""
        self.run(0.0)
        signal.signal(signal.SIGALRM, self.step)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paused(self, t0, t1):
        """Seconds of probe steps that ran between t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def rounds(self):
        return min(len(t) for t in self.times)

    def factor(self):
        """Multiplier that turns this run's wall times into reference-speed times."""
        return REFERENCE_S / sum(statistics.fmean(t) for t in self.times)

    def interpreted(self):
        table, total = {}, 0
        for i in range(6000):
            table[i % 97] = table.get(i % 97, 0) + i
            total += len(str(i))
        return total

    def small_arrays(self):
        v = np.arange(40.0)
        for _ in range(300):
            v = np.clip(v * 0.5 + np.sqrt(np.abs(v)), -5.0, 5.0)
            v.argsort()
        return v

    def newton_fit(self):
        x, y = self.x, self.y
        sq = (x * x).sum(1)[:, None] + (x * x).sum(1)[None, :] - 2.0 * (x @ x.T)
        k = np.exp(-0.2 * np.maximum(sq, 0.0))
        alpha = np.zeros(len(y))
        for _ in range(6):
            p = 1.0 / (1.0 + np.exp(-np.clip(k @ alpha, -35.0, 35.0)))
            grad = k @ (p - y) + 1e-2 * (k @ alpha)
            hess = (k * (p * (1.0 - p))) @ k + 1e-2 * k + 1e-8 * np.eye(len(y))
            alpha -= np.linalg.solve(hess, grad)
        return alpha

    def dense(self):
        return np.linalg.solve(self.spd, self.spd[:, :50]).sum() + (self.spd @ self.spd).trace()
