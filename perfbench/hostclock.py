"""Scale measured times to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts by 20-50 %
over seconds to minutes: a fixed pure-Python loop, timed back to back on
the 2-CPU machine in baseline.json, took from 21 ms to 38 ms within one
minute.  Such drift does not slow all code alike: pure Python and numpy
over arrays larger than a core's L2 cache slow by different amounts.

So a pass times two fixed calibration loops between jobs, every half
second.  They are benchmark code and never call the program.  The
"python" loop is a dict-based union-find, like the diagram and cobordism
code.  The "numpy" loop sorts and sums small arrays and takes an 8 MB
prefix sum, like the walk kernel; its arrays add 8 to 16 MB to a pass's
peak RSS.  Each workload is scaled by the loop like the code its jobs run
in, or by both together ("mixed"); see workloads.CLOCK_LOOP.

A job's scaled time is its measured time times the loop's REFERENCE_S
over the loop's median time in the samples taken within two seconds of
the job.  Wall time is scaled by the loop's wall time and CPU time by its
CPU time, since time the hypervisor steals lengthens the one and not the
other.  Scaled times are seconds at the speed where the loops take
REFERENCE_S.  baseline.json gives the run-to-run spread of the metrics
with this scaling and of the measured, unscaled wall time.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter, process_time

import numpy as np

#: median seconds of each calibration loop on the machine in baseline.json
REFERENCE_S = {"python": 0.0036, "numpy": 0.0053}
SAMPLE_EVERY_S = 0.5
WINDOW_S = 2.0

_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, size=(2048, 16))
_LARGE = np.random.default_rng(1).integers(0, 1 << 20, size=1 << 20)


def python_loop() -> None:
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rng = random.Random(1)
    for _ in range(1500):
        parent[find((rng.randrange(600), 1))] = find((rng.randrange(600), 2))


def numpy_loop() -> None:
    order = np.argsort(_ARRAY, axis=1, kind="stable")
    np.cumsum(np.take_along_axis(_ARRAY, order, axis=1), axis=1).sum()
    np.cumsum(_LARGE).sum()


LOOPS = {"python": python_loop, "numpy": numpy_loop}


class HostClock:
    """Calibration samples of one pass: per sample its time and, for each
    loop, the median wall and CPU seconds of three runs."""

    def __init__(self) -> None:
        self.samples: list[dict] = []

    def sample(self) -> None:
        sample = {}
        for name, loop in LOOPS.items():
            walls, cpus = [], []
            for _ in range(3):
                started, cpu_started = perf_counter(), process_time()
                loop()
                walls.append(perf_counter() - started)
                cpus.append(process_time() - cpu_started)
            sample[name] = (statistics.median(walls), statistics.median(cpus))
        sample["time"] = perf_counter()
        self.samples.append(sample)

    def sample_if_due(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1]["time"] >= SAMPLE_EVERY_S:
            self.sample()


def factors(samples: list[dict], start: float, end: float, loop: str
            ) -> tuple[float, float]:
    """The reference over the median wall and CPU time of ``loop`` in the
    samples taken within WINDOW_S of [start, end] (the nearest one if none
    is).  ``loop`` is "python", "numpy", or "mixed" for both together."""
    near = [s for s in samples if start - WINDOW_S <= s["time"] <= end + WINDOW_S]
    if not near:
        middle = (start + end) / 2
        near = [min(samples, key=lambda s: abs(s["time"] - middle))]
    names = list(LOOPS) if loop == "mixed" else [loop]
    reference = sum(REFERENCE_S[name] for name in names)
    return tuple(reference / statistics.median(sum(s[name][i] for name in names)
                                               for s in near)
                 for i in (0, 1))
