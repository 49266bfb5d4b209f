"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1
                                 --work-dir DIR [--reference FILE]

``run.py`` starts this with ``PYTHONPATH=src``.  The first thing it does is
time ``import twobridge.cli`` (setup_s).  It then runs the workload's jobs
one after another (closed loop, one caller), checks every answer, and
prints one JSON object as its last line.  It holds, per job, its start and
end time and its CPU seconds (children included) up to its checked answer,
and the calibration samples that run.py uses to scale these times to the
reference host speed (see hostclock.py).
With ``--trace 1`` it first times the process pool on one fixed row, then
wraps the library (see tracing.py), and adds the per-layer metrics.
"""

import time

_started = time.perf_counter()
import twobridge.cli  # noqa: E402  (the import is what setup_s measures)

_imported = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from twobridge import checks, sigtables  # noqa: E402

HERE = Path(__file__).resolve().parent
POOL_PROBE_C = 15


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_cli(argv: tuple) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = twobridge.cli.main(list(argv), standalone_mode=False)
    if code not in (None, 0):
        raise workloads.WrongAnswer(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return json.loads(out.getvalue())


def _run_lib(call: tuple):
    module, function, *args = call
    return getattr(importlib.import_module(f"twobridge.{module}"), function)(*args)


def pool_probe(nproc: int) -> dict[str, float]:
    """One fixed row enumerated serially and over nproc workers."""
    started = time.perf_counter()
    serial = sigtables.histogram_enumerated(POOL_PROBE_C, 1)
    serial_s = time.perf_counter() - started
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    pooled = sigtables.histogram_enumerated(POOL_PROBE_C, nproc)
    pooled_s = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if serial != pooled or sum(serial.values()) != workloads.jacobsthal(POOL_PROBE_C - 2):
        raise workloads.WrongAnswer(f"pool probe rows disagree at c={POOL_PROBE_C}")
    return {
        "sigtables.histogram_enumerated.pool_speedup": serial_s / pooled_s,
        "sigtables.histogram_enumerated.pool_child_cpu_s":
            (after.ru_utime + after.ru_stime) - (children.ru_utime + children.ru_stime),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args()

    clock = hostclock.HostClock()
    clock.sample()
    ref = json.loads(args.reference.read_text())
    nproc = os.cpu_count() or 1
    cache_dir = args.work_dir / f"cache-{os.getpid()}"
    jobs = workloads.build_jobs(args.workload, args.seed, nproc=nproc,
                                cache_dir=str(cache_dir), ref=ref,
                                published=checks.SIGNATURE_TABLE)
    tracer = tracing.Tracer()
    layers = {}
    if args.trace:
        layers.update(pool_probe(nproc))
        tracer.install()

    timings, failures = [], []
    try:
        for index, job in enumerate(jobs):
            tracer.job = index
            clock.sample_if_due()
            cpu_before = _cpu_s()
            started = time.perf_counter()
            try:
                if job.kind == "cli":
                    with tracer.span("cli." + job.call[0]) if args.trace \
                            else contextlib.nullcontext():
                        answer = _run_cli(job.call)
                else:
                    answer = _run_lib(job.call)
                job.check(answer)
            except Exception as problem:  # a failed job is counted, not fatal
                failures.append(f"job {index} {' '.join(map(str, job.call))}: "
                                f"{type(problem).__name__}: {problem}")
            timings.append((started, time.perf_counter(), _cpu_s() - cpu_before))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    clock.sample()

    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "twobridge": twobridge.cli.__file__,
        "setup": (_started, _imported), "peak_rss_mb": peak_kb / 1024,
        "jobs": timings, "clock": clock.samples,
        "queries": [i for i, job in enumerate(jobs) if job.query],
        "attempted": len(jobs), "failed": len(failures), "failures": failures[:20],
    }
    if args.trace:
        layers.update(tracing.layer_metrics(tracer, workloads.CHECK_NAMES))
        result["layers"] = layers
        tracer.write(args.work_dir / f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
