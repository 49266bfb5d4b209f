"""The twobridge benchmark: run one workload for a fixed time, print metrics.

    python3 perfbench/run.py --workload tables|walk|genus|verify \
        --seed N --seconds S --trace 0|1 [--reference FILE]

Run it from the repository root.  After one untimed warm-up import, it
runs S / NOMINAL_PASS_S passes of the workload one after another, each in
a fresh interpreter (passrun.py).  With ``--trace 1`` untraced and traced
passes alternate.  It prints every metric by name and unit, then, as its
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 1 if any job gave a wrong answer,
and 2 without a result if the tree holds no ``src/twobridge``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = HERE / "_work"
RUN_LIMIT_S = 170           # every run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "query_p50_ms": "ms", "query_p99_ms": "ms"}


def tail_latency(values: list[float]) -> float:
    """p99, lowered if needed so that ten values lie beyond it, but never
    below the median rank; with fewer than 21 values it is the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(math.ceil(0.5 * n), min(math.ceil(0.99 * n), n - 10))
    return ordered[rank - 1]


def scale_pass(result: dict, loop: str) -> dict:
    """A pass's setup and job times, measured and scaled to the reference
    host speed by the calibration loop named ``loop``."""
    samples = result["clock"]
    start, end = result["setup"]
    setup = (end - start) * hostclock.factors(samples, start, end, loop)[0]
    jobs = []
    for start, end, cpu in result["jobs"]:
        wall_factor, cpu_factor = hostclock.factors(samples, start, end, loop)
        jobs.append(((end - start) * wall_factor, cpu * cpu_factor))
    return {"setup_s": setup, "jobs": jobs,
            "wall_s": sum(j[0] for j in jobs), "cpu_s": sum(j[1] for j in jobs),
            "raw_wall_s": sum(end - start for start, end, _ in result["jobs"]),
            "raw_setup_s": result["setup"][1] - result["setup"][0]}


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_pass(root: Path, args, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.pop("TB_CACHE_DIR", None)  # it would override the pass's --cache-dir
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work-dir", str(WORK_DIR), "--reference", str(args.reference)]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"pass exited {done.returncode}: {done.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    expected = root / "src" / "twobridge" / "cli.py"
    if Path(result["twobridge"]).resolve() != expected.resolve():
        return {"error": f"imported {result['twobridge']}, not {expected}"}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="exact answers to check against (default: reference.json)")
    args = parser.parse_args()
    args.reference = args.reference.resolve()

    root = Path.cwd()
    if not (root / "src" / "twobridge" / "cli.py").is_file():
        print(f"error: no src/twobridge under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    run_started = time.perf_counter()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)

    # Untimed warm-up: compiles the bytecode and fills the page cache.
    warm = subprocess.run([sys.executable, "-c", "import twobridge.cli"], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"error: cannot import twobridge.cli: {warm.stderr.strip()[-500:]}",
              file=sys.stderr)
        return 2

    # The pass count depends only on --seconds, so every run of a workload,
    # on every commit, takes the same number of samples.
    n_passes = max(1 + args.trace, round(args.seconds / workloads.NOMINAL_PASS_S))
    plain, traced, errors = [], [], []
    for index in range(n_passes):
        remaining = RUN_LIMIT_S - (time.perf_counter() - run_started)
        if remaining < 10:
            errors.append(f"run limit of {RUN_LIMIT_S} s reached after {index} passes")
            break
        want_traced = bool(args.trace) and index % 2 == 1
        result = run_pass(root, args, want_traced, remaining)
        if "error" in result:
            errors.append(result["error"])
            break
        (traced if want_traced else plain).append(result)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    for problem in errors + [f for p in passes for f in p["failures"]][:20]:
        print(f"FAIL {problem}", file=sys.stderr)

    loop = workloads.CLOCK_LOOP[args.workload]
    plain_s = [scale_pass(p, loop) for p in plain]
    traced_s = [scale_pass(p, loop) for p in traced]
    metrics: dict[str, dict] = {}
    if plain and not args.trace:
        # One latency per query job: its median scaled time over the passes.
        latencies = [statistics.median(p["jobs"][i][0] for p in plain_s) * 1e3
                     for i in plain[0]["queries"]]
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in plain_s),
            "wall_s": statistics.median(p["wall_s"] for p in plain_s),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain_s),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "query_p50_ms": statistics.median(latencies),
            "query_p99_ms": tail_latency(latencies),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail = (f"{len(plain)} passes of {len(plain[0]['jobs'])} jobs, "
                  f"{len(latencies)} of them queries; measured, unscaled: wall_s "
                  f"{statistics.median(p['raw_wall_s'] for p in plain_s):.4g}, setup_s "
                  f"{statistics.median(p['raw_setup_s'] for p in plain_s):.4g}")
    elif plain and traced:
        units = _per_layer_units()
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced_s)
            / statistics.median(p["wall_s"] for p in plain_s) - 1)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        detail = f"{len(plain)} untraced and {len(traced)} traced passes"
    else:
        detail = "no complete pass"

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}: {detail}; "
          f"fail_frac={failed / max(attempted, 1):.4g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
