#!/usr/bin/env python3
"""Smoke test of the service benchmark: runs every workload on the scaled-down
generator profile (seconds, not minutes), in both modes, and checks

  * the output schema: the last line holds exactly `correct`, `attempted`,
    `failed` and `metrics`, with every end-to-end (--trace 0) or per-layer
    (--trace 1) metric and its unit;
  * the work-invariance guard: two runs with one seed report identical work
    counts, and the ml-hot timed phase never misses the cache;
  * that the benchmark refuses to run without the graphtempo sources.

    python3 perfbench/smoke_test.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}", flush=True)


def bench_run(workload, seed, trace, cwd=None):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--profile", "smoke"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=cwd or HERE.parent,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def check_schema(workload, trace, lines):
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{workload}: correct={result['correct']} failed={result['failed']}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{workload}: attempted={result['attempted']}")
    names = bench.PER_LAYER if trace else bench.END_TO_END
    expect(sorted(result["metrics"]) == sorted(names),
           f"{workload} trace={trace}: metric names {sorted(result['metrics'])}")
    for name, unit in names.items():
        metric = result["metrics"].get(name, {})
        expect(metric.get("unit") == unit and isinstance(metric.get("value"), (int, float)),
               f"{workload}: metric {name} = {metric}")
    report = json.loads(lines[-2])["report"]
    for stamp in ("nproc", "backend", "build_type", "compiler", "seed", "dataset",
                  "tail_percentile", "latency_samples"):
        expect(stamp in report, f"{workload}: report lacks {stamp}")
    return result, report


def main():
    for workload in sorted(bench.WORKLOADS):
        started = time.perf_counter()
        code, lines, stderr = bench_run(workload, 5, 0)
        expect(code == 0 and lines, f"{workload}: exit {code}: {stderr[-400:]}")
        if code != 0 or not lines:
            continue
        _, first = check_schema(workload, 0, lines)
        code, lines, stderr = bench_run(workload, 5, 0)
        expect(code == 0 and lines, f"{workload} (repeat): exit {code}: {stderr[-400:]}")
        if lines:
            _, second = check_schema(workload, 0, lines)
            expect(first["work"] == second["work"],
                   f"{workload}: work counts drifted: {first['work']} vs {second['work']}")
        if workload == "ml-hot":
            expect(first["work"]["timed_misses"] == 0, "ml-hot timed phase missed the cache")
        code, lines, stderr = bench_run(workload, 6, 1)
        expect(code == 0 and lines, f"{workload} --trace 1: exit {code}: {stderr[-400:]}")
        if code == 0 and lines:
            check_schema(workload, 1, lines)
        print(f"{workload}: {time.perf_counter() - started:.1f}s", flush=True)

    # A directory holding only BENCHMARK.json and the benchmark must fail fast.
    with tempfile.TemporaryDirectory(dir=bench.BUILD) as bare:
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if (HERE.parent / "BENCHMARK.json").is_file():
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        command = [sys.executable, str(Path(bare) / HERE.name / "run.py"), "--workload",
                   "ml-hot", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, cwd=bare, timeout=60)
        expect(done.returncode != 0 and not done.stdout.strip(),
               f"bare checkout: exit {done.returncode}, stdout {done.stdout[-200:]!r}")

    print("smoke test", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
