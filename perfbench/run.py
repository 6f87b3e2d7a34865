#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver from source on first use (perfbench/CMakeLists.txt into
.bench_build/ at the checkout root), runs it in its own process with a
per-run temporary directory under .bench_build/runs/, checks that the
directory is left empty, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with exactly the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A line before it, starting with "# meta",
records the machine and the driver's observed answers. Exits 0 only when
every answer was correct. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "gdp_perfbench"
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build() -> None:
    """Configures once and builds the driver; serialized by a lock file."""
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "gdp_perfbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def machine() -> dict:
    info = {"nproc": os.cpu_count()}
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        info["llc"] = f"L{level} {size}"  # the highest level listed last
    return info


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", type=pathlib.Path,
                    help="also append the result, tagged with workload/seed/trace, "
                         "to this JSON-lines file (input of compare.py)")
    args = ap.parse_args(argv)
    started = time.monotonic()
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # child, and through the finally that removes the run's directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"library sources not found under {ROOT / 'src'}; nothing to build")
        return 2
    try:
        build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 3

    tmpdir = BUILD_DIR / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmpdir, ignore_errors=True)
    tmpdir.mkdir(parents=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", str(tmpdir), "--pins", str(BENCH_DIR / "pins.txt")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=max(10.0, RUN_DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 4
    finally:
        leftover = tmpdir.exists() and any(tmpdir.iterdir())
        shutil.rmtree(tmpdir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"driver exited {done.returncode} without a result")
        return 5

    errors = list(raw.get("errors", []))
    if leftover:
        errors.append(f"driver left files in {tmpdir}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} missing or not in {m['unit']}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    result = {
        "correct": bool(raw["correct"]) and not errors and done.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **machine(), "threads": raw.get("threads"), "compiler": raw.get("compiler"),
            "build_type": raw.get("build_type"), "job_walls": raw.get("job_walls"),
            "observed": raw.get("observed", {}), "errors": errors}
    for e in errors:
        log(e)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
