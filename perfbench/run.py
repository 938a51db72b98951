#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|serve|fleet --seed N \
        --seconds S --trace 0|1

Run from the checkout root. Configures and builds perfbench/ (which compiles
the simulator from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the perfbench binary with the checkout root as
its working directory. Build output goes to stderr; the binary's stdout is
passed through, so its last line is the JSON result. The exit code is the
binary's (1 on a failed output check), or 2 when the benchmark cannot be
built or its result line does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "serve", "fleet")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def call(cmd):
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", *generator]
    compile_ = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", str(min(4, os.cpu_count() or 1))]
    fresh = not (build_dir / "CMakeCache.txt").exists()
    if (fresh and not call(configure)) or not call(compile_):
        if fresh:
            die("build failed")
        # A cache from another checkout or toolchain: start over once.
        shutil.rmtree(build_dir, ignore_errors=True)
        if not (call(configure) and call(compile_)):
            die("build failed")
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)
    work_dir = os.path.relpath(build_dir / "work", ROOT)  # short: holds a socket path

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench/run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS:
        die("the last line of perfbench's output is not a result line")
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        die(f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")


if __name__ == "__main__":
    main()
