#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench_e2e) for one workload.

    python3 bench/e2e/run.py --workload psa --seed 42 --seconds 24 --trace 0

Run it from the root of a checkout. The first call configures the
repository's CMake project (Release, tests/benches/examples off) under
.bench_build/cmake with bench/e2e/bench_e2e.cmake injected, and builds
bench_e2e; later calls only re-check the build. Build output goes to
.bench_build/build.log.

--trace 1 runs the traced variant: it reports the per-layer metrics instead
of the end-to-end ones and writes .bench_build/traces/<workload>.trace.json.
The last stdout line is bench_e2e's result JSON; the exit code is its exit
code (0 = every answer verified).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("psa", "leaflet", "repex", "service")


def build(root: Path, build_dir: Path) -> Path:
    """Configures (once) and builds bench_e2e; returns the binary path."""
    cmake_dir = build_dir / "cmake"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "a") as log:
        if not (cmake_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(root), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DMDTASK_BUILD_TESTS=OFF",
                 "-DMDTASK_BUILD_BENCH=OFF",
                 "-DMDTASK_BUILD_EXAMPLES=OFF",
                 "-DCMAKE_PROJECT_mdtask_INCLUDE="
                 + str(root / "bench" / "e2e" / "bench_e2e.cmake")],
                stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(
            ["cmake", "--build", str(cmake_dir), "--target", "bench_e2e",
             "-j", str(os.cpu_count() or 4)],
            stdout=log, stderr=subprocess.STDOUT, check=True)
    return cmake_dir / "bench_e2e" / "bench_e2e"


def commit_of(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[2]
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"run.py: no mdtask sources under {root}", file=sys.stderr)
        return 2
    build_dir = root / ".bench_build"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed ({err}); see {build_dir / 'build.log'}",
              file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work", str(build_dir / "work"),
               "--commit", commit_of(root)]
    if args.trace:
        command += ["--trace", str(build_dir / "traces")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
