#!/usr/bin/env python3
"""Builds and runs the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload campaign|fleet|rack|standby \
        --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the simulator's libraries from src/) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result. A
result file with the run manifest (and, with --trace 1, the spans) is
written to .bench_build/results/.

Exits non-zero, without a result, when the sources are missing, the build
fails, the command line is malformed or a correctness check fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; True on success."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance():
    """(commit, dirty) for the manifest; 'unknown' outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", None
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return commit or "unknown", None if status is None else ("1" if status else "0")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"error: simulator sources not found at {os.path.join(ROOT, 'src')}")
        return 1
    if not build():
        log("error: build failed")
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    commit, dirty = provenance()
    cmd = [os.path.join(BUILD, "perfbench"), *argv, "--out", RESULTS,
           "--commit", commit]
    if dirty is not None:
        cmd += ["--dirty", dirty]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"error: benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
