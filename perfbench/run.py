#!/usr/bin/env python3
"""Build the simulator benchmark from source and run its workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

--seed defaults to 1, --seconds to 55 and --trace to 0. `--workload all` runs
every workload of BENCHMARK.json in turn, each in its own process, and ends
with one combined result line.

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the perfbench program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only re-check the build. Build output goes to stderr. The
program's output goes to stdout unchanged; its last line is the JSON result.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run ends well within this; it only bounds a wedged perfbench process.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def source_id():
    """The git commit when the tree is a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_one(cmd):
    """Runs one perfbench process, echoing its stdout; returns (exit code, last line)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # Forward a termination request so the perfbench process never outlives us.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    expired = threading.Event()

    def expire():
        expired.set()
        child.kill()

    timer = threading.Timer(RUN_TIMEOUT_S, expire)
    timer.start()
    last = ""
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        code = child.wait()
    finally:
        timer.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if expired.is_set():
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return code, last


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"simulator sources not found under {ROOT / 'src'}")

    binary = build(build_dir())
    commit = source_id()
    names = [args.workload]
    if args.workload == "all":
        with open(ROOT / "BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    for name in names:
        cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--commit", commit]
        sys.stdout.flush()
        code, last = run_one(cmd)
        if code != 0:
            sys.exit(code)
        results[name] = json.loads(last)
    if len(names) > 1:
        # One result for the whole set, metrics keyed "<workload>.<metric>".
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
