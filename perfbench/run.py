#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark package from source and runs it.

    python3 perfbench/run.py --workload fig6|fault_audit|serve|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into the perfbench/ subdirectory of
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build. Every run also runs the
self-test of the benchmark's own math. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics of a traced replay with --trace 1 (whose spans
are written to spans-<workload>.csv in the build directory).

--workload all runs the three workloads one after another and prints every
figure under its workload-qualified name (fig6.sets_per_s, serve.max_rps,
serve.high.p99_ms, fault_audit.setup_s, ...). The exit code is 0 only when
every output check passed; a failed build or self-test exits non-zero
without a result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig6", "fault_audit", "serve"]
# Wall-clock limit of one benchmark binary run, in seconds.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    """The benchmark's own subdirectory of the target directory, which may be
    shared with other builds."""
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, path) if not os.path.isabs(path) else path
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: configure failed")
            # The next run configures afresh; nothing else is removed.
            if os.path.exists(cache):
                os.remove(cache)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: build failed")
        return None
    return out


def clean_env():
    # MKSS_* knobs change what the library does; the benchmark measures the
    # defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MKSS_")}
    # A checkout that is not a repository must not pick up one above it.
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        describe = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10, env=git_env)
        env["PERFBENCH_GIT_DESCRIBE"] = (
            describe.stdout.strip() if describe.returncode == 0
            else "not-a-git-checkout")
    except (OSError, subprocess.TimeoutExpired):
        env["PERFBENCH_GIT_DESCRIBE"] = "not-a-git-checkout"
    return env


def selftest(out, env):
    proc = subprocess.run([os.path.join(out, "perfbench_selftest"),
                           "--gtest_brief=1"], env=env, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=60)
    if proc.returncode:
        log("perfbench: self-test of the benchmark math failed")
    return proc.returncode == 0


def run_workload(out, env, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines, result or None)."""
    cmd = [os.path.join(out, "mkss_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(out, f"spans-{workload}.csv")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def run_all(out, env, seed, seconds, trace):
    """Runs every workload and prints each figure under a qualified name."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        rc, lines, result = run_workload(out, env, workload, seed, seconds,
                                         trace, echo=False)
        if result is None:
            log(f"perfbench: {workload} printed no result")
            return 1
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for line in lines:
            if (line.startswith(("CHECK FAILED", "VIOLATION", "QUARANTINED"))
                    or "Known defect:" in line):
                print(f"{workload}: {line}")
            if line.startswith("named "):
                _, name, value, unit = line.split(" ", 3)
                combined["metrics"][name] = {"value": float(value),
                                             "unit": unit}
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    combined["metrics"]["failed_ratio"] = {
        "value": combined["failed"] / max(1, combined["attempted"]),
        "unit": "ratio"}
    for name, metric in combined["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(combined))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    out = build()
    if out is None:
        return 1
    env = clean_env()
    if not selftest(out, env):
        return 1
    log(f"perfbench: build and self-test took {time.monotonic() - started:.1f} s")
    if args.workload == "all":
        return run_all(out, env, args.seed, args.seconds, args.trace)
    rc, _, result = run_workload(out, env, args.workload, args.seed,
                                 args.seconds, args.trace)
    if result is None:
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
