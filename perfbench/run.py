#!/usr/bin/env python3
"""Build and run the serving benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the library from src/ plus the benchmark program) under
$CARGO_TARGET_DIR/perfbench-<digest of this checkout's path>, default
.bench_build/...; later calls rebuild only what changed.  Keying the
build by checkout keeps two checkouts that share CARGO_TARGET_DIR from
building each other's sources.  Build output goes to stderr.

The benchmark program prints a meta line, one "metric" line per
measured metric and a RESULT line.  This script echoes them, then
prints as the last line of stdout one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.  A metric BENCHMARK.json names that the
program did not measure is an error.  With --trace 1 the Chrome trace
(open it in Perfetto) is written next to the build.

--smoke runs every workload at a tiny size with --trace 0 and 1 and
checks the metric names against BENCHMARK.json, the program's own
self-checks (node sums vs entry runs, service intervals), and the output
check.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
WORKLOADS = ("bert_tw_closed", "bert_int8_closed")


def build_dir():
    checkout = hashlib.sha256(str(HERE).encode()).hexdigest()[:12]
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target.resolve() / f"perfbench-{checkout}"


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.CalledProcessError) as err:
            sys.exit(f"perfbench: build failed: {err}")
    return out / "perfbench"


def revision():
    """git revision when the checkout is a repository, plus a digest of
    the sources the benchmark builds (which a plain checkout also has)."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "none"
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"git:{rev},src-sha256:{digest.hexdigest()[:16]}"


def selected_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_program(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark program; returns (exit code, RESULT object or None)."""
    out = build_dir()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(out), "--revision", revision()]
    if trace:
        cmd += ["--trace-out", str(out / f"{workload}.seed{seed}.trace.json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    result = None
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def narrowed(result, trace):
    metrics = {}
    for name in selected_names(trace):
        if name not in result["metrics"]:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = result["metrics"][name]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_program(binary, workload, 1, 1, trace, smoke=True)
            label = f"{workload} trace={int(trace)}"
            try:
                if result is None:
                    raise ValueError("no RESULT line")
                narrowed(result, trace)
                if code != 0 or not result["correct"]:
                    raise ValueError(f"exit {code}, correct={result['correct']}")
                print(f"smoke ok: {label}")
            except (KeyError, ValueError) as err:
                failures += 1
                print(f"smoke FAILED: {label}: {err}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        return smoke(binary)

    code, result = run_program(binary, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if result is None:
        return code or 1
    try:
        final = narrowed(result, bool(args.trace))
    except KeyError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return code if code != 0 else (0 if final["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
