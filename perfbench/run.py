#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (Release, CMake) into .bench_build/perfbench on first
use, then runs one workload.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 1 the metrics
are the per-layer ledger, a per-span self-time table is printed above it,
and the Chrome trace is left in .bench_build/perfbench/trace-<workload>.json
(readable by tools/trace_summary.py).

The benchmark checks that the metric names and units it prints are the
ones BENCHMARK.json declares, and exits non-zero without a result line
when the build, a check or the run fails.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cache = BUILD / "CMakeCache.txt"
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", str(max(1, len(os.sched_getaffinity(0))))]
    with open(log_path, "w") as log:
        for step in ([] if cache.exists() else [configure]) + [compile_]:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                if step is configure:
                    cache.unlink(missing_ok=True)
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD / "perfbench"


def write_joint_reference(path):
    """kernel -> (pick, remote %) from the committed A9 artifact."""
    artifact = json.loads((ROOT / "BENCH_ablation_joint.json").read_text())
    columns = artifact["columns"]
    kernel = columns.index("kernel")
    joint = columns.index("joint")
    pick = columns.index("joint pick")
    with open(path, "w") as out:
        for row in artifact["rows"]:
            out.write("%s\t%s\t%s\n" % (row[kernel], row[pick], row[joint]))


def self_times(trace_path):
    """(cat/name) -> [total_ms, self_ms, count]: a span's self time is its
    duration minus the part its child spans on the same thread cover."""
    events = json.loads(pathlib.Path(trace_path).read_text())["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X":
            spans.setdefault(e["tid"], []).append(e)
    table = {}
    for thread_spans in spans.values():
        thread_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, key, child_us, dur_us]

        def close(frame):
            row = table.setdefault(frame[1], [0.0, 0.0, 0])
            row[1] += (frame[3] - frame[2]) / 1e3
        for e in thread_spans:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            key = "%s/%s" % (e["cat"], e["name"])
            row = table.setdefault(key, [0.0, 0.0, 0])
            row[0] += e["dur"] / 1e3
            row[2] += 1
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([e["ts"] + e["dur"], key, 0.0, e["dur"]])
        while stack:
            close(stack.pop())
    return table


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build()
    joint_ref = BUILD / "joint_reference.tsv"
    write_joint_reference(joint_ref)
    trace_out = BUILD / ("trace-%s.json" % args.workload)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--joint-ref", str(joint_ref)]
    if args.trace:
        command += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with %d" % proc.returncode,
             proc.returncode or 1)
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(args.trace):
        fail("printed metrics differ from BENCHMARK.json: %s" % printed)

    print("\n".join(lines[:-1]))
    if args.trace:
        print("\nspan self time (traced pass; %s)" % trace_out.name)
        print("  %-40s %12s %12s %8s" % ("span", "total ms", "self ms",
                                          "count"))
        rows = sorted(self_times(trace_out).items(), key=lambda r: -r[1][1])
        for key, (total, own, count) in rows:
            print("  %-40s %12.3f %12.3f %8d" % (key, total, own, count))
    print(lines[-1])


if __name__ == "__main__":
    main()
