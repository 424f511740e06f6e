#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload beyond_llc|serve_mixed|simulate \
        --seed N --seconds S --trace 0|1

The benchmark is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run builds, later runs only check that the build is current. The last
line printed is one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def source_id(root):
    """Git SHA when the tree is a checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git-" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build(root, build_dir):
    """Configure (once) and build the perfbench target; True on success."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def conform(root, result, trace):
    """Match the result's metrics to BENCHMARK.json's declared set.

    An untraced run must report exactly the end-to-end metrics. A traced
    run reports the per-layer metrics of the layers its workload
    exercises; the others are reported as 0 (no work in that layer).
    """
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    metrics = result["metrics"]
    unknown = set(metrics) - set(names)
    missing = [n for n in names if n not in metrics]
    if unknown or (missing and not trace):
        print("perfbench: metrics differ from BENCHMARK.json: unknown %s, "
              "missing %s" % (sorted(unknown), missing), file=sys.stderr)
        return False
    result["metrics"] = {
        m["name"]: metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in declared}
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["beyond_llc", "serve_mixed", "simulate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Relative run directory: the server's unix-socket path must stay
    # short, whatever the depth of the checkout.
    out_dir = os.path.relpath(os.path.join(target, "run"), root)
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id(root))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print("perfbench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(run.stdout)
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    if not conform(root, result, args.trace):
        sys.stderr.write(run.stdout)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
