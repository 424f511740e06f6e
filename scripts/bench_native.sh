#!/usr/bin/env bash
# Run the native PB benchmarks (wall-clock, including the threaded
# ParallelPbRunner sweep and the Binning-engine A/B) and record the
# trajectory point at the repo root as BENCH_native_pb.json.
#
#   scripts/bench_native.sh [BUILD_DIR] [--repeats N]
#   scripts/bench_native.sh --supervisor-smoke [BUILD_DIR] [--repeats N]
#   scripts/bench_native.sh --compare [--threshold PCT]
#
# --compare diffs the current trajectory point (BENCH_native_pb.json)
# against the newest archived one (bench/archive/), per benchmark and
# per *_med_s phase median — the same medians the recorded JSON schema
# exports precisely so regressions are judged on distribution centers,
# not noisy means. A phase that slowed by more than the threshold
# (default 25%) above a 100us noise floor is a regression: every one is
# printed and the script exits nonzero. Run it after bench_native.sh
# (which archives the previous point) to gate a PR on "no native phase
# got slower".
#
# An optional build-dir argument selects which build to measure
# (default: build/).
#
# --repeats N repeats every benchmark N times (google-benchmark
# repetitions) so the JSON additionally carries mean/median/stddev
# aggregate rows — the defense against quoting a single noisy sample.
# Each row also always carries <phase>_med_s / <phase>_min_s computed
# across the iterations *within* one repetition.
#
# --supervisor-smoke instead runs a quick interleaved A/B of cobra_cli
# on the wc 2^21-update / 4096-bin anchor point: supervisor disabled
# vs. enabled-but-idle (huge deadline, retries armed, nothing fails).
# It compares the Binning-phase medians (the phase every resilience
# checkpoint sits on) and fails when the idle-supervisor overhead
# exceeds the noise gate — the cheap guard that the cold-path
# checkpoint discipline stays out of the hot loops. Repeats default to
# 9 in this mode; the runs interleave off/on so drift hits both arms.
set -euo pipefail
cd "$(dirname "$0")/.."

# Wall-clock numbers from a busy host are noise, not data. Sample the
# 1-minute load average up front: warn loudly when another workload is
# already running, and stamp the sample into the archived JSON context
# so a suspicious trajectory point can be triaged after the fact.
LOAD1=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)
if awk -v l="$LOAD1" 'BEGIN { exit !(l > 1.0) }'; then
    echo "bench_native: WARNING: 1-min loadavg is $LOAD1 (> 1.0);" \
         "host is busy — wall-clock medians will be noisy" >&2
fi

BUILD_DIR=build
REPEATS=1
SUP_SMOKE=0
COMPARE=0
THRESHOLD=25
while [[ $# -gt 0 ]]; do
    case "$1" in
    --repeats)
        [[ $# -ge 2 ]] || { echo "bench_native: --repeats needs a value" >&2; exit 2; }
        REPEATS=$2
        shift 2
        ;;
    --supervisor-smoke)
        SUP_SMOKE=1
        REPEATS=9
        shift
        ;;
    --compare)
        COMPARE=1
        shift
        ;;
    --threshold)
        [[ $# -ge 2 ]] || { echo "bench_native: --threshold needs a value" >&2; exit 2; }
        THRESHOLD=$2
        shift 2
        ;;
    *)
        BUILD_DIR=$1
        shift
        ;;
    esac
done

if [ "$COMPARE" = 1 ]; then
    if [ ! -f BENCH_native_pb.json ]; then
        echo "bench_native: --compare: no BENCH_native_pb.json at the" \
             "repo root (run scripts/bench_native.sh first)" >&2
        exit 2
    fi
    BASELINE=$(ls -1 bench/archive/BENCH_native_pb.*.json 2>/dev/null | sort | tail -n 1 || true)
    if [ -z "$BASELINE" ]; then
        echo "bench_native: --compare: no archived baseline in" \
             "bench/archive/ — nothing to compare against (first run)"
        exit 0
    fi
    python3 - "$BASELINE" BENCH_native_pb.json "$THRESHOLD" <<'EOF'
import json, sys

base_path, new_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
# Phases faster than this are timer noise, not evidence.
NOISE_FLOOR_S = 100e-6

def med_fields(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        # Skip google-benchmark aggregate rows (mean/median/stddev of
        # --repeats); the per-repetition *_med_s already is a median.
        if b.get("run_type") == "aggregate":
            continue
        meds = {k: v for k, v in b.items()
                if k.endswith("_med_s") and isinstance(v, (int, float))}
        if meds:
            rows[b["name"]] = meds
    return rows

base, new = med_fields(base_path), med_fields(new_path)
shared = sorted(set(base) & set(new))
if not shared:
    print(f"bench_native --compare: no common benchmarks between "
          f"{base_path} and {new_path}")
    sys.exit(0)

regressions = []
improvements = 0
compared = 0
for name in shared:
    for field in sorted(set(base[name]) & set(new[name])):
        old_v, new_v = base[name][field], new[name][field]
        if old_v < NOISE_FLOOR_S and new_v < NOISE_FLOOR_S:
            continue
        compared += 1
        if old_v <= 0.0:
            continue
        delta = (new_v - old_v) / old_v * 100.0
        if delta > threshold:
            regressions.append((name, field, old_v, new_v, delta))
        elif delta < -threshold:
            improvements += 1

print(f"bench_native --compare: {len(shared)} shared benchmarks, "
      f"{compared} phase medians above the {NOISE_FLOOR_S * 1e6:.0f}us "
      f"noise floor, threshold {threshold:.0f}%")
print(f"  baseline: {base_path}")
if improvements:
    print(f"  {improvements} phase medians improved by more than "
          f"{threshold:.0f}%")
if regressions:
    print(f"  {len(regressions)} REGRESSIONS:")
    for name, field, old_v, new_v, delta in regressions:
        print(f"    {name} {field}: {old_v * 1e3:.3f} ms -> "
              f"{new_v * 1e3:.3f} ms ({delta:+.1f}%)")
    sys.exit(1)
print("  no phase median regressed past the threshold")
EOF
    exit $?
fi

if [ "$SUP_SMOKE" = 1 ]; then
    CLI="$BUILD_DIR/examples/cobra_cli"
    if [ ! -x "$CLI" ]; then
        cmake -B "$BUILD_DIR" -S .
        cmake --build "$BUILD_DIR" -j "$(nproc)" --target cobra_cli
    fi
    # The 2^21-update wc anchor (urnd 2^19 nodes, 4x updates, 4096 bins)
    # — same shape as the bench_native_pb engine A/B point.
    POINT=(--kernel degree --input urnd --nodes $((1 << 19))
           --edges $((1 << 21)) --technique pb --native --engine wc
           --bins 4096)
    binning_s() { # run once, print the Binning seconds
        "./$CLI" "$@" | sed -n 's/.*phase_seconds [^B]*binning=\([^ ]*\).*/\1/p'
    }
    off=() on=()
    for i in $(seq "$REPEATS"); do
        off+=("$(binning_s "${POINT[@]}")")
        on+=("$(binning_s "${POINT[@]}" --deadline-ms 600000 --retries 3)")
    done
    python3 - "$REPEATS" "${off[@]}" "${on[@]}" <<'EOF'
import statistics, sys
n = int(sys.argv[1])
vals = [float(v) for v in sys.argv[2:]]
off, on = statistics.median(vals[:n]), statistics.median(vals[n:])
delta = (on - off) / off * 100.0
print(f"supervisor A/B smoke ({n} interleaved reps): "
      f"binning median off={off * 1e3:.3f} ms on={on * 1e3:.3f} ms "
      f"delta={delta:+.1f}%")
# Noise gate: medians of interleaved reps on a quiet host sit well
# inside this; a hot-loop checkpoint regression blows far past it.
sys.exit(0 if delta <= 10.0 else 1)
EOF
    exit $?
fi

if [ ! -x "$BUILD_DIR/bench/bench_native_pb" ]; then
    cmake -B "$BUILD_DIR" -S .
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_native_pb
fi

# Keep the previous trajectory point: engine A/B results are only
# meaningful against what the last PR measured on this host.
if [ -f BENCH_native_pb.json ]; then
    mkdir -p bench/archive
    mv BENCH_native_pb.json \
        "bench/archive/BENCH_native_pb.$(date +%Y%m%d-%H%M%S).json"
fi

"./$BUILD_DIR/bench/bench_native_pb" \
    --benchmark_format=json \
    --benchmark_repetitions="$REPEATS" \
    --benchmark_out=BENCH_native_pb.json \
    --benchmark_out_format=json

# Stamp the load sample (and a busy-host flag) into the result context.
python3 - "$LOAD1" <<'EOF'
import json, sys

load1 = float(sys.argv[1])
path = "BENCH_native_pb.json"
with open(path) as f:
    doc = json.load(f)
ctx = doc.setdefault("context", {})
ctx["load_avg_1min_at_start"] = load1
ctx["host_busy_at_start"] = load1 > 1.0
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
