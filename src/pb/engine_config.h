/**
 * @file
 * Native PB Binning-engine selection.
 *
 * PR 1's ParallelPbRunner binned with one flat scalar loop — the exact
 * software baseline whose per-tuple overhead and bin-count compromise
 * the paper's hardware (COBRA's C-Buffer hierarchy) exists to remove.
 * This header names the software analogues the native runtime now
 * offers, so kernels, benchmarks, and the CLI can A/B them:
 *
 *  - kScalar           PR 1 reference: tuple-at-a-time binning through
 *                      PbBinner (also the instrumented/simulated path).
 *  - kWriteCombine     64B-aligned per-bin staging lines drained with
 *                      aligned non-temporal bursts (software C-Buffer).
 *
 * The engine set is deliberately small: three other engines (a SIMD
 * batch-binning variant of kWriteCombine, a two-level hierarchical
 * binner and a native two-pass radix partitioner) lost to kWriteCombine
 * at every bin count where they were measured beyond the LLC
 * (EXPERIMENTS.md, "Native engine sweep") and were removed. Their wire
 * ids 2..4 stay unassigned and are rejected.
 *
 * Orthogonal to the engine choice, the skew* knobs below enable the
 * skew-adaptive Accumulate scheduler (skew sketch + hot-bin splitting +
 * work-stealing; see src/pb/skew_sketch.h and parallel_pb.h).
 *
 * Kept dependency-free so src/kernels/kernel.h can expose an engine
 * parameter without dragging the engines themselves into every kernel.
 */

#ifndef COBRA_PB_ENGINE_CONFIG_H
#define COBRA_PB_ENGINE_CONFIG_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace cobra {

/** Which native Binning engine ParallelPbRunner uses. */
enum class PbEngineKind : uint8_t
{
    kScalar = 0,
    kWriteCombine = 1,
};

inline const char *
to_string(PbEngineKind k)
{
    switch (k) {
      case PbEngineKind::kScalar: return "scalar";
      case PbEngineKind::kWriteCombine: return "wc";
    }
    return "unknown";
}

inline std::optional<PbEngineKind>
engineKindFromName(std::string_view name)
{
    for (PbEngineKind k :
         {PbEngineKind::kScalar, PbEngineKind::kWriteCombine})
        if (name == to_string(k))
            return k;
    return std::nullopt;
}

/**
 * Which way updates travel through Accumulate.
 *
 *  - kPush  Init/Binning/Accumulate as in the paper: updates are
 *           scattered into destination-range bins, then each bin owner
 *           applies them. Always available; the only option for
 *           kernels without a destination-indexed gather view.
 *  - kPull  Accumulate-only: destination ranges are sharded across
 *           threads and each owner *gathers* its updates from a
 *           CSC/transposed view of the input. No bins, no binners, no
 *           Init/Binning phases — the win when the destination working
 *           set is already cache-resident.
 *  - kAuto  resolvePbDirection() (src/pb/auto_tune.h) picks per run
 *           from update density and the LLC budget.
 */
enum class PbDirection : uint8_t
{
    kPush = 0,
    kPull,
    kAuto,
};

inline const char *
to_string(PbDirection d)
{
    switch (d) {
      case PbDirection::kPush: return "push";
      case PbDirection::kPull: return "pull";
      case PbDirection::kAuto: return "auto";
    }
    return "unknown";
}

inline std::optional<PbDirection>
directionFromName(std::string_view name)
{
    for (PbDirection d : {PbDirection::kPush, PbDirection::kPull,
                          PbDirection::kAuto})
        if (name == to_string(d))
            return d;
    return std::nullopt;
}

/** Engine choice plus its tunables. */
struct PbEngineConfig
{
    PbEngineKind kind = PbEngineKind::kScalar;

    /**
     * WC depth: staging lines per bin (drained wholesale when full).
     * Depth 1 = one 64B C-Buffer per bin; deeper buffers halve drain
     * frequency at the cost of a proportionally larger working set.
     */
    uint32_t wcLines = 1;

    /**
     * Skew-adaptive Accumulate: measure bin-occupancy skew at the
     * Init barrier (SkewSketch, free — the counts already exist) and
     * replace the static contiguous bin split with a stolen work-queue
     * of occupancy-balanced bin chunks. Off by default: the static
     * split is the paper's layout and the right answer for uniform
     * streams.
     */
    bool skewAdaptive = false;

    /**
     * Heavy-hitter depth of the sketch == most bins the scheduler may
     * split into privatized sub-ranges per run.
     */
    uint32_t skewTopK = 8;

    /**
     * A bin is "hot" (eligible for splitting) when its tuple count
     * exceeds hotFactor * mean. Below that, stealing whole bin chunks
     * already levels the finish line.
     */
    double hotFactor = 8.0;

    /**
     * Sub-ranges a hot bin is split into. Fixed (not derived from the
     * pool size) so the split points — and therefore the privatized
     * partial results and their fixed-order merge — are identical for
     * every host thread count: determinism is schedule-independent by
     * construction.
     */
    uint32_t hotSubRanges = 4;

    /**
     * Update-propagation direction (appended last so positional
     * aggregate initializers of the earlier fields keep compiling).
     * kPull routes runs through ParallelPbRunner::runPull — the
     * destination-sharded gather that skips Init+Binning entirely —
     * when the kernel provides a gather view; kernels without one fall
     * back to push. kAuto defers to resolvePbDirection().
     */
    PbDirection direction = PbDirection::kPush;
};

} // namespace cobra

#endif // COBRA_PB_ENGINE_CONFIG_H
