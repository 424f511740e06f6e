/**
 * @file
 * Analytic bin-count selection for software PB.
 *
 * The paper selects the best bin range per workload/input by sweeping
 * (Section VI). Sweeping costs a full execution per candidate; this
 * helper encodes the mechanism behind the sweep's answer instead: the
 * Binning phase performs well while the C-Buffer working set (one 64B
 * buffer plus a 4B counter per bin) stays resident in the upper caches,
 * and Accumulate wants every bin it can get — so pick the largest
 * power-of-two bin count whose C-Buffer footprint fits a target capacity
 * (default: half the L2, leaving room for the streamed input).
 *
 * This is a heuristic, not an oracle: tests assert it lands within a
 * small factor of the swept optimum, not on it.
 */

#ifndef COBRA_PB_AUTO_TUNE_H
#define COBRA_PB_AUTO_TUNE_H

#include <algorithm>

#include "src/mem/hierarchy.h"
#include "src/pb/bin_range.h"
#include "src/pb/engine_config.h"
#include "src/util/cpu_features.h"

namespace cobra {

/** Per-bin Binning-phase footprint: coalescing buffer + counter. */
constexpr uint64_t kPbBytesPerBin = kLineSize + sizeof(uint32_t);

/**
 * Suggest a PB bin count for @p num_indices on machine @p h.
 * @param capacity_fraction fraction of L2 to budget for C-Buffers.
 */
inline uint32_t
autoTunePbBins(uint64_t num_indices,
               const HierarchyConfig &h = HierarchyConfig{},
               double capacity_fraction = 0.5)
{
    COBRA_FATAL_IF(num_indices == 0, "empty index namespace");
    COBRA_FATAL_IF(capacity_fraction <= 0.0 || capacity_fraction > 1.0,
                   "capacity fraction must be in (0, 1]");
    const double budget =
        static_cast<double>(h.l2.sizeBytes) * capacity_fraction;
    uint64_t bins = static_cast<uint64_t>(budget / kPbBytesPerBin);
    bins = std::max<uint64_t>(16, floorPow2(std::max<uint64_t>(1, bins)));
    // Never more bins than indices (the plan would clamp anyway).
    bins = std::min<uint64_t>(bins, ceilPow2(num_indices));
    return static_cast<uint32_t>(bins);
}

/** The binning plan the heuristic implies. */
inline BinningPlan
autoTunePlan(uint64_t num_indices,
             const HierarchyConfig &h = HierarchyConfig{})
{
    return BinningPlan::forMaxBins(num_indices,
                                   autoTunePbBins(num_indices, h));
}

/**
 * Cache capacities native runs should size against: the host's real
 * topology when sysfs exposes it, the benchmark-context
 * HierarchyConfig otherwise (containers and stripped sysfs roots fall
 * back to the same machine model the simulator uses, so tuning is
 * deterministic either way).
 */
struct CacheBudget
{
    uint64_t l1dBytes = 0;
    uint64_t l2Bytes = 0;
    uint64_t llcBytes = 0;
    bool fromHost = false; ///< true: sysfs; false: HierarchyConfig
};

inline CacheBudget
hostCacheBudget(const HierarchyConfig &fallback = HierarchyConfig{})
{
    const HostCacheGeometry &g = hostCacheGeometry();
    if (g.detected)
        return CacheBudget{g.l1dBytes, g.l2Bytes, g.llcBytes, true};
    return CacheBudget{fallback.l1.sizeBytes, fallback.l2.sizeBytes,
                       fallback.llc.sizeBytes, false};
}

/**
 * Direction heuristic for PbDirection::kAuto (the pull/push trade from
 * "Specializing Coherence, Consistency, and Push/Pull for GPU Graph
 * Analytics", PAPERS.md): pull-mode Accumulate skips Init+Binning
 * entirely, but its gather reads hit the destination array at random —
 * it only wins when that working set is cache-resident and the stream
 * is dense enough that the per-destination gather walk amortizes.
 *
 *  - LLC residency: destination array (4B/element, payload-independent)
 *    within half the LLC, leaving room for the streamed source view.
 *  - Density: >= 4 updates per destination on average. Below that the
 *    gather walk touches more source-view cachelines per useful update
 *    than binning would move, so push keeps its bandwidth advantage.
 *
 * Explicit push/pull requests pass through untouched.
 */
inline PbDirection
resolvePbDirection(PbDirection requested, uint64_t num_updates,
                   uint64_t num_indices, const CacheBudget &cb)
{
    if (requested != PbDirection::kAuto)
        return requested;
    if (num_indices == 0 || num_updates == 0)
        return PbDirection::kPush;
    const uint64_t dest_bytes = num_indices * sizeof(uint32_t);
    const bool llc_resident = dest_bytes <= cb.llcBytes / 2;
    const bool dense = num_updates >= 4 * num_indices;
    return (llc_resident && dense) ? PbDirection::kPull
                                   : PbDirection::kPush;
}

inline PbDirection
resolvePbDirection(PbDirection requested, uint64_t num_updates,
                   uint64_t num_indices)
{
    return resolvePbDirection(requested, num_updates, num_indices,
                              hostCacheBudget());
}

} // namespace cobra

#endif // COBRA_PB_AUTO_TUNE_H
