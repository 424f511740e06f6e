/**
 * @file
 * In-memory bins with the paper's sequential layout.
 *
 * To avoid dynamic allocation during Binning, PB precomputes the number
 * of tuples per bin (the Init phase of Table I), lays all bins out
 * contiguously, and appends through per-bin cursors — the BinOffset array
 * of paper Section V-E. Both software PB and COBRA spill into this
 * structure; COBRA additionally stores the cursors in repurposed LLC tag
 * bits (modeled as zero extra storage).
 */

#ifndef COBRA_PB_BIN_STORAGE_H
#define COBRA_PB_BIN_STORAGE_H

#include <span>
#include <vector>

#include "src/check/fault_injector.h"
#include "src/pb/bin_range.h"
#include "src/pb/tuple.h"
#include "src/sim/exec_ctx.h"
#include "src/util/aligned_array.h"
#include "src/util/error.h"

namespace cobra {

/** Static instrumentation sites (branch "PCs" fed to the gshare model). */
namespace branch_site {
constexpr uint64_t kPbBufferFull = 0x1000;
constexpr uint64_t kPbFlushLoop = 0x1040;
constexpr uint64_t kAccumulateLoop = 0x1080;
constexpr uint64_t kKernelBase = 0x8000;
} // namespace branch_site

/** Contiguous per-bin tuple storage with append cursors. */
template <typename Payload>
class BinStorage
{
  public:
    using Tuple = BinTuple<Payload>;

    /**
     * @param align_bins pad every bin's start offset to a cache-line
     * boundary. The native write-combining engines need this: a full
     * C-Buffer drains as aligned 64B non-temporal bursts, which is only
     * legal when the destination cursor is line-aligned — guaranteed
     * when every bin starts on a line and advances one full line per
     * drain. Simulated/scalar storage keeps the paper's packed layout.
     */
    explicit BinStorage(const BinningPlan &plan_, bool align_bins = false)
        : plan(plan_), alignBins(align_bins), counts(plan_.numBins)
    {
    }

    const BinningPlan &binningPlan() const { return plan; }
    uint32_t numBins() const { return plan.numBins; }

    /**
     * Init phase: count one future tuple for @p index. Models the
     * streaming counting pass (one increment of a counter array that
     * comfortably fits in cache for realistic bin counts).
     */
    void
    countInsert(ExecCtx &ctx, uint32_t index)
    {
        uint32_t b = plan.binOf(index);
        ctx.instr(1);
        ctx.load(&counts[b], 4);
        ++counts[b];
        ctx.store(&counts[b], 4);
    }

    /**
     * Pre-size starts/cursors/data from externally computed final counts
     * so finalizeInit needs no allocation. The host-parallel simulator
     * uses this: every address a simulated core will touch must be
     * fixed before phase work is dispatched to workers, so that each
     * core's page-touch order (which drives the hierarchy's address
     * canonicalization) stays host-schedule-independent. Purely
     * functional: no ExecCtx cost, and the Init phase still pays for
     * its counting + prefix sum as usual.
     */
    void
    preallocate(const std::vector<uint32_t> &final_counts)
    {
        COBRA_PANIC_IF(finalized, "preallocate after finalizeInit");
        COBRA_PANIC_IF(final_counts.size() != counts.size(),
                       "preallocate count size mismatch");
        layOut(final_counts.data());
        preallocated = true;
    }

    /** Init phase: prefix-sum the counts and allocate the bin memory. */
    void
    finalizeInit(ExecCtx &ctx)
    {
        COBRA_PANIC_IF(finalized, "finalizeInit called twice");
        // Cancellation checkpoint + stall site: once per Init per
        // binner (cold), and right before the layout allocation so a
        // cancelled run never pays for bin memory it will not use.
        cancellationPoint();
        if (auto *fi = FaultInjector::active(); fi) [[unlikely]]
            if (fi->fire(FaultSite::kPbStallInit, 0))
                fi->stall();
        if (preallocated) {
            // Allocation-free replay: verify the prescan against the
            // counted inserts and rebuild the cursors in place.
            uint64_t run = 0;
            for (uint32_t b = 0; b < numBins(); ++b) {
                run = padStart(run);
                COBRA_PANIC_IF(starts[b] != run,
                               "preallocate/init mismatch at bin " << b);
                run += counts[b];
                cursors[b] = starts[b];
            }
            COBRA_PANIC_IF(run != starts[numBins()],
                           "preallocate/init total mismatch");
        } else {
            layOut(counts.data());
        }
        // Prefix-sum cost: one load+add+store per bin.
        for (uint32_t b = 0; b < numBins(); ++b) {
            ctx.instr(1);
            ctx.load(&counts[b], 4);
            ctx.store(&starts[b], 8);
        }
        // Injection point: a BinOffset cursor comes out of Init off by
        // one (models a corrupted tag-resident cursor, Section V-E).
        if (auto *fi = FaultInjector::active(); fi) [[unlikely]] {
            for (uint32_t b = 0; b < numBins(); ++b)
                if (fi->fire(FaultSite::kBinOffsetSkew, b))
                    cursors[b] += fi->skewAmount();
        }
        finalized = true;
    }

    /**
     * Reserve space for @p n tuples in @p bin and bump its cursor
     * (BinOffset). Returns the destination; the caller copies tuples and
     * accounts the store traffic (software PB uses non-temporal stores,
     * COBRA writes full lines on LLC C-Buffer eviction).
     *
     * If the bin is already at the capacity Init planned (possible only
     * when the update stream was corrupted, replayed, or the cursors
     * were skewed), the append degrades to the overflow region instead
     * of aborting: the run completes, overflowTuples() exposes the spill
     * for the oracle, and a warning is emitted once. The returned
     * pointer is valid until the next appendRaw call.
     */
    Tuple *
    appendRaw(uint32_t bin, uint32_t n)
    {
        COBRA_PANIC_IF(!finalized, "appendRaw before finalizeInit");
        uint64_t pos = cursors[bin];
        if (pos + n > starts[bin + 1]) [[unlikely]]
            return overflowAppend(bin, n);
        cursors[bin] += n;
        return data.data() + pos;
    }

    /** Tuples actually present in @p bin (may be < capacity after
     * commutative coalescing). */
    std::span<const Tuple>
    bin(uint32_t b) const
    {
        return {data.data() + starts[b],
                static_cast<size_t>(cursors[b] - starts[b])};
    }

    /** Address of the BinOffset cursor (for instrumentation). */
    const uint64_t *cursorAddr(uint32_t b) const { return &cursors[b]; }

    /**
     * Per-bin tuple counts as established by the Init counting pass.
     * Valid once all countInsert calls have happened (the skew sketch
     * reads occupancy from these at the Init barrier).
     */
    const uint32_t *initCounts() const { return counts.data(); }

    uint64_t
    totalTuples() const
    {
        uint64_t n = overflowCount;
        for (uint32_t b = 0; b < numBins(); ++b)
            n += cursors[b] - starts[b];
        return n;
    }

    uint64_t capacityTuples() const { return data.size(); }

    /** Tuples that missed their planned bin and spilled (0 when sane). */
    uint64_t overflowTuples() const { return overflowCount; }
    bool hasOverflow() const { return overflowCount != 0; }

    /** Stream the spilled tuples of @p b (complements bin(b)). */
    template <typename Fn>
    void
    forEachOverflowInBin(uint32_t b, Fn &&fn) const
    {
        for (const OverflowRun &r : overflowRuns)
            if (r.bin == b)
                for (uint32_t i = 0; i < r.count; ++i)
                    fn(overflowData[r.offset + i]);
    }

    /** Rewind cursors so Binning can run again (multi-iteration kernels). */
    void
    resetCursors()
    {
        COBRA_PANIC_IF(!finalized, "resetCursors before finalizeInit");
        for (uint32_t b = 0; b < numBins(); ++b)
            cursors[b] = starts[b];
        overflowData.clear();
        overflowRuns.clear();
        overflowCount = 0;
    }

  private:
    struct OverflowRun
    {
        uint32_t bin;
        size_t offset; ///< into overflowData
        uint32_t count;
    };

    /** Cold path of appendRaw: spill past-capacity tuples. */
    Tuple *
    overflowAppend(uint32_t bin, uint32_t n)
    {
        if (overflowRuns.empty())
            warn("bin " + std::to_string(bin) +
                 " exceeded its Init-planned capacity; spilling to the "
                 "overflow region (corrupted or replayed update stream?)");
        size_t off = overflowData.size();
        overflowData.resize(off + n);
        overflowRuns.push_back(OverflowRun{bin, off, n});
        overflowCount += n;
        return overflowData.data() + off;
    }

    /** Next legal bin start at/after @p run (identity when unaligned). */
    uint64_t
    padStart(uint64_t run) const
    {
        if (!alignBins)
            return run;
        constexpr uint64_t kTuplesPerLine = kLineSize / sizeof(Tuple);
        return (run + kTuplesPerLine - 1) / kTuplesPerLine *
            kTuplesPerLine;
    }

    /** Build starts/cursors/data from @p final_counts (numBins values). */
    void
    layOut(const uint32_t *final_counts)
    {
        starts = AlignedArray<uint64_t, kPageSize>(numBins() + 1);
        cursors = AlignedArray<uint64_t, kPageSize>(numBins());
        uint64_t run = 0;
        for (uint32_t b = 0; b < numBins(); ++b) {
            run = padStart(run);
            starts[b] = cursors[b] = run;
            run += final_counts[b];
        }
        starts[numBins()] = run;
        data = AlignedArray<Tuple, kPageSize>(run);
    }

    // All four arrays are fed to ExecCtx::load/store, so they are page-
    // aligned: their in-page layout (hence their simulated cache
    // behavior under the hierarchy's page renaming) is independent of
    // the host allocator. See kPageSize in src/mem/types.h.
    BinningPlan plan;
    bool alignBins = false; ///< line-align bin starts (WC engines)
    AlignedArray<uint32_t, kPageSize> counts; ///< 4B counters (compact)
    AlignedArray<uint64_t, kPageSize> starts; ///< per-bin offsets (+ total)
    AlignedArray<uint64_t, kPageSize> cursors; ///< BinOffset array
    AlignedArray<Tuple, kPageSize> data;
    // Overflow region: never touched on sane runs (kept off the page-
    // aligned replayed arrays; overflow traffic is not simulated).
    std::vector<Tuple> overflowData;
    std::vector<OverflowRun> overflowRuns;
    uint64_t overflowCount = 0;
    bool finalized = false;
    bool preallocated = false;
};

} // namespace cobra

#endif // COBRA_PB_BIN_STORAGE_H
