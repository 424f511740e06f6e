/**
 * @file
 * Two-pass software radix partitioning.
 *
 * PB is an instance of radix partitioning (paper footnote 2), and the
 * partitioning literature the paper cites ([54], [65]) resolves the
 * fan-out-vs-locality tension in *software* with multiple passes: a
 * first pass scatters tuples into a small number of coarse bins (whose
 * coalescing buffers fit in the upper caches), then a second pass
 * re-partitions each coarse bin into its fine bins — achieving a large
 * final fan-out while every pass runs with a cache-friendly buffer set
 * (pass 2 only touches the fine buffers of one coarse range at a time).
 *
 * The price is moving every tuple twice through memory. COBRA reaches
 * the same fine fan-out moving each tuple once (through the C-Buffer
 * hierarchy) — the comparison bench_ablation_two_pass.cc draws.
 *
 * Same Init / insert / flush / forEachInBin surface as PbBinner, at
 * fine-bin granularity.
 */

#ifndef COBRA_PB_TWO_PASS_BINNER_H
#define COBRA_PB_TWO_PASS_BINNER_H

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/pb/pb_binner.h"
#include "src/util/bitops.h"

namespace cobra {

/** Two-pass radix partitioner with a PbBinner-compatible surface. */
template <typename Payload>
class TwoPassBinner
{
  public:
    using Tuple = BinTuple<Payload>;
    static constexpr uint32_t kTuplesPerBuffer =
        PbBinner<Payload>::kTuplesPerBuffer;

    /**
     * @param fine_plan the final (fine) partition
     * @param coarse_bins first-pass fan-out (default ~sqrt(fine), the
     *        classic multi-pass choice)
     */
    explicit TwoPassBinner(const BinningPlan &fine_plan,
                           uint32_t coarse_bins = 0)
        : finePlan(fine_plan),
          coarse(BinningPlan::forMaxBins(
              fine_plan.numIndices,
              coarse_bins
                  ? coarse_bins
                  : static_cast<uint32_t>(ceilPow2(static_cast<uint64_t>(
                        std::max(1.0, std::sqrt(static_cast<double>(
                                          fine_plan.numBins)))))))),
          fineStore(fine_plan),
          fineBufs(size_t{fine_plan.numBins} * kTuplesPerBuffer),
          fineCounts(fine_plan.numBins)
    {
    }

    const BinningPlan &plan() const { return finePlan; }
    uint32_t numBins() const { return finePlan.numBins; }
    uint32_t numCoarseBins() const { return coarse.numBins(); }
    BinStorage<Payload> &storage() { return fineStore; }

    /** Init: one streaming pass counts both partitions. */
    void
    initCount(ExecCtx &ctx, uint32_t index)
    {
        coarse.initCount(ctx, index);
        fineStore.countInsert(ctx, index);
    }

    void
    finalizeInit(ExecCtx &ctx)
    {
        coarse.finalizeInit(ctx);
        fineStore.finalizeInit(ctx);
    }

    /** Pass 1: insert into the coarse partition. */
    void
    insert(ExecCtx &ctx, uint32_t index, const Payload &payload)
    {
        coarse.insert(ctx, index, payload);
    }

    /**
     * Flush pass 1, then run pass 2: stream each coarse bin and
     * re-partition its tuples into the fine bins. After this,
     * forEachInBin serves fine bins.
     */
    void
    flush(ExecCtx &ctx)
    {
        coarse.flush(ctx);
        for (uint32_t cb = 0; cb < coarse.numBins(); ++cb) {
            coarse.forEachInBin(ctx, cb, [&](const Tuple &t) {
                insertFine(ctx, t);
            });
        }
        // Flush partial fine buffers.
        for (uint32_t b = 0; b < finePlan.numBins; ++b) {
            ctx.load(&fineCounts[b], sizeof(uint32_t));
            ctx.branch(branch_site::kPbFlushLoop, fineCounts[b] != 0);
            if (fineCounts[b] != 0)
                drainFine(ctx, b);
        }
    }

    template <typename Fn>
    void
    forEachInBin(ExecCtx &ctx, uint32_t bin, Fn &&fn)
    {
        auto tuples = fineStore.bin(bin);
        for (const Tuple &t : tuples) {
            ctx.load(&t, sizeof(Tuple));
            ctx.instr(1);
            fn(t);
        }
        ctx.branch(branch_site::kAccumulateLoop, !tuples.empty());
    }

    uint64_t tuplesBinned() const { return fineStore.totalTuples(); }

  private:
    /** Pass-2 insert: identical cost structure to PbBinner::insert. */
    void
    insertFine(ExecCtx &ctx, const Tuple &t)
    {
        const uint32_t b = finePlan.binOf(t.index);
        ctx.instr(2);
        uint32_t &cnt = fineCounts[b];
        ctx.load(&cnt, sizeof(cnt));
        Tuple *buf = &fineBufs[size_t{b} * kTuplesPerBuffer];
        buf[cnt] = t;
        ctx.store(&buf[cnt], sizeof(Tuple));
        ++cnt;
        ctx.instr(1);
        ctx.store(&cnt, sizeof(cnt));
        const bool full = cnt == kTuplesPerBuffer;
        ctx.branch(branch_site::kPbBufferFull, full);
        if (full)
            drainFine(ctx, b);
    }

    void
    drainFine(ExecCtx &ctx, uint32_t b)
    {
        const uint32_t n = fineCounts[b];
        const Tuple *src = &fineBufs[size_t{b} * kTuplesPerBuffer];
        Tuple *dst = fineStore.appendRaw(b, n);
        std::memcpy(dst, src, n * sizeof(Tuple));
        ctx.instr(2);
        ctx.load(fineStore.cursorAddr(b), 8);
        ctx.store(fineStore.cursorAddr(b), 8);
        ctx.ntStore(dst, n * static_cast<uint32_t>(sizeof(Tuple)));
        fineCounts[b] = 0;
        ctx.store(&fineCounts[b], sizeof(uint32_t));
    }

    BinningPlan finePlan;
    PbBinner<Payload> coarse;
    BinStorage<Payload> fineStore;
    AlignedArray<Tuple> fineBufs;
    AlignedArray<uint32_t> fineCounts;
};

} // namespace cobra

#endif // COBRA_PB_TWO_PASS_BINNER_H
