/**
 * @file
 * Software C-Buffers: the native write-combining Binning engine for
 * the host-parallel PB runtime.
 *
 * COBRA removes two software-PB costs in hardware (paper Sections III-C,
 * IV): the per-tuple instruction/branch overhead of C-Buffer
 * bookkeeping, and the bin-count compromise (few big bins starve
 * Accumulate locality; many small bins thrash the Binning working set).
 * WcBinner ("wc") is the closest software gets to the first: one
 * 64B-aligned staging line per bin (wcLines deep), drained only as full
 * aligned non-temporal bursts (streamLine64) into line-aligned bins —
 * the software analogue of a C-Buffer evicting a complete line. Partial
 * lines exist only at the end-of-phase flush.
 *
 * The engine preserves intra-bin tuple order (the paper's generality
 * claim: non-commutative kernels like Neighbor-Populate must see bins
 * as order-preserving queues), produces bit-identical per-bin sequences
 * to the flat scalar PbBinner (tests/test_wc_binning.cc pins this), and
 * threads the same FaultInjector drain sites so the differential oracle
 * and conservation checks cover the native hot path.
 *
 * WcBinner is native-only: it accepts an ExecCtx purely for
 * interface compatibility with PbBinner and never reports through it —
 * the simulated pipeline keeps using PbBinner, whose counted costs are
 * the paper's software-PB baseline.
 */

#ifndef COBRA_PB_WC_ENGINE_H
#define COBRA_PB_WC_ENGINE_H

#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pb/bin_storage.h"
#include "src/pb/engine_config.h"
#include "src/util/aligned_array.h"
#include "src/util/stream_copy.h"

namespace cobra {

namespace wc_detail {

/**
 * Stream @p n tuples from a staging buffer to @p dst: full-line aligned
 * NT bursts when geometry allows, streamCopy otherwise (ragged flush
 * tails, or cursors knocked off alignment by an injected fault).
 */
template <typename Tuple>
inline void
streamTuples(Tuple *dst, const Tuple *src, uint32_t n)
{
    const size_t bytes = static_cast<size_t>(n) * sizeof(Tuple);
    if (bytes % kLineSize == 0 &&
        (reinterpret_cast<uintptr_t>(dst) & (kLineSize - 1)) == 0) {
        auto *d = reinterpret_cast<unsigned char *>(dst);
        auto *s = reinterpret_cast<const unsigned char *>(src);
        for (size_t off = 0; off < bytes; off += kLineSize)
            streamLine64(d + off, s + off);
    } else {
        streamCopy(dst, src, bytes);
    }
}

/**
 * The PbBinner drain-path injection sites, verbatim, so PR 2's mutation
 * matrix covers the WC engines too. Returns the (possibly truncated)
 * tuple count to actually drain; ~0u means the drain was dropped.
 */
template <typename Tuple, typename Payload>
inline uint32_t
injectDrainFaults(BinStorage<Payload> &store, uint32_t b, Tuple *src,
                  uint32_t n)
{
    // Per-drain cancellation checkpoint (same cold-path discipline as
    // the fault hooks themselves).
    cancellationPoint();
    if (auto *fi = FaultInjector::active(); fi) [[unlikely]] {
        if (fi->fire(FaultSite::kPbStallBinning, b))
            fi->stall();
        if (fi->fire(FaultSite::kPbDelayDrain, b))
            fi->delay();
        Tuple &t0 = src[0];
        if (fi->fire(FaultSite::kPbCorruptIndex, b))
            t0.index = fi->corruptIndex(t0.index);
        if (fi->fire(FaultSite::kPbCorruptPayload, b))
            fi->corruptBytes(reinterpret_cast<uint8_t *>(&t0) +
                                 sizeof(t0.index),
                             sizeof(Tuple) - sizeof(t0.index));
        if (fi->fire(FaultSite::kPbDropDrain, b))
            return ~0u;
        if (fi->fire(FaultSite::kPbDuplicateDrain, b)) {
            Tuple *extra = store.appendRaw(b, n);
            std::memcpy(extra, src, n * sizeof(Tuple));
        }
        if (n > 1 && fi->fire(FaultSite::kPbTruncateDrain, b))
            --n;
    }
    return n;
}

/** Accumulate-phase streaming of one line-aligned bin. */
template <typename Payload, typename Fn>
inline void
forEachInBinNative(const BinStorage<Payload> &store, uint32_t bin,
                   Fn &&fn)
{
    using Tuple = BinTuple<Payload>;
    // Per-bin cancellation checkpoint + stall site (cold relative to
    // the tuple stream below).
    cancellationPoint();
    if (auto *fi = FaultInjector::active(); fi) [[unlikely]]
        if (fi->fire(FaultSite::kPbStallAccumulate, bin))
            fi->stall();
    auto tuples = store.bin(bin);
    constexpr size_t kTuplesPerLine = kLineSize / sizeof(Tuple);
    constexpr size_t kPrefetchAhead = 4 * kTuplesPerLine;
    const size_t n = tuples.size();
    for (size_t i = 0; i < n; ++i) {
        if (i % kTuplesPerLine == 0 && i + kPrefetchAhead < n)
            __builtin_prefetch(&tuples[i + kPrefetchAhead], 0, 0);
        fn(tuples[i]);
    }
    if (store.hasOverflow()) [[unlikely]]
        store.forEachOverflowInBin(bin, fn);
}

/**
 * Publish one shard's drain-burst tallies at flush time (cold path —
 * once per Binning phase per thread). Hot drain loops only bump plain
 * local members; nothing else runs when observability is disabled.
 */
inline void
reportDrains(const char *engine, uint64_t bursts, uint64_t tuples)
{
    if (MetricsRegistry *reg = MetricsRegistry::active()) {
        reg->counter(std::string("pb.") + engine + ".drain_bursts")
            ->add(bursts);
        reg->counter(std::string("pb.") + engine + ".drain_tuples")
            ->add(tuples);
    }
    if (TraceSession *ts = TraceSession::active())
        ts->instant(std::string(engine) + ".drain", "pb",
                    {{"bursts", bursts}, {"tuples", tuples}});
}

} // namespace wc_detail

/**
 * Flat write-combining binner (engine kind kWriteCombine). Drop-in
 * replacement for PbBinner inside ParallelPbRunner — same phase
 * methods, same BinStorage conservation accounting — minus the
 * per-tuple ExecCtx bookkeeping.
 */
template <typename Payload>
class WcBinner
{
  public:
    using Tuple = BinTuple<Payload>;
    static constexpr uint32_t kTuplesPerLine =
        kLineSize / static_cast<uint32_t>(sizeof(Tuple));

    WcBinner(const BinningPlan &plan, const PbEngineConfig &cfg)
        : store(plan, /*align_bins=*/true),
          bufTuples(cfg.wcLines * kTuplesPerLine),
          bufs(alignedAlloc<Tuple>(static_cast<size_t>(plan.numBins) *
                                   bufTuples)),
          counts(plan.numBins)
    {
        COBRA_FATAL_IF(cfg.wcLines == 0 || cfg.wcLines > 8,
                       "WC depth must be 1..8 staging lines");
    }

    BinStorage<Payload> &storage() { return store; }
    const BinningPlan &plan() const { return store.binningPlan(); }
    uint32_t numBins() const { return store.numBins(); }
    uint64_t tuplesBinned() const { return store.totalTuples(); }

    /** Bytes of staging + counter state (the Binning working set). */
    uint64_t
    cbufFootprintBytes() const
    {
        return static_cast<uint64_t>(numBins()) *
            (static_cast<uint64_t>(bufTuples) * sizeof(Tuple) +
             sizeof(uint32_t));
    }

    void initCount(ExecCtx &ctx, uint32_t index)
    {
        store.countInsert(ctx, index);
    }

    void finalizeInit(ExecCtx &ctx) { store.finalizeInit(ctx); }

    void
    insert(ExecCtx &, uint32_t index, const Payload &payload)
    {
        const uint32_t b = plan().binOf(index);
        uint32_t &cnt = counts[b];
        Tuple *buf = bufs.get() + static_cast<size_t>(b) * bufTuples;
        buf[cnt] = makeTuple<Payload>(index, payload);
        if (++cnt == bufTuples)
            drain(b, bufTuples);
    }

    void
    flush(ExecCtx &)
    {
        for (uint32_t b = 0; b < numBins(); ++b)
            if (counts[b] != 0)
                drain(b, counts[b]);
        streamFence(); // NT drains precede the Binning/Accumulate barrier
        wc_detail::reportDrains("wc", drainBursts, tuplesBinned());
    }

    template <typename Fn>
    void
    forEachInBin(ExecCtx &, uint32_t bin, Fn &&fn)
    {
        wc_detail::forEachInBinNative(store, bin, fn);
    }

  private:
    void
    drain(uint32_t b, uint32_t n)
    {
        ++drainBursts;
        Tuple *src = bufs.get() + static_cast<size_t>(b) * bufTuples;
        n = wc_detail::injectDrainFaults(store, b, src, n);
        if (n == ~0u) [[unlikely]] { // injected drop
            counts[b] = 0;
            return;
        }
        Tuple *dst = store.appendRaw(b, n);
        wc_detail::streamTuples(dst, src, n);
        counts[b] = 0;
    }

    BinStorage<Payload> store;
    const uint32_t bufTuples; ///< staging tuples per bin (wcLines deep)
    AlignedBuffer<Tuple> bufs;         ///< numBins aligned staging buffers
    AlignedArray<uint32_t, kPageSize> counts; ///< staging occupancy
    uint64_t drainBursts = 0; ///< NT drain bursts (reported at flush)
};

} // namespace cobra

#endif // COBRA_PB_WC_ENGINE_H
