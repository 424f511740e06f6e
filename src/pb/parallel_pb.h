/**
 * @file
 * Native host-parallel software PB runtime (paper Algorithm 2, Section
 * III-A — the real-machine half of the methodology).
 *
 * Parallel PB needs no synchronization inside either hot phase:
 *
 *  - Binning: the update stream is sharded contiguously, one shard per
 *    pool thread, and every thread owns a private binner (bins +
 *    C-Buffers), so threads never write shared state. C-Buffer drains use
 *    real non-temporal stores (see stream_copy.h) followed by one fence
 *    at the phase barrier.
 *  - Accumulate: bins are partitioned contiguously across threads. A bin
 *    covers a disjoint index range, so the thread that owns bin b applies
 *    tuples from *every* thread's copy of bin b without racing any other
 *    thread — the apply callback may freely mutate the indexed data.
 *
 * The Binning engine is selectable per run (PbEngineConfig): the
 * instruction-faithful scalar PbBinner (also the simulator's model) or
 * the software C-Buffer engine of wc_engine.h (write-combining). Both
 * produce identical per-bin tuple sequences, so kernels and the
 * differential oracle are engine-agnostic.
 *
 * Skew adaptation (PbEngineConfig::skewAdaptive): the static contiguous
 * Accumulate split is optimal for even bin occupancy but its finish
 * line is the fattest range under power-law streams. The adaptive
 * scheduler measures occupancy at the Init barrier (SkewSketch — free,
 * Init already counted every tuple), builds occupancy-balanced bin
 * chunks plus privatized sub-range splits of the hottest bins, and
 * drains them through a work-stealing queue (steal_queue.h).
 * Determinism contract: which worker runs an item is schedule-
 * dependent, but items are disjoint bins (any kernel) or fixed-count
 * sub-ranges merged in fixed order (commutative kernels only), so
 * results are bit-identical for every host thread count.
 *
 * The phase barrier between Binning and Accumulate is the pool's wait();
 * the PhaseRecorder brackets give the same Init/Binning/Accumulate
 * structure as the sequential pipeline (runPbPipeline), so Table-I-style
 * phase breakdowns work for threaded runs too.
 */

#ifndef COBRA_PB_PARALLEL_PB_H
#define COBRA_PB_PARALLEL_PB_H

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pb/engine_config.h"
#include "src/pb/pb_binner.h"
#include "src/pb/skew_sketch.h"
#include "src/pb/steal_queue.h"
#include "src/pb/wc_engine.h"
#include "src/resilience/cancel.h"
#include "src/sim/phase_recorder.h"
#include "src/util/thread_pool.h"

namespace cobra {

/**
 * Runs the three PB phases for one kernel execution on a ThreadPool.
 *
 * The caller describes its update stream positionally:
 *   index_of(i)  -> uint32_t                     (Init counting pass)
 *   update_of(i) -> std::pair<uint32_t, Payload> (Binning pass)
 *   apply(tuple)                                 (Accumulate pass)
 * apply() runs concurrently on different threads but only ever for
 * disjoint bins (disjoint index ranges); index_of/update_of must be
 * safe to call concurrently for disjoint i (pure reads qualify).
 *
 * Commutative kernels may additionally pass privatized-reduction ops
 * (the run<Slot>(...) overload), enabling hot-bin splitting under
 * skewAdaptive:
 *   apply_priv(tuple, slot)  accumulate one tuple into a private Slot
 *                            (slot belongs to tuple.index; Slot must
 *                            value-initialize to the reduction identity)
 *   merge(index, slot)       fold one private Slot into the real data;
 *                            called exactly hotSubRanges times per index
 *                            of a split bin, in fixed sub-range order,
 *                            race-free (one thread per bin).
 */
template <typename Payload>
class ParallelPbRunner
{
  public:
    using Tuple = BinTuple<Payload>;

    /**
     * Tuples processed between cancellation checkpoints inside the Init
     * and Binning shard loops. Large enough that the disarmed check
     * (one null load per block) vanishes against thousands of tuple
     * inserts; small enough that a Watchdog-tripped run unwinds within
     * tens of microseconds of work, not a whole shard.
     */
    static constexpr size_t kCancelBlockTuples = 8192;

    /** Hot bins below this population are never worth splitting. */
    static constexpr uint64_t kMinHotTuples = 1024;

    ParallelPbRunner(ThreadPool &pool, const BinningPlan &plan,
                     const PbEngineConfig &engine = {})
        : pool_(pool), plan_(plan), engine_(engine)
    {
    }

    const BinningPlan &plan() const { return plan_; }
    const PbEngineConfig &engine() const { return engine_; }

    /** Shards (== per-thread binners) used by the last run(). */
    size_t shards() const { return shards_; }

    /** Tuples binned across all shards in the last run(). */
    uint64_t tuplesBinned() const { return binned_; }

    /** Tuples that spilled past their planned bin in the last run(). */
    uint64_t overflowTuples() const { return overflow_; }

    /** Cross-slice work-queue claims in the last adaptive Accumulate. */
    uint64_t accumulateSteals() const { return steals_; }

    /** Occupancy sketch of the last run (empty unless computed). */
    const SkewSketch &skewSketch() const { return sketch_; }

    /**
     * Conservation verdict of the last run(): every emitted update must
     * be binned exactly once and no bin may have overflowed. A dropped,
     * replayed, or truncated C-Buffer drain in any shard trips this.
     */
    Status conservation() const { return conservation_; }

    template <typename IndexOf, typename UpdateOf, typename Apply>
    void
    run(size_t num_updates, PhaseRecorder &rec, IndexOf &&index_of,
        UpdateOf &&update_of, Apply &&apply)
    {
        struct NoSlot
        {
        };
        runDispatch<NoSlot>(
            num_updates, rec, index_of, update_of, apply,
            [](const Tuple &, NoSlot &) {}, [](uint32_t, const NoSlot &) {},
            /*commutative=*/false);
    }

    template <typename Slot, typename IndexOf, typename UpdateOf,
              typename Apply, typename ApplyPriv, typename Merge>
    void
    run(size_t num_updates, PhaseRecorder &rec, IndexOf &&index_of,
        UpdateOf &&update_of, Apply &&apply, ApplyPriv &&apply_priv,
        Merge &&merge)
    {
        runDispatch<Slot>(num_updates, rec, index_of, update_of, apply,
                          apply_priv, merge, /*commutative=*/true);
    }

    /**
     * Pull-mode Accumulate (PbDirection::kPull): no binners, no Init,
     * no Binning. Destination ranges are sharded contiguously across
     * pool threads and each owner *gathers* its updates from the
     * kernel's destination-indexed view (a CSC/transposed structure or
     * a filtered stream scan) instead of draining bins. The empty
     * Init/Binning brackets are recorded anyway so per-phase consumers
     * (bench JSON, cobra_cli phase lines, SupervisorReport) see the
     * same three-phase structure with the first two at zero cost —
     * that zero *is* the measurement.
     *
     * pull_range(destBegin, destEnd) must apply every update whose
     * destination lies in [destBegin, destEnd) in global stream order
     * and return how many it applied. Because the push path also
     * applies each destination's updates in stream order (bins are
     * drained shard 0..n-1, shards are contiguous stream slices), pull
     * results are bit-identical to push+binning at every thread count.
     *
     * Resilience parity with push: cancellation checkpoints every
     * ~kCancelBlockTuples gathered updates, kPbStallAccumulate /
     * kPbDropDrain / kBinOffsetSkew fault sites at block granularity
     * (drop skips a block, skew shifts a block's start by
     * skewAmount() destinations), and conservation at the barrier —
     * the applied total must equal the emitted update count.
     */
    template <typename PullRange>
    void
    runPull(size_t num_updates, PhaseRecorder &rec,
            PullRange &&pull_range)
    {
        ExecCtx native; // uninstrumented: full host speed
        TraceSpan span("pb.run", "pb");
        span.arg("engine", static_cast<uint64_t>(engine_.kind));
        span.arg("bins", plan_.numBins);
        span.arg("updates", num_updates);
        span.arg("pull", 1);

        rec.begin(native, phase::kInit);
        rec.end(native);
        rec.begin(native, phase::kBinning);
        rec.end(native);

        const uint64_t nidx = plan_.numIndices;
        const size_t nshards = std::max<size_t>(
            1, std::min<uint64_t>(pool_.numThreads(),
                                  nidx ? nidx : uint64_t{1}));
        const uint64_t chunk = nidx ? (nidx + nshards - 1) / nshards : 0;
        // Checkpoint granularity: one block covers ~kCancelBlockTuples
        // updates at mean density, so a watchdog-tripped run unwinds on
        // the same time scale as the push loops. nidx <= 2^31 keeps the
        // product far from overflow.
        uint64_t block = chunk;
        if (num_updates > 0 && nidx > 0)
            block = std::max<uint64_t>(
                1, std::min(chunk, nidx * kCancelBlockTuples /
                                       num_updates));

        shards_ = nshards;
        binned_ = 0;
        overflow_ = 0;
        steals_ = 0;
        sketch_ = SkewSketch{};

        std::atomic<uint64_t> applied{0};
        rec.begin(native, phase::kAccumulate);
        for (size_t t = 0; t < nshards; ++t) {
            pool_.enqueue([this, t, chunk, block, nidx, &applied,
                           &pull_range] {
                TraceSpan sp("accumulate.pull", "pb");
                sp.arg("shard", t);
                cancellationPoint(); // queued tasks drop out fast
                const uint64_t begin = t * chunk;
                const uint64_t end = std::min(nidx, begin + chunk);
                uint64_t local = 0;
                for (uint64_t lo = begin; lo < end; lo += block) {
                    const uint64_t hi = std::min(end, lo + block);
                    uint64_t alo = lo;
                    if (auto *fi = FaultInjector::active(); fi)
                        [[unlikely]] {
                        const uint32_t blk =
                            static_cast<uint32_t>(lo / block);
                        if (fi->fire(FaultSite::kPbStallAccumulate,
                                     blk))
                            fi->stall();
                        if (fi->fire(FaultSite::kPbDropDrain, blk))
                            continue; // dropped gather block
                        if (fi->fire(FaultSite::kBinOffsetSkew, blk))
                            alo = std::min(hi, lo + fi->skewAmount());
                    }
                    local += pull_range(alo, hi);
                    cancellationPoint();
                }
                applied.fetch_add(local, std::memory_order_relaxed);
                sp.arg("indices", end > begin ? end - begin : 0);
            });
        }
        pool_.wait();
        rec.end(native);

        binned_ = applied.load(std::memory_order_relaxed);
        if (MetricsRegistry *reg = MetricsRegistry::active()) {
            reg->counter("pb.parallel.runs")->inc();
            reg->counter("pb.pull.runs")->inc();
            reg->counter("pb.parallel.tuples_binned")->add(binned_);
            reg->gauge("pb.parallel.shards")
                ->set(static_cast<int64_t>(nshards));
        }
        if (binned_ != num_updates) {
            std::ostringstream oss;
            oss << "pull accumulate applied " << binned_ << " of "
                << num_updates << " updates";
            conservation_ = Status(ErrorCode::kDataLoss, oss.str());
            warn(conservation_.message());
        } else {
            conservation_ = Status::Ok();
        }
    }

  private:
    template <typename Slot, typename IndexOf, typename UpdateOf,
              typename Apply, typename ApplyPriv, typename Merge>
    void
    runDispatch(size_t num_updates, PhaseRecorder &rec,
                IndexOf &&index_of, UpdateOf &&update_of, Apply &&apply,
                ApplyPriv &&apply_priv, Merge &&merge, bool commutative)
    {
        // One umbrella span per run (main thread); the per-phase spans
        // come from the PhaseRecorder brackets and the per-thread
        // shard spans from inside the pool tasks below.
        TraceSpan span("pb.run", "pb");
        span.arg("engine", static_cast<uint64_t>(engine_.kind));
        span.arg("bins", plan_.numBins);
        span.arg("updates", num_updates);
        switch (engine_.kind) {
        case PbEngineKind::kScalar:
            runImpl<PbBinner<Payload>, Slot>(num_updates, rec, index_of,
                                             update_of, apply, apply_priv,
                                             merge, commutative);
            break;
        case PbEngineKind::kWriteCombine:
            runImpl<WcBinner<Payload>, Slot>(num_updates, rec, index_of,
                                             update_of, apply, apply_priv,
                                             merge, commutative);
            break;
        }
    }

    template <typename Binner>
    std::unique_ptr<Binner>
    makeBinner() const
    {
        if constexpr (std::is_same_v<Binner, PbBinner<Payload>>)
            return std::make_unique<Binner>(plan_);
        else
            return std::make_unique<Binner>(plan_, engine_);
    }

    template <typename Binner, typename Slot, typename IndexOf,
              typename UpdateOf, typename Apply, typename ApplyPriv,
              typename Merge>
    void
    runImpl(size_t num_updates, PhaseRecorder &rec, IndexOf &&index_of,
            UpdateOf &&update_of, Apply &&apply, ApplyPriv &&apply_priv,
            Merge &&merge, bool commutative)
    {
        ExecCtx native; // uninstrumented: full host speed
        const size_t nshards =
            std::max<size_t>(1, std::min(pool_.numThreads(), num_updates));
        const size_t chunk = (num_updates + nshards - 1) / nshards;

        // Binners live only for the duration of one run; the runner
        // caches the cross-run-visible stats at the phase barriers so
        // accessors stay valid after the storage is released.
        std::vector<std::unique_ptr<Binner>> binners(nshards);

        // Init: per-thread counting of its own shard, then per-binner
        // prefix sums — each thread sizes exactly the bins it will fill.
        rec.begin(native, phase::kInit);
        for (size_t t = 0; t < nshards; ++t) {
            pool_.enqueue([this, t, chunk, num_updates, &binners,
                           &index_of] {
                TraceSpan sp("init", "pb");
                sp.arg("shard", t);
                cancellationPoint(); // queued tasks drop out fast
                ExecCtx ctx;
                auto bn = makeBinner<Binner>();
                const size_t begin = t * chunk;
                const size_t end = std::min(num_updates, begin + chunk);
                for (size_t blk = begin; blk < end;
                     blk += kCancelBlockTuples) {
                    const size_t bend =
                        std::min(end, blk + kCancelBlockTuples);
                    for (size_t i = blk; i < bend; ++i)
                        bn->initCount(ctx, index_of(i));
                    cancellationPoint();
                }
                bn->finalizeInit(ctx);
                binners[t] = std::move(bn);
            });
        }
        pool_.wait();

        // Skew sketch at the Init barrier: the counting pass already
        // established every shard's per-bin totals, so measuring the
        // occupancy distribution is a cold O(bins) reduction — nothing
        // is added to any hot loop. Computed when the adaptive
        // scheduler needs it or a registry wants the telemetry.
        const size_t nbins = plan_.numBins;
        std::vector<uint64_t> bin_totals;
        sketch_ = SkewSketch{};
        if (engine_.skewAdaptive || MetricsRegistry::active()) {
            bin_totals.assign(nbins, 0);
            for (const auto &bn : binners) {
                const uint32_t *c = bn->storage().initCounts();
                for (size_t b = 0; b < nbins; ++b)
                    bin_totals[b] += c[b];
            }
            sketch_ = SkewSketch::fromCounts(bin_totals, engine_.skewTopK);
            sketch_.publish();
        }
        rec.end(native);

        // Binning: synchronization-free, per-thread private binners.
        rec.begin(native, phase::kBinning);
        for (size_t t = 0; t < nshards; ++t) {
            pool_.enqueue([t, chunk, num_updates, &binners, &update_of] {
                TraceSpan sp("binning", "pb");
                sp.arg("shard", t);
                cancellationPoint();
                ExecCtx ctx;
                Binner &bn = *binners[t];
                const size_t begin = t * chunk;
                const size_t end = std::min(num_updates, begin + chunk);
                // Hot insert loop untouched: the checkpoint runs once
                // per kCancelBlockTuples block (plus once per C-Buffer
                // drain inside the engines).
                for (size_t blk = begin; blk < end;
                     blk += kCancelBlockTuples) {
                    const size_t bend =
                        std::min(end, blk + kCancelBlockTuples);
                    for (size_t i = blk; i < bend; ++i) {
                        std::pair<uint32_t, Payload> u = update_of(i);
                        bn.insert(ctx, u.first, u.second);
                    }
                    cancellationPoint();
                }
                bn.flush(ctx); // fences the NT drains
                sp.arg("tuples", end - begin);
            });
        }
        pool_.wait(); // Binning/Accumulate barrier
        rec.end(native);

        // Conservation check at the phase barrier: the multiset handed
        // to Accumulate must be exactly one tuple per emitted update.
        shards_ = nshards;
        binned_ = 0;
        overflow_ = 0;
        steals_ = 0;
        for (const auto &bn : binners) {
            binned_ += bn->tuplesBinned();
            overflow_ += bn->storage().overflowTuples();
        }
        if (MetricsRegistry *reg = MetricsRegistry::active()) {
            reg->counter("pb.parallel.runs")->inc();
            reg->counter("pb.parallel.tuples_binned")->add(binned_);
            reg->counter("pb.parallel.overflow_tuples")->add(overflow_);
            reg->gauge("pb.parallel.shards")
                ->set(static_cast<int64_t>(nshards));
        }
        if (binned_ != num_updates || overflow_ != 0) {
            std::ostringstream oss;
            oss << "parallel PB binned " << binned_ << " of "
                << num_updates << " updates (" << overflow_
                << " overflowed)";
            conservation_ = Status(ErrorCode::kDataLoss, oss.str());
            warn(conservation_.message());
        } else {
            conservation_ = Status::Ok();
        }

        // Accumulate: bins are applied by exactly one thread each.
        rec.begin(native, phase::kAccumulate);
        if (!engine_.skewAdaptive) {
            // Static contiguous bin ranges per thread; the owner of bin
            // b streams all threads' copies of b (Algorithm 2, lines
            // 6-11). The paper's layout, and the default.
            const size_t bshards = std::max<size_t>(
                1, std::min(pool_.numThreads(), nbins));
            const size_t bchunk = (nbins + bshards - 1) / bshards;
            for (size_t s = 0; s < bshards; ++s) {
                pool_.enqueue([s, bchunk, nbins, &binners, &apply] {
                    TraceSpan sp("accumulate", "pb");
                    sp.arg("shard", s);
                    cancellationPoint(); // + one per bin (forEachInBin)
                    ExecCtx ctx;
                    const size_t begin = s * bchunk;
                    const size_t end = std::min(nbins, begin + bchunk);
                    for (size_t b = begin; b < end; ++b)
                        for (auto &bn : binners)
                            bn->forEachInBin(ctx,
                                             static_cast<uint32_t>(b),
                                             apply);
                    sp.arg("bins", end - begin);
                });
            }
            pool_.wait();
        } else {
            adaptiveAccumulate<Binner, Slot>(binners, bin_totals, apply,
                                             apply_priv, merge,
                                             commutative);
        }
        rec.end(native);
    }

    /**
     * Skew-adaptive Accumulate: occupancy-balanced bin chunks plus
     * privatized sub-range splits of hot bins, drained via StealQueue.
     */
    template <typename Binner, typename Slot, typename Apply,
              typename ApplyPriv, typename Merge>
    void
    adaptiveAccumulate(std::vector<std::unique_ptr<Binner>> &binners,
                       const std::vector<uint64_t> &bin_totals,
                       Apply &&apply, ApplyPriv &&apply_priv,
                       Merge &&merge, bool commutative)
    {
        const size_t nbins = plan_.numBins;
        const size_t workers = std::max<size_t>(1, pool_.numThreads());
        const uint32_t nsub = std::max(2u, engine_.hotSubRanges);

        // Hot-bin selection: the sketch's heavy hitters that clear the
        // hotFactor threshold and are worth the privatization overhead.
        // Splitting reorders the reduction, so it is offered only to
        // kernels that declared commutative ops.
        struct HotBin
        {
            uint32_t bin = 0;
            uint64_t tuples = 0;
            uint64_t base = 0;     ///< first index of the bin
            uint64_t rangeLen = 0; ///< indices covered by the bin
            std::unique_ptr<Slot[]> slots; ///< nsub * rangeLen, identity
            std::atomic<uint32_t> remaining{0};
        };
        std::vector<std::unique_ptr<HotBin>> hot;
        std::vector<int32_t> hotIndexOfBin; // -1 = cold
        hotIndexOfBin.assign(nbins, -1);
        if (commutative) {
            for (const HeavyBin &h : sketch_.topK) {
                if (!sketch_.isHot(h.tuples, engine_.hotFactor) ||
                    h.tuples < kMinHotTuples)
                    continue;
                auto hb = std::make_unique<HotBin>();
                hb->bin = h.bin;
                hb->tuples = h.tuples;
                hb->base = plan_.binStartIndex(h.bin);
                hb->rangeLen =
                    std::min(plan_.numIndices, hb->base + plan_.binRange()) -
                    hb->base;
                hb->slots = std::unique_ptr<Slot[]>(
                    new Slot[size_t{nsub} * hb->rangeLen]());
                hb->remaining.store(nsub, std::memory_order_relaxed);
                hotIndexOfBin[h.bin] =
                    static_cast<int32_t>(hot.size());
                hot.push_back(std::move(hb));
            }
        }

        // Work items: cold chunks of consecutive bins sized to a tuple
        // target (so a chunk's cost, not its bin count, is even), and
        // nsub sub-range items per hot bin. Item layout depends only on
        // the counted totals — never on the schedule — so every
        // host thread count builds the identical item list.
        struct WorkItem
        {
            uint32_t beginBin = 0; ///< cold: [beginBin, endBin)
            uint32_t endBin = 0;
            int32_t hotIdx = -1; ///< >= 0: sub-range subIdx of hot bin
            uint32_t subIdx = 0;
        };
        const uint64_t total = sketch_.totalTuples;
        const uint64_t target_tuples =
            std::max<uint64_t>(1, total / (workers * 8));
        std::vector<WorkItem> items;
        uint32_t chunk_begin = 0;
        uint64_t chunk_tuples = 0;
        auto flush_chunk = [&](uint32_t end_bin) {
            if (chunk_begin < end_bin)
                items.push_back(WorkItem{chunk_begin, end_bin, -1, 0});
            chunk_begin = end_bin;
            chunk_tuples = 0;
        };
        for (uint32_t b = 0; b < nbins; ++b) {
            if (hotIndexOfBin[b] >= 0) {
                flush_chunk(b);
                chunk_begin = b + 1;
                for (uint32_t s = 0; s < nsub; ++s)
                    items.push_back(
                        WorkItem{b, b + 1, hotIndexOfBin[b], s});
                continue;
            }
            chunk_tuples += bin_totals[b];
            if (chunk_tuples >= target_tuples)
                flush_chunk(b + 1);
        }
        flush_chunk(static_cast<uint32_t>(nbins));

        StealQueue queue(items.size(), workers, pool_.nodeMap());

        // One claim loop per logical worker. Steals are traced
        // individually (cold by definition: a steal means the thief's
        // own slice ran dry), so chrome://tracing shows exactly which
        // items crossed slices.
        auto exec_hot = [&](const WorkItem &it) {
            HotBin &hb = *hot[static_cast<size_t>(it.hotIdx)];
            cancellationPoint();
            if (auto *fi = FaultInjector::active(); fi) [[unlikely]]
                if (fi->fire(FaultSite::kPbStallAccumulate, hb.bin))
                    fi->stall();
            // Sub-range [lo, hi) of the concatenated shard streams for
            // this bin, in shard order — the same global order the
            // static path applies. Bounds derive from counted totals,
            // so they are schedule-independent.
            const uint64_t lo = it.subIdx * hb.tuples / nsub;
            const uint64_t hi = (it.subIdx + 1) * hb.tuples / nsub;
            Slot *slots =
                hb.slots.get() + size_t{it.subIdx} * hb.rangeLen;
            uint64_t pos = 0;
            for (auto &bn : binners) {
                auto span = bn->storage().bin(hb.bin);
                const uint64_t n = span.size();
                if (pos + n > lo && pos < hi) {
                    const uint64_t from = lo > pos ? lo - pos : 0;
                    const uint64_t to = std::min<uint64_t>(n, hi - pos);
                    for (uint64_t i = from; i < to; ++i)
                        apply_priv(span[i],
                                   slots[span[i].index - hb.base]);
                }
                pos += n;
                if (pos >= hi)
                    break;
            }
            // Last finisher folds the privatized partials: fixed
            // sub-range order per index, so the merged result is
            // independent of which worker got here last.
            if (hb.remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                cancellationPoint();
                for (uint64_t i = 0; i < hb.rangeLen; ++i)
                    for (uint32_t s = 0; s < nsub; ++s)
                        merge(static_cast<uint32_t>(hb.base + i),
                              hb.slots[size_t{s} * hb.rangeLen + i]);
                // Overflow tuples (only present after an injected or
                // corrupted run — conservation already flagged it)
                // still reach the kernel so the oracle sees the full
                // multiset.
                for (auto &bn : binners)
                    if (bn->storage().hasOverflow()) [[unlikely]]
                        bn->storage().forEachOverflowInBin(hb.bin,
                                                           apply);
            }
        };
        auto exec_cold = [&](const WorkItem &it, ExecCtx &ctx) {
            for (uint32_t b = it.beginBin; b < it.endBin; ++b)
                for (auto &bn : binners)
                    bn->forEachInBin(ctx, b, apply);
        };
        for (size_t w = 0; w < workers; ++w) {
            pool_.enqueue([&, w] {
                TraceSpan sp("accumulate.adaptive", "pb");
                sp.arg("worker", w);
                cancellationPoint();
                ExecCtx ctx;
                size_t executed = 0;
                bool stolen = false;
                for (size_t idx; (idx = queue.claim(w, &stolen)) !=
                     StealQueue::kNone;) {
                    const WorkItem &it = items[idx];
                    if (stolen) {
                        TraceSpan st("accumulate.steal", "pb");
                        st.arg("item", idx);
                        st.arg("bin", it.beginBin);
                        if (it.hotIdx >= 0)
                            exec_hot(it);
                        else
                            exec_cold(it, ctx);
                    } else if (it.hotIdx >= 0) {
                        exec_hot(it);
                    } else {
                        exec_cold(it, ctx);
                    }
                    ++executed;
                }
                sp.arg("items", executed);
            });
        }
        pool_.wait();

        steals_ = queue.steals();
        if (MetricsRegistry *reg = MetricsRegistry::active()) {
            reg->counter("pb.accumulate.items")->add(items.size());
            reg->counter("pb.accumulate.steals")->add(steals_);
            reg->gauge("pb.accumulate.hot_bins")
                ->set(static_cast<int64_t>(hot.size()));
        }
    }

    ThreadPool &pool_;
    BinningPlan plan_;
    PbEngineConfig engine_;
    size_t shards_ = 0;
    uint64_t binned_ = 0;
    uint64_t overflow_ = 0;
    uint64_t steals_ = 0;
    SkewSketch sketch_;
    Status conservation_;
};

} // namespace cobra

#endif // COBRA_PB_PARALLEL_PB_H
