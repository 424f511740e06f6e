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
 *  - Accumulate: a bin covers a disjoint index range, so the worker
 *    that claims bin b applies tuples from *every* thread's copy of b
 *    (Algorithm 2, lines 6-11) without racing any other worker — the
 *    apply callback may freely mutate the indexed data. Bins are
 *    grouped into runs of consecutive bins holding about the same
 *    number of tuples (the Init counts give every bin's total for free)
 *    and drained through a work-stealing queue (steal_queue.h): each
 *    worker claims from its own slice first and steals only once that
 *    slice runs dry, so a power-law stream no longer ends the phase
 *    behind the owner of the fattest range.
 *
 * The Binning engine is selectable per run (PbEngineConfig): the
 * instruction-faithful scalar PbBinner (also the simulator's model) or
 * the software C-Buffer engine of wc_engine.h (write-combining). Both
 * produce identical per-bin tuple sequences, so kernels and the
 * differential oracle are engine-agnostic.
 *
 * Determinism contract: which worker applies a bin is schedule-
 * dependent, but every bin is applied whole, by one worker, in shard
 * order (shards are contiguous stream slices), so each index sees its
 * updates in global stream order. Results — float sums included — are
 * bit-identical at every host thread count and equal to the pull path
 * (runPull).
 *
 * The phase barrier between Binning and Accumulate is the pool's wait();
 * the PhaseRecorder brackets give the same Init/Binning/Accumulate
 * structure as the sequential pipeline (runPbPipeline), so Table-I-style
 * phase breakdowns work for threaded runs too.
 */

#ifndef COBRA_PB_PARALLEL_PB_H
#define COBRA_PB_PARALLEL_PB_H

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pb/engine_config.h"
#include "src/pb/pb_binner.h"
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

    /**
     * Accumulate work items per worker. More items level the finish
     * line under skew; fewer keep each worker's slice a long run of
     * consecutive bins. Independent of the schedule, so the item list
     * is a pure function of the Init counts.
     */
    static constexpr uint64_t kItemsPerWorker = 8;

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
        // One umbrella span per run (main thread); the per-phase spans
        // come from the PhaseRecorder brackets and the per-thread
        // shard spans from inside the pool tasks below.
        TraceSpan span("pb.run", "pb");
        span.arg("engine", static_cast<uint64_t>(engine_.kind));
        span.arg("bins", plan_.numBins);
        span.arg("updates", num_updates);
        switch (engine_.kind) {
        case PbEngineKind::kScalar:
            runImpl<PbBinner<Payload>>(num_updates, rec, index_of,
                                       update_of, apply);
            break;
        case PbEngineKind::kWriteCombine:
            runImpl<WcBinner<Payload>>(num_updates, rec, index_of,
                                       update_of, apply);
            break;
        }
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
    template <typename Binner>
    std::unique_ptr<Binner>
    makeBinner() const
    {
        if constexpr (std::is_same_v<Binner, PbBinner<Payload>>)
            return std::make_unique<Binner>(plan_);
        else
            return std::make_unique<Binner>(plan_, engine_);
    }

    template <typename Binner, typename IndexOf, typename UpdateOf,
              typename Apply>
    void
    runImpl(size_t num_updates, PhaseRecorder &rec, IndexOf &&index_of,
            UpdateOf &&update_of, Apply &&apply)
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

        // Per-bin totals at the Init barrier: the counting pass already
        // sized every shard's bins, so the Accumulate work list costs a
        // cold O(bins x shards) reduction and nothing in any hot loop.
        const size_t nbins = plan_.numBins;
        std::vector<uint64_t> bin_totals(nbins, 0);
        for (const auto &bn : binners) {
            const uint32_t *c = bn->storage().initCounts();
            for (size_t b = 0; b < nbins; ++b)
                bin_totals[b] += c[b];
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
        accumulate(binners, bin_totals, apply);
        rec.end(native);
    }

    /**
     * Occupancy-balanced runs of whole bins, drained via StealQueue.
     * Item boundaries depend only on the counted totals, never on the
     * schedule, and each item applies its bins in ascending order with
     * every bin's shard copies in shard order.
     */
    template <typename Binner, typename Apply>
    void
    accumulate(std::vector<std::unique_ptr<Binner>> &binners,
               const std::vector<uint64_t> &bin_totals, Apply &&apply)
    {
        struct Chunk
        {
            uint32_t beginBin = 0; ///< bins [beginBin, endBin)
            uint32_t endBin = 0;
        };
        const size_t nbins = bin_totals.size();
        const size_t workers = std::max<size_t>(1, pool_.numThreads());
        uint64_t total_tuples = 0;
        for (uint64_t c : bin_totals)
            total_tuples += c;
        const uint64_t target_tuples = std::max<uint64_t>(
            1, total_tuples / (workers * kItemsPerWorker));
        std::vector<Chunk> items;
        uint32_t chunk_begin = 0;
        uint64_t chunk_tuples = 0;
        for (uint32_t b = 0; b < nbins; ++b) {
            chunk_tuples += bin_totals[b];
            if (chunk_tuples >= target_tuples || b + 1 == nbins) {
                items.push_back(Chunk{chunk_begin, b + 1});
                chunk_begin = b + 1;
                chunk_tuples = 0;
            }
        }

        const size_t claimers = std::max<size_t>(
            1, std::min(workers, items.size()));
        StealQueue queue(items.size(), claimers);
        for (size_t w = 0; w < claimers; ++w) {
            pool_.enqueue([&, w] {
                TraceSpan sp("accumulate", "pb");
                sp.arg("shard", w);
                cancellationPoint(); // + one per bin (forEachInBin)
                ExecCtx ctx;
                auto apply_chunk = [&](const Chunk &c) {
                    for (uint32_t b = c.beginBin; b < c.endBin; ++b)
                        for (auto &bn : binners)
                            bn->forEachInBin(ctx, b, apply);
                };
                size_t executed = 0;
                bool stolen = false;
                for (size_t idx; (idx = queue.claim(w, &stolen)) !=
                     StealQueue::kNone;
                     ++executed) {
                    if (!stolen) {
                        apply_chunk(items[idx]);
                        continue;
                    }
                    // Steals are traced one by one (cold by definition:
                    // the thief's own slice ran dry), so a trace shows
                    // exactly which items crossed slices.
                    TraceSpan st("accumulate.steal", "pb");
                    st.arg("item", idx);
                    st.arg("bin", items[idx].beginBin);
                    apply_chunk(items[idx]);
                }
                sp.arg("items", executed);
            });
        }
        pool_.wait();

        if (MetricsRegistry *reg = MetricsRegistry::active()) {
            reg->counter("pb.accumulate.items")->add(items.size());
            reg->counter("pb.accumulate.steals")->add(queue.steals());
        }
    }

    ThreadPool &pool_;
    BinningPlan plan_;
    PbEngineConfig engine_;
    size_t shards_ = 0;
    uint64_t binned_ = 0;
    uint64_t overflow_ = 0;
    Status conservation_;
};

} // namespace cobra

#endif // COBRA_PB_PARALLEL_PB_H
