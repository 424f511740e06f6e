/**
 * @file
 * Chunked work-queue with work-stealing for the Accumulate phase.
 *
 * A static split that hands each thread one contiguous bin range ends
 * the phase when the owner of the fattest range finishes, with every
 * other thread idle. The scheduler in parallel_pb.h instead builds an
 * array of work items (runs of consecutive bins holding about the same
 * number of tuples) that workers claim one at a time:
 *
 *  - every worker owns a contiguous slice of the item array and drains
 *    it through a private atomic cursor (the common, contention-free
 *    path — the same bin locality as a static split);
 *  - a worker whose slice runs dry *steals*: it claims from the other
 *    workers' cursors in ring order, starting at its right neighbour.
 *
 * Claiming from one's own slice first is what pays: a single shared
 * cursor handing out the same items measured no faster than the static
 * split (EXPERIMENTS.md, "Skew sweep").
 *
 * Correctness is by construction: every item index is handed out by
 * exactly one fetch_add on exactly one cursor, so each item is executed
 * exactly once no matter how claims interleave (the work-conservation
 * property test_skew_adaptive.cc checks under TSan). Which worker runs
 * an item is schedule-dependent; items are whole bins, so this never
 * affects results (see parallel_pb.h).
 *
 * Forward progress: claims are wait-free (one fetch_add per attempt,
 * no CAS retry loops), so a worker can lose the race for a given item
 * but never for *all* items — some worker always advances. The
 * pb-steal-starve fault site makes that guarantee testable: a fired
 * injector forces the claiming worker to repeatedly "lose" (yield)
 * before its steal, and the run must still complete within its
 * deadline.
 */

#ifndef COBRA_PB_STEAL_QUEUE_H
#define COBRA_PB_STEAL_QUEUE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "src/check/fault_injector.h"

namespace cobra {

/** Claim-exactly-once distributor of [0, numItems) across workers. */
class StealQueue
{
  public:
    static constexpr size_t kNone = ~size_t{0};

    /**
     * @param num_items   items to distribute (indices [0, num_items))
     * @param num_workers claiming workers (ids [0, num_workers))
     */
    StealQueue(size_t num_items, size_t num_workers)
        : nitems_(num_items),
          nworkers_(num_workers ? num_workers : 1),
          ranges_(std::make_unique<Range[]>(nworkers_))
    {
        // Contiguous slices, parallelFor-style: worker w owns
        // [w*chunk, min(n, (w+1)*chunk)). Trailing workers may own an
        // empty slice when items < workers — they go straight to
        // stealing.
        const size_t chunk =
            (nitems_ + nworkers_ - 1) / std::max<size_t>(1, nworkers_);
        for (size_t w = 0; w < nworkers_; ++w) {
            const size_t begin = std::min(nitems_, w * chunk);
            ranges_[w].next.store(begin, std::memory_order_relaxed);
            ranges_[w].end = std::min(nitems_, begin + chunk);
        }
    }

    /**
     * Next item for @p worker, or kNone when the queue is drained.
     * @p stolen (optional) reports whether the item came from another
     * worker's slice.
     */
    size_t
    claim(size_t worker, bool *stolen = nullptr)
    {
        const size_t w = worker % nworkers_;
        if (stolen)
            *stolen = false;
        if (size_t item = take(ranges_[w]); item != kNone)
            return item;
        for (size_t d = 1; d < nworkers_; ++d) {
            const size_t v = (w + d) % nworkers_; // ring order
            // Injection point: the thief repeatedly loses the race for
            // this victim's items (bounded yielding), proving the claim
            // loop's forward-progress guarantee rather than assuming it.
            if (auto *fi = FaultInjector::active(); fi) [[unlikely]]
                if (fi->fire(FaultSite::kPbStealStarve,
                             static_cast<uint32_t>(w)))
                    fi->loseRaces();
            if (size_t item = take(ranges_[v]); item != kNone) {
                steals_.fetch_add(1, std::memory_order_relaxed);
                if (stolen)
                    *stolen = true;
                return item;
            }
        }
        return kNone;
    }

    size_t numItems() const { return nitems_; }

    /** Cross-slice claims so far (scheduler imbalance telemetry). */
    uint64_t
    steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

  private:
    // One cursor per cache line: the owner's common-path fetch_add must
    // not false-share with its neighbors'.
    struct alignas(64) Range
    {
        std::atomic<size_t> next{0};
        size_t end = 0;
    };

    /** Wait-free claim from one slice; kNone when it is drained. */
    size_t
    take(Range &r)
    {
        if (r.next.load(std::memory_order_relaxed) >= r.end)
            return kNone; // cheap pre-check: no fetch_add on dry slices
        const size_t item =
            r.next.fetch_add(1, std::memory_order_relaxed);
        return item < r.end ? item : kNone;
    }

    size_t nitems_;
    size_t nworkers_;
    std::unique_ptr<Range[]> ranges_;
    std::atomic<uint64_t> steals_{0};
};

} // namespace cobra

#endif // COBRA_PB_STEAL_QUEUE_H
