/**
 * @file
 * Accumulate scheduler suite (label: skew): the StealQueue's
 * work-conservation and forward-progress guarantees, the one push
 * Accumulate scheduler's exactness against the serial reference on
 * skewed streams and its bit-identical determinism across host thread
 * counts, the Zipf generator those inputs come from, and the --threads
 * boundary guard.
 *
 * Run under ThreadSanitizer via `scripts/tier1.sh --tsan --labels skew`:
 * the concurrent StealQueue and stealing-Accumulate tests are the
 * data-race acceptance bar for the scheduler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "src/check/fault_injector.h"
#include "src/graph/generators.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/neighbor_populate.h"
#include "src/obs/metrics.h"
#include "src/pb/parallel_pb.h"
#include "src/pb/steal_queue.h"
#include "src/resilience/run_supervisor.h"
#include "src/sim/phase_recorder.h"
#include "src/util/thread_pool.h"

namespace cobra {
namespace {

// ----------------------------------------------------------- steal queue

// Work conservation under real concurrency: every item claimed exactly
// once, no matter how claims interleave. Run with more threads than
// items-per-slice so stealing actually happens (TSan-observed).
TEST(StealQueue, ConcurrentClaimsAreExactlyOnce)
{
    constexpr size_t kItems = 10000;
    constexpr size_t kWorkers = 8;
    StealQueue q(kItems, kWorkers);
    std::vector<std::atomic<uint32_t>> hits(kItems);
    for (auto &h : hits)
        h.store(0);

    std::vector<std::thread> ts;
    for (size_t w = 0; w < kWorkers; ++w) {
        ts.emplace_back([&, w] {
            // Uneven per-worker cost: even workers burn time, so odd
            // workers drain their slice and must steal to finish.
            for (size_t it; (it = q.claim(w)) != StealQueue::kNone;) {
                hits[it].fetch_add(1);
                if (w % 2 == 0) {
                    for (volatile int spin = 0; spin < 400;
                         spin = spin + 1) {
                    }
                }
            }
        });
    }
    for (auto &t : ts)
        t.join();
    for (size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "item " << i;
}

TEST(StealQueue, DrainsWhenItemsFewerThanWorkers)
{
    StealQueue q(3, 8);
    std::vector<bool> seen(3, false);
    bool stolen = false;
    // A single claiming worker must reach every slice via stealing.
    for (size_t it; (it = q.claim(7, &stolen)) != StealQueue::kNone;)
        seen[it] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
    EXPECT_GT(q.steals(), 0u);
    EXPECT_EQ(q.claim(7), StealQueue::kNone); // stays drained
}

TEST(StealQueue, OwnSliceClaimsAreNotSteals)
{
    StealQueue q(8, 2);
    bool stolen = true;
    EXPECT_NE(q.claim(0, &stolen), StealQueue::kNone);
    EXPECT_FALSE(stolen);
    EXPECT_EQ(q.steals(), 0u);
}

TEST(StealQueue, EmptyQueueReturnsNone)
{
    StealQueue q(0, 4);
    EXPECT_EQ(q.claim(0), StealQueue::kNone);
    EXPECT_EQ(q.numItems(), 0u);
}

// Forward progress under the starvation adversary: a fired
// pb-steal-starve makes the thief repeatedly lose (bounded yields), but
// claims are wait-free so the queue still drains completely.
TEST(StealQueue, StarvedThiefStillDrainsQueue)
{
    FaultInjector fi(FaultSite::kPbStealStarve);
    fi.setLoseCount(64);
    FaultInjector::Scope scope(fi);

    StealQueue q(4, 4);
    std::vector<bool> seen(4, false);
    for (size_t it; (it = q.claim(0)) != StealQueue::kNone;)
        seen[it] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
    EXPECT_EQ(fi.fires(), 1u);
    EXPECT_NE(fi.provenance().find("steal races"), std::string::npos);
}

// ------------------------------------------------- accumulate scheduler

constexpr NodeId kNodes = 1 << 13;
constexpr uint64_t kEdges = 1 << 15;

PbEngineConfig
wcConfig(PbEngineKind kind = PbEngineKind::kWriteCombine)
{
    PbEngineConfig ec;
    ec.kind = kind;
    return ec;
}

// Exactness: occupancy-balanced whole-bin chunks drained through the
// steal queue must reproduce the serial reference exactly on a heavily
// skewed stream, under every engine and several thread counts.
TEST(AccumulateScheduler, MatchesSerialReferenceOnZipfStream)
{
    EdgeList el = generateZipf(kNodes, kEdges, 1.0, 99);
    for (PbEngineKind kind :
         {PbEngineKind::kScalar, PbEngineKind::kWriteCombine}) {
        for (size_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(to_string(kind)) + " threads=" +
                         std::to_string(threads));
            ThreadPool pool(threads);
            DegreeCountKernel k(kNodes, &el);
            PhaseRecorder rec;
            k.runPbParallel(pool, rec, 256, wcConfig(kind));
            EXPECT_TRUE(k.lastRunHealth().ok())
                << k.lastRunHealth().toString();
            EXPECT_TRUE(k.verify());
        }
    }
}

// An order-sensitive kernel: stolen chunks are still whole bins applied
// in shard order, so every neighbor list comes out in stream order.
TEST(AccumulateScheduler, NonCommutativeKernelKeepsBinOrder)
{
    EdgeList el = generateZipf(kNodes, kEdges, 0.8, 5);
    ThreadPool pool(4);
    NeighborPopulateKernel k(kNodes, &el);
    PhaseRecorder rec;
    k.runPbParallel(pool, rec, 256, wcConfig());
    EXPECT_TRUE(k.lastRunHealth().ok());
    EXPECT_TRUE(k.verify());
}

// The extreme of skew: the whole stream lands in one bin, which one
// worker applies whole while the others find nothing left to steal.
TEST(AccumulateScheduler, ExtremeSingleHotBinStaysExact)
{
    EdgeList el;
    const NodeId hot = 1234;
    for (uint64_t i = 0; i < 40000; ++i)
        el.push_back(Edge{hot, static_cast<NodeId>(i % kNodes)});

    ThreadPool pool(4);
    BinningPlan plan = BinningPlan::forMaxBins(kNodes, 256);
    ParallelPbRunner<NoPayload> runner(pool, plan, wcConfig());
    std::vector<uint32_t> deg(kNodes, 0);
    PhaseRecorder rec;
    runner.run(
        el.size(), rec, [&](size_t i) { return el[i].src; },
        [&](size_t i) {
            return std::pair<uint32_t, NoPayload>(el[i].src, NoPayload{});
        },
        [&](const BinTuple<NoPayload> &t) { ++deg[t.index]; });

    EXPECT_TRUE(runner.conservation().ok());
    EXPECT_EQ(deg[hot], 40000u);
    for (NodeId v = 0; v < kNodes; ++v) {
        if (v != hot)
            EXPECT_EQ(deg[v], 0u) << v;
    }
}

// Determinism across host thread counts: for a FLOAT payload reduction
// (where summation order changes bits), the result must be bit-identical
// for pools of 1/2/4/8 threads. Chunk boundaries derive from counted
// totals and every bin is applied whole, so the schedule never shows.
TEST(AccumulateScheduler, FloatReductionBitIdenticalAcrossThreadCounts)
{
    constexpr NodeId n = 1 << 10;
    constexpr uint64_t updates = 60000;
    // Skewed float updates: index Zipf-ish via generateZipf's sources.
    EdgeList el = generateZipf(n, updates, 1.0, 17);

    auto run_with = [&](size_t threads) {
        ThreadPool pool(threads);
        BinningPlan plan = BinningPlan::forMaxBins(n, 64);
        ParallelPbRunner<float> runner(pool, plan, wcConfig());
        std::vector<float> sums(n, 0.0f);
        PhaseRecorder rec;
        runner.run(
            el.size(), rec, [&](size_t i) { return el[i].src; },
            [&](size_t i) {
                // Payload varies per update so order-sensitivity is real.
                return std::pair<uint32_t, float>(
                    el[i].src,
                    0.1f + static_cast<float>(el[i].dst % 97) * 0.013f);
            },
            [&](const BinTuple<float> &t) { sums[t.index] += t.payload; });
        EXPECT_TRUE(runner.conservation().ok());
        return sums;
    };

    const std::vector<float> ref = run_with(1);
    for (size_t threads : {2u, 4u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const std::vector<float> got = run_with(threads);
        ASSERT_EQ(got.size(), ref.size());
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              ref.size() * sizeof(float)),
                  0)
            << "float reduction not bit-identical";
    }
}

// Work-item and steal telemetry surfaces through the registry.
TEST(AccumulateScheduler, PublishesSchedulerMetrics)
{
    EdgeList el = generateZipf(kNodes, kEdges, 1.0, 3);
    MetricsRegistry reg;
    MetricsRegistry::Scope scope(reg);
    ThreadPool pool(4);
    DegreeCountKernel k(kNodes, &el);
    PhaseRecorder rec;
    k.runPbParallel(pool, rec, 256, wcConfig());
    EXPECT_TRUE(k.verify());
    EXPECT_GT(reg.counter("pb.accumulate.items")->value(), 0);
}

// pb-steal-starve end to end: the starved run completes within a
// supervisor deadline on the first attempt (forward progress).
TEST(AccumulateScheduler, StealStarveCompletesWithinDeadline)
{
    using namespace std::chrono_literals;
    EdgeList el = generateZipf(kNodes, kEdges, 1.0, 11);
    FaultInjector fi(FaultSite::kPbStealStarve);
    fi.setLoseCount(128);
    FaultInjector::Scope scope(fi);

    ThreadPool pool(4);
    DegreeCountKernel k(kNodes, &el);
    PhaseRecorder rec;
    SupervisorConfig cfg;
    cfg.retry.maxAttempts = 2;
    cfg.retry.baseDelay = 0ms;
    cfg.deadline = 5s;
    RunSupervisor sup(cfg);

    SupervisorReport rep =
        sup.runPbParallel(k, pool, rec, 256, wcConfig());
    EXPECT_TRUE(rep.ok) << rep.toString();
    // Bounded race-losing is a slowdown, not a failure: one attempt.
    EXPECT_EQ(rep.attempts.size(), 1u) << rep.toString();
    EXPECT_TRUE(k.verify());
}

// ------------------------------------------------------- zipf generator

TEST(ZipfGenerator, AlphaZeroIsUniformishAndAlphaOneIsSkewed)
{
    constexpr NodeId n = 1 << 10;
    constexpr uint64_t m = 1 << 16;
    auto max_src_count = [&](double alpha) {
        EdgeList el = generateZipf(n, m, alpha, 13);
        std::vector<uint32_t> cnt(n, 0);
        for (const Edge &e : el) {
            EXPECT_LT(e.src, n);
            EXPECT_LT(e.dst, n);
            ++cnt[e.src];
        }
        return *std::max_element(cnt.begin(), cnt.end());
    };
    const uint32_t uniform_max = max_src_count(0.0);
    const uint32_t zipf_max = max_src_count(1.0);
    // Uniform: max stays near m/n (=64); Zipf(1.0): the head rank draws
    // ~ 1/H(n) of the stream (~8.5k here). A 10x gap is a robust bar.
    EXPECT_LT(uniform_max, 200u);
    EXPECT_GT(zipf_max, 10u * uniform_max);
}

TEST(ZipfGenerator, HotVerticesAreScatteredAcrossBins)
{
    constexpr NodeId n = 1 << 12;
    EdgeList el = generateZipf(n, 1 << 15, 1.0, 7);
    BinningPlan plan = BinningPlan::forMaxBins(n, 64);
    std::vector<uint64_t> per_bin(plan.numBins, 0);
    for (const Edge &e : el)
        ++per_bin[plan.binOf(e.src)];
    // The rank->vertex bijection must not pile the head ranks into one
    // bin: the top bin may be heavy, but several bins must be populated.
    size_t populated = 0;
    for (uint64_t c : per_bin)
        populated += c != 0;
    EXPECT_GT(populated, plan.numBins / 2);
}

// ------------------------------------------------------ threads guard

TEST(ValidateThreadCount, RejectsZeroNegativeAndAbsurd)
{
    EXPECT_EQ(validateThreadCount(0).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(validateThreadCount(-3).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(validateThreadCount(4097).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_TRUE(validateThreadCount(1).ok());
    EXPECT_TRUE(validateThreadCount(64).ok());
    EXPECT_TRUE(validateThreadCount(4096).ok());
}

} // namespace
} // namespace cobra
