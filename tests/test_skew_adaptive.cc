/**
 * @file
 * Skew-adaptive Accumulate suite (label: skew): the SkewSketch math, the
 * StealQueue's work-conservation and forward-progress guarantees, the
 * adaptive scheduler's exactness against the serial reference and its
 * bit-identical determinism across host thread counts, the NUMA
 * topology probe's fixture behavior, and the --threads boundary guard.
 *
 * Run under ThreadSanitizer via `scripts/tier1.sh --tsan --labels skew`:
 * the concurrent StealQueue and hot-bin merge tests are the data-race
 * acceptance bar for the work-stealing scheduler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/check/fault_injector.h"
#include "src/graph/generators.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/neighbor_populate.h"
#include "src/obs/metrics.h"
#include "src/pb/parallel_pb.h"
#include "src/pb/skew_sketch.h"
#include "src/pb/steal_queue.h"
#include "src/resilience/run_supervisor.h"
#include "src/sim/phase_recorder.h"
#include "src/util/numa_topology.h"
#include "src/util/thread_pool.h"

namespace cobra {
namespace {

// ---------------------------------------------------------------- sketch

TEST(SkewSketch, UniformCountsAreUnskewed)
{
    std::vector<uint64_t> counts(64, 100);
    SkewSketch s = SkewSketch::fromCounts(counts, 4);
    EXPECT_EQ(s.totalTuples, 6400u);
    EXPECT_DOUBLE_EQ(s.meanTuples, 100.0);
    EXPECT_EQ(s.maxTuples, 100u);
    EXPECT_DOUBLE_EQ(s.imbalance, 1.0);
    EXPECT_NEAR(s.gini, 0.0, 1e-12);
    ASSERT_EQ(s.topK.size(), 4u);
    // Ties break toward the lower bin id (deterministic).
    EXPECT_EQ(s.topK[0].bin, 0u);
    EXPECT_EQ(s.topK[1].bin, 1u);
    EXPECT_FALSE(s.isHot(100, 8.0));
}

TEST(SkewSketch, SingleHotBinMaximizesSkew)
{
    std::vector<uint64_t> counts(64, 0);
    counts[17] = 6400;
    SkewSketch s = SkewSketch::fromCounts(counts, 4);
    EXPECT_EQ(s.maxTuples, 6400u);
    EXPECT_DOUBLE_EQ(s.imbalance, 64.0); // max / mean = n
    // All mass in one bin: G = (n-1)/n exactly.
    EXPECT_NEAR(s.gini, 63.0 / 64.0, 1e-12);
    ASSERT_FALSE(s.topK.empty());
    EXPECT_EQ(s.topK[0].bin, 17u);
    EXPECT_EQ(s.topK[0].tuples, 6400u);
    EXPECT_TRUE(s.isHot(6400, 8.0));
    EXPECT_FALSE(s.isHot(100, 8.0));
}

TEST(SkewSketch, EmptyAndDegenerateInputsAreSafe)
{
    SkewSketch empty = SkewSketch::fromCounts({}, 4);
    EXPECT_EQ(empty.totalTuples, 0u);
    EXPECT_EQ(empty.numBins, 0u);
    EXPECT_FALSE(empty.isHot(10, 1.0));

    SkewSketch zeros = SkewSketch::fromCounts({0, 0, 0}, 4);
    EXPECT_DOUBLE_EQ(zeros.imbalance, 1.0);
    EXPECT_DOUBLE_EQ(zeros.gini, 0.0);
    EXPECT_EQ(zeros.topK.size(), 3u); // k clamps to numBins
}

TEST(SkewSketch, PublishesGaugesToActiveRegistry)
{
    MetricsRegistry reg;
    MetricsRegistry::Scope scope(reg);
    std::vector<uint64_t> counts(8, 0);
    counts[3] = 800;
    SkewSketch::fromCounts(counts, 2).publish();
    EXPECT_EQ(reg.gauge("pb.skew.imbalance_x1000")->value(), 8000);
    EXPECT_EQ(reg.gauge("pb.skew.max_bin_tuples")->value(), 800);
    EXPECT_EQ(reg.gauge("pb.skew.top_bin")->value(), 3);
    EXPECT_EQ(reg.gauge("pb.skew.gini_x1000")->value(), 875); // 7/8
}

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

TEST(StealQueue, SameNodeVictimsPreferred)
{
    // Workers 0,1 on node 0; workers 2,3 on node 1. Worker 0's slice is
    // empty (0 items in it after worker 0 drains); with all slices
    // full, its first steal must hit worker 1 (same node), not 2/3.
    StealQueue q(8, 4, {0, 0, 1, 1});
    // Drain worker 0's own slice (items 0,1).
    ASSERT_EQ(q.claim(0), 0u);
    ASSERT_EQ(q.claim(0), 1u);
    bool stolen = false;
    // Next claim steals; same-node victim (worker 1, slice [2,4)) first.
    EXPECT_EQ(q.claim(0, &stolen), 2u);
    EXPECT_TRUE(stolen);
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

// -------------------------------------------------- adaptive accumulate

constexpr NodeId kNodes = 1 << 13;
constexpr uint64_t kEdges = 1 << 15;

PbEngineConfig
adaptiveConfig(PbEngineKind kind = PbEngineKind::kWriteCombine)
{
    PbEngineConfig ec;
    ec.kind = kind;
    ec.skewAdaptive = true;
    // Aggressive thresholds so the hot-bin split path actually runs on
    // test-sized Zipf inputs.
    ec.hotFactor = 2.0;
    ec.skewTopK = 8;
    return ec;
}

// Exactness: the adaptive scheduler (chunked stealing + privatized
// hot-bin splits + fixed-order merge) must reproduce the serial
// reference exactly, for a commutative kernel on a heavily skewed
// stream, under every engine and several thread counts.
TEST(AdaptiveAccumulate, MatchesSerialReferenceOnZipfStream)
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
            k.runPbParallel(pool, rec, 256, adaptiveConfig(kind));
            EXPECT_TRUE(k.lastRunHealth().ok())
                << k.lastRunHealth().toString();
            EXPECT_TRUE(k.verify());
        }
    }
}

// The adaptive path must also stay correct for NON-commutative kernels
// (no privatized ops supplied): hot bins are not split, but whole-bin
// chunks still flow through the steal queue, and intra-bin order must
// be preserved.
TEST(AdaptiveAccumulate, NonCommutativeKernelKeepsBinOrder)
{
    EdgeList el = generateZipf(kNodes, kEdges, 0.8, 5);
    ThreadPool pool(4);
    NeighborPopulateKernel k(kNodes, &el);
    PhaseRecorder rec;
    k.runPbParallel(pool, rec, 256, adaptiveConfig());
    EXPECT_TRUE(k.lastRunHealth().ok());
    EXPECT_TRUE(k.verify());
}

// Hot-bin splitting provably engaged: an extreme single-vertex stream
// concentrates everything in one bin; the sketch must see it and the
// scheduler must still produce the exact answer.
TEST(AdaptiveAccumulate, ExtremeSingleHotBinSplitsAndStaysExact)
{
    EdgeList el;
    const NodeId hot = 1234;
    for (uint64_t i = 0; i < 40000; ++i)
        el.push_back(Edge{hot, static_cast<NodeId>(i % kNodes)});

    MetricsRegistry reg;
    MetricsRegistry::Scope scope(reg);
    ThreadPool pool(4);
    BinningPlan plan = BinningPlan::forMaxBins(kNodes, 256);
    ParallelPbRunner<NoPayload> runner(pool, plan, adaptiveConfig());
    std::vector<uint32_t> deg(kNodes, 0);
    PhaseRecorder rec;
    runner.run<uint32_t>(
        el.size(), rec, [&](size_t i) { return el[i].src; },
        [&](size_t i) {
            return std::pair<uint32_t, NoPayload>(el[i].src, NoPayload{});
        },
        [&](const BinTuple<NoPayload> &t) { ++deg[t.index]; },
        [](const BinTuple<NoPayload> &, uint32_t &slot) { ++slot; },
        [&](uint32_t index, const uint32_t &slot) { deg[index] += slot; });

    EXPECT_TRUE(runner.conservation().ok());
    EXPECT_EQ(deg[hot], 40000u);
    for (NodeId v = 0; v < kNodes; ++v) {
        if (v != hot)
            EXPECT_EQ(deg[v], 0u) << v;
    }
    // The sketch saw the concentration and the scheduler split the bin.
    EXPECT_GT(runner.skewSketch().imbalance, 100.0);
    EXPECT_EQ(reg.gauge("pb.accumulate.hot_bins")->value(), 1);
}

// Determinism across host thread counts: for a FLOAT payload reduction
// (where summation order changes bits), the adaptive result must be
// bit-identical for pools of 1/2/4/8 threads — split points and merge
// order derive from counted totals, never from the schedule.
TEST(AdaptiveAccumulate, FloatReductionBitIdenticalAcrossThreadCounts)
{
    constexpr NodeId n = 1 << 10;
    constexpr uint64_t updates = 60000;
    // Skewed float updates: index Zipf-ish via generateZipf's sources.
    EdgeList el = generateZipf(n, updates, 1.0, 17);

    auto run_with = [&](size_t threads) {
        ThreadPool pool(threads);
        BinningPlan plan = BinningPlan::forMaxBins(n, 64);
        ParallelPbRunner<float> runner(pool, plan, adaptiveConfig());
        std::vector<float> sums(n, 0.0f);
        PhaseRecorder rec;
        runner.run<float>(
            el.size(), rec, [&](size_t i) { return el[i].src; },
            [&](size_t i) {
                // Payload varies per update so order-sensitivity is real.
                return std::pair<uint32_t, float>(
                    el[i].src,
                    0.1f + static_cast<float>(el[i].dst % 97) * 0.013f);
            },
            [&](const BinTuple<float> &t) { sums[t.index] += t.payload; },
            [](const BinTuple<float> &t, float &slot) {
                slot += t.payload;
            },
            [&](uint32_t index, const float &slot) {
                sums[index] += slot;
            });
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

// Steal telemetry surfaces through the runner and the registry.
TEST(AdaptiveAccumulate, PublishesSchedulerMetrics)
{
    EdgeList el = generateZipf(kNodes, kEdges, 1.0, 3);
    MetricsRegistry reg;
    MetricsRegistry::Scope scope(reg);
    ThreadPool pool(4);
    DegreeCountKernel k(kNodes, &el);
    PhaseRecorder rec;
    k.runPbParallel(pool, rec, 256, adaptiveConfig());
    EXPECT_TRUE(k.verify());
    EXPECT_GT(reg.counter("pb.accumulate.items")->value(), 0);
    EXPECT_NE(reg.gauge("pb.skew.gini_x1000")->value(), 0);
}

// pb-steal-starve end to end: the starved adaptive run completes within
// a supervisor deadline on the first attempt (forward progress), with
// the injector's fire recorded.
TEST(AdaptiveAccumulate, StealStarveCompletesWithinDeadline)
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
    PbEngineConfig ec = adaptiveConfig();

    SupervisorReport rep = sup.runPbParallel(k, pool, rec, 256, ec);
    EXPECT_TRUE(rep.ok) << rep.toString();
    // Bounded race-losing is a slowdown, not a failure: one attempt.
    EXPECT_EQ(rep.attempts.size(), 1u) << rep.toString();
    EXPECT_TRUE(k.verify());
}

// Default (static) path is untouched by the new machinery: identical
// results with the flag off, and the runner reports no sketch work.
TEST(AdaptiveAccumulate, StaticPathUnchangedWhenFlagOff)
{
    EdgeList el = generateZipf(kNodes, kEdges, 0.8, 21);
    ThreadPool pool(4);
    DegreeCountKernel k(kNodes, &el);
    PhaseRecorder rec;
    PbEngineConfig ec; // defaults: skewAdaptive = false
    k.runPbParallel(pool, rec, 256, ec);
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

// -------------------------------------------------------- numa topology

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/cobra_numa_XXXXXX";
        COBRA_FATAL_IF(::mkdtemp(tmpl) == nullptr, "mkdtemp failed");
        path_ = tmpl;
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
writeFile(const std::string &path, const std::string &content)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream(path) << content;
}

TEST(NumaTopology, ParsesCpuLists)
{
    EXPECT_EQ(detail::parseCpuList("0-3"),
              (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(detail::parseCpuList("0-1,8,10-11"),
              (std::vector<int>{0, 1, 8, 10, 11}));
    EXPECT_EQ(detail::parseCpuList("5"), (std::vector<int>{5}));
    EXPECT_TRUE(detail::parseCpuList("garbage").empty());
    EXPECT_TRUE(detail::parseCpuList("3-1").empty()); // inverted range
    EXPECT_TRUE(detail::parseCpuList("-2").empty());
}

TEST(NumaTopology, FixtureWithTwoNodesIsDetected)
{
    TempDir d;
    writeFile(d.path() + "/node0/cpulist", "0-1\n");
    writeFile(d.path() + "/node1/cpulist", "2-3\n");
    NumaTopology t = detectNumaTopology(d.path());
    EXPECT_TRUE(t.detected);
    ASSERT_EQ(t.numNodes(), 2u);
    EXPECT_EQ(t.nodeCpus[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(t.nodeCpus[1], (std::vector<int>{2, 3}));
    EXPECT_EQ(t.nodeOfCpu(3), 1);
    EXPECT_EQ(t.nodeOfCpu(0), 0);
}

TEST(NumaTopology, MissingAndGarbageSysfsFallBackToOneNode)
{
    NumaTopology missing =
        detectNumaTopology("/nonexistent/cobra/sysfs");
    EXPECT_FALSE(missing.detected);
    ASSERT_EQ(missing.numNodes(), 1u);
    EXPECT_TRUE(missing.nodeCpus[0].empty());

    TempDir d;
    writeFile(d.path() + "/node0/cpulist", "not a cpulist\n");
    NumaTopology garbage = detectNumaTopology(d.path());
    EXPECT_FALSE(garbage.detected);
    EXPECT_EQ(garbage.numNodes(), 1u);
}

// NUMA-pinned pool on this (typically single-node) host: constructing
// with numa_pin must degrade gracefully — same thread count, node map
// all zeros when only one node exists — and still run tasks.
TEST(NumaTopology, NumaPinnedPoolDegradesGracefully)
{
    ThreadPool pool(4, /*numa_pin=*/true);
    EXPECT_EQ(pool.numThreads(), 4u);
    ASSERT_EQ(pool.nodeMap().size(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.enqueue([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(pool.workerNode(100), 0); // out of range -> node 0
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
