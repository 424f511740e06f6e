/**
 * @file
 * Equivalence and property tests for the native write-combining
 * Binning engine (src/pb/wc_engine.h) against the flat scalar PbBinner
 * reference, plus the host cache-geometry probe native runs size
 * against.
 *
 * The load-bearing property: the engine must hand Accumulate the
 * *identical per-bin tuple sequence* as flat scalar binning — not just
 * the same multiset. Order matters because non-commutative kernels
 * (Neighbor-Populate) consume bins as order-preserving queues, and PR
 * 2's determinism guarantees are stated over sequences. The property
 * is checked for random streams across payload sizes (4/8/16B tuples),
 * WC depths, and every ragged staging-line tail.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "src/graph/generators.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/neighbor_populate.h"
#include "src/pb/auto_tune.h"
#include "src/pb/parallel_pb.h"
#include "src/pb/pb_binner.h"
#include "src/pb/wc_engine.h"
#include "src/util/cpu_features.h"
#include "src/util/thread_pool.h"

namespace cobra {
namespace {

template <typename Payload>
Payload
randomPayload(std::mt19937 &rng)
{
    if constexpr (std::is_same_v<Payload, NoPayload>) {
        return NoPayload{};
    } else if constexpr (std::is_same_v<Payload, IdxValPayload>) {
        return IdxValPayload::make(rng(), static_cast<double>(rng()));
    } else {
        return static_cast<Payload>(rng());
    }
}

template <typename Payload>
std::vector<BinTuple<Payload>>
randomStream(uint64_t num_indices, size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<uint32_t> idx(
        0, static_cast<uint32_t>(num_indices - 1));
    std::vector<BinTuple<Payload>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(
            makeTuple<Payload>(idx(rng), randomPayload<Payload>(rng)));
    return out;
}

template <typename Payload>
Payload
payloadOf(const BinTuple<Payload> &t)
{
    if constexpr (std::is_same_v<Payload, NoPayload>)
        return NoPayload{};
    else
        return t.payload;
}

/** Run one engine over the stream; collect the per-bin sequences. */
template <typename Binner, typename Payload>
std::vector<std::vector<BinTuple<Payload>>>
binWith(Binner &&bn, const BinningPlan &plan,
        const std::vector<BinTuple<Payload>> &stream)
{
    ExecCtx ctx;
    for (const auto &t : stream)
        bn.initCount(ctx, t.index);
    bn.finalizeInit(ctx);
    for (const auto &t : stream)
        bn.insert(ctx, t.index, payloadOf(t));
    bn.flush(ctx);
    EXPECT_EQ(bn.tuplesBinned(), stream.size());
    std::vector<std::vector<BinTuple<Payload>>> out(plan.numBins);
    for (uint32_t b = 0; b < plan.numBins; ++b)
        bn.forEachInBin(ctx, b, [&](const BinTuple<Payload> &t) {
            out[b].push_back(t);
        });
    return out;
}

template <typename Payload>
void
checkAllEngines(uint64_t num_indices, uint32_t max_bins, size_t n,
                uint32_t seed)
{
    const BinningPlan plan = BinningPlan::forMaxBins(num_indices, max_bins);
    const auto stream = randomStream<Payload>(num_indices, n, seed);
    const auto ref =
        binWith(PbBinner<Payload>(plan), plan, stream);
    for (uint32_t wc_lines : {1u, 2u}) {
        PbEngineConfig cfg;
        cfg.kind = PbEngineKind::kWriteCombine;
        cfg.wcLines = wc_lines;
        auto got = binWith(WcBinner<Payload>(plan, cfg), plan, stream);
        ASSERT_EQ(got.size(), ref.size());
        for (uint32_t b = 0; b < plan.numBins; ++b)
            EXPECT_TRUE(got[b] == ref[b])
                << "wcLines=" << wc_lines << ": bin " << b
                << " sequence diverges from flat scalar (n=" << n
                << ", bins=" << plan.numBins << ")";
    }
}

// ---- order-sensitive equivalence across payload sizes ----

TEST(WcBinning, MatchesScalarReference4ByteTuples)
{
    checkAllEngines<NoPayload>(1 << 14, 64, 20000, 1);
}

TEST(WcBinning, MatchesScalarReference8ByteTuples)
{
    checkAllEngines<uint32_t>(1 << 14, 64, 20000, 2);
}

TEST(WcBinning, MatchesScalarReference16ByteTuples)
{
    checkAllEngines<IdxValPayload>(1 << 13, 32, 12000, 3);
}

// Every ragged tail size: a staging line holds 16 four-byte tuples, so
// stream lengths of every residue mod 16 must flush correctly
// (including the empty stream).
TEST(WcBinning, RaggedTailsAllResidues)
{
    for (uint32_t tail = 0; tail < 16; ++tail) {
        checkAllEngines<NoPayload>(1 << 10, 16, tail, 100 + tail);
        checkAllEngines<uint32_t>(1 << 10, 16, 1000 + tail, 200 + tail);
    }
}

// Plans whose bin count is not a power of two (forMaxBins produces
// them freely): the clamp-to-last-bin path must agree with the scalar
// reference.
TEST(WcBinning, NonPowerOfTwoBinCount)
{
    const BinningPlan plan = BinningPlan::forMaxBins(100000, 48);
    ASSERT_FALSE(isPow2(plan.numBins));
    checkAllEngines<uint32_t>(100000, 48, 30000, 4);
}

TEST(WcBinning, DegenerateSingleBin)
{
    checkAllEngines<NoPayload>(7, 1, 500, 5);
}

// ---- engines under the host-parallel runner + kernels ----

template <typename KernelT>
void
checkKernelAllEngines(NodeId nodes)
{
    EdgeList el = generateUniform(nodes, 8ull * nodes, 99);
    ThreadPool pool(4);
    for (PbEngineKind kind :
         {PbEngineKind::kScalar, PbEngineKind::kWriteCombine}) {
        KernelT k(nodes, &el);
        PhaseRecorder rec;
        PbEngineConfig cfg;
        cfg.kind = kind;
        k.runPbParallel(pool, rec, 64, cfg);
        EXPECT_TRUE(k.verify()) << "engine " << to_string(kind);
        EXPECT_FALSE(k.firstDivergence().has_value())
            << "engine " << to_string(kind);
    }
}

TEST(WcBinning, DegreeCountVerifiesUnderEveryEngine)
{
    checkKernelAllEngines<DegreeCountKernel>(1 << 12);
}

TEST(WcBinning, NeighborPopulateVerifiesUnderEveryEngine)
{
    checkKernelAllEngines<NeighborPopulateKernel>(1 << 12);
}

// ---- fault sites stay live on the WC drain path ----

TEST(WcBinning, ConservationTripsOnDroppedDrain)
{
    ThreadPool pool(2);
    const uint64_t indices = 1 << 12;
    const size_t updates = 40000;
    BinningPlan plan = BinningPlan::forMaxBins(indices, 64);
    std::mt19937 rng(7);
    std::vector<uint32_t> stream(updates);
    for (auto &x : stream)
        x = rng() % indices;
    std::vector<uint64_t> sums(indices, 0);

    PbEngineConfig cfg;
    cfg.kind = PbEngineKind::kWriteCombine;
    ParallelPbRunner<NoPayload> runner(pool, plan, cfg);
    PhaseRecorder rec;
    FaultInjector fi(FaultSite::kPbDropDrain);
    {
        FaultInjector::Scope scope(fi);
        runner.run(
            updates, rec, [&](size_t i) { return stream[i]; },
            [&](size_t i) {
                return std::pair<uint32_t, NoPayload>(stream[i],
                                                      NoPayload{});
            },
            [&](const BinTuple<NoPayload> &t) { ++sums[t.index]; });
    }
    EXPECT_GE(fi.fires(), 1u);
    EXPECT_FALSE(runner.conservation().ok());
    EXPECT_LT(runner.tuplesBinned(), updates);
}

// ---- supporting utilities ----

TEST(WcBinning, AlignedAllocAlignmentAndEmpty)
{
    auto p = alignedAlloc<uint32_t>(33);
    ASSERT_NE(p.get(), nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p.get()) % 64, 0u);
    auto q = alignedAlloc<uint64_t>(5, 4096);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(q.get()) % 4096, 0u);
    EXPECT_EQ(alignedAlloc<uint32_t>(0).get(), nullptr);
}

TEST(WcBinning, ValidatePbBinCount)
{
    EXPECT_TRUE(validatePbBinCount(1).ok());
    EXPECT_TRUE(validatePbBinCount(2048).ok());
    EXPECT_FALSE(validatePbBinCount(0).ok());
    EXPECT_EQ(validatePbBinCount(0).code(), ErrorCode::kInvalidArgument);
    EXPECT_FALSE(validatePbBinCount(3).ok());
    EXPECT_FALSE(validatePbBinCount(2047).ok());
}

// hostCacheBudget (what resolvePbDirection sizes against) reports
// nonzero capacities either from sysfs or from the HierarchyConfig
// fallback.
TEST(WcBinning, HostCacheBudgetIsUsable)
{
    const CacheBudget cb = hostCacheBudget();
    EXPECT_GT(cb.l1dBytes, 0u);
    EXPECT_GT(cb.l2Bytes, 0u);
    EXPECT_GT(cb.llcBytes, 0u);
    EXPECT_EQ(cb.fromHost, hostCacheGeometry().detected);
}

TEST(WcBinning, HostCacheGeometryConsistentWhenDetected)
{
    const HostCacheGeometry &g = hostCacheGeometry();
    if (!g.detected)
        GTEST_SKIP() << "sysfs cache topology not exposed here";
    EXPECT_GT(g.l1dBytes, 0u);
    EXPECT_GE(g.l2Bytes, g.l1dBytes);
    EXPECT_GE(g.llcBytes, g.l2Bytes);
}

// ---- cache-geometry probe against sysfs fixture trees ----

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/cobra_cache_XXXXXX";
        COBRA_FATAL_IF(::mkdtemp(tmpl) == nullptr, "mkdtemp failed");
        path_ = tmpl;
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
writeIndex(const std::string &base, int idx, const std::string &level,
           const std::string &type, const std::string &size)
{
    const std::string dir = base + "/index" + std::to_string(idx);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/level") << level << "\n";
    std::ofstream(dir + "/type") << type << "\n";
    std::ofstream(dir + "/size") << size << "\n";
}

TEST(CacheGeometry, FixtureTopologyIsDetected)
{
    TempDir d;
    writeIndex(d.path(), 0, "1", "Data", "32K");
    writeIndex(d.path(), 1, "1", "Instruction", "32K");
    writeIndex(d.path(), 2, "2", "Unified", "1024K");
    writeIndex(d.path(), 3, "3", "Unified", "8M");
    HostCacheGeometry g = detectHostCacheGeometry(d.path());
    EXPECT_TRUE(g.detected);
    EXPECT_EQ(g.l1dBytes, 32u << 10);
    EXPECT_EQ(g.l2Bytes, 1u << 20);
    EXPECT_EQ(g.llcBytes, 8u << 20);
}

TEST(CacheGeometry, MissingSysfsFallsBackUndetectedWithoutThrowing)
{
    HostCacheGeometry g =
        detectHostCacheGeometry("/nonexistent/cobra/cache");
    EXPECT_FALSE(g.detected);
    EXPECT_EQ(g.l1dBytes, 0u);
    EXPECT_EQ(g.l2Bytes, 0u);
    EXPECT_EQ(g.llcBytes, 0u);
}

TEST(CacheGeometry, GarbageSizesFallBackUndetectedWithoutThrowing)
{
    TempDir d;
    writeIndex(d.path(), 0, "1", "Data", "banana");
    writeIndex(d.path(), 1, "2", "Unified", "");
    HostCacheGeometry g = detectHostCacheGeometry(d.path());
    EXPECT_FALSE(g.detected);
}

TEST(CacheGeometry, PartialTopologyNeedsL1AndOuterLevel)
{
    // L1-only: not enough to trust (no outer budget).
    TempDir d;
    writeIndex(d.path(), 0, "1", "Data", "32K");
    HostCacheGeometry only_l1 = detectHostCacheGeometry(d.path());
    EXPECT_FALSE(only_l1.detected);

    // L1 + L3 but no L2: L2 budget borrows the LLC size.
    TempDir d2;
    writeIndex(d2.path(), 0, "1", "Data", "32K");
    writeIndex(d2.path(), 1, "3", "Unified", "4M");
    HostCacheGeometry no_l2 = detectHostCacheGeometry(d2.path());
    EXPECT_TRUE(no_l2.detected);
    EXPECT_EQ(no_l2.l2Bytes, 4u << 20);
    EXPECT_EQ(no_l2.llcBytes, 4u << 20);
}

} // namespace
} // namespace cobra
