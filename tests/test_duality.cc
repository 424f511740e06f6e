/**
 * @file
 * Push/pull duality suite (ctest label: duality).
 *
 * The contract under test is the strongest one the native runtime
 * makes: a pull-mode (destination-sharded, gather) Accumulate produces
 * *bit-identical* output to the push (bin-and-drain) pipeline, at
 * every thread count, on uniform and power-law inputs (hot sources and
 * hot destinations), for all four direction-capable kernels — including
 * the float/double kernels where "bit-identical" pins the exact FP
 * reduction order, not just values within a tolerance.
 *
 * It also pins the direction heuristic's acceptance anchors (dense
 * LLC-resident -> pull, sparse 2^21-destination -> push) and runs the
 * fault-mutation matrix through the pull path: a dropped gather block
 * must trip conservation, a skewed block start must diverge from the
 * oracle, a stall must resume within its cap, and a cancelled run must
 * unwind with the canceller's typed error.
 */

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/fault_injector.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/neighbor_populate.h"
#include "src/kernels/pagerank.h"
#include "src/kernels/spmv.h"
#include "src/pb/auto_tune.h"
#include "src/resilience/cancel.h"
#include "src/sim/phase_recorder.h"
#include "src/sparse/coo.h"
#include "src/sparse/reference.h"
#include "src/util/thread_pool.h"

namespace cobra {
namespace {

constexpr NodeId kNodes = 1 << 12;
constexpr uint64_t kUpdates = 1 << 15;
constexpr uint32_t kBins = 256;
const size_t kThreadCounts[] = {1, 2, 4, 8};

/**
 * Uniform, Zipf-1.0 with hot sources, and the same Zipf stream with
 * src/dst swapped so the hot vertices are destinations: the input on
 * which splitting a hot bin across workers would reorder the float
 * sums of PageRank and SpMV.
 */
enum class Input
{
    kUniform,
    kZipf,
    kZipfDst,
};
const Input kInputs[] = {Input::kUniform, Input::kZipf, Input::kZipfDst};

const char *
inputName(Input in)
{
    switch (in) {
      case Input::kUniform: return "uniform";
      case Input::kZipf: return "zipf-1.0";
      case Input::kZipfDst: return "zipf-1.0-dst";
    }
    return "unknown";
}

EdgeList
makeEdges(Input in)
{
    if (in == Input::kUniform)
        return generateUniform(kNodes, kUpdates, 99);
    EdgeList el = generateZipf(kNodes, kUpdates, 1.0, 99);
    if (in == Input::kZipfDst)
        for (Edge &e : el)
            std::swap(e.src, e.dst);
    return el;
}

PbEngineConfig
dirEngine(PbDirection d)
{
    PbEngineConfig e;
    e.kind = PbEngineKind::kWriteCombine;
    e.direction = d;
    return e;
}

/** memcmp-level equality: the FP cases must match in bit pattern. */
template <typename T>
::testing::AssertionResult
bitIdentical(const std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
            << "size " << a.size() << " vs " << b.size();
    if (!a.empty() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
        for (size_t i = 0; i < a.size(); ++i)
            if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
                return ::testing::AssertionFailure()
                    << "first bit divergence at element " << i;
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(PushPullDuality, DegreeCountBitIdenticalAcrossThreadsAndSkew)
{
    for (Input input : kInputs) {
        SCOPED_TRACE(inputName(input));
        const EdgeList edges = makeEdges(input);
        DegreeCountKernel k(kNodes, &edges);
        ThreadPool ref_pool(1);
        PhaseRecorder ref_rec;
        k.runPbParallel(ref_pool, ref_rec, kBins,
                        dirEngine(PbDirection::kPush));
        ASSERT_TRUE(k.verify());
        const std::vector<uint32_t> ref = k.degrees();
        for (size_t t : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(t));
            ThreadPool pool(t);
            PhaseRecorder rec;
            k.runPbParallel(pool, rec, kBins,
                            dirEngine(PbDirection::kPull));
            EXPECT_EQ(k.lastRunDirection(), PbDirection::kPull);
            EXPECT_TRUE(k.lastRunHealth().ok());
            EXPECT_TRUE(bitIdentical(ref, k.degrees()));
            // Pull records the uniform three-phase structure with
            // empty Init/Binning brackets — nothing but the bracket
            // overhead itself (well under 100us) may appear there.
            EXPECT_LT(rec.phase(phase::kInit).seconds, 1e-4);
            EXPECT_LT(rec.phase(phase::kBinning).seconds, 1e-4);
            k.runPbParallel(pool, rec, kBins,
                            dirEngine(PbDirection::kPush));
            EXPECT_EQ(k.lastRunDirection(), PbDirection::kPush);
            EXPECT_TRUE(bitIdentical(ref, k.degrees()));
        }
    }
}

TEST(PushPullDuality, NeighborPopulateBitIdenticalAcrossThreadsAndSkew)
{
    for (Input input : kInputs) {
        SCOPED_TRACE(inputName(input));
        const EdgeList edges = makeEdges(input);
        NeighborPopulateKernel k(kNodes, &edges);
        ThreadPool ref_pool(1);
        PhaseRecorder ref_rec;
        k.runPbParallel(ref_pool, ref_rec, kBins,
                        dirEngine(PbDirection::kPush));
        ASSERT_TRUE(k.verify());
        const CsrGraph ref = k.result();
        for (size_t t : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(t));
            ThreadPool pool(t);
            PhaseRecorder rec;
            k.runPbParallel(pool, rec, kBins,
                            dirEngine(PbDirection::kPull));
            EXPECT_EQ(k.lastRunDirection(), PbDirection::kPull);
            EXPECT_TRUE(k.lastRunHealth().ok());
            const CsrGraph got = k.result();
            EXPECT_TRUE(
                bitIdentical(ref.offsetsArray(), got.offsetsArray()));
            EXPECT_TRUE(
                bitIdentical(ref.neighborsArray(), got.neighborsArray()));
        }
    }
}

TEST(PushPullDuality, PagerankBitIdenticalAcrossThreadsAndSkew)
{
    for (Input input : kInputs) {
        SCOPED_TRACE(inputName(input));
        const EdgeList edges = makeEdges(input);
        const CsrGraph out = CsrGraph::build(kNodes, edges);
        const CsrGraph in = CsrGraph::buildTranspose(kNodes, edges);
        PagerankKernel k(&out, &in);
        ThreadPool ref_pool(1);
        PhaseRecorder ref_rec;
        k.runPbParallel(ref_pool, ref_rec, kBins,
                        dirEngine(PbDirection::kPush));
        ASSERT_TRUE(k.verify());
        const std::vector<float> ref = k.scores();
        for (size_t t : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(t));
            ThreadPool pool(t);
            PhaseRecorder rec;
            k.runPbParallel(pool, rec, kBins,
                            dirEngine(PbDirection::kPull));
            EXPECT_EQ(k.lastRunDirection(), PbDirection::kPull);
            EXPECT_TRUE(k.lastRunHealth().ok());
            EXPECT_TRUE(bitIdentical(ref, k.scores()));
            k.runPbParallel(pool, rec, kBins,
                            dirEngine(PbDirection::kPush));
            EXPECT_TRUE(bitIdentical(ref, k.scores()));
        }
    }
}

TEST(PushPullDuality, SpmvBitIdenticalAcrossThreadsAndSkew)
{
    for (Input input : kInputs) {
        SCOPED_TRACE(inputName(input));
        const EdgeList edges = makeEdges(input);
        CooMatrix coo;
        coo.numRows = coo.numCols = kNodes;
        for (size_t i = 0; i < edges.size(); ++i)
            coo.add(edges[i].src, edges[i].dst,
                    1.0 + static_cast<double>(i % 13) * 0.125);
        const CsrMatrix a = CsrMatrix::fromCoo(coo);
        const CsrMatrix at = transposeRef(a);
        std::vector<double> x(kNodes);
        for (size_t j = 0; j < x.size(); ++j)
            x[j] = 0.5 + static_cast<double>(j % 9) * 0.25;
        SpmvKernel k(&a, &at, &x);
        ThreadPool ref_pool(1);
        PhaseRecorder ref_rec;
        k.runPbParallel(ref_pool, ref_rec, kBins,
                        dirEngine(PbDirection::kPush));
        ASSERT_TRUE(k.verify());
        const std::vector<double> ref = k.result();
        for (size_t t : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(t));
            ThreadPool pool(t);
            PhaseRecorder rec;
            k.runPbParallel(pool, rec, kBins,
                            dirEngine(PbDirection::kPull));
            EXPECT_EQ(k.lastRunDirection(), PbDirection::kPull);
            EXPECT_TRUE(k.lastRunHealth().ok());
            EXPECT_TRUE(bitIdentical(ref, k.result()));
            k.runPbParallel(pool, rec, kBins,
                            dirEngine(PbDirection::kPush));
            EXPECT_TRUE(bitIdentical(ref, k.result()));
        }
    }
}

// ---- direction heuristic acceptance anchors ----

TEST(DirectionHeuristic, AcceptanceAnchors)
{
    // Fixed budget: anchors must hold regardless of the host's caches.
    CacheBudget cb;
    cb.l1dBytes = 32 << 10;
    cb.l2Bytes = 256 << 10;
    cb.llcBytes = 8 << 20;
    // Dense LLC-resident anchor: 2^21 updates into 2^14 destinations
    // (64 KiB of destination data, density 128) -> pull.
    EXPECT_EQ(resolvePbDirection(PbDirection::kAuto, 1ull << 21,
                                 1ull << 14, cb),
              PbDirection::kPull);
    // Sparse anchor: 2^21 updates into 2^21 destinations (density 1,
    // a binning-friendly scatter) -> push.
    EXPECT_EQ(resolvePbDirection(PbDirection::kAuto, 1ull << 21,
                                 1ull << 21, cb),
              PbDirection::kPush);
    // Explicit requests pass through untouched.
    EXPECT_EQ(resolvePbDirection(PbDirection::kPush, 1ull << 21,
                                 1ull << 14, cb),
              PbDirection::kPush);
    EXPECT_EQ(resolvePbDirection(PbDirection::kPull, 1ull << 21,
                                 1ull << 21, cb),
              PbDirection::kPull);
    // And against the real host budget (sysfs or fallback): the same
    // two anchors the DirectionSweep benchmark rows record.
    EXPECT_EQ(
        resolvePbDirection(PbDirection::kAuto, 1ull << 21, 1ull << 14),
        PbDirection::kPull);
    EXPECT_EQ(
        resolvePbDirection(PbDirection::kAuto, 1ull << 21, 1ull << 21),
        PbDirection::kPush);
}

// ---- fault-mutation matrix through the pull path ----

namespace {

/** Every destination owns >= 1 update, so any dropped or skipped
 * destination provably changes the output. */
EdgeList
cyclicEdges()
{
    EdgeList el;
    el.reserve(kUpdates);
    for (uint64_t i = 0; i < kUpdates; ++i)
        el.push_back(Edge{static_cast<NodeId>(i % kNodes),
                          static_cast<NodeId>((i * 7 + 3) % kNodes)});
    return el;
}

} // namespace

TEST(PullFaultMatrix, DroppedGatherBlockTripsConservation)
{
    const EdgeList edges = cyclicEdges();
    DegreeCountKernel k(kNodes, &edges);
    ThreadPool pool(2);
    PhaseRecorder rec;
    FaultInjector fi(FaultSite::kPbDropDrain);
    {
        FaultInjector::Scope scope(fi);
        k.runPbParallel(pool, rec, kBins, dirEngine(PbDirection::kPull));
    }
    EXPECT_GE(fi.fires(), 1u);
    Status st = k.lastRunHealth();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::kDataLoss);
    EXPECT_FALSE(k.verify());
    EXPECT_TRUE(k.firstDivergence().has_value());
}

TEST(PullFaultMatrix, SkewedBlockStartDivergesFromOracle)
{
    const EdgeList edges = cyclicEdges();
    DegreeCountKernel k(kNodes, &edges);
    ThreadPool pool(2);
    PhaseRecorder rec;
    FaultInjector fi(FaultSite::kBinOffsetSkew);
    {
        FaultInjector::Scope scope(fi);
        k.runPbParallel(pool, rec, kBins, dirEngine(PbDirection::kPull));
    }
    EXPECT_GE(fi.fires(), 1u);
    // The skipped destinations' updates were never applied: the
    // conservation barrier and the element-level oracle must both see
    // it.
    EXPECT_EQ(k.lastRunHealth().code(), ErrorCode::kDataLoss);
    EXPECT_FALSE(k.verify());
    auto div = k.firstDivergence();
    ASSERT_TRUE(div.has_value());
}

TEST(PullFaultMatrix, StallResumesWithinCapAndStaysCorrect)
{
    const EdgeList edges = cyclicEdges();
    DegreeCountKernel k(kNodes, &edges);
    ThreadPool pool(2);
    PhaseRecorder rec;
    FaultInjector fi(FaultSite::kPbStallAccumulate);
    fi.setStallCapMs(30); // nothing cancels: the backstop resumes it
    {
        FaultInjector::Scope scope(fi);
        k.runPbParallel(pool, rec, kBins, dirEngine(PbDirection::kPull));
    }
    EXPECT_GE(fi.fires(), 1u);
    // A stall is a delay, not data loss: the run must still conserve
    // and verify once the backstop releases it.
    EXPECT_TRUE(k.lastRunHealth().ok());
    EXPECT_TRUE(k.verify());
}

TEST(PullFaultMatrix, CancelledRunUnwindsWithTypedError)
{
    const EdgeList edges = cyclicEdges();
    DegreeCountKernel k(kNodes, &edges);
    ThreadPool pool(2);
    PhaseRecorder rec;
    CancelToken token;
    token.cancel(ErrorCode::kDeadlineExceeded, "duality test deadline");
    CancelToken::Scope scope(token);
    try {
        k.runPbParallel(pool, rec, kBins, dirEngine(PbDirection::kPull));
        FAIL() << "cancelled pull run returned normally";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
}

} // namespace cobra
