/**
 * @file
 * End-to-end tests of the RunSupervisor (src/resilience/run_supervisor.h)
 * against real injected failures in the native parallel PB runtime.
 *
 * The acceptance bar for the resilience layer, exercised here:
 *
 *  - a stall injected at *every* stall-capable site, under every
 *    Binning engine, is caught by the watchdog within the deadline and
 *    surfaces as kDeadlineExceeded — never a hang (the mutation-matrix
 *    shape of test_fault_injection.cc, lifted to the supervisor);
 *  - every recoverable injection site converges back to an
 *    oracle-certified result, with retry/degradation counts matching
 *    the number of injected failures, in the report *and* in the
 *    resilience.* metrics;
 *  - an overflowing bin plan (skewed BinOffset cursor) recovers under
 *    every engine: the failed attempt records the spill, the retried
 *    plan reports overflowTuples() == 0 and is oracle-identical;
 *  - an over-tight MemoryBudget walks the degradation ladder down to
 *    the serial-reference rung and still produces a certified result.
 */

#include <gtest/gtest.h>

#include "src/check/fault_injector.h"
#include "src/graph/generators.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/neighbor_populate.h"
#include "src/obs/metrics.h"
#include "src/resilience/run_supervisor.h"
#include "src/sim/phase_recorder.h"
#include "src/util/thread_pool.h"

namespace cobra {
namespace {

using namespace std::chrono_literals;

constexpr NodeId kNodes = 1 << 12;

const EdgeList &
edges()
{
    static EdgeList el = generateUniform(kNodes, 4 * kNodes, 7);
    return el;
}

/** No backoff sleeps in tests: retries should be immediate. */
SupervisorConfig
testConfig(uint32_t max_attempts)
{
    SupervisorConfig cfg;
    cfg.retry.maxAttempts = max_attempts;
    cfg.retry.baseDelay = 0ms;
    return cfg;
}

const PbEngineKind kAllEngines[] = {
    PbEngineKind::kScalar,
    PbEngineKind::kWriteCombine,
};

TEST(RunSupervisor, IdleSupervisorRunsOnce)
{
    // Fully armed (deadline, budget, retries) but nothing fails: one
    // attempt, no retries, no degradations — the supervisor must be
    // invisible on the happy path.
    ThreadPool pool(4);
    DegreeCountKernel k(kNodes, &edges());
    PhaseRecorder rec;
    SupervisorConfig cfg = testConfig(4);
    cfg.deadline = 10s;
    cfg.memBudgetBytes = 1ull << 30;
    RunSupervisor sup(cfg);

    SupervisorReport rep = sup.runPbParallel(k, pool, rec, 64);
    EXPECT_TRUE(rep.ok) << rep.toString();
    EXPECT_EQ(rep.attempts.size(), 1u);
    EXPECT_EQ(rep.retries, 0u);
    EXPECT_EQ(rep.degradations, 0u);
    EXPECT_FALSE(rep.usedBaseline);
    EXPECT_TRUE(k.verify());
    // The recorder holds exactly the one successful attempt's phases.
    ASSERT_EQ(rec.all().size(), 3u);
}

// Stall mutation matrix: every stall-capable site x every engine. The
// injected stall parks one shard; the watchdog must convert that into
// a typed kDeadlineExceeded within the deadline — never a hang (a hang
// here fails the suite via the ctest timeout). The one-shot injector
// leaves attempt 2 clean, so the supervised run still converges.
TEST(RunSupervisor, StallAtEverySiteIsCaughtWithinDeadline)
{
    const FaultSite stalls[] = {FaultSite::kPbStallInit,
                                FaultSite::kPbStallBinning,
                                FaultSite::kPbStallAccumulate};
    ThreadPool pool(2);
    for (PbEngineKind kind : kAllEngines) {
        for (FaultSite site : stalls) {
            SCOPED_TRACE(std::string(to_string(kind)) + " / " +
                         to_string(site));
            FaultInjector fi(site);
            fi.setStallCapMs(3000); // backstop only; watchdog fires first
            FaultInjector::Scope fscope(fi);

            DegreeCountKernel k(kNodes, &edges());
            PhaseRecorder rec;
            SupervisorConfig cfg = testConfig(2);
            cfg.deadline = 400ms;
            RunSupervisor sup(cfg);
            PbEngineConfig ec;
            ec.kind = kind;

            SupervisorReport rep = sup.runPbParallel(k, pool, rec, 64, ec);
            EXPECT_TRUE(rep.ok) << rep.toString();
            ASSERT_EQ(rep.attempts.size(), 2u) << rep.toString();
            EXPECT_EQ(rep.attempts[0].outcome.code(),
                      ErrorCode::kDeadlineExceeded)
                << rep.attempts[0].outcome.toString();
            EXPECT_EQ(rep.retries, 1u);
            EXPECT_EQ(rep.degradations, 1u);
            EXPECT_EQ(fi.fires(), 1u) << "stall site never reached";
            EXPECT_TRUE(k.verify());
        }
    }
}

// Every recoverable corruption site converges back to an
// oracle-certified result with exactly one retry and one degradation —
// matching the single injected failure — and the resilience.* metrics
// agree with the report. kPbCorruptPayload runs on NeighborPopulate
// (degree counting never reads the payload; same pairing as
// test_fault_injection.cc).
TEST(RunSupervisor, RecoverableInjectionConvergesOncePerFailure)
{
    const FaultSite sites[] = {
        FaultSite::kPbCorruptIndex,    FaultSite::kPbCorruptPayload,
        FaultSite::kPbDropDrain,       FaultSite::kPbDuplicateDrain,
        FaultSite::kPbTruncateDrain,   FaultSite::kBinOffsetSkew,
    };
    const PbEngineKind engines[] = {PbEngineKind::kScalar,
                                    PbEngineKind::kWriteCombine};
    ThreadPool pool(2);
    for (PbEngineKind kind : engines) {
        for (FaultSite site : sites) {
            SCOPED_TRACE(std::string(to_string(kind)) + " / " +
                         to_string(site));
            MetricsRegistry reg;
            MetricsRegistry::Scope mscope(reg);
            FaultInjector fi(site);
            FaultInjector::Scope fscope(fi);

            std::unique_ptr<Kernel> k;
            if (site == FaultSite::kPbCorruptPayload)
                k = std::make_unique<NeighborPopulateKernel>(kNodes,
                                                             &edges());
            else
                k = std::make_unique<DegreeCountKernel>(kNodes, &edges());
            PhaseRecorder rec;
            RunSupervisor sup(testConfig(4));
            PbEngineConfig ec;
            ec.kind = kind;

            SupervisorReport rep =
                sup.runPbParallel(*k, pool, rec, 64, ec);
            EXPECT_TRUE(rep.ok) << rep.toString();
            ASSERT_EQ(rep.attempts.size(), 2u) << rep.toString();
            EXPECT_FALSE(rep.attempts[0].outcome.ok());
            EXPECT_TRUE(
                RetryPolicy::isRetryable(rep.attempts[0].outcome.code()))
                << rep.attempts[0].outcome.toString();
            EXPECT_EQ(rep.retries, 1u);
            EXPECT_EQ(rep.degradations, 1u);
            EXPECT_TRUE(k->verify());
            // Metrics mirror the report exactly.
            EXPECT_EQ(reg.counter("resilience.attempts")->value(), 2);
            EXPECT_EQ(reg.counter("resilience.retries")->value(), 1);
            EXPECT_EQ(reg.counter("resilience.degradations")->value(), 1);
            EXPECT_EQ(reg.counter("resilience.failures")->value(), 0);
        }
    }
}

// A skewed BinOffset cursor makes one bin's plan overflow into the
// spill region. Under every engine the failed attempt must record the
// spill and the re-planned retry must come back spill-free and
// oracle-identical (the overflow-recovery satellite).
//
// The WC store pads bin starts to 64B lines, so a +1 skew can be
// silently absorbed by a bin's pad slack. This stream gives every node
// exactly 8 updates (8 tuples == one full line), so every bin's count
// is line-exact, leaving no slack: the skew must spill under every
// engine.
TEST(RunSupervisor, OverflowingPlanRecoversUnderEveryEngine)
{
    constexpr NodeId n = 1024;
    EdgeList el;
    for (NodeId v = 0; v < n; ++v)
        for (NodeId j = 1; j <= 8; ++j)
            el.push_back({v, (v + j) % n});

    for (PbEngineKind kind : kAllEngines) {
        SCOPED_TRACE(to_string(kind));
        // One worker thread -> one shard, so the (only) binner's
        // per-bin counts are the line-exact global ones above.
        ThreadPool pool(1);
        PbEngineConfig ec;
        ec.kind = kind;
        FaultInjector fi(FaultSite::kBinOffsetSkew);
        FaultInjector::Scope fscope(fi);

        DegreeCountKernel k(n, &el);
        PhaseRecorder rec;
        RunSupervisor sup(testConfig(4));

        SupervisorReport rep = sup.runPbParallel(k, pool, rec, 64, ec);
        EXPECT_TRUE(rep.ok) << rep.toString();
        ASSERT_GE(rep.attempts.size(), 2u) << rep.toString();
        EXPECT_GT(rep.attempts[0].overflowTuples, 0u) << rep.toString();
        EXPECT_EQ(rep.attempts.back().overflowTuples, 0u);
        EXPECT_EQ(k.lastOverflowTuples(), 0u);
        EXPECT_TRUE(k.lastRunHealth().ok());
        EXPECT_TRUE(k.verify());
    }
}

// An over-tight budget refuses every *push* PB plan (bin storage alone
// needs numUpdates * sizeof(Tuple) = 128 KiB here); the supervisor
// walks the footprint ladder — WC depth, then bin halving to the floor
// — and then flips the direction: pull Accumulate gathers from the
// kernel's destination view and allocates no bin storage, so the run
// recovers on a *parallel* rung instead of surrendering to the serial
// reference.
TEST(RunSupervisor, TightMemoryBudgetFlipsDirectionToPull)
{
    ThreadPool pool(2);
    DegreeCountKernel k(kNodes, &edges());
    PhaseRecorder rec;
    SupervisorConfig cfg = testConfig(8);
    cfg.memBudgetBytes = 32 << 10;
    RunSupervisor sup(cfg);

    SupervisorReport rep = sup.runPbParallel(k, pool, rec, 64);
    EXPECT_TRUE(rep.ok) << rep.toString();
    EXPECT_FALSE(rep.usedBaseline) << rep.toString();
    ASSERT_GE(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts.back().engine.direction, PbDirection::kPull)
        << rep.toString();
    EXPECT_EQ(rep.finalEngine.direction, PbDirection::kPull);
    EXPECT_EQ(k.lastRunDirection(), PbDirection::kPull);
    for (size_t i = 0; i + 1 < rep.attempts.size(); ++i)
        EXPECT_EQ(rep.attempts[i].outcome.code(),
                  ErrorCode::kResourceExhausted)
            << rep.attempts[i].outcome.toString();
    EXPECT_EQ(rep.retries, rep.attempts.size() - 1);
    EXPECT_TRUE(k.verify());
}

// Degradation ladder shape, checked directly on the attempt records:
// a deadline failure steps wc -> scalar (no footprint shrink), and the
// report's finalEngine matches the attempt that won.
TEST(RunSupervisor, DeadlineFailuresStepTheEngineLadderDown)
{
    ThreadPool pool(2);
    // Two one-shot stalls would need two injector scopes; instead
    // check the ladder via a single stall starting from wc.
    FaultInjector fi(FaultSite::kPbStallBinning);
    fi.setStallCapMs(3000);
    FaultInjector::Scope fscope(fi);

    DegreeCountKernel k(kNodes, &edges());
    PhaseRecorder rec;
    SupervisorConfig cfg = testConfig(3);
    cfg.deadline = 400ms;
    RunSupervisor sup(cfg);
    PbEngineConfig ec;
    ec.kind = PbEngineKind::kWriteCombine;

    SupervisorReport rep = sup.runPbParallel(k, pool, rec, 64, ec);
    EXPECT_TRUE(rep.ok) << rep.toString();
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].engine.kind, PbEngineKind::kWriteCombine);
    EXPECT_EQ(rep.attempts[1].engine.kind, PbEngineKind::kScalar);
    EXPECT_EQ(rep.finalEngine.kind, PbEngineKind::kScalar);
    EXPECT_EQ(rep.finalBins, 64u);
    EXPECT_TRUE(k.verify());
}

TEST(RunSupervisor, ReportToStringNamesAttemptsAndOutcome)
{
    ThreadPool pool(2);
    DegreeCountKernel k(kNodes, &edges());
    PhaseRecorder rec;
    RunSupervisor sup(testConfig(1));
    SupervisorReport rep = sup.runPbParallel(k, pool, rec, 64);
    const std::string s = rep.toString();
    EXPECT_NE(s.find("recovered"), std::string::npos) << s;
    EXPECT_NE(s.find("attempt 1"), std::string::npos) << s;
    EXPECT_NE(s.find("scalar/64 bins"), std::string::npos) << s;
}

} // namespace
} // namespace cobra
