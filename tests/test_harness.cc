/**
 * @file
 * Integration tests for the experiment harness: input suite, Runner,
 * PB-SW-IDEAL composition, and the end-to-end technique ordering the
 * paper's headline figure rests on.
 */

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/harness/inputs.h"
#include "src/pb/auto_tune.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/neighbor_populate.h"
#include "src/kernels/pagerank.h"

namespace cobra {
namespace {

InputSuite &
suite()
{
    static InputSuite s = InputSuite::standard(0.03); // tiny for tests
    return s;
}

TEST(Inputs, SuiteShapes)
{
    const InputSuite &s = suite();
    ASSERT_EQ(s.graphs.size(), 3u);
    ASSERT_EQ(s.matrices.size(), 3u);
    EXPECT_GT(s.graph("KRON").out.numEdges(), 0u);
    EXPECT_GT(s.graph("URND").out.numEdges(), 0u);
    EXPECT_GT(s.graph("ROAD").out.numEdges(), 0u);
    EXPECT_TRUE(s.matrix("SYMM").symmetric);
    EXPECT_EQ(s.matrix("SCAT").a.nnz(), s.matrix("SCAT").at.nnz());
}

TEST(Inputs, ScaleFromEnvDefault)
{
    // No env var set in the test environment (or numeric): just bounds.
    double v = InputSuite::scaleFromEnv();
    EXPECT_GE(v, 0.01);
    EXPECT_LE(v, 64.0);
}

TEST(Runner, BaselineRunVerifies)
{
    const auto &g = suite().graph("URND");
    DegreeCountKernel k(g.nodes, &g.edges);
    Runner runner;
    RunResult r = runner.run(k, Technique::Baseline);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.cycles(), 0.0);
    EXPECT_GT(r.total.instructions, 0u);
}

TEST(Runner, PbRunHasThreePhases)
{
    const auto &g = suite().graph("URND");
    NeighborPopulateKernel k(g.nodes, &g.edges);
    Runner runner;
    RunOptions o;
    o.pbBins = 64;
    RunResult r = runner.run(k, Technique::PbSw, o);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.init.cycles, 0.0);
    EXPECT_GT(r.binning.cycles, 0.0);
    EXPECT_GT(r.accumulate.cycles, 0.0);
    EXPECT_NEAR(r.total.cycles,
                r.init.cycles + r.binning.cycles + r.accumulate.cycles,
                r.total.cycles * 0.01);
}

TEST(Runner, CobraRunVerifies)
{
    const auto &g = suite().graph("KRON");
    NeighborPopulateKernel k(g.nodes, &g.edges);
    Runner runner;
    RunResult r = runner.run(k, Technique::Cobra);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.binning.cycles, 0.0);
}

TEST(Runner, BestPbBinsReturnsCandidate)
{
    const auto &g = suite().graph("URND");
    DegreeCountKernel k(g.nodes, &g.edges);
    Runner runner;
    std::vector<uint32_t> ladder{16, 256, 4096};
    uint32_t best = runner.bestPbBins(k, ladder);
    EXPECT_TRUE(best == 16 || best == 256 || best == 4096);
}

TEST(Runner, PbIdealNoWorseThanAnySingleRun)
{
    const auto &g = suite().graph("KRON");
    NeighborPopulateKernel k(g.nodes, &g.edges);
    Runner runner;
    std::vector<uint32_t> ladder{16, 256, 4096};
    RunResult ideal = runner.pbIdeal(k, ladder);
    for (uint32_t bins : ladder) {
        RunOptions o;
        o.pbBins = bins;
        RunResult r = runner.run(k, Technique::PbSw, o);
        EXPECT_LE(ideal.cycles(), r.cycles() * 1.0001)
            << "ideal beaten by bins=" << bins;
    }
}

// The simulated hierarchy renames host pages but keeps their offsets,
// so a kernel that moved a buffer between runs would measure different
// cache behavior each time. One PagerankKernel simulated twice must
// repeat its statistics exactly under every technique.
TEST(Runner, PagerankSimulatesIdenticallyTwice)
{
    const auto &g = suite().graph("KRON");
    PagerankKernel k(&g.out, &g.in);
    Runner runner;
    for (Technique t :
         {Technique::Baseline, Technique::PbSw, Technique::Cobra}) {
        SCOPED_TRACE(to_string(t));
        const RunResult a = runner.run(k, t);
        const RunResult b = runner.run(k, t);
        EXPECT_TRUE(a.verified);
        EXPECT_TRUE(b.verified);
        EXPECT_EQ(a.total.llcMisses, b.total.llcMisses);
        EXPECT_EQ(a.total.dramLines, b.total.dramLines);
        EXPECT_EQ(a.total.cycles, b.total.cycles);
    }
}

TEST(Runner, DefaultBinLadderSane)
{
    auto ladder = Runner::defaultBinLadder(1 << 20);
    EXPECT_FALSE(ladder.empty());
    for (size_t i = 1; i < ladder.size(); ++i)
        EXPECT_GT(ladder[i], ladder[i - 1]);
    EXPECT_LE(ladder.back(), 1u << 16);
}

TEST(Runner, GeoMean)
{
    EXPECT_NEAR(geoMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geoMean({3.0}), 3.0, 1e-12);
    EXPECT_EQ(geoMean({}), 0.0);
}

TEST(Runner, AutoTunedBinsCompetitiveWithSweep)
{
    // The analytic tuner must land within a modest factor of the swept
    // optimum (it encodes the mechanism behind the sweep's answer).
    auto g = makeGraphInput("URND", 1 << 17, 1 << 19, 7);
    DegreeCountKernel k(g->nodes, &g->edges);
    Runner runner;
    Runner::PbSweep sweep =
        runner.sweepPb(k, {64, 256, 1024, 4096, 16384});
    RunOptions o;
    o.pbBins = autoTunePbBins(g->nodes);
    RunResult tuned = runner.run(k, Technique::PbSw, o);
    EXPECT_TRUE(tuned.verified);
    EXPECT_LT(tuned.cycles(), 1.5 * sweep.best.cycles());
}

TEST(EndToEnd, TechniqueOrderingOnSkewedGraph)
{
    // The paper's headline shape: COBRA >= PB > baseline on a skewed
    // graph whose vertex data exceeds the LLC. Run at small-but-
    // sufficient scale.
    auto g = makeGraphInput("KRON", 1 << 17, 1 << 18, 42);
    NeighborPopulateKernel k(g->nodes, &g->edges);
    Runner runner;
    RunOptions pb_opts;
    pb_opts.pbBins = 512;

    RunResult base = runner.run(k, Technique::Baseline);
    RunResult pb = runner.run(k, Technique::PbSw, pb_opts);
    RunResult cobra = runner.run(k, Technique::Cobra);

    ASSERT_TRUE(base.verified);
    ASSERT_TRUE(pb.verified);
    ASSERT_TRUE(cobra.verified);

    EXPECT_GT(speedup(base, pb), 1.0);
    EXPECT_GT(speedup(base, cobra), speedup(base, pb));
    // COBRA's Binning much faster than PB's (Fig 11).
    EXPECT_LT(cobra.binning.cycles, pb.binning.cycles);
}

} // namespace
} // namespace cobra
