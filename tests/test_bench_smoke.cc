/**
 * @file
 * Bench-smoke: runs the real bench_native_pb binary on its tiny smoke
 * configuration and validates the emitted JSON schema with the repo's
 * own parser. This is the seam the paper-facing result tables are
 * generated from; a schema drift here silently breaks every downstream
 * script.
 *
 * Schema expectations are table-driven: every benchmark family that
 * owns a /16384/ smoke point declares which field groups its rows must
 * carry — per-phase sum/median/min timings, hardware counters (or the
 * explicit hw_unavailable marker), the direction_chosen pivot field,
 * or the mutation-sweep counters. The skew sweep has one scheduler
 * arm, so its rows carry the alpha_x100 pivot and no arm name. A row
 * no table entry claims is a hard failure: new benchmark families must
 * register their schema here, not slide past the smoke test.
 *
 * The binary path arrives via the COBRA_BENCH_BIN environment variable
 * (set by the CTest registration); the test skips when unset so the
 * bare gtest binary still runs standalone.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/json.h"

namespace cobra {
namespace {

const char *kPhases[] = {"init", "binning", "accumulate"};

/** Which schema groups one benchmark family's rows must carry. */
struct SchemaRow
{
    const char *prefix; ///< matches name.find(prefix) == 0
    bool phase;         ///< init/binning/accumulate sum/med/min
    bool hw;            ///< hw_* counters or hw_unavailable
    bool direction;     ///< direction_chosen (0 = push, 1 = pull)
    bool mutation;      ///< mutation_ops/applied/…/dirty_frontier
};

/**
 * The registry. MutationSweep rows deliberately carry *no* phase or hw
 * fields: a mutation batch interleaves binning and apply per batch, so
 * per-phase attribution would be noise — the row's contract is the
 * mutation counters instead.
 */
const SchemaRow kSchema[] = {
    {"BM_DegreeCountPb/", true, true, false, false},
    {"BM_DegreeCountPbParallel/", true, true, false, false},
    {"BM_DegreeCountPbParallelSkewSweep/", true, true, false, false},
    {"BM_DegreeCountDirectionSweep/", true, true, true, false},
    {"BM_PagerankPbParallel/", true, true, true, false},
    {"BM_SpmvPbParallel/", true, true, true, false},
    {"BM_MutationSweep/", false, false, false, true},
};

void
expectPhaseFields(const JsonValue &b)
{
    for (const char *p : kPhases) {
        std::string name = p;
        ASSERT_TRUE(b.has(name + "_s")) << name;
        ASSERT_TRUE(b.has(name + "_med_s")) << name;
        ASSERT_TRUE(b.has(name + "_min_s")) << name;
        EXPECT_TRUE(b[name + "_s"].isNumber());
        EXPECT_TRUE(b[name + "_med_s"].isNumber());
        EXPECT_TRUE(b[name + "_min_s"].isNumber());
        // min <= median: both are per-iteration statistics.
        EXPECT_LE(b[name + "_min_s"].asDouble(),
                  b[name + "_med_s"].asDouble() + 1e-12)
            << name;
        EXPECT_GE(b[name + "_med_s"].asDouble(), 0.0) << name;
    }
    ASSERT_TRUE(b.has("phase_samples"));
    EXPECT_GE(b["phase_samples"].asDouble(), 1.0);
}

void
expectHwFields(const JsonValue &b)
{
    if (b.has("hw_unavailable")) {
        // The explicit marker: perf_event_open denied on this host.
        EXPECT_EQ(b["hw_unavailable"].asDouble(), 1.0);
        return;
    }
    for (const char *f : {"hw_cycles", "hw_instr", "hw_l1d_miss",
                          "hw_llc_miss", "hw_branch_miss",
                          "hw_binning_instr", "hw_binning_llc_miss"}) {
        ASSERT_TRUE(b.has(f)) << f;
        EXPECT_TRUE(b[f].isNumber()) << f;
    }
    EXPECT_GT(b["hw_instr"].asDouble(), 0.0);
}

void
expectDirectionField(const JsonValue &b, const std::string &name)
{
    // The A/B scripts pivot on direction_chosen, so a missing field is
    // a schema break, not a soft degradation.
    ASSERT_TRUE(b.has("direction_chosen")) << name;
    ASSERT_TRUE(b["direction_chosen"].isNumber()) << name;
    const double d = b["direction_chosen"].asDouble();
    EXPECT_TRUE(d == 0.0 || d == 1.0) << name << ": " << d;
}

void
expectMutationFields(const JsonValue &b, const std::string &name)
{
    for (const char *f : {"mutation_ops", "delete_pct", "applied",
                          "deduped", "rejected", "dirty_frontier",
                          "recompute_incremental"}) {
        ASSERT_TRUE(b.has(f)) << name << " missing " << f;
        EXPECT_TRUE(b[f].isNumber()) << name << ": " << f;
    }
    EXPECT_GT(b["mutation_ops"].asDouble(), 0.0) << name;
    // The conservation identity, visible right in the result row:
    // everything submitted is applied, deduped, or rejected.
    EXPECT_NEAR(b["applied"].asDouble() + b["deduped"].asDouble() +
                    b["rejected"].asDouble(),
                b["mutation_ops"].asDouble(),
                b["mutation_ops"].asDouble() * 1e-6)
        << name;
    EXPECT_GT(b["dirty_frontier"].asDouble(), 0.0) << name;
    // The incremental/full A/B axis rides the counter, mirroring the
    // name, so scripts can pivot without parsing benchmark names.
    const bool isIncremental =
        name.find("/incremental/") != std::string::npos;
    EXPECT_EQ(b["recompute_incremental"].asDouble(),
              isIncremental ? 1.0 : 0.0)
        << name;
    // Full recompute touches every vertex; incremental must not.
    if (isIncremental)
        EXPECT_LT(b["dirty_frontier"].asDouble(), 16384.0) << name;
    else
        EXPECT_EQ(b["dirty_frontier"].asDouble(), 16384.0) << name;
    // And explicitly NOT phase/hw rows (see kSchema).
    EXPECT_FALSE(b.has("phase_samples")) << name;
}

TEST(BenchSmoke, TinyRunEmitsValidPhaseAndHwSchema)
{
    const char *bin = std::getenv("COBRA_BENCH_BIN");
    if (bin == nullptr || bin[0] == '\0')
        GTEST_SKIP() << "COBRA_BENCH_BIN not set (run via ctest)";

    std::string out = ::testing::TempDir() + "cobra_bench_smoke.json";
    // The 2^14-node points exist precisely for this test: small enough
    // for a sub-second run, exercising the sequential PB path, the
    // threaded wc-engine path, the skew sweep, the direction sweep, and
    // both sides of the mutation incremental/full A/B.
    std::string cmd = std::string("\"") + bin + "\"" +
        " --benchmark_filter=/16384/" +
        " --benchmark_min_time=0.01" +
        " --benchmark_out_format=json" +
        " --benchmark_out=" + out + " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    ASSERT_EQ(rc, 0) << cmd;

    std::ifstream in(out);
    ASSERT_TRUE(in.good()) << out;
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(out.c_str());

    JsonValue v;
    Status st = parseJson(ss.str(), &v);
    ASSERT_TRUE(st.ok()) << st.message();
    ASSERT_TRUE(v.isObject());
    ASSERT_TRUE(v.has("benchmarks"));
    const JsonValue &benches = v["benchmarks"];
    ASSERT_TRUE(benches.isArray());
    ASSERT_GE(benches.size(), 2u) << ss.str();

    // Coverage: every registered family must have produced at least
    // one smoke row, and special anchors must have appeared.
    std::vector<bool> sawFamily(std::size(kSchema), false);
    bool sawAutoPull = false;
    bool sawSkewSweep = false;
    bool sawMutationIncremental = false, sawMutationFull = false;

    for (const JsonValue &b : benches.items()) {
        ASSERT_TRUE(b.has("name"));
        const std::string &name = b["name"].asString();

        const SchemaRow *row = nullptr;
        for (size_t i = 0; i < std::size(kSchema); ++i) {
            if (name.find(kSchema[i].prefix) == 0) {
                row = &kSchema[i];
                sawFamily[i] = true;
                break;
            }
        }
        if (row == nullptr) {
            ADD_FAILURE()
                << "benchmark row '" << name
                << "' matches no kSchema entry: new families must "
                   "declare their result schema in this test";
            continue;
        }
        if (row->phase)
            expectPhaseFields(b);
        if (row->hw)
            expectHwFields(b);
        if (row->direction)
            expectDirectionField(b, name);
        if (row->mutation)
            expectMutationFields(b, name);

        // The smoke point is the dense LLC-resident anchor (2^21
        // updates into 2^14 destinations): the heuristic must resolve
        // auto -> pull there.
        if (name.find("DirectionSweep") != std::string::npos &&
            name.find("/auto_dir/") != std::string::npos &&
            b["direction_chosen"].asDouble() == 1.0)
            sawAutoPull = true;
        // One scheduler, one arm: the row is keyed by its args alone
        // (no static_sched/adaptive_sched capture) and pivots on
        // alpha_x100, mirrored in the label.
        if (name.find("BM_DegreeCountPbParallelSkewSweep/16384/64/2/100/") ==
            0) {
            sawSkewSweep = true;
            ASSERT_TRUE(b.has("alpha_x100")) << name;
            EXPECT_EQ(b["alpha_x100"].asDouble(), 100.0) << name;
            ASSERT_TRUE(b.has("label")) << name;
            EXPECT_EQ(b["label"].asString(), "alpha=100") << name;
        }
        if (name.find("BM_MutationSweep/incremental/") == 0)
            sawMutationIncremental = true;
        if (name.find("BM_MutationSweep/full/") == 0)
            sawMutationFull = true;
    }

    for (size_t i = 0; i < std::size(kSchema); ++i)
        EXPECT_TRUE(sawFamily[i])
            << "no /16384/ smoke row from family " << kSchema[i].prefix;
    EXPECT_TRUE(sawAutoPull);
    EXPECT_TRUE(sawSkewSweep);
    EXPECT_TRUE(sawMutationIncremental);
    EXPECT_TRUE(sawMutationFull);
}

} // namespace
} // namespace cobra
