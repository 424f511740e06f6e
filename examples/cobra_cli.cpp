/**
 * @file
 * cobra_cli — command-line driver for the library.
 *
 * Run any evaluation kernel on a generated or file-loaded graph, under
 * any technique, natively or on the simulated Table II machine:
 *
 *   cobra_cli --kernel np --input kron --nodes 1048576 --edges 4194304 \
 *             --technique cobra
 *   cobra_cli --kernel pagerank --graph-file my.el --technique pb \
 *             --bins 2048
 *   cobra_cli --kernel degree --input urnd --native
 *
 * Kernels: degree, np, pagerank, radii, sort
 * Inputs:  kron, urnd, road (generated) or --graph-file <path.el|.bel>
 * Techniques: baseline, pb, ideal, cobra, comm, phi, ccache
 *
 * Native direction control (with --native --technique pb --engine ...):
 *   --direction push|pull|auto
 *                      push = classic Init/Binning/Accumulate; pull =
 *                      destination-sharded gather Accumulate (no bins);
 *                      auto = the footprint/density heuristic picks.
 *                      The run reports which direction actually ran.
 *
 * Robustness harness:
 *   --check            run the differential oracle (element-level
 *                      divergence report against the serial reference)
 *   --inject SITE[:N[:SEED]]
 *                      arm a fault at the named injection point for the
 *                      run; pair with --check to watch the oracle
 *                      localize it (see --inject help for site names)
 *
 * Observability (src/obs):
 *   --trace OUT.json   record a chrome://tracing file of the run (load
 *                      it at chrome://tracing or ui.perfetto.dev): sim
 *                      phases, per-thread ParallelPbRunner shard spans,
 *                      WC drain events
 *   --metrics OUT.json dump the run's MetricsRegistry (counters /
 *                      gauges / histograms) as JSON
 *
 * Resilience (src/resilience; native --technique pb --engine runs):
 *   --deadline-ms D    watchdog deadline per attempt; a stalled run is
 *                      cancelled and surfaces as deadline-exceeded
 *   --retries R        retry a failed attempt up to R times, degrading
 *                      the engine ladder (wc -> scalar -> serial
 *                      reference) and re-certifying against the
 *                      oracle each time
 *   --mem-budget-mb M  cap PB working memory; an over-budget plan fails
 *                      as resource-exhausted and retries shrunk
 * Any of the three enables the RunSupervisor on that path.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "src/check/differential_oracle.h"
#include "src/check/fault_injector.h"

#include "src/graph/dynamic_graph.h"
#include "src/graph/generators.h"
#include "src/kernels/incremental.h"
#include "src/graph/io.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/graph/stats.h"
#include "src/harness/experiment.h"
#include "src/harness/inputs.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/int_sort.h"
#include "src/kernels/neighbor_populate.h"
#include "src/kernels/pagerank.h"
#include "src/kernels/radii.h"
#include "src/pb/auto_tune.h"
#include "src/pb/engine_config.h"
#include "src/resilience/run_supervisor.h"
#include "src/sim/trace.h"
#include "src/util/thread_pool.h"
#include "src/util/json.h"
#include "src/util/table.h"
#include "src/util/timer.h"

using namespace cobra;

namespace {

struct Options
{
    std::string kernel = "np";
    std::string input = "kron";
    std::string graphFile;
    std::string technique = "cobra";
    NodeId nodes = 1 << 20;
    uint64_t edges = 4ull << 20;
    uint32_t bins = 2048;
    std::string engine;     ///< native Binning engine (parallel runtime)
    size_t threads = 0;     ///< pool threads for --engine (0 = hardware)
    long long threadsRaw = 0; ///< as typed, pre-validation
    bool threadsSet = false;  ///< --threads was given explicitly
    bool native = false;
    bool stats = false;
    bool json = false;       ///< machine-readable output
    bool autoBins = false;   ///< pick bins with the PB auto-tuner
    std::string dumpTrace;   ///< write the update-index trace here
    bool check = false;      ///< run under the differential oracle
    std::string inject;      ///< fault spec: SITE[:N[:SEED]]
    std::string traceOut;    ///< chrome-tracing span output path
    std::string metricsOut;  ///< MetricsRegistry JSON output path
    uint64_t deadlineMs = 0; ///< watchdog deadline per attempt (0 = off)
    int64_t retries = -1;    ///< max retries after first attempt (-1 = off)
    uint64_t memBudgetMb = 0; ///< PB memory budget (0 = unlimited)
    std::string direction;   ///< native Accumulate direction (push|pull|auto)
    uint64_t mutateBatches = 0; ///< mutable-graph batches (0 = off)
    uint32_t mutateOps = 256;   ///< ops per mutation batch

    bool
    supervised() const
    {
        return deadlineMs != 0 || retries >= 0 || memBudgetMb != 0;
    }
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--kernel degree|np|pagerank|radii|sort]\n"
           "       [--input kron|urnd|road | --graph-file path]\n"
           "       [--technique baseline|pb|ideal|cobra|comm|phi|ccache]\n"
           "       [--nodes N] [--edges M] [--bins B|--auto-bins]\n"
           "       [--native] [--engine scalar|wc]\n"
           "       [--direction push|pull|auto]\n"
           "       [--threads T] [--stats] [--json]\n"
           "       [--dump-trace out.trc]\n"
           "       [--check] [--inject SITE[:N[:SEED]]]\n"
           "       [--trace out.json] [--metrics out.json]\n"
           "       [--deadline-ms D] [--retries R] [--mem-budget-mb M]\n"
           "       [--mutate-batches B] [--mutate-ops M]\n"
           "(--inject help lists the fault sites; --deadline-ms/--retries/"
           "--mem-budget-mb supervise native pb+engine runs;\n"
           "--mutate-batches streams B edge-mutation batches through a "
           "DynamicGraph,\ncertifying the incremental degree/pagerank "
           "recompute against full recompute\nafter every batch — "
           "kernels degree|pagerank only)\n";
    std::exit(2);
}

/**
 * Parse "SITE[:N[:SEED]]" into an armed-but-inactive injector.
 * Throws kInvalidArgument (listing all site names) on a bad spec.
 */
std::unique_ptr<FaultInjector>
makeInjector(const std::string &spec)
{
    if (spec == "help" || spec == "list") {
        std::cout << "fault sites:\n";
        for (FaultSite s : allFaultSites())
            std::cout << "  " << to_string(s) << "\n";
        std::exit(0);
    }
    std::string name = spec;
    uint64_t fire_at = 1;
    uint64_t seed = 0x5eedfa17ULL;
    if (auto c1 = spec.find(':'); c1 != std::string::npos) {
        name = spec.substr(0, c1);
        std::string rest = spec.substr(c1 + 1);
        std::string n_str = rest;
        if (auto c2 = rest.find(':'); c2 != std::string::npos) {
            n_str = rest.substr(0, c2);
            seed = std::strtoull(rest.substr(c2 + 1).c_str(), nullptr, 0);
        }
        fire_at = std::strtoull(n_str.c_str(), nullptr, 0);
    }
    auto site = faultSiteFromName(name);
    if (!site) {
        std::string known;
        for (FaultSite s : allFaultSites())
            known += std::string(" ") + to_string(s);
        COBRA_THROW_IF(true, ErrorCode::kInvalidArgument,
                       "unknown fault site '" << name
                                              << "'; known sites:"
                                              << known);
    }
    return std::make_unique<FaultInjector>(*site, fire_at, seed);
}

Options
parse(int argc, char **argv)
{
    Options o;
    std::map<std::string, std::string *> str_flags{
        {"--kernel", &o.kernel},
        {"--input", &o.input},
        {"--graph-file", &o.graphFile},
        {"--technique", &o.technique},
        {"--dump-trace", &o.dumpTrace},
        {"--trace", &o.traceOut},
        {"--metrics", &o.metricsOut},
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto need = [&](int i2) {
            if (i2 >= argc)
                usage(argv[0]);
            return std::string(argv[i2]);
        };
        if (auto it = str_flags.find(a); it != str_flags.end()) {
            *it->second = need(++i);
        } else if (a == "--nodes") {
            o.nodes = static_cast<NodeId>(std::atoll(need(++i).c_str()));
        } else if (a == "--edges") {
            o.edges = static_cast<uint64_t>(
                std::atoll(need(++i).c_str()));
        } else if (a == "--bins") {
            o.bins = static_cast<uint32_t>(
                std::atoll(need(++i).c_str()));
        } else if (a == "--engine") {
            o.engine = need(++i);
        } else if (a == "--direction") {
            o.direction = need(++i);
        } else if (a == "--threads") {
            o.threadsRaw = std::atoll(need(++i).c_str());
            o.threadsSet = true;
        } else if (a == "--native") {
            o.native = true;
        } else if (a == "--stats") {
            o.stats = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--auto-bins") {
            o.autoBins = true;
        } else if (a == "--check") {
            o.check = true;
        } else if (a == "--inject") {
            o.inject = need(++i);
        } else if (a == "--deadline-ms") {
            o.deadlineMs = static_cast<uint64_t>(
                std::atoll(need(++i).c_str()));
        } else if (a == "--retries") {
            o.retries = std::atoll(need(++i).c_str());
        } else if (a == "--mem-budget-mb") {
            o.memBudgetMb = static_cast<uint64_t>(
                std::atoll(need(++i).c_str()));
        } else if (a == "--mutate-batches") {
            o.mutateBatches = static_cast<uint64_t>(
                std::atoll(need(++i).c_str()));
        } else if (a == "--mutate-ops") {
            o.mutateOps = static_cast<uint32_t>(
                std::atoll(need(++i).c_str()));
        } else {
            std::cerr << "unknown flag: " << a << "\n";
            usage(argv[0]);
        }
    }
    return o;
}

int
runCli(int argc, char **argv)
{
    Options o = parse(argc, argv);

    // Boundary validation: a non-power-of-two bin count would silently
    // measure a different (rounded) configuration than requested.
    if (Status s = validatePbBinCount(o.bins); !s.ok()) {
        std::cerr << "error: --bins " << o.bins << ": " << s.message()
                  << "\n";
        return 2;
    }
    // Same boundary contract as --bins: an explicit 0, negative, or
    // absurd --threads is a typo to reject, not a value to reinterpret.
    if (o.threadsSet) {
        if (Status s = validateThreadCount(o.threadsRaw); !s.ok()) {
            std::cerr << "error: --threads " << o.threadsRaw << ": "
                      << s.message() << "\n";
            return 2;
        }
        o.threads = static_cast<size_t>(o.threadsRaw);
    }
    std::optional<PbEngineKind> engine_kind;
    if (!o.engine.empty()) {
        engine_kind = engineKindFromName(o.engine);
        if (!engine_kind) {
            std::cerr << "error: unknown --engine '" << o.engine
                      << "' (scalar|wc)\n";
            return 2;
        }
        if (!o.native || o.technique != "pb") {
            std::cerr << "error: --engine selects the native parallel "
                         "PB runtime (use --native --technique pb)\n";
            return 2;
        }
    }
    std::optional<PbDirection> direction;
    if (!o.direction.empty()) {
        direction = directionFromName(o.direction);
        if (!direction) {
            std::cerr << "error: unknown --direction '" << o.direction
                      << "' (push|pull|auto)\n";
            return 2;
        }
        if (!o.native || o.technique != "pb" || !engine_kind) {
            std::cerr << "error: --direction selects the native "
                         "parallel Accumulate direction (use --native "
                         "--technique pb --engine ...)\n";
            return 2;
        }
    }
    if (o.supervised() && (!o.native || o.technique != "pb" ||
                           !engine_kind)) {
        std::cerr << "error: --deadline-ms/--retries/--mem-budget-mb "
                     "supervise the native parallel PB runtime (use "
                     "--native --technique pb --engine ...)\n";
        return 2;
    }

    // Armed (but not yet active) fault injector, if requested.
    std::unique_ptr<FaultInjector> fi;
    if (!o.inject.empty())
        fi = makeInjector(o.inject);

    // Observability: install a registry/session for the whole run when
    // requested; the guard writes the output files on every exit path
    // (after the scopes below have uninstalled).
    MetricsRegistry metrics;
    TraceSession trace;
    struct ObsFlush
    {
        const Options &o;
        MetricsRegistry &metrics;
        TraceSession &trace;
        ~ObsFlush()
        {
            if (!o.traceOut.empty()) {
                if (Status s = trace.writeFile(o.traceOut); !s.ok())
                    warn("trace not written: " + s.toString());
                else
                    std::cout << "wrote " << trace.numEvents()
                              << "-event trace to " << o.traceOut
                              << " (load at chrome://tracing)\n";
            }
            if (!o.metricsOut.empty()) {
                std::ofstream os(o.metricsOut);
                if (!os) {
                    warn("metrics not written: cannot open " +
                         o.metricsOut);
                } else {
                    metrics.writeJson(os);
                    os << "\n";
                    std::cout << "wrote metrics to " << o.metricsOut
                              << "\n";
                }
            }
        }
    } obs_flush{o, metrics, trace};
    std::optional<MetricsRegistry::Scope> metrics_scope;
    std::optional<TraceSession::Scope> trace_scope;
    if (!o.metricsOut.empty())
        metrics_scope.emplace(metrics);
    if (!o.traceOut.empty())
        trace_scope.emplace(trace);

    // --- input ---
    std::unique_ptr<GraphInput> g;
    if (!o.graphFile.empty()) {
        g = std::make_unique<GraphInput>();
        g->name = o.graphFile;
        NodeId n = 0;
        if (o.graphFile.size() > 4 &&
            o.graphFile.substr(o.graphFile.size() - 4) == ".bel")
            g->edges = loadEdgeListBinary(o.graphFile, &n);
        else
            g->edges = loadEdgeListText(o.graphFile, &n);
        g->nodes = n;
        g->out = CsrGraph::build(n, g->edges);
        g->in = CsrGraph::buildTranspose(n, g->edges);
    } else {
        std::string cls = o.input == "kron"
            ? "KRON"
            : o.input == "urnd" ? "URND"
                                : o.input == "road" ? "ROAD" : "";
        if (cls.empty())
            usage(argv[0]);
        g = makeGraphInput(cls, o.nodes, o.edges);
    }
    if (o.stats)
        computeGraphStats(g->out).print(std::cout, g->name);
    if (o.autoBins) {
        o.bins = autoTunePbBins(g->nodes);
        std::cout << "auto-tuned PB bins: " << o.bins << "\n";
    }
    if (!o.dumpTrace.empty()) {
        // Neighbor-Populate-style update-index trace (one per edge).
        UpdateTrace tr;
        tr.numIndices = g->nodes;
        tr.indices.reserve(g->edges.size());
        for (const Edge &e : g->edges)
            tr.indices.push_back(e.src);
        saveTrace(o.dumpTrace, tr);
        std::cout << "wrote " << tr.indices.size() << "-tuple trace to "
                  << o.dumpTrace << "\n";
    }

    // --- mutable-graph mode: stream batches, certify incrementals ---
    if (o.mutateBatches > 0) {
        if (o.kernel != "degree" && o.kernel != "pagerank") {
            std::cerr << "error: --mutate-batches supports only "
                         "--kernel degree|pagerank\n";
            return 2;
        }
        if (o.mutateOps == 0) {
            std::cerr << "error: --mutate-ops must be positive\n";
            return 2;
        }
        ThreadPool pool(o.threads);
        PhaseRecorder rec;
        DynamicGraph graph(g->nodes);
        IncrementalDegreeCount inc(graph);
        std::optional<DeltaPagerank> pr;
        if (o.kernel == "pagerank")
            pr.emplace(graph);

        uint64_t applied = 0, deduped = 0, rejected = 0, dirty = 0;
        Timer t;
        std::optional<FaultInjector::Scope> scope;
        if (fi)
            scope.emplace(*fi);
        for (uint64_t b = 0; b < o.mutateBatches; ++b) {
            // Deterministic stream over the input edge list: mostly
            // inserts, every fourth op re-deleting an edge inserted
            // one batch earlier.
            MutationBatch batch;
            for (uint32_t j = 0; j < o.mutateOps; ++j) {
                const uint64_t pos = b * o.mutateOps + j;
                if (j % 4 == 3 && pos >= o.mutateOps) {
                    const Edge &d =
                        g->edges[(pos - o.mutateOps) % g->edges.size()];
                    batch.remove(d.src, d.dst);
                } else {
                    const Edge &e = g->edges[pos % g->edges.size()];
                    batch.insert(e.src, e.dst);
                }
            }
            BatchResult r =
                graph.applyBatchParallel(pool, rec, batch, o.bins);
            if (!graph.health().ok()) {
                std::cout << "batch " << b << ": "
                          << graph.health().toString() << "\n";
                if (fi)
                    std::cout << "injected fault: " << fi->provenance()
                              << "\n";
                return 1;
            }
            if (!r.conserved(batch.size())) {
                std::cout << "batch " << b
                          << ": conservation VIOLATED\n";
                return 1;
            }
            applied += r.applied();
            deduped += r.deduped;
            rejected += r.rejected;

            std::optional<Divergence> d;
            if (o.kernel == "degree") {
                inc.update(r, graph);
                dirty += inc.lastDirty();
                d = DifferentialOracle::firstDivergence(
                    inc.degrees(),
                    IncrementalDegreeCount::fullRecompute(graph),
                    "incremental degrees");
            } else {
                Status st = pr->apply(batch, r, graph);
                if (!st.ok()) {
                    std::cout << "batch " << b << ": "
                              << st.toString() << "\n";
                    return 1;
                }
                dirty += pr->lastDirty();
                d = DifferentialOracle::firstDivergence(
                    pr->scores(), DeltaPagerank::fullRecompute(graph),
                    "incremental pagerank");
            }
            if (d) {
                std::cout << "batch " << b << ": DIVERGED at element "
                          << d->element << " (expected " << d->expected
                          << ", got " << d->actual << ") — "
                          << d->detail << "\n";
                if (fi)
                    std::cout << "injected fault: " << fi->provenance()
                              << "\n";
                return 1;
            }
            if (graph.needsCompaction()) {
                if (Status cs = graph.compact(pool, rec, o.bins);
                    !cs.ok()) {
                    std::cout << "batch " << b << ": compaction "
                              << cs.toString() << "\n";
                    if (fi)
                        std::cout << "injected fault: "
                                  << fi->provenance() << "\n";
                    return 1;
                }
            }
        }
        // Greppable summary (scripts/soak.sh parses nothing here, but
        // the conservation verdict rides the exit code either way).
        std::cout << "mutation " << o.kernel << " on " << g->name
                  << ": " << o.mutateBatches << " batches x "
                  << o.mutateOps << " ops in " << t.millis()
                  << " ms\n"
                  << "mutation_ops applied=" << applied
                  << " deduped=" << deduped << " rejected=" << rejected
                  << " dirty=" << dirty
                  << " edges=" << graph.numEdges()
                  << " delta=" << graph.deltaEdges()
                  << " compactions=" << graph.compactions() << "\n"
                  << "oracle: PASS (every batch certified against "
                     "full recompute)\n";
        return 0;
    }

    // --- kernel ---
    std::unique_ptr<Kernel> kernel;
    std::vector<uint32_t> keys;
    if (o.kernel == "degree") {
        kernel = std::make_unique<DegreeCountKernel>(g->nodes,
                                                     &g->edges);
    } else if (o.kernel == "np") {
        kernel = std::make_unique<NeighborPopulateKernel>(g->nodes,
                                                          &g->edges);
    } else if (o.kernel == "pagerank") {
        kernel = std::make_unique<PagerankKernel>(&g->out, &g->in);
    } else if (o.kernel == "radii") {
        kernel = std::make_unique<RadiiKernel>(&g->out, 5, 3);
    } else if (o.kernel == "sort") {
        keys = generateKeys(o.edges, g->nodes, 77);
        kernel = std::make_unique<IntSortKernel>(&keys, g->nodes);
    } else {
        usage(argv[0]);
    }

    // --- native run: wall clock only ---
    if (o.native) {
        ExecCtx ctx;
        PhaseRecorder rec;
        std::optional<SupervisorReport> sup_report;
        Timer t;
        {
            std::optional<FaultInjector::Scope> scope;
            if (fi)
                scope.emplace(*fi);
            if (o.technique == "baseline")
                kernel->runBaseline(ctx, rec);
            else if (o.technique == "pb" && engine_kind) {
                // Host-parallel runtime with an explicit Binning engine
                // — pairs with --check/--inject so the differential
                // oracle covers every engine's drain path.
                PbEngineConfig ec;
                ec.kind = *engine_kind;
                if (direction)
                    ec.direction = *direction;
                ThreadPool pool(o.threads);
                if (o.supervised()) {
                    // Resilient mode: deadline + retry-with-degradation
                    // + memory budget around the same runtime. Failures
                    // come back as a report, not an exception.
                    SupervisorConfig sc;
                    sc.deadline =
                        std::chrono::milliseconds(o.deadlineMs);
                    if (o.retries >= 0)
                        sc.retry.maxAttempts =
                            static_cast<uint32_t>(o.retries) + 1;
                    sc.memBudgetBytes = o.memBudgetMb << 20;
                    RunSupervisor sup(sc);
                    sup_report = sup.runPbParallel(*kernel, pool, rec,
                                                   o.bins, ec);
                } else {
                    kernel->runPbParallel(pool, rec, o.bins, ec);
                }
            } else if (o.technique == "pb")
                kernel->runPb(ctx, rec, o.bins);
            else if (o.technique == "phi")
                kernel->runPhi(ctx, rec, o.bins);
            else {
                std::cerr << "--native supports baseline|pb|phi (COBRA "
                             "needs the simulator)\n";
                return 2;
            }
        }
        std::cout << o.kernel << "/" << o.technique << " on "
                  << g->name << ": " << t.millis() << " ms, "
                  << (kernel->verify() ? "verified" : "WRONG!") << "\n";
        // Greppable per-phase wall-clock line (scripts/bench_native.sh
        // uses the binning= field for its supervisor A/B smoke check).
        std::cout << "phase_seconds init="
                  << rec.phase(phase::kInit).seconds
                  << " binning=" << rec.phase(phase::kBinning).seconds
                  << " accumulate="
                  << rec.phase(phase::kAccumulate).seconds
                  << " compute=" << rec.phase(phase::kCompute).seconds
                  << "\n";
        if (engine_kind)
            // Greppable: under --direction auto this is the heuristic's
            // verdict; otherwise it echoes the request.
            std::cout << "direction requested="
                      << (direction ? to_string(*direction) : "push")
                      << " chosen="
                      << to_string(kernel->lastRunDirection()) << "\n";
        if (sup_report) {
            std::cout << "supervisor: " << sup_report->toString()
                      << "\n";
            if (!sup_report->ok)
                return 1;
        }
        if (o.check) {
            // Element-level report (the Runner-based oracle drives
            // simulated runs; natively we ask the kernel directly).
            if (auto d = kernel->firstDivergence()) {
                std::cout << "DIVERGED at element " << d->element
                          << " (expected " << d->expected << ", got "
                          << d->actual << ") — " << d->detail << "\n";
                if (fi)
                    std::cout << "injected fault: " << fi->provenance()
                              << "\n";
                return 1;
            }
            std::cout << "oracle: PASS\n";
        }
        return kernel->verify() ? 0 : 1;
    }

    // --- simulated run ---
    Runner runner;
    RunOptions ro;
    ro.pbBins = o.bins;
    std::map<std::string, Technique> tech_names{
        {"baseline", Technique::Baseline}, {"pb", Technique::PbSw},
        {"cobra", Technique::Cobra},       {"comm", Technique::CobraComm},
        {"phi", Technique::Phi},           {"ccache", Technique::CCache},
    };
    if (o.technique != "ideal" && !tech_names.count(o.technique))
        usage(argv[0]);

    if (o.check) {
        // Differential-oracle mode: single-technique runs only ("ideal"
        // is a bin-ladder composite with no one run to localize).
        COBRA_THROW_IF(o.technique == "ideal",
                       ErrorCode::kInvalidArgument,
                       "--check needs a single technique, not the "
                       "'ideal' bin ladder");
        DifferentialOracle oracle(runner);
        OracleReport rep;
        {
            std::optional<FaultInjector::Scope> scope;
            if (fi)
                scope.emplace(*fi);
            rep = oracle.check(*kernel, tech_names.at(o.technique), ro);
        }
        std::cout << rep.toString() << "\n";
        return rep.passed ? 0 : 1;
    }

    RunResult r;
    {
        std::optional<FaultInjector::Scope> scope;
        if (fi)
            scope.emplace(*fi);
        if (o.technique == "ideal")
            r = runner.pbIdeal(*kernel, Runner::defaultBinLadder(
                                            kernel->numIndices()));
        else
            r = runner.run(*kernel, tech_names.at(o.technique), ro);
    }

    if (o.json) {
        JsonWriter w(std::cout);
        w.beginObject()
            .kv("kernel", o.kernel)
            .kv("input", g->name)
            .kv("technique", o.technique)
            .kv("bins", static_cast<uint64_t>(r.pbBins))
            .kv("verified", r.verified);
        auto phase_obj = [&](const char *name, const PhaseStats &p) {
            w.key(name).beginObject()
                .kv("cycles", p.cycles)
                .kv("instructions", p.instructions)
                .kv("branches", p.branches)
                .kv("mispredicts", p.mispredicts)
                .kv("l1_misses", p.l1Misses)
                .kv("llc_misses", p.llcMisses)
                .kv("dram_lines", p.dramLines)
                .end();
        };
        phase_obj("init", r.init);
        phase_obj("binning", r.binning);
        phase_obj("accumulate", r.accumulate);
        phase_obj("total", r.total);
        w.end();
        std::cout << "\n";
        return r.verified ? 0 : 1;
    }

    Table t(o.kernel + "/" + o.technique + " on " + g->name);
    t.header({"Phase", "Mcycles", "Minstr", "DRAM Mlines"});
    auto row = [&](const char *name, const PhaseStats &p) {
        if (p.cycles == 0 && p.instructions == 0)
            return;
        t.row({name, Table::num(p.cycles / 1e6, 2),
               Table::num(p.instructions / 1e6, 2),
               Table::num(p.dramLines / 1e6, 3)});
    };
    row("init", r.init);
    row("binning", r.binning);
    row("accumulate", r.accumulate);
    row("TOTAL", r.total);
    t.print(std::cout);
    std::cout << "verified: " << (r.verified ? "yes" : "NO") << "\n";
    return r.verified ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Library code reports failures as cobra::Error; the CLI boundary is
    // where they turn into a message and an exit code.
    try {
        return runCli(argc, argv);
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return 1;
    }
}
