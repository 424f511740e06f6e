/**
 * @file
 * Native (real-machine, wall-clock) microbenchmarks of software PB vs
 * direct irregular updates, via google-benchmark.
 *
 * This is the real-system half of the paper's methodology (Sections II,
 * III, VII-D ran on a Xeon): PB is a pure-software optimization, so its
 * benefit is directly measurable on the host. Expect PB to win once the
 * index namespace outgrows the host LLC; on this machine's cache sizes
 * the crossover point will differ from the simulated machine — that is
 * the point of having both.
 *
 * The *Parallel variants run the paper's parallel PB (Section III-A)
 * for real on a ThreadPool: per-thread binners with NT-store drains,
 * bin-partitioned Accumulate. The trailing benchmark argument is the
 * pool's thread count (a host-thread sweep, reported in real time since
 * the work happens on pool workers).
 *
 * The engine-captured *Parallel benchmarks A/B the native Binning
 * engines (src/pb/engine_config.h): the flat scalar loop vs the
 * write-combining software C-Buffer engine. Every PB benchmark exports per-phase wall-clock counters (init_s /
 * binning_s / accumulate_s, averaged per iteration) so the recorded
 * JSON carries the paper's Table-I-style phase breakdown — the engines
 * specifically target Binning-phase time. Because single numbers hid
 * run-to-run variance, each phase also exports its per-iteration
 * median (*_med_s) and minimum (*_min_s) plus the sample count
 * (phase_samples); scripts/bench_native.sh --repeats N layers
 * google-benchmark repetitions on top.
 *
 * Hardware counters: every PB benchmark opens a HwCounters group
 * (perf_event_open) *before* its ThreadPool so inherited counts cover
 * the pool workers, and exports whole-run totals (hw_cycles, hw_instr,
 * hw_l1d_miss, hw_llc_miss, hw_branch_miss, averaged per iteration)
 * plus Binning-phase-only instruction and LLC-miss counts — the
 * paper-style microarchitectural evidence for each engine A/B. Hosts
 * that deny the syscall (most containers) export hw_unavailable=1
 * instead; nothing else changes.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/generators.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/incremental.h"
#include "src/kernels/neighbor_populate.h"
#include "src/kernels/pagerank.h"
#include "src/kernels/spmv.h"
#include "src/obs/hw_counters.h"
#include "src/pb/auto_tune.h"
#include "src/sim/phase_recorder.h"
#include "src/sparse/coo.h"
#include "src/sparse/reference.h"
#include "src/util/thread_pool.h"

namespace cobra {
namespace {

struct NativeInput
{
    NodeId nodes;
    EdgeList edges;

    explicit NativeInput(NodeId n) : nodes(n)
    {
        edges = generateUniform(n, 4ull * n, 123);
    }
};

/** Per-size input cache; mutex-guarded so google-benchmark's threaded
 * modes (->Threads()) can share it safely. Generation happens at most
 * once per size, under the lock. */
NativeInput &
input(int64_t n)
{
    static std::mutex mtx;
    static std::map<int64_t, std::unique_ptr<NativeInput>> cache;
    std::lock_guard<std::mutex> lk(mtx);
    auto &slot = cache[n];
    if (!slot)
        slot = std::make_unique<NativeInput>(static_cast<NodeId>(n));
    return *slot;
}

/**
 * Skew-sweep inputs: same 4x-updates shape as NativeInput, but with a
 * power-law source distribution of the given exponent (alpha_x100 = 0
 * is the uniform control arm, generated identically to input();
 * alpha_x100 < 0 selects the RMAT recursive-marginal stream — the
 * Kronecker-shaped skew arm, Graph500 parameters).
 */
struct SkewInput
{
    NodeId nodes;
    EdgeList edges;

    SkewInput(NodeId n, int64_t alpha_x100) : nodes(n)
    {
        if (alpha_x100 < 0)
            edges = generateRmatStream(n, 4ull * n, 123);
        else if (alpha_x100 == 0)
            edges = generateUniform(n, 4ull * n, 123);
        else
            edges = generateZipf(n, 4ull * n,
                                 static_cast<double>(alpha_x100) / 100.0,
                                 123);
    }
};

SkewInput &
skewInput(int64_t n, int64_t alpha_x100)
{
    static std::mutex mtx;
    static std::map<std::pair<int64_t, int64_t>,
                    std::unique_ptr<SkewInput>>
        cache;
    std::lock_guard<std::mutex> lk(mtx);
    auto &slot = cache[{n, alpha_x100}];
    if (!slot)
        slot = std::make_unique<SkewInput>(static_cast<NodeId>(n),
                                           alpha_x100);
    return *slot;
}

/**
 * Direction-sweep inputs: unlike NativeInput/SkewInput the update count
 * is an independent axis, because the push/pull heuristic keys on
 * update density (updates per destination), not just the namespace
 * size. alpha_x100 = 0 is the uniform arm, > 0 the Zipf arm.
 */
struct DirectionInput
{
    NodeId nodes;
    EdgeList edges;

    DirectionInput(NodeId n, uint64_t updates, int64_t alpha_x100)
        : nodes(n)
    {
        if (alpha_x100 == 0)
            edges = generateUniform(n, updates, 123);
        else
            edges = generateZipf(n, updates,
                                 static_cast<double>(alpha_x100) / 100.0,
                                 123);
    }
};

DirectionInput &
directionInput(int64_t n, int64_t updates, int64_t alpha_x100)
{
    static std::mutex mtx;
    static std::map<std::tuple<int64_t, int64_t, int64_t>,
                    std::unique_ptr<DirectionInput>>
        cache;
    std::lock_guard<std::mutex> lk(mtx);
    auto &slot = cache[{n, updates, alpha_x100}];
    if (!slot)
        slot = std::make_unique<DirectionInput>(
            static_cast<NodeId>(n), static_cast<uint64_t>(updates),
            alpha_x100);
    return *slot;
}

/** Cached CSR pair (out + transpose) for the native Pagerank bench. */
struct PagerankInput
{
    CsrGraph out, in;

    explicit PagerankInput(int64_t n)
    {
        NativeInput &ni = input(n);
        out = CsrGraph::build(ni.nodes, ni.edges);
        in = CsrGraph::buildTranspose(ni.nodes, ni.edges);
    }
};

PagerankInput &
pagerankInput(int64_t n)
{
    static std::mutex mtx;
    static std::map<int64_t, std::unique_ptr<PagerankInput>> cache;
    std::lock_guard<std::mutex> lk(mtx);
    auto &slot = cache[n];
    if (!slot)
        slot = std::make_unique<PagerankInput>(n);
    return *slot;
}

/** Cached CSR matrix + transpose + dense x for the native SpMV bench. */
struct SpmvInput
{
    CsrMatrix a, at;
    std::vector<double> x;

    explicit SpmvInput(int64_t n)
    {
        NativeInput &ni = input(n);
        CooMatrix coo;
        coo.numRows = coo.numCols = ni.nodes;
        for (size_t i = 0; i < ni.edges.size(); ++i)
            coo.add(ni.edges[i].src, ni.edges[i].dst,
                    1.0 + static_cast<double>(i % 13) * 0.125);
        a = CsrMatrix::fromCoo(coo);
        at = transposeRef(a);
        x.resize(ni.nodes);
        for (size_t j = 0; j < x.size(); ++j)
            x[j] = 0.5 + static_cast<double>(j % 9) * 0.25;
    }
};

SpmvInput &
spmvInput(int64_t n)
{
    static std::mutex mtx;
    static std::map<int64_t, std::unique_ptr<SpmvInput>> cache;
    std::lock_guard<std::mutex> lk(mtx);
    auto &slot = cache[n];
    if (!slot)
        slot = std::make_unique<SpmvInput>(n);
    return *slot;
}

/**
 * Collects every iteration's per-phase wall-clock so the exported JSON
 * carries distribution shape (mean / median / min), not just a mean
 * that hides run-to-run variance.
 */
struct PhaseSeconds
{
    std::vector<double> init, binning, accumulate;

    void
    add(const PhaseRecorder &rec)
    {
        init.push_back(rec.phase(phase::kInit).seconds);
        binning.push_back(rec.phase(phase::kBinning).seconds);
        accumulate.push_back(rec.phase(phase::kAccumulate).seconds);
    }

    static double
    median(std::vector<double> v)
    {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        const size_t n = v.size();
        return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    }

    void
    report(benchmark::State &state) const
    {
        using benchmark::Counter;
        auto phase_counters = [&](const char *name,
                                  const std::vector<double> &v) {
            double sum = 0;
            double mn = v.empty() ? 0.0 : v.front();
            for (double s : v) {
                sum += s;
                mn = std::min(mn, s);
            }
            // Mean keeps the cross-PR field name; median/min expose
            // the distribution.
            state.counters[std::string(name) + "_s"] =
                Counter(sum, Counter::kAvgIterations);
            state.counters[std::string(name) + "_med_s"] = median(v);
            state.counters[std::string(name) + "_min_s"] = mn;
        };
        phase_counters("init", init);
        phase_counters("binning", binning);
        phase_counters("accumulate", accumulate);
        state.counters["phase_samples"] =
            static_cast<double>(binning.size());
    }
};

/**
 * Per-benchmark hardware-counter capture. Construct *before* the
 * ThreadPool (inherit=1 only covers threads created after open) and
 * attach to each iteration's PhaseRecorder for per-phase deltas.
 */
struct HwPerf
{
    HwCounters hc;
    uint64_t iters = 0;
    HwSample total;
    uint64_t binInstr = 0, binLlc = 0;

    HwPerf() { hc.open(); }

    void
    beginIter(PhaseRecorder &rec)
    {
        rec.attachHw(&hc);
        if (hc.available()) {
            hc.reset();
            hc.start();
        }
    }

    void
    endIter(const PhaseRecorder &rec)
    {
        if (!hc.available())
            return;
        hc.stop();
        HwSample s = hc.read();
        total.cycles += s.cycles;
        total.instructions += s.instructions;
        total.l1dMisses += s.l1dMisses;
        total.llcMisses += s.llcMisses;
        total.branchMisses += s.branchMisses;
        const PhaseStats b = rec.phase(phase::kBinning);
        binInstr += b.hw.instructions;
        binLlc += b.hw.llcMisses;
        ++iters;
    }

    void
    report(benchmark::State &state) const
    {
        using benchmark::Counter;
        if (!hc.available()) {
            // Explicit marker: "no HW evidence on this host", not
            // "zero misses".
            state.counters["hw_unavailable"] = 1;
            return;
        }
        auto avg = [&](uint64_t v) {
            return Counter(static_cast<double>(v),
                           Counter::kAvgIterations);
        };
        state.counters["hw_cycles"] = avg(total.cycles);
        state.counters["hw_instr"] = avg(total.instructions);
        state.counters["hw_l1d_miss"] = avg(total.l1dMisses);
        state.counters["hw_llc_miss"] = avg(total.llcMisses);
        state.counters["hw_branch_miss"] = avg(total.branchMisses);
        state.counters["hw_binning_instr"] = avg(binInstr);
        state.counters["hw_binning_llc_miss"] = avg(binLlc);
    }
};

void
BM_DegreeCountBaseline(benchmark::State &state)
{
    NativeInput &in = input(state.range(0));
    DegreeCountKernel k(in.nodes, &in.edges);
    ExecCtx ctx;
    for (auto _ : state) {
        PhaseRecorder rec;
        k.runBaseline(ctx, rec);
        benchmark::DoNotOptimize(k.degrees().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

void
BM_DegreeCountPb(benchmark::State &state)
{
    NativeInput &in = input(state.range(0));
    DegreeCountKernel k(in.nodes, &in.edges);
    ExecCtx ctx;
    PhaseSeconds ps;
    HwPerf hw;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPb(ctx, rec, static_cast<uint32_t>(state.range(1)));
        hw.endIter(rec);
        benchmark::DoNotOptimize(k.degrees().data());
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

void
BM_DegreeCountPbParallel(benchmark::State &state,
                         const PbEngineConfig &engine)
{
    NativeInput &in = input(state.range(0));
    DegreeCountKernel k(in.nodes, &in.edges);
    HwPerf hw; // before the pool: inherited counts cover the workers
    ThreadPool pool(static_cast<size_t>(state.range(2)));
    PhaseSeconds ps;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPbParallel(pool, rec, static_cast<uint32_t>(state.range(1)),
                        engine);
        hw.endIter(rec);
        benchmark::DoNotOptimize(k.degrees().data());
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.SetLabel(to_string(engine.kind));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

/**
 * Skew sweep: static contiguous Accumulate vs the skew-adaptive
 * scheduler (hot-bin splitting + work stealing), uniform control vs
 * power-law alpha in {0.6, 0.8, 1.0}. Args: {nodes, max_bins, pool
 * threads, alpha_x100}. On uniform inputs the two arms should tie
 * (the adaptive path degenerates to balanced chunks); as alpha grows,
 * the static split's accumulate_med_s is bounded by the fattest bin
 * while the adaptive arm levels it across workers.
 */
void
BM_DegreeCountPbParallelSkewSweep(benchmark::State &state, bool adaptive)
{
    SkewInput &in = skewInput(state.range(0), state.range(3));
    DegreeCountKernel k(in.nodes, &in.edges);
    HwPerf hw;
    ThreadPool pool(static_cast<size_t>(state.range(2)));
    PbEngineConfig eng;
    eng.kind = PbEngineKind::kWriteCombine;
    eng.skewAdaptive = adaptive;
    PhaseSeconds ps;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPbParallel(pool, rec, static_cast<uint32_t>(state.range(1)),
                        eng);
        hw.endIter(rec);
        benchmark::DoNotOptimize(k.degrees().data());
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.counters["alpha_x100"] =
        static_cast<double>(state.range(3));
    state.SetLabel(std::string(adaptive ? "adaptive" : "static") +
                   (state.range(3) < 0
                        ? std::string("/rmat")
                        : "/alpha=" + std::to_string(state.range(3))));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

/**
 * Push/pull direction sweep: the same WC engine runs the update stream
 * with the Accumulate direction forced to push, forced to pull, and
 * left to the resolvePbDirection heuristic. Args: {nodes, updates,
 * pool threads, alpha_x100}. Every row exports direction_chosen (0 =
 * push, 1 = pull) so recorded JSON shows which side the heuristic
 * picked for each (density, skew) point — the dense LLC-resident
 * corner should flip to pull, the 2^21-destination sparse corner must
 * stay push.
 */
void
BM_DegreeCountDirectionSweep(benchmark::State &state, PbDirection dir)
{
    DirectionInput &in =
        directionInput(state.range(0), state.range(1), state.range(3));
    DegreeCountKernel k(in.nodes, &in.edges);
    HwPerf hw;
    ThreadPool pool(static_cast<size_t>(state.range(2)));
    PbEngineConfig eng;
    eng.kind = PbEngineKind::kWriteCombine;
    eng.direction = dir;
    const uint32_t bins =
        autoTunePbBins(static_cast<uint64_t>(state.range(0)));
    PhaseSeconds ps;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPbParallel(pool, rec, bins, eng);
        hw.endIter(rec);
        benchmark::DoNotOptimize(k.degrees().data());
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.counters["alpha_x100"] = static_cast<double>(state.range(3));
    state.counters["direction_chosen"] = static_cast<double>(
        static_cast<uint8_t>(k.lastRunDirection()));
    state.SetLabel(std::string("dir=") + to_string(dir) + "->" +
                   to_string(k.lastRunDirection()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

/** Native parallel Pagerank iteration; args {nodes, pool threads}. */
void
BM_PagerankPbParallel(benchmark::State &state, PbDirection dir)
{
    PagerankInput &in = pagerankInput(state.range(0));
    PagerankKernel k(&in.out, &in.in);
    HwPerf hw;
    ThreadPool pool(static_cast<size_t>(state.range(1)));
    PbEngineConfig eng;
    eng.kind = PbEngineKind::kWriteCombine;
    eng.direction = dir;
    const uint32_t bins = autoTunePbBins(in.out.numNodes());
    PhaseSeconds ps;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPbParallel(pool, rec, bins, eng);
        hw.endIter(rec);
        benchmark::DoNotOptimize(k.scores().data());
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.counters["direction_chosen"] = static_cast<double>(
        static_cast<uint8_t>(k.lastRunDirection()));
    state.SetLabel(std::string("dir=") + to_string(dir) + "->" +
                   to_string(k.lastRunDirection()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.out.numEdges()));
}

/** Native parallel SpMV; args {nodes (matrix dim), pool threads}. */
void
BM_SpmvPbParallel(benchmark::State &state, PbDirection dir)
{
    SpmvInput &in = spmvInput(state.range(0));
    SpmvKernel k(&in.a, &in.at, &in.x);
    HwPerf hw;
    ThreadPool pool(static_cast<size_t>(state.range(1)));
    PbEngineConfig eng;
    eng.kind = PbEngineKind::kWriteCombine;
    eng.direction = dir;
    const uint32_t bins = autoTunePbBins(in.a.numRows());
    PhaseSeconds ps;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPbParallel(pool, rec, bins, eng);
        hw.endIter(rec);
        benchmark::DoNotOptimize(k.result().data());
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.counters["direction_chosen"] = static_cast<double>(
        static_cast<uint8_t>(k.lastRunDirection()));
    state.SetLabel(std::string("dir=") + to_string(dir) + "->" +
                   to_string(k.lastRunDirection()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.a.nnz()));
}

/**
 * MutationSweep: incremental vs full recompute over a mutating graph.
 * Args {nodes, ops per batch, delete %}; the capture picks the
 * recompute arm. Each iteration applies one PB-binned mutation batch
 * (inserts cycling a bounded edge pool; deletes re-deleting edges
 * inserted one batch earlier, so the live set stays bounded) and then
 * recomputes the one-iteration Pagerank scores either incrementally
 * (DeltaPagerank dirty-frontier rescore) or from scratch
 * (DeltaPagerank::fullRecompute). Small batches touch a tiny dirty
 * frontier, which is where incremental recompute wins; the
 * dirty_frontier counter quantifies the gap. No phase or HW counters:
 * an iteration is batch + recompute, not one PB run.
 */
void
BM_MutationSweep(benchmark::State &state, bool incremental)
{
    NativeInput &in = input(state.range(0));
    const uint32_t batchOps = static_cast<uint32_t>(state.range(1));
    const int64_t delPct = state.range(2);
    ThreadPool pool(2);
    PhaseRecorder rec;
    DynamicGraph graph(in.nodes);
    DeltaPagerank pr(graph);
    const uint32_t bins =
        autoTunePbBins(static_cast<uint64_t>(in.nodes));
    uint64_t pos0 = 0;
    uint64_t applied = 0, deduped = 0, rejected = 0, dirty = 0;
    std::vector<float> full;
    for (auto _ : state) {
        MutationBatch batch;
        batch.ops.reserve(batchOps);
        for (uint32_t j = 0; j < batchOps; ++j) {
            const uint64_t pos = pos0 + j;
            if (static_cast<int64_t>(j % 100) < delPct &&
                pos >= batchOps) {
                const Edge &d =
                    in.edges[(pos - batchOps) % in.edges.size()];
                batch.remove(d.src, d.dst);
            } else {
                const Edge &e = in.edges[pos % in.edges.size()];
                batch.insert(e.src, e.dst);
            }
        }
        pos0 += batchOps;
        BatchResult r =
            graph.applyBatchParallel(pool, rec, batch, bins);
        if (!graph.health().ok()) {
            state.SkipWithError(graph.health().toString().c_str());
            break;
        }
        applied += r.applied();
        deduped += r.deduped;
        rejected += r.rejected;
        if (incremental) {
            if (Status st = pr.apply(batch, r, graph); !st.ok()) {
                state.SkipWithError(st.toString().c_str());
                break;
            }
            dirty += pr.lastDirty();
            benchmark::DoNotOptimize(pr.scores().data());
        } else {
            full = DeltaPagerank::fullRecompute(graph);
            dirty += graph.numNodes(); // a full pass dirties everything
            benchmark::DoNotOptimize(full.data());
        }
        if (graph.needsCompaction()) {
            if (Status cs = graph.compact(pool, rec, bins); !cs.ok()) {
                state.SkipWithError(cs.toString().c_str());
                break;
            }
        }
    }
    using benchmark::Counter;
    state.counters["mutation_ops"] = static_cast<double>(batchOps);
    state.counters["delete_pct"] = static_cast<double>(delPct);
    state.counters["applied"] =
        Counter(static_cast<double>(applied), Counter::kAvgIterations);
    state.counters["deduped"] =
        Counter(static_cast<double>(deduped), Counter::kAvgIterations);
    state.counters["rejected"] =
        Counter(static_cast<double>(rejected), Counter::kAvgIterations);
    state.counters["dirty_frontier"] =
        Counter(static_cast<double>(dirty), Counter::kAvgIterations);
    state.counters["recompute_incremental"] = incremental ? 1 : 0;
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(batchOps));
}

void
BM_NeighborPopulateBaseline(benchmark::State &state)
{
    NativeInput &in = input(state.range(0));
    NeighborPopulateKernel k(in.nodes, &in.edges);
    ExecCtx ctx;
    for (auto _ : state) {
        PhaseRecorder rec;
        k.runBaseline(ctx, rec);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

void
BM_NeighborPopulatePb(benchmark::State &state)
{
    NativeInput &in = input(state.range(0));
    NeighborPopulateKernel k(in.nodes, &in.edges);
    ExecCtx ctx;
    PhaseSeconds ps;
    HwPerf hw;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPb(ctx, rec, static_cast<uint32_t>(state.range(1)));
        hw.endIter(rec);
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

void
BM_NeighborPopulatePbParallel(benchmark::State &state,
                              const PbEngineConfig &engine)
{
    NativeInput &in = input(state.range(0));
    NeighborPopulateKernel k(in.nodes, &in.edges);
    HwPerf hw;
    ThreadPool pool(static_cast<size_t>(state.range(2)));
    PhaseSeconds ps;
    for (auto _ : state) {
        PhaseRecorder rec;
        hw.beginIter(rec);
        k.runPbParallel(pool, rec, static_cast<uint32_t>(state.range(1)),
                        engine);
        hw.endIter(rec);
        ps.add(rec);
    }
    ps.report(state);
    hw.report(state);
    state.SetLabel(to_string(engine.kind));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(in.edges.size()));
}

constexpr PbEngineConfig kScalarEng{PbEngineKind::kScalar};
constexpr PbEngineConfig kWcEng{PbEngineKind::kWriteCombine};

BENCHMARK(BM_DegreeCountBaseline)->Arg(1 << 18)->Arg(1 << 21);
// The 1<<14 point is the bench-smoke ctest configuration: small enough
// to finish in well under a second, still exercising every JSON field.
BENCHMARK(BM_DegreeCountPb)
    ->Args({1 << 14, 64})
    ->Args({1 << 18, 512})
    ->Args({1 << 21, 512})
    ->Args({1 << 21, 4096});

// Engine A/B at {nodes, max_bins, pool threads}. Real time, since the
// benchmark thread mostly waits on the pool. The 4096-bin points are
// where the flat C-Buffer set outgrows the upper caches (4096 * 68B >
// L2). The scalar 512-bin thread sweep is the original configuration,
// kept for comparability with earlier recorded runs.
BENCHMARK_CAPTURE(BM_DegreeCountPbParallel, scalar, kScalarEng)
    ->Args({1 << 21, 512, 1})
    ->Args({1 << 21, 512, 2})
    ->Args({1 << 21, 512, 4})
    ->Args({1 << 21, 512, 8})
    ->Args({1 << 21, 4096, 1})
    ->Args({1 << 22, 16384, 1})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DegreeCountPbParallel, wc, kWcEng)
    ->Args({1 << 14, 64, 2})
    ->Args({1 << 21, 4096, 1})
    ->Args({1 << 22, 16384, 1})
    ->UseRealTime();

// Skew sweep at the 2^21-update anchor (2^19 nodes, 4x updates, 4096
// bins): uniform control (alpha_x100=0), power-law 0.6/0.8/1.0, and
// the RMAT recursive-marginal arm (alpha_x100=-1, Graph500 shape),
// each with the static and the adaptive scheduler, single-threaded and
// with a 4-worker pool (stealing only matters with someone to steal
// from; the 1-thread arm measures pure scheduler overhead).
#define COBRA_SKEW_SWEEP_ARGS                                           \
    ->Args({1 << 19, 4096, 1, 0})                                       \
        ->Args({1 << 19, 4096, 4, 0})                                   \
        ->Args({1 << 19, 4096, 1, 60})                                  \
        ->Args({1 << 19, 4096, 4, 60})                                  \
        ->Args({1 << 19, 4096, 1, 80})                                  \
        ->Args({1 << 19, 4096, 4, 80})                                  \
        ->Args({1 << 19, 4096, 1, 100})                                 \
        ->Args({1 << 19, 4096, 4, 100})                                 \
        ->Args({1 << 19, 4096, 1, -1})                                  \
        ->Args({1 << 19, 4096, 4, -1})                                  \
        ->UseRealTime()
BENCHMARK_CAPTURE(BM_DegreeCountPbParallelSkewSweep, static_sched,
                  false) COBRA_SKEW_SWEEP_ARGS;
BENCHMARK_CAPTURE(BM_DegreeCountPbParallelSkewSweep, adaptive_sched,
                  true) COBRA_SKEW_SWEEP_ARGS;
#undef COBRA_SKEW_SWEEP_ARGS

// Direction sweep at a fixed 2^21-update stream pushed into 2^14 /
// 2^18 / 2^21 destinations (density 128x / 8x / 1x), uniform and
// Zipf-1.0, each with the direction forced both ways plus the
// heuristic. The 2^14 rows double as the bench-smoke configuration
// (the /16384/ filter) so the recorded-schema test also validates
// direction_chosen end to end.
#define COBRA_DIRECTION_SWEEP_ARGS                                      \
    ->Args({1 << 14, 1 << 21, 2, 0})                                    \
        ->Args({1 << 18, 1 << 21, 2, 0})                                \
        ->Args({1 << 21, 1 << 21, 2, 0})                                \
        ->Args({1 << 14, 1 << 21, 2, 100})                              \
        ->Args({1 << 18, 1 << 21, 2, 100})                              \
        ->Args({1 << 21, 1 << 21, 2, 100})                              \
        ->UseRealTime()
BENCHMARK_CAPTURE(BM_DegreeCountDirectionSweep, push, PbDirection::kPush)
    COBRA_DIRECTION_SWEEP_ARGS;
BENCHMARK_CAPTURE(BM_DegreeCountDirectionSweep, pull, PbDirection::kPull)
    COBRA_DIRECTION_SWEEP_ARGS;
BENCHMARK_CAPTURE(BM_DegreeCountDirectionSweep, auto_dir,
                  PbDirection::kAuto) COBRA_DIRECTION_SWEEP_ARGS;
#undef COBRA_DIRECTION_SWEEP_ARGS

// Native Pagerank / SpMV at {nodes, pool threads}; the 2^14 point is
// the bench-smoke configuration for the served-kernel schema.
#define COBRA_PR_SPMV_ARGS                                              \
    ->Args({1 << 14, 2})->Args({1 << 18, 2})->UseRealTime()
BENCHMARK_CAPTURE(BM_PagerankPbParallel, push, PbDirection::kPush)
    COBRA_PR_SPMV_ARGS;
BENCHMARK_CAPTURE(BM_PagerankPbParallel, auto_dir, PbDirection::kAuto)
    COBRA_PR_SPMV_ARGS;
BENCHMARK_CAPTURE(BM_SpmvPbParallel, push, PbDirection::kPush)
    COBRA_PR_SPMV_ARGS;
BENCHMARK_CAPTURE(BM_SpmvPbParallel, auto_dir, PbDirection::kAuto)
    COBRA_PR_SPMV_ARGS;
#undef COBRA_PR_SPMV_ARGS

// Mutation sweep at {nodes, batch ops, delete %}: batch size spans the
// regime where the incremental dirty frontier is tiny relative to the
// vertex range (256 ops into 2^16 nodes) up to batches big enough that
// full recompute starts to amortize. The 2^14 rows are the bench-smoke
// configuration (the /16384/ filter) so the recorded-schema test
// validates the mutation counters end to end. The acceptance claim —
// incremental beats full on small batches — falls out of the
// incremental rows' dirty_frontier being orders of magnitude below the
// full rows' (which is always the whole vertex range).
#define COBRA_MUTATION_SWEEP_ARGS                                       \
    ->Args({1 << 14, 256, 25})                                          \
        ->Args({1 << 14, 2048, 25})                                     \
        ->Args({1 << 16, 256, 25})                                      \
        ->Args({1 << 16, 2048, 25})                                     \
        ->Args({1 << 16, 256, 0})                                       \
        ->Args({1 << 16, 256, 50})                                      \
        ->UseRealTime()
BENCHMARK_CAPTURE(BM_MutationSweep, incremental, true)
    COBRA_MUTATION_SWEEP_ARGS;
BENCHMARK_CAPTURE(BM_MutationSweep, full, false)
    COBRA_MUTATION_SWEEP_ARGS;
#undef COBRA_MUTATION_SWEEP_ARGS

BENCHMARK(BM_NeighborPopulateBaseline)->Arg(1 << 18)->Arg(1 << 21);
BENCHMARK(BM_NeighborPopulatePb)
    ->Args({1 << 18, 512})
    ->Args({1 << 21, 512})
    ->Args({1 << 21, 4096});
BENCHMARK_CAPTURE(BM_NeighborPopulatePbParallel, scalar, kScalarEng)
    ->Args({1 << 21, 512, 1})
    ->Args({1 << 21, 512, 2})
    ->Args({1 << 21, 512, 4})
    ->Args({1 << 21, 512, 8})
    ->Args({1 << 21, 4096, 1})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_NeighborPopulatePbParallel, wc, kWcEng)
    ->Args({1 << 21, 4096, 1})
    ->UseRealTime();

} // namespace
} // namespace cobra

BENCHMARK_MAIN();
