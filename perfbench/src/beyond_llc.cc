/**
 * @file
 * Workload beyond_llc: native DegreeCount on a seeded uniform update
 * stream whose counter array outgrows the host's last-level cache —
 * the regime propagation blocking targets. PB (write-combining engine,
 * one thread, fixed bins) and the serial baseline run interleaved in
 * one process after a warm-up pair; every output is compared with the
 * benchmark's own histogram of the stream.
 */

#include <iostream>
#include <thread>

#include "src/common.h"
#include "src/kernels/degree_count.h"
#include "src/reference.h"
#include "src/util/thread_pool.h"

namespace perfbench {

namespace {

constexpr uint64_t kNodes = 1ull << 27;   // 512 MiB of 4-byte counters
constexpr uint64_t kUpdates = 1ull << 27;
constexpr uint32_t kBins = 2048;

struct PbSample
{
    double wall = 0, init = 0, binning = 0, accumulate = 0, cpu = 0;
    double minflt = 0;
};

} // namespace

Outcome
runBeyondLlc(const Options &o, Tracer &tr)
{
    Outcome out;
    if (kNodes * 4 <= llcBytes())
        std::cerr << "perfbench: warning: counter array ("
                  << (kNodes * 4 >> 20) << " MiB) fits in the LLC ("
                  << (llcBytes() >> 20) << " MiB)\n";

    const double t_setup = nowSeconds();
    cobra::EdgeList edges;
    {
        Tracer::Scope s(tr, "setup.input", "bench");
        edges.resize(kUpdates);
        Rng rng(o.seed);
        for (cobra::Edge &e : edges)
            e = cobra::Edge{rng.below(kNodes), 0};
    }
    std::vector<uint32_t> want;
    {
        Tracer::Scope s(tr, "setup.reference", "bench");
        want = sourceHistogram(
            kNodes, edges.size(), [&](size_t i) { return edges[i].src; });
    }
    const double us_kernel = tr.nowUs();
    const double t_kernel = nowSeconds();
    cobra::DegreeCountKernel kernel(static_cast<cobra::NodeId>(kNodes),
                                    &edges);
    const double kernel_setup = nowSeconds() - t_kernel;
    tr.span("kernels.DegreeCountKernel", "kernels", us_kernel,
            kernel_setup * 1e6);
    const double setup_s = nowSeconds() - t_setup;

    cobra::ThreadPool pool1(1);
    cobra::PbEngineConfig engine;
    engine.kind = cobra::PbEngineKind::kWriteCombine;
    engine.direction = cobra::PbDirection::kPush;

    auto check = [&](const char *what) {
        const bool ok =
            kernel.lastRunHealth().ok() && kernel.degrees() == want;
        out.op(ok, std::string(what) + " output differs from the "
                                       "reference histogram");
    };
    auto runPb = [&](cobra::ThreadPool &pool) {
        PbSample s;
        cobra::PhaseRecorder rec;
        const uint64_t f0 = minorFaults();
        const double c0 = processCpuSeconds();
        const double us = tr.nowUs();
        const double t0 = nowSeconds();
        kernel.runPbParallel(pool, rec, kBins, engine);
        s.wall = nowSeconds() - t0;
        s.cpu = processCpuSeconds() - c0;
        s.minflt = static_cast<double>(minorFaults() - f0);
        s.init = rec.phase(cobra::phase::kInit).seconds;
        s.binning = rec.phase(cobra::phase::kBinning).seconds;
        s.accumulate = rec.phase(cobra::phase::kAccumulate).seconds;
        tr.span("pb.runPbParallel", "pb", us, s.wall * 1e6);
        // Phase spans laid end to end from the recorder's durations.
        double at = us;
        for (const auto &p : rec.all()) {
            tr.span("pb." + p.name, "pb", at, p.seconds * 1e6);
            at += p.seconds * 1e6;
        }
        check("pb");
        return s;
    };
    auto runBase = [&]() {
        cobra::ExecCtx ctx;
        cobra::PhaseRecorder rec;
        Tracer::Scope span(tr, "baseline.runBaseline", "kernels");
        const double t0 = nowSeconds();
        kernel.runBaseline(ctx, rec);
        const double wall = nowSeconds() - t0;
        check("baseline");
        return wall;
    };

    // Warm-up pair: page in the kernel's output and the PB bin storage.
    runPb(pool1);
    runBase();

    std::vector<PbSample> pb;
    std::vector<double> base;
    const double t_end = nowSeconds() + o.seconds;
    for (size_t round = 0; round < 2 || nowSeconds() < t_end; ++round) {
        // Alternate the order so neither side always runs second.
        if (round % 2 == 0) {
            pb.push_back(runPb(pool1));
            base.push_back(runBase());
        } else {
            base.push_back(runBase());
            pb.push_back(runPb(pool1));
        }
    }

    auto med = [&](double PbSample::*f) {
        std::vector<double> xs;
        for (const auto &s : pb)
            xs.push_back(s.*f);
        return median(xs);
    };
    out.e2e("setup_s", "s", setup_s);
    out.e2e("op_p50_ms", "ms", med(&PbSample::wall) * 1e3);
    out.e2e("ref_p50_ms", "ms", median(base) * 1e3);
    // Kernel runs per second of kernel time; the output checks between
    // runs are left out.
    double run_s = sum(base);
    for (const auto &s : pb)
        run_s += s.wall;
    out.e2e("ops_per_s", "1/s",
            static_cast<double>(pb.size() + base.size()) / run_s);

    if (o.trace) {
        out.layer("pb.init_s", "s", med(&PbSample::init));
        out.layer("pb.binning_s", "s", med(&PbSample::binning));
        out.layer("pb.accumulate_s", "s", med(&PbSample::accumulate));
        out.layer("pb.cpu_s", "s", med(&PbSample::cpu));
        out.layer("pb.minflt", "count", med(&PbSample::minflt));
        out.layer("kernels.setup_s", "s", kernel_setup);
        // One run on nproc threads: recorded, not gated (its effective
        // parallelism on a shared VM is not steady).
        const unsigned threads =
            std::max(1u, std::thread::hardware_concurrency());
        cobra::ThreadPool pooln(threads);
        const PbSample mt = runPb(pooln);
        out.layer("pb.mt_wall_s", "s", mt.wall);
        out.layer("pb.mt_cpu_s", "s", mt.cpu);
        out.layer("pb.mt_parallelism", "x", mt.cpu / mt.wall);
    }
    out.e2e("peak_rss_mb", "MB", peakRssMb());
    std::cout << "# beyond_llc: " << pb.size() << " PB and " << base.size()
              << " baseline runs after a warm-up pair; pb/base = "
              << med(&PbSample::wall) / median(base) << "\n# runs (ms):";
    for (size_t i = 0; i < pb.size(); ++i)
        std::cout << " pb " << pb[i].wall * 1e3 << " base " << base[i] * 1e3;
    std::cout << "\n";
    return out;
}

} // namespace perfbench
