#include "src/kernels/pagerank.h"

#include <cmath>

#include "src/core/ccache.h"
#include "src/kernels/pipelines.h"
#include "src/pb/auto_tune.h"
#include "src/pb/parallel_pb.h"
#include "src/tiling/csr_segmenting.h"

namespace cobra {

namespace {

void
addFloats(float &dst, const float &src)
{
    dst += src;
}

/**
 * contrib[u] = scores[u] / outDegree(u), uniform initial scores. Fills
 * @p c in place: the simulated hierarchy renames host pages but keeps
 * their offsets, so a fresh buffer per run could land at a different
 * offset and change what a repeated simulation measures.
 */
void
fillInitialContrib(const CsrGraph &out, std::vector<float> &c)
{
    const NodeId n = out.numNodes();
    c.resize(n);
    const float init = 1.0f / static_cast<float>(n);
    for (NodeId u = 0; u < n; ++u) {
        EdgeOffset d = out.degree(u);
        c[u] = d ? init / static_cast<float>(d) : 0.0f;
    }
}

} // namespace

PagerankKernel::PagerankKernel(const CsrGraph *out, const CsrGraph *in)
    : outG(out), inG(in)
{
    const NodeId n = out->numNodes();
    contrib.assign(n, 0.0f);
    sums.assign(n, 0.0f);
    next.assign(n, 0.0f);

    // Double-precision reference for verification.
    std::vector<float> c;
    fillInitialContrib(*out, c);
    refNext.assign(n, 0.0);
    const double base = (1.0 - kDamping) / n;
    for (NodeId v = 0; v < n; ++v) {
        double acc = 0.0;
        for (NodeId u : inG->neighbors(v))
            acc += c[u];
        refNext[v] = base + kDamping * acc;
    }
}

void
PagerankKernel::resetOutput()
{
    sums.assign(outG->numNodes(), 0.0f);
    next.assign(outG->numNodes(), 0.0f);
    // Health reflects the *most recent* run: any technique starts clean.
    pbHealth = Status::Ok();
    pbOverflow = 0;
    pbDirection = PbDirection::kPush;
}

const std::vector<NodeId> &
PagerankKernel::edgeSources()
{
    if (edgeSrc.empty() && outG->numEdges() > 0) {
        edgeSrc.resize(outG->numEdges());
        for (NodeId u = 0; u < outG->numNodes(); ++u) {
            const EdgeOffset begin = outG->offsetsArray()[u];
            const EdgeOffset end = outG->offsetsArray()[u + 1];
            for (EdgeOffset i = begin; i < end; ++i)
                edgeSrc[i] = u;
        }
    }
    return edgeSrc;
}

const CsrGraph &
PagerankKernel::pullView()
{
    if (!pullCsc)
        pullCsc = std::make_unique<CsrGraph>(CsrGraph::buildTranspose(
            outG->numNodes(), toEdgeList(*outG)));
    return *pullCsc;
}

void
PagerankKernel::computeContrib(ExecCtx &ctx)
{
    // Streaming pass: scores/degree per vertex.
    fillInitialContrib(*outG, contrib);
    for (NodeId u = 0; u < outG->numNodes(); ++u) {
        ctx.instr(2);
        ctx.load(&outG->offsetsArray()[u], 8);
        ctx.store(&contrib[u], 4);
    }
}

void
PagerankKernel::finalizeScores(ExecCtx &ctx)
{
    const float base = (1.0f - kDamping) /
        static_cast<float>(outG->numNodes());
    for (NodeId v = 0; v < outG->numNodes(); ++v) {
        ctx.instr(2);
        ctx.load(&sums[v], 4);
        next[v] = base + kDamping * sums[v];
        ctx.store(&next[v], 4);
    }
}

void
PagerankKernel::runBaseline(ExecCtx &ctx, PhaseRecorder &rec)
{
    resetOutput();
    rec.begin(ctx, phase::kCompute);
    computeContrib(ctx);
    // GAP pull iteration: irregular contrib loads.
    const float base = (1.0f - kDamping) /
        static_cast<float>(outG->numNodes());
    for (NodeId v = 0; v < inG->numNodes(); ++v) {
        ctx.load(&inG->offsetsArray()[v], 8);
        float acc = 0.0f;
        for (NodeId u : inG->neighbors(v)) {
            ctx.load(&u, 4);
            ctx.load(&contrib[u], 4); // irregular load
            ctx.instr(1);
            acc += contrib[u];
        }
        next[v] = base + kDamping * acc;
        ctx.instr(2);
        ctx.store(&next[v], 4);
    }
    rec.end(ctx);
}

void
PagerankKernel::runPb(ExecCtx &ctx, PhaseRecorder &rec, uint32_t max_bins)
{
    resetOutput();
    BinningPlan plan = BinningPlan::forMaxBins(outG->numNodes(), max_bins);
    runPbPipeline<float>(
        ctx, rec, plan,
        [&](auto &&emit) {
            for (NodeId v : outG->neighborsArray()) {
                ctx.load(&v, 4);
                ctx.instr(1);
                emit(v);
            }
        },
        [&](auto &&emit) {
            computeContrib(ctx);
            for (NodeId u = 0; u < outG->numNodes(); ++u) {
                ctx.load(&outG->offsetsArray()[u], 8);
                ctx.load(&contrib[u], 4);
                for (NodeId v : outG->neighbors(u)) {
                    ctx.load(&v, 4);
                    ctx.instr(1);
                    emit(v, contrib[u]);
                }
            }
        },
        [&](const BinTuple<float> &t) {
            ctx.instr(1);
            ctx.load(&sums[t.index], 4);
            sums[t.index] += t.payload;
            ctx.store(&sums[t.index], 4);
        });
    rec.begin(ctx, phase::kAccumulate);
    finalizeScores(ctx);
    rec.end(ctx);
}

void
PagerankKernel::runPbParallel(ThreadPool &pool, PhaseRecorder &rec,
                              uint32_t max_bins,
                              const PbEngineConfig &engine)
{
    resetOutput();
    ExecCtx native; // uninstrumented: full host speed
    const NodeId n = outG->numNodes();
    const uint64_t nupd = outG->numEdges();
    computeContrib(native);
    pbDirection =
        resolvePbDirection(engine.direction, nupd, n, hostCacheBudget());
    BinningPlan plan = BinningPlan::forMaxBins(n, max_bins);
    ParallelPbRunner<float> runner(pool, plan, engine);
    if (pbDirection == PbDirection::kPull) {
        // Pull: gather contrib over the stable CSC. Each destination's
        // in-neighbors appear in out-CSR flat order — the same order
        // the push path drains that destination's bin — so the float
        // sums are bit-identical to push at any thread count.
        const CsrGraph &view = pullView();
        runner.runPull(nupd, rec,
                       [this, &view](uint64_t lo, uint64_t hi) {
                           uint64_t applied = 0;
                           for (uint64_t v = lo; v < hi; ++v) {
                               float acc = sums[v];
                               for (NodeId u : view.neighbors(
                                        static_cast<NodeId>(v)))
                                   acc += contrib[u];
                               sums[v] = acc;
                               applied += view.degree(
                                   static_cast<NodeId>(v));
                           }
                           return applied;
                       });
    } else {
        // Push: the update stream is the out-CSR flat edge array;
        // update i targets neighborsArray()[i] and carries the source's
        // contribution. Commutative float sum, so the privatized
        // sub-range ops enable hot-bin splitting under skewAdaptive.
        const std::vector<NodeId> &dst = outG->neighborsArray();
        const std::vector<NodeId> &src = edgeSources();
        runner.run<float>(
            nupd, rec, [&dst](size_t i) { return dst[i]; },
            [this, &dst, &src](size_t i) {
                return std::pair<uint32_t, float>(dst[i],
                                                  contrib[src[i]]);
            },
            [this](const BinTuple<float> &t) {
                sums[t.index] += t.payload;
            },
            [](const BinTuple<float> &t, float &slot) {
                slot += t.payload;
            },
            [this](uint32_t index, const float &slot) {
                sums[index] += slot;
            });
    }
    pbHealth = runner.conservation();
    pbOverflow = runner.overflowTuples();
    // Same extra Accumulate segment as the sequential runPb: scores
    // are finalized from the accumulated sums.
    rec.begin(native, phase::kAccumulate);
    finalizeScores(native);
    rec.end(native);
}

void
PagerankKernel::runCobra(ExecCtx &ctx, PhaseRecorder &rec,
                         const CobraConfig &cfg)
{
    resetOutput();
    runCobraPipeline<float>(
        ctx, rec, cfg, outG->numNodes(),
        cfg.coalesceAtLlc ? &addFloats : nullptr,
        [&](auto &&emit) {
            for (NodeId v : outG->neighborsArray()) {
                ctx.load(&v, 4);
                ctx.instr(1);
                emit(v);
            }
        },
        [&](auto &&emit) {
            computeContrib(ctx);
            for (NodeId u = 0; u < outG->numNodes(); ++u) {
                ctx.load(&outG->offsetsArray()[u], 8);
                ctx.load(&contrib[u], 4);
                for (NodeId v : outG->neighbors(u)) {
                    ctx.load(&v, 4);
                    ctx.instr(1);
                    emit(v, contrib[u]);
                }
            }
        },
        [&](const BinTuple<float> &t) {
            ctx.instr(1);
            ctx.load(&sums[t.index], 4);
            sums[t.index] += t.payload;
            ctx.store(&sums[t.index], 4);
        });
    rec.begin(ctx, phase::kAccumulate);
    finalizeScores(ctx);
    rec.end(ctx);
}

void
PagerankKernel::runPhi(ExecCtx &ctx, PhaseRecorder &rec, uint32_t max_bins)
{
    resetOutput();
    BinningPlan plan = BinningPlan::forMaxBins(outG->numNodes(), max_bins);
    runPhiPipeline<float>(
        ctx, rec, plan, &addFloats,
        [&](auto &&emit) {
            for (NodeId v : outG->neighborsArray()) {
                ctx.load(&v, 4);
                ctx.instr(1);
                emit(v);
            }
        },
        [&](auto &&emit) {
            computeContrib(ctx);
            for (NodeId u = 0; u < outG->numNodes(); ++u) {
                ctx.load(&outG->offsetsArray()[u], 8);
                ctx.load(&contrib[u], 4);
                for (NodeId v : outG->neighbors(u)) {
                    ctx.load(&v, 4);
                    ctx.instr(1);
                    emit(v, contrib[u]);
                }
            }
        },
        [&](const BinTuple<float> &t) {
            ctx.instr(1);
            ctx.load(&sums[t.index], 4);
            sums[t.index] += t.payload;
            ctx.store(&sums[t.index], 4);
        });
    rec.begin(ctx, phase::kAccumulate);
    finalizeScores(ctx);
    rec.end(ctx);
}

void
PagerankKernel::runCCache(ExecCtx &ctx, PhaseRecorder &rec,
                          const CobraConfig &cfg)
{
    resetOutput();
    // One pass: contributions coalesce per destination in the
    // privatized buffer; evictions apply as direct irregular RMWs on
    // sums. Coalescing reassociates the float sum — covered by the
    // float-vs-double verification tolerance, as with PHI/COBRA-COMM.
    CCacheModel<float> cc(
        ctx, &addFloats,
        [this](ExecCtx &c, uint32_t index, const float &p) {
            c.instr(1);
            c.load(&sums[index], 4);
            sums[index] += p;
            c.store(&sums[index], 4);
        },
        cfg);
    rec.begin(ctx, phase::kCompute);
    computeContrib(ctx);
    for (NodeId u = 0; u < outG->numNodes(); ++u) {
        ctx.load(&outG->offsetsArray()[u], 8);
        ctx.load(&contrib[u], 4);
        for (NodeId v : outG->neighbors(u)) {
            ctx.load(&v, 4);
            cc.update(ctx, v, contrib[u]);
        }
    }
    cc.flush(ctx);
    finalizeScores(ctx);
    rec.end(ctx);
    if (!cc.conserved())
        pbHealth = Status(ErrorCode::kDataLoss,
                          "CCache lost updates: applied + coalesced != "
                          "emitted");
}

bool
PagerankKernel::verify() const
{
    return !firstDivergence().has_value();
}

std::optional<Divergence>
PagerankKernel::firstDivergence() const
{
    for (NodeId v = 0; v < outG->numNodes(); ++v) {
        double want = refNext[v];
        double got = next[v];
        double err = std::abs(got - want);
        if (err > 1e-4 + 1e-3 * std::abs(want)) {
            Divergence d;
            d.element = v;
            d.expected = std::to_string(want);
            d.actual = std::to_string(got);
            d.detail = "score of vertex " + std::to_string(v) +
                " outside float-vs-double tolerance";
            return d;
        }
    }
    return std::nullopt;
}

// ---- Fig 15 convergence helpers ----

namespace {

/** L1 norm of score change. */
double
scoreDelta(const std::vector<float> &a, const std::vector<float> &b)
{
    double d = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        d += std::abs(static_cast<double>(a[i]) - b[i]);
    return d;
}

double
costOf(ExecCtx &ctx, const Timer &t, double cycles_before)
{
    return ctx.simulated() ? ctx.cycles() - cycles_before : t.seconds();
}

} // namespace

PagerankRunResult
pagerankPullToConvergence(ExecCtx &ctx, const CsrGraph &in,
                          const CsrGraph &out, double tol,
                          uint32_t max_iters)
{
    const NodeId n = in.numNodes();
    PagerankRunResult res;
    std::vector<float> scores(n, 1.0f / static_cast<float>(n));
    std::vector<float> nxt(n, 0.0f);
    std::vector<float> contrib(n, 0.0f);
    const float base = (1.0f - PagerankKernel::kDamping) /
        static_cast<float>(n);

    Timer t;
    double c0 = ctx.cycles();
    for (uint32_t it = 0; it < max_iters; ++it) {
        for (NodeId u = 0; u < n; ++u) {
            ctx.instr(2);
            ctx.load(&scores[u], 4);
            EdgeOffset d = out.degree(u);
            contrib[u] = d ? scores[u] / static_cast<float>(d) : 0.0f;
            ctx.store(&contrib[u], 4);
        }
        for (NodeId v = 0; v < n; ++v) {
            ctx.load(&in.offsetsArray()[v], 8);
            float acc = 0.0f;
            for (NodeId u : in.neighbors(v)) {
                ctx.load(&u, 4);
                ctx.load(&contrib[u], 4);
                ctx.instr(1);
                acc += contrib[u];
            }
            nxt[v] = base + PagerankKernel::kDamping * acc;
            ctx.instr(2);
            ctx.store(&nxt[v], 4);
        }
        ++res.iterations;
        double delta = scoreDelta(scores, nxt);
        scores.swap(nxt);
        if (delta < tol)
            break;
    }
    res.iterCost = costOf(ctx, t, c0);
    res.scores = std::move(scores);
    return res;
}

PagerankRunResult
pagerankPbToConvergence(ExecCtx &ctx, const CsrGraph &out,
                        uint32_t max_bins, double tol, uint32_t max_iters)
{
    const NodeId n = out.numNodes();
    PagerankRunResult res;
    std::vector<float> scores(n, 1.0f / static_cast<float>(n));
    std::vector<float> nxt(n, 0.0f);
    std::vector<float> contrib(n, 0.0f);
    const float base = (1.0f - PagerankKernel::kDamping) /
        static_cast<float>(n);

    // One-time init: size the bins (PB's only preprocessing; Fig 15's
    // point is that this is much cheaper than building per-tile CSRs).
    Timer ti;
    double ci = ctx.cycles();
    BinningPlan plan = BinningPlan::forMaxBins(n, max_bins);
    PbBinner<float> binner(plan);
    for (NodeId v : out.neighborsArray()) {
        ctx.load(&v, 4);
        ctx.instr(1);
        binner.initCount(ctx, v);
    }
    binner.finalizeInit(ctx);
    res.initCost = costOf(ctx, ti, ci);

    Timer t;
    double c0 = ctx.cycles();
    for (uint32_t it = 0; it < max_iters; ++it) {
        binner.storage().resetCursors();
        for (NodeId u = 0; u < n; ++u) {
            ctx.instr(2);
            ctx.load(&scores[u], 4);
            EdgeOffset d = out.degree(u);
            contrib[u] = d ? scores[u] / static_cast<float>(d) : 0.0f;
            ctx.store(&contrib[u], 4);
        }
        for (NodeId u = 0; u < n; ++u) {
            ctx.load(&out.offsetsArray()[u], 8);
            ctx.load(&contrib[u], 4);
            for (NodeId v : out.neighbors(u)) {
                ctx.load(&v, 4);
                ctx.instr(1);
                binner.insert(ctx, v, contrib[u]);
            }
        }
        binner.flush(ctx);
        std::fill(nxt.begin(), nxt.end(), 0.0f);
        for (uint32_t b = 0; b < binner.numBins(); ++b) {
            binner.forEachInBin(ctx, b, [&](const BinTuple<float> &tp) {
                ctx.instr(1);
                ctx.load(&nxt[tp.index], 4);
                nxt[tp.index] += tp.payload;
                ctx.store(&nxt[tp.index], 4);
            });
        }
        for (NodeId v = 0; v < n; ++v) {
            ctx.instr(2);
            ctx.load(&nxt[v], 4);
            nxt[v] = base + PagerankKernel::kDamping * nxt[v];
            ctx.store(&nxt[v], 4);
        }
        ++res.iterations;
        double delta = scoreDelta(scores, nxt);
        scores.swap(nxt);
        if (delta < tol)
            break;
    }
    res.iterCost = costOf(ctx, t, c0);
    res.scores = std::move(scores);
    return res;
}

PagerankRunResult
pagerankTiledToConvergence(ExecCtx &ctx, const CsrGraph &in,
                           const CsrGraph &out, NodeId segment_vertices,
                           double tol, uint32_t max_iters)
{
    const NodeId n = in.numNodes();
    PagerankRunResult res;

    // One-time init: build all per-segment CSRs (Fig 15 shaded cost).
    Timer ti;
    double ci = ctx.cycles();
    SegmentedCsr seg = SegmentedCsr::build(ctx, in, segment_vertices);
    res.initCost = costOf(ctx, ti, ci);

    std::vector<float> scores(n, 1.0f / static_cast<float>(n));
    std::vector<float> nxt(n, 0.0f);
    std::vector<float> contrib(n, 0.0f);
    const float base = (1.0f - PagerankKernel::kDamping) /
        static_cast<float>(n);

    Timer t;
    double c0 = ctx.cycles();
    for (uint32_t it = 0; it < max_iters; ++it) {
        for (NodeId u = 0; u < n; ++u) {
            ctx.instr(2);
            ctx.load(&scores[u], 4);
            EdgeOffset d = out.degree(u);
            contrib[u] = d ? scores[u] / static_cast<float>(d) : 0.0f;
            ctx.store(&contrib[u], 4);
        }
        std::fill(nxt.begin(), nxt.end(), 0.0f);
        seg.pullIteration(ctx, contrib, nxt);
        for (NodeId v = 0; v < n; ++v) {
            ctx.instr(2);
            ctx.load(&nxt[v], 4);
            nxt[v] = base + PagerankKernel::kDamping * nxt[v];
            ctx.store(&nxt[v], 4);
        }
        ++res.iterations;
        double delta = scoreDelta(scores, nxt);
        scores.swap(nxt);
        if (delta < tol)
            break;
    }
    res.iterCost = costOf(ctx, t, c0);
    res.scores = std::move(scores);
    return res;
}

} // namespace cobra
