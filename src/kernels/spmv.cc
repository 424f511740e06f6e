#include "src/kernels/spmv.h"

#include <cmath>

#include "src/core/ccache.h"
#include "src/kernels/pipelines.h"
#include "src/pb/auto_tune.h"
#include "src/pb/parallel_pb.h"
#include "src/sparse/reference.h"

namespace cobra {

namespace {

void
addDoubles(double &dst, const double &src)
{
    dst += src;
}

} // namespace

SpmvKernel::SpmvKernel(const CsrMatrix *a, const CsrMatrix *at,
                       const std::vector<double> *x)
    : a_(a), at_(at), x_(x)
{
    refY = spmvRef(*a, *x);
}

void
SpmvKernel::resetOutput()
{
    y.assign(a_->numRows(), 0.0);
    // Health reflects the *most recent* run: any technique starts clean.
    pbHealth = Status::Ok();
    pbOverflow = 0;
    pbDirection = PbDirection::kPush;
}

void
SpmvKernel::buildPushStream()
{
    if (!nzCol.empty() || at_->nnz() == 0)
        return;
    nzCol.resize(at_->nnz());
    for (uint32_t c = 0; c < at_->numRows(); ++c)
        for (uint64_t i = at_->rowStart(c); i < at_->rowEnd(c); ++i)
            nzCol[i] = c;
}

void
SpmvKernel::buildPullView()
{
    if (!pullPtr.empty())
        return;
    // Stable counting sort of A^T's flat nonzeros by destination row:
    // per-row entry order is the A^T stream order push applies.
    const uint32_t rows = a_->numRows();
    const auto &col_idx = at_->colIdxArray();
    const auto &vals = at_->valsArray();
    pullPtr.assign(rows + 1, 0);
    for (uint32_t r : col_idx)
        ++pullPtr[r + 1];
    for (uint32_t r = 0; r < rows; ++r)
        pullPtr[r + 1] += pullPtr[r];
    pullCol.resize(at_->nnz());
    pullVal.resize(at_->nnz());
    std::vector<uint64_t> cursor(pullPtr.begin(), pullPtr.end() - 1);
    for (uint32_t c = 0; c < at_->numRows(); ++c)
        for (uint64_t i = at_->rowStart(c); i < at_->rowEnd(c); ++i) {
            const uint64_t pos = cursor[col_idx[i]]++;
            pullCol[pos] = c;
            pullVal[pos] = vals[i];
        }
}

void
SpmvKernel::runBaseline(ExecCtx &ctx, PhaseRecorder &rec)
{
    resetOutput();
    rec.begin(ctx, phase::kCompute);
    const auto &col_idx = a_->colIdxArray();
    const auto &vals = a_->valsArray();
    for (uint32_t r = 0; r < a_->numRows(); ++r) {
        ctx.load(&a_->rowPtrArray()[r], 8);
        double acc = 0.0;
        for (uint64_t i = a_->rowStart(r); i < a_->rowEnd(r); ++i) {
            ctx.load(&col_idx[i], 4);
            ctx.load(&vals[i], 8);
            ctx.load(&(*x_)[col_idx[i]], 8); // irregular load of x
            ctx.instr(2);
            acc += vals[i] * (*x_)[col_idx[i]];
        }
        y[r] = acc;
        ctx.instr(1);
        ctx.store(&y[r], 8);
    }
    rec.end(ctx);
}

namespace {

/** Binning streams A^T: one update per nonzero, payload = v * x[col]. */
template <typename Emit>
void
forEachSpmvUpdate(ExecCtx &ctx, const CsrMatrix &at,
                  const std::vector<double> &x, Emit &&emit)
{
    const auto &col_idx = at.colIdxArray();
    const auto &vals = at.valsArray();
    for (uint32_t c = 0; c < at.numRows(); ++c) {
        ctx.load(&at.rowPtrArray()[c], 8);
        ctx.load(&x[c], 8); // streaming: x is swept in order
        const double xc = x[c];
        for (uint64_t i = at.rowStart(c); i < at.rowEnd(c); ++i) {
            ctx.load(&col_idx[i], 4);
            ctx.load(&vals[i], 8);
            ctx.instr(2);
            emit(col_idx[i], vals[i] * xc);
        }
    }
}

template <typename Emit>
void
forEachSpmvIndex(ExecCtx &ctx, const CsrMatrix &at, Emit &&emit)
{
    const auto &col_idx = at.colIdxArray();
    for (uint64_t i = 0; i < at.nnz(); ++i) {
        ctx.load(&col_idx[i], 4);
        ctx.instr(1);
        emit(col_idx[i]);
    }
}

} // namespace

void
SpmvKernel::runPb(ExecCtx &ctx, PhaseRecorder &rec, uint32_t max_bins)
{
    resetOutput();
    BinningPlan plan = BinningPlan::forMaxBins(a_->numRows(), max_bins);
    runPbPipeline<double>(
        ctx, rec, plan,
        [&](auto &&emit) { forEachSpmvIndex(ctx, *at_, emit); },
        [&](auto &&emit) { forEachSpmvUpdate(ctx, *at_, *x_, emit); },
        [&](const BinTuple<double> &t) {
            ctx.instr(1);
            ctx.load(&y[t.index], 8);
            y[t.index] += t.payload;
            ctx.store(&y[t.index], 8);
        });
}

void
SpmvKernel::runPbParallel(ThreadPool &pool, PhaseRecorder &rec,
                          uint32_t max_bins, const PbEngineConfig &engine)
{
    resetOutput();
    const uint32_t rows = a_->numRows();
    const uint64_t nupd = at_->nnz();
    pbDirection = resolvePbDirection(engine.direction, nupd, rows,
                                     hostCacheBudget());
    BinningPlan plan = BinningPlan::forMaxBins(rows, max_bins);
    ParallelPbRunner<double> runner(pool, plan, engine);
    if (pbDirection == PbDirection::kPull) {
        // Pull: gather each destination row's (column, value) pairs
        // from the stable re-transpose; products accumulate in the
        // same order the push path drains that row's bin, so y is
        // bit-identical to push at any thread count.
        buildPullView();
        const std::vector<double> &x = *x_;
        runner.runPull(
            nupd, rec, [this, &x](uint64_t lo, uint64_t hi) {
                uint64_t applied = 0;
                for (uint64_t r = lo; r < hi; ++r) {
                    double acc = y[r];
                    for (uint64_t j = pullPtr[r]; j < pullPtr[r + 1];
                         ++j)
                        acc += pullVal[j] * x[pullCol[j]];
                    y[r] = acc;
                    applied += pullPtr[r + 1] - pullPtr[r];
                }
                return applied;
            });
    } else {
        // Push: the update stream is A^T's flat nonzero array; update
        // i targets A row colIdx[i] and carries vals[i] * x[column].
        buildPushStream();
        const auto &col_idx = at_->colIdxArray();
        const auto &vals = at_->valsArray();
        const std::vector<double> &x = *x_;
        runner.run(
            nupd, rec, [&col_idx](size_t i) { return col_idx[i]; },
            [this, &col_idx, &vals, &x](size_t i) {
                return std::pair<uint32_t, double>(
                    col_idx[i], vals[i] * x[nzCol[i]]);
            },
            [this](const BinTuple<double> &t) {
                y[t.index] += t.payload;
            });
    }
    pbHealth = runner.conservation();
    pbOverflow = runner.overflowTuples();
}

void
SpmvKernel::runCobra(ExecCtx &ctx, PhaseRecorder &rec,
                     const CobraConfig &cfg)
{
    resetOutput();
    runCobraPipeline<double>(
        ctx, rec, cfg, a_->numRows(),
        cfg.coalesceAtLlc ? &addDoubles : nullptr,
        [&](auto &&emit) { forEachSpmvIndex(ctx, *at_, emit); },
        [&](auto &&emit) { forEachSpmvUpdate(ctx, *at_, *x_, emit); },
        [&](const BinTuple<double> &t) {
            ctx.instr(1);
            ctx.load(&y[t.index], 8);
            y[t.index] += t.payload;
            ctx.store(&y[t.index], 8);
        });
}

void
SpmvKernel::runPhi(ExecCtx &ctx, PhaseRecorder &rec, uint32_t max_bins)
{
    resetOutput();
    BinningPlan plan = BinningPlan::forMaxBins(a_->numRows(), max_bins);
    runPhiPipeline<double>(
        ctx, rec, plan, &addDoubles,
        [&](auto &&emit) { forEachSpmvIndex(ctx, *at_, emit); },
        [&](auto &&emit) { forEachSpmvUpdate(ctx, *at_, *x_, emit); },
        [&](const BinTuple<double> &t) {
            ctx.instr(1);
            ctx.load(&y[t.index], 8);
            y[t.index] += t.payload;
            ctx.store(&y[t.index], 8);
        });
}

void
SpmvKernel::runCCache(ExecCtx &ctx, PhaseRecorder &rec,
                      const CobraConfig &cfg)
{
    resetOutput();
    // One pass over A^T: partial products coalesce per destination row
    // in the privatized buffer; evictions and the final flush apply as
    // direct irregular RMWs on y.
    CCacheModel<double> cc(
        ctx, &addDoubles,
        [this](ExecCtx &c, uint32_t index, const double &sum) {
            c.instr(1);
            c.load(&y[index], 8);
            y[index] += sum;
            c.store(&y[index], 8);
        },
        cfg);
    rec.begin(ctx, phase::kCompute);
    forEachSpmvUpdate(ctx, *at_, *x_,
                      [&](uint32_t row, double v) { cc.update(ctx, row, v); });
    cc.flush(ctx);
    rec.end(ctx);
    if (!cc.conserved())
        pbHealth = Status(ErrorCode::kDataLoss,
                          "CCache lost updates: applied + coalesced != "
                          "emitted");
}

bool
SpmvKernel::verify() const
{
    return !firstDivergence().has_value();
}

std::optional<Divergence>
SpmvKernel::firstDivergence() const
{
    for (uint32_t r = 0; r < a_->numRows(); ++r) {
        double err = std::abs(y[r] - refY[r]);
        if (err > 1e-9 + 1e-9 * std::abs(refY[r])) {
            Divergence d;
            d.element = r;
            d.expected = std::to_string(refY[r]);
            d.actual = std::to_string(y[r]);
            d.detail = "y[" + std::to_string(r) +
                "] outside reassociation tolerance";
            return d;
        }
    }
    return std::nullopt;
}

} // namespace cobra
