#include "src/resilience/run_supervisor.h"

#include <optional>
#include <sstream>
#include <thread>

#include "src/kernels/kernel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/resilience/cancel.h"
#include "src/resilience/memory_budget.h"
#include "src/resilience/watchdog.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace cobra {

std::string
SupervisorReport::toString() const
{
    std::ostringstream oss;
    oss << (ok ? "recovered" : "FAILED") << " after " << attempts.size()
        << " attempt(s), " << retries << " retr"
        << (retries == 1 ? "y" : "ies") << ", " << degradations
        << " degradation(s); final: ";
    if (usedBaseline)
        oss << "serial reference";
    else
        oss << to_string(finalEngine.kind) << "/" << finalBins << " bins/"
            << to_string(finalEngine.direction);
    for (const AttemptRecord &a : attempts) {
        oss << "\n  attempt " << a.attempt << " [";
        if (a.baseline)
            oss << "baseline";
        else
            oss << to_string(a.engine.kind) << "/" << a.bins << " bins/"
                << a.engine.wcLines << " wc-line(s)/"
                << to_string(a.engine.direction);
        oss << "] " << (a.outcome.ok() ? "ok" : a.outcome.toString());
        if (a.overflowTuples != 0)
            oss << " (overflow " << a.overflowTuples << ")";
    }
    return oss.str();
}

bool
RunSupervisor::degrade(PbEngineConfig &engine, uint32_t &bins,
                       bool &baseline, ErrorCode why) const
{
    if (baseline)
        return false; // already on the last rung
    if (why == ErrorCode::kResourceExhausted) {
        // Footprint first: a shallower/coarser plan of the *same*
        // engine usually fits where a simpler engine would not.
        if (engine.wcLines > 1) {
            engine.wcLines = 1;
            return true;
        }
        if (bins > cfg_.minBins) {
            bins = std::max(cfg_.minBins, bins / 2);
            return true;
        }
        if (engine.direction != PbDirection::kPull) {
            // Once the plan cannot shrink further, flip the direction:
            // pull Accumulate gathers from the kernel's destination-
            // indexed view and allocates no bin storage at all, so it
            // fits where even the smallest push plan does not.
            engine.direction = PbDirection::kPull;
            return true;
        }
    }
    switch (engine.kind) {
      case PbEngineKind::kWriteCombine:
        engine.kind = PbEngineKind::kScalar;
        return true;
      case PbEngineKind::kScalar:
        if (cfg_.allowBaselineFallback) {
            baseline = true;
            return true;
        }
        return false;
    }
    return false;
}

SupervisorReport
RunSupervisor::runPbParallel(Kernel &kernel, ThreadPool &pool,
                             PhaseRecorder &rec, uint32_t bins,
                             PbEngineConfig engine)
{
    SupervisorReport report;
    Rng jitter(cfg_.retry.seed);
    bool baseline = false;
    MetricsRegistry *reg = MetricsRegistry::active();

    const uint32_t max_attempts = std::max(1u, cfg_.retry.maxAttempts);
    for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        // The overall (client) deadline bounds the whole ladder: clamp
        // this attempt's watchdog to the remaining budget, and stop
        // retrying entirely once the budget is spent — a degraded rung
        // the client will never wait for is wasted work.
        std::chrono::milliseconds attempt_deadline = cfg_.deadline;
        if (cfg_.overallDeadline) {
            const auto remaining =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *cfg_.overallDeadline -
                    std::chrono::steady_clock::now());
            if (remaining.count() <= 0) {
                report.finalStatus = Status(
                    ErrorCode::kDeadlineExceeded,
                    kernel.name() +
                        ": overall deadline expired before attempt " +
                        std::to_string(attempt));
                break;
            }
            attempt_deadline = attempt_deadline.count() > 0
                                   ? std::min(attempt_deadline, remaining)
                                   : remaining;
        }
        // Phase brackets of abandoned attempts are dropped: after the
        // loop the recorder holds exactly the final attempt's phases.
        if (attempt > 1)
            rec.clear();
        AttemptRecord rec_a;
        rec_a.attempt = attempt;
        rec_a.engine = engine;
        rec_a.bins = bins;
        rec_a.baseline = baseline;

        TraceSpan sp("supervisor.attempt", "resilience");
        sp.arg("attempt", attempt);
        sp.arg("engine", static_cast<uint64_t>(engine.kind));
        sp.arg("bins", bins);
        if (reg)
            reg->counter("resilience.attempts")->inc();

        Timer t;
        {
            // Scope order matters: the Watchdog is destroyed (joined)
            // before the token scope ends, and binner allocations made
            // by the kernel live strictly inside the budget scope.
            CancelToken token;
            CancelToken::Scope token_scope(token);
            std::optional<MemoryBudget> budget;
            std::optional<MemoryBudget::Scope> budget_scope;
            if (cfg_.memBudgetBytes != 0) {
                budget.emplace(cfg_.memBudgetBytes);
                budget_scope.emplace(*budget);
            }
            Watchdog wd(token);
            if (attempt_deadline.count() > 0) {
                std::ostringstream what;
                what << kernel.name() << " supervised attempt " << attempt;
                wd.arm(attempt_deadline, what.str());
            }
            try {
                if (baseline) {
                    // Last rung: the serial reference. No binning
                    // memory, no pool — and no checkpoints, so the
                    // watchdog cannot interrupt it (see watchdog.h).
                    ExecCtx ctx;
                    kernel.runBaseline(ctx, rec);
                } else {
                    kernel.runPbParallel(pool, rec, bins, engine);
                }
            } catch (const Error &e) {
                rec_a.outcome = Status::FromError(e);
                // The exception unwound between begin()/end(): drop the
                // partial phase so the next attempt can bracket anew.
                rec.abandonOpenPhase();
            }
            wd.disarm();
        }

        if (rec_a.outcome.ok() && !baseline) {
            // Conservation verdict of the parallel runner (dropped /
            // duplicated / overflowed tuples at the phase barrier).
            if (Status h = kernel.lastRunHealth(); !h.ok())
                rec_a.outcome = h;
            rec_a.overflowTuples = kernel.lastOverflowTuples();
        }
        if (rec_a.outcome.ok()) {
            // Oracle certification: element-level comparison against
            // the kernel's serial golden reference.
            if (auto d = kernel.firstDivergence()) {
                std::ostringstream oss;
                oss << "output diverges from the serial reference at "
                       "element "
                    << d->element << " (expected " << d->expected
                    << ", got " << d->actual << "): " << d->detail;
                rec_a.outcome = Status(ErrorCode::kDataLoss, oss.str());
            }
        }
        rec_a.seconds = t.seconds();
        report.attempts.push_back(rec_a);

        if (rec_a.outcome.ok()) {
            report.ok = true;
            report.finalStatus = Status::Ok();
            break;
        }
        report.finalStatus = rec_a.outcome;
        if (!RetryPolicy::isRetryable(rec_a.outcome.code()))
            break;
        if (attempt == max_attempts)
            break;

        warn("supervised " + kernel.name() + " attempt " +
             std::to_string(attempt) + " failed (" +
             rec_a.outcome.toString() + "); retrying degraded");
        if (degrade(engine, bins, baseline, rec_a.outcome.code())) {
            ++report.degradations;
            if (reg)
                reg->counter("resilience.degradations")->inc();
        }
        ++report.retries;
        if (reg)
            reg->counter("resilience.retries")->inc();
        auto delay = cfg_.retry.delayFor(attempt + 1, jitter);
        if (cfg_.overallDeadline) {
            // Never sleep past the overall deadline: clamp so the next
            // iteration's budget check fires promptly instead of the
            // backoff itself blowing the client's contract.
            const auto remaining =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *cfg_.overallDeadline -
                    std::chrono::steady_clock::now());
            delay = std::min(delay, std::max(remaining,
                                             std::chrono::milliseconds(0)));
        }
        if (delay.count() > 0)
            std::this_thread::sleep_for(delay);
    }

    report.usedBaseline =
        !report.attempts.empty() && report.attempts.back().baseline;
    report.finalEngine = engine;
    report.finalBins = bins;
    if (reg && !report.ok)
        reg->counter("resilience.failures")->inc();
    return report;
}

} // namespace cobra
