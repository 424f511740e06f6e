/**
 * @file
 * RunSupervisor: retry-with-degradation around Kernel::runPbParallel.
 *
 * The supervisor is the recovery layer the ROADMAP's serving story
 * needs: it wraps one native parallel PB execution with
 *
 *  - a Watchdog-armed deadline (a stalled shard becomes a typed
 *    kDeadlineExceeded error at the next cancellation checkpoint,
 *    never a hang),
 *  - a MemoryBudget (an over-budget plan becomes kResourceExhausted
 *    before the allocator is even asked),
 *  - a RetryPolicy-driven attempt loop that, on every *recoverable*
 *    failure, re-runs with a degraded engine configuration:
 *
 *        wc -> scalar -> serial reference (runBaseline)
 *
 *    kResourceExhausted additionally shrinks the footprint first — WC
 *    depth to one line, then halving the bin count down to a floor,
 *    then flipping to pull — before stepping the engine down, because
 *    a smaller plan usually fits where a simpler engine would not be
 *    faster.
 *
 * Every attempt's result (including the final rung's) is re-verified
 * against the kernel's serial golden reference via the differential
 * oracle's element-level hook (Kernel::firstDivergence) plus the
 * parallel runner's conservation verdict (Kernel::lastRunHealth), so a
 * "recovered" run is only reported ok when it is certified identical
 * to the reference — a supervisor that silently returned corrupt
 * results would be worse than one that failed loudly.
 *
 * Metrics (when a MetricsRegistry is installed): resilience.attempts,
 * resilience.retries, resilience.degradations, plus the Watchdog's
 * watchdog.trips; each attempt is bracketed by a supervisor.attempt
 * trace span.
 */

#ifndef COBRA_RESILIENCE_RUN_SUPERVISOR_H
#define COBRA_RESILIENCE_RUN_SUPERVISOR_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/pb/engine_config.h"
#include "src/resilience/retry_policy.h"
#include "src/util/error.h"

namespace cobra {

class Kernel;
class PhaseRecorder;
class ThreadPool;

/** Knobs for one supervised run. */
struct SupervisorConfig
{
    /** Per-attempt watchdog deadline; 0 disables the watchdog. */
    std::chrono::milliseconds deadline{0};

    /**
     * Absolute wall-clock bound across the *whole* run — every attempt
     * plus the backoff sleeps between them. This is the client-facing
     * contract the batch server propagates from a request deadline:
     * each attempt's watchdog is clamped to the remaining overall
     * budget (so a stalled shard surfaces as kDeadlineExceeded before
     * the client gives up, and the degradation ladder keeps running
     * only while time remains), backoff never overshoots it, and once
     * it expires between attempts the run fails kDeadlineExceeded
     * without another try. Unset = unbounded (the historical CLI
     * behaviour).
     */
    std::optional<std::chrono::steady_clock::time_point> overallDeadline;

    /** Attempt/backoff schedule. */
    RetryPolicy retry;

    /** Per-attempt aligned-allocation budget in bytes; 0 = unlimited. */
    uint64_t memBudgetBytes = 0;

    /**
     * Allow the last ladder rung: the kernel's serial reference
     * (runBaseline), which needs no binning memory and no pool — the
     * PHI-style "degrade to plain updates" endpoint.
     */
    bool allowBaselineFallback = true;

    /** Floor for the bin-halving footprint degradation. */
    uint32_t minBins = 16;
};

/** What one attempt ran and how it ended. */
struct AttemptRecord
{
    uint32_t attempt = 0; ///< 1-based
    PbEngineConfig engine;
    uint32_t bins = 0;
    bool baseline = false; ///< serial-reference rung (engine unused)
    Status outcome;        ///< ok, or why the attempt failed
    double seconds = 0.0;
    uint64_t overflowTuples = 0;
};

/** Full history of one supervised run. */
struct SupervisorReport
{
    bool ok = false;
    Status finalStatus;
    std::vector<AttemptRecord> attempts;
    uint32_t retries = 0;      ///< attempts beyond the first
    uint32_t degradations = 0; ///< config downgrades applied
    bool usedBaseline = false; ///< final result came from the serial rung
    PbEngineConfig finalEngine;
    uint32_t finalBins = 0;

    std::string toString() const;
};

/** Drives supervised executions of Kernel::runPbParallel. */
class RunSupervisor
{
  public:
    explicit RunSupervisor(SupervisorConfig cfg) : cfg_(cfg) {}

    /**
     * Run @p kernel's native parallel PB under the configured deadline,
     * budget, and retry ladder, starting from (@p bins, @p engine).
     * Returns the attempt history; report.ok means the final attempt's
     * output is oracle-certified identical to the serial reference.
     * Throws only on unrecoverable *non*-cobra exceptions (internal
     * bugs); every cobra::Error becomes an AttemptRecord outcome.
     */
    SupervisorReport runPbParallel(Kernel &kernel, ThreadPool &pool,
                                   PhaseRecorder &rec, uint32_t bins,
                                   PbEngineConfig engine = {});

    const SupervisorConfig &config() const { return cfg_; }

  private:
    /**
     * Step the degradation ladder in place. Returns false when no
     * further degradation exists (the ladder is exhausted).
     */
    bool degrade(PbEngineConfig &engine, uint32_t &bins, bool &baseline,
                 ErrorCode why) const;

    SupervisorConfig cfg_;
};

} // namespace cobra

#endif // COBRA_RESILIENCE_RUN_SUPERVISOR_H
