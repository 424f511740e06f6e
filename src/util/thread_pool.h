/**
 * @file
 * A small fixed-size thread pool with a blocked-range parallelFor and
 * per-submitter task groups.
 *
 * Software PB is a parallel optimization: every thread owns private bins and
 * coalescing buffers so Binning needs no synchronization (paper Section
 * III-A). Three subsystems run on this pool:
 *
 *  - the native (wall-clock) parallel PB runtime (src/pb/parallel_pb.h),
 *    which shards the update stream across per-thread PbBinners;
 *  - the host-parallel multicore simulator (src/harness/parallel.h), which
 *    dispatches each simulated core's between-barrier work onto a worker;
 *  - the batch server (src/server/), whose dispatcher threads run several
 *    *concurrent* supervised PB executions on one shared pool.
 *
 * The third consumer is why tasks are organized into **groups**. wait()
 * used to be a whole-pool barrier; with two tenants' runs interleaved in
 * the queue that would make each request wait on the other's shards (and
 * collect the other's failures). Instead every task belongs to a
 * ThreadPool::Group — by default a per-pool implicit group (so the
 * single-client behaviour is exactly the historical one), or the group
 * installed on the submitting thread via Group::Scope. wait() blocks on
 * and rethrows from the *caller's* group only.
 *
 * Execution-scope inheritance: library code finds its run-scoped
 * services (CancelToken, MemoryBudget, FaultInjector — see
 * src/resilience/cancel.h for the pattern) through per-thread active
 * pointers. enqueue() snapshots the submitting thread's three pointers
 * and the worker installs them around the task body, so a shard always
 * observes the cancellation token, memory budget, and fault plan of the
 * run that spawned it — never a concurrent run's.
 *
 * A task that throws does not take the process down: the pool captures
 * every task exception into the task's group and rethrows from wait()
 * (and therefore from parallelFor), after every in-flight task of that
 * group has finished. A single failure is rethrown as-is; when several
 * tasks failed in one wait() window the first is rethrown with a summary
 * of the others appended, so concurrent secondary failures are never
 * silently dropped.
 *
 * The pool is also cancellation-aware: once a task's inherited
 * CancelToken is cancelled, workers stop *starting* that run's queued
 * tasks — each skipped task completes immediately and the cancellation
 * Status surfaces from wait() if no task exception was captured first.
 * Tasks already running unwind at their own cancellation checkpoints.
 * Other groups' tasks are untouched: one tenant's tripped deadline never
 * sheds a neighbour's work.
 */

#ifndef COBRA_UTIL_THREAD_POOL_H
#define COBRA_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/error.h"

namespace cobra {

class CancelToken;
class MemoryBudget;
class FaultInjector;

/**
 * CLI-boundary guard for a user-supplied worker count (the pool itself
 * treats 0 as "hardware"; an *explicit* 0, negative, or absurd request
 * is a typo the run should reject, not silently reinterpret — same
 * contract as validatePbBinCount in src/pb/bin_range.h).
 */
inline Status
validateThreadCount(long long threads)
{
    constexpr long long kMaxThreads = 4096;
    if (threads <= 0)
        return Status(ErrorCode::kInvalidArgument,
                      "thread count must be positive");
    if (threads > kMaxThreads)
        return Status(ErrorCode::kInvalidArgument,
                      "thread count " + std::to_string(threads) +
                          " exceeds the sanity cap of " +
                          std::to_string(kMaxThreads));
    return Status::Ok();
}

/** Fixed-size worker pool. Tasks are void() callables. */
class ThreadPool
{
  public:
    /**
     * @param num_threads 0 means hardware_concurrency (at least 1).
     * Workers are not pinned to CPUs.
     */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * One client's slice of the pool: a private in-flight counter and
     * failure set, so concurrent clients can share the workers without
     * sharing a barrier. Construct one per logical run (the batch
     * server's dispatcher makes one per request), install it with
     * Group::Scope, and every enqueue()/wait() on the installing thread
     * — including those inside Kernel::runPbParallel, which knows
     * nothing about groups — routes to it.
     *
     * The destructor drains any still-queued tasks of the group
     * (discarding their errors with a warning), so a group can never
     * dangle under its in-flight tasks even when its owner unwinds.
     */
    class Group
    {
      public:
        explicit Group(ThreadPool &pool) : pool_(pool) {}
        ~Group();
        Group(const Group &) = delete;
        Group &operator=(const Group &) = delete;

        ThreadPool &pool() const { return pool_; }

        /** Route the calling thread's enqueue/wait to @p g. Nests. */
        class Scope
        {
          public:
            explicit Scope(Group &g);
            ~Scope();
            Scope(const Scope &) = delete;
            Scope &operator=(const Scope &) = delete;

          private:
            Group *prev_;
        };

      private:
        friend class ThreadPool;
        ThreadPool &pool_;
        size_t inFlight = 0;                     ///< guarded by pool mtx
        std::vector<std::exception_ptr> errors;  ///< guarded by pool mtx
    };

    size_t numThreads() const { return workers.size(); }

    /**
     * Index of the pool worker executing the caller, or -1 off-pool
     * (e.g. on the thread that owns the pool). Stable for the worker's
     * lifetime; used by the observability layer to attribute trace
     * spans to the emitting worker.
     */
    static int currentWorkerId();

    /**
     * Enqueue a task into the calling thread's current group (the
     * installed Group::Scope, else this pool's implicit default group);
     * returns immediately. The task inherits the submitting thread's
     * active CancelToken / MemoryBudget / FaultInjector.
     */
    void enqueue(std::function<void()> task);

    /**
     * Block until every task enqueued into the calling thread's current
     * group has finished. If any of that group's tasks threw, rethrows
     * here (and clears the group's captured set, so the group stays
     * usable): one failure is rethrown unchanged; multiple failures
     * rethrow the first with "(+N more task failure(s): ...)" appended
     * when it is a cobra::Error (foreign exception types are rethrown
     * as-is and the secondary messages go to warn()).
     */
    void wait();

    /**
     * Run fn(block_id, begin, end) over [0, n) split into one contiguous
     * block per worker (never more blocks than n, never an empty block).
     * Blocks until all blocks complete; rethrows the first task exception.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t, size_t)> &fn);

  private:
    /** One queued task plus its group and inherited execution scope. */
    struct Pending
    {
        std::function<void()> fn;
        Group *group;
        CancelToken *token;
        MemoryBudget *budget;
        FaultInjector *injector;
    };

    void workerLoop(size_t worker_id);

    /** The calling thread's group on this pool (default when none). */
    Group &currentGroup();

    /** Drain @p g's tasks without throwing (dtor path). */
    void drainGroup(Group &g);

    std::vector<std::thread> workers;
    std::queue<Pending> tasks;
    std::mutex mtx;
    std::condition_variable cvTask;
    std::condition_variable cvDone;
    bool stopping = false;

    /** Single-client fallback so the historical API needs no Group. */
    Group defaultGroup_{*this};
};

} // namespace cobra

#endif // COBRA_UTIL_THREAD_POOL_H
