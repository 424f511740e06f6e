#include "src/util/thread_pool.h"

#include <algorithm>
#include <string>

#include "src/check/fault_injector.h"
#include "src/resilience/cancel.h"
#include "src/resilience/memory_budget.h"
#include "src/util/error.h"

namespace cobra {

namespace {
// -1 on threads that are not pool workers (including the pool's owner).
thread_local int tl_worker_id = -1;

// The group enqueue()/wait() route to on this thread (Group::Scope).
// Null means "the pool's implicit default group" — the single-client
// behaviour every pre-server call site relies on.
thread_local ThreadPool::Group *tl_current_group = nullptr;

std::string
describeException(const std::exception_ptr &p)
{
    try {
        std::rethrow_exception(p);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "non-std exception";
    }
}

// Error::what() is "<code-name>: <msg>"; recover <msg> so re-wrapping an
// aggregated Error does not stutter the code prefix.
std::string
stripCodePrefix(const Error &e)
{
    std::string msg = e.what();
    const std::string prefix = std::string(to_string(e.code())) + ": ";
    if (msg.compare(0, prefix.size(), prefix) == 0)
        msg.erase(0, prefix.size());
    return msg;
}

/**
 * RAII installer for a task's inherited execution scope: the worker
 * temporarily becomes the submitting thread as far as the per-thread
 * active CancelToken / MemoryBudget / FaultInjector pointers are
 * concerned, then restores its own (always null between tasks, but
 * restoring unconditionally keeps the invariant local).
 */
class TaskScopeInstaller
{
  public:
    TaskScopeInstaller(CancelToken *t, MemoryBudget *b, FaultInjector *f)
        : prevToken_(CancelToken::exchangeActive(t)),
          prevBudget_(MemoryBudget::exchangeActive(b)),
          prevInjector_(FaultInjector::exchangeActive(f))
    {
    }

    ~TaskScopeInstaller()
    {
        FaultInjector::exchangeActive(prevInjector_);
        MemoryBudget::exchangeActive(prevBudget_);
        CancelToken::exchangeActive(prevToken_);
    }

    TaskScopeInstaller(const TaskScopeInstaller &) = delete;
    TaskScopeInstaller &operator=(const TaskScopeInstaller &) = delete;

  private:
    CancelToken *prevToken_;
    MemoryBudget *prevBudget_;
    FaultInjector *prevInjector_;
};

} // namespace

int
ThreadPool::currentWorkerId()
{
    return tl_worker_id;
}

ThreadPool::Group::Scope::Scope(Group &g) : prev_(tl_current_group)
{
    tl_current_group = &g;
}

ThreadPool::Group::Scope::~Scope()
{
    tl_current_group = prev_;
}

ThreadPool::Group::~Group()
{
    pool_.drainGroup(*this);
}

ThreadPool::ThreadPool(size_t num_threads)
{
    size_t n = num_threads != 0 ? num_threads
                                : std::max(1u, std::thread::hardware_concurrency());
    workers.reserve(n);
    for (size_t i = 0; i < n; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lk(mtx);
        stopping = true;
    }
    cvTask.notify_all();
    for (auto &w : workers)
        w.join();
}

ThreadPool::Group &
ThreadPool::currentGroup()
{
    // A scope installed for *another* pool's group must not capture this
    // pool's tasks (a dispatcher thread may drive a request group on the
    // shared kernel pool while also using a private utility pool).
    Group *g = tl_current_group;
    if (g && &g->pool_ == this)
        return *g;
    return defaultGroup_;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    Group &g = currentGroup();
    Pending p{std::move(task), &g, CancelToken::active(),
              MemoryBudget::active(), FaultInjector::active()};
    {
        std::unique_lock<std::mutex> lk(mtx);
        tasks.push(std::move(p));
        ++g.inFlight;
    }
    cvTask.notify_one();
}

void
ThreadPool::wait()
{
    Group &g = currentGroup();
    std::vector<std::exception_ptr> errs;
    {
        std::unique_lock<std::mutex> lk(mtx);
        cvDone.wait(lk, [&g] { return g.inFlight == 0; });
        errs.swap(g.errors);
    }
    if (errs.empty())
        return;
    if (errs.size() == 1)
        std::rethrow_exception(errs.front());

    // Several tasks failed before the barrier: summarize the secondary
    // failures onto the primary so none is silently dropped. Only a
    // cobra::Error can carry the suffix; anything else is rethrown
    // unchanged and the extras go to warn().
    constexpr size_t kMaxSecondaryMessages = 3;
    std::string suffix = " (+" + std::to_string(errs.size() - 1) +
        " more task failure(s): ";
    const size_t shown =
        std::min(errs.size() - 1, kMaxSecondaryMessages);
    for (size_t i = 0; i < shown; ++i) {
        if (i != 0)
            suffix += "; ";
        suffix += describeException(errs[i + 1]);
    }
    if (errs.size() - 1 > shown)
        suffix += "; ...";
    suffix += ")";
    try {
        std::rethrow_exception(errs.front());
    } catch (const Error &e) {
        throw Error(e.code(), stripCodePrefix(e) + suffix);
    } catch (...) {
        warn("thread pool dropped secondary task failures" + suffix);
        throw;
    }
}

void
ThreadPool::drainGroup(Group &g)
{
    std::vector<std::exception_ptr> errs;
    {
        std::unique_lock<std::mutex> lk(mtx);
        cvDone.wait(lk, [&g] { return g.inFlight == 0; });
        errs.swap(g.errors);
    }
    // The dtor path must not throw; an abandoned group's failures were
    // either already surfaced by a wait() or belong to an unwinding
    // owner who has a primary failure of their own.
    for (const std::exception_ptr &e : errs)
        warn("task group discarded failure: " + describeException(e));
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t, size_t)> &fn)
{
    if (n == 0)
        return;
    // Never more blocks than items: with n < numThreads() each block is a
    // single item and no empty range is ever enqueued.
    const size_t nt = std::min(numThreads(), n);
    const size_t chunk = (n + nt - 1) / nt;
    for (size_t t = 0; t < nt; ++t) {
        const size_t begin = t * chunk;
        const size_t end = std::min(n, begin + chunk);
        if (begin >= end)
            break;
        enqueue([&fn, t, begin, end] { fn(t, begin, end); });
    }
    wait();
}

void
ThreadPool::workerLoop(size_t worker_id)
{
    tl_worker_id = static_cast<int>(worker_id);
    for (;;) {
        Pending task;
        {
            std::unique_lock<std::mutex> lk(mtx);
            cvTask.wait(lk, [this] { return stopping || !tasks.empty(); });
            if (stopping && tasks.empty())
                return;
            task = std::move(tasks.front());
            tasks.pop();
        }
        // Cancellation-aware dispatch: once the task's run is cancelled,
        // its queued tasks are skipped instead of started, so a tripped
        // watchdog drains that run's share of the queue in microseconds
        // rather than executing every remaining shard to completion.
        // The skip is recorded as the group's failure only when no task
        // captured a real exception first (the cancellation cause
        // usually throws from a running task's checkpoint anyway).
        // Scoped per task: a neighbour run's tasks are never skipped.
        if (task.token && task.token->cancelled()) {
            const Status s = task.token->status();
            std::unique_lock<std::mutex> lk(mtx);
            if (task.group->errors.empty())
                task.group->errors.push_back(std::make_exception_ptr(
                    Error(s.code(), s.message() +
                              " [queued task skipped]")));
        } else {
            // Become the submitting thread for the task's duration: the
            // run's token/budget/injector and its group (so nested
            // enqueues join the same group).
            TaskScopeInstaller scopes(task.token, task.budget,
                                      task.injector);
            Group *prev_group = tl_current_group;
            tl_current_group = task.group;
            try {
                task.fn();
            } catch (...) {
                std::unique_lock<std::mutex> lk(mtx);
                task.group->errors.push_back(std::current_exception());
            }
            tl_current_group = prev_group;
        }
        {
            std::unique_lock<std::mutex> lk(mtx);
            if (--task.group->inFlight == 0)
                cvDone.notify_all();
        }
    }
}

} // namespace cobra
