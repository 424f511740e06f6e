/**
 * @file
 * Shared plumbing of the benchmark: run options, the run's outcome
 * (operation accounting plus metrics), sample statistics, process
 * resource readings and the span recorder behind the traced mode.
 *
 * Everything here belongs to the benchmark, not to the program under
 * test: the program is reached only through its public entry points
 * (Kernel, BatchServer/SocketServer/ServerClient, Runner).
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir; ///< run artefacts (WAL, trace JSON)
};

/** One named metric value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** What a workload hands back: accounting, checks and metrics. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> endToEnd; ///< printed with --trace 0
    std::vector<Metric> perLayer; ///< printed with --trace 1

    /** Count one operation; a false @p ok books it failed. */
    void op(bool ok, const std::string &what);

    /** A whole-run check (not one operation) that did not hold. */
    void wrong(const std::string &what);

    void e2e(const std::string &name, const std::string &unit, double v)
    {
        endToEnd.push_back({name, unit, v});
    }
    void layer(const std::string &name, const std::string &unit, double v)
    {
        perLayer.push_back({name, unit, v});
    }
};

/** Monotonic seconds since an arbitrary origin. */
double nowSeconds();

/** Process CPU seconds (user + system, all threads). */
double processCpuSeconds();

/** Minor page faults of the process so far. */
uint64_t minorFaults();

/** Peak resident set of the process in MB (ru_maxrss). */
double peakRssMb();

/** Median of @p xs (0 for an empty set). */
double median(std::vector<double> xs);

/** Nearest-rank percentile @p p in [0, 100]. */
double percentile(std::vector<double> xs, double p);

/** Sum of @p xs. */
double sum(const std::vector<double> &xs);

/**
 * In-memory span recorder, written out as chrome://tracing JSON at the
 * end of a traced run. Disabled recorders cost one branch per span.
 * Spans of one served request share its request id (`args.request`).
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return on_; }

    /** Microseconds on the tracer's clock. */
    double nowUs() const;

    /** Record a finished span. */
    void span(const std::string &name, const std::string &cat,
              double start_us, double dur_us, uint64_t request = 0);

    /** RAII span from construction to destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, std::string cat,
              uint64_t request = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::string name_, cat_;
        uint64_t request_;
        double start_;
    };

    /**
     * Write the spans to @p path and read the file back through the
     * program's JSON parser; returns an empty string on success, else
     * what went wrong.
     */
    std::string write(const std::string &path) const;

    size_t size() const;

  private:
    struct Span
    {
        std::string name, cat;
        double startUs, durUs;
        uint32_t tid;
        uint64_t request;
    };
    const bool on_;
    const std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/** Size in bytes of the highest-level data cache sysfs reports. */
uint64_t llcBytes();

/** Host context of the run, one JSON object. */
std::string hostContextJson(double calibration_parallelism);

/** Effective parallelism of a short nproc-thread spin (CPU / wall). */
double calibrationSpin(unsigned threads, double seconds);

/** Run the references' self-tests; prints failures, returns pass. */
bool runSelfTests();

Outcome runBeyondLlc(const Options &o, Tracer &tr);
Outcome runServeMixed(const Options &o, Tracer &tr);
Outcome runSimulate(const Options &o, Tracer &tr);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
