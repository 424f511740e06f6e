#include "src/common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "src/util/json.h"

namespace perfbench {

void
Outcome::op(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: failed operation: " << what << "\n";
    }
}

void
Outcome::wrong(const std::string &what)
{
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

uint64_t
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_minflt);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return xs[std::min(i, xs.size() - 1)];
}

double
sum(const std::vector<double> &xs)
{
    double s = 0;
    for (double x : xs)
        s += x;
    return s;
}

Tracer::Tracer(bool enabled)
    : on_(enabled), origin_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
Tracer::span(const std::string &name, const std::string &cat,
             double start_us, double dur_us, uint64_t request)
{
    if (!on_)
        return;
    const uint32_t tid = static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, cat, start_us, dur_us, tid, request});
}

Tracer::Scope::Scope(Tracer &t, std::string name, std::string cat,
                     uint64_t request)
    : t_(t), name_(std::move(name)), cat_(std::move(cat)),
      request_(request), start_(t.enabled() ? t.nowUs() : 0)
{
}

Tracer::Scope::~Scope()
{
    if (t_.enabled())
        t_.span(name_, cat_, start_, t_.nowUs() - start_, request_);
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

std::string
Tracer::write(const std::string &path) const
{
    std::ostringstream os;
    os.precision(15);
    cobra::JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const Span &s : spans_) {
            w.beginObject();
            w.key("name").value(s.name);
            w.key("cat").value(s.cat);
            w.key("ph").value("X");
            w.key("ts").value(s.startUs);
            w.key("dur").value(s.durUs);
            w.key("pid").value(static_cast<uint64_t>(1));
            w.key("tid").value(static_cast<uint64_t>(s.tid));
            if (s.request != 0) {
                w.key("args").beginObject();
                w.key("request").value(s.request);
                w.end();
            }
            w.end();
        }
    }
    w.end();
    w.end();
    {
        std::ofstream f(path);
        f << os.str();
        if (!f)
            return "cannot write " + path;
    }
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    cobra::JsonValue doc;
    if (cobra::Status st = cobra::parseJson(text.str(), &doc); !st.ok())
        return "trace JSON does not parse: " + st.toString();
    if (!doc["traceEvents"].isArray() ||
        doc["traceEvents"].size() != spans_.size())
        return "trace JSON lost events";
    return "";
}

double
calibrationSpin(unsigned threads, double seconds)
{
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    std::vector<double> cpu(threads, 0.0);
    for (unsigned i = 0; i < threads; ++i)
        ts.emplace_back([&, i] {
            while (!go.load())
                std::this_thread::yield();
            timespec a{}, b{};
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
            const double end = nowSeconds() + seconds;
            volatile uint64_t x = 0;
            while (nowSeconds() < end)
                for (int k = 0; k < 1000; ++k)
                    x = x + static_cast<uint64_t>(k);
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
            cpu[i] = static_cast<double>(b.tv_sec - a.tv_sec) +
                     1e-9 * static_cast<double>(b.tv_nsec - a.tv_nsec);
        });
    const double t0 = nowSeconds();
    go.store(true);
    for (auto &t : ts)
        t.join();
    const double wall = nowSeconds() - t0;
    return wall > 0 ? sum(cpu) / wall : 0;
}

namespace {

std::string
readFirstLine(const std::string &path)
{
    std::ifstream f(path);
    std::string s;
    std::getline(f, s);
    return s;
}

} // namespace

uint64_t
llcBytes()
{
    uint64_t best = 0;
    int best_level = 0;
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        const std::string level = readFirstLine(dir + "/level");
        if (level.empty())
            break;
        if (readFirstLine(dir + "/type") == "Instruction")
            continue;
        std::string size = readFirstLine(dir + "/size");
        uint64_t mult = 1;
        if (!size.empty() && (size.back() == 'K' || size.back() == 'M')) {
            mult = size.back() == 'K' ? 1024 : 1024 * 1024;
            size.pop_back();
        }
        const int lv = std::atoi(level.c_str());
        if (lv >= best_level && !size.empty()) {
            best_level = lv;
            best = std::strtoull(size.c_str(), nullptr, 10) * mult;
        }
    }
    return best;
}

std::string
hostContextJson(double calibration_parallelism)
{
    double load1 = -1;
    {
        std::ifstream f("/proc/loadavg");
        f >> load1;
    }
    const char *sha = std::getenv("PERFBENCH_SOURCE_ID");
    std::ostringstream os;
    os.precision(15);
    cobra::JsonWriter w(os);
    w.beginObject();
    w.key("nproc").value(
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.key("llc_bytes").value(llcBytes());
    w.key("loadavg_1min").value(load1);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("source").value(sha ? sha : "unknown");
    w.key("calibration_parallelism").value(calibration_parallelism);
    w.end();
    return os.str();
}

} // namespace perfbench
