/**
 * @file
 * perfbench: one invocation runs one workload and prints, as its last
 * line, {"correct", "attempted", "failed", "metrics"} — the end-to-end
 * metrics untraced, the per-layer metrics with --trace 1.
 *
 *   perfbench --workload beyond_llc|serve_mixed|simulate --seed N
 *             --seconds S --trace 0|1 --out-dir DIR
 *   perfbench --selftest
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "src/common.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::cerr << "usage: perfbench --workload beyond_llc|serve_mixed|"
                 "simulate --seed N --seconds S --trace 0|1 --out-dir DIR\n"
                 "       perfbench --selftest\n";
    return 2;
}

std::string
formatMetrics(const std::vector<Metric> &ms)
{
    std::string s = "{";
    char buf[64];
    for (size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
        s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool selftest_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(next().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = next() == "1";
        else if (a == "--out-dir")
            o.outDir = next();
        else if (a == "--selftest")
            selftest_only = true;
        else
            return usage();
    }

    // The references every check rests on are tested first, each run.
    if (!runSelfTests()) {
        std::cerr << "perfbench: reference self-tests failed\n";
        return 3;
    }
    if (selftest_only) {
        std::cout << "perfbench: reference self-tests passed\n";
        return 0;
    }
    if (o.outDir.empty() || o.seconds <= 0)
        return usage();

    Outcome (*run)(const Options &, Tracer &) = nullptr;
    if (o.workload == "beyond_llc")
        run = runBeyondLlc;
    else if (o.workload == "serve_mixed")
        run = runServeMixed;
    else if (o.workload == "simulate")
        run = runSimulate;
    else
        return usage();

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    std::cout << "# host " << hostContextJson(calibrationSpin(nproc, 0.2))
              << std::endl;

    Tracer tracer(o.trace);
    Outcome out;
    try {
        out = run(o, tracer);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << o.workload << " aborted: " << e.what()
                  << "\n";
        return 1;
    }

    if (o.trace) {
        const std::string path = o.outDir + "/trace_" + o.workload + ".json";
        if (std::string err = tracer.write(path); !err.empty())
            out.wrong(err);
        std::cout << "# trace: " << tracer.size() << " spans in " << path
                  << "\n# per-layer:\n";
        for (const Metric &m : out.perLayer)
            std::cout << "#   " << m.name << " = " << m.value << " "
                      << m.unit << "\n";
        std::cout << "# traced end_to_end " << formatMetrics(out.endToEnd)
                  << "\n";
    }
    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": "
              << formatMetrics(o.trace ? out.perLayer : out.endToEnd) << "}"
              << std::endl;
    return 0;
}
