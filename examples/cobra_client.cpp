/**
 * @file
 * cobra_client — load generator / CLI for the batch server.
 *
 * Generates an update stream, frames it as requests, and submits them
 * over the server socket from one or more client threads, with the
 * full client-side backpressure contract: per-call timeouts, bounded
 * retry, and jittered backoff on kUnavailable.
 *
 *   cobra_client --socket /tmp/cobra.sock --kernel degree \
 *                --updates 100000 --indices 65536 --requests 32 \
 *                --threads 4 --tenant 7
 *
 * Chaos knobs mirror the server's fault taxonomy: --inject arms a
 * *request-carried* fault plan (the server scopes it to that request
 * alone), and --deadline-ms attaches a whole-request deadline the
 * server enforces end to end. Useful combinations:
 *
 *   --inject pb-stall-binning --deadline-ms 200   deadline propagation
 *   --requests 100 --threads 8                    overload shedding
 */

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/check/fault_injector.h"
#include "src/graph/generators.h"
#include "src/server/client.h"
#include "src/server/frame.h"

using namespace cobra;

namespace {

struct Options
{
    std::string socket = "/tmp/cobra.sock";
    std::string kernel = "degree";
    uint64_t tenant = 1;
    uint32_t requests = 1;
    uint32_t threads = 1;
    uint64_t updates = 1 << 16;
    uint64_t indices = 1 << 14;
    std::string dist = "uniform"; ///< uniform | zipf:A | rmat
    uint32_t bins = 1024;
    std::string engine = "wc";
    uint32_t wcLines = 1;
    uint32_t deadlineMs = 0;
    std::string inject; ///< SITE[:N[:SEED]]
    uint32_t timeoutMs = 30000;
    uint32_t retries = 3;
    uint32_t backoffMs = 20;
    uint32_t mutate = 0;     ///< kMutate batches to stream (0 = off)
    uint32_t mutateOps = 256; ///< ops per mutation batch
    uint32_t mutateStart = 0; ///< first batch index (crash resume)
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--socket path] [--kernel degree|np|pagerank|spmv]"
           " [--tenant ID]\n"
           "       [--requests R] [--threads C] [--updates N] "
           "[--indices I]\n"
           "       [--dist uniform|zipf:ALPHA|rmat] [--bins B]\n"
           "       [--engine scalar|wc] [--wc-lines L]\n"
           "       [--deadline-ms D] [--inject SITE[:N[:SEED]]]\n"
           "       [--timeout-ms T] [--retries R] [--backoff-ms B]\n"
           "       [--mutate B] [--mutate-ops M] [--mutate-start S]\n"
           "\n"
           "--mutate B streams B edge-mutation batches (kMutate, ~25%\n"
           "deletes of earlier inserts) into the tenant's mutable\n"
           "graph, then fetches its snapshot checksum (kSnapshot).\n"
           "Only degree and pagerank kernels are mutable.\n"
           "--mutate-start S resumes the deterministic stream at batch\n"
           "index S (batches [S, S+B)): after a server crash, restart\n"
           "from the first unacknowledged batch and the stream is\n"
           "byte-identical to an uninterrupted run — mutation batches\n"
           "are idempotent server-side, so at-least-once is safe.\n";
    std::exit(2);
}

/** Parse "SITE[:N[:SEED]]" into frame fields. */
void
parseInject(const std::string &spec, RequestFrame *req)
{
    std::string site = spec;
    uint64_t fire_at = 1, seed = 1;
    if (auto c = spec.find(':'); c != std::string::npos) {
        site = spec.substr(0, c);
        std::string rest = spec.substr(c + 1);
        if (auto c2 = rest.find(':'); c2 != std::string::npos) {
            fire_at = std::stoull(rest.substr(0, c2));
            seed = std::stoull(rest.substr(c2 + 1));
        } else {
            fire_at = std::stoull(rest);
        }
    }
    auto s = faultSiteFromName(site);
    if (!s) {
        std::cerr << "error: unknown fault site '" << site << "'\n";
        std::exit(2);
    }
    req->injectSite = static_cast<uint32_t>(*s);
    req->injectFireAt = fire_at;
    req->injectSeed = seed;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--socket")
            o.socket = next();
        else if (a == "--kernel")
            o.kernel = next();
        else if (a == "--tenant")
            o.tenant = std::stoull(next());
        else if (a == "--requests")
            o.requests = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--threads")
            o.threads = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--updates")
            o.updates = std::stoull(next());
        else if (a == "--indices")
            o.indices = std::stoull(next());
        else if (a == "--dist")
            o.dist = next();
        else if (a == "--bins")
            o.bins = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--engine")
            o.engine = next();
        else if (a == "--wc-lines")
            o.wcLines = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--deadline-ms")
            o.deadlineMs = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--inject")
            o.inject = next();
        else if (a == "--timeout-ms")
            o.timeoutMs = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--retries")
            o.retries = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--backoff-ms")
            o.backoffMs = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--mutate")
            o.mutate = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--mutate-ops")
            o.mutateOps = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--mutate-start")
            o.mutateStart = static_cast<uint32_t>(std::stoul(next()));
        else
            usage(argv[0]);
    }

    auto kernel = serverKernelFromName(o.kernel);
    if (!kernel) {
        std::cerr << "error: unknown kernel '" << o.kernel
                  << "' (degree|np)\n";
        return 2;
    }
    auto engine = engineKindFromName(o.engine);
    if (!engine) {
        std::cerr << "error: unknown engine '" << o.engine << "'\n";
        return 2;
    }

    // One shared stream; every request carries a copy of it (the
    // server treats each request as an independent batch).
    const NodeId n = static_cast<NodeId>(o.indices);
    EdgeList edges;
    if (o.dist == "uniform")
        edges = generateUniform(n, o.updates, 42);
    else if (o.dist == "rmat")
        edges = generateRmatStream(n, o.updates, 42);
    else if (o.dist.rfind("zipf:", 0) == 0)
        edges = generateZipf(n, o.updates,
                             std::stod(o.dist.substr(5)), 42);
    else {
        std::cerr << "error: unknown dist '" << o.dist << "'\n";
        return 2;
    }

    RequestFrame proto;
    proto.tenantId = o.tenant;
    proto.kernel = *kernel;
    proto.engine = *engine;
    proto.bins = o.bins;
    proto.wcLines = o.wcLines;
    proto.deadlineMs = o.deadlineMs;
    proto.numIndices = o.indices;
    if (!o.inject.empty())
        parseInject(o.inject, &proto);
    proto.payload.reserve(edges.size() * 2);
    for (const Edge &e : edges) {
        proto.payload.push_back(e.src);
        proto.payload.push_back(e.dst);
    }

    ClientConfig ccfg;
    ccfg.socketPath = o.socket;
    ccfg.timeout = std::chrono::milliseconds(o.timeoutMs);
    ccfg.retry.maxAttempts = o.retries + 1;
    ccfg.retry.baseDelay = std::chrono::milliseconds(o.backoffMs);

    if (o.mutate > 0) {
        // Mutation mode: stream batches sequentially (the server
        // serializes a tenant's batches anyway — order is the whole
        // point), then fetch the snapshot checksum.
        if (*kernel != ServerKernel::kDegreeCount &&
            *kernel != ServerKernel::kPagerank) {
            std::cerr << "error: --mutate supports only the degree "
                         "and pagerank kernels\n";
            return 2;
        }
        if (o.mutateOps == 0) {
            std::cerr << "error: --mutate-ops must be positive\n";
            return 2;
        }
        ServerClient client(ccfg);
        uint32_t failures = 0;
        auto report = [&](const RequestFrame &req,
                          const char *what) -> bool {
            ResponseFrame resp;
            Status s = client.call(req, &resp);
            if (!s.ok()) {
                ++failures;
                std::cout << what << " " << req.requestId
                          << ": no response (" << s.toString()
                          << ")\n";
                return false;
            }
            if (resp.code != ErrorCode::kOk)
                ++failures;
            std::cout << what << " " << req.requestId << ": "
                      << to_string(resp.code)
                      << " checksum=" << std::hex
                      << resp.resultChecksum << std::dec
                      << " run_us=" << resp.serverMicros;
            if (!resp.message.empty())
                std::cout << " [" << resp.message << "]";
            std::cout << "\n";
            return resp.code == ErrorCode::kOk;
        };
        for (uint32_t bi = 0; bi < o.mutate; ++bi) {
            // The batch index b addresses the deterministic stream;
            // with --mutate-start it picks up exactly where a crashed
            // run left off.
            const uint32_t b = o.mutateStart + bi;
            RequestFrame req = proto;
            req.op = RequestOp::kMutate;
            req.requestId = b + 1;
            req.payload.clear();
            // ~25% deletes, each re-deleting an edge inserted one
            // batch earlier — deterministic, so reruns replay the
            // same stream.
            for (uint32_t j = 0; j < o.mutateOps; ++j) {
                const uint64_t pos =
                    uint64_t{b} * o.mutateOps + j;
                if (j % 4 == 3 && pos >= o.mutateOps) {
                    const Edge &d =
                        edges[(pos - o.mutateOps) % edges.size()];
                    req.payload.push_back(d.src | kMutateDeleteBit);
                    req.payload.push_back(d.dst);
                } else {
                    const Edge &e = edges[pos % edges.size()];
                    req.payload.push_back(e.src);
                    req.payload.push_back(e.dst);
                }
            }
            report(req, "mutate");
        }
        RequestFrame snap = proto;
        snap.op = RequestOp::kSnapshot;
        snap.requestId = uint64_t{o.mutateStart} + o.mutate + 1;
        snap.payload.clear();
        snap.injectSite = 0;
        report(snap, "snapshot");
        return failures == 0 ? 0 : 1;
    }

    std::mutex out_mtx;
    std::map<std::string, uint32_t> outcomes;
    std::atomic<uint32_t> transport_failures{0};
    std::atomic<uint32_t> next_id{0};

    auto worker = [&] {
        ServerClient client(ccfg);
        for (;;) {
            const uint32_t id = next_id.fetch_add(1);
            if (id >= o.requests)
                return;
            RequestFrame req = proto;
            req.requestId = id + 1;
            ResponseFrame resp;
            Status s = client.call(req, &resp);
            std::lock_guard<std::mutex> lk(out_mtx);
            if (!s.ok()) {
                ++transport_failures;
                ++outcomes["transport:" +
                           std::string(to_string(s.code()))];
                std::cout << "request " << req.requestId
                          << ": no response (" << s.toString() << ")\n";
                continue;
            }
            ++outcomes[to_string(resp.code)];
            std::cout << "request " << req.requestId << ": "
                      << to_string(resp.code) << " attempts="
                      << resp.attempts << " engine="
                      << to_string(resp.finalEngine) << "/"
                      << resp.finalBins << (resp.usedBaseline
                                                ? " (baseline)"
                                                : "")
                      << " queue_us=" << resp.queueMicros
                      << " run_us=" << resp.serverMicros
                      << " checksum=" << std::hex << resp.resultChecksum
                      << std::dec;
            if (!resp.message.empty())
                std::cout << " [" << resp.message << "]";
            std::cout << "\n";
        }
    };

    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < std::max(1u, o.threads); ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();

    std::cout << "---\n";
    for (const auto &[k, v] : outcomes)
        std::cout << k << ": " << v << "\n";
    return transport_failures.load() == 0 ? 0 : 1;
}
