/**
 * @file
 * Workload serve_mixed: an in-process BatchServer (2 dispatchers, WAL
 * with fsync "always") behind the real unix-socket SocketServer, driven
 * by floor(nproc/2) closed-loop ServerClient threads; the kernel pool
 * gets the remaining threads. Each client repeats a fixed round of
 * cache-resident kRun reads (DegreeCount and NeighborPopulate over
 * power-law batches) and kMutate writes to its own DegreeCount and
 * PageRank tenants, whose mutation streams come from the benchmark's
 * generator.
 *
 * Phases: warm-up (tenant fill + two rounds, unmeasured); phase A, a
 * number of rounds fixed by --seconds (kRoundsPerSecond per client, so
 * every run does the same work); a cost phase, in which client 0 alone
 * runs rounds and each request's process CPU time is its cost;
 * checkpointNow(); phase B, a fixed number of rounds, then kSnapshot of
 * every tenant; a crash (stop without a
 * shutdown checkpoint); recovery timed on identical copies of the
 * crashed directory, each certified against the acknowledged snapshots.
 * Phase B's fixed length makes every recovery replay the same number of
 * WAL records, whatever the run's speed.
 *
 * After the run the PageRank tenants' batch streams are replayed through
 * DynamicGraph / DeltaPagerank (their served checksums must match the
 * replay) and the final scores are checked against the benchmark's
 * double-precision PageRank. The traced mode replays the request and
 * batch streams against each layer's public functions as well.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "src/check/differential_oracle.h"
#include "src/common.h"
#include "src/durability/wal.h"
#include "src/graph/dynamic_graph.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/incremental.h"
#include "src/kernels/neighbor_populate.h"
#include "src/reference.h"
#include "src/resilience/run_supervisor.h"
#include "src/server/batch_server.h"
#include "src/server/client.h"
#include "src/server/frame.h"
#include "src/server/wire_socket.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

constexpr unsigned kReadLogN = 16;       // kRun index space: 2^16
constexpr size_t kReadUpdates = 1u << 16;
constexpr size_t kReadPayloads = 8;      // distinct kRun batches/client
constexpr uint32_t kMutNodes = 1u << 14; // mutable tenant vertices
constexpr size_t kMutTarget = 1u << 16;  // live edges per tenant
constexpr size_t kMutOps = 512;          // ops per kMutate batch
constexpr size_t kFillOps = 4096;        // ops per warm-up fill batch
constexpr uint32_t kBins = 256;
constexpr int kWarmRounds = 2;
constexpr int kTailRounds = 4;   // phase B, after the checkpoint
constexpr int kRecoveries = 5;   // identical crashed copies
constexpr int kSetups = 3;
constexpr size_t kMinRuns = 1000;    // p99 needs >= 10 beyond it
constexpr size_t kMinMutates = 200;  // p95 likewise
constexpr int kReadsPerRound = 4;
constexpr int kWritesPerRound = 2;
// Phase A's length in rounds per client per --seconds, and the cost
// phase's length in rounds per --seconds. On a 4-vCPU host the two take
// from half of --seconds (idle host) to all of it (busy host).
constexpr double kRoundsPerSecond = 8;
constexpr double kCostRoundsPerSecond = 3;
// A slower host stops phase A early, after this many times --seconds.
constexpr double kDeadlineFactor = 3;

/** One served request's client-side record. */
struct Sample
{
    cobra::RequestOp op;
    bool degree = false; ///< DegreeCount kRun or DegreeCount-tenant kMutate
    double latencyMs = 0, queueMs = 0, runMs = 0;
    double cpuMs = 0; ///< process CPU time during the call
};

/** A kRun request with its expected checksum. */
struct Read
{
    cobra::RequestFrame req;
    cobra::EdgeList edges; ///< the same batch, for the traced replay
    Fingerprint expect;
};

/** A PageRank-tenant batch as sent, with what the server answered. */
struct SentBatch
{
    std::vector<MutationOp> ops;
    bool ok = false;
    uint64_t checksum = 0;
};

/**
 * The typical cost of an op whose requests split evenly between two
 * kinds (DegreeCount and NeighborPopulate kRun; DegreeCount and PageRank
 * kMutate): the mean of the two kinds' medians. The median of the
 * whole mix would fall in the gap between the two modes.
 */
double
typical(const std::vector<Sample> &samples, cobra::RequestOp op,
        double Sample::*field)
{
    std::vector<double> kind[2];
    for (const Sample &s : samples)
        if (s.op == op)
            kind[s.degree].push_back(s.*field);
    return (median(kind[0]) + median(kind[1])) / 2;
}

cobra::RequestFrame
mutateFrame(uint64_t tenant, cobra::ServerKernel k,
            const std::vector<MutationOp> &ops)
{
    cobra::RequestFrame r;
    r.tenantId = tenant;
    r.kernel = k;
    r.op = cobra::RequestOp::kMutate;
    r.engine = cobra::PbEngineKind::kWriteCombine;
    r.bins = kBins;
    r.numIndices = kMutNodes;
    r.payload.reserve(2 * ops.size());
    for (const MutationOp &op : ops) {
        r.payload.push_back(op.src | (op.remove ? cobra::kMutateDeleteBit
                                                : 0u));
        r.payload.push_back(op.dst);
    }
    return r;
}

cobra::MutationBatch
toBatch(const std::vector<MutationOp> &ops)
{
    cobra::MutationBatch b;
    for (const MutationOp &op : ops)
        b.ops.push_back({op.src, op.dst, op.remove});
    return b;
}

/** Per-client state; only its own thread touches it while running. */
struct Client
{
    unsigned id = 0;
    uint64_t readTenant = 0, dcTenant = 0, prTenant = 0;
    std::vector<Read> reads;
    std::unique_ptr<MutationStream> dc, pr;
    std::vector<std::vector<MutationOp>> dcBatches; ///< for the replay
    std::vector<SentBatch> prBatches;
    std::vector<Sample> samples; ///< measured phases only
    /// Phase A, one per round: the client-observed latencies of the
    /// round's requests, summed (the benchmark's own work between
    /// requests is left out).
    std::vector<double> roundSeconds;
    double roundAcc = 0;
    uint64_t seq = 0;
    uint64_t attempted = 0, failed = 0;
    uint64_t snapDc = 0, snapPr = 0; ///< acknowledged snapshots
    bool measuring = false;
    std::vector<Sample> costs; ///< cost phase, client 0 alone
    bool costing = false;
    size_t phaseARequests = 0;
};

std::vector<Read>
makeReads(uint64_t seed, uint64_t tenant)
{
    Rng rng(seed);
    std::vector<Read> reads(kReadPayloads);
    for (size_t i = 0; i < reads.size(); ++i) {
        Read &r = reads[i];
        const EdgePairs e = rmatEdges(kReadLogN, kReadUpdates, rng);
        r.req.tenantId = tenant;
        r.req.kernel = i % 2 ? cobra::ServerKernel::kNeighborPopulate
                             : cobra::ServerKernel::kDegreeCount;
        r.req.op = cobra::RequestOp::kRun;
        r.req.engine = cobra::PbEngineKind::kWriteCombine;
        r.req.bins = kBins;
        r.req.numIndices = 1u << kReadLogN;
        r.req.payload.reserve(2 * e.size());
        r.edges.reserve(e.size());
        for (const auto &p : e) {
            r.req.payload.push_back(p.first);
            r.req.payload.push_back(p.second);
            r.edges.push_back(cobra::Edge{p.first, p.second});
        }
        // Both kernels' checksum is FNV-1a over the source-degree
        // sequence (DegreeCount's output; NeighborPopulate's CSR rows).
        const auto h = sourceHistogram(
            1u << kReadLogN, e.size(), [&](size_t j) { return e[j].first; });
        r.expect = fingerprintOf(h.data(), h.size());
    }
    return reads;
}

/** A barrier the main thread can act behind (checkpoint, timing). */
class Gate
{
  public:
    explicit Gate(unsigned parties) : parties_(parties) {}

    /** Client side: arrive and wait for release(). */
    void
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lk(mu_);
        const uint64_t gen = gen_;
        ++arrived_;
        cv_.notify_all();
        cv_.wait(lk, [&] { return gen_ != gen; });
    }

    /** Main side: wait until every client has arrived. */
    void
    awaitAll()
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return arrived_ == parties_; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lk(mu_);
        arrived_ = 0;
        ++gen_;
        cv_.notify_all();
    }

  private:
    const unsigned parties_;
    std::mutex mu_;
    std::condition_variable cv_;
    unsigned arrived_ = 0; ///< guarded by mu_
    uint64_t gen_ = 0;     ///< guarded by mu_
};

std::string
socketPathIn(const std::string &dir)
{
    return dir + "/serve.sock";
}

cobra::ServerConfig
serverConfig(const std::string &wal_dir)
{
    cobra::ServerConfig cfg;
    cfg.dispatchThreads = 2;
    cfg.durability.walDir = wal_dir;
    cfg.durability.fsync.mode = cobra::FsyncPolicy::Mode::kAlways;
    cfg.durability.checkpointInterval = std::chrono::milliseconds(0);
    cfg.durability.checkpointOnShutdown = false; // stop() == kill -9
    return cfg;
}

/** Replay-derived per-layer timings (ms unless named otherwise). */
struct LayerTimes
{
    std::vector<double> encodeUs, decodeUs, reqInit, reqBinning,
        reqAccumulate, supervise, verify, apply, incremental, certify,
        compact, append, fsync;
    double compactions = 0;
};

double
msSince(double t0)
{
    return (nowSeconds() - t0) * 1e3;
}

/**
 * Replay one tenant's batch stream through DynamicGraph and its
 * incremental kernel, as executeMutate does. For the PageRank tenant
 * every replayed score vector is fingerprinted and compared with what
 * the server answered; the final scores are checked against the
 * benchmark's double-precision PageRank over the stream's model.
 */
void
replayTenant(Client &c, bool pagerank, cobra::ThreadPool &pool,
             LayerTimes &lt, bool timed, Outcome &out, Tracer &tr)
{
    cobra::PbEngineConfig ecfg;
    ecfg.kind = cobra::PbEngineKind::kWriteCombine;
    cobra::DynamicGraph g(kMutNodes);
    cobra::IncrementalDegreeCount degrees(g);
    cobra::DeltaPagerank pr(g);
    const size_t n = pagerank ? c.prBatches.size() : c.dcBatches.size();
    for (size_t i = 0; i < n; ++i) {
        const auto &ops = pagerank ? c.prBatches[i].ops : c.dcBatches[i];
        const cobra::MutationBatch batch = toBatch(ops);
        cobra::PhaseRecorder rec;
        double t0 = nowSeconds();
        cobra::BatchResult r;
        {
            Tracer::Scope s(tr, "graph.applyBatchParallel", "graph");
            r = g.applyBatchParallel(pool, rec, batch, kBins, ecfg);
        }
        if (timed)
            lt.apply.push_back(msSince(t0));
        t0 = nowSeconds();
        cobra::Status st;
        if (pagerank) {
            Tracer::Scope s(tr, "kernels.DeltaPagerank.apply", "kernels");
            st = pr.apply(batch, r, g);
        } else {
            Tracer::Scope s(tr, "kernels.IncrementalDegreeCount.update",
                            "kernels");
            degrees.update(r, g);
        }
        if (timed)
            lt.incremental.push_back(msSince(t0));
        if (timed) {
            Tracer::Scope s(tr, "check.certify", "check");
            t0 = nowSeconds();
            const bool diverged =
                pagerank
                    ? cobra::DifferentialOracle::firstDivergence(
                          pr.scores(), cobra::DeltaPagerank::fullRecompute(g),
                          "pagerank")
                          .has_value()
                    : cobra::DifferentialOracle::firstDivergence(
                          degrees.degrees(),
                          cobra::IncrementalDegreeCount::fullRecompute(g),
                          "degrees")
                          .has_value();
            lt.certify.push_back(msSince(t0));
            if (diverged)
                out.wrong("replayed incremental result diverges from its "
                          "full recompute");
        }
        if (g.needsCompaction()) {
            Tracer::Scope s(tr, "graph.compact", "graph");
            t0 = nowSeconds();
            if (!g.compact(pool, rec, kBins, ecfg).ok())
                out.wrong("replay compaction failed");
            if (timed) {
                lt.compact.push_back(msSince(t0));
                ++lt.compactions;
            }
        }
        if (pagerank) {
            const auto &s = pr.scores();
            std::vector<uint32_t> w(s.size());
            std::memcpy(w.data(), s.data(), s.size() * sizeof(float));
            const SentBatch &sent = c.prBatches[i];
            out.op(st.ok() && sent.ok &&
                       fingerprintOf(w.data(), w.size()).matches(sent.checksum),
                   "pagerank kMutate " + std::to_string(i) + " of tenant " +
                       std::to_string(c.prTenant) +
                       ": served checksum differs from the replay");
        }
    }
    const EdgeSetModel &model = pagerank ? c.pr->model() : c.dc->model();
    if (!model.fingerprint().matches(g.snapshotFingerprint()))
        out.wrong("replayed graph differs from the edge-set model");
    if (pagerank) {
        const PagerankRef ref = pagerankOnce(kMutNodes, model.sortedEdges());
        const auto &s = pr.scores();
        if (int64_t v = pagerankMismatch(ref, s.data(), s.size()); v >= 0)
            out.wrong("tenant " + std::to_string(c.prTenant) +
                      " pagerank score of vertex " + std::to_string(v) +
                      " outside tolerance of the double-precision "
                      "reference");
    }
}

/** Traced mode: time each layer's public call on the served inputs. */
void
replayRequests(std::vector<Client> &clients, cobra::ThreadPool &pool,
               LayerTimes &lt, const std::string &wal_dir, Outcome &out,
               Tracer &tr)
{
    cobra::PbEngineConfig ecfg;
    ecfg.kind = cobra::PbEngineKind::kWriteCombine;
    for (Client &c : clients) {
        for (const Read &r : c.reads) {
            double t0 = nowSeconds();
            std::vector<uint8_t> bytes;
            {
                Tracer::Scope s(tr, "server.encodeRequest", "server");
                bytes = cobra::encodeRequest(r.req);
            }
            lt.encodeUs.push_back(msSince(t0) * 1e3);
            cobra::RequestFrame back;
            t0 = nowSeconds();
            cobra::Status st;
            {
                Tracer::Scope s(tr, "server.decodeRequest", "server");
                st = cobra::decodeRequest(bytes.data(), bytes.size(), &back);
            }
            lt.decodeUs.push_back(msSince(t0) * 1e3);
            if (!st.ok() || back.payload != r.req.payload)
                out.wrong("decodeRequest does not invert encodeRequest");

            const auto nodes = static_cast<cobra::NodeId>(r.req.numIndices);
            std::unique_ptr<cobra::Kernel> k;
            if (r.req.kernel == cobra::ServerKernel::kDegreeCount)
                k = std::make_unique<cobra::DegreeCountKernel>(nodes,
                                                               &r.edges);
            else
                k = std::make_unique<cobra::NeighborPopulateKernel>(
                    nodes, &r.edges);
            cobra::PhaseRecorder rec;
            {
                Tracer::Scope s(tr, "pb.runPbParallel", "pb");
                k->runPbParallel(pool, rec, kBins, ecfg);
            }
            lt.reqInit.push_back(rec.phase(cobra::phase::kInit).seconds * 1e3);
            lt.reqBinning.push_back(
                rec.phase(cobra::phase::kBinning).seconds * 1e3);
            lt.reqAccumulate.push_back(
                rec.phase(cobra::phase::kAccumulate).seconds * 1e3);

            t0 = nowSeconds();
            bool diverged;
            {
                Tracer::Scope s(tr, "check.firstDivergence", "check");
                diverged = k->firstDivergence().has_value();
            }
            lt.verify.push_back(msSince(t0));

            cobra::SupervisorConfig sc;
            cobra::RunSupervisor sup(sc);
            cobra::PhaseRecorder srec;
            t0 = nowSeconds();
            cobra::SupervisorReport rep;
            {
                Tracer::Scope s(tr, "resilience.runPbParallel", "resilience");
                rep = sup.runPbParallel(*k, pool, srec, kBins, ecfg);
            }
            lt.supervise.push_back(msSince(t0));
            if (diverged || !rep.ok)
                out.wrong("replayed request run failed verification");
        }
    }

    // WAL append and fsync, measured apart on the DegreeCount stream.
    fs::remove_all(wal_dir);
    cobra::FsyncPolicy none;
    none.mode = cobra::FsyncPolicy::Mode::kNone;
    cobra::WalWriter wal(wal_dir, none, 1);
    uint64_t lsn = 0;
    for (Client &c : clients)
        for (size_t i = 0; i < c.dcBatches.size() && i < 200; ++i) {
            cobra::WalRecord rec;
            rec.lsn = ++lsn;
            rec.payload = cobra::encodeRequest(
                mutateFrame(c.dcTenant, cobra::ServerKernel::kDegreeCount,
                            c.dcBatches[i]));
            double t0 = nowSeconds();
            cobra::Status a, s;
            {
                Tracer::Scope sp(tr, "durability.WalWriter.append",
                                 "durability");
                a = wal.append(rec);
            }
            lt.append.push_back(msSince(t0));
            t0 = nowSeconds();
            {
                Tracer::Scope sp(tr, "durability.WalWriter.sync",
                                 "durability");
                s = wal.sync();
            }
            lt.fsync.push_back(msSince(t0));
            if (!a.ok() || !s.ok())
                out.wrong("WAL append/sync failed: " + a.toString() + " " +
                          s.toString());
        }
    wal.close();
    fs::remove_all(wal_dir);
}

} // namespace

Outcome
runServeMixed(const Options &o, Tracer &tr)
{
    Outcome out;
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned nclients = std::max(1u, nproc / 2);
    const size_t rounds = std::max(
        {static_cast<size_t>(std::ceil(o.seconds * kRoundsPerSecond)),
         (kMinRuns + kReadsPerRound * nclients - 1) /
             (kReadsPerRound * nclients),
         (kMinMutates + kWritesPerRound * nclients - 1) /
             (kWritesPerRound * nclients)});
    const auto cost_rounds =
        static_cast<size_t>(std::ceil(o.seconds * kCostRoundsPerSecond));
    const std::string base = o.outDir + "/serve";
    const std::string wal_dir = base + "/wal";
    fs::remove_all(base);
    fs::create_directories(base);

    // The clients and the kernel pool together use nproc threads, so
    // the two clients' concurrent runs do not oversubscribe the CPUs.
    cobra::ThreadPool pool(std::max(1u, nproc - nclients));
    std::unique_ptr<cobra::BatchServer> server;
    std::unique_ptr<cobra::SocketServer> sock;
    std::vector<Client> clients;

    // Set-up, repeated: client inputs and their references, a fresh
    // WAL directory, BatchServer construction and the socket listener.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        if (sock)
            sock->stop();
        sock.reset();
        server.reset();
        fs::remove_all(wal_dir);
        Tracer::Scope s(tr, "setup.server", "bench");
        const double t0 = nowSeconds();
        clients.clear();
        clients.resize(nclients);
        for (unsigned c = 0; c < nclients; ++c) {
            Client &cl = clients[c];
            cl.id = c;
            cl.readTenant = 10 + c;
            cl.dcTenant = 100 + c;
            cl.prTenant = 200 + c;
            cl.reads = makeReads(o.seed * 1000 + c, cl.readTenant);
            cl.dc = std::make_unique<MutationStream>(
                kMutNodes, kMutTarget, o.seed * 1000 + 100 + c);
            cl.pr = std::make_unique<MutationStream>(
                kMutNodes, kMutTarget, o.seed * 1000 + 200 + c);
        }
        server = std::make_unique<cobra::BatchServer>(serverConfig(wal_dir),
                                                      pool);
        sock = std::make_unique<cobra::SocketServer>(*server,
                                                     socketPathIn(base));
        if (cobra::Status st = sock->start(); !st.ok())
            throw std::runtime_error("socket start: " + st.toString());
        setups.push_back(nowSeconds() - t0);
    }

    double deadline = 0; // written before the phase-A release
    Gate gate(nclients);

    auto client_main = [&](Client &c) {
        cobra::ClientConfig cc;
        cc.socketPath = socketPathIn(base);
        cc.retry.maxAttempts = 1;
        cobra::ServerClient client(cc);
        // One served request; returns the response when the call and
        // the response code are ok, else records the failure.
        auto call = [&](cobra::RequestFrame req, cobra::ResponseFrame *resp) {
            req.requestId = (static_cast<uint64_t>(c.id + 1) << 40) | ++c.seq;
            const double us = tr.nowUs();
            const double cpu0 = processCpuSeconds();
            const double t0 = nowSeconds();
            const cobra::Status st = client.call(req, resp);
            const double lat = msSince(t0);
            const double cpu_ms = (processCpuSeconds() - cpu0) * 1e3;
            c.roundAcc += lat / 1e3;
            const bool ok = st.ok() && resp->code == cobra::ErrorCode::kOk;
            if (tr.enabled()) {
                tr.span(std::string("client.") + cobra::to_string(req.op),
                        "client", us, lat * 1e3, req.requestId);
                // Server-side spans from the response's own timings,
                // centred in what remains of the client span.
                const double q = resp->queueMicros, r = resp->serverMicros;
                const double wire = std::max(0.0, lat * 1e3 - q - r);
                tr.span("server.queue", "server", us + wire / 2, q,
                        req.requestId);
                tr.span("server.run", "server", us + wire / 2 + q, r,
                        req.requestId);
            }
            const Sample smp{
                req.op, req.kernel == cobra::ServerKernel::kDegreeCount, lat,
                resp->queueMicros / 1e3, resp->serverMicros / 1e3, cpu_ms};
            if (c.measuring)
                c.samples.push_back(smp);
            if (c.costing)
                c.costs.push_back(smp);
            if (!ok)
                std::cerr << "perfbench: request " << req.requestId << " ("
                          << cobra::to_string(req.op) << "): "
                          << (st.ok() ? resp->message : st.toString())
                          << "\n";
            return ok;
        };
        auto book = [&](bool ok) {
            ++c.attempted;
            c.failed += ok ? 0 : 1;
        };
        auto mutateDc = [&](const std::vector<MutationOp> &ops) {
            cobra::ResponseFrame resp;
            const bool ok =
                call(mutateFrame(c.dcTenant, cobra::ServerKernel::kDegreeCount,
                                 ops),
                     &resp);
            book(ok && c.dc->model().degreeChecksum().matches(
                           resp.resultChecksum));
            c.dcBatches.push_back(ops);
        };
        auto mutatePr = [&](const std::vector<MutationOp> &ops) {
            cobra::ResponseFrame resp;
            SentBatch sent;
            sent.ops = ops;
            sent.ok = call(mutateFrame(c.prTenant,
                                       cobra::ServerKernel::kPagerank, ops),
                           &resp);
            sent.checksum = resp.resultChecksum;
            c.prBatches.push_back(std::move(sent)); // booked at replay
        };
        size_t next_read = 0;
        auto read = [&]() {
            const Read &r = c.reads[next_read++ % c.reads.size()];
            cobra::ResponseFrame resp;
            book(call(r.req, &resp) && r.expect.matches(resp.resultChecksum));
        };
        auto round = [&]() {
            read();
            read();
            mutateDc(c.dc->nextBatch(kMutOps));
            read();
            read();
            mutatePr(c.pr->nextBatch(kMutOps));
        };

        // Warm-up: fill both tenants to their target size, two rounds.
        for (size_t i = 0; i < kMutTarget / kFillOps; ++i) {
            mutateDc(c.dc->fillBatch(kFillOps));
            mutatePr(c.pr->fillBatch(kFillOps));
        }
        for (int i = 0; i < kWarmRounds; ++i)
            round();

        gate.arriveAndWait(); // phase A starts
        c.measuring = true;
        for (size_t i = 0; i < rounds && nowSeconds() < deadline; ++i) {
            c.roundAcc = 0;
            round();
            c.roundSeconds.push_back(c.roundAcc);
        }
        c.phaseARequests = c.samples.size();
        c.measuring = false;
        gate.arriveAndWait(); // phase A done
        // Cost phase: client 0 alone, so the process's CPU time during
        // a call is that request's cost.
        c.costing = c.id == 0;
        for (size_t i = 0; c.costing && i < cost_rounds; ++i)
            round();
        c.costing = false;
        gate.arriveAndWait(); // checkpoint taken behind this gate
        c.measuring = true;
        for (int i = 0; i < kTailRounds; ++i)
            round();
        c.measuring = false;

        for (int k = 0; k < 2; ++k) {
            cobra::RequestFrame snap;
            snap.tenantId = k ? c.prTenant : c.dcTenant;
            snap.op = cobra::RequestOp::kSnapshot;
            snap.numIndices = kMutNodes;
            cobra::ResponseFrame resp;
            const bool ok = call(snap, &resp);
            const EdgeSetModel &m = k ? c.pr->model() : c.dc->model();
            book(ok && m.fingerprint().matches(resp.resultChecksum));
            (k ? c.snapPr : c.snapDc) = resp.resultChecksum;
        }
    };

    std::vector<std::thread> threads;
    for (Client &c : clients)
        threads.emplace_back(client_main, std::ref(c));
    gate.awaitAll(); // warm-up done
    const uint64_t f0 = minorFaults();
    const double c0 = processCpuSeconds();
    const double t_start = nowSeconds();
    deadline = t_start + kDeadlineFactor *
                             std::max(o.seconds, static_cast<double>(rounds) /
                                                     kRoundsPerSecond);
    gate.release();
    gate.awaitAll(); // phase A done
    const double phase_a_s = nowSeconds() - t_start;
    const double cpu_a = processCpuSeconds() - c0;
    const uint64_t f1 = minorFaults();
    gate.release();
    gate.awaitAll(); // cost phase done
    double checkpoint_ms = 0;
    {
        Tracer::Scope s(tr, "durability.checkpointNow", "durability");
        const double t0 = nowSeconds();
        if (cobra::Status st = server->checkpointNow(); !st.ok())
            out.wrong("checkpointNow: " + st.toString());
        checkpoint_ms = msSince(t0);
    }
    gate.release();
    for (auto &t : threads)
        t.join();

    const cobra::ServerStats stats = server->stats();
    sock->stop();
    server->stop(); // no shutdown checkpoint: the crash model
    sock.reset();
    server.reset();
    if (!stats.conserved())
        out.wrong("server lifecycle accounting does not close");
    if (stats.mutateApplied * 2 <= stats.mutateOps)
        out.wrong("applied mutation ops are not the majority");

    // Recovery, timed on identical copies of the crashed directory.
    const uint64_t expect_replayed =
        static_cast<uint64_t>(kTailRounds) * kWritesPerRound * nclients;
    std::vector<double> recovery;
    double replayed = 0;
    for (int i = 0; i < kRecoveries; ++i) {
        const std::string copy = base + "/crashed" + std::to_string(i);
        fs::copy(wal_dir, copy, fs::copy_options::recursive);
    }
    for (int i = 0; i < kRecoveries; ++i) {
        const std::string copy = base + "/crashed" + std::to_string(i);
        Tracer::Scope s(tr, "durability.recover", "durability");
        const double t0 = nowSeconds();
        cobra::BatchServer rec(serverConfig(copy), pool);
        recovery.push_back(nowSeconds() - t0);
        replayed = static_cast<double>(rec.recovery().replayedBatches);
        out.op(rec.recovery().replayedBatches == expect_replayed,
               "recovery replayed " + std::to_string(replayed) +
                   " batches, expected " + std::to_string(expect_replayed));
        for (const Client &c : clients)
            for (int k = 0; k < 2; ++k) {
                cobra::RequestFrame snap;
                snap.tenantId = k ? c.prTenant : c.dcTenant;
                snap.op = cobra::RequestOp::kSnapshot;
                snap.numIndices = kMutNodes;
                const cobra::ResponseFrame resp = rec.call(snap);
                out.op(resp.code == cobra::ErrorCode::kOk &&
                           resp.resultChecksum == (k ? c.snapPr : c.snapDc),
                       "snapshot after recovery differs from the "
                       "acknowledged one");
            }
        rec.stop();
        fs::remove_all(copy);
    }

    // PageRank tenants: replay, certify every served checksum and the
    // final scores; traced runs also time each layer on the replay.
    LayerTimes lt;
    for (Client &c : clients) {
        replayTenant(c, /*pagerank=*/true, pool, lt, o.trace, out, tr);
        if (o.trace)
            replayTenant(c, /*pagerank=*/false, pool, lt, true, out, tr);
    }
    if (o.trace)
        replayRequests(clients, pool, lt, base + "/replay_wal", out, tr);
    fs::remove_all(base);

    // Metrics over the measured phases. Client-observed latencies and
    // wall-clock throughput follow the hypervisor's steal time on a
    // shared VM, so the end-to-end figures are CPU costs: per request in
    // the cost phase, and requests per CPU-second in phase A.
    std::vector<double> run_lat, mut_lat, run_q, run_r, run_w, mut_q, mut_r;
    std::vector<Sample> measured, costs;
    // Wall-clock throughput: each client's requests per round over its
    // median round time, summed over the concurrent clients.
    size_t phase_a = 0;
    double rps = 0;
    for (Client &c : clients) {
        out.attempted += c.attempted;
        out.failed += c.failed;
        phase_a += c.phaseARequests;
        rps += (kReadsPerRound + kWritesPerRound) / median(c.roundSeconds);
        measured.insert(measured.end(), c.samples.begin(), c.samples.end());
        costs.insert(costs.end(), c.costs.begin(), c.costs.end());
        for (const Sample &s : c.samples) {
            if (s.op == cobra::RequestOp::kRun) {
                run_lat.push_back(s.latencyMs);
                run_q.push_back(s.queueMs);
                run_r.push_back(s.runMs);
                run_w.push_back(s.latencyMs - s.queueMs - s.runMs);
            } else {
                mut_lat.push_back(s.latencyMs);
                mut_q.push_back(s.queueMs);
                mut_r.push_back(s.runMs);
            }
        }
    }
    if (run_lat.size() < kMinRuns || mut_lat.size() < kMinMutates)
        out.wrong("too few samples for the reported percentiles");

    using Op = cobra::RequestOp;
    out.e2e("setup_s", "s", median(setups));
    out.e2e("op_p50_ms", "ms", typical(costs, Op::kRun, &Sample::cpuMs));
    out.e2e("ref_p50_ms", "ms", typical(costs, Op::kMutate, &Sample::cpuMs));
    out.e2e("ops_per_s", "1/s", static_cast<double>(phase_a) / cpu_a);
    out.e2e("peak_rss_mb", "MB", peakRssMb());
    if (o.trace) {
        out.layer("server.run_p50_ms", "ms",
                  typical(measured, Op::kRun, &Sample::latencyMs));
        out.layer("server.mutate_p50_ms", "ms",
                  typical(measured, Op::kMutate, &Sample::latencyMs));
        out.layer("server.rps", "1/s", rps);
        out.layer("server.run_p99_ms", "ms", percentile(run_lat, 99));
        out.layer("server.mutate_p95_ms", "ms", percentile(mut_lat, 95));
        out.layer("durability.recovery_s", "s", median(recovery));
        out.layer("server.queue_ms", "ms", median(run_q));
        out.layer("server.run_ms", "ms", median(run_r));
        out.layer("server.wire_ms", "ms", median(run_w));
        out.layer("server.mutate_queue_ms", "ms", median(mut_q));
        out.layer("server.mutate_run_ms", "ms", median(mut_r));
        out.layer("server.encode_us", "us", median(lt.encodeUs));
        out.layer("server.decode_us", "us", median(lt.decodeUs));
        out.layer("server.minflt_per_req", "count",
                  static_cast<double>(f1 - f0) /
                      static_cast<double>(std::max<size_t>(1, phase_a)));
        out.layer("pb.req_init_ms", "ms", median(lt.reqInit));
        out.layer("pb.req_binning_ms", "ms", median(lt.reqBinning));
        out.layer("pb.req_accumulate_ms", "ms", median(lt.reqAccumulate));
        out.layer("resilience.supervise_ms", "ms", median(lt.supervise));
        out.layer("check.verify_ms", "ms", median(lt.verify));
        out.layer("graph.apply_ms", "ms", median(lt.apply));
        out.layer("kernels.incremental_ms", "ms", median(lt.incremental));
        out.layer("check.certify_ms", "ms", median(lt.certify));
        out.layer("graph.compact_ms", "ms", median(lt.compact));
        out.layer("graph.compactions", "count", lt.compactions);
        out.layer("durability.append_ms", "ms", median(lt.append));
        out.layer("durability.fsync_ms", "ms", median(lt.fsync));
        out.layer("durability.checkpoint_ms", "ms", checkpoint_ms);
        out.layer("durability.replayed_batches", "count", replayed);
    }
    std::vector<double> share;
    for (size_t i = 0; i < run_lat.size(); ++i)
        share.push_back((run_q[i] + run_r[i]) / run_lat[i]);
    std::cout << "# serve_mixed: " << nclients << " clients, phase A "
              << phase_a_s << " s, " << run_lat.size() << " kRun and " << mut_lat.size()
              << " kMutate measured; queue+run = " << median(share) * 100
              << "% of client latency (median request); mutate applied "
              << stats.mutateApplied << "/" << stats.mutateOps
              << " ops, compactions " << stats.compactions << "\n";
    return out;
}

} // namespace perfbench
