/**
 * @file
 * The batch server's acceptance suite (src/server/): wire-frame
 * hardening, admission control, WRR fairness, overload shedding,
 * deadline propagation, graceful shutdown, and the in-process
 * chaos/soak run that closes the lifecycle books exactly.
 *
 * The contract under test, end to end:
 *
 *  - a malformed frame is a typed Status from the decoder — truncated
 *    at any byte, corrupted in any field, lying about any length —
 *    never a crash, hang, or allocation proportional to the lie;
 *  - over-capacity work is rejected *before* it queues, in
 *    microseconds, with the retry-steering split (kUnavailable =
 *    back off, kResourceExhausted = your quota) intact at 2x+
 *    overload;
 *  - a flooding tenant delays only itself (WRR pop order);
 *  - a client deadline is enforced while queued (shed), while running
 *    (watchdog), and across the retry ladder (overallDeadline) — an
 *    injected stall surfaces as kDeadlineExceeded within the
 *    watchdog bound and the server stays healthy;
 *  - conservation is exact under chaos: every admitted request
 *    reaches exactly one terminal state, every future resolves, and
 *    every ok is oracle-certified with a result fingerprint.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "src/check/fault_injector.h"
#include "src/graph/generators.h"
#include "src/server/admission.h"
#include "src/server/batch_server.h"
#include "src/server/client.h"
#include "src/server/frame.h"
#include "src/server/tenant_queue.h"
#include "src/server/wire_socket.h"
#include "src/util/thread_pool.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace cobra {
namespace {

using namespace std::chrono_literals;

/** A small, valid request over a uniform stream. */
RequestFrame
makeRequest(uint64_t tenant, uint64_t id, uint64_t updates = 4096,
            uint64_t indices = 2048,
            ServerKernel kernel = ServerKernel::kDegreeCount)
{
    RequestFrame req;
    req.tenantId = tenant;
    req.requestId = id;
    req.kernel = kernel;
    req.engine = PbEngineKind::kWriteCombine;
    req.bins = 256;
    req.numIndices = indices;
    const EdgeList el = generateUniform(static_cast<NodeId>(indices),
                                        updates, 7 + id);
    req.payload.reserve(el.size() * 2);
    for (const Edge &e : el) {
        req.payload.push_back(e.src);
        req.payload.push_back(e.dst);
    }
    return req;
}

// ---------------------------------------------------------------- frame

TEST(Frame, RequestRoundTripPreservesEveryField)
{
    RequestFrame req = makeRequest(7, 42, 64, 128,
                                   ServerKernel::kNeighborPopulate);
    req.engine = PbEngineKind::kWriteCombine;
    req.skewAdaptive = true;
    req.wcLines = 4;
    req.deadlineMs = 1500;
    req.injectSite = static_cast<uint32_t>(FaultSite::kPbStallBinning);
    req.injectFireAt = 3;
    req.injectSeed = 99;

    const std::vector<uint8_t> buf = encodeRequest(req);
    ASSERT_EQ(buf.size(), encodedRequestBytes(req));
    RequestFrame got;
    ASSERT_TRUE(decodeRequest(buf.data(), buf.size(), &got).ok());
    EXPECT_EQ(got.tenantId, req.tenantId);
    EXPECT_EQ(got.requestId, req.requestId);
    EXPECT_EQ(got.kernel, req.kernel);
    EXPECT_EQ(got.engine, req.engine);
    EXPECT_EQ(got.skewAdaptive, req.skewAdaptive);
    EXPECT_EQ(got.bins, req.bins);
    EXPECT_EQ(got.wcLines, req.wcLines);
    EXPECT_EQ(got.deadlineMs, req.deadlineMs);
    EXPECT_EQ(got.injectSite, req.injectSite);
    EXPECT_EQ(got.injectFireAt, req.injectFireAt);
    EXPECT_EQ(got.injectSeed, req.injectSeed);
    EXPECT_EQ(got.numIndices, req.numIndices);
    EXPECT_EQ(got.payload, req.payload);
}

TEST(Frame, ResponseRoundTripPreservesEveryField)
{
    ResponseFrame resp;
    resp.tenantId = 3;
    resp.requestId = 17;
    resp.code = ErrorCode::kDeadlineExceeded;
    resp.attempts = 2;
    resp.retries = 1;
    resp.degradations = 1;
    resp.usedBaseline = true;
    resp.finalEngine = PbEngineKind::kScalar;
    resp.finalBins = 64;
    resp.resultChecksum = 0xdeadbeefcafef00dull;
    resp.serverMicros = 123456;
    resp.queueMicros = 789;
    resp.message = "watchdog tripped";

    const std::vector<uint8_t> buf = encodeResponse(resp);
    ResponseFrame got;
    ASSERT_TRUE(decodeResponse(buf.data(), buf.size(), &got).ok());
    EXPECT_EQ(got.tenantId, resp.tenantId);
    EXPECT_EQ(got.requestId, resp.requestId);
    EXPECT_EQ(got.code, resp.code);
    EXPECT_EQ(got.attempts, resp.attempts);
    EXPECT_EQ(got.retries, resp.retries);
    EXPECT_EQ(got.degradations, resp.degradations);
    EXPECT_EQ(got.usedBaseline, resp.usedBaseline);
    EXPECT_EQ(got.finalEngine, resp.finalEngine);
    EXPECT_EQ(got.finalBins, resp.finalBins);
    EXPECT_EQ(got.resultChecksum, resp.resultChecksum);
    EXPECT_EQ(got.serverMicros, resp.serverMicros);
    EXPECT_EQ(got.queueMicros, resp.queueMicros);
    EXPECT_EQ(got.message, resp.message);
}

TEST(Frame, DecodeRejectsEveryTruncation)
{
    const std::vector<uint8_t> buf = encodeRequest(makeRequest(1, 1, 8, 16));
    RequestFrame out;
    for (size_t len = 0; len < buf.size(); ++len)
        EXPECT_FALSE(decodeRequest(buf.data(), len, &out).ok())
            << "prefix of " << len << " bytes decoded";
    const std::vector<uint8_t> rbuf = encodeResponse(ResponseFrame{});
    ResponseFrame rout;
    for (size_t len = 0; len < rbuf.size(); ++len)
        EXPECT_FALSE(decodeResponse(rbuf.data(), len, &rout).ok());
}

TEST(Frame, DecodeRejectsTrailingBytes)
{
    std::vector<uint8_t> buf = encodeRequest(makeRequest(1, 1, 8, 16));
    buf.push_back(0);
    RequestFrame out;
    EXPECT_FALSE(decodeRequest(buf.data(), buf.size(), &out).ok());
}

TEST(Frame, DecodeRejectsCorruptHeaders)
{
    const RequestFrame base = makeRequest(1, 1, 8, 16);
    RequestFrame out;

    auto corrupted = [&](size_t offset, uint8_t value) {
        std::vector<uint8_t> buf = encodeRequest(base);
        buf[offset] = value;
        return decodeRequest(buf.data(), buf.size(), &out);
    };
    EXPECT_FALSE(corrupted(0, 0xff).ok()) << "magic";
    EXPECT_FALSE(corrupted(4, 0x7f).ok()) << "version";
    EXPECT_FALSE(corrupted(6, 1).ok()) << "reserved";
    EXPECT_FALSE(corrupted(24, 0).ok()) << "kernel id 0";
    EXPECT_FALSE(corrupted(24, 9).ok()) << "kernel id 9";
    EXPECT_FALSE(corrupted(25, 200).ok()) << "engine id";
    EXPECT_FALSE(corrupted(26, 0x82).ok()) << "unknown flag bits";
    EXPECT_FALSE(corrupted(28, 3).ok()) << "non-pow2 bins";
    EXPECT_FALSE(corrupted(32, 0).ok()) << "wcLines 0";
    EXPECT_FALSE(corrupted(40, 0xff).ok()) << "fault site";
}

// Engine ids 2..4 named engines that were removed. They are refused
// typed on every path, never remapped to a surviving engine: a request
// is kInvalidArgument (validated or decoded), a response is malformed.
TEST(Frame, RemovedEngineIdsAreRejectedNotRemapped)
{
    constexpr size_t kRequestEngineByte = 25;
    constexpr size_t kResponseEngineByte = 41;
    const RequestFrame base = makeRequest(1, 1, 8, 16);
    ResponseFrame resp;
    resp.finalEngine = PbEngineKind::kWriteCombine;
    const std::vector<uint8_t> resp_buf = encodeResponse(resp);
    ASSERT_EQ(resp_buf[kResponseEngineByte],
              static_cast<uint8_t>(PbEngineKind::kWriteCombine));
    for (uint8_t removed : {2, 3, 4}) {
        SCOPED_TRACE("engine id " + std::to_string(removed));
        RequestFrame req = base;
        req.engine = static_cast<PbEngineKind>(removed);
        Status s = validateRequest(req);
        EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument) << s.toString();

        std::vector<uint8_t> buf = encodeRequest(base);
        buf[kRequestEngineByte] = removed;
        RequestFrame out;
        s = decodeRequest(buf.data(), buf.size(), &out);
        EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument) << s.toString();

        std::vector<uint8_t> rbuf = resp_buf;
        rbuf[kResponseEngineByte] = removed;
        ResponseFrame rout;
        s = decodeResponse(rbuf.data(), rbuf.size(), &rout);
        EXPECT_EQ(s.code(), ErrorCode::kCorruptFile) << s.toString();
    }
}

TEST(Frame, DecodeRejectsOutOfRangePayloadIndex)
{
    RequestFrame req = makeRequest(1, 1, 8, 16);
    std::vector<uint8_t> buf = encodeRequest(req);
    // Last payload word -> numIndices (one past the namespace).
    const size_t last = buf.size() - 4;
    buf[last] = static_cast<uint8_t>(req.numIndices);
    buf[last + 1] = static_cast<uint8_t>(req.numIndices >> 8);
    buf[last + 2] = 0;
    buf[last + 3] = 0;
    RequestFrame out;
    const Status s = decodeRequest(buf.data(), buf.size(), &out);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kOutOfRange);
}

TEST(Frame, DecodeRejectsLyingPayloadLength)
{
    std::vector<uint8_t> buf = encodeRequest(makeRequest(1, 1, 8, 16));
    // Claim a huge payload without supplying it: the decoder must
    // reject on the length cross-check, not trust the header and
    // allocate gigabytes.
    const size_t words_off = 68;
    buf[words_off] = 0xff;
    buf[words_off + 1] = 0xff;
    buf[words_off + 2] = 0xff;
    buf[words_off + 3] = 0x0f;
    RequestFrame out;
    EXPECT_FALSE(decodeRequest(buf.data(), buf.size(), &out).ok());
}

TEST(Frame, ValidateRejectsSemanticViolations)
{
    RequestFrame req = makeRequest(1, 1, 8, 16);
    ASSERT_TRUE(validateRequest(req).ok());

    RequestFrame bad = req;
    bad.payload.push_back(5); // odd word count
    EXPECT_FALSE(validateRequest(bad).ok());

    bad = req;
    bad.numIndices = 0;
    EXPECT_FALSE(validateRequest(bad).ok());

    bad = req;
    bad.deadlineMs = kMaxDeadlineMs + 1;
    EXPECT_FALSE(validateRequest(bad).ok());

    bad = req;
    bad.wcLines = kMaxWcLines + 1;
    EXPECT_FALSE(validateRequest(bad).ok());

    bad = req;
    bad.bins = 1u << 27; // pow2 but over the request cap
    EXPECT_FALSE(validateRequest(bad).ok());
}

TEST(Frame, EncodeRefusesInvalidRequest)
{
    RequestFrame bad = makeRequest(1, 1, 8, 16);
    bad.bins = 3;
    EXPECT_THROW(encodeRequest(bad), Error);
}

// ------------------------------------------------------------ admission

TEST(Admission, GlobalCapRejectsUnavailableAndReleaseRestores)
{
    AdmissionConfig cfg;
    cfg.maxOutstandingGlobal = 2;
    cfg.maxOutstandingPerTenant = 2;
    AdmissionController ac(cfg);

    ASSERT_TRUE(ac.tryAdmit(1, 100).ok());
    ASSERT_TRUE(ac.tryAdmit(2, 100).ok());
    const Status s = ac.tryAdmit(3, 100);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable);

    ac.release(1, 100);
    EXPECT_TRUE(ac.tryAdmit(3, 100).ok());
    EXPECT_EQ(ac.outstanding(), 2u);
}

TEST(Admission, PerTenantCapDoesNotBlockOthers)
{
    AdmissionConfig cfg;
    cfg.maxOutstandingGlobal = 10;
    cfg.maxOutstandingPerTenant = 1;
    AdmissionController ac(cfg);

    ASSERT_TRUE(ac.tryAdmit(1, 1).ok());
    EXPECT_EQ(ac.tryAdmit(1, 1).code(), ErrorCode::kUnavailable);
    EXPECT_TRUE(ac.tryAdmit(2, 1).ok());
}

TEST(Admission, TenantQuotaIsResourceExhaustedGlobalIsUnavailable)
{
    AdmissionConfig cfg;
    cfg.tenantBudgetBytes = 1000;
    cfg.globalBudgetBytes = 2000;
    AdmissionController ac(cfg);

    ASSERT_TRUE(ac.tryAdmit(1, 800).ok());
    // Tenant 1's own quota is the binding constraint (global still has
    // room): typed as the tenant's problem.
    EXPECT_EQ(ac.tryAdmit(1, 800).code(),
              ErrorCode::kResourceExhausted);
    // Tenant 2 is within its own quota but the *global* budget is the
    // binding constraint: typed as transient service pressure.
    ASSERT_TRUE(ac.tryAdmit(2, 800).ok());
    EXPECT_EQ(ac.tryAdmit(3, 800).code(), ErrorCode::kUnavailable);
    // Rollbacks from both rejections left the books balanced.
    ac.release(1, 800);
    ac.release(2, 800);
    EXPECT_EQ(ac.outstanding(), 0u);
    EXPECT_EQ(ac.reservedBytes(), 0u);
    EXPECT_TRUE(ac.tryAdmit(3, 800).ok());
}

// ------------------------------------------------------------------ wrr

TEST(TenantQueues, RoundRobinInterleavesTenants)
{
    TenantQueues<int> q;
    for (int i = 0; i < 4; ++i)
        q.push(100, 100 * 10 + i);
    for (int i = 0; i < 2; ++i)
        q.push(200, 200 * 10 + i);
    for (int i = 0; i < 2; ++i)
        q.push(300, 300 * 10 + i);

    std::vector<uint64_t> order;
    int item;
    uint64_t tenant;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.pop(&item, &tenant));
        order.push_back(tenant);
    }
    // The flooding tenant (100) is served once per round: a light
    // tenant's request is never behind more than one heavy item.
    const std::vector<uint64_t> expect = {100, 200, 300, 100,
                                          200, 300, 100, 100};
    EXPECT_EQ(order, expect);
}

TEST(TenantQueues, WeightsGrantProportionalService)
{
    TenantQueues<int> q({{1, 2}, {2, 1}});
    for (int i = 0; i < 6; ++i)
        q.push(1, i);
    for (int i = 0; i < 3; ++i)
        q.push(2, i);

    std::vector<uint64_t> order;
    int item;
    uint64_t tenant;
    for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(q.pop(&item, &tenant));
        order.push_back(tenant);
    }
    const std::vector<uint64_t> expect = {1, 1, 2, 1, 1, 2, 1, 1, 2};
    EXPECT_EQ(order, expect);
}

TEST(TenantQueues, CloseDrainsBacklogThenReturnsFalse)
{
    TenantQueues<int> q;
    q.push(1, 11);
    q.push(2, 22);
    q.close();
    int item;
    uint64_t tenant;
    EXPECT_TRUE(q.pop(&item, &tenant));
    EXPECT_TRUE(q.pop(&item, &tenant));
    EXPECT_FALSE(q.pop(&item, &tenant));
}

// ------------------------------------------------------------- lifecycle

TEST(BatchServer, HappyPathCompletesCertifiedWithStableChecksum)
{
    ThreadPool pool(4);
    ServerConfig cfg;
    cfg.dispatchThreads = 2;
    BatchServer server(cfg, pool);

    std::vector<std::future<ResponseFrame>> futs;
    for (uint64_t i = 0; i < 4; ++i)
        futs.push_back(server.submit(makeRequest(1, 100, 4096, 2048)));
    futs.push_back(server.submit(makeRequest(
        2, 200, 4096, 2048, ServerKernel::kNeighborPopulate)));

    std::vector<ResponseFrame> got;
    for (auto &f : futs)
        got.push_back(f.get());
    for (const ResponseFrame &r : got) {
        EXPECT_EQ(r.code, ErrorCode::kOk) << r.message;
        EXPECT_NE(r.resultChecksum, 0u);
        EXPECT_GE(r.attempts, 1u);
    }
    // Identical payload => identical fingerprint, across kernels' runs.
    EXPECT_EQ(got[0].resultChecksum, got[1].resultChecksum);
    EXPECT_EQ(got[0].resultChecksum, got[3].resultChecksum);

    server.stop();
    const ServerStats st = server.stats();
    EXPECT_EQ(st.admitted, 5u);
    EXPECT_EQ(st.completed, 5u);
    EXPECT_TRUE(st.conserved());
}

TEST(BatchServer, InvalidRequestIsTypedRejectNotAdmitted)
{
    ThreadPool pool(2);
    BatchServer server(ServerConfig{}, pool);

    RequestFrame bad = makeRequest(1, 1, 8, 16);
    bad.payload[0] = static_cast<uint32_t>(bad.numIndices); // OOB index
    ResponseFrame resp = server.call(std::move(bad));
    EXPECT_EQ(resp.code, ErrorCode::kOutOfRange);

    bad = makeRequest(1, 2, 8, 16);
    bad.bins = 3;
    resp = server.call(std::move(bad));
    EXPECT_EQ(resp.code, ErrorCode::kInvalidArgument);

    server.stop();
    const ServerStats st = server.stats();
    EXPECT_EQ(st.rejectedInvalid, 2u);
    EXPECT_EQ(st.admitted, 0u);
    EXPECT_TRUE(st.conserved());
}

/** A request that parks the (single) dispatcher until its deadline. */
RequestFrame
stallRequest(uint64_t tenant, uint64_t id, uint32_t deadline_ms)
{
    RequestFrame req = makeRequest(tenant, id, 2048, 1024);
    req.deadlineMs = deadline_ms;
    req.injectSite = static_cast<uint32_t>(FaultSite::kPbStallBinning);
    return req;
}

TEST(BatchServer, OverloadRejectsBeforeEnqueueWithTypedFastFail)
{
    ThreadPool pool(2);
    ServerConfig cfg;
    cfg.dispatchThreads = 1;
    cfg.admission.maxOutstandingGlobal = 4;
    BatchServer server(cfg, pool);

    // Fill capacity with stalled work (bounded by their deadlines).
    std::vector<std::future<ResponseFrame>> admitted;
    for (uint64_t i = 0; i < 4; ++i)
        admitted.push_back(server.submit(stallRequest(i, i, 500)));
    ASSERT_EQ(server.stats().admitted, 4u);

    // 2x the capacity again: every extra request must fast-fail with
    // the back-off code, before touching a queue or a worker.
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ResponseFrame> rejected;
    for (uint64_t i = 0; i < 8; ++i)
        rejected.push_back(server.call(makeRequest(10 + i, i)));
    const auto reject_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    for (const ResponseFrame &r : rejected)
        EXPECT_EQ(r.code, ErrorCode::kUnavailable) << r.message;
    // Synchronous microsecond-scale rejects; 8 of them in well under
    // the time one stalled request takes (generous CI bound).
    EXPECT_LT(reject_ms, 450);

    // The admitted stalled requests all reach a terminal deadline
    // state (running -> watchdog, or queued -> shed) — no hangs.
    for (auto &f : admitted) {
        ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
        EXPECT_EQ(f.get().code, ErrorCode::kDeadlineExceeded);
    }

    server.stop();
    const ServerStats st = server.stats();
    EXPECT_EQ(st.rejectedOverload, 8u);
    EXPECT_EQ(st.admitted, 4u);
    EXPECT_TRUE(st.conserved());
}

// The served-kernel table now includes the float/double reduction
// kernels: a pagerank or spmv request runs the same supervised ladder
// end-to-end and comes back kOk with a result fingerprint.
TEST(BatchServer, ServesPagerankAndSpmvEndToEnd)
{
    ThreadPool pool(2);
    BatchServer server(ServerConfig{}, pool);

    ResponseFrame pr = server.call(
        makeRequest(3, 1, 2048, 512, ServerKernel::kPagerank));
    EXPECT_EQ(pr.code, ErrorCode::kOk) << pr.message;
    EXPECT_NE(pr.resultChecksum, 0u);

    ResponseFrame sp = server.call(
        makeRequest(3, 2, 2048, 512, ServerKernel::kSpmv));
    EXPECT_EQ(sp.code, ErrorCode::kOk) << sp.message;
    EXPECT_NE(sp.resultChecksum, 0u);

    // Determinism across the wire: replaying the identical request
    // yields the same bit-pattern fingerprint (push/pull and thread
    // count do not change the floats).
    ResponseFrame pr2 = server.call(
        makeRequest(3, 1, 2048, 512, ServerKernel::kPagerank));
    EXPECT_EQ(pr2.resultChecksum, pr.resultChecksum);

    server.stop();
    EXPECT_EQ(server.stats().completed, 3u);
}

// An id past the served table is a *typed* invalid-argument reject at
// validation, long before any kernel object exists.
TEST(BatchServer, UnknownKernelIdIsInvalidArgument)
{
    ThreadPool pool(2);
    BatchServer server(ServerConfig{}, pool);
    RequestFrame bad = makeRequest(1, 1, 8, 16);
    bad.kernel = static_cast<ServerKernel>(7);
    ResponseFrame resp = server.call(std::move(bad));
    EXPECT_EQ(resp.code, ErrorCode::kInvalidArgument);
    EXPECT_NE(resp.message.find("unknown kernel id 7"),
              std::string::npos)
        << resp.message;
    server.stop();
    EXPECT_EQ(server.stats().rejectedInvalid, 1u);
}

TEST(BatchServer, TenantQuotaRejectIsResourceExhausted)
{
    ThreadPool pool(2);
    ServerConfig cfg;
    cfg.admission.tenantBudgetBytes = 64ull << 20;
    BatchServer server(cfg, pool);

    // An index namespace whose estimated footprint dwarfs the quota,
    // with a tiny actual payload: rejected on the *reservation*, long
    // before any allocation could hurt.
    RequestFrame big = makeRequest(5, 1, 64, 128);
    big.numIndices = 100ull << 20;
    ResponseFrame resp = server.call(std::move(big));
    EXPECT_EQ(resp.code, ErrorCode::kResourceExhausted);

    // The same tenant stays servable for right-sized work.
    EXPECT_EQ(server.call(makeRequest(5, 2)).code, ErrorCode::kOk);

    server.stop();
    EXPECT_EQ(server.stats().rejectedQuota, 1u);
    EXPECT_TRUE(server.stats().conserved());
}

TEST(BatchServer, DeadlinePropagatesThroughWatchdogAndLadder)
{
    ThreadPool pool(4);
    ServerConfig cfg;
    cfg.dispatchThreads = 2;
    BatchServer server(cfg, pool);

    const auto t0 = std::chrono::steady_clock::now();
    ResponseFrame resp = server.call(stallRequest(1, 1, 250));
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(resp.code, ErrorCode::kDeadlineExceeded) << resp.message;
    // Client deadline (250 ms) + watchdog poll + teardown slack; far
    // below the supervisor's 30 s default-attempt bound, proving the
    // *request* deadline clamped the ladder.
    EXPECT_LT(ms, 2000);

    // The stall did not poison the server: next request is clean.
    EXPECT_EQ(server.call(makeRequest(1, 2)).code, ErrorCode::kOk);

    server.stop();
    EXPECT_GE(server.stats().deadlineExceeded, 1u);
    EXPECT_TRUE(server.stats().conserved());
}

TEST(BatchServer, GracefulShutdownShedsBacklogAndResolvesEveryFuture)
{
    ThreadPool pool(2);
    ServerConfig cfg;
    cfg.dispatchThreads = 1;
    BatchServer server(cfg, pool);

    std::vector<std::future<ResponseFrame>> futs;
    for (uint64_t i = 0; i < 6; ++i)
        futs.push_back(server.submit(makeRequest(i % 2, i, 16384, 4096)));
    server.stop();

    uint64_t terminal = 0;
    for (auto &f : futs) {
        ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
        const ResponseFrame r = f.get();
        EXPECT_TRUE(r.code == ErrorCode::kOk ||
                    r.code == ErrorCode::kUnavailable)
            << to_string(r.code);
        ++terminal;
    }
    EXPECT_EQ(terminal, 6u);
    const ServerStats st = server.stats();
    EXPECT_TRUE(st.conserved());
    // Submitting after stop is a typed fast-fail, not a crash.
    EXPECT_EQ(server.call(makeRequest(9, 9)).code,
              ErrorCode::kUnavailable);
}

// ----------------------------------------------------------- chaos/soak

TEST(BatchServer, ChaosSoakConservesEveryRequestWithoutHangs)
{
    ThreadPool pool(4);
    ServerConfig cfg;
    cfg.dispatchThreads = 3;
    cfg.admission.maxOutstandingGlobal = 12;
    cfg.admission.maxOutstandingPerTenant = 6;
    cfg.admission.tenantBudgetBytes = 256ull << 20;
    BatchServer server(cfg, pool);

    constexpr int kClientThreads = 4;
    constexpr int kPerThread = 18;
    std::atomic<uint64_t> ok{0}, rejected{0}, failed{0}, hangs{0},
        badChecksum{0};

    auto client = [&](int ct) {
        for (int i = 0; i < kPerThread; ++i) {
            const uint64_t tenant = static_cast<uint64_t>(i % 3);
            const uint64_t id =
                static_cast<uint64_t>(ct) * 1000 + static_cast<uint64_t>(i);
            RequestFrame req;
            switch (i % 6) {
              case 0: // valid degree / wc
                req = makeRequest(tenant, id, 4096, 2048);
                break;
              case 1: // valid np / wc
                req = makeRequest(tenant, id, 4096, 2048,
                                  ServerKernel::kNeighborPopulate);
                break;
              case 2: // malformed: out-of-range payload index
                req = makeRequest(tenant, id, 64, 128);
                req.payload[1] =
                    static_cast<uint32_t>(req.numIndices + 5);
                break;
              case 3: // malformed: non-power-of-two bins
                req = makeRequest(tenant, id, 64, 128);
                req.bins = 1000;
                break;
              case 4: // deadline-doomed stall
                req = stallRequest(tenant, id, 60);
                break;
              default: // quota-buster reservation
                req = makeRequest(tenant, id, 64, 128);
                req.numIndices = 200ull << 20;
                break;
            }
            auto fut = server.submit(std::move(req));
            if (fut.wait_for(20s) != std::future_status::ready) {
                ++hangs;
                continue;
            }
            const ResponseFrame resp = fut.get();
            if (resp.code == ErrorCode::kOk) {
                ++ok;
                if (resp.resultChecksum == 0)
                    ++badChecksum;
            } else if (resp.attempts == 0) {
                ++rejected; // never ran (reject or shed)
            } else {
                ++failed;
            }
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kClientThreads; ++t)
        threads.emplace_back(client, t);
    for (auto &t : threads)
        t.join();
    server.stop();

    EXPECT_EQ(hangs, 0u);
    EXPECT_EQ(badChecksum, 0u);
    EXPECT_GT(ok.load(), 0u);
    EXPECT_GT(rejected.load(), 0u);

    const ServerStats st = server.stats();
    EXPECT_TRUE(st.conserved())
        << "admitted=" << st.admitted << " completed=" << st.completed
        << " failed=" << st.failed << " shed=" << st.shed;
    EXPECT_EQ(st.received,
              static_cast<uint64_t>(kClientThreads) * kPerThread + 0u);
    // Every kOk the clients saw is a completed, certified run.
    EXPECT_EQ(st.completed, ok.load());
}

// --------------------------------------------------------------- socket

/** Unique-enough socket path under the test's own pid. */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/cobra-test-" + std::to_string(::getpid()) + "-" + tag +
           ".sock";
}

TEST(SocketServer, EndToEndConcurrentClients)
{
    ThreadPool pool(4);
    ServerConfig cfg;
    cfg.dispatchThreads = 2;
    BatchServer server(cfg, pool);
    SocketServer sock(server, testSocketPath("e2e"));
    ASSERT_TRUE(sock.start().ok());

    std::atomic<int> ok{0};
    auto client = [&](uint64_t tenant) {
        ClientConfig ccfg;
        ccfg.socketPath = sock.path();
        ServerClient c(ccfg);
        for (uint64_t i = 0; i < 3; ++i) {
            ResponseFrame resp;
            const Status s =
                c.call(makeRequest(tenant, tenant * 10 + i), &resp);
            if (s.ok() && resp.code == ErrorCode::kOk &&
                resp.resultChecksum != 0)
                ++ok;
        }
    };
    std::thread a(client, 1), b(client, 2);
    a.join();
    b.join();
    EXPECT_EQ(ok.load(), 6);

    sock.stop();
    server.stop();
    EXPECT_TRUE(server.stats().conserved());
}

TEST(SocketServer, MalformedFrameGetsTypedErrorResponse)
{
    ThreadPool pool(2);
    BatchServer server(ServerConfig{}, pool);
    SocketServer sock(server, testSocketPath("mal"));
    ASSERT_TRUE(sock.start().ok());

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  sock.path().c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // A well-framed message whose body is garbage: the server must
    // answer with a typed error response, not drop the connection.
    const uint8_t garbage[100] = {0xde, 0xad};
    ASSERT_TRUE(writeFrame(fd, garbage, sizeof(garbage)).ok());
    std::vector<uint8_t> buf;
    ASSERT_TRUE(readFrame(fd, &buf).ok());
    ASSERT_FALSE(buf.empty());
    ResponseFrame resp;
    ASSERT_TRUE(decodeResponse(buf.data(), buf.size(), &resp).ok());
    EXPECT_EQ(resp.code, ErrorCode::kCorruptFile);
    ::close(fd);

    sock.stop();
    server.stop();
}

/** Live threads of this process. */
size_t
threadCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/**
 * Memory mappings of this process. A finished but unjoined thread
 * leaves /proc/self/task at once, yet keeps its stack mapped.
 */
size_t
mappingCount()
{
    std::ifstream in("/proc/self/maps");
    size_t n = 0;
    for (std::string line; std::getline(in, line);)
        ++n;
    return n;
}

// ServerClient connects once per request, so the accept loop must not
// keep one finished thread (and its stack mapping) per request until
// stop(): the process's thread and mapping counts stay flat.
TEST(SocketServer, SequentialClientsDoNotAccumulateThreads)
{
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "no /proc/self";
    ThreadPool pool(2);
    BatchServer server(ServerConfig{}, pool);
    SocketServer sock(server, testSocketPath("reap"));
    ASSERT_TRUE(sock.start().ok());
    ClientConfig ccfg;
    ccfg.socketPath = sock.path();
    ServerClient c(ccfg);
    const RequestFrame req = makeRequest(1, 1, 8, 16);

    ResponseFrame resp;
    ASSERT_TRUE(c.call(req, &resp).ok()); // warm-up connection
    const size_t threads_before = threadCount();
    const size_t maps_before = mappingCount();
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(c.call(req, &resp).ok());
        ASSERT_EQ(resp.code, ErrorCode::kOk) << resp.message;
    }
    EXPECT_LE(threadCount(), threads_before + 4);
    EXPECT_LE(mappingCount(), maps_before + 32);

    sock.stop();
    server.stop();
}

TEST(ServerClient, RetriesWithBackoffThenReportsUnavailable)
{
    ClientConfig ccfg;
    ccfg.socketPath = testSocketPath("nobody-home");
    ccfg.retry.maxAttempts = 3;
    ccfg.retry.baseDelay = 5ms;
    ServerClient c(ccfg);
    ResponseFrame resp;
    const Status s = c.call(makeRequest(1, 1, 8, 16), &resp);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(c.lastAttempts(), 3u);
}

// ----------------------------------------------- concurrent supervision

TEST(BatchServer, ConcurrentSupervisedRunsStayIsolated)
{
    // >= 4 concurrent in-flight supervised runs on one shared pool:
    // one of them is a chaos request whose injected stall trips its
    // own deadline; its neighbours must complete certified. (TSan
    // runs of this test are the race acceptance gate.)
    ThreadPool pool(8);
    ServerConfig cfg;
    cfg.dispatchThreads = 4;
    BatchServer server(cfg, pool);

    std::vector<std::future<ResponseFrame>> futs;
    futs.push_back(server.submit(stallRequest(9, 900, 300)));
    for (uint64_t i = 0; i < 7; ++i)
        futs.push_back(server.submit(makeRequest(
            i % 3, i, 16384, 4096,
            i % 2 ? ServerKernel::kNeighborPopulate
                  : ServerKernel::kDegreeCount)));

    int okCount = 0;
    for (size_t i = 0; i < futs.size(); ++i) {
        ASSERT_EQ(futs[i].wait_for(30s), std::future_status::ready)
            << "request " << i << " hung";
        const ResponseFrame r = futs[i].get();
        if (i == 0)
            EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);
        else if (r.code == ErrorCode::kOk)
            ++okCount;
    }
    EXPECT_EQ(okCount, 7) << "a neighbour was poisoned by the chaos run";

    server.stop();
    EXPECT_TRUE(server.stats().conserved());
}

// ------------------------------------------------- admission cost pin
//
// Audited for the durability PR: does the admission estimate
// double-count tombstones around kSnapshot/compaction? It cannot —
// estimateRequestCostBytes is a pure function of the request frame
// (updates, bins, wcLines, numIndices) and the pool width; it never
// consults tenant graph state, pending deltas, or tombstones. This
// test pins that property so a future "charge for graph size too"
// change has to come here and say so.
TEST(Admission, CostEstimateIsRequestDerivedNeverGraphDerived)
{
    const uint64_t n = 1 << 9;
    const EdgeList edges = generateUniform(static_cast<NodeId>(n),
                                           1 << 10, 77);
    auto mutateFrame = [&](bool deletes) {
        RequestFrame req;
        req.tenantId = 4;
        req.requestId = deletes ? 2 : 1;
        req.kernel = ServerKernel::kDegreeCount;
        req.engine = PbEngineKind::kWriteCombine;
        req.op = RequestOp::kMutate;
        req.bins = 64;
        req.numIndices = n;
        for (size_t j = 0; j < 128; ++j) {
            const Edge &e = edges[j % edges.size()];
            req.payload.push_back(deletes ? (e.src | kMutateDeleteBit)
                                          : e.src);
            req.payload.push_back(e.dst);
        }
        return req;
    };

    // A delete-heavy batch costs exactly what an insert-heavy batch of
    // the same shape costs: the delete bit adds no phantom updates.
    const uint64_t insertCost = estimateRequestCostBytes(mutateFrame(false), 4);
    const uint64_t deleteCost = estimateRequestCostBytes(mutateFrame(true), 4);
    EXPECT_EQ(insertCost, deleteCost);

    // And the estimate is stable across whatever the tenant's graph
    // went through: fresh, tombstone-laden, compacted — same frame,
    // same cost. (Run real mutations between samples to make the
    // "never consults graph state" claim an executed fact, not a
    // code-reading one.)
    ThreadPool pool(4);
    BatchServer server(ServerConfig{}, pool);
    const uint64_t before = estimateRequestCostBytes(mutateFrame(false), 4);
    ASSERT_EQ(server.call(mutateFrame(false)).code, ErrorCode::kOk);
    const uint64_t afterInserts =
        estimateRequestCostBytes(mutateFrame(false), 4);
    ASSERT_EQ(server.call(mutateFrame(true)).code, ErrorCode::kOk);
    const uint64_t afterDeletes =
        estimateRequestCostBytes(mutateFrame(false), 4);
    EXPECT_EQ(before, afterInserts);
    EXPECT_EQ(before, afterDeletes);
    server.stop();
    EXPECT_TRUE(server.stats().conserved());
}

// ------------------------------------------------- durability restart
//
// The real-daemon restart loop: spawn the cobra_server binary with a
// WAL directory, mutate over the socket, SIGKILL it mid-life, restart
// on the same directory, and require the recovered snapshot
// fingerprint to equal the never-crashed reference. Registered twice
// in CMake: once in the plain suite and once under the `durability`
// label with COBRA_SERVER_BIN pointing at the built daemon; without
// the env the suite skips (so the plain unit pass stays hermetic).

const char *
serverBin()
{
    return std::getenv("COBRA_SERVER_BIN");
}

struct Daemon
{
    pid_t pid = -1;
    int lastExit = -1; ///< exit code reaped by waitReady, if any

    /** Spawn the daemon; extra args appended after socket/wal flags. */
    void
    start(const std::string &socket, const std::string &walDir)
    {
        pid = ::fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            ::execl(serverBin(), serverBin(), "--socket",
                    socket.c_str(), "--threads", "2", "--dispatchers",
                    "2", "--wal-dir", walDir.c_str(), "--fsync-policy",
                    "always", (char *)nullptr);
            ::_exit(127); // exec failed
        }
    }

    /** True once the server answers the protocol (not just listens). */
    bool
    waitReady(const std::string &socket)
    {
        ClientConfig ccfg;
        ccfg.socketPath = socket;
        ccfg.timeout = 2000ms;
        ccfg.retry.maxAttempts = 1;
        ServerClient client(ccfg);
        RequestFrame probe;
        probe.tenantId = 999;
        probe.requestId = 1;
        probe.kernel = ServerKernel::kDegreeCount;
        probe.engine = PbEngineKind::kWriteCombine;
        probe.op = RequestOp::kSnapshot;
        probe.bins = 64;
        probe.numIndices = 64;
        for (int i = 0; i < 200; ++i) {
            // A live server answers kFailedPrecondition (no graph for
            // tenant 999); a dead or half-up one fails transport.
            ResponseFrame resp;
            if (client.call(probe, &resp).ok())
                return true;
            // A child that exited (e.g. recovery refusal) never
            // becomes ready; stop waiting for it.
            int st = 0;
            if (::waitpid(pid, &st, WNOHANG) == pid) {
                pid = -1;
                lastExit = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
                return false;
            }
            std::this_thread::sleep_for(50ms);
        }
        return false;
    }

    void
    sigkill()
    {
        ASSERT_NE(pid, -1);
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        int st = 0;
        ASSERT_EQ(::waitpid(pid, &st, 0), pid);
        pid = -1;
    }

    /** SIGTERM + reap; returns the daemon's exit code. */
    int
    sigterm()
    {
        if (pid == -1)
            return -1;
        ::kill(pid, SIGTERM);
        int st = 0;
        ::waitpid(pid, &st, 0);
        pid = -1;
        return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    }

    ~Daemon()
    {
        if (pid != -1) {
            ::kill(pid, SIGKILL);
            int st = 0;
            ::waitpid(pid, &st, 0);
        }
    }
};

RequestFrame
restartMutate(const EdgeList &edges, uint64_t tenant, size_t b,
              uint64_t n)
{
    RequestFrame req;
    req.tenantId = tenant;
    req.requestId = b + 1;
    req.kernel = ServerKernel::kDegreeCount;
    req.engine = PbEngineKind::kWriteCombine;
    req.op = RequestOp::kMutate;
    req.bins = 64;
    req.numIndices = n;
    for (size_t j = 0; j < 128; ++j) {
        const size_t pos = b * 128 + j;
        const Edge &e = edges[pos % edges.size()];
        req.payload.push_back(e.src);
        req.payload.push_back(e.dst);
    }
    return req;
}

TEST(DurabilityRestart, SigkillThenRestartServesAckedStateExactly)
{
    if (serverBin() == nullptr)
        GTEST_SKIP() << "COBRA_SERVER_BIN not set";
    const std::string tag = std::to_string(::getpid());
    const std::string socket = "/tmp/cobra_restart_" + tag + ".sock";
    const std::string walDir = "/tmp/cobra_restart_wal_" + tag;
    std::filesystem::remove_all(walDir);
    const uint64_t n = 1 << 9;
    const EdgeList edges = generateUniform(static_cast<NodeId>(n),
                                           1 << 10, 55);

    // Never-crashed reference: the same batches through the same core,
    // in-process and memory-only.
    uint64_t want = 0;
    {
        ThreadPool pool(2);
        BatchServer ref(ServerConfig{}, pool);
        for (size_t b = 0; b < 3; ++b)
            ASSERT_EQ(ref.call(restartMutate(edges, 1, b, n)).code,
                      ErrorCode::kOk);
        RequestFrame snap = restartMutate(edges, 1, 90, n);
        snap.op = RequestOp::kSnapshot;
        snap.payload.clear();
        const ResponseFrame resp = ref.call(std::move(snap));
        ASSERT_EQ(resp.code, ErrorCode::kOk) << resp.message;
        want = resp.resultChecksum;
        ref.stop();
    }

    ClientConfig ccfg;
    ccfg.socketPath = socket;
    ccfg.timeout = 10000ms;
    ServerClient client(ccfg);

    Daemon daemon;
    daemon.start(socket, walDir);
    ASSERT_TRUE(daemon.waitReady(socket)) << "daemon never came up";
    for (size_t b = 0; b < 3; ++b) {
        ResponseFrame resp;
        ASSERT_TRUE(
            client.call(restartMutate(edges, 1, b, n), &resp).ok());
        ASSERT_EQ(resp.code, ErrorCode::kOk) << resp.message;
    }
    daemon.sigkill(); // no drain, no shutdown checkpoint

    // Restart on the same directory: recovery replays the WAL and the
    // served snapshot must equal the never-crashed fingerprint.
    daemon.start(socket, walDir);
    ASSERT_TRUE(daemon.waitReady(socket))
        << "daemon refused recovery it should have survived";
    RequestFrame snap = restartMutate(edges, 1, 91, n);
    snap.op = RequestOp::kSnapshot;
    snap.payload.clear();
    ResponseFrame resp;
    ASSERT_TRUE(client.call(snap, &resp).ok());
    ASSERT_EQ(resp.code, ErrorCode::kOk) << resp.message;
    EXPECT_EQ(resp.resultChecksum, want);

    // The revived daemon still acks new mutations, and a graceful
    // SIGTERM drains with the books closed (exit 0).
    ResponseFrame more;
    ASSERT_TRUE(
        client.call(restartMutate(edges, 1, 3, n), &more).ok());
    EXPECT_EQ(more.code, ErrorCode::kOk) << more.message;
    EXPECT_EQ(daemon.sigterm(), 0);
    std::filesystem::remove_all(walDir);
}

TEST(DurabilityRestart, CorruptWalRefusesStartupWithNonzeroExit)
{
    if (serverBin() == nullptr)
        GTEST_SKIP() << "COBRA_SERVER_BIN not set";
    const std::string tag = std::to_string(::getpid()) + "c";
    const std::string socket = "/tmp/cobra_restart_" + tag + ".sock";
    const std::string walDir = "/tmp/cobra_restart_wal_" + tag;
    std::filesystem::remove_all(walDir);
    const uint64_t n = 1 << 9;
    const EdgeList edges = generateUniform(static_cast<NodeId>(n),
                                           1 << 10, 56);

    ClientConfig ccfg;
    ccfg.socketPath = socket;
    ccfg.timeout = 10000ms;
    ServerClient client(ccfg);

    Daemon daemon;
    daemon.start(socket, walDir);
    ASSERT_TRUE(daemon.waitReady(socket));
    ResponseFrame resp;
    ASSERT_TRUE(client.call(restartMutate(edges, 1, 0, n), &resp).ok());
    ASSERT_EQ(resp.code, ErrorCode::kOk) << resp.message;
    daemon.sigkill();

    // Rot one payload byte mid-record: startup must refuse with a
    // typed message and a nonzero exit, never serve around it.
    bool flipped = false;
    for (const auto &e : std::filesystem::directory_iterator(walDir)) {
        if (e.path().extension() != ".log")
            continue;
        std::fstream f(e.path(),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(45);
        char c = 0;
        f.get(c);
        f.seekp(45);
        f.put(static_cast<char>(c ^ 0x20));
        flipped = true;
    }
    ASSERT_TRUE(flipped);

    daemon.start(socket, walDir);
    EXPECT_FALSE(daemon.waitReady(socket))
        << "daemon served state it could not certify";
    // A clean typed refusal exits 1: not a crash signal (-1 here) and
    // not 127's exec failure.
    EXPECT_EQ(daemon.lastExit, 1);
    std::filesystem::remove_all(walDir);
}

} // namespace
} // namespace cobra
