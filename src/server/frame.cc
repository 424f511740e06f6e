#include "src/server/frame.h"

#include <cstring>

#include "src/check/fault_injector.h"
#include "src/pb/bin_range.h"

namespace cobra {

namespace {

/** Little-endian byte-at-a-time writer (alignment/endian agnostic). */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<uint8_t> &buf) : buf_(buf) {}

    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

  private:
    std::vector<uint8_t> &buf_;
};

/**
 * Bounds-checked little-endian reader. Every read checks remaining
 * length first; a short frame becomes a Status at the call site (the
 * reader itself just reports truncation via ok()).
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t len) : p_(data), end_(data + len)
    {
    }

    bool ok() const { return ok_; }
    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

    uint8_t
    u8()
    {
        if (remaining() < 1) {
            ok_ = false;
            return 0;
        }
        return *p_++;
    }

    uint16_t
    u16()
    {
        uint16_t lo = u8(), hi = u8();
        return static_cast<uint16_t>(lo | (hi << 8));
    }

    uint32_t
    u32()
    {
        uint32_t lo = u16(), hi = u16();
        return lo | (hi << 16);
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32(), hi = u32();
        return lo | (hi << 32);
    }

  private:
    const uint8_t *p_;
    const uint8_t *end_;
    bool ok_ = true;
};

Status
malformed(const std::string &what)
{
    return Status(ErrorCode::kCorruptFile, "malformed frame: " + what);
}

} // namespace

Status
validateRequest(const RequestFrame &req)
{
    if (static_cast<uint8_t>(req.kernel) <
            static_cast<uint8_t>(ServerKernel::kDegreeCount) ||
        static_cast<uint8_t>(req.kernel) >
            static_cast<uint8_t>(ServerKernel::kSpmv))
        return Status(ErrorCode::kInvalidArgument,
                      "unknown kernel id " +
                          std::to_string(static_cast<unsigned>(req.kernel)));
    if (static_cast<uint8_t>(req.engine) >
        static_cast<uint8_t>(PbEngineKind::kWriteCombine))
        return Status(ErrorCode::kInvalidArgument,
                      "unknown engine id " +
                          std::to_string(static_cast<unsigned>(req.engine)));
    if (Status s = validatePbBinCount(req.bins); !s.ok())
        return s;
    if (req.bins > kMaxRequestBins)
        return Status(ErrorCode::kInvalidArgument,
                      "bin count " + std::to_string(req.bins) +
                          " exceeds the request cap of " +
                          std::to_string(kMaxRequestBins));
    if (req.wcLines < 1 || req.wcLines > kMaxWcLines)
        return Status(ErrorCode::kInvalidArgument,
                      "wcLines " + std::to_string(req.wcLines) +
                          " outside [1, " + std::to_string(kMaxWcLines) +
                          "]");
    if (req.deadlineMs > kMaxDeadlineMs)
        return Status(ErrorCode::kInvalidArgument,
                      "deadline " + std::to_string(req.deadlineMs) +
                          " ms exceeds the cap of " +
                          std::to_string(kMaxDeadlineMs) + " ms");
    if (req.injectSite >
        static_cast<uint32_t>(FaultSite::kCkptRenameFail))
        return Status(ErrorCode::kInvalidArgument,
                      "unknown fault site id " +
                          std::to_string(req.injectSite));
    if (static_cast<uint8_t>(req.op) >
        static_cast<uint8_t>(RequestOp::kSnapshot))
        return Status(ErrorCode::kInvalidArgument,
                      "unknown request op " +
                          std::to_string(static_cast<unsigned>(req.op)));
    if (req.numIndices == 0 || req.numIndices > kMaxRequestIndices)
        return Status(ErrorCode::kInvalidArgument,
                      "numIndices " + std::to_string(req.numIndices) +
                          " outside [1, " +
                          std::to_string(kMaxRequestIndices) + "]");

    // Mutable-graph ops are served only for the kernels with an
    // incremental maintainer (degree counts and Pagerank scores).
    if (req.op != RequestOp::kRun &&
        req.kernel != ServerKernel::kDegreeCount &&
        req.kernel != ServerKernel::kPagerank)
        return Status(ErrorCode::kInvalidArgument,
                      std::string(to_string(req.op)) +
                          " requests support only the degree and "
                          "pagerank kernels; got " +
                          to_string(req.kernel));

    if (req.op == RequestOp::kSnapshot) {
        if (!req.payload.empty())
            return Status(ErrorCode::kInvalidArgument,
                          "snapshot requests carry no payload; got " +
                              std::to_string(req.payload.size()) +
                              " words");
        return Status::Ok();
    }

    if (req.payload.empty() || req.payload.size() % 2 != 0)
        return Status(ErrorCode::kInvalidArgument,
                      "payload must be a non-empty sequence of "
                      "(src, dst) pairs; got " +
                          std::to_string(req.payload.size()) + " words");
    if (req.payload.size() > kMaxPayloadWords)
        return Status(ErrorCode::kInvalidArgument,
                      "payload of " + std::to_string(req.payload.size()) +
                          " words exceeds the frame cap");
    // The index-bounds scan: the kernels index arrays of numIndices
    // entries with these words, so an out-of-range word here is the
    // difference between a typed reject and a heap overrun. For
    // mutation batches the src word (even position) may carry the
    // delete bit, which is masked off before the bound check; the dst
    // word must be a plain vertex id.
    const bool mutate = req.op == RequestOp::kMutate;
    for (size_t i = 0; i < req.payload.size(); ++i) {
        uint32_t w = req.payload[i];
        if (mutate && i % 2 == 0)
            w &= ~kMutateDeleteBit;
        else if (mutate && (w & kMutateDeleteBit) != 0)
            return Status(ErrorCode::kInvalidArgument,
                          "payload word " + std::to_string(i) +
                              " (a dst) carries the delete bit");
        if (w >= req.numIndices)
            return Status(ErrorCode::kOutOfRange,
                          "payload word " + std::to_string(i) + " (" +
                              std::to_string(w) + ") >= numIndices (" +
                              std::to_string(req.numIndices) + ")");
    }
    return Status::Ok();
}

uint64_t
encodedRequestBytes(const RequestFrame &req)
{
    return kRequestHeaderBytes + uint64_t{req.payload.size()} * 4;
}

std::vector<uint8_t>
encodeRequest(const RequestFrame &req)
{
    if (Status s = validateRequest(req); !s.ok())
        throw Error(ErrorCode::kInvalidArgument,
                    "refusing to encode an invalid request: " +
                        s.message());
    std::vector<uint8_t> buf;
    buf.reserve(encodedRequestBytes(req));
    ByteWriter w(buf);
    w.u32(kRequestMagic);
    w.u16(kWireVersion);
    w.u16(0);
    w.u64(req.tenantId);
    w.u64(req.requestId);
    w.u8(static_cast<uint8_t>(req.kernel));
    w.u8(static_cast<uint8_t>(req.engine));
    w.u8(req.skewAdaptive ? 1 : 0);
    w.u8(static_cast<uint8_t>(req.op));
    w.u32(req.bins);
    w.u32(req.wcLines);
    w.u32(req.deadlineMs);
    w.u32(req.injectSite);
    w.u64(req.injectFireAt);
    w.u64(req.injectSeed);
    w.u64(req.numIndices);
    w.u64(req.payload.size());
    for (uint32_t v : req.payload)
        w.u32(v);
    return buf;
}

Status
decodeRequest(const uint8_t *data, size_t len, RequestFrame *out)
{
    if (len > kMaxFrameBytes)
        return malformed("frame of " + std::to_string(len) +
                         " bytes exceeds the cap of " +
                         std::to_string(kMaxFrameBytes));
    if (len < kRequestHeaderBytes)
        return malformed("request of " + std::to_string(len) +
                         " bytes is shorter than the " +
                         std::to_string(kRequestHeaderBytes) +
                         "-byte header");
    ByteReader r(data, len);
    if (r.u32() != kRequestMagic)
        return malformed("bad request magic");
    if (uint16_t v = r.u16(); v != kWireVersion)
        return malformed("unsupported wire version " + std::to_string(v));
    if (r.u16() != 0)
        return malformed("nonzero reserved field");

    RequestFrame req;
    req.tenantId = r.u64();
    req.requestId = r.u64();
    req.kernel = static_cast<ServerKernel>(r.u8());
    req.engine = static_cast<PbEngineKind>(r.u8());
    const uint8_t flags = r.u8();
    if ((flags & ~uint8_t{1}) != 0)
        return malformed("unknown flag bits");
    req.skewAdaptive = (flags & 1) != 0;
    const uint8_t op = r.u8();
    if (op > static_cast<uint8_t>(RequestOp::kSnapshot))
        return malformed("unknown request op " + std::to_string(op));
    req.op = static_cast<RequestOp>(op);
    req.bins = r.u32();
    req.wcLines = r.u32();
    req.deadlineMs = r.u32();
    req.injectSite = r.u32();
    req.injectFireAt = r.u64();
    req.injectSeed = r.u64();
    req.numIndices = r.u64();
    const uint64_t payload_words = r.u64();

    // Length cross-check before the payload is even touched: the
    // claimed word count must both fit the cap and exactly account for
    // the bytes that follow (4 * words cannot overflow after the cap
    // check — kMaxPayloadWords * 4 < 2^63).
    if (payload_words > kMaxPayloadWords)
        return malformed("claimed payload of " +
                         std::to_string(payload_words) +
                         " words exceeds the frame cap");
    const uint64_t expect = kRequestHeaderBytes + payload_words * 4;
    if (uint64_t{len} != expect)
        return malformed("frame length " + std::to_string(len) +
                         " does not match header + payload (" +
                         std::to_string(expect) + ")");
    req.payload.resize(static_cast<size_t>(payload_words));
    for (uint64_t i = 0; i < payload_words; ++i)
        req.payload[static_cast<size_t>(i)] = r.u32();
    if (!r.ok() || r.remaining() != 0)
        return malformed("truncated or over-long request body");

    if (Status s = validateRequest(req); !s.ok())
        return s;
    *out = std::move(req);
    return Status::Ok();
}

std::vector<uint8_t>
encodeResponse(const ResponseFrame &resp)
{
    std::string msg = resp.message;
    if (msg.size() > kMaxMsgBytes)
        msg.resize(kMaxMsgBytes);
    std::vector<uint8_t> buf;
    buf.reserve(kResponseHeaderBytes + msg.size());
    ByteWriter w(buf);
    w.u32(kResponseMagic);
    w.u16(kWireVersion);
    w.u16(0);
    w.u64(resp.tenantId);
    w.u64(resp.requestId);
    w.u32(static_cast<uint32_t>(resp.code));
    w.u32(resp.attempts);
    w.u32(resp.retries);
    w.u32(resp.degradations);
    w.u8(resp.usedBaseline ? 1 : 0);
    w.u8(static_cast<uint8_t>(resp.finalEngine));
    w.u16(0);
    w.u32(resp.finalBins);
    w.u64(resp.resultChecksum);
    w.u64(resp.serverMicros);
    w.u64(resp.queueMicros);
    w.u32(static_cast<uint32_t>(msg.size()));
    for (char c : msg)
        w.u8(static_cast<uint8_t>(c));
    return buf;
}

Status
decodeResponse(const uint8_t *data, size_t len, ResponseFrame *out)
{
    if (len > kMaxFrameBytes)
        return malformed("frame exceeds the cap");
    if (len < kResponseHeaderBytes)
        return malformed("response of " + std::to_string(len) +
                         " bytes is shorter than the " +
                         std::to_string(kResponseHeaderBytes) +
                         "-byte header");
    ByteReader r(data, len);
    if (r.u32() != kResponseMagic)
        return malformed("bad response magic");
    if (uint16_t v = r.u16(); v != kWireVersion)
        return malformed("unsupported wire version " + std::to_string(v));
    if (r.u16() != 0)
        return malformed("nonzero reserved field");

    ResponseFrame resp;
    resp.tenantId = r.u64();
    resp.requestId = r.u64();
    const uint32_t code = r.u32();
    if (code > static_cast<uint32_t>(ErrorCode::kUnavailable))
        return malformed("unknown error code " + std::to_string(code));
    resp.code = static_cast<ErrorCode>(code);
    resp.attempts = r.u32();
    resp.retries = r.u32();
    resp.degradations = r.u32();
    resp.usedBaseline = r.u8() != 0;
    const uint8_t engine = r.u8();
    if (engine > static_cast<uint8_t>(PbEngineKind::kWriteCombine))
        return malformed("unknown engine id " + std::to_string(engine));
    resp.finalEngine = static_cast<PbEngineKind>(engine);
    if (r.u16() != 0)
        return malformed("nonzero reserved field");
    resp.finalBins = r.u32();
    resp.resultChecksum = r.u64();
    resp.serverMicros = r.u64();
    resp.queueMicros = r.u64();
    const uint32_t msg_bytes = r.u32();
    if (msg_bytes > kMaxMsgBytes)
        return malformed("message of " + std::to_string(msg_bytes) +
                         " bytes exceeds the cap");
    if (uint64_t{len} != kResponseHeaderBytes + uint64_t{msg_bytes})
        return malformed("frame length does not match header + message");
    resp.message.resize(msg_bytes);
    for (uint32_t i = 0; i < msg_bytes; ++i)
        resp.message[i] = static_cast<char>(r.u8());
    if (!r.ok() || r.remaining() != 0)
        return malformed("truncated or over-long response body");
    *out = std::move(resp);
    return Status::Ok();
}

} // namespace cobra
