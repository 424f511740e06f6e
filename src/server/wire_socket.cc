#include "src/server/wire_socket.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/server/batch_server.h"
#include "src/server/frame.h"

namespace cobra {

namespace {

Status
errnoStatus(const std::string &what)
{
    return Status(ErrorCode::kIoError,
                  what + ": " + std::strerror(errno));
}

/** Fill @p addr for @p path; rejects paths longer than sun_path. */
Status
unixAddress(const std::string &path, sockaddr_un *addr)
{
    if (path.empty() || path.size() >= sizeof(addr->sun_path))
        return Status(ErrorCode::kInvalidArgument,
                      "unix socket path must be 1.." +
                          std::to_string(sizeof(addr->sun_path) - 1) +
                          " bytes: '" + path + "'");
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size());
    return Status::Ok();
}

} // namespace

Status
readExact(int fd, void *buf, size_t len)
{
    uint8_t *p = static_cast<uint8_t *>(buf);
    size_t got = 0;
    while (got < len) {
        ssize_t n = ::read(fd, p + got, len - got);
        if (n == 0)
            return Status(ErrorCode::kIoError,
                          "connection closed mid-message (" +
                              std::to_string(got) + " of " +
                              std::to_string(len) + " bytes)");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("read");
        }
        got += static_cast<size_t>(n);
    }
    return Status::Ok();
}

Status
writeAll(int fd, const void *buf, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(buf);
    size_t sent = 0;
    while (sent < len) {
        ssize_t n = ::write(fd, p + sent, len - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("write");
        }
        sent += static_cast<size_t>(n);
    }
    return Status::Ok();
}

Status
readFrame(int fd, std::vector<uint8_t> *out)
{
    out->clear();
    uint8_t len_bytes[4];
    // Distinguish "peer finished" (clean EOF at a frame boundary)
    // from "peer died mid-frame" by reading the first byte alone.
    ssize_t n;
    do {
        n = ::read(fd, len_bytes, 1);
    } while (n < 0 && errno == EINTR);
    if (n == 0)
        return Status::Ok(); // clean end-of-stream, *out stays empty
    if (n < 0)
        return errnoStatus("read");
    if (Status s = readExact(fd, len_bytes + 1, 3); !s.ok())
        return s;
    const uint32_t len = uint32_t{len_bytes[0]} |
                         (uint32_t{len_bytes[1]} << 8) |
                         (uint32_t{len_bytes[2]} << 16) |
                         (uint32_t{len_bytes[3]} << 24);
    if (len == 0 || uint64_t{len} > kMaxFrameBytes)
        return Status(ErrorCode::kCorruptFile,
                      "frame length " + std::to_string(len) +
                          " outside (0, " +
                          std::to_string(kMaxFrameBytes) + "]");
    out->resize(len);
    return readExact(fd, out->data(), len);
}

Status
writeFrame(int fd, const uint8_t *data, size_t len)
{
    if (len == 0 || len > kMaxFrameBytes)
        return Status(ErrorCode::kInvalidArgument,
                      "refusing to send a frame of " +
                          std::to_string(len) + " bytes");
    const uint32_t l = static_cast<uint32_t>(len);
    const uint8_t len_bytes[4] = {
        static_cast<uint8_t>(l), static_cast<uint8_t>(l >> 8),
        static_cast<uint8_t>(l >> 16), static_cast<uint8_t>(l >> 24)};
    if (Status s = writeAll(fd, len_bytes, 4); !s.ok())
        return s;
    return writeAll(fd, data, len);
}

SocketServer::SocketServer(BatchServer &server, std::string path)
    : server_(server), path_(std::move(path))
{
}

SocketServer::~SocketServer()
{
    stop();
}

Status
SocketServer::start()
{
    sockaddr_un addr;
    if (Status s = unixAddress(path_, &addr); !s.ok())
        return s;
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        return errnoStatus("socket");
    ::unlink(path_.c_str()); // replace a stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        Status s = errnoStatus("bind '" + path_ + "'");
        ::close(listen_fd_);
        listen_fd_ = -1;
        return s;
    }
    if (::listen(listen_fd_, 64) < 0) {
        Status s = errnoStatus("listen");
        ::close(listen_fd_);
        listen_fd_ = -1;
        return s;
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
    return Status::Ok();
}

void
SocketServer::stop()
{
    if (stopping_.exchange(true))
        return;
    if (const int fd = listen_fd_.exchange(-1); fd >= 0) {
        // shutdown() unblocks accept() so the acceptor exits promptly.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    if (acceptor_.joinable())
        acceptor_.join();
    std::list<Connection> conns;
    {
        std::lock_guard<std::mutex> lk(conn_mtx_);
        conns.swap(conns_);
    }
    for (Connection &c : conns)
        c.thread.join();
    ::unlink(path_.c_str());
}

void
SocketServer::acceptLoop()
{
    for (;;) {
        const int lfd = listen_fd_.load(std::memory_order_acquire);
        if (lfd < 0)
            return; // stop() already closed the socket
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // closed by stop(), or a fatal accept error
        }
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            return;
        }
        std::lock_guard<std::mutex> lk(conn_mtx_);
        // Clients may connect once per request, so finished threads
        // are joined here rather than left for stop().
        reapFinished();
        Connection &c = conns_.emplace_back();
        c.thread = std::thread([this, fd, &c] {
            serveConnection(fd);
            ::close(fd);
            c.done.store(true, std::memory_order_release);
        });
    }
}

void
SocketServer::reapFinished()
{
    conns_.remove_if([](Connection &c) {
        if (!c.done.load(std::memory_order_acquire))
            return false;
        c.thread.join();
        return true;
    });
}

void
SocketServer::serveConnection(int fd)
{
    std::vector<uint8_t> buf;
    while (!stopping_.load(std::memory_order_acquire)) {
        Status s = readFrame(fd, &buf);
        if (!s.ok() || buf.empty())
            return; // peer finished, died, or desynchronized
        RequestFrame req;
        ResponseFrame resp;
        if (Status d = decodeRequest(buf.data(), buf.size(), &req);
            !d.ok()) {
            // Intact transport, bad frame: answer with the typed
            // reason. tenant/request ids are unknown (the header may
            // be the corrupt part), so they echo as zero.
            resp.code = d.code();
            resp.message = d.message();
        } else {
            resp = server_.submit(std::move(req)).get();
        }
        const std::vector<uint8_t> out = encodeResponse(resp);
        if (Status w = writeFrame(fd, out.data(), out.size()); !w.ok())
            return;
    }
}

} // namespace cobra
