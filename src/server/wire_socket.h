/**
 * @file
 * Length-prefixed framing over unix-domain stream sockets, plus the
 * accept loop that serves a BatchServer.
 *
 * Framing: every message is a u32 little-endian byte length followed
 * by exactly that many bytes (one encoded RequestFrame or
 * ResponseFrame). The reader enforces kMaxFrameBytes *before*
 * allocating — a hostile 4 GiB length prefix costs the server a
 * comparison, not an allocation — and handles short reads and EINTR
 * the way any blocking-socket loop must.
 *
 * Transport errors are kIoError (the peer is gone; nothing to
 * answer); a frame that arrives intact but fails to decode gets a
 * typed error *response* on the same connection, because a client
 * that sent garbage is exactly the client that needs to hear why.
 *
 * The SocketServer itself is a thin adapter: one accept loop, one
 * thread per connection (bounded), each connection a sequential
 * read-request / write-response loop delegating every decision to
 * BatchServer::submit(). All admission, fairness, and deadline logic
 * lives behind that call — the transport adds nothing but bytes.
 */

#ifndef COBRA_SERVER_WIRE_SOCKET_H
#define COBRA_SERVER_WIRE_SOCKET_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/util/error.h"

namespace cobra {

class BatchServer;

/** Read exactly @p len bytes (loops over short reads / EINTR). */
Status readExact(int fd, void *buf, size_t len);

/** Write all @p len bytes (loops over short writes / EINTR). */
Status writeAll(int fd, const void *buf, size_t len);

/**
 * Read one length-prefixed frame into @p out. kIoError on transport
 * failure or clean EOF mid-frame; kCorruptFile on an over-cap length
 * (the connection is then unsynchronized and must be closed).
 * A clean EOF *before* any length byte returns kOk with an empty
 * @p out — the peer simply finished.
 */
Status readFrame(int fd, std::vector<uint8_t> *out);

/** Write one length-prefixed frame. */
Status writeFrame(int fd, const uint8_t *data, size_t len);

/** Serve a BatchServer over a unix-domain socket. */
class SocketServer
{
  public:
    /**
     * @param path filesystem socket path; an existing socket file is
     *        replaced (the standard daemon-restart idiom).
     */
    SocketServer(BatchServer &server, std::string path);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Bind + listen + start the accept loop. */
    Status start();

    /** Stop accepting, close every connection, join all threads. */
    void stop();

    const std::string &path() const { return path_; }

  private:
    /** One connection's thread; `done` is set as its last action. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConnection(int fd);
    /** Join and drop finished connections (caller holds conn_mtx_). */
    void reapFinished();

    BatchServer &server_;
    const std::string path_;
    /** Atomic: stop() closes + poisons it while acceptLoop() reads. */
    std::atomic<int> listen_fd_{-1};
    std::thread acceptor_;
    std::atomic<bool> stopping_{false};

    std::mutex conn_mtx_;
    /** A list: each thread holds a reference to its own element. */
    std::list<Connection> conns_;
};

} // namespace cobra

#endif // COBRA_SERVER_WIRE_SOCKET_H
