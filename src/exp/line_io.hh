/**
 * @file
 * The serve wire's one transport, shared by the server's connections
 * (exp/serve.cc), the client library (exp/client.cc) and the raw
 * clients of the chaos harness and the tests: Unix-socket addressing,
 * a bounded line reader, and a line sender that gives up on a stalled
 * peer. Reads and sends pass MSG_DONTWAIT and wait in poll(), so the
 * descriptor's mode does not matter, and both timers measure elapsed
 * time since the last byte moved.
 */

#ifndef SWEX_EXP_LINE_IO_HH
#define SWEX_EXP_LINE_IO_HH

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>

namespace swex
{
namespace wire
{

/** The most one recv() takes off the socket. */
constexpr std::size_t recvChunk = 64 * 1024;

/** How often a reader that is owed bytes re-asks its predicate. */
constexpr int pollSliceMs = 50;

/** Milliseconds elapsed since @p since. */
inline int
msSince(std::chrono::steady_clock::time_point since)
{
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

inline void
setNonBlocking(int fd)
{
    const int fl = ::fcntl(fd, F_GETFL, 0);
    if (fl >= 0)
        ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

/** Wait up to @p wait_ms (-1 = no bound) for @p events on @p fd.
 *  @return false on a poll() failure other than EINTR. */
inline bool
waitFor(int fd, short events, int wait_ms)
{
    pollfd p{fd, events, 0};
    return ::poll(&p, 1, wait_ms) >= 0 || errno == EINTR;
}

/**
 * Send @p line and its '\n' in gathered writes, without copying the
 * line. @return false once the peer is gone, or when no byte could
 * leave for @p stall_ms (0 = no bound).
 */
inline bool
sendLine(int fd, const std::string &line, int stall_ms)
{
    static const char newline = '\n';
    auto last = std::chrono::steady_clock::now();
    for (std::size_t off = 0; off <= line.size();) {
        iovec iov[2] = {{const_cast<char *>(line.data()) + off,
                         line.size() - off},
                        {const_cast<char *>(&newline), 1}};
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = 2;
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            last = std::chrono::steady_clock::now();
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
            return false;
        const int left = stall_ms - msSince(last);
        if ((stall_ms > 0 && left <= 0) ||
            !waitFor(fd, POLLOUT, stall_ms > 0 ? left : -1))
            return false;
    }
    return true;
}

/** How a LineReader::read() ended. */
enum class ReadStatus
{
    Line,       ///< the next line, without its '\n'
    Closed,     ///< the peer hung up, or the socket failed
    Quiet,      ///< nothing arrived for the quiet bound
    Overflow,   ///< the line grew past its cap
};

/** Newline framing over one socket. Bytes past the line returned stay
 *  buffered for the next read(), so pipelined lines are not lost. */
class LineReader
{
  public:
    /**
     * The next line from @p fd into @p line: at most @p max_line bytes
     * before its '\n', and Quiet after @p quiet_ms (0 = no bound) with
     * no byte received. While @p waiting says true the reader is owed
     * bytes, so the quiet timer is held off.
     */
    ReadStatus
    read(int fd, std::string &line, std::size_t max_line, int quiet_ms = 0,
         const std::function<bool()> &waiting = {})
    {
        auto last = std::chrono::steady_clock::now();
        // Leading bytes of buf known to hold no '\n': each received
        // byte is scanned once, however many reads a line takes.
        std::size_t scanned = 0;
        for (;;) {
            const std::size_t nl = buf.find('\n', scanned);
            if (nl != std::string::npos) {
                line.assign(buf, 0, nl);
                buf.erase(0, nl + 1);
                return nl > max_line ? ReadStatus::Overflow
                                     : ReadStatus::Line;
            }
            scanned = buf.size();
            if (scanned > max_line)
                return ReadStatus::Overflow;
            char chunk[recvChunk];
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
            if (n > 0) {
                buf.append(chunk, static_cast<std::size_t>(n));
                last = std::chrono::steady_clock::now();
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                return ReadStatus::Closed;
            int wait = -1;
            if (quiet_ms > 0) {
                if (waiting && waiting())
                    last = std::chrono::steady_clock::now();
                wait = quiet_ms - msSince(last);
                if (wait <= 0)
                    return ReadStatus::Quiet;
                if (waiting && wait > pollSliceMs)
                    wait = pollSliceMs;
            }
            if (!waitFor(fd, POLLIN, wait))
                return ReadStatus::Closed;
        }
    }

    /** Drop what is buffered from a connection that is gone. */
    void clear() { buf.clear(); }

  private:
    std::string buf;
};

/**
 * A stream socket for the Unix-domain socket at @p path, handed with
 * its address to @p ready(fd, sockaddr, length), which binds or
 * connects it and returns "" once it is usable. @return that socket,
 * or -1 with @p err saying why not.
 */
template <class Ready>
int
openStream(const std::string &path, Ready &&ready, std::string &err)
{
    sockaddr_un un{};
    un.sun_family = AF_UNIX;
    if (path.size() >= sizeof(un.sun_path)) {
        err = "socket path too long (" + std::to_string(path.size()) +
              " >= " + std::to_string(sizeof(un.sun_path)) + ")";
        return -1;
    }
    std::memcpy(un.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    err = ready(fd, reinterpret_cast<const sockaddr *>(&un),
                socklen_t{sizeof(un)});
    if (err.empty())
        return fd;
    ::close(fd);
    return -1;
}

} // namespace wire
} // namespace swex

#endif // SWEX_EXP_LINE_IO_HH
