/**
 * @file
 * Newline framing for the serve wire, shared by the server's
 * connections (exp/serve.cc) and the client library (exp/client.cc):
 * receive into a line buffer in large reads, split complete lines off
 * it scanning each received byte once, and send a line and its '\n'
 * in one gathered write without copying the line.
 */

#ifndef SWEX_EXP_LINE_IO_HH
#define SWEX_EXP_LINE_IO_HH

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <cstddef>
#include <string>

namespace swex
{
namespace wire
{

/** The most one recvAppend() takes off the socket. */
constexpr std::size_t recvChunk = 64 * 1024;

/** One recv() of up to recvChunk bytes, appended to @p buf.
 *  @return what recv() returned. */
inline ssize_t
recvAppend(int fd, std::string &buf)
{
    char chunk[recvChunk];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0)
        buf.append(chunk, static_cast<std::size_t>(n));
    return n;
}

/**
 * Move the first complete line of @p buf into @p line, without its
 * '\n'. @p scanned is how many leading bytes of @p buf are known to
 * hold no '\n' (start it at 0): a miss advances it to the end of the
 * buffer, so a line spread over many reads is scanned once, not once
 * per read. Taking a line resets it. @return whether a line was taken.
 */
inline bool
takeLine(std::string &buf, std::size_t &scanned, std::string &line)
{
    const std::size_t nl = buf.find('\n', scanned);
    if (nl == std::string::npos) {
        scanned = buf.size();
        return false;
    }
    line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    scanned = 0;
    return true;
}

/** One sendmsg() of @p line from byte @p off (at most line.size())
 *  followed by its '\n'. @return what sendmsg() returned; a line is
 *  sent once the bytes sent add up to line.size() + 1. */
inline ssize_t
sendLineFrom(int fd, const std::string &line, std::size_t off)
{
    static const char newline = '\n';
    iovec iov[2];
    int parts = 0;
    if (off < line.size())
        iov[parts++] = {const_cast<char *>(line.data()) + off,
                        line.size() - off};
    iov[parts++] = {const_cast<char *>(&newline), 1};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(parts);
    return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

} // namespace wire
} // namespace swex

#endif // SWEX_EXP_LINE_IO_HH
