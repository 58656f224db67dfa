#include "serve/protocol.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/common.hpp"

namespace alge::serve {

namespace {

constexpr std::size_t kHeaderBytes = 4;
constexpr std::size_t kReadChunk = 64 * 1024;

std::uint32_t read_be32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (std::uint32_t{u[0]} << 24) | (std::uint32_t{u[1]} << 16) |
         (std::uint32_t{u[2]} << 8) | std::uint32_t{u[3]};
}

}  // namespace

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void append_frame(std::string& out, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const char header[kHeaderBytes] = {
      static_cast<char>(len >> 24), static_cast<char>(len >> 16),
      static_cast<char>(len >> 8), static_cast<char>(len)};
  out.append(header, kHeaderBytes);
  out.append(payload.data(), payload.size());
}

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_frame(int fd, std::string_view payload) {
  std::string buf;
  buf.reserve(kHeaderBytes + payload.size());
  append_frame(buf, payload);
  return write_all(fd, buf);
}

FrameReader::FrameReader(int fd, std::size_t max_frame_bytes)
    : fd_(fd), max_frame_bytes_(max_frame_bytes) {}

bool FrameReader::frame_buffered() const {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return false;
  const std::uint32_t len = read_be32(buf_.data() + pos_);
  if (len == 0 || len > max_frame_bytes_) return true;  // next() reports it
  return avail >= kHeaderBytes + len;
}

bool FrameReader::fill() {
  // Compact once the consumed prefix dominates, so the buffer cannot grow
  // without bound across a long-lived connection.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= kReadChunk)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) {
      eof_ = true;
      return false;
    }
    if (errno == EINTR) continue;
    error_ = true;
    return false;
  }
}

FrameReader::Status FrameReader::next(std::string_view* payload) {
  for (;;) {
    const std::size_t avail = buf_.size() - pos_;
    if (avail >= kHeaderBytes) {
      const std::uint32_t len = read_be32(buf_.data() + pos_);
      if (len == 0) {
        pos_ += kHeaderBytes;
        return Status::kEmpty;
      }
      if (len > max_frame_bytes_) return Status::kTooLarge;
      if (avail >= kHeaderBytes + len) {
        *payload = std::string_view(buf_.data() + pos_ + kHeaderBytes, len);
        pos_ += kHeaderBytes + len;
        return Status::kFrame;
      }
    }
    if (!fill()) {
      if (error_) return Status::kError;
      return buf_.size() - pos_ == 0 ? Status::kClosed : Status::kTruncated;
    }
  }
}

int listen_tcp(int port, int backlog, int* bound_port) {
  ALGE_REQUIRE(port >= 0 && port <= 65535, "bad port %d", port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ALGE_REQUIRE(fd >= 0, "socket(): %s", std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    throw invalid_argument_error(
        strfmt("bind(127.0.0.1:%d): %s", port, std::strerror(e)));
  }
  if (::listen(fd, backlog) != 0) {
    const int e = errno;
    ::close(fd);
    throw invalid_argument_error(strfmt("listen(): %s", std::strerror(e)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ALGE_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
      "getsockname(): %s", std::strerror(errno));
  if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
  return fd;
}

int connect_tcp(const std::string& host, int port) {
  ALGE_REQUIRE(port > 0 && port <= 65535, "bad port %d", port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ALGE_REQUIRE(fd >= 0, "socket(): %s", std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw invalid_argument_error(
        strfmt("bad IPv4 address \"%s\"", host.c_str()));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    throw invalid_argument_error(
        strfmt("connect(%s:%d): %s", host.c_str(), port, std::strerror(e)));
  }
  set_nodelay(fd);
  return fd;
}

}  // namespace alge::serve
