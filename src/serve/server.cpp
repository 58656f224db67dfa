#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <string>
#include <string_view>

#include "serve/protocol.hpp"
#include "support/common.hpp"

namespace alge::serve {

namespace {

std::string error_response(std::string_view message) {
  json::Value resp = json::Value::object();
  resp.set("ok", false).set("error", std::string(message));
  return resp.dump();
}

}  // namespace

Server::Server(QueryService& service, ServerOptions opts)
    : service_(service), opts_(opts) {
  ALGE_REQUIRE(opts_.threads >= 1, "need at least one worker thread");
  ALGE_REQUIRE(opts_.max_frame_bytes >= 16, "max_frame_bytes too small");
}

Server::~Server() { stop(); }

void Server::start() {
  ALGE_REQUIRE(!started_, "server already started");
  listen_fd_ = listen_tcp(opts_.port, opts_.backlog, &port_);
  // Queue capacity bounds connections waiting for a free worker; accept()
  // keeps succeeding (kernel backlog) but submit() applies backpressure.
  pool_ = std::make_unique<engine::ThreadPool>(
      opts_.threads, /*queue_capacity=*/1024);
  acceptor_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::accept_loop() {
  for (int lane = 0;; ++lane) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!stopping_.load() && errno == EINTR) continue;
      return;  // listen fd closed by stop(), or fatal error
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    set_nodelay(fd);
    // A peer that stops reading cannot pin a worker forever during
    // shutdown: writes time out and the handler exits.
    timeval tv{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    {
      std::lock_guard lock(mu_);
      ++stats_.connections_accepted;
      open_fds_.insert(fd);
    }
    try {
      pool_->submit([this, fd, lane] { handle_connection(fd, lane); });
    } catch (const std::exception&) {
      // Pool shut down under us (stop() racing accept): close and exit.
      std::lock_guard lock(mu_);
      open_fds_.erase(fd);
      ::close(fd);
      return;
    }
  }
}

void Server::handle_connection(int fd, int lane) {
  FrameReader reader(fd, opts_.max_frame_bytes);
  std::string out;
  std::size_t requests = 0;
  std::size_t protocol_errors = 0;
  bool open = true;
  while (open) {
    std::string_view payload;
    switch (reader.next(&payload)) {
      case FrameReader::Status::kFrame: {
        const auto resp = service_.handle(payload, lane);
        append_frame(out, *resp);
        ++requests;
        // Batch: flush only when no further complete frame is buffered.
        if (!reader.frame_buffered()) {
          if (!write_all(fd, out)) open = false;
          out.clear();
        }
        break;
      }
      case FrameReader::Status::kEmpty:
        ++protocol_errors;
        append_frame(out, error_response("empty frame"));
        if (!write_all(fd, out)) open = false;
        out.clear();
        break;
      case FrameReader::Status::kTooLarge:
        ++protocol_errors;
        append_frame(out,
                     error_response(strfmt("frame exceeds %zu bytes",
                                           opts_.max_frame_bytes)));
        write_all(fd, out);
        out.clear();
        open = false;  // stream is no longer framed
        break;
      case FrameReader::Status::kTruncated:
        ++protocol_errors;
        open = false;
        break;
      case FrameReader::Status::kClosed:
      case FrameReader::Status::kError:
        if (!out.empty()) write_all(fd, out);
        open = false;
        break;
    }
  }
  {
    std::lock_guard lock(mu_);
    stats_.requests += requests;
    stats_.protocol_errors += protocol_errors;
    open_fds_.erase(fd);
  }
  ::close(fd);
}

void Server::stop() {
  if (!started_) return;
  if (!stopping_.exchange(true)) {
    // Unblock accept() and refuse new connections.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    // Drain: half-close every open connection. Readers see EOF after the
    // requests already sent, handlers respond to those and exit.
    {
      std::lock_guard lock(mu_);
      for (const int fd : open_fds_) ::shutdown(fd, SHUT_RD);
    }
    pool_->drain();
    listen_fd_ = -1;
  }
}

Server::Stats Server::stats() const {
  std::lock_guard lock(mu_);
  Stats s = stats_;
  s.connections_open = open_fds_.size();
  return s;
}

}  // namespace alge::serve
