#include "src/open_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "serve/framing.h"
#include "src/stats.h"

namespace perfbench {

namespace serve = resuformer::serve;
using resuformer::Result;
using resuformer::Status;

Result<int> ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  sockaddr generic{};
  std::memcpy(&generic, &addr, sizeof(addr));
  if (::connect(fd, &generic, sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect 127.0.0.1:" + std::to_string(port) + ": " +
                           error);
  }
  // Lockstep request/reply frames: do not let Nagle hold a frame back.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::vector<RequestOutcome>> RunOpenLoop(
    int port, const std::vector<int64_t>& due_offsets_ns,
    const std::vector<std::string>& payloads, int connections) {
  if (due_offsets_ns.size() != payloads.size() || connections < 1) {
    return Status::InvalidArgument("open loop: one due time per payload and "
                                   "at least one connection");
  }
  std::vector<int> fds;
  for (int c = 0; c < connections; ++c) {
    Result<int> fd = ConnectLoopback(port);
    if (!fd.ok()) {
      for (int open : fds) ::close(open);
      return fd.status();
    }
    fds.push_back(*fd);
  }

  std::vector<RequestOutcome> outcomes(payloads.size());
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  Status first_error = Status::OK();  // guarded by error_mu
  // A short lead so every connection thread is parked before the first due
  // time.
  const int64_t start_ns = NowNs() + 20'000'000;

  auto connection_loop = [&](int fd) {
    for (;;) {
      // relaxed: the counter only hands out distinct indices.
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= payloads.size()) return;
      RequestOutcome& out = outcomes[i];
      out.due_ns = start_ns + due_offsets_ns[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(out.due_ns)));
      out.sent_ns = NowNs();
      serve::Frame request;
      request.kind = serve::FrameKind::kParseV2;
      request.payload = payloads[i];
      serve::Frame reply;
      Status s = serve::WriteFrame(fd, request);
      if (s.ok()) s = serve::ReadFrame(fd, &reply);
      out.done_ns = NowNs();
      if (s.ok() && (reply.kind == serve::FrameKind::kOkV2 ||
                     reply.kind == serve::FrameKind::kErrorV2)) {
        s = serve::DecodeIdPayload(reply.payload, &out.request_id, &out.body);
        out.ok = s.ok() && reply.kind == serve::FrameKind::kOkV2;
      } else if (s.ok()) {
        s = Status::Internal("unexpected reply kind " +
                             std::to_string(static_cast<int>(reply.kind)));
      }
      if (!s.ok()) {
        out.body = s.ToString();
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = s;
        return;  // this connection is unusable; the others carry on
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(fds.size());
  for (int fd : fds) threads.emplace_back(connection_loop, fd);
  for (std::thread& t : threads) t.join();
  for (int fd : fds) ::close(fd);
  if (!first_error.ok()) return first_error;
  return outcomes;
}

}  // namespace perfbench
