#ifndef PERFBENCH_SRC_OPEN_LOOP_H_
#define PERFBENCH_SRC_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// What happened to one open-loop request. Times are steady-clock
/// nanoseconds (perfbench::NowNs).
struct RequestOutcome {
  int64_t due_ns = 0;   // when the schedule wanted it sent
  int64_t sent_ns = 0;  // when a connection was free and wrote it
  int64_t done_ns = 0;  // when its reply had been read
  bool ok = false;      // kOkV2 reply
  int64_t request_id = 0;
  std::string body;     // reply JSON (ok) or error text
};

/// \brief Open-loop load generator over the framing protocol.
///
/// Sends payloads[i] as a kParseV2 frame to 127.0.0.1:`port` at
/// start + due_offsets_ns[i], over `connections` lockstep connections. A
/// request goes out on the first connection that is free at or after its due
/// time, so when every connection waits on a slow reply, later requests go
/// out late: that lateness is the generator lag (sent - due), and it is part
/// of the request's latency (done - due). Returns one outcome per payload, in
/// schedule order, or the first socket error.
resuformer::Result<std::vector<RequestOutcome>> RunOpenLoop(
    int port, const std::vector<int64_t>& due_offsets_ns,
    const std::vector<std::string>& payloads, int connections);

/// Connects to 127.0.0.1:`port`; returns the socket or an IoError.
resuformer::Result<int> ConnectLoopback(int port);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_OPEN_LOOP_H_
