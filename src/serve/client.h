// Client side of the decision daemon protocol.
//
// ServeConnection is one connection to the daemon: it connects to the
// Unix socket, receives the connection's shared-memory rings
// (serve/shm_stream.h), frames messages, verifies reply checksums, and
// serializes round trips with a mutex so several streams can share it. A
// round trip encodes into buffers the connection owns, writes the frame
// into the ring and reads the reply out of the other — at most one futex
// wake and one futex wait, no socket call and no allocation per decision.
// RemoteDecisionStream adapts one (conn, stream id) pair to the
// core::DecisionStream interface — any transport or server failure
// surfaces as core::SessionError, which the session layer already
// captures per task. SocketBackend is the piece the fleet
// plugs in: a DecisionBackend handing each worker thread its own lazily
// opened connection (one connection per thread, ids allocated per
// connection, zero cross-thread sharing).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/decision_core.h"
#include "serve/shm_stream.h"
#include "serve/wire.h"

namespace vafs::serve {

class ServeConnection {
 public:
  /// Connects to the daemon at `socket_path` and attaches its rings;
  /// throws core::SessionError if either fails.
  explicit ServeConnection(const std::string& socket_path);

  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  /// Opens a daemon-side stream and returns its connection-scoped id.
  std::uint64_t open_stream(const core::DecisionStreamInfo& info);
  /// One decision round trip. Throws core::SessionError on transport
  /// failure or a server-side error reply.
  core::DecisionResponse decide(std::uint64_t stream_id, const core::DecisionRequest& req);
  /// Fire-and-forget stream close (best effort; errors ignored).
  void close_stream(std::uint64_t stream_id) noexcept;
  /// Health probe: true iff the daemon answered the ping.
  bool ping() noexcept;

  /// True after any transport failure: the connection is dead and every
  /// further call will throw. SocketBackend uses this to reconnect.
  bool broken() const { return broken_; }

  /// Transport calls made so far (futex waits and wakes, socket polls).
  /// Read them between calls, from the thread that makes them.
  const ShmStream::Counters& transport() const { return stream_->counters(); }

 private:
  /// A verified reply frame; `payload` points into rx_ and is valid until
  /// the next round trip.
  struct Reply {
    MsgType type = MsgType::kError;
    const std::uint8_t* payload = nullptr;
    std::size_t size = 0;
  };

  /// Frames body_ as one `type` message, sends it and reads its reply.
  /// Throws core::SessionError on any transport or protocol failure —
  /// including bytes beyond the one reply owed; a kError reply is
  /// returned to the caller for classification.
  Reply round_trip(MsgType type, std::uint64_t stream_id);
  /// Frames body_ into tx_ and writes it; false on a transport failure.
  bool send_frame(MsgType type, std::uint64_t stream_id);
  /// Marks the connection broken and throws core::SessionError.
  [[noreturn]] void fail(const char* what);

  std::mutex mutex_;
  std::unique_ptr<ShmStream> stream_;
  bool broken_ = false;
  std::uint64_t next_stream_id_ = 0;
  // Request payload, request frame and reply frame; reused by every round
  // trip (the mutex serialises them).
  std::vector<std::uint8_t> body_;
  std::vector<std::uint8_t> tx_;
  std::vector<std::uint8_t> rx_;
};

/// One remote decision stream (shared connection + id).
class RemoteDecisionStream final : public core::DecisionStream {
 public:
  RemoteDecisionStream(std::shared_ptr<ServeConnection> conn, std::uint64_t stream_id)
      : conn_(std::move(conn)), stream_id_(stream_id) {}
  ~RemoteDecisionStream() override { conn_->close_stream(stream_id_); }

  core::DecisionResponse decide(const core::DecisionRequest& request) override {
    return conn_->decide(stream_id_, request);
  }

 private:
  std::shared_ptr<ServeConnection> conn_;
  std::uint64_t stream_id_;
};

/// DecisionBackend over daemon connections. Thread-compatible with the
/// experiment/fleet runners: each calling thread gets its own connection
/// (created on first open), so worker parallelism maps to connection
/// concurrency with no shared connection state between workers.
class SocketBackend final : public core::DecisionBackend {
 public:
  explicit SocketBackend(std::string socket_path) : socket_path_(std::move(socket_path)) {}

  std::unique_ptr<core::DecisionStream> open(const core::DecisionStreamInfo& info) override;

  const std::string& socket_path() const { return socket_path_; }
  /// Connections opened so far (monotonic; for tests/benchmarks).
  std::uint64_t connections_opened() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  static std::uint64_t allocate_id();
  std::shared_ptr<ServeConnection> thread_connection();

  std::string socket_path_;
  std::uint64_t id_ = allocate_id();
  std::atomic<std::uint64_t> connections_{0};
};

}  // namespace vafs::serve
