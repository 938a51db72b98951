#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>

#include "serve/cpu_follower.h"

namespace vafs::serve {
namespace {

constexpr int kDrainGraceMs = 1000;  // max wait for a mid-frame peer at drain
// Initial receive buffer. It grows to the largest frame a peer sends, so
// idle memory stays small instead of kMaxPayload per connection.
constexpr std::size_t kInitialRxBytes = 4096;

void append_error_frame(std::vector<std::uint8_t>& out, std::uint64_t stream_id,
                        WireError code) {
  std::vector<std::uint8_t> payload;
  encode_error(payload, code);
  encode_frame(out, MsgType::kError, stream_id, payload);
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

bool Server::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    close(listen_fd_);
    listen_fd_ = -1;
    errno = ENAMETOOLONG;
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(), options_.socket_path.size() + 1);
  unlink(options_.socket_path.c_str());  // stale socket from a dead daemon
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listen_fd_, options_.listen_backlog) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  start_time_ = std::chrono::steady_clock::now();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The registry is stable now: only this thread mutates it, so the
  // joins need no lock (stats() keeps reading live counters meanwhile).
  for (auto& c : connections_) {
    if (c->thread.joinable()) c->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& c : connections_) retire(*c);
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  unlink(options_.socket_path.c_str());
}

std::int64_t Server::wall_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

void Server::trace(obs::EventKind kind, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  if (options_.tracer == nullptr) return;
  std::lock_guard<std::mutex> lock(tracer_mutex_);
  options_.tracer->record(sim::SimTime::micros(wall_us()), kind, a, b, c);
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = poll(&pfd, 1, kTickMs);
    if (pr <= 0) continue;
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    // The connection's rings. Sending the memfd cannot block on a fresh
    // socket, so a client that never completes its half of the handshake
    // stalls nothing here.
    std::unique_ptr<ShmStream> stream = ShmStream::create(fd);
    if (!stream) continue;

    std::lock_guard<std::mutex> lock(connections_mutex_);
    // Reap finished connections so a long-lived daemon's registry doesn't
    // grow with churn (their threads have already flagged done).
    std::size_t live = 0;
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        retire(**it);
        it = connections_.erase(it);
      } else {
        ++live;
        ++it;
      }
    }
    if (live >= options_.max_connections) {
      // Bounded, observable backpressure: one error frame, then close.
      std::vector<std::uint8_t> reply;
      append_error_frame(reply, 0, WireError::kServerOverloaded);
      stream->write_all(reply.data(), reply.size());
      stream.reset();
      rejected_.fetch_add(1, std::memory_order_relaxed);
      trace(obs::EventKind::kServeReject, next_connection_id_, 0);
      continue;
    }

    auto conn = std::make_unique<Connection>();
    conn->stream = std::move(stream);
    conn->id = next_connection_id_++;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    trace(obs::EventKind::kServeConnect, conn->id);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { serve_connection(*raw); });
    connections_.push_back(std::move(conn));
  }
}

void Server::serve_connection(Connection& conn) {
  StreamMap streams;
  CpuFollower follower;
  // rx[head, tail) holds received, unhandled bytes; tx collects the
  // replies to one read's frames; body is reply-payload scratch. All three
  // are reused, so a steady-state decision allocates nothing.
  std::vector<std::uint8_t> rx(kInitialRxBytes);
  std::vector<std::uint8_t> tx;
  std::vector<std::uint8_t> body;
  std::size_t head = 0;
  std::size_t tail = 0;
  std::size_t want = 0;  // length of the partial frame at head, once known
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;

  ShmStream& stream = *conn.stream;
  bool open = true;
  while (open) {
    const std::uint64_t waits = stream.counters().futex_waits.load(std::memory_order_relaxed);
    const long n = stream.read_some(rx.data() + tail, rx.size() - tail);
    // Closed (mid-frame: the peer died mid-send) or an impossible index.
    if (n == 0 || n == ShmStream::kBroken) break;
    if (n > 0) {
      tail += static_cast<std::size_t>(n);
      const bool slept = stream.counters().futex_waits.load(std::memory_order_relaxed) != waits;
      if (follower.on_request(stream.peer_cpu(), slept)) bump(conn.moves);
    }

    // Handle every complete frame before reading again.
    want = 0;
    while (open && tail - head >= kWireHeaderSize) {
      FrameHeader header;
      const WireError herr = decode_header(rx.data() + head, header);
      if (herr != WireError::kNone) {
        // The framing itself is broken — byte boundaries are gone, so no
        // later reply can be framed reliably. Count it and drop the
        // connection once the replies so far are out.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        trace(obs::EventKind::kServeError, conn.id, static_cast<std::uint64_t>(herr));
        if (herr == WireError::kBadVersion || herr == WireError::kOversized) {
          // Header structure was intact: tell the peer why before closing.
          append_error_frame(tx, header.stream_id, herr);
        }
        open = false;
        break;
      }
      const std::size_t frame_len = kWireHeaderSize + header.payload_len;
      if (tail - head < frame_len) {
        want = frame_len;  // partial frame: read the rest
        break;
      }
      const std::uint8_t* payload = rx.data() + head + kWireHeaderSize;
      head += frame_len;

      const WireError perr = verify_payload(header, payload, header.payload_len);
      if (perr != WireError::kNone) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        trace(obs::EventKind::kServeError, conn.id, static_cast<std::uint64_t>(perr));
        append_error_frame(tx, header.stream_id, perr);
        continue;  // framing is intact: the connection survives a bad payload
      }
      try {
        open = handle_frame(conn, streams, header, payload, body, tx);
      } catch (const std::exception&) {
        // Allocation failure or any other surprise: this connection's
        // state is suspect, so drop it — never the daemon.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        trace(obs::EventKind::kServeError, conn.id, 0);
        open = false;
      }
    }

    if (!tx.empty()) {
      if (!stream.write_all(tx.data(), tx.size(), &stopping_)) break;
      tx.clear();
    }
    if (!open) break;

    // Keep the unhandled partial frame at the front, with room for all of
    // it once its header is known.
    if (head == tail) {
      head = tail = 0;
    } else if (head > 0) {
      std::memmove(rx.data(), rx.data() + head, tail - head);
      tail -= head;
      head = 0;
    }
    if (want > rx.size()) rx.resize(want);

    // Drain: with nothing buffered the connection is idle (or every frame
    // in flight is answered) and closes now; a partial frame gets up to
    // kDrainGraceMs to arrive in full.
    if (stopping_.load(std::memory_order_acquire)) {
      const auto now = std::chrono::steady_clock::now();
      if (!draining) {
        draining = true;
        drain_deadline = now + std::chrono::milliseconds(kDrainGraceMs);
      }
      if (tail == 0 || now >= drain_deadline) break;
    }
  }

  if (stream.broken()) {
    // The peer wrote an impossible ring index: nothing it sends can be
    // trusted any more.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    trace(obs::EventKind::kServeError, conn.id, 0);
  }
  stream.close();
  streams_closed_.fetch_add(streams.size(), std::memory_order_relaxed);
  closed_.fetch_add(1, std::memory_order_relaxed);
  trace(obs::EventKind::kServeDisconnect, conn.id,
        conn.requests.load(std::memory_order_relaxed));
  conn.done.store(true, std::memory_order_release);
}

bool Server::handle_frame(Connection& conn, StreamMap& streams, const FrameHeader& header,
                          const std::uint8_t* payload, std::vector<std::uint8_t>& body,
                          std::vector<std::uint8_t>& reply) {
  switch (header.type) {
    case MsgType::kPing:
      encode_frame(reply, MsgType::kPong, header.stream_id, {});
      return true;

    case MsgType::kHello: {
      if (streams.count(header.stream_id) != 0) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kDuplicateStream);
        return true;
      }
      core::DecisionStreamInfo info;
      if (!decode_stream_info(payload, header.payload_len, info)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        trace(obs::EventKind::kServeError, conn.id,
              static_cast<std::uint64_t>(WireError::kShortPayload));
        append_error_frame(reply, header.stream_id, WireError::kShortPayload);
        return true;
      }
      try {
        streams.emplace(header.stream_id,
                        std::make_unique<core::DecisionCore>(info.config, info.geometry));
      } catch (const core::ConfigError&) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kBadConfig);
        return true;
      } catch (const std::invalid_argument&) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kBadGeometry);
        return true;
      }
      streams_opened_.fetch_add(1, std::memory_order_relaxed);
      encode_frame(reply, MsgType::kHelloOk, header.stream_id, {});
      return true;
    }

    case MsgType::kDecide: {
      const auto it = streams.find(header.stream_id);
      if (it == streams.end()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kUnknownStream);
        return true;
      }
      core::DecisionRequest req;
      if (!decode_request(payload, header.payload_len, req)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        append_error_frame(reply, header.stream_id, WireError::kShortPayload);
        return true;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const core::DecisionResponse resp = it->second->decide(req);
      const auto t1 = std::chrono::steady_clock::now();
      const std::uint64_t ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      conn.latency.record_ns(ns);
      bump(conn.requests);
      trace(obs::EventKind::kServeRequest, header.stream_id, ns / 1000,
            static_cast<std::uint64_t>(req.event));
      body.clear();
      encode_response(body, resp);
      encode_frame(reply, MsgType::kDecision, header.stream_id, body);
      return true;
    }

    case MsgType::kClose: {
      const auto it = streams.find(header.stream_id);
      if (it != streams.end()) {
        streams.erase(it);
        streams_closed_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;  // fire-and-forget
    }

    case MsgType::kHelloOk:
    case MsgType::kDecision:
    case MsgType::kPong:
    case MsgType::kError:
      // Server-to-client message types arriving at the server: a confused
      // peer. Answer with an error; keep the (intact) connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      append_error_frame(reply, header.stream_id, WireError::kBadType);
      return true;
  }
  return false;
}

void Server::add_counters(ServerStats& s, const Connection& conn) {
  s.requests += conn.requests.load(std::memory_order_relaxed);
  const ShmStream::Counters& t = conn.stream->counters();
  s.futex_waits += t.futex_waits.load(std::memory_order_relaxed);
  s.futex_wakes += t.futex_wakes.load(std::memory_order_relaxed);
  s.socket_polls += t.polls.load(std::memory_order_relaxed);
  s.spins += t.spins.load(std::memory_order_relaxed);
  s.spin_timeouts += t.spin_timeouts.load(std::memory_order_relaxed);
  s.thread_moves += conn.moves.load(std::memory_order_relaxed);
}

void Server::retire(const Connection& conn) {
  retired_latency_.merge(conn.latency);
  add_counters(retired_, conn);
}

ServerStats Server::stats() const {
  ServerStats s;
  LatencyHistogram latency;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    s = retired_;
    latency.merge(retired_latency_);
    for (const auto& c : connections_) {
      latency.merge(c->latency);
      add_counters(s, *c);
    }
  }
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_rejected = rejected_.load(std::memory_order_relaxed);
  s.connections_closed = closed_.load(std::memory_order_relaxed);
  s.streams_opened = streams_opened_.load(std::memory_order_relaxed);
  s.streams_closed = streams_closed_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.latency_p50_us = latency.percentile_us(0.50);
  s.latency_p95_us = latency.percentile_us(0.95);
  s.latency_p99_us = latency.percentile_us(0.99);
  s.latency_mean_us = latency.mean_us();
  return s;
}

}  // namespace vafs::serve
