// Serving-mode suite: the decision daemon must be *indistinguishable* from
// in-process decisions, bit for bit, and robust as a long-lived process.
//
// Four layers:
//
//   1. Differential: the golden corpus (tests/golden_corpus.h — the same
//      12 sessions golden_test.cpp pins) re-run with every VAFS plan
//      answered over the daemon socket, at client concurrency 1, 8 and
//      64. Each session's obs digest must equal its in-process digest
//      exactly — any divergence in decision values, ordering, or float
//      bits flips a digest.
//
//   2. Isolation and backpressure: a client stalled mid-frame must not
//      perturb any other stream's digest; connections beyond the cap get
//      one observable error frame and a close, bounded and counted.
//
//   3. Framing and transport: frames split across many ring writes or
//      packed into one, drain with half a frame buffered or none, pinned
//      frame bytes, the steady-state cost of a decision — no socket call,
//      at most one futex wake and one futex wait per side, no heap
//      allocation — no lost wake over a long ping-pong, and a prompt
//      close when a client goes away.
//
//   4. Daemon lifecycle (the real vafsd binary, VAFS_VAFSD_PATH):
//      readiness line, SIGTERM drains and exits 0 with clients still
//      connected, a client reconnects to a restarted daemon — fresh
//      epoch, same digests — a SIGKILLed daemon fails a waiting decision
//      within two ticks, and hostile stream configs are refused without
//      taking the daemon down.
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "alloc_count.h"
#include "cpu_pin.h"
#include "golden_corpus.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/cpu_follower.h"
#include "serve/server.h"
#include "serve/shm_stream.h"
#include "serve/stats.h"
#include "serve/wire.h"

namespace vafs {
namespace {

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/vafs-st-" + std::to_string(getpid()) + "-" + tag + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Runs one corpus case with a digest-only tracer, optionally through a
/// decision backend; returns the session's trace digest.
std::uint64_t run_case_digest(const golden::GoldenCase& c,
                              core::DecisionBackend* backend) {
  obs::Tracer tracer{obs::Tracer::Config{0}};
  core::SessionHooks hooks;
  hooks.tracer = &tracer;
  hooks.decision_backend = backend;
  const core::SessionResult result = core::run_session(c.config, hooks);
  EXPECT_TRUE(result.finished);
  return tracer.digest();
}

/// In-process reference digests, computed once per binary run.
const std::map<std::string, std::uint64_t>& reference_digests() {
  static const std::map<std::string, std::uint64_t> digests = [] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& c : golden::golden_cases()) {
      out[c.name] = run_case_digest(c, nullptr);
    }
    return out;
  }();
  return digests;
}

/// Connects a Unix socket to `path`; -1 on failure.
int connect_socket(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// A raw client that writes exactly the bytes it is given into the
/// connection's ring and reads replies byte for byte: no framing of its
/// own.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    const int fd = connect_socket(path);
    const char* error = nullptr;
    if (fd >= 0) stream_ = serve::ShmStream::attach(fd, &error);
  }

  bool ok() const { return stream_ != nullptr; }

  bool send_bytes(const std::uint8_t* data, std::size_t len) {
    return stream_->write_all(data, len);
  }
  bool send_bytes(const std::vector<std::uint8_t>& bytes) {
    return send_bytes(bytes.data(), bytes.size());
  }

  /// Reads exactly `len` bytes within `timeout_ms`; false on close or
  /// timeout.
  bool read_exact(std::uint8_t* out, std::size_t len, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::size_t got = 0;
    while (got < len) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      const long n = stream_->read_some(out + got, len - got);
      if (n == serve::ShmStream::kTick) continue;
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One whole frame, raw bytes (header + payload); empty on failure.
  std::vector<std::uint8_t> read_frame(int timeout_ms = 5000) {
    std::vector<std::uint8_t> frame(serve::kWireHeaderSize);
    serve::FrameHeader header;
    if (!read_exact(frame.data(), frame.size(), timeout_ms) ||
        serve::decode_header(frame.data(), header) != serve::WireError::kNone) {
      return {};
    }
    frame.resize(serve::kWireHeaderSize + header.payload_len);
    if (!read_exact(frame.data() + serve::kWireHeaderSize, header.payload_len, timeout_ms)) {
      return {};
    }
    return frame;
  }

  /// True once the peer closes within `timeout_ms` (no bytes before it).
  bool sees_eof(int timeout_ms = 5000) {
    std::uint8_t byte = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      const long n = stream_->read_some(&byte, 1);
      if (n == serve::ShmStream::kTick) continue;
      return n == 0;
    }
    return false;
  }

  /// True if nothing (no bytes, no close) arrives within one tick.
  bool quiet() {
    std::uint8_t byte = 0;
    return stream_->read_some(&byte, 1) == serve::ShmStream::kTick;
  }

 private:
  std::unique_ptr<serve::ShmStream> stream_;
};

class ServeDifferential : public ::testing::TestWithParam<int> {};

// The tentpole proof: every corpus session answered by the daemon yields
// the identical digest, at any client concurrency. Work items cycle
// through the corpus and outnumber the threads, so at concurrency 64 the
// daemon multiplexes 64 simultaneous connections x interleaved streams.
TEST_P(ServeDifferential, DaemonDigestsMatchInProcessBitwise) {
  const int concurrency = GetParam();
  const auto cases = golden::golden_cases();
  const auto& reference = reference_digests();

  serve::Server server({unique_socket_path("diff"), 256, 128, nullptr});
  ASSERT_TRUE(server.start());
  serve::SocketBackend backend(server.socket_path());

  // At least one full corpus pass, and enough items to keep every thread
  // busy with a non-trivial share.
  const std::size_t items =
      std::max(cases.size(), static_cast<std::size_t>(concurrency) * 2);
  std::vector<std::uint64_t> digests(items, 0);
  std::vector<std::string> errors(items);
  std::atomic<std::size_t> next{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= items) return;
      try {
        digests[i] = run_case_digest(cases[i % cases.size()], &backend);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < concurrency; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();

  for (std::size_t i = 0; i < items; ++i) {
    const auto& c = cases[i % cases.size()];
    SCOPED_TRACE(c.name + " (item " + std::to_string(i) + ")");
    EXPECT_TRUE(errors[i].empty()) << errors[i];
    EXPECT_EQ(digests[i], reference.at(c.name))
        << "daemon-served session diverged from in-process";
  }

  server.stop();
  const serve::ServerStats stats = server.stats();
  // One stream per *vafs* session: only the vafs governor consults the
  // decision core; the other corpus governors never open a stream.
  std::uint64_t vafs_items = 0;
  for (std::size_t i = 0; i < items; ++i) {
    if (cases[i % cases.size()].config.governor == "vafs") ++vafs_items;
  }
  EXPECT_EQ(stats.streams_opened, vafs_items);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GT(stats.requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Concurrency, ServeDifferential, ::testing::Values(1, 8, 64));

// A client wedged mid-frame (header sent, payload never arrives) must not
// perturb concurrent streams: connections are fully isolated, so every
// other session still matches its in-process digest.
TEST(ServeIsolation, StalledClientDoesNotPerturbOtherStreams) {
  const auto cases = golden::golden_cases();
  const auto& reference = reference_digests();

  serve::Server server({unique_socket_path("stall"), 64, 16, nullptr});
  ASSERT_TRUE(server.start());

  // The stalled client: a raw connection that writes only the first half
  // of a valid Decide frame and then goes silent.
  RawConn stalled(server.socket_path());
  ASSERT_TRUE(stalled.ok());
  std::vector<std::uint8_t> frame;
  serve::encode_frame(frame, serve::MsgType::kDecide, 0,
                      std::vector<std::uint8_t>(64, 0xAB));
  ASSERT_TRUE(stalled.send_bytes(frame.data(), frame.size() / 2));

  // Meanwhile: a full corpus pass at concurrency 4.
  serve::SocketBackend backend(server.socket_path());
  std::vector<std::uint64_t> digests(cases.size(), 0);
  std::vector<std::string> errors(cases.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cases.size()) return;
      try {
        digests[i] = run_case_digest(cases[i], &backend);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    EXPECT_TRUE(errors[i].empty()) << errors[i];
    EXPECT_EQ(digests[i], reference.at(cases[i].name));
  }

  server.stop();
}

// Beyond max_connections the server still answers: one kServerOverloaded
// error frame, then a close — bounded, observable, counted.
TEST(ServeBackpressure, OverCapConnectionsGetOneErrorFrameAndAClose) {
  serve::ServerOptions opts{unique_socket_path("cap"), 1, 16, nullptr};
  serve::Server server(std::move(opts));
  ASSERT_TRUE(server.start());

  serve::ServeConnection first(server.socket_path());
  ASSERT_TRUE(first.ping());  // occupies the single slot

  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 1200000}, 1.0, 1'200'000.0});
  for (int i = 0; i < 3; ++i) {
    serve::ServeConnection rejected(server.socket_path());
    // The overload error frame arrives either as the reply to the hello
    // or as a transport failure if the close raced the send — both are
    // clean SessionErrors; a hang or a crash is the only wrong answer.
    EXPECT_THROW(rejected.open_stream(info), core::SessionError);
  }
  // The accepted connection is unaffected throughout.
  EXPECT_TRUE(first.ping());

  server.stop();
  EXPECT_EQ(server.stats().connections_rejected, 3u);
}

// ---------------------------------------------------------------------------
// Framing and transport.

core::DecisionStreamInfo test_stream_info() {
  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 900000, 1200000}, 1.0, 1'200'000.0});
  return info;
}

/// A deterministic request mix: decode completions feeding the predictor
/// interleaved with replans, as a playing session issues them.
core::DecisionRequest sample_request(std::uint64_t i) {
  core::DecisionRequest req;
  req.event = i % 2 == 0 ? core::DecisionEvent::kDecodeComplete : core::DecisionEvent::kReplan;
  req.now_us = static_cast<std::int64_t>(i) * 16'667;
  req.player_state = core::DecisionPlayerState::kPlaying;
  req.decoded_ahead = 4 + i % 5;
  req.decoded_frames = i;
  req.total_frames = 100'000;
  req.frame_period_us = 33'333;
  req.throughput_mbps = 8.0;
  req.observe_cycles = 9.0e6 + static_cast<double>((i * 7919) % 1000) * 1.0e4;
  req.observe_idr = i % 30 == 0;
  return req;
}

std::vector<std::uint8_t> frame_of(serve::MsgType type, std::uint64_t stream_id,
                                   const std::vector<std::uint8_t>& payload = {}) {
  std::vector<std::uint8_t> frame;
  serve::encode_frame(frame, type, stream_id, payload);
  return frame;
}

std::vector<std::uint8_t> hello_frame(std::uint64_t stream_id,
                                      const core::DecisionStreamInfo& info) {
  std::vector<std::uint8_t> payload;
  serve::encode_stream_info(payload, info);
  return frame_of(serve::MsgType::kHello, stream_id, payload);
}

std::vector<std::uint8_t> decide_frame(std::uint64_t stream_id, const core::DecisionRequest& req) {
  std::vector<std::uint8_t> payload;
  serve::encode_request(payload, req);
  return frame_of(serve::MsgType::kDecide, stream_id, payload);
}

/// The Decision frame an in-process core's answer would travel as.
std::vector<std::uint8_t> expected_decision(std::uint64_t stream_id,
                                            const core::DecisionResponse& resp) {
  std::vector<std::uint8_t> payload;
  serve::encode_response(payload, resp);
  return frame_of(serve::MsgType::kDecision, stream_id, payload);
}

// A Hello and a Decide written one byte per ring write: each header and
// each payload reach the server over many reads and are still reassembled
// and answered exactly.
TEST(ServeFraming, FramesSentOneBytePerWriteAreReassembled) {
  serve::Server server({unique_socket_path("bytes"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  RawConn conn(server.socket_path());
  ASSERT_TRUE(conn.ok());

  const core::DecisionRequest req = sample_request(0);
  std::vector<std::uint8_t> bytes = hello_frame(3, test_stream_info());
  const std::vector<std::uint8_t> decide = decide_frame(3, req);
  bytes.insert(bytes.end(), decide.begin(), decide.end());
  for (const std::uint8_t b : bytes) {
    ASSERT_TRUE(conn.send_bytes(&b, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  EXPECT_EQ(conn.read_frame(), frame_of(serve::MsgType::kHelloOk, 3));
  core::DecisionCore local(test_stream_info().config, test_stream_info().geometry);
  EXPECT_EQ(conn.read_frame(), expected_decision(3, local.decide(req)));
  EXPECT_TRUE(conn.quiet());
  // More waits than frames: the frames really did arrive in pieces.
  EXPECT_GT(server.stats().futex_waits, 2u);
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// Close + Hello + Decide for the same stream id in one write: every frame
// in the buffer is handled, in order, before the next read — the Close
// lands first (so the Hello is not a duplicate and the stream starts
// fresh), and the replies arrive in request order.
TEST(ServeFraming, PackedFramesAreAnsweredInOrder) {
  serve::Server server({unique_socket_path("packed"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  RawConn conn(server.socket_path());
  ASSERT_TRUE(conn.ok());

  // Give stream 5 some history first.
  ASSERT_TRUE(conn.send_bytes(hello_frame(5, test_stream_info())));
  ASSERT_EQ(conn.read_frame(), frame_of(serve::MsgType::kHelloOk, 5));
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(conn.send_bytes(decide_frame(5, sample_request(i))));
    ASSERT_FALSE(conn.read_frame().empty());
  }

  const core::DecisionRequest req = sample_request(1);
  std::vector<std::uint8_t> packed = frame_of(serve::MsgType::kClose, 5);
  for (const auto& f : {hello_frame(5, test_stream_info()), decide_frame(5, req),
                        frame_of(serve::MsgType::kPing, 9)}) {
    packed.insert(packed.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(conn.send_bytes(packed));

  core::DecisionCore fresh(test_stream_info().config, test_stream_info().geometry);
  EXPECT_EQ(conn.read_frame(), frame_of(serve::MsgType::kHelloOk, 5));
  EXPECT_EQ(conn.read_frame(), expected_decision(5, fresh.decide(req)));
  EXPECT_EQ(conn.read_frame(), frame_of(serve::MsgType::kPong, 9));
  EXPECT_TRUE(conn.quiet());
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// stop() with half a Decide frame buffered: the frame in flight is
// finished and answered, then the connection closes.
TEST(ServeDrain, StopAnswersAHalfBufferedFrame) {
  serve::Server server({unique_socket_path("half"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  RawConn conn(server.socket_path());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.send_bytes(hello_frame(0, test_stream_info())));
  ASSERT_EQ(conn.read_frame(), frame_of(serve::MsgType::kHelloOk, 0));

  const core::DecisionRequest req = sample_request(0);
  const std::vector<std::uint8_t> frame = decide_frame(0, req);
  const std::size_t half = frame.size() / 2;
  ASSERT_TRUE(conn.send_bytes(frame.data(), half));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // buffered server-side

  std::thread stopper([&] { server.stop(); });
  // Several stop-flag ticks pass; the connection must wait for the rest.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(conn.quiet()) << "the connection closed with a frame in flight";
  EXPECT_TRUE(conn.send_bytes(frame.data() + half, frame.size() - half));

  core::DecisionCore local(test_stream_info().config, test_stream_info().geometry);
  EXPECT_EQ(conn.read_frame(), expected_decision(0, local.decide(req)));
  EXPECT_TRUE(conn.sees_eof());
  stopper.join();
  EXPECT_EQ(server.stats().requests, 1u);
}

// stop() with an idle connection: it closes at its next stop-flag tick,
// well inside the mid-frame grace period.
TEST(ServeDrain, StopClosesAnIdleConnectionWithinATick) {
  serve::Server server({unique_socket_path("idle"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  RawConn conn(server.socket_path());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.send_bytes(frame_of(serve::MsgType::kPing, 0)));
  ASSERT_EQ(conn.read_frame(), frame_of(serve::MsgType::kPong, 0));

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  EXPECT_TRUE(conn.sees_eof(100));
}

// The client is owed exactly one reply per request. A peer that sends
// more (here: two Pongs for one Ping, in one ring write) has the stream
// out of step, so the connection is marked broken instead of the extra
// bytes being dropped or read as the next reply.
TEST(ServeClient, BytesBeyondTheOwedReplyBreakTheConnection) {
  const std::string path = unique_socket_path("extra");
  const int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listener, 1), 0);

  std::atomic<bool> done{false};
  std::thread peer([&] {
    const int fd = accept(listener, nullptr, nullptr);
    std::unique_ptr<serve::ShmStream> stream;
    if (fd >= 0) stream = serve::ShmStream::create(fd);
    std::uint8_t request[serve::kWireHeaderSize];
    std::size_t got = 0;
    while (stream && got < sizeof request) {
      const long n = stream->read_some(request + got, sizeof request - got);
      if (n == 0 || n == serve::ShmStream::kBroken) break;
      if (n > 0) got += static_cast<std::size_t>(n);
    }
    if (got == sizeof request) {
      std::vector<std::uint8_t> replies = frame_of(serve::MsgType::kPong, 0);
      const std::vector<std::uint8_t> extra = frame_of(serve::MsgType::kPong, 0);
      replies.insert(replies.end(), extra.begin(), extra.end());
      stream->write_all(replies.data(), replies.size());
    }
    while (!done.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });

  serve::ServeConnection conn(path);
  EXPECT_FALSE(conn.ping());
  EXPECT_TRUE(conn.broken());
  done.store(true);
  peer.join();
  close(listener);
  unlink(path.c_str());
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

// The wire format is a contract with deployed clients: one fixed request
// and its Decision reply, pinned byte for byte.
TEST(ServeWire, DecideAndDecisionFrameBytesArePinned) {
  serve::Server server({unique_socket_path("pin"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  RawConn conn(server.socket_path());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.send_bytes(hello_frame(7, test_stream_info())));
  ASSERT_EQ(conn.read_frame(), frame_of(serve::MsgType::kHelloOk, 7));

  core::DecisionRequest req = sample_request(1);
  req.event = core::DecisionEvent::kReplan;
  const std::vector<std::uint8_t> decide = decide_frame(7, req);
  EXPECT_EQ(hex(decide), "55000000564601030700000000000000d41d8e454c347cd5"  // header, stream 7
                        "00011b41000000000000020005000000000000000100000000000000a08601"
                        "00000000003582000000000000000000000000000000000000000020400000"
                        "000000000000000000000000000000000000eb58714100");
  ASSERT_TRUE(conn.send_bytes(decide));
  EXPECT_EQ(hex(conn.read_frame()),
            "330000005646010407000000000000005d037a8dfa913e56"  // header
            "010000" "00000000" "01000000"                      // planned, cluster 0 of 1
            "a0bb0d00"                                          // 900 MHz
            "00000000000000000000000000000000000000000000000000000000"  // 7 unused clusters
            "0000000000000000");                                // decode_mape
  server.stop();
}

// A steady-state decision makes no socket call, at most one futex wake
// and one futex wait on each side, and allocates nothing on either side.
// The server runs in this process, so the allocation count covers both.
// Client and server share one CPU (the server's threads inherit this
// thread's pin), so neither side may ever spin: a spin there would burn
// the time of the thread it waits for.
TEST(ServeTransport, SteadyStateDecisionMakesNoSocketCallAndNoAllocation) {
  const std::vector<int> cpus = test::allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  const test::PinSelf pin({cpus.back()});
  ASSERT_TRUE(pin.ok());
  serve::Server server({unique_socket_path("diet"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  serve::ServeConnection conn(server.socket_path());
  const std::uint64_t stream = conn.open_stream(test_stream_info());

  // Warm-up: predictor windows fill, per-representation state exists and
  // every buffer has reached its working size.
  std::uint64_t i = 0;
  for (; i < 256; ++i) conn.decide(stream, sample_request(i));

  // A window in which a side waited out a whole tick (its peer was
  // descheduled for 50 ms on a busy host) or the connection thread moved
  // to a CPU the client migrated to is not steady state: the tick makes a
  // liveness poll, the move two affinity calls. Such a window is measured
  // again.
  constexpr std::uint64_t kDecisions = 1000;
  const serve::ShmStream::Counters& client = conn.transport();
  bool measured = false;
  for (int attempt = 0; attempt < 5 && !measured; ++attempt) {
    const serve::ServerStats before = server.stats();
    const std::uint64_t waits_before = client.futex_waits.load();
    const std::uint64_t wakes_before = client.futex_wakes.load();
    const std::uint64_t polls_before = client.polls.load();
    const std::uint64_t allocs_before = test::allocations();
    test::count_allocations(true);
    for (std::uint64_t n = 0; n < kDecisions; ++n, ++i) conn.decide(stream, sample_request(i));
    test::count_allocations(false);
    const serve::ServerStats after = server.stats();

    EXPECT_EQ(test::allocations() - allocs_before, 0u);
    EXPECT_EQ(after.requests - before.requests, kDecisions);
    if (client.polls.load() != polls_before || after.socket_polls != before.socket_polls ||
        after.thread_moves != before.thread_moves) {
      continue;
    }
    measured = true;
    EXPECT_LE(client.futex_waits.load() - waits_before, kDecisions);
    EXPECT_LE(client.futex_wakes.load() - wakes_before, kDecisions);
    EXPECT_LE(after.futex_waits - before.futex_waits, kDecisions);
    EXPECT_LE(after.futex_wakes - before.futex_wakes, kDecisions);
  }
  EXPECT_TRUE(measured) << "every window made a socket call";
  server.stop();
  EXPECT_EQ(client.spins.load(), 0u);
  EXPECT_EQ(server.stats().spins, 0u);
  EXPECT_EQ(server.stats().thread_moves, 0u);
}

// Destroying a client closes its end of the rings and wakes the server,
// whose connection thread exits at once instead of at its next tick.
TEST(ServeTransport, DestroyedConnectionClosesWithin20ms) {
  serve::Server server({unique_socket_path("bye"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  std::chrono::steady_clock::time_point t0;
  {
    serve::ServeConnection conn(server.socket_path());
    ASSERT_TRUE(conn.ping());
    t0 = std::chrono::steady_clock::now();
  }
  while (server.stats().connections_closed == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(server.stats().connections_closed, 1u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(20));
  server.stop();
}

/// A connected pair of stream ends over a socketpair, as the daemon and a
/// client would hold them.
struct StreamPair {
  std::unique_ptr<serve::ShmStream> daemon;
  std::unique_ptr<serve::ShmStream> client;
};

StreamPair make_stream_pair() {
  int sv[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) return {};
  StreamPair pair;
  pair.daemon = serve::ShmStream::create(sv[0]);
  const char* error = nullptr;
  pair.client = serve::ShmStream::attach(sv[1], &error);
  return pair;
}

/// Reads exactly `len` bytes; false on close or a broken stream.
bool read_all(serve::ShmStream& stream, std::uint8_t* buf, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const long n = stream.read_some(buf + got, len - got);
    if (n == serve::ShmStream::kTick) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// 100k round trips between two threads: no wait may run out its tick
// while the peer's bytes were already published — that would be a lost
// wake, and a 50 ms stall for the decision waiting on it.
TEST(ShmStreamWake, PingPongLosesNoWake) {
  StreamPair pair = make_stream_pair();
  ASSERT_TRUE(pair.daemon && pair.client);
  constexpr std::uint64_t kRoundTrips = 100'000;

  std::thread echo([&] {
    std::uint8_t buf[8];
    while (read_all(*pair.daemon, buf, sizeof buf)) {
      if (!pair.daemon->write_all(buf, sizeof buf)) return;
    }
  });
  std::uint64_t done = 0;
  for (; done < kRoundTrips; ++done) {
    std::uint8_t out[8];
    std::uint8_t back[8] = {};
    std::memcpy(out, &done, sizeof out);
    if (!pair.client->write_all(out, sizeof out) || !read_all(*pair.client, back, sizeof back) ||
        std::memcmp(out, back, sizeof out) != 0 ||
        pair.client->counters().late_wakes.load() != 0) {
      break;
    }
  }
  pair.client->close();
  echo.join();

  EXPECT_EQ(done, kRoundTrips);
  EXPECT_EQ(pair.client->counters().late_wakes.load(), 0u);
  EXPECT_EQ(pair.daemon->counters().late_wakes.load(), 0u);
  // The sleep path really ran: a ring read with nothing pending waits.
  EXPECT_GT(pair.client->counters().futex_waits.load() +
                pair.daemon->counters().futex_waits.load(),
            0u);
}

// A frame larger than the ring streams through it: the writer blocks while
// the ring is full and the reader's progress wakes it.
TEST(ShmStreamWake, WritesLargerThanTheRingStreamThrough) {
  StreamPair pair = make_stream_pair();
  ASSERT_TRUE(pair.daemon && pair.client);
  std::vector<std::uint8_t> big(serve::kWireHeaderSize + serve::kMaxPayload);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 131);
  std::thread writer([&] { EXPECT_TRUE(pair.client->write_all(big.data(), big.size())); });
  std::vector<std::uint8_t> got(big.size());
  EXPECT_TRUE(read_all(*pair.daemon, got.data(), got.size()));
  writer.join();
  EXPECT_EQ(got, big);
  EXPECT_EQ(pair.client->counters().late_wakes.load(), 0u);
}

// Two threads pinned to two CPUs (after setting the pair up, so each end
// may spin for a peer on either CPU): each side waits while its peer runs
// on the other CPU, so every wait polls the ring and the reply lands
// within the spin budget; nobody sleeps in the futex. A window in which a
// spin ran out (a thread was preempted on a busy host) is measured again,
// after enough round trips to use up the back-off it left.
TEST(ShmStreamSpin, SplitPairSpinsInsteadOfSleeping) {
  const std::vector<int> cpus = test::allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";
  StreamPair pair = make_stream_pair();
  ASSERT_TRUE(pair.daemon && pair.client);
  const test::PinSelf pin({cpus[0]});
  ASSERT_TRUE(pin.ok());

  std::atomic<bool> echo_pinned{false};
  std::thread echo([&] {
    const test::PinSelf echo_pin({cpus[1]});
    echo_pinned = echo_pin.ok();
    std::uint8_t buf[8];
    while (read_all(*pair.daemon, buf, sizeof buf)) {
      if (!pair.daemon->write_all(buf, sizeof buf)) return;
    }
  });
  std::uint64_t sent = 0;
  const auto round_trips = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i, ++sent) {
      std::uint8_t out[8];
      std::uint8_t back[8] = {};
      std::memcpy(out, &sent, sizeof out);
      if (!pair.client->write_all(out, sizeof out) ||
          !read_all(*pair.client, back, sizeof back) || std::memcmp(out, back, sizeof out) != 0) {
        return false;
      }
    }
    return true;
  };

  constexpr std::uint64_t kRoundTrips = 1000;
  const serve::ShmStream::Counters& client = pair.client->counters();
  const serve::ShmStream::Counters& daemon = pair.daemon->counters();
  bool echoed = true;
  bool measured = false;
  for (int attempt = 0; attempt < 20 && echoed && !measured; ++attempt) {
    const std::uint64_t timeouts = client.spin_timeouts + daemon.spin_timeouts;
    echoed = round_trips(2 * serve::kMaxSpinSkip);
    const std::uint64_t spins = client.spins;
    const std::uint64_t client_waits = client.futex_waits;
    const std::uint64_t daemon_waits = daemon.futex_waits;
    echoed = echoed && round_trips(kRoundTrips);
    if (!echoed || client.spin_timeouts + daemon.spin_timeouts != timeouts) continue;
    measured = true;
    EXPECT_GE(client.spins - spins, kRoundTrips * 9 / 10);
    EXPECT_LE(client.spins - spins, kRoundTrips);
    EXPECT_LE(client.futex_waits - client_waits, kRoundTrips / 100);
    EXPECT_LE(daemon.futex_waits - daemon_waits, kRoundTrips / 100);
  }
  pair.client->close();
  echo.join();
  EXPECT_TRUE(echoed);
  EXPECT_TRUE(echo_pinned);
  EXPECT_TRUE(measured) << "a spin ran out in every window";
  EXPECT_EQ(pair.client->counters().late_wakes.load(), 0u);
  EXPECT_EQ(pair.daemon->counters().late_wakes.load(), 0u);
}

// The placement rule alone: requests from another CPU that the thread
// did not sleep for (it spun for them) never move it, however many, and
// one of them ends a streak; kFollowAfter slept-for ones in a row do.
TEST(CpuFollowerTest, MovesOnlyForRequestsItSleptFor) {
  const std::vector<int> cpus = test::allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";
  const test::PinSelf both({cpus[0], cpus[1]});
  ASSERT_TRUE(both.ok());
  serve::CpuFollower follower;  // may follow a client to either CPU
  const test::PinSelf here({cpus[0]});
  ASSERT_TRUE(here.ok());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(follower.on_request(cpus[1], false));
  for (int i = 1; i < serve::kFollowAfter; ++i) EXPECT_FALSE(follower.on_request(cpus[1], true));
  EXPECT_FALSE(follower.on_request(cpus[1], false));
  for (int i = 1; i < serve::kFollowAfter; ++i) EXPECT_FALSE(follower.on_request(cpus[1], true));
  EXPECT_TRUE(follower.on_request(cpus[1], true));
}

// stats() counts live connections and keeps every reaped connection's
// totals: requests never go backwards across a disconnect.
TEST(ServeTransport, StatsSurviveConnectionReaping) {
  serve::Server server({unique_socket_path("reap"), 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  {
    serve::ServeConnection conn(server.socket_path());
    const std::uint64_t stream = conn.open_stream(test_stream_info());
    for (std::uint64_t i = 0; i < 10; ++i) conn.decide(stream, sample_request(i));
    EXPECT_EQ(server.stats().requests, 10u);  // live connection
  }
  // A new connection makes the accept loop reap the finished one.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  serve::ServeConnection next(server.socket_path());
  ASSERT_TRUE(next.ping());
  EXPECT_EQ(server.stats().requests, 10u);
  EXPECT_EQ(server.stats().connections_closed, 1u);
  server.stop();
  EXPECT_EQ(server.stats().requests, 10u);
  EXPECT_GT(server.stats().latency_mean_us, 0.0);
}

// Server-side decide takes a fraction of a microsecond: the histogram must
// resolve it instead of reporting 0.
TEST(LatencyHistogramTest, ResolvesSubMicrosecondLatencies) {
  serve::LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record_ns(200);
  // The lower edge of 200 ns's bin, at most one sub-bin (12.5%) below.
  EXPECT_GT(h.percentile_us(0.50), 0.175);
  EXPECT_LE(h.percentile_us(0.50), 0.200);
  EXPECT_DOUBLE_EQ(h.mean_us(), 0.2);
  h.record_ns(0);
  EXPECT_EQ(h.percentile_us(0.0), 0.0);
  EXPECT_EQ(h.count(), 1001u);
}

// Merging per-connection histograms is exact: the merge of two histograms
// answers every query as one histogram that recorded both sample sets.
TEST(LatencyHistogramTest, MergeIsExact) {
  serve::LatencyHistogram a;
  serve::LatencyHistogram b;
  serve::LatencyHistogram both;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // 0 ns up to past the overflow edge (2^31 ns), log-uniformly.
    const std::uint64_t ns = (x >> 30) >> (x % 34);
    (i % 3 == 0 ? a : b).record_ns(ns);
    both.record_ns(ns);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.mean_us(), both.mean_us());
  for (int q = 0; q <= 1000; ++q) {
    const double p = q / 1000.0;
    EXPECT_EQ(a.percentile_us(p), both.percentile_us(p)) << "p = " << p;
  }
}

// ---------------------------------------------------------------------------
// Daemon lifecycle: the real vafsd binary.

class VafsdProcess {
 public:
  explicit VafsdProcess(std::string socket_path) : socket_path_(std::move(socket_path)) {
    pid_ = fork();
    if (pid_ == 0) {
      execl(VAFS_VAFSD_PATH, "vafsd", "--socket", socket_path_.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
  }

  ~VafsdProcess() {
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }

  /// True once the daemon answers a ping (bounded wait).
  bool wait_ready(int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        serve::ServeConnection probe(socket_path_);
        if (probe.ping()) return true;
      } catch (const core::SessionError&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Waits (bounded) for exit; returns the raw wait status, or -1 on
  /// timeout.
  int wait_exit(int timeout_ms = 10000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    int status = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        reaped_ = true;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }

  /// Waits (bounded) until every thread of the daemon has stopped; true
  /// once the stop is reported.
  bool wait_stopped(int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    int status = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t r = waitpid(pid_, &status, WNOHANG | WUNTRACED);
      if (r == pid_ && WIFSTOPPED(status)) return true;
      if (r == pid_) {
        reaped_ = true;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  bool reaped_ = false;
};

// SIGTERM with clients connected and streams open: drain, then exit 0.
TEST(VafsdLifecycle, SigtermDrainsAndExitsZero) {
  const std::string socket = unique_socket_path("term");
  VafsdProcess daemon(socket);
  ASSERT_GT(daemon.pid(), 0);
  ASSERT_TRUE(daemon.wait_ready());

  // A connected client with a live stream must not block the drain.
  serve::ServeConnection conn(socket);
  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 1200000}, 1.0, 1'200'000.0});
  const std::uint64_t stream = conn.open_stream(info);
  (void)stream;

  ASSERT_EQ(kill(daemon.pid(), SIGTERM), 0);
  const int status = daemon.wait_exit();
  ASSERT_NE(status, -1) << "vafsd did not exit within the drain window";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The drained daemon's socket is gone: further requests fail cleanly.
  core::DecisionRequest req;
  req.event = core::DecisionEvent::kQueryStats;
  EXPECT_THROW(conn.decide(stream, req), core::SessionError);
}

// Kill the daemon, restart it on the same socket: the backend notices the
// broken connection, reconnects, and a fresh-epoch session produces the
// exact in-process digest (the new daemon shares no state with the old).
TEST(VafsdLifecycle, ClientReconnectsAfterRestartWithFreshEpoch) {
  const auto cases = golden::golden_cases();
  const auto& reference = reference_digests();
  const golden::GoldenCase& c = cases.front();

  const std::string socket = unique_socket_path("restart");
  serve::SocketBackend backend(socket);

  {
    VafsdProcess daemon(socket);
    ASSERT_GT(daemon.pid(), 0);
    ASSERT_TRUE(daemon.wait_ready());
    EXPECT_EQ(run_case_digest(c, &backend), reference.at(c.name));
    ASSERT_EQ(kill(daemon.pid(), SIGKILL), 0);  // simulated crash, no drain
    ASSERT_NE(daemon.wait_exit(), -1);
  }

  VafsdProcess daemon2(socket);
  ASSERT_GT(daemon2.pid(), 0);
  ASSERT_TRUE(daemon2.wait_ready());

  // The first attempt may hit the stale connection (discovered broken and
  // replaced on the retry); the retry must succeed with the exact digest.
  std::uint64_t digest = 0;
  try {
    digest = run_case_digest(c, &backend);
  } catch (const core::SessionError&) {
    digest = run_case_digest(c, &backend);
  }
  EXPECT_EQ(digest, reference.at(c.name));

  ASSERT_EQ(kill(daemon2.pid(), SIGTERM), 0);
  const int status = daemon2.wait_exit();
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// SIGKILL the daemon while a client waits for a reply: the waiting side
// notices the dead socket at its next liveness poll, so the decision fails
// with a SessionError within two ticks, and the backend reconnects to the
// respawned daemon.
TEST(VafsdLifecycle, SigkillWhileAwaitingAReplyFailsWithinTwoTicksAndReconnects) {
  const std::string socket = unique_socket_path("sigkill");
  serve::SocketBackend backend(socket);
  {
    VafsdProcess daemon(socket);
    ASSERT_GT(daemon.pid(), 0);
    ASSERT_TRUE(daemon.wait_ready());
    std::unique_ptr<core::DecisionStream> stream = backend.open(test_stream_info());

    // A stopped daemon cannot answer, so the decision below is still
    // waiting (and ticking) when the SIGKILL lands. The request goes out
    // only once the whole group has stopped: SIGSTOP wakes one thread,
    // and a connection thread that has not stopped yet could still answer.
    ASSERT_EQ(kill(daemon.pid(), SIGSTOP), 0);
    ASSERT_TRUE(daemon.wait_stopped()) << "vafsd did not stop";
    bool threw = false;
    std::chrono::steady_clock::time_point failed_at;
    std::thread waiter([&] {
      try {
        stream->decide(sample_request(0));
      } catch (const core::SessionError&) {
        threw = true;
      }
      failed_at = std::chrono::steady_clock::now();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(3 * serve::kTickMs));
    const auto killed_at = std::chrono::steady_clock::now();
    ASSERT_EQ(kill(daemon.pid(), SIGKILL), 0);
    waiter.join();
    EXPECT_TRUE(threw);
    EXPECT_LE(failed_at - killed_at, std::chrono::milliseconds(2 * serve::kTickMs));
    ASSERT_NE(daemon.wait_exit(), -1);
  }

  VafsdProcess daemon2(socket);
  ASSERT_GT(daemon2.pid(), 0);
  ASSERT_TRUE(daemon2.wait_ready());
  std::unique_ptr<core::DecisionStream> stream = backend.open(test_stream_info());
  EXPECT_EQ(backend.connections_opened(), 2u);
  core::DecisionCore local(test_stream_info().config, test_stream_info().geometry);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const core::DecisionRequest req = sample_request(i);
    EXPECT_EQ(expected_decision(0, stream->decide(req)), expected_decision(0, local.decide(req)));
  }
  stream.reset();

  ASSERT_EQ(kill(daemon2.pid(), SIGTERM), 0);
  const int status = daemon2.wait_exit();
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// Stream opens whose configs the decision core cannot run (window 0 used
// to crash vafsd with SIGSEGV, window 2^40 with bad_alloc): each is
// refused with kBadConfig, and the daemon — the same connection included —
// keeps serving.
TEST(VafsdLifecycle, HostileHellosAreRefusedAndTheDaemonServesOn) {
  const std::string socket = unique_socket_path("hostile");
  VafsdProcess daemon(socket);
  ASSERT_GT(daemon.pid(), 0);
  ASSERT_TRUE(daemon.wait_ready());

  serve::ServeConnection conn(socket);
  const auto hostile = [](void (*mutate)(core::VafsConfig&)) {
    core::DecisionStreamInfo info = test_stream_info();
    mutate(info.config);
    return info;
  };
  const std::vector<core::DecisionStreamInfo> configs = {
      hostile([](core::VafsConfig& c) { c.predictor.window = 0; }),
      hostile([](core::VafsConfig& c) { c.predictor.window = std::size_t{1} << 40; }),
      hostile([](core::VafsConfig& c) {
        c.safety_margin = std::numeric_limits<double>::quiet_NaN();
      }),
      hostile([](core::VafsConfig& c) {
        c.default_throughput_mbps = std::numeric_limits<double>::infinity();
      }),
  };
  for (const auto& info : configs) {
    try {
      conn.open_stream(info);
      ADD_FAILURE() << "hostile config accepted";
    } catch (const core::SessionError& e) {
      EXPECT_NE(std::string(e.what()).find("bad_config"), std::string::npos) << e.what();
    }
    EXPECT_FALSE(conn.broken());
  }
  EXPECT_TRUE(conn.ping());
  const std::uint64_t stream = conn.open_stream(test_stream_info());
  core::DecisionCore local(test_stream_info().config, test_stream_info().geometry);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const core::DecisionRequest req = sample_request(i);
    EXPECT_EQ(expected_decision(stream, conn.decide(stream, req)),
              expected_decision(stream, local.decide(req)));
  }
  EXPECT_EQ(waitpid(daemon.pid(), nullptr, WNOHANG), 0) << "vafsd exited";

  ASSERT_EQ(kill(daemon.pid(), SIGTERM), 0);
  const int status = daemon.wait_exit();
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// Unknown flags and a missing --socket are usage errors (exit 2), so a
// mis-deployed daemon fails loudly instead of binding a default path.
TEST(VafsdLifecycle, BadUsageExitsTwo) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Redirect stderr away from the test log.
    execl(VAFS_VAFSD_PATH, "vafsd", "--definitely-not-a-flag",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

}  // namespace
}  // namespace vafs
