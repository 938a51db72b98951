#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <map>

namespace vafs::serve {
namespace {

// Every reply fits; a larger one (none exists today) grows the buffer.
constexpr std::size_t kInitialRxBytes = 4096;

[[noreturn]] void throw_transport(const char* what) {
  throw core::SessionError(std::string("serve: ") + what);
}

}  // namespace

ServeConnection::ServeConnection(const std::string& socket_path) : rx_(kInitialRxBytes) {
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_transport("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    close(fd);
    throw_transport("socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    throw_transport("connect failed (daemon not running?)");
  }
  const char* error = nullptr;
  stream_ = ShmStream::attach(fd, &error);
  if (!stream_) throw_transport(error);
}

void ServeConnection::fail(const char* what) {
  broken_ = true;
  throw_transport(what);
}

bool ServeConnection::send_frame(MsgType type, std::uint64_t stream_id) {
  tx_.clear();
  encode_frame(tx_, type, stream_id, body_);
  return stream_->write_all(tx_.data(), tx_.size());
}

ServeConnection::Reply ServeConnection::round_trip(MsgType type, std::uint64_t stream_id) {
  if (broken_) throw_transport("connection is broken");
  if (!send_frame(type, stream_id)) fail("connection lost on send");

  // One read normally holds the whole reply; the header, once in, says
  // how many bytes are still owed. A tick only means the daemon is slow:
  // read_some has already checked that it is alive.
  FrameHeader header;
  std::size_t got = 0;
  std::size_t need = kWireHeaderSize;
  while (got < need) {
    const long n = stream_->read_some(rx_.data() + got, rx_.size() - got);
    if (n == ShmStream::kTick) continue;
    if (n <= 0) fail("connection lost awaiting reply");
    const bool had_header = got >= kWireHeaderSize;
    got += static_cast<std::size_t>(n);
    if (!had_header && got >= kWireHeaderSize) {
      if (decode_header(rx_.data(), header) != WireError::kNone) {
        fail("malformed reply header");
      }
      need = kWireHeaderSize + header.payload_len;
      if (need > rx_.size()) rx_.resize(need);
    }
  }
  // Every request is answered by exactly one frame: more bytes mean the
  // stream is out of step, and later replies would be misattributed.
  if (got > need) fail("unexpected bytes after the reply");
  const std::uint8_t* payload = rx_.data() + kWireHeaderSize;
  if (verify_payload(header, payload, header.payload_len) != WireError::kNone) {
    fail("reply checksum mismatch");
  }
  return {header.type, payload, header.payload_len};
}

std::uint64_t ServeConnection::open_stream(const core::DecisionStreamInfo& info) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_stream_id_++;
  body_.clear();
  encode_stream_info(body_, info);
  const Reply reply = round_trip(MsgType::kHello, id);
  if (reply.type == MsgType::kError) {
    WireError code = WireError::kNone;
    decode_error(reply.payload, reply.size, code);
    throw core::SessionError(std::string("serve: stream rejected: ") + wire_error_name(code));
  }
  if (reply.type != MsgType::kHelloOk) throw_transport("unexpected reply to hello");
  return id;
}

core::DecisionResponse ServeConnection::decide(std::uint64_t stream_id,
                                               const core::DecisionRequest& req) {
  std::lock_guard<std::mutex> lock(mutex_);
  body_.clear();
  encode_request(body_, req);
  const Reply reply = round_trip(MsgType::kDecide, stream_id);
  if (reply.type == MsgType::kError) {
    WireError code = WireError::kNone;
    decode_error(reply.payload, reply.size, code);
    throw core::SessionError(std::string("serve: decide failed: ") + wire_error_name(code));
  }
  if (reply.type != MsgType::kDecision) throw_transport("unexpected reply to decide");
  core::DecisionResponse resp;
  if (!decode_response(reply.payload, reply.size, resp)) fail("malformed decision payload");
  return resp;
}

void ServeConnection::close_stream(std::uint64_t stream_id) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  if (broken_) return;
  body_.clear();
  if (!send_frame(MsgType::kClose, stream_id)) broken_ = true;
}

bool ServeConnection::ping() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    body_.clear();
    return round_trip(MsgType::kPing, 0).type == MsgType::kPong;
  } catch (const core::SessionError&) {
    return false;
  }
}

std::shared_ptr<ServeConnection> SocketBackend::thread_connection() {
  // One connection per (backend, thread). Keyed by a process-unique
  // backend id, not the pointer, so a recycled address never resurrects a
  // connection to an older daemon.
  thread_local std::map<std::uint64_t, std::shared_ptr<ServeConnection>> per_thread;
  auto& slot = per_thread[id_];
  if (!slot || slot->broken()) slot = nullptr;
  if (!slot) {
    slot = std::make_shared<ServeConnection>(socket_path_);
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
  return slot;
}

std::unique_ptr<core::DecisionStream> SocketBackend::open(
    const core::DecisionStreamInfo& info) {
  std::shared_ptr<ServeConnection> conn = thread_connection();
  const std::uint64_t id = conn->open_stream(info);
  return std::make_unique<RemoteDecisionStream>(std::move(conn), id);
}

namespace {
std::atomic<std::uint64_t> g_backend_ids{1};
}

std::uint64_t SocketBackend::allocate_id() {
  return g_backend_ids.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace vafs::serve
