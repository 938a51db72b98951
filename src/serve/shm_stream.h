// The decision daemon's frame carrier: two single-producer/single-consumer
// byte rings in one sealed memfd mapping per connection, woken by shared
// futexes.
//
// The Unix socket a client connects to carries no frame bytes. It is the
// rendezvous, the channel that passes the memfd (SCM_RIGHTS), and the
// liveness signal: a peer that dies closes it, which a waiting side
// notices at its next tick.
//
// Handshake: the daemon creates the memfd (MFD_CLOEXEC|MFD_ALLOW_SEALING),
// sizes it to one ShmLayout, seals it with F_SEAL_SHRINK|F_SEAL_GROW|
// F_SEAL_SEAL — so a client can neither truncate it (SIGBUS in the daemon)
// nor unseal it — writes the layout header and sends the fd with one data
// byte. The client checks the size, the seals and the header before it
// maps the memfd.
//
// Wake protocol: each ring end has a "waiting" word that is also its
// futex. A side that finds nothing to read (or no room to write) sets its
// word, re-checks the ring and only then sleeps in FUTEX_WAIT for at most
// one tick. A side that publishes an index reads the peer's word and makes
// a FUTEX_WAKE only if it is set. The publish and the read of the peer's
// word are seq_cst, as are the waiter's flag store and its re-check (the
// Dekker pattern), so a wake is never lost and never made for a peer that
// is awake.
//
// Spin, then sleep: each end publishes the CPU it writes from. Before it
// sets its waiting word, a side looks at the CPU its peer last wrote from.
// Only if that CPU is valid, in the CPU set of the thread that set this
// end up, and not the one this thread runs on now — so the peer is most
// likely running there, the rule of an adaptive mutex — does the side
// poll the ring for up to kSpinNs before it goes on to the sleep above.
// A pair that shares a CPU sleeps at once: a spin there would burn the
// time its peer needs. A spin that runs out its budget doubles how many
// of the following waits sleep at once (up to kMaxSpinSkip); one that
// succeeds resets that. So a preempted peer, or a peer that lies about
// its CPU, costs bounded CPU.
//
// Trust: the peer can write the whole mapping. Each side keeps private
// copies of the indices it owns and never reads them back; every peer
// index it reads is checked (tail - head <= kRingBytes) before use, and
// bytes are copied out of the ring into the caller's buffer before anyone
// decodes them. An impossible index breaks the stream, nothing more. The
// peer's CPU is range-checked before it indexes a CPU set; a false one
// can only cost this side spins within its back-off.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace vafs::serve {

/// A waiting side wakes at least this often to look at the stop flag and
/// at the socket's liveness.
inline constexpr int kTickMs = 50;
/// Bytes in each ring (a power of two). Larger frames stream through.
inline constexpr std::size_t kRingBytes = 16 * 1024;
inline constexpr std::uint32_t kShmMagic = 0x52534656;  // "VFSR", little-endian
inline constexpr std::uint32_t kShmVersion = 2;
/// Longest a waiting side polls its ring before it sleeps: about what the
/// sleep costs instead — a futex wake that reaches a thread asleep on
/// another CPU — so a spin never wastes much more than it can save.
inline constexpr std::int64_t kSpinNs = 10'000;
/// Most waits that sleep at once after spins that ran out their budget.
inline constexpr int kMaxSpinSkip = 64;

/// One direction's indices and waiting words. Indices count bytes ever
/// written (tail) and read (head); a byte's slot is its index modulo
/// kRingBytes. The producer's and the consumer's fields sit on separate
/// cache lines.
struct ShmRing {
  alignas(64) std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint32_t> producer_waiting{0};  // futex: producer sleeps for room
  alignas(64) std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint32_t> consumer_waiting{0};  // futex: consumer sleeps for bytes
};

/// The shared mapping: a header page, then each ring's bytes.
struct ShmLayout {
  static constexpr int kToServer = 0;  // ring index; also the daemon's end id
  static constexpr int kToClient = 1;  // ring index; also the client's end id

  std::uint32_t magic = kShmMagic;
  std::uint32_t version = kShmVersion;
  std::uint32_t ring_bytes = kRingBytes;
  /// Per end: set once that end writes no more (its peer then reads 0
  /// after draining).
  alignas(64) std::atomic<std::uint32_t> closed[2] = {};
  /// Per end: the CPU it last wrote from. A hint for the peer's spin rule
  /// and the daemon's thread placement, trusted no further than that.
  std::atomic<std::int32_t> cpu[2] = {-1, -1};
  ShmRing ring[2];
  alignas(4096) std::uint8_t data[2][kRingBytes];
};

class ShmStream {
 public:
  /// read_some results besides a byte count.
  static constexpr long kTick = -1;    // a tick passed with nothing to read
  static constexpr long kBroken = -2;  // the peer wrote an impossible index

  /// Transport calls, each written only by the stream's user.
  struct Counters {
    std::atomic<std::uint64_t> futex_waits{0};
    std::atomic<std::uint64_t> futex_wakes{0};
    /// Liveness polls of the socket, one per wait that ends with nothing
    /// to do (a tick, mostly): the only socket call after the handshake.
    std::atomic<std::uint64_t> polls{0};
    /// Waits that timed out although the peer had already published: a
    /// lost wake. Always 0 unless the wake protocol is broken.
    std::atomic<std::uint64_t> late_wakes{0};
    /// Waits that polled the ring because the peer ran on another CPU, and
    /// those of them that ran out kSpinNs and went on to sleep.
    std::atomic<std::uint64_t> spins{0};
    std::atomic<std::uint64_t> spin_timeouts{0};
  };

  /// Daemon end of the handshake on an accepted socket, which the stream
  /// takes over: creates, seals and maps the memfd and sends it. Null if
  /// any step fails (the socket is closed then).
  static std::unique_ptr<ShmStream> create(int sock);
  /// Client end: receives the daemon's memfd on `sock` (taken over),
  /// checks its size, seals and header, and maps it. Null on failure, with
  /// `*error` saying why.
  static std::unique_ptr<ShmStream> attach(int sock, const char** error);

  ~ShmStream();
  ShmStream(const ShmStream&) = delete;
  ShmStream& operator=(const ShmStream&) = delete;

  /// Writes all `len` bytes, waiting while the ring is full. False if the
  /// stream is broken or closed, the peer's socket has hung up, or `stop`
  /// is set at a tick that finds the ring still full.
  bool write_all(const std::uint8_t* data, std::size_t len,
                 const std::atomic<bool>* stop = nullptr);
  /// Copies up to `cap` (> 0) bytes into `buf`, waiting up to one tick for
  /// some. Returns the count; 0 once the peer has closed or died and every
  /// byte it wrote has been read; kTick; or kBroken.
  long read_some(std::uint8_t* buf, std::size_t cap);
  /// Half-close: this end writes no more; the peer reads 0 after draining.
  void shutdown_write();
  /// Closes this end: marks it closed, wakes the peer, hangs up the socket
  /// and unmaps. Idempotent; the counters stay readable.
  void close();

  /// The CPU the peer wrote its latest bytes from (-1 if unknown).
  int peer_cpu() const { return layout_->cpu[1 - end_].load(std::memory_order_relaxed); }
  /// True once the peer has written an impossible index.
  bool broken() const { return broken_; }
  const Counters& counters() const { return counters_; }

 private:
  ShmStream(int sock, ShmLayout* layout, int end);

  /// Wakes a peer sleeping on `word`, if it is.
  void wake(std::atomic<std::uint32_t>& word);
  /// Waits on `word` until `ready()` or a tick: spins first if the peer
  /// runs on another CPU, then sleeps. True if ready.
  template <class Ready>
  bool wait_until(std::atomic<std::uint32_t>& word, Ready ready);
  /// The spin half of wait_until; true if ready.
  template <class Ready>
  bool spin_until(Ready ready);
  /// True if the peer is closed.
  bool peer_closed() const;
  /// One liveness poll: true if the peer's socket has hung up.
  bool peer_gone();

  int sock_ = -1;
  ShmLayout* layout_ = nullptr;
  int end_ = 0;  // ShmLayout::kToServer (daemon) or kToClient
  ShmRing* in_ = nullptr;
  ShmRing* out_ = nullptr;
  const std::uint8_t* in_data_ = nullptr;
  std::uint8_t* out_data_ = nullptr;
  // Private copies of the indices this end owns.
  std::uint64_t in_head_ = 0;
  std::uint64_t out_tail_ = 0;
  bool broken_ = false;
  bool shut_ = false;  // shutdown_write() was called
  // Spin state: the CPUs the thread that set this end up may run on, the
  // waits left to sleep at once, and the current back-off.
  cpu_set_t allowed_{};
  int spin_skip_ = 0;
  int spin_backoff_ = 0;
  Counters counters_;
};

}  // namespace vafs::serve
