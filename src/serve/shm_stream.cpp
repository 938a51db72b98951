#include "serve/shm_stream.h"

#include <fcntl.h>
#include <linux/futex.h>
#include <poll.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <new>

#include "serve/stats.h"

namespace vafs::serve {
namespace {

static_assert((kRingBytes & (kRingBytes - 1)) == 0, "ring size must be a power of two");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "ring indices must be address-free atomics");
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "a waiting word must be a plain 32-bit futex word");

constexpr int kSeals = F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL;

// Shared (not _PRIVATE) futex operations: the two ends map the memfd at
// different addresses, often in different processes.
std::uint32_t* futex_word(std::atomic<std::uint32_t>& word) {
  return reinterpret_cast<std::uint32_t*>(&word);
}

/// Sleeps while `word` holds 1, for at most one tick. True if the tick
/// expired.
bool futex_wait_tick(std::atomic<std::uint32_t>& word) {
  const timespec tick{0, kTickMs * 1'000'000L};
  return syscall(SYS_futex, futex_word(word), FUTEX_WAIT, 1u, &tick, nullptr, 0) != 0 &&
         errno == ETIMEDOUT;
}

void futex_wake_one(std::atomic<std::uint32_t>& word) {
  syscall(SYS_futex, futex_word(word), FUTEX_WAKE, 1, nullptr, nullptr, 0);
}

/// One step of a polling loop: tells the core this is a spin, which hands
/// its execution resources to a sibling hyperthread meanwhile.
void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Copies `len` bytes out of a ring starting at byte index `at`.
void ring_copy_out(const std::uint8_t* ring, std::uint64_t at, std::uint8_t* dst,
                   std::size_t len) {
  const std::size_t off = static_cast<std::size_t>(at & (kRingBytes - 1));
  const std::size_t first = std::min(len, kRingBytes - off);
  std::memcpy(dst, ring + off, first);
  std::memcpy(dst + first, ring, len - first);
}

void ring_copy_in(std::uint8_t* ring, std::uint64_t at, const std::uint8_t* src,
                  std::size_t len) {
  const std::size_t off = static_cast<std::size_t>(at & (kRingBytes - 1));
  const std::size_t first = std::min(len, kRingBytes - off);
  std::memcpy(ring + off, src, first);
  std::memcpy(ring, src + first, len - first);
}

bool send_fd(int sock, int fd) {
  std::uint8_t byte = 'V';
  iovec iov{&byte, 1};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &fd, sizeof fd);
  for (;;) {
    const ssize_t n = sendmsg(sock, &msg, MSG_NOSIGNAL);
    if (n == 1) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

/// Receives the one data byte and exactly one fd; -1 on anything else.
int recv_fd(int sock) {
  std::uint8_t byte = 0;
  iovec iov{&byte, 1};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  ssize_t n = 0;
  do {
    n = recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
  } while (n < 0 && errno == EINTR);
  const cmsghdr* cmsg = n == 1 ? CMSG_FIRSTHDR(&msg) : nullptr;
  if (cmsg == nullptr || cmsg->cmsg_level != SOL_SOCKET || cmsg->cmsg_type != SCM_RIGHTS ||
      cmsg->cmsg_len != CMSG_LEN(sizeof(int))) {
    return -1;
  }
  int fd = -1;
  std::memcpy(&fd, CMSG_DATA(cmsg), sizeof fd);
  if ((msg.msg_flags & MSG_CTRUNC) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

ShmLayout* map_layout(int fd) {
  void* base = mmap(nullptr, sizeof(ShmLayout), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  return base == MAP_FAILED ? nullptr : static_cast<ShmLayout*>(base);
}

}  // namespace

ShmStream::ShmStream(int sock, ShmLayout* layout, int end)
    : sock_(sock),
      layout_(layout),
      end_(end),
      in_(&layout->ring[end]),
      out_(&layout->ring[1 - end]),
      in_data_(layout->data[end]),
      out_data_(layout->data[1 - end]) {
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) CPU_ZERO(&allowed_);
}

ShmStream::~ShmStream() { close(); }

std::unique_ptr<ShmStream> ShmStream::create(int sock) {
  const int fd = memfd_create("vafsd-rings", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  ShmLayout* layout = nullptr;
  if (fd >= 0 && ftruncate(fd, sizeof(ShmLayout)) == 0 &&
      fcntl(fd, F_ADD_SEALS, kSeals) == 0) {
    layout = map_layout(fd);
  }
  if (layout == nullptr) {
    if (fd >= 0) ::close(fd);
    ::close(sock);
    return nullptr;
  }
  new (layout) ShmLayout();
  std::unique_ptr<ShmStream> stream(new ShmStream(sock, layout, ShmLayout::kToServer));
  const bool sent = send_fd(sock, fd);
  ::close(fd);  // the mappings keep the memory alive
  if (!sent) return nullptr;
  return stream;
}

std::unique_ptr<ShmStream> ShmStream::attach(int sock, const char** error) {
  const auto fail = [&](const char* why, int fd) {
    if (fd >= 0) ::close(fd);
    ::close(sock);
    *error = why;
    return nullptr;
  };
  const int fd = recv_fd(sock);
  if (fd < 0) return fail("no ring mapping from the daemon", -1);
  struct stat st {};
  if (fstat(fd, &st) != 0 || st.st_size != static_cast<off_t>(sizeof(ShmLayout))) {
    return fail("ring mapping has the wrong size", fd);
  }
  const int seals = fcntl(fd, F_GET_SEALS);
  if (seals < 0 || (seals & kSeals) != kSeals) return fail("ring mapping is not sealed", fd);
  ShmLayout* layout = map_layout(fd);
  ::close(fd);
  if (layout == nullptr) return fail("cannot map the ring mapping", -1);
  if (layout->magic != kShmMagic || layout->version != kShmVersion ||
      layout->ring_bytes != kRingBytes) {
    munmap(layout, sizeof(ShmLayout));
    return fail("ring mapping has an unknown layout", -1);
  }
  return std::unique_ptr<ShmStream>(new ShmStream(sock, layout, ShmLayout::kToClient));
}

void ShmStream::close() {
  if (layout_ == nullptr) return;
  layout_->closed[end_].store(1, std::memory_order_seq_cst);
  ::close(sock_);
  sock_ = -1;
  // The peer may sleep for bytes from this end or for room in its ring.
  wake(out_->consumer_waiting);
  wake(in_->producer_waiting);
  munmap(layout_, sizeof(ShmLayout));
  layout_ = nullptr;
  in_ = out_ = nullptr;
  in_data_ = nullptr;
  out_data_ = nullptr;
}

void ShmStream::shutdown_write() {
  if (layout_ == nullptr) return;
  shut_ = true;
  layout_->closed[end_].store(1, std::memory_order_seq_cst);
  wake(out_->consumer_waiting);
}

void ShmStream::wake(std::atomic<std::uint32_t>& word) {
  // The seq_cst load pairs with the sleeper's seq_cst flag store; the
  // exchange makes one wake per sleep even if several publishes see it.
  if (word.load(std::memory_order_seq_cst) != 0 &&
      word.exchange(0, std::memory_order_seq_cst) != 0) {
    bump(counters_.futex_wakes);
    futex_wake_one(word);
  }
}

template <class Ready>
bool ShmStream::spin_until(Ready ready) {
  if (spin_skip_ > 0) {
    --spin_skip_;
    return false;
  }
  // The peer's CPU comes from shared memory: range-check it before it
  // indexes a CPU set.
  const int peer = peer_cpu();
  if (peer < 0 || peer >= CPU_SETSIZE || !CPU_ISSET(peer, &allowed_) || peer == sched_getcpu()) {
    return false;
  }

  bump(counters_.spins);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(kSpinNs);
  do {
    if (ready()) {
      spin_backoff_ = 0;
      return true;
    }
    cpu_relax();
  } while (std::chrono::steady_clock::now() < deadline);
  bump(counters_.spin_timeouts);
  spin_backoff_ = std::clamp(spin_backoff_ * 2, 1, kMaxSpinSkip);
  spin_skip_ = spin_backoff_;
  return false;
}

template <class Ready>
bool ShmStream::wait_until(std::atomic<std::uint32_t>& word, Ready ready) {
  if (spin_until(ready)) return true;
  word.store(1, std::memory_order_seq_cst);
  if (ready()) {
    word.store(0, std::memory_order_relaxed);
    return true;
  }
  bump(counters_.futex_waits);
  const bool expired = futex_wait_tick(word);
  // Still set after a timeout means no waker saw this sleep.
  const bool unwoken = word.exchange(0, std::memory_order_seq_cst) != 0;
  if (ready()) {
    if (expired && unwoken) bump(counters_.late_wakes);
    return true;
  }
  return false;
}

bool ShmStream::peer_closed() const {
  return layout_->closed[1 - end_].load(std::memory_order_seq_cst) != 0;
}

bool ShmStream::peer_gone() {
  bump(counters_.polls);
  pollfd pfd{sock_, POLLRDHUP, 0};
  return poll(&pfd, 1, 0) > 0 && (pfd.revents & (POLLHUP | POLLRDHUP | POLLERR)) != 0;
}

bool ShmStream::write_all(const std::uint8_t* data, std::size_t len,
                          const std::atomic<bool>* stop) {
  if (layout_ == nullptr || broken_ || shut_) return false;
  while (len > 0) {
    const std::uint64_t used = out_tail_ - out_->head.load(std::memory_order_seq_cst);
    if (used > kRingBytes) {
      broken_ = true;
      return false;
    }
    if (used == kRingBytes) {
      const bool room = wait_until(out_->producer_waiting, [&] {
        return out_tail_ - out_->head.load(std::memory_order_seq_cst) != kRingBytes;
      });
      if (!room && (peer_gone() || (stop != nullptr && stop->load(std::memory_order_acquire)))) {
        return false;
      }
      continue;
    }
    const std::size_t n = std::min<std::size_t>(len, kRingBytes - used);
    ring_copy_in(out_data_, out_tail_, data, n);
    layout_->cpu[end_].store(sched_getcpu(), std::memory_order_relaxed);
    out_tail_ += n;
    out_->tail.store(out_tail_, std::memory_order_seq_cst);
    wake(out_->consumer_waiting);
    data += n;
    len -= n;
  }
  return true;
}

long ShmStream::read_some(std::uint8_t* buf, std::size_t cap) {
  if (layout_ == nullptr) return 0;
  if (broken_) return kBroken;
  for (;;) {
    const std::uint64_t avail = in_->tail.load(std::memory_order_seq_cst) - in_head_;
    if (avail > kRingBytes) {
      broken_ = true;
      return kBroken;
    }
    if (avail > 0) {
      const std::size_t n = std::min<std::size_t>(cap, avail);
      ring_copy_out(in_data_, in_head_, buf, n);
      in_head_ += n;
      in_->head.store(in_head_, std::memory_order_seq_cst);
      wake(in_->producer_waiting);
      return static_cast<long>(n);
    }
    if (peer_closed()) {
      // The close was published after the peer's last bytes: look again.
      if (in_->tail.load(std::memory_order_seq_cst) == in_head_) return 0;
      continue;
    }
    const bool ready = wait_until(in_->consumer_waiting, [&] {
      return in_->tail.load(std::memory_order_seq_cst) != in_head_ || peer_closed();
    });
    if (!ready) return peer_gone() ? 0 : kTick;
  }
}

}  // namespace vafs::serve
