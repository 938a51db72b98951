// Connection-thread placement for the decision daemon (server.cpp). A
// socket write wakes its reader with the scheduler's "sync" hint, which
// keeps a client and its connection thread on one CPU; a FUTEX_WAKE has no such hint, so the woken thread often
// lands on another CPU and each round trip then pays two cross-CPU wakes.
// The client writes the CPU it runs on into the ring header with every
// request, and the connection thread moves itself there once that CPU
// has differed from its own for kFollowAfter requests in a row that the
// thread slept for. A request that arrived while the thread spun ends the
// streak: a pair that stays awake on two CPUs is the fast layout, not one
// to undo. A
// move after which the two shared a CPU for fewer than kMoveHolds
// requests (one CPU idle: the scheduler keeps pulling one of the pair over
// to it) doubles the streak needed, up to kFollowAfterMax, so a pair that
// will not stay together is left apart instead of chased.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdint>

namespace vafs::serve {

inline constexpr int kFollowAfter = 4;
inline constexpr int kFollowAfterMax = 4096;
inline constexpr std::uint64_t kMoveHolds = 256;

/// One connection thread's follower; used only by that thread.
class CpuFollower {
 public:
  CpuFollower() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) CPU_ZERO(&allowed_);
  }

  /// One request, written from `client_cpu` (a hint from shared memory:
  /// anything outside this thread's CPU set is ignored), which the thread
  /// slept for or not. True if the thread moved.
  bool on_request(int client_cpu, bool slept) {
    if (client_cpu < 0 || client_cpu >= CPU_SETSIZE || !CPU_ISSET(client_cpu, &allowed_)) {
      streak_ = 0;
      return false;
    }
    if (client_cpu == sched_getcpu()) {
      streak_ = 0;
      ++held_;
      return false;
    }
    if (!slept) {
      streak_ = 0;
      return false;
    }
    if (++streak_ < need_) return false;
    streak_ = 0;
    need_ = held_ < kMoveHolds ? std::min(need_ * 2, kFollowAfterMax) : kFollowAfter;
    held_ = 0;
    // Pinning to the client's CPU migrates this thread there at once;
    // restoring the full set leaves it there without keeping it pinned.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(client_cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) return false;
    sched_setaffinity(0, sizeof allowed_, &allowed_);
    return true;
  }

 private:
  cpu_set_t allowed_;
  int streak_ = 0;
  int need_ = kFollowAfter;
  std::uint64_t held_ = 0;  // requests on the client's CPU since the last move
};

}  // namespace vafs::serve
