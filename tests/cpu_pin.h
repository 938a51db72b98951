// CPU placement helpers for tests that need two threads on one CPU or on
// two: the calling thread's allowed CPUs, and a scoped pin of the calling
// thread (threads it starts meanwhile inherit the pin).
#pragma once

#include <sched.h>

#include <initializer_list>
#include <vector>

namespace vafs::test {

/// The CPUs the calling thread may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread to `cpus` for its lifetime, then restores
/// the set it had before.
class PinSelf {
 public:
  explicit PinSelf(std::initializer_list<int> cpus) {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof saved_, &saved_);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    ok_ = sched_setaffinity(0, sizeof set, &set) == 0;
  }
  ~PinSelf() { sched_setaffinity(0, sizeof saved_, &saved_); }
  PinSelf(const PinSelf&) = delete;
  PinSelf& operator=(const PinSelf&) = delete;

  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

}  // namespace vafs::test
