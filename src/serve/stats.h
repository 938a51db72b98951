// Serving-side metrics: a single-writer log-linear latency histogram and
// the server's aggregate counters.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace vafs::serve {

/// Increments a counter that only one thread writes: a plain load and
/// store instead of a locked read-modify-write. Readers on other threads
/// see a recent value.
inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

/// Log-linear histogram over nanosecond durations: 31 power-of-two decades
/// from 1 ns to ~1.07 s, 8 linear sub-bins each, plus a zero bin and an
/// overflow bin. A percentile is the lower edge of its bin, so it reads at
/// most one sub-bin (12.5%) low. Single writer: record_ns() and merge()
/// update the counters with bump(), so one thread at a time may write a
/// histogram; any thread may read it meanwhile.
class LatencyHistogram {
 public:
  static constexpr std::size_t kDecades = 31;  // 2^0 .. 2^30 ns
  static constexpr std::size_t kSubBins = 8;
  static constexpr std::size_t kBins = kDecades * kSubBins + 2;  // +zero/overflow

  void record_ns(std::uint64_t ns) {
    bump(bins_[bin_of(ns)]);
    bump(count_);
    bump(sum_ns_, ns);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean_us() const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e3 /
           static_cast<double>(n);
  }

  /// Accumulates another histogram's counts into this one.
  /// The count added is the sum of the bins read, so a snapshot of a
  /// histogram that is still being written stays self-consistent.
  void merge(const LatencyHistogram& other) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kBins; ++i) {
      const std::uint64_t v = other.bins_[i].load(std::memory_order_relaxed);
      if (v != 0) bump(bins_[i], v);
      n += v;
    }
    bump(count_, n);
    bump(sum_ns_, other.sum_ns_.load(std::memory_order_relaxed));
  }

  /// The p-quantile (p in [0,1]) in microseconds — the lower edge of the
  /// bin containing the p-th sample; 0 with no samples.
  double percentile_us(double p) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(p * static_cast<double>(n - 1)) + 1;
    for (std::size_t i = 0; i < kBins; ++i) {
      const std::uint64_t v = bins_[i].load(std::memory_order_relaxed);
      if (v >= rank) return bin_floor_us(i);
      rank -= v;
    }
    return bin_floor_us(kBins - 1);
  }

 private:
  static std::size_t bin_of(std::uint64_t ns) {
    if (ns == 0) return 0;
    const auto decade = static_cast<std::size_t>(std::bit_width(ns) - 1);  // floor(log2)
    if (decade >= kDecades) return kBins - 1;  // overflow: >= 2^31 ns
    const std::uint64_t sub = ((ns - (std::uint64_t{1} << decade)) * kSubBins) >> decade;
    return 1 + decade * kSubBins + static_cast<std::size_t>(sub);
  }

  static double bin_floor_us(std::size_t bin) {
    if (bin == 0) return 0.0;
    if (bin == kBins - 1) return static_cast<double>(std::uint64_t{1} << kDecades) / 1e3;
    const std::size_t decade = (bin - 1) / kSubBins;
    const std::size_t sub = (bin - 1) % kSubBins;
    const double base = static_cast<double>(std::uint64_t{1} << decade);
    return (base + base * static_cast<double>(sub) / static_cast<double>(kSubBins)) / 1e3;
  }

  std::atomic<std::uint64_t> bins_[kBins] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Aggregate server counters (snapshot copies are plain values).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::uint64_t requests = 0;
  std::uint64_t protocol_errors = 0;
  /// Futex calls on connection threads: waits for a request and wakes of
  /// a client waiting for its reply. At most one of each per decision in
  /// steady state.
  std::uint64_t futex_waits = 0;
  std::uint64_t futex_wakes = 0;
  /// Liveness polls of client sockets, one per wait that ended with
  /// nothing to read (an idle tick, mostly). 0 while requests keep coming.
  std::uint64_t socket_polls = 0;
  /// Waits on connection threads that polled the ring first because the
  /// client ran on another CPU, and those that ran out the spin budget and
  /// slept. Both 0 while every client shares a CPU with its thread.
  std::uint64_t spins = 0;
  std::uint64_t spin_timeouts = 0;
  /// Times a connection thread moved itself to its client's CPU (two
  /// sched_setaffinity calls each). 0 while client and thread stay put.
  std::uint64_t thread_moves = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_mean_us = 0.0;
};

}  // namespace vafs::serve
