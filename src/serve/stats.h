// Serving-side metrics: a lock-free log-linear latency histogram and the
// server's aggregate counters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace vafs::serve {

/// Increments a counter that only one thread writes: a plain load and
/// store instead of a locked read-modify-write. Readers on other threads
/// see a recent value.
inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

/// Log-linear histogram over nanosecond durations: 20 power-of-two decades
/// from 1 µs to ~1 s, 8 linear sub-bins each, plus an underflow and an
/// overflow bin. Relative error of a percentile estimate is bounded by the
/// sub-bin width (≤ 12.5%). All counters are relaxed atomics so concurrent
/// connection threads record without coordination and a snapshot reader
/// never races.
class LatencyHistogram {
 public:
  static constexpr std::size_t kDecades = 20;   // 2^0 .. 2^19 µs
  static constexpr std::size_t kSubBins = 8;
  static constexpr std::size_t kBins = kDecades * kSubBins + 2;  // +under/overflow

  void record_ns(std::uint64_t ns) {
    bins_[bin_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean_us() const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e3 /
           static_cast<double>(n);
  }

  /// Accumulates another histogram's counts into this one.
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBins; ++i) {
      const std::uint64_t v = other.bins_[i].load(std::memory_order_relaxed);
      if (v != 0) bins_[i].fetch_add(v, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    sum_ns_.fetch_add(other.sum_ns_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
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
    const std::uint64_t us = ns / 1000;
    if (us < 1) return 0;                              // underflow: sub-µs
    std::size_t decade = 0;
    std::uint64_t v = us;
    while (v >= 2 && decade + 1 < kDecades) {
      v >>= 1;
      ++decade;
    }
    if (us >> decade >= 2) return kBins - 1;           // overflow: >= 2^20 µs
    const std::uint64_t base = std::uint64_t{1} << decade;
    const std::uint64_t sub = (us - base) * kSubBins / base;  // 0..7
    return 1 + decade * kSubBins + static_cast<std::size_t>(sub);
  }

  static double bin_floor_us(std::size_t bin) {
    if (bin == 0) return 0.0;
    if (bin == kBins - 1) return static_cast<double>(std::uint64_t{1} << kDecades);
    const std::size_t decade = (bin - 1) / kSubBins;
    const std::size_t sub = (bin - 1) % kSubBins;
    const double base = static_cast<double>(std::uint64_t{1} << decade);
    return base + base * static_cast<double>(sub) / static_cast<double>(kSubBins);
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
  /// Socket calls on connection threads: reads that returned bytes or EOF
  /// (receive-timeout ticks excluded) and sends. One of each per decision
  /// in steady state.
  std::uint64_t socket_reads = 0;
  std::uint64_t socket_writes = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_mean_us = 0.0;
};

}  // namespace vafs::serve
