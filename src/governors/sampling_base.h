// Shared machinery for sampling governors: a periodic timer plus the
// windowed-load computation (busy fraction since the previous sample) that
// ondemand-family governors are built on.
#pragma once

#include "cpu/cpufreq_policy.h"
#include "cpu/governor.h"
#include "simcore/simulator.h"

namespace vafs::governors {

class SamplingGovernorBase : public cpu::Governor {
 public:
  void start(cpu::CpufreqPolicy& policy) override;
  void stop() override;

 protected:
  /// Per-governor sampling period (read each re-arm, so tunable changes
  /// take effect at the next sample).
  virtual sim::SimTime sampling_period() const = 0;

  /// Called every sampling period while attached.
  virtual void on_sample() = 0;

  /// Hook for initial frequency choice; default leaves the frequency alone.
  virtual void on_start() {}

  /// Busy fraction of wall time since the previous call (or since start).
  /// Matches what the kernel derives from idle-time deltas. Returns 0 for
  /// an empty window.
  double window_load();

  cpu::CpufreqPolicy* policy() { return policy_; }

  /// Parses a microsecond tunable; UINT64_MAX on failure, and also when
  /// now() plus the value does not stay below SimTime::max() (a larger
  /// value would wrap to a time before now()).
  std::uint64_t parse_us(std::string_view text) const;

  /// Cancels and re-arms the timer (used after tunable writes that change
  /// the period).
  void rearm();

 private:
  void arm_next();
  /// Timer tick: runs on_sample(), bracketing it with a trace record when a
  /// tracer is attached to the policy.
  void sample();

  cpu::CpufreqPolicy* policy_ = nullptr;
  sim::EventHandle timer_;
  sim::SimTime last_busy_ = sim::SimTime::zero();
  sim::SimTime last_wall_ = sim::SimTime::zero();
};

/// Parses an unsigned decimal tunable; returns UINT64_MAX on failure.
std::uint64_t parse_u64(std::string_view text);

}  // namespace vafs::governors
