// The three workloads and the metrics every one of them reports.
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Every run checks its outputs
// and records problems in the Report, which turns the result line's
// "correct" to false and the exit code to 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

void run_sweep(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);
void run_fleet_workload(const Args& args, Report& report);

/// Set-up before the timed region is repeated this many times per run and
/// reported as the median.
inline constexpr int kSetupRepeats = 5;

/// Share of --seconds given to the fleet-runner pass and to the untraced
/// session pass of a traced run (the traced session pass then repeats the
/// untraced pass's tasks).
inline constexpr double kTracedFleetShare = 0.4;
inline constexpr double kTracedSessionShare = 0.25;

/// The end-to-end figures of an untraced run. Every timed stretch — a
/// set-up, a round — is bracketed by HostGauge readings, and its times are
/// scaled to the gauge's reference host by the stretch's speed factor.
struct EndToEnd {
  /// Takes the gauge's first reading: construct right before set-up.
  explicit EndToEnd(int gauge_threads = 1) : gauge(gauge_threads) { gauge.bracket(); }

  /// Adds one set-up of `seconds` host time; call right after it.
  void add_setup(double seconds);
  /// Adds one round of the timed region — sessions completed, host
  /// seconds, and the round's latency samples (`session`, `decide`; the
  /// decide() count is decide.count()); call right after it.
  void add_round(std::uint64_t round_sessions, double round_s, const Samples& session,
                 const Samples& decide);

  HostGauge gauge;
  std::uint64_t sessions = 0;  // completed in the timed region
  std::uint64_t decides = 0;
  double seconds = 0.0;  // host time of the timed region, unscaled
  /// Per round, scaled: sessions and decide() calls per second. The
  /// throughput metrics are their medians: a stretch of host noise shorter
  /// than half the run moves a few rounds, not the run's figure.
  std::vector<double> round_sessions_per_s;
  std::vector<double> round_decisions_per_s;
  std::vector<double> round_speed;            // each round's speed factor
  std::vector<double> raw_round_sessions_per_s;  // unscaled, for the printout
  /// sweep: one run_session call per sample. serve, fleet: one VAFS
  /// session per sample, from its decision stream's open to its close
  /// (run_fleet has no per-session hook). Scaled.
  Samples session_ns;
  std::string session_what;
  Samples decide_ns;  // client side, one sample per decide(); scaled
  std::vector<double> setup_s;  // scaled
  std::vector<double> raw_setup_s;
  double peak_rss_mib = 0.0;
};

void report_end_to_end(const EndToEnd& e, Report& report);

/// Serving-layer metrics; zero on workloads without a daemon.
struct ServeLayers {
  double rtt_us_mean = 0.0;
  double server_decide_us_mean = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t sessions = 0;
  std::uint64_t requests = 0;
  std::uint64_t connections = 0;
  std::uint64_t protocol_errors = 0;
};

void report_serve_layers(const ServeLayers& s, Report& report);

}  // namespace perfbench
