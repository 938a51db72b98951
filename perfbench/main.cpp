// perfbench: the repository benchmark program.
//
//   perfbench --workload sweep|serve|fleet --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Prints every metric by name with its unit and sample count, then one JSON
// result line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics. Exits 1
// when any output check fails, 2 on a usage error. Run it from the checkout
// root (perfbench/run.py builds it and does so); see perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string blocks(const Samples& s) {
  return s.blocks() >= Samples::kMinBlocks
             ? ", interquartile mean of " + std::to_string(s.blocks()) + " block maxima"
             : ", all samples";
}

}  // namespace

void EndToEnd::add_setup(double setup_seconds) {
  const double speed = gauge.bracket();
  setup_s.push_back(setup_seconds / speed);
  raw_setup_s.push_back(setup_seconds);
}

void EndToEnd::add_round(std::uint64_t round_sessions, double round_s, const Samples& session,
                         const Samples& decide) {
  const double speed = gauge.bracket();
  sessions += round_sessions;
  decides += decide.count();
  seconds += round_s;
  const double rate = per(static_cast<double>(round_sessions), round_s);
  round_sessions_per_s.push_back(rate * speed);
  round_decisions_per_s.push_back(per(static_cast<double>(decide.count()), round_s) * speed);
  round_speed.push_back(speed);
  raw_round_sessions_per_s.push_back(rate);
  session_ns.merge_scaled(session, 1.0 / speed);
  decide_ns.merge_scaled(decide, 1.0 / speed);
}

void report_end_to_end(const EndToEnd& e, Report& report) {
  const std::string rounds =
      "median of " + std::to_string(e.round_sessions_per_s.size()) +
      " rounds, host speed factor " + std::to_string(median(e.round_speed)) + "; ";
  report.add("sessions_per_s", median(e.round_sessions_per_s), "sessions/s",
             rounds + "unscaled " + std::to_string(median(e.raw_round_sessions_per_s)) +
                 "; " + std::to_string(e.sessions) + " sessions in " +
                 std::to_string(e.seconds) + " s");
  const std::string sessions = "n=" + std::to_string(e.session_ns.count()) + " " + e.session_what;
  report.add("session_ms_p50", e.session_ns.percentile_ns(0.50) / 1e6, "ms", sessions);
  report.add("session_ms_p99", e.session_ns.p99_ns() / 1e6, "ms", sessions + blocks(e.session_ns));
  const std::string decides = "n=" + std::to_string(e.decide_ns.count()) + " decides";
  report.add("decisions_per_s", median(e.round_decisions_per_s), "1/s",
             rounds + std::to_string(e.decides) + " decides");
  report.add("decision_rtt_us_p50", e.decide_ns.percentile_ns(0.50) / 1e3, "us", decides);
  report.add("decision_rtt_us_p99", e.decide_ns.p99_ns() / 1e3, "us",
             decides + blocks(e.decide_ns));
  report.add("peak_rss_mib", e.peak_rss_mib, "MiB", "VmHWM after the timed region");
  report.add("setup_s", median(e.setup_s), "s",
             "median of " + std::to_string(e.setup_s.size()) + " set-ups; unscaled " +
                 std::to_string(median(e.raw_setup_s)));
  // failed_frac = failed / attempted is in the result line's own fields;
  // the metric is its complement, so that it is never zero.
  const double attempted = static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
  report.add("completed_frac", 1.0 - static_cast<double>(report.failed) / attempted, "ratio",
             "failed_frac=" + std::to_string(static_cast<double>(report.failed) / attempted) +
                 " (" + std::to_string(report.failed) + "/" +
                 std::to_string(report.attempted) + ")");
}

void report_serve_layers(const ServeLayers& s, Report& report) {
  const double sessions = static_cast<double>(s.sessions);
  report.add("serve.rtt_us_mean", s.rtt_us_mean, "us",
             "n=" + std::to_string(s.decisions) + " decides");
  report.add("serve.server_decide_us_mean", s.server_decide_us_mean, "us");
  report.add("serve.transport_us_mean", s.rtt_us_mean - s.server_decide_us_mean, "us");
  report.add("serve.decisions_per_session",
             sessions > 0 ? static_cast<double>(s.decisions) / sessions : 0.0, "count");
  report.add("serve.requests", static_cast<double>(s.requests), "count");
  report.add("serve.connections", static_cast<double>(s.connections), "count");
  report.add("serve.protocol_errors", static_cast<double>(s.protocol_errors), "count");
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sweep|serve|fleet --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_trace) return usage("--seed and --trace are required");
  if (!perfbench::make_dirs(args.work_dir)) return usage("cannot create the work directory");

  perfbench::Report report;
  try {
    if (args.workload == "sweep") {
      perfbench::run_sweep(args, report);
    } else if (args.workload == "serve") {
      perfbench::run_serve(args, report);
    } else if (args.workload == "fleet") {
      perfbench::run_fleet_workload(args, report);
    } else {
      return usage("--workload must be sweep, serve or fleet");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct ? 0 : 1;
}
