// Randomized stress tests: throw seeded-random operation sequences and
// configuration draws at the substrates and assert the conservation
// invariants that must survive *any* usage, not just the scripted
// scenarios of the unit tests.
#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <atomic>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.h"
#include "cpu_pin.h"
#include "cpu/cpu_model.h"
#include "fault/plan.h"
#include "net/downloader.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/shm_stream.h"
#include "serve/wire.h"
#include "simcore/rng.h"
#include "tune/param_space.h"
#include "tune/tuner.h"

namespace vafs {
namespace {

// ------------------------------------------------------------ CPU fuzzing

class CpuRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuRandomOps, ConservationHoldsUnderRandomOperations) {
  sim::Simulator simulator;
  cpu::CpuModel cpu_model(simulator, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel());
  sim::Rng rng(GetParam());

  std::vector<cpu::CpuModel::TaskId> live_tasks;
  std::uint64_t submitted = 0, completed = 0, cancelled = 0;

  for (int op = 0; op < 400; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const double cycles = rng.uniform(1e4, 5e8);
      live_tasks.push_back(cpu_model.submit("fuzz", cycles, [&completed] { ++completed; }));
      ++submitted;
    } else if (dice < 0.6 && !live_tasks.empty()) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live_tasks.size()) - 1));
      if (cpu_model.cancel(live_tasks[idx])) ++cancelled;
      live_tasks.erase(live_tasks.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 0.75) {
      const auto& opps = cpu_model.opps();
      const auto pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(opps.size()) - 1));
      cpu_model.set_frequency(opps.at(pick).freq_khz);
    } else {
      simulator.run_until(simulator.now() +
                          sim::SimTime::micros(rng.uniform_int(100, 400'000)));
    }

    // Invariant: residency accounting conserves wall time at every step.
    sim::SimTime in_state;
    for (std::size_t i = 0; i < cpu_model.opps().size(); ++i) {
      in_state += cpu_model.time_in_state(i);
    }
    ASSERT_EQ(in_state, simulator.now());
    ASSERT_EQ(cpu_model.total_busy_time() + cpu_model.total_idle_time(), simulator.now());
  }

  // Drain: every surviving task completes exactly once.
  simulator.run();
  EXPECT_EQ(completed + cancelled, submitted);
  EXPECT_FALSE(cpu_model.busy());

  // Energy must be consistent with an independent residency-based recompute.
  double expect_mj = 0.0;
  for (std::size_t i = 0; i < cpu_model.opps().size(); ++i) {
    expect_mj += cpu_model.busy_time_in_state(i).as_seconds_f() *
                 cpu_model.power_model().busy_mw(cpu_model.opps().at(i));
  }
  expect_mj += cpu_model.total_idle_time().as_seconds_f() * cpu_model.power_model().idle_mw();
  expect_mj += static_cast<double>(cpu_model.transition_count()) *
               cpu_model.power_model().transition_uj() / 1000.0;
  EXPECT_NEAR(cpu_model.energy_mj(), expect_mj, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuRandomOps,
                         ::testing::Values(1u, 22u, 333u, 4444u, 55555u, 666666u));

// ----------------------------------------------------- Downloader fuzzing

class DownloaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DownloaderFuzz, RandomConcurrentFetchesAllCompleteExactly) {
  sim::Simulator simulator;
  net::RadioModel radio(simulator, net::RadioParams::lte());
  net::MarkovBandwidth::Params params;
  params.mean_mbps = 10;
  params.min_mbps = 0.5;
  params.max_mbps = 40;
  sim::Rng rng(GetParam());
  net::MarkovBandwidth bandwidth(params, rng.fork(0));
  cpu::CpuModel cpu_model(simulator, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel());
  cpu_model.set_frequency(2'100'000);
  net::Downloader downloader(simulator, radio, bandwidth, &cpu_model);

  const int kFetches = 60;
  std::uint64_t expected_bytes = 0;
  int completions = 0;
  for (int i = 0; i < kFetches; ++i) {
    const auto bytes = static_cast<std::uint64_t>(rng.uniform(1e3, 3e6));
    expected_bytes += bytes;
    const auto at = sim::SimTime::micros(rng.uniform_int(0, 60'000'000));
    simulator.at(at, [&downloader, &simulator, bytes, &completions] {
      downloader.fetch(bytes, [&completions, &simulator, bytes](const net::FetchResult& r) {
        ++completions;
        EXPECT_EQ(r.bytes, bytes);
        EXPECT_GE(r.first_byte, r.started);
        EXPECT_GE(r.completed, r.first_byte);
        EXPECT_LE(r.completed, simulator.now());
      });
    });
  }

  simulator.run();
  EXPECT_EQ(completions, kFetches);
  EXPECT_EQ(downloader.total_bytes_fetched(), expected_bytes);
  EXPECT_EQ(downloader.inflight(), 0u);
  EXPECT_EQ(radio.active_transfers(), 0u);
  EXPECT_EQ(radio.state(), net::RadioState::kIdle);  // tail fully drained
}

INSTANTIATE_TEST_SUITE_P(Seeds, DownloaderFuzz, ::testing::Values(7u, 77u, 777u, 7777u));

// -------------------------------------------------------- Session fuzzing

class SessionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionFuzz, RandomConfigurationsSatisfyInvariants) {
  sim::Rng rng(GetParam());

  const char* governors[] = {"performance", "powersave",   "ondemand", "conservative",
                             "interactive", "schedutil",   "vafs",     "vafs-oracle"};
  core::SessionConfig config;
  config.governor = governors[rng.uniform_int(0, 7)];
  config.fixed_rep = static_cast<std::size_t>(rng.uniform_int(0, 3));
  config.abr = static_cast<core::AbrKind>(rng.uniform_int(0, 3));
  config.net = static_cast<core::NetProfile>(rng.uniform_int(0, 3));  // poor..excellent
  config.media_duration = sim::SimTime::seconds(rng.uniform_int(12, 60));
  config.segment_duration = sim::SimTime::seconds(rng.uniform_int(2, 6));
  config.big_little = rng.bernoulli(0.4);
  config.thermal_enabled = rng.bernoulli(0.3);
  config.cpuidle = static_cast<cpu::CpuidleStrategy>(rng.uniform_int(0, 2));
  config.player.live = rng.bernoulli(0.25);
  if (config.player.live) {
    config.player.startup_buffer = config.segment_duration;
    config.player.buffer_target = config.segment_duration * 3;
    config.player.rebuffer_resume = config.segment_duration;
  }
  config.seed = rng.next_u64();

  const core::SessionResult r = core::run_session(config);

  ASSERT_TRUE(r.finished) << config.governor << " rep=" << config.fixed_rep;

  // Frame conservation.
  const auto fps = 30.0;
  const auto total = static_cast<std::uint64_t>(
      std::llround(config.media_duration.as_seconds_f() * fps));
  EXPECT_EQ(r.qoe.frames_presented + r.qoe.frames_dropped, total);

  // Energy sanity.
  EXPECT_GT(r.energy.cpu_mj, 0.0);
  EXPECT_GT(r.energy.radio_mj, 0.0);
  EXPECT_GT(r.energy.total_mj(), r.energy.cpu_mj);

  // Residency is a distribution.
  double frac_sum = 0.0;
  for (const auto& [khz, frac] : r.residency) frac_sum += frac;
  EXPECT_NEAR(frac_sum, 1.0, 1e-6);

  // big.LITTLE bookkeeping is consistent. Every *presented* frame was
  // decoded on one of the clusters; when frames are dropped the session
  // can end with the decode pipeline trailing the playhead, so the decode
  // count may fall short of the frame total but never exceed it.
  if (config.big_little) {
    EXPECT_GE(r.decode_frames_big + r.decode_frames_little, r.qoe.frames_presented);
    EXPECT_LE(r.decode_frames_big + r.decode_frames_little, total);
    EXPECT_LE(r.cpu_little_mj, r.energy.cpu_mj);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzz,
                         ::testing::Range<std::uint64_t>(1000, 1032));  // 32 random configs

// ---------------------------------------------------------- Fault fuzzing

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, RandomFaultPlansNeverWedgeAndStayDeterministic) {
  sim::Rng rng(GetParam());

  core::SessionConfig config;
  config.governor = rng.bernoulli(0.5) ? "vafs" : "ondemand";
  config.fixed_rep = static_cast<std::size_t>(rng.uniform_int(0, 2));
  config.net = static_cast<core::NetProfile>(rng.uniform_int(0, 2));  // poor..good
  config.media_duration = sim::SimTime::seconds(rng.uniform_int(20, 45));
  config.seed = rng.next_u64();
  // Degraded-mode machinery always armed; outages can stall playback for a
  // while, so bound the wall clock well above the media length.
  config.downloader.attempt_timeout = sim::SimTime::seconds(rng.uniform_int(3, 8));
  config.downloader.max_attempts = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  config.vafs.watchdog.enabled = true;
  config.sim_cap = sim::SimTime::seconds(900);

  // Random fault plan: each kind independently on with a random intensity.
  if (rng.bernoulli(0.6)) {
    config.fault.outage_rate_per_min = rng.uniform(0.5, 3.0);
    config.fault.outage_mean_duration = sim::SimTime::millis(rng.uniform_int(500, 4000));
  }
  if (rng.bernoulli(0.6)) {
    config.fault.collapse_rate_per_min = rng.uniform(0.5, 3.0);
    config.fault.collapse_factor = rng.uniform(0.05, 0.5);
  }
  if (rng.bernoulli(0.5)) config.fault.fetch_failure_prob = rng.uniform(0.0, 0.15);
  if (rng.bernoulli(0.5)) config.fault.fetch_hang_prob = rng.uniform(0.0, 0.08);
  if (rng.bernoulli(0.5)) {
    config.fault.sysfs_fault_rate_per_min = rng.uniform(0.5, 4.0);
    config.fault.sysfs_fault_mean_duration = sim::SimTime::seconds(rng.uniform_int(1, 6));
  }
  if (rng.bernoulli(0.4)) {
    config.fault.decode_spike_rate_per_min = rng.uniform(0.5, 2.0);
    config.fault.decode_spike_factor = rng.uniform(1.2, 2.5);
  }
  if (rng.bernoulli(0.4)) {
    config.fault.thermal_cap_rate_per_min = rng.uniform(0.5, 2.0);
    config.fault.thermal_cap_fraction = rng.uniform(0.4, 0.9);
  }

  const core::SessionResult r = core::run_session(config);

  // Whatever the plan threw at it, the session finished (or hit the cap
  // having never wedged — finished must still be set by full playback).
  ASSERT_TRUE(r.finished) << "governor=" << config.governor;

  // Frame conservation survives faults.
  const auto total = static_cast<std::uint64_t>(
      std::llround(config.media_duration.as_seconds_f() * 30.0));
  EXPECT_EQ(r.qoe.frames_presented + r.qoe.frames_dropped, total);

  // Residency is still a distribution and energy is still positive.
  double frac_sum = 0.0;
  for (const auto& [khz, frac] : r.residency) frac_sum += frac;
  EXPECT_NEAR(frac_sum, 1.0, 1e-6);
  EXPECT_GT(r.energy.cpu_mj, 0.0);

  // Injection bookkeeping is internally consistent: every timed-out
  // attempt became either a retry or a terminal failure.
  EXPECT_LE(r.fetch_timeouts, r.qoe.fetch_retries + r.qoe.fetch_failures);
  EXPECT_LE(r.vafs_fallback_time, r.wall);
  if (config.governor != "vafs") {
    EXPECT_EQ(r.vafs_fallback_entries, 0u);
    EXPECT_EQ(r.injected_sysfs_errors, 0u);
  }

  // Determinism: the identical faulted config replays bit-identically.
  const core::SessionResult again = core::run_session(config);
  EXPECT_EQ(r.energy.cpu_mj, again.energy.cpu_mj);
  EXPECT_EQ(r.qoe.rebuffer_time, again.qoe.rebuffer_time);
  EXPECT_EQ(r.qoe.fetch_retries, again.qoe.fetch_retries);
  EXPECT_EQ(r.fault_windows, again.fault_windows);
  EXPECT_EQ(r.vafs_fallback_time, again.vafs_fallback_time);
  EXPECT_EQ(r.wall, again.wall);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Range<std::uint64_t>(9000, 9016));  // 16 random plans

// ----------------------------------------------------------- Seek fuzzing

class SeekFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeekFuzz, RandomSeeksNeverWedgeTheSession) {
  sim::Rng rng(GetParam());

  core::SessionConfig config;
  config.governor = rng.bernoulli(0.5) ? "vafs" : "ondemand";
  config.fixed_rep = static_cast<std::size_t>(rng.uniform_int(0, 2));
  config.net = core::NetProfile::kGood;
  config.media_duration = sim::SimTime::seconds(40);
  config.seed = rng.next_u64();
  // Cap forward progress: random seeks can replay content, so bound wall.
  config.sim_cap = sim::SimTime::seconds(600);

  // Schedule 3 random seeks through the hooks.
  core::SessionHooks hooks;
  const std::int64_t seek_at_s[3] = {rng.uniform_int(3, 12), rng.uniform_int(13, 22),
                                     rng.uniform_int(23, 32)};
  const std::int64_t seek_to_s[3] = {rng.uniform_int(0, 39), rng.uniform_int(0, 39),
                                     rng.uniform_int(0, 39)};
  hooks.on_ready = [&](core::SessionLive& live) {
    for (int i = 0; i < 3; ++i) {
      live.sim->at(sim::SimTime::seconds(seek_at_s[i]),
                   [player = live.player, to = seek_to_s[i]] {
                     player->seek(sim::SimTime::seconds(to));  // may be rejected; fine
                   });
    }
  };

  const core::SessionResult r = core::run_session(config, hooks);
  ASSERT_TRUE(r.finished);
  EXPECT_LE(r.qoe.seek_count, 3u);
  // Whatever happened, playback ended at the real end of the content.
  EXPECT_GT(r.qoe.frames_presented, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeekFuzz,
                         ::testing::Values(11u, 222u, 3333u, 44444u, 555555u, 6666666u, 777u,
                                           88u));

// ----------------------------------------------------- ParamSpace fuzzing

class ParamSpaceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParamSpaceFuzz, RandomSpacesValidateAndSearchInBounds) {
  sim::Rng rng(GetParam());
  const std::vector<std::string> knobs = tune::ParamSpace::knob_names();

  // Malformed dimensions must be rejected up front — inverted ranges,
  // non-finite bounds, non-positive steps on non-degenerate ranges.
  {
    tune::ParamSpace bad;
    const std::string& knob = knobs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(knobs.size()) - 1))];
    EXPECT_THROW(bad.dim(knob, 1.0, 0.0, 0.1), std::invalid_argument);
    EXPECT_THROW(bad.dim(knob, 0.0, 1.0, -rng.uniform(0.01, 1.0)), std::invalid_argument);
    EXPECT_THROW(bad.dim(knob, 0.0, std::numeric_limits<double>::quiet_NaN(), 0.1),
                 std::invalid_argument);
    EXPECT_EQ(bad.dims(), 0u);  // nothing leaked into the space
  }

  // A random well-formed space: 1-4 distinct knobs, each either a
  // degenerate single point (lo == hi, zero width) or a small grid.
  tune::ParamSpace space;
  const int dims = static_cast<int>(rng.uniform_int(1, 4));
  std::size_t next_knob = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(knobs.size()) - 1));
  for (int d = 0; d < dims; ++d) {
    const std::string& knob = knobs[next_knob];
    next_knob = (next_knob + 1) % knobs.size();  // distinct by construction
    const double lo = rng.uniform(0.0, 10.0);
    if (rng.bernoulli(0.25)) {
      space.dim(knob, lo, lo, rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.1, 1.0));
    } else {
      const double step = rng.uniform(0.05, 2.0);
      space.dim(knob, lo, lo + step * rng.uniform_int(1, 6), step);
    }
  }

  // Every candidate the tuner asks any evaluator to score stays inside
  // the grid: right arity, every index < count. values() re-checks the
  // same bounds and must never throw on tuner-generated candidates —
  // including on zero-width (single-point) dimensions.
  class BoundsAssertingEvaluator : public tune::Evaluator {
   public:
    explicit BoundsAssertingEvaluator(const tune::ParamSpace& space) : space_(space) {}
    tune::RoundResult evaluate(const tune::RoundRequest& req) override {
      tune::RoundResult out;
      EXPECT_FALSE(req.candidates.empty());
      EXPECT_FALSE(req.seeds.empty());
      for (const tune::Candidate& c : req.candidates) {
        EXPECT_EQ(c.size(), space_.dims());
        for (std::size_t d = 0; d < c.size(); ++d) EXPECT_LT(c[d], space_.def(d).count());
        const std::vector<double> vals = space_.values(c);  // throws if out of bounds
        tune::Score s;
        s.evaluated = true;
        s.feasible = true;
        for (const double v : vals) s.energy_mj += v;
        s.runs = static_cast<std::int64_t>(req.seeds.size());
        out.scores.push_back(s);
      }
      return out;
    }
    const tune::ParamSpace& space_;
  };

  BoundsAssertingEvaluator eval(space);
  tune::TuneContext ctx;
  ctx.name = "fuzz/cell";
  tune::TunerOptions opts;
  opts.search_seed = rng.next_u64();
  opts.initial_candidates = static_cast<int>(rng.uniform_int(1, 12));
  opts.eta = static_cast<int>(rng.uniform_int(2, 5));
  opts.seed_schedule = {1};
  while (opts.seed_schedule.size() < static_cast<std::size_t>(rng.uniform_int(1, 3))) {
    opts.seed_schedule.push_back(opts.seed_schedule.back() + static_cast<int>(rng.uniform_int(1, 3)));
  }
  opts.refine_passes = static_cast<int>(rng.uniform_int(0, 3));
  opts.sensitivity = rng.bernoulli(0.5);
  const tune::TuneReport report = run_tuner(space, {ctx}, opts, &eval);
  ASSERT_TRUE(report.complete()) << report.error;
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_EQ(report.cells[0].best.size(), space.dims());
  for (std::size_t d = 0; d < space.dims(); ++d) {
    EXPECT_LT(report.cells[0].best[d], space.def(d).count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParamSpaceFuzz,
                         ::testing::Range<std::uint64_t>(4000, 4024));  // 24 random spaces

// ------------------------------------------------------- Wire-protocol fuzzing
//
// Seeded-random hostile clients against a live decision server: truncated
// frames, corrupted bytes, oversized lengths, garbage, and mid-frame
// disconnects. The contract under attack: every malformed input ends in a
// clean error reply or a dropped connection — never a crash, never a hang,
// and never collateral damage to a well-behaved client on the same server.

namespace wire_fuzz {

/// A raw client with tick-bounded reads through the connection's rings: a
/// server that stops responding is a test failure, not a wedged test
/// binary.
class RawClient {
 public:
  bool connect_to(const std::string& path) {
    stream_.reset();
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return false;
    }
    const char* error = nullptr;
    stream_ = serve::ShmStream::attach(fd, &error);
    return stream_ != nullptr;
  }

  bool connected() const { return stream_ != nullptr; }

  /// Best-effort write (the server may have already dropped us).
  void send_bytes(const std::uint8_t* data, std::size_t len) {
    if (stream_) (void)stream_->write_all(data, len);
  }
  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    send_bytes(bytes.data(), bytes.size());
  }

  /// Half-close: tells the server no more bytes are coming, so a read
  /// waiting mid-frame sees the end instead of waiting forever.
  void finish_sending() {
    if (stream_) stream_->shutdown_write();
  }

  /// Reads until the server closes the connection. Returns the number of
  /// reply bytes drained, or -1 if the server neither replied nor closed
  /// within the deadline (a hang — the one unacceptable outcome).
  long drain_until_eof(int timeout_ms) {
    long total = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::uint8_t buf[512];
    while (std::chrono::steady_clock::now() < deadline) {
      const long n = stream_->read_some(buf, sizeof buf);
      if (n == serve::ShmStream::kTick) continue;
      if (n <= 0) {
        stream_.reset();
        return total;  // a drop
      }
      total += n;
    }
    return -1;
  }

  /// Reads exactly one reply frame (header + payload). Returns false on
  /// drop or timeout; *hung set when the deadline passed with the
  /// connection still open.
  bool read_frame(serve::FrameHeader* header, std::vector<std::uint8_t>* payload,
                  bool* hung, int timeout_ms) {
    *hung = false;
    std::uint8_t head[serve::kWireHeaderSize];
    if (!read_exact(head, sizeof head, timeout_ms, hung)) return false;
    if (serve::decode_header(head, *header) != serve::WireError::kNone) return false;
    payload->resize(header->payload_len);
    if (header->payload_len > 0 &&
        !read_exact(payload->data(), payload->size(), timeout_ms, hung)) {
      return false;
    }
    return true;
  }

 private:
  bool read_exact(std::uint8_t* buf, std::size_t len, int timeout_ms, bool* hung) {
    std::size_t got = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (got < len) {
      if (std::chrono::steady_clock::now() >= deadline) {
        *hung = true;
        return false;
      }
      const long n = stream_->read_some(buf + got, len - got);
      if (n == serve::ShmStream::kTick) continue;
      if (n <= 0) {
        stream_.reset();
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::unique_ptr<serve::ShmStream> stream_;
};

core::DecisionStreamInfo valid_stream_info() {
  core::DecisionStreamInfo info;
  info.geometry.clusters.push_back({{300000, 600000, 900000, 1200000}, 1.0, 1'200'000.0});
  return info;
}

std::vector<std::uint8_t> valid_frame(sim::Rng& rng) {
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> payload;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      serve::encode_frame(frame, serve::MsgType::kPing, 0, payload);
      break;
    case 1:
      serve::encode_stream_info(payload, valid_stream_info());
      serve::encode_frame(frame, serve::MsgType::kHello,
                          static_cast<std::uint64_t>(rng.uniform_int(0, 7)), payload);
      break;
    case 2: {
      core::DecisionRequest req;
      req.event = core::DecisionEvent::kReplan;
      req.want_plan = true;
      req.now_us = rng.uniform_int(0, 1'000'000);
      serve::encode_request(payload, req);
      serve::encode_frame(frame, serve::MsgType::kDecide,
                          static_cast<std::uint64_t>(rng.uniform_int(0, 7)), payload);
      break;
    }
    default:
      serve::encode_frame(frame, serve::MsgType::kClose,
                          static_cast<std::uint64_t>(rng.uniform_int(0, 7)), payload);
      break;
  }
  return frame;
}

/// Connects to `path` and receives the daemon's ring memfd by hand, the
/// way any client could; the socket stays open in `*sock`. -1 on failure.
int receive_ring_memfd(const std::string& path, int* sock) {
  *sock = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (*sock < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(*sock, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) return -1;
  std::uint8_t byte = 0;
  iovec iov{&byte, 1};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  if (recvmsg(*sock, &msg, MSG_CMSG_CLOEXEC) != 1) return -1;
  const cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  if (cmsg == nullptr || cmsg->cmsg_type != SCM_RIGHTS) return -1;
  int fd = -1;
  std::memcpy(&fd, CMSG_DATA(cmsg), sizeof fd);
  return fd;
}

/// Sends `fd` with one data byte over `sock`, as the daemon does.
bool send_ring_memfd(int sock, int fd) {
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
  return sendmsg(sock, &msg, MSG_NOSIGNAL) == 1;
}

/// A hostile client holding its own mapping of a connection's rings: it
/// can publish frames the honest way or write anything anywhere.
class RingScribbler {
 public:
  ~RingScribbler() {
    if (layout_ != nullptr) munmap(layout_, sizeof(serve::ShmLayout));
    if (sock_ >= 0) close(sock_);
  }

  bool connect_to(const std::string& path) {
    const int fd = receive_ring_memfd(path, &sock_);
    if (fd < 0) return false;
    void* base = mmap(nullptr, sizeof(serve::ShmLayout), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    close(fd);
    if (base == MAP_FAILED) return false;
    layout_ = static_cast<serve::ShmLayout*>(base);
    return true;
  }

  serve::ShmLayout& layout() { return *layout_; }
  serve::ShmRing& to_daemon() { return layout_->ring[serve::ShmLayout::kToServer]; }
  serve::ShmRing& to_client() { return layout_->ring[serve::ShmLayout::kToClient]; }

  /// Publishes `bytes` on the client-to-daemon ring and wakes the daemon.
  void publish(const std::vector<std::uint8_t>& bytes) {
    std::uint8_t* data = layout_->data[serve::ShmLayout::kToServer];
    for (const std::uint8_t b : bytes) data[tail_++ % serve::kRingBytes] = b;
    to_daemon().tail.store(tail_);
    wake_daemon();
  }

  void wake_daemon() {
    syscall(SYS_futex, &to_daemon().consumer_waiting, FUTEX_WAKE, 1, nullptr, nullptr, 0);
  }

  /// Reads `len` reply bytes the honest way; false if none came in time.
  bool read(std::vector<std::uint8_t>& out, std::size_t len, int timeout_ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (to_client().tail.load() - head_ < len) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::uint8_t* data = layout_->data[serve::ShmLayout::kToClient];
    out.clear();
    for (std::size_t i = 0; i < len; ++i) out.push_back(data[head_++ % serve::kRingBytes]);
    to_client().head.store(head_);
    return true;
  }

  /// True once the daemon has closed its end within `timeout_ms`.
  bool daemon_closes(int timeout_ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (layout_->closed[serve::ShmLayout::kToServer].load() == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

 private:
  int sock_ = -1;
  serve::ShmLayout* layout_ = nullptr;
  std::uint64_t tail_ = 0;
  std::uint64_t head_ = 0;
};

}  // namespace wire_fuzz

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, MalformedFramesNeverCrashOrHangTheServer) {
  using wire_fuzz::RawClient;
  sim::Rng rng(GetParam());

  const std::string socket_path =
      "/tmp/vafs-wf-" + std::to_string(getpid()) + "-" + std::to_string(GetParam()) + ".sock";
  serve::Server server({socket_path, 32, 16, nullptr});
  ASSERT_TRUE(server.start());

  constexpr int kTimeoutMs = 5000;
  RawClient client;
  ASSERT_TRUE(client.connect_to(socket_path));

  for (int iter = 0; iter < 120; ++iter) {
    if (!client.connected()) {
      ASSERT_TRUE(client.connect_to(socket_path));
    }
    std::vector<std::uint8_t> frame = wire_fuzz::valid_frame(rng);

    switch (rng.uniform_int(0, 4)) {
      case 0: {
        // Corrupt 1-4 random bytes, half-close, and wait for the verdict:
        // an error reply, a drop, or (if the frame survived semantically,
        // e.g. a corrupted byte inside an unread field is impossible — the
        // checksum covers everything) a normal reply. Never a hang.
        const int flips = static_cast<int>(rng.uniform_int(1, 4));
        for (int f = 0; f < flips; ++f) {
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(frame.size() - 1)));
          frame[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        client.send_bytes(frame);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1)
            << "server hung on a corrupted frame (iter " << iter << ")";
        break;
      }
      case 1: {
        // Truncate mid-frame and stop sending: the server, waiting for
        // the rest of the frame, must see the end and drop, never wait
        // forever.
        const auto keep = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(frame.size() - 1)));
        client.send_bytes(frame.data(), keep);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1)
            << "server hung on a truncated frame (iter " << iter << ")";
        break;
      }
      case 2: {
        // Oversized length prefix: must be answered (kOversized) and
        // dropped without the server trying to read the advertised bytes.
        frame[0] = 0xFF;
        frame[1] = 0xFF;
        frame[2] = static_cast<std::uint8_t>(rng.uniform_int(0x01, 0xFF));
        frame[3] = static_cast<std::uint8_t>(rng.uniform_int(0x00, 0x7F));
        client.send_bytes(frame);
        serve::FrameHeader reply;
        std::vector<std::uint8_t> payload;
        bool hung = false;
        const bool got = client.read_frame(&reply, &payload, &hung, kTimeoutMs);
        ASSERT_FALSE(hung) << "server hung on an oversized frame (iter " << iter << ")";
        if (got) {
          EXPECT_EQ(reply.type, serve::MsgType::kError);
          serve::WireError code = serve::WireError::kNone;
          ASSERT_TRUE(serve::decode_error(payload.data(), payload.size(), code));
          EXPECT_EQ(code, serve::WireError::kOversized);
        }
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1);
        break;
      }
      case 3: {
        // Pure garbage of random length.
        std::vector<std::uint8_t> garbage(
            static_cast<std::size_t>(rng.uniform_int(1, 128)));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        client.send_bytes(garbage);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1)
            << "server hung on garbage (iter " << iter << ")";
        break;
      }
      default: {
        // A well-formed frame sent whole, then an abrupt mid-frame
        // disconnect on the next one: both must leave the server alive.
        client.send_bytes(frame);
        serve::FrameHeader reply;
        std::vector<std::uint8_t> payload;
        bool hung = false;
        // kClose has no reply; everything else answers exactly once.
        const bool expect_reply =
            frame[7] != static_cast<std::uint8_t>(serve::MsgType::kClose);
        if (expect_reply) {
          EXPECT_TRUE(client.read_frame(&reply, &payload, &hung, kTimeoutMs));
          ASSERT_FALSE(hung) << "server hung on a valid frame (iter " << iter << ")";
        }
        std::vector<std::uint8_t> half = wire_fuzz::valid_frame(rng);
        client.send_bytes(half.data(), half.size() / 2);
        client.finish_sending();
        ASSERT_NE(client.drain_until_eof(kTimeoutMs), -1);
        break;
      }
    }
  }

  // The server survived the campaign: still running, still correct for a
  // well-behaved client.
  EXPECT_TRUE(server.running());
  serve::ServeConnection good(socket_path);
  EXPECT_TRUE(good.ping());
  const std::uint64_t stream = good.open_stream(wire_fuzz::valid_stream_info());
  core::DecisionRequest req;
  req.event = core::DecisionEvent::kReplan;
  req.want_plan = true;
  const core::DecisionResponse resp = good.decide(stream, req);
  EXPECT_TRUE(resp.planned);
  server.stop();
  EXPECT_GT(server.stats().protocol_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Range<std::uint64_t>(5000, 5008));  // 8 campaigns

// The daemon seals every ring memfd before it hands it out: a client can
// neither shrink it (which would SIGBUS the daemon on its next ring
// access), grow it, nor lift the seals.
TEST(WireFuzzHandshake, RingMemfdIsSealedAgainstResize) {
  const std::string socket_path = "/tmp/vafs-wfs-" + std::to_string(getpid()) + ".sock";
  serve::Server server({socket_path, 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  int sock = -1;
  const int fd = wire_fuzz::receive_ring_memfd(socket_path, &sock);
  ASSERT_GE(fd, 0);
  struct stat st {};
  ASSERT_EQ(fstat(fd, &st), 0);
  EXPECT_EQ(st.st_size, static_cast<off_t>(sizeof(serve::ShmLayout)));
  const int seals = fcntl(fd, F_GET_SEALS);
  EXPECT_NE(seals & F_SEAL_SHRINK, 0);
  EXPECT_NE(seals & F_SEAL_GROW, 0);
  EXPECT_NE(seals & F_SEAL_SEAL, 0);
  EXPECT_NE(ftruncate(fd, 0), 0);
  EXPECT_NE(ftruncate(fd, st.st_size / 2), 0);
  EXPECT_NE(ftruncate(fd, st.st_size * 2), 0);
  EXPECT_NE(fcntl(fd, F_ADD_SEALS, F_SEAL_WRITE), 0);
  close(fd);
  close(sock);

  serve::ServeConnection good(socket_path);
  EXPECT_TRUE(good.ping());
  server.stop();
}

// A client refuses a mapping whose header is not this build's layout —
// here the version-1 header, which had no daemon CPU word — and accepts
// the same mapping with the current version.
TEST(WireFuzzHandshake, AttachRefusesAVersion1Header) {
  for (const std::uint32_t version : {std::uint32_t{1}, serve::kShmVersion}) {
    const int fd = memfd_create("vafs-test-rings", MFD_CLOEXEC | MFD_ALLOW_SEALING);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(ftruncate(fd, sizeof(serve::ShmLayout)), 0);
    ASSERT_EQ(fcntl(fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL), 0);
    void* base = mmap(nullptr, sizeof(serve::ShmLayout), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ASSERT_NE(base, MAP_FAILED);
    new (base) serve::ShmLayout();
    static_cast<serve::ShmLayout*>(base)->version = version;
    munmap(base, sizeof(serve::ShmLayout));

    int sv[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
    ASSERT_TRUE(wire_fuzz::send_ring_memfd(sv[0], fd));
    close(fd);
    const char* error = nullptr;
    const std::unique_ptr<serve::ShmStream> stream = serve::ShmStream::attach(sv[1], &error);
    if (version == serve::kShmVersion) {
      EXPECT_NE(stream, nullptr) << (error != nullptr ? error : "");
    } else {
      EXPECT_EQ(stream, nullptr);
      ASSERT_NE(error, nullptr);
      EXPECT_STREQ(error, "ring mapping has an unknown layout");
    }
    close(sv[0]);
  }
}

class WireFuzzRing : public ::testing::TestWithParam<std::uint64_t> {};

// Hostile clients scribble impossible indices, random waiting words and
// random bytes into their own live mappings while a well-behaved client
// keeps deciding on the same daemon. A bad index is one protocol error and
// drops that connection only; flag scribbles leave it serving; the good
// client's decisions stay bit-equal to an in-process core throughout.
TEST_P(WireFuzzRing, ScribbledMappingsDropOnlyThatConnection) {
  sim::Rng rng(GetParam());
  const std::string socket_path =
      "/tmp/vafs-wfr-" + std::to_string(getpid()) + "-" + std::to_string(GetParam()) + ".sock";
  serve::Server server({socket_path, 32, 16, nullptr});
  ASSERT_TRUE(server.start());
  constexpr int kTimeoutMs = 5000;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> good_decisions{0};
  std::atomic<std::uint64_t> good_mismatches{0};
  std::string good_error;
  std::thread good([&] {
    try {
      serve::ServeConnection conn(socket_path);
      const std::uint64_t stream = conn.open_stream(wire_fuzz::valid_stream_info());
      core::DecisionCore local(wire_fuzz::valid_stream_info().config,
                               wire_fuzz::valid_stream_info().geometry);
      for (std::int64_t i = 0; !stop.load(); ++i) {
        core::DecisionRequest req;
        req.event = i % 2 == 0 ? core::DecisionEvent::kDecodeComplete
                               : core::DecisionEvent::kReplan;
        req.now_us = i * 33'333;
        req.player_state = core::DecisionPlayerState::kPlaying;
        req.decoded_ahead = static_cast<std::uint64_t>(i % 6);
        req.total_frames = 1'000'000;
        req.frame_period_us = 33'333;
        req.throughput_mbps = 8.0;
        req.observe_cycles = 9.0e6 + static_cast<double>(i % 17) * 1.0e5;
        std::vector<std::uint8_t> got;
        std::vector<std::uint8_t> want;
        serve::encode_response(got, conn.decide(stream, req));
        serve::encode_response(want, local.decide(req));
        if (got != want) good_mismatches.fetch_add(1);
        good_decisions.fetch_add(1);
      }
    } catch (const std::exception& e) {
      good_error = e.what();
    }
  });
  // A failed ASSERT below returns early: stop and join the good client
  // first, so the failure is reported instead of ending the binary.
  struct JoinGood {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~JoinGood() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } join_good{stop, good};

  int hostile = 0;
  for (int iter = 0; iter < 24; ++iter) {
    wire_fuzz::RingScribbler evil;
    ASSERT_TRUE(evil.connect_to(socket_path));
    ++hostile;
    const std::uint64_t errors_before = server.stats().protocol_errors;
    const std::uint64_t huge = std::uint64_t{1} << rng.uniform_int(15, 63);
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        // An impossible tail — more unread bytes than the ring holds —
        // over a valid Ping: nothing behind an impossible index is read,
        // so the daemon drops the connection without answering.
        std::vector<std::uint8_t> ping;
        serve::encode_frame(ping, serve::MsgType::kPing, 0, {});
        std::memcpy(evil.layout().data[serve::ShmLayout::kToServer], ping.data(), ping.size());
        evil.to_daemon().tail.store(serve::kRingBytes + 1 +
                                    static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)) +
                                    huge);
        evil.wake_daemon();
        ASSERT_TRUE(evil.daemon_closes(kTimeoutMs)) << "iter " << iter;
        EXPECT_EQ(evil.to_client().tail.load(), 0u) << "iter " << iter;
        EXPECT_EQ(server.stats().protocol_errors - errors_before, 1u) << "iter " << iter;
        break;
      }
      case 1: {
        // An impossible head on the reply ring, then a request: the
        // daemon must refuse to write its reply past it.
        evil.to_client().head.store(huge + static_cast<std::uint64_t>(rng.uniform_int(1, 4096)));
        std::vector<std::uint8_t> ping;
        serve::encode_frame(ping, serve::MsgType::kPing, 0, {});
        evil.publish(ping);
        ASSERT_TRUE(evil.daemon_closes(kTimeoutMs)) << "iter " << iter;
        EXPECT_EQ(server.stats().protocol_errors - errors_before, 1u) << "iter " << iter;
        break;
      }
      case 2: {
        // Garbage published with a valid index, then the end of input.
        std::vector<std::uint8_t> garbage(
            static_cast<std::size_t>(rng.uniform_int(1, 2 * serve::kRingBytes / 3)));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        evil.publish(garbage);
        evil.layout().closed[serve::ShmLayout::kToClient].store(1);
        evil.wake_daemon();
        ASSERT_TRUE(evil.daemon_closes(kTimeoutMs)) << "iter " << iter;
        break;
      }
      default: {
        // The daemon's waiting words, the header and the daemon's own
        // reply bytes scribbled: none of them is trusted, so an honest
        // ping right after still gets its pong.
        evil.to_daemon().consumer_waiting.store(
            static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF)));
        evil.to_client().producer_waiting.store(
            static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF)));
        evil.layout().magic = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF));
        evil.layout().ring_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF));
        std::uint8_t* replies = evil.layout().data[serve::ShmLayout::kToClient];
        for (int i = 0; i < 64; ++i) {
          replies[rng.uniform_int(0, serve::kRingBytes - 1)] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        std::vector<std::uint8_t> ping;
        serve::encode_frame(ping, serve::MsgType::kPing, 0, {});
        evil.publish(ping);
        std::vector<std::uint8_t> pong;
        std::vector<std::uint8_t> expected;
        serve::encode_frame(expected, serve::MsgType::kPong, 0, {});
        ASSERT_TRUE(evil.read(pong, expected.size(), kTimeoutMs)) << "iter " << iter;
        EXPECT_EQ(pong, expected) << "iter " << iter;
        EXPECT_EQ(server.stats().protocol_errors, errors_before) << "iter " << iter;
        break;
      }
    }
  }

  // Every hostile connection is reaped — the ones still open once the
  // daemon sees their sockets hang up — while the good one stays up.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().connections_closed < static_cast<std::uint64_t>(hostile) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().connections_closed, static_cast<std::uint64_t>(hostile));
  stop.store(true);
  good.join();
  EXPECT_TRUE(good_error.empty()) << good_error;
  EXPECT_GT(good_decisions.load(), 0u);
  EXPECT_EQ(good_mismatches.load(), 0u);
  EXPECT_TRUE(server.running());
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzRing,
                         ::testing::Range<std::uint64_t>(5200, 5204));  // 4 campaigns

// The CPU hint each end publishes is shared memory too. A client that
// claims to run on a CPU its connection thread does not run on, and then
// goes silent, gets spins that all run out; each doubles how many waits
// sleep at once, so over a silent second (about 20 ticks) the thread spins
// a handful of times and otherwise sleeps in the futex. The claim flips
// between the two CPUs the thread may use, so it differs from the thread's
// CPU at about half of its waits, wherever the scheduler puts it.
TEST(WireFuzzCpuHint, SilentClientClaimingAnotherCpuCostsBoundedSpins) {
  const std::vector<int> cpus = test::allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";
  const std::string socket_path = "/tmp/vafs-wfh-" + std::to_string(getpid()) + ".sock";
  std::unique_ptr<serve::Server> server;
  {
    const test::PinSelf two({cpus[0], cpus[1]});  // the server's threads inherit it
    ASSERT_TRUE(two.ok());
    server = std::make_unique<serve::Server>(serve::ServerOptions{socket_path, 8, 16, nullptr});
    ASSERT_TRUE(server->start());
  }
  wire_fuzz::RingScribbler evil;
  ASSERT_TRUE(evil.connect_to(socket_path));
  std::atomic<std::int32_t>& claim = evil.layout().cpu[serve::ShmLayout::kToClient];
  std::vector<std::uint8_t> ping;
  std::vector<std::uint8_t> pong;
  std::vector<std::uint8_t> expected;
  serve::encode_frame(ping, serve::MsgType::kPing, 0, {});
  serve::encode_frame(expected, serve::MsgType::kPong, 0, {});
  claim.store(cpus[0]);
  evil.publish(ping);
  ASSERT_TRUE(evil.read(pong, expected.size(), 5000));
  EXPECT_EQ(pong, expected);

  const serve::ServerStats before = server->stats();
  const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (int i = 1; std::chrono::steady_clock::now() < end; ++i) {
    claim.store(cpus[i % 2]);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const serve::ServerStats after = server->stats();
  server->stop();

  const std::uint64_t spins = after.spins - before.spins;
  const std::uint64_t timeouts = after.spin_timeouts - before.spin_timeouts;
  EXPECT_GT(spins, 0u);
  EXPECT_EQ(timeouts, spins);  // nothing ever arrives
  EXPECT_LE(timeouts, 6u);     // waits 0, 2, 5, 10 and 19 of about 21
  EXPECT_GE(after.futex_waits - before.futex_waits, 15u);
}

// A hint that is negative, at or past CPU_SETSIZE, or a CPU the connection
// thread may not run on never makes it spin. The server's threads may run
// on one CPU only, so a valid hint would always name their own CPU and
// never make them spin either: every spin here would come from a hint
// that should have been refused.
TEST(WireFuzzCpuHint, ImpossibleHintsNeverSpin) {
  const std::vector<int> cpus = test::allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  const int outside = cpus[0] == 0 ? 1 : 0;
  const std::string socket_path = "/tmp/vafs-wfi-" + std::to_string(getpid()) + ".sock";
  std::unique_ptr<serve::Server> server;
  {
    const test::PinSelf one({cpus[0]});
    ASSERT_TRUE(one.ok());
    server = std::make_unique<serve::Server>(serve::ServerOptions{socket_path, 8, 16, nullptr});
    ASSERT_TRUE(server->start());
  }
  wire_fuzz::RingScribbler evil;
  ASSERT_TRUE(evil.connect_to(socket_path));
  std::vector<std::uint8_t> ping;
  std::vector<std::uint8_t> expected;
  serve::encode_frame(ping, serve::MsgType::kPing, 0, {});
  serve::encode_frame(expected, serve::MsgType::kPong, 0, {});
  for (const std::int32_t hint : {-1, -2, std::numeric_limits<std::int32_t>::min(), CPU_SETSIZE,
                                  CPU_SETSIZE + 1, std::numeric_limits<std::int32_t>::max(),
                                  outside}) {
    evil.layout().cpu[serve::ShmLayout::kToClient].store(hint);
    evil.publish(ping);
    std::vector<std::uint8_t> pong;
    ASSERT_TRUE(evil.read(pong, expected.size(), 5000)) << "hint " << hint;
    EXPECT_EQ(pong, expected) << "hint " << hint;
    // The connection thread now waits for the next request under `hint`.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const serve::ServerStats stats = server->stats();
  server->stop();
  EXPECT_EQ(stats.requests, 0u);  // pings are not decisions
  EXPECT_EQ(stats.spins, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// Semantically hostile stream configs, each framed with a valid checksum —
// unlike the mutated frames above, they pass the wire checks and reach the
// decision core (window 0 used to crash the daemon with SIGSEGV, window
// 2^40 with bad_alloc). Each must be refused with kBadConfig, and the same
// connection must then open a valid stream whose decisions are bit-equal
// to an in-process core's.
TEST(WireFuzzHostileConfig, RefusedWithBadConfigAndTheConnectionServesOn) {
  using wire_fuzz::RawClient;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, void (*)(core::VafsConfig&)>> hostile = {
      {"window 0", [](core::VafsConfig& c) { c.predictor.window = 0; }},
      {"window 2^40", [](core::VafsConfig& c) { c.predictor.window = std::size_t{1} << 40; }},
      {"NaN margin", [](core::VafsConfig& c) { c.safety_margin = kNaN; }},
      {"quantile -1", [](core::VafsConfig& c) { c.predictor.quantile = -1.0; }},
      {"quantile 2", [](core::VafsConfig& c) { c.predictor.quantile = 2.0; }},
      {"inf throughput", [](core::VafsConfig& c) { c.default_throughput_mbps = kInf; }},
      {"inf protocol rate", [](core::VafsConfig& c) { c.protocol_cycles_per_byte = kInf; }},
  };

  const std::string socket_path = "/tmp/vafs-wfh-" + std::to_string(getpid()) + ".sock";
  serve::Server server({socket_path, 8, 16, nullptr});
  ASSERT_TRUE(server.start());
  constexpr int kTimeoutMs = 5000;
  sim::Rng rng(5100);

  // One request, one reply frame (whose payload lands in `payload`).
  const auto exchange = [&](RawClient& client, serve::MsgType type, std::uint64_t stream,
                            const std::vector<std::uint8_t>& body,
                            std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> frame;
    serve::encode_frame(frame, type, stream, body);
    client.send_bytes(frame);
    serve::FrameHeader header;
    bool hung = false;
    EXPECT_TRUE(client.read_frame(&header, &payload, &hung, kTimeoutMs));
    EXPECT_FALSE(hung);
    return header.type;
  };

  for (const auto& [name, mutate] : hostile) {
    SCOPED_TRACE(name);
    RawClient client;
    ASSERT_TRUE(client.connect_to(socket_path));
    core::DecisionStreamInfo info = wire_fuzz::valid_stream_info();
    mutate(info.config);
    std::vector<std::uint8_t> body;
    std::vector<std::uint8_t> payload;
    serve::encode_stream_info(body, info);
    ASSERT_EQ(exchange(client, serve::MsgType::kHello, 1, body, payload),
              serve::MsgType::kError);
    serve::WireError code = serve::WireError::kNone;
    ASSERT_TRUE(serve::decode_error(payload.data(), payload.size(), code));
    EXPECT_EQ(code, serve::WireError::kBadConfig);

    // Same connection, same stream id: a valid open now succeeds.
    body.clear();
    serve::encode_stream_info(body, wire_fuzz::valid_stream_info());
    ASSERT_EQ(exchange(client, serve::MsgType::kHello, 1, body, payload),
              serve::MsgType::kHelloOk);
    core::DecisionCore local(wire_fuzz::valid_stream_info().config,
                             wire_fuzz::valid_stream_info().geometry);
    for (int i = 0; i < 32; ++i) {
      core::DecisionRequest req;
      req.event = static_cast<core::DecisionEvent>(rng.uniform_int(0, 2));
      req.now_us = i * 33'333;
      req.player_state = core::DecisionPlayerState::kPlaying;
      req.decoded_ahead = static_cast<std::uint64_t>(rng.uniform_int(0, 8));
      req.total_frames = 10'000;
      req.frame_period_us = 33'333;
      req.throughput_mbps = rng.uniform(1.0, 20.0);
      req.observe_cycles = rng.uniform(5e6, 2e7);
      req.observe_idr = rng.uniform() < 0.1;
      body.clear();
      serve::encode_request(body, req);
      ASSERT_EQ(exchange(client, serve::MsgType::kDecide, 1, body, payload),
                serve::MsgType::kDecision);
      std::vector<std::uint8_t> expected;
      serve::encode_response(expected, local.decide(req));
      EXPECT_EQ(payload, expected) << "decision " << i << " differs from in-process";
    }
  }

  EXPECT_TRUE(server.running());
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, hostile.size());
  EXPECT_EQ(server.stats().streams_opened, hostile.size());
}

}  // namespace
}  // namespace vafs
