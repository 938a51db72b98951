// Lockstep multi-session driver: N independent SessionInstances advanced
// off one shared 4-ary wheel keyed (next event time, lane).
//
// Sessions share no state — each lane owns its Simulator, Rng and sysfs
// tree — so per-session results are bitwise identical to running the same
// configs through run_session one at a time, under *any* lane
// interleaving. What the wheel buys is locality: the driver always fires
// the globally-earliest event, and consecutive events of one lane run as
// an uninterrupted burst (no wheel traffic) while that lane remains the
// global minimum, so a worker's instruction stream stays on one session's
// warm state for as long as the timeline allows.
//
// Lanes retire independently (different media lengths, sim caps, fault
// plans); a retired lane simply leaves the wheel while the rest run on —
// ragged batches need no padding.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"

namespace vafs::core {

class SessionInstance;

class SessionBatch {
 public:
  /// Bounds the lockstep skew: the driver bursts the earliest lane until
  /// its clock passes the runner-up's by more than this, then rotates.
  /// Lanes share nothing, so the interleaving is unobservable: per-session
  /// results do not depend on it.
  static constexpr sim::SimTime kQuantum = sim::SimTime::millis(250);

  /// `capacity` is a reservation hint; admit() beyond it still works.
  explicit SessionBatch(std::size_t capacity = 0);
  ~SessionBatch();
  SessionBatch(const SessionBatch&) = delete;
  SessionBatch& operator=(const SessionBatch&) = delete;

  /// Brings up one session (full device construction, player started) and
  /// returns its lane index. Throws SessionError on invalid configuration,
  /// exactly as run_session would; a throw leaves previously admitted
  /// lanes untouched, so one bad config cannot poison its batchmates.
  ///
  /// `config` and the hooks' tracer must outlive the batch. Each live lane
  /// needs its own arena (an EventQueue::Arena serves one queue at a
  /// time); pass null to allocate fresh.
  std::size_t admit(const SessionConfig& config, const SessionHooks& hooks, SessionArena* arena);

  /// Lanes admitted so far (retired lanes included).
  std::size_t size() const { return lanes_.size(); }

  /// Advances every lane to retirement in lockstep: repeatedly fires the
  /// globally earliest pending event across all lanes (ties broken by
  /// lower lane index). Idempotent — lanes already retired are skipped.
  void run();

  /// Closes lane `lane`'s trace stream and extracts its SessionResult.
  /// Call once per lane, after run(); the lane is dead afterwards. If the
  /// lane threw mid-run (run() retires just that lane and stores the
  /// message), rethrows it as SessionError — the same exception-per-task
  /// surface the serial path has.
  SessionResult finish(std::size_t lane);

 private:
  // 4-ary implicit min-heap over (time, lane); lanes are distinct so the
  // key is a strict total order.
  struct WheelEntry {
    sim::SimTime time;
    std::uint32_t lane;
  };
  static bool wheel_less(const WheelEntry& a, const WheelEntry& b) {
    return a.time != b.time ? a.time < b.time : a.lane < b.lane;
  }
  void wheel_push(WheelEntry e);
  WheelEntry wheel_pop();

  std::vector<std::unique_ptr<SessionInstance>> lanes_;
  std::vector<std::string> errors_;  // per lane; non-empty = lane threw mid-run
  std::vector<WheelEntry> wheel_;
};

}  // namespace vafs::core
