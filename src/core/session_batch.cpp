#include "core/session_batch.h"

#include <utility>

#include "core/session_instance.h"

namespace vafs::core {

SessionBatch::SessionBatch(std::size_t capacity) {
  lanes_.reserve(capacity);
  wheel_.reserve(capacity);
}

SessionBatch::~SessionBatch() = default;

std::size_t SessionBatch::admit(const SessionConfig& config, const SessionHooks& hooks,
                                SessionArena* arena) {
  lanes_.push_back(std::make_unique<SessionInstance>(config, hooks, arena));
  errors_.emplace_back();
  return lanes_.size() - 1;
}

void SessionBatch::wheel_push(WheelEntry e) {
  wheel_.push_back(e);
  std::size_t i = wheel_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!wheel_less(wheel_[i], wheel_[parent])) break;
    std::swap(wheel_[i], wheel_[parent]);
    i = parent;
  }
}

SessionBatch::WheelEntry SessionBatch::wheel_pop() {
  const WheelEntry top = wheel_[0];
  wheel_[0] = wheel_.back();
  wheel_.pop_back();
  std::size_t i = 0;
  const std::size_t n = wheel_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (wheel_less(wheel_[c], wheel_[best])) best = c;
    }
    if (!wheel_less(wheel_[best], wheel_[i])) break;
    std::swap(wheel_[i], wheel_[best]);
    i = best;
  }
  return top;
}

void SessionBatch::run() {
  wheel_.clear();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const sim::SimTime t = lanes_[i]->next_event_time();
    if (t != sim::SimTime::max()) {
      wheel_push(WheelEntry{t, static_cast<std::uint32_t>(i)});
    }
  }
  while (!wheel_.empty()) {
    const WheelEntry cur = wheel_pop();
    SessionInstance& lane = *lanes_[cur.lane];
    // Burst: keep firing this lane while it stays the global minimum —
    // with one live lane (or a lane far ahead of the pack) this runs the
    // session at full serial speed with zero wheel traffic. A throw
    // retires only this lane (finish() resurfaces it); batchmates run on.
    // The burst horizon: one quantum past the runner-up lane's clock.
    // SimTime::max() (empty wheel, or horizon arithmetic saturating) means
    // "run this lane to retirement".
    sim::SimTime horizon = sim::SimTime::max();
    if (!wheel_.empty() && sim::SimTime::max() - kQuantum >= wheel_[0].time) {
      horizon = wheel_[0].time + kQuantum;
    }
    try {
      sim::SimTime t;
      do {
        if (!lane.step_one()) break;
        t = lane.next_event_time();
      } while (t < horizon);
      t = lane.next_event_time();
      if (t != sim::SimTime::max()) {
        wheel_push(WheelEntry{t, cur.lane});
      }
    } catch (const std::exception& e) {
      errors_[cur.lane] = e.what();
    } catch (...) {
      errors_[cur.lane] = "unknown exception";
    }
  }
}

SessionResult SessionBatch::finish(std::size_t lane) {
  if (!errors_[lane].empty()) throw SessionError(errors_[lane]);
  return lanes_[lane]->finish();
}

}  // namespace vafs::core
