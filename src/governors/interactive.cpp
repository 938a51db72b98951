#include "governors/interactive.h"

#include <algorithm>

namespace vafs::governors {

void InteractiveGovernor::on_start() {
  auto* p = policy();
  if (t_.hispeed_freq_khz == 0) {
    // Default hispeed: the OPP nearest 60 % of max — a common OEM tuning.
    const auto target = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(p->opps().max().freq_khz) * 60 / 100);
    t_.hispeed_freq_khz = p->opps().resolve(target, cpu::Relation::kAtLeast).freq_khz;
  }
  last_raise_ = p->simulator().now();
}

void InteractiveGovernor::on_sample() {
  auto* p = policy();
  const double load = window_load() * 100.0;
  const std::uint32_t cur = p->cur_khz();
  const sim::SimTime now = p->simulator().now();

  std::uint32_t target;
  if (load >= static_cast<double>(t_.go_hispeed_load)) {
    target = std::max(t_.hispeed_freq_khz, cur);
    // Already at/above hispeed and still saturated: go all the way up.
    if (cur >= t_.hispeed_freq_khz) target = p->max_khz();
  } else {
    target = static_cast<std::uint32_t>(static_cast<double>(cur) * load /
                                        static_cast<double>(t_.target_load));
  }

  if (target > cur) {
    last_raise_ = now;
    p->set_target(target, cpu::Relation::kAtLeast);
    return;
  }
  // Hold the floor for min_sample_time after any raise.
  if (now - last_raise_ <
      sim::SimTime::micros(static_cast<std::int64_t>(t_.min_sample_time_us))) {
    return;
  }
  if (target < cur) p->set_target(target, cpu::Relation::kAtLeast);
}

std::vector<cpu::Tunable> InteractiveGovernor::tunables() {
  return {
      {"timer_rate", [this] { return std::to_string(t_.timer_rate_us); },
       [this](std::string_view v) -> sysfs::Status {
         const auto us = parse_us(v);
         if (us == UINT64_MAX || us < 1000) return sysfs::Errno::kInval;
         t_.timer_rate_us = us;
         rearm();
         return {};
       }},
      {"hispeed_freq", [this] { return std::to_string(t_.hispeed_freq_khz); },
       [this](std::string_view v) -> sysfs::Status {
         const auto khz = parse_u64(v);
         if (khz == UINT64_MAX || khz == 0 || khz > UINT32_MAX) return sysfs::Errno::kInval;
         t_.hispeed_freq_khz = static_cast<std::uint32_t>(khz);
         return {};
       }},
      {"go_hispeed_load", [this] { return std::to_string(t_.go_hispeed_load); },
       [this](std::string_view v) -> sysfs::Status {
         const auto pct = parse_u64(v);
         if (pct == UINT64_MAX || pct == 0 || pct > 100) return sysfs::Errno::kInval;
         t_.go_hispeed_load = static_cast<unsigned>(pct);
         return {};
       }},
      {"target_loads", [this] { return std::to_string(t_.target_load); },
       [this](std::string_view v) -> sysfs::Status {
         const auto pct = parse_u64(v);
         if (pct == UINT64_MAX || pct == 0 || pct > 100) return sysfs::Errno::kInval;
         t_.target_load = static_cast<unsigned>(pct);
         return {};
       }},
      {"min_sample_time", [this] { return std::to_string(t_.min_sample_time_us); },
       [this](std::string_view v) -> sysfs::Status {
         const auto us = parse_us(v);
         if (us == UINT64_MAX) return sysfs::Errno::kInval;
         t_.min_sample_time_us = us;
         return {};
       }},
  };
}

}  // namespace vafs::governors
