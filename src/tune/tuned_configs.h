// Loader for the tuned_configs.json artifact bench_f15_tune ships (the
// per-cell winners of the closed-loop governor search, tuner.h). This is
// the consumer side of the tuning loop: benches and tests look up the
// tuned configuration for a (device profile × network class) cell and
// apply its knob values onto a core::SessionConfig through the same
// registry the search itself used — so a replayed tuned config is
// bit-identical to the candidate the tuner evaluated.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/session.h"

namespace vafs::tune {

/// One tuned cell as shipped in the artifact. `params` preserves artifact
/// order; every name is a registered knob (parse() rejects unknowns, so a
/// stale artifact fails loudly instead of silently half-applying).
struct TunedCell {
  std::string cell;      // "flagship/fair"
  std::string profile;   // registry name; "default" = the legacy device
  std::string net;       // "fair", "poor", ...
  std::string governor;  // the governor the cell was tuned for
  bool feasible = false;
  std::vector<std::pair<std::string, double>> params;
  // Objective readings of the winner, straight from the artifact (mean
  // over the full evaluation-seed budget).
  double energy_mj = 0.0;
  double rebuffer_ratio = 0.0;
  double drop_pct = 0.0;

  /// Applies every knob onto cfg (governor is NOT set — callers decide
  /// whether the cell's governor or their own sweep axis wins).
  void apply(core::SessionConfig& cfg) const;
};

/// The parsed artifact.
class TunedConfigs {
 public:
  /// Parses artifact text. Returns false with a message on malformed
  /// JSON, a schema_version other than 1, a missing/malformed cells
  /// array, an unregistered knob name or a knob value beyond ±1e9.
  static bool parse(std::string_view text, TunedConfigs* out, std::string* error);

  /// parse() over a file's contents; false with a message when the file
  /// cannot be read.
  static bool load_file(const std::string& path, TunedConfigs* out, std::string* error);

  const std::vector<TunedCell>& cells() const { return cells_; }
  bool empty() const { return cells_.empty(); }

  /// The cell tuned for (profile, net); nullptr when the artifact has
  /// none. `profile` "" and "default" both mean the legacy device.
  const TunedCell* find(std::string_view profile, std::string_view net) const;

 private:
  std::vector<TunedCell> cells_;
};

}  // namespace vafs::tune
