#include "fleet/spool.h"

#include <filesystem>
#include <string_view>

#include <unistd.h>

#include "exp/aggregate.h"
#include "exp/json.h"
#include "fleet/io.h"
#include "obs/export.h"

namespace vafs::fleet {
namespace {

/// CSV field, always quoted (scenario ids carry spaces and axis labels).
std::string csv_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Named metric -> Aggregate metric-table index (kMetricCount if unknown).
std::size_t metric_index(const std::string& name) {
  const auto& table = exp::Aggregate::metrics();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (std::string_view(table[i].name) == name) return i;
  }
  return exp::kMetricCount;
}

}  // namespace

Spool::~Spool() {
  std::string error;
  close(&error);  // best effort; run_fleet close()s explicitly to see errors
}

bool Spool::open(const SpoolOptions& options, std::uint64_t resume_offset, std::string* error) {
  options_ = options;
  if (options_.format == SpoolFormat::kNone) return true;
  if (options_.path.empty()) {
    *error = "spool: format set but no path given";
    return false;
  }

  if (resume_offset > 0) {
    // Resume: roll the file back to the checkpointed frontier. Rows past
    // the offset belong to shards after the checkpoint cut; the resumed
    // fold rewrites them identically.
    std::error_code ec;
    const auto size = std::filesystem::file_size(options_.path, ec);
    if (ec) {
      *error = "spool: cannot stat '" + options_.path + "' for resume: " + ec.message();
      return false;
    }
    if (size < resume_offset) {
      *error = "spool: '" + options_.path + "' is shorter (" + std::to_string(size) +
               " B) than the checkpointed offset (" + std::to_string(resume_offset) + " B)";
      return false;
    }
    std::filesystem::resize_file(options_.path, resume_offset, ec);
    if (ec) {
      *error = "spool: cannot truncate '" + options_.path + "': " + ec.message();
      return false;
    }
  }

  file_ = std::fopen(options_.path.c_str(), resume_offset > 0 ? "ab" : "wb");
  if (file_ == nullptr) {
    *error = "spool: cannot open '" + options_.path + "' for writing";
    return false;
  }
  offset_ = resume_offset;
  buffer_.clear();
  buffer_.reserve(options_.buffer_bytes + 1024);
  write_failed_ = false;
  metric_indices_.clear();
  for (const auto& name : options_.metrics) metric_indices_.push_back(metric_index(name));
  if (resume_offset == 0 && options_.format == SpoolFormat::kCsv) {
    append_row("scenario,seed,metric,value\n");
  }
  return true;
}

void Spool::append_row(std::string row) {
  offset_ += row.size();
  buffer_ += row;
  if (buffer_.size() >= options_.buffer_bytes) {
    std::string error;
    if (!flush(&error)) write_failed_ = true;
  }
}

void Spool::append(const exp::ScenarioSpec& spec, std::uint64_t seed,
                   const core::SessionResult& result) {
  if (!enabled()) return;
  double values[exp::kMetricCount];
  exp::Aggregate::session_values(result, values);
  append_values(spec, seed, values, result.trace_digest);
}

void Spool::append_values(const exp::ScenarioSpec& spec, std::uint64_t seed,
                          const double* values, std::uint64_t digest) {
  if (!enabled()) return;
  const auto value_at = [&](std::size_t slot) {
    const std::size_t idx = metric_indices_[slot];
    return idx < exp::kMetricCount ? values[idx] : 0.0;
  };
  if (options_.format == SpoolFormat::kCsv) {
    const std::string prefix = csv_quote(spec.id) + ',' + std::to_string(seed) + ',';
    std::string rows;
    for (std::size_t slot = 0; slot < options_.metrics.size(); ++slot) {
      rows += prefix + options_.metrics[slot] + ',' + exp::json_number(value_at(slot)) + '\n';
    }
    append_row(std::move(rows));
    return;
  }
  std::string row = "{\"scenario\":" + exp::json_quote(spec.id) +
                    ",\"seed\":" + std::to_string(seed) + ",\"digest\":\"" +
                    obs::digest_hex(digest) + "\",\"metrics\":{";
  bool first = true;
  for (std::size_t slot = 0; slot < options_.metrics.size(); ++slot) {
    if (!first) row += ',';
    first = false;
    row += exp::json_quote(options_.metrics[slot]) + ':' + exp::json_number(value_at(slot));
  }
  row += "}}\n";
  append_row(std::move(row));
}

void Spool::append_failure(const exp::ScenarioSpec& spec, std::uint64_t seed) {
  if (!enabled()) return;
  if (options_.format == SpoolFormat::kCsv) {
    append_row(csv_quote(spec.id) + ',' + std::to_string(seed) + ",failed,1\n");
    return;
  }
  append_row("{\"scenario\":" + exp::json_quote(spec.id) + ",\"seed\":" + std::to_string(seed) +
             ",\"failed\":true}\n");
}

bool Spool::flush(std::string* error) {
  if (!enabled()) return true;
  if (!buffer_.empty()) {
    std::size_t allow = buffer_.size();
    if (IoHooks::write_gate) {
      allow = IoHooks::write_gate(buffer_.size());
      if (allow > buffer_.size()) allow = buffer_.size();
    }
    const std::size_t wrote = allow > 0 ? std::fwrite(buffer_.data(), 1, allow, file_) : 0;
    if (wrote != buffer_.size()) {
      *error = "spool: short write to '" + options_.path + "' (" + std::to_string(wrote) + " of " +
               std::to_string(buffer_.size()) + " B; disk full?)";
      write_failed_ = true;
      return false;
    }
    buffer_.clear();
  }
  if (std::fflush(file_) != 0) {
    *error = "spool: flush of '" + options_.path + "' failed";
    write_failed_ = true;
    return false;
  }
  if (write_failed_) {
    *error = "spool: an earlier buffered write to '" + options_.path + "' failed";
    return false;
  }
  return true;
}

bool Spool::sync(std::string* error) {
  if (!enabled()) return true;
  if (!flush(error)) return false;
  std::string sync_error;
  if (!fsync_fd(::fileno(file_), &sync_error)) {
    *error = "spool: fsync of '" + options_.path + "' failed: " + sync_error;
    write_failed_ = true;
    return false;
  }
  return true;
}

bool Spool::close(std::string* error) {
  if (!enabled()) return true;
  const bool ok = flush(error);
  std::fclose(file_);
  file_ = nullptr;
  return ok;
}

}  // namespace vafs::fleet
