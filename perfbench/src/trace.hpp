// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer's public function: its name, start and
// end (seconds since the recorder was created), the span that caused it
// and the run it belongs to.  Spans stay in a vector while the run
// executes and are written out once, when the run ends, so recording
// costs two clock reads and one push_back per call.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = kRoot;
  };

  /// A disabled tracer records nothing and reads no clock (every duration
  /// it returns is 0): the untraced run the overhead is measured against.
  explicit Tracer(std::uint64_t run_id, bool enabled = true)
      : run_id_(run_id), enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; close it with end() before opening a sibling.
  std::size_t begin(std::string name, std::size_t parent = kRoot) {
    if (!enabled_) return kRoot;
    spans_.push_back({std::move(name), now(), 0.0, parent});
    return spans_.size() - 1;
  }
  /// Closes `span` and returns its duration in seconds.
  double end(std::size_t span) {
    if (!enabled_) return 0.0;
    spans_[span].end = now();
    return spans_[span].end - spans_[span].start;
  }

  /// Runs `body()` inside a span named `name`; returns the span's duration.
  template <typename Body>
  double time(std::string name, std::size_t parent, Body&& body) {
    const std::size_t span = begin(std::move(name), parent);
    body();
    return end(span);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// {"run_id", "spans": [{"id", "name", "start", "end", "parent"}]};
  /// a root span's parent is null.
  [[nodiscard]] icsdiv::support::Json to_json() const {
    icsdiv::support::JsonArray spans;
    spans.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      icsdiv::support::JsonObject object;
      object.set("id", i);
      object.set("name", span.name);
      object.set("start", span.start);
      object.set("end", span.end);
      object.set("parent", span.parent == kRoot ? icsdiv::support::Json(nullptr)
                                                : icsdiv::support::Json(span.parent));
      spans.emplace_back(std::move(object));
    }
    icsdiv::support::JsonObject root;
    root.set("run_id", static_cast<std::int64_t>(run_id_));
    root.set("spans", std::move(spans));
    return root;
  }

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::uint64_t run_id_;
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
