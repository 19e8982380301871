// In-memory spans for the traced run. The benchmark opens a span around
// each call it makes into a module's public functions; spans are kept in
// memory and summarised after the last chunk, so recording costs two
// clock reads and a vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string: the layer call it wraps
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the recorder's spans, -1 = root
  std::int64_t id = 0;       ///< chunk or request id the span belongs to
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  /// Opens a span as a child of the innermost open span; returns its index.
  std::int32_t open(const char* name, std::int64_t id);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int64_t id)
      : recorder_(recorder), index_(recorder ? recorder->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children of one parent may not
/// overlap, as on one thread). Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-name summary of a span set.
struct SpanSummary {
  std::vector<double> durations_us;  ///< one per span, in record order
  double self_ns_total = 0.0;
};

/// Groups spans by name. Names are compared by content.
[[nodiscard]] std::vector<std::pair<std::string, SpanSummary>> summarise(
    const std::vector<Span>& spans);

}  // namespace perfbench
