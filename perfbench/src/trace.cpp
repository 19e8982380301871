#include "trace.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace perfbench {

std::int32_t SpanRecorder::open(const char* name, std::int64_t id) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, id});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& parent = spans.at(static_cast<std::size_t>(s.parent));
    // Only the part of the child inside the parent's interval counts.
    const std::int64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) self[static_cast<std::size_t>(s.parent)] -= hi - lo;
  }
  return self;
}

std::vector<std::pair<std::string, SpanSummary>> summarise(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& summary = by_name[spans[i].name];
    summary.durations_us.push_back(
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
    summary.self_ns_total += static_cast<double>(self[i]);
  }
  return {by_name.begin(), by_name.end()};
}

}  // namespace perfbench
