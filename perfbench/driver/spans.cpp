#include "spans.hpp"

#include <chrono>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent, std::int64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.id = id;
  span.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t index, std::int64_t count) {
  if (!enabled_ || index < 0) return;
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(index));
  span.end_ns = end;
  span.count = count;
}

std::int64_t SpanRecorder::add(Span span) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

sss::trace::JsonValue SpanRecorder::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sss::trace::JsonValue out = sss::trace::JsonValue::array();
  for (const Span& span : spans_) {
    sss::trace::JsonValue item = sss::trace::JsonValue::object();
    item["name"] = span.name;
    item["start_ns"] = span.start_ns;
    item["end_ns"] = span.end_ns;
    item["parent"] = span.parent;
    item["id"] = span.id;
    item["count"] = span.count;
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace perfbench
