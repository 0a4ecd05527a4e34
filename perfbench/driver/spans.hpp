// spans.hpp — the benchmark's in-memory span recorder.
//
// Spans wrap the benchmark's own calls into the program's public functions
// (scenario, simnet, obs, serve, trace); nothing inside the program is
// instrumented.  Each span records its name, host start/end on the
// steady clock, the span that caused it, the cell or request id it belongs
// to, and how many operations it covered (a batch of N in-process calls is
// one span with count N).  Spans stay in memory and are written out once,
// when the run ends.  A disabled recorder (the timed runs) records nothing
// and costs one branch per would-be span.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "trace/json.hpp"

namespace perfbench {

// Nanoseconds on std::chrono::steady_clock (CLOCK_MONOTONIC), so spans from
// a forked child process share the parent's time base.
[[nodiscard]] std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the causing span; -1 = root
  std::int64_t id = -1;      // cell index or request id; -1 = none
  std::int64_t count = 1;    // operations covered
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Open a span now; returns its index (-1 when disabled).  Thread-safe.
  std::int64_t open(std::string name, std::int64_t parent = -1, std::int64_t id = -1);
  // Close span `index` now, covering `count` operations.  Thread-safe.
  void close(std::int64_t index, std::int64_t count = 1);
  // Record an already-measured interval.  Thread-safe.
  std::int64_t add(Span span);

  [[nodiscard]] sss::trace::JsonValue to_json() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// Opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::int64_t parent = -1,
             std::int64_t id = -1)
      : recorder_(recorder), index_(recorder.open(std::move(name), parent, id)) {}
  ~ScopedSpan() { recorder_.close(index_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const { return index_; }
  void set_count(std::int64_t count) { count_ = count; }

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
  std::int64_t count_ = 1;
};

}  // namespace perfbench
