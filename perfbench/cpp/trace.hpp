// The benchmark's own tracing: spans recorded around every call the
// benchmark makes into a layer, kept in memory and written out at the end
// as Chrome trace-event JSON (chrome://tracing and ui.perfetto.dev open
// it). Spans carry a parent id and a group id: the spans of one hour or
// one query share the group. Recording is off unless the run asks for a
// trace, so the untraced measurement pays nothing for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t group = -1;   ///< hour or query the span belongs to
  std::uint32_t tid = 0;     ///< small per-thread index for the viewer
};

class Tracer {
 public:
  /// A fresh span id (never 0). Thread-safe.
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span. Thread-safe.
  void add(Span span);

  /// Convenience: records [start, end) under `parent` and returns its id.
  std::uint64_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::int64_t group = -1, std::uint64_t id = 0);

  /// Self time per span name, in seconds, over the span `root` and its
  /// descendants: each span's duration minus the part of it its direct
  /// children cover.
  std::map<std::string, double> self_seconds(std::uint64_t root) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).
  void write_chrome_json(const std::filesystem::path& path) const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{0};
};

/// Records one span over its scope (no-op when the tracer is null).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
             std::int64_t group = -1)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        group_(group),
        id_(tracer ? tracer->next_id() : 0),
        start_(tracer ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->add(name_, start_, Clock::now(), parent_, group_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::int64_t group_;
  std::uint64_t id_;
  Clock::time_point start_;
};

/// User-mode instructions retired by the thread that constructed the
/// counter, read through perf_event_open(2). Reads from another thread
/// still see the owner's count, so callers check on_owner_thread(). Where
/// the counter is missing (no PMU in the guest, perf_event_paranoid too
/// strict) ok() is false, read() returns 0 and error() says why.
class InstructionCounter {
 public:
  InstructionCounter();
  ~InstructionCounter();
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }
  bool on_owner_thread() const noexcept {
    return std::this_thread::get_id() == owner_;
  }
  const std::string& error() const noexcept { return error_; }
  std::uint64_t read() const;

 private:
  int fd_ = -1;
  std::thread::id owner_ = std::this_thread::get_id();
  std::string error_;
};

}  // namespace perfbench
