#include "trace.hpp"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = ++next;
  return index;
}

/// Length of the union of `intervals`, each clipped to [lo, hi].
Clock::duration covered(std::vector<std::pair<Clock::time_point,
                                              Clock::time_point>> intervals,
                        Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end());
  Clock::duration total{0};
  Clock::time_point reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    total += end - start;
    reach = end;
  }
  return total;
}

}  // namespace

void Tracer::add(Span span) {
  if (span.tid == 0) span.tid = this_thread_index();
  if (span.id == 0) span.id = next_id();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint64_t Tracer::add(const char* name, Clock::time_point start,
                          Clock::time_point end, std::uint64_t parent,
                          std::int64_t group, std::uint64_t id) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.group = group;
  span.id = id != 0 ? id : next_id();
  add(span);
  return span.id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds(std::uint64_t root) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) children[span.parent].push_back(&span);

  std::vector<const Span*> todo;  // root, then its descendants
  for (const Span& span : spans_) {
    if (span.id == root) todo.push_back(&span);
  }
  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (auto it = children.find(todo[i]->id); it != children.end()) {
      todo.insert(todo.end(), it->second.begin(), it->second.end());
    }
  }

  std::map<std::string, double> self;
  for (const Span* span : todo) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
    if (auto it = children.find(span->id); it != children.end()) {
      for (const Span* kid : it->second) kids.emplace_back(kid->start, kid->end);
    }
    const auto own = (span->end - span->start) -
                     covered(std::move(kids), span->start, span->end);
    self[span->name] += std::chrono::duration<double>(own).count();
  }
  return self;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  Clock::time_point origin = spans_.empty() ? Clock::time_point{}
                                            : spans_.front().start;
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %llu, \"parent\": %llu, \"group\": "
                  "%lld}}%s\n",
                  span.name,
                  static_cast<int>(std::strcspn(span.name, ".")), span.name,
                  span.tid, us(span.start), us(span.end) - us(span.start),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<long long>(span.group),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

InstructionCounter::InstructionCounter() {
  perf_event_attr attr{};
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &attr, 0 /* this thread */,
                            -1 /* any cpu */, -1 /* no group */, 0UL);
  if (fd < 0) {
    error_ = std::string("perf_event_open: ") + std::strerror(errno);
    return;
  }
  fd_ = static_cast<int>(fd);
}

InstructionCounter::~InstructionCounter() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t InstructionCounter::read() const {
  if (fd_ < 0) return 0;
  std::uint64_t value = 0;
  if (::read(fd_, &value, sizeof value) != sizeof value) return 0;
  return value;
}

}  // namespace perfbench
