#include "simgpu/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/check.h"

namespace ls2::simgpu {

void Timeline::record_memory(double t_us, int64_t bytes_in_use) {
  memory_.push_back({t_us, bytes_in_use});
}

namespace {

// Merge with the previous span when contiguous to keep the vector small.
void append_span(std::vector<BusySpan>& spans, double begin_us, double end_us) {
  if (end_us <= begin_us) return;
  if (!spans.empty() && std::abs(spans.back().end_us - begin_us) < 1e-9) {
    spans.back().end_us = end_us;
    return;
  }
  spans.push_back({begin_us, end_us});
}

}  // namespace

void Timeline::record_busy(double begin_us, double end_us) {
  append_span(busy_, begin_us, end_us);
}

void Timeline::record_comm(double begin_us, double end_us) {
  append_span(comm_, begin_us, end_us);
}

void Timeline::record_span(int pid, int tid, std::string name, double begin_us,
                           double end_us) {
  if (end_us <= begin_us) return;
  named_.push_back({pid, tid, std::move(name), begin_us, end_us});
}

void Timeline::record_instant(int pid, int tid, std::string name, double t_us) {
  instants_.push_back({pid, tid, std::move(name), t_us});
}

void Timeline::name_process(int pid, std::string name) {
  process_names_.emplace_back(pid, std::move(name));
}

void Timeline::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  LS2_CHECK(out.good()) << "cannot open " << path;
  out << "{\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  auto emit = [&](const char* text) {
    if (!first) out << ",\n";
    first = false;
    out << text;
  };
  // Track names (one fake process, one thread per stream).
  emit("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"compute stream\"}}");
  emit("{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"comm stream\"}}");
  // Per-rank process lanes (pipeline runs) plus their stream thread names.
  std::vector<int> named_pids;
  for (const auto& [pid, name] : process_names_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  pid, name.c_str());
    emit(buf);
    named_pids.push_back(pid);
  }
  for (const NamedSpan& s : named_) {
    if (std::find(named_pids.begin(), named_pids.end(), s.pid) != named_pids.end()) {
      continue;
    }
    named_pids.push_back(s.pid);
  }
  for (int pid : named_pids) {
    if (pid == 0) continue;  // pid 0's thread names were emitted above
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"compute stream\"}}",
                  pid);
    emit(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"comm stream\"}}",
                  pid);
    emit(buf);
  }
  // The pipeline lanes (NamedSpan::tid 2-4), named where a span uses them.
  static const char* const kPipelineLanes[] = {"dp rings", "1f1b chunks", "p2p sends"};
  std::set<std::pair<int, int>> pipeline_lanes;
  for (const NamedSpan& s : named_)
    if (s.tid >= 2 && s.tid <= 4) pipeline_lanes.insert({s.pid, s.tid});
  for (const auto& [pid, tid] : pipeline_lanes) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  pid, tid, kPipelineLanes[tid - 2]);
    emit(buf);
  }
  // Complete ("X") events per busy/comm span; ts/dur are microseconds,
  // which is exactly the simulated clock's unit.
  for (const BusySpan& s : busy_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"busy\","
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  s.begin_us, s.end_us - s.begin_us);
    emit(buf);
  }
  for (const BusySpan& s : comm_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"comm\","
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  s.begin_us, s.end_us - s.begin_us);
    emit(buf);
  }
  // Labelled stage/microbatch/span chunks on their rank's lanes, as
  // balanced duration-begin/-end ("B"/"E") pairs so nested telemetry spans
  // (step > stage > bucket > kernel-range) stack in the viewer. Events are
  // sorted by timestamp; at equal timestamps ends precede begins (adjacent
  // spans don't overlap), outer begins precede inner ones (longer first)
  // and inner ends precede outer ones (shorter first), which keeps every
  // lane's B/E sequence properly nested.
  struct SpanEvent {
    bool is_begin;
    double ts;
    double dur;
    const NamedSpan* span;
  };
  std::vector<SpanEvent> events;
  events.reserve(named_.size() * 2);
  for (const NamedSpan& s : named_) {
    events.push_back({true, s.begin_us, s.end_us - s.begin_us, &s});
    events.push_back({false, s.end_us, s.end_us - s.begin_us, &s});
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.is_begin != b.is_begin) return !a.is_begin;  // E before B
              if (a.dur != b.dur)
                return a.is_begin ? a.dur > b.dur : a.dur < b.dur;
              // Identical-extent spans: close in reverse open order (LIFO).
              return a.is_begin ? a.span->name < b.span->name
                                : a.span->name > b.span->name;
            });
  for (const SpanEvent& e : events) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                  "\"ts\":%.3f}",
                  e.is_begin ? 'B' : 'E', e.span->pid, e.span->tid,
                  e.span->name.c_str(), e.ts);
    emit(buf);
  }
  // Fault/retry markers as thread-scoped instant events (rendered as small
  // arrows at their moment on the lane).
  for (const InstantEvent& e : instants_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                  "\"ts\":%.3f,\"s\":\"t\"}",
                  e.pid, e.tid, e.name.c_str(), e.t_us);
    emit(buf);
  }
  // Memory watermark as a counter series (renders as an area chart).
  for (const MemorySample& m : memory_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"C\",\"pid\":0,\"name\":\"memory\",\"ts\":%.3f,"
                  "\"args\":{\"bytes_in_use\":%lld}}",
                  m.t_us, static_cast<long long>(m.bytes));
    emit(buf);
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Timeline::clear() {
  memory_.clear();
  busy_.clear();
  comm_.clear();
  named_.clear();
  instants_.clear();
  process_names_.clear();
}

}  // namespace ls2::simgpu
