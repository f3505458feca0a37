// Recording of device activity over simulated time.
//
// The device reports busy intervals on its compute and comm streams, the
// allocator reports memory watermarks, and telemetry adds labelled spans and
// point events; the timeline exports them all as one Chrome trace.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ls2::simgpu {

struct MemorySample {
  double t_us = 0;       ///< simulated time of the event
  int64_t bytes = 0;     ///< bytes in use after the event
};

struct BusySpan {
  double begin_us = 0;
  double end_us = 0;
};

/// A labelled interval on an arbitrary (pid, tid) trace lane — used by the
/// pp > 1 train step to plot per-rank stage/microbatch chunks ("s1.mb3.F")
/// with one trace process per simulated rank and one thread per stream.
struct NamedSpan {
  int pid = 0;  ///< trace process (simulated rank)
  /// Trace thread: 0 = compute, 1 = comm; a pp > 1 step adds 2 = DP
  /// rings, 3 = solved 1F1B chunks, 4 = boundary sends.
  int tid = 0;
  std::string name;
  double begin_us = 0;
  double end_us = 0;
};

/// A point event on a (pid, tid) lane — fault/retry markers (device loss,
/// decode retries, hedge fires/cancels) that have a moment but no duration.
/// Rendered as Chrome trace "instant" events, so failures are visible on
/// the same timeline as the work they interrupted.
struct InstantEvent {
  int pid = 0;
  int tid = 0;
  std::string name;
  double t_us = 0;
};

class Timeline {
 public:
  void record_memory(double t_us, int64_t bytes_in_use);
  void record_busy(double begin_us, double end_us);
  /// Activity on the second (communication) stream — overlapped all-reduces.
  void record_comm(double begin_us, double end_us);
  /// Labelled span on rank `pid`'s lane `tid` (see NamedSpan).
  void record_span(int pid, int tid, std::string name, double begin_us, double end_us);
  /// Point event on rank `pid`'s lane `tid` (see InstantEvent).
  void record_instant(int pid, int tid, std::string name, double t_us);
  /// Display name for rank `pid`'s trace process (e.g. "rank 1 (stage 1)").
  void name_process(int pid, std::string name);

  const std::vector<BusySpan>& busy_spans() const { return busy_; }
  const std::vector<BusySpan>& comm_spans() const { return comm_; }
  const std::vector<NamedSpan>& named_spans() const { return named_; }
  const std::vector<InstantEvent>& instants() const { return instants_; }

  /// Export the recording as a Chrome trace_event JSON (open in
  /// chrome://tracing or Perfetto): compute-stream busy spans on one track,
  /// comm-stream transfers on a second, memory-in-use as a counter series.
  /// Timestamps are the simulated-device microseconds recorded here.
  void write_chrome_trace(const std::string& path) const;

  void clear();

 private:
  std::vector<MemorySample> memory_;
  std::vector<BusySpan> busy_;
  std::vector<BusySpan> comm_;
  std::vector<NamedSpan> named_;
  std::vector<InstantEvent> instants_;
  std::vector<std::pair<int, std::string>> process_names_;
};

}  // namespace ls2::simgpu
