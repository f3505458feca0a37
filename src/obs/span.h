// Unified telemetry: nestable scoped spans (DESIGN.md §12).
//
// A SpanScope is simgpu::ScopedRange plus a Chrome-trace event: while alive
// it (optionally) owns device-range attribution exactly like ScopedRange —
// innermost wins, so swapping one for the other changes no Fig. 3 number —
// and on destruction it lands a named span on the device timeline's
// (pid, tid) lane, where the trace writer emits it as a balanced B/E pair.
// pid carries rank/replica attribution (the fleet remaps per-replica pid 0
// onto replica lanes; a pp > 1 train step uses one pid per simulated rank), tid
// the stream (0 compute, 1 comm).
//
// Cost discipline: when the timeline is not recording, a SpanScope is one
// clock read and (with attribute=true) a range push/pop — the same price as
// the ScopedRange it replaces. Span nesting depth is whatever the call
// stack makes it: step → stage → bucket/microbatch → kernel-range.
#pragma once

#include <string>
#include <utility>

#include "simgpu/device.h"

namespace ls2::obs {

class SpanScope {
 public:
  /// `attribute` selects whether the span also acts as a device range
  /// (ScopedRange semantics). Pure trace envelopes — e.g. the whole-step
  /// span wrapping the stage ranges — pass false so per-range time sums
  /// (Fig. 3) keep their exact pre-span meaning.
  SpanScope(simgpu::Device& device, std::string name, int pid = 0, int tid = 0,
            bool attribute = true)
      : device_(device),
        name_(std::move(name)),
        pid_(pid),
        tid_(tid),
        attribute_(attribute),
        begin_us_(device.clock_us()) {
    if (attribute_) device_.push_range(name_);
  }

  ~SpanScope() {
    if (attribute_) device_.pop_range();
    if (device_.record_timeline()) {
      const double end = device_.clock_us();
      if (end > begin_us_)
        device_.timeline().record_span(pid_, tid_, name_, begin_us_, end);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  simgpu::Device& device_;
  std::string name_;
  int pid_;
  int tid_;
  bool attribute_;
  double begin_us_;
};

}  // namespace ls2::obs
