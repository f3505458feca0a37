// Request scheduling for the serving engine: continuous batching vs the
// static-wave baseline.
//
// The engine owns one steady-state DECODE loop over a fixed set of decode
// lanes backed by the paged KV cache. Each engine step is:
//
//   [admissions]  arrived requests allocate a lane + pages (shared-prefix
//                 pages reused); each prompt runs one eager prefill (B=1)
//                 over the rows no shared page holds, which writes their
//                 K/V and samples the first token — never captured, shapes
//                 vary per prompt;
//   [extend]      every resident sequence backs its next append row
//                 (KvCache::extend — page allocation and COW copies, all
//                 outside the captured region); when the pool runs dry the
//                 lowest-priority resident is PREEMPTED: its tokens fold
//                 into a continuation prompt re-queued at the front;
//   [decode]      ONE static-shape decode step over ALL lanes (inactive
//                 lanes attend nothing and are ignored) — the region
//                 core::Session::begin_decode_step captures once and then
//                 replays as a single graph launch;
//   [retire]      finished sequences free their lane and pages immediately.
//
// Continuous batching (FastSeq/Orca discipline) admits into any free slot
// every step, so the decode batch stays full under load; the static
// baseline admits a wave only when ALL slots are empty and pays the
// straggler tail — the gap bench/fig_serve.cc measures.
//
// Two driving modes share the same machinery:
//   * serve() — the single-replica loop: feed arrivals, step until drained.
//   * the STEPWISE API (begin / submit / step / finish, plus the router
//     hooks evacuate / cancel / take_completed / set_draining) — what an
//     infer::Fleet replica runs under: the ROUTER owns the clock-advance
//     policy and request lifecycle, the engine owns slots and decode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "infer/generator.h"
#include "infer/kv_cache.h"
#include "models/gpt2.h"
#include "obs/slo.h"

namespace ls2::infer {

enum class BatchMode {
  kContinuous,  ///< admit into free slots every step
  kStatic,      ///< admit a wave only when the batch has fully drained
};

struct ServeConfig {
  BatchMode mode = BatchMode::kContinuous;
  SamplingConfig sampling;  ///< greedy by default
  /// >= 0: retire a sequence when it samples this token (execute mode only —
  /// model-only runs have no real logits and retire on gen_len alone).
  int32_t eos_id = -1;

  // --- graceful degradation under overload / faults (DESIGN.md §10).
  // Defaults keep every knob OFF: serve() behaves exactly as before.
  /// >0: a request still queued this long after its ENQUEUE (arrival, or the
  /// router's re-dispatch time — see Request::enqueue_us) is SHED (rejected
  /// with an error to the client) instead of waiting unboundedly — queue
  /// time is bounded, so tail latency of admitted requests is too.
  double admission_timeout_us = 0;
  /// >0: backpressure — when more than this many arrived requests are
  /// waiting for a slot, the newest arrivals are shed immediately. Bounds
  /// the queue (and therefore p99) during bursts at the cost of errors.
  int64_t max_queue = 0;
  /// >0: per-request completion deadline (from the ORIGINAL arrival, which
  /// survives router re-dispatch). A resident sequence that crosses it
  /// retires early with whatever it generated — a partial answer within the
  /// SLO rather than a complete one outside it.
  double deadline_us = 0;
  /// Retry budget for a decode step that hits a TRANSIENT allocation
  /// failure (mem::TransientAllocFailure, e.g. injected via the fault
  /// plan): the aborted step's arena state is rewound and the step rerun
  /// after an idle backoff. Exhausting the budget rethrows.
  int decode_retries = 2;
  /// Idle time charged before each retry; doubles per attempt.
  double retry_backoff_us = 200.0;
  /// Metric-name prefix for this engine's telemetry when the session has a
  /// registry (SessionConfig::metrics): "<prefix>.served_total",
  /// "<prefix>.slo.p99_us", ... The fleet sets "replica<i>.serve" so every
  /// replica's series are attributable in one shared registry.
  std::string metrics_prefix = "serve";
};

/// Per-request serving knobs, carried with the request through submit(),
/// Fleet dispatch/re-dispatch, and the fault-tolerance retry path — one
/// struct instead of per-field plumbing. Every field except gen_len is an
/// override of the ServeConfig default (sentinel = inherit).
struct RequestSpec {
  /// Tokens to generate — a cap: EOS (execute mode) or the sequence's K/V
  /// capacity (prompt + generated reaching KvCacheConfig::seq_tokens) may
  /// retire the sequence earlier.
  int64_t gen_len = 1;
  /// >0: per-request completion deadline overriding ServeConfig::deadline_us
  /// (from the ORIGINAL arrival — survives router re-dispatch).
  double deadline_us = 0;
  /// >=0: per-request stop token overriding ServeConfig::eos_id.
  int32_t eos_id = -1;
  /// Admission and preemption rank: higher admits first; lower is evicted
  /// first when the page pool runs dry. Ties break oldest-first (admission)
  /// / newest-first (eviction).
  int32_t priority = 0;
};

struct Request {
  int64_t id = 0;
  std::vector<int32_t> prompt;
  RequestSpec spec;
  double arrival_us = 0;
  /// 0: same as arrival_us. A router RE-DISPATCH (replica death, drain,
  /// transient-fault retry) sets this to the re-enqueue time while
  /// arrival_us keeps the ORIGINAL arrival — so queue-wait and latency
  /// stats are never flattered by re-admission. Policy split: the admission
  /// timeout keys off enqueue() (each dispatch gets its queue-time bound),
  /// the SLO deadline and all latency stats key off arrival_us.
  double enqueue_us = 0;
  double enqueue() const { return enqueue_us > 0 ? enqueue_us : arrival_us; }
};

struct RequestStats {
  int64_t id = 0;
  double arrival_us = 0;
  double admitted_us = 0;     ///< slot claimed + prefill issued
  double first_token_us = 0;  ///< first generated token available
  double done_us = 0;
  int64_t prompt_len = 0;
  int64_t generated = 0;
  /// The generated ids (real samples in execute mode, the deterministic
  /// stand-ins in model-only runs) — what the replay-parity test compares.
  std::vector<int32_t> tokens;
  /// Load-shed before admission (timeout or queue bound): never decoded;
  /// excluded from the latency percentiles.
  bool shed = false;
  /// Retired by ServeConfig::deadline_us with a partial generation.
  bool deadline_retired = false;
  /// Removed by the router before completing here — evacuated to another
  /// replica or hedge-cancelled. Excluded from this engine's latency stats;
  /// the fleet stitches the full story across replicas.
  bool cancelled = false;
  double latency_us() const { return done_us - arrival_us; }
  double queue_us() const { return admitted_us - arrival_us; }
};

struct ServeReport {
  std::vector<RequestStats> requests;
  int64_t prefills = 0;
  /// Prompt rows prefills ran through the model — rows held by shared
  /// prefix pages are skipped, so sharing shrinks this below the prompt
  /// tokens admitted.
  int64_t prefill_rows = 0;
  int64_t decode_steps = 0;
  int64_t replayed_steps = 0;    ///< decode steps run as one graph launch
  int64_t generated_tokens = 0;
  double makespan_us = 0;
  double tokens_per_sec = 0;     ///< generated tokens / makespan
  /// Latency stats cover SERVED requests only (shed ones got an error
  /// response, not a slow one — mixing them in would corrupt the tail).
  double p50_latency_us = 0, p99_latency_us = 0, mean_latency_us = 0;
  int64_t served = 0;            ///< requests that completed (incl. partial)
  int64_t shed_requests = 0;     ///< rejected by timeout / queue bound
  int64_t deadline_retired = 0;  ///< retired early with a partial answer
  int64_t decode_retries = 0;    ///< decode steps rerun after transient faults
  // --- paged-KV telemetry (fig_page's evidence) ---
  int64_t peak_resident = 0;       ///< max concurrently resident sequences
  int64_t peak_pages_used = 0;     ///< max pool pages live at once
  int64_t prefill_page_allocs = 0; ///< fresh pages claimed by prompt prefills
  int64_t shared_page_hits = 0;    ///< prefix pages reused instead of allocated
  int64_t cow_copies = 0;          ///< shared tail pages copied on first write
  int64_t preemptions = 0;         ///< sequences evicted (recompute) on pool exhaustion
};

class ContinuousBatcher {
 public:
  ContinuousBatcher(core::Session& session, models::Gpt2& model, KvCache& cache,
                    ServeConfig cfg = {});

  /// Serve every request to completion; requests may arrive in any order.
  ServeReport serve(std::vector<Request> requests);

  // --- stepwise API (fleet-driven; DESIGN.md §11) -------------------------

  /// Reset the engine for a router-driven run. Must precede submit()/step().
  void begin();
  /// Hand a request to this engine's queue. The router submits only ARRIVED
  /// requests (enqueue() <= this replica's clock); re-dispatches keep the
  /// original arrival_us and set enqueue_us to the hand-over time.
  void submit(Request r);
  /// One engine iteration: admissions, then — if anything is resident —
  /// one decode step with harvest/retire. Returns true when a decode step
  /// ran; false means the engine is idle and the ROUTER decides how far to
  /// advance this replica's clock. May throw simgpu::DeviceLostError (the
  /// replica died — evacuate()) or mem::TransientAllocFailure (retry budget
  /// exhausted — quarantine + evacuate()).
  bool step();
  /// Drain mode: stop admitting from the queue (residents keep decoding).
  /// The rolling-reload path: drain, wait for resident()==0, reload, rejoin.
  void set_draining(bool on) { draining_ = on; }
  bool draining() const { return draining_; }
  bool has_work() const { return !pending_.empty() || cache_->active_seqs() > 0; }
  /// Arrived requests waiting for a lane (queue pressure — the JSQ signal).
  int64_t queue_depth() const { return static_cast<int64_t>(pending_.size()); }
  int64_t resident() const { return cache_->active_seqs(); }

  /// A request pulled off this engine before completing: the request AS
  /// SUBMITTED here plus its partial stats (tokens generated so far,
  /// admission timestamps). The router re-dispatches prompt + prefix.
  struct Evacuated {
    Request req;
    RequestStats partial;
  };
  /// Pull every queued (and, unless `queued_only`, resident) request off
  /// the engine — the death / quarantine / drain hand-over. Slots are
  /// released and the evacuees marked cancelled on this engine's books.
  std::vector<Evacuated> evacuate(bool queued_only = false);
  /// Cancel one request by submitted id (the hedge loser): removed from the
  /// queue or its slot released. False when it already completed (too late).
  bool cancel(int64_t id);
  /// Drain the completion events (done or shed — not router-cancelled)
  /// recorded since the last call. The fleet's merge feed.
  std::vector<RequestStats> take_completed();
  /// Close the run and compute the report (percentiles over this engine's
  /// non-cancelled, non-shed completions).
  ServeReport finish();

  const ServeConfig& config() const { return cfg_; }

 private:
  struct SlotState {
    int64_t req = -1;        ///< index into the request vector; -1 free
    SequenceHandle handle;   ///< this lane's KV sequence
    int64_t generated = 0;
    /// st.tokens.size() at (re-)admission: tokens at or past this index were
    /// generated by THIS residency — a preemption folds them into the
    /// continuation prompt; earlier ones are already part of it.
    int64_t admitted_tokens = 0;
    int32_t next_token = 0;  ///< fed to the next decode step
  };

  /// Try to claim a lane + pages for request `r`: prefill its prompt
  /// (eager; rows in shared prefix pages are neither recomputed nor
  /// rewritten) and sample the next token. False when the cache can't place
  /// it (no lane or pages) — the caller treats the batch as full. A prefill
  /// that throws frees the sequence first: the request stays queued and
  /// nothing of it stays in the cache.
  bool admit(size_t r);
  /// Reject request `r` (overload shed): it completes immediately with an
  /// error and no tokens.
  void shed(size_t r, double now);
  /// Admission scan with the degradation knobs: timeout sheds, lane claims,
  /// queue-bound backpressure — over the pending queue, highest priority
  /// first, oldest first within a priority.
  void run_admissions();
  /// The decode step (with transient-fault retries) + harvest/retire.
  void decode_once();
  /// Back every resident lane's next append row (KvCache::extend), evicting
  /// victims to the front of the queue when the page pool runs dry — the
  /// recompute-preemption discipline. Runs before the captured region.
  void extend_residents();
  /// Evict lane `s`: fold its generated tokens into a continuation prompt
  /// re-queued at the FRONT (or complete it with the partial answer when
  /// the continuation could no longer fit), then free its pages.
  void preempt(int64_t s, double now);
  /// Retire lane `s` as complete.
  void retire(int64_t s, bool expired);
  int32_t harvest_token(const Tensor& sampled, int64_t row, int64_t slot,
                        int64_t generated) const;

  core::Session* session_;
  models::Gpt2* model_;
  KvCache* cache_;
  ServeConfig cfg_;
  Generator gen_;
  // engine state (serve() and the stepwise API share it)
  std::vector<Request> reqs_;
  std::vector<size_t> pending_;  ///< queued request indices, enqueue order
  std::vector<SlotState> slots_;
  std::vector<RequestStats> stats_;
  std::vector<size_t> completed_new_;  ///< completions since take_completed()
  ServeReport report_;
  int64_t done_ = 0;
  bool draining_ = false;
  bool begun_ = false;
  double start_us_ = 0;
  Tensor ids_, sampled_;  ///< static decode-step input/output tensors
  /// Live SLO telemetry (DESIGN.md §12); engaged by begin() iff the session
  /// carries a MetricsRegistry. Gauges refresh every step(), not at finish.
  std::optional<obs::SloMonitor> slo_;
};

/// Poisson arrivals for benches/tests: `n` requests at `rate_per_sec`, with
/// prompt lengths uniform in [prompt_lo, prompt_hi] and generation lengths
/// uniform in [gen_lo, gen_hi] — all drawn from the counter RNG, so a
/// workload is reproducible from its seed.
std::vector<Request> poisson_requests(int64_t n, double rate_per_sec, int64_t prompt_lo,
                                      int64_t prompt_hi, int64_t gen_lo, int64_t gen_hi,
                                      int64_t vocab, uint64_t seed);

/// Arena sizing for a serving session (the capacity-scan discipline of
/// §IV-D applied to the serving step): probes one full-slot padded prefill
/// plus one decode step against a peak-tracking allocator and returns a
/// capacity for SessionConfig::arena_bytes.
size_t serve_capacity_scan(const models::Gpt2Config& cfg, DType dtype, int64_t slots,
                           int64_t max_len, int64_t max_prompt_len, uint64_t seed = 17);

}  // namespace ls2::infer
