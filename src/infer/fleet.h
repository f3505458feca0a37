// Replicated serving fleet (DESIGN.md §11): N ContinuousBatcher replicas —
// each with its own simulated device, KV cache, and arena — behind a router.
//
// The router owns the request lifecycle; replicas own slots and decode:
//
//   [dispatch]  arrivals go to a replica by policy — join-shortest-queue
//               (queued + resident load), or HEDGED: JSQ plus a duplicate
//               dispatch to a second replica once a request's first copy is
//               outstanding past a latency percentile of recent completions
//               (the classic tail-at-scale move); first copy to finish wins,
//               the loser is cancelled.
//   [step]      discrete-event co-simulation: each iteration steps the
//               live replica with work whose device clock is furthest
//               behind, so the per-replica clocks interleave like real
//               concurrent servers and "fleet time" is their minimum.
//   [failure]   a replica whose step throws simgpu::DeviceLostError is dead:
//               its queued and resident requests are EVACUATED and
//               re-dispatched elsewhere. A resident's continuation prompt is
//               its original prompt + the tokens already generated — under
//               the (seed, step, slot) counter-RNG the re-prefill rebuilds
//               the KV bitwise (execute mode, FP32), so the regenerated
//               stream is token-exact with the unfaulted run. A replica
//               whose decode exhausts its transient-alloc retry budget is
//               QUARANTINED instead: evacuated, idled for a doubling
//               backoff, then eligible again — a flapping replica backs off
//               the rotation rather than monopolizing the queue.
//   [reload]    rolling zero-downtime reload: snapshot the parameters once
//               (core::AsyncCheckpointer::snapshot_params), then drain one
//               replica at a time — queue handed to its peers, residents
//               allowed to finish — restore the snapshot into it, and
//               rejoin. Zero requests dropped; the fleet never has fewer
//               than N-1 replicas admitting.
//
// Re-dispatch bookkeeping keeps the ORIGINAL arrival time on every hand-over
// (Request::enqueue_us carries the re-enqueue time), so queue-wait and p99
// statistics are never flattered by a failure — a re-dispatched request's
// latency includes everything since its first arrival.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/session.h"
#include "infer/batcher.h"
#include "simgpu/fault.h"

namespace ls2::infer {

enum class DispatchPolicy {
  kJoinShortestQueue,  ///< least queued+resident load; ties to lowest index
  kHedged,             ///< JSQ + tail-latency duplicate dispatch
};

struct FleetConfig {
  int replicas = 2;
  DispatchPolicy policy = DispatchPolicy::kJoinShortestQueue;

  /// Per-replica engine knobs (shedding, deadlines, decode retries).
  ServeConfig serve;
  /// Session template: mode/dtype/profile knobs, copied per replica. arena_bytes is sized by the fleet via serve_capacity_scan
  /// (continuation prompts can approach max_len, so the scan probes the
  /// worst case) unless set explicitly here.
  core::SessionConfig session;
  /// Every replica builds this model from `model_seed` — identical
  /// parameters, so any replica can continue any request.
  models::Gpt2Config model;
  uint64_t model_seed = 31;
  int64_t slots = 4;
  int64_t max_len = 144;
  /// Paged-KV overrides for every replica's cache. 0 keeps the model
  /// default page size; prefix_sharing lets a re-dispatched continuation
  /// (original prompt + generated prefix) reuse full pages that any earlier
  /// residency of the same stream already filled.
  int64_t page_tokens = 0;
  bool prefix_sharing = false;

  /// Hedging (policy == kHedged): the floor of the hedge threshold, also
  /// the threshold while the ECDF of recent dispatch-to-done times is cold
  /// — never hedge faster than this.
  double hedge_min_us = 2000.0;

  /// >0: at this fleet time, start a rolling reload of every replica from a
  /// fresh parameter snapshot. 0 = never.
  double reload_at_us = 0;

  /// Per-replica fault plans (index = replica; missing/empty = fault-free).
  std::vector<simgpu::FaultPlan> fault_plans;

  /// Record per-replica timelines so write_chrome_trace can merge them.
  bool record_timeline = false;
};

struct FleetReport {
  /// One entry per ORIGINAL request (router id order), stitched across every
  /// dispatch: tokens are the concatenation over re-dispatches, admitted /
  /// first-token times are the earliest, latency runs from first arrival.
  std::vector<RequestStats> requests;
  int64_t served = 0;  ///< completed (possibly after re-dispatch / partial)
  int64_t shed = 0;    ///< refused: engine shedding or router budget exhausted
  int64_t lost = 0;    ///< dropped with no completion and no shed — always 0
  // --- router events ---
  int64_t redispatches = 0;      ///< evacuation hand-overs
  int64_t deaths = 0;            ///< replicas lost to DeviceLostError
  int64_t quarantines = 0;       ///< retry-budget-exhausted backoffs
  int64_t reloads = 0;           ///< replicas rolled to the snapshot
  int64_t hedges_fired = 0;
  int64_t hedge_wins = 0;        ///< hedge copy finished first
  int64_t hedge_cancels = 0;     ///< loser copies cancelled (or too late)
  // --- aggregates over all replicas ---
  int64_t decode_steps = 0;
  int64_t replayed_steps = 0;
  int64_t generated_tokens = 0;
  int64_t decode_retries = 0;
  double makespan_us = 0;      ///< max replica clock at drain, from the fleet's start
  double tokens_per_sec = 0;
  double p50_latency_us = 0, p99_latency_us = 0, mean_latency_us = 0;
  /// Per-replica engine reports (index = replica), for attribution.
  std::vector<ServeReport> replica_reports;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig cfg);
  ~Fleet();

  /// Serve every request to completion (or shed) across the fleet. One run
  /// per Fleet instance.
  FleetReport run(std::vector<Request> requests);

  /// Merge the per-replica timelines (busy/comm spans, fault/hedge instant
  /// markers) into one Chrome trace: one trace process per replica. Call
  /// after run(), with FleetConfig::record_timeline set.
  void write_chrome_trace(const std::string& path) const;

  int live_replicas() const;

 private:
  struct Replica {
    std::unique_ptr<core::Session> session;
    std::unique_ptr<models::Gpt2> model;
    std::unique_ptr<KvCache> cache;
    std::unique_ptr<ContinuousBatcher> engine;
    std::unique_ptr<simgpu::FaultInjector> injector;
    int64_t decode_steps = 0;  ///< injector arming counter (decode steps run)
    bool alive = true;
    int quarantines = 0;
    bool reloaded = false;
    ServeReport report;
  };

  /// A request as the router tracks it: the original plus everything
  /// accumulated across dispatches.
  struct Tracked {
    Request base;
    std::vector<int32_t> tokens;  ///< concatenated over dispatches
    double admitted_us = 0;       ///< earliest across dispatches
    double first_token_us = 0;
    int dispatches = 0;  ///< total submits (first + re-dispatches + hedges)
    int redispatches = 0;
    bool hedged = false;
    bool done = false, shed = false, deadline_retired = false;
    double done_us = 0;
  };

  /// One in-flight submission of a tracked request to a replica.
  struct Dispatch {
    int64_t dispatch_id = 0;
    size_t tracked = 0;  ///< index into tracked_
    int replica = 0;
    double dispatched_us = 0;
    bool hedge = false;  ///< a duplicate copy, not the primary
  };

  double fleet_now() const;
  /// Join-shortest-queue choice among live, admitting replicas; `avoid`
  /// (>=0) is excluded (the hedge's primary / the evacuated replica when
  /// possible).
  int pick_replica(int avoid) const;
  bool admitting(const Replica& r) const;
  void dispatch_to(size_t tracked, int replica, double now, bool hedge);
  /// Re-dispatch an evacuated/timed-out request: continuation prompt =
  /// original prompt + accumulated tokens; sheds when the budget is spent.
  void redispatch(size_t tracked, int from_replica, double now);
  /// Move requests evacuated from `from_replica` on: drop each one's
  /// dispatch, then absorb its partial tokens and re-dispatch it unless a
  /// sibling copy (hedge) is still in flight.
  void hand_over(const std::vector<ContinuousBatcher::Evacuated>& evacuated,
                 int from_replica, double now);
  /// True while any dispatch of `tracked` is in flight.
  bool in_flight(size_t tracked) const;
  void absorb_partial(size_t tracked, const RequestStats& partial);
  void handle_completions(int replica, double now);
  void hedge_scan(double now);
  void reload_tick(double now);
  void step_replica(int r);
  void finalize(FleetReport& out);

  FleetConfig cfg_;
  std::vector<Replica> replicas_;
  std::vector<Tracked> tracked_;
  std::vector<Dispatch> inflight_;
  std::vector<size_t> router_backlog_;  ///< tracked indices awaiting a replica
  std::vector<double> dispatch_latencies_;  ///< dispatch-to-done ECDF feed
  int64_t next_dispatch_id_ = 1;
  int64_t completed_ = 0;
  // rolling-reload state machine
  core::CheckpointSnapshot reload_snap_;
  int reload_index_ = -1;  ///< replica currently draining; -1 = idle/done
  bool reload_started_ = false;
  FleetReport report_;
  bool ran_ = false;
  /// The replicas' longest start-up: fleet time 0 on their device clocks.
  double opened_us_ = 0;
  /// Fleet-level rolling SLO (prefix "fleet"): end-to-end latency from the
  /// ORIGINAL arrival across re-dispatches — the client's view, where the
  /// per-replica monitors see only their own slice. Engaged when the
  /// session template carries a MetricsRegistry.
  std::optional<obs::SloMonitor> slo_;
  /// The shared registry (via any replica's session), or null.
  obs::MetricsRegistry* metrics() const;
};

}  // namespace ls2::infer
