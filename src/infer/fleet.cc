#include "infer/fleet.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "memory/arena_allocator.h"
#include "obs/metrics.h"

namespace ls2::infer {

namespace {
/// Hedge once a dispatch is outstanding past this percentile of recent
/// dispatch-to-done times, once the ECDF holds kHedgeMinCompletions.
constexpr double kHedgePercentile = 0.95;
constexpr size_t kHedgeMinCompletions = 8;
/// Times one request may be re-dispatched (death, quarantine, drain) before
/// the router gives up and sheds it.
constexpr int kMaxRedispatch = 3;
/// The first quarantine idles the replica this long; doubles per repeat.
constexpr double kQuarantineBaseUs = 2000.0;
}  // namespace

Fleet::Fleet(FleetConfig cfg) : cfg_(std::move(cfg)) {
  LS2_CHECK_GE(cfg_.replicas, 1);
  LS2_CHECK(cfg_.slots >= 1 && cfg_.max_len >= 2);

  core::SessionConfig sc = cfg_.session;
  sc.record_timeline = sc.record_timeline || cfg_.record_timeline;
  if (sc.arena_bytes == 0 && sc.system == layers::System::kLightSeq2) {
    // Continuation prompts (original prompt + regenerated prefix) can
    // approach the slot capacity, so the scan probes the worst case rather
    // than the workload's nominal prompt lengths.
    sc.arena_bytes = serve_capacity_scan(cfg_.model, sc.dtype, cfg_.slots,
                                         cfg_.max_len, cfg_.max_len - 1);
  }

  replicas_.resize(static_cast<size_t>(cfg_.replicas));
  for (int i = 0; i < cfg_.replicas; ++i) {
    Replica& rep = replicas_[static_cast<size_t>(i)];
    rep.session = std::make_unique<core::Session>(sc);
    // Same seed everywhere: the replicas are interchangeable — any of them
    // can continue any request, which is what re-dispatch relies on.
    rep.model = std::make_unique<models::Gpt2>(cfg_.model, sc.system, sc.dtype,
                                               cfg_.model_seed,
                                               rep.session->param_alloc());
    KvCacheConfig kcfg = rep.model->kv_cache_config(cfg_.slots, cfg_.max_len);
    if (cfg_.page_tokens > 0)
      kcfg.page_tokens = std::min(cfg_.page_tokens, kcfg.seq_tokens);
    kcfg.prefix_sharing = cfg_.prefix_sharing;
    rep.cache = std::make_unique<KvCache>(kcfg, rep.session->param_alloc());
    // All replicas share the one registry (SessionConfig::metrics) but each
    // publishes under its own prefix, so per-replica series stay
    // attributable — the registry-level analog of the per-replica trace pid.
    ServeConfig serve = cfg_.serve;
    serve.metrics_prefix = "replica" + std::to_string(i) + ".serve";
    rep.engine = std::make_unique<ContinuousBatcher>(*rep.session, *rep.model,
                                                     *rep.cache, serve);
    if (static_cast<size_t>(i) < cfg_.fault_plans.size() &&
        !cfg_.fault_plans[static_cast<size_t>(i)].events.empty()) {
      rep.injector = std::make_unique<simgpu::FaultInjector>(
          cfg_.fault_plans[static_cast<size_t>(i)], sc.collective_timeout_us);
      rep.session->device().set_fault_injector(rep.injector.get());
    }
  }
  if (obs::MetricsRegistry* m = metrics()) slo_.emplace(m, "fleet");
}

obs::MetricsRegistry* Fleet::metrics() const {
  return replicas_.empty() ? nullptr : replicas_.front().session->metrics();
}

Fleet::~Fleet() {
  for (Replica& rep : replicas_) {
    if (rep.session) rep.session->device().set_fault_injector(nullptr);
  }
}

int Fleet::live_replicas() const {
  int n = 0;
  for (const Replica& rep : replicas_)
    if (rep.alive) ++n;
  return n;
}

double Fleet::fleet_now() const {
  double now = -1;
  for (const Replica& rep : replicas_) {
    if (!rep.alive) continue;
    const double c = rep.session->device().clock_us();
    if (now < 0 || c < now) now = c;
  }
  return now < 0 ? 0 : now;
}

bool Fleet::admitting(const Replica& r) const {
  return r.alive && !r.engine->draining();
}

int Fleet::pick_replica(int avoid) const {
  // Join-shortest-queue over (queued + resident) load; ties to the lowest
  // index so the choice is deterministic.
  int best = -1;
  int64_t best_load = 0;
  for (int i = 0; i < cfg_.replicas; ++i) {
    const Replica& rep = replicas_[static_cast<size_t>(i)];
    if (i == avoid || !admitting(rep)) continue;
    const int64_t load = rep.engine->queue_depth() + rep.engine->resident();
    if (best < 0 || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  if (best >= 0) return best;
  // Nothing but `avoid` left: better a suspect replica than a stuck queue.
  if (avoid >= 0 && admitting(replicas_[static_cast<size_t>(avoid)])) return avoid;
  return -1;
}

void Fleet::dispatch_to(size_t tracked, int replica, double now, bool hedge) {
  Tracked& t = tracked_[tracked];
  Request r;
  r.id = next_dispatch_id_++;
  r.prompt = t.base.prompt;
  r.prompt.insert(r.prompt.end(), t.tokens.begin(), t.tokens.end());
  r.spec = t.base.spec;  // deadline/eos/priority travel with every hand-over
  r.spec.gen_len = t.base.spec.gen_len - static_cast<int64_t>(t.tokens.size());
  LS2_CHECK(r.spec.gen_len > 0) << "a finished request must not be re-dispatched";
  r.arrival_us = t.base.arrival_us;
  // First dispatch keeps enqueue == arrival; every hand-over (re-dispatch or
  // hedge copy) stamps the hand-over time so the engine's admission timeout
  // gets a fresh budget while latency stats keep the ORIGINAL arrival.
  r.enqueue_us = (t.dispatches == 0) ? 0 : now;

  Replica& rep = replicas_[static_cast<size_t>(replica)];
  simgpu::Device& dev = rep.session->device();
  // The hand-over cannot land in the target's past: if its clock lags the
  // fleet, it was idle until now.
  if (dev.clock_us() < r.enqueue())
    dev.advance(r.enqueue() - dev.clock_us(), /*busy=*/false, "serve.idle");

  Dispatch d;
  d.dispatch_id = r.id;
  d.tracked = tracked;
  d.replica = replica;
  d.dispatched_us = std::max(now, r.enqueue());
  d.hedge = hedge;
  rep.engine->submit(std::move(r));
  ++t.dispatches;
  inflight_.push_back(d);
}

void Fleet::redispatch(size_t tracked, int from_replica, double now) {
  Tracked& t = tracked_[tracked];
  // A sibling copy (hedge) still carries the request — drop this chain; the
  // survivor started from the same prefix, so nothing is lost.
  if (t.done || t.shed || in_flight(tracked)) return;
  if (t.redispatches >= kMaxRedispatch) {
    // Budget spent: the router answers with an error rather than letting a
    // flapping replica bounce the request forever.
    t.shed = true;
    t.done_us = now;
    ++completed_;
    return;
  }
  ++t.redispatches;
  ++report_.redispatches;
  t.hedged = false;  // the new chain may hedge again
  const int target = pick_replica(from_replica);
  if (target < 0) {
    router_backlog_.push_back(tracked);  // retried when a replica frees up
    return;
  }
  replicas_[static_cast<size_t>(target)].session->device().mark("fleet.redispatch");
  dispatch_to(tracked, target, now, /*hedge=*/false);
}

bool Fleet::in_flight(size_t tracked) const {
  return std::any_of(inflight_.begin(), inflight_.end(),
                     [&](const Dispatch& d) { return d.tracked == tracked; });
}

void Fleet::hand_over(const std::vector<ContinuousBatcher::Evacuated>& evacuated,
                      int from_replica, double now) {
  for (const auto& ev : evacuated) {
    auto it = std::find_if(inflight_.begin(), inflight_.end(),
                           [&](const Dispatch& d) { return d.dispatch_id == ev.partial.id; });
    if (it == inflight_.end()) continue;
    const size_t tracked = it->tracked;
    inflight_.erase(it);
    if (in_flight(tracked)) continue;  // the hedge copy carries it from the same prefix
    absorb_partial(tracked, ev.partial);
    redispatch(tracked, from_replica, now);
  }
}

void Fleet::absorb_partial(size_t tracked, const RequestStats& partial) {
  Tracked& t = tracked_[tracked];
  if (t.admitted_us == 0 && partial.admitted_us > 0)
    t.admitted_us = partial.admitted_us;
  if (t.first_token_us == 0 && partial.first_token_us > 0)
    t.first_token_us = partial.first_token_us;
  t.tokens.insert(t.tokens.end(), partial.tokens.begin(), partial.tokens.end());
}

void Fleet::handle_completions(int replica, double now) {
  Replica& rep = replicas_[static_cast<size_t>(replica)];
  for (const RequestStats& st : rep.engine->take_completed()) {
    auto it = std::find_if(inflight_.begin(), inflight_.end(),
                           [&](const Dispatch& d) { return d.dispatch_id == st.id; });
    if (it == inflight_.end()) continue;  // cancelled before the drain
    Dispatch d = *it;
    inflight_.erase(it);
    Tracked& t = tracked_[d.tracked];
    if (t.done || t.shed) {
      // The loser of a hedge pair finished before its cancel landed.
      ++report_.hedge_cancels;
      continue;
    }
    if (st.shed) {
      if (in_flight(d.tracked)) continue;  // the copy may still be admitted
      t.shed = true;
      t.done_us = st.done_us;
      ++completed_;
      if (slo_) slo_->on_shed(st.done_us);
      continue;
    }
    // This copy won: its token stream is the answer.
    absorb_partial(d.tracked, st);
    t.deadline_retired = st.deadline_retired;
    t.done = true;
    t.done_us = st.done_us;
    ++completed_;
    dispatch_latencies_.push_back(st.done_us - d.dispatched_us);
    if (slo_)
      slo_->on_served(t.done_us, t.done_us - t.base.arrival_us,
                      static_cast<int64_t>(t.tokens.size()));
    if (d.hedge) ++report_.hedge_wins;
    // Cancel the losers.
    for (auto o = inflight_.begin(); o != inflight_.end();) {
      if (o->tracked != d.tracked) {
        ++o;
        continue;
      }
      Replica& orep = replicas_[static_cast<size_t>(o->replica)];
      if (orep.engine->cancel(o->dispatch_id)) {
        ++report_.hedge_cancels;
        orep.session->device().mark("fleet.hedge_cancel");
      }
      o = inflight_.erase(o);
    }
  }
  if (slo_) {
    // Live rolling gauges, refreshed per completion drain — not at finalize.
    slo_->refresh(now);
    metrics()->gauge("fleet.live_replicas") = static_cast<double>(live_replicas());
    metrics()->gauge("fleet.inflight") = static_cast<double>(inflight_.size());
  }
}

void Fleet::hedge_scan(double now) {
  if (cfg_.policy != DispatchPolicy::kHedged) return;
  double threshold = cfg_.hedge_min_us;
  // The hedge ECDF stays an EXACT percentile over the recent-completion
  // vector (obs::exact_percentile — the deduplicated helper): it is a
  // dispatch decision, and the population is small.
  if (dispatch_latencies_.size() >= kHedgeMinCompletions)
    threshold = std::max(cfg_.hedge_min_us,
                         obs::exact_percentile(dispatch_latencies_, kHedgePercentile));
  std::vector<std::pair<size_t, int>> fires;  // (tracked, avoid-replica)
  for (const Dispatch& d : inflight_) {
    Tracked& t = tracked_[d.tracked];
    if (t.hedged || t.done || t.shed || d.hedge) continue;
    if (now - d.dispatched_us <= threshold) continue;
    fires.emplace_back(d.tracked, d.replica);
  }
  for (auto [tracked, avoid] : fires) {
    const int target = pick_replica(avoid);
    if (target < 0 || target == avoid) continue;  // nowhere to duplicate to
    Tracked& t = tracked_[tracked];
    t.hedged = true;
    ++report_.hedges_fired;
    replicas_[static_cast<size_t>(target)].session->device().mark("fleet.hedge_fire");
    LS2_LOG(kDebug) << "hedge fired"
                    << log_kv("req", t.base.id)
                           .kv("to_replica", target)
                           .kv("threshold_us", threshold);
    dispatch_to(tracked, target, now, /*hedge=*/true);
  }
}

void Fleet::reload_tick(double now) {
  if (cfg_.reload_at_us <= 0) return;
  if (!reload_started_) {
    if (now < cfg_.reload_at_us) return;
    // Snapshot once, from any live replica (they are interchangeable); the
    // same blobs roll into every replica, so the fleet converges on one
    // parameter version.
    for (Replica& rep : replicas_) {
      if (!rep.alive) continue;
      reload_snap_ = core::AsyncCheckpointer::snapshot_params(*rep.session,
                                                              rep.model->params());
      reload_started_ = true;
      break;
    }
    if (!reload_started_) return;  // no live replica to snapshot from
  }
  if (reload_index_ < 0) {
    for (int i = 0; i < cfg_.replicas; ++i) {
      Replica& rep = replicas_[static_cast<size_t>(i)];
      if (!rep.alive || rep.reloaded) continue;
      reload_index_ = i;
      rep.engine->set_draining(true);
      rep.session->device().mark("fleet.drain");
      // Hand the waiting line to the peers; residents finish where they are.
      hand_over(rep.engine->evacuate(/*queued_only=*/true), i, now);
      break;
    }
    if (reload_index_ < 0) return;  // every live replica reloaded: done
  }
  Replica& rep = replicas_[static_cast<size_t>(reload_index_)];
  if (!rep.alive) {  // died mid-drain; move on to the next one
    reload_index_ = -1;
    return;
  }
  if (rep.engine->resident() > 0) return;  // still draining
  simgpu::Device& dev = rep.session->device();
  // The snapshot is only usable once its host drain completed.
  if (dev.clock_us() < reload_snap_.ready_us)
    dev.advance(reload_snap_.ready_us - dev.clock_us(), /*busy=*/false,
                "fleet.reload_wait");
  core::AsyncCheckpointer::restore_params(reload_snap_, *rep.session,
                                          rep.model->params());
  rep.cache->reset();
  rep.engine->set_draining(false);
  rep.reloaded = true;
  ++report_.reloads;
  dev.mark("fleet.reload");
  LS2_LOG(kDebug) << "replica reloaded"
                  << log_kv("replica", reload_index_).kv("t_us", dev.clock_us());
  reload_index_ = -1;
}

void Fleet::step_replica(int r) {
  Replica& rep = replicas_[static_cast<size_t>(r)];
  simgpu::Device& dev = rep.session->device();
  if (rep.injector) rep.injector->arm(rep.decode_steps);
  const int64_t spikes_before = rep.injector ? rep.injector->kernel_spikes() : 0;
  try {
    const bool decoded = rep.engine->step();
    if (decoded) {
      ++rep.decode_steps;
      if (rep.injector && rep.injector->kernel_spikes() > spikes_before)
        dev.mark("fault.kernel_spike");
    } else if (rep.engine->has_work()) {
      // Defensive: an engine that reports work but cannot progress must not
      // spin the event loop at a frozen clock.
      dev.advance(1.0, /*busy=*/false, "serve.idle");
    }
  } catch (const simgpu::DeviceLostError&) {
    rep.alive = false;
    ++report_.deaths;
    dev.mark("fleet.device_loss");
    LS2_LOG(kDebug) << "replica died"
                    << log_kv("replica", r).kv("t_us", dev.clock_us());
    rep.session->end_step();  // unwind the aborted step's arena state
    hand_over(rep.engine->evacuate(/*queued_only=*/false), r, dev.clock_us());
  } catch (const mem::TransientAllocFailure&) {
    // Retry budget exhausted: quarantine. The replica stays alive but backs
    // off the rotation for a doubling idle window; its requests move on.
    rep.session->end_step();
    ++rep.quarantines;
    ++report_.quarantines;
    dev.mark("fleet.quarantine");
    LS2_LOG(kDebug) << "replica quarantined"
                    << log_kv("replica", r).kv("count", rep.quarantines);
    hand_over(rep.engine->evacuate(/*queued_only=*/false), r, dev.clock_us());
    const double backoff =
        kQuarantineBaseUs *
        static_cast<double>(1 << std::min(rep.quarantines - 1, 16));
    // Advancing the clock is the quarantine: min-clock stepping and JSQ both
    // steer work away until the rest of the fleet catches up.
    dev.advance(backoff, /*busy=*/false, "fleet.quarantine");
  }
}

FleetReport Fleet::run(std::vector<Request> requests) {
  LS2_CHECK(!ran_) << "a Fleet runs once";
  ran_ = true;

  // Fleet time starts when the last replica's start-up (its graph-pool
  // capture) ends: the requests and the reload trigger are delayed by it,
  // so capture time lands in no latency and no makespan.
  for (Replica& rep : replicas_) {
    rep.engine->begin();
    opened_us_ = std::max(opened_us_, rep.engine->startup_us());
  }
  for (Request& r : requests) r.delay(opened_us_);
  if (cfg_.reload_at_us > 0) cfg_.reload_at_us += opened_us_;

  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.arrival_us < b.arrival_us; });
  tracked_.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) tracked_[i].base = std::move(requests[i]);

  size_t next_arrival = 0;
  int64_t guard = 0;
  const int64_t max_iter =
      1'000'000 + 4000 * static_cast<int64_t>(tracked_.size() + 1);
  while (completed_ < static_cast<int64_t>(tracked_.size())) {
    LS2_CHECK(++guard < max_iter) << "fleet event loop failed to converge";
    if (live_replicas() == 0) break;  // total outage: survivors become `lost`
    // Fleet time is the NEXT EVENT: the lagging busy replica or the next
    // arrival, whichever is earlier. Idle replicas' clocks are excluded —
    // an idle server is "caught up to" any later moment, and freezing fleet
    // time at its last busy instant would stall the hedge scan.
    double now = -1;
    for (const Replica& rep : replicas_) {
      if (!rep.alive || !rep.engine->has_work()) continue;
      const double c = rep.session->device().clock_us();
      if (now < 0 || c < now) now = c;
    }
    if (next_arrival < tracked_.size()) {
      const double ta = tracked_[next_arrival].base.arrival_us;
      if (now < 0 || ta < now) now = ta;
    }
    if (now < 0) now = fleet_now();  // fully drained: reload/backlog bookkeeping

    // Feed arrivals into the router, then drain the router backlog.
    while (next_arrival < tracked_.size() &&
           tracked_[next_arrival].base.arrival_us <= now)
      router_backlog_.push_back(next_arrival++);
    if (!router_backlog_.empty()) {
      std::vector<size_t> waiting;
      for (size_t ti : router_backlog_) {
        if (tracked_[ti].done || tracked_[ti].shed) continue;
        const int target = pick_replica(-1);
        if (target < 0) {
          waiting.push_back(ti);
          continue;
        }
        dispatch_to(ti, target, std::max(now, tracked_[ti].base.arrival_us),
                    /*hedge=*/false);
      }
      router_backlog_ = std::move(waiting);
    }

    hedge_scan(now);
    reload_tick(now);

    // Step the live replica with work whose clock is furthest behind.
    int r = -1;
    double best = 0;
    for (int i = 0; i < cfg_.replicas; ++i) {
      Replica& rep = replicas_[static_cast<size_t>(i)];
      if (!rep.alive || !rep.engine->has_work()) continue;
      const double c = rep.session->device().clock_us();
      if (r < 0 || c < best) {
        r = i;
        best = c;
      }
    }
    if (r < 0) {
      // Nobody has work. Advance every live replica to the next event —
      // the next arrival, or the reload trigger.
      double target = -1;
      if (next_arrival < tracked_.size())
        target = tracked_[next_arrival].base.arrival_us;
      if (cfg_.reload_at_us > 0 && !reload_started_ &&
          (target < 0 || cfg_.reload_at_us < target))
        target = cfg_.reload_at_us;
      if (reload_index_ >= 0 || !router_backlog_.empty()) {
        // Mid-reload (or backlogged with every peer draining): nudge time
        // forward so the drain completes / a replica frees up.
        if (target < 0) target = now + 100.0;
      }
      if (target < 0) break;  // no work, no future events: drained
      for (Replica& rep : replicas_) {
        if (!rep.alive) continue;
        simgpu::Device& dev = rep.session->device();
        if (dev.clock_us() < target)
          dev.advance(target - dev.clock_us(), /*busy=*/false, "fleet.idle");
      }
      continue;
    }
    step_replica(r);
    if (replicas_[static_cast<size_t>(r)].alive)
      handle_completions(r, replicas_[static_cast<size_t>(r)].session->device().clock_us());
  }

  FleetReport out;
  finalize(out);
  return out;
}

void Fleet::finalize(FleetReport& out) {
  for (Replica& rep : replicas_) {
    rep.report = rep.engine->finish();
    report_.decode_steps += rep.report.decode_steps;
    report_.replayed_steps += rep.report.replayed_steps;
    report_.generated_tokens += rep.report.generated_tokens;
    report_.decode_retries += rep.report.decode_retries;
    report_.makespan_us =
        std::max(report_.makespan_us, rep.session->device().clock_us() - opened_us_);
  }
  report_.tokens_per_sec =
      report_.makespan_us > 0
          ? static_cast<double>(report_.generated_tokens) /
                (report_.makespan_us * 1e-6)
          : 0;

  // Streaming-histogram percentiles (obs::Histogram), same discipline as
  // the per-engine report; the mean stays exact via count/sum.
  obs::Histogram lat;
  report_.requests.reserve(tracked_.size());
  for (const Tracked& t : tracked_) {
    RequestStats st;
    st.id = t.base.id;
    st.arrival_us = t.base.arrival_us;
    st.admitted_us = t.admitted_us;
    st.first_token_us = t.first_token_us;
    st.done_us = t.done_us;
    st.prompt_len = static_cast<int64_t>(t.base.prompt.size());
    st.generated = static_cast<int64_t>(t.tokens.size());
    st.tokens = t.tokens;
    st.shed = t.shed;
    st.deadline_retired = t.deadline_retired;
    if (t.done && !t.shed) {
      ++report_.served;
      lat.record(st.latency_us());
    } else if (t.shed) {
      ++report_.shed;
    } else {
      ++report_.lost;
    }
    report_.requests.push_back(std::move(st));
  }
  report_.p50_latency_us = lat.quantile(0.50);
  report_.p99_latency_us = lat.quantile(0.99);
  report_.mean_latency_us = lat.mean();
  for (Replica& rep : replicas_) report_.replica_reports.push_back(rep.report);
  if (obs::MetricsRegistry* m = metrics()) {
    m->counter("fleet.redispatches") += report_.redispatches;
    m->counter("fleet.deaths") += report_.deaths;
    m->counter("fleet.quarantines") += report_.quarantines;
    m->counter("fleet.reloads") += report_.reloads;
    m->counter("fleet.hedges_fired") += report_.hedges_fired;
    m->counter("fleet.hedge_wins") += report_.hedge_wins;
    m->counter("fleet.hedge_cancels") += report_.hedge_cancels;
    m->gauge("fleet.makespan_us") = report_.makespan_us;
    m->gauge("fleet.tokens_per_sec") = report_.tokens_per_sec;
  }
  out = report_;
}

void Fleet::write_chrome_trace(const std::string& path) const {
  simgpu::Timeline merged;
  for (int i = 0; i < cfg_.replicas; ++i) {
    const Replica& rep = replicas_[static_cast<size_t>(i)];
    const simgpu::Timeline& t = rep.session->device().timeline();
    merged.name_process(i, "replica " + std::to_string(i) +
                               (rep.alive ? "" : " (dead)"));
    for (const simgpu::BusySpan& s : t.busy_spans())
      merged.record_span(i, 0, "busy", s.begin_us, s.end_us);
    for (const simgpu::BusySpan& s : t.comm_spans())
      merged.record_span(i, 1, "comm", s.begin_us, s.end_us);
    for (const simgpu::NamedSpan& s : t.named_spans())
      merged.record_span(i, s.tid, s.name, s.begin_us, s.end_us);
    // Per-replica instants were recorded on (0,0); remap to this replica's
    // trace process so device losses / retries / hedges land on its lane.
    for (const simgpu::InstantEvent& e : t.instants())
      merged.record_instant(i, e.tid, e.name, e.t_us);
  }
  merged.write_chrome_trace(path);
}

}  // namespace ls2::infer
