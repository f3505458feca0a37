#include "infer/batcher.h"

#include <algorithm>
#include <cmath>

#include "memory/arena_allocator.h"
#include "memory/device_allocator.h"
#include "memory/measuring_allocator.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ls2::infer {

namespace {

/// Prompt rows one packed step carries at most: the chunked-prefill budget.
constexpr int64_t kChunkBudget = 128;
/// A packed step pads its chunk rows to a multiple of this (a whole 16-token
/// page); the session keeps one captured graph per capacity.
constexpr int64_t kCapacityQuantum = 16;

int64_t chunk_capacity(int64_t rows) {
  return (rows + kCapacityQuantum - 1) / kCapacityQuantum * kCapacityQuantum;
}

/// The largest chunk capacity an engine of `slots` lanes can reach: the
/// budget, or every lane holding its longest prompt (seq_tokens - 1 rows).
int64_t max_chunk_capacity(int64_t slots, int64_t seq_tokens) {
  return chunk_capacity(std::min(kChunkBudget, slots * (seq_tokens - 1)));
}

/// Deterministic stand-in token for model-only runs (no real logits): keeps
/// the control flow identical across eager and replayed serving.
int32_t synth_token(int64_t slot, int64_t generated, int64_t vocab) {
  return static_cast<int32_t>(3 + (slot * 131 + generated * 7) % std::max<int64_t>(vocab - 3, 1));
}

}  // namespace

ContinuousBatcher::ContinuousBatcher(core::Session& session, models::Gpt2& model,
                                     KvCache& cache, ServeConfig cfg)
    : session_(&session), model_(&model), cache_(&cache), cfg_(cfg), gen_(cfg.sampling) {}

int32_t ContinuousBatcher::harvest_token(int64_t lane, int64_t generated) const {
  if (session_->device().mode() == simgpu::ExecMode::kExecute) {
    return sampled_.data<int32_t>()[lane];
  }
  return synth_token(lane, generated, model_->config().vocab);
}

void ContinuousBatcher::begin() {
  const int64_t S = cache_->config().slots;
  reqs_.clear();
  pending_.clear();
  stats_.clear();
  completed_new_.clear();
  slots_.assign(static_cast<size_t>(S), SlotState{});
  report_ = ServeReport{};
  done_ = 0;
  draining_ = false;
  cache_->reset();
  // Host-written metadata tensors stay heap-backed (real even in model-only
  // sessions); the sampled tokens' shape never changes, so allocate once.
  sampled_ = Tensor::zeros({S}, DType::kI32);
  const double opened = session_->device().clock_us();
  capture_graph_pool();
  start_us_ = session_->device().clock_us();
  startup_us_ = start_us_ - opened;
  slo_.reset();
  if (obs::MetricsRegistry* m = session_->metrics()) {
    slo_.emplace(m, cfg_.metrics_prefix);
  }
  begun_ = true;
}

void ContinuousBatcher::submit(Request r) {
  LS2_CHECK(begun_) << "submit() before begin()";
  const size_t idx = reqs_.size();
  reqs_.push_back(std::move(r));
  RequestStats st;
  st.id = reqs_[idx].id;
  st.arrival_us = reqs_[idx].arrival_us;
  st.prompt_len = static_cast<int64_t>(reqs_[idx].prompt.size());
  stats_.push_back(std::move(st));
  pending_.push_back(idx);
}

bool ContinuousBatcher::admit(size_t r) {
  const Request& req = reqs_[r];
  const int64_t Lp = static_cast<int64_t>(req.prompt.size());
  LS2_CHECK(Lp > 0 && Lp < cache_->config().seq_tokens)
      << "prompt must fit the cache with room to generate";

  // Lane + pages (shared prefix pages reused when sharing is on). Failure
  // is backpressure, not an error: the request keeps its queue position.
  // The prompt itself runs in chunks inside the next packed steps.
  const SequenceHandle h = cache_->allocate(Lp, req.prompt.data());
  if (!h.valid()) return false;
  RequestStats& st = stats_[r];
  st.id = req.id;
  st.arrival_us = req.arrival_us;
  st.admitted_us = session_->device().clock_us();
  st.prompt_len = Lp;
  // A preempted request re-admits with its generated tokens folded into the
  // continuation prompt: this residency's token count starts from here.
  const int64_t already = static_cast<int64_t>(st.tokens.size());
  slots_[static_cast<size_t>(cache_->lane(h))] =
      SlotState{static_cast<int64_t>(r), h, already, already, 0};
  return true;
}

void ContinuousBatcher::shed(size_t r, double now) {
  RequestStats& st = stats_[r];
  st.id = reqs_[r].id;
  st.arrival_us = reqs_[r].arrival_us;
  st.prompt_len = static_cast<int64_t>(reqs_[r].prompt.size());
  st.shed = true;
  st.done_us = now;
  session_->device().mark("serve.shed");
  ++report_.shed_requests;
  completed_new_.push_back(r);
  ++done_;
  if (slo_) slo_->on_shed(now);
}

void ContinuousBatcher::run_admissions() {
  const double now = session_->device().clock_us();

  // Highest priority first, oldest first within a priority (stable over the
  // enqueue-ordered queue — preempted continuations sit at the front of
  // their class and resume before fresh arrivals).
  std::stable_sort(pending_.begin(), pending_.end(), [this](size_t a, size_t b) {
    return reqs_[a].spec.priority > reqs_[b].spec.priority;
  });

  // Shed the timed-out, admit the rest into free lanes. Once the cache
  // can't place a request the remaining waiters keep their place untouched.
  std::vector<size_t> still;
  still.reserve(pending_.size());
  bool full = false;
  size_t i = 0;
  try {
    for (; i < pending_.size(); ++i) {
      const size_t r = pending_[i];
      if (stats_[r].shed || stats_[r].cancelled) continue;  // already resolved
      if (full) {
        still.push_back(r);
        continue;
      }
      if (cfg_.admission_timeout_us > 0 &&
          now - reqs_[r].enqueue() > cfg_.admission_timeout_us) {
        shed(r, now);
        continue;
      }
      if (!admit(r)) {  // no lane or pages — the rest queue (or shed below)
        full = true;
        still.push_back(r);
      }
    }
  } catch (...) {
    // An admission threw (a prompt too long for the cache): the requests
    // this scan already admitted or shed leave the queue, the thrower and
    // everything after it stay.
    still.insert(still.end(), pending_.begin() + static_cast<std::ptrdiff_t>(i),
                 pending_.end());
    pending_ = std::move(still);
    throw;
  }
  pending_ = std::move(still);

  // Backpressure: bound the waiting line by rejecting the NEWEST arrivals —
  // the oldest waiters keep their place, so admitted-queue time stays
  // bounded instead of growing with the burst.
  if (cfg_.max_queue > 0) {
    while (static_cast<int64_t>(pending_.size()) > cfg_.max_queue) {
      shed(pending_.back(), now);
      pending_.pop_back();
    }
  }
}

void ContinuousBatcher::preempt(int64_t s, double now) {
  SlotState& ss = slots_[static_cast<size_t>(s)];
  Request& req = reqs_[static_cast<size_t>(ss.req)];
  RequestStats& st = stats_[static_cast<size_t>(ss.req)];
  // Recompute preemption: fold this residency's tokens into a continuation
  // prompt and give the pages back. Re-admission re-prefills prompt +
  // prefix — often mostly shared pages when sharing is on.
  req.prompt.insert(req.prompt.end(), st.tokens.begin() + ss.admitted_tokens,
                    st.tokens.end());
  cache_->free(ss.handle);
  session_->device().mark("serve.preempt");
  ++report_.preemptions;
  if (static_cast<int64_t>(req.prompt.size()) >= cache_->config().seq_tokens) {
    // The continuation could not be re-admitted with room to generate:
    // ship the partial answer now instead of bouncing forever.
    st.done_us = now;
    st.generated = static_cast<int64_t>(st.tokens.size());
    completed_new_.push_back(static_cast<size_t>(ss.req));
    ++done_;
    if (slo_) slo_->on_served(st.done_us, st.latency_us(), st.generated);
  } else {
    req.enqueue_us = now;  // fresh queue-time clock; arrival_us (SLO) survives
    pending_.insert(pending_.begin(), static_cast<size_t>(ss.req));
  }
  ss = SlotState{};
}

void ContinuousBatcher::extend_residents() {
  auto& ctx = session_->ctx();
  const double now = session_->device().clock_us();
  const int64_t S = cache_->config().slots;
  for (int64_t s = 0; s < S; ++s) {
    const SlotState& ss = slots_[static_cast<size_t>(s)];
    // Mid-prompt lanes append nothing: allocate() backed their whole prompt.
    if (ss.req < 0 || !cache_->prompt_done(ss.handle)) continue;
    while (!cache_->extend(slots_[static_cast<size_t>(s)].handle, ctx.kern)) {
      // Pool dry: evict the lowest-priority resident, newest arrival on
      // ties — possibly this very lane. Each eviction frees at least one
      // lane, so the loop terminates.
      int64_t victim = -1;
      for (int64_t v = 0; v < S; ++v) {
        if (slots_[static_cast<size_t>(v)].req < 0) continue;
        if (victim < 0) {
          victim = v;
          continue;
        }
        const Request& rv = reqs_[static_cast<size_t>(slots_[static_cast<size_t>(v)].req)];
        const Request& rb =
            reqs_[static_cast<size_t>(slots_[static_cast<size_t>(victim)].req)];
        if (rv.spec.priority < rb.spec.priority ||
            (rv.spec.priority == rb.spec.priority && rv.arrival_us > rb.arrival_us)) {
          victim = v;
        }
      }
      LS2_CHECK(victim >= 0);
      preempt(victim, now);
      if (victim == s) break;  // evicted ourselves; the lane is free now
    }
  }
}

void ContinuousBatcher::retire(int64_t s, bool expired) {
  SlotState& ss = slots_[static_cast<size_t>(s)];
  RequestStats& st = stats_[static_cast<size_t>(ss.req)];
  st.done_us = session_->device().clock_us();
  st.generated = ss.generated;
  if (expired) {
    st.deadline_retired = true;
    ++report_.deadline_retired;
  }
  cache_->free(ss.handle);
  completed_new_.push_back(static_cast<size_t>(ss.req));
  ss = SlotState{};
  ++done_;
  if (slo_) slo_->on_served(st.done_us, st.latency_us(), st.generated);
}

Tensor& ContinuousBatcher::step_ids(int64_t chunk_rows) {
  Tensor& ids = step_ids_[chunk_rows];
  if (!ids.defined())
    ids = Tensor::zeros({cache_->config().slots + chunk_rows, 1}, DType::kI32);
  return ids;
}

void ContinuousBatcher::forward_step(core::GraphAction act, int64_t chunk_rows,
                                     const char* range) {
  auto& dev = session_->device();
  auto& ctx = session_->ctx();
  const layers::PagedRows& rows = cache_->begin_step(chunk_rows);
  core::GraphRegion region(*session_, act, chunk_rows);
  {
    obs::SpanScope span(dev, range);
    const Tensor logits =
        model_->forward_cached(ctx, step_ids(chunk_rows), *cache_, rows);  // [S, 1, V]
    gen_.next_tokens(ctx.kern, ctx.policy.softmax,
                     logits.view({cache_->config().slots, model_->config().vocab}), sampled_);
  }
  region.close();
}

void ContinuousBatcher::capture_graph_pool() {
  // vLLM-style start-up capture: one all-padding step per capacity, before
  // the run's clock starts, at a step index past the warm-up (the arena
  // needs none). Every later step replays, and the step index ends where it
  // began: the sampling RNG offset is a replay-time parameter, so a
  // capturing engine samples exactly what an eager one does.
  const int64_t step = session_->step_index();
  session_->rewind_to_step(std::max<int64_t>(step, session_->config().graph_warmup_steps));
  const int64_t top = max_chunk_capacity(cache_->config().slots, cache_->config().seq_tokens);
  for (int64_t cap = 0; cap <= top && !session_->graph_poisoned(); cap += kCapacityQuantum) {
    const core::GraphAction act = session_->begin_step(cap);
    if (act != core::GraphAction::kCapture) continue;  // stored already, or capture off
    step_ids(cap).fill_(static_cast<float>(model_->config().pad_id));
    forward_step(act, cap, "serve.capture");
    session_->end_step();
  }
  session_->rewind_to_step(step);
}

void ContinuousBatcher::run_step() {
  auto& dev = session_->device();
  const int64_t S = cache_->config().slots;
  const bool execute = dev.mode() == simgpu::ExecMode::kExecute;

  // Page bookkeeping (allocation, COW) happens here, before any capture.
  extend_residents();

  // Chunks of the prompts still running, oldest sequence first, up to the
  // budget; the step pads them to the next captured capacity.
  std::vector<SequenceHandle> prompts;
  for (const SlotState& ss : slots_) {
    if (ss.req >= 0 && !cache_->prompt_done(ss.handle)) prompts.push_back(ss.handle);
  }
  std::sort(prompts.begin(), prompts.end(),
            [](SequenceHandle a, SequenceHandle b) { return a.id < b.id; });
  const std::vector<PromptChunk>& chunks = cache_->plan_chunks(prompts, kChunkBudget);
  int64_t chunk_rows = 0;
  for (const PromptChunk& c : chunks) chunk_rows += c.end - c.begin;
  const int64_t cap = chunk_capacity(chunk_rows);

  int32_t* ip = step_ids(cap).data<int32_t>();
  const int32_t pad = model_->config().pad_id;
  for (int64_t s = 0; s < S; ++s) {
    const SlotState& ss = slots_[static_cast<size_t>(s)];
    ip[s] = ss.req >= 0 && cache_->prompt_done(ss.handle) ? ss.next_token : pad;
  }
  int64_t row = S;
  for (const PromptChunk& c : chunks) {
    const SlotState& ss = slots_[static_cast<size_t>(cache_->lane(c.seq))];
    const std::vector<int32_t>& prompt = reqs_[static_cast<size_t>(ss.req)].prompt;
    for (int32_t i = c.begin; i < c.end; ++i) ip[row++] = prompt[static_cast<size_t>(i)];
  }
  std::fill(ip + row, ip + S + cap, pad);

  // A transient allocation failure (injected or real) aborts the
  // attempt — the graph region abandons any open capture/replay, the
  // arena rewinds via end_step — and the step reruns after a doubling
  // idle backoff. The cache's lengths, prompt progress and page writes
  // move only at commit_step, so a rerun is exact, chunks included. The
  // retry budget bounds how long a request can be stalled by a flapping
  // fault before the error surfaces.
  int attempts = 0;
  for (;;) {
    try {
      const core::GraphAction act = session_->begin_step(cap);
      forward_step(act, cap, "serve.decode");
      if (act == core::GraphAction::kReplay) ++report_.replayed_steps;
      break;
    } catch (const mem::TransientAllocFailure&) {
      if (++attempts > cfg_.decode_retries) throw;
      ++report_.decode_retries;
      dev.mark("serve.decode_retry");
      session_->end_step();  // rewind the aborted attempt's arena state
      const double backoff =
          cfg_.retry_backoff_us * static_cast<double>(1 << (attempts - 1));
      if (backoff > 0) dev.advance(backoff, /*busy=*/false, "serve.retry_backoff");
    }
  }
  cache_->commit_step();
  ++report_.decode_steps;
  report_.prefill_rows += chunk_rows;

  // --- harvest and retire: every lane past its prompt sampled a token —
  // its next one, or the first of a prompt whose last chunk just ran.
  for (int64_t s = 0; s < S; ++s) {
    SlotState& ss = slots_[static_cast<size_t>(s)];
    if (ss.req < 0 || !cache_->prompt_done(ss.handle)) continue;
    const Request& rq = reqs_[static_cast<size_t>(ss.req)];
    RequestStats& st = stats_[static_cast<size_t>(ss.req)];
    const int32_t tok = harvest_token(s, ss.generated);
    if (ss.generated == ss.admitted_tokens) {  // this residency's first token
      ++report_.prefills;
      if (st.first_token_us == 0) st.first_token_us = dev.clock_us();
    }
    st.tokens.push_back(tok);
    ++ss.generated;
    ++report_.generated_tokens;
    // Retire at the request's cap, at EOS, or when the sequence's token
    // budget is full — capacity caps generation rather than crashing.
    const int32_t eos = rq.spec.eos_id >= 0 ? rq.spec.eos_id : cfg_.eos_id;
    const bool natural = ss.generated >= rq.spec.gen_len ||
                         (execute && eos >= 0 && tok == eos) ||
                         cache_->len(ss.handle) >= cache_->config().seq_tokens;
    // Deadline degradation: past the SLO, ship the partial answer now —
    // never before the first token. The deadline runs from the ORIGINAL
    // arrival — a re-dispatched request does not get a fresh SLO budget.
    const double ddl = rq.spec.deadline_us > 0 ? rq.spec.deadline_us : cfg_.deadline_us;
    const bool expired =
        !natural && ddl > 0 && dev.clock_us() - rq.arrival_us >= ddl;
    if (natural || expired) {
      retire(s, expired);
    } else {
      ss.next_token = tok;
    }
  }
  session_->end_step();  // arena rewind + per-step RNG advance
}

bool ContinuousBatcher::step() {
  LS2_CHECK(begun_) << "step() before begin()";
  // Admissions only claim lanes and pages (host bookkeeping, outside the
  // captured region); a draining replica admits nothing — its queue was
  // evacuated, residents finish.
  const bool may_admit =
      !draining_ &&
      (cfg_.mode == BatchMode::kContinuous || cache_->active_seqs() == 0);
  if (may_admit) run_admissions();
  const bool decoded = cache_->active_seqs() > 0;
  if (decoded) run_step();
  if (slo_) {
    // The "live" part of the SLO monitors: rolling gauges refresh once per
    // engine step, while the workload is in flight.
    slo_->refresh(session_->device().clock_us());
    obs::MetricsRegistry* m = session_->metrics();
    m->gauge(cfg_.metrics_prefix + ".queue_depth") =
        static_cast<double>(queue_depth());
    m->gauge(cfg_.metrics_prefix + ".resident") = static_cast<double>(resident());
    const KvCache::Stats& ks = cache_->stats();
    m->gauge(cfg_.metrics_prefix + ".kv.page_occupancy") =
        static_cast<double>(cache_->used_pages()) /
        static_cast<double>(cache_->config().pool_pages());
    // Prompt pages only, as ServeReport counts them: decode pages share nothing.
    m->gauge(cfg_.metrics_prefix + ".kv.share_ratio") =
        static_cast<double>(ks.shared_page_hits) /
        static_cast<double>(std::max<int64_t>(1, ks.shared_page_hits + ks.prefill_pages));
    m->gauge(cfg_.metrics_prefix + ".kv.kept_pages") = static_cast<double>(cache_->kept_pages());
  }
  return decoded;
}

std::vector<ContinuousBatcher::Evacuated> ContinuousBatcher::evacuate(bool queued_only) {
  std::vector<Evacuated> out;
  for (size_t r : pending_) {
    if (stats_[r].shed || stats_[r].cancelled) continue;
    stats_[r].cancelled = true;
    ++done_;
    out.push_back({reqs_[r], stats_[r]});
  }
  pending_.clear();
  if (!queued_only) {
    const int64_t S = cache_->config().slots;
    for (int64_t s = 0; s < S; ++s) {
      SlotState& ss = slots_[static_cast<size_t>(s)];
      if (ss.req < 0) continue;
      const size_t r = static_cast<size_t>(ss.req);
      stats_[r].cancelled = true;
      stats_[r].generated = ss.generated;
      ++done_;
      out.push_back({reqs_[r], stats_[r]});
      cache_->free(ss.handle);
      ss = SlotState{};
    }
  }
  return out;
}

bool ContinuousBatcher::cancel(int64_t id) {
  const int64_t S = cache_->config().slots;
  for (int64_t s = 0; s < S; ++s) {
    SlotState& ss = slots_[static_cast<size_t>(s)];
    if (ss.req < 0 || reqs_[static_cast<size_t>(ss.req)].id != id) continue;
    RequestStats& st = stats_[static_cast<size_t>(ss.req)];
    st.cancelled = true;
    st.generated = ss.generated;
    cache_->free(ss.handle);
    ss = SlotState{};
    ++done_;
    return true;
  }
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (reqs_[*it].id != id) continue;
    stats_[*it].cancelled = true;
    ++done_;
    pending_.erase(it);
    return true;
  }
  return false;  // already completed (or never submitted): too late
}

std::vector<RequestStats> ContinuousBatcher::take_completed() {
  std::vector<RequestStats> out;
  out.reserve(completed_new_.size());
  for (size_t r : completed_new_) out.push_back(stats_[r]);
  completed_new_.clear();
  return out;
}

ServeReport ContinuousBatcher::finish() {
  auto& dev = session_->device();
  report_.makespan_us = dev.clock_us() - start_us_;
  report_.tokens_per_sec = report_.makespan_us > 0
                               ? static_cast<double>(report_.generated_tokens) /
                                     (report_.makespan_us * 1e-6)
                               : 0;
  const KvCache::Stats& ks = cache_->stats();
  report_.peak_resident = ks.peak_active_seqs;
  report_.peak_pages_used = ks.peak_used_pages;
  report_.prefill_page_allocs = ks.prefill_pages;
  report_.shared_page_hits = ks.shared_page_hits;
  report_.kept_hits = ks.kept_hits;
  report_.evicted_pages = ks.evicted_pages;
  report_.cow_copies = ks.cow_copies;
  // Streaming-histogram percentiles (obs::Histogram): O(1) per record and a
  // bucket walk per quantile, instead of sorting the full latency vector.
  // count/sum/min/max are exact, so the mean is too; the quantiles carry
  // the bucket-resolution error bound (< growth-1, further interpolated).
  obs::Histogram lat;
  for (const RequestStats& st : stats_) {
    if (st.shed || st.cancelled) continue;  // an error / a hand-over, not a latency
    lat.record(st.latency_us());
  }
  report_.served = lat.count();
  report_.p50_latency_us = lat.quantile(0.50);
  report_.p99_latency_us = lat.quantile(0.99);
  report_.mean_latency_us = lat.mean();
  if (obs::MetricsRegistry* m = session_->metrics()) {
    m->counter(cfg_.metrics_prefix + ".prefills") += report_.prefills;
    m->counter(cfg_.metrics_prefix + ".prefill_rows") += report_.prefill_rows;
    m->counter(cfg_.metrics_prefix + ".decode_steps") += report_.decode_steps;
    m->counter(cfg_.metrics_prefix + ".replayed_steps") += report_.replayed_steps;
    m->counter(cfg_.metrics_prefix + ".generated_tokens") += report_.generated_tokens;
    m->counter(cfg_.metrics_prefix + ".decode_retries") += report_.decode_retries;
    m->counter(cfg_.metrics_prefix + ".deadline_retired") += report_.deadline_retired;
    m->counter(cfg_.metrics_prefix + ".kv.shared_page_hits") += report_.shared_page_hits;
    m->counter(cfg_.metrics_prefix + ".kv.kept_hits") += report_.kept_hits;
    m->counter(cfg_.metrics_prefix + ".kv.evicted_pages") += report_.evicted_pages;
    m->counter(cfg_.metrics_prefix + ".kv.cow_copies") += report_.cow_copies;
    m->counter(cfg_.metrics_prefix + ".kv.preemptions") += report_.preemptions;
  }
  report_.requests = std::move(stats_);
  stats_.clear();
  begun_ = false;
  return std::move(report_);
}

ServeReport ContinuousBatcher::serve(std::vector<Request> requests) {
  auto& dev = session_->device();
  begin();
  // The request timeline starts when start-up ends: capture time lands in
  // no request's latency, as it lands in no makespan.
  for (Request& r : requests) r.delay(startup_us_);
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.enqueue() < b.enqueue(); });
  reqs_ = std::move(requests);
  stats_.assign(reqs_.size(), RequestStats{});
  for (size_t i = 0; i < reqs_.size(); ++i) {
    stats_[i].id = reqs_[i].id;
    stats_[i].arrival_us = reqs_[i].arrival_us;
    stats_[i].prompt_len = static_cast<int64_t>(reqs_[i].prompt.size());
  }

  size_t next_feed = 0;
  while (done_ < static_cast<int64_t>(reqs_.size())) {
    // Feed the queue with everything that has arrived by now.
    const double now = dev.clock_us();
    while (next_feed < reqs_.size() && reqs_[next_feed].enqueue() <= now)
      pending_.push_back(next_feed++);

    if (!step() && !has_work()) {
      if (done_ >= static_cast<int64_t>(reqs_.size())) break;
      LS2_CHECK(next_feed < reqs_.size());
      // Nothing resident: idle until the next arrival.
      const double wait = reqs_[next_feed].enqueue() - dev.clock_us();
      if (wait > 0) dev.advance(wait, /*busy=*/false, "serve.idle");
    }
  }

  return finish();
}

std::vector<Request> poisson_requests(int64_t n, double rate_per_sec, int64_t prompt_lo,
                                      int64_t prompt_hi, int64_t gen_lo, int64_t gen_hi,
                                      int64_t vocab, uint64_t seed) {
  LS2_CHECK(rate_per_sec > 0 && n > 0);
  LS2_CHECK(prompt_lo >= 1 && prompt_hi >= prompt_lo && gen_lo >= 1 && gen_hi >= gen_lo);
  Rng rng(seed);
  std::vector<Request> reqs;
  reqs.reserve(static_cast<size_t>(n));
  double t_us = 0;
  const double mean_gap_us = 1e6 / rate_per_sec;
  for (int64_t i = 0; i < n; ++i) {
    // Exponential inter-arrival gaps -> Poisson process.
    const double u = std::max(1e-12, 1.0 - static_cast<double>(rng.uniform(1, static_cast<uint64_t>(i))));
    t_us += -std::log(u) * mean_gap_us;
    Request r;
    r.id = i;
    r.arrival_us = t_us;
    const int64_t plen = prompt_lo + rng.randint(2, static_cast<uint64_t>(i), prompt_hi - prompt_lo + 1);
    r.prompt.reserve(static_cast<size_t>(plen));
    for (int64_t j = 0; j < plen; ++j) {
      r.prompt.push_back(static_cast<int32_t>(
          3 + rng.randint(3, static_cast<uint64_t>(i * 1024 + j), std::max<int64_t>(vocab - 3, 1))));
    }
    r.spec.gen_len = gen_lo + rng.randint(4, static_cast<uint64_t>(i), gen_hi - gen_lo + 1);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

size_t serve_capacity_scan(const models::Gpt2Config& cfg, DType dtype, int64_t slots,
                           int64_t max_len, int64_t max_prompt_len, uint64_t seed) {
  LS2_CHECK(max_prompt_len < max_len);
  // Probe in model-only mode: allocation is byte-identical to execute mode
  // (every tensor is created outside kernel bodies) and the math is skipped.
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  mem::CachingAllocator param_alloc(dev, mem::DeviceAllocator::Backing::kVirtual);
  models::Gpt2 model(cfg, layers::System::kLightSeq2, dtype, seed, &param_alloc);
  KvCache cache(model.kv_cache_config(slots, max_len), &param_alloc);

  // The engine's steps, whatever the prompt lengths: every lane's decode row
  // plus 0..top chunk rows, with logits and the sampling launch for one row
  // per lane. Padding rows allocate exactly what real ones do.
  const int64_t top = max_chunk_capacity(slots, cache.config().seq_tokens);
  auto probe_step = [&](BufferAllocator& alloc, int64_t cap) {
    layers::LayerContext ctx(dev, &alloc, layers::policy_for(layers::System::kLightSeq2), seed);
    const Tensor ids = Tensor::zeros({slots + cap, 1}, DType::kI32);
    const Tensor sampled = Tensor::zeros({slots}, DType::kI32);
    const Tensor logits = model.forward_cached(ctx, ids, cache, cache.begin_step(cap));
    kern::argmax_rows(ctx.kern, kern::Impl::kLS2, logits.view({slots, cfg.vocab}), sampled);
  };
  // The top capacity holds the most live bytes, counted in the arena's
  // blocks...
  mem::MeasuringAllocator live(mem::ArenaAllocator::kAlign);
  probe_step(live, top);
  // ...but first fit can strand free bytes between live blocks, so the
  // arena must reach the furthest block end of every step shape: replay
  // each capacity through an arena with room to spare.
  mem::ArenaAllocator arena(dev, 4 * static_cast<size_t>(live.peak_bytes()),
                            mem::DeviceAllocator::Backing::kVirtual);
  for (int64_t cap = 0; cap <= top; cap += kCapacityQuantum) {
    probe_step(arena, cap);
    arena.reset();
  }
  const size_t need = arena.extent();
  return need + need / 16;
}

}  // namespace ls2::infer
